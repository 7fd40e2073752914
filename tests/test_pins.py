"""The rows of ``pins.py`` that only CI ran before, and the runner's own
failures.  Each golden row runs under its own test, in
``test_ladder_golden.py`` and ``test_census.py``."""

import dataclasses

import pytest

import pins


@pytest.mark.parametrize("row", [r for r in pins.CI_ROWS if not r.slow], ids=lambda r: r.name)
def test_ci_row_pinned(row):
    assert pins.failures(row) == []


ROW = pins.ROW["ladder strand"]
H = ROW.sha256["trace.json"]
FAULTS = {  # a broken copy of ROW, and the one FAIL line it must print
    "corrupted hash": (dataclasses.replace(ROW, sha256={"trace.json": "0" * 64}),
                       f"FAIL  ladder strand  trace.json  {'0' * 64}  {H}"),
    "command exits 2": (dataclasses.replace(ROW, commands=[*ROW.commands,
                                                           "window strand --family-cut 0"]),
                        "FAIL  ladder strand  exit 2: window strand --family-cut 0"),
    "output never written": (dataclasses.replace(ROW, sha256={**ROW.sha256, "none.json": H}),
                             f"FAIL  ladder strand  none.json  {H}  missing"),
}


def test_the_runner_passes_a_good_row(capsys):
    assert pins.main([ROW]) == 0
    assert capsys.readouterr().out == f"ok    ladder strand  trace.json  {H}  {H}\n"


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_the_runner_fails_a_broken_row(capsys, fault):
    row, line = FAULTS[fault]
    assert pins.main([row]) == 1
    assert [s for s in capsys.readouterr().out.splitlines() if s.startswith("FAIL")] == [line]
