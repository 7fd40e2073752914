"""Byte pins of the ladder and window outputs, each a row of ``pins.py``.

Each row pins the sha256 of files the CLI writes with ``--out`` (or
``--system-out``), so that any change to a symbolic trace, a base-degree
orbit, a window's points and frontier, its audit, its exported system or
the decomposition of that system shows up.
"""

import json

import pytest

from fixfactor.cli import main
import pins


@pytest.mark.parametrize("term,m,j", sorted(pins.WINDOW_SHA256))
def test_window_outputs_pinned(term, m, j):
    assert pins.failures(pins.ROW[f"window {term} ({m},{j})"]) == []


@pytest.mark.parametrize("term,m,j", sorted(pins.DECOMPOSE_SHA256))
def test_decompose_of_window_dump_pinned(term, m, j):
    assert pins.failures(pins.ROW[f"decompose {term} ({m},{j})"]) == []


@pytest.mark.parametrize("term", sorted(pins.TRACE_SHA256))
def test_ladder_trace_outputs_pinned(term):
    assert pins.failures(pins.ROW[f"ladder {term}"]) == []


@pytest.mark.parametrize("term,locator", sorted(pins.AORB0_SHA256))
def test_ladder_aorb0_outputs_pinned(term, locator):
    assert pins.failures(pins.ROW[f"ladder {term} --aorb0 {locator}"]) == []


def test_lyapunov_on_window_dump_pinned(tmp_path):
    # the oracle that a CI row pins, and the `lyapunov` verdicts on its classes
    (oracle_sha256,) = {row.sha256["do.json"] for row in pins.ROWS if "do.json" in row.sha256}
    dump, oracle = tmp_path / "d.json", tmp_path / "do.json"
    assert main(["window", "cat(ramp)", "--family-cut", "6", "--strand-cut", "6",
                 "--system-out", str(dump), "--out", str(tmp_path / "dw.json")]) == 0
    assert main(["oracle", str(dump), "--out", str(oracle)]) == 0
    assert pins.sha256(oracle) == oracle_sha256
    (top_class,) = [c for c in json.loads(oracle.read_text())["classes"] if "top" in c]
    assert len(top_class) == 41
    for name, members, verdict in (("top", ["top"], False),
                                   ("class of top", top_class, True)):
        out = tmp_path / "lyapunov.json"
        assert main(["lyapunov", str(dump), "--set", ",".join(members),
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["absolutely_stable"] is verdict
        assert pins.sha256(out) == pins.LYAPUNOV_SHA256[name]
