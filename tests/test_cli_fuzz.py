"""Fuzz test of the CLI contract: for any input file, every system command
exits 0, 1 or 2 and raises nothing, and so does ``window`` for any term,
cuts and degree cap.

Inputs range from well-formed systems (unique points, known names, identity
or constant maps) through wrong types, duplicates and unknown names to
non-object tops, extra fields and bytes that are not UTF-8 text.  Window
cuts include values far above the point cap, which must be refused before
anything is built.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from fixfactor.cli import main

NAMES = st.sampled_from(["a", "b", "c", "d", "e", "f"]) | st.text(max_size=2)

JSON = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


# At most one field of a well-formed document is corrupted, so that
# most documents load and reach the commands themselves.
CORRUPT = {
    "points": JSON | st.lists(NAMES, max_size=6),  # may repeat names
    "specializes": JSON | st.lists(st.lists(NAMES | JSON, max_size=3), max_size=3),
    "map": JSON | st.dictionaries(NAMES, NAMES | JSON, max_size=7),
}


@st.composite
def inputs(draw):
    """File bytes, and a --set argument that mostly names the file's points."""
    points = draw(st.lists(NAMES, min_size=1, max_size=6, unique=True))
    member = st.sampled_from(points)
    members = draw(st.lists(member, min_size=1, max_size=3)
                   | st.lists(NAMES, max_size=3))
    kind = draw(st.sampled_from(["system"] * 4 + ["json", "bytes"]))
    if kind == "bytes":
        return draw(st.binary(max_size=12)), ",".join(members)
    if kind == "json":
        return json.dumps(draw(JSON)).encode(), ",".join(members)
    fixed = draw(member)
    doc = {
        "points": points,
        "specializes": draw(st.lists(st.lists(member, min_size=2, max_size=2),
                                     max_size=4)),
        "map": draw(st.sampled_from([{p: p for p in points},
                                     {p: fixed for p in points}])
                    | st.dictionaries(member, member, max_size=6)),
    }
    fault = draw(st.sampled_from([None, None, None, "drop", "extra", *CORRUPT]))
    if fault == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif fault == "extra":
        doc[draw(st.sampled_from(["extra", "x"]))] = draw(JSON)
    elif fault is not None:
        doc[fault] = draw(CORRUPT[fault])
    return json.dumps(doc).encode(), ",".join(members)


COMMANDS = ("decompose", "trace", "oracle", "quotient", "ergodic", "export-dot")


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(inputs())
def test_cli_exit_codes_on_arbitrary_input(case):
    content, members = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "system.json"
        path.write_bytes(content)
        out = str(Path(tmp) / "out")
        runs = [[cmd, str(path)] for cmd in COMMANDS]
        runs.append(["lyapunov", str(path), "--set", members])
        for argv in runs:
            assert main(argv + ["--out", out]) in (0, 1, 2), argv


# Terms nest at most two levels, so every audit within the cuts below stays
# under a quarter of a second; the junk covers parse, depth and empty terms.
TERMS = st.sampled_from([
    "strand", "ramp", "cat(strand)", "cat(ramp)", "cat(cat(strand))",
    "cat(cat(ramp))", "cat(", "ramp)", "cat()", "",
    "cat(cat(cat(cat(cat(cat(cat(strand)))))))",
]) | st.text(max_size=6)
CUTS = st.integers(-1, 4) | st.sampled_from([40, 10**9])


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(TERMS, CUTS, CUTS, st.sampled_from(["w*2", "w", "0", "x"]),
       st.booleans(), st.booleans())
def test_window_exit_codes_on_arbitrary_cuts(term, family_cut, strand_cut,
                                             max_degree, check, system_out):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["window", term, "--family-cut", str(family_cut),
                "--strand-cut", str(strand_cut), "--max-degree", max_degree,
                "--out", str(Path(tmp) / "out")]
        if check:
            argv.append("--check")
        if system_out:
            argv += ["--system-out", str(Path(tmp) / "system.json")]
        assert main(argv) in (0, 1, 2), argv
