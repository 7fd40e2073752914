"""Fuzz test of the CLI contract: for any input file, every system command
exits 0, 1 or 2 and raises nothing, and so does ``window`` for any term,
cuts and degree cap, and ``ladder`` for any term, locator and degree cap.

Inputs range from well-formed systems (unique points, known names, identity
or constant maps) through wrong types, duplicates and unknown names to
non-object tops, extra fields and bytes that are not UTF-8 text.  Window
cuts include values far above the point cap, which must be refused before
anything is built.  Terms nest up to 5,000 levels and locators name
blocks far past the block cap, which must be refused before any term of
that depth is built.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from fixfactor.cli import main
from fixfactor.ladder.terms import NESTING_CAP

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


def deep(levels: int, base: str = "strand") -> str:
    return "cat(" * levels + base + ")" * levels


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
@given(TERMS | st.builds(deep, st.integers(NESTING_CAP + 1, 5000)), CUTS, CUTS,
       st.sampled_from(["w*2", "w", "0", "x"]), st.booleans(), st.booleans())
@example(deep(5000), 1, 1, "w*2", True, False)
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


LADDER_TERMS = TERMS | st.builds(deep, st.integers(0, 5000),
                                 st.sampled_from(["strand", "ramp", "x"]))
LOCATOR_TOKENS = st.sampled_from(["K", "B", "c", "S", "z", "A", "R", "m", "top",
                                  ":", "/", "-"]) \
    | st.integers(0, 12).map(str) | st.sampled_from(["99", "100", "101", "490", "990"]) \
    | st.integers(0, 10**30).map(str)
LOCATORS = st.none() | st.lists(LOCATOR_TOKENS, max_size=10).map("".join) \
    | st.sampled_from(["c:m", "B1/K0/c:m", "K2/B1/K0/c:m", "B2/K1/K0/c:3", "S:2:m",
                       "z:m", "B990/A", "B5000/A", "B-5/A"])
DEGREES = st.sampled_from(["w*2", "w", "w+1", "w^2", "0", "3", "x", "", "w^1",
                           "9" * 5000]) | st.text("w^*+0123456789", max_size=8)


# Hypothesis raises the recursion limit while a test runs, so a term must
# nest deeper here than the 1,200 levels a fresh interpreter fails on
# (``test_depth_refused_without_traceback`` runs those); a negative block
# index recursed without end.
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(LADDER_TERMS, LOCATORS, DEGREES)
@example(deep(5000), None, "w*2")
@example("ramp", "B990/A", "w*2")
@example("ramp", "B-5/A", "w*2")
@example("strand", None, "9" * 5000)
def test_ladder_exit_codes_on_arbitrary_input(term, locator, max_degree):
    argv = ["ladder", term, "--max-degree", max_degree]
    if locator is not None:
        argv += ["--aorb0", locator]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
