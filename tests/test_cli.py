import json
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import fixfactor
from fixfactor.census import JOBS_LIMIT, enumerate_systems, run_census
from fixfactor.cli import (
    _covering_pairs,
    load_system,
    main,
    make_parser,
    report_json,
    system_from_json,
)
from fixfactor.errors import FormatError
from fixfactor.systems import discrete_swap_plus_fixed
from fixfactor.topology import system_payload
from references import covering_pairs, random_systems


@pytest.fixture
def swap_file(tmp_path):
    path = tmp_path / "swap.json"
    path.write_text(json.dumps(system_payload(discrete_swap_plus_fixed())))
    return str(path)


@pytest.fixture
def sier_file(tmp_path):
    path = tmp_path / "sier.json"
    path.write_text(json.dumps({
        "points": ["a", "b"],
        "specializes": [["a", "b"]],
        "map": {"a": "a", "b": "a"},
    }))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_module(*argv):
    """Run the CLI in a fresh interpreter, so that a traceback reaches stderr."""
    src = Path(fixfactor.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-m", "fixfactor.cli", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
    )


def test_decompose_report(swap_file, capsys):
    code, out = run_cli(capsys, "decompose", swap_file)
    assert code == 0
    rep = json.loads(out)
    assert rep["dim_fix"] == 2
    assert rep["ergodic"] is False
    assert rep["oracle_matches"] is True
    assert sorted(map(sorted, rep["stationary_classes"])) == [["a", "b"], ["c"]]


def test_decompose_dot_format(sier_file, capsys):
    code, out = run_cli(capsys, "decompose", sier_file, "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert '"b" -> "a";' in out            # map edge
    assert '"a" -> "b" [style=dashed' in out  # covering specialization


def test_ergodic_sierpinski(sier_file, capsys):
    code, out = run_cli(capsys, "ergodic", sier_file)
    assert code == 0
    assert json.loads(out)["ergodic"] is True


def test_lyapunov_set_c(swap_file, capsys):
    code, out = run_cli(capsys, "lyapunov", swap_file, "--set", "c")
    assert code == 0
    rep = json.loads(out)
    assert rep["absolutely_stable"] is True and rep["stable_plain"] is True


def test_oracle_and_quotient(swap_file, capsys):
    code, out = run_cli(capsys, "oracle", swap_file)
    assert code == 0 and json.loads(out)["dim_fix"] == 2
    code, out = run_cli(capsys, "quotient", swap_file)
    assert code == 0
    rep = json.loads(out)
    assert len(rep["quotient"]["points"]) == 2
    # emitted quotient re-parses as a valid system
    system_from_json(rep["quotient"])


def test_ladder_command(capsys):
    code, out = run_cli(capsys, "ladder", "cat(strand)", "--max-degree", "w+2")
    assert code == 0
    rep = json.loads(out)
    assert rep["stabilization_degree"] == "1"
    assert rep["entries"][0]["class_count"] == 2


def test_ladder_aorb0_flag(capsys):
    code, out = run_cli(capsys, "ladder", "cat(strand)", "--aorb0", "c:m")
    assert code == 0
    rep = json.loads(out)
    kinds = {(c["kind"], c.get("at") or c.get("region"))
             for c in rep["aorb0"]["components"]}
    assert ("point", "c:m-1") in kinds and ("strand", "S:m") in kinds


def chain_orbit(prefix: str) -> set:
    return {("point", f"{prefix}c:m-1", None), ("point", f"{prefix}c:m", None),
            ("strand", f"{prefix}S:m", "all")}


@pytest.mark.parametrize("term,locator,expected", [
    ("strand", "z:m", {("point", "A", None), ("strand", "z", "fwd-tail(m)")}),
    ("cat(strand)", "S:4:m",
     {("point", "c:3", None), ("strand", "S:4", "fwd-tail(m)")}),
    ("ramp", "B1/K1/c:m", chain_orbit("B1/K1/")),
    ("cat(cat(strand))", "K1/c:m", chain_orbit("K1/")),
    ("cat(ramp)", "K2/B1/K0/c:m", chain_orbit("K2/B1/K0/")),
])
def test_ladder_aorb0_generic_index_below_the_top_level(capsys, term, locator,
                                                       expected):
    # only the trailing index shifts: family indices of the prefix and
    # the orbit indices of other strands stay concrete
    code, out = run_cli(capsys, "ladder", term, "--aorb0", locator)
    assert code == 0
    rep = json.loads(out)["aorb0"]
    assert rep["generic_index"] == "m"
    assert {(c["kind"], c.get("at") or c.get("region"), c.get("profile"))
            for c in rep["components"]} == expected


def test_locator_error_names_the_typed_locator(capsys):
    code = main(["ladder", "cat(ramp)", "--aorb0", "K0/top"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error[E_LOCATOR]")
    assert "K0/top" in err and "('copy'" not in err


@pytest.mark.parametrize("locator", ["q:m", "K0/m", "K0/B1/K0/c:3/m"])
def test_malformed_generic_locator_error_names_the_typed_locator(capsys, locator):
    # a generic locator is parsed at m = 4 and m = 5, and a refusal must not
    # name the substituted 'q:4'; 'K0/m' has no colon, so its m is no index
    code = main(["ladder", "cat(ramp)", "--aorb0", locator])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error[E_LOCATOR]: locator {locator!r} does not name a point of cat(ramp)\n"


def test_window_command_with_check(tmp_path, capsys):
    sysout = tmp_path / "win.json"
    code, out = run_cli(
        capsys, "window", "cat(strand)", "--family-cut", "3",
        "--strand-cut", "3", "--check", "--system-out", str(sysout),
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["audit"]["violations"] == []
    # the window dump round-trips through the system loader
    loaded = load_system(str(sysout))
    assert loaded.n == len(rep["points"])


@pytest.mark.parametrize("cuts", [("--family-cut", "40"),
                                  ("--strand-cut", str(10**9))])
def test_window_rejects_oversized_window(cuts):
    proc = run_module("window", "ramp", *cuts, "--check")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error[E_SIZE]")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ("ladder", "cat(" * 1200 + "strand" + ")" * 1200),
    ("window", "cat(" * 1200 + "strand" + ")" * 1200),
    ("ladder", "ramp", "--aorb0", "B990/A"),
])
def test_depth_refused_without_traceback(argv):
    proc = run_module(*argv)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error[E_DEPTH]")
    assert "Traceback" not in proc.stderr


def test_census_command(capsys):
    code, out = run_cli(capsys, "census", "--points", "2",
                        "--check", "oracle-equivalence,stabilization-degree-0")
    assert code == 0
    rep = json.loads(out)
    assert rep["checks"]["oracle-equivalence"]["failed"] == 0


def test_census_counterexample_replay(tmp_path, capsys):
    cedir = tmp_path / "ce"
    code, out = run_cli(
        capsys, "census", "--points", "2", "--check", "plain-containment-probe",
        "--counterexample-dir", str(cedir),
    )
    assert code == 0  # reported checks do not fail the run
    files = sorted(cedir.glob("*.json"))
    assert files
    # every counterexample file replays through decompose
    code, out = run_cli(capsys, "decompose", str(files[0]))
    assert code == 0


def test_exit_codes(tmp_path, capsys):
    code, _ = run_cli(capsys, "decompose", str(tmp_path / "missing.json"))
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"points": ["a"], "specializes": [], "map": {"a": "a"}, "x": 1}')
    code, _ = run_cli(capsys, "decompose", str(bad))
    assert code == 2
    assert main(["no-such-command"]) == 2


@pytest.mark.parametrize("raw", [
    {"points": ["a"], "specializes": [], "map": {"a": ["a"]}},
    {"points": ["a", "b"], "specializes": [[["a"], "b"]], "map": {"a": "a", "b": "b"}},
])
def test_malformed_types_are_format_errors(tmp_path, raw):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    proc = run_module("decompose", str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error[E_FORMAT]")
    assert "Traceback" not in proc.stderr


def test_undecodable_file_is_format_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe")
    proc = run_module("decompose", str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error[E_FORMAT]")


@pytest.mark.parametrize("command", ["decompose", "trace", "oracle"])
def test_deeply_nested_file_is_format_error(tmp_path, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    proc = run_module(command, str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error[E_FORMAT]")
    assert "Traceback" not in proc.stderr


# every code point, lone surrogates and control characters included
TEXT = st.text(st.characters(exclude_categories=()), max_size=6)
SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | TEXT
           | st.sampled_from([-(2**200), 2**200 + 1]))
REPORTS = st.recursive(
    SCALARS,
    lambda kids: (st.lists(kids, max_size=4) | st.tuples(kids, kids)
                  | st.dictionaries(TEXT, kids, max_size=4)),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(REPORTS)
@example([])
@example({})
@example({"b": [[], {}], "a": ("\ud800", "\x00\x1f\u00e9\U0001f600")})
@example([-(10**30), True, False, None, [["x"]]])
def test_report_json_matches_indented_json_dumps(value):
    assert report_json(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [
    {1: "a"},
    {"a": 1, 2: "b"},
    {None: []},
    [{"a": {True: 0}}],
])
def test_report_json_refuses_keys_that_are_not_strings(value):
    with pytest.raises(TypeError):
        report_json(value)


def test_census_rejects_jobs_below_one(capsys):
    assert main(["census", "--points", "1", "--jobs", "0"]) == 2
    assert "--jobs" in capsys.readouterr().err


def test_census_refuses_jobs_above_the_limit_before_any_process_starts(capsys, monkeypatch):
    # a patched Pool raises, so this test itself can start no process
    class PoolStarted(Exception):
        pass

    def no_pool(*args, **kwargs):
        raise PoolStarted

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    too_many = JOBS_LIMIT + 1
    code = main(["census", "--points", "1", "--jobs", str(too_many)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == \
        f"error[E_SIZE]: jobs={too_many} is outside the range 1..{JOBS_LIMIT}\n"
    with pytest.raises(PoolStarted):  # the limit itself is allowed
        run_census(1, jobs=JOBS_LIMIT)


@pytest.mark.parametrize("points", ["0", "-1"])
def test_census_rejects_points_below_one(points):
    proc = run_module("census", "--points", points)
    assert proc.returncode == 2
    assert "--points" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("members", ["", ","])
def test_lyapunov_rejects_empty_set(swap_file, capsys, members):
    assert main(["lyapunov", swap_file, "--set", members]) == 2
    assert capsys.readouterr().err.startswith("error[E_COVER]")


def test_internal_failure_reported_without_traceback(swap_file, capsys, monkeypatch):
    import fixfactor.decomposition as dec

    monkeypatch.setattr(dec, "_degree_zero_certificate", lambda sys_, p: False)
    assert main(["decompose", swap_file]) == 2
    assert capsys.readouterr().err.startswith("error[E_INTERNAL]")


def test_system_json_round_trip():
    sys_ = discrete_swap_plus_fixed()
    raw = system_payload(sys_)
    again = system_from_json(raw)
    assert again.space.points == sys_.space.points
    assert again.space.up == sys_.space.up
    assert again.map.img == sys_.map.img
    assert system_payload(again) == raw


def test_system_json_field_validation():
    with pytest.raises(FormatError):
        system_from_json({"points": ["a"], "map": {"a": "a"}})
    with pytest.raises(FormatError):
        system_from_json({"points": "a", "specializes": [], "map": {}})
    with pytest.raises(FormatError):
        system_from_json([1, 2])
    with pytest.raises(FormatError):
        system_from_json({"points": ["a"], "specializes": [], "map": {"a": 1}})
    with pytest.raises(FormatError):
        system_from_json({"points": ["a"], "specializes": [], "map": {1: "a"}})


def test_report_deterministic(swap_file, capsys):
    _, a = run_cli(capsys, "decompose", swap_file)
    _, b = run_cli(capsys, "decompose", swap_file)
    assert a == b


def test_dot_export_cycle_groups(capsys, tmp_path):
    # mutually specializing points get a dashed cycle
    path = tmp_path / "cyc.json"
    path.write_text(json.dumps({
        "points": ["x", "y"],
        "specializes": [["x", "y"], ["y", "x"]],
        "map": {"x": "x", "y": "y"},
    }))
    code, out = run_cli(capsys, "export-dot", str(path))
    assert code == 0
    assert '"x" -> "y" [style=dashed' in out and '"y" -> "x" [style=dashed' in out


MUTUAL_GROUP_DOT = """\
digraph system {
  rankdir=LR;
  node [style=filled];
  "d" [label="d|0", fillcolor=lightblue];
  "a" [label="a|0", fillcolor=lightblue];
  "e" [label="e|1", fillcolor=lightsalmon];
  "b" [label="b|0", fillcolor=lightblue];
  "c" [label="c|0", fillcolor=lightblue];
  "d" -> "d";
  "a" -> "a";
  "e" -> "e";
  "b" -> "a";
  "c" -> "c";
  "a" -> "d" [style=dashed, arrowhead=empty];
  "c" -> "a" [style=dashed, arrowhead=empty];
  "a" -> "b" [style=dashed, arrowhead=empty];
  "b" -> "a" [style=dashed, arrowhead=empty];
}
"""


@pytest.mark.parametrize("command", [["decompose", "--format", "dot"], ["export-dot"]])
def test_dot_of_a_mutually_specializing_group_is_pinned(command, tmp_path):
    # a and b specialize to each other, so the covers run over the group
    # heads d, a, e and c, and the group gets its cycle
    path = tmp_path / "mutual.json"
    path.write_text(json.dumps({
        "points": ["d", "a", "e", "b", "c"],
        "specializes": [["a", "b"], ["b", "a"], ["c", "a"], ["a", "d"]],
        "map": {"a": "a", "b": "a", "c": "c", "d": "d", "e": "e"},
    }))
    out = tmp_path / "mutual.dot"
    assert main([command[0], str(path), *command[1:], "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == MUTUAL_GROUP_DOT


def test_covering_pairs_match_the_pair_set_reference():
    systems = [s for n in range(1, 5) for s in enumerate_systems(n)]
    systems += [s for n in (6, 7, 8) for s in random_systems(n, 150, seed=600 + n)]
    for sys_ in systems:
        assert _covering_pairs(sys_) == covering_pairs(sys_)


DOT_STRING = r'"(?:[^"\\]|\\.)*"'


def test_dot_escapes_quotes_and_backslashes(tmp_path):
    names = ['a"b', "c\\d", "e\\", "e\\\\", '"', "f\\\"g"]
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({
        "points": names,
        "specializes": [[names[0], names[1]], [names[2], names[3]],
                        [names[3], names[4]]],
        "map": {p: p for p in names},
    }))
    out = tmp_path / "odd.dot"
    assert main(["export-dot", str(path), "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    ids = []
    for line in lines:
        # every quote opens or closes a well-formed quoted string
        assert re.fullmatch(rf'(?:[^"]|{DOT_STRING})*', line), line
        strings = [re.sub(r"\\(.)", r"\1", s[1:-1]) for s in re.findall(DOT_STRING, line)]
        if "[label=" in line:
            assert strings[1].rsplit("|", 1)[0] == strings[0]
            ids.append(strings[0])
        elif "->" in line:
            assert len(strings) == 2 and set(strings) <= set(names)
    assert ids == names


# ---------------------------------------------- empty option values are values


def test_empty_locator_is_a_locator_error(capsys):
    code = main(["ladder", "strand", "--aorb0", ""])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error[E_LOCATOR]: locator '' does not name a point of strand\n"


@pytest.mark.parametrize("argv", [
    ("decompose", "{swap}", "--out", ""),
    ("window", "strand", "--system-out", ""),
    # the 2-point census has counterexamples to write
    ("census", "--points", "2", "--check", "all", "--counterexample-dir", ""),
])
def test_empty_output_path_is_an_io_error(capsys, monkeypatch, tmp_path, swap_file, argv):
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    code = main([a.format(swap=swap_file) for a in argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error[E_IO]: ")
    assert list(cwd.iterdir()) == []


@pytest.mark.parametrize("argv, err", [
    (("--counterexample-dir", "afile"), "error[E_IO]: --counterexample-dir: afile is not"),
    (("--counterexample-dir", "afile", "--out", "r.json"), "error[E_IO]: "),
    (("--counterexample-dir", "afile/sub", "--out", "r.json"), "error[E_IO]: "),
    # a run refused for its size makes no directory either
    (("--points", "9", "--counterexample-dir", "fresh", "--out", "r.json"), "error[E_SIZE]: "),
])
def test_census_refuses_a_counterexample_dir_before_the_run(capsys, monkeypatch, tmp_path,
                                                            argv, err):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("")
    code = main(["census", "--points", "2", "--check", "all", *argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith(err)
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]


# ------------------------------------------------ the parser is built once


def test_the_parser_is_not_built_at_import():
    src = Path(fixfactor.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import fixfactor.cli as c; print(c.make_parser.cache_info().currsize)"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.stdout == "0\n"


@pytest.mark.parametrize("argv", [(), ("census", "--points", "0")])
def test_usage_errors_do_not_depend_on_the_terminal_width(argv, monkeypatch):
    # one usage error of the top-level parser and one of a subcommand's
    outs = []
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        proc = run_module(*argv)
        outs.append((proc.returncode, proc.stdout, proc.stderr))
    assert outs[0][:2] == (2, "")
    assert outs[0] == outs[1]


def test_repeated_calls_in_one_process_match_calls_alone(swap_file, tmp_path, capsys):
    commands = [
        ["decompose", swap_file, "--format", "dot"],
        ["decompose", swap_file],
        ["census", "--points", "0"],
        ["census", "--points", "2"],
    ]
    for with_out in (False, True):
        for k, argv in enumerate(commands):
            here, alone = tmp_path / f"here-{k}", tmp_path / f"alone-{k}"
            code = main(argv + ["--out", str(here)] if with_out else argv)
            captured = capsys.readouterr()
            proc = run_module(*argv, *(["--out", str(alone)] if with_out else []))
            assert (code, captured.out, captured.err) == \
                (proc.returncode, proc.stdout, proc.stderr)
            assert here.exists() == alone.exists() == (with_out and code == 0)
            if here.exists():
                assert here.read_bytes() == alone.read_bytes()
    assert make_parser.cache_info().currsize == 1
