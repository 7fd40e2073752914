"""Tests of the benchmark itself: its pinned answers, inputs and tracing.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import contextlib
import importlib
import itertools
import json
import random
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def cli():
    """The CLI module in use: the benchmark re-imports the package."""
    return importlib.import_module("fixfactor.cli")


def brute_force_census(n):
    """(preorders, labeled systems, systems up to relabeling) on n points,
    by filtering every relation and every map; shares no code with fixfactor."""
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    preorders = []
    for bits in range(1 << len(offdiag)):
        rel = {(i, i) for i in range(n)}
        rel |= {p for k, p in enumerate(offdiag) if bits >> k & 1}
        if all((a, d) in rel for a, b in rel for c, d in rel if b == c):
            preorders.append(sorted(rel))
    perms = list(itertools.permutations(range(n)))
    labeled = 0
    classes = set()
    for rel in preorders:
        rel_set = set(rel)
        for f in itertools.product(range(n), repeat=n):
            if not all((f[a], f[b]) in rel_set for a, b in rel):
                continue
            labeled += 1
            keys = []
            for p in perms:
                g = [0] * n
                for i in range(n):
                    g[p[i]] = p[f[i]]
                keys.append((tuple(sorted((p[a], p[b]) for a, b in rel)), tuple(g)))
            classes.add(min(keys))
    return len(preorders), labeled, len(classes)


def export_window(term, m, j, path):
    rc = cli().main(["window", term, "--family-cut", str(m), "--strand-cut", str(j),
                   "--system-out", str(path), "--out", str(path) + ".report"])
    assert rc == 0
    return json.loads(path.read_text())


def components(system):
    """Classes of comparability plus map edges: the count is dim_fix."""
    parent = {p: p for p in system["points"]}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in system["specializes"] + list(system["map"].items()):
        parent[find(a)] = find(b)
    return len({find(p) for p in parent})


def test_census_iso4_pins_match_brute_force():
    wl = workloads.CensusWorkload()
    assert brute_force_census(4) == (wl.topologies, 17440, wl.systems) == (355, 17440, 889)


def test_one_failed_census_verdict_costs_a_twentieth():
    wl = workloads.CensusWorkload()
    checks = {c: {"passed": 889, "failed": 0}
              for c in tracing.ASSERTED_CHECKS + tracing.REPORTED_CHECKS}
    report = {"num_topologies": 355, "num_systems": 889, "checks": checks}
    assert wl.verdicts(0, report) == (20, 0)
    checks["containment-lemma"] = {"passed": 888, "failed": 1}
    assert wl.verdicts(0, report) == (20, 1)
    assert wl.verdicts(1, report) == (20, 2)


def test_decompose_dump_pins_match_independent_counts(tmp_path):
    for term, m, j, points, dim in workloads.DUMPS:
        raw = export_window(term, m, j, tmp_path / "w.json")
        assert (len(raw["points"]), components(raw)) == (points, dim)


def test_window_pins_cover_every_audited_window():
    wl = workloads.WindowWorkload()
    expected = workloads.WINDOW_EXPECTED
    assert set(expected) == {(t, m, j) for t in wl.terms for m, j in wl.cuts}
    assert wl.largest in expected


def decompose(path, out):
    assert cli().main(["decompose", str(path), "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_relabeling_is_seeded_and_preserves_the_answer(tmp_path):
    raw = export_window("ramp", 3, 3, tmp_path / "w.json")

    def dump(seed, name):
        path = tmp_path / name
        path.write_text(json.dumps(workloads.relabel(raw, random.Random(seed))))
        return path

    a, again, b = dump("1/0/0", "a.json"), dump("1/0/0", "again.json"), dump("2/0/0", "b.json")
    assert a.read_bytes() == again.read_bytes()
    assert a.read_bytes() != b.read_bytes()
    ra, rb = decompose(a, tmp_path / "ra.json"), decompose(b, tmp_path / "rb.json")
    assert ra["dim_fix"] == rb["dim_fix"] == components(raw)
    sizes = [sorted(len(c) for c in r["stationary_classes"]) for r in (ra, rb)]
    assert sizes[0] == sizes[1]


def test_decompose_workload_writes_identical_inputs_per_seed(tmp_path):
    wl = workloads.DecomposeWorkload(dumps=(("ramp", 3, 3, 121, 0),))
    fx = run.import_fixfactor()
    contents = []
    for sub in ("x", "y"):
        (tmp_path / sub).mkdir()
        wl.setup(fx, tmp_path / sub, seed=7)
        contents.append([p.read_bytes() for row in wl.files for p in row])
    assert contents[0] == contents[1]
    assert len(set(contents[0])) == workloads.VARIANTS


FAKE = '''
TABLE = {}

def inner():
    return 1

def outer():
    return inner() + 1

def gen():
    yield inner()
    yield inner()

TABLE["k"] = outer
'''


@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("perfbench_fake")
    exec(FAKE, mod.__dict__)
    monkeypatch.setitem(sys.modules, "perfbench_fake", mod)
    # one tick per clock reading makes span lengths exact
    monkeypatch.setattr(tracing, "perf_counter", itertools.count().__next__)
    return mod


def test_self_time_subtracts_child_spans(fake_module):
    targets = [("perfbench_fake", "outer", None, "outer"),
               ("perfbench_fake", "inner", None, "inner"),
               ("perfbench_fake", "gen", None, "gen")]
    with tracing.Tracer(targets) as tr:
        assert fake_module.outer() == 2
        assert list(fake_module.gen()) == [1, 1]
    # outer: 3 ticks, of which inner covers 1; each of the generator's
    # two yielding steps likewise, and the exhausting step takes 1 tick
    assert tr.self_s == {"outer": 2, "inner": 3, "gen": 5}
    assert tr.calls == {"outer": 1, "inner": 3, "gen": 1}


def test_missing_names_are_reported_and_the_rest_restored(fake_module):
    original = fake_module.outer
    targets = [("perfbench_fake", "outer", None, "outer"),
               ("perfbench_fake", "renamed_away", None, "gone"),
               ("perfbench_fake", "TABLE", "k", "table"),
               ("perfbench_fake", "TABLE", "no-such-key", "gone"),
               ("perfbench_no_such_module", "f", None, "gone")]
    with tracing.Tracer(targets) as tr:
        assert fake_module.TABLE["k"]() == fake_module.outer() == 2
    assert tr.missing == ["perfbench_fake.renamed_away",
                          "perfbench_fake.TABLE['no-such-key']",
                          "perfbench_no_such_module.f"]
    assert tr.metrics()["gone_s"] == (0, "s")
    # the table entry is a binding of its own: calling it is not a call of outer
    assert tr.calls == {"outer": 1, "gone": 0, "table": 1}
    assert fake_module.outer is original and fake_module.TABLE["k"] is original


def test_every_target_exists():
    with tracing.Tracer() as tr:
        pass
    assert tr.missing == []


def test_reports_are_byte_identical_with_tracing_on_and_off(tmp_path):
    export_window("cat(ramp)", 3, 3, tmp_path / "w.json")
    commands = [["census", "--points", "3", "--up-to-iso", "--check", "all"],
                ["decompose", str(tmp_path / "w.json")]]
    for k, argv in enumerate(commands):
        outputs = []
        for traced in (False, True):
            out = tmp_path / f"{k}-{traced}.json"
            with tracing.Tracer() if traced else contextlib.nullcontext() as tr:
                assert cli().main(argv + ["--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert sum(tr.calls.values()) > 0


TINY = {
    "census-iso4": lambda: workloads.CensusWorkload(
        points=3, topologies=29, systems=brute_force_census(3)[2]),
    "window-audit": lambda: workloads.WindowWorkload(
        terms=("strand", "cat(strand)"), cuts=((3, 3), (5, 6)),
        largest=("cat(strand)", 5, 6)),
    "decompose-dumps": lambda: workloads.DecomposeWorkload(
        dumps=(("ramp", 3, 3, 121, 16), ("cat(ramp)", 3, 3, 209, 27))),
}


def run_tiny(monkeypatch, capsys, name, trace):
    monkeypatch.setitem(workloads.WORKLOADS, name, TINY[name]())
    monkeypatch.setitem(run.WORKLOADS, name, workloads.WORKLOADS[name])
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.mark.parametrize("name", sorted(TINY))
def test_printed_metrics_are_exactly_the_declared_ones(monkeypatch, capsys, name):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert name in {w["name"] for w in spec["workloads"]}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = run_tiny(monkeypatch, capsys, name, trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        declared = {m["name"]: m["unit"] for m in spec[key]}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == declared


def test_traced_counts_repeat_exactly(monkeypatch, capsys):
    first, second = ({k: v["value"] for k, v in
                      run_tiny(monkeypatch, capsys, "census-iso4", 1)["metrics"].items()
                      if v["unit"] == "count"} for _ in range(2))
    assert first == second
    # 15 checks call stabilize once per system, one twice, and the census once more
    assert first["decomposition.stabilize_calls"] == 16 * brute_force_census(3)[2]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "census-iso4", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert not list(tmp_path.glob(".perfbench-*"))
