"""The three workloads: what each one runs and how its answers are checked.

Each workload has a ``setup`` that prepares its inputs and a ``run_once``
that performs pass number ``n`` of its measured operations and returns an
:class:`Iteration`.  The expected answers are pinned here, from sources
outside the code under test (OEIS A000798 for the preorder count, a
brute-force recount for the census, the window sizes and dimensions
recounted in ``tests/``), so a wrong answer counts as a failed operation
rather than passing unnoticed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from tracing import ASSERTED_CHECKS, REPORTED_CHECKS


class BenchError(Exception):
    """A workload could not be set up; the run stops without a result."""


@dataclass
class Iteration:
    """One pass of a workload's measured operations."""

    busy_s: float       # wall time of the measured operations
    units: int          # work done: systems, audited points or decomposed points
    largest_s: float    # wall time of the largest single input
    attempted: int
    failed: int
    counts: dict[str, int] = field(default_factory=dict)


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


class CensusWorkload:
    """``census --points N --up-to-iso --check all`` through the in-process CLI."""

    def __init__(self, points: int = 4, topologies: int = 355, systems: int = 889):
        self.points = points
        self.topologies = topologies
        self.systems = systems

    def setup(self, fx, workdir: Path, seed: int) -> None:
        # The census is exhaustive, so the seed selects nothing.
        self.fx = fx
        self.out = workdir / "census.json"

    def run_once(self, n: int) -> Iteration:
        self.out.unlink(missing_ok=True)
        argv = ["census", "--points", str(self.points), "--up-to-iso",
                "--check", "all", "--out", str(self.out)]
        t0 = perf_counter()
        rc = self.fx.cli.main(argv)
        busy = perf_counter() - t0
        attempted, failed = self.verdicts(rc, _read_json(self.out))
        return Iteration(busy, self.systems, busy, attempted, failed)

    def verdicts(self, rc: int, report: dict | None) -> tuple[int, int]:
        """Operations are the asserted checks over the whole census, the
        reported probe's coverage, and three whole-run gates (exit code and
        the two enumeration counts), so one failure costs at least 1/20."""
        attempted = len(ASSERTED_CHECKS) + len(REPORTED_CHECKS) + 3
        if report is None:
            return attempted, attempted
        failed = (rc != 0) + (report.get("num_topologies") != self.topologies) \
            + (report.get("num_systems") != self.systems)
        checks = report.get("checks", {})
        for name in ASSERTED_CHECKS:
            c = checks.get(name)
            failed += c is None or c["failed"] != 0 or c["passed"] != self.systems
        for name in REPORTED_CHECKS:
            c = checks.get(name)
            failed += c is None or c["passed"] + c["failed"] != self.systems
        return attempted, failed


# Pinned per window: (materialized points, checks_run).  A change to the
# audit that alters what it checks shows up as a failed operation.
WINDOW_EXPECTED = {
    ("strand", 3, 3): (9, 10),
    ("strand", 5, 6): (15, 16),
    ("strand", 7, 7): (17, 18),
    ("cat(strand)", 3, 3): (33, 23),
    ("cat(strand)", 5, 6): (85, 65),
    ("cat(strand)", 7, 7): (129, 103),
    ("ramp", 3, 3): (121, 56),
    ("ramp", 5, 6): (883, 386),
    ("ramp", 7, 7): (4081, 1792),
    ("cat(ramp)", 3, 3): (209, 81),
    ("cat(ramp)", 5, 6): (1681, 699),
    ("cat(ramp)", 7, 7): (8033, 3473),
}


class WindowWorkload:
    """Ladder trace, window audits and cross-window stability per term."""

    def __init__(self, terms=("strand", "cat(strand)", "ramp", "cat(ramp)"),
                 cuts=((3, 3), (5, 6), (7, 7)), largest=("cat(ramp)", 7, 7)):
        self.terms = terms
        self.cuts = cuts
        self.largest = largest

    def setup(self, fx, workdir: Path, seed: int) -> None:
        # The windows are canonical truncations, so the seed selects nothing.
        self.fx = fx
        self.spaces = [(t, fx.ladder.build_ladder(t)) for t in self.terms]
        self.cap = fx.ordinals.parse_ordinal("w*2")  # the CLI's default --max-degree

    def run_once(self, n: int) -> Iteration:
        ladder, window_mod = self.fx.ladder, self.fx.ladder_window
        points = checks = attempted = failed = 0
        largest = 0.0
        t0 = perf_counter()
        for term, space in self.spaces:
            trace = ladder.ladder_trace(space, self.cap)
            wins = []
            for m, j in self.cuts:
                t1 = perf_counter()
                win = ladder.window(space, m, j)
                rep = ladder.window_check(space, win, trace=trace)
                if (term, m, j) == self.largest:
                    largest = perf_counter() - t1
                wins.append(win)
                points += len(win.addrs)
                checks += rep.checks_run
                attempted += 1
                failed += bool(rep.violations) or \
                    (len(win.addrs), rep.checks_run) != WINDOW_EXPECTED[term, m, j]
            attempted += 1
            failed += bool(window_mod.window_answers_stable(space, wins))
        busy = perf_counter() - t0
        return Iteration(busy, points, largest, attempted, failed,
                         {"ladder.window_points": points, "ladder.checks_run": checks})


def relabel(raw: dict, rng: random.Random) -> dict:
    """Rename the points by a random bijection onto p0, p1, ... and shuffle
    the order of the points, of the pairs and of the map entries."""
    points = list(raw["points"])
    fresh = [f"p{i}" for i in range(len(points))]
    rng.shuffle(fresh)
    name = dict(zip(points, fresh))
    rng.shuffle(points)
    pairs = [[name[x], name[y]] for x, y in raw["specializes"]]
    rng.shuffle(pairs)
    return {
        "points": [name[p] for p in points],
        "specializes": pairs,
        "map": {name[p]: name[raw["map"][p]] for p in points},
    }


# (term, family cut, strand cut, points, dim_fix)
DUMPS = (
    ("ramp", 5, 6, 883, 64),
    ("cat(ramp)", 5, 6, 1681, 121),
    ("cat(ramp)", 6, 6, 3459, 248),
)
VARIANTS = 3


class DecomposeWorkload:
    """``decompose`` on seeded relabelings of exported window dumps.

    Decompose time depends on point order (the 3,459-point dump takes
    about twice as long shuffled as in exported order), so each dump gets
    ``VARIANTS`` relabelings and pass ``n`` uses relabeling ``n % VARIANTS``,
    which spreads a run over several orders.
    """

    def __init__(self, dumps=DUMPS):
        self.dumps = dumps
        self.largest = max(range(len(dumps)), key=lambda d: dumps[d][3])

    def setup(self, fx, workdir: Path, seed: int) -> None:
        self.fx = fx
        self.out = workdir / "decompose.json"
        self.files = []
        for d, (term, m, j, _, _) in enumerate(self.dumps):
            raw_path = workdir / f"window-{d}.json"
            rc = fx.cli.main(["window", term, "--family-cut", str(m),
                              "--strand-cut", str(j), "--system-out", str(raw_path),
                              "--out", str(workdir / "window-report.json")])
            raw = _read_json(raw_path)
            if rc != 0 or raw is None:
                raise BenchError(f"window {term} ({m},{j}) export failed with exit {rc}")
            row = []
            for k in range(VARIANTS):
                path = workdir / f"dump-{d}-{k}.json"
                data = relabel(raw, random.Random(f"{seed}/{d}/{k}"))
                path.write_text(json.dumps(data) + "\n", encoding="utf-8")
                row.append(path)
            self.files.append(row)

    def run_once(self, n: int) -> Iteration:
        k = n % VARIANTS
        busy = largest = 0.0
        units = failed = 0
        for d, (_, _, _, points, dim) in enumerate(self.dumps):
            self.out.unlink(missing_ok=True)
            t0 = perf_counter()
            rc = self.fx.cli.main(["decompose", str(self.files[d][k]),
                                   "--out", str(self.out)])
            dt = perf_counter() - t0
            busy += dt
            if d == self.largest:
                largest = dt
            units += points
            failed += not self.correct(rc, _read_json(self.out), points, dim)
        return Iteration(busy, units, largest, len(self.dumps), failed)

    @staticmethod
    def correct(rc: int, report: dict | None, points: int, dim: int) -> bool:
        return (rc == 0 and report is not None
                and report.get("oracle_matches") is True
                and report.get("stabilization_degree") == "0"
                and report.get("dim_fix") == dim
                and len(report.get("system", {}).get("points", ())) == points)


WORKLOADS = {
    "census-iso4": CensusWorkload(),
    "window-audit": WindowWorkload(),
    "decompose-dumps": DecomposeWorkload(),
}
