"""Benchmark of fixfactor's three verification paths, end to end and per layer.

    python3 perfbench/run.py --workload census-iso4 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory and nowhere else.  Everything happens in
this one process, through the public API and the in-process CLI
(``fixfactor.cli.main``), with no worker processes or threads.  Scratch
files live in a temporary directory inside the checkout that is removed
at exit.

With ``--trace 0`` the workload's passes repeat until ``--seconds`` have
passed (at least ``MIN_PASSES`` of them) and the end-to-end metrics are
printed.  With ``--trace 1`` one untraced pass is followed by one pass
with the layer wrappers of ``tracing.py`` installed, and the per-layer
metrics are printed; their difference is the tracing overhead.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Exit code 2, with no result, means the benchmark could
not run at all, for instance because ``src/fixfactor`` is missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import tracing
from workloads import WORKLOADS, BenchError

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
SETUP_SECONDS = 3.0
MIN_PASSES = 3


def import_fixfactor() -> SimpleNamespace:
    """Import the package afresh from this checkout's ``src``.

    Earlier imports are dropped first, so that each set-up pays the import
    cost a CLI user pays and the tracer patches the modules in use.
    """
    for name in [m for m in sys.modules if m == "fixfactor" or m.startswith("fixfactor.")]:
        del sys.modules[name]
    cli = importlib.import_module("fixfactor.cli")
    origin = Path(cli.__file__).resolve()
    if not origin.is_relative_to(SRC.resolve()):
        raise ImportError(f"fixfactor was imported from {origin}, not from {SRC}")
    return SimpleNamespace(
        cli=cli,
        ladder=importlib.import_module("fixfactor.ladder"),
        ladder_window=importlib.import_module("fixfactor.ladder.window"),
        ordinals=importlib.import_module("fixfactor.ordinals"),
    )


def set_up(workload, workdir: Path, seed: int) -> float:
    """Set the workload up at least ``SETUP_REPEATS`` times and for at
    least ``SETUP_SECONDS``; return the median time.

    A cheap set-up (a bare import takes tens of milliseconds) is repeated
    dozens of times, so that its median is steady from run to run.
    """
    times = []
    t0 = perf_counter()
    while len(times) < SETUP_REPEATS or perf_counter() - t0 < SETUP_SECONDS:
        gc.collect()
        t1 = perf_counter()
        workload.setup(import_fixfactor(), workdir, seed)
        times.append(perf_counter() - t1)
    return statistics.median(times)


def measure(workload, seconds: int) -> tuple[list, dict]:
    passes = []
    t0 = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - t0 < seconds:
        gc.collect()
        passes.append(workload.run_once(len(passes)))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Other work on a shared machine can only slow a pass down, so the best
    # pass is the steadiest estimate of the program's own cost.
    return passes, {
        "units_per_s": (max(p.units / p.busy_s for p in passes), "1/s"),
        "largest_op_s": (min(p.largest_s for p in passes), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def trace(workload) -> tuple[list, dict]:
    gc.collect()
    plain = workload.run_once(0)
    gc.collect()
    with tracing.Tracer() as tracer:
        traced = workload.run_once(0)
    for where in tracer.missing:
        print(f"trace: missing {where}", file=sys.stderr)
    metrics = tracer.metrics()
    for name in ("ladder.window_points", "ladder.checks_run"):
        metrics[name] = (traced.counts.get(name, 0), "count")
    metrics["trace.overhead_s"] = (traced.busy_s - plain.busy_s, "s")
    metrics["trace.missing_names"] = (len(tracer.missing), "count")
    return [plain, traced], metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        setup_s = set_up(workload, workdir, args.seed)
        if args.trace:
            passes, metrics = trace(workload)
        else:
            passes, metrics = measure(workload, args.seconds)
            metrics["setup_s"] = (setup_s, "s")
    except (ImportError, BenchError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if not args.trace:
        metrics["correct_ops_ratio"] = ((attempted - failed) / attempted, "ratio")
    print(f"{args.workload} seed={args.seed}: {len(passes)} passes of "
          f"{', '.join(f'{p.busy_s:.2f}' for p in passes)} s, "
          f"{failed} of {attempted} operations failed", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
