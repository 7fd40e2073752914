"""Per-layer tracing by pass-through wrappers, installed from outside.

Each wrapper replaces a name at the place the program looks it up: a
function that ``fixfactor.census`` imports with ``from .decomposition
import stabilize`` is a separate binding from ``fixfactor.stability``'s
``stabilize``, so both are listed.  Every call through a wrapper is a
span; a span's self time is its duration minus the time its child spans
cover, so the self times of all spans add up to the traced time without
counting any interval twice.  For a generator each ``next()`` is a span,
which charges the generator for its own work and not for the consumer's.

A target whose module, attribute or dictionary key no longer exists is
reported as missing and its metrics read 0; the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

# The 17 census checks, wrapped where ``census._run_check`` finds them.
ASSERTED_CHECKS = (
    "oracle-equivalence",
    "quotient-discrete",
    "stabilization-degree-0",
    "definition-direct",
    "trace-monotone",
    "level-set-refinement",
    "class-invariance",
    "saturation-equivalences",
    "quotient-neighborhood",
    "prolongation-identities",
    "oracle-classes-absolutely-stable",
    "finest-abs-stable",
    "degree-monotonicity",
    "containment-lemma",
    "invariant-core-reference",
    "ergodicity-equivalence",
)
REPORTED_CHECKS = ("plain-containment-probe",)

# (module, attribute, dictionary key or None, span name)
TARGETS: tuple[tuple[str, str, str | None, str], ...] = (
    ("fixfactor.census", "enumerate_preorders", None, "census.enumerate"),
    ("fixfactor.census", "monotone_maps", None, "census.enumerate"),
    ("fixfactor.census", "canonical_form", None, "census.canonical_form"),
    ("fixfactor.census", "finer_plain_stable_witness", None, "census.witness"),
    *(("fixfactor.census", "ASSERTED_CHECKS", c, f"census.check.{c}")
      for c in ASSERTED_CHECKS),
    *(("fixfactor.census", "REPORTED_CHECKS", c, f"census.check.{c}")
      for c in REPORTED_CHECKS),
    ("fixfactor.census", "stabilize", None, "decomposition.stabilize"),
    ("fixfactor.stability", "stabilize", None, "decomposition.stabilize"),
    ("fixfactor.decomposition", "stabilize", None, "decomposition.stabilize"),
    ("fixfactor.cli", "stabilize", None, "decomposition.stabilize"),
    ("fixfactor.census", "oracle_partition", None, "decomposition.oracle_partition"),
    ("fixfactor.stability", "oracle_partition", None, "decomposition.oracle_partition"),
    ("fixfactor.decomposition", "oracle_partition", None,
     "decomposition.oracle_partition"),
    ("fixfactor.cli", "oracle_partition", None, "decomposition.oracle_partition"),
    ("fixfactor.decomposition", "sorb0_partition", None, "decomposition.sorb0_partition"),
    ("fixfactor.decomposition", "degree_step", None, "decomposition.degree_step"),
    ("fixfactor.decomposition", "generated_partition", None,
     "decomposition.generated_partition"),
    ("fixfactor.census", "reference_intersection", None,
     "decomposition.reference_intersection"),
    ("fixfactor.census", "space_from_up_masks", None, "topology.space_from_up_masks"),
    ("fixfactor.decomposition", "space_from_up_masks", None,
     "topology.space_from_up_masks"),
    ("fixfactor.topology", "space_from_up_masks", None, "topology.space_from_up_masks"),
    ("fixfactor.topology", "validate_map", None, "topology.validate_map"),
    ("fixfactor.cli", "load_system", None, "cli.load_system"),
    ("fixfactor.cli", "decomposition_report", None, "cli.report_self"),
    ("fixfactor.cli", "_emit", None, "cli.emit"),
    ("fixfactor.ladder", "ladder_trace", None, "ladder.trace"),
    ("fixfactor.ladder", "window", None, "ladder.window_build"),
    ("fixfactor.ladder.window", "ladder_aorb0_addr", None, "ladder.claims"),
    ("fixfactor.ladder.window", "check_orbit_set", None, "ladder.check_orbit_set"),
    ("fixfactor.ladder.window", "check_trace", None, "ladder.check_trace"),
    ("fixfactor.ladder.window", "window_answers_stable", None, "ladder.cross_window"),
    ("fixfactor.ladder.trace", "class_key", None, "ladder.class_key"),
)

SPANS = tuple(dict.fromkeys(span for *_, span in TARGETS))

# Spans whose call counts are printed: each repeats exactly from run to run
# and moves when an optimisation removes repeated work.
COUNTED = (
    "census.canonical_form",
    "decomposition.stabilize",
    "decomposition.degree_step",
    "decomposition.generated_partition",
    "decomposition.oracle_partition",
    "decomposition.reference_intersection",
    "ladder.class_key",
)

_MISSING = object()


class Tracer:
    """Context manager that installs the wrappers and aggregates spans."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = tuple(dict.fromkeys(span for *_, span in targets))
        self.self_s = dict.fromkeys(self.spans, 0.0)
        self.calls = dict.fromkeys(self.spans, 0)
        self.missing: list[str] = []
        self._stack: list[float] = []  # child time covered, one per open span
        self._restore: list[tuple] = []

    def _record(self, name: str, t0: float) -> None:
        dur = perf_counter() - t0
        child = self._stack.pop()
        self.self_s[name] += dur - child
        if self._stack:
            self._stack[-1] += dur

    def wrap(self, name: str, fn):
        stack = self._stack

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.calls[name] += 1
                it = fn(*args, **kwargs)
                while True:
                    stack.append(0.0)
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._record(name, t0)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._record(name, t0)
        return wrapper

    def __enter__(self) -> "Tracer":
        for module, attr, key, span in self.targets:
            where = f"{module}.{attr}" + (f"[{key!r}]" if key else "")
            try:
                mod = importlib.import_module(module)
            except ImportError:
                self.missing.append(where)
                continue
            holder = getattr(mod, attr, _MISSING)
            if key is None:
                if holder is _MISSING or not callable(holder):
                    self.missing.append(where)
                    continue
                setattr(mod, attr, self.wrap(span, holder))
                self._restore.append((setattr, mod, attr, holder))
            else:
                if not isinstance(holder, dict) or key not in holder:
                    self.missing.append(where)
                    continue
                orig = holder[key]
                holder[key] = self.wrap(span, orig)
                self._restore.append((dict.__setitem__, holder, key, orig))
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            put, holder, key, orig = self._restore.pop()
            put(holder, key, orig)

    def metrics(self) -> dict[str, tuple]:
        """Metric name -> (value, unit)."""
        out = {f"{span}_s": (self.self_s[span], "s") for span in self.spans}
        for span in COUNTED:
            if span in self.calls:
                out[f"{span}_calls"] = (self.calls[span], "count")
        return out
