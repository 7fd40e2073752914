"""Invariant-neighborhood stability and its degree hierarchy.

A set is stable when it equals the intersection of its forward-invariant
neighborhoods; stable of degree d when it equals the class-closure of its
minimal open degree-d-saturated neighborhood; absolutely stable when it is
plainly stable and stable at every degree up to stabilization (beyond
which the test repeats verbatim because the partitions stop changing).
"""

from __future__ import annotations

from dataclasses import dataclass

from .decomposition import (
    REFERENCE_BOUND,
    DegreeTrace,
    Partition,
    oracle_partition,  # noqa: F401  (a binding perfbench/tracing.py wraps)
    stabilize,
    succ_mask,
)
from .errors import CoverError, InternalError, OrdinalError, SizeLimitError
from .ordinals import OrdinalCNF
from .topology import FiniteSystem, PointSet, _iter_bits

PARTITION_SEARCH_BOUND = 6


@dataclass(frozen=True)
class StabilityReport:
    subject: PointSet
    stable_plain: bool
    stable_by_degree: tuple[tuple[OrdinalCNF, bool], ...]
    absolutely_stable: bool


def invariant_core_mask(sys: FiniteSystem, mask: int) -> int:
    """Intersection of all forward-invariant neighborhoods of the set.

    Every invariant neighborhood contains the minimal open superset, hence
    its forward orbit; the orbit of the minimal open superset is itself an
    invariant neighborhood, so the intersection collapses to it.
    """
    space = sys.space
    opened = 0
    for i in _iter_bits(mask):
        opened |= space.up[i]
    return sys.map.orbit_mask(opened)


def invariant_core(sys: FiniteSystem, m: PointSet) -> PointSet:
    if not m.mask:
        raise CoverError("stability is defined for nonempty sets")
    return PointSet(sys.space, invariant_core_mask(sys, m.mask))


def invariant_core_reference(sys: FiniteSystem) -> tuple[int, ...]:
    """Definition-direct core of every mask, indexed by the mask, by
    enumerating invariant neighborhoods.

    Each invariant candidate is intersected into every mask inside its
    interior (the masks it is a neighborhood of) by a walk over the
    interior's submasks.
    """
    space = sys.space
    if space.n > REFERENCE_BOUND:
        raise SizeLimitError(
            f"{space.n} points exceeds enumeration bound {REFERENCE_BOUND}")
    closure, image, full = space.closure_table, sys.map.image_table, space.full_mask
    acc = [full] * (1 << space.n)
    for cand in range(1 << space.n):
        if image[cand] & ~cand:
            continue
        # the interior is the complement of the closure of the complement
        interior = sub = full & ~closure[full & ~cand]
        while True:
            acc[sub] &= cand
            if not sub:
                break
            sub = (sub - 1) & interior
    return tuple(acc)


def is_stable_plain_mask(sys: FiniteSystem, mask: int) -> bool:
    return invariant_core_mask(sys, mask) == mask


def is_stable_plain(sys: FiniteSystem, m: PointSet) -> bool:
    return is_stable_plain_mask(sys, m.mask)


def stable_degree_verdicts(sys: FiniteSystem, trace: DegreeTrace,
                           mask: int) -> tuple[bool, ...]:
    """Whether the set is stable at each degree 0..stabilization; the last
    trace entry repeats the stationary partition and is left out."""
    return tuple(succ_mask(sys, p, mask) == mask
                 for _, p in trace.entries[:-1])


def invariant_core_table(sys: FiniteSystem) -> tuple[int, ...]:
    """``invariant_core_mask`` of every mask, indexed by the mask: the orbit
    of the least open superset, read from the system's tables."""
    orbit = sys.map.orbit_table
    return tuple(orbit[u] for u in sys.space.open_table)


def degree_value_table(sys: FiniteSystem, p: Partition) -> list[int]:
    """``succ_mask`` of every nonempty mask (index 0 is 0):
    the least open saturated superset by alternating the open and
    saturation tables to a fixed point, then its least closed saturated
    superset by alternating the closure and saturation tables."""
    opened, closure, sat = sys.space.open_table, sys.space.closure_table, p.saturate_table
    out = [0]
    for mask in range(1, len(opened)):
        while (grown := opened[sat[mask]]) != mask:
            mask = grown
        while (grown := sat[closure[mask]]) != mask:
            mask = grown
        out.append(mask)
    return out


StabilityTable = dict[int, tuple[bool, tuple[bool, ...]]]


def stability_table(sys: FiniteSystem, trace: DegreeTrace,
                    values: list[list[int]] | None = None) -> StabilityTable:
    """For every nonempty mask, whether it is plainly stable and its
    ``stable_degree_verdicts``; absolutely stable means both hold.
    ``values`` are the ``degree_value_table`` of each non-final trace
    entry, built here when not given."""
    core = invariant_core_table(sys)
    if values is None:
        values = [degree_value_table(sys, p) for _, p in trace.entries[:-1]]
    return {mask: (core[mask] == mask, tuple(v[mask] == mask for v in values))
            for mask in range(1, sys.space.full_mask + 1)}


def is_stable_degree(sys: FiniteSystem, m: PointSet, d: OrdinalCNF | int,
                     trace: DegreeTrace | None = None) -> bool:
    if not m.mask:
        raise CoverError("stability is defined for nonempty sets")
    if isinstance(d, int):
        d = OrdinalCNF.from_int(d)
    if trace is None:
        trace = stabilize(sys)
    if not d.is_finite():
        raise OrdinalError(f"degree {d} exceeds the finite-system range")
    if d > trace.stabilization_degree:
        raise OrdinalError(
            f"degree {d} exceeds stabilization degree "
            f"{trace.stabilization_degree}; the test is constant beyond it"
        )
    p = trace.partition_at(d.as_int())
    return succ_mask(sys, p, m.mask) == m.mask


def is_absolutely_stable(sys: FiniteSystem, m: PointSet,
                         trace: DegreeTrace | None = None) -> bool:
    if not m.mask:
        raise CoverError("stability is defined for nonempty sets")
    if trace is None:
        trace = stabilize(sys)
    return is_stable_plain(sys, m) and all(stable_degree_verdicts(sys, trace, m.mask))


def stability_report(sys: FiniteSystem, m: PointSet) -> StabilityReport:
    if not m.mask:
        raise CoverError("stability is defined for nonempty sets")
    plain = is_stable_plain(sys, m)
    verdicts = stable_degree_verdicts(sys, stabilize(sys), m.mask)
    by_degree = tuple((OrdinalCNF.from_int(d), ok) for d, ok in enumerate(verdicts))
    return StabilityReport(m, plain, by_degree, plain and all(verdicts))


def finest_abs_stable_partition(sys: FiniteSystem,
                                stability: StabilityTable | None = None) -> Partition:
    """Finest partition whose every class is absolutely stable.

    Recurses over the partitions into absolutely stable classes (by the
    stability table, built from ``stabilize`` when not given): the class of
    the least uncovered point is each absolutely stable mask that holds it
    and lies in the uncovered rest.  Every candidate is folded into the
    per-point meet of the candidates' classes.  A finest candidate refines
    that meet and the meet refines every candidate, so one exists exactly
    when the meet is itself a candidate.
    """
    n = sys.n
    if n > PARTITION_SEARCH_BOUND:
        raise SizeLimitError(
            f"{n} points exceeds partition search bound {PARTITION_SEARCH_BOUND}")
    if stability is None:
        stability = stability_table(sys, stabilize(sys))
    ok = {m for m, (plain, verdicts) in stability.items() if plain and all(verdicts)}
    by_least: list[list[int]] = [[] for _ in range(n)]
    for m in ok:
        by_least[(m & -m).bit_length() - 1].append(m)

    found = False
    meet = [sys.space.full_mask] * n
    chosen: list[int] = []

    def rec(rest: int) -> None:
        nonlocal found
        if not rest:
            found = True
            for m in chosen:
                for i in _iter_bits(m):
                    meet[i] &= m
            return
        for m in by_least[(rest & -rest).bit_length() - 1]:
            if m & ~rest == 0:
                chosen.append(m)
                rec(rest & ~m)
                chosen.pop()

    rec(sys.space.full_mask)
    if not found:
        raise InternalError("no partition into absolutely stable classes exists")
    if not set(meet) <= ok:
        raise InternalError(
            "absolutely stable partitions have no finest element"
        )
    return Partition.from_class_of(sys.space, meet)
