"""Exhaustive enumeration of small finite systems and verification runs.

Preorders are enumerated recursively: a preorder on n points is the
induced preorder on the first n-1 points plus a consistent up/down profile
for the last point.  Each preorder is paired with every monotone self-map.

Up to isomorphism the enumeration is orderly.  It keeps a preorder only if
it is the first of its class: at that first member every relabeling of
its up-masks is tried once, which marks the other members of the class
as seen and lists the preorder's automorphisms, and a later member is
skipped by one set lookup before its space is built.  On a kept preorder
it keeps only the maps that are lexicographically least among their
conjugates under the automorphisms.  That is the first labeled copy of
each system class, in enumeration order, and the other copies are never
built.  :func:`canonical_form` is the definition-direct reference the
generator is tested against.

The census builds one :class:`Analysis` per system (at least one point),
runs the named theorem-level checks on it, and reports pass/fail counts
with replayable counterexamples.  What the checks read from a system's
space and trace partition, and not from its map, is one :class:`Facts`
per (space, trace) in a run, shared by its systems with the verdicts of
the ``SHARED_CHECKS``, each mask's per-degree stability verdicts, and
the finest absolutely stable partition of each set of absolutely stable
masks; ``stabilize``, the oracle and all that reads the map stay per
system.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Container, Iterator

from .decomposition import (
    DegreeTrace,
    Partition,
    aorb0_masks,
    class_invariant,
    generated_partition,
    oracle_partition,
    prolongation_reference,
    quotient,
    reference_intersection,
    stabilize,
)
from .errors import SizeLimitError, UnknownNameError
from .stability import (
    StabilityTable,
    degree_value_table,
    finest_abs_stable_partition,
    invariant_core_reference,
    invariant_core_table,
)
from .topology import (
    FiniteSpace,
    FiniteSystem,
    SelfMap,
    _iter_bits,
    is_discrete,
    space_from_up_masks,
    system_payload,
    union_table,
)

LABELED_LIMIT = 5
ISO_LIMIT = 6
JOBS_LIMIT = 64

_POINT_NAMES = "abcdefgh"


def _preorder_up_masks(n: int) -> Iterator[tuple[int, ...]]:
    """All reflexive transitive up-mask vectors on n points.

    A preorder on n points decomposes uniquely into its restriction to the
    first n-1 points plus a consistent profile (S_up, S_dn) for the last
    point, where S_up = {y : x <= y} must be up-closed, S_dn = {y : y <= x}
    down-closed, and every pair through x already related.
    """
    if n == 0:
        yield ()
        return
    x = n - 1
    bit = 1 << x
    for base in _preorder_up_masks(n - 1):
        dn = [0] * (n - 1)
        for y in range(n - 1):
            for z in _iter_bits(base[y]):
                dn[z] |= 1 << y
        # a set is up-closed exactly when the union of its points' up-sets
        # adds nothing to it, and down-closed likewise
        up_closed = [s for s, o in enumerate(union_table(base)) if o == s]
        dn_closed = [s for s, o in enumerate(union_table(dn)) if o == s]
        # S_dn may hold only points below every point of S_up
        not_below = union_table(~d & (bit - 1) for d in dn)
        for s_up in up_closed:
            for s_dn in dn_closed:
                if s_dn & not_below[s_up]:
                    continue
                up = list(base) + [s_up | bit]
                for y in _iter_bits(s_dn):
                    up[y] |= bit
                yield tuple(up)


def enumerate_preorders(n: int, skip: Container = ()) -> Iterator[FiniteSpace]:
    """The space of every preorder on n points whose up-mask vector is not
    in ``skip`` at the time it comes up."""
    names = tuple(_POINT_NAMES[:n])
    for up in _preorder_up_masks(n):
        if up not in skip:
            yield space_from_up_masks(names, list(up))


def monotone_maps(space: FiniteSpace) -> Iterator[SelfMap]:
    """All continuous self-maps, by backtracking in point order, in
    lexicographic order of their images.

    A map is continuous when it keeps every pair j in U_i inside U_img[i].
    So the images that point i may take, given those of the earlier
    points, are one mask: the AND of down[img[j]] over the earlier j in
    U_i and of up[img[j]] over the earlier j with i in U_j.  Its bits are
    tried upward.
    """
    n, up, down = space.n, space.up, space.down
    above = [tuple(_iter_bits(u & ((1 << i) - 1))) for i, u in enumerate(up)]
    below = [tuple(_iter_bits(d & ((1 << i) - 1))) for i, d in enumerate(down)]
    img = [0] * n

    def rec(i: int) -> Iterator[SelfMap]:
        if i == n:
            yield SelfMap(space, tuple(img))
            return
        cand = space.full_mask
        for j in above[i]:
            cand &= down[img[j]]
        for j in below[i]:
            cand &= up[img[j]]
        while cand:
            low = cand & -cand
            img[i] = low.bit_length() - 1
            yield from rec(i + 1)
            cand ^= low

    yield from rec(0)


def canonical_form(space: FiniteSpace, m: SelfMap) -> tuple:
    """Minimum relation-and-map encoding over all point permutations.

    The definition-direct reference for isomorphism of systems: two systems
    are isomorphic exactly when their forms are equal.  The enumeration does
    not call it; the tests check the orderly generator against it.
    """
    n = space.n
    best = None
    for perm in itertools.permutations(range(n)):
        rel = tuple(
            tuple(space.up[perm.index(i)] >> perm.index(j) & 1 for j in range(n))
            for i in range(n)
        )
        mp = tuple(perm[m.img[perm.index(i)]] for i in range(n))
        key = (rel, mp)
        if best is None or key < best:
            best = key
    return best


def _relabelings(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every permutation g of n points but the identity, as (g, g^-1, table)
    with table[s] the image g(s) of the point mask s."""
    out = []
    for g in itertools.islice(itertools.permutations(range(n)), 1, None):
        inv = tuple(sorted(range(n), key=g.__getitem__))
        table = tuple(sum(1 << g[j] for j in _iter_bits(s)) for s in range(1 << n))
        out.append((g, inv, table))
    return out


def orderly_preorders(n: int) -> Iterator[tuple[FiniteSpace, list]]:
    """The first labeled preorder of each isomorphism class, in enumeration
    order, with its automorphisms but the identity as (g, g^-1).

    Orderly generation (McKay, "Isomorph-free exhaustive generation", 1998):
    at the first member of a class, every relabeling of its up-masks is
    either an automorphism or another member, which goes into ``seen``.  So
    a class is walked once, at its first member, and every later member
    costs one set lookup, before its space is built.
    """
    seen: set[tuple[int, ...]] = set()
    relabelings = _relabelings(n)
    for space in enumerate_preorders(n, seen):
        up = space.up
        aut = []
        for g, inv, table in relabelings:
            image = tuple([table[up[i]] for i in inv])  # image[g(i)] = g(up[i])
            if image == up:
                aut.append((g, inv))
            else:
                seen.add(image)
        yield space, aut


def enumerate_systems(n: int, up_to_iso: bool = False) -> Iterator[FiniteSystem]:
    """Systems on n points (one per isomorphism class if asked); the size
    guard runs at the call, before anything is enumerated."""
    limit = ISO_LIMIT if up_to_iso else LABELED_LIMIT
    if not 1 <= n <= limit:
        raise SizeLimitError(
            f"n={n} is outside the enumeration range 1..{limit} "
            f"({'iso' if up_to_iso else 'labeled'})"
        )

    def systems() -> Iterator[FiniteSystem]:
        # The first copy of a system class lies on the first labeled preorder
        # of its class, and among that preorder's maps it is the least
        # conjugate g.m.g^-1 over g in Aut(P).  A labeled enumeration lists
        # no automorphisms, so every map passes.
        if up_to_iso:
            spaces = orderly_preorders(n)
        else:
            spaces = ((space, []) for space in enumerate_preorders(n))
        for space, aut in spaces:
            for m in monotone_maps(space):
                img = m.img
                if all(img <= tuple(g[img[i]] for i in inv) for g, inv in aut):
                    yield FiniteSystem(space, m)

    return systems()


# Counterexamples per check: a report emits the first REPORTED ones,
# ``--counterexample-dir`` writes the first KEPT ones, and the census keeps
# no more than that while still counting every failure.
REPORTED_COUNTEREXAMPLES = 5
KEPT_COUNTEREXAMPLES = 10


@dataclass
class CheckOutcome:
    name: str
    passed: int = 0
    failed: int = 0
    counterexamples: list[dict] = field(default_factory=list)


@dataclass
class CensusReport:
    points: int
    num_topologies: int
    num_systems: int
    checks: dict[str, CheckOutcome]
    stabilization_histogram: dict[int, int]
    ergodic_count: int

    def to_json(self) -> dict:
        return {
            "points": self.points,
            "num_topologies": self.num_topologies,
            "num_systems": self.num_systems,
            "checks": {
                name: {
                    "passed": c.passed,
                    "failed": c.failed,
                    "counterexamples": c.counterexamples[:REPORTED_COUNTEREXAMPLES],
                }
                for name, c in sorted(self.checks.items())
            },
            "stabilization_histogram": {
                str(k): v for k, v in sorted(self.stabilization_histogram.items())
            },
            "ergodic_count": self.ergodic_count,
            # Always empty: plainly stable sets are open and forward-invariant,
            # so every partition into them is the oracle or coarser.
            "finer_plain_stable_witnesses": [],
        }


@dataclass(frozen=True)
class Facts:
    """What the checks read from a space and a trace partition, not from a
    map, each derived on first use; the ``SHARED_CHECKS`` verdicts; and the
    finest absolutely stable partition of each set of absolutely stable
    masks met, keyed by that set as one int (bit m for mask m).  ``sys`` is
    the first system of the (space, trace); only the invariance guard of
    ``quotient``, which all of its systems pass, reads its map."""

    sys: FiniteSystem
    trace: DegreeTrace
    verdicts: dict[str, str | None] = field(default_factory=dict)
    finest: dict[int, Partition] = field(default_factory=dict)

    @functools.cached_property
    def values(self) -> list[list[int]]:
        """``degree_value_table`` at each non-final trace entry: the finite
        successor step of every mask, read off the open, closure and
        saturation tables."""
        return [degree_value_table(self.sys, p) for _, p in self.trace.entries[:-1]]

    @functools.cached_property
    def degree_verdicts(self) -> tuple[tuple[bool, ...], ...]:
        """``stable_degree_verdicts`` of every mask, indexed by the mask: a
        mask is stable at a degree when its value there is itself."""
        values = self.values
        return tuple(tuple([v[mask] == mask for v in values])
                     for mask in range(self.sys.space.full_mask + 1))

    @functools.cached_property
    def succ(self) -> tuple[tuple[int, ...], ...]:
        """The successor orbit of each point at each non-final trace entry,
        entry ``1 << i`` of its value table.

        ``stabilize`` stops only when the last two partitions have the same
        blocks, so ``succ[-1]`` are the orbits at the stationary partition.
        """
        return tuple(tuple(v[1 << i] for i in range(self.sys.n)) for v in self.values)

    @functools.cached_property
    def succ_reference(self) -> tuple[int, ...]:
        return reference_intersection(self.sys, "succ", self.trace.stationary_partition)

    @functools.cached_property
    def quotient_space(self) -> FiniteSpace:
        return quotient(self.sys, self.trace.stationary_partition).quotient.space


@dataclass(frozen=True)
class Analysis:
    """Everything the checks read about one system, each derived once: the
    ``facts`` of its space and trace (fresh when not given), and on first
    use the tables that read the map and the finest stable partition."""

    sys: FiniteSystem
    trace: DegreeTrace
    oracle: Partition
    facts: Facts = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.facts is None:
            object.__setattr__(self, "facts", Facts(self.sys, self.trace))

    @functools.cached_property
    def aorb0(self) -> tuple[int, ...]:
        """``aorb0_masks`` of the system."""
        return aorb0_masks(self.sys)

    @functools.cached_property
    def core(self) -> tuple[int, ...]:
        """``invariant_core_table`` of the system."""
        return invariant_core_table(self.sys)

    @functools.cached_property
    def prolongations(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(D1, D2) of each point, read off the closure and orbit tables:
        D1 is cl(orbit(U_i)), D2 the closure of the union of its iterated
        D1 images.  ``prolongation_reference``, which guards them, keeps
        its own copy of the iteration."""
        closure, orbit = self.sys.space.closure_table, self.sys.map.orbit_table
        d1, d2 = [], []
        for u in self.sys.space.up:
            first = cur = closure[orbit[u]]
            union = 0
            while cur & ~union:
                union |= cur
                cur = closure[orbit[cur]]
            d1.append(first)
            d2.append(closure[union])
        return tuple(d1), tuple(d2)

    @functools.cached_property
    def stability(self) -> StabilityTable:
        """Plain stability and the per-degree verdicts of each nonempty mask:
        ``stability_table``, with the verdicts of the facts."""
        core, verdicts = self.core, self.facts.degree_verdicts
        return {mask: (core[mask] == mask, verdicts[mask]) for mask in range(1, len(core))}

    @functools.cached_property
    def finest(self) -> Partition:
        """``finest_abs_stable_partition``, a function of the set of
        absolutely stable masks alone, found once per set in the facts."""
        key = 0
        for mask, (plain, verdicts) in self.stability.items():
            if plain and all(verdicts):
                key |= 1 << mask
        memo = self.facts.finest
        if key not in memo:
            memo[key] = finest_abs_stable_partition(self.sys, stability=self.stability)
        return memo[key]


def analyze(sys: FiniteSystem, memo: dict | None = None) -> Analysis:
    """The analysis of one system, with the facts of its trace in ``memo``
    if given: one space's facts by trace, emptied by a system of another
    space, since a census enumerates each space's systems together."""
    trace = stabilize(sys)
    if memo is None:
        return Analysis(sys, trace, oracle_partition(sys))
    if memo.get("space") is not sys.space:
        memo.clear()
        memo["space"] = sys.space
    key = tuple((d, p.classes) for d, p in trace.entries)
    facts = memo.setdefault(key, Facts(sys, trace))
    return Analysis(sys, facts.trace, oracle_partition(sys), facts)


def check_oracle_equivalence(a: Analysis) -> str | None:
    if not a.trace.stationary_partition.same_blocks(a.oracle):
        return "stationary partition differs from the level-set oracle"
    return None


def check_quotient_discrete(a: Analysis) -> str | None:
    if not is_discrete(a.facts.quotient_space):
        return "quotient by the stationary partition is not discrete"
    if not a.trace.stationary_partition.same_blocks(a.oracle):
        return "stationary classes are not the maximal level sets"
    return None


def check_stabilization_zero(a: Analysis) -> str | None:
    """Degree 0, and the successor orbits at degree 0 regenerate the base
    partition: ``stabilize`` returns degree 0 without a step when the base
    classes are clopen and invariant, so the degree alone is not a check."""
    if a.trace.stabilization_degree.as_int() != 0:
        return f"stabilized at degree {a.trace.stabilization_degree}"
    base = a.trace.entries[0][1]
    if not generated_partition(a.sys.space, list(a.facts.succ[-1])).same_blocks(base):
        return "the successor orbits at degree 0 do not regenerate the base partition"
    return None


def check_definition_direct(a: Analysis) -> str | None:
    base = reference_intersection(a.sys, "base")
    succ = a.facts.succ_reference
    for i, x in enumerate(a.sys.space.points):
        if a.aorb0[i] != base[i]:
            return f"aorb0({x}) differs from the definition-direct intersection"
        if a.facts.succ[-1][i] != succ[i]:
            return f"aorb_succ({x}) differs from the definition-direct intersection"
    return None


def check_trace_monotone(a: Analysis) -> str | None:
    entries = a.trace.entries
    for (d1, p1), (d2, p2) in zip(entries, entries[1:]):
        if not (d1 < d2):
            return "trace degrees are not strictly increasing"
        if not p1.refines(p2):
            return f"partition at {d1} does not refine partition at {d2}"
    return None


def check_level_set_refinement(a: Analysis) -> str | None:
    for _, p in a.trace.entries:
        if not p.refines(a.oracle):
            return "a trace partition does not refine the level-set oracle"
    return None


def check_class_invariance(a: Analysis) -> str | None:
    for _, p in a.trace.entries:
        for m in p.classes:
            if not class_invariant(a.sys, m):
                return f"class {a.sys.space.names(m)} is not forward-invariant"
    return None


def check_saturation_equivalences(a: Analysis) -> str | None:
    """The three saturation verdicts agree, and the saturation is the union
    of the classes that meet S, found by a plain scan of the classes."""
    p = a.trace.stationary_partition
    for s in range(1, a.sys.space.full_mask + 1):
        sat = p.saturate_mask(s)
        met = 0
        for m in p.classes:
            if m & s:
                met |= m
        sub = sat & ~s == 0  # classes(S) subset of S
        eq = sat == s        # classes(S) == S
        union = met == s     # S is a union of classes
        if sat != met or not (sub == eq == union):
            return f"saturation equivalences fail on {a.sys.space.names(s)}"
    return None


def check_quotient_neighborhood(a: Analysis) -> str | None:
    """At stationarity, pulling back the intersection of closed neighborhoods
    of a class in the quotient gives the successor-degree orbit."""
    sys = a.sys
    p = a.trace.stationary_partition
    qspace = a.facts.quotient_space
    closure = qspace.closure_table
    closed = [cand for cand in range(1 << qspace.n) if closure[cand] == cand]
    for x, c in enumerate(p.class_of):
        acc = qspace.full_mask
        for cand in closed:
            if cand & qspace.up[c] == qspace.up[c]:
                acc &= cand
        pulled = 0
        for j in _iter_bits(acc):  # quotient point j is class j of p
            pulled |= p.classes[j]
        if pulled != a.facts.succ[-1][x]:
            return f"quotient-neighborhood identity fails at {sys.space.points[x]}"
    return None


def check_prolongations(a: Analysis) -> str | None:
    sys = a.sys
    direct_d1, direct_d2 = prolongation_reference(sys)
    d1s, d2s = a.prolongations
    for i, x in enumerate(sys.space.points):
        d1 = d1s[i]
        if d1 != a.aorb0[i]:
            return f"D1({x}) != aorb0({x})"
        if d2s[i] != d1:
            return f"D2({x}) != D1({x})"
        if direct_d1[i] != d1:
            return f"definition-direct D1({x}) differs"
        if direct_d2[i] != d1:
            return f"definition-direct D2({x}) differs"
    return None


def check_oracle_classes_absolutely_stable(a: Analysis) -> str | None:
    for m in a.oracle.classes:
        plain, verdicts = a.stability[m]
        if not (plain and all(verdicts)):
            return f"oracle class {a.sys.space.names(m)} is not absolutely stable"
    return None


def check_finest_abs_stable(a: Analysis) -> str | None:
    if not a.finest.same_blocks(a.oracle):
        return "finest absolutely-stable partition differs from the oracle"
    return None


def check_degree_monotonicity(a: Analysis) -> str | None:
    if len(a.trace.entries) == 2:
        return None  # one degree below stationarity: nothing to compare
    sys = a.sys
    for mask, (_, verdicts) in a.stability.items():
        # once false at a lower degree, must stay false above
        for lo in range(len(verdicts)):
            for hi in range(lo + 1, len(verdicts)):
                if verdicts[hi] and not verdicts[lo]:
                    return (
                        f"set {sys.space.names(mask)} stable at degree {hi} "
                        f"but not at {lo}"
                    )
    return None


def check_containment_lemma(a: Analysis) -> str | None:
    """Containment claims for the degree hierarchy.

    For a set stable at degree d, every member's successor-degree orbit at
    degree d stays inside the set; for an absolutely stable set the base
    orbit and base class stay inside as well.
    """
    sys = a.sys
    base = a.trace.partition_at(0)
    for mask, (plain, verdicts) in a.stability.items():
        for d, stable in enumerate(verdicts):
            if stable:
                for i in _iter_bits(mask):
                    if a.facts.succ[d][i] & ~mask:
                        return (
                            f"degree-{d} stable set {sys.space.names(mask)} does "
                            f"not contain the degree-{d + 1} orbit of "
                            f"{sys.space.points[i]}"
                        )
        if plain and all(verdicts):
            for i in _iter_bits(mask):
                if a.aorb0[i] & ~mask:
                    return (
                        f"absolutely stable set {sys.space.names(mask)} does not "
                        f"contain aorb0({sys.space.points[i]})"
                    )
                if base.classes[base.class_of[i]] & ~mask:
                    return (
                        f"absolutely stable set {sys.space.names(mask)} does not "
                        f"contain the base class of {sys.space.points[i]}"
                    )
    return None


def check_plain_containment_probe(a: Analysis) -> str | None:
    """Exhaustive probe: does plain stability force base-orbit containment?

    On non-Hausdorff finite models it does not (a non-closed stable set can
    miss the closure of a member's orbit), so the census *reports* this
    check rather than requiring it; its counterexamples are expected.
    """
    sys = a.sys
    for mask, (plain, _) in a.stability.items():
        if not plain:
            continue
        for i in _iter_bits(mask):
            if a.aorb0[i] & ~mask:
                return (
                    f"plain-stable {sys.space.names(mask)} misses part of "
                    f"aorb0({sys.space.points[i]})"
                )
    return None


def check_invariant_core_reference(a: Analysis) -> str | None:
    sys = a.sys
    want = invariant_core_reference(sys)
    got = a.core
    for mask in range(1, sys.space.full_mask + 1):
        if got[mask] != want[mask]:
            return f"invariant core of {sys.space.names(mask)} differs from reference"
    return None


def check_ergodicity_equivalence(a: Analysis) -> str | None:
    by_trace = a.trace.stationary_partition.num_classes == 1
    by_oracle = a.oracle.num_classes == 1
    by_stable = a.finest.num_classes == 1
    if not (by_trace == by_oracle == by_stable):
        return (f"ergodicity equivalences disagree: trace={by_trace} "
                f"oracle={by_oracle} stable={by_stable}")
    return None


ASSERTED_CHECKS: dict[str, Callable[[Analysis], str | None]] = {
    "oracle-equivalence": check_oracle_equivalence,
    "quotient-discrete": check_quotient_discrete,
    "stabilization-degree-0": check_stabilization_zero,
    "definition-direct": check_definition_direct,
    "trace-monotone": check_trace_monotone,
    "level-set-refinement": check_level_set_refinement,
    "class-invariance": check_class_invariance,
    "saturation-equivalences": check_saturation_equivalences,
    "quotient-neighborhood": check_quotient_neighborhood,
    "prolongation-identities": check_prolongations,
    "oracle-classes-absolutely-stable": check_oracle_classes_absolutely_stable,
    "finest-abs-stable": check_finest_abs_stable,
    "degree-monotonicity": check_degree_monotonicity,
    "containment-lemma": check_containment_lemma,
    "invariant-core-reference": check_invariant_core_reference,
    "ergodicity-equivalence": check_ergodicity_equivalence,
}

# Reported checks collect counterexamples without failing the census: the
# plain-stability probe is expected to find non-closed stable sets on
# non-Hausdorff models.
REPORTED_CHECKS: dict[str, Callable[[Analysis], str | None]] = {
    "plain-containment-probe": check_plain_containment_probe,
}

ALL_CHECK_NAMES = tuple(ASSERTED_CHECKS) + tuple(REPORTED_CHECKS)

# Checks that read only an analysis's facts, space and trace: each runs at
# the first system of its facts, and the others reuse its verdict.
SHARED_CHECKS = ("stabilization-degree-0", "saturation-equivalences", "quotient-neighborhood")


def _run_check(name: str, a: Analysis) -> str | None:
    check = ASSERTED_CHECKS.get(name) or REPORTED_CHECKS[name]
    if name not in SHARED_CHECKS:
        return check(a)
    if name not in a.facts.verdicts:
        a.facts.verdicts[name] = check(a)
    return a.facts.verdicts[name]


def evaluate_system(checks: tuple[str, ...], sys: FiniteSystem, memo: dict | None = None
                    ) -> tuple[dict[str, str | None], int, bool, FiniteSystem | None]:
    """Analyze one system, with the facts in ``memo`` if given, and run the
    named checks, looked up at call time.

    Returns the verdict per check (None on a pass), the stabilization
    degree, the ergodic flag, and the system itself when a check failed, so
    that a streamed census can keep it as a counterexample.
    """
    a = analyze(sys, memo)
    verdicts = {name: _run_check(name, a) for name in checks}
    failed = any(msg is not None for msg in verdicts.values())
    return (verdicts, a.trace.stabilization_degree.as_int(),
            a.trace.stationary_partition.num_classes == 1, sys if failed else None)


def _evaluate_all(checks: tuple[str, ...], systems: Iterator[FiniteSystem],
                  jobs: int) -> Iterator[tuple]:
    """``evaluate_system`` on each system, in order, with a new facts memo;
    in ``jobs`` worker processes, a memo copy per chunk, when ``jobs`` > 1."""
    run = functools.partial(evaluate_system, checks, memo={})
    if jobs > 1:
        import multiprocessing as mp

        with mp.Pool(jobs) as pool:
            yield from pool.imap(run, systems, chunksize=64)
    else:
        yield from map(run, systems)


def run_census(n: int, checks: tuple[str, ...] | None = None,
               up_to_iso: bool = False, jobs: int = 1) -> CensusReport:
    """Stream the systems through the checks, keeping only the counters and
    the first ``KEPT_COUNTEREXAMPLES`` counterexamples per check."""
    if checks is None:
        checks = tuple(ASSERTED_CHECKS)
    unknown = [c for c in checks if c not in ASSERTED_CHECKS and c not in REPORTED_CHECKS]
    if unknown:
        raise UnknownNameError(f"unknown checks {unknown}")
    systems = enumerate_systems(n, up_to_iso)
    if not 1 <= jobs <= JOBS_LIMIT:
        raise SizeLimitError(f"jobs={jobs} is outside the range 1..{JOBS_LIMIT}")
    outcomes = {name: CheckOutcome(name) for name in checks}
    histogram: dict[int, int] = {}
    ergodic_count = num_systems = 0
    for verdicts, degree, ergodic, failed_sys in _evaluate_all(checks, systems, jobs):
        num_systems += 1
        histogram[degree] = histogram.get(degree, 0) + 1
        ergodic_count += ergodic
        for name, msg in verdicts.items():
            out = outcomes[name]
            if msg is None:
                out.passed += 1
            else:
                out.failed += 1
                if len(out.counterexamples) < KEPT_COUNTEREXAMPLES:
                    out.counterexamples.append({
                        "system": system_payload(failed_sys),
                        "reason": msg,
                    })
    return CensusReport(
        points=n,
        num_topologies=sum(1 for _ in _preorder_up_masks(n)),
        num_systems=num_systems,
        checks=outcomes,
        stabilization_histogram=histogram,
        ergodic_count=ergodic_count,
    )


def census_failures(report: CensusReport) -> list[str]:
    """Names of asserted checks that failed (reported checks never fail)."""
    return [
        name for name, c in report.checks.items()
        if c.failed and name in ASSERTED_CHECKS
    ]
