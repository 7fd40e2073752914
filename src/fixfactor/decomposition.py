"""Orbit hierarchy on finite systems.

Approximating orbits, covering-generated equivalences, successor-degree
refinement steps, stabilization traces, quotients, the locally-constant
fixed-function oracle, topological ergodicity, and prolongations.

All algorithms use the collapse arguments documented per operation: the
intersection over a filter of admissible neighborhoods equals the value at
the minimal admissible one, because the defining operator is monotone and
the minimal element is itself admissible.  ``reference_intersection``
recomputes the same sets definition-first by exhaustive enumeration and is
the guard for every such collapse.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import chain

from .errors import CoverError, InternalError, InvarianceError, SizeLimitError
from .ordinals import ONE, ZERO, OrdinalCNF
from .topology import (
    REFERENCE_BOUND,
    FiniteSpace,
    FiniteSystem,
    PointSet,
    SelfMap,
    _iter_bits,
    space_from_up_masks,
    union_table,
)

SUCC_REFERENCE_BOUND = 8  # "succ" makes 2^n x 2^n passes where "base" makes 2^n


@dataclass(frozen=True)
class Partition:
    """Equivalence relation on a space's points with class lookup.

    Class ids are assigned by least member index, so equal partitions have
    identical representations.
    """

    space: FiniteSpace
    class_of: tuple[int, ...]
    classes: tuple[int, ...]  # one mask per class, ordered by least member

    @classmethod
    def from_class_of(cls, space: FiniteSpace, raw_ids: list[int]) -> "Partition":
        remap: dict[int, int] = {}
        masks: list[int] = []
        ids = []
        for i, r in enumerate(raw_ids):
            if r not in remap:
                remap[r] = len(masks)
                masks.append(0)
            ids.append(remap[r])
            masks[remap[r]] |= 1 << i
        return cls(space, tuple(ids), tuple(masks))

    @classmethod
    def from_masks(cls, space: FiniteSpace, masks: list[int]) -> "Partition":
        raw = [0] * space.n
        for k, m in enumerate(masks):
            for i in _iter_bits(m):
                raw[i] = k
        return cls.from_class_of(space, raw)

    @classmethod
    def identity(cls, space: FiniteSpace) -> "Partition":
        return cls.from_class_of(space, list(range(space.n)))

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def class_mask(self, x: str) -> int:
        return self.classes[self.class_of[self.space.idx(x)]]

    def class_sets(self) -> tuple[PointSet, ...]:
        return tuple(PointSet(self.space, m) for m in self.classes)

    def saturate_mask(self, mask: int) -> int:
        """Union of the classes that meet the mask, one step per class met."""
        out = rest = mask
        while rest:
            m = self.classes[self.class_of[(rest & -rest).bit_length() - 1]]
            out |= m
            rest &= ~m
        return out

    def is_saturated_mask(self, mask: int) -> bool:
        return self.saturate_mask(mask) == mask

    @functools.cached_property
    def saturate_table(self) -> tuple[int, ...]:
        """``saturate_mask`` of every mask, indexed by the mask."""
        return union_table(self.classes[c] for c in self.class_of)

    def refines(self, other: "Partition") -> bool:
        """Every class of self is contained in a class of other."""
        for m in self.classes:
            i = (m & -m).bit_length() - 1
            if m & ~other.classes[other.class_of[i]]:
                return False
        return True

    def same_blocks(self, other: "Partition") -> bool:
        return self.classes == other.classes


def generated_partition(space: FiniteSpace, cover: list[int]) -> Partition:
    """Finest equivalence merging overlapping cover members (x in K_x).

    Every member contains its own point, so merging the owners of each
    point gives the same classes as merging each member's points with one
    another.  A union-find does that without an n^2 scan: each root keeps
    the mask of its class, and member K_x skips the points already in the
    class of x and merges one whole class per hop, the way
    ``Partition.saturate_mask`` hops.  So there are at most n - 1 hops in
    all, and a member inside the class of its point costs one test.
    """
    n = space.n
    if len(cover) != n:
        raise CoverError(f"cover must have one member per point, got {len(cover)}")
    for i, m in enumerate(cover):
        if not m >> i & 1:
            raise CoverError(f"point {space.points[i]!r} not in its own cover member")
    parent = list(range(n))
    members: dict[int, int] = {}  # the class of each root r, unless it is {r}

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, m in enumerate(cover):
        root = find(i)
        merged = members.get(root, 1 << root)
        rest = m & ~merged
        if not rest:
            continue
        while rest:
            # any point of rest will do, and the top one is found in O(1)
            r = find(rest.bit_length() - 1)
            parent[r] = root
            cls = members.pop(r, 1 << r)
            merged |= cls
            rest &= ~cls
        members[root] = merged
    # a class is first met at its least member, so ids follow least members
    ids: dict[int, int] = {}
    class_of = []
    classes = []
    for i in range(n):
        r = find(i)
        c = ids.get(r)
        if c is None:
            c = ids[r] = len(classes)
            classes.append(members.get(r, 1 << r))
        class_of.append(c)
    return Partition(space, tuple(class_of), tuple(classes))


def comparability_partition(space: FiniteSpace) -> Partition:
    """Components of the comparability graph: the classes that the minimal
    open sets generate, since each comparable pair lies in the minimal open
    set of its lower point."""
    return generated_partition(space, list(space.up))


def aorb0_masks(sys: FiniteSystem) -> tuple[int, ...]:
    """Smallest closed invariant neighborhood of every point, one mask per
    point index.

    That is cl(orbit(U_i)): every closed invariant neighborhood contains the
    minimal open U_i, hence its forward orbit, hence the closure; and the
    closure of the orbit is itself closed, invariant and a neighborhood.
    Closure and orbit both map a union to a union, so it is the union over
    y in U_i of F[y] = cl(orbit({y})), and F[y] = down[y] | F[map(y)], which
    is one mask on a whole cycle.  One walk along the map fills F, settling
    each point once and each cycle as a whole.
    """
    space, img, down = sys.space, sys.map.img, sys.space.down
    n = space.n
    f = [0] * n  # 0 until settled: every F[y] holds y
    pos = [-1] * n  # place on the walk; an unsettled point is on this walk
    for start in range(n):
        if f[start]:
            continue
        path = []
        y = start
        while not f[y] and pos[y] < 0:
            pos[y] = len(path)
            path.append(y)
            y = img[y]
        if f[y]:
            acc = f[y]
        else:  # the walk closed a cycle at y
            cycle = path[pos[y]:]
            del path[pos[y]:]
            acc = 0
            for c in cycle:
                acc |= down[c]
            for c in cycle:
                f[c] = acc
        for c in reversed(path):
            acc |= down[c]
            f[c] = acc
    # U_y lies in U_x for every y in U_x, so F[y] may already have been
    # replaced by its union: the union at x is the same.  U_x = {x} at a
    # point that is not wide, where the union is F[x] itself.
    for x in space.wide:
        acc = f[x]
        u = space.up[x] ^ 1 << x
        while u:
            y = u.bit_length() - 1
            acc |= f[y]
            u ^= 1 << y
        f[x] = acc
    return tuple(f)


def aorb0(sys: FiniteSystem, x: str) -> PointSet:
    return PointSet(sys.space, aorb0_masks(sys)[sys.space.idx(x)])


def sorb0_partition(sys: FiniteSystem) -> Partition:
    return generated_partition(sys.space, list(aorb0_masks(sys)))


def min_saturated_open_mask(space: FiniteSpace, p: Partition, seed: int) -> int:
    """Least open, P-saturated superset of the seed mask.

    Saturation and the least open superset each map a union to the union
    of their values, so each round needs only the points the last round
    added.  Those lie outside the classes met so far, so each class is
    saturated once and each point opened up once.
    """
    out, new = 0, seed
    while new:
        new = p.saturate_mask(new)
        out |= new
        grown = 0
        for i in _iter_bits(new):
            grown |= space.up[i]
        new = grown & ~out
    return out


def min_saturated_open_nbhd(sys: FiniteSystem, p: Partition, x: str) -> PointSet:
    space = sys.space
    return PointSet(space, min_saturated_open_mask(space, p, 1 << space.idx(x)))


def sorb_closure_mask(space: FiniteSpace, p: Partition, mask: int) -> int:
    """Least closed, P-saturated superset: alternate closure and saturation,
    each round on the points the last round added only."""
    out = new = mask
    while new:
        new = p.saturate_mask(space.closure_mask(new)) & ~out
        out |= new
    return out


def sorb_closure(sys: FiniteSystem, p: Partition, u: PointSet) -> PointSet:
    if not u.mask:
        raise CoverError("sorb-closure of an empty set is not defined")
    return PointSet(sys.space, sorb_closure_mask(sys.space, p, u.mask))


def succ_mask(sys: FiniteSystem, p: Partition, seed: int) -> int:
    """The finite successor step from a seed mask: the least closed
    P-saturated superset of its least open P-saturated superset."""
    space = sys.space
    return sorb_closure_mask(space, p, min_saturated_open_mask(space, p, seed))


def aorb_succ_mask(sys: FiniteSystem, p: Partition, i: int) -> int:
    return succ_mask(sys, p, 1 << i)


def aorb_succ(sys: FiniteSystem, p: Partition, x: str) -> PointSet:
    return PointSet(sys.space, aorb_succ_mask(sys, p, sys.space.idx(x)))


def reference_intersection(sys: FiniteSystem, mode: str,
                           p: Partition | None = None) -> tuple[int, ...]:
    """Definition-direct oracle for aorb0 / aorb_succ at every point, as one
    mask per point index, from one enumeration of the admissible sets.

    mode="base": intersect all closed invariant neighborhoods of x.  Each
    closed invariant candidate is intersected into every x with U_x in it.
    mode="succ": intersect, over all open P-saturated U containing x, the
    least closed P-saturated superset of U (enumerated, not collapsed).
    Each open saturated candidate's superset is intersected into every x
    in the candidate.
    The size bound is ``REFERENCE_BOUND`` for "base" and the smaller
    ``SUCC_REFERENCE_BOUND`` for "succ".
    """
    bound = REFERENCE_BOUND if mode == "base" else SUCC_REFERENCE_BOUND
    space = sys.space
    if space.n > bound:
        raise SizeLimitError(f"{space.n} points exceeds enumeration bound {bound}")
    acc = [space.full_mask] * space.n
    if mode == "base":
        image = sys.map.image_table
        for cand, nbhd_of in space.closed_interiors:
            if image[cand] & ~cand:
                continue
            for i in nbhd_of:
                acc[i] &= cand
        return tuple(acc)
    if mode == "succ":
        if p is None:
            raise CoverError("mode 'succ' needs a partition")
        sat = p.saturate_table
        closed_saturated = [sup for sup, _ in space.closed_interiors if sat[sup] == sup]
        for cand, members in space.open_members:
            if sat[cand] != cand:
                continue
            # least closed saturated superset, itself by enumeration
            best = space.full_mask
            for sup in closed_saturated:
                if sup & cand == cand:
                    best &= sup
            for i in members:
                acc[i] &= best
        return tuple(acc)
    raise CoverError(f"unknown mode {mode!r}")


def class_invariant(sys: FiniteSystem, mask: int) -> bool:
    return sys.map.image_mask(mask) & ~mask == 0


def _require_invariant_classes(sys: FiniteSystem, p: Partition) -> None:
    for m in p.classes:
        if not class_invariant(sys, m):
            raise InvarianceError(
                f"class {sys.space.names(m)} is not forward-invariant")


def degree_step(sys: FiniteSystem, p: Partition) -> Partition:
    """One successor step: regenerate the equivalence from degree-(d+1) orbits.

    The successor orbit of a point begins by saturating the point into its
    class, so it is the same for every member of a class: it is computed
    once per class, from the least member, which makes the step cost one
    orbit per class instead of one per point.
    """
    _require_invariant_classes(sys, p)
    orbits = [aorb_succ_mask(sys, p, (m & -m).bit_length() - 1) for m in p.classes]
    return generated_partition(sys.space, [orbits[c] for c in p.class_of])


@dataclass(frozen=True)
class DegreeTrace:
    """Per-degree partitions up to and including the stationarity witness.

    The final two entries carry equal partitions; the stabilization degree
    is the degree of the first of those two.
    """

    entries: tuple[tuple[OrdinalCNF, Partition], ...]
    stabilization_degree: OrdinalCNF

    @property
    def stationary_partition(self) -> Partition:
        return self.entries[-1][1]

    def partition_at(self, degree: int) -> Partition:
        last = self.entries[-1][1]
        for d, part in self.entries:
            if d.as_int() == degree:
                return part
        return last if degree > self.entries[-1][0].as_int() else self.entries[0][1]


def _degree_zero_certificate(sys: FiniteSystem, p: Partition) -> bool:
    """Every class of p is open and forward-invariant: for each point i,
    map(i) and U_i lie in the class of i.  U_i = {i} unless i is wide, so
    only the wide points need the open test.  A partition into open
    classes is also one into closed classes, since the complement of each
    class is a union of the other, open, classes."""
    up, class_of, classes = sys.space.up, p.class_of, p.classes
    for j, c in zip(sys.map.img, class_of):
        if class_of[j] != c:
            return False
    for i in sys.space.wide:
        if up[i] & ~classes[class_of[i]]:
            return False
    return True


def stabilize(sys: FiniteSystem) -> DegreeTrace:
    """The per-degree partitions from the base partition until stationary.

    On a finite space the trace stops at degree 0.  A class C of the base
    partition is the union of aorb0(x) over its points x, because the
    classes are generated by these sets and each holds its own point.
    Each aorb0(x) contains the open U_x, so C is the union of the U_x and
    is open; as a finite union of closed invariant sets C is also closed
    and invariant.  So the least saturated open superset of {x} is C(x),
    and it is its own least closed saturated superset: aorb_succ(x) =
    C(x), and ``degree_step`` returns the base partition unchanged.

    The proof's premises are checked on the base partition in one pass
    over the points (``_degree_zero_certificate``), and the trace is that
    partition at degrees 0 and 1.  A partition that fails them means the
    proof no longer holds, an ``InternalError``.  The census checks on
    every system that the successor orbits regenerate the base partition.
    """
    p = sorb0_partition(sys)
    if not _degree_zero_certificate(sys, p):
        raise InternalError("base partition is not open and invariant")
    return DegreeTrace(((ZERO, p), (ONE, p)), ZERO)


@dataclass(frozen=True)
class QuotientResult:
    quotient: FiniteSystem
    projection: dict[str, str]


def quotient(sys: FiniteSystem, p: Partition) -> QuotientResult:
    """Quotient system: classes as points, relation and map induced.

    The quotient preorder is the transitive closure of representative-wise
    specialization, which presents the quotient topology; the induced map
    is well-defined because classes are forward-invariant.
    """
    _require_invariant_classes(sys, p)
    space = sys.space
    k = p.num_classes
    reps = []
    for m in p.classes:
        reps.append(space.points[(m & -m).bit_length() - 1])
    up = [1 << c for c in range(k)]  # a point that is not wide adds its own class
    for i in space.wide:
        ci = p.class_of[i]
        for j in _iter_bits(space.up[i]):
            up[ci] |= 1 << p.class_of[j]
    qspace = space_from_up_masks(tuple(reps), up)
    img = [0] * k
    for c, m in enumerate(p.classes):
        i = (m & -m).bit_length() - 1
        img[c] = p.class_of[sys.map.img[i]]
    qmap = SelfMap(qspace, tuple(img))
    projection = {space.points[i]: reps[p.class_of[i]] for i in range(space.n)}
    return QuotientResult(FiniteSystem(qspace, qmap), projection)


def oracle_partition(sys: FiniteSystem) -> Partition:
    """Maximal level sets of the invariant continuous functions.

    A continuous function into a T1 range is constant on comparable pairs,
    and invariance forces f(x) = f(map(x)); conversely any function constant
    on the generated classes is continuous and invariant.  So the classes
    are the components of comparability plus map edges, and their number is
    the dimension of the fixed function space.

    A union-find merges each point with its image, and each wide point
    with the other points of its minimal open set; the closures give the
    same pairs reversed.  The greater of two roots goes under the lesser,
    so a parent is never above its point and the root of a class is its
    least member, whatever the order of the edges.
    """
    space = sys.space
    up = space.up
    parent = list(range(space.n))
    edges = chain(enumerate(sys.map.img),
                  ((i, j) for i in space.wide for j in _iter_bits(up[i] ^ 1 << i)))
    for a, b in edges:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    # in index order a parent's own entry is already its root
    for i, r in enumerate(parent):
        parent[i] = parent[r]
    return Partition.from_class_of(space, parent)


def dim_fix(sys: FiniteSystem) -> int:
    return oracle_partition(sys).num_classes


def is_topologically_ergodic(sys: FiniteSystem) -> bool:
    return stabilize(sys).stationary_partition.num_classes == 1


def _d1_set_mask(sys: FiniteSystem, mask: int) -> int:
    return sys.space.closure_mask(sys.map.orbit_mask(mask))


def prolongation_D1(sys: FiniteSystem, x: str) -> PointSet:
    """Closure of the orbit of the minimal neighborhood (first prolongation)."""
    return PointSet(sys.space, _d1_set_mask(sys, sys.space.up[sys.space.idx(x)]))


def prolongation_D2(sys: FiniteSystem, x: str) -> PointSet:
    """Second prolongation: closure of the union of iterated D1 images."""
    space = sys.space
    u = space.up[space.idx(x)]
    acc = 0
    cur = _d1_set_mask(sys, u)
    while cur & ~acc:
        acc |= cur
        cur = _d1_set_mask(sys, cur)
    return PointSet(space, space.closure_mask(acc))


def prolongation_reference(sys: FiniteSystem) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Definition-direct prolongations at every point, as (D1, D2) with one
    mask per point index: each intersects, over all open U containing x,
    its value on U.  One enumeration of the open sets computes D1 and D2 of
    each once and intersects them into every member."""
    space = sys.space
    if space.n > REFERENCE_BOUND:
        raise SizeLimitError(
            f"{space.n} points exceeds enumeration bound {REFERENCE_BOUND}")
    closure, orbit = space.closure_table, sys.map.orbit_table
    d1 = [space.full_mask] * space.n
    d2 = [space.full_mask] * space.n
    for cand, members in space.open_members:
        first = closure[orbit[cand]]
        union = 0
        cur = first
        while cur & ~union:
            union |= cur
            cur = closure[orbit[cur]]
        second = closure[union]
        for i in members:
            d1[i] &= first
            d2[i] &= second
    return tuple(d1), tuple(d2)
