"""Finite topological spaces as specialization preorders.

Convention fixed once for the whole package: ``specializes(x, y)`` means
x lies in the closure of {y}.  Closed sets are the down-sets of the
relation, open sets the up-sets, and the minimal open neighborhood of x
is ``{y : specializes(x, y)}``.

Subsets are bit masks over the point indices; the wrapper type
:class:`PointSet` gives named access while every algorithm works on raw
integers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import ContinuityError, SizeLimitError, UnknownNameError

REFERENCE_BOUND = 12


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def union_table(gens: Iterable[int]) -> tuple[int, ...]:
    """A union homomorphism on every mask, indexed by the mask, from its
    value on each point (generator i is the value on {i}).  Doubling: the
    masks with bit i set are the earlier ones, each joined with gens[i].
    Refused above ``REFERENCE_BOUND`` points, where 2^n entries are too many.
    """
    gens = tuple(gens)
    if len(gens) > REFERENCE_BOUND:
        raise SizeLimitError(
            f"{len(gens)} points exceeds table bound {REFERENCE_BOUND}")
    table = [0]
    for g in gens:
        table += [m | g for m in table]
    return tuple(table)


@dataclass(frozen=True)
class FiniteSpace:
    """Finite point set with a specialization preorder.

    ``up[i]``  is the bit mask of ``{j : specializes(i, j)}`` -- the minimal
    open set of point i.  ``down[i]`` is ``{j : specializes(j, i)}`` -- the
    closure of {i}.  Both include i itself (reflexivity).  ``wide`` lists,
    ascending, the points whose minimal open set is wider than the point
    itself: only they have non-reflexive pairs.
    """

    points: tuple[str, ...]
    up: tuple[int, ...]
    down: tuple[int, ...]
    index: dict[str, int] = field(compare=False, repr=False)
    wide: tuple[int, ...] = field(compare=False, repr=False)

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def idx(self, name: str) -> int:
        try:
            return self.index[name]
        except KeyError:
            raise UnknownNameError(f"unknown point {name!r}") from None

    def specializes(self, x: str, y: str) -> bool:
        return bool(self.up[self.idx(x)] >> self.idx(y) & 1)

    def names(self, mask: int) -> tuple[str, ...]:
        return tuple(self.points[i] for i in _iter_bits(mask))

    def pointset(self, members: Iterable[str]) -> "PointSet":
        mask = 0
        for p in members:
            mask |= 1 << self.idx(p)
        return PointSet(self, mask)

    def closure_mask(self, mask: int) -> int:
        out = 0
        for i in _iter_bits(mask):
            out |= self.down[i]
        return out

    @functools.cached_property
    def closure_table(self) -> tuple[int, ...]:
        """``closure_mask`` of every mask, indexed by the mask."""
        return union_table(self.down)

    @functools.cached_property
    def open_table(self) -> tuple[int, ...]:
        """Least open superset of every mask, indexed by the mask."""
        return union_table(self.up)

    def interior_mask(self, mask: int) -> int:
        out = 0
        for i in _iter_bits(mask):
            if self.up[i] & ~mask == 0:
                out |= 1 << i
        return out

    def is_open_mask(self, mask: int) -> bool:
        return self.interior_mask(mask) == mask

    def is_closed_mask(self, mask: int) -> bool:
        return self.closure_mask(mask) == mask

    def specialization_pairs(self) -> list[tuple[str, str]]:
        """All non-reflexive pairs (x, y) with specializes(x, y)."""
        points, up = self.points, self.up
        return [(points[i], points[j])
                for i in self.wide for j in _iter_bits(up[i] ^ 1 << i)]


@dataclass(frozen=True)
class PointSet:
    """Subset of a space's points with constant-time membership."""

    space: FiniteSpace
    mask: int

    def __post_init__(self):
        if self.mask & ~self.space.full_mask:
            raise UnknownNameError("point set contains bits outside its space")

    def __contains__(self, name: str) -> bool:
        return bool(self.mask >> self.space.idx(name) & 1)

    def __iter__(self) -> Iterator[str]:
        return iter(self.space.names(self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def members(self) -> tuple[str, ...]:
        return self.space.names(self.mask)

    def __or__(self, other: "PointSet") -> "PointSet":
        return PointSet(self.space, self.mask | other.mask)

    def __and__(self, other: "PointSet") -> "PointSet":
        return PointSet(self.space, self.mask & other.mask)

    def __le__(self, other: "PointSet") -> bool:
        return self.mask & ~other.mask == 0


@dataclass(frozen=True)
class SelfMap:
    """Total monotone self-map of a finite space (continuity certified)."""

    space: FiniteSpace
    img: tuple[int, ...]

    def __call__(self, name: str) -> str:
        return self.space.points[self.img[self.space.idx(name)]]

    def image_mask(self, mask: int) -> int:
        out = 0
        for i in _iter_bits(mask):
            out |= 1 << self.img[i]
        return out

    def orbit_mask(self, mask: int) -> int:
        """Forward saturation: smallest superset closed under the map."""
        out = mask
        frontier = mask
        while frontier:
            nxt = self.image_mask(frontier) & ~out
            out |= nxt
            frontier = nxt
        return out

    @functools.cached_property
    def image_table(self) -> tuple[int, ...]:
        """``image_mask`` of every mask, indexed by the mask."""
        return union_table(1 << j for j in self.img)

    @functools.cached_property
    def orbit_table(self) -> tuple[int, ...]:
        """``orbit_mask`` of every mask, indexed by the mask: the orbit of a
        union is the union of the orbits."""
        return union_table(self.orbit_mask(1 << i) for i in range(self.space.n))


@dataclass(frozen=True)
class FiniteSystem:
    space: FiniteSpace
    map: SelfMap

    @property
    def n(self) -> int:
        return self.space.n


def build_space(points: Iterable[str], specializes_pairs: Iterable[tuple[str, str]]) -> FiniteSpace:
    """Build a space from generating pairs, closed reflexively/transitively.

    A pair (x, y) asserts x in cl({y}).
    """
    pts = tuple(points)
    if not pts:
        raise UnknownNameError("a space needs at least one point")
    index: dict[str, int] = {}
    for i, p in enumerate(pts):
        if p in index:
            raise UnknownNameError(f"duplicate point {p!r}")
        index[p] = i
    n = len(pts)
    up = [1 << i for i in range(n)]
    for x, y in specializes_pairs:
        if x not in index:
            raise UnknownNameError(f"unknown point {x!r}")
        if y not in index:
            raise UnknownNameError(f"unknown point {y!r}")
        up[index[x]] |= 1 << index[y]
    return space_from_up_masks(pts, up, index)


def space_from_up_masks(pts: tuple[str, ...], up: list[int], index: dict[str, int] | None = None) -> FiniteSpace:
    """Finish construction from reflexive generator up-masks (transitive
    closure).

    A point whose generator mask is only itself keeps it, so the closure
    and the transpose walk only the other points' non-reflexive bits, and
    the space keeps that list of wide points.
    """
    n = len(pts)
    wide = [i for i in range(n) if up[i] != 1 << i]
    changed = True
    while changed:
        changed = False
        for i in wide:
            acc = u = up[i]
            for j in _iter_bits(u & ~(1 << i)):
                acc |= up[j]
            if acc != u:
                up[i] = acc
                changed = True
    down = [1 << i for i in range(n)]
    for i in wide:
        for j in _iter_bits(up[i] & ~(1 << i)):
            down[j] |= 1 << i
    if index is None:
        index = {p: i for i, p in enumerate(pts)}
    return FiniteSpace(pts, tuple(up), tuple(down), index, tuple(wide))


def closure(space: FiniteSpace, s: PointSet) -> PointSet:
    return PointSet(space, space.closure_mask(s.mask))


def interior(space: FiniteSpace, s: PointSet) -> PointSet:
    return PointSet(space, space.interior_mask(s.mask))


def minimal_open(space: FiniteSpace, x: str) -> PointSet:
    return PointSet(space, space.up[space.idx(x)])


def validate_map(space: FiniteSpace, assignments: dict[str, str]) -> SelfMap:
    """Accept a total assignment iff it is monotone w.r.t. specialization."""
    missing = [p for p in space.points if p not in assignments]
    if missing:
        raise UnknownNameError(f"assignment missing points {missing}")
    extra = [p for p in assignments if p not in space.index]
    if extra:
        raise UnknownNameError(f"assignment names unknown points {extra}")
    index, up = space.index, space.up
    try:
        img = tuple([index[assignments[p]] for p in space.points])
    except KeyError as e:
        raise UnknownNameError(f"unknown point {e.args[0]!r}") from None
    # the reflexive pair is always monotone, since up[k] holds k
    for i in space.wide:
        target = up[img[i]]
        for j in _iter_bits(up[i] ^ 1 << i):
            if not target >> img[j] & 1:
                raise ContinuityError(space.points[i], space.points[j])
    return SelfMap(space, img)


def is_discrete(space: FiniteSpace) -> bool:
    return not space.wide


def build_system(points: Iterable[str], specializes_pairs: Iterable[tuple[str, str]],
                 assignments: dict[str, str]) -> FiniteSystem:
    space = build_space(points, specializes_pairs)
    return FiniteSystem(space, validate_map(space, assignments))


def system_payload(sys: FiniteSystem) -> dict:
    """The JSON form of a system, the inverse of ``build_system``.

    The map comes in key order: every writer sorts the keys, and sorting a
    list that is already in order takes one linear pass."""
    points = sys.space.points
    return {
        "points": list(points),
        "specializes": [[x, y] for x, y in sys.space.specialization_pairs()],
        "map": dict(sorted(zip(points, [points[j] for j in sys.map.img]))),
    }
