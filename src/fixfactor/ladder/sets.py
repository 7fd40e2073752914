"""Symbolic subsets of a ladder space and the base-degree orbit computation.

A :class:`SymbolicSet` is a union of two kinds of component: single
limit points, and per-strand index profiles.  A base orbit only ever
holds two profiles, a forward tail {j : j >= start} or the whole strand,
so membership is decidable for every concrete address.

``ladder_aorb0`` computes the smallest closed invariant neighborhood of a
point in closed form.  An orbit point is isolated, so its base orbit is
its forward tail plus the tail's limit, the strand's attracting end ``A``.
A limit point is fixed, and its neighborhood filter consists of tails
with arbitrary cutoffs, so the intersection over all cutoffs keeps only
what every cutoff forces.  A forward-tail source forces that strand's
``A`` and a family-tail source forces the node's top, and both of these
are the point itself; so the closed form reads only the backward source,
read off the point's address.  A backward-tail source forces the whole
strand (its orbit) and both of the strand's limits (its closure), its
``A`` and the point.  The union of these is already closed and invariant:
limit points are fixed, and every strand it holds carries its limits.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..errors import LocatorError
from .space import Addr, LadderSpace, TOP


@dataclass(frozen=True)
class StrandProfile:
    """Orbit indices of one strand in a base orbit: the forward tail
    {j : j >= start}, or the whole strand when ``start`` is None."""

    start: int | None = None

    def contains(self, j: int) -> bool:
        return self.start is None or j >= self.start

    def label(self) -> str:
        return "all" if self.start is None else f"fwd-tail({self.start})"


@dataclass
class SymbolicSet:
    """Union of limit points and strand profiles."""

    space: LadderSpace
    pts: set[Addr] = field(default_factory=set)
    strands: dict[tuple, StrandProfile] = field(default_factory=dict)

    def copy(self) -> "SymbolicSet":
        return SymbolicSet(self.space, set(self.pts), dict(self.strands))

    def contains(self, addr: Addr) -> bool:
        if addr in self.pts:
            return True
        prof = self.strands.get(addr[:-1]) if addr[-1][0] == "z" else None
        return prof is not None and prof.contains(addr[-1][1])

    # -- rendering -----------------------------------------------------------

    def components(self) -> list[tuple[Addr, dict]]:
        """Rendered components, each with the point or strand path it names."""
        space = self.space
        comps = []
        for a in sorted(self.pts):
            comps.append((a, {"kind": "point", "at": space.render(a)}))
        for path, prof in sorted(self.strands.items()):
            rep = space.render(path + (("z", 0),))
            region = rep.rsplit(":", 1)[0]
            comps.append((path, {"kind": "strand", "region": region,
                                 "profile": prof.label()}))
        return comps

    def to_json(self) -> dict:
        return {"components": [comp for _, comp in self.components()]}


def backward_source(space: LadderSpace, addr: Addr) -> tuple | None:
    """The strand whose backward tail converges to a validated point, or
    None.

    Below a limit point's last nonzero family index (axis, m) the steps
    spell a base address, so the point is the top of the sibling
    (axis, m - 1), and that sibling is a strand exactly when the index is
    the last family step.  ``top`` is a backward limit only when the whole
    space is one strand.
    """
    if addr == TOP:
        return () if space.term.kind == "strand" else None
    if addr[-1][0] == "z" or len(addr) == 1 or not addr[-2][1]:
        return None
    axis, m = addr[-2]
    return addr[:-2] + ((axis, m - 1),)


def ladder_aorb0_addr(space: LadderSpace, addr: Addr) -> SymbolicSet:
    """Smallest closed invariant neighborhood of a concrete point, which
    the caller has validated."""
    out = SymbolicSet(space)
    if addr[-1][0] == "z":
        # an isolated orbit point: its forward tail and the tail's limit
        path = addr[:-1]
        out.strands[path] = StrandProfile(addr[-1][1])
        out.pts.add(path + (("A",),))
        return out
    # a limit point is fixed.  Its forward source is its own strand, whose
    # A is the point; a family source's top and a backward source's
    # backward limit are the point too, since it is the top of its source.
    # So only a backward source adds points: the whole strand, which is
    # the orbit of any backward tail, and the strand's A, its closure.
    out.pts.add(addr)
    path = backward_source(space, addr)
    if path is not None:
        out.strands[path] = StrandProfile()
        out.pts.add(path + (("A",),))
    return out


@dataclass(frozen=True)
class GenericOrbit:
    """Shift-verified result of a generic-index orbit query."""

    representative: int
    result: SymbolicSet
    rendered: dict

    def to_json(self) -> dict:
        return self.rendered


def ladder_aorb0(space: LadderSpace, locator: str):
    """Base-degree orbit for a locator; supports one generic index 'm'.

    Generic queries are evaluated at two concrete indices and checked to
    be index shifts of each other before reporting in terms of m.  Only
    the address position where the two instances differ shifts, and only
    under the locator's own prefix; when that position is an orbit index,
    the profile of the locator's own strand shifts with it.
    """
    text = locator.strip()
    if _has_generic(text):
        rep = 4
        la = space.parse_locator(_subst(text, rep))
        lb = space.parse_locator(_subst(text, rep + 1))
        pos = next(i for i, (x, y) in enumerate(zip(la, lb)) if x != y)
        a = ladder_aorb0_addr(space, la)
        b = ladder_aorb0_addr(space, lb)
        if _shift_key(a, la, pos) != _shift_key(b, lb, pos):
            raise LocatorError(
                f"result for {locator!r} is not uniform in the generic index"
            )
        return GenericOrbit(rep, a, _generic_json(a, la, pos))
    return ladder_aorb0_addr(space, space.parse_locator(text))


def _has_generic(text: str) -> bool:
    tail = text.rsplit(":", 1)[-1].rsplit("/", 1)[-1]
    return tail == "m"


def _subst(text: str, value: int) -> str:
    head, sep, _ = text.rpartition(":")
    return f"{head}{sep}{value}"


def _offset_token(m: int, rep: int) -> str:
    d = m - rep
    if d == 0:
        return "m"
    return f"m{d:+d}"


def _is_generic(a: Addr, loc: Addr, pos: int) -> bool:
    """True if a's step at pos is the locator's generic index: the same
    kind of step, under the same prefix."""
    return len(a) > pos and a[pos][0] == loc[pos][0] and a[:pos] == loc[:pos]


def _shift_key(s: SymbolicSet, loc: Addr, pos: int) -> tuple:
    """The set with the generic index written relative to the locator's."""
    v = loc[pos][1]

    def shift_addr(a: Addr) -> Addr:
        if not _is_generic(a, loc, pos):
            return a
        return a[:pos] + ((a[pos][0], a[pos][1] - v),) + a[pos + 1:]

    def shift_profile(path: tuple, prof: StrandProfile) -> StrandProfile:
        if path != loc[:pos] or loc[pos][0] != "z" or prof.start is None:
            return prof
        return StrandProfile(prof.start - v)

    return (
        tuple(sorted(shift_addr(a) for a in s.pts)),
        tuple(sorted((shift_addr(p), shift_profile(p, v))
                     for p, v in s.strands.items())),
    )


_NUMBER = re.compile(r"-?\d+")


def _generic_json(s: SymbolicSet, loc: Addr, pos: int) -> dict:
    """Render the set with the generic index spelled relative to the
    locator's own."""
    rep = loc[pos][1]

    def shift(match: re.Match) -> str:
        return _offset_token(int(match.group()), rep)

    def relabel(text: str) -> str:
        # a rendered name spells one number per address position, in order;
        # only a final ("A",) step spells none
        m = list(_NUMBER.finditer(text))[pos]
        return text[:m.start()] + shift(m) + text[m.end():]

    comps = []
    for at, comp in s.components():
        if comp["kind"] == "point":
            if _is_generic(at, loc, pos):
                comp["at"] = relabel(comp["at"])
        elif _is_generic(at, loc, pos):
            comp["region"] = relabel(comp["region"])
        elif at == loc[:pos] and loc[pos][0] == "z":
            # the locator's own strand, whose orbit indices are generic
            comp["profile"] = _NUMBER.sub(shift, comp["profile"])
        comps.append(comp)
    return {"components": comps, "generic_index": "m"}
