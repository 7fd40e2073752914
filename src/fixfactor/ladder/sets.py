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

A locator whose last index is the generic ``m`` is answered at two
concrete indices, and the answer is read off the two renderings: a number
that moves with the index by exactly one is generic and is written
relative to m, every other character must agree.
"""

from __future__ import annotations

import json
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

    def to_json(self) -> dict:
        """The points, then the strands, each in address order."""
        space = self.space
        comps = [{"kind": "point", "at": space.render(a)} for a in sorted(self.pts)]
        for path, prof in sorted(self.strands.items()):
            region = space.render(path + (("z", 0),)).rsplit(":", 1)[0]
            comps.append({"kind": "strand", "region": region, "profile": prof.label()})
        return {"components": comps}


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
    """The answer to a generic-index query, rendered relative to m."""

    rendered: dict

    def to_json(self) -> dict:
        return self.rendered


def ladder_aorb0(space: LadderSpace, locator: str):
    """Base-degree orbit for a locator; supports one generic index 'm'.

    A generic locator is answered at m = 4 and m = 5, and both answers are
    rendered.  They must be the same text except for numbers that are
    exactly one higher in the second; those are the generic ones, and the
    answer at 4 is reported with each of them written relative to m (3
    reads m-1).  Any other difference refuses the query.
    """
    text = locator.strip()
    if not _has_generic(text):
        return ladder_aorb0_addr(space, _parse(space, locator, text))
    a, b = (json.dumps(ladder_aorb0_addr(space, _parse(space, locator, _subst(text, m)))
                       .to_json()["components"]) for m in (4, 5))
    comps = _relative_to_m(a, b)
    if comps is None:
        raise LocatorError(
            f"result for {locator!r} is not uniform in the generic index"
        )
    return GenericOrbit({"components": comps, "generic_index": "m"})


_NUMBER = re.compile(r"(-?\d+)")


def _relative_to_m(a: str, b: str) -> list | None:
    """The components rendered in ``a``, the answer at m = 4, with each
    number that is one higher in ``b``, the answer at m = 5, written
    relative to m; None unless that is the only difference between them."""
    ta, tb = _NUMBER.split(a), _NUMBER.split(b)  # literal runs at even places
    if ta[::2] != tb[::2]:
        return None
    for i in range(1, len(ta), 2):
        x, step = int(ta[i]), int(tb[i]) - int(ta[i])
        if step == 1:
            ta[i] = f"m{x - 4:+d}" if x != 4 else "m"
        elif step:
            return None
    return json.loads("".join(ta))


def _parse(space: LadderSpace, locator: str, text: str) -> Addr:
    """The address ``text`` names, refused under the locator as typed:
    ``parse_locator`` names the text it parses, which for a generic locator
    is the substituted one, and below a family prefix only the rest."""
    try:
        return space.parse_locator(text)
    except LocatorError:
        raise LocatorError(
            f"locator {locator!r} does not name a point of {space.term}") from None


def _has_generic(text: str) -> bool:
    """Whether the last index, the text after the last colon, is m: the
    part that ``_subst`` replaces."""
    _, sep, tail = text.rpartition(":")
    return bool(sep) and tail == "m"


def _subst(text: str, value: int) -> str:
    head, sep, _ = text.rpartition(":")
    return f"{head}{sep}{value}"
