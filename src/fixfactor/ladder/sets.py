"""Symbolic subsets of a ladder space and the base-degree orbit computation.

A :class:`SymbolicSet` is a normalized union of two kinds of component:
single limit points, and per-strand index profiles (finite sets,
one-sided tails, or the full orbit).  Every component has decidable
membership for concrete addresses, and the closure and invariance
operators act componentwise through a finite rule table: a forward tail
adds its attracting endpoint under closure; a backward tail adds its
repelling endpoint under closure and blows up to the full strand under
invariance; a finite profile grows into a forward tail under invariance.

``ladder_aorb0`` computes the smallest closed invariant neighborhood of a
point exactly.  The neighborhood filter of a limit point consists of
tails with arbitrary cutoffs, so its intersection over all cutoffs keeps
only what every cutoff forces: each forward-tail source forces its limit
point, each backward-tail source forces the full strand (repulsion), and
each family-tail source forces the node top.  Those one-shot seeds are
then closed under the invariance and closure rules.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..errors import LocatorError
from .space import Addr, LadderSpace, TOP


@dataclass(frozen=True)
class StrandProfile:
    """Subset of one strand's orbit indices."""

    fin: tuple[int, ...] = ()
    fwd: int | None = None  # {j : j >= fwd}
    bwd: int | None = None  # {j : j <= bwd}
    full: bool = False

    def normalized(self) -> "StrandProfile":
        if self.full or (self.fwd is not None and self.bwd is not None
                         and self.fwd <= self.bwd + 1):
            return StrandProfile(full=True)
        fin = set(self.fin)
        if self.fwd is not None:
            fin = {j for j in fin if j < self.fwd}
        if self.bwd is not None:
            fin = {j for j in fin if j > self.bwd}
        fwd = self.fwd
        while fwd is not None and fwd - 1 in fin:
            fin.discard(fwd - 1)
            fwd -= 1
        bwd = self.bwd
        while bwd is not None and bwd + 1 in fin:
            fin.discard(bwd + 1)
            bwd += 1
        if fwd is not None and bwd is not None and fwd <= bwd + 1:
            return StrandProfile(full=True)
        return StrandProfile(tuple(sorted(fin)), fwd, bwd, False)

    def contains(self, j: int) -> bool:
        if self.full:
            return True
        if self.fwd is not None and j >= self.fwd:
            return True
        if self.bwd is not None and j <= self.bwd:
            return True
        return j in self.fin

    def union(self, other: "StrandProfile") -> "StrandProfile":
        fwd = None
        for v in (self.fwd, other.fwd):
            if v is not None:
                fwd = v if fwd is None else min(fwd, v)
        bwd = None
        for v in (self.bwd, other.bwd):
            if v is not None:
                bwd = v if bwd is None else max(bwd, v)
        return StrandProfile(
            tuple(sorted(set(self.fin) | set(other.fin))),
            fwd, bwd, self.full or other.full,
        ).normalized()

    def is_empty(self) -> bool:
        return not (self.full or self.fin or self.fwd is not None or self.bwd is not None)

    def label(self) -> str:
        if self.full:
            return "all"
        parts = []
        if self.bwd is not None:
            parts.append(f"bwd-tail({self.bwd})")
        if self.fwd is not None:
            parts.append(f"fwd-tail({self.fwd})")
        if self.fin:
            parts.append("{" + ",".join(map(str, self.fin)) + "}")
        return " u ".join(parts) if parts else "empty"


@dataclass
class SymbolicSet:
    """Normalized union of limit points and strand profiles.

    ``add_strand`` and ``invariance_step`` store only normalized profiles,
    so every reader takes a stored profile as it is.
    """

    space: LadderSpace
    pts: set[Addr] = field(default_factory=set)
    strands: dict[tuple, StrandProfile] = field(default_factory=dict)

    def copy(self) -> "SymbolicSet":
        return SymbolicSet(self.space, set(self.pts), dict(self.strands))

    # -- construction ----------------------------------------------------

    def add_point(self, addr: Addr):
        if addr[-1][0] == "z":
            self.add_strand(addr[:-1], StrandProfile(fin=(addr[-1][1],)))
        else:
            self.pts.add(addr)

    def add_strand(self, path: tuple, profile: StrandProfile):
        cur = self.strands.get(path, StrandProfile())
        self.strands[path] = cur.union(profile)

    # -- queries -----------------------------------------------------------

    def contains(self, addr: Addr) -> bool:
        if addr in self.pts:
            return True
        if addr[-1][0] == "z":
            prof = self.strands.get(addr[:-1])
            if prof is not None and prof.contains(addr[-1][1]):
                return True
        return False

    def key(self) -> tuple:
        return (
            tuple(sorted(self.pts)),
            tuple(sorted((p, v) for p, v in self.strands.items()
                         if not v.is_empty())),
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, SymbolicSet) and self.key() == other.key()

    # -- operators ---------------------------------------------------------

    def closure_step(self) -> bool:
        """Add all limit points forced by current components; True if grew."""
        space = self.space
        new: list[Addr] = []
        for path, prof in self.strands.items():
            fwd_t, bwd_t = space.strand_targets(path)
            if prof.full or prof.fwd is not None:
                new.append(fwd_t)
            if prof.full or prof.bwd is not None:
                new.append(bwd_t)
        grew = False
        for a in new:
            if not self.contains(a):
                self.add_point(a)
                grew = True
        return grew

    def invariance_step(self) -> bool:
        """Close under the forward dynamics; True if grew."""
        grew = False
        for path, prof in list(self.strands.items()):
            fwd = prof.fwd
            bwd = prof.bwd
            full = prof.full
            if prof.fin:
                lead = min(prof.fin)
                fwd = lead if fwd is None else min(fwd, lead)
            if bwd is not None:
                full = True
            nxt = StrandProfile((), fwd, None, full).normalized()
            if nxt != prof:
                self.strands[path] = nxt
                grew = True
        return grew

    def close_invariant(self) -> "SymbolicSet":
        while self.invariance_step() | self.closure_step():
            pass
        return self

    # -- rendering -----------------------------------------------------------

    def components(self) -> list[tuple[Addr, dict]]:
        """Rendered components, each with the point or strand path it names."""
        space = self.space
        comps = []
        for a in sorted(self.pts):
            comps.append((a, {"kind": "point", "at": space.render(a)}))
        for path, prof in sorted(self.strands.items()):
            if prof.is_empty():
                continue
            rep = space.render(path + (("z", 0),))
            region = rep.rsplit(":", 1)[0]
            comps.append((path, {"kind": "strand", "region": region,
                                 "profile": prof.label()}))
        return comps

    def to_json(self) -> dict:
        return {"components": [comp for _, comp in self.components()]}


def point_sources(space: LadderSpace, addr: Addr) -> list[tuple]:
    """Convergence sources of a point, as (kind, path) descriptors.

    kinds: ("fwd", strand path), ("bwd", strand path),
    ("family", node path).  Orbit points have no sources.
    """
    if addr == TOP:
        return _top_sources_at(space, ())
    if addr[-1][0] == "z":
        return []
    out: list[tuple] = [("fwd", addr[:-1])]
    for j in range(len(addr) - 2, -1, -1):
        axis, m = addr[j]
        if not space.is_canonical_base_suffix(addr, j + 1):
            break
        if m >= 1:
            out.extend(_top_sources_at(space, addr[:j] + ((axis, m - 1),)))
            break
    return out


def _top_sources_at(space: LadderSpace, path: tuple) -> list[tuple]:
    term = space.subterm(path)
    if term.kind == "strand":
        return [("bwd", path)]
    return [("family", path)]


def ladder_aorb0_addr(space: LadderSpace, addr: Addr) -> SymbolicSet:
    """Smallest closed invariant neighborhood of a concrete point."""
    space.validate(addr)
    out = SymbolicSet(space)
    out.add_point(addr)
    for kind, path in point_sources(space, addr):
        if kind == "fwd":
            # every cutoff's closure contains the forward limit, nothing else
            out.add_point(path + (("A",),))
        elif kind == "bwd":
            # invariance of any backward tail forces the whole strand
            out.add_strand(path, StrandProfile(full=True))
        else:
            # family tails force only the node's own top point
            out.add_point(space.subtree_top(path))
    return out.close_invariant()


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
        if path != loc[:pos] or loc[pos][0] != "z":
            return prof
        return StrandProfile(
            tuple(j - v for j in prof.fin),
            None if prof.fwd is None else prof.fwd - v,
            None if prof.bwd is None else prof.bwd - v,
            prof.full,
        )

    return (
        tuple(sorted(shift_addr(a) for a in s.pts)),
        tuple(sorted((shift_addr(p), shift_profile(p, v))
                     for p, v in s.strands.items() if not v.is_empty())),
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
