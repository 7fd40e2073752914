"""Finite truncations of ladder spaces and the audit they support.

A window materializes every point whose family indices along its address
sum to at most the family cut and whose orbit index lies within the
strand cut, plus the top point.  Frontier points are those whose
neighborhood or image data is truncated: the extreme orbit points of
every strand and the entire last materialized member of every family.
One walk over the family tree expands the strands in address order and
records the window's topology as it goes: each limit point's
minimal-neighborhood stub, and each strand's closure witnesses, the
materialized tops of the families whose last member holds it (a strand
is on the frontier exactly when it has one) and its own top.  The
window's size follows from the number of strands, so an oversized window
is refused before the strand that crosses the cap is expanded.

The audit recomputes base-degree orbits on the window by walking the
truncation directly (minimal-neighborhood stubs at the frontier, the
orbit with a frontier jump onto forward limits, closure driven by the
recorded witnesses) and compares against the symbolic answers on
non-frontier points, where no slack is allowed; it shares no source rule
with the closed form.  Partition claims are audited for disjoint cover,
forward invariance, monotone coarsening and agreement with the
overlap-generated equivalence of the recomputed orbits.  One pass over
the non-frontier points recomputes each orbit once, audits the claim
against it and merges it into that equivalence at once; each point's
image is computed once for all degrees.  The exported finite system puts
each limit point into the closure of every point of its
minimal-neighborhood stub, the same stubs the audit uses, and freezes the
map at the frontier so that it parses and validates; it is an audit
artifact, not an input for the finite stabilization pipeline, which would
collapse any truncation to degree 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..errors import CoverError, InternalError, SizeLimitError
from ..ordinals import ZERO, OrdinalCNF
from .space import Addr, LadderSpace, TOP, base_addr, child_term
from .sets import SymbolicSet, ladder_aorb0_addr
from .terms import LadderTerm
from .trace import LadderTrace


@dataclass
class Window:
    space: LadderSpace
    family_cut: int
    strand_cut: int
    addrs: tuple[Addr, ...]
    frontier: frozenset[Addr]
    # limit point -> its stub beyond itself: one frontier point per source
    stubs: dict[Addr, tuple[Addr, ...]]
    # strand path -> (materialized tops of the families in whose last
    # member it lies, its own top or None), in address order
    strands: dict[tuple, tuple[tuple[Addr, ...], Addr | None]]

    @cached_property
    def addr_set(self) -> frozenset:
        return frozenset(self.addrs)

    @cached_property
    def nonfrontier(self) -> frozenset:
        """The points whose neighborhood and image data are complete."""
        return self.addr_set - self.frontier

    @cached_property
    def names(self) -> tuple[str, ...]:
        """The rendered name of each point, in ``addrs`` order."""
        return tuple(map(self.space.render, self.addrs))

    # -- direct recomputation on the truncation -------------------------

    def phi_w(self, addr: Addr) -> Addr:
        """True dynamics with a frontier jump onto the forward limit."""
        if addr[-1][0] != "z":
            return addr
        nxt = self.space.phi(addr)
        if nxt in self.addr_set:
            return nxt
        return addr[:-1] + (("A",),)

    def orbit_w(self, seed: set[Addr]) -> set[Addr]:
        out = set(seed)
        frontier = list(seed)
        while frontier:
            nxt = self.phi_w(frontier.pop())
            if nxt not in out:
                out.add(nxt)
                frontier.append(nxt)
        return out

    def closure_w(self, s: set[Addr]) -> set[Addr]:
        """Add limit points witnessed by frontier membership."""
        out = set(s)
        work = list(s)
        strands = self.strands
        hi, lo = ("z", self.strand_cut), ("z", -self.strand_cut)
        while work:
            a = work.pop()
            if a == TOP:
                continue
            p, last = a[:-1], a[-1]
            cands, top = strands[p]
            if last == hi:
                cands += (p + (("A",),),)
            elif last == lo and top is not None:
                cands += (top,)
            for c in cands:
                if c not in out:
                    out.add(c)
                    work.append(c)
        return out

    def min_nbhd_w(self, addr: Addr) -> set[Addr]:
        """Minimal-neighborhood stub: the point plus one frontier point
        per convergence source."""
        return {addr, *self.stubs.get(addr, ())}

    def aorb0_w(self, addr: Addr) -> set[Addr]:
        return self.closure_w(self.orbit_w(self.min_nbhd_w(addr)))

    # -- export as a finite system --------------------------------------

    def to_finite_system(self):
        from ..topology import build_system

        names = self.names
        by_addr = dict(zip(self.addrs, names))
        # each limit point specializes to its minimal-neighborhood stub;
        # an orbit point's stub is the point alone
        pairs = [(by_addr[a], by_addr[b]) for a, stub in self.stubs.items()
                 for b in stub]
        mapping = {}
        for a in self.addrs:
            if a[-1][0] == "z" and abs(a[-1][1]) < self.strand_cut:
                nxt = self.space.phi(a)
                mapping[by_addr[a]] = by_addr.get(nxt, by_addr[a])
            else:
                # frontier orbit points freeze so the export stays monotone
                mapping[by_addr[a]] = by_addr[a]
        return build_system(names, pairs, mapping)

    def to_json(self) -> dict:
        return {
            "term": str(self.space.term),
            "family_cut": self.family_cut,
            "strand_cut": self.strand_cut,
            "points": list(self.names),
            "frontier": sorted(name for a, name in zip(self.addrs, self.names)
                               if a in self.frontier),
        }


# Largest window, top point included, that ``window`` materializes.
WINDOW_POINT_CAP = 50_000


def window(space: LadderSpace, family_cut: int, strand_cut: int) -> Window:
    """Materialize the finite corner of the space within the cuts.

    The family cut bounds the sum of family indices along an address, so
    nested terms stay polynomial in size; on a single-axis space it is
    simply the largest materialized index.  Windows of more than
    ``WINDOW_POINT_CAP`` points are refused as soon as the walk counts
    that many, before the strand that crosses the cap is expanded.
    """
    if family_cut < 1 or strand_cut < 1:
        raise CoverError("window cuts must be at least 1")
    addrs: list[Addr] = []
    frontier: set[Addr] = set()
    stubs: dict[Addr, tuple[Addr, ...]] = {}
    strands: dict[tuple, tuple] = {}

    def walk(term: LadderTerm, path: tuple, budget: int, base: Addr,
             top: Addr | None, held: tuple, below: Addr | None) -> Addr:
        """Expand the node at path, given its base, its top when
        materialized, the materialized tops of the families whose last
        member holds it, and the stub point its base inherits from the
        sibling below it; return the stub point of its own top."""
        if term.kind == "strand":
            if (len(strands) + 1) * (2 * strand_cut + 2) + 1 > WINDOW_POINT_CAP:
                raise SizeLimitError(
                    f"window of {space.term} at cuts ({family_cut},{strand_cut}) "
                    f"has more than {WINDOW_POINT_CAP} points"
                )
            strands[path] = (held, top)
            points = [base]
            points += [path + (("z", j),) for j in range(-strand_cut, strand_cut + 1)]
            stubs[base] = (points[-1],) if below is None else (points[-1], below)
            addrs.extend(points)
            frontier.update(points if held else (points[1], points[-1]))
            return points[1]
        axis = "copy" if term.kind == "cat" else "block"
        for m in range(budget):
            # member m's top is member m + 1's base
            nxt = path + ((axis, m + 1),) + base_addr(child_term(term, (axis, m + 1)))
            below = walk(child_term(term, (axis, m)), path + ((axis, m),), budget - m,
                         base, nxt, held, below)
            base = nxt
        walk(child_term(term, (axis, budget)), path + ((axis, budget),), 0, base, None,
             held if top is None else held + (top,), below)
        return base

    stubs[TOP] = (walk(space.term, (), family_cut, base_addr(space.term), TOP, (), None),)
    # the walk refers to itself through its closure: unbinding it frees the
    # lists it filled at once, not at the next garbage collection
    del walk
    addrs.append(TOP)
    return Window(space, family_cut, strand_cut, tuple(addrs), frozenset(frontier),
                  stubs, strands)


@dataclass
class WindowCheckReport:
    term: str
    window: tuple[int, int]
    checks_run: int
    violations: list[str]

    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "term": self.term,
            "window": {"family_cut": self.window[0], "strand_cut": self.window[1]},
            "checks_run": self.checks_run,
            "violations": self.violations,
        }


def _decode(sset: SymbolicSet, win: Window) -> set[Addr]:
    out: set[Addr] = set()
    for a in sset.pts:
        if a in win.addr_set:
            out.add(a)
    j_cut = win.strand_cut
    for path, prof in sset.strands.items():
        for j in range(-j_cut, j_cut + 1):
            if prof.contains(j):
                a = path + (("z", j),)
                if a in win.addr_set:
                    out.add(a)
    return out


def check_orbit_set(win: Window, addr: Addr, claimed: SymbolicSet,
                    report: WindowCheckReport) -> set[Addr]:
    """Necessary-condition audit of one base-degree orbit claim; returns
    the orbit recomputed on the window."""
    space = win.space

    def violation(what: str) -> None:
        # the point is named only when there is something to report
        report.violations.append(f"aorb0({space.render(addr)}): {what}")

    decoded = _decode(claimed, win)
    report.checks_run += 1
    if addr not in decoded:
        violation("does not contain its own point")
    # forward invariance with frontier slack
    for a in decoded:
        img = space.phi(a)
        if img in win.addr_set and img not in decoded and a not in win.frontier:
            violation(f"image of {space.render(a)} escapes the set")
    # closedness: window closure may only add frontier points
    extra = win.closure_w(decoded) - decoded
    for a in extra:
        if a not in win.frontier:
            violation(f"closure violation at {space.render(a)}")
    # neighborhood property
    stub = win.min_nbhd_w(addr)
    for a in stub:
        if a not in decoded and a not in win.frontier:
            violation(f"minimal neighborhood point {space.render(a)} missing")
    # pointwise agreement with the direct recomputation off the frontier
    recomputed = win.closure_w(win.orbit_w(stub))
    for a in (recomputed ^ decoded) & win.nonfrontier:
        violation(f"disagreement with window recomputation at {space.render(a)}")
    return recomputed


def check_trace(win: Window, trace: LadderTrace,
                report: WindowCheckReport) -> dict[Addr, tuple]:
    """Audit every degree of the trace on the window: classes are invariant
    and never split an earlier merge off the frontier.  Returns the class
    key at degree 0, the trace's first entry, of every non-frontier point
    and of every in-window image of one.  The key walk trusts the window's
    addresses, which ``window_check`` validates."""
    space = win.space
    if not trace.entries or trace.entries[0][0] != ZERO:
        raise InternalError(f"the trace of {space.term} does not start at degree 0")
    nonfrontier = [a for a in win.addrs if a not in win.frontier]
    # the image does not depend on the degree, and a fixed point cannot
    # leave its class
    moves = [(a, img) for a in nonfrontier
             if (img := space.phi(a)) != a and img in win.addr_set]
    # the checks read the keys of these points only
    keyed = {*nonfrontier, *(img for _, img in moves)}
    base_keys: dict[Addr, tuple] = {}
    prev_keys: dict[Addr, tuple] | None = None
    prev_degree: OrdinalCNF | None = None
    for degree, part in trace.entries:
        report.checks_run += 1
        keys = {a: part.key_of(a) for a in keyed}
        # disjoint cover is automatic for a key function; check invariance
        for a, img in moves:
            if keys[a] != keys[img]:
                report.violations.append(
                    f"degree {degree}: class of {space.render(a)} is not invariant"
                )
        if prev_keys is None:
            base_keys = keys
        else:
            merged_to: dict[tuple, tuple] = {}
            for a in nonfrontier:
                g = prev_keys[a]
                if g in merged_to and merged_to[g] != keys[a]:
                    report.violations.append(
                        f"degrees {prev_degree}->{degree}: class of "
                        f"{space.render(a)} splits a previously merged class"
                    )
                    break
                merged_to[g] = keys[a]
        prev_keys, prev_degree = keys, degree
    return base_keys


def window_check(space: LadderSpace, win: Window,
                 trace: LadderTrace) -> WindowCheckReport:
    report = WindowCheckReport(str(space.term), (win.family_cut, win.strand_cut),
                               0, [])
    # validated once here, since the orbits and the key walk trust their
    # addresses
    for a in win.addrs:
        space.validate(a)
    # One pass over the non-frontier points: each orbit is recomputed by
    # its audit and unioned at once into the overlap equivalence, which
    # keeps a root per point and an owner per covered point, not the orbit.
    parent: dict[Addr, Addr] = {}
    owner: dict[Addr, Addr] = {}

    def find(a: Addr) -> Addr:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for addr in win.addrs:
        if addr in win.frontier:
            continue
        parent[addr] = root = addr
        orbit = check_orbit_set(win, addr, ladder_aorb0_addr(space, addr), report)
        for x in orbit:
            first = owner.setdefault(x, addr)
            if first != addr:
                other = find(first)
                if other != root:
                    parent[root] = other
                    root = other
    del owner
    base_keys = check_trace(win, trace, report)
    # degree 0 must agree with the overlap-generated equivalence off the
    # frontier: two labelings have the same blocks exactly when pairing
    # them is one-to-one
    report.checks_run += 1
    pairs = {(find(a), base_keys[a]) for a in parent}
    if not len(pairs) == len({r for r, _ in pairs}) == len({k for _, k in pairs}):
        report.violations.append(
            "degree 0: window overlap equivalence disagrees with the "
            "symbolic base partition"
        )
    return report


def window_answers_stable(space: LadderSpace, wins: list[Window]) -> list[str]:
    """Cross-window stability: answers restricted to the points every
    window sees cleanly must be identical across windows."""
    problems = []
    smallest = min(wins, key=lambda w: (w.family_cut, w.strand_cut))
    shared = [a for a in smallest.addrs if all(
        a in w.addr_set and a not in w.frontier for w in wins
    )]
    shared_set = set(shared)
    for a in shared:
        recomputed = [frozenset(w.aorb0_w(a) & shared_set) for w in wins]
        if len(set(recomputed)) != 1:
            problems.append(f"aorb0({space.render(a)}) unstable across windows")
    return problems
