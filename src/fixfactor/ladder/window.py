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

The audit works on ids, the positions in ``addrs``, through an index
built once per audited window, which proves that each strand's ids are
its A and then z = -cut ... +cut in order, so validating the A validates
the strand.  It recomputes base-degree orbits on the truncation and
compares them with the symbolic answers on non-frontier points, where no
slack is allowed; it shares no source rule with the closed form.
Closure and orbit map unions to unions, so the orbit of x is the union
over its minimal-neighborhood stub of F[y] = cl_w({y}) | F[phi_w(y)],
phi_w jumping from the frontier onto the forward limit.  One walk down
each strand from z = +cut fills F.  At a limit point L, F is cl_w({L}),
which the index keeps; at a strand end F outlives the walk only when a
stub names it, elsewhere only while its strand is audited.  Partition
claims are audited for disjoint cover, forward invariance, monotone
coarsening and agreement with the overlap-generated equivalence of the
recomputed orbits.  One pass over the non-frontier points audits each
claim against its orbit and merges the orbit into that equivalence at
once.  Only degree 0 of the trace is keyed point by point: a strand node
is merged at every degree, so a strand's points share its key, and later
degrees key each strand once.  Every check names what it finds in id
order.  The exported finite system puts each limit point into the
closure of every point of its minimal-neighborhood stub, the same stubs
the audit uses, and freezes the map at the frontier so that it parses
and validates; it is an audit artifact, not an input for the finite
stabilization pipeline, which would collapse any truncation to degree 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..errors import CoverError, InternalError, SizeLimitError
from ..ordinals import ZERO
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
    def names(self) -> tuple[str, ...]:
        """The rendered name of each point, in ``addrs`` order."""
        return tuple(map(self.space.render, self.addrs))

    @cached_property
    def ids(self) -> dict[Addr, int]:
        """The id of each point, its position in ``addrs``."""
        return {a: i for i, a in enumerate(self.addrs)}

    @cached_property
    def index(self) -> tuple:
        """The audit's view on ids: phi_w, the frontier flags, each id's
        closure witnesses, each limit point's stub (itself included, in id
        order) and cl_w({L}), and each strand path's ids of A, z = -cut and
        z = +cut, which must be consecutive."""
        addrs, c, ids = self.addrs, self.strand_cut, self.ids
        phi = [ids.get(img, -1) for img in map(self.space.phi, addrs)]
        frontier = bytearray(a in self.frontier for a in addrs)
        witnesses = [()] * len(addrs)
        spans = {}
        for path, (held, top) in self.strands.items():
            a = ids[path + (("A",),)]
            lo, hi = a + 1, a + 2 * c + 1
            # z = -cut at lo and each image at the next id put z = j at lo + cut + j
            if addrs[lo] != path + (("z", -c),) or phi[lo:hi + 1] != [*range(lo + 1, hi + 1), -1]:
                raise InternalError(f"strand {path} of {self.space.term} has no consecutive ids")
            spans[path] = a, lo, hi
            phi[hi] = a  # z = +cut leaves the window: the jump onto the forward limit
            held = tuple(map(ids.__getitem__, held))
            witnesses[a:hi + 1] = [held] * (2 * c + 2)
            witnesses[hi] = held + (a,)
            if top is not None:
                witnesses[lo] = held + (ids[top],)
        stubs = {ids[a]: tuple(sorted({ids[a], *map(ids.__getitem__, stub)}))
                 for a, stub in self.stubs.items()}
        # the limit points are the stubs' keys; a limit point's witnesses are
        # tops of families around it, which follow it in address order
        closures = {}
        for i in sorted(stubs, reverse=True):
            closures[i] = frozenset((i,)).union(*map(closures.__getitem__, witnesses[i]))
        return phi, frontier, witnesses, stubs, closures, spans

    @cached_property
    def heads(self) -> list[int]:
        """Each id's strand, by the id of its A; an id off the strands is its own."""
        heads = list(range(len(self.addrs)))
        for a, _, hi in self.index[-1].values():
            heads[a:hi + 1] = [a] * (hi + 1 - a)
        return heads

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


def _decode(sset: SymbolicSet, win: Window) -> set[int]:
    """The ids of the window points in a symbolic set."""
    *_, spans = win.index
    ids, c = win.ids, win.strand_cut
    out = {i for a in sset.pts if (i := ids.get(a)) is not None}
    for path, prof in sset.strands.items():
        if (span := spans.get(path)) is not None:
            _, lo, hi = span
            out.update(range(lo if prof.start is None else lo + c + max(prof.start, -c),
                             hi + 1))
    return out


def base_orbits(win: Window, wanted: set[int]):
    """Yield the base orbit on the window, as a set of ids, of each wanted
    point in id order, walking F down only the strands that hold a wanted
    point or a point a wanted stub names."""
    phi, _, witnesses, stubs, closures, spans = win.index
    top = win.ids[TOP]
    named = {y for x in wanted for y in stubs.get(x, ())}
    # the strands to walk, by their A's id; a strand point's address is its path and a step
    heads = {spans[win.addrs[y][:-1]][0] for y in wanted | named if y != top}
    kept = {}

    def union_over(stub, near):
        return frozenset().union(*(near.get(y) or kept.get(y) or closures[y]
                                   for y in stub))

    for a, lo, hi in spans.values():
        if a not in heads:
            continue
        near = {a: closures[a]}
        for y in range(hi, lo - 1, -1):
            near[y] = near[phi[y]].union((y,), *map(closures.__getitem__, witnesses[y]))
        for x in range(a, hi + 1):
            if x in wanted:
                yield x, union_over(stubs[x], near) if x == a else near[x]
        kept.update((y, near[y]) for y in (lo, hi) if y in named)
    if top in wanted:
        yield top, union_over(stubs[top], {})


def check_orbit_set(win: Window, x: int, claimed: SymbolicSet, orbit: frozenset,
                    report: WindowCheckReport) -> None:
    """Necessary-condition audit of the base-degree orbit claim of point x
    against its orbit recomputed on the window, both as ids; each check
    names the points it finds in id order."""
    phi, frontier, witnesses, stubs, closures, _ = win.index
    render, addrs = win.space.render, win.addrs
    decoded = _decode(claimed, win)
    report.checks_run += 1
    closure = frozenset().union(*(closures[w] for a in decoded for w in witnesses[a]))
    for what, found in (
        ("does not contain its own point", () if x in decoded else (x,)),
        # forward invariance with frontier slack
        ("image of {} escapes the set",
         [a for a in decoded if phi[a] not in decoded and not frontier[a]]),
        # closedness: window closure may only add frontier points
        ("closure violation at {}", [a for a in closure - decoded if not frontier[a]]),
        # neighborhood property
        ("minimal neighborhood point {} missing",
         [a for a in stubs.get(x, (x,)) if a not in decoded and not frontier[a]]),
        # pointwise agreement with the direct recomputation off the frontier
        ("disagreement with window recomputation at {}",
         [a for a in orbit ^ decoded if not frontier[a]]),
    ):
        for a in sorted(found):
            report.violations.append(f"aorb0({render(addrs[x])}): "
                                     f"{what.format(render(addrs[a]))}")


def check_trace(win: Window, trace: LadderTrace,
                report: WindowCheckReport) -> dict[int, int]:
    """Audit every degree of the trace on the window: classes are invariant
    and never split an earlier merge off the frontier.  A strand node is
    merged at every degree, so ``key_of`` stops before the last step and a
    strand's points share its key: degree 0 is keyed point by point, and
    each later degree once per strand, where invariance cannot fail and the
    merge check names a strand by its first non-frontier point.  Returns,
    by id, a number for the degree-0 class of every non-frontier point and
    in-window image of one; the key walk trusts what ``window_check`` validates."""
    space = win.space
    if not trace.entries or trace.entries[0][0] != ZERO:
        raise InternalError(f"the trace of {space.term} does not start at degree 0")
    phi, frontier, *_ = win.index
    addrs, heads = win.addrs, win.heads
    nonfrontier = [i for i, edge in enumerate(frontier) if not edge]
    # the image does not depend on the degree, and a fixed point cannot
    # leave its class
    moves = [(i, img) for i in nonfrontier if (img := phi[i]) != i]
    degree, part = trace.entries[0]
    report.checks_run += len(trace.entries)
    # each key is hashed once, into the number of its class; the checks
    # read the keys of these points only
    numbers = {}
    base = {i: numbers.setdefault(part.key_of(addrs[i]), len(numbers))
            for i in sorted({*nonfrontier, *(img for _, img in moves)})}
    # disjoint cover is automatic for a key function; check invariance
    for i, img in moves:
        if base[i] != base[img]:
            report.violations.append(f"degree {degree}: class of "
                                     f"{space.render(addrs[i])} is not invariant")
    # each strand, by its A's id, and its first non-frontier point
    first = {}
    for i in nonfrontier:
        first.setdefault(heads[i], addrs[i])
    # the merge check's units (earlier class, strand, name): points, then strands
    prev, units = base, [(i, heads[i], addrs[i]) for i in nonfrontier]
    for (prev_degree, _), (degree, part) in zip(trace.entries, trace.entries[1:]):
        cls = {h: part.key_of(a) for h, a in first.items()}
        merged_to = {}
        for p, h, a in units:
            if merged_to.setdefault(prev[p], cls[h]) != cls[h]:
                report.violations.append(f"degrees {prev_degree}->{degree}: class of "
                                         f"{space.render(a)} splits a previously merged class")
                break
        prev, units = cls, [(h, h, a) for h, a in first.items()]
    return base


def window_check(space: LadderSpace, win: Window,
                 trace: LadderTrace) -> WindowCheckReport:
    report = WindowCheckReport(str(space.term), (win.family_cut, win.strand_cut), 0, [])
    # validated once here, per strand, since the orbits and key walk trust them
    for i in sorted(set(win.heads)):
        space.validate(win.addrs[i])
    # One pass over the non-frontier points: each orbit is audited and
    # unioned at once into the overlap equivalence, which keeps a root per
    # point and an owner per covered point, not the orbit.
    _, frontier, *_ = win.index
    nonfrontier = [i for i, edge in enumerate(frontier) if not edge]
    addrs = win.addrs
    parent = list(range(len(addrs)))
    owner = [-1] * len(addrs)

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for x, orbit in base_orbits(win, set(nonfrontier)):
        check_orbit_set(win, x, ladder_aorb0_addr(space, addrs[x]), orbit, report)
        root = x
        for e in orbit:
            first = owner[e]
            if first < 0:
                owner[e] = x
            elif (other := find(first)) != root:
                parent[root] = root = other
    del owner
    base = check_trace(win, trace, report)
    # degree 0 must agree with the overlap-generated equivalence off the
    # frontier: two labelings have the same blocks exactly when pairing
    # them is one-to-one
    report.checks_run += 1
    pairs = {(find(x), base[x]) for x in nonfrontier}
    if not len(pairs) == len({r for r, _ in pairs}) == len({k for _, k in pairs}):
        report.violations.append("degree 0: window overlap equivalence disagrees "
                                 "with the symbolic base partition")
    return report


def window_answers_stable(space: LadderSpace, wins: list[Window]) -> list[str]:
    """Cross-window stability: answers restricted to the points every
    window sees cleanly must be identical across windows."""
    smallest = min(wins, key=lambda w: (w.family_cut, w.strand_cut))
    shared = [a for a in smallest.addrs
              if all(a in w.ids and a not in w.frontier for w in wins)]
    shared_set = set(shared)
    answers = []
    for w in wins:
        # the orbits go back to addresses only at the shared points
        answers.append({w.addrs[x]: shared_set.intersection(map(w.addrs.__getitem__, orbit))
                        for x, orbit in base_orbits(w, {w.ids[a] for a in shared})})
    return [f"aorb0({space.render(a)}) unstable across windows" for a in shared
            if any(ans[a] != answers[0][a] for ans in answers)]
