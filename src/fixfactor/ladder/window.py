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
built once per audited window, which proves three facts: each strand's
ids are its A and then z = -cut ... +cut in order, so validating the A
validates the strand; phi_w steps each to the next, and z = +cut onto
the A; and each has the A's closure witnesses, but z = -cut adds its own
top and z = +cut the A.  It recomputes base-degree orbits on the
truncation and compares them with the symbolic answers on non-frontier
points, where no slack is allowed; it shares no source rule with the
closed form.  By the three facts an orbit point's orbit is the suffix of
its strand from it to z = +cut plus limit points fixed per strand and
per whether the suffix starts at z = -cut, and a limit point's joins its
own closure with the orbits of its stub's orbit points.  So orbits and
claims are held in interval form, a few limit points and one suffix per
strand they meet, and a check lists the ids of a suffix only where it
finds them.  Partition claims are audited for disjoint cover, forward
invariance, monotone coarsening and agreement with the overlap-generated
equivalence of the recomputed orbits, where an orbit that holds a suffix
holds the strand's A.  One pass over the non-frontier points audits each
claim against its orbit and merges the orbit into that equivalence at
once.  An orbit point's claim is normally its strand's template, the A
and the forward tail from the point.  Off the frontier every orbit point
of a strand has the orbit closures[A] plus the suffix from it, and the A
is fixed, so a template claim's finds and its orbit's limit points are
the same at every point of the strand: the strand's first point whose
claim is the template is audited and merged in full, and each later one,
matched to the template by comparing address tuples, takes its finds
under its own name and joins its overlap block.  Every claim is still
computed point by point.  Only degree 0 of the trace is keyed point by
point: a strand node is merged at every degree, so a strand's points
share its key, and later degrees key each strand once.  Every check
names what it finds in id order.  The exported finite system puts each
limit point into the closure of every point of its minimal-neighborhood
stub, the same stubs the audit uses, and freezes the map at the frontier
so that it parses and validates; it is an audit artifact, not an input
for the finite stabilization pipeline, which would collapse any
truncation to degree 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

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


def _decode(sset: SymbolicSet, win: Window) -> tuple[set[int], dict[int, int]]:
    """A symbolic set's window points in interval form: the ids of its
    single points, and by strand, the id of its A, the first id of the
    suffix of the strand it holds, one past z = +cut when that is empty."""
    *_, spans = win.index
    ids, c = win.ids, win.strand_cut
    pts = {i for a in sset.pts if (i := ids.get(a)) is not None}
    tails = {}
    for path, prof in sset.strands.items():
        if (span := spans.get(path)) is not None:
            a, lo, _ = span
            tails[a] = lo if prof.start is None else lo + c + min(max(prof.start, -c), c + 1)
    return pts, tails


def _holds(heads: list[int], pts, tails: dict[int, int], y: int) -> bool:
    """Whether a set in interval form holds id y."""
    return y in pts or tails.get(heads[y], y + 1) <= y


def base_orbit(win: Window, x: int) -> tuple[frozenset, dict[int, int]]:
    """The base orbit of id x on the window in interval form, as ``_decode``
    gives it.  An orbit point's is its strand's suffix from it and the
    suffix's closure: closures[A], since the suffix's witnesses are the A's
    and the A itself, but for the top that z = -cut adds.  A limit point's
    joins its closure with the orbits of its stub's orbit points."""
    _, _, witnesses, stubs, closures, _ = win.index
    heads = win.heads
    if x not in stubs:
        a = heads[x]
        if x != a + 1:
            return closures[a], {a: x}
        return closures[a].union(*map(closures.__getitem__, witnesses[x])), {a: x}
    pts, tails = frozenset(), {}
    for y in stubs[x]:
        more, tail = (closures[y], {}) if y in stubs else base_orbit(win, y)
        pts = pts | more
        tails.update(tail)
    return pts, tails


ORBIT_CHECKS = (
    "does not contain its own point",
    "image of {} escapes the set",  # forward invariance with frontier slack
    "closure violation at {}",  # window closure may only add frontier points
    "minimal neighborhood point {} missing",
    "disagreement with window recomputation at {}",  # off the frontier
)


def check_orbit_set(win: Window, x: int, claimed: SymbolicSet, orbit: tuple,
                    report: WindowCheckReport) -> list[tuple[int, int]]:
    """Necessary-condition audit of the base-degree orbit claim of point x
    against its orbit recomputed on the window, both in interval form.  A
    suffix's images leave it only from z = +cut, on the frontier, and its
    closure is the limit part of its first id's orbit, so the checks read
    single and limit points, and ids of a suffix only where two differ.
    They name their finds in ``ORBIT_CHECKS`` order, each in id order, and
    return them as (check, id) pairs in that order."""
    phi, frontier, witnesses, stubs, closures, _ = win.index
    heads, end = win.heads, 2 * win.strand_cut + 1
    pts, tails = _decode(claimed, win)
    report.checks_run += 1
    found = set()  # (check, id)
    if not _holds(heads, pts, tails, x):
        found.add((0, x))
    for p in pts:
        if not frontier[p] and not _holds(heads, pts, tails, phi[p]):
            found.add((1, p))
    closure = [closures[w] for p in pts for w in witnesses[p]]
    for a, s in tails.items():
        if s <= a + end:
            closure.append(base_orbit(win, s)[0])
    for cl in closure:
        for y in cl:
            if y not in pts and not frontier[y]:
                found.add((2, y))
    for y in stubs.get(x, (x,)):
        if not frontier[y] and not _holds(heads, pts, tails, y):
            found.add((3, y))
    opts, otails = orbit
    if opts != pts or otails != tails:
        differ = set(opts ^ pts)
        for a in otails.keys() | tails.keys():
            s, t = otails.get(a, a + end + 1), tails.get(a, a + end + 1)
            differ.update(range(min(s, t), max(s, t)))
        found.update((4, y) for y in differ if not frontier[y]
                     and _holds(heads, pts, tails, y) != _holds(heads, opts, otails, y))
    finds = sorted(found)
    _report(win, x, finds, report)
    return finds


def _report(win: Window, x: int, finds: list[tuple[int, int]],
            report: WindowCheckReport) -> None:
    """Name the finds of the audit of point x's claim."""
    if finds:
        render, addrs = win.space.render, win.addrs
        name = render(addrs[x])
        for k, y in finds:
            report.violations.append(f"aorb0({name}): "
                                     f"{ORBIT_CHECKS[k].format(render(addrs[y]))}")


def _is_template(claimed: SymbolicSet, head: Addr, addr: Addr) -> bool:
    """Whether the claim of orbit point ``addr`` is its strand's template:
    the strand's A, at ``head``, and the forward tail from the point.  The
    addresses are compared as tuples, so nothing is hashed or looked up."""
    if len(claimed.pts) != 1 or len(claimed.strands) != 1:
        return False
    (p,), ((path, prof),) = claimed.pts, claimed.strands.items()
    return prof.start == addr[-1][1] and p == head and path == addr[:-1]


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
    """Audit the claim of every non-frontier point with ``check_orbit_set``
    against its ``base_orbit``, every degree of the trace with
    ``check_trace``, and degree 0 against the overlap equivalence.

    A strand's later orbit points reuse a verdict: where a point's claim is
    its strand's template, {A} and the forward tail from the point, and an
    earlier point of the strand had that claim, the point takes that
    point's finds and overlap block.  This rests on every non-frontier
    orbit point x of the strand with A at a having the orbit
    ``(closures[a], {a: x})`` and on the A being fixed (checked once per
    strand): the checks then find the same ids at every x."""
    report = WindowCheckReport(str(space.term), (win.family_cut, win.strand_cut), 0, [])
    # validated once here, per strand, since the orbits and key walk trust them
    for i in sorted(set(win.heads)):
        space.validate(win.addrs[i])
    # One pass over the non-frontier points: each orbit is audited and
    # unioned at once into the overlap equivalence, which keeps a root per
    # point and an owner per limit point, not the orbit: orbits that meet
    # on a strand's suffix both hold its A.
    phi, frontier, *_ = win.index
    nonfrontier = [i for i, edge in enumerate(frontier) if not edge]
    addrs, heads = win.addrs, win.heads
    parent = list(range(len(addrs)))
    owner = [-1] * len(addrs)

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    # the strand, by its A's id, of the last template claim audited in
    # full, that point and its finds: a strand's ids are consecutive, so a
    # later point of the strand finds it here
    lead = -1, -1, []
    for x in nonfrontier:
        addr = addrs[x]
        claimed = ladder_aorb0_addr(space, addr)
        a = heads[x]
        template = a != x and _is_template(claimed, addrs[a], addr)
        if template and lead[0] == a:
            # the template's finds do not depend on the point, and its
            # orbit's limit points are the first point's, merged already
            _, point, finds = lead
            report.checks_run += 1
            _report(win, x, finds, report)
            parent[x] = find(point)
            continue
        orbit = base_orbit(win, x)
        finds = check_orbit_set(win, x, claimed, orbit, report)
        if template and phi[a] == a:
            lead = a, x, finds
        root = x
        for e in orbit[0]:
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
        end, orbits = 2 * w.strand_cut + 1, {a: base_orbit(w, w.ids[a]) for a in shared}
        answers.append({a: shared_set.intersection(map(w.addrs.__getitem__, chain(
            pts, *(range(s, h + end + 1) for h, s in tails.items()))))
            for a, (pts, tails) in orbits.items()})
    return [f"aorb0({space.render(a)}) unstable across windows" for a in shared
            if any(ans[a] != answers[0][a] for ans in answers)]
