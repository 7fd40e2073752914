"""Finite truncations of ladder spaces and the audit they support.

A window materializes every point whose family indices along its address
sum to at most the family cut and whose orbit index lies within the
strand cut, plus the top point.  Frontier points are those whose
neighborhood or image data is truncated: the extreme orbit points of
every strand and the entire last materialized member of every family.

The audit recomputes base-degree orbits on the window by walking the
truncation directly (minimal-neighborhood stubs at the frontier, the
orbit with a frontier jump onto forward limits, closure driven by the
true convergence tables) and compares against the symbolic answers on
non-frontier points, where no slack is allowed.  Partition claims are
audited for disjoint cover, forward invariance, monotone coarsening and
agreement with the overlap-generated equivalence of the recomputed
orbits.  The exported finite system uses a conservative encoding (limit
edges only at frontier points, the map frozen there) so that it parses
and validates; it is an audit artifact, not an input for the finite
stabilization pipeline, which would collapse any truncation to degree 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from ..errors import CoverError, SizeLimitError
from ..ordinals import OrdinalCNF
from .space import Addr, LadderSpace, TOP, base_addr, child_term
from .sets import SymbolicSet, ladder_aorb0_addr, point_sources
from .terms import LadderTerm
from .trace import LadderTrace


def _addr_sort_key(addr: Addr) -> tuple:
    out = []
    for step in addr:
        if step[0] in ("copy", "block"):
            out.append((0, step[1]))
        elif step[0] == "A":
            out.append((1, 0))
        elif step[0] == "z":
            out.append((2, step[1]))
        else:
            out.append((3, 0))
    return tuple(out)


@dataclass
class Window:
    space: LadderSpace
    family_cut: int
    strand_cut: int
    addrs: tuple[Addr, ...]
    frontier: frozenset[Addr]
    strand_paths: tuple[tuple, ...]
    family_nodes: dict[tuple, int] = field(default_factory=dict)  # path -> max index

    @cached_property
    def addr_set(self) -> frozenset:
        return frozenset(self.addrs)

    @cached_property
    def nonfrontier(self) -> frozenset:
        """The points whose neighborhood and image data are complete."""
        return self.addr_set - self.frontier

    def names(self) -> list[str]:
        return [self.space.render(a) for a in self.addrs]

    def is_frontier(self, addr: Addr) -> bool:
        return addr in self.frontier

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
        while work:
            a = work.pop()
            if a == TOP:
                continue
            cands: list[Addr] = []
            if a[-1][0] == "z":
                p = a[:-1]
                fwd_t, bwd_t = self.space.strand_targets(p)
                if a[-1][1] == self.strand_cut:
                    cands.append(fwd_t)
                if a[-1][1] == -self.strand_cut:
                    cands.append(bwd_t)
            for i, step in enumerate(a):
                if step[0] in ("copy", "block") and \
                        self.family_nodes.get(a[:i]) == step[1]:
                    cands.append(self.space.subtree_top(a[:i]))
            for c in cands:
                if c in self.addr_set and c not in out:
                    out.add(c)
                    work.append(c)
        return out

    def min_nbhd_w(self, addr: Addr) -> set[Addr]:
        """Minimal-neighborhood stub: the point plus one frontier point
        per convergence source."""
        out = {addr}
        for kind, path in point_sources(self.space, addr):
            if kind == "fwd":
                cand = path + (("z", self.strand_cut),)
                if cand in self.addr_set:
                    out.add(cand)
            elif kind == "bwd":
                cand = path + (("z", -self.strand_cut),)
                if cand in self.addr_set:
                    out.add(cand)
            else:
                maxm = self.family_nodes.get(path)
                if maxm is not None:
                    axis = "block" if self.space.subterm(path).kind == "ramp" else "copy"
                    out.add(path + ((axis, maxm),) + base_addr(
                        child_term(self.space.subterm(path), (axis, maxm))))
        return out

    def aorb0_w(self, addr: Addr) -> set[Addr]:
        return self.closure_w(self.orbit_w(self.min_nbhd_w(addr)))

    # -- export as a finite system --------------------------------------

    def to_finite_system(self):
        from ..topology import build_system

        names = self.names()
        by_addr = dict(zip(self.addrs, names))
        pairs = []
        for p in self.strand_paths:
            fwd_t, bwd_t = self.space.strand_targets(p)
            hi = p + (("z", self.strand_cut),)
            lo = p + (("z", -self.strand_cut),)
            if fwd_t in by_addr and hi in by_addr:
                pairs.append((by_addr[fwd_t], by_addr[hi]))
            if bwd_t in by_addr and lo in by_addr:
                pairs.append((by_addr[bwd_t], by_addr[lo]))
        for path, maxm in self.family_nodes.items():
            top = self.space.subtree_top(path)
            if top not in by_addr:
                continue
            axis = "block" if self.space.subterm(path).kind == "ramp" else "copy"
            last_base = path + ((axis, maxm),) + base_addr(
                child_term(self.space.subterm(path), (axis, maxm)))
            pairs.append((by_addr[top], by_addr[last_base]))
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
            "points": self.names(),
            "frontier": sorted(self.space.render(a) for a in self.frontier),
        }


# Largest window, top point included, that ``window`` materializes.
WINDOW_POINT_CAP = 50_000


def _enumerate(term: LadderTerm, budget: int, j_cut: int):
    """Addresses of the half-open space within the index budget."""
    if term.kind == "strand":
        yield (("A",),)
        for j in range(-j_cut, j_cut + 1):
            yield (("z", j),)
        return
    axis = "copy" if term.kind == "cat" else "block"
    for m in range(budget + 1):
        child = child_term(term, (axis, m))
        for sub in _enumerate(child, budget - m, j_cut):
            yield ((axis, m),) + sub


def _collect_nodes(term: LadderTerm, path: tuple, budget: int,
                   families: dict, strands: list):
    if term.kind == "strand":
        strands.append(path)
        return
    axis = "copy" if term.kind == "cat" else "block"
    families[path] = budget
    for m in range(budget + 1):
        _collect_nodes(child_term(term, (axis, m)), path + ((axis, m),),
                       budget - m, families, strands)


def _count_points(term: LadderTerm, budget: int, j_cut: int, limit: int) -> int:
    """Number of addresses ``_enumerate`` yields, or a number above
    ``limit`` as soon as the running total passes it."""
    if term.kind == "strand":
        return 2 * j_cut + 2
    axis = "copy" if term.kind == "cat" else "block"
    total = 0
    for m in range(budget + 1):
        total += _count_points(child_term(term, (axis, m)), budget - m, j_cut,
                               limit - total)
        if total > limit:
            break
    return total


def window(space: LadderSpace, family_cut: int, strand_cut: int) -> Window:
    """Materialize the finite corner of the space within the cuts.

    The family cut bounds the sum of family indices along an address, so
    nested terms stay polynomial in size; on a single-axis space it is
    simply the largest materialized index.  Windows of more than
    ``WINDOW_POINT_CAP`` points are refused before anything is built.
    """
    if family_cut < 1 or strand_cut < 1:
        raise CoverError("window cuts must be at least 1")
    if 1 + _count_points(space.term, family_cut, strand_cut,
                         WINDOW_POINT_CAP) > WINDOW_POINT_CAP:
        raise SizeLimitError(
            f"window of {space.term} at cuts ({family_cut},{strand_cut}) has "
            f"more than {WINDOW_POINT_CAP} points"
        )
    addrs = sorted(_enumerate(space.term, family_cut, strand_cut),
                   key=_addr_sort_key)
    addrs.append(TOP)
    families: dict[tuple, int] = {}
    strands: list[tuple] = []
    _collect_nodes(space.term, (), family_cut, families, strands)
    frontier: set[Addr] = set()
    addr_set = set(addrs)
    for p in strands:
        for j in (-strand_cut, strand_cut):
            a = p + (("z", j),)
            if a in addr_set:
                frontier.add(a)
    # the last member of every family, in full: an address lies in it when
    # one of its proper prefixes ends on that member
    lasts = {
        path + (("block" if space.subterm(path).kind == "ramp" else "copy", maxm),)
        for path, maxm in families.items()
    }
    for a in addrs:
        if any(a[:k] in lasts for k in range(1, len(a))):
            frontier.add(a)
    return Window(space, family_cut, strand_cut, tuple(addrs),
                  frozenset(frontier), tuple(strands), families)


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
    if sset.subs or sset.tails:
        return {a for a in win.addrs if sset.contains(a)}
    out: set[Addr] = set()
    for a in sset.pts:
        if a in win.addr_set:
            out.add(a)
    j_cut = win.strand_cut
    for path, prof in sset.strands.items():
        prof = prof.normalized()
        for j in range(-j_cut, j_cut + 1):
            if prof.contains(j):
                a = path + (("z", j),)
                if a in win.addr_set:
                    out.add(a)
    return out


def check_orbit_set(win: Window, addr: Addr, claimed: SymbolicSet,
                    report: WindowCheckReport):
    """Necessary-condition audit of one base-degree orbit claim."""
    space = win.space
    name = space.render(addr)
    decoded = _decode(claimed, win)
    report.checks_run += 1
    if addr not in decoded:
        report.violations.append(f"aorb0({name}): does not contain its own point")
    # forward invariance with frontier slack
    for a in decoded:
        img = space.phi(a)
        if img in win.addr_set and img not in decoded and a not in win.frontier:
            report.violations.append(
                f"aorb0({name}): image of {space.render(a)} escapes the set"
            )
    # closedness: window closure may only add frontier points
    extra = win.closure_w(decoded) - decoded
    for a in extra:
        if a not in win.frontier:
            report.violations.append(
                f"aorb0({name}): closure violation at {space.render(a)}"
            )
    # neighborhood property
    for a in win.min_nbhd_w(addr):
        if a not in decoded and a not in win.frontier:
            report.violations.append(
                f"aorb0({name}): minimal neighborhood point {space.render(a)} missing"
            )
    # pointwise agreement with the direct recomputation off the frontier
    recomputed = win.aorb0_w(addr)
    for a in (recomputed ^ decoded) & win.nonfrontier:
        report.violations.append(
            f"aorb0({name}): disagreement with window recomputation at "
            f"{space.render(a)}"
        )


def check_trace(win: Window, trace: LadderTrace, report: WindowCheckReport):
    space = win.space
    nonfrontier = sorted(win.nonfrontier, key=_addr_sort_key)
    base = trace.partition_at(0)
    base_keys: dict[Addr, tuple] | None = None
    prev_keys: dict[Addr, tuple] | None = None
    prev_degree: OrdinalCNF | None = None
    for degree, part in trace.entries:
        report.checks_run += 1
        keys = {a: part.key_of(a) for a in win.addrs}
        if part is base:
            base_keys = keys
        # disjoint cover is automatic for a key function; check invariance
        for a in win.addrs:
            img = space.phi(a)
            if img in win.addr_set and keys[a] != keys[img] and a not in win.frontier:
                report.violations.append(
                    f"degree {degree}: class of {space.render(a)} is not invariant"
                )
        if prev_keys is not None:
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
    # degree 0 must agree with the overlap-generated equivalence of the
    # recomputed orbits, off the frontier
    report.checks_run += 1
    if base_keys is None:
        base_keys = {a: base.key_of(a) for a in nonfrontier}
    parent: dict[Addr, Addr] = {a: a for a in nonfrontier}

    def find(a: Addr) -> Addr:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    owner: dict[Addr, Addr] = {}
    for a in nonfrontier:
        for x in win.aorb0_w(a):
            if x in owner:
                ra, rb = find(a), find(owner[x])
                if ra != rb:
                    parent[ra] = rb
            else:
                owner[x] = a
    window_blocks: dict[Addr, set[Addr]] = {}
    key_blocks: dict[tuple, set[Addr]] = {}
    for a in nonfrontier:
        window_blocks.setdefault(find(a), set()).add(a)
        key_blocks.setdefault(base_keys[a], set()).add(a)
    if sorted(map(sorted, window_blocks.values())) != \
            sorted(map(sorted, key_blocks.values())):
        report.violations.append(
            "degree 0: window overlap equivalence disagrees with the "
            "symbolic base partition"
        )


def window_check(space: LadderSpace, win: Window,
                 orbit_claims: list[tuple[Addr, SymbolicSet]] | None = None,
                 trace: LadderTrace | None = None) -> WindowCheckReport:
    report = WindowCheckReport(str(space.term), (win.family_cut, win.strand_cut),
                               0, [])
    if orbit_claims is None:
        nonfrontier = [a for a in win.addrs if a not in win.frontier]
        orbit_claims = [(a, ladder_aorb0_addr(space, a)) for a in nonfrontier]
    for addr, claimed in orbit_claims:
        check_orbit_set(win, addr, claimed, report)
    if trace is not None:
        check_trace(win, trace, report)
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
