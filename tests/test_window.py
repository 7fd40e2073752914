import dataclasses
import importlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from fixfactor.decomposition import stabilize
from fixfactor.errors import CoverError, InternalError, LocatorError, SizeLimitError
from fixfactor.ladder import build_ladder, ladder_trace, window, window_check
from fixfactor.ladder.sets import (
    StrandProfile,
    SymbolicSet,
    backward_source,
    ladder_aorb0_addr,
)
from fixfactor.ladder.space import TOP, LadderSpace, child_term
from fixfactor.ladder.terms import ramp_block_term, term_interior_merge, term_stab
from fixfactor.ladder.trace import LadderTrace, SymPartition, class_key
from fixfactor.ladder.window import (
    WindowCheckReport,
    base_orbit,
    check_orbit_set,
    check_trace,
    window_answers_stable,
)
from fixfactor.ordinals import parse_ordinal
from fixfactor.topology import build_space, is_discrete
from references import (
    ReferenceWindow,
    family_paths,
    four_branch_aorb0_addr,
    last_member,
    per_point_check_trace,
    strand_paths,
    strand_targets,
    subtree_top,
    term_at,
    term_walk_min_nbhd,
    term_walk_point_sources,
    term_walk_strand_witnesses,
    two_below,
    window_export_pairs,
)

W2 = parse_ordinal("w*2")
# the module, which the package's ``window`` function shadows
window_mod = importlib.import_module("fixfactor.ladder.window")


def test_strand_window_point_count():
    sp = build_ladder("strand")
    w = window(sp, 3, 2)
    # two endpoints plus five orbit points
    assert len(w.addrs) == 7
    assert set(w.names) == {"A", "z:-2", "z:-1", "z:0", "z:1", "z:2", "top"}


def test_cat_strand_window_materializes_blocks():
    sp = build_ladder("cat(strand)")
    w = window(sp, 2, 1)
    names = set(w.names)
    assert {"c:0", "c:1", "c:2", "top"} <= names
    assert "S:1:0" in names and "S:2:0" in names
    assert "c:3" not in names


def test_window_cut_validation():
    sp = build_ladder("strand")
    with pytest.raises(CoverError):
        window(sp, 0, 3)


def test_window_membership_decoding():
    sp = build_ladder("cat(strand)")
    w = window(sp, 3, 3)
    orbit = ladder_aorb0_addr(sp, (("copy", 2), ("A",)))
    decoded = {a for a in w.addrs if orbit.contains(a)}
    # {c:1, c:2} plus all of S:2's materialized orbit points
    assert (("copy", 1), ("A",)) in decoded
    assert (("copy", 2), ("A",)) in decoded
    assert (("copy", 1), ("z", 0)) in decoded
    assert (("copy", 2), ("z", 0)) not in decoded
    assert (("TOP",),) not in decoded


@pytest.mark.parametrize("term", ["strand", "cat(strand)", "ramp", "cat(ramp)"])
def test_window_audit_zero_violations(term):
    sp = build_ladder(term)
    tr = ladder_trace(sp, W2)
    w = window(sp, 3, 3)
    rep = window_check(sp, w, trace=tr)
    assert rep.ok(), rep.violations[:5]
    assert rep.checks_run > 0


def orbit_of(w, addr):
    """A point's id and its base orbit recomputed on the window."""
    x = w.ids[addr]
    return x, base_orbit(w, x)


def materialized(w, orbit) -> set:
    """The addresses of an orbit in interval form."""
    pts, tails = orbit
    end = 2 * w.strand_cut + 1
    return {w.addrs[i] for i in pts} | {w.addrs[i] for a, s in tails.items()
                                        for i in range(s, a + end + 1)}


def reference_audit(w, claim) -> list[str]:
    """The violations of the per-point audit of every non-frontier claim."""
    ref, out = ReferenceWindow(w), []
    for a in w.addrs:
        if a not in w.frontier:
            ref.check_orbit_set(a, claim(w.space, a), out)
    return out


def test_fault_injection_dropped_limit_point_detected(monkeypatch):
    addr = (("copy", 1), ("A",))

    def claim(space, a):
        out = ladder_aorb0_addr(space, a).copy()
        if a == addr:
            out.pts.discard((("copy", 0), ("A",)))
        return out

    # the claims reach the audit through this binding
    monkeypatch.setattr(window_mod, "ladder_aorb0_addr", claim)
    sp = build_ladder("cat(strand)")
    w = window(sp, 3, 3)
    rep = window_check(sp, w, ladder_trace(sp, W2))
    assert any("closure violation" in v for v in rep.violations)
    # the same violations as the per-point audit, in the same order
    assert rep.violations == reference_audit(w, claim)


def test_fault_injection_noninvariant_set_detected():
    sp = build_ladder("cat(strand)")
    w = window(sp, 3, 3)
    addr = (("copy", 1), ("z", 0))
    bad = ladder_aorb0_addr(sp, addr).copy()
    # truncate the forward tail to the finite stub {z:0, z:1}: no longer
    # invariant
    del bad.strands[(("copy", 1),)]
    bad.pts |= {(("copy", 1), ("z", 0)), (("copy", 1), ("z", 1))}
    x, orbit = orbit_of(w, addr)
    rep = WindowCheckReport("cat(strand)", (3, 3), 0, [])
    check_orbit_set(w, x, bad, orbit, rep)
    assert "aorb0(S:2:0): image of S:2:1 escapes the set" in rep.violations


def test_answers_stable_across_growing_windows():
    for term in ("strand", "cat(strand)"):
        sp = build_ladder(term)
        wins = [window(sp, 3, 3), window(sp, 5, 6), window(sp, 8, 8)]
        assert window_answers_stable(sp, wins) == []


def test_window_export_parses_and_collapses():
    for term in ("strand", "cat(strand)", "ramp"):
        sp = build_ladder(term)
        w = window(sp, 3, 3)
        fs = w.to_finite_system()
        assert fs.n == len(w.addrs)
        tr = stabilize(fs)
        # truncations are finite, so they collapse immediately by design
        assert tr.stabilization_degree.as_int() == 0
        q_discrete = is_discrete(fs.space)
        assert not q_discrete or term == "strand"


@pytest.mark.parametrize("term", ["strand", "cat(strand)", "ramp", "cat(ramp)",
                                  "cat(cat(strand))", "cat(cat(ramp))"])
def test_window_export_matches_the_strand_and_family_loops(term):
    # the export reads each limit point's minimal-neighborhood stub; the
    # loops over strand targets and family tops are the reference
    sp = build_ladder(term)
    for cuts in ((1, 1), (3, 3), (5, 6), (7, 7)):
        w = window(sp, *cuts)
        want = build_space(w.names, window_export_pairs(w))
        assert w.to_finite_system().space.up == want.up, cuts


def test_frontier_marks_strand_edges_and_last_family_member():
    sp = build_ladder("cat(strand)")
    w = window(sp, 3, 3)
    assert (("copy", 0), ("z", 3)) in w.frontier
    assert (("copy", 0), ("z", -3)) in w.frontier
    assert (("copy", 3), ("A",)) in w.frontier        # last copy entirely
    assert (("copy", 1), ("z", 0)) not in w.frontier


def reference_frontier(w) -> frozenset:
    """The frontier by the direct scan: every address against the last
    member of every family."""
    frontier = set()
    points = set(w.addrs)
    for p in strand_paths(w):
        for j in (-w.strand_cut, w.strand_cut):
            a = p + (("z", j),)
            if a in points:
                frontier.add(a)
    for path in family_paths(w):
        last = last_member(w, path)
        for a in w.addrs:
            if a != TOP and a[: len(last)] == last:
                frontier.add(a)
    return frozenset(frontier)


def addr_sort_key(addr) -> tuple:
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


def reference_window(term, budget: int, j_cut: int):
    """Addresses and frontier by the earlier build: a recursion over the
    term whose output is sorted by address, then a scan of every address's
    proper prefixes for the last member of a family."""
    families = {}

    def enumerate_addrs(term, path, budget):
        if term.kind == "strand":
            yield path + (("A",),)
            for j in range(-j_cut, j_cut + 1):
                yield path + (("z", j),)
            return
        axis = "copy" if term.kind == "cat" else "block"
        families[path] = budget
        for m in range(budget + 1):
            yield from enumerate_addrs(child_term(term, (axis, m)),
                                       path + ((axis, m),), budget - m)

    addrs = sorted(enumerate_addrs(term, (), budget), key=addr_sort_key) + [TOP]
    frontier = {a for a in addrs if a[-1][0] == "z" and abs(a[-1][1]) == j_cut}
    lasts = {path + (("block" if term_at(term, path).kind == "ramp" else "copy", maxm),)
             for path, maxm in families.items()}
    frontier |= {a for a in addrs if any(a[:k] in lasts for k in range(1, len(a)))}
    return tuple(addrs), frozenset(frontier)


@pytest.mark.parametrize("term,cuts", [
    *((t, c) for t in ("strand", "cat(strand)", "ramp", "cat(ramp)", "cat(cat(ramp))")
      for c in ((1, 1), (3, 3), (5, 6))),
    ("ramp", (8, 8)),
])
def test_frontier_and_size_match_direct_scans(term, cuts):
    sp = build_ladder(term)
    w = window(sp, *cuts)
    assert w.frontier == reference_frontier(w)
    assert (w.addrs, w.frontier) == reference_window(sp.term, *cuts)
    assert list(w.strands) == strand_paths(w)


def with_entry(tr, n, part) -> LadderTrace:
    """The trace with the partition of its n-th degree replaced."""
    entries = list(tr.entries)
    entries[n] = entries[n][0], part
    return LadderTrace(tr.space, tuple(entries), tr.stabilization_degree,
                       tr.finite_degrees_truncated_at)


class SplitOnePoint:
    """A partition that gives one point a class of its own."""

    def __init__(self, part, addr):
        self.part, self.addr = part, addr

    def key_of(self, a):
        return ("split",) if a == self.addr else self.part.key_of(a)


def test_fault_injection_split_strand_class_detected():
    sp = build_ladder("cat(strand)")
    w = window(sp, 3, 3)
    tr = ladder_trace(sp, W2)
    z0, z1 = (("copy", 1), ("z", 0)), (("copy", 1), ("z", 1))
    ref = ReferenceWindow(w)
    assert z0 in ref.nonfrontier and z1 in ref.nonfrontier
    bad = with_entry(tr, 0, SplitOnePoint(tr.entries[0][1], z0))
    rep = WindowCheckReport("cat(strand)", (3, 3), 0, [])
    check_trace(w, bad, rep)
    assert any("S:2:0 is not invariant" in v for v in rep.violations)


class OneClass:
    """A partition that merges every point into one class."""

    def key_of(self, a):
        return ("one",)


class MoveOnePoint:
    """A partition that moves one point into the class of another."""

    def __init__(self, part, addr, to):
        self.part, self.addr, self.to = part, addr, to

    def key_of(self, a):
        return self.part.key_of(self.to if a == self.addr else a)


Z0 = (("copy", 1), ("z", 0))


@pytest.mark.parametrize("make_bad", [
    # coarser than the overlap equivalence: every block lies in one class
    lambda p0: OneClass(),
    # finer than the overlap equivalence: every class lies in one block
    lambda p0: SplitOnePoint(p0, Z0),
    # degree 0 has two classes, the interior and the top, and so does the
    # overlap equivalence: as many classes as blocks, but not the same ones
    lambda p0: MoveOnePoint(p0, Z0, TOP),
], ids=["merged", "split", "moved"])
def test_fault_injection_base_partition_detected(make_bad):
    sp = build_ladder("cat(strand)")
    w = window(sp, 3, 3)
    tr = ladder_trace(sp, W2)
    bad = with_entry(tr, 0, make_bad(tr.entries[0][1]))
    rep = window_check(sp, w, trace=bad)
    assert ("degree 0: window overlap equivalence disagrees with the "
            "symbolic base partition") in rep.violations


def test_trace_not_starting_at_degree_0_is_internal_error():
    sp = build_ladder("cat(strand)")
    w = window(sp, 3, 3)
    tr = ladder_trace(sp, W2)
    bad = LadderTrace(sp, tr.entries[1:], tr.stabilization_degree,
                      tr.finite_degrees_truncated_at)
    with pytest.raises(InternalError):
        window_check(sp, w, trace=bad)


def test_window_point_cap_is_exact(monkeypatch):
    sp = build_ladder("cat(strand)")
    monkeypatch.setattr(window_mod, "WINDOW_POINT_CAP", 33)
    assert len(window(sp, 3, 3).addrs) == 33
    monkeypatch.setattr(window_mod, "WINDOW_POINT_CAP", 32)
    with pytest.raises(SizeLimitError):
        window(sp, 3, 3)


@pytest.mark.parametrize("term,cuts", [
    ("ramp", (40, 3)),
    ("ramp", (10**9, 3)),
    ("cat(cat(ramp))", (10**9, 10**9)),
    ("strand", (3, 10**9)),
])
def test_oversized_window_refused_before_enumeration(term, cuts):
    with pytest.raises(SizeLimitError):
        window(build_ladder(term), *cuts)


def test_window_check_validates_every_window_address():
    sp = build_ladder("ramp")
    w = window(sp, 3, 3)
    # a frontier address is audited only by check_trace, whose key walk
    # would give this non-point a class without complaint
    bad = (("copy", 0), ("A",))
    bad_w = dataclasses.replace(w, addrs=w.addrs + (bad,), frontier=w.frontier | {bad})
    with pytest.raises(LocatorError):
        window_check(sp, bad_w, ladder_trace(sp, W2))
    with pytest.raises(LocatorError):
        class_key(sp, W2, bad)
    # off the frontier, this non-point would pass its orbit audit silently
    bad = (("block", 0), ("copy", 0), ("z", 1), ("z", 2))
    bad_w = dataclasses.replace(w, addrs=w.addrs + (bad,))
    with pytest.raises(LocatorError):
        window_check(sp, bad_w, ladder_trace(sp, W2))


def test_window_check_refuses_an_invalid_strand_path():
    # a walk mutant's strand whose path is not a node of the term, laid out
    # as the walk lays out a strand: its A, then z = -cut ... +cut
    sp = build_ladder("ramp")
    w = window(sp, 3, 3)
    assert w.addrs[-1] == TOP
    path = (("copy", 0),)
    stray = (path + (("A",),), *(path + (("z", j),) for j in range(-3, 4)))
    bad_w = dataclasses.replace(w, addrs=w.addrs[:-1] + stray + (TOP,),
                                frontier=w.frontier | {stray[1], stray[-1]},
                                strands={**w.strands, path: ((), None)})
    # the index takes it for a strand, so only validation can refuse it
    n = len(w.addrs) - 1
    assert bad_w.index[-1][path] == (n, n + 1, n + 7)
    with pytest.raises(LocatorError):
        window_check(sp, bad_w, ladder_trace(sp, W2))


class SplitStrand:
    """A partition that gives the points of one strand a class of their own."""

    def __init__(self, part, path):
        self.part, self.path = part, path

    def key_of(self, a):
        return ("split",) if a != TOP and a[:-1] == self.path else self.part.key_of(a)


def test_fault_injection_strand_split_detected():
    sp = build_ladder("cat(cat(strand))")
    w = window(sp, 3, 3)
    tr = ladder_trace(sp, W2)
    bad = with_entry(tr, 1, SplitStrand(tr.entries[1][1], (("copy", 0), ("copy", 0))))
    rep = WindowCheckReport("cat(cat(strand))", (3, 3), 0, [])
    check_trace(w, bad, rep)
    assert rep.violations == [
        "degrees 0->1: class of K0/c:1 splits a previously merged class"]
    assert rep.checks_run == len(tr.entries)


# the criterion-6 windows, the benchmark's window audits, and terms with
# several finite degrees and no ramp
AUDIT_WINDOWS = [
    *((t, c) for t in ("strand", "cat(strand)", "ramp", "cat(ramp)")
      for c in ((3, 3), (5, 6), (7, 7), (8, 8))),
    *((t, c) for t in ("cat(cat(strand))", "cat(cat(cat(strand)))")
      for c in ((3, 3), (5, 6))),
]


def claim_mutants(w):
    """Closed forms of the base orbit that are wrong wherever they change a
    claim: an orbit point's claim without its A, a forward tail one index
    late, the whole strand in place of a tail, top added, and, when the
    window has more than one strand, every tail moved to the next strand
    and the next strand's A in place of an orbit point's own.  Then three
    that are wrong at only some points of each strand, where a strand's
    later points must not reuse its first template point's verdict: a tail
    one late after the strand's first audited point (z = 1 - cut), a tail
    one late at odd z, and the A left out at its last audited point
    (z = cut - 1)."""
    paths = list(w.strands)
    after = dict(zip(paths, paths[1:] + paths[:1]))
    c = w.strand_cut

    def without_a(out, a):
        if a[-1][0] == "z":
            out.pts.discard(a[:-1] + (("A",),))

    def late(out, a):
        out.strands = {p: StrandProfile(None if prof.start is None else prof.start + 1)
                       for p, prof in out.strands.items()}

    def whole(out, a):
        out.strands = dict.fromkeys(out.strands, StrandProfile())

    def with_top(out, a):
        out.pts.add(TOP)

    def moved(out, a):
        out.strands = {after.get(p, p): prof for p, prof in out.strands.items()}

    def next_a(out, a):
        if a[-1][0] == "z":
            out.pts = {after[a[:-1]] + (("A",),)}

    def late_after_first(out, a):
        if a[-1][0] == "z" and a[-1][1] > 1 - c:
            late(out, a)

    def late_at_odd(out, a):
        if a[-1][0] == "z" and a[-1][1] % 2:
            late(out, a)

    def without_a_at_last(out, a):
        if a[-1] == ("z", c - 1):
            without_a(out, a)

    def mutant(change):
        def claim(space, a):
            out = ladder_aorb0_addr(space, a).copy()
            change(out, a)
            return out
        return claim

    # a window of one strand has no other strand to move a tail to
    changes = (without_a, late, whole, with_top, *((moved, next_a) if len(paths) > 1 else ()),
               late_after_first, late_at_odd, without_a_at_last)
    return [mutant(change) for change in changes]


@pytest.mark.parametrize("term,cuts", AUDIT_WINDOWS)
def test_interval_audit_matches_the_per_point_audit(term, cuts, monkeypatch):
    # the audit in interval form against the per-point audit of address
    # sets, on the real claims and on claims wrong at every point or at
    # some points of each strand
    sp = build_ladder(term)
    w = window(sp, *cuts)
    tr = ladder_trace(sp, W2)
    checks = len(w.addrs) - len(w.frontier) + len(tr.entries) + 1
    rep = window_check(sp, w, tr)
    assert rep.violations == reference_audit(w, ladder_aorb0_addr) == []
    assert rep.checks_run == checks
    for claim in claim_mutants(w):
        monkeypatch.setattr(window_mod, "ladder_aorb0_addr", claim)
        rep = window_check(sp, w, tr)
        assert rep.violations, claim
        assert rep.violations == reference_audit(w, claim)
        assert rep.checks_run == checks


def assert_orbit_points_have_their_strand_orbit(term, cuts):
    # the fact the reuse of a strand's verdict rests on: off the frontier,
    # an orbit point's orbit is its strand's closures[A] and the suffix from
    # the point, and the A is fixed, so a template claim's finds are the
    # same at every point of the strand
    sp = build_ladder(term)
    w = window(sp, *cuts)
    phi, frontier, _, _, closures, _ = w.index
    for x, a in enumerate(w.heads):
        if a != x and not frontier[x]:
            assert phi[a] == a, w.addrs[a]
            assert window_mod.base_orbit(w, x) == (closures[a], {a: x}), w.addrs[x]


@pytest.mark.parametrize("term,cuts", AUDIT_WINDOWS)
def test_orbit_points_have_their_strand_orbit(term, cuts):
    assert_orbit_points_have_their_strand_orbit(term, cuts)


def test_strand_orbit_test_catches_a_base_orbit_that_reads_the_point(monkeypatch):
    def reads_the_point(win, x):
        pts, tails = base_orbit(win, x)
        addr = win.addrs[x]
        return (pts | {x}, tails) if addr[-1][0] == "z" and addr[-1][1] > 0 else (pts, tails)

    monkeypatch.setattr(window_mod, "base_orbit", reads_the_point)
    for term, cuts in AUDIT_WINDOWS:
        with pytest.raises(AssertionError):
            assert_orbit_points_have_their_strand_orbit(term, cuts)


def test_a_strand_whose_a_is_not_fixed_is_audited_point_by_point(monkeypatch):
    # the invariance check of a template claim reads the A's image: sent
    # onto z = 0 of its own strand, it escapes the claims of the points
    # past z = 0 only, so no verdict is reused on that strand
    phi = LadderSpace.phi

    def a_onto_z0(self, addr):
        return addr[:-1] + (("z", 0),) if addr[-1] == ("A",) else phi(self, addr)

    monkeypatch.setattr(LadderSpace, "phi", a_onto_z0)
    for term, cuts in (("strand", (3, 3)), ("cat(ramp)", (5, 6))):
        sp = build_ladder(term)
        w = window(sp, *cuts)
        rep = window_check(sp, w, ladder_trace(sp, W2))
        got = [v for v in rep.violations if v.startswith("aorb0(")]
        assert got, term
        assert got == reference_audit(w, ladder_aorb0_addr), term


def assert_strand_points_share_the_strand_key(term, cuts):
    # the fact the per-strand audit rests on: key_of stops before the last
    # step, so every point of a strand has the key of its A at every degree
    sp = build_ladder(term)
    w = window(sp, *cuts)
    for degree, part in ladder_trace(sp, W2).entries:
        for a in w.addrs:
            if a != TOP:
                assert part.key_of(a) == part.key_of(a[:-1] + (("A",),)), (str(degree), a)


@pytest.mark.parametrize("term,cuts", AUDIT_WINDOWS)
def test_strand_points_share_the_strand_key(term, cuts):
    assert_strand_points_share_the_strand_key(term, cuts)


def test_strand_key_test_catches_a_key_walk_that_reads_the_last_step(monkeypatch):
    key_of = SymPartition.key_of

    def reads_last_step(self, a):
        key = key_of(self, a)
        return key + (a[-1],) if a[-1][0] == "z" and a[-1][1] > 0 else key

    monkeypatch.setattr(SymPartition, "key_of", reads_last_step)
    for term, cuts in AUDIT_WINDOWS:
        with pytest.raises(AssertionError):
            assert_strand_points_share_the_strand_key(term, cuts)


@pytest.mark.parametrize("term,cuts", AUDIT_WINDOWS)
def test_check_trace_matches_the_per_point_audit(term, cuts):
    sp = build_ladder(term)
    w = window(sp, *cuts)
    tr = ladder_trace(sp, W2)
    (_, p0), *_ = tr.entries
    # an orbit point off the frontier, and its strand
    z = next(a for a in w.addrs if a[-1] == ("z", 0))
    assert z not in w.frontier
    bads = [tr, with_entry(tr, 0, OneClass()), with_entry(tr, 0, SplitOnePoint(p0, z)),
            with_entry(tr, 0, MoveOnePoint(p0, z, TOP))]
    # a strand split at degree 2 reaches the merge check over strands
    bads += [with_entry(tr, n, SplitStrand(tr.entries[n][1], z[:-1]))
             for n in (1, 2) if n < len(tr.entries)]
    found = []
    for bad in bads:
        got = WindowCheckReport(term, cuts, 0, [])
        ref = WindowCheckReport(term, cuts, 0, [])
        assert check_trace(w, bad, got) == per_point_check_trace(w, bad, ref)
        assert got == ref
        found.append(got.violations)
    assert not found[0] and all(found[4:])


def reference_key(space, degree, addr) -> tuple:
    """The class key by the earlier recursion, which compares the degree
    with the ordinal thresholds at every node it passes."""
    space.validate(addr)
    if degree >= term_stab(space.term):
        return ("all",)
    if addr == TOP:
        return ("top",)
    return _reference_key(space.term, (), degree, addr)


def _reference_key(term, path, d, addr) -> tuple:
    if d >= term_interior_merge(term):
        return ("sub", path)
    if term.kind == "cat":
        step = addr[0]
        return _reference_key(term.child, path + (step,), d, addr[1:])
    k = d.as_int()
    step = addr[0]
    m = step[1]
    if m <= k:
        return ("init", path, k)
    return _reference_key(ramp_block_term(m), path + (step,), d, addr[1:])


def reference_closure(w, s: set) -> set:
    """Window closure by the earlier loop: each step rebuilds its limit
    candidates from the address, family by family."""
    out = set(s)
    work = list(s)
    while work:
        a = work.pop()
        if a == TOP:
            continue
        cands = []
        if a[-1][0] == "z":
            fwd_t, bwd_t = strand_targets(w.space, a[:-1])
            if a[-1][1] == w.strand_cut:
                cands.append(fwd_t)
            if a[-1][1] == -w.strand_cut:
                cands.append(bwd_t)
        for i, step in enumerate(a):
            if step[0] in ("copy", "block") and a[:i + 1] == last_member(w, a[:i]):
                cands.append(subtree_top(w.space, a[:i]))
        for c in cands:
            if c in w.addr_set and c not in out:
                out.add(c)
                work.append(c)
    return out


FAST_PATH_WINDOWS = [
    *((t, c) for t in ("strand", "cat(strand)", "ramp", "cat(ramp)",
                       "cat(cat(strand))", "cat(cat(ramp))")
      for c in ((1, 1), (3, 3), (5, 6))),
    ("ramp", (8, 8)),
]


@pytest.mark.parametrize("term,cuts", FAST_PATH_WINDOWS)
def test_key_walk_matches_reference_recursion(term, cuts):
    sp = build_ladder(term)
    w = window(sp, *cuts)
    assert TOP in w.addrs
    for degree, part in ladder_trace(sp, W2).entries:
        for a in w.addrs:
            assert part.key_of(a) == reference_key(sp, degree, a), (str(degree), a)


@pytest.mark.parametrize("term,cuts", FAST_PATH_WINDOWS)
def test_closure_w_matches_reference_loop(term, cuts):
    sp = build_ladder(term)
    w = ReferenceWindow(window(sp, *cuts))
    rng = random.Random(f"{term}{cuts}")
    frontier = sorted(w.frontier)
    for _ in range(40):
        seed = set(rng.sample(w.addrs, rng.randint(1, min(12, len(w.addrs)))))
        seed |= set(rng.sample(frontier, rng.randint(0, min(12, len(frontier)))))
        assert w.closure_w(seed) == reference_closure(w, seed)


class ReferenceProfile:
    """A strand profile of the earlier rule table: a finite set, a forward
    tail, a backward tail, or the full orbit, kept normalized."""

    def __init__(self, fin=(), fwd=None, bwd=None, full=False):
        if full or (fwd is not None and bwd is not None and fwd <= bwd + 1):
            fin, fwd, bwd, full = (), None, None, True
        fin = {j for j in fin if (fwd is None or j < fwd) and (bwd is None or j > bwd)}
        while fwd is not None and fwd - 1 in fin:
            fin.discard(fwd - 1)
            fwd -= 1
        while bwd is not None and bwd + 1 in fin:
            fin.discard(bwd + 1)
            bwd += 1
        if fwd is not None and bwd is not None and fwd <= bwd + 1:
            fin, fwd, bwd, full = (), None, None, True
        self.fin, self.fwd, self.bwd, self.full = tuple(sorted(fin)), fwd, bwd, full

    def _fields(self):
        return self.fin, self.fwd, self.bwd, self.full

    def __eq__(self, other):
        return self._fields() == other._fields()

    def contains(self, j: int) -> bool:
        return (self.full or (self.fwd is not None and j >= self.fwd)
                or (self.bwd is not None and j <= self.bwd) or j in self.fin)

    def union(self, other: "ReferenceProfile") -> "ReferenceProfile":
        fwds = [v for v in (self.fwd, other.fwd) if v is not None]
        bwds = [v for v in (self.bwd, other.bwd) if v is not None]
        return ReferenceProfile(set(self.fin) | set(other.fin),
                                min(fwds) if fwds else None,
                                max(bwds) if bwds else None,
                                self.full or other.full)

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


def reference_aorb0_addr(space, addr) -> SymbolicSet:
    """The base orbit by the earlier rule-table fixpoint: seed the point and
    what each convergence source forces, then alternate the invariance and
    closure rules until nothing changes."""
    out = SymbolicSet(space)

    def add_strand(path, prof):
        out.strands[path] = out.strands.get(path, ReferenceProfile()).union(prof)

    def add_point(a):
        if a[-1][0] == "z":
            add_strand(a[:-1], ReferenceProfile(fin=(a[-1][1],)))
        else:
            out.pts.add(a)

    def invariance_step() -> bool:
        # a finite profile grows into a forward tail, a backward tail into
        # the full orbit
        grew = False
        for path, prof in list(out.strands.items()):
            lead = [j for j in (prof.fwd, *prof.fin) if j is not None]
            nxt = ReferenceProfile((), min(lead, default=None), None,
                                   prof.full or prof.bwd is not None)
            if nxt != prof:
                out.strands[path] = nxt
                grew = True
        return grew

    def closure_step() -> bool:
        # a forward tail adds its attracting end, a backward tail its
        # repelling one
        new = []
        for path, prof in out.strands.items():
            fwd_t, bwd_t = strand_targets(space, path)
            if prof.full or prof.fwd is not None:
                new.append(fwd_t)
            if prof.full or prof.bwd is not None:
                new.append(bwd_t)
        grew = False
        for a in new:
            if not out.contains(a):
                add_point(a)
                grew = True
        return grew

    add_point(addr)
    for kind, path in term_walk_point_sources(space, addr):
        if kind == "fwd":
            add_point(path + (("A",),))
        elif kind == "bwd":
            add_strand(path, ReferenceProfile(full=True))
        else:
            add_point(subtree_top(space, path))
    while invariance_step() | closure_step():
        pass
    return out


@pytest.mark.parametrize("term,cuts", FAST_PATH_WINDOWS[:-1])
def test_aorb0_closed_form_matches_rule_table_fixpoint(term, cuts):
    sp = build_ladder(term)
    w = ReferenceWindow(window(sp, *cuts))
    for a in w.addrs:
        got, ref = ladder_aorb0_addr(sp, a), reference_aorb0_addr(sp, a)
        assert got.to_json() == ref.to_json(), (term, cuts, a)
        assert w.decode(got) == w.decode(ref), (term, cuts, a)


# every window of these terms under the point cap: the address rule for the
# convergence sources and the shortened closed form are held to the term
# walk and the four-branch closed form on each address
SOURCE_TERMS = ["strand", "cat(strand)", "ramp", "cat(ramp)", "cat(cat(strand))",
                "cat(cat(ramp))", "cat(cat(cat(strand)))", "cat(cat(cat(ramp)))"]
SOURCE_CUTS = [(1, 1), (3, 3), (5, 6), (7, 7)]


def source_windows():
    for term in SOURCE_TERMS:
        sp = build_ladder(term)
        for cuts in SOURCE_CUTS:
            try:
                yield sp, window(sp, *cuts)
            except SizeLimitError:
                continue


def deep_locators():
    """Locators far below the windows: the deepest ramp block, under a cat
    layer, with the last nonzero family index at every depth."""
    chain = ["K0"] * 100
    out = [("ramp", "top"), ("cat(ramp)", "top")]
    for i in (0, 1, 50, 99):
        ks = chain[:i] + ["K3"] + chain[i + 1:]
        for tail in ("c:0", "c:2", "S:1:0", "S:3:-4"):
            for head in ("", "K7/"):
                term = "cat(ramp)" if head else "ramp"
                out.append((term, head + "/".join(["B100", *ks, tail])))
                out.append((term, head + "/".join(["B100", *chain, tail])))
    return out


def term_walk_backward_source(space, addr):
    return dict(term_walk_point_sources(space, addr)).get("bwd")


def test_backward_source_address_rule_matches_term_walk():
    seen = 0
    for sp, w in source_windows():
        for a in w.addrs:
            assert backward_source(sp, a) == term_walk_backward_source(sp, a), a
            seen += 1
    assert seen > 70_000
    for term, locator in deep_locators():
        sp = build_ladder(term)
        a = sp.parse_locator(locator)
        assert backward_source(sp, a) == term_walk_backward_source(sp, a), locator


def test_window_walk_records_the_term_walk_stubs():
    # every limit point's stub, read off the walk, against the term-walk
    # sources and last-member bases; an orbit point's stub is itself
    limits = 0
    for sp, w in source_windows():
        assert set(w.stubs) == {a for a in w.addrs if a[-1][0] != "z"}
        limits += len(w.stubs)
        w = ReferenceWindow(w)
        for a in w.addrs:
            assert w.min_nbhd_w(a) == term_walk_min_nbhd(w, a), a
    assert limits > 4_000


def test_window_walk_records_the_term_walk_witnesses():
    for sp, w in source_windows():
        w = ReferenceWindow(w)
        paths = strand_paths(w)
        assert list(w.strands) == paths
        for p in paths:
            assert w.strands[p] == term_walk_strand_witnesses(w, p), p


def test_audit_catches_a_wrong_backward_source(monkeypatch):
    # the audit reads the stubs its own walk recorded, so a closed form that
    # takes the sibling two indices below the point fails it, with the same
    # violations in the same order as the per-point audit; at (5,6) a set of
    # ids no longer iterates in id order by chance
    sets_mod = importlib.import_module("fixfactor.ladder.sets")
    monkeypatch.setattr(sets_mod, "backward_source", two_below(sets_mod.backward_source))
    for term in ("cat(strand)", "ramp", "cat(ramp)"):
        sp = build_ladder(term)
        for cuts in ((3, 3), (5, 6)):
            w = window(sp, *cuts)
            rep = window_check(sp, w, ladder_trace(sp, W2))
            assert rep.violations, term
            assert rep.violations == reference_audit(w, ladder_aorb0_addr), (term, cuts)


def test_base_orbits_match_the_per_point_recomputation():
    # the interval form, materialized, against orbit_w and then closure_w of
    # each point's own stub, off the frontier, where the audit reads it, and
    # on the frontier of the smaller windows, where only stubs and witnesses do
    points = 0
    for sp, w in source_windows():
        ref = ReferenceWindow(w)
        wanted = range(len(w.addrs)) if len(w.addrs) < 2_000 else \
            sorted(w.ids[a] for a in ref.nonfrontier)
        for x in wanted:
            assert materialized(w, base_orbit(w, x)) == ref.aorb0_w(w.addrs[x]), w.addrs[x]
        points += len(ref.nonfrontier)
    assert points > 30_000


AUDIT_UNDER_MUTANT = """
import importlib
from fixfactor.ladder import build_ladder, ladder_trace, window, window_check
from fixfactor.ordinals import parse_ordinal
from references import two_below
sets_mod = importlib.import_module("fixfactor.ladder.sets")
sets_mod.backward_source = two_below(sets_mod.backward_source)
sp = build_ladder("cat(ramp)")
rep = window_check(sp, window(sp, 3, 3), ladder_trace(sp, parse_ordinal("w*2")))
print("\\n".join(rep.violations))
"""


def test_failing_audit_does_not_depend_on_the_hash_seed():
    src = Path(importlib.import_module("fixfactor").__file__).parents[1]
    tests = Path(__file__).parent
    outs = []
    for seed in ("0", "3"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join([str(src), str(tests)])}
        outs.append(subprocess.run([sys.executable, "-c", AUDIT_UNDER_MUTANT], env=env,
                                   capture_output=True, check=True).stdout)
    assert outs[0].count(b"\n") == 31
    assert outs[0] == outs[1]


def test_limit_point_is_the_forward_limit_family_top_and_backward_limit():
    limits = 0
    for sp, w in source_windows():
        for a in w.addrs:
            if a[-1][0] == "z":
                continue
            limits += 1
            for kind, path in term_walk_point_sources(sp, a):
                if kind == "fwd":
                    assert strand_targets(sp, path)[0] == a
                elif kind == "bwd":
                    assert strand_targets(sp, path)[1] == a
                else:
                    assert subtree_top(sp, path) == a
    assert limits > 4_000


def test_aorb0_closed_form_matches_four_branch_form():
    for sp, w in source_windows():
        for a in w.addrs:
            got, ref = ladder_aorb0_addr(sp, a), four_branch_aorb0_addr(sp, a)
            assert (got.pts, got.strands) == (ref.pts, ref.strands), a
    for term, locator in deep_locators():
        sp = build_ladder(term)
        a = sp.parse_locator(locator)
        got, ref = ladder_aorb0_addr(sp, a), four_branch_aorb0_addr(sp, a)
        assert (got.pts, got.strands) == (ref.pts, ref.strands), locator


def test_system_export_renders_each_point_once(tmp_path, monkeypatch):
    from fixfactor.cli import main
    from fixfactor.ladder.space import LadderSpace

    calls = []
    render = LadderSpace.render

    def counted(self, addr):
        calls.append(addr)
        return render(self, addr)

    monkeypatch.setattr(LadderSpace, "render", counted)
    assert main(["window", "cat(ramp)", "--family-cut", "3", "--strand-cut", "3",
                 "--system-out", str(tmp_path / "system.json"),
                 "--out", str(tmp_path / "window.json")]) == 0
    points = len(window(build_ladder("cat(ramp)"), 3, 3).addrs)
    assert points == 209
    assert len(calls) == points
