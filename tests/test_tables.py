"""The 2^n mask tables against the bit loops they replace, on every mask."""

import pytest

from fixfactor.census import Analysis, analyze, enumerate_systems
from fixfactor.decomposition import (
    REFERENCE_BOUND,
    DegreeTrace,
    Partition,
    aorb_succ_mask,
    prolongation_D1,
    prolongation_D2,
    stabilize,
)
from fixfactor.errors import SizeLimitError
from fixfactor.ordinals import OrdinalCNF
from fixfactor.stability import (
    invariant_core_mask,
    invariant_core_table,
    is_stable_plain_mask,
    stability_table,
    stable_degree_verdicts,
)
from fixfactor.systems import discrete_cycle
from fixfactor.topology import union_table
from references import random_systems
from set_partitions import iter_partitions

LABELED = [s for n in range(1, 5) for s in enumerate_systems(n)]
RANDOM = [s for n in range(5, 9) for s in random_systems(n, 12, seed=7000 + n)]


def open_hull_loop(space, mask):
    out = 0
    for i in range(space.n):
        if mask >> i & 1:
            out |= space.up[i]
    return out


def assert_space_tables_match(space):
    masks = range(1 << space.n)
    assert space.closure_table == tuple(space.closure_mask(m) for m in masks)
    assert space.open_table == tuple(open_hull_loop(space, m) for m in masks)
    points = range(space.n)
    assert space.closed_interiors == tuple(
        (m, tuple(i for i in points if m >> i & 1 and space.up[i] & ~m == 0))
        for m in masks if space.is_closed_mask(m))
    assert space.open_members == tuple(
        (m, tuple(i for i in points if m >> i & 1)) for m in masks if m and space.is_open_mask(m))
    assert space.interior_submasks == tuple(
        tuple(s for s in reversed(masks) if s & ~space.interior_mask(m) == 0) for m in masks)


def assert_map_tables_match(sys_):
    masks = range(1 << sys_.n)
    assert sys_.map.image_table == tuple(sys_.map.image_mask(m) for m in masks)
    assert sys_.map.orbit_table == tuple(sys_.map.orbit_mask(m) for m in masks)


def assert_saturate_table_matches(p):
    masks = range(1 << p.space.n)
    assert p.saturate_table == tuple(p.saturate_mask(m) for m in masks)


def test_tables_match_their_loops_on_labeled_systems():
    assert len(LABELED) == 17830
    for space in {s.space for s in LABELED}:
        assert_space_tables_match(space)
        assert_saturate_table_matches(Partition.identity(space))
    for sys_ in LABELED:
        assert_map_tables_match(sys_)
    for sys_ in enumerate_systems(4, up_to_iso=True):
        for _, p in stabilize(sys_).entries:
            assert_saturate_table_matches(p)


def test_tables_match_their_loops_on_random_systems():
    for sys_ in RANDOM:
        assert_space_tables_match(sys_.space)
        assert_map_tables_match(sys_)
        assert_saturate_table_matches(Partition.identity(sys_.space))
        for _, p in stabilize(sys_).entries:
            assert_saturate_table_matches(p)


def test_invariant_core_table_equals_the_general_n_core():
    for sys_ in LABELED + RANDOM:
        assert invariant_core_table(sys_) == \
            tuple(invariant_core_mask(sys_, m) for m in range(1 << sys_.n))


def reference_stability_table(sys_, trace):
    """The stability table by the earlier per-mask comprehension over the
    bit loops."""
    return {mask: (is_stable_plain_mask(sys_, mask),
                   stable_degree_verdicts(sys_, trace, mask))
            for mask in range(1, sys_.space.full_mask + 1)}


def test_stability_table_matches_the_per_mask_loops():
    # the 4-point classes are covered at every partition below
    for sys_ in [s for s in LABELED if s.n < 4] + RANDOM:
        trace = stabilize(sys_)
        assert stability_table(sys_, trace) == reference_stability_table(sys_, trace)


def test_stability_table_matches_the_loops_at_every_partition():
    # a finite trace stops at its clopen degree-0 partition; a made-up
    # trace through any partition also drives the alternation through
    # classes that are not open, in the stability table and in the
    # successor orbits the census reads off the same value table
    zero, one = OrdinalCNF.from_int(0), OrdinalCNF.from_int(1)
    for n in range(1, 5):
        for sys_ in enumerate_systems(n, up_to_iso=True):
            for rgs in iter_partitions(n):
                p = Partition.from_class_of(sys_.space, list(rgs))
                trace = DegreeTrace(((zero, p), (one, p)), zero)
                assert stability_table(sys_, trace) == \
                    reference_stability_table(sys_, trace), rgs
                assert Analysis(sys_, trace, p).facts.succ == \
                    (tuple(aorb_succ_mask(sys_, p, i) for i in range(n)),), rgs


def test_census_reads_what_the_loops_compute():
    # the census reads the successor orbits and the prolongations off the
    # tables; lyapunov, degree_step and the public API still run the loops
    for sys_ in LABELED + RANDOM:
        a = analyze(sys_)
        points = range(sys_.n)
        for (_, p), succ in zip(a.trace.entries, a.facts.succ):
            assert succ == tuple(aorb_succ_mask(sys_, p, i) for i in points)
        names = sys_.space.points
        assert a.prolongations == (tuple(prolongation_D1(sys_, x).mask for x in names),
                                   tuple(prolongation_D2(sys_, x).mask for x in names))


def test_tables_refuse_above_the_reference_bound():
    union_table([1] * REFERENCE_BOUND)  # at the bound a table is built
    with pytest.raises(SizeLimitError):
        union_table([1] * (REFERENCE_BOUND + 1))
    sys_ = discrete_cycle(REFERENCE_BOUND + 1)
    for table in (lambda: sys_.space.closure_table, lambda: sys_.space.open_table,
                  lambda: sys_.space.closed_interiors, lambda: sys_.space.open_members,
                  lambda: sys_.space.interior_submasks,
                  lambda: sys_.map.image_table, lambda: sys_.map.orbit_table,
                  lambda: Partition.identity(sys_.space).saturate_table):
        with pytest.raises(SizeLimitError):
            table()


def test_the_decomposition_builds_no_table():
    # the kernel runs on the bit loops at any size; only the all-masks
    # references and the census read tables
    sys_ = discrete_cycle(REFERENCE_BOUND + 1)
    trace = stabilize(sys_)
    assert trace.stationary_partition.num_classes == 1
    for obj in (sys_.space, sys_.map, *(p for _, p in trace.entries)):
        assert not {"closure_table", "open_table", "image_table", "orbit_table",
                    "saturate_table", "closed_interiors", "open_members",
                    "interior_submasks"} & set(vars(obj))
