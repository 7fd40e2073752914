import pytest

from fixfactor.census import enumerate_systems
from fixfactor.decomposition import REFERENCE_BOUND, Partition, oracle_partition, stabilize
from fixfactor.errors import CoverError, InternalError, OrdinalError, SizeLimitError
from fixfactor.stability import (
    finest_abs_stable_partition,
    invariant_core,
    invariant_core_reference,
    is_absolutely_stable,
    is_stable_degree,
    is_stable_plain,
    is_stable_plain_mask,
    stability_report,
    stability_table,
)
from fixfactor.systems import (
    chain,
    discrete_cycle,
    discrete_swap_plus_fixed,
    sierpinski,
)
from fixfactor.topology import PointSet, build_system
from references import random_systems
from set_partitions import iter_partitions


def members(ps):
    return set(ps.members())


def pset(sys_, names):
    return sys_.space.pointset(names)


def test_invariant_core_swap():
    sys_ = discrete_swap_plus_fixed()
    assert members(invariant_core(sys_, pset(sys_, ["c"]))) == {"c"}
    assert is_stable_plain(sys_, pset(sys_, ["c"]))
    assert members(invariant_core(sys_, pset(sys_, ["a"]))) == {"a", "b"}
    assert not is_stable_plain(sys_, pset(sys_, ["a"]))


def test_invariant_core_sierpinski_and_reference():
    sys_ = sierpinski("id")
    assert members(invariant_core(sys_, pset(sys_, ["a"]))) == {"a", "b"}
    assert not is_stable_plain(sys_, pset(sys_, ["a"]))
    assert members(invariant_core(sys_, pset(sys_, ["b"]))) == {"b"}
    assert is_stable_plain(sys_, pset(sys_, ["b"]))
    # definition-direct cross-check by enumerating invariant neighborhoods
    for names in (["a"], ["b"], ["a", "b"]):
        s = pset(sys_, names)
        assert invariant_core(sys_, s).mask == invariant_core_reference(sys_)[s.mask]


def per_mask_invariant_core_reference(sys_, mask):
    """Reference: the enumeration for one mask, intersecting every invariant
    candidate whose interior holds the mask."""
    space = sys_.space
    acc = space.full_mask
    for cand in range(1 << space.n):
        if mask & ~space.interior_mask(cand):
            continue  # not a neighborhood of the whole set
        if sys_.map.image_mask(cand) & ~cand:
            continue
        acc &= cand
    return acc


def assert_core_reference_matches_per_mask(sys_):
    assert invariant_core_reference(sys_) == tuple(
        per_mask_invariant_core_reference(sys_, mask) for mask in range(1 << sys_.n))


def test_invariant_core_reference_matches_per_mask_on_census():
    for n in range(1, 5):
        for sys_ in enumerate_systems(n):
            assert_core_reference_matches_per_mask(sys_)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_invariant_core_reference_matches_per_mask_on_random_systems(n):
    for sys_ in random_systems(n, 40 >> (n - 5), seed=3000 + n):
        assert_core_reference_matches_per_mask(sys_)


def test_invariant_core_reference_size_guard():
    with pytest.raises(SizeLimitError):
        invariant_core_reference(discrete_cycle(REFERENCE_BOUND + 1))


def test_invariant_core_empty_rejected():
    sys_ = sierpinski("id")
    with pytest.raises(CoverError):
        invariant_core(sys_, PointSet(sys_.space, 0))


def test_stable_degree_whole_space():
    sys_ = discrete_swap_plus_fixed()
    tr = stabilize(sys_)
    whole = PointSet(sys_.space, sys_.space.full_mask)
    assert is_stable_degree(sys_, whole, 0, tr)


def test_stable_degree_swap_singleton_false():
    sys_ = discrete_swap_plus_fixed()
    tr = stabilize(sys_)
    assert not is_stable_degree(sys_, pset(sys_, ["a"]), 0, tr)


def test_stable_degree_oracle_classes_true():
    for sys_ in (discrete_swap_plus_fixed(), sierpinski("const_a"),
                 discrete_cycle(4, 2), chain("abc")):
        tr = stabilize(sys_)
        for c in oracle_partition(sys_).class_sets():
            for d in range(tr.stabilization_degree.as_int() + 1):
                assert is_stable_degree(sys_, c, d, tr)


def test_stable_degree_beyond_stabilization_rejected():
    sys_ = discrete_swap_plus_fixed()
    tr = stabilize(sys_)
    with pytest.raises(OrdinalError):
        is_stable_degree(sys_, pset(sys_, ["c"]), 5, tr)


def test_absolutely_stable_examples():
    sys_ = discrete_swap_plus_fixed()
    assert is_absolutely_stable(sys_, pset(sys_, ["c"]))
    assert not is_absolutely_stable(sys_, pset(sys_, ["a"]))
    assert is_absolutely_stable(sys_, PointSet(sys_.space, sys_.space.full_mask))
    for c in oracle_partition(sys_).class_sets():
        assert is_absolutely_stable(sys_, c)


def test_stability_report_fields():
    sys_ = discrete_swap_plus_fixed()
    rep = stability_report(sys_, pset(sys_, ["c"]))
    assert rep.stable_plain and rep.absolutely_stable
    assert [ok for _, ok in rep.stable_by_degree] == [True]
    rep2 = stability_report(sys_, pset(sys_, ["a"]))
    assert not rep2.stable_plain and not rep2.absolutely_stable


def test_finest_abs_stable_examples():
    one = build_system(["p"], [], {"p": "p"})
    assert finest_abs_stable_partition(one).num_classes == 1
    sys_ = sierpinski("const_a")
    assert finest_abs_stable_partition(sys_).num_classes == 1
    sys2 = discrete_swap_plus_fixed()
    assert finest_abs_stable_partition(sys2).same_blocks(oracle_partition(sys2))


def test_finest_abs_stable_size_guard():
    sys_ = discrete_cycle(7)
    with pytest.raises(SizeLimitError):
        finest_abs_stable_partition(sys_)


def reference_finest_abs_stable_partition(sys_, stability=None):
    """The finest absolutely stable partition by the earlier search: keep
    every candidate and compare every pair with ``refines``."""
    if stability is None:
        stability = stability_table(sys_, stabilize(sys_))

    def class_ok(mask):
        plain, verdicts = stability[mask]
        return plain and all(verdicts)

    candidates = [Partition.from_class_of(sys_.space, list(rgs))
                  for rgs in iter_partitions(sys_.n)]
    candidates = [p for p in candidates if all(class_ok(m) for m in p.classes)]
    if not candidates:
        raise InternalError("no partition into absolutely stable classes exists")
    finest = [p for p in candidates if all(p.refines(q) for q in candidates)]
    if not finest:
        raise InternalError("absolutely stable partitions have no finest element")
    return finest[0]


def test_finest_abs_stable_matches_pairwise_reference():
    labeled = [s for n in range(1, 5) for s in enumerate_systems(n)]
    for sys_ in labeled + random_systems(5, 40, seed=5) + random_systems(6, 20, seed=6):
        table = stability_table(sys_, stabilize(sys_))
        assert finest_abs_stable_partition(sys_, table) == \
            reference_finest_abs_stable_partition(sys_, table)


def test_finest_abs_stable_without_finest_element_raises():
    # {a,b}|{c} and {a}|{b,c} are candidates, but their meet a|b|c is not,
    # since {b} is not absolutely stable
    sys_ = build_system(["a", "b", "c"], [], {p: p for p in "abc"})
    ok = {0b111, 0b011, 0b100, 0b001, 0b110}
    table = {m: (m in ok, (True,)) for m in range(1, 8)}
    for finest in (finest_abs_stable_partition, reference_finest_abs_stable_partition):
        with pytest.raises(InternalError, match="no finest element"):
            finest(sys_, table)


def reference_finer_plain_witness(sys_, oracle=None):
    """A partition into plainly stable sets strictly finer than ``oracle``
    (by default the oracle partition), or None; a Bell-number search over
    every partition.

    It never finds one.  A plainly stable set S equals orbit(up(S)), which
    contains up(S) and hence S, so S is open and forward-invariant.  In a
    partition into such sets every class is open, and closed as the
    complement of the union of the other classes, and it satisfies
    phi^-1(C) = C because the classes are disjoint and cover the space.  A
    clopen set with phi^-1(C) = C is a union of oracle classes, so no
    candidate is strictly finer than the oracle.
    """
    if oracle is None:
        oracle = oracle_partition(sys_)
    for rgs in iter_partitions(sys_.n):
        cand = Partition.from_class_of(sys_.space, list(rgs))
        if not cand.refines(oracle) or cand.same_blocks(oracle):
            continue
        if all(is_stable_plain_mask(sys_, m) for m in cand.classes):
            return cand
    return None


def test_finer_plain_witness_discrete_identity_none():
    sys_ = build_system(["a", "b", "c"], [], {p: p for p in "abc"})
    # each fixed singleton is stable and already the oracle partition, so
    # nothing strictly finer can exist
    assert reference_finer_plain_witness(sys_) is None


def test_finer_plain_witness_sierpinski_none():
    assert reference_finer_plain_witness(sierpinski("id")) is None


def test_no_finer_plain_witness_on_census_and_random_systems():
    labeled = [s for n in range(1, 5) for s in enumerate_systems(n)]
    assert len(labeled) == 17830
    for sys_ in labeled + random_systems(5, 150) + random_systems(6, 150):
        assert reference_finer_plain_witness(sys_) is None


def test_reference_finds_a_witness_under_a_too_coarse_oracle():
    # with the first two oracle classes merged, the oracle partition itself
    # is a finer plainly stable partition, on each of the 9 3-point system
    # classes with two classes to merge
    found = 0
    for sys_ in enumerate_systems(3, up_to_iso=True):
        p = oracle_partition(sys_)
        if p.num_classes >= 2:
            merged = Partition.from_masks(
                sys_.space, [p.classes[0] | p.classes[1], *p.classes[2:]])
            found += reference_finer_plain_witness(sys_, merged) is not None
    assert found == 9


def test_degree_monotonicity_exhaustive_small():
    for sys_ in (discrete_swap_plus_fixed(), chain("abc"), sierpinski("id"),
                 discrete_cycle(4, 2)):
        tr = stabilize(sys_)
        stab = tr.stabilization_degree.as_int()
        for mask in range(1, 1 << sys_.n):
            s = PointSet(sys_.space, mask)
            verdicts = [is_stable_degree(sys_, s, d, tr) for d in range(stab + 1)]
            for lo in range(len(verdicts)):
                for hi in range(lo, len(verdicts)):
                    assert not (verdicts[hi] and not verdicts[lo])
