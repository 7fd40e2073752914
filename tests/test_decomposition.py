import collections
import json
import random
from fractions import Fraction

import pytest

from fixfactor.census import enumerate_systems
from fixfactor.cli import main
import fixfactor.decomposition as dec
from fixfactor.decomposition import (
    REFERENCE_BOUND,
    SUCC_REFERENCE_BOUND,
    DegreeTrace,
    Partition,
    aorb0,
    aorb0_masks,
    aorb_succ,
    aorb_succ_mask,
    comparability_partition,
    degree_step,
    dim_fix,
    generated_partition,
    is_topologically_ergodic,
    min_saturated_open_nbhd,
    oracle_partition,
    prolongation_D1,
    prolongation_D2,
    prolongation_reference,
    quotient,
    reference_intersection,
    sorb0_partition,
    sorb_closure,
    stabilize,
)
from fixfactor.errors import CoverError, InternalError, InvarianceError, SizeLimitError
from fixfactor.ladder import build_ladder, window
from fixfactor.ordinals import OrdinalCNF
from fixfactor.systems import (
    chain,
    discrete_cycle,
    discrete_swap_plus_fixed,
    niedex_like,
    sierpinski,
)
from fixfactor.topology import (
    FiniteSystem,
    PointSet,
    SelfMap,
    build_system,
    is_discrete,
    space_from_up_masks,
    system_payload,
)
import pins
from references import one_class, per_class_certificate, random_generator_up_masks, random_systems
from set_partitions import iter_partitions


def members(ps):
    return set(ps.members())


def blocks(p):
    return {frozenset(c.members()) for c in p.class_sets()}


# ---------------------------------------------------------------- aorb0


def test_aorb0_cycle_rotation_enumeration_oracle():
    sys_ = discrete_cycle(6, 2)
    space = sys_.space
    # oracle: intersect every closed invariant superset of the minimal
    # neighborhood of 0 by exhaustive enumeration
    acc = space.full_mask
    i = space.idx("0")
    for cand in range(1 << 6):
        if not cand >> i & 1:
            continue
        if space.interior_mask(cand) >> i & 1 == 0:
            continue
        if not space.is_closed_mask(cand):
            continue
        if sys_.map.image_mask(cand) & ~cand:
            continue
        acc &= cand
    assert members(aorb0(sys_, "0")) == set(space.names(acc)) == {"0", "2", "4"}


def test_aorb0_sierpinski_identity():
    sys_ = sierpinski("id")
    assert members(aorb0(sys_, "b")) == {"a", "b"}


def test_aorb0_forward_orbit_oracle():
    sys_ = discrete_swap_plus_fixed()
    # oracle: on a discrete space the smallest closed invariant
    # neighborhood is the forward orbit
    seen = {"a"}
    cur = "a"
    for _ in range(5):
        cur = sys_.map(cur)
        seen.add(cur)
    assert members(aorb0(sys_, "a")) == seen == {"a", "b"}


# ------------------------------------------------- generated_partition


def test_generated_partition_singletons():
    space = discrete_swap_plus_fixed().space
    p = generated_partition(space, [1 << i for i in range(3)])
    assert p.num_classes == 3


def test_generated_partition_whole():
    space = discrete_swap_plus_fixed().space
    p = generated_partition(space, [space.full_mask] * 3)
    assert p.num_classes == 1


def test_generated_partition_cycle_cover():
    sys_ = discrete_cycle(6, 2)
    cover = [aorb0(sys_, p).mask for p in sys_.space.points]
    p = generated_partition(sys_.space, cover)
    assert blocks(p) == {frozenset({"0", "2", "4"}), frozenset({"1", "3", "5"})}


def test_generated_partition_transitive_merge():
    # K_4 = {1, 3, 4} joins {0, 1} and {2, 3} through points it does not
    # own, and 0, 2 share no member: only the transitive merge links them
    space = discrete_cycle(6).space
    cover = [0b000011, 0b000010, 0b001100, 0b001000, 0b011010, 0b100000]
    p = generated_partition(space, cover)
    assert p.classes == (0b011111, 0b100000)
    assert p.same_blocks(quadratic_generated_partition(space, cover))


def test_generated_partition_cover_error():
    space = discrete_swap_plus_fixed().space
    with pytest.raises(CoverError):
        generated_partition(space, [0b010, 0b010, 0b100])


# --------------------------------------------------------------- sorb0


def test_sorb0_swap_grand_orbit():
    p = sorb0_partition(discrete_swap_plus_fixed())
    assert blocks(p) == {frozenset({"a", "b"}), frozenset({"c"})}


def test_sorb0_sierpinski_const():
    assert sorb0_partition(sierpinski("const_a")).num_classes == 1


def test_sorb0_niedex_like_single_class():
    assert sorb0_partition(niedex_like()).num_classes == 1


def test_comparability_partition_op():
    from fixfactor.decomposition import comparability_partition
    from fixfactor.topology import build_space

    assert comparability_partition(
        build_space(["a", "b", "c"], [])
    ).num_classes == 3
    assert comparability_partition(sierpinski().space).num_classes == 1
    vee = build_space(["u", "p", "q"], [("p", "u"), ("q", "u")])
    assert comparability_partition(vee).num_classes == 1


# --------------------------------------- min_saturated_open / closure


def brute_min_saturated_open(sys_, p, x):
    space = sys_.space
    i = space.idx(x)
    best = None
    for cand in range(1 << space.n):
        if not cand >> i & 1:
            continue
        if space.interior_mask(cand) == cand and p.is_saturated_mask(cand):
            if best is None or cand & ~best == 0 and best != cand:
                best = cand if best is None else cand
    # the least admissible set is the intersection of all of them
    acc = space.full_mask
    for cand in range(1 << space.n):
        if cand >> i & 1 and space.interior_mask(cand) == cand \
                and p.is_saturated_mask(cand):
            acc &= cand
    return acc


def test_min_saturated_open_identity_partition():
    sys_ = chain("abc")
    p = Partition.identity(sys_.space)
    for x in sys_.space.points:
        got = min_saturated_open_nbhd(sys_, p, x)
        assert got.mask == sys_.space.up[sys_.space.idx(x)]
        assert got.mask == brute_min_saturated_open(sys_, p, x)


def test_min_saturated_open_one_class():
    sys_ = chain("abc")
    p = one_class(sys_.space)
    assert min_saturated_open_nbhd(sys_, p, "a").mask == sys_.space.full_mask


def test_min_saturated_open_discrete_gives_class():
    sys_ = discrete_swap_plus_fixed()
    p = Partition.from_masks(sys_.space, [0b011, 0b100])
    for x in "abc":
        got = min_saturated_open_nbhd(sys_, p, x)
        assert got.mask == p.class_mask(x)
        assert got.mask == brute_min_saturated_open(sys_, p, x)


def assert_aorb_succ_matches_reference_at_every_partition(sys_):
    points = range(sys_.n)
    for rgs in iter_partitions(sys_.n):
        p = Partition.from_class_of(sys_.space, list(rgs))
        assert tuple(aorb_succ_mask(sys_, p, i) for i in points) == \
            reference_intersection(sys_, "succ", p), rgs


def test_aorb_succ_matches_reference_at_every_partition():
    # the census reads its successor orbits off the value tables and never
    # calls aorb_succ, and it compares them with the reference only at
    # stationary partitions, whose classes are clopen and hide a fault in
    # saturation; this is the reference guard on the loops themselves
    systems = [s for n in range(1, 5) for s in enumerate_systems(n, up_to_iso=True)]
    systems += random_systems(5, 40, seed=3005) + random_systems(6, 20, seed=3006)
    for sys_ in systems:
        assert_aorb_succ_matches_reference_at_every_partition(sys_)


def test_sorb_closure_identity_partition_is_closure():
    sys_ = chain("abc")
    p = Partition.identity(sys_.space)
    u = sys_.space.pointset(["b"])
    assert members(sorb_closure(sys_, p, u)) == {"a", "b"}


def test_sorb_closure_one_class_whole():
    sys_ = chain("abc")
    p = one_class(sys_.space)
    assert sorb_closure(sys_, p, sys_.space.pointset(["b"])).mask == \
        sys_.space.full_mask


def test_sorb_closure_chain_enumeration_oracle():
    sys_ = chain("abc")
    space = sys_.space
    p = Partition.from_masks(space, [0b001, 0b110])
    u = space.pointset(["b"])
    # oracle: intersect all closed saturated supersets
    acc = space.full_mask
    for cand in range(1 << 3):
        if u.mask & ~cand:
            continue
        if space.is_closed_mask(cand) and p.is_saturated_mask(cand):
            acc &= cand
    got = sorb_closure(sys_, p, u)
    assert got.mask == acc
    assert members(got) == {"a", "b", "c"}


def test_sorb_closure_empty_rejected():
    sys_ = chain("abc")
    with pytest.raises(CoverError):
        sorb_closure(sys_, Partition.identity(sys_.space), PointSet(sys_.space, 0))


# ----------------------------------------------------------- aorb_succ


def test_aorb_succ_swap_definition_direct():
    sys_ = discrete_swap_plus_fixed()
    p = sorb0_partition(sys_)
    got = aorb_succ(sys_, p, "a")
    assert members(got) == {"a", "b"}
    assert got.mask == reference_intersection(sys_, "succ", p)[sys_.space.idx("a")]


def test_aorb_succ_one_class_whole():
    sys_ = discrete_swap_plus_fixed()
    p = one_class(sys_.space)
    assert aorb_succ(sys_, p, "a").mask == sys_.space.full_mask


def test_aorb_succ_sierpinski_const_whole():
    sys_ = sierpinski("const_a")
    p = sorb0_partition(sys_)
    assert p.num_classes == 1
    assert aorb_succ(sys_, p, "b").mask == sys_.space.full_mask


def test_reference_intersection_sierpinski():
    sys_ = sierpinski("id")
    space = sys_.space
    got = reference_intersection(sys_, "base")[space.idx("b")]
    assert members(PointSet(space, got)) == {"a", "b"}


def test_reference_intersection_size_guard():
    sys_ = discrete_cycle(REFERENCE_BOUND + 1)
    with pytest.raises(SizeLimitError):
        reference_intersection(sys_, "base")


def test_reference_intersection_succ_has_its_own_bound():
    sys_ = discrete_cycle(SUCC_REFERENCE_BOUND + 1)
    p = sorb0_partition(sys_)
    with pytest.raises(SizeLimitError):
        reference_intersection(sys_, "succ", p)
    assert reference_intersection(sys_, "base") == aorb0_masks(sys_)


def test_reference_intersection_rejects_bad_arguments():
    sys_ = sierpinski("id")
    with pytest.raises(CoverError):
        reference_intersection(sys_, "succ")
    with pytest.raises(CoverError):
        reference_intersection(sys_, "neither")


# ---------------------------------------------------------- degree_step


def test_degree_step_fixpoint_on_stationary():
    sys_ = discrete_swap_plus_fixed()
    p = sorb0_partition(sys_)
    assert degree_step(sys_, p).same_blocks(p)


def test_degree_step_one_class():
    sys_ = discrete_swap_plus_fixed()
    p = one_class(sys_.space)
    assert degree_step(sys_, p).same_blocks(p)


def test_degree_step_requires_invariance():
    sys_ = discrete_swap_plus_fixed()
    bad = Partition.from_masks(sys_.space, [0b001, 0b110])  # {a} not invariant
    with pytest.raises(InvarianceError):
        degree_step(sys_, bad)


# ------------------------------------------------------------ stabilize


def test_stabilize_swap():
    tr = stabilize(discrete_swap_plus_fixed())
    assert tr.stabilization_degree.as_int() == 0
    assert blocks(tr.stationary_partition) == \
        {frozenset({"a", "b"}), frozenset({"c"})}
    d0, d1 = tr.entries[-2:]
    assert d0[1].same_blocks(d1[1])


def test_stabilize_sierpinski_const():
    tr = stabilize(sierpinski("const_a"))
    assert tr.stabilization_degree.as_int() == 0
    assert tr.stationary_partition.num_classes == 1


def test_stabilize_failure_is_internal_error(monkeypatch):
    monkeypatch.setattr(dec, "_degree_zero_certificate", lambda sys_, p: False)
    with pytest.raises(InternalError) as info:
        stabilize(discrete_swap_plus_fixed())
    assert info.value.code == "E_INTERNAL"


# ------------------------------------------------ the degree-0 certificate


def general_loop_trace(sys_, p):
    """Reference: degree steps from p until two successive partitions agree."""
    entries = [(OrdinalCNF.from_int(0), p)]
    while len(entries) < 2 or not entries[-1][1].same_blocks(entries[-2][1]):
        q = degree_step(sys_, entries[-1][1])
        entries.append((OrdinalCNF.from_int(len(entries)), q))
    return DegreeTrace(tuple(entries), OrdinalCNF.from_int(len(entries) - 2))


def test_certificate_accepts_every_base_partition_and_matches_the_loop():
    for n in range(1, 4):
        for sys_ in enumerate_systems(n):
            p = sorb0_partition(sys_)
            assert dec._degree_zero_certificate(sys_, p)
            assert stabilize(sys_) == general_loop_trace(sys_, p)


def test_certificate_rejects_a_class_that_is_not_open():
    # Under the identity both singletons are invariant; {a} is not open
    # (U_a = {a, b}) and {b} is not closed.  A partition into open classes
    # is one into closed classes, so the open premise covers both.
    sys_ = sierpinski("id")
    assert not dec._degree_zero_certificate(sys_, Partition.identity(sys_.space))
    assert dec._degree_zero_certificate(sys_, one_class(sys_.space))


def test_certificate_rejects_a_class_that_is_not_invariant():
    # every class of the discrete space is clopen, but a maps to b
    sys_ = discrete_swap_plus_fixed()
    assert not dec._degree_zero_certificate(sys_, Partition.identity(sys_.space))
    assert dec._degree_zero_certificate(sys_, sorb0_partition(sys_))


def test_certificate_tests_a_wide_point_whose_bits_lie_below_it():
    # q specializes p only, so U_q = {p, q} while up[1] >> 1 == 1: the
    # class {q} is invariant under the identity but not open
    sys_ = build_system(["p", "q"], [("q", "p")], {"p": "p", "q": "q"})
    assert sys_.space.wide == (1,)
    assert not dec._degree_zero_certificate(sys_, Partition.identity(sys_.space))
    assert dec._degree_zero_certificate(sys_, one_class(sys_.space))


def map_components(sys_) -> Partition:
    """Components of the map edges alone: invariant, seldom open."""
    n = sys_.n
    discrete = space_from_up_masks(sys_.space.points, [1 << i for i in range(n)])
    q = oracle_partition(FiniteSystem(discrete, SelfMap(discrete, sys_.map.img)))
    return Partition(sys_.space, q.class_of, q.classes)


def certificate_cases():
    """(system, partition) pairs: every partition of every census system
    with at most 3 points; on the 4-point census its base, oracle,
    comparability, map-component, identity and one-class partitions; the
    same on seeded random relations up to 40 points with random maps,
    which the certificate does not need to be continuous."""
    for n in range(1, 4):
        for sys_ in enumerate_systems(n):
            for rgs in iter_partitions(n):
                yield sys_, Partition.from_class_of(sys_.space, list(rgs))
    systems = list(enumerate_systems(4))
    rng = random.Random(4103)
    for n in [5, 8, 13, 21, 40]:
        for _ in range(12):
            names = tuple(f"p{i}" for i in range(n))
            space = space_from_up_masks(names, random_generator_up_masks(rng, n))
            img = tuple(rng.choices(range(n), k=n))
            systems.append(FiniteSystem(space, SelfMap(space, img)))
    for sys_ in systems:
        space = sys_.space
        for p in (sorb0_partition(sys_), oracle_partition(sys_),
                  comparability_partition(space), map_components(sys_),
                  Partition.identity(space), one_class(space)):
            yield sys_, p


def test_certificate_matches_the_per_class_union():
    verdicts = collections.Counter()
    for sys_, p in certificate_cases():
        ok = dec._degree_zero_certificate(sys_, p)
        assert ok == per_class_certificate(sys_, p)
        verdicts[ok] += 1
    assert verdicts[True] and verdicts[False]


# ------------------------------- references for the collapsed kernel paths


def quadratic_generated_partition(space, cover):
    """Reference: for every point, merge all cover members that contain it."""
    masks = [c.mask if isinstance(c, PointSet) else c for c in cover]
    n = space.n
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for z in range(n):
        owners = [i for i in range(n) if masks[i] >> z & 1]
        for i in owners[1:]:
            ra, rb = find(owners[0]), find(i)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    return Partition.from_class_of(space, [find(i) for i in range(n)])


def saturate_mask_by_class_scan(p, mask):
    """Reference: the union of every class that meets the mask, by a scan
    over all classes."""
    out = mask
    for m in p.classes:
        if m & mask:
            out |= m
    return out


def per_point_degree_step(sys_, p):
    """Reference: one successor orbit per point, merged quadratically."""
    return quadratic_generated_partition(
        sys_.space, [aorb_succ_mask(sys_, p, i) for i in range(sys_.n)]
    )


def per_point_aorb0(sys_):
    """Reference: cl(orbit(U_x)) composed at each point, which is the first
    prolongation D1."""
    return tuple(prolongation_D1(sys_, x).mask for x in sys_.space.points)


def assert_generated_matches_quadratic(space, cover):
    want = quadratic_generated_partition(space, cover)
    got = generated_partition(space, cover)
    assert got == want
    return got


def assert_kernel_matches_references(sys_):
    space = sys_.space
    n = sys_.n
    base_cover = per_point_aorb0(sys_)
    assert aorb0_masks(sys_) == base_cover
    ref = assert_generated_matches_quadratic(space, list(base_cover))
    assert sorb0_partition(sys_).same_blocks(ref)
    oracle_cover = [space.up[i] | space.down[i] | 1 << sys_.map.img[i] for i in range(n)]
    assert oracle_partition(sys_).same_blocks(
        assert_generated_matches_quadratic(space, oracle_cover)
    )
    ref_trace = [ref]
    while len(ref_trace) < 2 or not ref_trace[-1].same_blocks(ref_trace[-2]):
        ref_trace.append(per_point_degree_step(sys_, ref_trace[-1]))
    trace = stabilize(sys_)
    assert len(trace.entries) == len(ref_trace)
    assert trace.stabilization_degree.as_int() == len(ref_trace) - 2
    if n <= 8:
        masks = range(1 << n)
    else:
        rng = random.Random(n)
        masks = [rng.getrandbits(n) for _ in range(64)]
    for (_, part), want in zip(trace.entries, ref_trace):
        assert part.same_blocks(want)
        class_cover = [part.classes[c] for c in part.class_of]
        assert assert_generated_matches_quadratic(space, class_cover) == part
        assert degree_step(sys_, part).same_blocks(per_point_degree_step(sys_, part))
        for s in masks:
            assert part.saturate_mask(s) == saturate_mask_by_class_scan(part, s)


def test_kernel_matches_references_on_census():
    for n in range(1, 5):
        for sys_ in enumerate_systems(n):
            assert_kernel_matches_references(sys_)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_kernel_matches_references_on_random_systems(n):
    for sys_ in random_systems(n, 200, seed=1000 + n):
        assert_kernel_matches_references(sys_)


def test_kernel_matches_references_on_window_dump():
    sys_ = window(build_ladder("ramp"), 5, 6).to_finite_system()
    assert sys_.n == 883
    assert_kernel_matches_references(sys_)


def layered_system(succ, seed, drop=False):
    """Two copies t_i, b_i of a discrete space with b_i in the closure of
    t_i, and the map i -> succ[i] on each copy, or with drop=True from the
    top copy into the bottom one.  The points are listed in a seeded order,
    so the walk along the map enters its paths and cycles anywhere."""
    k = len(succ)
    points = [f"{layer}{i}" for layer in "tb" for i in range(k)]
    random.Random(seed).shuffle(points)
    mapping = {f"b{i}": f"b{j}" for i, j in enumerate(succ)}
    mapping.update({f"t{i}": f"{'b' if drop else 't'}{j}" for i, j in enumerate(succ)})
    return build_system(points, [(f"b{i}", f"t{i}") for i in range(k)], mapping)


TAIL_INTO_CYCLE = [i + 1 for i in range(79)] + [40]  # 40-point tail, 40-cycle
DISJOINT_CYCLES = [start + (i + 1) % length
                   for start, length in ((0, 1), (1, 2), (3, 3), (6, 5), (11, 8), (19, 13))
                   for i in range(length)]
FIXED_POINT_IN_TREES = [0] + [(i - 1) // 2 for i in range(1, 64)] + \
    [0] + [i - 1 for i in range(65, 105)]  # a binary in-tree and a 40-chain


@pytest.mark.parametrize("succ", [TAIL_INTO_CYCLE, DISJOINT_CYCLES,
                                  FIXED_POINT_IN_TREES],
                         ids=["tail-into-cycle", "disjoint-cycles", "in-trees"])
@pytest.mark.parametrize("drop", [False, True])
def test_aorb0_masks_match_per_point_on_long_paths_and_cycles(succ, drop):
    for seed in range(3):
        sys_ = layered_system(succ, seed, drop)
        want = per_point_aorb0(sys_)
        assert aorb0_masks(sys_) == want
        assert sorb0_partition(sys_).same_blocks(
            quadratic_generated_partition(sys_.space, list(want)))


def test_aorb0_masks_settle_a_cycle_as_a_whole():
    sys_ = layered_system(DISJOINT_CYCLES, 0)
    space = sys_.space
    eight = space.pointset([f"{layer}{i}" for layer in "tb" for i in range(11, 19)])
    assert aorb0(sys_, "t11").mask == eight.mask
    assert aorb0(sys_, "b11").mask == eight.mask
    assert sorb0_partition(sys_).num_classes == 6


def test_decompose_of_a_tail_into_a_long_cycle_pinned(tmp_path):
    dump, out = tmp_path / "system.json", tmp_path / "decompose.json"
    dump.write_text(json.dumps(system_payload(layered_system(TAIL_INTO_CYCLE, 0))))
    assert main(["decompose", str(dump), "--out", str(out)]) == 0
    assert pins.sha256(out) == pins.TAIL_INTO_CYCLE_DECOMPOSE_SHA256


# ---------- per-point enumerations, the references for the all-points ones


def per_point_reference_intersection(sys_, mode, i, p=None):
    """Reference: the enumeration for point i alone, intersecting its closed
    invariant neighborhoods ("base") or, over its open P-saturated
    neighborhoods U, the enumerated least closed P-saturated superset of U
    ("succ")."""
    space = sys_.space
    ui = space.up[i]
    acc = space.full_mask
    if mode == "base":
        for cand in range(1 << space.n):
            if cand & ui != ui:
                continue  # not a neighborhood of x
            if not space.is_closed_mask(cand):
                continue
            if sys_.map.image_mask(cand) & ~cand:
                continue
            acc &= cand
        return acc
    for cand in range(1 << space.n):
        if not cand >> i & 1:
            continue
        if not space.is_open_mask(cand) or not p.is_saturated_mask(cand):
            continue
        best = space.full_mask
        for sup in range(1 << space.n):
            if sup & cand == cand and space.is_closed_mask(sup) \
                    and p.is_saturated_mask(sup):
                best &= sup
        acc &= best
    return acc


def per_point_prolongation_reference(sys_, which, i):
    """Reference: D1 or D2 of point i, intersected over its open sets."""
    space = sys_.space

    def d1_of(mask):
        return space.closure_mask(sys_.map.orbit_mask(mask))

    acc = space.full_mask
    for cand in range(1 << space.n):
        if not cand >> i & 1 or not space.is_open_mask(cand):
            continue
        if which == "D1":
            acc &= d1_of(cand)
        else:
            union = 0
            cur = d1_of(cand)
            while cur & ~union:
                union |= cur
                cur = d1_of(cur)
            acc &= space.closure_mask(union)
    return acc


def assert_all_points_references_match(sys_):
    """Each all-points reference equals the per-point enumeration, "succ" on
    each distinct trace partition and on the identity partition, whose
    classes, unlike the trace's, need not be clopen."""
    points = range(sys_.n)
    assert reference_intersection(sys_, "base") == \
        tuple(per_point_reference_intersection(sys_, "base", i) for i in points)
    partitions = {part.classes: part for _, part in stabilize(sys_).entries}
    partitions[None] = Partition.identity(sys_.space)
    for p in partitions.values():
        assert reference_intersection(sys_, "succ", p) == \
            tuple(per_point_reference_intersection(sys_, "succ", i, p) for i in points)
    d1, d2 = prolongation_reference(sys_)
    assert d1 == tuple(per_point_prolongation_reference(sys_, "D1", i) for i in points)
    assert d2 == tuple(per_point_prolongation_reference(sys_, "D2", i) for i in points)


def test_all_points_references_match_per_point_on_census():
    for n in range(1, 5):
        for sys_ in enumerate_systems(n):
            assert_all_points_references_match(sys_)


@pytest.mark.parametrize("n", [5, 6, 7, SUCC_REFERENCE_BOUND])
def test_all_points_references_match_per_point_on_random_systems(n):
    for sys_ in random_systems(n, 40 >> (n - 5), seed=2000 + n):
        assert_all_points_references_match(sys_)


# -------------------------------------------------------------- quotient


def test_quotient_identity_partition_isomorphic():
    sys_ = chain("abc")
    q = quotient(sys_, Partition.identity(sys_.space))
    assert q.quotient.space.points == sys_.space.points
    assert q.quotient.space.up == sys_.space.up
    assert q.quotient.map.img == sys_.map.img


def test_quotient_one_class():
    sys_ = discrete_swap_plus_fixed()
    q = quotient(sys_, one_class(sys_.space))
    assert q.quotient.space.n == 1


def test_quotient_swap_two_point_discrete():
    sys_ = discrete_swap_plus_fixed()
    tr = stabilize(sys_)
    q = quotient(sys_, tr.stationary_partition)
    assert q.quotient.space.n == 2
    assert is_discrete(q.quotient.space)
    assert all(q.quotient.map(p) == p for p in q.quotient.space.points)
    # commuting square: projection after map equals induced map after projection
    for x in sys_.space.points:
        assert q.projection[sys_.map(x)] == q.quotient.map(q.projection[x])


def test_quotient_requires_invariant_classes():
    sys_ = discrete_swap_plus_fixed()
    with pytest.raises(InvarianceError):
        quotient(sys_, Partition.from_masks(sys_.space, [0b001, 0b110]))


# ------------------------------------------------------- oracle / ergodic


def fixed_space_dimension_linear_oracle(sys_):
    """Independent oracle: dimension of {f : f constant on comparable
    pairs, f = f after the map} by Gaussian elimination over Q."""
    space = sys_.space
    n = space.n
    rows = []
    for i in range(n):
        j = sys_.map.img[i]
        if i != j:
            row = [Fraction(0)] * n
            row[i], row[j] = Fraction(1), Fraction(-1)
            rows.append(row)
        for j in range(n):
            if i != j and space.up[i] >> j & 1:
                row = [Fraction(0)] * n
                row[i], row[j] = Fraction(1), Fraction(-1)
                rows.append(row)
    rank = 0
    col = 0
    while rows and col < n:
        pivot = next((r for r in rows if r[col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows.remove(pivot)
        rows = [
            [rv - r[col] / pivot[col] * pv for rv, pv in zip(r, pivot)]
            if r[col] != 0 else r
            for r in rows
        ]
        rank += 1
        col += 1
    return n - rank


def test_oracle_cycle_rotation_dimension():
    sys_ = discrete_cycle(6, 2)
    assert oracle_partition(sys_).num_classes == 2
    assert dim_fix(sys_) == fixed_space_dimension_linear_oracle(sys_) == 2


def test_oracle_sierpinski_one_class():
    for kind in ("id", "const_a", "const_b"):
        sys_ = sierpinski(kind)
        assert oracle_partition(sys_).num_classes == 1
        assert fixed_space_dimension_linear_oracle(sys_) == 1


def test_oracle_niedex_like():
    sys_ = niedex_like()
    assert oracle_partition(sys_).num_classes == 1
    assert fixed_space_dimension_linear_oracle(sys_) == 1


def test_ergodic_examples():
    assert is_topologically_ergodic(sierpinski("const_a"))
    assert not is_topologically_ergodic(discrete_swap_plus_fixed())
    assert is_topologically_ergodic(discrete_cycle(6, 1))


# --------------------------------------------------------- prolongations


def test_prolongation_sierpinski():
    sys_ = sierpinski("id")
    assert members(prolongation_D1(sys_, "b")) == {"a", "b"}


def test_prolongations_match_orbits_small():
    for sys_ in (sierpinski("id"), discrete_swap_plus_fixed(), chain("abc"),
                 discrete_cycle(5, 2), niedex_like(2, 3)):
        for x in sys_.space.points:
            d1 = prolongation_D1(sys_, x)
            assert d1.mask == aorb0(sys_, x).mask
            assert prolongation_D2(sys_, x).mask == d1.mask
            if sys_.n <= 8:
                direct_d1, direct_d2 = prolongation_reference(sys_)
                i = sys_.space.idx(x)
                assert direct_d1[i] == direct_d2[i] == d1.mask
