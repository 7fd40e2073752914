import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from fixfactor.census import enumerate_preorders, enumerate_systems
from fixfactor.decomposition import Partition, comparability_partition
from fixfactor.errors import ContinuityError, UnknownNameError
from fixfactor.systems import chain, sierpinski
from fixfactor.topology import (
    build_space,
    closure,
    interior,
    is_discrete,
    minimal_open,
    space_from_up_masks,
    validate_map,
)
from references import (
    comparability_components,
    per_point_specialization_pairs,
    per_point_validate_map,
    random_generator_up_masks,
    random_systems,
)


def members(ps):
    return set(ps.members())


def test_build_sierpinski():
    space = build_space(["a", "b"], [("a", "b")])
    assert members(closure(space, space.pointset(["b"]))) == {"a", "b"}
    assert members(closure(space, space.pointset(["a"]))) == {"a"}


def test_build_discrete():
    space = build_space(["a", "b", "c"], [])
    assert is_discrete(space)
    for p in space.points:
        assert members(minimal_open(space, p)) == {p}


def test_build_chain_transitive_closure_oracle():
    space = build_space(["a", "b", "c"], [("a", "b"), ("b", "c")])
    # oracle: boolean matrix powering of the generator relation
    n = 3
    mat = [[i == j for j in range(n)] for i in range(n)]
    for x, y in [("a", "b"), ("b", "c")]:
        mat[space.idx(x)][space.idx(y)] = True
    for _ in range(n):
        mat = [
            [any(mat[i][k] and mat[k][j] for k in range(n)) or mat[i][j]
             for j in range(n)]
            for i in range(n)
        ]
    for i in range(n):
        for j in range(n):
            assert bool(space.up[i] >> j & 1) == mat[i][j]
    assert members(closure(space, space.pointset(["c"]))) == {"a", "b", "c"}


def test_build_space_errors():
    with pytest.raises(UnknownNameError):
        build_space(["a", "a"], [])
    with pytest.raises(UnknownNameError):
        build_space(["a"], [("a", "zz")])
    with pytest.raises(UnknownNameError):
        build_space([], [])


def test_closure_downset_enumeration_oracle():
    space = chain("abc").space
    # oracle: enumerate all down-sets containing {b}, take the least
    target = {"b"}
    best = None
    for r in range(1, 4):
        for combo in itertools.combinations(space.points, r):
            s = set(combo)
            if not target <= s:
                continue
            if all(
                (space.points[i] in s)
                for p in s
                for i in range(3)
                if space.up[i] >> space.idx(p) & 1
            ):
                if best is None or len(s) < len(best):
                    best = s
    got = members(closure(space, space.pointset(["b"])))
    assert got == best == {"a", "b"}


def test_closure_discrete_identity():
    space = build_space(["x", "y", "z"], [])
    s = space.pointset(["x", "z"])
    assert members(closure(space, s)) == {"x", "z"}


def test_minimal_open_sierpinski():
    space = sierpinski().space
    assert members(minimal_open(space, "a")) == {"a", "b"}
    assert members(minimal_open(space, "b")) == {"b"}


def test_interior_duality_oracle_on_chain():
    space = chain("abc").space
    full = set(space.points)
    # duality oracle: int S = K minus cl(K minus S), on every subset
    for r in range(0, 4):
        for combo in itertools.combinations(space.points, r):
            s = set(combo)
            comp = space.pointset(full - s)
            dual = full - members(closure(space, comp))
            assert members(interior(space, space.pointset(s))) == dual
    # the duality value for {a, b}: its complement {c} closes to everything
    assert members(interior(space, space.pointset(["a", "b"]))) == set()


def test_validate_map_constant_ok():
    space = sierpinski().space
    m = validate_map(space, {"a": "a", "b": "a"})
    assert m("b") == "a"


def test_validate_map_swap_witness():
    space = sierpinski().space
    with pytest.raises(ContinuityError) as exc:
        validate_map(space, {"a": "b", "b": "a"})
    assert exc.value.witness == ("a", "b")
    assert exc.value.code == "E_CONTINUITY"


def test_validate_map_rejects_a_single_non_reflexive_violation():
    # a < b and a < c, the rest isolated; only the pair (a, c) breaks:
    # a goes to a, c to the isolated d
    space = build_space(["p", "a", "b", "c", "d"], [("a", "b"), ("a", "c")])
    with pytest.raises(ContinuityError) as exc:
        validate_map(space, {"p": "p", "a": "a", "b": "b", "c": "d", "d": "d"})
    assert exc.value.witness == ("a", "c")


def test_validate_map_rejects_an_unknown_image():
    space = sierpinski().space
    with pytest.raises(UnknownNameError, match="unknown point 'zz'"):
        validate_map(space, {"a": "a", "b": "zz"})


def warshall_up_masks(n, pairs):
    """Reference: reflexive-transitive closure of the generator relation by
    Warshall's algorithm on a boolean matrix."""
    reach = [[i == j for j in range(n)] for i in range(n)]
    for i, j in pairs:
        reach[i][j] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    if reach[k][j]:
                        reach[i][j] = True
    return [sum(1 << j for j in range(n) if reach[i][j]) for i in range(n)]


def test_space_from_up_masks_matches_warshall():
    rng = random.Random(2024)
    for n in [1, 2, 3, 5, 8, 13, 21, 40]:
        for _ in range(12):
            up = random_generator_up_masks(rng, n)
            pairs = [(i, j) for i in range(n) for j in range(n) if up[i] >> j & 1]
            names = tuple(f"p{i}" for i in range(n))
            space = space_from_up_masks(names, up)
            want = warshall_up_masks(n, pairs)
            assert list(space.up) == want
            assert list(space.down) == [
                sum(1 << i for i in range(n) if want[i] >> j & 1) for j in range(n)]


def test_sierpinski_has_exactly_three_continuous_maps():
    space = sierpinski().space
    ok = 0
    for img in itertools.product(space.points, repeat=2):
        try:
            validate_map(space, dict(zip(space.points, img)))
            ok += 1
        except ContinuityError:
            pass
    assert ok == 3


def test_comparability_components():
    # comparability_partition is generated_partition on the minimal open
    # sets; the breadth-first search over the comparability graph is the
    # reference
    vee = build_space(["u", "p", "q"], [("p", "u"), ("q", "u")])
    spaces = [build_space(["a", "b", "c"], []), sierpinski().space, vee]
    spaces += [sp for n in range(1, 5) for sp in enumerate_preorders(n)]
    spaces += [s.space for n in (6, 7, 8) for s in random_systems(n, 100, seed=n)]
    for space in spaces:
        want = Partition.from_masks(space, comparability_components(space))
        assert comparability_partition(space).same_blocks(want)
    assert [comparability_partition(sp).num_classes for sp in spaces[:3]] == [3, 1, 1]


def test_is_discrete():
    assert is_discrete(build_space(["a", "b", "c"], []))
    assert not is_discrete(sierpinski().space)


def test_accepts_iff_preimages_of_upsets_are_upsets():
    # both directions, on all spaces with <= 3 points over a fixed universe
    names = ["a", "b", "c"]
    rel_pairs = [(x, y) for x in names for y in names if x != y]
    for bits in range(1 << len(rel_pairs)):
        space = build_space(
            names, [p for k, p in enumerate(rel_pairs) if bits >> k & 1]
        )
        for img in itertools.product(range(3), repeat=3):
            accepted = True
            try:
                validate_map(space, {names[i]: names[img[i]] for i in range(3)})
            except ContinuityError:
                accepted = False
            preimage_ok = True
            for u in range(8):
                if space.interior_mask(u) != u:
                    continue
                pre = 0
                for i in range(3):
                    if u >> img[i] & 1:
                        pre |= 1 << i
                if space.interior_mask(pre) != pre:
                    preimage_ok = False
                    break
            assert accepted == preimage_ok


subset_strategy = st.integers(min_value=0, max_value=255)


@settings(max_examples=150, derandomize=True)
@given(
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=8),
    subset_strategy,
    subset_strategy,
)
def test_kuratowski_laws_random_spaces(pairs, raw_s, raw_t):
    names = ["p0", "p1", "p2", "p3", "p4"]
    space = build_space(names, [(names[i], names[j]) for i, j in pairs])
    full = space.full_mask
    s, t = raw_s & full, raw_t & full
    cl = space.closure_mask
    assert cl(0) == 0
    assert cl(s) & ~full == 0 and s & ~cl(s) == 0          # extensive
    if s & ~t == 0:
        assert cl(s) & ~cl(t) == 0                          # monotone
    assert cl(cl(s)) == cl(s)                               # idempotent
    assert cl(s | t) == cl(s) | cl(t)                       # preserves unions
    assert space.interior_mask(s) == full & ~cl(full & ~s)  # de-Morgan dual


# ------------------------------------- the wide points against the per-point loops


def below_only_space():
    # q specializes p only: the one extra bit of the wide point q lies
    # below its own index, so up[1] >> 1 == 1 although up[1] != 1 << 1
    return build_space(["p", "q"], [("q", "p")])


def spaces_for_the_wide_loops():
    """Every preorder with at most 4 points, seeded random relations up to
    40 points, and the space whose wide point has bits only below it."""
    spaces = [below_only_space()]
    spaces += [sp for n in range(1, 5) for sp in enumerate_preorders(n)]
    rng = random.Random(4101)
    for n in [1, 2, 3, 5, 8, 13, 21, 40]:
        for _ in range(12):
            names = tuple(f"p{i}" for i in range(n))
            spaces.append(space_from_up_masks(names, random_generator_up_masks(rng, n)))
    return spaces


def test_wide_lists_the_points_wider_than_themselves():
    for space in spaces_for_the_wide_loops():
        assert space.wide == tuple(i for i, u in enumerate(space.up) if u != 1 << i)
        assert is_discrete(space) == all(u == 1 << i for i, u in enumerate(space.up))
    assert below_only_space().wide == (1,)


def test_specialization_pairs_match_the_per_point_loop():
    for space in spaces_for_the_wide_loops():
        assert space.specialization_pairs() == per_point_specialization_pairs(space)
    assert below_only_space().specialization_pairs() == [("q", "p")]


def validate_outcome(check, space, assignments):
    """The images an assignment is accepted with, or the refused pair."""
    try:
        out = check(space, assignments)
    except ContinuityError as e:
        return e.witness
    return out if isinstance(out, tuple) else out.img


def test_validate_map_matches_the_per_point_loop():
    # every map of every space with at most 3 points, the census maps of
    # 4 points, and on each random relation its identity, a constant map
    # and random maps, which are mostly refused
    rng = random.Random(4102)
    cases = [(sys_.space, sys_.map.img) for sys_ in enumerate_systems(4)]
    for space in spaces_for_the_wide_loops():
        n = space.n
        if n <= 3:
            cases += [(space, img) for img in itertools.product(range(n), repeat=n)]
        else:
            cases += [(space, tuple(range(n))), (space, (rng.randrange(n),) * n)]
            cases += [(space, tuple(rng.choices(range(n), k=n))) for _ in range(4)]
    refused = 0
    for space, img in cases:
        assignments = {p: space.points[j] for p, j in zip(space.points, img)}
        got = validate_outcome(validate_map, space, assignments)
        assert got == validate_outcome(per_point_validate_map, space, assignments)
        refused += got != img
    assert 0 < refused < len(cases)
    swap = {"p": "q", "q": "p"}
    assert validate_outcome(validate_map, below_only_space(), swap) == ("q", "p")
