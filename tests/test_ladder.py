import pytest

from fixfactor.cli import main
from fixfactor.errors import (
    DegreeCapError,
    DepthError,
    FixfactorError,
    LocatorError,
    TermError,
)
from fixfactor.ladder import (
    build_ladder,
    ladder_aorb0,
    ladder_trace,
    parse_term,
    term_interior_merge,
    term_stab,
    window,
)
from fixfactor.ladder import sets
from fixfactor.ladder.sets import ladder_aorb0_addr
from fixfactor.ladder.space import TOP
from fixfactor.ladder.terms import BLOCK_INDEX_CAP, NESTING_CAP, cat_power
from fixfactor.ordinals import OMEGA, OrdinalCNF, parse_ordinal
from references import shift_relabel_aorb0_json

W2 = parse_ordinal("w*2")


def comp_kinds(result):
    return sorted(
        (c["kind"], c.get("at") or c.get("region"))
        for c in result.to_json()["components"]
    )


# ------------------------------------------------------------- parsing


def test_parse_terms():
    assert str(parse_term("strand")) == "strand"
    assert str(parse_term("cat(strand)")) == "cat(strand)"
    assert str(parse_term("cat(cat(strand))")) == "cat(cat(strand))"
    assert str(parse_term("ramp")) == "ramp"
    assert str(parse_term("cat(ramp)")) == "cat(ramp)"


def test_parse_term_errors():
    with pytest.raises(TermError):
        parse_term("catt(strand)")
    with pytest.raises(TermError):
        parse_term("cat(strand")
    with pytest.raises(TermError):
        parse_term("strandx")
    with pytest.raises(DepthError):
        parse_term("cat(" * 7 + "strand" + ")" * 7)


def test_nesting_cap_enforced_while_parsing():
    # the deepest accepted terms, then the first refused ones
    assert str(parse_term("cat(" * NESTING_CAP + "strand" + ")" * NESTING_CAP)) \
        == "cat(" * NESTING_CAP + "strand" + ")" * NESTING_CAP
    parse_term("cat(" * (NESTING_CAP - 1) + "ramp" + ")" * (NESTING_CAP - 1))
    with pytest.raises(DepthError):
        parse_term("cat(" * NESTING_CAP + "ramp" + ")" * NESTING_CAP)
    # far deeper than the interpreter's recursion limit
    with pytest.raises(DepthError):
        parse_term("cat(" * 1200 + "strand" + ")" * 1200)


def block_locator(m: int) -> str:
    """The base point of ramp block m: B<m>/, then m chain prefixes."""
    return f"B{m}/" + "K0/" * m + "c:0"


def test_block_index_cap():
    sp = build_ladder("ramp")
    deepest = block_locator(BLOCK_INDEX_CAP)
    assert ladder_aorb0(sp, deepest).contains(sp.parse_locator(deepest))
    with pytest.raises(DepthError):
        sp.parse_locator(block_locator(BLOCK_INDEX_CAP + 1))
    with pytest.raises(DepthError):
        sp.parse_locator("B990/A")
    with pytest.raises(LocatorError):
        sp.parse_locator("B-5/A")


def test_stabilization_bookkeeping():
    assert term_stab(parse_term("strand")) == OrdinalCNF.from_int(0)
    assert term_stab(parse_term("cat(strand)")) == OrdinalCNF.from_int(1)
    assert term_stab(cat_power(3)) == OrdinalCNF.from_int(3)
    assert term_stab(parse_term("ramp")) == OMEGA.successor()
    assert term_stab(parse_term("cat(ramp)")) == parse_ordinal("w+2")
    assert term_interior_merge(parse_term("ramp")) == OMEGA
    assert term_interior_merge(parse_term("cat(ramp)")) == OMEGA.successor()


# ----------------------------------------------------------------- aorb0


def test_strand_aorb0_repelling_endpoint_whole_space():
    sp = build_ladder("strand")
    got = ladder_aorb0(sp, "R")
    assert got.contains((("A",),))
    assert got.contains((("TOP",),))
    assert got.contains((("z", -17),)) and got.contains((("z", 23),))


def test_strand_aorb0_attracting_endpoint_singleton():
    sp = build_ladder("strand")
    got = ladder_aorb0(sp, "A")
    assert got.contains((("A",),))
    assert not got.contains((("z", 0),)) and not got.contains((("TOP",),))


def test_strand_aorb0_orbit_point_closed_orbit():
    sp = build_ladder("strand")
    got = ladder_aorb0(sp, "z:2")
    assert got.contains((("z", 2),)) and got.contains((("z", 100),))
    assert not got.contains((("z", 1),))
    assert got.contains((("A",),)) and not got.contains((("TOP",),))


def test_cat_strand_aorb0_generic_chain_point():
    sp = build_ladder("cat(strand)")
    got = ladder_aorb0(sp, "c:m")
    names = {(c["kind"], c.get("at") or c.get("region"), c.get("profile"))
             for c in got.to_json()["components"]}
    assert names == {
        ("point", "c:m", None),
        ("point", "c:m-1", None),
        ("strand", "S:m", "all"),
    }


def test_cat_strand_aorb0_concrete_chain_point():
    sp = build_ladder("cat(strand)")
    got = ladder_aorb0(sp, "c:3")
    assert got.contains((("copy", 3), ("A",)))
    assert got.contains((("copy", 2), ("A",)))
    assert got.contains((("copy", 2), ("z", -9),))
    assert not got.contains((("copy", 1), ("A",)))
    assert not got.contains((("copy", 3), ("z", 0),))


def test_cat_strand_aorb0_base_and_top():
    sp = build_ladder("cat(strand)")
    base = ladder_aorb0(sp, "c:0")
    assert comp_kinds(base) == [("point", "c:0")]
    top = ladder_aorb0(sp, "top")
    assert comp_kinds(top) == [("point", "top")]


def test_ramp_aorb0_glue_point_singleton():
    sp = build_ladder("ramp")
    got = ladder_aorb0(sp, "B1/K0/c:0")
    assert comp_kinds(got) == [("point", "B1/K0/c:0")]


def test_ramp_aorb0_inner_chain_point():
    sp = build_ladder("ramp")
    got = ladder_aorb0(sp, "B0/c:1")
    assert got.contains((("block", 0), ("copy", 0), ("A",)))
    assert got.contains((("block", 0), ("copy", 1), ("A",)))
    assert got.contains((("block", 0), ("copy", 0), ("z", 5)))
    assert not got.contains((("block", 1), ("copy", 0), ("copy", 0), ("A",)))


def test_locator_errors():
    sp = build_ladder("cat(strand)")
    with pytest.raises(LocatorError):
        ladder_aorb0(sp, "q:1")
    with pytest.raises(LocatorError):
        ladder_aorb0(sp, "S:0:1")
    with pytest.raises(LocatorError):
        build_ladder("ramp").parse_locator("B1/c:0")



@pytest.mark.parametrize("fault", ["extra component", "shift by two"])
@pytest.mark.parametrize("term,locator", [
    ("cat(strand)", "c:m"),
    ("cat(ramp)", "K2/B1/K0/c:m"),
    ("cat(cat(ramp))", "K0/K0/B1/K1/S:1:m"),
])
def test_generic_answer_that_is_not_a_shift_is_refused(monkeypatch, capsys, term,
                                                        locator, fault):
    # a generic answer is read off the concrete answers at m = 4 and m = 5;
    # break the one at m = 5 and the query must be refused, not relabeled
    real = sets.ladder_aorb0_addr

    def breaks_at_five(space, addr):
        name = space.render(addr)
        if not name.endswith(":5"):
            return real(space, addr)
        if fault == "shift by two":
            return real(space, space.parse_locator(name[:-1] + "6"))
        out = real(space, addr)
        out.pts.add(TOP)
        return out

    monkeypatch.setattr(sets, "ladder_aorb0_addr", breaks_at_five)
    with pytest.raises(LocatorError, match="not uniform in the generic index"):
        ladder_aorb0(build_ladder(term), locator)
    assert main(["ladder", term, "--aorb0", locator]) == 2
    assert capsys.readouterr().err.startswith("error[E_LOCATOR]")


@pytest.mark.parametrize("text,generic", [
    ("c:m", True), ("K0/B1/K0/c:m", True), ("S:1:m", True), (":m", True),
    ("K0/m", False), ("m", False), ("c:3/m", False), ("c:4", False), ("c:mm", False),
])
def test_a_locator_is_generic_when_sets_subst_replaces_an_m(text, generic):
    # the generic index is the text after the last colon, which _subst replaces
    assert sets._has_generic(text) is generic
    if generic:
        assert sets._subst(text, 4) == text[:-1] + "4"


SWEEP_TERMS = ("strand", "cat(strand)", "cat(cat(strand))", "cat(cat(cat(strand)))",
               "ramp", "cat(ramp)", "cat(cat(ramp))")


def sweep_locators(space) -> list[str]:
    """Every name of the (4,3) window that spells a number, and the generic
    locator that puts m in place of its last index."""
    names = {n for n in window(space, 4, 3).names if n[-1].isdigit()}
    return sorted(names | {n.rpartition(":")[0] + ":m" for n in names})


def verdict(answer, space, locator):
    try:
        return answer(space, locator)
    except FixfactorError as exc:
        return type(exc).__name__, str(exc)


def test_aorb0_matches_shift_relabel_reference_on_window_sweep():
    # the generic answer read off two renderings against the earlier
    # address-shift check and per-position relabel, answer and refusal alike
    count = 0
    for term in SWEEP_TERMS:
        space = build_ladder(term)
        for loc in sweep_locators(space):
            got = verdict(lambda sp, lc: ladder_aorb0(sp, lc).to_json(), space, loc)
            assert got == verdict(shift_relabel_aorb0_json, space, loc), (term, loc)
            count += 1
    assert count == 2311

# ----------------------------------------------------------------- traces


def test_strand_trace_trivial():
    tr = ladder_trace(build_ladder("strand"), W2)
    assert tr.stabilization_degree == OrdinalCNF.from_int(0)
    assert tr.partition_at(0).class_count() == 1


def test_cat_strand_trace():
    tr = ladder_trace(build_ladder("cat(strand)"), W2)
    assert tr.stabilization_degree == OrdinalCNF.from_int(1)
    p0 = tr.partition_at(0)
    assert p0.class_count() == 2
    finite_a = (("copy", 0), ("A",))
    finite_b = (("copy", 4), ("z", -2))
    top = (("TOP",),)
    assert p0.same_class(finite_a, finite_b)
    assert not p0.same_class(finite_a, top)
    p1 = tr.partition_at(1)
    assert p1.class_count() == 1
    assert p1.same_class(finite_a, top)


def block_base(n):
    return (("block", n),) + tuple([("copy", 0)] * (n + 1)) + (("A",),)


def test_ramp_trace_blocks_merge_degree_by_degree():
    tr = ladder_trace(build_ladder("ramp"), W2)
    assert tr.stabilization_degree == OMEGA.successor()
    base = block_base(0)
    top = (("TOP",),)
    for n in range(6):
        p = tr.partition_at(n)
        assert p.same_class(base, block_base(n)), n
        assert not p.same_class(base, block_base(n + 1)), n
        assert not p.same_class(base, top), n
        assert p.class_count() is None or p.class_count() >= 2
    p_lim = tr.partition_at(OMEGA)
    assert p_lim.class_count() == 2
    assert p_lim.same_class(base, block_base(7))
    assert not p_lim.same_class(base, top)
    assert tr.partition_at(OMEGA.successor()).class_count() == 1


def test_ramp_blocks_do_not_leak_forward():
    # within degree n, a block beyond n+1 still shows internal structure
    tr = ladder_trace(build_ladder("ramp"), W2)
    p1 = tr.partition_at(1)
    inner_a = (("block", 3),) + tuple([("copy", 0)] * 4) + (("A",),)
    inner_b = (("block", 3), ("copy", 1)) + tuple([("copy", 0)] * 3) + (("A",),)
    assert not p1.same_class(inner_a, inner_b)


def test_cat_ramp_trace_at_limit():
    tr = ladder_trace(build_ladder("cat(ramp)"), W2)
    assert tr.stabilization_degree == parse_ordinal("w+2")
    a0 = (("copy", 0), ("block", 0), ("copy", 0), ("A",))
    a1 = (("copy", 1), ("block", 0), ("copy", 0), ("A",))
    top = (("TOP",),)
    p_lim = tr.partition_at(OMEGA)
    assert not p_lim.same_class(a0, a1)
    assert not p_lim.same_class(a0, top)
    p_next = tr.partition_at(OMEGA.successor())
    assert p_next.same_class(a0, a1)
    assert not p_next.same_class(a0, top)
    assert tr.partition_at(parse_ordinal("w+2")).class_count() == 1


def test_trace_degree_cap_error():
    with pytest.raises(DegreeCapError):
        ladder_trace(build_ladder("ramp"), OrdinalCNF.from_int(5))


def test_trace_monotone_and_last_two_equal():
    for term in ("strand", "cat(strand)", "cat(cat(strand))", "ramp", "cat(ramp)"):
        tr = ladder_trace(build_ladder(term), W2)
        degrees = [d for d, _ in tr.entries]
        assert degrees == sorted(degrees)
        last, prev = tr.entries[-1], tr.entries[-2]
        assert last[0] > tr.stabilization_degree or last[0] == tr.stabilization_degree
        # the final two entries witness stationarity
        probe = [block_base(0) if term.startswith("ramp") else
                 (("A",),) if term == "strand" else None]
        assert prev[1].class_count() == last[1].class_count() == 1


def test_cat_power_trace_degrees():
    # each concatenation layer adds exactly one successor step
    for k in range(4):
        tr = ladder_trace(build_ladder(str(cat_power(k)) if k else "strand"), W2)
        assert tr.stabilization_degree == OrdinalCNF.from_int(k)


def test_aorb0_agrees_with_degree0_keys_on_samples():
    # membership of base orbits is compatible with the degree-0 classes:
    # each base orbit lies inside one class
    for term in ("cat(strand)", "ramp"):
        sp = build_ladder(term)
        tr = ladder_trace(sp, W2)
        p0 = tr.partition_at(0)
        probes = {
            "cat(strand)": ["c:0", "c:2", "S:1:0", "top"],
            "ramp": ["B0/c:0", "B0/c:1", "B0/S:1:2", "B1/K0/c:0", "top"],
        }[term]
        for loc in probes:
            addr = sp.parse_locator(loc)
            orbit = ladder_aorb0_addr(sp, addr)
            key = p0.key_of(addr)
            for other in probes:
                other_addr = sp.parse_locator(other)
                if orbit.contains(other_addr):
                    assert p0.key_of(other_addr) == key
