import pytest
from hypothesis import example, given, settings, strategies as st

from fixfactor.errors import OrdinalError
from fixfactor.ordinals import OMEGA, OrdinalCNF, format_ordinal, parse_ordinal


def test_parse_zero():
    assert parse_ordinal("0") == OrdinalCNF()


def test_parse_omega_plus_one():
    assert parse_ordinal("w+1").terms == ((1, 1), (0, 1))


def test_parse_grammar_oracle():
    # grammar oracle: construct the expected CNF term by term
    assert parse_ordinal("w^2+w*3+2").terms == ((2, 1), (1, 3), (0, 2))


@pytest.mark.parametrize("text", [
    "", "w^1", "w^0", "w*1", "1+w", "w+w", "w^2*0", "2+3", "x", "w^-1", "w+0",
    # naturals longer than ``int`` converts
    "9" * 5000, "w^" + "9" * 5000, "w*" + "9" * 5000,
])
def test_parse_rejects_noncanonical(text):
    with pytest.raises(OrdinalError):
        parse_ordinal(text)


def test_compare_omega_vs_finite():
    assert OMEGA > OrdinalCNF.from_int(5)
    assert OrdinalCNF.from_int(5) < OMEGA


def test_successor_and_limits():
    assert format_ordinal(OMEGA.successor()) == "w+1"
    assert format_ordinal(parse_ordinal("w*2").successor()) == "w*2+1"
    assert parse_ordinal("w+2").successor() == parse_ordinal("w+3")
    assert OrdinalCNF().successor() == OrdinalCNF.from_int(1)


ordinals = st.lists(
    st.tuples(st.integers(0, 4), st.integers(1, 9)), max_size=4
).map(
    lambda pairs: OrdinalCNF(tuple(sorted({e: c for e, c in pairs}.items(),
                                          reverse=True)))
)


@settings(max_examples=200, derandomize=True)
@given(ordinals)
def test_roundtrip(o):
    assert parse_ordinal(format_ordinal(o)) == o


@settings(max_examples=200, derandomize=True)
@given(ordinals, ordinals, ordinals)
def test_total_order_laws(a, b, c):
    assert (a < b) + (a == b) + (b < a) == 1
    if a < b and b < c:
        assert a < c


@settings(max_examples=200, derandomize=True)
@given(ordinals, ordinals)
@example(OrdinalCNF(), OrdinalCNF.from_int(1))
@example(OMEGA, parse_ordinal("w+1"))
@example(parse_ordinal("w^2+w*3+2"), parse_ordinal("w^2+w*3+3"))
def test_successor_is_tight(o, b):
    s = o.successor()
    assert o < s
    # nothing strictly between: anything above o is at least s
    if o < b:
        assert s <= b
