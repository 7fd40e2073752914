import pytest
from hypothesis import given, settings, strategies as st

from fixfactor.errors import OrdinalError
from fixfactor.ordinals import OMEGA, OrdinalCNF, format_ordinal, parse_ordinal


def test_parse_zero():
    assert parse_ordinal("0") == OrdinalCNF()
    assert parse_ordinal("0").is_zero()


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
    assert OMEGA.is_limit()
    assert parse_ordinal("w*2").is_limit()
    assert not parse_ordinal("w+3").is_limit()
    assert parse_ordinal("w+3").is_successor()
    assert not OrdinalCNF().is_limit() and not OrdinalCNF().is_successor()


def test_predecessor():
    assert parse_ordinal("w+3").predecessor() == parse_ordinal("w+2")
    assert OrdinalCNF.from_int(1).predecessor().is_zero()
    with pytest.raises(OrdinalError):
        OMEGA.predecessor()


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
@given(ordinals)
def test_successor_is_tight(o):
    s = o.successor()
    assert o < s
    assert s.is_successor()
    assert s.predecessor() == o
    # nothing strictly between: anything below s is <= o
    assert not (o < s.predecessor())


@settings(max_examples=200, derandomize=True)
@given(ordinals)
def test_zero_successor_limit_trichotomy(o):
    assert o.is_zero() + o.is_successor() + o.is_limit() == 1
