"""Exact dyadic scalar arithmetic and canonical form."""

from __future__ import annotations

import operator
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirmax.dyadic import DyadicRational as D


def test_canonical_form():
    assert (D(4, 2).num, D(4, 2).exp) == (1, 0)
    assert (D(6, 1).num, D(6, 1).exp) == (3, 0)
    assert (D(0, 7).num, D(0, 7).exp) == (0, 0)
    assert (D(12, 0).num, D(12, 0).exp) == (12, 0)  # even integers stay at exp 0
    assert (D(5, 3).num, D(5, 3).exp) == (5, 3)
    # negative exponent folds into the numerator
    assert D(3, -2) == D(12)


def _canonical_by_bits(num: int, exp: int) -> tuple[int, int]:
    """The canonical form by the definition: halve while even and exp > 0."""
    if exp < 0:
        num, exp = num << -exp, 0
    if num == 0:
        return 0, 0
    while exp > 0 and num & 1 == 0:
        num, exp = num >> 1, exp - 1
    return num, exp


def test_canonical_form_of_a_long_run_of_zero_bits():
    x = D(3 << 5000, 6000)
    assert (x.num, x.exp) == (3, 1000)
    assert (D(-3 << 5000, 4000).num, D(-3 << 5000, 4000).exp) == (-3 << 1000, 0)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    base=st.integers(-(1 << 80), 1 << 80),
    zeros=st.integers(0, 200),
    exp=st.integers(-40, 260),
)
def test_canonical_form_matches_bitwise_halving(base, zeros, exp):
    num = base << zeros
    x = D(num, exp)
    assert (x.num, x.exp) == _canonical_by_bits(num, exp)


def test_arithmetic_exact():
    a, b = D(3, 2), D(5, 4)  # 3/4, 5/16
    assert a + b == D(17, 4)
    assert a - b == D(7, 4)
    assert a * b == D(15, 6)
    assert -a == D(-3, 2)
    assert abs(D(-3, 2)) == a
    assert a + 1 == D(7, 2)
    assert 2 * a == D(3, 1)


def test_division_exact_or_raises():
    assert D(3, 2) / D(1, 4) == D(12)  # (3/4) / (1/16)
    assert D(1) / D(4) == D(1, 2)
    with pytest.raises(ValueError):
        D(1) / D(3)
    with pytest.raises(ZeroDivisionError):
        D(1) / D(0)


def test_ordering_and_fraction_interop():
    assert D(1, 1) < D(3, 2) < D(1)
    assert D(1, 1) <= Fraction(1, 2) <= D(1, 1)
    assert D(1, 3) == Fraction(1, 8)
    assert D(1, 3) < Fraction(1, 3)
    assert sorted([D(3, 2), D(1, 3), D(1)]) == [D(1, 3), D(3, 2), D(1)]


def _operand_pairs(bound: int, exps: tuple[int, int]):
    """(DyadicRational, DyadicRational | int | Fraction) pairs; a small bound makes ties common."""
    dyadic = st.builds(D, st.integers(-bound, bound), st.integers(*exps))
    other = st.one_of(
        dyadic,
        st.integers(-bound, bound),
        st.builds(Fraction, st.integers(-bound, bound), st.integers(1, bound)),
        dyadic.map(D.as_fraction),
    )
    return st.tuples(dyadic, other)


_COMPARISONS = (operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne)


def _exact(x) -> Fraction:
    return x.as_fraction() if isinstance(x, D) else Fraction(x)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(pair=st.one_of(_operand_pairs(8, (-2, 4)), _operand_pairs(1 << 70, (-8, 80))))
def test_comparisons_match_fraction_in_both_orders(pair):
    a, b = pair
    for op in _COMPARISONS:
        assert op(a, b) is op(_exact(a), _exact(b))
        assert op(b, a) is op(_exact(b), _exact(a))


def test_order_comparisons_reject_float_and_str():
    for other in (0.5, 1.0, "1"):
        for op in _COMPARISONS[:4]:
            with pytest.raises(TypeError):
                op(D(1), other)
            with pytest.raises(TypeError):
                op(other, D(1))
    assert D(1, 1).__lt__(0.5) is NotImplemented


def test_parse_render_round_trip():
    rng = random.Random(0)
    for _ in range(300):
        x = D(rng.randrange(-500, 500), rng.randrange(0, 12))
        assert D.parse(x.render()) == x
    assert D.parse("7/2^3") == D(7, 3)
    assert D.parse("-7/2^3") == D(-7, 3)
    assert D.parse("42") == D(42)
    with pytest.raises(ValueError):
        D.parse("1/3")


def test_fraction_round_trip():
    x = D(11, 5)
    assert D.from_fraction(x.as_fraction()) == x
    with pytest.raises(ValueError):
        D.from_fraction(Fraction(1, 3))


def test_immutability_and_hash():
    x = D(3, 1)
    with pytest.raises(AttributeError):
        x.num = 5
    assert len({D(3, 1), D(6, 2), D(12, 3)}) == 1


def test_numpy_integers_are_stored_as_python_ints():
    # a numpy numerator would wrap on the shifts of add and of hash
    x = D(np.int64(3))
    assert (type(x.num), type(x.exp)) == (int, int)
    assert x + D(1, 70) == D((3 << 70) + 1, 70)
    assert hash(x) == hash(3)
    assert D(np.int64(4), np.int32(1)) == D(2)
    assert D(np.uint8(5), np.int64(70)) - D(5, 70) == 0
    for bad in ((3.0,), (3, 1.0), (Fraction(3),)):
        with pytest.raises(TypeError):
            D(*bad)


def test_hash_agrees_with_fraction_and_int():
    assert len({D(1, 1), Fraction(1, 2)}) == 1
    assert len({D(2), 2}) == 1
    big = (1 << 200) + 12345
    for n, e in ((-7, 3), (-1, 0), (0, 0), (0, 9), (5, 0), (big, 0), (big, 70), (-big, 150)):
        assert hash(D(n, e)) == hash(Fraction(n, 2**e))
    assert hash(D(-1)) == hash(-1) == -2
    assert hash(D(big)) == hash(big)


def test_equality_with_float_is_exact():
    # as Fraction compares a float: by its exact binary value, both ways
    assert D(1) == 1.0 and 1.0 == D(1)
    assert D(1, 3) == 0.125 and 0.125 == D(1, 3)
    assert D(1, 3) != 0.1 and D(-3, 2) == -0.75
    assert D(0) != float("nan") and not D(0) == float("nan")
    assert D(1 << 80) == float(1 << 80) and D(1) != float("inf")
    # the hash already is Python's numeric hash, so sets and dicts agree
    assert 0.5 in {D(1, 1)} and D(1, 1) in {0.5}
    assert {D(1, 1): 1}[0.5] == 1
