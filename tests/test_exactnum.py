import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anharm2d.exactnum import HALF_SQRT2, ONE, ZERO, SqrtTwoRational


def test_arithmetic_closure_and_exactness():
    a = SqrtTwoRational(Fraction(1, 3), Fraction(-2, 7))
    b = SqrtTwoRational(Fraction(5, 2), Fraction(1, 7))
    total = a + b
    assert total.p == Fraction(1, 3) + Fraction(5, 2)
    assert total.q == Fraction(-2, 7) + Fraction(1, 7)
    prod = a * b
    # (p1 + q1 r)(p2 + q2 r) = p1 p2 + 2 q1 q2 + (p1 q2 + q1 p2) r
    assert prod.p == Fraction(1, 3) * Fraction(5, 2) + 2 * Fraction(-2, 7) * Fraction(1, 7)
    assert prod.q == Fraction(1, 3) * Fraction(1, 7) + Fraction(-2, 7) * Fraction(5, 2)
    assert (a - a).is_zero()
    assert -a + a == ZERO


def test_sqrt2_squares_to_two():
    r = SqrtTwoRational(0, 1)
    assert r * r == SqrtTwoRational(2)
    assert HALF_SQRT2 * HALF_SQRT2 == SqrtTwoRational(Fraction(1, 2))


def test_inverse_and_division():
    a = SqrtTwoRational(3, -1)  # 3 - sqrt(2)
    assert a * a.inverse() == ONE
    b = SqrtTwoRational(Fraction(1, 2), Fraction(5, 3))
    assert (a / b) * b == a
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_zero_iff_both_components_zero():
    assert SqrtTwoRational(0, 0).is_zero()
    assert not SqrtTwoRational(0, Fraction(1, 10**9)).is_zero()
    assert not SqrtTwoRational(Fraction(-1, 10**9), 0).is_zero()


@pytest.mark.parametrize(
    "p,q,expected",
    [
        (0, 0, 0),
        (3, 0, 1),
        (-3, 0, -1),
        (0, 2, 1),
        (0, -2, -1),
        (1, 1, 1),
        (-1, -1, -1),
        (3, -2, 1),  # 3 > 2 sqrt(2) = 2.828...
        (Fraction(28, 10), -2, -1),  # 2.8 < 2.828...
        (-3, 2, -1),
        (Fraction(-28, 10), 2, 1),
    ],
)
def test_exact_sign(p, q, expected):
    assert SqrtTwoRational(p, q).sign() == expected


def test_equality_hash_and_float():
    a = SqrtTwoRational(Fraction(1, 2), Fraction(1, 2))
    b = SqrtTwoRational(Fraction(2, 4), Fraction(3, 6))
    assert a == b and hash(a) == hash(b)
    assert SqrtTwoRational(5) == 5
    assert float(a) == pytest.approx(0.5 + 0.5 * math.sqrt(2.0), abs=1e-15)


@pytest.mark.parametrize("value", [0, 3, -7, 2**70, Fraction(5, 3), Fraction(-1, 10**13)])
def test_rational_values_hash_like_the_equal_int_or_fraction(value):
    x = SqrtTwoRational(value)
    assert x == value and hash(x) == hash(value)
    assert x in {value} and value in {x}


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        SqrtTwoRational.coerce(0.1)
    # the constructor too: Fraction(0.1) would be 3602879701896397/36028797018963968
    for bad in ((0.1,), (0, 0.1), (np.float64(0.5),), (1, np.float64(2.0))):
        with pytest.raises(TypeError):
            SqrtTwoRational(*bad)


def test_immutability():
    a = SqrtTwoRational(1, 2)
    with pytest.raises(AttributeError):
        a.p = Fraction(3)


# -- properties against a Fraction-pair oracle ---------------------------------


class _FractionPair:
    """p + q*sqrt(2) on two Fractions: the arithmetic SqrtTwoRational had before
    it stored three ints, kept here as the oracle."""

    def __init__(self, p, q=0):
        self.p, self.q = Fraction(p), Fraction(q)

    def __add__(self, other):
        return _FractionPair(self.p + other.p, self.q + other.q)

    def __neg__(self):
        return _FractionPair(-self.p, -self.q)

    def __mul__(self, other):
        return _FractionPair(self.p * other.p + 2 * self.q * other.q, self.p * other.q + self.q * other.p)

    def inverse(self):
        norm = self.p * self.p - 2 * self.q * self.q
        return _FractionPair(self.p / norm, -self.q / norm)

    def sign(self):
        if self.q == 0:
            return (self.p > 0) - (self.p < 0)
        if self.p == 0:
            return (self.q > 0) - (self.q < 0)
        if (self.p > 0) == (self.q > 0):
            return 1 if self.p > 0 else -1
        if self.p > 0:
            return 1 if self.p * self.p > 2 * self.q * self.q else -1
        return 1 if self.p * self.p < 2 * self.q * self.q else -1

    def __float__(self):
        return float(self.p) + float(self.q) * math.sqrt(2.0)

    def __hash__(self):
        return hash(self.p) if self.q == 0 else hash((self.p, self.q))

    def __repr__(self):
        if self.q == 0:
            return f"SqrtTwoRational({self.p})"
        return f"SqrtTwoRational({self.p}, {self.q})"

    def __str__(self):
        if self.q == 0:
            return str(self.p)
        if self.p == 0:
            return f"{self.q}*sqrt(2)"
        sign = "+" if self.q > 0 else "-"
        return f"{self.p} {sign} {abs(self.q)}*sqrt(2)"


# Wide fractions for the arithmetic; a small set, so that equal values and
# exact cancellations come up often.
_WIDE = st.fractions(min_value=-(10**12), max_value=10**12, max_denominator=10**6)
_SMALL = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-3, 4), Fraction(2), Fraction(7, 3)])
_PAIRS = st.tuples(_WIDE, _WIDE) | st.tuples(_SMALL, _SMALL)


def _same(x, oracle):
    """x holds the oracle's value in canonical fields."""
    assert (x.p, x.q) == (oracle.p, oracle.q)
    assert x.d > 0 and math.gcd(x.a, x.b, x.d) == 1


@settings(max_examples=300, deadline=None)
@given(_PAIRS, _PAIRS)
def test_field_operations_match_the_fraction_pair_oracle(u, v):
    x, y = SqrtTwoRational(*u), SqrtTwoRational(*v)
    ox, oy = _FractionPair(*u), _FractionPair(*v)
    _same(x, ox)
    _same(x + y, ox + oy)
    _same(x - y, ox + -oy)
    _same(-x, -ox)
    _same(x * y, ox * oy)
    assert x.sign() == ox.sign() and (x - y).sign() == (ox + -oy).sign()
    assert (x == y) == ((ox.p, ox.q) == (oy.p, oy.q))
    if oy.p == oy.q == 0:
        with pytest.raises(ZeroDivisionError):
            y.inverse()
        with pytest.raises(ZeroDivisionError):
            x / y
    else:
        _same(y.inverse(), oy.inverse())
        _same(x / y, ox * oy.inverse())


@settings(max_examples=200, deadline=None)
@given(_PAIRS, _PAIRS)
def test_equal_values_have_equal_fields(u, v):
    x, y = SqrtTwoRational(*u), SqrtTwoRational(*v)
    for same in (x + y - y, y + x - y, (x * y / y if y else x), -(-x)):
        assert same == x and (same.a, same.b, same.d) == (x.a, x.b, x.d) and hash(same) == hash(x)


@settings(max_examples=300, deadline=None)
@given(_PAIRS)
def test_float_hash_str_and_repr_match_the_fraction_pair_oracle(u):
    x, oracle = SqrtTwoRational(*u), _FractionPair(*u)
    assert float(x).hex() == float(oracle).hex()
    assert hash(x) == hash(oracle)
    assert str(x) == str(oracle) and repr(x) == repr(oracle)


@settings(max_examples=200, deadline=None)
@given(_WIDE | _SMALL)
def test_rational_values_equal_and_hash_like_their_fraction_or_int(f):
    x = SqrtTwoRational(f)
    assert x == f and hash(x) == hash(f) and x.b == 0
    if f.denominator == 1:
        assert x == int(f) and hash(x) == hash(int(f)) and x.d == 1
    assert x != f + Fraction(1, 10**7)
