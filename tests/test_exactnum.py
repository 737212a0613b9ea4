import math
from fractions import Fraction

import numpy as np
import pytest

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
