"""Exact arithmetic in the quadratic field Q(sqrt(2)).

Every coefficient that appears when a quartic potential is pushed through a
rotation/reflection with entries in {0, +-1, +-1/sqrt(2)} lives in this field,
so polynomial identities can be checked with no tolerance at all.

A number is three Python ints (a, b, d), its value (a + b*sqrt(2))/d, with
d > 0 and gcd(a, b, d) = 1: one common denominator, the usual representation
of number-field elements (Cohen, *A Course in Computational Algebraic Number
Theory*, 1993). The form is canonical, so equal numbers have equal fields,
and each sum, product or inverse is normalized with one gcd; a pair of
Fractions would take one gcd for every Fraction it builds.
"""

from __future__ import annotations

import math
from fractions import Fraction

_SQRT2 = math.sqrt(2.0)


class SqrtTwoRational:
    """A number p + q*sqrt(2) with rational p, q, stored as (a + b*sqrt(2))/d.

    The ints a, b, d are canonical (d > 0, gcd(a, b, d) = 1); p = a/d and
    q = b/d are Fractions built on demand. Instances are immutable and
    hashable; arithmetic is closed and exact.
    """

    __slots__ = ("a", "b", "d")

    def __new__(cls, p=0, q=0):
        if isinstance(p, int) and isinstance(q, int):
            return _canonical(p, q, 1)
        if isinstance(p, float) or isinstance(q, float):  # see coerce
            raise TypeError("SqrtTwoRational takes exact p and q, not float")
        p, q = Fraction(p), Fraction(q)
        return _canonical(p.numerator * q.denominator, q.numerator * p.denominator, p.denominator * q.denominator)

    def __setattr__(self, name, value):
        raise AttributeError("SqrtTwoRational is immutable")

    @property
    def p(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def q(self) -> Fraction:
        return Fraction(self.b, self.d)

    @staticmethod
    def coerce(value) -> "SqrtTwoRational":
        """Accept ints, Fractions and SqrtTwoRational; reject floats.

        Floats are rejected on purpose: silently converting 0.1 to its binary
        value would poison every exact identity downstream.
        """
        if isinstance(value, SqrtTwoRational):
            return value
        if isinstance(value, (int, Fraction)):
            return SqrtTwoRational(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to SqrtTwoRational")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = SqrtTwoRational.coerce(other)
        d1, d2 = self.d, other.d
        return _canonical(self.a * d2 + other.a * d1, self.b * d2 + other.b * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return _canonical(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-SqrtTwoRational.coerce(other))

    def __rsub__(self, other):
        return SqrtTwoRational.coerce(other) + (-self)

    def __mul__(self, other):
        other = SqrtTwoRational.coerce(other)
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return _canonical(a1 * a2 + 2 * b1 * b2, a1 * b2 + b1 * a2, self.d * other.d)

    __rmul__ = __mul__

    def inverse(self) -> "SqrtTwoRational":
        # d/(a + b*sqrt(2)) = d (a - b*sqrt(2)) / (a^2 - 2 b^2)
        a, b, d = self.a, self.b, self.d
        norm = a * a - 2 * b * b
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(2))")
        if norm < 0:
            d, norm = -d, -norm
        return _canonical(a * d, -b * d, norm)

    def __truediv__(self, other):
        return self * SqrtTwoRational.coerce(other).inverse()

    def __rtruediv__(self, other):
        return SqrtTwoRational.coerce(other) * self.inverse()

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def sign(self) -> int:
        """Exact sign of (a + b*sqrt(2))/d, which is the sign of a + b*sqrt(2)."""
        a, b = self.a, self.b
        if a >= 0 and b >= 0 or a <= 0 and b <= 0:
            return (a > 0 or b > 0) - (a < 0 or b < 0)
        # Opposite signs: compare a^2 with 2 b^2; sqrt(2) is irrational so
        # the difference cannot vanish here.
        return 1 if (a * a > 2 * b * b) == (a > 0) else -1

    def __eq__(self, other):
        if isinstance(other, SqrtTwoRational):
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a * other.denominator == other.numerator * self.d
        return NotImplemented

    def __hash__(self):
        # a rational value equals its int or Fraction, so it hashes like one
        return hash(self.p) if self.b == 0 else hash((self.p, self.q))

    def __bool__(self):
        return not self.is_zero()

    # -- conversion ----------------------------------------------------------

    def __float__(self):
        # int / int rounds correctly, as float(Fraction) does
        return self.a / self.d + self.b / self.d * _SQRT2

    def __repr__(self):
        if self.b == 0:
            return f"SqrtTwoRational({self.p})"
        return f"SqrtTwoRational({self.p}, {self.q})"

    def __str__(self):
        p, q = self.p, self.q
        if q == 0:
            return str(p)
        if p == 0:
            return f"{q}*sqrt(2)"
        sign = "+" if q > 0 else "-"
        return f"{p} {sign} {abs(q)}*sqrt(2)"


_set_a, _set_b, _set_d = (getattr(SqrtTwoRational, f).__set__ for f in SqrtTwoRational.__slots__)


def _canonical(a: int, b: int, d: int) -> SqrtTwoRational:
    """(a + b*sqrt(2))/d for ints with d > 0, stored divided by gcd(a, b, d)."""
    g = math.gcd(a, b, d)
    x = object.__new__(SqrtTwoRational)
    _set_a(x, a // g)
    _set_b(x, b // g)
    _set_d(x, d // g)
    return x


ZERO = SqrtTwoRational(0)
ONE = SqrtTwoRational(1)
HALF_SQRT2 = SqrtTwoRational(0, Fraction(1, 2))  # 1/sqrt(2)
