"""Exact arithmetic in the quadratic field Q(sqrt(2)).

Every coefficient that appears when a quartic potential is pushed through a
rotation/reflection with entries in {0, +-1, +-1/sqrt(2)} lives in this field,
so polynomial identities can be checked with no tolerance at all.
"""

from __future__ import annotations

import math
from fractions import Fraction

_SQRT2 = math.sqrt(2.0)


class SqrtTwoRational:
    """A number p + q*sqrt(2) with rational p, q.

    Instances are immutable and hashable; arithmetic is closed and exact.
    """

    __slots__ = ("p", "q")

    def __init__(self, p=0, q=0):
        if isinstance(p, float) or isinstance(q, float):  # see coerce
            raise TypeError("SqrtTwoRational takes exact p and q, not float")
        object.__setattr__(self, "p", Fraction(p))
        object.__setattr__(self, "q", Fraction(q))

    def __setattr__(self, name, value):
        raise AttributeError("SqrtTwoRational is immutable")

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
        return SqrtTwoRational(self.p + other.p, self.q + other.q)

    __radd__ = __add__

    def __neg__(self):
        return SqrtTwoRational(-self.p, -self.q)

    def __sub__(self, other):
        return self + (-SqrtTwoRational.coerce(other))

    def __rsub__(self, other):
        return SqrtTwoRational.coerce(other) + (-self)

    def __mul__(self, other):
        other = SqrtTwoRational.coerce(other)
        return SqrtTwoRational(
            self.p * other.p + 2 * self.q * other.q,
            self.p * other.q + self.q * other.p,
        )

    __rmul__ = __mul__

    def inverse(self) -> "SqrtTwoRational":
        # 1/(p + q*sqrt(2)) = (p - q*sqrt(2)) / (p^2 - 2 q^2)
        norm = self.p * self.p - 2 * self.q * self.q
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(2))")
        return SqrtTwoRational(self.p / norm, -self.q / norm)

    def __truediv__(self, other):
        return self * SqrtTwoRational.coerce(other).inverse()

    def __rtruediv__(self, other):
        return SqrtTwoRational.coerce(other) * self.inverse()

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    def sign(self) -> int:
        """Exact sign of p + q*sqrt(2): -1, 0 or +1."""
        if self.q == 0:
            return (self.p > 0) - (self.p < 0)
        if self.p == 0:
            return (self.q > 0) - (self.q < 0)
        if self.p > 0 and self.q > 0:
            return 1
        if self.p < 0 and self.q < 0:
            return -1
        # Opposite signs: compare p^2 with 2 q^2; sqrt(2) is irrational so
        # the difference cannot vanish here.
        if self.p > 0:  # q < 0
            return 1 if self.p * self.p > 2 * self.q * self.q else -1
        return 1 if self.p * self.p < 2 * self.q * self.q else -1

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SqrtTwoRational(other)
        if not isinstance(other, SqrtTwoRational):
            return NotImplemented
        return self.p == other.p and self.q == other.q

    def __hash__(self):
        # a rational value equals its int or Fraction, so it hashes like one
        return hash(self.p) if self.q == 0 else hash((self.p, self.q))

    def __bool__(self):
        return not self.is_zero()

    # -- conversion ----------------------------------------------------------

    def __float__(self):
        return float(self.p) + float(self.q) * _SQRT2

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


ZERO = SqrtTwoRational(0)
ONE = SqrtTwoRational(1)
HALF_SQRT2 = SqrtTwoRational(0, Fraction(1, 2))  # 1/sqrt(2)
