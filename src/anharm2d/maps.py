"""Exact 2x2 orthogonal maps: rotations by multiples of pi/4 and reflections.

The sixteen elements generated here (the symmetry group of the regular
octagon) contain every coordinate change the quartic-oscillator analysis
needs: the pi/4-type separating rotations, parity flips, and the point groups
C2v and C4v of the potentials.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .exactnum import SqrtTwoRational

# cos(k*pi/4) for k = 0..7, exact in Q(sqrt(2))
_COS = {
    0: SqrtTwoRational(1),
    1: SqrtTwoRational(0, Fraction(1, 2)),
    2: SqrtTwoRational(0),
    3: SqrtTwoRational(0, Fraction(-1, 2)),
    4: SqrtTwoRational(-1),
    5: SqrtTwoRational(0, Fraction(-1, 2)),
    6: SqrtTwoRational(0),
    7: SqrtTwoRational(0, Fraction(1, 2)),
}


def _sin(k: int) -> SqrtTwoRational:
    return _COS[(k - 2) % 8]


class NonOrthogonalMap(ValueError):
    """Raised when a 2x2 matrix fails the exact M^T M = I test."""


class OrthogonalMap2:
    """2x2 orthogonal matrix with entries in Q(sqrt(2)).

    The constructor verifies M^T M = I exactly, so a live instance is always
    a genuine rotation (det +1) or reflection (det -1).
    """

    __slots__ = ("a", "b", "c", "d", "label")

    def __init__(self, a, b, c, d, label: str = ""):
        coerce = SqrtTwoRational.coerce
        object.__setattr__(self, "a", coerce(a))
        object.__setattr__(self, "b", coerce(b))
        object.__setattr__(self, "c", coerce(c))
        object.__setattr__(self, "d", coerce(d))
        object.__setattr__(self, "label", label)
        if not self._is_orthogonal():
            raise NonOrthogonalMap(f"M^T M != I for entries {self.entries()}")

    def __setattr__(self, name, value):
        raise AttributeError("OrthogonalMap2 is immutable")

    def _is_orthogonal(self) -> bool:
        a, b, c, d = self.a, self.b, self.c, self.d
        return (
            (a * a + c * c) == 1
            and (b * b + d * d) == 1
            and (a * b + c * d).is_zero()
        )

    def entries(self):
        """Row-major entries ((a, b), (c, d)): x' = a x + b y, y' = c x + d y."""
        return ((self.a, self.b), (self.c, self.d))

    def det(self) -> SqrtTwoRational:
        return self.a * self.d - self.b * self.c

    def compose(self, other: "OrthogonalMap2", label: str | None = None) -> "OrthogonalMap2":
        """Matrix product self @ other (apply `other` first)."""
        a = self.a * other.a + self.b * other.c
        b = self.a * other.b + self.b * other.d
        c = self.c * other.a + self.d * other.c
        d = self.c * other.b + self.d * other.d
        if label is None:
            label = f"{self.label}*{other.label}"
        return OrthogonalMap2(a, b, c, d, label=label)

    def apply(self, x: float, y: float) -> tuple[float, float]:
        """Apply the map to a floating-point point."""
        fa, fb, fc, fd = (float(v) for v in (self.a, self.b, self.c, self.d))
        return fa * x + fb * y, fc * x + fd * y

    def __eq__(self, other):
        if not isinstance(other, OrthogonalMap2):
            return NotImplemented
        return (
            self.a == other.a
            and self.b == other.b
            and self.c == other.c
            and self.d == other.d
        )

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self):
        return f"OrthogonalMap2({self.a}, {self.b}, {self.c}, {self.d}, label={self.label!r})"


def identity() -> OrthogonalMap2:
    return OrthogonalMap2(1, 0, 0, 1, label="E")


def rotation(k: int) -> OrthogonalMap2:
    """Rotation by k*pi/4 (counterclockwise), exact."""
    k = k % 8
    c, s = _COS[k], _sin(k)
    label = "E" if k == 0 else f"R({k}pi/4)"
    return OrthogonalMap2(c, -s, s, c, label=label)


def reflection(k: int) -> OrthogonalMap2:
    """Reflection across the line through the origin at angle k*pi/8."""
    k = k % 8
    c2, s2 = _COS[k], _sin(k)  # cos/sin of 2*(k*pi/8)
    return OrthogonalMap2(c2, s2, s2, -c2, label=f"S({k}pi/8)")


def flip_x() -> OrthogonalMap2:
    """(x, y) -> (-x, y)."""
    return OrthogonalMap2(-1, 0, 0, 1, label="flip_x")


@cache
def _dihedral16() -> tuple[OrthogonalMap2, ...]:
    return tuple(rotation(k) for k in range(8)) + tuple(reflection(k) for k in range(8))


def dihedral16() -> list[OrthogonalMap2]:
    """The 16 symmetries of the regular octagon: R(0..7), then S(0..7).

    The maps are built once, on the first call, and shared (they are
    immutable); each call returns a fresh list of them.
    """
    return list(_dihedral16())


def dihedral16_product(i: int, j: int) -> int:
    """Index in dihedral16() of dihedral16()[i].compose(dihedral16()[j]).

    Indices 0-7 are R(k) and 8-15 are S(k). With a = i mod 8 and b = j mod 8:
    R(a)R(b) = R(a+b), R(a)S(b) = S(a+b), S(a)R(b) = S(a-b) and
    S(a)S(b) = R(a-b), all mod 8.
    """
    a, b = i % 8, j % 8
    if i < 8:
        return (a + b) % 8 + (8 if j >= 8 else 0)
    return (a - b) % 8 + (0 if j >= 8 else 8)
