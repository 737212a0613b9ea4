"""Bivariate polynomial potentials with exact coefficients.

The potentials under study are x^2 + y^2 + lambda * (quartic form); all
coefficient arithmetic happens in Q(sqrt(2)) so that coordinate changes by
pi/4-type rotations and reflections are loss-free.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from math import comb

import numpy as np

from .exactnum import SqrtTwoRational
from .maps import OrthogonalMap2


class NoQuarticPart(ValueError):
    """Raised when a boundedness query needs a degree-4 part that is absent."""


class Boundedness(Enum):
    BOUNDED = "Bounded"
    UNBOUNDED = "Unbounded"
    MARGINAL = "Marginal"


class PolynomialPotential:
    """Canonical sparse polynomial sum c_ij x^i y^j, coefficients in Q(sqrt(2)).

    Zero coefficients are never stored; two potentials are equal iff their
    term maps are identical. Instances are treated as immutable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], SqrtTwoRational]):
        canonical = {}
        for (i, j), coeff in terms.items():
            coeff = SqrtTwoRational.coerce(coeff)
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent in term ({i}, {j})")
            if not coeff.is_zero():
                canonical[(int(i), int(j))] = coeff
        object.__setattr__(self, "terms", canonical)

    def __setattr__(self, name, value):
        raise AttributeError("PolynomialPotential is immutable")

    def coefficient(self, i: int, j: int) -> SqrtTwoRational:
        return self.terms.get((i, j), SqrtTwoRational(0))

    def homogeneous_part(self, degree: int) -> "PolynomialPotential":
        return PolynomialPotential(
            {(i, j): c for (i, j), c in self.terms.items() if i + j == degree}
        )

    def float_terms(self) -> dict[tuple[int, int], float]:
        return {ij: float(c) for ij, c in self.terms.items()}

    def evaluate(self, x: float, y: float) -> float:
        """Floating-point value of the polynomial at (x, y)."""
        return sum(c * x**i * y**j for (i, j), c in self.float_terms().items())

    def __eq__(self, other):
        if not isinstance(other, PolynomialPotential):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def scale(self, factor) -> "PolynomialPotential":
        factor = SqrtTwoRational.coerce(factor)
        return PolynomialPotential({ij: c * factor for ij, c in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "PolynomialPotential(0)"
        bits = []
        for (i, j) in sorted(self.terms):
            c = self.terms[(i, j)]
            mono = "".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in (("x", i), ("y", j))
                if e > 0
            ) or "1"
            bits.append(f"({c})*{mono}")
        return "PolynomialPotential(" + " + ".join(bits) + ")"


def make_quartic(a_xx, b_xy, c_xy, b_yx, a_yy, lam) -> PolynomialPotential:
    """x^2 + y^2 + lam*(a_xx x^4 + 4 b_xy x^3 y + 6 c_xy x^2 y^2 + 4 b_yx x y^3 + a_yy y^4).

    All parameters must be exact (int / Fraction / SqrtTwoRational); the
    conventional combinatorial factors 4, 6, 4 are applied here.
    """
    lam = SqrtTwoRational.coerce(lam)
    quartic = {
        (4, 0): SqrtTwoRational.coerce(a_xx),
        (3, 1): SqrtTwoRational.coerce(b_xy) * 4,
        (2, 2): SqrtTwoRational.coerce(c_xy) * 6,
        (1, 3): SqrtTwoRational.coerce(b_yx) * 4,
        (0, 4): SqrtTwoRational.coerce(a_yy),
    }
    terms = {ij: c * lam for ij, c in quartic.items()}
    terms[(2, 0)] = SqrtTwoRational(1)
    terms[(0, 2)] = SqrtTwoRational(1)
    return PolynomialPotential(terms)


def apply_linear_map(poly: PolynomialPotential, mp: OrthogonalMap2) -> PolynomialPotential:
    """Exact substitution V(M (x, y)): x -> a x + b y, y -> c x + d y."""
    a, b, c, d = mp.a, mp.b, mp.c, mp.d
    out: dict[tuple[int, int], SqrtTwoRational] = {}
    for (i, j), coeff in poly.terms.items():
        # (a x + b y)^i expanded: x^k y^(i-k) with binomial weights
        xpow = [SqrtTwoRational.coerce(comb(i, k)) * _ipow(a, k) * _ipow(b, i - k) for k in range(i + 1)]
        ypow = [SqrtTwoRational.coerce(comb(j, m)) * _ipow(c, m) * _ipow(d, j - m) for m in range(j + 1)]
        for k, cx in enumerate(xpow):
            for m, cy in enumerate(ypow):
                key = (k + m, (i - k) + (j - m))
                add = coeff * cx * cy
                if key in out:
                    out[key] = out[key] + add
                else:
                    out[key] = add
    return PolynomialPotential(out)


def _ipow(base: SqrtTwoRational, n: int) -> SqrtTwoRational:
    result = SqrtTwoRational(1)
    for _ in range(n):
        result = result * base
    return result


def is_separable(poly: PolynomialPotential) -> bool:
    """True iff no stored term involves both coordinates."""
    return all(i == 0 or j == 0 for i, j in poly.terms)


def quartic_form_min(poly: PolynomialPotential) -> tuple[float, float]:
    """Minimum of the degree-4 homogeneous part over the unit circle.

    Returns (min_value, angle): a negative minimum certifies that the full
    potential is unbounded from below along that direction. Stationary
    angles are found from the closed-form quartic in t = tan(phi) (companion
    matrix roots), with a dense-scan fallback for degenerate cases.
    """
    quartic = poly.homogeneous_part(4)
    if not quartic.terms:
        raise NoQuarticPart("degree-4 homogeneous part is identically zero")
    q = [float(quartic.coefficient(4 - k, k)) for k in range(5)]

    def val(phi: float) -> float:
        c, s = math.cos(phi), math.sin(phi)
        return sum(q[k] * c ** (4 - k) * s**k for k in range(5))

    # d/dphi Q(cos, sin) = 0 reduces to a quartic in t = tan(phi)
    deriv = [
        -q[3],
        -2.0 * q[2] + 4.0 * q[4],
        3.0 * (q[3] - q[1]),
        -4.0 * q[0] + 2.0 * q[2],
        q[1],
    ]
    candidates = [math.pi / 2.0]  # cos(phi) = 0 endpoint excluded from t-space
    scale = max(abs(v) for v in deriv)
    if scale > 0.0:
        roots = np.roots(deriv)
        for r in roots:
            if abs(r.imag) < 1e-9 * max(1.0, abs(r)):
                candidates.append(math.atan(float(r.real)))
    if scale == 0.0 or len(candidates) < 2:
        # Degenerate stationarity equation (e.g. radially symmetric form):
        # dense scan plus golden-section polish.
        grid = np.linspace(-math.pi / 2.0, math.pi / 2.0, 4097)
        values = [val(p) for p in grid]
        best = int(np.argmin(values))
        lo = grid[max(best - 1, 0)]
        hi = grid[min(best + 1, len(grid) - 1)]
        candidates.append(_golden_min(val, lo, hi))

    # Companion-matrix roots of multiplicity > 1 (perfect fourth powers) are
    # only O(eps^(1/3)) accurate; a local golden-section polish restores full
    # precision at genuine minima and never raises the candidate's value.
    candidates.extend(_golden_min(val, phi - 1e-3, phi + 1e-3) for phi in list(candidates))
    best_phi = min(candidates, key=val)
    best_val = val(best_phi)

    # Perfect powers evaluate with total cancellation, leaving O(eps) noise.
    # When the minimizing direction snaps to an exact tangent, the exact value
    # replaces the noisy one (this is what makes the minimum certifiable).
    snapped = _snap_direction(quartic, best_phi)
    if snapped is not None:
        exact_val, snapped_phi = snapped
        if abs(exact_val - best_val) <= 1e-9 * max(1.0, max(abs(v) for v in q)):
            return exact_val, snapped_phi
    return best_val, best_phi


def _golden_min(f, lo: float, hi: float, tol: float = 1e-13) -> float:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    while b - a > tol:
        if f(c) < f(d):
            b, d = d, c
            c = b - invphi * (b - a)
        else:
            a, c = c, d
            d = a + invphi * (b - a)
    return 0.5 * (a + b)


# Directions with exact tangent in Q(sqrt(2)) used to certify a marginal
# (zero) circle minimum; covers every pi/8-type direction plus small rationals.
_SNAP_TANGENTS = [
    SqrtTwoRational(t)
    for t in (0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), 3, -3)
] + [
    SqrtTwoRational(0, 1),
    SqrtTwoRational(0, -1),  # +-sqrt(2)
    SqrtTwoRational(0, Fraction(1, 2)),
    SqrtTwoRational(0, Fraction(-1, 2)),  # +-1/sqrt(2)
    SqrtTwoRational(1, 1),
    SqrtTwoRational(-1, -1),  # tan(3pi/8) = 1 + sqrt(2)
    SqrtTwoRational(-1, 1),
    SqrtTwoRational(1, -1),  # tan(pi/8) = sqrt(2) - 1
]


def _snap_direction(
    quartic: PolynomialPotential, phi: float
) -> tuple[float, float] | None:
    """Exact circle value along phi when tan(phi) snaps to a known tangent.

    Returns (exact value as float, snapped angle) or None. The circle value
    along direction (1, t) is Q(1, t) / (1 + t^2)^2, computed in Q(sqrt(2)).
    """
    if abs(abs(phi) - math.pi / 2.0) < 1e-5:
        value = _exact_quartic_at(quartic, SqrtTwoRational(0), SqrtTwoRational(1))
        return float(value), math.copysign(math.pi / 2.0, phi)
    tan_phi = math.tan(phi)
    for t in _SNAP_TANGENTS:
        if abs(float(t) - tan_phi) < 1e-5:
            norm = SqrtTwoRational(1) + t * t
            value = _exact_quartic_at(quartic, SqrtTwoRational(1), t) / (norm * norm)
            return float(value), math.atan(float(t))
    return None


def is_bounded_below(poly: PolynomialPotential) -> Boundedness:
    """Classify by the sign of the quartic form's minimum over the circle.

    MARGINAL means the quartic form vanishes along some ray; lower-degree
    terms would decide actual boundedness there and this classifier does not
    attempt that refinement. Zero minima at snappable directions come out of
    quartic_form_min exactly; any other minimum within tolerance of zero is
    reported MARGINAL as the honest verdict.
    """
    try:
        min_value, _ = quartic_form_min(poly)
    except NoQuarticPart:
        # No quartic part at all: the quartic test is vacuous, which is the
        # marginal verdict (here the x^2 + y^2 confinement decides, but that
        # refinement is out of contract).
        return Boundedness.MARGINAL
    quartic = poly.homogeneous_part(4)
    tol = 1e-10 * max(1.0, max(abs(float(c)) for c in quartic.terms.values()))
    if min_value < -tol:
        return Boundedness.UNBOUNDED
    if min_value > tol:
        return Boundedness.BOUNDED
    return Boundedness.MARGINAL


def _exact_quartic_at(quartic: PolynomialPotential, x: SqrtTwoRational, y: SqrtTwoRational) -> SqrtTwoRational:
    total = SqrtTwoRational(0)
    for (i, j), c in quartic.terms.items():
        total = total + c * _ipow(x, i) * _ipow(y, j)
    return total
