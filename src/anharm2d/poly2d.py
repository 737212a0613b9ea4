"""Bivariate polynomial potentials with exact coefficients.

The potentials under study are x^2 + y^2 + lambda * (quartic form); all
coefficient arithmetic happens in Q(sqrt(2)) so that coordinate changes by
pi/4-type rotations and reflections are loss-free. Whether the quartic form
is bounded from below is decided in the same field, by square-free
decomposition and Sturm counts of Q(1, t), with no tolerance.
"""

from __future__ import annotations

import math
from enum import Enum

from .exactnum import SqrtTwoRational
from .maps import OrthogonalMap2


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
    """Exact substitution V(M (x, y)): x -> a x + b y, y -> c x + d y.

    A signed permutation (one entry +-1 per row, the rest 0) only relabels:
    c x^i y^j goes to +-c x^i y^j when b = c = 0, and to +-c x^j y^i when
    a = d = 0, negated when the entries -1 enter with an odd total power. No
    coefficient is multiplied on this path. An orthogonal map with a zero
    entry is always a signed permutation.

    Any other map multiplies each term out one linear factor at a time: start
    from c, multiply i times by (a x + b y), then j times by (c x + d y). A
    partial coefficient that cancels to zero contributes no product.
    """
    if not mp.a or not mp.b:
        swap = not mp.a
        x_entry, y_entry = (mp.b, mp.c) if swap else (mp.a, mp.d)
        x_flip, y_flip = x_entry.sign() < 0, y_entry.sign() < 0
        relabelled = {}
        for (i, j), coeff in poly.terms.items():
            odd = (x_flip * i + y_flip * j) % 2
            relabelled[(j, i) if swap else (i, j)] = -coeff if odd else coeff
        return PolynomialPotential(relabelled)
    x_row = [(mp.a, (1, 0)), (mp.b, (0, 1))]
    y_row = [(mp.c, (1, 0)), (mp.d, (0, 1))]
    out: dict[tuple[int, int], SqrtTwoRational] = {}
    for (i, j), coeff in poly.terms.items():
        partial = {(0, 0): coeff}
        for row in [x_row] * i + [y_row] * j:
            product: dict[tuple[int, int], SqrtTwoRational] = {}
            for (k, m), val in partial.items():
                for e, (dk, dm) in row:
                    key, add = (k + dk, m + dm), val * e
                    product[key] = product[key] + add if key in product else add
            partial = {key: val for key, val in product.items() if val}
        for key, val in partial.items():
            out[key] = out[key] + val if key in out else val
    return PolynomialPotential(out)


def is_separable(poly: PolynomialPotential) -> bool:
    """True iff no stored term involves both coordinates."""
    return all(i == 0 or j == 0 for i, j in poly.terms)


def quartic_form_min(poly: PolynomialPotential) -> tuple[float, float]:
    """Minimum of the degree-4 homogeneous part over the unit circle.

    Returns (min_value, angle): a negative minimum shows a direction along
    which the full potential is unbounded from below. A MARGINAL form (see
    is_bounded_below) gives exactly 0.0, at atan of a real root of
    q(t) = Q(1, t), or at pi/2 when q has none; so does a potential without a
    quartic part (the harmonic limit lambda = 0). Otherwise the float values at
    pi/2 and at the real roots (companion matrix) of the stationarity quartic
    in t = tan(phi) are compared, and the first smallest wins. Minima that tie
    exactly are therefore told apart only by rounding: case 3's two, which
    (x, y) -> (y, x) swaps, give phi ~ -0.3649 at lambda = 1/10 but
    phi ~ -1.2059 at lambda = 1/100, from the last bits of np.roots.
    """
    q = _tan_poly(poly)
    if not q:
        return 0.0, math.pi / 2
    verdict, repeated = _verdict(q)
    if verdict is Boundedness.MARGINAL:
        return 0.0, _root_angle(repeated)
    f = [float(poly.coefficient(4 - k, k)) for k in range(5)]

    def val(phi: float) -> float:
        c, s = math.cos(phi), math.sin(phi)
        return sum(f[k] * c ** (4 - k) * s**k for k in range(5))

    # d/dphi Q(cos, sin) = 0 reduces to a quartic in t = tan(phi)
    deriv = [
        -f[3],
        -2.0 * f[2] + 4.0 * f[4],
        3.0 * (f[3] - f[1]),
        -4.0 * f[0] + 2.0 * f[2],
        f[1],
    ]
    candidates = [math.pi / 2.0]  # cos(phi) = 0 is not a finite t
    if any(deriv):  # all zero only for c (x^2 + y^2)^2, constant on the circle
        import numpy as np

        for r in np.roots(deriv):
            if abs(r.imag) < 1e-9 * max(1.0, abs(r)):
                candidates.append(math.atan(float(r.real)))
    best_phi = min(candidates, key=val)
    return val(best_phi), best_phi


def is_bounded_below(poly: PolynomialPotential) -> Boundedness:
    """Exact sign class of the quartic form Q, decided in Q(sqrt(2)).

    With q(t) = Q(1, t) of true degree d: UNBOUNDED iff d is odd, the leading
    coefficient is negative, or q has a simple real root. Otherwise MARGINAL
    iff Q vanishes on a ray: d < 4 (the y-axis) or a real root of q. Otherwise
    BOUNDED. Sturm counts find the real roots, so the verdict does not depend
    on the scale of lambda. On a MARGINAL ray the lower-degree terms decide,
    which this classifier does not attempt; no quartic part is MARGINAL too.
    """
    q = _tan_poly(poly)
    return _verdict(q)[0] if q else Boundedness.MARGINAL


# Polynomials in t over Q(sqrt(2)) are coefficient lists, constant term first,
# with no zero leading coefficient; the zero polynomial is [].


def _tan_poly(poly: PolynomialPotential) -> list[SqrtTwoRational]:
    """q(t) = Q(1, t) for the quartic part Q, with t = tan(phi)."""
    return _trim([poly.coefficient(4 - k, k) for k in range(5)])


def _verdict(q: list[SqrtTwoRational]) -> tuple[Boundedness, list[SqrtTwoRational]]:
    """Sign class of Q from q(t) = Q(1, t), and the product of q's repeated factors.

    s = q / gcd(q, q') is square-free; r = gcd(s, q / s) has the roots of
    multiplicity >= 2 and s / r the simple ones. For degree <= 4 a real
    triple root comes with a real simple root or an odd degree, so every
    sign change shows as one of the two.
    """
    square_free = _divmod(q, _gcd(q, _derivative(q)))[0]
    repeated = _gcd(square_free, _divmod(q, square_free)[0])
    if len(q) % 2 == 0 or q[-1].sign() < 0 or _has_real_root(_divmod(square_free, repeated)[0]):
        return Boundedness.UNBOUNDED, repeated
    if len(q) < 5 or _has_real_root(repeated):
        return Boundedness.MARGINAL, repeated
    return Boundedness.BOUNDED, repeated


def _root_angle(p: list[SqrtTwoRational]) -> float:
    """atan of a real root of the square-free p, exact when p is linear; pi/2 if none."""
    if len(p) == 2:
        return math.atan(float(-p[0] / p[1]))
    if not _has_real_root(p):
        return math.pi / 2.0
    import numpy as np

    roots = np.roots([float(c) for c in reversed(p)])
    return math.atan(float(min(roots, key=lambda r: abs(r.imag)).real))


def _trim(p: list[SqrtTwoRational]) -> list[SqrtTwoRational]:
    while p and p[-1].is_zero():
        p = p[:-1]
    return p


def _derivative(p: list[SqrtTwoRational]) -> list[SqrtTwoRational]:
    return [c * k for k, c in enumerate(p)][1:]


def _divmod(a, b):
    """Quotient and remainder of a by the nonzero b."""
    rem, quot = list(a), []
    inv = b[-1].inverse()
    for k in range(len(a) - len(b), -1, -1):
        c = rem[k + len(b) - 1] * inv
        quot.append(c)
        for i, bc in enumerate(b):
            rem[k + i] = rem[k + i] - c * bc
    return quot[::-1], _trim(rem[: len(b) - 1])


def _gcd(a, b):
    """A greatest common divisor; its scale is arbitrary."""
    while b:
        a, b = b, _divmod(a, b)[1]
    return a


def _has_real_root(p: list[SqrtTwoRational]) -> bool:
    """Sturm's theorem: the sequence p, p', -rem(...) loses sign changes
    between -inf and +inf exactly when p has a real root."""
    seq = [p, _derivative(p)]
    while seq[-1]:
        seq.append([-c for c in _divmod(seq[-2], seq[-1])[1]])
    pos = [f[-1].sign() for f in seq[:-1]]
    neg = [s if len(f) % 2 else -s for s, f in zip(pos, seq)]
    return sum(a != b for a, b in zip(neg, neg[1:])) > sum(a != b for a, b in zip(pos, pos[1:]))
