"""High-precision 1D eigenvalues from Hankel determinants of the regularized
logarithmic derivative.

For an even potential V(x) = sum_m v_m x^{2m} and parity s (0 even / 1 odd),
the function f = s/x - psi'/psi expands as f(x) = sum_j f_j x^{2j+1} and the
Riccati equation gives the closed recursion

    (2m + 2s + 1) f_m = sum_{j<m} f_j f_{m-1-j} - v_m + E [m = 0].

Eigenvalues are the E-roots of the Hankel determinants
H_D^d(E) = det[f_{i+j+d+1}(E)], which stabilize rapidly as D grows; roots are
polished by Newton in arbitrary precision, each dimension seeding the next.

The recursion and the determinants run on raw `mpmath.libmp` tuples at the
working precision's rounding (`mp.mp._prec_rounding`). `hankel_det` computes
H_D with the Chebyshev algorithm of orthogonal polynomials: one O(D^2) pass
over the moments mu_l = f_{l+d+1} gives the ratios sigma_kk = H_{k+1}/H_k of
consecutive leading minors, and H_D = prod_{k<D} sigma_kk. It does not pivot,
so it is not bit-identical to `mp.det`. Where an exactly zero sigma_kk stops
it, the block goes to `_lu_det`, mpmath's own scaled-partial-pivot LU
(`mp.det`/`LU_decomp` of mpmath 1.3) operation for operation: that one is
bit-identical to `mp.det(mp.matrix(...))`, including its `int 0` for a block
with a pivot at or below the singularity threshold ||A||_1 * eps.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import (
    MPZ_ONE,
    fzero,
    from_int,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_gt,
    mpf_le,
    mpf_mul,
    mpf_mul_int,
    mpf_rdiv_int,
    mpf_sub,
    mpf_sum,
)


class InsufficientCoefficients(ValueError):
    """The series is too short for the requested determinant block."""


class NewtonDivergence(RuntimeError):
    """Newton iteration on a Hankel determinant failed to settle on a root."""


class NonMonotoneTrail(UserWarning):
    """Root-vs-dimension trail stopped contracting before D_max."""


@dataclass(frozen=True)
class RiccatiSeries:
    """Coefficients f_j(E) of the regularized logarithmic derivative."""

    s: int
    coeffs: tuple = field(repr=False)


@dataclass(frozen=True)
class HankelSpec:
    """Determinant block: dimension D and displacement d."""

    D: int
    d: int = 0

    def __post_init__(self):
        if self.D < 1 or self.d < 0:
            raise ValueError("need D >= 1 and d >= 0")

    @property
    def max_index(self) -> int:
        return 2 * self.D - 1 + self.d


def _to_mpf(value):
    if isinstance(value, Fraction):
        return mp.mpf(value.numerator) / mp.mpf(value.denominator)
    if isinstance(value, (int, float, str)):
        return mp.mpf(value)
    return value  # already an mpf


def riccati_coeffs(v, s: int, e_value, m_max: int) -> RiccatiSeries:
    """f_0..f_{m_max} at energy e_value, at the active mpmath precision.

    `v` lists the even-power potential coefficients [v0, v1, v2, ...]
    (v1 = 1, v2 = g for the quartic factors studied here).
    """
    if s not in (0, 1):
        raise ValueError("parity s must be 0 or 1")
    vs = [_to_mpf(c) for c in v]
    energy = _to_mpf(e_value)
    prec, rnd = mp.mp._prec_rounding
    raw = []
    for m in range(m_max + 1):
        # f_j f_{m-1-j} for j < m; the products are symmetric in j <-> m-1-j
        half = [mpf_mul(raw[j], raw[m - 1 - j], prec, rnd) for j in range((m + 1) // 2)]
        total = mpf_sum(half + half[: m // 2][::-1], prec, rnd)
        if m < len(vs):
            total = mpf_sub(total, vs[m]._mpf_, prec, rnd)
        if m == 0:
            total = mpf_add(total, energy._mpf_, prec, rnd)
        raw.append(mpf_div(total, from_int(2 * m + 2 * s + 1), prec, rnd))
    coeffs = tuple(mp.mp.make_mpf(c) for c in raw)
    return RiccatiSeries(s=s, coeffs=coeffs)


def _moments(series: RiccatiSeries, spec: HankelSpec) -> list:
    """Raw tuples of the moments mu_l = f_{l+d+1}, l = 0..2D-2: the block is [mu_{i+j}]."""
    if len(series.coeffs) <= spec.max_index:
        raise InsufficientCoefficients(
            f"need coefficients up to index {spec.max_index}, have {len(series.coeffs) - 1}"
        )
    return [c._mpf_ for c in series.coeffs[spec.d + 1 : spec.d + 2 * spec.D]]


def hankel_det(series: RiccatiSeries, spec: HankelSpec):
    """det[f_{i+j+d+1}], i, j = 0..D-1, by the Chebyshev algorithm.

    In the 1-based form of the Riccati-Padé literature this is
    H_D^d = |f_{i+j+d-1}|, i, j = 1..D; D = 1 gives f_{d+1}.

    With moments mu_l = f_{l+d+1}, the Chebyshev algorithm (Gautschi,
    Orthogonal Polynomials: Computation and Approximation, 2004) runs the
    three-term recurrence of the monic orthogonal polynomials on the mixed
    moments

        sigma_{k,l} = sigma_{k-1,l+1} - alpha_{k-1} sigma_{k-1,l} - beta_{k-1} sigma_{k-2,l},
        alpha_k = sigma_{k,k+1} / sigma_{k,k} - sigma_{k-1,k} / sigma_{k-1,k-1},
        beta_k = sigma_{k,k} / sigma_{k-1,k-1},

    starting from sigma_{-1,l} = 0 and sigma_{0,l} = mu_l. The diagonal is the
    ratio of consecutive leading minors, sigma_{k,k} = H_{k+1} / H_k, so
    H_D = prod_{k<D} sigma_{k,k}: O(D^2) operations on libmp tuples at the
    working precision, against O(D^3) for an LU. The recursion does no
    pivoting, so the result is not bit-identical to `mp.det` (only `_lu_det`
    is). It breaks down when some sigma_{k,k} is exactly zero; the block is
    then handed to `_lu_det`, which returns `int 0` for a singular block, as
    `mp.det` does.
    """
    mu = _moments(series, spec)
    prec, rnd = mp.mp._prec_rounding
    D = spec.D
    # Row k holds sigma_{k,l} at index l and needs l = k..2D-2-k only.
    prev, cur = [fzero] * len(mu), mu  # sigma_{-1,l} = 0 and sigma_{0,l} = mu_l
    shift = beta = fzero  # at k = 0 both multiply sigma_{-1,l} = 0
    for k in range(D):
        pivot = cur[k]  # sigma_{k,k} = H_{k+1} / H_k
        if pivot == fzero:
            return _lu_det(series, spec)
        det = mpf_mul(det, pivot, prec, rnd) if k else pivot
        if k + 1 == D:
            return mp.mp.make_mpf(det)
        ratio = mpf_div(cur[k + 1], pivot, prec, rnd)
        alpha, shift = mpf_sub(ratio, shift, prec, rnd), ratio
        if k:
            beta = mpf_div(pivot, prev[k - 1], prec, rnd)
        row = [None] * (k + 1)
        for l in range(k + 1, 2 * D - 2 - k):
            term = mpf_sub(cur[l + 1], mpf_mul(alpha, cur[l], prec, rnd), prec, rnd)
            row.append(mpf_sub(term, mpf_mul(beta, prev[l], prec, rnd), prec, rnd))
        prev, cur = cur, row


def _lu_det(series: RiccatiSeries, spec: HankelSpec):
    """The same determinant by LU, bit-identical to `mp.det(mp.matrix(...))`.

    The LU is mpmath 1.3's scaled-partial-pivot `LU_decomp`, run on libmp
    tuples with the working precision's rounding: the pivot row maximizes
    |a_kj| / sum_l |a_kl| over the remaining rows, and each multiplier,
    product and difference is rounded once, in mpmath's order. The result is
    the mpf `mp.det` returns, bit for bit. When a row sum or a pivot is at or
    below the singularity threshold |(||A||_1 * eps)|, the result is `int 0`,
    as from `mp.det`. It is also `int 0` when the remaining column is exactly
    zero, where mpmath 1.3 finds no pivot row and fails with a TypeError.
    `hankel_det` calls it only where its recursion breaks down; it is also
    the tests' oracle.
    """
    D = spec.D
    prec, rnd = mp.mp._prec_rounding
    f = _moments(series, spec)
    # Each row holds only the columns not yet eliminated: rows[0][0] is the
    # next pivot. Multipliers (the L factor) are not needed for det.
    rows = [f[i : i + D] for i in range(D)]
    norm = None  # ||A||_1, the largest column sum; compared as numbers, not tuples
    for col in rows:  # the block is symmetric: its columns are its rows
        total = mpf_sum([mpf_abs(x) for x in col], prec, rnd, True)
        if norm is None or mpf_gt(total, norm):
            norm = total
    tol = mpf_abs(mpf_mul(norm, (0, MPZ_ONE, 1 - prec, 1), prec, rnd), prec, rnd)
    sign = 1
    pivots = []
    while rows:
        if len(rows) > 1:  # mpmath searches no pivot row for the last column
            biggest, k_max = fzero, None
            for k, row in enumerate(rows):
                total = mpf_sum([mpf_abs(x, prec, rnd) for x in row], prec, rnd)
                if mpf_le(mpf_abs(total, prec, rnd), tol):
                    return 0
                current = mpf_mul(mpf_rdiv_int(1, total, prec, rnd), mpf_abs(row[0], prec, rnd), prec, rnd)
                if mpf_gt(current, biggest):
                    biggest, k_max = current, k
            if k_max:  # None when the column is exactly zero: the pivot test returns 0
                rows[0], rows[k_max] = rows[k_max], rows[0]
                sign = -sign
        top = rows[0]
        head = top[0]
        if mpf_le(mpf_abs(head, prec, rnd), tol):
            return 0
        pivots.append(head)
        tail = top[1:]
        eliminated = []
        for row in rows[1:]:
            factor = mpf_div(row[0], head, prec, rnd)
            eliminated.append(
                [mpf_sub(x, mpf_mul(factor, y, prec, rnd), prec, rnd) for x, y in zip(row[1:], tail)]
            )
        rows = eliminated
    det = mpf_mul_int(pivots[0], sign, prec, rnd)
    for pivot in pivots[1:]:
        det = mpf_mul(det, pivot, prec, rnd)
    return mp.mp.make_mpf(det)


def _det_at(v, s: int, energy, D: int, d: int):
    series = riccati_coeffs(v, s, energy, 2 * D - 1 + d)
    return hankel_det(series, HankelSpec(D=D, d=d))


def _newton_step(v, s: int, d: int, D: int, energy):
    """Newton correction det/det' at `energy`, at the working precision.

    The derivative is a central difference with step 10^(-dps/3), so one
    correction costs three determinants.
    """
    h = mp.mpf(10) ** (-mp.mp.dps // 3)
    fval = _det_at(v, s, energy, D, d)
    deriv = (_det_at(v, s, energy + h, D, d) - _det_at(v, s, energy - h, D, d)) / (2 * h)
    if deriv == 0:
        raise NewtonDivergence(f"flat determinant at D={D}, E={mp.nstr(energy, 20)}")
    return fval / deriv


def _newton_root(v, s, d, D, seed, max_iter=60):
    """Newton with central-difference derivative at the working precision.

    Determinant evaluation near a root is pure cancellation, so the last
    digits are noise. Iteration stops either on a tiny relative step or on two
    steps below 1e-10 relative whose sizes do not contract. The second exit
    only says that Newton stopped making progress: the iterate can still lie
    well above the precision floor away from the root of this D, which is why
    `rpm_eigenvalue` bounds the error of its final root separately.
    """
    stop = mp.mpf(10) ** (-(mp.mp.dps - 10))
    plateau = mp.mpf(10) ** (-10)
    energy = _to_mpf(seed)
    prev_size = None
    prev_ratio = None
    for _ in range(max_iter):
        step = _newton_step(v, s, d, D, energy)
        energy -= step
        size = abs(step)
        scale = max(1, abs(energy))
        if size < stop * scale:
            return energy
        if prev_size is not None:
            ratio = float(size / prev_size)
            # Tiny steps that stop contracting: Newton has stalled on the
            # determinant's cancellation noise at this precision.
            if size < plateau * scale and ratio > 0.6:
                return energy
            # A steady contraction ratio r signals a root of multiplicity
            # ~ 1/(1-r) (the determinant vanishes to high order at exact
            # oscillator eigenvalues); stretch the step to restore quadratic
            # convergence.
            if prev_ratio is not None and abs(ratio - prev_ratio) < 0.05 and 0.3 < ratio < 0.97:
                mult = round(1.0 / (1.0 - ratio))
                if mult >= 2:
                    energy -= (mult - 1) * step
                    prev_size = None
                    prev_ratio = None
                    continue
            prev_ratio = ratio
        prev_size = size
    raise NewtonDivergence(f"no convergence within {max_iter} iterations at D={D}")


def _digits(error, value) -> int:
    """Correct significant digits implied by an absolute error."""
    rel = abs(error) / max(abs(value), mp.mpf(1e-30))
    return max(0, int(mp.floor(-mp.log10(rel))))


@dataclass(frozen=True)
class RpmResult:
    e_value: object
    stabilized_digits: int
    trail: tuple  # ((D, root), ...)


def rpm_eigenvalue(
    v,
    s: int,
    d: int = 0,
    D_max: int = 25,
    seed=None,
    precision_digits: int = 80,
) -> RpmResult:
    """Track the Hankel root from D = 2 up to D_max, seeding each dimension
    with the previous root.

    The seed must lie in the basin of the target eigenvalue (a variational
    estimate does); Hankel determinants have many roots. Returns the D_max
    root, its certified digits and the whole trail.

    `stabilized_digits` is the smaller of two counts: the digits on which the
    last two dimensions agree (the truncation in D), and the digits that one
    Newton step on the D_max determinant at 1.5x the working precision leaves
    unchanged (the cancellation noise of the working precision). The root and
    trail themselves come from the working precision only.
    """
    if seed is None or not mp.isfinite(_to_mpf(seed)):
        raise ValueError("an explicit finite seed (e.g. a variational estimate) is required")
    if D_max < 3:
        raise ValueError("D_max must be >= 3")
    with mp.workdps(precision_digits):
        trail = []
        current = _to_mpf(seed)
        for D in range(2, D_max + 1):
            current = _newton_root(v, s, d, D, current)
            trail.append((D, current))
        diffs = [abs(trail[k + 1][1] - trail[k][1]) for k in range(len(trail) - 1)]
        tail = [x for x in diffs[-6:] if x > 0]
        # Once diffs reach the noise plateau they fluctuate harmlessly; only a
        # stall at coarse accuracy is worth flagging.
        coarse = mp.mpf(10) ** (-precision_digits // 3)
        if len(tail) >= 2 and tail[-1] > tail[0] and tail[-1] > coarse:
            warnings.warn(
                "root trail stopped contracting before D_max", NonMonotoneTrail
            )
        last, prev = trail[-1][1], trail[-2][1]
        stabilized = precision_digits if last == prev else _digits(last - prev, last)
        # One Newton step on the D_max determinant at half as many digits
        # again measures how far the final root sits from the true D_max root.
        with mp.workdps(precision_digits + precision_digits // 2):
            step = _newton_step(v, s, d, D_max, last)
        if step != 0:
            stabilized = min(stabilized, _digits(step, last))
        return RpmResult(e_value=last, stabilized_digits=stabilized, trail=tuple(trail))
