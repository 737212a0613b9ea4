"""High-precision 1D eigenvalues from Hankel determinants of the regularized
logarithmic derivative.

For an even potential V(x) = sum_m v_m x^{2m} and parity s (0 even / 1 odd),
the function f = s/x - psi'/psi expands as f(x) = sum_j f_j x^{2j+1} and the
Riccati equation gives the closed recursion

    (2m + 2s + 1) f_m = sum_{j<m} f_j f_{m-1-j} - v_m + E [m = 0].

Eigenvalues are the E-roots of the Hankel determinants
H_D^d(E) = det[f_{i+j+d+1}(E)], which stabilize rapidly as D grows. Each
root is found by Muller's three-point iteration, started from the trail of
the smaller dimensions' roots: the quadratic model of each step runs in
floats, and the iterates in arbitrary precision.

The root trail evaluates H_D with `scaled_hankel_det`, one fused kernel on
Python integers: the recursion runs in fixed point on the exactly rescaled
series g_j = f_j 2^{t(j+1)}, with one t per `rpm_eigenvalue` call, and the
Chebyshev algorithm of orthogonal polynomials runs on its moments with one
binary exponent per row. One O(D^2) pass over the moments mu_l = f_{l+d+1}
gives the ratios sigma_kk = H_{k+1}/H_k of consecutive leading minors, and
H_D = prod_{k<D} sigma_kk.

Where an exactly zero pivot stops that recursion, the block goes to
mpmath's own scaled-partial-pivot LU, `mp.det(mp.matrix(...))` of the
`riccati_coeffs` series at the working precision: O(D^3), but no workload
reaches it. It returns `int 0` for a block with a pivot at or below the
singularity threshold ||A||_1 * eps, as for the harmonic series, whose
moments all vanish.

Each root r_D agrees with the limit to only about 2D digits, and the next
dimension needs r_D only for its start. So `rpm_eigenvalue` solves each
dimension 5 <= D < D_max - 1 at the digits on which the last two roots agree
(`shared_digits`) plus `RAMP_MARGIN`, at least `RAMP_FLOOR` and at most the
working precision. The D_max - 1 and D_max roots stay at the working
precision, and the certificate at twice it: the root comes from them, and so
does `stabilized_digits`. At D_max 25 and 80 digits a trail takes 90-96
determinants, 57-59 of them at 23-61 digits, where the working precision
throughout took 131-139. Those ramped roots carry about RAMP_MARGIN - 10
digits past that agreement, not the working precision, and `rpm --g` prints
each trail root below D_max only to the digits it shares with the next root.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

import mpmath as mp
from mpmath.libmp import from_int, from_man_exp, mpf_add, mpf_div, mpf_mul, mpf_sub, mpf_sum


class NewtonDivergence(RuntimeError):
    """The root iteration on a Hankel determinant failed to settle on a root."""


class NonMonotoneTrail(UserWarning):
    """Root-vs-dimension trail stopped contracting before D_max."""


@dataclass(frozen=True)
class RiccatiSeries:
    """Coefficients f_j(E) of the regularized logarithmic derivative."""

    s: int
    coeffs: tuple = field(repr=False)


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


GUARD_BITS = 64  # fixed-point bits of `scaled_hankel_det` beyond the working precision
RAMP_FLOOR, RAMP_MARGIN = 20, 20  # digits of a ramped trail root: see `rpm_eigenvalue`
COMPLEX_PAIR_STEPS = 16  # `_three_point_root` gives up after this many models in a row with no real root
_LOG2_10 = math.log2(10)


def _fixed(value, shift: int) -> int:
    """floor(value * 2^shift): exact for an int or a Fraction, from the mpf otherwise."""
    if isinstance(value, (int, Fraction)):
        num, den = value.numerator, value.denominator
        return (num << shift) // den if shift >= 0 else num // (den << -shift)
    sign, man, exp, _ = _to_mpf(value)._mpf_
    exp += shift
    man = -man if sign else man
    return man << exp if exp >= 0 else man >> -exp


def _scale_exponent(v, s: int, energy, m_max: int) -> int:
    """The integer t for which g_j = f_j 2^{t(j+1)} neither grows nor decays
    over j <= m_max: minus the least-squares slope of log2|f_j| against j,
    read off a 60-bit series at `energy`. 0 when fewer than two f_j are nonzero."""
    with mp.workprec(60):
        coeffs = riccati_coeffs(v, s, energy, m_max).coeffs
    points = [(j, c._mpf_[2] + c._mpf_[3]) for j, c in enumerate(coeffs) if c]
    if len(points) < 2:
        return 0
    j_mean = sum(j for j, _ in points) / len(points)
    y_mean = sum(y for _, y in points) / len(points)
    slope = sum((j - j_mean) * (y - y_mean) for j, y in points) / sum((j - j_mean) ** 2 for j, _ in points)
    return -round(slope)


def _mp_det(v, s: int, energy, D: int, d: int):
    """`mp.det` of the block [f_{i+j+d+1}] of `riccati_coeffs` at the working
    precision: the kernel's fallback after an exactly zero pivot. `int 0` for
    a singular block, as from `mp.det`, also where the remaining column is
    exactly zero and mpmath 1.3 finds no pivot row and fails with a TypeError.
    """
    f = riccati_coeffs(v, s, energy, 2 * D - 1 + d).coeffs
    try:
        return mp.det(mp.matrix([[f[i + j + d + 1] for j in range(D)] for i in range(D)]))
    except TypeError:
        return 0


def scaled_hankel_det(v, s: int, energy, D: int, d: int, t: int):
    """det[f_{i+j+d+1}(energy)], i, j = 0..D-1, on Python integers: the
    Hankel determinant of the root trail, to the working precision. In the
    1-based form of the Riccati-Padé literature this is
    H_D^d = |f_{i+j+d-1}|, i, j = 1..D; D = 1 gives f_{d+1}.

    The series is rescaled exactly to g_j = f_j 2^{t(j+1)}, which turns the
    recursion into

        (2m + 2s + 1) g_m = sum_{j<m} g_j g_{m-1-j} - v_m 2^{t(m+1)} + E 2^t [m = 0],

    run in fixed point with P = prec + GUARD_BITS fractional bits: each
    product is an exact int, each convolution (summed over j < m/2 and
    doubled, by its j <-> m-1-j symmetry) is shifted once. With t from
    `_scale_exponent`, the g_j stay near 1, so the fixed point loses no
    digits to their range.

    With moments mu_l = g_{l+d+1}, the Chebyshev algorithm (Gautschi,
    Orthogonal Polynomials: Computation and Approximation, 2004) runs the
    three-term recurrence of the monic orthogonal polynomials on the mixed
    moments

        sigma_{k,l} = sigma_{k-1,l+1} - alpha_{k-1} sigma_{k-1,l} - beta_{k-1} sigma_{k-2,l},
        alpha_k = sigma_{k,k+1} / sigma_{k,k} - sigma_{k-1,k} / sigma_{k-1,k-1},
        beta_k = sigma_{k,k} / sigma_{k-1,k-1},

    starting from sigma_{-1,l} = 0 and sigma_{0,l} = mu_l. The diagonal is the
    ratio of consecutive leading minors, sigma_{k,k} = H_{k+1} / H_k, so
    H_D = prod_{k<D} sigma_{k,k}: O(D^2) operations, against O(D^3) for an
    LU. Each row keeps one binary exponent: alpha and beta are P-bit
    fixed-point ratios, and each new row, computed exactly from them, is
    shifted right until its pivot has P bits. The product of the pivots is
    exact; the block's scaling is undone by the exact power
    det[f] = 2^{-tD(d+2) - tD(D-1)} det[g], and the result is rounded once,
    to the working precision. The recursion does no pivoting: where an
    exactly zero sigma_{k,k} stops it, the block goes to `_mp_det`.
    """
    prec, rnd = mp.mp._prec_rounding
    P = prec + GUARD_BITS
    drive = [_fixed(c, t * (m + 1) + P) for m, c in enumerate(v)]
    drive[0] -= _fixed(energy, t + P)
    g = []
    for m in range(2 * D + d):
        half = m // 2
        total = sum(map(mul, g[:half], g[m - 1 : m - 1 - half : -1])) << 1
        if m % 2:
            total += g[half] * g[half]
        total >>= P
        if m < len(drive):
            total -= drive[m]
        g.append(total // (2 * m + 2 * s + 1))
    row = g[d + 1 :]  # sigma_{k,k+i} at index i, in units of 2^exp
    exp, det, det_exp = -P, 1, 0
    prev, shift, beta = [0] * len(row), 0, 0
    for k in range(D):
        pivot = row[0]
        if not pivot:
            return _mp_det(v, s, energy, D, d)
        det, det_exp = det * pivot, det_exp + exp
        if k + 1 == D:
            break
        ratio = (row[1] << P) // pivot
        alpha, shift = ratio - shift, ratio
        if k:
            beta = (pivot << P) // prev[0]
        # sigma_{k+1,l} = sigma_{k,l+1} - alpha sigma_{k,l} - beta sigma_{k-1,l}, in
        # units of 2^(exp - P); a pivot under P bits is noise and keeps its scale.
        lead = (row[2] << P) - alpha * row[1] - beta * prev[2]
        cut = max(lead.bit_length() - P, 0)
        row, prev = [lead >> cut] + [
            (a << P) - alpha * b - beta * c >> cut for a, b, c in zip(row[3:], row[2:], prev[3:])
        ], row
        exp += cut - P
    det_exp -= t * D * (d + 2) + t * D * (D - 1)
    return mp.mp.make_mpf(from_man_exp(det, det_exp, prec, rnd))


def _log2(x) -> float:
    """log2|x| of an mpf as a float, at any exponent; -inf for 0."""
    _, man, exp, bc = x._mpf_
    if not man:
        return -math.inf
    cut = max(bc - 53, 0)
    return math.log2(man >> cut) + exp + cut


def shared_digits(x, y, cap: int) -> int:
    """The digits on which the mpfs x and y agree, at most cap: -log10|x - y|,
    relative to |x| where |x| > 1, rounded down; cap where x == y. The
    difference is exact, so the count does not depend on the working
    precision."""
    agree = (max(_log2(x), 0.0) - _log2(mp.fsub(x, y, exact=True))) / _LOG2_10
    return math.floor(min(agree, cap))


def _curvature_step(r: float, fa: float, fb: float):
    """The quadratic's correction to the secant step, in the coordinate y of
    x = c + y (b - c): the three points lie at y = r, 1 and 0, with the
    determinants divided by H_D(c), fa, fb and 1, as values. It is the real
    root nearest 0 of the quadratic through them, minus the root ys = 1 / (1 -
    fb) of the line through the last two. None where the quadratic has no
    real root (a negative discriminant); 0 where a float is 0, inf or NaN, so
    that the step is the secant's.

    The correction is the root nearest -ys of the quadratic shifted to ys,
    curve d^2 + beta d + gamma with gamma its value at ys, so it comes without
    cancellation: once the iteration converges it is much smaller than ys,
    and so is its rounding error.
    """
    if not all(math.isfinite(z) and z for z in (r, fa, fb, r - 1, fb - 1)):
        return 0.0
    slope = fb - 1
    curve = ((fa - 1) / r - slope) / (r - 1)
    ys = -1 / slope
    # the quadratic at ys + delta is curve delta^2 + beta delta + gamma
    beta, gamma = slope + curve * (2 * ys - 1), curve * ys * (ys - 1)
    disc = beta * beta - 4 * curve * gamma
    if disc < 0:
        return None
    if math.isnan(disc):
        return 0.0
    big = beta + math.copysign(math.sqrt(disc), beta)
    if not (big and curve):
        return 0.0  # a line, or a double root at ys
    near, far = -2 * gamma / big, -big / (2 * curve)
    delta = near if abs(ys + near) <= abs(ys + far) else far
    return delta if math.isfinite(delta) else 0.0


def _three_point_root(v, s: int, d: int, D: int, t: int, x0, x1):
    """Root of H_D from the pair (x0, x1), one determinant a step: a secant
    step, then Muller's three-point steps (Muller, MTAC 10, 1956).

    Each new iterate is the real root, nearest the newest iterate c, of the
    quadratic through the last three points (a, H_D(a)), (b, H_D(b)), (c,
    H_D(c)). H_D often has a close pair of roots near the eigenvalue, which
    slows the secant to about 5 digits a step (e_{n+1} ~ 10^46 e_n e_{n-1} at
    g = 1, D = 25); the quadratic absorbs that curvature. The step is the
    secant's y = H(c) / (H(c) - H(b)) in units of b - c, at the working
    precision, plus the quadratic's correction to it from
    `_curvature_step`, which needs only relative accuracy and so runs in
    floats: on (a - c) / (b - c) and on the determinants divided by H_D(c).
    Where the quadratic has no real root, or a float of the model is 0, inf
    or NaN, the step is the secant's. After `COMPLEX_PAIR_STEPS` models in a
    row with no real root the iteration stops with NewtonDivergence: the
    iterates circle a complex pair of roots. A close real pair seen from afar
    also gives such models, by float rounding, but in shorter runs: at most
    12 in a row over 600 random pairs 10^-8 to 10^-60 apart, and none on the
    benchmark's trails.

    Determinant evaluation near a root is pure cancellation, so the last
    digits are noise. Iteration stops once a step times its contraction
    against the previous step (about the size of the next step) is below
    10^(10-dps) relative. A step that keeps more than half the size of the
    one before is slow: a close pair of roots seen from afar (iteration goes
    on and resolves it), a multiple root or the noise. After three slow steps
    in a row, below 10^(-dps/2) relative (the accuracy a double root allows),
    a growing step is noise and the iterate before it is returned; a
    shrinking one is linear convergence, and the limit of the geometric
    series of steps is returned. Both tests compare the float log2 of the
    relative step sizes.
    """
    dps = mp.mp.dps
    stop, slow_floor = (10 - dps) * _LOG2_10, -(dps // 2) * _LOG2_10
    a = fa = None
    (b, fb), (c, fc) = ((x, scaled_hankel_det(v, s, x, D, d, t)) for x in (x0, x1))
    slow = no_real_root = 0
    for _ in range(3 * dps):
        if fc == 0:
            return c
        if fc == fb:
            raise NewtonDivergence(f"flat determinant at D={D}, E={mp.nstr(c, 20)}")
        last = b - c
        y = fc / (fc - fb)  # the secant step, in units of b - c
        if a is not None:
            delta = _curvature_step(float((a - c) / last), float(fa / fc), float(fb / fc))
            no_real_root = no_real_root + 1 if delta is None else 0
            if no_real_root >= COMPLEX_PAIR_STEPS:
                raise NewtonDivergence(f"complex pair of roots near D={D}, E={mp.nstr(c, 20)}")
            if delta:
                y += delta
        step = y * last  # the move from c: -y times the previous move, from b to c
        x = c + step
        size = _log2(step) - max(_log2(x), 0.0)
        contraction = _log2(y) if a is not None else 0.0  # log2 |step / previous step|
        if size + min(contraction, 0.0) < stop:
            return x
        slow = slow + 1 if a is not None and contraction > -1 else 0
        if slow >= 3 and size < slow_floor:
            return c if contraction >= 0 else x - step * y / (1 + y)
        a, fa, b, fb, c = b, fb, c, fc, x
        fc = scaled_hankel_det(v, s, x, D, d, t)
    raise NewtonDivergence(f"no convergence within {3 * dps} iterations at D={D}")


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
    """Track the Hankel root from D = 2 up to D_max. The root iteration for
    dimension D (`_three_point_root`) starts from the first terms of the
    trail's geometric extrapolation: the pair x, x + rho^2 Delta, where x =
    r_{D-1} + rho Delta, Delta = r_{D-1} - r_{D-2} and rho = Delta / (r_{D-2}
    - r_{D-3}). Before the trail has three roots the pair is r_{D-1} and a
    point 10^(10-dps) relative above it.

    The seed must lie in the basin of the target eigenvalue (a variational
    estimate does); Hankel determinants have many roots. Returns the D_max
    root, its certified digits and the whole trail.

    Every determinant comes from `scaled_hankel_det` on scaled integers,
    with the exponent t of `_scale_exponent` fitted once, at the seed;
    `mp.det` of the `riccati_coeffs` block runs only where the kernel meets
    an exactly zero pivot.

    `stabilized_digits` is the smaller of two counts: the digits on which the
    last two dimensions agree (the truncation in D), and the digits that the
    D_max determinant at the last two roots, at twice the working precision,
    certifies for a root of any multiplicity up to D_max (the cancellation
    noise of the working precision). The roots themselves come from at most
    the working precision.

    Each dimension 5 <= D < D_max - 1 runs at min(precision_digits,
    max(RAMP_FLOOR, agree + RAMP_MARGIN)) digits, where agree is
    `shared_digits` of r_{D-1} and r_{D-2}; its start offset and stop
    threshold 10^(10-dps) follow that precision. D = 2 ... 4, before the
    trail has three roots, and the D_max - 1 and D_max roots, which give the
    result and both counts of `stabilized_digits`, run at the full
    precision, and the certificate at twice it. The floor, above the 10
    digits of the stop threshold, binds only where the last two roots share
    no digit. A ramped root is a root of its H_D to about agree +
    RAMP_MARGIN - 10 digits, not to the working precision.
    """
    if seed is None or not mp.isfinite(_to_mpf(seed)):
        raise ValueError("an explicit finite seed (e.g. a variational estimate) is required")
    if D_max < 3:
        raise ValueError("D_max must be >= 3")
    if d < 0:
        raise ValueError("displacement d must be >= 0")
    if precision_digits <= 10:
        # the root iteration's stop threshold 10^(10-dps) would be >= 1 relative
        raise ValueError("precision_digits must be > 10")
    with mp.workdps(precision_digits):
        tiny = mp.mpf(10) ** (10 - precision_digits)  # the stop threshold, relative
        roots = [_to_mpf(seed)]
        scale = _scale_exponent(v, s, roots[0], 2 * D_max - 1 + d)
        for D in range(2, D_max + 1):
            dps = precision_digits
            if 4 < D < D_max - 1:
                agree = shared_digits(roots[-1], roots[-2], precision_digits)
                dps = min(precision_digits, max(RAMP_FLOOR, agree + RAMP_MARGIN))
            with mp.workdps(dps):
                # Start from the trail's geometric extrapolation once it has
                # three roots; from the previous root before.
                start, offset = roots[-1], 0
                if D > 4 and roots[-2] != roots[-3]:
                    delta = roots[-1] - roots[-2]
                    rho = delta / (roots[-2] - roots[-3])
                    start, offset = start + rho * delta, rho * rho * delta
                offset = max(offset, mp.mpf(10) ** (10 - dps) * max(1, abs(start)), key=abs)
                roots.append(_three_point_root(v, s, d, D, scale, start, start + offset))
        roots = roots[1:]
        trail = list(zip(range(2, D_max + 1), roots))
        diffs = [abs(b - a) for a, b in zip(roots, roots[1:])]
        tail = [x for x in diffs[-6:] if x > 0]
        # Once diffs reach the noise plateau they fluctuate harmlessly; only a
        # stall at coarse accuracy is worth flagging.
        coarse = mp.mpf(10) ** (-precision_digits // 3)
        if len(tail) >= 2 and tail[-1] > tail[0] and tail[-1] > coarse:
            warnings.warn(
                "root trail stopped contracting before D_max", NonMonotoneTrail
            )
        last = roots[-1]
        prev = roots[-2] if roots[-2] != last else last + tiny * max(1, abs(last))
        error = abs(last - prev)
        # H_D_max at the last two roots, at twice the digits. Where it keeps its
        # sign, a root of multiplicity m lies at distance error * t / |1 - t|
        # from `last`, t = (H(last) / H(prev))^(1/m); m = 1 is the secant step,
        # and m = D_max (the harmonic limit, where all D moments vanish
        # together) gives the largest distance for m <= D_max.
        with mp.workdps(2 * precision_digits):
            f_last, f_prev = (scaled_hankel_det(v, s, x, D_max, d, scale) for x in (last, prev))
            if f_last * f_prev > 0:
                t = (f_last / f_prev) ** (mp.mpf(1) / D_max)
                error = max(error, error * t / abs(1 - t)) if t != 1 else abs(last)
        return RpmResult(e_value=last, stabilized_digits=_digits(error, last), trail=tuple(trail))
