import json
import warnings
from decimal import Decimal
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anharm2d import cli, rpm
from anharm2d.eig import eig_selfadjoint
from anharm2d.oscbasis import build_hamiltonian_1d, optimal_omega
from anharm2d.rpm import (
    COMPLEX_PAIR_STEPS,
    NewtonDivergence,
    NonMonotoneTrail,
    RiccatiSeries,
    _mp_det,
    _scale_exponent,
    riccati_coeffs,
    rpm_eigenvalue,
    scaled_hankel_det,
)


def _full_precision(monkeypatch):
    """Run every D of the trail at the working precision, as the trail ran
    before the ramp: with a margin of 10^6 digits, min(precision_digits,
    agree + RAMP_MARGIN) is precision_digits at every D."""
    monkeypatch.setattr(rpm, "RAMP_MARGIN", 10**6)


def test_harmonic_ground_series_terminates():
    series = riccati_coeffs([0, 1], s=0, e_value=1, m_max=5)
    assert series.coeffs[0] == 1
    assert all(c == 0 for c in series.coeffs[1:])


def test_harmonic_first_odd_state():
    series = riccati_coeffs([0, 1], s=1, e_value=3, m_max=3)
    assert series.coeffs[0] == 1
    assert all(c == 0 for c in series.coeffs[1:])


def test_hand_recursion_quartic():
    series = riccati_coeffs([0, 1, 4], s=0, e_value=2, m_max=2)
    assert series.coeffs[0] == 2
    assert series.coeffs[1] == 1  # (f0^2 - 1)/3
    assert series.coeffs[2] == 0  # (2 f0 f1 - 4)/5


def _ode_series_logderiv(v, s, energy, terms):
    """Independent oracle: solve psi'' = (V - E) psi as a power series
    psi = x^s sum c_k x^{2k}, then expand f = -u'/u for u = psi / x^s."""
    # mpmath has no Fraction constructor; convert exactly, without rpm's helper
    v = [mp.mpf(vm.numerator) / vm.denominator if isinstance(vm, Fraction) else mp.mpf(vm) for vm in v]
    c = [mp.mpf(1)]
    for k in range(terms):
        total = -energy * c[k]
        for m, vm in enumerate(v):
            if k - m >= 0:
                total += vm * c[k - m]
        c.append(total / ((2 * k + 2 + s) * (2 * k + 1 + s)))
    f = []
    for big_k in range(terms):
        val = -2 * (big_k + 1) * c[big_k + 1]
        for j in range(big_k):
            val -= f[j] * c[big_k - j]
        f.append(val)
    return f


@pytest.mark.parametrize("g", [Fraction(1, 10), 1])
@pytest.mark.parametrize("s", [0, 1])
def test_recursion_matches_ode_series_oracle(g, s):
    rng_energies = [mp.mpf("0.731"), mp.mpf("1.618"), mp.mpf("2.95")]
    with mp.workdps(60):
        for energy in rng_energies:
            mine = riccati_coeffs([0, 1, g], s=s, e_value=energy, m_max=49).coeffs
            oracle = _ode_series_logderiv([0, 1, g], s, energy, 50)
            for a, b in zip(mine, oracle):
                assert abs(a - b) <= mp.mpf(10) ** (-45) * max(1, abs(a))


def _mpf_recursion(v, s, energy, m_max):
    """The recursion in mpf arithmetic: mp.fsum of the products f_j f_{m-1-j}."""
    coeffs = []
    for m in range(m_max + 1):
        total = mp.fsum(coeffs[j] * coeffs[m - 1 - j] for j in range(m))
        total -= v[m] if m < len(v) else 0
        if m == 0:
            total += energy
        coeffs.append(total / (2 * m + 2 * s + 1))
    return coeffs


@pytest.mark.parametrize("s", [0, 1])
def test_recursion_is_bit_identical_to_mpf_arithmetic(s):
    with mp.workdps(50):
        v = [mp.mpf(0), mp.mpf(1), mp.mpf(5) / 4]
        for energy in (mp.mpf("1.3"), mp.mpf("4.6488"), mp.pi):
            mine = riccati_coeffs(v, s=s, e_value=energy, m_max=40).coeffs
            assert [c._mpf_ for c in mine] == [c._mpf_ for c in _mpf_recursion(v, s, energy, 40)]


def test_hankel_harmonic_is_exactly_zero(monkeypatch):
    # Every moment is zero, so sigma_{0,0} = 0 stops the Chebyshev recursion
    # and mp.det's exact int 0 comes back from the fallback.
    fallbacks = []
    monkeypatch.setattr(rpm, "_mp_det", lambda *args: fallbacks.append(args) or _mp_det(*args))
    with mp.workdps(40):
        for D in (1, 2, 4, 5):
            for t in (-3, 0, 3):
                det = scaled_hankel_det([0, 1], 0, 1, D, 0, t)
                assert type(det) is int and det == 0
    assert len(fallbacks) == 4 * 3


def test_hankel_one_by_one_is_first_coefficient():
    # D = 1 is the entry f_{d+1}: f_1 = (f_0^2 - 1) / 3 comes out bit for bit,
    # and the later f_j, rounded differently in the fixed point, agree to the
    # working precision (6.6e-41 relative at most, measured).
    with mp.workdps(40):
        series = riccati_coeffs([0, 1, 4], s=0, e_value=mp.mpf("1.9"), m_max=3)
        for t in (-3, 0, 3):
            assert scaled_hankel_det([0, 1, 4], 0, mp.mpf("1.9"), 1, 0, t)._mpf_ == series.coeffs[1]._mpf_
            for d in (1, 2):
                det, f = scaled_hankel_det([0, 1, 4], 0, mp.mpf("1.9"), 1, d, t), series.coeffs[d + 1]
                assert abs(det - f) <= mp.mpf(10) ** -40 * abs(f)


def test_hankel_sign_change_brackets_the_eigenvalue():
    # D = 3 at d = 0 uses f_1..f_5; the D = 2 root (1.89265) is still 0.01
    # below the eigenvalue 1.90314.
    with mp.workdps(40):
        t = _scale_exponent([0, 1, 4], 0, mp.mpf("1.9"), 5)
        lo = scaled_hankel_det([0, 1, 4], 0, mp.mpf("1.9"), 3, 0, t)
        hi = scaled_hankel_det([0, 1, 4], 0, mp.mpf("1.91"), 3, 0, t)
    assert lo * hi < 0
    # the bracketed root sits at the variational ground energy
    e_var = eig_selfadjoint(build_hamiltonian_1d({2: 1.0, 4: 4.0}, 50, optimal_omega(4.0))).eigenvalues[0]
    assert 1.9 < e_var < 1.91


def test_harmonic_root_found_at_every_dimension():
    result = rpm_eigenvalue([0, 1], s=0, D_max=6, seed=0.9, precision_digits=50)
    for _, root in result.trail:
        assert abs(root - 1) < mp.mpf(10) ** (-9)
    assert abs(result.e_value - 1) < mp.mpf(10) ** (-9)


def test_harmonic_certificate_does_not_overclaim():
    # The root has multiplicity D at the harmonic limit, where the linear
    # (secant) step through the last two roots reads the distance to it about
    # D times too small.
    result = rpm_eigenvalue([0, 1], s=0, D_max=6, seed=0.9, precision_digits=50)
    with mp.workdps(50):
        assert result.stabilized_digits <= -mp.log10(abs(result.e_value - 1))


@pytest.mark.parametrize("g", [Fraction(1, 10), 1, 2, 100])
@pytest.mark.parametrize("s", [0, 1])
def test_certificate_does_not_overclaim(g, s):
    ham = build_hamiltonian_1d({2: 1.0, 4: float(g)}, 60, optimal_omega(float(g)))
    seed = float(eig_selfadjoint(ham).eigenvalues[s])
    result = rpm_eigenvalue([0, 1, g], s=s, D_max=12, seed=seed, precision_digits=40)
    ref = rpm_eigenvalue([0, 1, g], s=s, D_max=20, seed=seed, precision_digits=60)
    with mp.workdps(60):
        true_digits = -mp.log10(abs(result.e_value - ref.e_value) / ref.e_value)
    assert 15 <= result.stabilized_digits <= true_digits


@pytest.mark.parametrize("g", [Fraction(1, 10), 1, 2])
def test_trail_roots_agree_across_precision(g):
    """Each trail root is the root of its own H_D: a run at 120 digits finds
    the same roots. A central-difference Newton, whose difference step was
    wider than a cluster of H_D roots, left them 19 to 21 digits apart."""
    low = rpm_eigenvalue([0, 1, g], s=0, D_max=14, seed=1.4, precision_digits=50)
    high = rpm_eigenvalue([0, 1, g], s=0, D_max=14, seed=1.4, precision_digits=120)
    with mp.workdps(120):
        for (_, a), (_, b) in zip(low.trail, high.trail):
            assert abs(a - b) <= mp.mpf(10) ** -35 * b


def test_parity_completeness_against_variational():
    """Lowest even and odd roots for g=1 match the two lowest Rayleigh-Ritz
    eigenvalues of p^2 + x^2 + x^4."""
    ham = build_hamiltonian_1d({2: 1.0, 4: 1.0}, 80, optimal_omega(1.0))
    e_var = eig_selfadjoint(ham).eigenvalues
    even = rpm_eigenvalue([0, 1, 1], s=0, D_max=15, seed=float(e_var[0]), precision_digits=50)
    odd = rpm_eigenvalue([0, 1, 1], s=1, D_max=15, seed=float(e_var[1]), precision_digits=50)
    assert abs(float(even.e_value) - e_var[0]) < 1e-10
    assert abs(float(odd.e_value) - e_var[1]) < 1e-10
    assert float(even.e_value) < float(odd.e_value)


def test_trail_contracts_with_dimension():
    result = rpm_eigenvalue([0, 1, 4], s=0, D_max=12, seed=1.9, precision_digits=60)
    roots = [root for _, root in result.trail]
    final = result.e_value
    errors = [abs(r - final) for r in roots[:-1]]
    # monotone decrease from D=5 once above the noise plateau
    meaningful = [e for e in errors[3:] if e > mp.mpf(10) ** (-50)]
    assert all(b < a for a, b in zip(meaningful, meaningful[1:]))
    assert result.stabilized_digits >= 20


def test_trail_report_json(capsys):
    """The trail report, which only cli.py formats, matches the library's result."""
    argv = ["rpm", "--g", "4", "--digits", "40", "--dmax", "6", "--seed", "1.9"]
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    result = rpm_eigenvalue([0, 1, 4], s=0, D_max=6, seed=1.9, precision_digits=40)
    assert report["g"] == "4"
    assert report["state"] == "even" and report["d"] == 0
    assert [entry["D"] for entry in report["trail"]] == [2, 3, 4, 5, 6]
    assert report["trail"][-1]["E"].startswith("1.90313")
    assert report["stabilized_digits"] == result.stabilized_digits


def _last_digit(text: str):
    """The unit of the last digit of an mp.nstr string. strip_zeros leaves
    no trailing zero after the point but the one it adds to an integer
    (17.83 to 2 digits prints "18.0"), which is not a digit of the value."""
    mantissa, _, exponent = text.partition("e")
    mantissa = mantissa.removesuffix(".0")
    return mp.mpf(10) ** Decimal(f"{mantissa}e{exponent or 0}").as_tuple().exponent


@pytest.mark.parametrize("g", ["1", "3/2", "5/4", "6/5", "1/10", "100"])
@pytest.mark.parametrize("state", ["even", "odd"])
def test_printed_trail_keeps_only_its_digits(monkeypatch, capsys, g, state):
    """`rpm --g` prints each trail root below D_max to the digits it shares
    with the next root, and the D_max root as `energy`. Each printed root
    lies within its last printed digit of the root of the trail run at the
    full precision, and has at most one digit past its agreement with the
    eigenvalue; `energy` and `stabilized_digits` are the full-precision
    run's."""
    assert cli.main(["rpm", "--g", g, "--state", state]) == 0
    report = json.loads(capsys.readouterr().out)
    coupling, s = cli.exact_lambda(g), ("even", "odd").index(state)
    seed = float(cli._levels_1d(coupling, 40)[s])
    _full_precision(monkeypatch)
    full = rpm_eigenvalue([0, 1, coupling], s=s, seed=seed)
    assert [entry["D"] for entry in report["trail"]] == [D for D, _ in full.trail]
    assert report["trail"][-1]["E"] == report["energy"] == mp.nstr(full.e_value, 80)
    assert report["stabilized_digits"] == full.stabilized_digits
    with mp.workdps(200):
        for entry, (D, root) in zip(report["trail"][:-1], full.trail):
            unit = _last_digit(entry["E"])
            assert abs(mp.mpf(entry["E"]) - root) <= unit, D
            assert unit >= abs(root - full.e_value) / 10, D


def test_low_precision_trail_meets_a_complex_pair(capsys):
    """At 20 digits the D = 27 determinants of g = 1/10, s = 1 are all
    cancellation noise, and the root tracker stops on what reads as a
    complex pair: exit 3, also with every D at the full precision. This pins
    the known failure; a kernel that knows its own noise should change it."""
    argv = ["rpm", "--g", "1/10", "--state", "odd", "--dmax", "35", "--digits", "20"]
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["error"] == "NewtonDivergence"
    assert error["detail"].startswith("complex pair of roots near D=27, E=-5.48488")


def test_precision_scaling_only_extends_digits():
    low = rpm_eigenvalue([0, 1, 4], s=0, D_max=12, seed=1.9, precision_digits=40)
    high = rpm_eigenvalue([0, 1, 4], s=0, D_max=12, seed=1.9, precision_digits=80)
    agree = min(low.stabilized_digits, high.stabilized_digits, 35)
    with mp.workdps(100):
        diff = abs(low.e_value - high.e_value)
        assert diff < mp.mpf(10) ** (-agree + 1)


def test_validation_errors():
    with pytest.raises(ValueError):
        rpm_eigenvalue([0, 1, 4], s=0, D_max=2, seed=1.9)
    with pytest.raises(ValueError):
        rpm_eigenvalue([0, 1, 4], s=0, D_max=10, seed=None)
    with pytest.raises(ValueError):
        rpm_eigenvalue([0, 1, 4], s=0, D_max=6, seed=float("nan"))
    with pytest.raises(ValueError):
        rpm_eigenvalue([0, 1, 4], s=0, d=-1, D_max=6, seed=1.9)
    with pytest.raises(ValueError):
        riccati_coeffs([0, 1], s=2, e_value=1, m_max=3)


def _mp_det_oracle(v, s, energy, D, d):
    """Reference determinant: mpmath's own LU on an mp.matrix of the block."""
    f = riccati_coeffs(v, s, energy, 2 * D - 1 + d).coeffs
    return mp.det(mp.matrix([[f[i + j + d + 1] for j in range(D)] for i in range(D)]))


def _assert_same_det(v, s, energy, D, d=0):
    mine, ref = _mp_det(v, s, energy, D, d), _mp_det_oracle(v, s, energy, D, d)
    assert type(mine) is type(ref)
    if isinstance(ref, mp.mpf):
        assert mine._mpf_ == ref._mpf_
    else:
        assert mine == ref
    return ref


def test_hankel_matches_mp_det_on_the_harmonic_series():
    with mp.workdps(40):
        for D in (1, 2, 5):
            det = _assert_same_det([0, 1], 0, 1, D)
            assert type(det) is int and det == 0


def test_hankel_matches_mp_det_below_the_singularity_threshold():
    # A Newton iterate of rpm_eigenvalue([0, 1, 1], s=1, D_max=25, seed=<variational>)
    # at 80 digits. At D = 16 its last pivot is below ||A||_1 * eps, so mp.det
    # returns int 0.
    with mp.workdps(80):
        energy = mp.mpf((551214833145542759595461655893291741944393698487717823256927585795641601746067609, -266))
        det = _assert_same_det([0, 1, 1], 1, energy, 16)
        assert type(det) is int and det == 0
        assert isinstance(_assert_same_det([0, 1, 1], 1, energy, 4), mp.mpf)


def test_hankel_exactly_zero_column_is_singular(monkeypatch):
    # [[1,1,1],[1,1,1],[1,1,0]]: after the first elimination the second column
    # is exactly zero, so mpmath 1.3's det finds no pivot row and fails with
    # a TypeError; the fallback returns int 0 there.
    coeffs = tuple(mp.mpf(c) for c in (0, 1, 1, 1, 1, 0))
    with pytest.raises(TypeError):
        mp.det(mp.matrix([[coeffs[i + j + 1] for j in range(3)] for i in range(3)]))
    monkeypatch.setattr(rpm, "riccati_coeffs", lambda *args: RiccatiSeries(s=0, coeffs=coeffs))
    det = _mp_det([0, 1], 0, 1, 3, 0)
    assert type(det) is int and det == 0


def _libmp_reference_det(v, s, energy, D, d, t):
    """The trail's determinant from the libmp series and mp.det, for `scaled_hankel_det`."""
    return _mp_det_oracle(v, s, energy, D, d)


@pytest.mark.parametrize(
    "v, s, seed, d_max, dps",
    [([0, 1, 4], 0, 1.9, 10, 40), ([0, 1, 1], 1, 4.6488, 12, 50)],
)
def test_rpm_result_agrees_with_mp_det_path(monkeypatch, v, s, seed, d_max, dps):
    # The integer kernel rounds differently from mp.det's LU on the libmp
    # series, so the roots agree to about 2/3 of the digits (measured:
    # 1.2e-41 and 1.7e-42 relative here). Both trails run at the full
    # precision, which ramped roots below D_max - 1 do not keep.
    _full_precision(monkeypatch)
    mine = rpm_eigenvalue(v, s=s, D_max=d_max, seed=seed, precision_digits=dps)
    monkeypatch.setattr(rpm, "scaled_hankel_det", _libmp_reference_det)
    ref = rpm_eigenvalue(v, s=s, D_max=d_max, seed=seed, precision_digits=dps)
    assert [D for D, _ in mine.trail] == [D for D, _ in ref.trail]
    assert mine.stabilized_digits == ref.stabilized_digits
    with mp.workdps(2 * dps):
        bound = mp.mpf(10) ** (-2 * dps / 3)
        for (_, a), (_, b) in zip(mine.trail, ref.trail):
            assert abs(a - b) <= bound * abs(b)


def test_rpm_takes_the_chebyshev_path(monkeypatch, capsys):
    """Every determinant of the benchmark's root trails (`rpm --g` at the CLI
    defaults: D_max 25, 80 digits, variational seed) comes from the integer
    kernel; none falls back to the O(D^3) mp.det."""
    calls = {}
    kernel, fallback = rpm.scaled_hankel_det, rpm._mp_det

    def counted(*args):
        calls["kernel"] += 1
        return kernel(*args)

    def no_fallback(*args):
        calls["fallback"] += 1
        return fallback(*args)

    monkeypatch.setattr(rpm, "scaled_hankel_det", counted)
    monkeypatch.setattr(rpm, "_mp_det", no_fallback)
    for g in ("1", "3/2", "5/4", "6/5"):
        calls.update(kernel=0, fallback=0)
        assert cli.main(["rpm", "--g", g]) == 0
        capsys.readouterr()
        assert calls["kernel"] > 0, g
        assert calls["fallback"] == 0, g


def _relative_error(x, ref, dps):
    """|x - ref| / |ref| between the working precision's 10^-dps and 1: an
    error of 100% or more is no correct digit, whatever its size."""
    return min(max(abs(x - ref) / abs(ref), mp.mpf(10) ** -dps), 1)


@settings(max_examples=60, deadline=None)
@given(
    g=st.fractions(min_value=Fraction(1, 10), max_value=100, max_denominator=1000),
    s=st.sampled_from((0, 1)),
    d=st.integers(0, 2),
    D=st.integers(1, 16),
    energy=st.fractions(min_value=Fraction(1, 2), max_value=9, max_denominator=10**6),
    dps=st.sampled_from((30, 40, 80)),
)
def test_integer_kernel_is_as_accurate_as_mp_det(g, s, d, D, energy, dps):
    """On every block the integer kernel is within one digit of mp.det at the
    same working precision, or better, both measured against mp.det of the
    same block at twice the digits. Where cancellation leaves no digit at the
    working precision, mp.det returns int 0 (g = 1/10, s = 0, d = 1, D = 15,
    E = 179677/19965 at 30 digits; the kernel reads 3.4e-223 for -1.06e-226)
    and neither has an error below 1."""
    with mp.workdps(dps):
        t = _scale_exponent([0, 1, g], s, energy, 2 * D - 1 + d)
        fast = scaled_hankel_det([0, 1, g], s, energy, D, d, t)
        lu = _mp_det_oracle([0, 1, g], s, energy, D, d)
    with mp.workdps(2 * dps):
        ref = _mp_det_oracle([0, 1, g], s, energy, D, d)
        if ref == 0:
            return
        assert _relative_error(fast, ref, dps) <= 10 * _relative_error(lu, ref, dps)


@pytest.mark.parametrize("v, s, seed", [([0, 1, 1], 0, 1.39), ([0, 1, Fraction(1, 10)], 1, 3.3), ([0, 1, 100], 0, 5.0)])
def test_scale_exponent_does_not_move_the_roots(monkeypatch, v, s, seed):
    """The rescaling 2^{t(j+1)} is exact, so t and t +- 3 find the same roots
    and certify the same digits. Only the fixed point's rounding moves: the
    trails, each at the full precision, differ by at most 1.9e-44 relative at
    60 digits (measured)."""
    _full_precision(monkeypatch)
    runs = {}
    for dt in (0, 3, -3):
        monkeypatch.setattr(rpm, "_scale_exponent", lambda *args, dt=dt: _scale_exponent(*args) + dt)
        runs[dt] = rpm_eigenvalue(v, s=s, D_max=20, seed=seed, precision_digits=60)
    base = runs[0]
    for dt in (3, -3):
        assert runs[dt].stabilized_digits == base.stabilized_digits
        assert [D for D, _ in runs[dt].trail] == [D for D, _ in base.trail]
        with mp.workdps(60):
            for (_, a), (_, b) in zip(runs[dt].trail, base.trail):
                assert abs(a - b) <= mp.mpf(10) ** -40 * abs(b)


# Energies printed before the trail moved to the integer kernel, with the
# stabilized digits they claimed (case 1 prints none).
PRINTED = [
    (["rpm", "--g", "1"], "energy", "1.3923516415302918556575078766099341846000667112207509715588603825592693378470521", 47),
    (["rpm", "--g", "100"], "energy", "4.9994175451375878292946320373496527186255073857542411524746318172766349473695519", 45),
    (["rpm", "--g", "1/10"], "energy", "1.0652855095437176888570916287890930843044864178189129232343024185623130210032981", 53),
    (["case", "1"], "ground_energy_rpm", "2.9031369454590000222938507222010239318173139646887436506147914082297939917757603", None),
]


@pytest.mark.parametrize("argv, key, printed, digits", PRINTED)
def test_printed_energies_keep_their_digits(capsys, argv, key, printed, digits):
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    with mp.workdps(100):
        assert abs(mp.mpf(report[key]) - mp.mpf(printed)) <= mp.mpf(10) ** -70 * mp.mpf(printed)
    assert report.get("stabilized_digits") == digits


def _secant_oracle(v, s, d, D, t, x0, x1):
    """The secant root tracker that preceded the three-point one, as it was:
    one determinant a step, the same stop, slow-step and noise rules, all in
    mpf arithmetic."""
    dps = mp.mp.dps
    slow_floor = mp.mpf(10) ** (-(dps // 2))
    stop = mp.mpf(10) ** (10 - dps)
    f0, f1 = (rpm.scaled_hankel_det(v, s, x, D, d, t) for x in (x0, x1))
    prev_step, slow = None, 0
    for _ in range(3 * dps):
        if f1 == 0:
            return x1
        if f1 == f0:
            raise NewtonDivergence(f"flat determinant at D={D}")
        step = f1 * (x1 - x0) / (f1 - f0)
        x0, f0, x1 = x1, f1, x1 - step
        size = abs(step)
        ratio = step / prev_step if prev_step else 1
        if size * min(abs(ratio), 1) < stop * max(1, abs(x1)):
            return x1
        slow = slow + 1 if prev_step and abs(ratio) > 0.5 else 0
        if slow >= 3 and size < slow_floor * max(1, abs(x1)):
            return x0 if abs(ratio) >= 1 else x1 - step * ratio / (1 - ratio)
        prev_step = step
        f1 = rpm.scaled_hankel_det(v, s, x1, D, d, t)
    raise NewtonDivergence(f"no convergence within {3 * dps} iterations at D={D}")


@pytest.mark.parametrize("g", [1, Fraction(3, 2), Fraction(5, 4), Fraction(6, 5), 4, 2 * 10**6])
@pytest.mark.parametrize("s", [0, 1])
def test_trail_roots_equal_the_secant_oracle(monkeypatch, g, s):
    """At the command line's settings (D_max 25, 80 digits, 40-state seed) the
    three-point tracker finds every trail root of the secant, to 10^-65
    relative (7.3e-75 at most measured on the `rpm --g` commands), and
    certifies the same digits. Both trails run at the full precision."""
    seed = float(cli._levels_1d(Fraction(g), 40)[s])
    _full_precision(monkeypatch)
    mine = rpm_eigenvalue([0, 1, g], s=s, seed=seed)
    monkeypatch.setattr(rpm, "_three_point_root", _secant_oracle)
    ref = rpm_eigenvalue([0, 1, g], s=s, seed=seed)
    assert mine.stabilized_digits == ref.stabilized_digits
    assert [D for D, _ in mine.trail] == [D for D, _ in ref.trail]
    with mp.workdps(80):
        for (_, a), (_, b) in zip(mine.trail, ref.trail):
            assert abs(a - b) <= mp.mpf(10) ** -65 * abs(b)


def test_rpm_g1_determinant_budget(monkeypatch, capsys):
    """`rpm --g 1` evaluates at most 100 Hankel determinants, the two of the
    certificate included: 90 measured with the ramp, 133 with every D at
    the full precision, where the secant tracker took 175. The count is the
    same on every host."""
    calls, kernel = [], rpm.scaled_hankel_det
    monkeypatch.setattr(rpm, "scaled_hankel_det", lambda *args: calls.append(args) or kernel(*args))
    assert cli.main(["rpm", "--g", "1"]) == 0
    capsys.readouterr()
    assert len(calls) <= 100


def _determinant(monkeypatch, func):
    """Replace H_D by func(E); the points where it is evaluated are collected."""
    points = []
    monkeypatch.setattr(rpm, "scaled_hankel_det", lambda v, s, x, D, d, t: points.append(x) or func(x))
    return points


@pytest.mark.parametrize("x0, x1", [("1.3", "1.31"), ("0.5", "0.6"), ("2", "2.5")])
def test_close_real_pair_converges(monkeypatch, x0, x1):
    """A pair of roots 10^-30 apart: seen from afar the quadratic's two roots
    are a double root to float precision, and the iteration still settles on
    one of the pair to the working precision."""
    with mp.workdps(80):
        eps = mp.mpf(10) ** -30
        _determinant(monkeypatch, lambda x: (x - 1) * (x - 1 - eps))
        root = rpm._three_point_root([0, 1], 0, 0, 3, 0, mp.mpf(x0), mp.mpf(x1))
        assert type(root) is mp.mpf
        assert min(abs(root - 1), abs(root - 1 - eps)) <= mp.mpf(10) ** -70


def test_complex_pair_takes_the_secant_fallback(monkeypatch):
    """(E - 1)^2 + 10^-40 has no real root. The quadratic through three of its
    points is the function itself, so the model's discriminant is negative,
    or zero to float rounding while the points lie far from the pair; at the
    negative ones the step falls back to the secant's. The iteration does
    not settle, and after COMPLEX_PAIR_STEPS such models in a row it says so
    with NewtonDivergence: 21 determinants measured, where it spent 242 (3
    dps iterations) before that stop. No complex number reaches the iterates
    and no float error escapes."""
    models, curvature = [], rpm._curvature_step
    monkeypatch.setattr(rpm, "_curvature_step", lambda *args: models.append(curvature(*args)) or models[-1])
    with mp.workdps(80):
        points = _determinant(monkeypatch, lambda x: (x - 1) ** 2 + mp.mpf(10) ** -40)
        with pytest.raises(NewtonDivergence, match="complex pair"):
            rpm._three_point_root([0, 1], 0, 0, 3, 0, mp.mpf("1.3"), mp.mpf("1.31"))
    assert None in models
    assert all(type(x) is mp.mpf for x in points)
    assert models[-COMPLEX_PAIR_STEPS:] == [None] * COMPLEX_PAIR_STEPS
    assert len(points) <= 30


def test_curvature_step_tells_no_real_root_from_a_float_failure():
    """None only where the model has no real root; 0, the secant's step,
    where a float of the model is 0, inf or NaN. The three points sit at y =
    2, 1, 0 with values fa, fb, 1."""
    assert rpm._curvature_step(2.0, 5.0, 2.0) is None  # y^2 + 1
    # -(y - 3)(y + 5) / 15: root 3, against the secant's 1 / (1 - fb) = 5
    assert rpm._curvature_step(2.0, 7 / 15, 0.8) == pytest.approx(-2.0)
    for args in ((0.0, 5.0, 2.0), (2.0, float("inf"), 2.0), (2.0, float("nan"), 2.0), (2.0, 5.0, 1.0)):
        assert rpm._curvature_step(*args) == 0.0


@pytest.mark.parametrize("D_max", [25, 35])
@pytest.mark.parametrize("g", [Fraction(1, 10), 1, 4, 2 * 10**6])
@pytest.mark.parametrize("s", [0, 1])
def test_ramped_trail_ends_on_the_full_precision_root(monkeypatch, g, s, D_max):
    """With the ramp, D = 5 ... D_max - 2 run at the digits on which the
    trail agrees plus RAMP_MARGIN, and the last two at the full 80 digits:
    the D_max root and `stabilized_digits` are the full-precision run's, bit
    for bit. Each ramped root is far closer to its full-precision twin than
    the twin is to the D_max root: 11 digits closer at least, measured."""
    seed = float(cli._levels_1d(Fraction(g), 60)[s])
    ramped = rpm_eigenvalue([0, 1, g], s=s, D_max=D_max, seed=seed)
    _full_precision(monkeypatch)
    full = rpm_eigenvalue([0, 1, g], s=s, D_max=D_max, seed=seed)
    assert ramped.e_value._mpf_ == full.e_value._mpf_
    assert ramped.stabilized_digits == full.stabilized_digits
    assert [D for D, _ in ramped.trail] == [D for D, _ in full.trail]
    with mp.workdps(200):
        for (_, a), (_, b) in zip(ramped.trail[:-1], full.trail[:-1]):
            assert abs(a - b) <= mp.mpf(10) ** -8 * abs(b - full.e_value)


@pytest.mark.parametrize("case", ["1", "2"])
def test_case_determinant_budget(monkeypatch, capsys, case):
    """`case 1` and `case 2` at their defaults (one quartic factor, g = 4 and
    g = 2*10^6, D_max 25 at 80 digits) evaluate at most 110 Hankel
    determinants, the two of the certificate included: 94 measured each with
    the ramp, 135 and 139 without it. The count is the same on every host."""
    calls, kernel = [], rpm.scaled_hankel_det
    monkeypatch.setattr(rpm, "scaled_hankel_det", lambda *args: calls.append(mp.mp.dps) or kernel(*args))
    assert cli.main(["case", case]) == 0
    capsys.readouterr()
    assert len(calls) <= 110
    assert min(calls) < 80  # the ramp ran


def _fake_trail(monkeypatch, root):
    """Replace the root of H_D by root(D), at the working precision; the
    precision of each dimension is collected."""
    precisions = []

    def fake(v, s, d, D, t, x0, x1):
        precisions.append(mp.mp.dps)
        return root(D)

    monkeypatch.setattr(rpm, "_three_point_root", fake)
    return precisions


@pytest.mark.parametrize("ramp", [False, True])
def test_non_monotone_trail_warns_on_a_coarse_stall_only(monkeypatch, ramp):
    """A trail whose steps grow again at 10^-12, far above the coarse
    threshold 10^-(80 // 3), warns NonMonotoneTrail; a trail that contracts
    by 10 a dimension does not. With the ramp, both pass through its lower
    precisions and keep their verdicts; without it (`_full_precision`) every
    D runs at 80 digits."""
    if not ramp:
        _full_precision(monkeypatch)
    stall = _fake_trail(
        monkeypatch, lambda D: 1 + mp.mpf(10) ** -D if D <= 15 else 1 + (-1) ** D * (D - 14) * mp.mpf(10) ** -12
    )
    with pytest.warns(NonMonotoneTrail):
        rpm_eigenvalue([0, 1, 1], s=0, D_max=25, seed=1.39)
    contract = _fake_trail(monkeypatch, lambda D: 1 + mp.mpf(10) ** -D)
    with warnings.catch_warnings():
        warnings.simplefilter("error", NonMonotoneTrail)
        rpm_eigenvalue([0, 1, 1], s=0, D_max=25, seed=1.39)
    for precisions in (stall, contract):
        assert len(precisions) == 24
        assert (min(precisions) < 80) == ramp
