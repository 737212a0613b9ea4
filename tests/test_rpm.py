import json
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anharm2d import cli, rpm
from anharm2d.eig import eig_selfadjoint
from anharm2d.oscbasis import build_hamiltonian_1d, optimal_omega
from anharm2d.rpm import (
    HankelSpec,
    InsufficientCoefficients,
    RiccatiSeries,
    _lu_det,
    _scale_exponent,
    hankel_det,
    riccati_coeffs,
    rpm_eigenvalue,
    scaled_hankel_det,
)


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
    # and the LU's exact int 0 comes back; the integer kernel gets it from
    # the same fallback.
    fallbacks = []
    monkeypatch.setattr(rpm, "_lu_det", lambda series, spec: fallbacks.append(spec) or _lu_det(series, spec))
    with mp.workdps(40):
        series = riccati_coeffs([0, 1], s=0, e_value=1, m_max=11)
        for D in (1, 2, 4, 5):
            det = hankel_det(series, HankelSpec(D=D))
            assert type(det) is int and det == 0
            for t in (-3, 0, 3):
                det = scaled_hankel_det([0, 1], 0, 1, D, 0, t)
                assert type(det) is int and det == 0
    assert len(fallbacks) == 4 * 4


def test_hankel_one_by_one_is_first_coefficient():
    with mp.workdps(40):
        series = riccati_coeffs([0, 1, 4], s=0, e_value=mp.mpf("1.9"), m_max=3)
        for d in (0, 1, 2):
            assert hankel_det(series, HankelSpec(D=1, d=d))._mpf_ == series.coeffs[d + 1]._mpf_


def test_hankel_needs_enough_coefficients():
    series = riccati_coeffs([0, 1, 4], s=0, e_value=2, m_max=3)
    with pytest.raises(InsufficientCoefficients):
        hankel_det(series, HankelSpec(D=3))


def test_hankel_sign_change_brackets_the_eigenvalue():
    # D = 3 at d = 0 uses f_1..f_5, exactly the coefficients computed here; the
    # D = 2 root (1.89265) is still 0.01 below the eigenvalue 1.90314.
    with mp.workdps(40):
        lo = hankel_det(riccati_coeffs([0, 1, 4], 0, mp.mpf("1.9"), 5), HankelSpec(D=3))
        hi = hankel_det(riccati_coeffs([0, 1, 4], 0, mp.mpf("1.91"), 5), HankelSpec(D=3))
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
    # The root has multiplicity D at the harmonic limit, where one secant
    # step reads about D times too small.
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
        riccati_coeffs([0, 1], s=2, e_value=1, m_max=3)


def _mp_det_oracle(series, spec):
    """Reference determinant: mpmath's own LU on an mp.matrix of the block."""
    D, d = spec.D, spec.d
    return mp.det(mp.matrix([[series.coeffs[i + j + d + 1] for j in range(D)] for i in range(D)]))


def _assert_same_det(series, spec):
    mine, ref = _lu_det(series, spec), _mp_det_oracle(series, spec)
    assert type(mine) is type(ref)
    if isinstance(ref, mp.mpf):
        assert mine._mpf_ == ref._mpf_
    else:
        assert mine == ref
    return ref


def test_hankel_matches_mp_det_when_pivoting_swaps_rows():
    # At E = 1.9 the scaled pivot rule swaps rows once for D = 3 and twice
    # for D = 4, so the sign bookkeeping is exercised.
    with mp.workdps(40):
        for D in (2, 3, 4):
            series = riccati_coeffs([0, 1, 4], 0, mp.mpf("1.9"), 2 * D - 1)
            assert isinstance(_assert_same_det(series, HankelSpec(D=D)), mp.mpf)
        for d in (1, 2):
            series = riccati_coeffs([0, 1, Fraction(1, 10)], 1, mp.mpf("0.5"), 2 * 6 - 1 + d)
            _assert_same_det(series, HankelSpec(D=6, d=d))


def test_hankel_matches_mp_det_on_the_harmonic_series():
    with mp.workdps(40):
        series = riccati_coeffs([0, 1], s=0, e_value=1, m_max=11)
        for D in (1, 2, 5):
            assert _assert_same_det(series, HankelSpec(D=D)) == 0


def test_hankel_matches_mp_det_below_the_singularity_threshold():
    # A Newton iterate of rpm_eigenvalue([0, 1, 1], s=1, D_max=25, seed=<variational>)
    # at 80 digits. At D = 16 its last pivot is below ||A||_1 * eps, so mp.det
    # returns int 0; the largest column sum decides that, and comparing the
    # sums as raw tuples would pick a smaller one and miss the threshold.
    with mp.workdps(80):
        energy = mp.mpf((551214833145542759595461655893291741944393698487717823256927585795641601746067609, -266))
        series = riccati_coeffs([0, 1, 1], s=1, e_value=energy, m_max=2 * 16 - 1)
        assert _assert_same_det(series, HankelSpec(D=16)) == 0
        assert isinstance(_assert_same_det(series, HankelSpec(D=4)), mp.mpf)


def test_hankel_matches_mp_det_at_dimension_one():
    with mp.workdps(40):
        series = riccati_coeffs([0, 1, 4], s=0, e_value=mp.mpf("1.9"), m_max=3)
        for d in (0, 1, 2):
            _assert_same_det(series, HankelSpec(D=1, d=d))


def test_hankel_exactly_zero_column_is_singular():
    # [[1,1,1],[1,1,1],[1,1,0]]: after the first elimination the second column
    # is exactly zero, so no pivot row exists (mpmath 1.3's det fails there).
    coeffs = tuple(mp.mpf(c) for c in (0, 1, 1, 1, 1, 0))
    det = _lu_det(RiccatiSeries(s=0, coeffs=coeffs), HankelSpec(D=3))
    assert type(det) is int and det == 0


def test_hankel_breakdown_falls_back_to_the_lu():
    # The block above has sigma_{1,1} = 1 - 1 = 0 in the Chebyshev recursion,
    # which then hands it to the LU.
    coeffs = tuple(mp.mpf(c) for c in (0, 1, 1, 1, 1, 0))
    det = hankel_det(RiccatiSeries(s=0, coeffs=coeffs), HankelSpec(D=3))
    assert type(det) is int and det == 0


@settings(max_examples=60, deadline=None)
@given(
    g=st.fractions(min_value=Fraction(1, 10), max_value=100, max_denominator=1000),
    s=st.sampled_from((0, 1)),
    d=st.integers(0, 2),
    D=st.integers(1, 16),
    energy=st.fractions(min_value=Fraction(1, 2), max_value=9, max_denominator=10**6),
    dps=st.sampled_from((30, 40, 80)),
)
def test_chebyshev_det_accuracy_where_the_lu_is_accurate(g, s, d, D, energy, dps):
    """Wherever the pivoted LU is good to half the digits, the unpivoted
    recursion is good to a quarter of them. Both are measured against mp.det
    of the same block at twice the digits."""
    spec = HankelSpec(D=D, d=d)
    with mp.workdps(dps):
        series = riccati_coeffs([0, 1, g], s, energy, spec.max_index)
        fast, lu = hankel_det(series, spec), _lu_det(series, spec)
    with mp.workdps(2 * dps):
        ref = _mp_det_oracle(riccati_coeffs([0, 1, g], s, energy, spec.max_index), spec)
        if ref == 0 or abs(lu - ref) > mp.mpf(10) ** (-dps / 2) * abs(ref):
            return
        assert abs(fast - ref) <= mp.mpf(10) ** (-dps / 4) * abs(ref)


def _libmp_reference_det(v, s, energy, D, d, t):
    """The trail's determinant from the libmp series and mp.det, for `scaled_hankel_det`."""
    return _mp_det_oracle(riccati_coeffs(v, s, energy, 2 * D - 1 + d), HankelSpec(D=D, d=d))


@pytest.mark.parametrize(
    "v, s, seed, d_max, dps",
    [([0, 1, 4], 0, 1.9, 10, 40), ([0, 1, 1], 1, 4.6488, 12, 50)],
)
def test_rpm_result_agrees_with_mp_det_path(monkeypatch, v, s, seed, d_max, dps):
    # The integer kernel rounds differently from mp.det's LU on the libmp
    # series, so the roots agree to about 2/3 of the digits (measured:
    # 1.2e-41 and 1.7e-42 relative here).
    mine = rpm_eigenvalue(v, s=s, D_max=d_max, seed=seed, precision_digits=dps)
    monkeypatch.setattr(rpm, "scaled_hankel_det", _libmp_reference_det)
    ref = rpm_eigenvalue(v, s=s, D_max=d_max, seed=seed, precision_digits=dps)
    assert [D for D, _ in mine.trail] == [D for D, _ in ref.trail]
    assert mine.stabilized_digits == ref.stabilized_digits
    with mp.workdps(2 * dps):
        bound = mp.mpf(10) ** (-2 * dps / 3)
        for (_, a), (_, b) in zip(mine.trail, ref.trail):
            assert abs(a - b) <= bound * abs(b)


def test_rpm_takes_the_chebyshev_path(monkeypatch):
    """Every determinant of a root trail comes from the integer kernel; none
    falls back to the libmp recursion or the O(D^3) LU."""
    calls = {"kernel": 0, "hankel": 0, "lu": 0}
    kernel, libmp_det = rpm.scaled_hankel_det, rpm.hankel_det

    def counted(*args):
        calls["kernel"] += 1
        return kernel(*args)

    def no_hankel(series, spec):
        calls["hankel"] += 1
        return libmp_det(series, spec)

    def no_lu(series, spec):
        calls["lu"] += 1
        return _lu_det(series, spec)

    monkeypatch.setattr(rpm, "scaled_hankel_det", counted)
    monkeypatch.setattr(rpm, "hankel_det", no_hankel)
    monkeypatch.setattr(rpm, "_lu_det", no_lu)
    rpm_eigenvalue([0, 1, 1], s=0, D_max=12, seed=1.39, precision_digits=50)
    assert calls["kernel"] > 0
    assert calls["hankel"] == 0
    assert calls["lu"] == 0


def _relative_error(x, ref, dps):
    """|x - ref| / |ref|, floored at the working precision's 10^-dps."""
    return max(abs(x - ref) / abs(ref), mp.mpf(10) ** -dps)


@settings(max_examples=60, deadline=None)
@given(
    g=st.fractions(min_value=Fraction(1, 10), max_value=100, max_denominator=1000),
    s=st.sampled_from((0, 1)),
    d=st.integers(0, 2),
    D=st.integers(1, 16),
    energy=st.fractions(min_value=Fraction(1, 2), max_value=9, max_denominator=10**6),
    dps=st.sampled_from((30, 40, 80)),
)
def test_integer_kernel_is_as_accurate_as_the_libmp_path(g, s, d, D, energy, dps):
    """On every block the integer kernel is within one digit of the libmp
    `hankel_det`, or better, both measured against mp.det of the same block
    at twice the digits."""
    spec = HankelSpec(D=D, d=d)
    with mp.workdps(dps):
        t = _scale_exponent([0, 1, g], s, energy, spec.max_index)
        fast = scaled_hankel_det([0, 1, g], s, energy, D, d, t)
        libmp = hankel_det(riccati_coeffs([0, 1, g], s, energy, spec.max_index), spec)
    with mp.workdps(2 * dps):
        ref = _mp_det_oracle(riccati_coeffs([0, 1, g], s, energy, spec.max_index), spec)
        if ref == 0:
            return
        assert _relative_error(fast, ref, dps) <= 10 * _relative_error(libmp, ref, dps)


@pytest.mark.parametrize("v, s, seed", [([0, 1, 1], 0, 1.39), ([0, 1, Fraction(1, 10)], 1, 3.3), ([0, 1, 100], 0, 5.0)])
def test_scale_exponent_does_not_move_the_roots(monkeypatch, v, s, seed):
    """The rescaling 2^{t(j+1)} is exact, so t and t +- 3 find the same roots
    and certify the same digits. Only the fixed point's rounding moves: the
    trails differ by at most 1.9e-44 relative at 60 digits (measured)."""
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
