import contextlib
import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import linalg as sparse_linalg

from anharm2d import cli, resonance
from anharm2d.cases import case_preset
from anharm2d.eig import ConvergenceFailure, apriori_bound, eig_complex, eig_nearest
from anharm2d.oscbasis import BasisSpec, build_hamiltonian, rotated, theta_factors
from anharm2d.poly2d import Boundedness, PolynomialPotential, is_bounded_below
from anharm2d.resonance import (
    NoStationaryPoint,
    Resonance,
    _link,
    find_lowest_resonance,
    theta_trajectory,
)
from oracles import blockwise_eigvals, components, kron_factors, separable_resonance

DEFAULT_THETAS = np.linspace(0.03 * math.pi, 0.10 * math.pi, 15)


def _dense_spectra(poly, basis, thetas):
    """Oracle: every eigenvalue of the whole rotated matrix at each theta, sorted, one
    LAPACK call per component of its nonzero pattern."""
    factors = kron_factors(poly, basis)
    return [np.sort_complex(blockwise_eigvals(rotated(factors, t).toarray(order="C"))) for t in thetas]


def _dense_resonance(poly, basis, thetas=DEFAULT_THETAS):
    """Oracle: the full dense sweep, (energy, theta_star), or None without a pick.

    All eigenvalues at every angle, linked by _link, and the pick rule of
    find_lowest_resonance: the stable decaying trajectory of least Re E.
    """
    trajectories, _ = _link(_dense_spectra(poly, basis, thetas))
    best = None
    two_h = thetas[2] - thetas[0]
    noise = apriori_bound(basis.dim)
    for path in trajectories:
        scores = np.abs(path[2:] - path[:-2]) / two_h
        k = int(np.argmin(scores)) + 1
        energy = path[k]
        if scores[k - 1] > resonance._STABILITY_TOL or -energy.imag <= noise * abs(energy):
            continue
        if best is None or energy.real < best[0].real:
            best = (energy, float(thetas[k]))
    return best


def _sweep_spies(monkeypatch):
    """The k of every theta_trajectory call that find_lowest_resonance makes,
    one per decoupled component and window scale, and the (n_max_x, n_max_y)
    of every basis it assembles theta_factors or one theta_block for, the
    latter marked "block"."""
    sizes, bases = [], []
    sweep, assemble, assemble_one = resonance.theta_trajectory, resonance.theta_factors, resonance.theta_block

    def spy(factors, thetas, k):
        sizes.append(k)
        return sweep(factors, thetas, k)

    def assembly_spy(poly, basis):
        bases.append((basis.n_max_x, basis.n_max_y))
        return assemble(poly, basis)

    def block_spy(poly, basis, state):
        bases.append((basis.n_max_x, basis.n_max_y, "block"))
        return assemble_one(poly, basis, state)

    monkeypatch.setattr(resonance, "theta_trajectory", spy)
    monkeypatch.setattr(resonance, "theta_factors", assembly_spy)
    monkeypatch.setattr(resonance, "theta_block", block_spy)
    return sizes, bases


def test_unperturbed_spectrum_at_zero_angle():
    # at 4 x 4 the window is the whole spectrum
    scan = theta_trajectory(kron_factors(case_preset(3, 0).potential, BasisSpec(4, 4)), [0.0])
    got = np.sort(scan.trajectories[:, 0].real)
    expected = np.sort([2.0 * (nx + ny) + 2.0 for nx in range(4) for ny in range(4)])
    assert np.abs(got - expected).max() < 1e-12
    assert np.abs(scan.trajectories[:, 0].imag).max() < 1e-12
    # at 12 x 12 it is the 12 levels nearest 2: 2, 4 (twice), 6 (3 times), 8 (4 times), 10 (twice)
    scan = theta_trajectory(kron_factors(case_preset(3, 0).potential, BasisSpec(12, 12)), [0.0])
    got = np.sort(scan.trajectories[:, 0].real)
    assert np.abs(got - [2, 4, 4, 6, 6, 6, 8, 8, 8, 8, 10, 10]).max() < 1e-12
    assert np.abs(scan.trajectories[:, 0].imag).max() < 1e-12


def test_bound_state_trajectory_is_theta_flat():
    """Case 2 is bounded: its lowest trajectory must not rotate."""
    scan = theta_trajectory(
        kron_factors(case_preset(2, 1).potential, BasisSpec(16, 16, omega=2.0)),
        np.linspace(0.01, 0.05, 5) * math.pi,
    )
    assert scan.trajectories.shape == (resonance._WINDOW, 5)
    lowest = scan.trajectories[np.argmin(scan.trajectories[:, 0].real)]
    assert np.abs(lowest.imag).max() < 1e-6
    assert np.ptp(lowest.real) < 1e-4


def test_rotated_spectrum_matches_hermitian_at_small_angle():
    from anharm2d.eig import eig_selfadjoint

    # Rotation leaves bound states fixed only in a complete basis; the gap is
    # truncation error, 3.7e-6 at n = 16 and 3.4e-9 at n = 24 for this case.
    poly = case_preset(2, 1).potential
    herm = eig_selfadjoint(build_hamiltonian(poly, BasisSpec(24, 24, omega=2.0))).eigenvalues
    scan = theta_trajectory(kron_factors(poly, BasisSpec(24, 24, omega=2.0)), [0.005 * math.pi])
    rotated = scan.trajectories[:, 0]
    for e in herm[:8]:
        assert np.min(np.abs(rotated - e)) < 1e-6


def test_trajectory_linking_shapes_and_flags():
    poly = case_preset(3, "0.1").potential
    thetas = np.linspace(0.03, 0.08, 4) * math.pi
    # 6 x 6 solves the whole spectrum, 12 x 12 the window of 12
    for n, rows in ((6, 36), (12, 12)):
        factors = kron_factors(poly, BasisSpec(n, n))
        scan = theta_trajectory(factors, thetas)
        assert scan.trajectories.shape == (rows, 4)
        assert scan.ambiguous.shape == (rows, 4)
        # each column of the trajectory matrix is a permutation of that angle's window
        for k, theta in enumerate(thetas):
            window = eig_nearest(rotated(factors, theta), resonance._WINDOW, resonance._SIGMA)
            assert np.abs(
                np.sort_complex(scan.trajectories[:, k]) - np.sort_complex(window)
            ).max() < 1e-14


def test_factored_operator_is_build_hamiltonian():
    """At theta = 0 the rotated sparse blocks, written back at their rows, are
    the dense Hermitian build bit for bit, with every imaginary part +0. At
    theta != 0 build_hamiltonian is that write-back;
    test_build_is_bitwise_the_explicit_sum checks it against numpy's
    products."""
    for case in range(1, 6):
        for lam in (None, "1/2", "-3/7"):
            poly = case_preset(case, lam).potential
            for basis in (BasisSpec(20, 20), BasisSpec(7, 11, omega=1.7), BasisSpec(35, 35)):
                dense = build_hamiltonian(poly, basis).entries
                sparse = np.zeros(dense.shape, dtype=complex)
                for rows, part in theta_factors(poly, basis):
                    sparse[np.ix_(rows, rows)] = rotated(part, 0.0).toarray()
                assert dense.dtype == np.float64
                assert np.ascontiguousarray(sparse.real).tobytes() == dense.tobytes()
                assert not np.any(sparse.imag) and not np.signbit(sparse.imag).any()


def test_sweeps_repeat_bit_for_bit():
    poly = case_preset(3, None).potential
    thetas = np.linspace(0.03, 0.10, 5) * math.pi
    first = theta_trajectory(kron_factors(poly, BasisSpec(12, 12)), thetas)
    # an unrelated solve in between moves ARPACK's internal random stream
    eig_nearest(rotated(kron_factors(poly, BasisSpec(9, 9)), 0.1), 3, 1.0)
    second = theta_trajectory(kron_factors(poly, BasisSpec(12, 12)), thetas)
    assert first.trajectories.shape == (resonance._WINDOW, 5)
    for a, b in ((first.trajectories, second.trajectories), (first.ambiguous, second.ambiguous)):
        assert a.tobytes() == b.tobytes()


# The Table 1 couplings and three more at n = 12; at n = 16, lambda = 1/100
# picks Re E ~ 10.4, outside the first windows, so the windows must grow; at
# 4 x 4 the windows are the whole spectrum. The two nx + ny parity components
# have equal rows at these n, so each window scale gives both the same k, and
# the windows grow when more than one k is seen. However often they grow,
# theta_factors runs once for the basis, and the n+5 check assembles only
# the block that holds the pick.
@pytest.mark.parametrize(
    "lam, n, grows",
    [(lam, 12, False) for lam in ("1/10", "12/100", "13/100", "14/100", "1/5", "1/2", "1/100")]
    + [("1/100", 16, True)]
    + [(lam, 4, False) for lam in ("12/100", "13/100", "1/100")],
)
def test_window_sweep_equals_the_dense_sweep(monkeypatch, lam, n, grows):
    poly, basis = case_preset(3, lam).potential, BasisSpec(n, n)
    want_energy, want_theta = _dense_resonance(poly, basis)
    sizes, bases = _sweep_spies(monkeypatch)
    res = find_lowest_resonance(poly, basis)
    assert (res.energy, res.theta_star) == (want_energy, want_theta)
    assert (len(set(sizes)) > 1) == grows
    assert bases == [(n, n), (n + 5, n + 5, "block")]


FAR, NEAR = 2.1 - 0.01j, 3.0 - 0.01j  # stable decaying levels; FAR has the lesser Re E
# Two blocks of 24 and 12 rows, which start from windows of 8 and 4 and are
# whole at 32 and 16.
TWO_BLOCKS = [(np.arange(24), (np.ones((24, 24)), [])), (np.arange(24, 36), (np.ones((12, 12)), []))]


@pytest.mark.parametrize(
    "stable_rows, want_sizes, want_energy",
    [
        (lambda rows, k: [FAR] if rows == 24 else [], [8, 4, 16, 8, 32, 16], FAR),  # always the farthest
        (lambda rows, k: [] if rows == 12 else [FAR] if k == 8 else [FAR, NEAR], [8, 4, 16, 8], FAR),
        (lambda rows, k: [], [8, 4, 16, 8, 32, 16], None),  # no pick even in the whole spectrum
        # the farthest of its own component, though the other holds a farther level
        (lambda rows, k: [FAR] if rows == 12 else [NEAR], [8, 4, 16, 8, 32, 16], FAR),
    ],
)
def test_window_rule(monkeypatch, stable_rows, want_sizes, want_energy):
    """Every block's k doubles while there is no pick or the pick is the
    farthest eigenvalue from the shift of its own block's window at theta*,
    and stops once every block is solved whole."""
    unstable = np.array([7.0, 2.0, -3.0])  # score 50; at theta* it sits on the shift
    sizes = []

    def sweep(factors, thetas, k):
        sizes.append(k)
        rows = [np.full(3, e) for e in stable_rows(factors[0].shape[0], k)]
        rows += [unstable] * (min(k, factors[0].shape[0]) - len(rows))
        return resonance.ThetaScan(thetas, np.array(rows, dtype=complex), np.zeros((len(rows), 3), bool))

    monkeypatch.setattr(resonance, "theta_trajectory", sweep)
    found = resonance._settled_pick(TWO_BLOCKS, np.array([0.1, 0.2, 0.3]))
    assert sizes == want_sizes
    assert (found and found[2][2]) == want_energy


@pytest.mark.parametrize("lam, n, want_rows", [("1/10", 30, [450, 450]), ("0", 18, [81] * 4)])
def test_factor_components_decouple_every_sweep_angle(lam, n, want_rows):
    """The blocks of theta_factors, decided from the term keys, are exactly
    the components of the whole rotated matrix's nonzero pattern at every
    sweep angle: the two nx + ny parity blocks at lambda = 1/10, the four
    (nx, ny) parity sectors of the oscillator at lambda = 0. A block's
    rotated factors are the whole rotated matrix's submatrix bit for bit,
    the matrix the dense solve at theta* is handed."""
    poly, basis = case_preset(3, lam).potential, BasisSpec(n, n)
    whole, blocks = kron_factors(poly, basis), theta_factors(poly, basis)
    assert [rows.size for rows, _ in blocks] == want_rows
    for theta in DEFAULT_THETAS:
        ham = rotated(whole, theta)
        got = components(ham)
        assert len(got) == len(blocks)
        assert all(np.array_equal(a, rows) for a, (rows, _) in zip(got, blocks))
        for rows, part in blocks:
            assert rotated(part, theta).toarray(order="C").tobytes() == ham[rows][:, rows].toarray(order="C").tobytes()


def _whole_matrix_settled_pick(factors, thetas):
    """Oracle: the window rule on the whole matrix, k doubling from _WINDOW."""
    dim = factors[0].shape[0]
    noise = apriori_bound(dim)
    k = resonance._WINDOW
    while True:
        scan = theta_trajectory(factors, thetas, k)
        best = resonance._pick(scan, noise)
        if scan.trajectories.shape[0] == dim:
            return best
        if best is not None and np.argmax(np.abs(scan.trajectories[:, best[1]] - resonance._SIGMA)) != best[0]:
            return best
        k *= 2


def _whole_matrix_drift(poly, basis, theta, energy):
    """Oracle: the n+5 check on the whole rotated matrix, both parity blocks."""
    bigger = BasisSpec(basis.n_max_x + 5, basis.n_max_y + 5, basis.omega)
    nearest = eig_nearest(rotated(kron_factors(poly, bigger), theta), 1, energy)
    return float(np.min(np.abs(nearest - energy)))


@pytest.mark.parametrize("lam", ["1/10", "12/100", "13/100", "14/100"])
def test_component_windows_equal_the_whole_matrix_windows(lam):
    """At the Table 1 couplings and the benchmark basis, the per-block windows
    pick the trajectory and theta* of one window on the whole matrix, and the
    reported energy is, bit for bit, the eigenvalue nearest that pick in the
    dense solve of the whole rotated matrix at theta*, one LAPACK call per
    component of its nonzero pattern."""
    poly, basis = case_preset(3, lam).potential, BasisSpec(30, 30)
    factors = kron_factors(poly, basis)
    _, k, window_energy, stability = _whole_matrix_settled_pick(factors, DEFAULT_THETAS)
    theta_star = float(DEFAULT_THETAS[k])
    every = blockwise_eigvals(rotated(factors, theta_star).toarray(order="C"))
    energy = complex(every[np.argmin(np.abs(every - window_energy))])
    converged = (
        stability < resonance._STABILITY_TOL
        and _whole_matrix_drift(poly, basis, theta_star, energy) < resonance._DRIFT_TOL
    )
    res = find_lowest_resonance(poly, basis)
    assert (res.energy, res.theta_star, res.converged) == (energy, theta_star, converged)


def _dense_solve_spy(monkeypatch):
    """The row count of every matrix find_lowest_resonance hands eig_complex."""
    rows, solve = [], resonance.eig_complex

    def spy(mat):
        rows.append(mat.dim)
        return solve(mat)

    monkeypatch.setattr(resonance, "eig_complex", spy)
    return rows


@pytest.mark.parametrize("lam", ["1/10", "14/100"])
def test_theta_star_solve_matches_the_full_matrix(monkeypatch, lam):
    """At the benchmark basis the solve at theta* is one LAPACK call on the
    450-row nx + ny parity block that holds the pick; the whole rotated
    matrix in one LAPACK call is the oracle. Each solve is backward stable
    within apriori_bound(dim) * ||H||, and the resonance's eigenvalue
    condition number is 1.14 at lambda = 1/10 and 1.12 at 14/100, so the two
    agree within 3 times that: 1.5e-7 and 2.2e-7, where 5e-14 and 6e-13 are
    measured. theta* is the Table 1 grid angle 0.08 pi, where the full dense
    sweep puts it too."""
    poly, basis = case_preset(3, lam).potential, BasisSpec(30, 30)
    dense_rows = _dense_solve_spy(monkeypatch)
    res = find_lowest_resonance(poly, basis)
    assert dense_rows == [450]
    ham = rotated(kron_factors(poly, basis), res.theta_star).toarray()
    allowance = 3 * apriori_bound(basis.dim) * np.linalg.norm(ham, ord=np.inf)
    assert np.min(np.abs(np.linalg.eigvals(ham) - res.energy)) <= allowance
    assert res.theta_star == DEFAULT_THETAS[10]


def test_dense_block_refuses_a_spurious_window_pick(monkeypatch):
    """At lambda = 0 case 3 is the oscillator, which the command line refuses
    before any sweep. At lambda = 0 each of the four (nx, ny) parity sectors
    is a component, 81 rows at n = 18, and one of their windows holds a
    theta-stable Ritz value beside the threefold level 6 that passes the
    decay test: 5.9999998 - 2.5e-7j, the same at 1 to 4 BLAS threads. The
    dense solve at theta* of that component puts the level on the real axis
    to rounding, |Im E| < 1e-14, and refuses the pick. n = 10, 14, 16 and 20
    make such a pick too, n = 8 and 12 do not. The test takes about 0.3 s."""
    dense_rows = _dense_solve_spy(monkeypatch)
    with pytest.raises(NoStationaryPoint, match="does not confirm the window pick 6-"):
        find_lowest_resonance(case_preset(3, 0).potential, BasisSpec(18, 18))
    assert dense_rows == [81]


def test_window_sweep_at_a_noise_flat_coupling():
    """At lambda = 1/20 the resonance trajectory is flat to rounding (a best
    score of about 4e-11 at n = 20 and 1e-11 at n = 30), so noise sets the
    angle of the best score: at n = 30 the window picks theta* = 0.2199 and
    the dense sweep 0.2042. The energy still agrees to rounding, so only it
    is compared."""
    poly, basis = case_preset(3, "1/20").potential, BasisSpec(20, 20)
    want_energy, _ = _dense_resonance(poly, basis)
    res = find_lowest_resonance(poly, basis)
    assert abs(res.energy - want_energy) <= 1e-12 * abs(want_energy)


def test_shift_invert_drift_equals_the_dense_drift():
    # the resonance lies in the nx + ny even block, which holds state 0
    poly, basis = case_preset(3, None).potential, BasisSpec(12, 12)
    res = find_lowest_resonance(poly, basis)
    bigger = BasisSpec(17, 17, theta=res.theta_star)
    dense = float(np.min(np.abs(eig_complex(build_hamiltonian(poly, bigger)).eigenvalues - res.energy)))
    assert abs(resonance._drift(poly, basis, res.theta_star, res.energy, 0) - dense) <= 1e-12


def test_drift_check_solves_the_picks_block(monkeypatch):
    """The n+5 check at the benchmark basis is one k = 1 shift-invert solve on
    the nx + ny parity block that holds the pick: 613 of the 1225 rows of
    nmax 35, not the whole matrix."""
    calls, solve = [], resonance.eig_nearest

    def spy(mat, k, sigma):
        calls.append((mat.shape[0], k))
        return solve(mat, k, sigma)

    monkeypatch.setattr(resonance, "eig_nearest", spy)
    find_lowest_resonance(case_preset(3, None).potential, BasisSpec(30, 30))
    assert calls[-1] == (613, 1)
    assert all(rows == 450 for rows, _ in calls[:-1])


@pytest.mark.parametrize("state", [(0, 0), (1, 0), (0, 1), (11, 10)])
def test_drift_on_a_basis_that_is_not_square(state):
    """In the 12 x 11 basis, where lambda = 1/10 gives a converged resonance,
    the n+5 check of each block is the nearest eigenvalue of the dense solve
    of the whole 17 x 16 rotated matrix's component that holds the same
    (nx, ny) state. (1, 0) is row 11 of the basis and row 16 of the n+5 one:
    had the row been read in a square basis it would be (1, 1), in the other
    block."""
    poly, basis = case_preset(3, "1/10").potential, BasisSpec(12, 11)
    res = find_lowest_resonance(poly, basis)
    assert res.converged
    bigger = BasisSpec(17, 16)
    ham = rotated(kron_factors(poly, bigger), res.theta_star).toarray(order="C")
    target = state[0] * bigger.n_max_y + state[1]
    rows = next(rows for rows in components(ham) if target in rows)
    dense = np.min(np.abs(np.linalg.eigvals(ham[np.ix_(rows, rows)]) - res.energy))
    got = resonance._drift(poly, basis, res.theta_star, res.energy, state[0] * basis.n_max_y + state[1])
    assert abs(got - dense) <= 1e-12
    if sum(state) % 2 == 0:  # the resonance's block: its drift is that of the whole matrix
        assert abs(got - np.min(np.abs(np.linalg.eigvals(ham) - res.energy))) <= 1e-12


def test_theta_validation():
    poly = case_preset(3, "0.1").potential
    factors = kron_factors(poly, BasisSpec(4, 4))
    with pytest.raises(ValueError):
        theta_trajectory(factors, [])
    with pytest.raises(ValueError):
        theta_trajectory(factors, [0.2, 0.1])
    with pytest.raises(ValueError):
        theta_trajectory(factors, [0.1, math.pi / 4])
    with pytest.raises(ValueError):
        find_lowest_resonance(poly, BasisSpec(4, 4), theta_window=(0.0, 0.1))
    with pytest.raises(ValueError):
        find_lowest_resonance(poly, BasisSpec(4, 4), theta_window=(0.05, 0.2), n_points=2)


def test_small_basis_resonance_is_already_close():
    res = find_lowest_resonance(
        case_preset(3, "0.1").potential,
        BasisSpec(12, 12),
        n_points=5,
    )
    assert res.energy.real == pytest.approx(2.0733, abs=5e-4)
    assert res.energy.imag == pytest.approx(-0.00046, abs=5e-5)
    assert res.energy.imag < 0
    assert 0.03 * math.pi <= res.theta_star <= 0.10 * math.pi


def test_convergence_certificate_small_basis():
    res = find_lowest_resonance(
        case_preset(3, "0.1").potential,
        BasisSpec(12, 12),
        n_points=5,
    )
    assert res.converged


def test_no_stationary_point_raised():
    with pytest.raises(NoStationaryPoint):
        find_lowest_resonance(
            case_preset(3, "0.1").potential,
            BasisSpec(4, 4),
            theta_window=(0.01 * math.pi, 0.02 * math.pi),
            n_points=3,
        )


def _separable(gx, gy):
    """x^2 + y^2 + gx x^4 + gy y^4, exact."""
    return PolynomialPotential({(2, 0): 1, (0, 2): 1, (4, 0): gx, (0, 4): gy})


# Bounds on |find_lowest_resonance - oracles.separable_resonance| per basis size n, at the
# default window. Measured: at n = 30, 1.2e-10 at (g, h) = (1/20, 1/10) and 1.8e-9 at
# (1/10, 1/10); at n = 16, 9.7e-8 at (1/20, 1/10). Each bound is 5x the worst or more.
SEPARABLE_BOUNDS = {30: 1e-8, 16: 1e-6}


@pytest.mark.parametrize(
    "g, h", [(Fraction(1, 20), Fraction(1, 10)), (Fraction(1, 10), Fraction(1, 10))], ids=str
)
def test_separable_resonance_is_the_sum_of_its_1d_factors(g, h):
    """The 2D sweep against an answer computed another way: V = x^2 + y^2 - g x^4
    + h y^4 separates, so its lowest resonance is e1 + e2 (oracles.separable_resonance).
    All-even terms give four parity blocks, not case 3's two."""
    poly, basis = _separable(-g, h), BasisSpec(30, 30, omega=1.0)
    assert is_bounded_below(poly) is Boundedness.UNBOUNDED
    got = find_lowest_resonance(poly, basis)
    assert got.converged
    assert abs(got.energy - separable_resonance(g, h)) < SEPARABLE_BOUNDS[30]
    # the mirror swaps the two modes, so only rounding tells them apart: measured 1.6e-13
    assert abs(find_lowest_resonance(_separable(h, -g), basis).energy - got.energy) < 1e-11


def test_a_wrong_kinetic_phase_misses_the_separable_oracle(monkeypatch):
    """With e^{+2i theta} on p^2, the sign of the potential phases, the sweep finds
    nothing the oracle accepts. At n = 16, not 30: the failing sweep doubles its
    windows until every block is solved whole, 0.6 s here against 4.4 s at n = 30."""
    g, h = Fraction(1, 20), Fraction(1, 10)
    poly, basis, want = _separable(-g, h), BasisSpec(16, 16, omega=1.0), separable_resonance(g, h)
    assert abs(find_lowest_resonance(poly, basis).energy - want) < SEPARABLE_BOUNDS[16]

    def wrong_phase(factors, theta):
        # e^{2i theta} - e^{-2i theta} = 2i sin(2 theta), added to the kinetic block
        return (rotated(factors, theta) + 2j * math.sin(2 * theta) * factors[0]).tocsc()

    monkeypatch.setattr(resonance, "rotated", wrong_phase)
    try:
        energy = find_lowest_resonance(poly, basis).energy
    except NoStationaryPoint:
        return
    assert abs(energy - want) >= SEPARABLE_BOUNDS[16]

def test_resonance_rejects_positive_imaginary_part():
    with pytest.raises(ValueError):
        Resonance(energy=2.0 + 1e-3j, theta_star=0.1, stability=1e-6, converged=False)


def test_table_csv_layout():
    rows = [
        Resonance(
            energy=2.07335064 - 0.000459014j,
            theta_star=0.06 * math.pi,
            stability=1e-8,
            converged=True,
        )
    ]
    text = cli._table1_csv([Fraction(1, 10)], rows, 30)
    lines = text.splitlines()
    assert lines[0] == "lambda,re_e,im_e,theta_star,nmax"
    fields = lines[1].split(",")
    assert fields[0] == "0.1"
    assert fields[1].startswith("2.073350")
    assert fields[2].startswith("-0.000459")
    assert fields[4] == "30"


def _greedy_link_oracle(spectra):
    """Reference: greedy matching by one pass over the stable argsort of all distances."""
    dim, steps = len(spectra[0]), len(spectra)
    traj = np.empty((dim, steps), dtype=complex)
    ambig = np.zeros((dim, steps), dtype=bool)
    traj[:, 0] = spectra[0]
    current = np.arange(dim)  # trajectory r currently sits at index current[r]
    for k in range(1, steps):
        prev, nxt = spectra[k - 1], spectra[k]
        dist = np.abs(prev[current][:, None] - nxt[None, :])
        order = np.argsort(dist, axis=None, kind="stable")
        taken_r = np.zeros(dim, dtype=bool)
        taken_c = np.zeros(dim, dtype=bool)
        new_idx = np.empty(dim, dtype=int)
        # first-choice targets; collisions mark the losing links ambiguous
        first_choice = np.argmin(dist, axis=1)
        assigned = 0
        for flat in order:
            r, c = divmod(int(flat), dim)
            if taken_r[r] or taken_c[c]:
                continue
            new_idx[r] = c
            if c != first_choice[r]:
                ambig[r, k] = True
            taken_r[r] = True
            taken_c[c] = True
            assigned += 1
            if assigned == dim:
                break
        current = new_idx
        traj[:, k] = nxt[current]
    return traj, ambig


def _assert_same_links(spectra):
    traj, ambig = _link(spectra)
    want_traj, want_ambig = _greedy_link_oracle(spectra)
    assert np.array_equal(traj, want_traj)
    assert np.array_equal(ambig, want_ambig)


# Spectra on a small complex-integer grid, so that equal distances are common.
_GRID_SPECTRA = st.integers(1, 12).flatmap(
    lambda dim: st.lists(
        st.lists(
            st.builds(complex, st.integers(-2, 2), st.integers(-2, 2)), min_size=dim, max_size=dim
        ).map(np.array),
        min_size=2,
        max_size=5,
    )
)


@settings(max_examples=300, deadline=None)
@given(_GRID_SPECTRA)
def test_link_is_the_greedy_matching_on_tied_spectra(spectra):
    _assert_same_links(spectra)


def test_link_is_the_greedy_matching_on_a_case3_sweep():
    spectra = _dense_spectra(
        case_preset(3, None).potential, BasisSpec(12, 12), np.linspace(0.03, 0.10, 6) * math.pi
    )
    _assert_same_links(spectra)
    assert _link(spectra)[1].any()


def test_case3_exits_3_on_eigensolver_failure(monkeypatch):
    def failing_eig(matrix):
        raise ConvergenceFailure("injected")

    monkeypatch.setattr(resonance, "eig_complex", failing_eig)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["case", "3", "--nmax", "6", "--theta-steps", "4"])
    assert rc == 3
    assert json.loads(err.getvalue())["error"] == "ConvergenceFailure"


@pytest.mark.parametrize(
    "failure",
    [
        lambda: sparse_linalg.ArpackNoConvergence("injected", np.empty(0), np.empty((0, 0))),
        lambda: sparse_linalg.ArpackError(-9999),
    ],
    ids=["no_convergence", "arpack_error"],
)
def test_case3_exits_3_on_arpack_failure(monkeypatch, failure):
    def failing_eigs(*args, **kwargs):
        raise failure()

    monkeypatch.setattr(sparse_linalg, "eigs", failing_eigs)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["case", "3", "--nmax", "12", "--theta-steps", "4"])
    assert rc == 3
    assert json.loads(err.getvalue())["error"] == "ConvergenceFailure"
