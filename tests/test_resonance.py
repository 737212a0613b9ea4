import contextlib
import io
import json
import math
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anharm2d import cli, resonance
from anharm2d.cases import case_preset
from anharm2d.eig import ConvergenceFailure, eig_complex
from anharm2d.oscbasis import BasisSpec, build_hamiltonian
from anharm2d.resonance import (
    NoStationaryPoint,
    Resonance,
    _link,
    find_lowest_resonance,
    theta_trajectory,
)


def test_unperturbed_spectrum_at_zero_angle():
    scan = theta_trajectory(case_preset(3, 0).potential, BasisSpec(4, 4), [0.0])
    got = np.sort(scan.spectra[0].real)
    expected = np.sort([2.0 * (nx + ny) + 2.0 for nx in range(4) for ny in range(4)])
    assert np.abs(got - expected).max() < 1e-12
    assert np.abs(scan.spectra[0].imag).max() < 1e-12


def test_bound_state_trajectory_is_theta_flat():
    """Case 2 is bounded: its lowest trajectory must not rotate."""
    scan = theta_trajectory(
        case_preset(2, 1).potential,
        BasisSpec(16, 16, omega=2.0),
        np.linspace(0.01, 0.05, 5) * math.pi,
    )
    lowest = scan.trajectories[np.argmin(scan.trajectories[:, 0].real)]
    assert np.abs(lowest.imag).max() < 1e-6
    assert np.ptp(lowest.real) < 1e-4


def test_rotated_spectrum_matches_hermitian_at_small_angle():
    from anharm2d.eig import eig_selfadjoint
    from anharm2d.oscbasis import build_hamiltonian

    # Rotation leaves bound states fixed only in a complete basis; the gap is
    # truncation error, 3.7e-6 at n = 16 and 3.4e-9 at n = 24 for this case.
    poly = case_preset(2, 1).potential
    herm = eig_selfadjoint(build_hamiltonian(poly, BasisSpec(24, 24, omega=2.0))).eigenvalues
    scan = theta_trajectory(poly, BasisSpec(24, 24, omega=2.0), [0.005 * math.pi])
    rotated = scan.spectra[0]
    for e in herm[:8]:
        assert np.min(np.abs(rotated - e)) < 1e-6


def test_trajectory_linking_shapes_and_flags():
    scan = theta_trajectory(
        case_preset(3, "0.1").potential,
        BasisSpec(6, 6),
        np.linspace(0.03, 0.08, 4) * math.pi,
    )
    assert scan.trajectories.shape == (36, 4)
    assert scan.ambiguous.shape == (36, 4)
    assert len(scan.spectra) == 4
    # each column of the trajectory matrix is a permutation of the spectrum
    for k in range(4):
        assert np.abs(
            np.sort_complex(scan.trajectories[:, k]) - np.sort_complex(scan.spectra[k])
        ).max() < 1e-14


def test_theta_validation():
    poly = case_preset(3, "0.1").potential
    with pytest.raises(ValueError):
        theta_trajectory(poly, BasisSpec(4, 4), [])
    with pytest.raises(ValueError):
        theta_trajectory(poly, BasisSpec(4, 4), [0.2, 0.1])
    with pytest.raises(ValueError):
        theta_trajectory(poly, BasisSpec(4, 4), [0.1, math.pi / 4])
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
    scan = theta_trajectory(
        case_preset(3, None).potential, BasisSpec(12, 12), np.linspace(0.03, 0.10, 6) * math.pi
    )
    _assert_same_links(scan.spectra)
    assert scan.ambiguous.any()


@pytest.mark.parametrize("points", [1, 2, 5, 6])
def test_concurrent_sweep_equals_serial_sweep(points):
    poly = case_preset(3, None).potential
    thetas = np.linspace(0.03, 0.10, points) * math.pi
    scan = theta_trajectory(poly, BasisSpec(10, 10), thetas)
    assert len(scan.spectra) == points
    for theta, got in zip(thetas, scan.spectra):
        matrix = build_hamiltonian(poly, BasisSpec(10, 10, theta=float(theta)))
        want = np.sort_complex(eig_complex(matrix).eigenvalues)
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


@pytest.mark.parametrize("failing_index, on_helper", [(1, True), (2, False)])
def test_eigensolver_failure_propagates_from_either_thread(monkeypatch, failing_index, on_helper):
    thetas = np.linspace(0.03, 0.10, 4) * math.pi
    theta_of = {}
    failed_on = []

    def tagged_build(poly, basis):
        matrix = build_hamiltonian(poly, basis)
        theta_of[id(matrix)] = basis.theta
        return matrix

    def failing_eig(matrix):
        if theta_of[id(matrix)] == thetas[failing_index]:
            failed_on.append(threading.current_thread() is not threading.main_thread())
            raise ConvergenceFailure("injected")
        return eig_complex(matrix)

    monkeypatch.setattr(resonance, "build_hamiltonian", tagged_build)
    monkeypatch.setattr(resonance, "eig_complex", failing_eig)
    with pytest.raises(ConvergenceFailure, match="injected"):
        theta_trajectory(case_preset(3, None).potential, BasisSpec(6, 6), thetas)
    assert failed_on == [on_helper]


def test_case3_exits_3_on_eigensolver_failure(monkeypatch):
    def failing_eig(matrix):
        raise ConvergenceFailure("injected")

    monkeypatch.setattr(resonance, "eig_complex", failing_eig)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["case", "3", "--nmax", "6", "--theta-steps", "4"])
    assert rc == 3
    assert json.loads(err.getvalue())["error"] == "ConvergenceFailure"
