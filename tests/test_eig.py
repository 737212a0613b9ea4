import math

import numpy as np
import pytest
from scipy.sparse import linalg as sparse_linalg

from anharm2d import eig
from anharm2d.cases import case_preset
from anharm2d.eig import (
    ConvergenceFailure,
    NotHermitian,
    apriori_bound,
    eig_complex,
    eig_nearest,
    eig_selfadjoint,
)
from anharm2d.oscbasis import (
    BasisSpec,
    OperatorMatrix,
    build_hamiltonian,
    build_hamiltonian_1d,
    optimal_omega,
    rotated,
    swap_blocks,
)
from anharm2d.poly2d import make_quartic
from oracles import blockwise_eigvals, kron_factors


def as_operator(a):
    return OperatorMatrix(np.asarray(a, dtype=complex))


def test_two_by_two_symmetric():
    result = eig_selfadjoint(as_operator([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(result.eigenvalues, [1.0, 3.0], atol=1e-14)


def test_two_by_two_antisymmetric():
    result = eig_complex(as_operator([[0.0, 1.0], [-1.0, 0.0]]))
    for expected in (1j, -1j):
        assert np.min(np.abs(result.eigenvalues - expected)) < 1e-14


def test_unperturbed_levels():
    ham = build_hamiltonian(case_preset(1, 0).potential, BasisSpec(5, 5))
    vals = eig_selfadjoint(ham).eigenvalues
    assert np.allclose(vals[:6], [2.0, 4.0, 4.0, 6.0, 6.0, 6.0], atol=1e-13)
    assert np.all(np.diff(vals) >= -1e-13)  # ascending


def test_separated_case1_factor():
    ham = build_hamiltonian_1d({2: 1.0, 4: 4.0}, 60, optimal_omega(4.0))
    e0 = eig_selfadjoint(ham).eigenvalues[0]
    assert e0 == pytest.approx(1.903136945459, abs=1e-11)


def test_not_hermitian_rejected():
    rotated = build_hamiltonian(case_preset(3, "0.1").potential, BasisSpec(4, 4, theta=0.1))
    real = OperatorMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    complex_ = OperatorMatrix(np.array([[1.0, 1j], [1j, 1.0]]))  # symmetric, not Hermitian
    for mat in (real, complex_, rotated):
        assert not mat.is_hermitian()
        with pytest.raises(NotHermitian):
            eig_selfadjoint(mat)
    # a ValueError, so the command line reports it as a validation error (exit 2)
    assert issubclass(NotHermitian, ValueError)


@pytest.mark.parametrize("case_id", range(1, 6))
def test_builder_blocks_pass_the_hermitian_check(case_id):
    # blocks with X^3 or X^4 terms (cases 1-4) are Hermitian only to rounding, within the check's 1e-12;
    # the 40 x 39 basis keeps the parity blocks whole, the 40 x 40 one splits them by the swap
    for basis in (BasisSpec(40, 39), BasisSpec(40, 40)):
        for mat, _ in swap_blocks(case_preset(case_id).potential, basis):
            assert mat.entries.dtype == np.float64
            assert eig_selfadjoint(mat).eigenvalues.size == mat.dim


def test_rotated_build_and_complex_solve_as_the_blas_probe_calls_them():
    """perfbench/probe_blas.py times eig_complex on build_hamiltonian(case 3, BasisSpec(30, 30, 1.0, 0.2)).

    That caller is why BasisSpec.theta and the theta branch of build_hamiltonian
    stay, though the command line reaches complex scaling only through
    theta_factors and rotated.
    """
    mat = build_hamiltonian(case_preset(3).potential, BasisSpec(6, 6, 1.0, 0.2))
    assert mat.entries.dtype == np.complex128
    values = eig_complex(mat).eigenvalues
    assert values.size == 36 and np.iscomplexobj(values)
    # one LAPACK call on the whole matrix, though it holds two decoupled parity blocks
    assert np.array_equal(values, np.linalg.eigvals(mat.entries))


def test_circulant_oracle():
    rng = np.random.RandomState(7)
    c = rng.standard_normal(6)
    mat = np.array([[c[(i - j) % 6] for j in range(6)] for i in range(6)])
    got = np.sort_complex(eig_complex(as_operator(mat)).eigenvalues)
    om = np.exp(2j * np.pi / 6)
    expected = np.sort_complex(
        np.array([sum(c[k] * om ** (k * j) for k in range(6)) for j in range(6)])
    )
    assert np.abs(got - expected).max() < 1e-12


def test_tridiagonal_toeplitz_oracle():
    n, a, b = 6, 1.7, -0.4
    mat = np.diag([a] * n) + np.diag([b] * (n - 1), 1) + np.diag([b] * (n - 1), -1)
    got = eig_selfadjoint(as_operator(mat)).eigenvalues
    expected = np.sort([a + 2 * b * math.cos(k * math.pi / (n + 1)) for k in range(1, n + 1)])
    assert np.abs(got - expected).max() < 1e-12


@pytest.mark.parametrize("theta", [0.0, 0.05])
def test_trace_consistency(theta):
    ham = build_hamiltonian(case_preset(5, 1).potential, BasisSpec(8, 8, theta=theta))
    if theta == 0.0:
        vals = eig_selfadjoint(ham).eigenvalues
    else:
        vals = eig_complex(ham).eigenvalues
    trace = np.trace(ham.entries)
    assert abs(vals.sum() - trace) <= 1e-8 * abs(trace)


def test_orthogonal_conjugation_isospectrality():
    rng = np.random.RandomState(42)
    a = rng.standard_normal((50, 50))
    a = (a + a.T) / 2.0
    a /= np.abs(np.linalg.eigvalsh(a)).max()
    q, _ = np.linalg.qr(rng.standard_normal((50, 50)))
    conj = q @ a @ q.T
    va = eig_selfadjoint(as_operator(a)).eigenvalues
    vb = eig_selfadjoint(as_operator(conj)).eigenvalues
    assert np.abs(va - vb).max() < 1e-9


def test_complex_solver_consistent_with_hermitian_solver():
    ham = build_hamiltonian(case_preset(2, 1).potential, BasisSpec(8, 8))
    real_vals = eig_selfadjoint(ham).eigenvalues
    complex_vals = eig_complex(ham).eigenvalues
    assert np.abs(complex_vals.imag).max() < 1e-9 * np.abs(real_vals).max()
    assert np.abs(np.sort(complex_vals.real) - real_vals).max() < 1e-9 * np.abs(real_vals).max()


def test_residual_contract_with_vectors():
    # the eigenvectors come from numpy: the solvers compute eigenvalues only
    ham = build_hamiltonian(case_preset(5, "0.01").potential, BasisSpec(10, 10))
    rotated = build_hamiltonian(case_preset(3, "0.1").potential, BasisSpec(8, 8, theta=0.15))
    for mat, solver, lapack in ((ham, eig_selfadjoint, np.linalg.eigh), (rotated, eig_complex, np.linalg.eig)):
        result = solver(mat)
        assert result.residual_bound == 64 * mat.dim * np.finfo(np.float64).eps <= 1e-9
        a = mat.entries
        vals, v = lapack(a)
        resid = np.linalg.norm(a @ v - v * vals[None, :], axis=0).max()
        assert resid <= result.residual_bound * np.linalg.norm(a, ord=np.inf) + 1e-15


def test_irreducible_matrix_takes_one_lapack_call():
    rng = np.random.default_rng(3)
    mat = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    mat[np.triu_indices(40, 2)] = 0.0  # lower Hessenberg: one component
    assert np.array_equal(eig_complex(as_operator(mat)).eigenvalues, np.linalg.eigvals(mat))


@pytest.mark.parametrize("blocks", [1, 2])
def test_nan_entry_raises_convergence_failure(blocks):
    mat = np.kron(np.eye(blocks), np.ones((3, 3))).astype(complex)
    mat[1, 2] = np.nan
    with pytest.raises(ConvergenceFailure):
        eig_complex(as_operator(mat))


def _factorizations(monkeypatch):
    """(matrix, factor) of every splu call, with None for a factor SuperLU refused."""
    made, factor = [], sparse_linalg.splu

    def spy(a, **options):
        made.append((a, None))
        made[-1] = (a, factor(a, **options))
        return made[-1][1]

    monkeypatch.setattr(sparse_linalg, "splu", spy)
    return made


@pytest.mark.parametrize("lam", ["1/10", "14/100"])
def test_shift_invert_windows_at_the_sweep_angles(monkeypatch, lam):
    """At the 15 default sweep angles (case 3, n = 30) each window rests on one
    SuperLU factorization of H - 2 that solves a fixed right-hand side to a
    relative residual within 1e-14 (2.2e-15 measured), and equals the 12 dense
    eigenvalues nearest the shift within apriori_bound(dim) * ||H||, the
    dense solve's backward-error allowance (7e-13 measured, 1e-5 of it). The
    13th-nearest eigenvalue is at least 0.0097 farther, so both sides choose
    the same 12. The dense side solves each decoupled parity block on its
    own: two 450-row LAPACK calls per angle in place of one of 900 rows."""
    factors = kron_factors(case_preset(3, lam).potential, BasisSpec(30, 30))
    made = _factorizations(monkeypatch)
    rhs = np.random.default_rng(0).standard_normal(900) + 0j
    for theta in np.linspace(0.03 * math.pi, 0.10 * math.pi, 15):
        ham = rotated(factors, theta)
        window = eig_nearest(ham, 12, 2.0)
        [(shifted, lu)] = made
        made.clear()
        assert np.linalg.norm(shifted @ lu.solve(rhs) - rhs) <= 1e-14 * np.linalg.norm(rhs)
        every = blockwise_eigvals(ham.toarray())
        dense = every[np.argsort(np.abs(every - 2.0))[:12]]
        gap = np.abs(window[:, None] - dense[None, :])
        allowance = apriori_bound(900) * np.linalg.norm(ham.toarray(), ord=np.inf)
        assert max(gap.min(axis=0).max(), gap.min(axis=1).max()) <= allowance


def test_exactly_singular_shift_takes_the_dense_fallback(monkeypatch):
    """Case 3 at lambda = 0, theta = 0 is the oscillator, whose level 2 makes
    H - 2 exactly singular: SuperLU refuses the factorization and the window
    is the 12 nearest of the dense spectrum."""
    ham = rotated(kron_factors(case_preset(3, 0).potential, BasisSpec(30, 30)), 0.0)
    made = _factorizations(monkeypatch)
    dense_rows, solve = [], eig.eig_complex

    def dense_spy(mat):
        dense_rows.append(mat.dim)
        return solve(mat)

    monkeypatch.setattr(eig, "eig_complex", dense_spy)
    window = eig_nearest(ham, 12, 2.0)
    assert [lu for _, lu in made] == [None]
    assert dense_rows == [900]
    assert np.abs(np.sort(window.real) - [2, 4, 4, 6, 6, 6, 8, 8, 8, 8, 10, 10]).max() < 1e-12
