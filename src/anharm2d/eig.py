"""Eigensolver contracts on top of LAPACK, ARPACK and SuperLU.

Three solvers, all for eigenvalues only: a real-spectrum solver for
Hermitian matrices, the one place that checks Hermiticity (Rayleigh-Ritz
energies); a dense complex-spectrum solver for the complex-scaled,
complex-symmetric matrices of the resonance runs; and `eig_nearest`, the
eigenvalues of a sparse matrix nearest a shift, which the resonance sweep
uses at every angle. The dense solvers certify their spectra with the
a-priori backward-error bound of `apriori_bound`. A failure of either
eigenvalue library raises ConvergenceFailure.

The solvers take a matrix whole and search it for no decoupled blocks: the
resonance runs hand them one block at a time, each decided exactly from the
potential's terms by oscbasis.theta_factors (two 450-row nx + ny parity
blocks for case 3 at nmax 30). `eig_nearest` factors each shifted matrix
with SuperLU's symmetric mode, since every rotated H(theta) is structurally
symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .oscbasis import OperatorMatrix


class NotHermitian(ValueError):
    """eig_selfadjoint was handed a matrix that fails OperatorMatrix.is_hermitian."""


class ConvergenceFailure(RuntimeError):
    """The LAPACK or ARPACK iteration failed to converge (pathological input)."""


# A-priori backward-error allowance for LAPACK dense solvers, in units of
# machine epsilon times the dimension.
_APRIORI_EPS_FACTOR = 64.0
# eig_nearest solves the whole spectrum densely once k reaches this share of the
# dimension. On case-3 parity blocks, as the resonance sweep hands them over,
# at lambda = 1/100 (1 BLAS thread, best of 5), LAPACK took 0.121 s for all 450
# rows and 0.505 s for all 800, ARPACK 0.088 s for k = 58 of 450 and 0.469 s for
# k = 104 of 800; they cross near shares of 0.147 and 0.134.
_ARNOLDI_SHARE = 0.13


def apriori_bound(dim: int) -> float:
    """Relative backward-error allowance of a dense eigensolve of a dim x dim matrix."""
    return _APRIORI_EPS_FACTOR * dim * np.finfo(np.float64).eps


@dataclass(frozen=True)
class SpectralResult:
    """Eigenvalues plus a residual certificate ||A v - E v|| <= bound * ||A||."""

    eigenvalues: np.ndarray = field(repr=False)
    residual_bound: float


def _solve(eigvals, mat: OperatorMatrix) -> SpectralResult:
    try:
        vals = eigvals(mat.entries)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    return SpectralResult(eigenvalues=vals, residual_bound=apriori_bound(mat.dim))


def eig_selfadjoint(mat: OperatorMatrix) -> SpectralResult:
    """All real eigenvalues, ascending, of a matrix that passes is_hermitian (LAPACK reads one triangle)."""
    if not mat.is_hermitian():
        raise NotHermitian("matrix is not Hermitian to 1e-12 relative")
    return _solve(np.linalg.eigvalsh, mat)


def eig_complex(mat: OperatorMatrix) -> SpectralResult:
    """All complex eigenvalues of a general dense matrix (unordered), from one LAPACK call."""
    return _solve(np.linalg.eigvals, mat)


def eig_nearest(mat, k: int, sigma: complex) -> np.ndarray:
    """The k eigenvalues nearest sigma of a sparse square matrix, or all of them (unordered).

    Below `_ARNOLDI_SHARE` of the dimension they come from ARPACK in
    shift-invert mode on one SuperLU factorization of mat - sigma. The start
    vector is fixed, so equal calls give equal bits: without one, ARPACK
    draws it from an internal random stream that carries over between calls.
    When mat - sigma is exactly singular (sigma is an eigenvalue, as 2 is of
    the unrotated oscillator), they are the k nearest of the dense spectrum.
    At or above that share, and wherever k >= dim - 1 (ARPACK's limit), all
    eigenvalues come from eig_complex. scipy is imported here, not when the
    module loads.

    The factorization uses SuperLU's symmetric mode: every product in a
    rotated H(theta) - sigma is a kron of 1D factors with symmetric
    sparsity patterns, on a block's states, so the matrix is structurally
    symmetric, and a minimum-degree ordering of A^T + A with diagonal pivots
    preferred (a threshold of 0.1) fills in less than the default COLAMD
    column ordering.
    On the case-3 H(theta) - 2 at n = 30, lambda = 1/10, theta =
    0.065 pi (1 BLAS thread) it factors in 2.2 ms instead of 6.5, solves in
    0.081 ms instead of 0.108, with nnz(L + U) 61,533 instead of 82,799 and a
    relative residual of 1.1e-15 instead of 1.7e-15.
    """
    dim = mat.shape[0]
    if k >= min(_ARNOLDI_SHARE * dim, dim - 1):
        return eig_complex(OperatorMatrix(mat.toarray())).eigenvalues
    from scipy.sparse import identity
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigs, splu

    try:
        shifted = splu(
            (mat - sigma * identity(dim)).tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.1,
            options=dict(SymmetricMode=True),
        )
    except RuntimeError:  # SuperLU's "Factor is exactly singular"
        every = eig_complex(OperatorMatrix(mat.toarray())).eigenvalues
        return every[np.argsort(np.abs(every - sigma), kind="stable")[:k]]
    inverse = LinearOperator((dim, dim), matvec=shifted.solve, dtype=complex)
    start = np.random.default_rng(0).standard_normal(dim)
    try:
        return eigs(mat, k=k, sigma=sigma, OPinv=inverse, v0=start, return_eigenvectors=False)
    except ArpackError as exc:  # ArpackNoConvergence included
        raise ConvergenceFailure(str(exc)) from exc
