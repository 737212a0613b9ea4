"""Dense eigensolver contracts on top of LAPACK.

Two entry points: a real-spectrum solver for Hermitian matrices, the one
place that checks Hermiticity (Rayleigh-Ritz energies), and a full
complex-spectrum solver for the complex-scaled, complex-symmetric matrices
of the resonance runs. Both compute eigenvalues only, and certify them with
the a-priori backward-error bound of `apriori_bound`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .oscbasis import OperatorMatrix


class NotHermitian(ValueError):
    """eig_selfadjoint was handed a matrix that fails OperatorMatrix.is_hermitian."""


class ConvergenceFailure(RuntimeError):
    """The LAPACK iteration failed to converge (pathological input)."""


# A-priori backward-error allowance for LAPACK dense solvers, in units of
# machine epsilon times the dimension.
_APRIORI_EPS_FACTOR = 64.0


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
    """All complex eigenvalues of a general dense matrix (unordered)."""
    return _solve(np.linalg.eigvals, mat)
