"""Dense eigensolver contracts on top of LAPACK.

Two entry points: a real-spectrum solver for self-adjoint matrices
(Rayleigh-Ritz energies) and a full complex-spectrum solver for the
complex-scaled, complex-symmetric matrices of the resonance runs. Both
compute eigenvalues only, and certify them with the a-priori backward-error
bound of `apriori_bound`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .oscbasis import OperatorMatrix


class NotHermitian(ValueError):
    """eig_selfadjoint was handed a matrix without the Hermitian certificate."""


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


def eig_selfadjoint(mat: OperatorMatrix) -> SpectralResult:
    """All real eigenvalues of a Hermitian matrix, ascending."""
    if not mat.hermitian_flag:
        raise NotHermitian("matrix lacks the hermitian certificate")
    a = mat.entries
    if np.iscomplexobj(a) and not a.imag.any():
        a = a.real
    try:
        vals = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    return SpectralResult(eigenvalues=vals, residual_bound=apriori_bound(mat.dim))


def eig_complex(mat: OperatorMatrix) -> SpectralResult:
    """All complex eigenvalues of a general dense matrix (unordered)."""
    try:
        vals = np.linalg.eigvals(mat.entries)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    return SpectralResult(eigenvalues=vals, residual_bound=apriori_bound(mat.dim))
