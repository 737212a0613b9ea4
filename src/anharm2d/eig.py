"""Dense eigensolver contracts on top of LAPACK.

Two entry points: a real-spectrum solver for self-adjoint matrices
(Rayleigh-Ritz energies) and a full complex-spectrum solver for the
complex-scaled, complex-symmetric matrices of the resonance runs.
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
# machine epsilon times the dimension; measured residuals replace it whenever
# eigenvectors are computed.
_APRIORI_EPS_FACTOR = 64.0


@dataclass(frozen=True)
class SpectralResult:
    """Eigenvalues plus a residual certificate ||A v - E v|| <= bound * ||A||."""

    eigenvalues: np.ndarray = field(repr=False)
    residual_bound: float
    eigenvectors: np.ndarray | None = field(default=None, repr=False)


def _measured_bound(mat: np.ndarray, vals: np.ndarray, vecs: np.ndarray) -> float:
    norm = np.linalg.norm(mat, ord=np.inf) or 1.0
    residuals = mat @ vecs - vecs * vals[np.newaxis, :]
    worst = np.linalg.norm(residuals, axis=0).max()
    return float(worst / norm)


def eig_selfadjoint(mat: OperatorMatrix, want_vectors: bool = False) -> SpectralResult:
    """All real eigenvalues of a Hermitian matrix, ascending."""
    if not mat.hermitian_flag:
        raise NotHermitian("matrix lacks the hermitian certificate")
    a = mat.entries
    if np.iscomplexobj(a) and not a.imag.any():
        a = a.real
    try:
        if want_vectors:
            vals, vecs = np.linalg.eigh(a)
        else:
            vals = np.linalg.eigvalsh(a)
            vecs = None
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    if vecs is not None:
        bound = _measured_bound(mat.entries, vals.astype(np.complex128), vecs.astype(np.complex128))
    else:
        bound = _APRIORI_EPS_FACTOR * mat.dim * np.finfo(np.float64).eps
    return SpectralResult(eigenvalues=vals, residual_bound=bound, eigenvectors=vecs)


def eig_complex(mat: OperatorMatrix, want_vectors: bool = False) -> SpectralResult:
    """All complex eigenvalues of a general dense matrix (unordered)."""
    try:
        if want_vectors:
            vals, vecs = np.linalg.eig(mat.entries)
        else:
            vals = np.linalg.eigvals(mat.entries)
            vecs = None
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    if vecs is not None:
        bound = _measured_bound(mat.entries, vals, vecs)
    else:
        bound = _APRIORI_EPS_FACTOR * mat.dim * np.finfo(np.float64).eps
    return SpectralResult(eigenvalues=vals, residual_bound=bound, eigenvectors=vecs)
