"""Whole-basis oracles of the complex-scaled path, independent of its block decision.

`kron_factors` builds the complex-scaling factors of the whole basis from
scipy.sparse.kron, with no block decision. `components` finds decoupled
blocks by a graph search of a matrix's exact nonzero pattern, and
`blockwise_eigvals` solves each such component on its own, one LAPACK call
each, on its principal submatrix with indices ascending: the bits of a solve
on the blocks that oscbasis.theta_factors decides.

`separable_resonance` is the lowest resonance of x^2 + y^2 - g x^4 + h y^4
computed another way: the potential separates, so it is e1 + e2, the lowest
resonance of the complex-scaled 1D p^2 + x^2 - g x^4 plus the ground level
of p^2 + y^2 + h y^4 (Moiseyev, Phys. Rep. 302 (1998)).
"""

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from anharm2d.eig import eig_selfadjoint
from anharm2d.oscbasis import _products, build_hamiltonian_1d, kinetic_matrix_1d, optimal_omega, position_matrix_1d


def kron_factors(poly, basis):
    """(K, [(coeff, i + j, X^i Y^j), ...]) on the whole basis, x-major, as CSC: one block of every state."""
    (_, _, kx, iy), (_, _, ix, ky), *terms = _products(poly, basis)
    kin = sparse.kron(kx, iy) + sparse.kron(ix, ky)
    return kin.tocsc(), [
        (coeff, degree, sparse.kron(sparse.csr_matrix(a), sparse.csr_matrix(b), format="csc"))
        for coeff, degree, a, b in terms
    ]


def components(mat):
    """Rows, ascending, of each connected component of the exact nonzero pattern of a dense or sparse matrix."""
    count, labels = connected_components(sparse.csr_matrix(mat != 0), directed=False)
    return [np.flatnonzero(labels == c) for c in range(count)]


def blockwise_eigvals(mat):
    """Every eigenvalue of a dense matrix, one LAPACK call per component of its nonzero pattern."""
    return np.concatenate([np.linalg.eigvals(mat[np.ix_(rows, rows)]) for rows in components(mat)])


# 1D resonance: the reference solve and the solves it must agree with, as (theta, n).
RESONANCE_1D_REFERENCE = (0.2, 160)
RESONANCE_1D_CHECKS = ((0.15, 160), (0.25, 160), (0.2, 120))
# How closely every check must reproduce the reference eigenvalue: 10 digits, as |e1| ~ 1.
# At g = 1/20 and 1/10 they agree to 1.8e-12, 50x inside.
RESONANCE_1D_TOL = 1e-10


def rotated_spectrum_1d(g, theta, n):
    """Every eigenvalue of e^{-2i theta} p^2 + e^{2i theta} x^2 - g e^{4i theta} x^4, dense, n states at omega 1."""
    x = position_matrix_1d(n, 1.0, pad=4)
    x2 = x @ x
    x4 = x2 @ x2
    ham = (
        np.exp(-2j * theta) * kinetic_matrix_1d(n, 1.0)
        + np.exp(2j * theta) * x2[:n, :n]
        - g * np.exp(4j * theta) * x4[:n, :n]
    )
    return np.linalg.eigvals(ham)


def resonance_1d(g):
    """Lowest resonance of p^2 + x^2 - g x^4: the eigenvalue of least Re E at
    RESONANCE_1D_REFERENCE that every RESONANCE_1D_CHECKS solve reproduces to
    RESONANCE_1D_TOL. Rotated continuum eigenvalues move with theta and n, so
    only resonances pass."""
    ref = rotated_spectrum_1d(g, *RESONANCE_1D_REFERENCE)
    checks = [rotated_spectrum_1d(g, theta, n) for theta, n in RESONANCE_1D_CHECKS]
    stable = [e for e in ref if all(np.min(np.abs(spec - e)) < RESONANCE_1D_TOL for spec in checks)]
    assert stable, f"no 1D eigenvalue at g = {g} is stable to {RESONANCE_1D_TOL:g}"
    e1 = complex(min(stable, key=lambda e: e.real))
    assert e1.imag < 0
    return e1


def separable_resonance(g, h):
    """e1 + e2 for x^2 + y^2 - g x^4 + h y^4 (g > 0, h > 0): resonance_1d(g)
    plus the 60-state ground level of p^2 + y^2 + h y^4 at optimal_omega(h)."""
    bound = build_hamiltonian_1d({2: 1.0, 4: float(h)}, n_max=60, omega=optimal_omega(float(h)))
    return resonance_1d(float(g)) + eig_selfadjoint(bound).eigenvalues[0]
