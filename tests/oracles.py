"""Whole-basis oracles of the complex-scaled path, independent of its block decision.

`kron_factors` builds the complex-scaling factors of the whole basis from
scipy.sparse.kron, with no block decision. `components` finds decoupled
blocks by a graph search of a matrix's exact nonzero pattern, and
`blockwise_eigvals` solves each such component on its own, one LAPACK call
each, on its principal submatrix with indices ascending: the bits of a solve
on the blocks that oscbasis.theta_factors decides.
"""

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from anharm2d.oscbasis import _products


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
