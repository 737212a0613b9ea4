"""Hamiltonian matrices in products of 1D harmonic-oscillator states.

build_hamiltonian, swap_blocks and build_hamiltonian_1d scatter the Hermitian
matrices from the 1D factors' nonzeros; theta_factors and rotated form the
complex-scaled ones.

Basis convention: eigenfunctions of h0 = p^2 + omega^2 x^2 (energies
omega*(2n+1)), so at omega = 1 the unperturbed 2D levels are 2(nx+ny)+2.
Complex scaling x -> x e^{i theta} enters as analytic continuation of the
matrix elements: the kinetic block picks up e^{-2i theta} and a potential
term of total degree k picks up e^{i k theta}. rotated applies these phases
to the sparse parts of theta_factors, and nothing else does. At theta = 0 the
matrix is real float64, bit for bit rotated's real part.

Parity sectors: x^i y^j only couples states whose (nx mod 2, ny mod 2)
differ by (i mod 2, j mod 2), and the kinetic term keeps both parities.
`swap_blocks` joins two sectors when their parity difference is (0, 0) or
that of a key of `poly.terms`, and each connected group of sectors is one
block: ee, eo, oe and oo apart when every term is even in x and in y (cases
2 and 5), {ee, oo} and {eo, oe} when the other terms are odd in both (cases
1, 3 and 4), one block when terms of two different odd parities are
present (x and y, say). It reads only the exact term keys, so no tolerance
is involved. A whole parity block is assembled from the same products, added
in the same order, as `build_hamiltonian`, so it is bitwise equal to the
matching submatrix, and the entries between blocks are exactly zero.

Swap blocks: when the basis is square and the swap (x, y) -> (y, x) leaves
the potential exactly invariant (decided over Q(sqrt(2)) by
symmetry.leaves_invariant, as for cases 1-5), the swap is a permutation
|m,n> -> |n,m> of basis states that commutes with the matrix. `swap_blocks`
splits a parity block that the swap maps to itself into a swap-even block
on the orbit states (|m,n> + |n,m>)/sqrt(2), with |m,m> itself in it, and a
swap-odd block on (|m,n> - |n,m>)/sqrt(2), without a dense parity block: one
scatter gives the N representatives |m,n>, m <= n, rows 0..N-1 in the
block's row order and each partner |n,m> row N + its representative's, and
its four N x N quadrants, H at rows R or P and columns R' or P', are summed
with the orbit weights. Each block is so, bit for bit, the weighted orbit
sums of build_hamiltonian's entries. A block that the swap maps onto
another one (eo and oe, the two partners of the 2D irrep E of C4v, in cases
2 and 5) has that block's spectrum, so only the first of the two is built,
with multiplicity 2. For any other potential or basis the swap does not
apply, and every parity block is scattered whole, with multiplicity 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf, pi

import numpy as np

from .maps import dihedral16
from .poly2d import PolynomialPotential
from .symmetry import leaves_invariant

_PAD = 4  # assemble x on n_max+_PAD states so x^k (k <= 4) truncates exactly
# Rows per slab of OperatorMatrix.is_hermitian, so that it makes no temporary
# of the full matrix's size.
_ROW_BLOCK = 64


class DegreeTooHigh(ValueError):
    """A potential term exceeds the exact-truncation padding policy."""


@dataclass(frozen=True)
class BasisSpec:
    """Product-basis description: sizes, basis frequency, rotation angle."""

    n_max_x: int
    n_max_y: int
    omega: float = 1.0
    theta: float = 0.0

    def __post_init__(self):
        if self.n_max_x < 1 or self.n_max_y < 1:
            raise ValueError("basis sizes must be >= 1")
        if not 0 < self.omega < inf:
            raise ValueError("omega must be positive and finite")
        if not abs(self.theta) < pi / 4:
            raise ValueError("|theta| must stay below pi/4")

    @property
    def dim(self) -> int:
        return self.n_max_x * self.n_max_y


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense square matrix; eig.eig_selfadjoint checks Hermiticity with `is_hermitian`."""

    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.entries.ndim != 2 or self.entries.shape[0] != self.entries.shape[1]:
            raise ValueError("entries must be a square 2-D array")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def is_hermitian(self) -> bool:
        """max|A - A^H| <= 1e-12 max|A|, where a max|A| of 0 counts as 1.0.

        A tolerance, as the builders form X^3 and X^4 as X^(k-1) X, which is not
        bitwise symmetric. The maxima run over _ROW_BLOCK-row slabs, each against
        its column slab, so no temporary of the matrix's size is made. A NaN
        survives np.maximum and passes `not >`, so LAPACK reports it.
        """
        a, scale, defect = self.entries, 0.0, 0.0
        for lo in range(0, self.dim, _ROW_BLOCK):
            rows = a[lo : lo + _ROW_BLOCK]
            scale = np.maximum(scale, np.abs(rows).max())
            defect = np.maximum(defect, np.abs(rows - a[:, lo : lo + _ROW_BLOCK].conj().T).max())
        return not defect > 1e-12 * (scale or 1.0)


def position_matrix_1d(n_max: int, omega: float, pad: int = 0) -> np.ndarray:
    """Tridiagonal x-matrix on n_max+pad states: x_{n,n+1} = sqrt((n+1)/(2 omega)).

    Powers x^k built on the padded matrix and truncated to n_max reproduce
    the exact elements <m|x^k|n> for m, n < n_max whenever pad >= k.
    """
    dim = n_max + pad
    x = np.zeros((dim, dim))
    n = np.arange(dim - 1)
    off = np.sqrt((n + 1) / (2.0 * omega))
    x[n, n + 1] = off
    x[n + 1, n] = off
    return x


def kinetic_matrix_1d(n_max: int, omega: float) -> np.ndarray:
    """Matrix of p^2: diagonal omega(2n+1)/2, second off-diagonal -(omega/2)sqrt((n+1)(n+2))."""
    p2 = np.zeros((n_max, n_max))
    n = np.arange(n_max)
    p2[n, n] = omega * (2 * n + 1) / 2.0
    m = np.arange(n_max - 2)
    off = -(omega / 2.0) * np.sqrt((m + 1) * (m + 2))
    p2[m, m + 2] = off
    p2[m + 2, m] = off
    return p2


def _position_powers(n_max: int, omega: float, max_power: int) -> list[np.ndarray]:
    """[I, X, X^2, ..., X^max_power] truncated from the padded representation."""
    xpad = position_matrix_1d(n_max, omega, pad=_PAD)
    powers = [np.eye(n_max)]
    acc = np.eye(n_max + _PAD)
    for _ in range(max_power):
        acc = acc @ xpad
        powers.append(acc[:n_max, :n_max].copy())
    return powers


def _products(poly: PolynomialPotential, basis: BasisSpec) -> list[tuple]:
    """(coeff, degree, a, b) per product coeff a (x) b of the Hamiltonian, in assembly order.

    K (x) I and I (x) K come first, at degree -2, then X^i (x) Y^j at degree
    i + j per term, in poly.float_terms() order. _scatter adds them in this
    order and theta_factors krons them, so the order is written here only.
    """
    for (i, j) in poly.terms:
        if i > _PAD or j > _PAD:
            raise DegreeTooHigh(f"term x^{i} y^{j} exceeds the pad-{_PAD} exact truncation policy")
    nx, ny, omega = basis.n_max_x, basis.n_max_y, basis.omega
    xpow = _position_powers(nx, omega, _PAD)
    ypow = xpow if ny == nx else _position_powers(ny, omega, _PAD)
    kinetic = [(1.0, -2, kinetic_matrix_1d(nx, omega), ypow[0]), (1.0, -2, xpow[0], kinetic_matrix_1d(ny, omega))]
    return kinetic + [(coeff, i + j, xpow[i], ypow[j]) for (i, j), coeff in poly.float_terms().items()]


def _scatter(row: np.ndarray, dim: int, products) -> np.ndarray:
    """sum coeff kron(a, b) over (coeff, degree, a, b) in `products`, on a dim-row block.

    `row` maps each state (nx, ny) to its row and column in the block, -1
    outside it. Each product adds coeff * (a[r, c] * b[s, t]) over the pairs
    of nonzeros of a and b inside the block to a matrix that starts at zero, so
    each entry adds the dense sum's nonzero products in its order and has its
    bits but for a zero's sign (the dense sum can leave -0 where no product is
    nonzero and every coefficient is negative). The degree is not read.
    """
    out = np.zeros((dim, dim))
    for coeff, _, a, b in products:
        (ra, ca), (rb, cb) = np.nonzero(a), np.nonzero(b)
        rows, cols = row[np.ix_(ra, rb)], row[np.ix_(ca, cb)]
        keep = (rows >= 0) & (cols >= 0)
        out[rows[keep], cols[keep]] += coeff * (a[ra, ca][:, None] * b[rb, cb][None, :])[keep]
    return out


def _piece_map(pieces, shape: tuple[int, int]) -> tuple[np.ndarray, int]:
    """(row map, rows) for _scatter on pieces (x states, y states): the pieces in order, each x-major."""
    row = np.full(shape, -1, dtype=np.intp)
    start = 0
    for px, py in pieces:
        row[np.ix_(px, py)] = np.arange(start, start + px.size * py.size).reshape(px.size, py.size)
        start += px.size * py.size
    return row, start


def build_hamiltonian(poly: PolynomialPotential, basis: BasisSpec) -> OperatorMatrix:
    """Matrix of e^{-2i theta}(px^2+py^2) + sum c_ij e^{i(i+j)theta} X^i Y^j, real at theta = 0."""
    if basis.theta == 0.0:
        nx, ny = basis.n_max_x, basis.n_max_y
        return OperatorMatrix(_scatter(np.arange(nx * ny).reshape(nx, ny), nx * ny, _products(poly, basis)))
    return OperatorMatrix(rotated(theta_factors(poly, basis), basis.theta).toarray(order="C"))


def theta_factors(poly: PolynomialPotential, basis: BasisSpec) -> tuple:
    """(K, [(coeff, i + j, X^i Y^j), ...]): kinetic matrix and per-term products, unscaled.

    K sums the two degree -2 products of _products, and the terms follow in
    its order, as build_hamiltonian adds them; each matrix is CSC in its
    x-major order. basis.theta is not read. scipy is imported here, not at load.
    """
    from scipy import sparse

    (_, _, kx, iy), (_, _, ix, ky), *terms = _products(poly, basis)
    kin = sparse.kron(kx, iy) + sparse.kron(ix, ky)
    return kin.tocsc(), [
        (coeff, degree, sparse.kron(sparse.csr_matrix(a), sparse.csr_matrix(b), format="csc"))
        for coeff, degree, a, b in terms
    ]


def rotated(factors, theta: float):
    """e^{-2i theta} K + sum coeff e^{i(i+j)theta} X^i Y^j over theta_factors, term by term, as CSC."""
    kin, terms = factors
    ham = np.exp(1j * -2 * theta) * kin
    for coeff, degree, mat in terms:
        ham = ham + (coeff * np.exp(1j * degree * theta)) * mat
    return ham.tocsc()


_SECTORS = ((0, 0), (0, 1), (1, 0), (1, 1))  # (nx mod 2, ny mod 2)


def _sector_blocks(keys) -> list[list[tuple[int, int]]]:
    """The parity sectors grouped into the blocks that terms x^i y^j, (i, j) in keys, couple.

    Sectors s and t are joined when s - t (mod 2) is the parity of the
    kinetic term, (0, 0), or of some key. A block is then s plus the group
    those parities generate under addition mod 2; in Z2 x Z2 two different
    nonzero parities generate all four.
    """
    shifts = {(0, 0)} | {(i % 2, j % 2) for i, j in keys}
    group = shifts if len(shifts) <= 2 else _SECTORS
    blocks = []
    for a, b in _SECTORS:
        block = sorted((a ^ c, b ^ d) for c, d in group)
        if block not in blocks:
            blocks.append(block)
    return blocks


def _swap_halves(products, pieces, n: int) -> list[OperatorMatrix]:
    """The swap-even and swap-odd blocks of a parity block that the swap maps to itself.

    Orbit states are w (|m,n> + |n,m>) with m <= n, w = 1/sqrt(2) for m < n and
    1/2 for m = n (so the state is |m,m>), and (|m,n> - |n,m>)/sqrt(2) with
    m < n, both in the block's row order of the representative |m,n>. The
    quadrants A, B, C, D are H at (R, R'), (R, P'), (P, R') and (P, P').
    """
    mx = np.concatenate([np.repeat(px, py.size) for px, py in pieces])
    my = np.concatenate([np.tile(py, px.size) for px, py in pieces])
    mx, my = mx[mx <= my], my[mx <= my]
    size, off, diag = mx.size, np.flatnonzero(mx < my), np.flatnonzero(mx == my)
    row = np.full((n, n), -1, dtype=np.intp)
    row[mx, my] = np.arange(size)
    row[my[off], mx[off]] = size + off
    h = _scatter(row, 2 * size, products)
    h[size + diag] = h[diag]
    h[:, size + diag] = h[:, diag]  # a diagonal orbit is its own partner
    a, b, c, d = h[:size, :size], h[:size, size:], h[size:, :size], h[size:, size:]
    # the weight product by the number of diagonal orbits among (row, column), each correctly rounded
    k = (mx == my).astype(np.intp)
    even = ((a + c) + (b + d)) * np.array([0.5, 0.5**1.5, 0.25])[k[:, None] + k[None, :]]
    odd = ((a - c) - (b - d))[np.ix_(off, off)] * 0.5
    return [OperatorMatrix(m) for m in (even, odd) if m.size]


def swap_blocks(poly: PolynomialPotential, basis: BasisSpec) -> list[tuple[OperatorMatrix, int]]:
    """(block, multiplicity) pairs whose spectra, each repeated `multiplicity` times, make up
    the spectrum of build_hamiltonian(poly, basis), which must be Hermitian (basis.theta = 0).

    When the basis is square and the swap (x, y) -> (y, x), the shared
    S(2pi/8) = dihedral16()[10], leaves `poly` exactly invariant
    (symmetry.leaves_invariant), a parity block that the swap maps to itself
    gives its swap-even and swap-odd blocks from one quadrant scatter, each
    bit for bit the weighted orbit sums of build_hamiltonian's entries, and of
    two blocks that the swap maps onto each other (eo and oe, the 2D irrep E
    of C4v) the first is kept whole with multiplicity 2. Otherwise every
    parity block is kept whole, once: its rows are its sectors' states in
    sector order (ee, eo, oe, oo), each sector x-major, and its matrix is the
    full matrix at those rows and columns, bit for bit. Sectors and blocks
    without states are skipped.
    """
    if basis.theta != 0.0:
        raise ValueError("swap blocks need basis.theta = 0")
    shape = nx, ny = basis.n_max_x, basis.n_max_y
    swap = nx == ny and leaves_invariant(poly, dihedral16()[10])
    blocks, seen, products = [], [], _products(poly, basis)
    for sectors in _sector_blocks(poly.terms):
        pieces = [(np.arange(a, nx, 2), np.arange(b, ny, 2)) for a, b in sectors]
        pieces = [(px, py) for px, py in pieces if px.size and py.size]
        if not pieces:
            continue
        swapped = sorted((b, a) for a, b in sectors)
        if swap and swapped == sectors:
            blocks += [(mat, 1) for mat in _swap_halves(products, pieces, nx)]
        elif not (swap and swapped in seen):
            blocks.append((OperatorMatrix(_scatter(*_piece_map(pieces, shape), products)), 2 if swap else 1))
        seen.append(sectors)
    return blocks


def build_hamiltonian_1d(coeffs: dict[int, float], n_max: int, omega: float) -> OperatorMatrix:
    """1D operator p^2 + sum_k c_k x^k, Hermitian and real float64.

    `coeffs` maps powers of x to real coefficients, e.g. {2: 1.0, 4: g} for
    the separated quartic factors.
    """
    if any(k > _PAD or k < 0 for k in coeffs):
        raise DegreeTooHigh(f"power beyond the pad-{_PAD} truncation policy")
    xpow, one = _position_powers(n_max, omega, _PAD), np.ones((1, 1))  # y: one state, no kinetic term
    products = [(1.0, -2, kinetic_matrix_1d(n_max, omega), one)] + [(c, k, xpow[k], one) for k, c in coeffs.items()]
    return OperatorMatrix(_scatter(np.arange(n_max).reshape(n_max, 1), n_max, products))


def optimal_omega(g: float) -> float:
    """Positive root of omega^3 - omega - 3g = 0.

    This frequency minimizes the ground-state expectation of p^2 + x^2 + g x^4
    over the basis frequency and massively accelerates variational
    convergence at strong coupling.
    """
    if g < 0:
        raise ValueError("g must be non-negative")
    if g == 0:
        return 1.0
    # Descartes' rule of signs gives exactly one positive root, and the roots
    # sum to 0, so a complex pair u +- iv has u = -omega/2 < 0: the largest
    # real part is omega, with no tolerance on the imaginary parts
    omega = max(np.roots([1.0, 0.0, -1.0, -3.0 * g]).real)
    # one Newton polish: the companion-matrix root is good to ~1e-12 already
    f = omega**3 - omega - 3.0 * g
    fp = 3.0 * omega**2 - 1.0
    return omega - f / fp

