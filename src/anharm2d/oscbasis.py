"""Hamiltonian matrices in products of 1D harmonic-oscillator states.

build_hamiltonian, swap_blocks and build_hamiltonian_1d scatter the Hermitian
matrices densely and theta_factors the complex-scaled ones sparsely, block by
block, all from the 1D factors' nonzeros (`_pairs`).

Basis convention: eigenfunctions of h0 = p^2 + omega^2 x^2 (energies
omega*(2n+1)), so at omega = 1 the unperturbed 2D levels are 2(nx+ny)+2.
Complex scaling x -> x e^{i theta} enters as analytic continuation of the
matrix elements: the kinetic block picks up e^{-2i theta} and a potential
term of total degree k picks up e^{i k theta}. rotated applies these phases
to the sparse parts of theta_factors, and nothing else does. At theta = 0 the
matrix is real float64, bit for bit rotated's real part.

Parity sectors: x^i y^j only couples states whose (nx mod 2, ny mod 2)
differ by (i mod 2, j mod 2), and the kinetic term keeps both parities.
`_sector_blocks` joins two sectors when their parity difference is (0, 0)
or that of a key of `poly.terms`, and each connected group of sectors is one
block: ee, eo, oe and oo apart when every term is even in x and in y (cases
2 and 5), {ee, oo} and {eo, oe} when the other terms are odd in both (cases
1, 3 and 4), one block when terms of two different odd parities are
present (x and y, say). It reads only the exact term keys, with no
tolerance and no search of a matrix, and swap_blocks and theta_factors both
take their blocks from it: complex scaling is a uniform dilation, so H(theta)
has the blocks of H(0). A whole block is bitwise equal to the matching
submatrix, and the entries between blocks are exactly zero.

Swap blocks: when the basis is square and the swap (x, y) -> (y, x) leaves
the potential exactly invariant (decided over Q(sqrt(2)) by
symmetry.leaves_invariant, as for cases 1-5), the swap permutes the basis
states, |m,n> -> |n,m>, and commutes with the matrix. `swap_blocks` splits a
parity block that the swap maps to itself into its swap-even and swap-odd
blocks (_swap_halves), bit for bit the weighted orbit sums of
build_hamiltonian's entries, with no dense parity block. A block that the
swap maps onto another one (eo and oe, the two partners of the 2D irrep E
of C4v, in cases 2 and 5) has that block's spectrum, so only the first of
the two is built, with multiplicity 2. Otherwise every parity block is
scattered whole, with multiplicity 1.
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
    i + j per term, in poly.float_terms() order. _scatter and theta_factors
    take them in this order, so the order is written here only.
    """
    for (i, j) in poly.terms:
        if i > _PAD or j > _PAD:
            raise DegreeTooHigh(f"term x^{i} y^{j} exceeds the pad-{_PAD} exact truncation policy")
    nx, ny, omega = basis.n_max_x, basis.n_max_y, basis.omega
    xpow = _position_powers(nx, omega, _PAD)
    ypow = xpow if ny == nx else _position_powers(ny, omega, _PAD)
    kinetic = [(1.0, -2, kinetic_matrix_1d(nx, omega), ypow[0]), (1.0, -2, xpow[0], kinetic_matrix_1d(ny, omega))]
    return kinetic + [(coeff, i + j, xpow[i], ypow[j]) for (i, j), coeff in poly.float_terms().items()]


def _pairs(row: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple:
    """(rows, cols, values) of the nonzeros a[r, c] * b[s, t] of kron(a, b) inside a block:
    `row` maps each state (nx, ny) to its row and column in the block, -1 outside it."""
    (ra, ca), (rb, cb) = np.nonzero(a), np.nonzero(b)
    rows, cols = row[np.ix_(ra, rb)], row[np.ix_(ca, cb)]
    keep = (rows >= 0) & (cols >= 0)
    return rows[keep], cols[keep], (a[ra, ca][:, None] * b[rb, cb][None, :])[keep]


def _scatter(row: np.ndarray, dim: int, products) -> np.ndarray:
    """sum coeff kron(a, b) over (coeff, degree, a, b) in `products`, dense, on a dim-row block.

    Each product adds coeff times the values of _pairs(row, a, b) to a matrix
    that starts at zero, so each entry adds the dense sum's nonzero products
    in its order and has its bits but for a zero's sign (the dense sum can
    leave -0 where no product is nonzero and every coefficient is negative).
    The degree is not read.
    """
    out = np.zeros((dim, dim))
    for coeff, _, a, b in products:
        rows, cols, values = _pairs(row, a, b)
        out[rows, cols] += coeff * values
    return out


def _block_map(sectors, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """(row map, states) of the block on `sectors`: rows 0, 1, ... for its states, x-major and ascending, else -1."""
    sector = 2 * (np.arange(shape[0]) % 2)[:, None] + np.arange(shape[1]) % 2
    inside = np.isin(sector, [2 * a + b for a, b in sectors])
    row = np.full(shape, -1, dtype=np.intp)
    row[inside] = np.arange(np.count_nonzero(inside))
    return row, np.flatnonzero(inside)


def build_hamiltonian(poly: PolynomialPotential, basis: BasisSpec) -> OperatorMatrix:
    """Matrix of e^{-2i theta}(px^2+py^2) + sum c_ij e^{i(i+j)theta} X^i Y^j, real at theta = 0;
    at theta != 0 it is each block of theta_factors, rotated, at its rows."""
    nx, ny = basis.n_max_x, basis.n_max_y
    if basis.theta == 0.0:
        return OperatorMatrix(_scatter(np.arange(nx * ny).reshape(nx, ny), nx * ny, _products(poly, basis)))
    out = np.zeros((nx * ny, nx * ny), dtype=complex)
    for rows, part in theta_factors(poly, basis):
        out[np.ix_(rows, rows)] = rotated(part, basis.theta).toarray()
    return OperatorMatrix(out)


def theta_factors(poly: PolynomialPotential, basis: BasisSpec) -> list[tuple]:
    """(rows, (K, [(coeff, i + j, X^i Y^j), ...])) per block of _sector_blocks, in its order, unscaled.

    `rows` lists the block's states x-major and ascending (state (nx, ny) is
    row nx * n_max_y + ny of the full basis). K sums the two degree -2
    products of _products and the terms follow in its order, each the CSC of
    its _pairs on those states, so rotated(part, theta) is the full rotated
    matrix at rows and columns `rows`, bit for bit. basis.theta is not read;
    scipy is imported at the first block, not at load.

    Row order moves the bits of SuperLU and ARPACK. At 1 BLAS thread,
    sector-major rows moved case 3's Im E by up to 3e-10 relative at the four
    Table 1 couplings (at lambda = 1/10 from -0.000459014263811 to ...951),
    above the benchmark gate's 1e-10. swap_blocks keeps sector-major swap
    halves (ascending ones moved the 12th printed digit of 8 of 92 Hermitian
    commands); its whole blocks take ascending rows, which moved none.
    """
    shape, products = (basis.n_max_x, basis.n_max_y), _products(poly, basis)
    return [_theta_block(products, sectors, shape) for sectors in _sector_blocks(poly.terms, shape)]


def theta_block(poly: PolynomialPotential, basis: BasisSpec, state: int) -> tuple:
    """The entry of theta_factors(poly, basis) whose rows hold `state`, a row
    of the full basis, bit for bit, without assembling the other blocks."""
    shape = (basis.n_max_x, basis.n_max_y)
    nx, ny = divmod(state, basis.n_max_y)
    sectors = next(b for b in _sector_blocks(poly.terms, shape) if (nx % 2, ny % 2) in b)
    return _theta_block(_products(poly, basis), sectors, shape)


def _theta_block(products, sectors, shape: tuple[int, int]) -> tuple:
    """(rows, (K, terms)) of theta_factors on the block of `sectors`; scipy is imported here, not at load."""
    from scipy import sparse

    row, rows = _block_map(sectors, shape)
    pairs = (_pairs(row, a, b) for _, _, a, b in products)
    kx_iy, ix_ky, *mats = [sparse.csc_matrix((v, (i, j)), shape=(rows.size, rows.size)) for i, j, v in pairs]
    return rows, (kx_iy + ix_ky, [(c, k, m) for (c, k, _, _), m in zip(products[2:], mats)])


def rotated(factors, theta: float):
    """e^{-2i theta} K + sum coeff e^{i(i+j)theta} X^i Y^j over a block of theta_factors, term by term, as CSC."""
    kin, terms = factors
    ham = np.exp(1j * -2 * theta) * kin
    for coeff, degree, mat in terms:
        ham = ham + (coeff * np.exp(1j * degree * theta)) * mat
    return ham.tocsc()


_SECTORS = ((0, 0), (0, 1), (1, 0), (1, 1))  # (nx mod 2, ny mod 2)


def _sector_blocks(keys, shape: tuple[int, int]) -> list[list[tuple[int, int]]]:
    """The sectors with states in a basis of `shape`, grouped into the blocks that x^i y^j, (i, j) in keys, couple.

    Sectors s and t are joined when s - t (mod 2) is (0, 0), the kinetic
    term's parity, or that of a key whose own sector has states: a term odd
    in a mode of one state is zero (<0|x^odd|0> = 0). A block is then s plus
    the group those parities generate under addition mod 2; in Z2 x Z2 two
    different nonzero parities generate all four.
    """
    live = [(a, b) for a, b in _SECTORS if a < shape[0] and b < shape[1]]
    shifts = {(i % 2, j % 2) for i, j in keys} & set(live) | {(0, 0)}
    group = shifts if len(shifts) <= 2 else _SECTORS
    blocks = []
    for a, b in live:
        block = sorted(s for s in ((a ^ c, b ^ d) for c, d in group) if s in live)
        if block not in blocks:
            blocks.append(block)
    return blocks


def _swap_halves(products, sectors, n: int) -> list[OperatorMatrix]:
    """The swap-even and swap-odd blocks of a parity block that the swap maps to itself.

    Orbit states are w (|m,n> + |n,m>) with m <= n, w = 1/sqrt(2) for m < n and
    1/2 for m = n (so the state is |m,m>), and (|m,n> - |n,m>)/sqrt(2) with
    m < n, both in the row order of the representative |m,n>: the sectors in
    order (ee, eo, oe, oo), each x-major. One scatter puts the N
    representatives R at rows 0..N-1 and each partner P = |n,m> at row N +
    its representative's; its quadrants A, B, C, D are H at (R, R'), (R, P'),
    (P, R') and (P, P').
    """
    pieces = [(np.arange(a, n, 2), np.arange(b, n, 2)) for a, b in sectors]
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

    The swap blocks of the module docstring when the basis is square and the
    swap (x, y) -> (y, x), the shared S(2pi/8) = dihedral16()[10], leaves
    `poly` exactly invariant (symmetry.leaves_invariant). Otherwise every
    block of _sector_blocks whole, once, on its states x-major and ascending,
    as in theta_factors: bit for bit the full matrix at those rows and columns.
    """
    if basis.theta != 0.0:
        raise ValueError("swap blocks need basis.theta = 0")
    shape = nx, ny = basis.n_max_x, basis.n_max_y
    swap = nx == ny and leaves_invariant(poly, dihedral16()[10])
    blocks, seen, products = [], [], _products(poly, basis)
    for sectors in _sector_blocks(poly.terms, shape):
        swapped = sorted((b, a) for a, b in sectors)
        if swap and swapped == sectors:
            blocks += [(mat, 1) for mat in _swap_halves(products, sectors, nx)]
        elif not (swap and swapped in seen):
            row, rows = _block_map(sectors, shape)
            blocks.append((OperatorMatrix(_scatter(row, rows.size, products)), 2 if swap else 1))
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

