"""Dense Hamiltonian matrices in products of 1D harmonic-oscillator states.

Basis convention: eigenfunctions of h0 = p^2 + omega^2 x^2 (energies
omega*(2n+1)), so at omega = 1 the unperturbed 2D levels are 2(nx+ny)+2.
Complex scaling x -> x e^{i theta} enters as analytic continuation of the
matrix elements: the kinetic block picks up e^{-2i theta} and a potential
term of total degree k picks up e^{i k theta}. At theta = 0 every phase is
1, and the Hermitian matrix is built and stored as real float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf, pi

import numpy as np

from .poly2d import PolynomialPotential

_PAD = 4  # assemble x on n_max+_PAD states so x^k (k <= 4) truncates exactly
# Rows per in-place update in _assemble: the scaled term is built one block at
# a time, so no temporary of the full matrix's size is made.
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
    """Dense matrix with a Hermiticity certificate.

    The builders below return Hermitian matrices as real float64 and rotated
    ones as complex128. The check guards matrices that callers build.
    """

    dim: int
    entries: np.ndarray = field(repr=False)
    hermitian_flag: bool

    def __post_init__(self):
        if self.entries.shape != (self.dim, self.dim):
            raise ValueError("entries shape does not match dim")
        if self.hermitian_flag:
            scale = np.abs(self.entries).max() or 1.0
            defect = np.abs(self.entries - self.entries.conj().T).max()
            if defect > 1e-12 * scale:
                raise ValueError("hermitian_flag set but matrix is not Hermitian")


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


def _assemble(kin: np.ndarray, terms, theta: float) -> OperatorMatrix:
    """e^{-2i theta} kin + sum coeff e^{i degree theta} matrix over (coeff, degree, matrix).

    At theta = 0 every phase is the float 1.0, so the sum stays real. Terms
    are added in place, _ROW_BLOCK rows at a time, with the same elementwise
    products and sums as adding whole matrices.
    """
    hermitian = theta == 0.0

    def phase(degree: int):
        return 1.0 if hermitian else np.exp(1j * degree * theta)

    ham = phase(-2) * kin
    for coeff, degree, mat in terms:
        scale = coeff * phase(degree)
        for lo in range(0, ham.shape[0], _ROW_BLOCK):
            ham[lo : lo + _ROW_BLOCK] += scale * mat[lo : lo + _ROW_BLOCK]
    return OperatorMatrix(dim=kin.shape[0], entries=ham, hermitian_flag=hermitian)


def build_hamiltonian(poly: PolynomialPotential, basis: BasisSpec) -> OperatorMatrix:
    """Matrix of e^{-2i theta}(px^2+py^2) + sum c_ij e^{i(i+j)theta} X^i Y^j."""
    for (i, j) in poly.terms:
        if i > _PAD or j > _PAD:
            raise DegreeTooHigh(
                f"term x^{i} y^{j} exceeds the pad-{_PAD} exact truncation policy"
            )
    nx, ny, omega = basis.n_max_x, basis.n_max_y, basis.omega
    xpow = _position_powers(nx, omega, _PAD)
    ypow = xpow if ny == nx else _position_powers(ny, omega, _PAD)
    ix, iy = np.eye(nx), np.eye(ny)
    kin = np.kron(kinetic_matrix_1d(nx, omega), iy) + np.kron(ix, kinetic_matrix_1d(ny, omega))
    terms = (
        (coeff, i + j, np.kron(xpow[i], ypow[j]))
        for (i, j), coeff in poly.float_terms().items()
    )
    return _assemble(kin, terms, basis.theta)


def build_hamiltonian_1d(
    coeffs: dict[int, float], n_max: int, omega: float, theta: float = 0.0
) -> OperatorMatrix:
    """1D operator e^{-2i theta} p^2 + sum_k c_k e^{i k theta} x^k.

    `coeffs` maps powers of x to real coefficients, e.g. {2: 1.0, 4: g} for
    the separated quartic factors.
    """
    if any(k > _PAD or k < 0 for k in coeffs):
        raise DegreeTooHigh(f"power beyond the pad-{_PAD} truncation policy")
    xpow = _position_powers(n_max, omega, _PAD)
    terms = ((c, k, xpow[k]) for k, c in coeffs.items())
    return _assemble(kinetic_matrix_1d(n_max, omega), terms, theta)


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
    roots = np.roots([1.0, 0.0, -1.0, -3.0 * g])
    real = [r.real for r in roots if abs(r.imag) < 1e-9 * max(1.0, abs(r)) and r.real > 0]
    omega = max(real)
    # one Newton polish: the companion-matrix root is good to ~1e-12 already
    f = omega**3 - omega - 3.0 * g
    fp = 3.0 * omega**2 - 1.0
    return omega - f / fp

