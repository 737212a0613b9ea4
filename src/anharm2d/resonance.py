"""Resonances of unbounded oscillators via the complex-rotation angle sweep.

Each rotation angle theta gives a non-Hermitian matrix whose spectrum rotates
with theta except near resonances, where one eigenvalue stalls. The sparse
parts of the matrix are assembled once per basis and decoupled block
(oscbasis.theta_factors, for case 3 each nx + ny parity block) and rotated
to each angle (oscbasis.rotated). The sweep runs on each block, where only
a window is solved: the k eigenvalues nearest the shift `_SIGMA`, by
shift-invert Arnoldi (eig.eig_nearest). Window eigenvalues are linked across
neighbouring angles by greedy nearest-neighbour matching, computed as rounds
of mutual-nearest pairs (the same links as taking pairs in ascending
distance, ties in row-major order), and the resonance is the
theta-stationary point of the stalled trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .eig import apriori_bound, eig_complex, eig_nearest
from .oscbasis import BasisSpec, OperatorMatrix, rotated, theta_block, theta_factors
from .poly2d import PolynomialPotential


# Largest centred-difference |dE/dtheta| of a trajectory counted as stationary.
_STABILITY_TOL = 5e-2
# Largest |E(n+5) - E(n)| of a resonance certified as converged.
_DRIFT_TOL = 1e-4
# The sweep's first windows share the _WINDOW eigenvalues nearest _SIGMA, the
# unperturbed ground level of p^2 + x^2 + y^2, among the blocks by rows.
_WINDOW = 12
_SIGMA = 2.0


class NoStationaryPoint(RuntimeError):
    """No trajectory met the stability threshold inside the theta window."""


@dataclass(frozen=True)
class ThetaScan:
    """Linked eigenvalue windows over a theta sweep.

    trajectories[r, k] follows one window eigenvalue across thetas[k]; links
    whose nearest-neighbour choice collided with another trajectory are
    flagged in ambiguous[r, k] rather than silently trusted.
    """

    thetas: np.ndarray = field(repr=False)
    trajectories: np.ndarray = field(repr=False)
    ambiguous: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class Resonance:
    energy: complex
    theta_star: float
    stability: float
    converged: bool

    def __post_init__(self):
        if self.energy.imag > 0:
            raise ValueError("resonance must lie in the lower half plane")


def theta_trajectory(factors, thetas, k: int = _WINDOW) -> ThetaScan:
    """The k eigenvalues nearest `_SIGMA` at each theta, linked into trajectories.

    `factors` is a block's operator from oscbasis.theta_factors, rotated to
    each angle. Each angle's window comes from eig.eig_nearest, which returns
    the whole spectrum once k is a large share of the dimension.
    """
    thetas = np.asarray(list(thetas), dtype=float)
    if thetas.size == 0 or np.any(np.diff(thetas) <= 0):
        raise ValueError("thetas must be nonempty and strictly ascending")
    if np.any(thetas >= math.pi / 4) or np.any(thetas < 0):
        raise ValueError("thetas must lie in [0, pi/4)")
    windows = [np.sort_complex(eig_nearest(rotated(factors, theta), k, _SIGMA)) for theta in thetas]
    trajectories, ambiguous = _link(windows)
    return ThetaScan(thetas=thetas, trajectories=trajectories, ambiguous=ambiguous)


def _link(spectra: list) -> tuple[np.ndarray, np.ndarray]:
    """Greedy minimal-distance matching between consecutive spectra.

    The greedy order takes pairs by ascending distance, ties by row-major
    (stable flat-index) order. A pair (r, c) where c is the first nearest
    column of row r and r the first nearest row of column c comes before every
    other pair in its row and column, so greedy always takes it. Each round
    therefore assigns all such mutual-nearest pairs at once and repeats on the
    remaining rows and columns, which gives exactly the greedy matching. A
    link is ambiguous when it is not its row's first nearest column.
    """
    dim, steps = len(spectra[0]), len(spectra)
    traj = np.empty((dim, steps), dtype=complex)
    ambig = np.zeros((dim, steps), dtype=bool)
    traj[:, 0] = spectra[0]
    current = np.arange(dim)  # trajectory r currently sits at index current[r]
    for k in range(1, steps):
        prev, nxt = spectra[k - 1], spectra[k]
        dist = np.abs(prev[current][:, None] - nxt[None, :])
        new_idx = np.empty(dim, dtype=int)
        rows, cols, left = np.arange(dim), np.arange(dim), dist
        while rows.size:
            best_c = np.argmin(left, axis=1)
            mutual = np.argmin(left, axis=0)[best_c] == np.arange(rows.size)
            new_idx[rows[mutual]] = cols[best_c[mutual]]
            free_c = np.ones(cols.size, dtype=bool)
            free_c[best_c[mutual]] = False
            rows, cols = rows[~mutual], cols[free_c]
            left = left[~mutual][:, free_c]
        ambig[:, k] = new_idx != np.argmin(dist, axis=1)
        current = new_idx
        traj[:, k] = nxt[current]
    return traj, ambig


def _pick(scan: ThetaScan, noise: float):
    """(row, theta index, energy, stability) of the stable decaying trajectory of least Re E, or None.

    Each trajectory is scored by the centred difference |E(theta+h) -
    E(theta-h)| / 2h at its most stationary angle; it is stable below
    `_STABILITY_TOL` and decays when -Im E exceeds noise * |E|.
    """
    best = None
    two_h = scan.thetas[2] - scan.thetas[0]
    for r, path in enumerate(scan.trajectories):
        scores = np.abs(path[2:] - path[:-2]) / two_h
        k = int(np.argmin(scores)) + 1
        stability = float(scores[k - 1])
        energy = path[k]
        if stability > _STABILITY_TOL or -energy.imag <= noise * abs(energy):
            continue
        if best is None or energy.real < best[2].real:
            best = (r, k, energy, stability)
    return best


def _drift(poly: PolynomialPotential, basis: BasisSpec, theta: float, energy: complex, state: int) -> float:
    """|E' - energy| for the eigenvalue E' nearest energy at theta, with 5 more
    states per mode, on the block that holds `state`, a row of basis."""
    bigger = BasisSpec(basis.n_max_x + 5, basis.n_max_y + 5, basis.omega)
    nx, ny = divmod(state, basis.n_max_y)
    _, part = theta_block(poly, bigger, nx * bigger.n_max_y + ny)
    nearest = eig_nearest(rotated(part, theta), 1, energy)
    return float(np.min(np.abs(nearest - energy)))


def _settled_pick(parts, thetas):
    """(block rows, block factors, _pick) of the windows that settle the pick,
    or None (see find_lowest_resonance); `parts` is oscbasis.theta_factors."""
    dim = sum(rows.size for rows, _ in parts)
    noise = apriori_bound(dim)
    sizes = [math.ceil(_WINDOW * rows.size / dim) for rows, _ in parts]
    while True:
        found, whole = None, True
        for (rows, part), k in zip(parts, sizes):
            scan = theta_trajectory(part, thetas, k)
            whole = whole and scan.trajectories.shape[0] == rows.size
            best = _pick(scan, noise)
            if best is not None and (found is None or best[2].real < found[2][2].real):
                found = (rows, part, best)
                settled = np.argmax(np.abs(scan.trajectories[:, best[1]] - _SIGMA)) != best[0]
        if whole or (found is not None and settled):
            return found
        sizes = [2 * k for k in sizes]


def find_lowest_resonance(
    poly: PolynomialPotential,
    basis: BasisSpec,
    theta_window: tuple[float, float] = (0.03 * math.pi, 0.10 * math.pi),
    n_points: int = 15,
) -> Resonance:
    """Theta-stationary complex eigenvalue with the smallest real part.

    Sweeps theta_window with theta_trajectory and takes, among the trajectories
    that are stable (centred-difference score below `_STABILITY_TOL` = 5e-2)
    and decay, the one with the smallest Re E. A trajectory decays when -Im E
    exceeds the eigensolver's rounding floor, eig.apriori_bound(basis.dim)
    relative to |E|: a bound state (the whole spectrum at lambda = 0) sits at
    Im E = 0 up to rounding and is never reported.

    Window rule: the sweep runs on each block of theta_factors, decided
    exactly from the potential's terms, not searched for in a matrix. A
    block of rows_b of the dim rows starts from its share of the `_WINDOW`
    eigenvalues nearest `_SIGMA` at each angle, k_b = ceil(_WINDOW * rows_b /
    dim): 6 for each 450-row parity block of case 3 at nmax 30. The pick is
    the least Re E over all blocks. Every k_b doubles while there is no
    pick, or while the pick is the farthest eigenvalue from `_SIGMA` of its
    own block's window at theta*, until every block is solved whole. The
    reported energy is the eigenvalue nearest the pick of the dense
    eig_complex solve of the pick's block rotated to theta*, the value the
    full dense sweep reports: one LAPACK call, for case 3 on the pick's
    nx + ny parity block. It must confirm the pick: it lies within
    `_DRIFT_TOL` of it and decays by the same test, or NoStationaryPoint is
    raised (a spurious Ritz value near a degenerate bound level, as at
    lambda = 0, fails here). Convergence is always checked: the resonance is
    converged when the n+5 basis at theta* has an eigenvalue within
    `_DRIFT_TOL` = 1e-4 of it, in the block that holds the pick's states,
    assembled alone by oscbasis.theta_block (for case 3, 613 of the 1225
    rows at nmax 30).
    """
    lo, hi = theta_window
    if not (0.0 < lo < hi < math.pi / 4):
        raise ValueError("theta window must lie inside (0, pi/4)")
    if n_points < 3:
        raise ValueError("need at least 3 sweep points for a centred difference")
    thetas = np.linspace(lo, hi, n_points)
    found = _settled_pick(theta_factors(poly, basis), thetas)
    if found is None:
        raise NoStationaryPoint(
            "no theta-stationary decaying trajectory in the window; "
            "adjust lambda or the window"
        )
    rows, part, (_, k, window_energy, stability) = found
    theta_star = float(thetas[k])

    dense = eig_complex(OperatorMatrix(rotated(part, theta_star).toarray(order="C"))).eigenvalues
    energy = complex(dense[np.argmin(np.abs(dense - window_energy))])
    if abs(energy - window_energy) > _DRIFT_TOL or -energy.imag <= apriori_bound(basis.dim) * abs(energy):
        raise NoStationaryPoint(
            f"the dense solve at theta* does not confirm the window pick {window_energy:.6g}; "
            "adjust lambda or the window"
        )
    converged = stability < _STABILITY_TOL and _drift(poly, basis, theta_star, energy, rows[0]) < _DRIFT_TOL

    return Resonance(energy=energy, theta_star=theta_star, stability=stability, converged=converged)
