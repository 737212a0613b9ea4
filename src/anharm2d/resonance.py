"""Resonances of unbounded oscillators via the complex-rotation angle sweep.

Each rotation angle theta gives a non-Hermitian matrix whose spectrum rotates
with theta except near resonances, where one eigenvalue stalls. Eigenvalues
are linked across neighbouring angles by greedy nearest-neighbour matching,
and the resonance is the theta-stationary point of the stalled trajectory.
The greedy matching is computed as rounds of mutual-nearest pairs, which give
the same links as taking pairs in ascending distance with ties in row-major
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .eig import apriori_bound, eig_complex
from .oscbasis import BasisSpec, build_hamiltonian
from .poly2d import PolynomialPotential


# Largest centred-difference |dE/dtheta| of a trajectory counted as stationary.
_STABILITY_TOL = 5e-2
# Largest |E(n+5) - E(n)| of a resonance certified as converged.
_DRIFT_TOL = 1e-4


class NoStationaryPoint(RuntimeError):
    """No trajectory met the stability threshold inside the theta window."""


@dataclass(frozen=True)
class ThetaScan:
    """Spectra over a theta sweep plus the linked trajectories.

    trajectories[r, k] follows one eigenvalue across thetas[k]; links whose
    nearest-neighbour choice collided with another trajectory are flagged in
    ambiguous[r, k] rather than silently trusted.
    """

    thetas: np.ndarray = field(repr=False)
    spectra: list = field(repr=False)
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


def theta_trajectory(
    poly: PolynomialPotential, basis: BasisSpec, thetas
) -> ThetaScan:
    """Full rotated spectra for each theta, linked into trajectories.

    Two spectra are solved at once: for each pair of angles one helper thread
    diagonalizes the second matrix while the calling thread builds and
    diagonalizes the first. numpy's LAPACK call releases the GIL, so the two
    eigensolves overlap. Every matrix is built on the calling thread, because
    a build in the helper thread leaves about 40 MB of freed buffers in that
    thread's malloc arena.
    """
    from concurrent.futures import ThreadPoolExecutor

    thetas = np.asarray(list(thetas), dtype=float)
    if thetas.size == 0 or np.any(np.diff(thetas) <= 0):
        raise ValueError("thetas must be nonempty and strictly ascending")
    if np.any(thetas >= math.pi / 4) or np.any(thetas < 0):
        raise ValueError("thetas must lie in [0, pi/4)")

    def build(theta):
        spec_basis = BasisSpec(basis.n_max_x, basis.n_max_y, basis.omega, float(theta))
        return build_hamiltonian(poly, spec_basis)

    spectra = []
    with ThreadPoolExecutor(max_workers=1) as helper:
        for a in range(0, len(thetas), 2):
            # the helper solves thetas[a + 1] while this thread builds and solves thetas[a]
            pending = [helper.submit(eig_complex, build(theta)) for theta in thetas[a + 1 : a + 2]]
            solved = [eig_complex(build(thetas[a]))] + [job.result() for job in pending]
            spectra.extend(np.sort_complex(result.eigenvalues) for result in solved)
    trajectories, ambiguous = _link(spectra)
    return ThetaScan(
        thetas=thetas, spectra=spectra, trajectories=trajectories, ambiguous=ambiguous
    )


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


def find_lowest_resonance(
    poly: PolynomialPotential,
    basis: BasisSpec,
    theta_window: tuple[float, float] = (0.03 * math.pi, 0.10 * math.pi),
    n_points: int = 15,
) -> Resonance:
    """Theta-stationary complex eigenvalue with the smallest real part.

    Sweeps the window, scores every trajectory by the centred difference
    |E(theta+h) - E(theta-h)| / 2h, keeps those that are stable (score below
    `_STABILITY_TOL` = 5e-2) and decay, and returns the one with the smallest
    Re E. A trajectory decays when -Im E exceeds the eigensolver's rounding
    floor, eig.apriori_bound(basis.dim) relative to |E|: a bound state (the
    whole spectrum at lambda = 0) sits at Im E = 0 up to rounding and is
    never reported. Convergence is always checked: the stationary angle is
    re-diagonalized with 5 more basis functions per mode, and the resonance is
    converged when an eigenvalue there lies within `_DRIFT_TOL` = 1e-4 of it.
    """
    lo, hi = theta_window
    if not (0.0 < lo < hi < math.pi / 4):
        raise ValueError("theta window must lie inside (0, pi/4)")
    if n_points < 3:
        raise ValueError("need at least 3 sweep points for a centred difference")
    thetas = np.linspace(lo, hi, n_points)
    scan = theta_trajectory(poly, basis, thetas)

    best = None  # (re, energy, theta_idx, stability)
    two_h = thetas[2] - thetas[0]
    noise = apriori_bound(basis.dim)
    for r in range(scan.trajectories.shape[0]):
        path = scan.trajectories[r]
        scores = np.abs(path[2:] - path[:-2]) / two_h
        k = int(np.argmin(scores)) + 1
        stability = float(scores[k - 1])
        energy = path[k]
        if stability > _STABILITY_TOL or -energy.imag <= noise * abs(energy):
            continue
        if best is None or energy.real < best[1].real:
            best = (r, energy, k, stability)
    if best is None:
        raise NoStationaryPoint(
            "no theta-stationary decaying trajectory in the window; "
            "adjust lambda or the window"
        )
    r, energy, k, stability = best
    theta_star = float(thetas[k])

    bigger = BasisSpec(basis.n_max_x + 5, basis.n_max_y + 5, basis.omega, theta_star)
    result = eig_complex(build_hamiltonian(poly, bigger))
    drift = float(np.min(np.abs(result.eigenvalues - energy)))
    converged = stability < _STABILITY_TOL and drift < _DRIFT_TOL

    return Resonance(
        energy=complex(energy), theta_star=theta_star, stability=stability, converged=converged
    )
