"""Analysis toolkit for two-dimensional quartic anharmonic oscillators.

Exact coordinate transforms and symmetry detection over Q(sqrt(2)),
harmonic-oscillator-basis spectra, complex-rotation resonances, and
Hankel-determinant high-precision 1D eigenvalues.
"""

from .cases import CasePreset, case_preset, exact_lambda
from .eig import SpectralResult, eig_complex, eig_selfadjoint
from .exactnum import SqrtTwoRational
from .maps import OrthogonalMap2, dihedral16, flip_x, reflection, rotation
from .oscbasis import (
    BasisSpec,
    OperatorMatrix,
    build_hamiltonian,
    build_hamiltonian_1d,
    kinetic_matrix_1d,
    optimal_omega,
    position_matrix_1d,
)
from .poly2d import (
    Boundedness,
    PolynomialPotential,
    apply_linear_map,
    is_bounded_below,
    is_separable,
    make_quartic,
    quartic_form_min,
)
from .resonance import Resonance, ThetaScan, find_lowest_resonance, theta_trajectory
from .rpm import RiccatiSeries, riccati_coeffs, rpm_eigenvalue
from .symmetry import (
    SymmetryGroup,
    detect_group,
    leaves_invariant,
    separating_rotation,
)

__version__ = "0.1.0"

__all__ = [
    "BasisSpec",
    "Boundedness",
    "CasePreset",
    "OperatorMatrix",
    "OrthogonalMap2",
    "PolynomialPotential",
    "Resonance",
    "RiccatiSeries",
    "SpectralResult",
    "SqrtTwoRational",
    "SymmetryGroup",
    "ThetaScan",
    "apply_linear_map",
    "build_hamiltonian",
    "build_hamiltonian_1d",
    "case_preset",
    "detect_group",
    "dihedral16",
    "eig_complex",
    "eig_selfadjoint",
    "exact_lambda",
    "find_lowest_resonance",
    "flip_x",
    "is_bounded_below",
    "is_separable",
    "kinetic_matrix_1d",
    "leaves_invariant",
    "make_quartic",
    "optimal_omega",
    "position_matrix_1d",
    "quartic_form_min",
    "reflection",
    "riccati_coeffs",
    "rotation",
    "rpm_eigenvalue",
    "separating_rotation",
    "theta_trajectory",
]
