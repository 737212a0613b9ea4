"""Analysis toolkit for two-dimensional quartic anharmonic oscillators.

Exact coordinate transforms and symmetry detection over Q(sqrt(2)),
harmonic-oscillator-basis spectra, complex-rotation resonances, and
Hankel-determinant high-precision 1D eigenvalues.

`import anharm2d` loads only the exact layer: cases, exactnum, maps, poly2d
and symmetry, which compute over Q(sqrt(2)). The numeric exports (those of
eig, oscbasis, resonance and rpm) resolve on first access (PEP 562
`__getattr__`), so numpy loads only with a computation that builds a matrix
or needs np.roots, scipy only with complex scaling (resonance) and mpmath
only with the Riccati-Pade computations (rpm), which use arbitrary
precision. numpy alone is about 65 ms of a fresh interpreter's import on
2 cores, and mpmath 20-35 ms.
"""

import importlib

from .cases import CasePreset, case_preset, exact_lambda
from .exactnum import SqrtTwoRational
from .maps import OrthogonalMap2, dihedral16, flip_x, reflection, rotation
from .poly2d import (
    Boundedness,
    PolynomialPotential,
    apply_linear_map,
    is_bounded_below,
    is_separable,
    make_quartic,
    quartic_form_min,
)
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

# name -> defining submodule of each export that resolves on first access
_DEFERRED = {
    name: module
    for module, names in {
        "eig": ("SpectralResult", "eig_complex", "eig_selfadjoint"),
        "oscbasis": (
            "BasisSpec",
            "OperatorMatrix",
            "build_hamiltonian",
            "build_hamiltonian_1d",
            "kinetic_matrix_1d",
            "optimal_omega",
            "position_matrix_1d",
        ),
        "resonance": ("Resonance", "ThetaScan", "find_lowest_resonance", "theta_trajectory"),
        "rpm": ("RiccatiSeries", "riccati_coeffs", "rpm_eigenvalue"),
    }.items()
    for name in names
}


def __getattr__(name):
    if name in _DEFERRED:
        return getattr(importlib.import_module(f".{_DEFERRED[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_DEFERRED))
