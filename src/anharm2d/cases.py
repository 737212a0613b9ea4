"""The five benchmark potentials, with their exact parameter sets."""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .poly2d import PolynomialPotential, make_quartic

# (a_xx, b_xy, c_xy, b_yx, a_yy) per case
_PARAMS = {
    1: (1, 1, 1, 1, 1),
    2: (1, 0, 1, 0, 1),
    3: (0, 1, 1, 1, 0),
    4: (1, -1, 1, -1, 1),
    5: (0, 0, 1, 0, 0),
}

# Coupling strengths the original study actually used per case.
_DEFAULT_LAMBDA = {
    1: Fraction(1),
    2: Fraction(10**6),
    3: Fraction(1, 10),
    4: Fraction(1, 10),
    5: Fraction(1, 100),
}


@dataclass(frozen=True)
class CasePreset:
    id: int
    lam: Fraction
    potential: PolynomialPotential


def exact_lambda(lam) -> Fraction:
    """Convert a coupling given as int/Fraction/str/float to an exact rational.

    Floats go through their shortest decimal repr, so 0.1 means 1/10 (the
    value a human typed), not the binary double underneath it.
    """
    if isinstance(lam, float):
        return Fraction(Decimal(repr(lam)))
    try:
        return Fraction(lam)
    except ZeroDivisionError:
        raise ValueError(f"coupling {lam!r} has a zero denominator") from None


def case_preset(case_id: int, lam=None) -> CasePreset:
    """Build case 1..5; lam defaults to the value used in the benchmark runs."""
    if case_id not in _PARAMS:
        raise ValueError(f"case_id must be 1..5, got {case_id}")
    lam = _DEFAULT_LAMBDA[case_id] if lam is None else exact_lambda(lam)
    potential = make_quartic(*_PARAMS[case_id], lam)
    return CasePreset(id=case_id, lam=lam, potential=potential)
