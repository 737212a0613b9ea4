from fractions import Fraction

import pytest

from anharm2d.cases import case_preset, exact_lambda
from anharm2d.exactnum import SqrtTwoRational
from anharm2d.poly2d import make_quartic


def test_presets_match_parameter_sets():
    assert case_preset(1, 1).potential == make_quartic(1, 1, 1, 1, 1, 1)
    assert case_preset(2, 1).potential == make_quartic(1, 0, 1, 0, 1, 1)
    assert case_preset(3, 1).potential == make_quartic(0, 1, 1, 1, 0, 1)
    assert case_preset(4, 1).potential == make_quartic(1, -1, 1, -1, 1, 1)
    assert case_preset(5, 1).potential == make_quartic(0, 0, 1, 0, 0, 1)


def test_case5_is_pure_cross_term():
    poly = case_preset(5, Fraction(1, 100)).potential
    assert set(poly.terms) == {(2, 0), (0, 2), (2, 2)}
    assert poly.coefficient(2, 2) == SqrtTwoRational(Fraction(6, 100))


def test_default_couplings():
    assert case_preset(1).lam == 1
    assert case_preset(2).lam == 10**6
    assert case_preset(3).lam == Fraction(1, 10)
    assert case_preset(4).lam == Fraction(1, 10)
    assert case_preset(5).lam == Fraction(1, 100)


def test_exact_lambda_conversions():
    assert exact_lambda("0.1") == Fraction(1, 10)
    assert exact_lambda(0.1) == Fraction(1, 10)  # via shortest repr, not binary
    assert exact_lambda(1e6) == 10**6
    assert exact_lambda(Fraction(3, 7)) == Fraction(3, 7)
    assert exact_lambda(2) == 2
    assert exact_lambda("1/3") == Fraction(1, 3)
    with pytest.raises(ValueError):
        exact_lambda("1/0")


def test_invalid_case_id():
    with pytest.raises(ValueError):
        case_preset(6)
