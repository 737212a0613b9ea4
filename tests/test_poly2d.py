import json
import math
import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anharm2d import cli
from anharm2d.cases import case_preset
from anharm2d.exactnum import HALF_SQRT2, SqrtTwoRational
from anharm2d.maps import NonOrthogonalMap, dihedral16, flip_x, rotation
from anharm2d.poly2d import (
    Boundedness,
    PolynomialPotential,
    apply_linear_map,
    is_bounded_below,
    is_separable,
    make_quartic,
    quartic_form_min,
)

def _map(a, b, c, d, label=""):
    from anharm2d.maps import OrthogonalMap2

    return OrthogonalMap2(a, b, c, d, label=label)


# The two benchmark coordinate changes, entered literally; U2 is the pure
# rotation by -pi/4.


U1 = _map(HALF_SQRT2, -HALF_SQRT2, -HALF_SQRT2, -HALF_SQRT2, "U1")
U2 = _map(HALF_SQRT2, HALF_SQRT2, -HALF_SQRT2, HALF_SQRT2, "U2")


def poly_of(terms):
    return PolynomialPotential({ij: SqrtTwoRational(c) for ij, c in terms.items()})


def _evaluate(poly, x, y):
    """Oracle: the floating-point value of the polynomial at (x, y)."""
    return sum(c * x**i * y**j for (i, j), c in poly.float_terms().items())


def _transpose(m):
    """Oracle: the transpose of an orthogonal map, its inverse."""
    return _map(m.a, m.c, m.b, m.d)


def test_make_quartic_case1_terms():
    poly = make_quartic(1, 1, 1, 1, 1, 1)
    assert poly.terms == poly_of(
        {(2, 0): 1, (0, 2): 1, (4, 0): 1, (3, 1): 4, (2, 2): 6, (1, 3): 4, (0, 4): 1}
    ).terms


def test_make_quartic_zero_perturbation():
    poly = make_quartic(0, 0, 0, 0, 0, 1)
    assert poly.terms == poly_of({(2, 0): 1, (0, 2): 1}).terms


def test_make_quartic_case3_terms():
    poly = make_quartic(0, 1, 1, 1, 0, 1)
    assert poly.terms == poly_of(
        {(2, 0): 1, (0, 2): 1, (3, 1): 4, (2, 2): 6, (1, 3): 4}
    ).terms


def test_evaluate_binomial_identity():
    quartic = case_preset(1, 1).potential.homogeneous_part(4)
    assert _evaluate(quartic, 1.0, 1.0) == pytest.approx(16.0, abs=1e-12)


def test_evaluate_case3_hand_value():
    quartic = case_preset(3, 1).potential.homogeneous_part(4)
    # brute-force term sum at (1, -1): 4(-1) + 6 + 4(-1) = -2
    brute = sum(
        float(c) * 1.0**i * (-1.0) ** j for (i, j), c in quartic.terms.items()
    )
    assert brute == -2.0
    assert _evaluate(quartic, 1.0, -1.0) == pytest.approx(-2.0, abs=1e-12)


def test_evaluate_origin_without_constant_term():
    assert _evaluate(case_preset(2, 1).potential, 0.0, 0.0) == 0.0


def test_transform_case1_reproduces_separated_form():
    got = apply_linear_map(case_preset(1, 1).potential, U1)
    assert got == poly_of({(2, 0): 1, (0, 2): 1, (0, 4): 4})


def test_transform_case2_reproduces_separated_form():
    got = apply_linear_map(case_preset(2, 1).potential, U2)
    assert got == poly_of({(2, 0): 1, (0, 2): 1, (4, 0): 2, (0, 4): 2})


def test_transform_case3_reproduces_even_form():
    got = apply_linear_map(case_preset(3, 1).potential, U2)
    expected = PolynomialPotential(
        {
            (2, 0): SqrtTwoRational(1),
            (0, 2): SqrtTwoRational(1),
            (0, 4): SqrtTwoRational(Fraction(7, 2)),
            (2, 2): SqrtTwoRational(-3),
            (4, 0): SqrtTwoRational(Fraction(-1, 2)),
        }
    )
    assert got == expected


def _random_poly(rng):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        i, j = rng.randint(0, 2), rng.randint(0, 2)
        terms[(i, j + 2 * rng.randint(0, 1))] = SqrtTwoRational(
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
        )
    return PolynomialPotential(terms)


def test_round_trip_through_every_dihedral_map_is_exact():
    rng = random.Random(11)
    maps = dihedral16()
    for _ in range(25):
        poly = _random_poly(rng)
        mp2 = maps[rng.randrange(len(maps))]
        assert apply_linear_map(apply_linear_map(poly, mp2), _transpose(mp2)) == poly


def test_quadratic_confinement_fixed_by_every_dihedral_map():
    quad = poly_of({(2, 0): 1, (0, 2): 1})
    for mp2 in dihedral16():
        assert apply_linear_map(quad, mp2) == quad


def test_transform_commutes_with_evaluation():
    rng = random.Random(5)
    maps = dihedral16()
    for _ in range(100):
        poly = _random_poly(rng)
        mp2 = maps[rng.randrange(len(maps))]
        x, y = rng.uniform(-2, 2), rng.uniform(-2, 2)
        u, v = mp2.apply(x, y)
        lhs = _evaluate(apply_linear_map(poly, mp2), x, y)
        rhs = _evaluate(poly, u, v)
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(rhs)))


def _binomial_oracle(poly, mp2):
    """Reference substitution: (a x + b y)^i and (c x + d y)^j expanded with
    binomial weights, then multiplied out term by term."""

    def power(e, n):
        out = SqrtTwoRational(1)
        for _ in range(n):
            out = out * e
        return out

    a, b, c, d = mp2.a, mp2.b, mp2.c, mp2.d
    out = {}
    for (i, j), coeff in poly.terms.items():
        xpow = [comb(i, k) * power(a, k) * power(b, i - k) for k in range(i + 1)]
        ypow = [comb(j, m) * power(c, m) * power(d, j - m) for m in range(j + 1)]
        for k, cx in enumerate(xpow):
            for m, cy in enumerate(ypow):
                key = (k + m, (i - k) + (j - m))
                out[key] = out.get(key, SqrtTwoRational(0)) + coeff * cx * cy
    return PolynomialPotential(out)


# A Pythagorean rotation, and its product with rotation(1), whose four entries
# are all nonzero: maps beyond dihedral16 with entries in Q(sqrt(2)).
_P = _map(Fraction(3, 5), Fraction(-4, 5), Fraction(4, 5), Fraction(3, 5), "P")
_PROPERTY_MAPS = dihedral16() + [flip_x(), _P, rotation(1).compose(_P)]
_FRACTIONS = st.fractions(min_value=-9, max_value=9, max_denominator=9)
_POLYS = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.builds(SqrtTwoRational, _FRACTIONS, _FRACTIONS),
    min_size=1,
    max_size=6,
).map(PolynomialPotential)


@settings(max_examples=80, deadline=None)
@given(
    _POLYS,
    st.sampled_from(_PROPERTY_MAPS),
    st.sampled_from(_PROPERTY_MAPS),
    st.floats(-2, 2),
    st.floats(-2, 2),
)
def test_substitution_matches_the_oracle_composes_and_evaluates(poly, first, second, x, y):
    moved = apply_linear_map(poly, first)
    assert moved == _binomial_oracle(poly, first)
    assert apply_linear_map(moved, second) == apply_linear_map(poly, first.compose(second))
    # |a| + |b| <= sqrt(2) and |x|, |y| <= 2, so the absolute terms of either side sum to <= sum |c| 4^(i+j)
    bound = sum(abs(float(c)) * 4.0 ** (i + j) for (i, j), c in poly.terms.items())
    assert _evaluate(moved, x, y) == pytest.approx(_evaluate(poly, *first.apply(x, y)), abs=1e-13 * bound)


def _count_products(monkeypatch):
    """Count SqrtTwoRational products from here on: ([calls], [operand pairs with an exact zero])."""
    calls, zero_operands = [0], []
    mul = SqrtTwoRational.__mul__

    def counting_mul(self, other):
        calls[0] += 1
        if self == 0 or other == 0:
            zero_operands.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(SqrtTwoRational, "__mul__", counting_mul)
    monkeypatch.setattr(SqrtTwoRational, "__rmul__", counting_mul)
    return calls, zero_operands


def test_substitution_multiplies_no_exact_zero(monkeypatch):
    """A zero map entry, or a partial coefficient that cancels to zero, costs no product."""
    presets = [case_preset(cid).potential for cid in range(1, 6)]
    maps = dihedral16() + [flip_x()]
    calls, zero_operands = _count_products(monkeypatch)
    for poly in presets:
        for mp2 in maps:
            apply_linear_map(poly, mp2)
    assert calls[0] > 0
    assert zero_operands == []


def test_signed_permutations_multiply_nothing(monkeypatch):
    """The 8 signed permutations of dihedral16 (its even indices) and flip_x only relabel terms."""
    presets = [case_preset(cid).potential for cid in range(1, 6)]
    maps = dihedral16()[::2] + [flip_x()]
    calls, _ = _count_products(monkeypatch)
    for poly in presets:
        for mp2 in maps:
            apply_linear_map(poly, mp2)
    assert calls[0] == 0


def test_non_orthogonal_map_cannot_be_built():
    with pytest.raises(NonOrthogonalMap):
        _map(1, 0, 0, 2)


def _scan_min(poly, points=10**6):
    quartic = poly.homogeneous_part(4)
    phi = np.linspace(-np.pi / 2, np.pi / 2, points)
    vals = sum(
        float(c) * np.cos(phi) ** i * np.sin(phi) ** j
        for (i, j), c in quartic.terms.items()
    )
    k = int(np.argmin(vals))
    return float(vals[k]), float(phi[k])


def test_quartic_form_min_case3_matches_scan_oracle():
    poly = case_preset(3, 1).potential
    got, angle = quartic_form_min(poly)
    scan_val, scan_phi = _scan_min(poly)
    assert got == pytest.approx(scan_val, abs=1e-8)
    assert got == pytest.approx(-2.0 / 3.0, abs=1e-12)
    assert math.sin(2 * angle) == pytest.approx(-2.0 / 3.0, abs=1e-9)
    # the (1, -1)/sqrt(2) diagonal certifies unboundedness with value -1/2
    assert _evaluate(poly.homogeneous_part(4), 1 / math.sqrt(2), -1 / math.sqrt(2)) == pytest.approx(-0.5, abs=1e-12)


def test_quartic_form_min_case1_perfect_power():
    got, angle = quartic_form_min(case_preset(1, 1).potential)
    assert got == 0.0
    assert angle == pytest.approx(-math.pi / 4, abs=1e-9)


def test_quartic_form_min_case2_matches_scan_oracle():
    poly = case_preset(2, 1).potential
    got, _ = quartic_form_min(poly)
    scan_val, _ = _scan_min(poly)
    assert got == pytest.approx(scan_val, abs=1e-8)
    assert got == pytest.approx(1.0, abs=1e-12)


# Case 3's quartic form has two exactly tied minima, which (x, y) -> (y, x)
# swaps, and case 2's ties at 0 and pi/2; the angle returned is decided by
# rounding. Pinned as printed (12 digits) at the couplings of the benchmark
# workloads, and at 1/100, where the rounding picks the other minimum. A
# replacement for np.roots must reproduce these picks, or give a canonical
# tie rule and change them on purpose.
@pytest.mark.parametrize(
    "case, lam, argmin",
    [
        (3, "1/10", "-0.364863828113"),
        (3, "12/100", "-0.364863828113"),
        (3, "13/100", "-0.364863828113"),
        (3, "14/100", "-0.364863828113"),
        (3, "1/2", "-0.364863828113"),
        (3, "3/10", "-0.364863828113"),
        (3, "2", "-0.364863828113"),
        (3, "1/100", "-1.20593249868"),
        (2, None, "1.57079632679"),
    ],
)
def test_tied_quartic_minimum_is_pinned(case, lam, argmin):
    _, angle = quartic_form_min(case_preset(case, lam).potential)
    assert format(angle, ".12g") == argmin


def test_quartic_form_min_invariant_under_orthogonal_maps():
    for cid in (1, 2, 3, 5):
        poly = case_preset(cid, 1).potential
        base, _ = quartic_form_min(poly)
        for mp2 in dihedral16()[1::3]:
            moved, _ = quartic_form_min(apply_linear_map(poly, mp2))
            assert moved == pytest.approx(base, abs=1e-10)


def test_quartic_form_min_without_a_quartic_part_is_marginal():
    # the harmonic limit: zero on every ray, reported at pi/2 like a marginal form
    poly = make_quartic(0, 0, 0, 0, 0, 1)
    assert quartic_form_min(poly) == (0.0, math.pi / 2)
    assert is_bounded_below(poly) is Boundedness.MARGINAL


def test_boundedness_classification():
    for lam in (Fraction(1, 10**13), Fraction(1, 10**10), 1, 10**6):
        assert is_bounded_below(case_preset(3, lam).potential) is Boundedness.UNBOUNDED
        assert is_bounded_below(case_preset(2, lam).potential) is Boundedness.BOUNDED
        for cid in (1, 4, 5):
            assert is_bounded_below(case_preset(cid, lam).potential) is Boundedness.MARGINAL
            assert is_bounded_below(case_preset(cid, -lam).potential) is Boundedness.UNBOUNDED


# Binary forms as coefficient lists [c_0, ..., c_n] of x^(n-k) y^k, entries in
# Q(sqrt(2)). Products of two quadratics, squares included, make the zero,
# double-root and perfect-power forms that random coefficients almost never hit;
# sums of two squares make the nonnegative ones.
_SQ2 = st.builds(SqrtTwoRational, st.integers(-2, 2), st.integers(-1, 1))


def _times(f, g):
    out = [SqrtTwoRational(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = out[i + j] + a * b
    return out


_QUADRATIC = st.one_of(st.tuples(_SQ2, _SQ2, _SQ2), st.tuples(_SQ2, _SQ2).map(lambda lin: _times(lin, lin)))
_FORMS = st.one_of(
    st.tuples(*[_SQ2] * 5),
    st.builds(lambda c, f, g: [c * a for a in _times(f, g)], _SQ2, _QUADRATIC, _QUADRATIC),
    st.builds(lambda f, g: [a + b for a, b in zip(_times(f, f), _times(g, g))], _QUADRATIC, _QUADRATIC),
).filter(any)


def _potential(form, scale=1):
    terms = {(4 - k, k): c * scale for k, c in enumerate(form)}
    terms[(2, 0)] = terms[(0, 2)] = SqrtTwoRational(1)
    return PolynomialPotential(terms)


_SCALES = st.one_of(
    st.fractions(min_value=Fraction(1, 1000), max_value=1000),
    st.sampled_from([Fraction(1, 10**15), Fraction(10**15)]),
)


@settings(max_examples=150, deadline=None)
@given(_FORMS, _SCALES)
@example([SqrtTwoRational(c) for c in (0, 4, 6, 4, 0)], Fraction(1, 10**15))  # case 3
def test_verdict_is_invariant_under_positive_scaling(form, c):
    assert is_bounded_below(_potential(form, c)) is is_bounded_below(_potential(form))


@settings(max_examples=40, deadline=None)
@given(_FORMS)
@example([SqrtTwoRational(c) for c in (1, 0, 0, 0, 0)])  # x^4
def test_verdict_is_invariant_under_every_dihedral_map(form):
    poly = _potential(form)
    verdict = is_bounded_below(poly)
    assert all(is_bounded_below(apply_linear_map(poly, g)) is verdict for g in dihedral16())


@settings(max_examples=100, deadline=None)
@given(_FORMS)
def test_verdict_matches_the_sign_of_a_dense_minimum(form):
    poly = _potential(form)
    dense, _ = _scan_min(poly, 200001)
    if abs(dense) > 1e-6:
        want = Boundedness.BOUNDED if dense > 0 else Boundedness.UNBOUNDED
        assert is_bounded_below(poly) is want


@settings(max_examples=150, deadline=None)
@given(_FORMS)
@example([SqrtTwoRational(c) for c in (1, 0, 0, 0, 0)])  # x^4: zero on the y-axis only
@example(_times(*[[SqrtTwoRational(1), SqrtTwoRational(0), SqrtTwoRational(-2)]] * 2))  # (x^2 - 2 y^2)^2
def test_marginal_forms_have_an_exact_zero_minimum_on_a_zero_ray(form):
    poly = _potential(form)
    if is_bounded_below(poly) is Boundedness.MARGINAL:
        value, angle = quartic_form_min(poly)
        assert value == 0.0
        scale = max(abs(float(c)) for c in form)
        assert abs(_evaluate(poly.homogeneous_part(4), math.cos(angle), math.sin(angle))) <= 1e-12 * scale


def test_separability_predicate():
    separated = apply_linear_map(case_preset(1, 1).potential, U1)
    assert is_separable(separated)
    assert not is_separable(case_preset(1, 1).potential)
    assert is_separable(make_quartic(0, 0, 0, 0, 0, 1))


def test_canonical_form_drops_zero_terms():
    poly = PolynomialPotential({(1, 1): SqrtTwoRational(0), (2, 0): SqrtTwoRational(3)})
    assert (1, 1) not in poly.terms


def _parse_poly_dict(payload):
    """Test-side reader of the CLI's exact polynomial form."""
    return PolynomialPotential(
        {(t["i"], t["j"]): SqrtTwoRational(Fraction(t["p"]), Fraction(t["q"])) for t in payload["terms"]}
    )


def test_json_round_trip_is_bit_exact():
    for cid in range(1, 6):
        poly = case_preset(cid, Fraction(1, 10)).potential
        text = json.dumps(cli._poly_dict(poly))
        payload = json.loads(text)
        assert [(t["i"], t["j"]) for t in payload["terms"]] == sorted(poly.terms)
        again = _parse_poly_dict(payload)
        assert again == poly
        assert json.dumps(cli._poly_dict(again)) == text


def test_json_preserves_sqrt2_components():
    poly = PolynomialPotential(
        {(3, 1): SqrtTwoRational(Fraction(-2, 3), Fraction(5, 7))}
    )
    assert cli._poly_dict(poly) == {"terms": [{"i": 3, "j": 1, "p": "-2/3", "q": "5/7"}]}
