import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anharm2d import cli, symmetry
from anharm2d.cases import case_preset
from anharm2d.exactnum import HALF_SQRT2, SqrtTwoRational
from anharm2d.maps import OrthogonalMap2, dihedral16, dihedral16_product, flip_x, identity, reflection, rotation
from anharm2d.oscbasis import BasisSpec, build_hamiltonian
from anharm2d.poly2d import PolynomialPotential, apply_linear_map, is_separable, make_quartic
from anharm2d.symmetry import detect_group, leaves_invariant, separating_rotation

U2 = OrthogonalMap2(HALF_SQRT2, HALF_SQRT2, -HALF_SQRT2, HALF_SQRT2, "U2")


def test_leaves_invariant_examples():
    assert leaves_invariant(case_preset(5, 1).potential, rotation(2))
    assert leaves_invariant(case_preset(3, 1).potential, reflection(2))  # the x <-> y swap
    assert not leaves_invariant(case_preset(1, 1).potential, flip_x())


def test_detect_group_orders():
    assert detect_group(case_preset(5, 1).potential).order == 8
    assert detect_group(case_preset(3, 1).potential).order == 4
    assert detect_group(make_quartic(0, 0, 0, 0, 0, 1)).order == 16


def test_case3_group_is_c2v():
    group = detect_group(case_preset(3, 1).potential)
    labels = {el.label for el in group.elements}
    assert labels == {"E", "R(4pi/4)", "S(2pi/8)", "S(6pi/8)"}


def test_detected_order_divides_candidate_order():
    for cid in range(1, 6):
        group = detect_group(case_preset(cid, 1).potential)
        assert 16 % group.order == 0
        assert identity() in group.elements


def test_every_group_element_fixes_the_potential():
    for cid in (1, 3, 5):
        poly = case_preset(cid, 1).potential
        for el in detect_group(poly).elements:
            assert apply_linear_map(poly, el) == poly


def test_multiplication_table_consistency():
    group = detect_group(case_preset(5, 1).potential)
    for i, gi in enumerate(group.elements):
        for j, gj in enumerate(group.elements):
            product = gi.compose(gj)
            assert group.elements[group.table[i][j]] == product


def _transpose(m):
    """Oracle: the transpose of an orthogonal map, its inverse."""
    return OrthogonalMap2(m.a, m.c, m.b, m.d)


def _conjugates(group, mp):
    """M g M^T for every element g of the group, in the group's order."""
    return [mp.compose(el).compose(_transpose(mp)) for el in group.elements]


def test_conjugation_preserves_table_and_maps_groups():
    c3 = detect_group(case_preset(3, 1).potential)
    conj = _conjugates(c3, U2)
    # g -> M g M^T is a homomorphism: the conjugates multiply by c3's table
    for i, a in enumerate(conj):
        for j, b in enumerate(conj):
            assert conj[c3.table[i][j]] == a.compose(b)
    # the conjugated group is exactly the point group of the transformed potential
    transformed = apply_linear_map(case_preset(3, 1).potential, U2)
    detected = detect_group(transformed)
    assert set(conj) == set(detected.elements)


def test_conjugated_c4v_leaves_rotated_potential_invariant():
    poly = case_preset(5, 1).potential
    group = detect_group(poly)
    r = rotation(1)
    conj = _conjugates(group, r)
    rotated = apply_linear_map(poly, _transpose(r))
    assert len(set(conj)) == 8
    for el in conj:
        assert apply_linear_map(rotated, el) == rotated


def test_group_report_json(capsys):
    """The group report, which only cli.py formats, carries order, labels and table."""
    assert cli.main(["symmetry", "--case", "3", "--lambda", "1"]) == 0
    report = json.loads(capsys.readouterr().out)["group"]
    assert report["order"] == 4
    assert len(report["elements"]) == 4
    assert len(report["table"]) == 4 and all(len(row) == 4 for row in report["table"])
    assert report["table"][0] == [0, 1, 2, 3]


def test_separating_rotation_case1():
    angle, mp2, transformed = separating_rotation(case_preset(1, 1).potential)
    assert angle == pytest.approx(-math.pi / 4)
    assert transformed == apply_linear_map(case_preset(1, 1).potential, mp2)
    assert is_separable(transformed)
    assert float(transformed.coefficient(0, 4)) == 4.0


def test_separating_rotation_case2_is_the_benchmark_map():
    angle, mp2, separated = separating_rotation(case_preset(2, 1).potential)
    assert abs(angle) == pytest.approx(math.pi / 4)
    assert mp2 == U2
    assert separated == apply_linear_map(case_preset(2, 1).potential, U2)
    assert is_separable(separated)


def test_separating_rotation_case3_has_none():
    assert separating_rotation(case_preset(3, 1).potential) is None


def test_separating_rotation_already_separable():
    poly = make_quartic(1, 0, 0, 0, 1, 1)
    angle, mp2, separated = separating_rotation(poly)
    assert angle == 0.0
    assert mp2 == identity()
    assert separated == poly


_COEFF = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-3, max_value=3, max_denominator=4))


def _quartics(terms):
    return st.fixed_dictionaries({ij: _COEFF for ij in terms}).map(PolynomialPotential)


_EVEN_TERMS = ((2, 0), (1, 1), (0, 2), (4, 0), (3, 1), (2, 2), (1, 3), (0, 4))


def _separates(poly, k):
    return is_separable(apply_linear_map(poly, rotation(k)))


def _check_separating_rotation(poly):
    """A map iff some k*pi/4 rotation separates; then the first k in (0, -1, 1, -2, 2)."""
    found = separating_rotation(poly)
    assert (found is not None) == any(_separates(poly, k) for k in range(8))
    if found is not None:
        angle, mp2, separated = found
        assert separated == apply_linear_map(poly, mp2)
        assert is_separable(separated)
        first = next(k for k in (0, -1, 1, -2, 2) if _separates(poly, k))
        assert angle == first * math.pi / 4
        assert mp2 == rotation(first)
    return found


@settings(max_examples=60, deadline=None)
@given(_quartics(_EVEN_TERMS))
def test_separating_rotation_is_exact_and_complete(poly):
    _check_separating_rotation(poly)


@settings(max_examples=40, deadline=None)
@given(_quartics(((2, 0), (0, 2), (4, 0), (0, 4))), st.integers(0, 7))
def test_rotated_separable_quartic_is_found(separable, k):
    assert _check_separating_rotation(apply_linear_map(separable, _transpose(rotation(k)))) is not None


def _detect_counting_irrational_maps(poly):
    """detect_group(poly), and the maps with an entry +-sqrt(2)/2 it applied."""
    applied, substitute = [], symmetry.apply_linear_map

    def counting(p, mp2):
        if any(e.q for row in mp2.entries() for e in row):
            applied.append(mp2)
        return substitute(p, mp2)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(symmetry, "apply_linear_map", counting)
        return detect_group(poly), applied


def _sum(polys):
    total = {}
    for poly in polys:
        for ij, c in poly.terms.items():
            total[ij] = total[ij] + c if ij in total else c
    return PolynomialPotential(total)


def _generated(gens):
    subgroup = {0, *gens}
    while len(grown := subgroup | {dihedral16_product(i, j) for i in subgroup for j in subgroup}) > len(subgroup):
        subgroup = grown
    return tuple(sorted(subgroup))


# Every subgroup of dihedral16 is generated by two of its elements: these are all 19.
_SUBGROUPS = sorted({_generated((i, j)) for i in range(16) for j in range(16)})
_DEGREE4_KEYS = [(i, d - i) for d in range(5) for i in range(d + 1)]


@st.composite
def _averaged_polys(draw):
    """A polynomial of degree <= 4 over Q(sqrt(2)), odd degrees included, summed
    over its images under a random subgroup of dihedral16, so that every size
    of stabilizer comes up."""
    terms = draw(st.dictionaries(st.sampled_from(_DEGREE4_KEYS), st.builds(SqrtTwoRational, _COEFF, _COEFF), max_size=6))
    every = dihedral16()
    return _sum(apply_linear_map(PolynomialPotential(terms), every[k]) for k in draw(st.sampled_from(_SUBGROUPS)))


# Coefficients from a small set, so that symmetric forms come up often.
_SMALL_QUARTICS = st.tuples(*[st.sampled_from((0, 1, -1, 2))] * 5).map(lambda c: make_quartic(*c, 1))
X3_XY2_Y = PolynomialPotential({(3, 0): 1, (1, 2): 1, (0, 1): 1})  # K = {E}
X2_Y2_X3 = PolynomialPotential({(2, 0): 1, (0, 2): 1, (3, 0): 1})  # K = {E, S(0)}


@settings(max_examples=120, deadline=None)
@given(st.one_of(_SMALL_QUARTICS, _averaged_polys()))
@example(make_quartic(1, 0, 0, 0, 1, 1))  # C4v, not abelian
@example(make_quartic(0, 0, 0, 0, 0, 1))  # x^2 + y^2: all 16 elements
@example(X3_XY2_Y)
@example(X2_Y2_X3)
@example(PolynomialPotential({(1, 0): 1}))  # x: K = {E, S(0)}, and four odd cosets dropped
def test_detect_group_is_the_stabilizer_with_its_cayley_table(poly):
    group, irrational = _detect_counting_irrational_maps(poly)
    stabilizer = [g for g in dihedral16() if apply_linear_map(poly, g) == poly]
    assert [(g.label, g) for g in group.elements] == [(g.label, g) for g in stabilizer]
    assert identity() in group.elements
    for i, a in enumerate(group.elements):
        for j, b in enumerate(group.elements):
            assert group.elements[group.table[i][j]] == a.compose(b)
        assert sorted(group.table[i]) == list(range(group.order))
    # one test per coset of K, the kept signed permutations, among the 8 irrational maps
    signed = [g for g in dihedral16()[::2] if g in stabilizer]
    assert len(irrational) <= 8 // len(signed)


def test_examples_have_the_stated_subgroups():
    assert [g.label for g in detect_group(X3_XY2_Y).elements] == ["E"]
    assert [g.label for g in detect_group(X2_Y2_X3).elements] == ["E", "S(0pi/8)"]
    assert len(_detect_counting_irrational_maps(X3_XY2_Y)[1]) == 8


@pytest.mark.parametrize("lam", [None, "1/2", "3/10", "2"])
@pytest.mark.parametrize("case", range(1, 6))
def test_detect_group_tests_one_element_per_coset(case, lam):
    """One irrational test per coset of K: 2 for the C2v cases, 1 for the C4v ones."""
    group, irrational = _detect_counting_irrational_maps(case_preset(case, lam).potential)
    assert len(irrational) == (1 if case in (2, 5) else 2)
    assert group.order == (8 if case in (2, 5) else 4)


def test_dihedral16_product_is_compose():
    every = dihedral16()
    for i, a in enumerate(every):
        for j, b in enumerate(every):
            assert every[dihedral16_product(i, j)] == a.compose(b)


@pytest.mark.parametrize("case", range(1, 6))
def test_case_tables_are_the_composed_products(case):
    group = detect_group(case_preset(case).potential)
    kept = list(group.elements)
    assert group.table == tuple(tuple(kept.index(a.compose(b)) for b in kept) for a in kept)


def test_swap_degeneracy_witness_case5():
    """Spectral witness of commutation: swapping the two modes in an
    eigenvector of the C4v-symmetric problem leaves it an eigenvector."""
    n = 20
    ham = build_hamiltonian(case_preset(5, "0.01").potential, BasisSpec(n, n))
    h = ham.entries.real
    vals, vecs = np.linalg.eigh(h)
    # permutation (nx, ny) -> (ny, nx) in the row-major product basis
    perm = np.arange(n * n).reshape(n, n).T.reshape(-1)
    assert np.array_equal(h[np.ix_(perm, perm)], h)
    scale = np.abs(h).max()
    for k in range(10):
        swapped = vecs[:, k][perm]
        resid = np.linalg.norm(h @ swapped - vals[k] * swapped)
        assert resid <= 1e-9 * scale
