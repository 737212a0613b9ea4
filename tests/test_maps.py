import pytest

from anharm2d.exactnum import SqrtTwoRational
from anharm2d.maps import (
    NonOrthogonalMap,
    OrthogonalMap2,
    dihedral16,
    flip_x,
    identity,
    reflection,
    rotation,
)


def test_every_dihedral_element_is_orthogonal_with_unit_determinant():
    for el in dihedral16():
        assert el.det() in (SqrtTwoRational(1), SqrtTwoRational(-1))
    rotations = [rotation(k) for k in range(8)]
    assert all(r.det() == 1 for r in rotations)
    assert all(reflection(k).det() == -1 for k in range(8))


def test_dihedral16_is_built_once_and_listed_afresh():
    first, second = dihedral16(), dihedral16()
    assert first is not second
    assert all(a is b for a, b in zip(first, second))
    assert first == [rotation(k) for k in range(8)] + [reflection(k) for k in range(8)]
    assert [el.label for el in first] == [rotation(k).label for k in range(8)] + [reflection(k).label for k in range(8)]
    first.pop()
    assert len(dihedral16()) == 16


def test_dihedral16_is_closed_under_composition():
    group = dihedral16()
    for a in group:
        for b in group:
            product = a.compose(b)
            assert product in group


def test_non_orthogonal_entries_rejected():
    with pytest.raises(NonOrthogonalMap):
        OrthogonalMap2(1, 1, 0, 1)
    with pytest.raises(NonOrthogonalMap):
        OrthogonalMap2(2, 0, 0, SqrtTwoRational(0, 1))


def test_transpose_is_inverse():
    for el in dihedral16():
        transpose = OrthogonalMap2(el.a, el.c, el.b, el.d)
        assert el.compose(transpose) == identity()


def test_named_maps():
    assert flip_x().apply(1.0, 2.0) == (-1.0, 2.0)
    # reflection(0) is the x-axis mirror, reflection(2) the diagonal swap
    assert reflection(0).apply(1.0, 2.0) == (1.0, -2.0)
    assert reflection(2).apply(1.0, 2.0) == (2.0, 1.0)
    assert reflection(2) == OrthogonalMap2(0, 1, 1, 0)
    assert reflection(4) == flip_x()


def test_rotation_quarter_turn():
    r = rotation(2)  # pi/2
    assert r.apply(1.0, 0.0) == (0.0, 1.0)
    assert r.compose(r) == rotation(4)
