"""Point-group detection and separating rotations for polynomial potentials.

For kinetic-plus-potential Hamiltonians and orthogonal coordinate maps,
invariance of the potential is equivalent to invariance of the Hamiltonian,
so group detection reduces to exact polynomial identity checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .maps import OrthogonalMap2, dihedral16, dihedral16_product, rotation
from .poly2d import PolynomialPotential, apply_linear_map, is_separable


@dataclass(frozen=True)
class SymmetryGroup:
    """A finite group of exact orthogonal maps with its Cayley table.

    table[i][j] is the index of elements[i].compose(elements[j]) in `elements`.
    """

    elements: tuple[OrthogonalMap2, ...]
    table: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def leaves_invariant(poly: PolynomialPotential, mp: OrthogonalMap2) -> bool:
    """True iff the potential is exactly unchanged by the coordinate map."""
    return apply_linear_map(poly, mp) == poly


def detect_group(poly: PolynomialPotential) -> SymmetryGroup:
    """Elements of the order-16 dihedral group that leave the potential
    invariant, in `dihedral16` order, with their Cayley table.

    The invariant subset is the stabilizer of the potential, so it is a
    group: it holds the identity and is closed under products and inverses.
    The even-indexed elements R(2k) and S(2k) are the signed permutations, a
    subgroup of index 2 whose substitution only relabels terms; the kept ones
    form a subgroup K of the stabilizer with index at most 2. So the kept
    odd-indexed elements, which have entries +-sqrt(2)/2, are none or one
    coset g K: one test of g decides all of g K, because g h (h in K) is kept
    iff g = (g h) h^-1 is. The odd elements are visited in order, each coset
    is tested once, and the first kept one ends the search, so at most 8/|K|
    irrational maps are applied. The table comes from index arithmetic
    (dihedral16_product), not from composing the exact matrices.
    """
    every = dihedral16()
    kept = [k for k in range(0, 16, 2) if leaves_invariant(poly, every[k])]  # K
    decided = set()
    for g in range(1, 16, 2):
        if g in decided:
            continue
        coset = {dihedral16_product(g, h) for h in kept}
        if leaves_invariant(poly, every[g]):
            kept = sorted([*kept, *coset])
            break
        decided |= coset
    position = {k: pos for pos, k in enumerate(kept)}
    table = tuple(tuple(position[dihedral16_product(i, j)] for j in kept) for i in kept)
    return SymmetryGroup(elements=tuple(every[k] for k in kept), table=table)


def separating_rotation(poly: PolynomialPotential) -> tuple[float, OrthogonalMap2, PolynomialPotential] | None:
    """(angle, map, rotated poly) of the rotation by 0 or -pi/4 that kills every mixed term, exactly.

    These two cover every rotation by k*pi/4: rotation(k + 2) is rotation(k)
    followed by (x, y) -> (-y, x), which maps each monomial x^i y^j to
    +-x^j y^i, so k and k + 2 separate together. Of that pair, -pi/4 rather
    than +pi/4 gives the canonical "quartic lands on y" orientation of the
    benchmark transforms.
    """
    for k in (0, -1):
        exact_map = rotation(k)
        separated = apply_linear_map(poly, exact_map)
        if is_separable(separated):
            return k * math.pi / 4.0, exact_map, separated
    return None
