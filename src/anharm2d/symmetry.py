"""Point-group detection and conjugation for polynomial potentials.

For kinetic-plus-potential Hamiltonians and orthogonal coordinate maps,
invariance of the potential is equivalent to invariance of the Hamiltonian,
so group detection reduces to exact polynomial identity checks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .maps import OrthogonalMap2, dihedral16, rotation
from .poly2d import PolynomialPotential, apply_linear_map, is_separable


class NotClosed(RuntimeError):
    """The invariant subset of the candidates is not closed under products."""


@dataclass(frozen=True)
class SymmetryGroup:
    """A finite group of exact orthogonal maps with its Cayley table.

    table[i][j] is the index of elements[i] @ elements[j] in `elements`;
    equality of tables (as plain index arrays) witnesses isomorphism for
    conjugated groups.
    """

    elements: tuple[OrthogonalMap2, ...]
    table: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def index_of(self, mp: OrthogonalMap2) -> int:
        for idx, el in enumerate(self.elements):
            if el.same_entries(mp):
                return idx
        raise KeyError(f"{mp!r} is not a group element")

    def to_json(self) -> str:
        return json.dumps(
            {
                "order": self.order,
                "elements": [el.label for el in self.elements],
                "table": [list(row) for row in self.table],
            }
        )


def leaves_invariant(poly: PolynomialPotential, mp: OrthogonalMap2) -> bool:
    """True iff the potential is exactly unchanged by the coordinate map."""
    return apply_linear_map(poly, mp) == poly


def _build_table(elements: list[OrthogonalMap2]) -> tuple[tuple[int, ...], ...]:
    def find(mp: OrthogonalMap2) -> int:
        for idx, el in enumerate(elements):
            if el.same_entries(mp):
                return idx
        raise NotClosed(f"product {mp!r} escapes the candidate set")

    return tuple(
        tuple(find(gi.compose(gj)) for gj in elements) for gi in elements
    )


def detect_group(
    poly: PolynomialPotential, candidates: list[OrthogonalMap2] | None = None
) -> SymmetryGroup:
    """Subset of `candidates` leaving the potential invariant, as a group.

    The default candidate set is the full order-16 dihedral group, for which
    the invariant subset is automatically closed; a custom candidate set that
    breaks closure raises NotClosed.
    """
    if candidates is None:
        candidates = dihedral16()
    kept = [mp for mp in candidates if leaves_invariant(poly, mp)]
    table = _build_table(kept)
    group = SymmetryGroup(elements=tuple(kept), table=table)
    _check_axioms(group)
    return group


def _check_axioms(group: SymmetryGroup) -> None:
    n = group.order
    ident = [
        i
        for i, el in enumerate(group.elements)
        if el.a == 1 and el.d == 1 and el.b.is_zero() and el.c.is_zero()
    ]
    if not ident:
        raise NotClosed("identity element missing from the invariant subset")
    e = ident[0]
    for i in range(n):
        if e not in group.table[i]:
            raise NotClosed(f"element {i} has no inverse in the set")


def conjugate_group(group: SymmetryGroup, mp: OrthogonalMap2) -> SymmetryGroup:
    """The isomorphic group {M U M^T}: same Cayley table, new elements."""
    mp_t = mp.transpose()
    conj = tuple(
        mp.compose(el, label="").compose(mp_t, label=f"conj({el.label})")
        for el in group.elements
    )
    return SymmetryGroup(elements=conj, table=group.table)


def separating_rotation(
    poly: PolynomialPotential,
) -> tuple[float, OrthogonalMap2] | None:
    """Rotation by 0 or -pi/4 that kills every mixed term, checked exactly.

    These two cover every rotation by k*pi/4: rotation(k + 2) is rotation(k)
    followed by (x, y) -> (-y, x), which maps each monomial x^i y^j to
    +-x^j y^i, so k and k + 2 separate together. Of that pair, -pi/4 rather
    than +pi/4 gives the canonical "quartic lands on y" orientation of the
    benchmark transforms.
    """
    for k in (0, -1):
        exact_map = rotation(k)
        if is_separable(apply_linear_map(poly, exact_map)):
            return k * math.pi / 4.0, exact_map
    return None
