import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from anharm2d.cases import case_preset
from anharm2d.eig import eig_complex, eig_selfadjoint
from anharm2d.exactnum import HALF_SQRT2
from anharm2d.maps import OrthogonalMap2, reflection
from anharm2d.oscbasis import (
    BasisSpec,
    DegreeTooHigh,
    OperatorMatrix,
    _position_powers,
    build_hamiltonian,
    build_hamiltonian_1d,
    kinetic_matrix_1d,
    optimal_omega,
    position_matrix_1d,
    rotated,
    swap_blocks,
    theta_block,
    theta_factors,
)
from anharm2d.poly2d import PolynomialPotential, apply_linear_map, make_quartic
from anharm2d.exactnum import SqrtTwoRational
from anharm2d.symmetry import leaves_invariant
from oracles import components, kron_factors


def hermite_quad_element(m, n, k, omega, points=120):
    """Oracle: <m|x^k|n> by Gauss-Hermite quadrature of the wavefunctions."""
    nodes, weights = np.polynomial.hermite.hermgauss(points)
    x = nodes / math.sqrt(omega)

    def psi(q, xs):
        coeff = np.zeros(q + 1)
        coeff[q] = 1.0
        h = np.polynomial.hermite.hermval(math.sqrt(omega) * xs, coeff)
        norm = (omega / math.pi) ** 0.25 / math.sqrt(2.0**q * math.factorial(q))
        return norm * h

    # weights absorb exp(-omega x^2); psi_m psi_n contains that Gaussian
    vals = psi(m, x) * psi(n, x) * x**k
    return float(np.sum(weights * vals) / math.sqrt(omega))


def test_position_matrix_first_element():
    x = position_matrix_1d(2, 1.0)
    assert x[0, 1] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
    x4 = position_matrix_1d(2, 4.0)
    assert x4[0, 1] == pytest.approx(math.sqrt(1.0 / 8.0), abs=1e-15)


def test_ground_state_x2_pin():
    x = position_matrix_1d(1, 1.0, pad=2)
    x2 = np.linalg.matrix_power(x, 2)[:1, :1]
    assert x2[0, 0] == pytest.approx(0.5, abs=1e-15)


def test_x4_ground_matches_quadrature_oracle():
    x = position_matrix_1d(6, 1.0, pad=4)
    x4 = np.linalg.matrix_power(x, 4)[:6, :6]
    assert x4[0, 0] == pytest.approx(0.75, abs=1e-13)
    assert x4[0, 0] == pytest.approx(hermite_quad_element(0, 0, 4, 1.0), abs=1e-12)
    assert x4[1, 3] == pytest.approx(hermite_quad_element(1, 3, 4, 1.0), abs=1e-12)
    assert x4[0, 4] == pytest.approx(hermite_quad_element(0, 4, 4, 1.0), abs=1e-12)


def test_padding_gives_exact_quartic_elements():
    """X^4 truncated from the padded product equals the closed forms."""
    n_max, omega = 10, 1.7
    x = position_matrix_1d(n_max, omega, pad=4)
    x4 = np.linalg.matrix_power(x, 4)[:n_max, :n_max]
    for n in range(n_max):
        diag = 3.0 * (2 * n * n + 2 * n + 1) / (4 * omega * omega)
        assert x4[n, n] == pytest.approx(diag, rel=1e-13)
        if n + 2 < n_max:
            upper2 = (2 * n + 3) * math.sqrt((n + 1) * (n + 2)) / (2 * omega * omega)
            assert x4[n, n + 2] == pytest.approx(upper2, rel=1e-13)
        if n + 4 < n_max:
            upper4 = math.sqrt((n + 1) * (n + 2) * (n + 3) * (n + 4)) / (4 * omega * omega)
            assert x4[n, n + 4] == pytest.approx(upper4, rel=1e-13)
    # everything else vanishes
    for n in range(n_max):
        for m in range(n_max):
            if abs(m - n) not in (0, 2, 4):
                assert x4[n, m] == 0.0


def test_kinetic_matrix_elements():
    p2 = kinetic_matrix_1d(4, 1.0)
    assert p2[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert p2[0, 2] == pytest.approx(-1.0 / math.sqrt(2.0), abs=1e-15)
    assert kinetic_matrix_1d(4, 2.0)[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_kinetic_against_operator_identity():
    """p^2 must equal diag(omega(2n+1)) - omega^2 x^2 elementwise."""
    n_max, omega = 12, 2.3
    p2 = kinetic_matrix_1d(n_max, omega)
    x2 = np.linalg.matrix_power(position_matrix_1d(n_max, omega, pad=2), 2)[:n_max, :n_max]
    h0 = np.diag(omega * (2 * np.arange(n_max) + 1.0))
    assert np.abs(p2 - (h0 - omega**2 * x2)).max() < 1e-13 * omega * n_max


def test_unperturbed_hamiltonian_is_diagonal():
    ham = build_hamiltonian(make_quartic(0, 0, 0, 0, 0, 1), BasisSpec(5, 5))
    expected = np.diag(
        [2.0 * (nx + ny) + 2.0 for nx in range(5) for ny in range(5)]
    )
    assert np.abs(ham.entries - expected).max() < 1e-14
    assert ham.entries.dtype == np.float64


def test_hermiticity_at_theta_zero():
    ham = build_hamiltonian(case_preset(1, 1).potential, BasisSpec(8, 8))
    a = ham.entries
    assert a.dtype == np.float64
    assert np.abs(a - a.conj().T).max() <= 1e-12 * np.abs(a).max()
    assert ham.is_hermitian()


def test_complex_scaling_phases():
    theta = 0.05 * math.pi
    poly = make_quartic(0, 0, 0, 0, 0, 1)  # x^2 + y^2 only
    ham = build_hamiltonian(poly, BasisSpec(4, 4, theta=theta))
    kin = np.kron(kinetic_matrix_1d(4, 1.0), np.eye(4)) + np.kron(np.eye(4), kinetic_matrix_1d(4, 1.0))
    x2 = np.linalg.matrix_power(position_matrix_1d(4, 1.0, pad=4), 2)[:4, :4]
    pot = np.kron(x2, np.eye(4)) + np.kron(np.eye(4), x2)
    expected = np.exp(-2j * theta) * kin + np.exp(2j * theta) * pot
    assert np.abs(ham.entries - expected).max() < 1e-14
    assert ham.entries.dtype == np.complex128


def _complex_formula(kin, terms, theta):
    """e^{-2i theta} kin + sum c e^{i k theta} M over (c, k, M), in complex128."""
    ham = np.exp(-2j * theta) * kin.astype(np.complex128)
    for c, k, mat in terms:
        ham = ham + (c * np.exp(1j * k * theta)) * mat
    return ham


def test_hermitian_builds_are_real_float64():
    n, omega = 6, 1.7
    poly = case_preset(1, "0.3").potential
    xpow = _position_powers(n, omega, 4)
    k1 = kinetic_matrix_1d(n, omega)
    kin = np.kron(k1, np.eye(n)) + np.kron(np.eye(n), k1)
    terms = [(c, i + j, np.kron(xpow[i], xpow[j])) for (i, j), c in poly.float_terms().items()]
    ham = build_hamiltonian(poly, BasisSpec(n, n, omega=omega))
    assert ham.entries.dtype == np.float64
    assert np.array_equal(ham.entries, _complex_formula(kin, terms, 0.0).real)

    ham1 = build_hamiltonian_1d({2: 1.0, 4: 0.7}, n, omega)
    assert ham1.entries.dtype == np.float64
    terms1 = [(1.0, 2, xpow[2]), (0.7, 4, xpow[4])]
    assert np.array_equal(ham1.entries, _complex_formula(k1, terms1, 0.0).real)


def _explicit_kron_sum(poly, nx, ny, omega, theta):
    """Oracle: _complex_formula on numpy's dense kron products of the 1D factors."""
    xpow, ypow = _position_powers(nx, omega, 4), _position_powers(ny, omega, 4)
    kin = np.kron(kinetic_matrix_1d(nx, omega), np.eye(ny)) + np.kron(np.eye(nx), kinetic_matrix_1d(ny, omega))
    terms = [(c, i + j, np.kron(xpow[i], ypow[j])) for (i, j), c in poly.float_terms().items()]
    return _complex_formula(kin, terms, theta)


@pytest.mark.parametrize("theta", [0.0, 0.1])
@pytest.mark.parametrize("case", range(1, 6))
def test_build_is_bitwise_the_explicit_sum(case, theta):
    # 35 x 35 gives 1225 rows, many row blocks of the in-place assembly; at
    # theta != 0 the blocks are written back by their rows, on a basis that
    # is not square too
    poly = case_preset(case, None).potential
    for shape in ((35, 35), (35, 34)):
        want = _explicit_kron_sum(poly, *shape, 1.0, theta)
        if theta == 0.0:
            want = np.ascontiguousarray(want.real)
        got = build_hamiltonian(poly, BasisSpec(*shape, theta=theta)).entries
        assert got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


def _expected_blocks(poly, nx, ny):
    """Oracle: the product-basis rows of each parity block, in documented order.

    Sectors with states, s and t, are adjacent when s - t (mod 2) is the
    parity of the kinetic term or of a term of the potential; blocks are the
    connected components, ordered by their first sector. A block's rows are
    its states, x-major and ascending.
    """
    shifts = {(0, 0)} | {(i % 2, j % 2) for i, j in poly.terms}
    sectors = [(a, b) for a in (0, 1) for b in (0, 1) if a < nx and b < ny]
    component = {s: {s} for s in sectors}
    for s in sectors:
        for t in sectors:
            if ((s[0] - t[0]) % 2, (s[1] - t[1]) % 2) in shifts:
                merged = component[s] | component[t]
                for u in merged:
                    component[u] = merged
    return [
        np.array([kx * ny + ky for kx in range(nx) for ky in range(ny) if (kx % 2, ky % 2) in component[s]])
        for s in sectors
        if min(component[s]) == s
    ]


_MONOMIALS = [(i, j) for i in range(5) for j in range(5 - i)]
_COEFFS = st.fractions(min_value=-5, max_value=5, max_denominator=30)


@settings(max_examples=60, deadline=None)
@given(
    terms=st.dictionaries(
        st.sampled_from(_MONOMIALS),
        st.fractions(min_value=-5, max_value=5, max_denominator=30),
        max_size=8,
    ),
    nx=st.integers(1, 8),
    ny=st.integers(1, 8),
    omega=st.sampled_from([1.0, 1.7]),
)
def test_parity_blocks_are_exact_submatrices(terms, nx, ny, omega):
    """swap_blocks' whole-block path, where the swap does not apply: the parity blocks, once each."""
    poly = PolynomialPotential({(2, 0): 1, (0, 2): 1, **terms})
    assume(nx != ny or not leaves_invariant(poly, reflection(2)))
    basis = BasisSpec(nx, ny, omega=omega)
    full = build_hamiltonian(poly, basis).entries
    pairs = swap_blocks(poly, basis)
    assert [times for _, times in pairs] == [1] * len(pairs)
    blocks = [mat for mat, _ in pairs]
    expected = _expected_blocks(poly, nx, ny)
    assert np.array_equal(np.sort(np.concatenate(expected)), np.arange(nx * ny))
    assert [mat.dim for mat in blocks] == [rows.size for rows in expected]
    label = np.empty(nx * ny, dtype=int)
    for k, (rows, mat) in enumerate(zip(expected, blocks)):
        label[rows] = k
        assert mat.entries.dtype == full.dtype == np.float64
        assert np.array_equal(mat.entries, full[np.ix_(rows, rows)])
    assert np.all(full[label[:, None] != label[None, :]] == 0.0)
    want = np.linalg.eigvalsh(full)
    got = np.sort(np.concatenate([np.linalg.eigvalsh(mat.entries) for mat in blocks]))
    assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1.0)


@settings(max_examples=60, deadline=None)
@given(
    terms=st.dictionaries(st.sampled_from(_MONOMIALS), _COEFFS, max_size=8),
    nx=st.integers(1, 8),
    ny=st.integers(1, 8),
    omega=st.sampled_from([1.0, 1.7]),
)
@example(terms={(2, 0): Fraction(-3, 2), (1, 1): Fraction(2), (4, 0): Fraction(1)}, nx=7, ny=4, omega=1.7)
@example(terms={(2, 0): Fraction(-1), (0, 2): Fraction(-2), (3, 1): Fraction(-1, 3)}, nx=5, ny=8, omega=1.0)
def test_parity_blocks_are_the_dense_kron_sum(terms, nx, ny, omega):
    """Oracle independent of the builder's assembly: the explicit np.kron sum at each block's rows."""
    poly = PolynomialPotential({(2, 0): 1, (0, 2): 1, **terms})
    assume(nx != ny or not leaves_invariant(poly, reflection(2)))  # swap_blocks keeps the parity blocks whole
    xpow, ypow = _position_powers(nx, omega, 4), _position_powers(ny, omega, 4)
    want = np.kron(kinetic_matrix_1d(nx, omega), np.eye(ny)) + np.kron(np.eye(nx), kinetic_matrix_1d(ny, omega))
    for (i, j), c in poly.float_terms().items():
        want = want + c * np.kron(xpow[i], ypow[j])
    blocks = swap_blocks(poly, BasisSpec(nx, ny, omega=omega))
    expected = _expected_blocks(poly, nx, ny)
    assert len(blocks) == len(expected)
    for rows, (mat, _) in zip(expected, blocks):
        assert np.array_equal(mat.entries, want[np.ix_(rows, rows)])


@settings(max_examples=80, deadline=None)
@given(
    terms=st.dictionaries(st.sampled_from(_MONOMIALS), _COEFFS, max_size=8),
    nx=st.integers(1, 8),
    ny=st.integers(1, 8),
    omega=st.sampled_from([1.0, 1.7]),
)
@example(terms={(1, 0): Fraction(1), (1, 1): Fraction(1)}, nx=1, ny=5, omega=1.0)
@example(terms={(0, 3): Fraction(-2), (1, 1): Fraction(1, 3)}, nx=6, ny=1, omega=1.7)
def test_theta_factor_blocks_are_the_components(terms, nx, ny, omega):
    """The blocks of theta_factors partition the basis, each is one component
    of the whole basis's joint nonzero pattern, and written back at their rows
    their rotated matrices are the explicit kron sum bit for bit. At nx = 1
    the terms x and x y vanish, so they join no sectors."""
    poly = PolynomialPotential({(2, 0): 1, (0, 2): 1, **terms})
    basis = BasisSpec(nx, ny, omega=omega)
    blocks = theta_factors(poly, basis)
    assert np.array_equal(np.sort(np.concatenate([rows for rows, _ in blocks])), np.arange(nx * ny))
    kin, products = kron_factors(poly, basis)
    joint = sum((abs(mat) for _, _, mat in products), abs(kin))
    assert sorted(rows.tolist() for rows, _ in blocks) == sorted(rows.tolist() for rows in components(joint))
    want = _explicit_kron_sum(poly, nx, ny, omega, 0.1)
    got = np.zeros_like(want)
    for rows, part in blocks:
        got[np.ix_(rows, rows)] = rotated(part, 0.1).toarray()
    assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


def _csc_bytes(mat):
    return mat.dtype, mat.shape, mat.data.tobytes(), mat.indices.tobytes(), mat.indptr.tobytes()


@settings(max_examples=30, deadline=None)
@given(
    terms=st.dictionaries(st.sampled_from(_MONOMIALS), _COEFFS, max_size=8),
    nx=st.integers(1, 8),
    ny=st.integers(1, 8),
    data=st.data(),
)
def test_theta_block_is_the_entry_of_theta_factors(terms, nx, ny, data):
    """theta_block of a state is the entry of theta_factors whose rows hold
    it: the same rows, K and terms, bit for bit."""
    poly = PolynomialPotential({(2, 0): 1, (0, 2): 1, **terms})
    basis = BasisSpec(nx, ny)
    state = data.draw(st.integers(0, nx * ny - 1))
    rows, (kin, products) = theta_block(poly, basis, state)
    want_rows, (want_kin, want_products) = next(b for b in theta_factors(poly, basis) if state in b[0])
    assert np.array_equal(rows, want_rows)
    assert _csc_bytes(kin) == _csc_bytes(want_kin)
    assert [(c, k, _csc_bytes(m)) for c, k, m in products] == [(c, k, _csc_bytes(m)) for c, k, m in want_products]


def test_parity_blocks_reject_a_rotated_basis():
    # on the whole-block path (a basis that is not square) and on the swap path
    with pytest.raises(ValueError):
        swap_blocks(case_preset(3).potential, BasisSpec(6, 5, theta=0.1))
    with pytest.raises(ValueError):
        swap_blocks(case_preset(3).potential, BasisSpec(6, 6, theta=0.1))


@pytest.mark.parametrize(
    "poly, count",
    [(case_preset(k, None).potential, n) for k, n in zip(range(1, 6), (2, 4, 2, 2, 4))]
    + [
        (PolynomialPotential({(2, 0): 1, (0, 2): 1, (1, 2): Fraction(1, 3)}), 2),
        (PolynomialPotential({(2, 0): 1, (0, 2): 1, (1, 0): 1, (0, 1): 1}), 1),
    ],
)
def test_parity_block_count(poly, count):
    # a basis that is not square keeps every parity block whole
    assert [times for _, times in swap_blocks(poly, BasisSpec(6, 5))] == [1] * count
    # a single state per mode leaves only the ee sector
    assert [times for _, times in swap_blocks(poly, BasisSpec(1, 1))] == [1]


def _block_levels(blocks):
    """The merged spectrum of swap_blocks' output, each block's levels repeated by its multiplicity."""
    return np.sort(np.concatenate([np.repeat(np.linalg.eigvalsh(mat.entries), times) for mat, times in blocks]))


def _orbit_blocks(full, poly, n):
    """Oracle: swap_blocks' (block, multiplicity) pairs, from the full matrix's entries.

    In a parity block that the swap maps to itself, the representatives R are
    its rows |m,n> with m <= n, in sector order (ee, eo, oe, oo) and each
    sector x-major, and P their partners |n,m>. The
    swap-even block is ((H[R,R'] + H[P,R']) + (H[R,P'] + H[P,P'])) times the
    weights 1/2, 1/(2 sqrt 2) or 1/4, by the number of diagonal orbits among
    (row, column); the swap-odd block is ((H[R,R'] - H[P,R']) - (H[R,P'] -
    H[P,P'])) / 2 on the orbits with m < n. Of two blocks that the swap maps
    onto each other, the first is kept with multiplicity 2.
    """
    out, seen = [], []
    for rows in _expected_blocks(poly, n, n):
        rows = rows[np.argsort(2 * (rows // n % 2) + rows % n % 2, kind="stable")]
        mx, my = np.divmod(rows, n)
        swapped = sorted(my * n + mx)
        if swapped == sorted(rows):
            rep = mx <= my
            r, p, diag = rows[rep], (my * n + mx)[rep], (mx == my)[rep].astype(int)
            weight = np.array([0.5, 0.5**1.5, 0.25])[diag[:, None] + diag[None, :]]
            even = ((full[np.ix_(r, r)] + full[np.ix_(p, r)]) + (full[np.ix_(r, p)] + full[np.ix_(p, p)])) * weight
            r, p = r[diag == 0], p[diag == 0]
            odd = ((full[np.ix_(r, r)] - full[np.ix_(p, r)]) - (full[np.ix_(r, p)] - full[np.ix_(p, p)])) * 0.5
            out += [(mat, 1) for mat in (even, odd) if mat.size]
        elif swapped not in seen:
            out.append((full[np.ix_(rows, rows)], 2))
        seen.append(sorted(rows))
    return out


@settings(max_examples=60, deadline=None)
@given(
    terms=st.dictionaries(st.sampled_from([(i, j) for i, j in _MONOMIALS if i <= j]), _COEFFS, max_size=6),
    n=st.integers(1, 8),
    omega=st.sampled_from([1.0, 1.7]),
)
@example(terms={}, n=1, omega=1.0)
@example(terms={(1, 3): Fraction(-1, 3), (2, 2): Fraction(2)}, n=7, omega=1.7)
def test_swap_blocks_give_the_full_spectrum(terms, n, omega):
    # c_ij = c_ji: the swap (x, y) -> (y, x) leaves the potential invariant
    poly = PolynomialPotential({(2, 0): 1, (0, 2): 1, **{(j, i): c for (i, j), c in terms.items()}, **terms})
    basis = BasisSpec(n, n, omega=omega)
    full = build_hamiltonian(poly, basis).entries
    blocks = swap_blocks(poly, basis)
    assert sum(mat.dim * times for mat, times in blocks) == n * n
    want = np.linalg.eigvalsh(full)
    assert np.abs(_block_levels(blocks) - want).max() <= 1e-12 * np.abs(full).max()
    oracle = _orbit_blocks(full, poly, n)
    assert [times for _, times in blocks] == [times for _, times in oracle]
    for (mat, _), (want, _) in zip(blocks, oracle):
        assert mat.entries.shape == want.shape and mat.entries.dtype == want.dtype
        assert np.array_equal(mat.entries.view(np.uint8), want.view(np.uint8))


@settings(max_examples=40, deadline=None)
@given(
    terms=st.dictionaries(st.sampled_from(_MONOMIALS), _COEFFS, max_size=8),
    nx=st.integers(1, 8),
    ny=st.integers(1, 8),
)
@example(terms={(3, 1): Fraction(4)}, nx=6, ny=6)
@example(terms={(2, 2): Fraction(6)}, nx=6, ny=5)
def test_swap_blocks_without_the_swap_are_the_parity_blocks(terms, nx, ny):
    poly = PolynomialPotential({(2, 0): 1, (0, 2): 1, **terms})
    assume(nx != ny or not leaves_invariant(poly, reflection(2)))
    basis = BasisSpec(nx, ny)
    full = build_hamiltonian(poly, basis).entries
    blocks, parity = swap_blocks(poly, basis), [full[np.ix_(rows, rows)] for rows in _expected_blocks(poly, nx, ny)]
    assert [times for _, times in blocks] == [1] * len(parity)
    assert all(np.array_equal(mat.entries, want) for (mat, _), want in zip(blocks, parity))


@pytest.mark.parametrize(
    "case, shape",
    [(k, [(12, 1), (6, 1), (9, 1), (9, 1)]) for k in (1, 3, 4)]
    + [(k, [(6, 1), (3, 1), (9, 2), (6, 1), (3, 1)]) for k in (2, 5)],
)
def test_swap_block_shapes(case, shape):
    # n = 6: ee and oo hold 6 swap-even and 3 swap-odd orbit states each, eo and oe 9 states
    blocks = swap_blocks(case_preset(case).potential, BasisSpec(6, 6))
    assert [(mat.dim, times) for mat, times in blocks] == shape


@pytest.mark.parametrize("n", [20, 40])
@pytest.mark.parametrize("lam", ["1/10", "1/2", "3/10", "2"])
def test_case4_is_the_flip_conjugate_of_case1_bit_for_bit(lam, n):
    """H4 = S H1 S with S = diag((-1)^nx), exactly, at case 4's default and the survey couplings.

    The parity blocks are compared in an n x (n - 1) basis, where the swap
    does not apply, so swap_blocks keeps them whole.
    """
    basis = BasisSpec(n, n)
    p4, p1 = case_preset(4, lam).potential, case_preset(1, lam).potential
    sign = np.repeat((-1.0) ** np.arange(n), n)  # (-1)^nx in x-major order
    h4 = build_hamiltonian(p4, basis).entries
    assert np.array_equal(h4, sign[:, None] * build_hamiltonian(p1, basis).entries * sign[None, :])
    rect, rect_sign = BasisSpec(n, n - 1), np.repeat((-1.0) ** np.arange(n), n - 1)
    expected, blocks4, blocks1 = _expected_blocks(p1, n, n - 1), swap_blocks(p4, rect), swap_blocks(p1, rect)
    assert len(blocks4) == len(blocks1) == len(expected)
    for rows, (b4, once4), (b1, once1) in zip(expected, blocks4, blocks1):
        assert once4 == once1 == 1
        s = rect_sign[rows]
        assert np.array_equal(b4.entries, s[:, None] * b1.entries * s[None, :])
        assert np.array_equal(np.linalg.eigvalsh(b4.entries), np.linalg.eigvalsh(b1.entries))
    assert np.array_equal(_block_levels(swap_blocks(p4, basis)), _block_levels(swap_blocks(p1, basis)))


def test_degree_above_padding_rejected():
    poly = PolynomialPotential({(5, 0): SqrtTwoRational(1)})
    with pytest.raises(DegreeTooHigh):
        build_hamiltonian(poly, BasisSpec(4, 4))
    with pytest.raises(DegreeTooHigh):
        build_hamiltonian_1d({6: 1.0}, 4, 1.0)


def test_case1_two_dimensional_benchmark():
    """30 functions per mode reproduce the separated Case-1 ground energy."""
    u1 = OrthogonalMap2(HALF_SQRT2, -HALF_SQRT2, -HALF_SQRT2, -HALF_SQRT2)
    separated = apply_linear_map(case_preset(1, 1).potential, u1)
    basis = BasisSpec(30, 30, omega=optimal_omega(4.0))
    e0 = eig_selfadjoint(build_hamiltonian(separated, basis)).eigenvalues[0]
    assert e0 == pytest.approx(2.903136945459, abs=1e-9)
    e0_raw = eig_selfadjoint(build_hamiltonian(case_preset(1, 1).potential, basis)).eigenvalues[0]
    assert e0_raw == pytest.approx(2.903136945459, abs=1e-10)


def test_optimal_omega_examples():
    assert optimal_omega(0.0) == 1.0

    def bisect_root(g):
        lo, hi = 1.0, 10.0 + (3 * g) ** (1 / 3)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid**3 - mid - 3 * g > 0:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    for g in (4.0, 1.0, 2e6):
        w = optimal_omega(g)
        assert w == pytest.approx(bisect_root(g), rel=1e-12)
        assert w**3 - w - 3 * g == pytest.approx(0.0, abs=1e-7 * max(1.0, 3 * g))
    # dominant balance at strong coupling
    assert optimal_omega(2e6) == pytest.approx((6e6) ** (1 / 3), rel=1e-2)


def _filtered_omega(g):
    """Oracle: optimal_omega with a tolerance on the imaginary parts, the largest positive real root."""
    roots = np.roots([1.0, 0.0, -1.0, -3.0 * g])
    omega = max(r.real for r in roots if abs(r.imag) < 1e-9 * max(1.0, abs(r)) and r.real > 0)
    return omega - (omega**3 - omega - 3.0 * g) / (3.0 * omega**2 - 1.0)


def test_optimal_omega_needs_no_tolerance_on_the_roots():
    """The largest real part of the roots of w^3 - w - 3g is the one positive root.

    Sampled from 1e-300 to 1e300 and densely across the edge g = 2/sqrt(243)
    of the window where all three roots are real, where the two negative ones
    meet and the computed pair can carry a tiny imaginary part.
    """
    edge = 2 / math.sqrt(243)
    couplings = np.concatenate([
        np.logspace(-300, 300, 1201),
        edge * (1 + np.linspace(-1e-2, 1e-2, 801)),
        edge * (1 + np.linspace(-1e-7, 1e-7, 401)),
        np.linspace(1e-3, 1.0, 401),
    ])
    for g in couplings:
        assert optimal_omega(float(g)) == _filtered_omega(float(g)), g


def test_omega_independence_of_spectrum():
    e_plain = eig_selfadjoint(build_hamiltonian_1d({2: 1.0, 4: 1.0}, 60, 1.0)).eigenvalues[0]
    e_opt = eig_selfadjoint(
        build_hamiltonian_1d({2: 1.0, 4: 1.0}, 60, optimal_omega(1.0))
    ).eigenvalues[0]
    assert abs(e_plain - e_opt) < 1e-10


def test_variational_monotonicity_in_basis_size():
    poly = case_preset(1, "0.1").potential
    lowest = [
        eig_selfadjoint(build_hamiltonian(poly, BasisSpec(n, n))).eigenvalues[0]
        for n in (6, 8, 10, 12)
    ]
    assert all(b <= a + 1e-13 for a, b in zip(lowest, lowest[1:]))


def test_bound_state_theta_analyticity():
    """Complex scaling must not move a bound state: Case 2 at a small angle."""
    poly = case_preset(2, 1).potential
    omega = 2.0  # optimal for the separated per-mode coupling
    e0 = eig_selfadjoint(build_hamiltonian(poly, BasisSpec(25, 25, omega=omega))).eigenvalues[0]
    rotated = eig_complex(
        build_hamiltonian(poly, BasisSpec(25, 25, omega=omega, theta=0.02 * math.pi))
    ).eigenvalues
    nearest = rotated[np.argmin(np.abs(rotated - e0))]
    assert abs(nearest.imag) < 1e-6
    assert abs(nearest.real - e0) < 1e-6


def test_basis_spec_validation():
    with pytest.raises(ValueError):
        BasisSpec(0, 5)
    with pytest.raises(ValueError):
        BasisSpec(5, 5, omega=0.0)
    with pytest.raises(ValueError):
        BasisSpec(5, 5, omega=math.inf)
    with pytest.raises(ValueError):
        BasisSpec(5, 5, theta=math.pi / 4)
    assert BasisSpec(6, 7).dim == 42


def test_operator_matrix_shape_validation():
    for bad in (np.zeros((2, 3)), np.zeros(4)):
        with pytest.raises(ValueError):
            OperatorMatrix(bad)
    assert OperatorMatrix(np.zeros((3, 3))).dim == 3


def test_hermitian_check_allocates_slabs_only():
    # with x^3 y alone the swap does not apply, and the first parity block at
    # nmax 40 has 800 rows (ee and oo), as case 1's has
    poly = PolynomialPotential({(2, 0): 1, (0, 2): 1, (3, 1): 1})
    mat, _ = swap_blocks(poly, BasisSpec(40, 40))[0]
    assert mat.dim == 800
    tracemalloc.start()
    try:
        assert mat.is_hermitian()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < mat.entries.nbytes / 4


@pytest.mark.parametrize("case", [1, 2, 4, 5])
def test_parity_blocks_make_no_full_size_temporaries(case):
    """The whole blocks are scattered from the 1D factors' nonzeros, not cut from dense kron products.

    The basis is not square, so the swap does not apply and every parity block is kept whole.
    """
    tracemalloc.start()
    try:
        blocks = swap_blocks(case_preset(case).potential, BasisSpec(40, 39))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [times for _, times in blocks] == [1] * len(blocks)
    sizes = [mat.entries.nbytes for mat, _ in blocks]
    assert peak - sum(sizes) < max(sizes)


@pytest.mark.parametrize("case, bound", [(1, 6), (2, 2)])
def test_swap_blocks_make_no_dense_parity_block(case, bound):
    """The orbit blocks come from one quadrant scatter, not from gathers out of a dense parity block.

    Case 1's two self-swapped parity blocks are the whole basis, and each
    quadrant scatter holds four blocks of its swap-even block's size; case 2's
    largest block is the eo block, kept with multiplicity 2.
    """
    tracemalloc.start()
    try:
        blocks = swap_blocks(case_preset(case).potential, BasisSpec(40, 40))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    sizes = [mat.entries.nbytes for mat, _ in blocks]
    assert peak - sum(sizes) < bound * max(sizes)
