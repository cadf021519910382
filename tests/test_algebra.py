from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phi4trunc import TruncationSpec, algebra, weak_series, weak_series_charpoly

from oracles import bareiss_det_poly, weighted_quartic

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=9)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), s=st.integers(1, 5), max_order=st.integers(0, 6))
def test_rs_engine_solves_the_order_by_order_equations(data, s, max_order):
    # H0 psi_k + V psi_(k-1) = sum_j E_j psi_(k-j) exactly, with psi_0 the
    # unit vector at pos and <pos|psi_k> = 0 above order zero
    h0 = data.draw(st.lists(rationals, min_size=s, max_size=s, unique=True))
    v = data.draw(st.lists(st.lists(rationals, min_size=s, max_size=s), min_size=s, max_size=s))
    pos = data.draw(st.integers(0, s - 1))
    energies, states = algebra.rayleigh_schrodinger(h0, v, pos, max_order)
    assert len(energies) == len(states) == max_order + 1
    assert all(isinstance(e, Fraction) for e in energies)
    assert states[0] == [Fraction(int(i == pos)) for i in range(s)]
    for k in range(1, max_order + 1):
        assert states[k][pos] == 0
        for i in range(s):
            lhs = h0[i] * states[k][i] + sum(v[i][j] * states[k - 1][j] for j in range(s))
            rhs = sum(energies[j] * states[k - j][i] for j in range(k + 1))
            assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(data=st.data(), s=st.integers(1, 5), max_order=st.integers(0, 8))
def test_scaled_integer_recursion_is_the_fraction_engine(data, s, max_order):
    # the generic loop on Fractions is the oracle: the same energies, and
    # integer states that are Q^k times its states
    h0 = data.draw(st.lists(rationals, min_size=s, max_size=s, unique=True))
    v = data.draw(st.lists(st.lists(rationals, min_size=s, max_size=s), min_size=s, max_size=s))
    pos = data.draw(st.integers(0, s - 1))
    energies, states = algebra.rayleigh_schrodinger(h0, v, pos, max_order)
    e_int, scaled, q = algebra._rs_scaled_integer(h0, v, pos, max_order)
    assert e_int == energies
    assert all(type(e) is Fraction for e in e_int)
    assert len(scaled) == max_order + 1
    for k, (psi_int, psi) in enumerate(zip(scaled, states)):
        assert all(type(x) is int for x in psi_int)
        assert [Fraction(x, q**k) for x in psi_int] == psi


def test_scaled_integer_recursion_rejects_a_scale_that_leaves_fractions():
    h0, v = algebra.weighted_sector_blocks(TruncationSpec(8), "even")
    q = algebra._rs_scaled_integer(h0, v, 1, 0)[2]
    assert algebra._rs_scaled_integer(h0, v, 1, 6, 3 * q)[0] == algebra.rs_rational_series(h0, v, 1, 6)
    with pytest.raises(ArithmeticError, match="non-integral"):
        algebra._rs_scaled_integer(h0, v, 1, 6, q // 2)
    with pytest.raises(ValueError, match="position 0 is degenerate with 2"):
        algebra._rs_scaled_integer([Fraction(1), Fraction(2), Fraction(1)],
                                   [[Fraction(1)] * 3] * 3, 0, 2)


@pytest.mark.parametrize("omega", [1, Fraction(1, 2), Fraction(3, 2)])
def test_weak_series_is_the_charpoly_series_at_rational_omega(omega):
    # the integer recursion against the characteristic-equation path, which
    # shares no code with it beyond the sector blocks
    trunc = TruncationSpec(8, omega)
    for level in range(8):
        assert weak_series(trunc, level, max_order=16).coeffs == \
            weak_series_charpoly(trunc, level, max_order=16).coeffs


def test_rs_engine_rejects_degenerate_level():
    with pytest.raises(ValueError, match="position 0 is degenerate with 2"):
        algebra.rayleigh_schrodinger([Fraction(1), Fraction(2), Fraction(1)],
                                     [[Fraction(1)] * 3] * 3, 0, 2)


def test_rs_rational_series_is_the_engine_energy_series():
    h0, v = algebra.weighted_sector_blocks(TruncationSpec(8), "odd")
    assert algebra.rs_rational_series(h0, v, 1, 12) == \
        algebra.rayleigh_schrodinger(h0, v, 1, 12)[0]
    assert "rayleigh_schrodinger" not in algebra.__all__


def test_sector_blocks_slice_the_full_weighted_hamiltonian():
    trunc = TruncationSpec(6, 1.5)
    h0, v = algebra.weighted_hamiltonian(trunc)
    assert h0 == [Fraction(3, 2) * (n + Fraction(1, 2)) for n in range(6)]
    # X^4 / (4 omega^2) with omega = 3/2: the (0, 0) entry of X^4 is 3
    assert v[0][0] == Fraction(3, 9)
    for sector, idx in (("even", [0, 2, 4]), ("odd", [1, 3, 5])):
        hs, vs = algebra.weighted_sector_blocks(trunc, sector)
        assert hs == [h0[i] for i in idx]
        assert vs == [[v[i][j] for j in idx] for i in idx]


def test_level_sector_names_the_mismatch():
    assert algebra.level_sector(3) == "odd"
    assert algebra.level_sector(4, "even") == "even"
    with pytest.raises(ValueError, match="level 0 lies in the even sector, not 'evn'"):
        algebra.level_sector(0, "evn")


@pytest.mark.parametrize("omega", [1, Fraction(1, 2), Fraction(3, 2), Fraction(2, 3), Fraction(5, 7)])
@pytest.mark.parametrize("sector", ["even", "odd"])
@pytest.mark.parametrize("n_max", [4, 6, 8, 10, 12, 2])
def test_sector_char_poly_is_the_exact_characteristic_polynomial(n_max, sector, omega):
    # the z^j coefficient has lam-degree at most s - j, so agreement with
    # c det(z I - H(lam)) at s + 1 couplings off the interpolation nodes
    # 0..s pins every coefficient; the determinants come from Bareiss
    # elimination on polynomials in z.  At omega = 2/3 and 5/7 the block
    # denominator is not 4 omega^2, so the clearing factor grows
    zc = algebra.sector_char_poly(TruncationSpec(n_max, omega), sector)
    s = len(zc) - 1
    assert all(len(poly) - 1 <= s - j for j, poly in enumerate(zc))
    h0, v = weighted_quartic(n_max, Fraction(omega))
    idx = range(0 if sector == "even" else 1, n_max, 2)
    for lam in [Fraction(-k, 3) for k in range(1, s + 2)]:
        matrix = [[[-(h0[i] if i == j else 0) - lam * v[i][j]] + ([1] if i == j else [])
                   for j in idx] for i in idx]
        det = bareiss_det_poly(matrix)
        assert [sum(c * lam**k for k, c in enumerate(poly)) for poly in zc] == [zc[s][0] * c for c in det]
