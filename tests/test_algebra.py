import math
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phi4trunc import TruncationSpec, algebra, weak_series, weak_series_charpoly

from oracles import bareiss_det_poly, rayleigh_schrodinger, weighted_quartic

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=9)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), s=st.integers(1, 5), max_order=st.integers(0, 6))
def test_rs_engine_solves_the_order_by_order_equations(data, s, max_order):
    # H0 psi_k + V psi_(k-1) = sum_j E_j psi_(k-j) exactly, with psi_0 the
    # unit vector at pos and <pos|psi_k> = 0 above order zero
    h0 = data.draw(st.lists(rationals, min_size=s, max_size=s, unique=True))
    v = data.draw(st.lists(st.lists(rationals, min_size=s, max_size=s), min_size=s, max_size=s))
    pos = data.draw(st.integers(0, s - 1))
    energies, states = rayleigh_schrodinger(h0, v, pos, max_order)
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
    # integer states that are Q^k times its states by default, and A B^k
    # times them at a drawn offset A and a base B dividing Q, at the A and
    # B returned once the scale has widened where it had to
    h0 = data.draw(st.lists(rationals, min_size=s, max_size=s, unique=True))
    v = data.draw(st.lists(st.lists(rationals, min_size=s, max_size=s), min_size=s, max_size=s))
    pos = data.draw(st.integers(0, s - 1))
    energies, states = rayleigh_schrodinger(h0, v, pos, max_order)
    e_int, scaled, offset, q, widened = algebra._rs_scaled_integer(h0, v, pos, max_order)
    assert e_int == energies
    assert all(type(e) is Fraction for e in e_int)
    assert (offset, widened) == (1, [])
    assert len(scaled) == max_order + 1
    for k, (psi_int, psi) in enumerate(zip(scaled, states)):
        assert all(type(x) is int for x in psi_int)
        assert [Fraction(x, q**k) for x in psi_int] == psi

    base = math.prod(p ** data.draw(st.integers(0, e)) for p, e in algebra._prime_exponents(q).items())
    offset = data.draw(st.integers(1, 12))
    e_int, scaled, a, b, widened = algebra._rs_scaled_integer(h0, v, pos, max_order, base, offset)
    assert e_int == energies
    assert a == offset and b % base == 0 and q % b == 0
    assert widened == sorted(set(widened)) and all(1 <= k <= max_order for k in widened)
    for k, (psi_int, psi) in enumerate(zip(scaled, states)):
        assert all(type(x) is int for x in psi_int)
        assert [Fraction(x, a * b**k) for x in psi_int] == psi


@settings(max_examples=60, deadline=None)
@given(data=st.data(), s=st.integers(1, 5), max_order=st.integers(0, 10), probe=st.integers(0, 3))
def test_rs_rational_series_is_the_fraction_engine_on_random_blocks(data, s, max_order, probe):
    # a short probe leaves most of each series to the tight scale, and rates
    # read off two or three orders of a random block often fall short, so
    # the property meets the tight path and the widening path alike
    h0 = data.draw(st.lists(rationals, min_size=s, max_size=s, unique=True))
    v = data.draw(st.lists(st.lists(rationals, min_size=s, max_size=s), min_size=s, max_size=s))
    pos = data.draw(st.integers(0, s - 1))
    record: dict = {}
    with patch.object(algebra, "PROBE_ORDERS", probe):
        coeffs = algebra.rs_rational_series(h0, v, pos, max_order, record)
    assert coeffs == rayleigh_schrodinger(h0, v, pos, max_order)[0]
    assert set(record) == {"q", "offset", "base", "widened"}
    assert record["q"] % record["base"] == 0


def test_tight_scale_widens_in_place_where_a_prime_enters_after_the_probe():
    # n_max 24, level 18: the prime 3 first divides the denominator of psi_k
    # at order 22, after the 16-order probe, so the rates read off the probe
    # leave 3 out of B, and the recursion widens at order 22 without a restart
    h0, v = algebra.weighted_sector_blocks(TruncationSpec(24), "even")
    pos, order = 9, 40
    assert max(algebra.PROBE_ORDERS, 2 * algebra._reach(v, pos)) == 16
    energies, states, _, q, _ = algebra._rs_scaled_integer(h0, v, pos, order)
    offset, base = algebra._tight_scale(states[:17], q)
    assert base % 3
    record: dict = {}
    assert algebra.rs_rational_series(h0, v, pos, order, record) == energies
    assert record == {"q": q, "offset": offset, "base": 3 * base, "widened": [22]}
    tight, a, b, widened = algebra._rs_scaled_integer(h0, v, pos, order, base, offset)[1:]
    assert (a, b, widened) == (offset, 3 * base, [22])
    assert all(x * q**k == y * a * b**k for k in range(order + 1) for x, y in zip(tight[k], states[k]))


def test_tight_scale_keeps_the_large_primes_of_q_whole():
    # omega = 1.1 read from a float brings primes of up to 16 digits into Q,
    # which trial division would take minutes to split; they stay in B at
    # their full power
    h0, v = algebra.weighted_sector_blocks(TruncationSpec(8, 1.1), "even")
    record: dict = {}
    assert algebra.rs_rational_series(h0, v, 1, 24, record) == rayleigh_schrodinger(h0, v, 1, 24)[0]
    small = math.prod(p**e for p, e in algebra._prime_exponents(record["q"]).items())
    assert record["q"] // small > 2**40
    assert record["base"] % (record["q"] // small) == 0


def test_scaled_integer_recursion_widens_a_base_that_leaves_fractions():
    h0, v = algebra.weighted_sector_blocks(TruncationSpec(8), "even")
    q = algebra._rs_scaled_integer(h0, v, 1, 0)[3]
    energies = algebra.rs_rational_series(h0, v, 1, 6)
    # a multiple of Q runs as Q does; half of Q widens back to Q at order 1
    assert algebra._rs_scaled_integer(h0, v, 1, 6, 3 * q)[0] == energies
    e_int, _, offset, base, widened = algebra._rs_scaled_integer(h0, v, 1, 6, q // 2)
    assert (e_int, offset, base, widened) == (energies, 1, q, [1])
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
        rayleigh_schrodinger([Fraction(1), Fraction(2), Fraction(1)], [[Fraction(1)] * 3] * 3, 0, 2)


def test_rs_rational_series_is_the_engine_energy_series():
    h0, v = algebra.weighted_sector_blocks(TruncationSpec(8), "odd")
    assert algebra.rs_rational_series(h0, v, 1, 12) == rayleigh_schrodinger(h0, v, 1, 12)[0]


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
