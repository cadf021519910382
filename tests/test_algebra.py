from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phi4trunc import TruncationSpec, algebra

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
