import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phi4trunc import TruncationSpec, algebra, weak_series, weak_series_charpoly

from oracles import bareiss_det_poly, rayleigh_schrodinger, weighted_quartic

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=9)
SRC = Path(__file__).resolve().parent.parent / "src"


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
    # integer states that are Q^k times its states, with Q the lcm of the
    # rows' denominators
    h0 = data.draw(st.lists(rationals, min_size=s, max_size=s, unique=True))
    v = data.draw(st.lists(st.lists(rationals, min_size=s, max_size=s), min_size=s, max_size=s))
    pos = data.draw(st.integers(0, s - 1))
    energies, states = rayleigh_schrodinger(h0, v, pos, max_order)
    e_int, scaled, q = algebra._rs_scaled_integer(h0, v, pos, max_order)
    assert e_int == energies
    assert all(type(e) is Fraction for e in e_int)
    assert len(scaled) == max_order + 1
    for k, (psi_int, psi) in enumerate(zip(scaled, states)):
        assert all(type(x) is int for x in psi_int)
        assert [Fraction(x, q**k) for x in psi_int] == psi


# mostly small rationals, with some past 62 bits, where the bound's floats
# cut the integer rows, and past a double's exponent range
wide_rationals = st.one_of(rationals, rationals, rationals,
                           st.fractions(min_value=-2**90, max_value=2**90, max_denominator=2**70),
                           st.integers(2**1030, 2**1100).map(Fraction))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), s=st.integers(1, 5), max_order=st.integers(0, 12))
def test_rs_rational_series_is_the_fraction_engine_on_random_blocks(data, s, max_order):
    h0 = data.draw(st.lists(rationals, min_size=s, max_size=s, unique=True))
    v = data.draw(st.lists(st.lists(rationals, min_size=s, max_size=s), min_size=s, max_size=s))
    pos = data.draw(st.integers(0, s - 1))
    record: dict = {}
    coeffs = algebra.rs_rational_series(h0, v, pos, max_order, record)
    assert coeffs == rayleigh_schrodinger(h0, v, pos, max_order)[0]
    assert all(type(e) is Fraction for e in coeffs)
    assert set(record) == {"q", "primes", "bound_bits"}
    assert record["q"] == algebra._rs_scaled_integer(h0, v, pos, 0)[2]


@settings(max_examples=80, deadline=None)
@given(data=st.data(), s=st.integers(1, 5), max_order=st.integers(1, 8))
def test_float_bound_covers_every_numerator(data, s, max_order):
    # B is an upper bound, |N_k| < 2^B for N_k = Q^k E_k, also for entries
    # of hundreds of bits; and the primes' product M covers 2 |N_k|
    h0 = data.draw(st.lists(wide_rationals, min_size=s, max_size=s, unique=True))
    v = data.draw(st.lists(st.lists(wide_rationals, min_size=s, max_size=s), min_size=s, max_size=s))
    pos = data.draw(st.integers(0, s - 1))
    record: dict = {}
    coeffs = algebra.rs_rational_series(h0, v, pos, max_order, record)
    energies = rayleigh_schrodinger(h0, v, pos, max_order)[0]
    assert coeffs == energies
    q, bits = record["q"], record["bound_bits"]
    numerators = [e * q**k for k, e in enumerate(energies)][1:]
    assert all(n.denominator == 1 for n in numerators)
    assert max(abs(n.numerator).bit_length() for n in numerators) <= bits
    width = algebra._prime_width(max(s, max_order - 1, record["primes"]))
    assert math.prod(algebra._primes_below(width, record["primes"])) >= 2 ** (bits + 1)


@pytest.mark.parametrize("omega", [1, Fraction(1, 2), Fraction(3, 2), 1.1])
@pytest.mark.parametrize("n_max", range(4, 17, 2))
def test_residues_are_the_integer_loop_on_every_level(n_max, omega):
    # 60 orders of every level, against the plain Q^k loop; at the float
    # omega 1.1, Q has about 150 bits and the series takes hundreds of primes
    for sector in ("even", "odd"):
        h0, v = algebra.weighted_sector_blocks(TruncationSpec(n_max, omega), sector)
        for pos in range(len(h0)):
            assert algebra.rs_rational_series(h0, v, pos, 60) == algebra._rs_scaled_integer(h0, v, pos, 60)[0]


def test_prime_width_keeps_every_int64_sum_exact():
    # a sum of `terms` products of residues below p must stay under 2^63 at
    # every order count to 10^5 and block size to 256, and the width is the
    # widest that does; a fixed 27-bit width would not: its sums can
    # overflow from 513 terms on, long before the 2199 of a 2200-order series
    assert algebra._prime_width(1) == 31
    for terms in range(1, 10**5 + 1):
        w = algebra._prime_width(terms)
        p = algebra._primes_below(w, 1)[0]
        assert terms * (p - 1) ** 2 < 2**63 <= terms * (2 ** (w + 1) - 1) ** 2
    assert algebra._prime_width(2199) == 25
    p27 = algebra._primes_below(27, 1)[0]
    assert 512 * (p27 - 1) ** 2 < 2**63 <= 513 * (p27 - 1) ** 2


def test_residue_recursion_sizes_its_primes_by_its_longest_sum():
    # the width is asked for at least the longest sum of the run: the
    # convolution's k - 1 terms, a row's s, the primes of the CRT matmul
    asked = []
    width = algebra._prime_width

    def spy(terms):
        asked.append(terms)
        return width(terms)

    for n_max, level, orders in [(4, 0, 300), (64, 31, 3), (8, 1, 1)]:
        h0, v = algebra.weighted_sector_blocks(TruncationSpec(n_max), algebra.level_sector(level))
        record: dict = {}
        asked.clear()
        with patch.object(algebra, "_prime_width", spy):
            coeffs = algebra.rs_rational_series(h0, v, level // 2, orders, record)
        assert coeffs == algebra._rs_scaled_integer(h0, v, level // 2, orders)[0]
        assert asked[-1] >= max(len(h0), orders - 1, record["primes"])


def test_prime_table_is_every_prime_of_its_window():
    # the sieved primes below 2^17 are all those above 2^16, none skipped,
    # and asking for one more is refused
    flags = [True] * (1 << 17)
    for i in range(2, 363):
        if flags[i]:
            flags[i * i :: i] = [False] * len(range(i * i, 1 << 17, i))
    want = [n for n in range((1 << 17) - 1, 1 << 16, -1) if flags[n]]
    assert algebra._primes_below(17, len(want)) == want
    with pytest.raises(ValueError, match=f"needs {len(want) + 1} primes"):
        algebra._primes_below(17, len(want) + 1)


def test_primes_are_sieved_on_first_use():
    script = "import phi4trunc.cli, phi4trunc.algebra as a; print(a._PRIMES)"
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}).stdout
    assert out.strip() == "{}"


def test_both_recursions_reject_a_degenerate_level():
    h0, v = [Fraction(1), Fraction(2), Fraction(1)], [[Fraction(1)] * 3] * 3
    for run in (algebra.rs_rational_series, lambda *args: algebra._rs_scaled_integer(*args)):
        with pytest.raises(ValueError, match="^unperturbed level at position 0 is degenerate with 2$"):
            run(h0, v, 0, 2)


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


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2**600), st.integers(1, 2**600))
@example(num=(2**53 + 1) ** 2, den=1)  # a tie: rounds to the even 2^53
@example(num=(2**53 + 3) ** 2, den=1)  # a tie: rounds to the even 2^53 + 4
@example(num=2**106 - 1, den=1)  # just below a power of two, where the gap halves
def test_nearest_sqrt_is_the_double_nearest_the_exact_root(num, den):
    # the exact bracket: sqrt(num / den) lies between the midpoints to d's
    # neighbours, compared squared as Fractions, and a tie keeps an even
    # significand
    d = algebra._nearest_sqrt(num, den)
    exact = Fraction(num, den)
    low, high = ((Fraction(d) + Fraction(math.nextafter(d, toward))) / 2 for toward in (0.0, math.inf))
    assert low**2 <= exact <= high**2
    if exact in (low**2, high**2):
        assert int(math.ldexp(math.frexp(d)[0], 53)) % 2 == 0
