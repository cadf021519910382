from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phi4trunc import (
    TruncationSpec,
    radius_estimate,
    single_site_hamiltonian,
    strong_series,
    weak_series,
    weak_series_charpoly,
)
from phi4trunc import series
from phi4trunc.oscillator import build_field_ops
from phi4trunc.series import MIN_DIGITS, PowerSeries, PrecisionExhausted, log_abs_coefficient

from oracles import benderwu_asymptote, benderwu_continuum, field_eigenbasis, strong_series_mp

F = Fraction


def test_weak_series_nmax4_level0_exact():
    ser = weak_series(TruncationSpec(4), 0, max_order=4)
    assert ser.coeffs == [F(1, 2), F(3, 4), F(-9, 4), F(27, 4), F(-567, 32)]


def test_weak_series_nmax4_level2_exact():
    ser = weak_series(TruncationSpec(4), 2, max_order=4)
    assert ser.coeffs == [F(5, 2), F(27, 4), F(9, 4), F(-27, 4), F(567, 32)]


def test_series_reject_a_negative_order():
    with pytest.raises(ValueError, match="order -1 must be at least 0"):
        weak_series(TruncationSpec(8), 2, max_order=-1)
    with pytest.raises(ValueError, match="order -2 must be at least 0"):
        strong_series(TruncationSpec(8), 2, "even", -2)


def test_weak_series_order_zero_is_unperturbed_energy():
    for level in (1, 3, 5):
        ser = weak_series(TruncationSpec(8), level, max_order=2)
        assert ser.coeffs[0] == F(2 * level + 1, 2)


def test_weak_series_rational_omega():
    # E = omega/2 + 3/(4 omega^2) lam + ... stays exactly rational
    ser = weak_series(TruncationSpec(4, omega=2.0), 0, max_order=1)
    assert ser.coeffs == [F(1), F(3, 16)]


def test_weak_series_records_the_residues_it_ran_on():
    # the scale q of E_k = N_k / q^k, the primes, and the bound bits B with
    # |N_k| < 2^B that the primes' product covers twice over
    assert weak_series(TruncationSpec(8), 2, max_order=10).meta == \
        {"residues": {"q": 16, "primes": 4, "bound_bits": 87}}
    assert weak_series(TruncationSpec(8), 2, max_order=30).meta == \
        {"residues": {"q": 16, "primes": 10, "bound_bits": 272}}
    assert weak_series(TruncationSpec(24), 18, max_order=40).meta == \
        {"residues": {"q": 20160, "primes": 35, "bound_bits": 967}}


def test_weak_series_level_validation():
    with pytest.raises(ValueError, match="outside"):
        weak_series(TruncationSpec(4), 7, max_order=2)


def test_nmax32_low_orders_equal_continuum():
    ser = weak_series(TruncationSpec(32), 0, max_order=6)
    oracle = benderwu_continuum(6)
    assert oracle[:4] == [F(1, 2), F(3, 4), F(-21, 8), F(333, 16)]
    assert ser.coeffs == oracle


def test_truncation_changes_second_order_through_missing_channel():
    # <0|phi^4|4> vanishes at n_max=4 but equals sqrt(6)/2 untruncated; the
    # second-order coefficient moves from -21/8 to -9/4 by exactly its term
    phi4_trunc = np.linalg.matrix_power(build_field_ops(TruncationSpec(4))[0], 4)
    assert phi4_trunc[0, 3] == 0.0  # the |4> channel is cut entirely
    phi4_full = np.linalg.matrix_power(build_field_ops(TruncationSpec(8))[0], 4)
    v04 = phi4_full[0, 4]
    assert abs(v04 - np.sqrt(6) / 2) <= 1e-12
    missing = F(-3, 8)  # -|v04|^2/(E4 - E0) = -(3/2)/4
    assert F(-21, 8) - missing == F(-9, 4)


@pytest.mark.parametrize("n_max", [4, 8])
@pytest.mark.parametrize("level", [0, 2, 1])
def test_charpoly_path_is_identical_through_order_30(n_max, level):
    trunc = TruncationSpec(n_max)
    rs = weak_series(trunc, level, max_order=30)
    cp = weak_series_charpoly(trunc, level, max_order=30)
    assert rs.coeffs == cp.coeffs


def test_strong_series_order_zero_is_smallest_quartic_eigenvalue():
    ser = strong_series(TruncationSpec(4), 0, "even", 4)
    with mp.workdps(40):
        expect = ((3 - mp.sqrt(6)) / 2) ** 2
        assert abs(ser.coeffs[0] - expect) < mp.mpf(10) ** (-25)
    assert float(ser.coeffs[0]) == pytest.approx(0.0758, abs=5e-5)


def test_strong_series_first_order_is_diagonal_harmonic_element():
    trunc = TruncationSpec(4)
    ser = strong_series(trunc, 0, "even", 2)
    # independent evaluation: project the harmonic term onto the even
    # combination of the two smallest-|phi| field eigenvectors
    pairs = field_eigenbasis(trunc)
    plus = [p for p in pairs if p.phi > 0]
    v = min(plus, key=lambda p: p.phi).vector
    even_part = np.array([np.sqrt(2) * v[m] for m in (0, 2)])
    h_even = np.diag([0.5, 2.5])
    expect = even_part @ h_even @ even_part
    assert abs(float(ser.coeffs[1]) - expect) <= 1e-12


def test_strong_series_duality_against_dense():
    trunc = TruncationSpec(4)
    ser = strong_series(trunc, 0, "even", 24)
    lam = 5.0
    val = float(ser.evaluate(mp.mpf(1) / 5))
    h = single_site_hamiltonian(trunc, lam)
    target = np.linalg.eigvalsh(h)[0] / lam
    assert abs(val - target) <= 1e-10


def _agree_to(got: list, want: list, digits: int, certified: int) -> bool:
    """Whether want is within 2.2 10^-certified of got everywhere: relative to got, or to
    10^-digits where got is zero, as strong_series certifies."""
    with mp.workdps(30):
        return all(abs(a - b) <= 2.2 * mp.mpf(10) ** -certified * (abs(a) if a else mp.mpf(10) ** -digits)
                   for a, b in zip(got, want))


TWO_LEVEL_ODD_ZEROS = [dict(n_max=4, omega=1.0, odd=True, level=1, max_order=46),
                       dict(n_max=4, omega=1.1, odd=True, level=0, max_order=46),
                       dict(n_max=4, omega=1.0, odd=True, level=0, max_order=12)]


@settings(max_examples=30, deadline=None)
@given(n_max=st.integers(1, 8).map(lambda k: 2 * k), omega=st.sampled_from([1.0, 0.5, 1.5, 1.1]),
       odd=st.booleans(), level=st.integers(0, 7), max_order=st.integers(0, 60))
# the odd orders of the two-level odd block are exact zeros: residues in both
# passes, a residue in the first only, and one in the second only
@example(**TWO_LEVEL_ODD_ZEROS[0])
@example(**TWO_LEVEL_ODD_ZEROS[1])
@example(**TWO_LEVEL_ODD_ZEROS[2])
def test_strong_series_matches_the_mpf_oracle_to_its_certified_digits(n_max, omega, odd, level, max_order):
    # each path's first pass is within 10^-certified of its second, so the
    # two first passes are within twice the larger error; the integer path
    # carries guard bits and never certifies fewer digits than the oracle
    level %= n_max // 2
    sector = "odd" if odd else "even"
    digits = max(30, 4 * max_order)
    want, certified = strong_series_mp(n_max, omega, level, sector, max_order, digits)
    if dict(n_max=n_max, omega=omega, odd=odd, level=level, max_order=max_order) in TWO_LEVEL_ODD_ZEROS:
        # the oracle reads its residues of exact zeros as 0 too, and certifies
        # every digit (at least MIN_DIGITS; it certified 12 of 184 and of 48 before)
        assert certified == digits >= MIN_DIGITS
    try:
        ser = strong_series(TruncationSpec(n_max, omega), level, sector, max_order)
    except PrecisionExhausted:
        assert certified < MIN_DIGITS
        return
    assert ser.certified_digits >= certified
    assert len(ser.coeffs) == max_order + 1
    assert _agree_to(ser.coeffs, want, digits, min(ser.certified_digits, certified))


@pytest.mark.parametrize("sector", ["even", "odd"])
@pytest.mark.parametrize("level", range(4))
def test_strong_series_of_the_benchmark_prints_the_oracle_digits(sector, level):
    ser = strong_series(TruncationSpec(8), level, sector, 40)
    want, certified = strong_series_mp(8, 1.0, level, sector, 40, 160)
    assert ser.precision_digits == 160 and ser.certified_digits == certified == 160
    assert [mp.nstr(c, 160, strip_zeros=False) for c in ser.coeffs] == \
        [mp.nstr(c, 160, strip_zeros=False) for c in want]


def test_strong_series_whose_passes_disagree_is_exhausted(monkeypatch):
    # the rerun at twice the digits moves E_1 in its 5th digit
    run, passes = series._rs_fixed, []

    def recorded(*args):
        energies = run(*args)
        if passes:
            m, e = energies[1]
            energies[1] = (m + m // 10**4, e)
        passes.append(energies)
        return energies

    monkeypatch.setattr(series, "_rs_fixed", recorded)
    with pytest.raises(PrecisionExhausted, match="certified only 4 digits at dps=30"):
        strong_series(TruncationSpec(8), 0, "even", 4)
    assert len(passes) == 2


@pytest.mark.parametrize("digits", [5, 0, -4])
def test_strong_series_rejects_a_precision_that_cannot_certify(monkeypatch, digits):
    monkeypatch.setattr(series, "_strong_blocks", None)  # no pass may start
    with pytest.raises(ValueError, match=f"precision {digits} must be at least 6 digits"):
        strong_series(TruncationSpec(8), 0, "even", 4, precision_digits=digits)


def test_strong_series_certification_and_levels():
    ser = strong_series(TruncationSpec(8), 2, "odd", 6)
    assert ser.certified_digits >= 6
    with pytest.raises(ValueError, match="0..3"):
        strong_series(TruncationSpec(8), 5, "even", 2)


def test_radius_estimate_slope_anchors(n4_e0_series_200):
    _, slope_hi = radius_estimate(n4_e0_series_200, 100, 200)
    assert abs(slope_hi - 1.29227) < 5e-6
    _, slope_lo = radius_estimate(n4_e0_series_200, 50, 100)
    assert abs(slope_lo - 1.28493) < 5e-6
    assert slope_lo < slope_hi < float(np.log(np.sqrt(27.0 / 2.0)))


def test_radius_estimate_skips_zeros_and_requires_points():
    coeffs = [F(1)] * 30
    coeffs[5] = F(0)
    ser = PowerSeries(coeffs, "weak_lambda")
    with pytest.warns(RuntimeWarning, match="zero coefficient"):
        radius, slope = radius_estimate(ser, 0, 29)
    assert radius == pytest.approx(1.0)
    with pytest.raises(ValueError, match="at least 10"):
        radius_estimate(ser, 0, 8)
    with pytest.raises(ValueError, match="exceeds"):
        radius_estimate(ser, 0, 99)


def test_benderwu_asymptote_anchors():
    assert benderwu_asymptote(0) == pytest.approx(np.sqrt(6 / np.pi**2), rel=1e-12)
    assert benderwu_asymptote(0) == pytest.approx(0.77970, abs=5e-6)
    assert benderwu_asymptote(1) == pytest.approx(1.16955, abs=5e-6)
    for m in (0, 3, 10):
        ratio = benderwu_asymptote(m + 1) / benderwu_asymptote(m)
        assert ratio == pytest.approx(3 * (m + 0.5), rel=1e-12)
    with pytest.raises(OverflowError):
        benderwu_asymptote(500)


def test_ground_radius_scales_like_inverse_nmax(n8_even_series_200, n16_even_series_100,
                                                n32_e0_series_100):
    # |lam_s| ~ C/n_max: log-space fit of C, RMS relative residual under 20%
    radii = {
        8: radius_estimate(n8_even_series_200[0], 50, 100)[0],
        16: radius_estimate(n16_even_series_100[0], 50, 100)[0],
        32: radius_estimate(n32_e0_series_100, 50, 100)[0],
    }
    log_c = [np.log(r * n) for n, r in radii.items()]
    c_fit = np.exp(np.mean(log_c))
    rel = [(c_fit / n - r) / r for n, r in radii.items()]
    rms = float(np.sqrt(np.mean(np.square(rel))))
    assert rms < 0.20, f"C/n_max fit residual {rms:.3f} with radii {radii}"


def test_log_abs_coefficient_handles_huge_rationals():
    huge = F(10**400, 3**200)
    assert log_abs_coefficient(huge) == pytest.approx(400 * np.log(10) - 200 * np.log(3))
    assert log_abs_coefficient(-0.25) == pytest.approx(np.log(0.25))
    # an mpf below the smallest double still has its logarithm
    assert log_abs_coefficient(mp.mpf("1e-400")) == pytest.approx(-400 * np.log(10))
    assert log_abs_coefficient(mp.mpf("-1e400")) == pytest.approx(400 * np.log(10))


def test_partial_sums_match_horner():
    ser = weak_series(TruncationSpec(4), 0, max_order=4)
    sums = ser.partial_sums(F(1, 10))
    assert sums[0] == F(1, 2)
    assert sums[1] == F(1, 2) + F(3, 40)
    assert sums[4] == ser.evaluate(F(1, 10))
