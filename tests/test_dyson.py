from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phi4trunc import (
    TruncationSpec,
    dyson_series,
    evolve_projector_method,
    exact_amplitude,
    single_site_hamiltonian,
)
from phi4trunc.dyson import _integrate_graded, _times_i_power

from oracles import dyson_terms

F = Fraction


def _gaussian(graded: dict, unit: int) -> dict:
    """(re, im) of every graded term: r at (k, m) stands for r i^k times the unit i^unit."""
    return {key: _times_i_power(r, key[0] + unit) for key, r in graded.items()}


def test_graded_integration_exact():
    # a graded r at (k, m) stands for r i^k u; the integral carries the unit -i u
    # int_0^t e^{2is} ds = (e^{2it} - 1)/(2i) = -i/2 e^{2it} + i/2
    out = _integrate_graded([((0, 2), F(1))], F(1))
    assert _gaussian(out, -1) == {(0, 2): (F(0), F(-1, 2)), (0, 0): (F(0), F(1, 2))}
    # the same frequency as omega 2 times 1
    assert _integrate_graded([((0, 1), F(1))], F(2)) == {(0, 1): out[0, 2], (0, 0): out[0, 0]}
    # int_0^t s e^{is} ds = -i t e^{it} + e^{it} - 1; the input r i^k u is 1 with unit u = -i
    out = _integrate_graded([((1, 1), F(1))], F(1))
    assert _gaussian(out, -2) == {(1, 1): (F(0), F(-1)), (0, 1): (F(1), F(0)), (0, 0): (F(-1), F(0))}
    # int_0^t s^2 ds = t^3/3; the input r i^k u is 1 with unit u = i^2
    out = _integrate_graded([((2, 0), F(1))], F(1))
    assert _gaussian(out, 1) == {(3, 0): (F(1, 3), F(0))}


def test_graded_integration_matches_numeric_quadrature():
    rng = np.random.default_rng(11)
    omega = F(1, 2)
    terms = {(0, 6): F(1, 2), (0, -2): F(-1, 3), (2, -2): F(2, 7), (1, 0): F(1, 5)}
    anti = _integrate_graded(terms.items(), omega)

    def value(graded, unit, t):
        # sum r i^k t^k e^(i omega m t) times the unit
        return unit * sum(float(r) * 1j**k * t**k * np.exp(1j * float(omega) * m * t)
                          for (k, m), r in graded.items())

    for t in rng.uniform(0.3, 4.0, size=3):
        xs = np.linspace(0.0, t, 20001)
        quad = np.trapezoid(value(terms, 1, xs), xs)
        assert abs(value(anti, -1j, t) - quad) <= 1e-6


def test_order_zero_amplitude():
    trunc = TruncationSpec(4)
    amp = dyson_series(trunc, 0, F(1, 10), 2, 2)
    for t in (0.0, 1.3):
        assert abs(amp.trace([t])[0] - np.exp(-2.5j * t)) <= 1e-14
    cross = dyson_series(trunc, 0, F(1, 10), 0, 2)
    assert abs(cross.trace([2.0])[0]) == 0.0


def test_order2_amplitude_matches_closed_form_symbolically():
    lam = F(1, 10)
    amp = dyson_series(TruncationSpec(4), 2, lam, 0, 2)
    # the reference closed form omits the global phase e^{-i E_2 t}; shift
    # every frequency by E_2 = 5/2 and divide out the basis weight sqrt(2)
    # to compare exactly
    terms = {(k, w + F(5, 2)): c for (k, w), c in amp.poly.terms.items()}
    c2 = F(9, 16) * lam * lam
    expected = {
        (0, F(2)): (F(-3, 4) * lam + 4 * c2, F(0)),
        (0, F(0)): (F(3, 4) * lam - 4 * c2, F(0)),
        (1, F(2)): (F(0), c2),
        (1, F(0)): (F(0), -9 * c2),
    }
    assert terms == expected
    assert amp.prefactor == pytest.approx(np.sqrt(2))


def test_order2_matches_lambda_taylor_of_exact_amplitude():
    trunc = TruncationSpec(4)
    amp = dyson_series(trunc, 2, F(1, 10), 0, 2)
    for t in (0.7, 2.0, 5.0):
        h = 1e-4
        vals = {k: exact_amplitude(single_site_hamiltonian(trunc, k * h), [t], 0, 2)[0]
                for k in (-2, -1, 0, 1, 2)}
        c0 = vals[0]
        c1 = (vals[-2] - 8 * vals[-1] + 8 * vals[1] - vals[2]) / (12 * h)
        c2 = (-vals[-2] + 16 * vals[-1] - 30 * vals[0] + 16 * vals[1] - vals[2]) / (24 * h * h)
        taylor = c0 + c1 * 0.1 + c2 * 0.01
        assert abs(amp.trace([t])[0] - taylor) <= 1e-9  # stencil-limited
    # tighter check against the even-sector 2x2 closed form at one point
    t = 2.0
    taylor_exact = _even_sector_taylor_order2(t)
    assert abs(amp.trace([t])[0] - taylor_exact) <= 1e-12


def _even_sector_taylor_order2(t: float) -> complex:
    """lam-Taylor of <2|U|0> from the exact 2x2 even block, at 50 digits."""
    import mpmath as mp

    with mp.workdps(50):
        def amp(lam):
            h = mp.matrix([
                [3 * lam / 4 + mp.mpf(1) / 2, 3 * lam / mp.sqrt(2)],
                [3 * lam / mp.sqrt(2), 27 * lam / 4 + mp.mpf(5) / 2],
            ])
            return mp.expm(-1j * h * t)[1, 0]

        step = mp.mpf(10) ** -10
        vals = {k: amp(k * step) for k in (-2, -1, 0, 1, 2)}
        c0 = vals[0]
        c1 = (vals[-2] - 8 * vals[-1] + 8 * vals[1] - vals[2]) / (12 * step)
        c2 = (-vals[-2] + 16 * vals[-1] - 30 * vals[0] + 16 * vals[1] - vals[2]) / (24 * step**2)
        lam = mp.mpf(1) / 10
        total = c0 + c1 * lam + c2 * lam**2
        return complex(total)


def test_dyson_agrees_with_projector_through_shared_order():
    trunc = TruncationSpec(4)
    t_grid = np.linspace(0.0, 6.0, 13)
    h = 1e-3

    def lam2_coeff(fn):
        vals = {k: fn(k * h) for k in (-2, -1, 0, 1, 2)}
        return (-vals[-2] + 16 * vals[-1] - 30 * vals[0] + 16 * vals[1] - vals[2]) / (24 * h * h)

    dy = lam2_coeff(lambda x: dyson_series(trunc, 2, F(x).limit_denominator(10**12), 0, 2).trace(t_grid))
    pr = lam2_coeff(lambda x: evolve_projector_method(trunc, 2, x, t_grid, 0, 2))
    assert np.max(np.abs(dy - pr)) <= 1e-5


def test_secular_growth_versus_bounded_projector():
    trunc = TruncationSpec(4)
    t = np.linspace(0.0, 200.0, 801)
    dyson_prob = np.abs(dyson_series(trunc, 2, F(1, 10), 0, 2).trace(t)) ** 2
    proj_prob = np.abs(evolve_projector_method(trunc, 2, 0.1, t, 0, 2)) ** 2
    assert dyson_prob.max() > 2.0  # polynomial-in-t growth at fixed order
    assert proj_prob.max() <= 1.0 + 1e-3  # bounded phases


def test_order_by_order_convergence_at_small_time():
    # inside the factorial convergence window (lam |V| t small) successive
    # orders close in on the exact amplitude; the long-t behavior is the
    # secular-growth test above, and no fixed long-t tolerance is asserted
    trunc = TruncationSpec(4)
    t = np.linspace(0.0, 2.0, 41)
    exact = exact_amplitude(single_site_hamiltonian(trunc, 0.1), t, 0, 2)
    devs = [np.max(np.abs(dyson_series(trunc, order, F(1, 10), 0, 2).trace(t) - exact))
            for order in (2, 4, 6)]
    assert devs[2] < devs[1] < devs[0]
    assert devs[2] < 1e-3


def test_order_cap():
    with pytest.raises(ValueError, match="order 7 exceeds cap 6"):
        dyson_series(TruncationSpec(4), 7, F(1, 10), 0, 2)


@pytest.mark.parametrize("order", [-1, -3])
def test_negative_order_is_rejected(order):
    with pytest.raises(ValueError, match=f"order {order} must be at least 0"):
        dyson_series(TruncationSpec(4), order, F(1, 10), 0, 2)


def test_parity_forbidden_transition_is_zero():
    amp = dyson_series(TruncationSpec(4), 3, F(1, 5), 0, 1)
    assert not amp.poly.terms


@settings(max_examples=40, deadline=None)
@given(n_max=st.sampled_from([2, 4, 6, 8]), order=st.integers(0, 5),
       lam=st.fractions(-1, 1, max_denominator=1000),
       omega=st.sampled_from([F(1), F(1, 2), F(3, 2), F(2)]))
def test_dyson_series_is_the_gaussian_oracle(n_max, order, lam, omega):
    # the real graded recursion gives the oracle's Gaussian rationals exactly,
    # term by term and in the same key order, for every pair of states
    trunc = TruncationSpec(n_max, omega)
    for state_in in range(n_max):
        expected = dyson_terms(n_max, omega, order, lam, state_in)
        for state_out in range(n_max):
            terms = dyson_series(trunc, order, lam, state_in, state_out).poly.terms
            assert list(terms.items()) == list(expected[state_out].items()), (state_in, state_out)


def test_trace_is_the_exact_term_sum_at_every_point():
    # sqrt(4!/2!) sum c t^k e^(i Omega t) over the exact terms, at 30 digits
    import mpmath as mp

    amp = dyson_series(TruncationSpec(8), 4, F(3, 2000), 2, 4)
    t = np.linspace(0.0, 3.0, 31)
    with mp.workdps(30):
        def real(f):
            return mp.mpf(f.numerator) / f.denominator

        def exact(x):
            x = mp.mpf(x)
            return mp.sqrt(12) * sum(mp.mpc(real(re), real(im)) * x**k * mp.expj(real(w) * x)
                                     for (k, w), (re, im) in amp.poly.terms.items())

        want = np.array([complex(exact(x)) for x in t])
    assert amp.prefactor == np.sqrt(12)
    assert np.max(np.abs(amp.trace(t) - want)) <= 1e-14 * np.max(np.abs(want))
