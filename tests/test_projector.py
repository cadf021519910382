from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import kato_projector_series, weighted_quartic

from phi4trunc import (
    TruncationSpec,
    evolve_projector_method,
    exact_amplitude,
    perturbed_projector,
    single_site_hamiltonian,
    weak_series,
)

F = Fraction


def test_p0_matrix_matches_closed_form_polynomials():
    # standard-basis (0,0) entry: (-1701 l^4 + 432 l^3 - 72 l^2 + 64)/64
    ser, _ = perturbed_projector(TruncationSpec(4), 0, order=4)
    assert [ser.weighted[m][0][0] for m in range(5)] == \
        [F(1), F(0), F(-9, 8), F(27, 4), F(-1701, 64)]
    # (0,2) standard entry is (3 l/(8 sqrt2))(27 l^3 - 27 l^2 + 12 l - 4);
    # the weighted basis absorbs the sqrt2, leaving (3 l/8)(...)
    assert [ser.weighted[m][0][2] for m in range(5)] == \
        [F(0), F(-3, 2), F(9, 2), F(-81, 8), F(81, 8)]
    # (2,2) entry: (9/64) l^2 (189 l^2 - 48 l + 8)
    assert [ser.weighted[m][2][2] for m in range(5)] == \
        [F(0), F(0), F(9, 8), F(-27, 4), F(1701, 64)]
    # odd rows and columns vanish identically
    for m in range(5):
        for j in (1, 3):
            assert all(ser.weighted[m][j][k] == 0 for k in range(4))
            assert all(ser.weighted[m][k][j] == 0 for k in range(4))


def test_p2_is_parity_partner_of_p0():
    s0, _ = perturbed_projector(TruncationSpec(4), 0, order=4)
    s2, _ = perturbed_projector(TruncationSpec(4), 2, order=4)
    for m in range(1, 5):
        assert s2.weighted[m][2][0] == -s0.weighted[m][2][0]
    assert [s2.weighted[m][0][0] for m in range(5)] == \
        [F(0), F(0), F(9, 8), F(-27, 4), F(1701, 64)]


def test_successive_approximations_at_lambda_01():
    trunc = TruncationSpec(4)
    e_sums = weak_series(trunc, 0, max_order=4).partial_sums(F(1, 10))
    assert [float(s) for s in e_sums] == pytest.approx(
        [0.5, 0.575, 0.5525, 0.55925, 0.557478], abs=5e-7)
    e2_sums = weak_series(trunc, 2, max_order=4).partial_sums(F(1, 10))
    assert [float(s) for s in e2_sums] == pytest.approx(
        [2.5, 3.175, 3.1975, 3.19075, 3.19252], abs=5e-6)
    ser, _ = perturbed_projector(trunc, 0, order=4)
    sums, acc = [], 0.0
    for m in range(5):
        acc += ser.coefficient_matrix(m)[2, 0] * 0.1**m
        sums.append(acc)
    assert sums == pytest.approx([0.0, -0.106066, -0.0742462, -0.0814057, -0.0806897],
                                 abs=5e-7)


def test_order_zero_is_unperturbed_projector():
    # 0.05 lies past the radius 0.03965 fitted to level 3's weak series
    with pytest.warns(RuntimeWarning, match="outside the estimated convergence radius 0.03965 "):
        ser, value = perturbed_projector(TruncationSpec(8), 3, order=0, lam=0.05)
    expect = np.zeros((8, 8))
    expect[3, 3] = 1.0
    assert np.array_equal(ser.coefficient_matrix(0), expect)
    assert np.array_equal(value, expect)


@pytest.mark.parametrize("n_max", [4, 8])
def test_projector_completeness_every_order(n_max):
    # exact statement: the weighted-basis rational coefficient matrices of
    # all levels sum to the identity at order 0 and to zero at every higher
    # order, with no tolerance at all
    trunc = TruncationSpec(n_max)
    order = 3
    totals = [[[F(0)] * n_max for _ in range(n_max)] for _ in range(order + 1)]
    for level in range(n_max):
        ser, _ = perturbed_projector(trunc, level, order=order)
        for m in range(order + 1):
            for i in range(n_max):
                for j in range(n_max):
                    totals[m][i][j] += ser.weighted[m][i][j]
    assert all(totals[0][i][j] == (1 if i == j else 0)
               for i in range(n_max) for j in range(n_max))
    for m in range(1, order + 1):
        assert all(totals[m][i][j] == 0 for i in range(n_max) for j in range(n_max))


def test_projector_idempotent_order_by_order():
    ser, _ = perturbed_projector(TruncationSpec(4), 0, order=4)
    w = ser.weighted
    n = 4
    for m in range(5):
        conv = [[F(0)] * n for _ in range(n)]
        for a in range(m + 1):
            pa, pb = w[a], w[m - a]
            for i in range(n):
                for j in range(n):
                    conv[i][j] += sum(pa[i][k] * pb[k][j] for k in range(n))
        assert all(conv[i][j] == w[m][i][j] for i in range(n) for j in range(n))


def test_convergence_warning_outside_radius():
    with pytest.warns(RuntimeWarning, match="radius"):
        perturbed_projector(TruncationSpec(4), 0, order=2, lam=0.3)


def test_evolution_amplitude_at_t_zero():
    trunc = TruncationSpec(4)
    for order in (0, 2, 4):
        assert abs(evolve_projector_method(trunc, order, 0.1, [0.0], 0, 2)[0]) == 0.0
        assert abs(evolve_projector_method(trunc, order, 0.1, [0.0], 2, 2)[0] - 1.0) <= 1e-15


def test_harmonic_limit_no_transition():
    amp = evolve_projector_method(TruncationSpec(4), 0, 0.0, np.linspace(0, 5, 11), 0, 2)
    assert np.max(np.abs(amp)) == 0.0


@pytest.mark.parametrize("state_out", [2, 1])
def test_negative_order_is_rejected(state_out):
    # also for states of opposite parity, whose trace is zero at every order
    with pytest.raises(ValueError, match="order -1 must be at least 0"):
        evolve_projector_method(TruncationSpec(4), -1, 0.01, np.linspace(0, 1, 3), 0, state_out)
    with pytest.raises(ValueError, match="order -2 must be at least 0"):
        perturbed_projector(TruncationSpec(4), 0, order=-2, lam=0.01)


@pytest.mark.parametrize("state_in, state_out", [(-1, 1), (0, 4), (5, 0)])
def test_states_outside_the_truncation_are_rejected(state_in, state_out):
    # -1 -> 1 passes the parity shortcut, 0 -> 4 and 5 -> 0 would index past the matrix
    t = np.linspace(0, 1, 3)
    named = f"states {state_in}->{state_out} outside 0..3"
    with pytest.raises(ValueError, match=named):
        evolve_projector_method(TruncationSpec(4), 2, 0.1, t, state_in, state_out)
    with pytest.raises(ValueError, match=named):
        exact_amplitude(single_site_hamiltonian(TruncationSpec(4), 0.1), t, state_in, state_out)


def test_opposite_parity_amplitude_is_zero():
    amp = evolve_projector_method(TruncationSpec(4), 4, 0.1, np.linspace(0, 5, 6), 0, 1)
    assert np.max(np.abs(amp)) == 0.0


def test_order4_transition_probability_close_to_exact():
    trunc = TruncationSpec(4)
    t = np.linspace(0.0, 20.0, 401)
    prob = np.abs(evolve_projector_method(trunc, 4, 0.1, t, 0, 2)) ** 2
    exact = np.abs(exact_amplitude(single_site_hamiltonian(trunc, 0.1), t, 0, 2)) ** 2
    assert np.max(np.abs(prob - exact)) <= 1e-3


def test_successive_orders_converge():
    trunc = TruncationSpec(4)
    t = np.linspace(0.0, 20.0, 201)
    exact = np.abs(exact_amplitude(single_site_hamiltonian(trunc, 0.1), t, 0, 2)) ** 2
    devs = []
    for order in (1, 2, 3, 4):
        prob = np.abs(evolve_projector_method(trunc, order, 0.1, t, 0, 2)) ** 2
        devs.append(np.max(np.abs(prob - exact)))
    assert devs[3] < devs[1] < devs[0]


def test_probability_bounded_uniformly_in_time():
    trunc = TruncationSpec(4)
    t = np.linspace(0.0, 200.0, 2001)
    prob = np.abs(evolve_projector_method(trunc, 4, 0.1, t, 0, 2)) ** 2
    assert np.max(prob) <= 1.0 + 1e-4


@pytest.mark.parametrize("n_max", [4, 6])
def test_projector_equals_kato_composition_sum(n_max):
    # the rank-one |psi_R><psi_L| / <psi_L|psi_R> against the independent
    # C(2m, m)-term composition sum, Fraction for Fraction, every level
    for level in range(n_max):
        ser, _ = perturbed_projector(TruncationSpec(n_max), level, order=4)
        assert ser.weighted == kato_projector_series(n_max, level, 4)


@pytest.mark.parametrize("n_max, omega", [(4, 1.0), (8, 1.0), (12, 1.0), (8, 0.5), (6, 1.5)])
def test_projector_energy_is_the_weak_series(n_max, omega):
    # successive.csv and the projector method read E_n off the projector's
    # own recursion in place of a second weak-series run
    trunc = TruncationSpec(n_max, omega)
    for level in range(n_max):
        ser, _ = perturbed_projector(trunc, level, order=6)
        assert ser.energy.coeffs == weak_series(trunc, level, max_order=6).coeffs
        assert ser.energy.sector == ("even" if level % 2 == 0 else "odd")


def _matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n) if a[i][k]) for j in range(n)]
            for i in range(n)]


@settings(max_examples=6, deadline=None)
@given(n_max=st.sampled_from([2, 4, 6, 8]), order=st.integers(0, 8),
       omega=st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(3, 2)]))
@example(n_max=8, order=8, omega=Fraction(1))
def test_projector_algebra_exact_at_every_order(n_max, order, omega):
    # with P = sum_m lam^m P_m and H = H0 + lam V, order by order and with
    # no tolerance: sum over levels of P_m = delta_m0 I, sum_a P_a P_(m-a)
    # = P_m, and [H0, P_m] + [V, P_(m-1)] = 0
    h0, v = weighted_quartic(n_max, omega)
    n = n_max
    zero = [[Fraction(0)] * n for _ in range(n)]
    total = [[[Fraction(0)] * n for _ in range(n)] for _ in range(order + 1)]
    for level in range(n):
        p = perturbed_projector(TruncationSpec(n, float(omega)), level, order=order)[0].weighted
        for m in range(order + 1):
            total[m] = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(total[m], p[m])]
            square = zero
            for a in range(m + 1):
                prod = _matmul(p[a], p[m - a])
                square = [[x + y for x, y in zip(rs, rp)] for rs, rp in zip(square, prod)]
            assert square == p[m]
            comm = [[(h0[i] - h0[j]) * p[m][i][j] for j in range(n)] for i in range(n)]
            if m:
                vp, pv = _matmul(v, p[m - 1]), _matmul(p[m - 1], v)
                comm = [[c + x - y for c, x, y in zip(rc, rx, ry)]
                        for rc, rx, ry in zip(comm, vp, pv)]
            assert comm == zero
    assert total[0] == [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    assert all(total[m] == zero for m in range(1, order + 1))
