import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from phi4trunc import (
    TruncationSpec,
    build_trotter_plan,
    count_resources,
    exact_amplitude,
    pauli_decompose,
    simulate_trotter,
    single_site_hamiltonian,
    trotter_step_unitary,
)
from phi4trunc.oscillator import OperatorMatrix
from phi4trunc import pauli
from phi4trunc.pauli import (
    MAX_RESOURCE_QUBITS,
    PauliTerm,
    TrotterPlan,
    _structural_words,
    _surd_groups,
)

from oracles import (
    dense_trotter_step,
    mp_pauli_words,
    pauli_decompose_trace,
    pauli_matrix,
    rotate_pauli,
    structural_pauli_count,
)

REF_NNZ = {2: 5, 3: 19, 4: 55, 5: 143, 6: 351, 7: 831, 8: 1919}
REF_BOUND = {2: 25, 3: 133, 4: 495, 5: 1573, 6: 4563, 7: 12465, 8: 32623}


def expected_nmax4_coefficients(lam):
    return {
        "XI": 3 * lam / 4 * (math.sqrt(2) + math.sqrt(6)),
        "ZI": -(3 * lam / 2 + 1),
        "IZ": -0.5,
        "ZZ": -3 * lam / 2,
        "XZ": 3 * lam / 4 * (math.sqrt(2) - math.sqrt(6)),
    }


@pytest.mark.parametrize("lam", [1.0 / 3.0, 1.4])
def test_nmax4_decomposition_matches_closed_form_terms(lam):
    dec = pauli_decompose(single_site_hamiltonian(TruncationSpec(4), lam), 2)
    coeffs = {t.string: t.coeff for t in dec.terms}
    expect = expected_nmax4_coefficients(lam)
    assert set(coeffs) == set(expect)
    for string, value in expect.items():
        assert coeffs[string] == pytest.approx(value, abs=1e-13)
    assert dec.identity_coeff == pytest.approx(15 * lam / 4 + 2, abs=1e-13)


def test_nmax4_coefficients_are_linear_in_lambda():
    # fit alpha + beta lam through two couplings and compare symbolically
    lam_a, lam_b = 1.0 / 3.0, 1.0 / 7.0
    dec_a = pauli_decompose(single_site_hamiltonian(TruncationSpec(4), lam_a), 2)
    dec_b = pauli_decompose(single_site_hamiltonian(TruncationSpec(4), lam_b), 2)
    ca = {t.string: t.coeff for t in dec_a.terms}
    cb = {t.string: t.coeff for t in dec_b.terms}
    slopes = {
        "XI": 3 * (math.sqrt(2) + math.sqrt(6)) / 4,
        "ZI": -1.5, "IZ": 0.0, "ZZ": -1.5,
        "XZ": 3 * (math.sqrt(2) - math.sqrt(6)) / 4,
    }
    intercepts = {"XI": 0.0, "ZI": -1.0, "IZ": -0.5, "ZZ": 0.0, "XZ": 0.0}
    for s in slopes:
        beta = (ca[s] - cb[s]) / (lam_a - lam_b)
        alpha = ca[s] - beta * lam_a
        assert beta == pytest.approx(slopes[s], abs=1e-12)
        assert alpha == pytest.approx(intercepts[s], abs=1e-12)


def test_identity_input():
    dec = pauli_decompose(OperatorMatrix(np.eye(4), hermitian=True), 2)
    assert dec.terms == []
    assert dec.identity_coeff == 1.0


@pytest.mark.parametrize("n_q", [1, 2, 3, 6])
def test_roundtrip_random_hermitian(n_q):
    rng = np.random.default_rng(100 + n_q)
    dim = 2**n_q
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = (m + m.conj().T) / 2
    h = OperatorMatrix(m, hermitian=True)
    dec = pauli_decompose(h, n_q)
    rebuilt = dec.identity_coeff * np.eye(dim, dtype=complex)
    for term in dec.terms:
        rebuilt += term.coeff * pauli_matrix(term.string)
    assert np.max(np.abs(rebuilt - m)) <= 1e-12
    if n_q <= 3:  # the 4^n_q explicit traces get slow beyond this
        oracle = pauli_decompose_trace(m, n_q)
        for term in dec.terms:
            assert term.coeff == pytest.approx(oracle[term.string], abs=1e-12)


def test_decompose_input_validation():
    with pytest.raises(ValueError, match="2"):
        pauli_decompose(OperatorMatrix(np.eye(3)), 2)
    bad = OperatorMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="Hermitian"):
        pauli_decompose(bad, 1)


@pytest.mark.parametrize("n_q", [2, 3, 4, 5])
def test_resource_counts_match_reference(n_q):
    est = count_resources(n_q)
    assert est.n_nz == REF_NNZ[n_q] == structural_pauli_count(n_q)
    assert est.depth_bound == REF_BOUND[n_q]


def test_resource_count_past_the_cap_is_refused_before_allocating(monkeypatch):
    # the count's arrays grow 4x per qubit; past the cap nothing may be built
    def refuse(*args):
        raise AssertionError("allocated before the cap check")

    for name in ("_structural_words", "_surd_groups", "_word_masks", "_walsh_hadamard"):
        monkeypatch.setattr(pauli, name, refuse)
    n_q = MAX_RESOURCE_QUBITS + 1
    with pytest.raises(ValueError, match=f"n_q {n_q} exceeds cap {MAX_RESOURCE_QUBITS}"):
        count_resources(n_q)


@pytest.mark.parametrize("n_q", [6, 7, 8])
def test_resource_counts_large_nq_exact(n_q):
    # the integer transform count against the surd matrix products of tests/oracles.py
    est = count_resources(n_q)
    assert est.n_nz == REF_NNZ[n_q] == structural_pauli_count(n_q)
    assert est.depth_bound == REF_BOUND[n_q]


@pytest.mark.parametrize("n_q", [6, 7, 8])
def test_double_precision_decomposition_keeps_every_structural_term(n_q):
    # the smallest genuine coefficients (2.4e-7, 7.4e-9, 2.3e-10) sit far
    # above double rounding noise: nothing is dropped at lam = 1/3
    dec = pauli_decompose(single_site_hamiltonian(TruncationSpec(2**n_q), 1.0 / 3.0), n_q)
    assert len(dec.terms) == REF_NNZ[n_q]
    assert dec.n_dropped == 0


@pytest.mark.parametrize("n_q", [2, 3, 4, 5, 6])
def test_structural_words_match_the_40_digit_recursion(n_q):
    words = set(_structural_words(n_q))
    assert words == mp_pauli_words(n_q, Fraction(1, 3)) | mp_pauli_words(n_q, Fraction(1, 7))
    assert len(words) == REF_NNZ[n_q]


@pytest.mark.parametrize("n_q", [2, 3, 4, 5, 6, 7, 8])
def test_structural_words_are_the_float_decomposition_words(n_q):
    dec = pauli_decompose(single_site_hamiltonian(TruncationSpec(2**n_q), 1.0 / 3.0), n_q)
    # same words, and both in lexicographic I < X < Y < Z order
    assert [t.string for t in dec.terms] == _structural_words(n_q)


@pytest.mark.parametrize("n_q", [1, 2, 3, 4])
def test_surd_groups_sum_to_the_occupation_quartic(n_q):
    # each group's entries times sqrt(s), summed over the groups, rebuild
    # the float X^4 of X = a + a^dag entry by entry; the harmonic group is
    # the diagonal 2n + 1
    n = 2**n_q
    x = np.diag(np.sqrt(np.arange(1.0, n)), 1)
    x4 = np.linalg.matrix_power(x + x.T, 4)
    groups = _surd_groups(n)
    assert np.array_equal(groups.pop((0, 0)), 2 * np.arange(n) + 1)
    rebuilt = np.zeros((n, n))
    for (flip, s), vec in groups.items():
        for i in np.flatnonzero(vec):
            rebuilt[i, i ^ flip] += vec[i] * math.sqrt(s)
    np.testing.assert_allclose(rebuilt, x4, rtol=1e-13, atol=1e-13 * np.abs(x4).max())


@st.composite
def _hermitian_parts(draw):
    dim = 2 ** draw(st.integers(1, 5))
    return draw(arrays(np.float64, (2, dim, dim), elements=st.floats(-1.0, 1.0)))


def _tiny_parts(entry):
    # every entry equal except one zero imaginary part: under an absolute
    # 1e-12 cut its small genuine coefficients were dropped
    parts = np.full((2, 16, 16), entry)
    parts[1, 0, 1] = 0.0
    return parts


@settings(max_examples=25, deadline=None)
@given(parts=_hermitian_parts())
@example(parts=_tiny_parts(1e-12))
@example(parts=_tiny_parts(1e-11))
def test_decomposition_rebuilds_random_hermitian(parts):
    re, im = parts
    dim = re.shape[0]
    n_q = dim.bit_length() - 1
    m = (re + 1j * im + (re + 1j * im).conj().T) / 2
    h = OperatorMatrix(m, hermitian=True)
    dec = pauli_decompose(h, n_q)
    rebuilt = dec.identity_coeff * np.eye(dim, dtype=complex)
    for term in dec.terms:
        rebuilt += term.coeff * pauli_matrix(term.string)
    assert np.max(np.abs(rebuilt - m)) <= 1e-12
    if n_q <= 3:
        oracle = pauli_decompose_trace(m, n_q)
        assert dec.identity_coeff == pytest.approx(oracle["I" * n_q], abs=1e-12)
        for term in dec.terms:
            assert term.coeff == pytest.approx(oracle[term.string], abs=1e-12)


def _random_plan(data, n_q, last_letters="IXYZ"):
    prefix = st.text(alphabet="IXYZ", min_size=n_q - 1, max_size=n_q - 1)
    word = st.builds(str.__add__, prefix, st.sampled_from(last_letters)).filter(
        lambda w: set(w) != {"I"})
    terms = data.draw(st.lists(st.tuples(word, st.floats(-3.0, 3.0)), min_size=1, max_size=8))
    return [PauliTerm(w, c) for w, c in terms], data.draw(st.floats(0.01, 1.0))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n_q=st.integers(1, 4))
def test_compiled_step_unitary_matches_dense_product(data, n_q):
    terms, dt = _random_plan(data, n_q)
    u = trotter_step_unitary(TrotterPlan(terms, dt, 1, "as_given")).entries
    assert np.max(np.abs(u - dense_trotter_step([(t.string, t.coeff) for t in terms], dt))) <= 1e-13
    assert np.max(np.abs(u.conj().T @ u - np.eye(2**n_q))) <= 1e-13


@settings(max_examples=20, deadline=None)
@given(data=st.data(), n_q=st.integers(1, 4), steps=st.integers(0, 30))
def test_parity_even_plans_leak_nothing_into_odd_states(data, n_q, steps):
    # a last letter I or Z leaves the occupation parity (bit 0) unflipped
    terms, dt = _random_plan(data, n_q, last_letters="IZ")
    start = data.draw(st.integers(0, 2 ** (n_q - 1) - 1)) * 2
    odd = list(range(1, 2**n_q, 2))
    sim = simulate_trotter(TrotterPlan(terms, dt, steps), start, odd)
    assert np.all(sim["probabilities"] == 0.0)


def test_nnz_growth_slower_than_4_to_nq():
    # successive ratios stay below 4 and keep shrinking
    ratios = [REF_NNZ[k + 1] / REF_NNZ[k] for k in range(2, 8)]
    assert all(r < 4.0 for r in ratios)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_single_term_plan_is_exact():
    plan = TrotterPlan([PauliTerm("XZ", 0.37)], dt=0.5, steps=1)
    u = trotter_step_unitary(plan).entries
    p = pauli_matrix("XZ")
    w, v = np.linalg.eigh(p)
    exact = (v * np.exp(-1j * 0.5 * 0.37 * w)) @ v.conj().T
    assert np.max(np.abs(u - exact)) <= 1e-12


def test_step_error_scales_quadratically():
    trunc = TruncationSpec(4)
    h = single_site_hamiltonian(trunc, 0.1)
    dec = pauli_decompose(h, 2)
    w, v = np.linalg.eigh(h.entries)
    errs = []
    for dt in (0.2, 0.1, 0.05):
        plan = build_trotter_plan(dec, dt, 1)
        u = trotter_step_unitary(plan).entries
        exact = (v * np.exp(-1j * w * dt)) @ v.conj().T * np.exp(1j * dec.identity_coeff * dt)
        errs.append(np.linalg.norm(u - exact, 2))
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.5)
    assert errs[1] / errs[2] == pytest.approx(4.0, abs=0.5)


def test_step_unitarity():
    dec = pauli_decompose(single_site_hamiltonian(TruncationSpec(8), 0.3), 3)
    for ordering in ("by_magnitude_desc", "lexicographic", "as_given"):
        plan = build_trotter_plan(dec, 0.17, 1, ordering)
        u = trotter_step_unitary(plan).entries
        assert np.max(np.abs(u.conj().T @ u - np.eye(8))) <= 1e-12


def test_identity_only_plan_keeps_its_register_width():
    dec = pauli_decompose(OperatorMatrix(3.0 * np.eye(4), hermitian=True), 2)
    plan = build_trotter_plan(dec, 0.1, 3)
    assert dec.terms == [] and plan.n_q == 2
    assert np.array_equal(trotter_step_unitary(plan).entries, np.eye(4))
    sim = simulate_trotter(plan, 2, [3])
    assert np.all(sim["probabilities"] == 0.0)
    assert np.array_equal(sim["state"], np.eye(4)[2])


def test_plan_width_must_be_known_and_shared():
    assert TrotterPlan([PauliTerm("XZI", 1.0)], 0.1, 1).n_q == 3
    with pytest.raises(ValueError, match="no terms needs its register width"):
        TrotterPlan([], 0.1, 1)
    with pytest.raises(ValueError, match="register width 2"):
        TrotterPlan([PauliTerm("XZ", 1.0), PauliTerm("XZI", 1.0)], 0.1, 1)
    with pytest.raises(ValueError, match="register width 3"):
        TrotterPlan([PauliTerm("XZ", 1.0)], 0.1, 1, n_q=3)


def test_plan_rejects_identity_and_bad_ordering():
    dec = pauli_decompose(single_site_hamiltonian(TruncationSpec(4), 0.1), 2)
    with pytest.raises(ValueError, match="ordering"):
        build_trotter_plan(dec, 0.1, 1, "random")
    with pytest.raises(ValueError, match="identity"):
        TrotterPlan([PauliTerm("II", 1.0)], 0.1, 1)
    with pytest.raises(ValueError, match="positive"):
        TrotterPlan([PauliTerm("XI", 1.0)], -0.1, 1)


def test_simulation_matches_rotation_by_rotation_update():
    dec = pauli_decompose(single_site_hamiltonian(TruncationSpec(8), 0.4), 3)
    plan = build_trotter_plan(dec, 0.05, 60)
    rng = np.random.default_rng(3)
    start = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    start /= np.linalg.norm(start)
    sim = simulate_trotter(plan, start, [0, 3, 6])
    psi = start
    for step in range(1, plan.steps + 1):
        for term in plan.terms:
            psi = rotate_pauli(psi, term.string, plan.dt * term.coeff)
        assert np.max(np.abs(sim["probabilities"][step] - np.abs(psi[[0, 3, 6]]) ** 2)) <= 1e-12
    assert np.max(np.abs(sim["state"] - psi)) <= 1e-12


def test_simulation_matches_step_unitary_powers():
    trunc = TruncationSpec(4)
    dec = pauli_decompose(single_site_hamiltonian(trunc, 0.1), 2)
    plan = build_trotter_plan(dec, 0.2, 5)
    sim = simulate_trotter(plan, 0, [0, 2])
    u = trotter_step_unitary(plan).entries
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    for step in range(1, 6):
        psi = u @ psi
        assert sim["probabilities"][step, 0] == pytest.approx(abs(psi[0]) ** 2, abs=1e-12)
        assert sim["probabilities"][step, 1] == pytest.approx(abs(psi[2]) ** 2, abs=1e-12)


def test_parity_conservation_and_norm():
    trunc = TruncationSpec(4)
    dec = pauli_decompose(single_site_hamiltonian(trunc, 0.1), 2)
    plan = build_trotter_plan(dec, 0.1, 200)
    sim = simulate_trotter(plan, 0, [1, 3])
    assert np.max(sim["probabilities"]) <= 1e-12
    assert np.max(np.abs(sim["norms"] - 1.0)) <= 1e-12


def test_trace_accuracy_versus_exact():
    trunc = TruncationSpec(4)
    h = single_site_hamiltonian(trunc, 0.1)
    dec = pauli_decompose(h, 2)
    devs = {}
    for dt, steps in ((0.2, 50), (0.1, 100)):
        plan = build_trotter_plan(dec, dt, steps)
        sim = simulate_trotter(plan, 0, [2])
        exact = np.abs(exact_amplitude(h, sim["t"], 0, 2)) ** 2
        devs[dt] = np.max(np.abs(sim["probabilities"][:, 0] - exact))
    peak = 0.0259  # max exact transition probability at lam=0.1
    assert devs[0.1] <= 0.01 * peak
    assert devs[0.2] <= 0.10 * peak
    assert devs[0.1] < devs[0.2]


def test_global_error_first_order_in_dt():
    trunc = TruncationSpec(4)
    h = single_site_hamiltonian(trunc, 0.1)
    dec = pauli_decompose(h, 2)
    w, v = np.linalg.eigh(h.entries)
    total_t = 2.0
    state_errs, prob_errs = [], []
    for dt in (0.1, 0.05, 0.025):
        steps = int(round(total_t / dt))
        plan = build_trotter_plan(dec, dt, steps)
        sim = simulate_trotter(plan, 0, [2])
        start = np.zeros(4, dtype=complex)
        start[0] = 1.0
        exact_state = (v * np.exp(-1j * w * total_t)) @ v.conj().T @ start \
            * np.exp(1j * dec.identity_coeff * total_t)
        state_errs.append(np.linalg.norm(sim["state"] - exact_state))
        exact_prob = abs(exact_amplitude(h, [total_t], 0, 2)[0]) ** 2
        prob_errs.append(abs(sim["probabilities"][-1, 0] - exact_prob))
    # statevector error is first order in dt at fixed total time
    assert state_errs[0] / state_errs[1] == pytest.approx(2.0, abs=0.4)
    assert state_errs[1] / state_errs[2] == pytest.approx(2.0, abs=0.4)
    # error(dt)/dt stays bounded (probabilities happen to converge faster)
    assert all(e / dt < 1.0 for e, dt in zip(prob_errs, (0.1, 0.05, 0.025)))


def test_unnormalized_state_rejected():
    dec = pauli_decompose(single_site_hamiltonian(TruncationSpec(4), 0.1), 2)
    plan = build_trotter_plan(dec, 0.1, 1)
    with pytest.raises(ValueError, match="normalized"):
        simulate_trotter(plan, np.array([1.0, 1.0, 0.0, 0.0]), [0])


@pytest.mark.parametrize("state_in, observables, match", [
    (-1, [0], "input state -1"),
    (4, [0], "input state 4"),
    (0, [-1], "observable state -1"),
    (0, [1, 4], "observable state 4"),
    (0, [1.0], "observable state 1.0"),
    (np.eye(8)[0], [0], "needs 4 amplitudes"),
])
def test_simulation_rejects_states_outside_the_register(state_in, observables, match):
    dec = pauli_decompose(single_site_hamiltonian(TruncationSpec(4), 0.1), 2)
    plan = build_trotter_plan(dec, 0.1, 1)
    with pytest.raises(ValueError, match=match):
        simulate_trotter(plan, state_in, observables)


@pytest.mark.parametrize("steps", [-1, 2.5])
def test_plan_rejects_steps_that_are_not_a_count(steps):
    dec = pauli_decompose(single_site_hamiltonian(TruncationSpec(4), 0.1), 2)
    with pytest.raises(ValueError, match=f"steps must be a non-negative integer, got {steps}"):
        build_trotter_plan(dec, 0.1, steps)
