import numpy as np
import pytest

from phi4trunc import TruncationSpec, build_field_ops, build_ladder, harmonic_hamiltonian
from phi4trunc.oscillator import hermite_zeros

from oracles import field_eigenbasis


def top_projector(spec):
    """|n_max-1><n_max-1|, the projector onto the highest retained state."""
    p = np.zeros((spec.n_max, spec.n_max))
    p[-1, -1] = 1.0
    return p


def test_ladder_nmax4_matches_closed_form():
    a, adag = build_ladder(TruncationSpec(4))
    expect = np.zeros((4, 4))
    expect[0, 1], expect[1, 2], expect[2, 3] = 1.0, np.sqrt(2), np.sqrt(3)
    assert np.array_equal(a, expect)
    assert np.array_equal(adag, expect.T)
    # raising the top state gives zero
    top = np.zeros(4)
    top[3] = 1.0
    assert np.array_equal(adag @ top, np.zeros(4))


def test_modified_commutator_nmax2():
    a, adag = build_ladder(TruncationSpec(2))
    comm = a @ adag - adag @ a
    assert np.array_equal(comm, np.diag([1.0, -1.0]))


@pytest.mark.parametrize("n_max", [2, 4, 8, 16])
def test_modified_commutator_general(n_max):
    spec = TruncationSpec(n_max)
    a, adag = build_ladder(spec)
    comm = a @ adag - adag @ a
    expect = np.eye(n_max) - n_max * top_projector(spec)
    assert np.allclose(comm, expect, atol=1e-14)
    assert abs(np.trace(comm)) <= 1e-12
    assert np.trace(expect) == 0.0


def test_number_operator_nmax8():
    a, adag = build_ladder(TruncationSpec(8))
    num = adag @ a
    assert np.allclose(num, np.diag(np.arange(8.0)), atol=1e-14)


def test_top_projector_annihilation_identities():
    spec = TruncationSpec(6)
    a, adag = build_ladder(spec)
    p = top_projector(spec)
    assert np.array_equal(adag @ p, np.zeros((6, 6)))
    assert np.array_equal(p @ a, np.zeros((6, 6)))
    num = adag @ a
    assert np.allclose(num @ a - a @ num, -a, atol=1e-14)
    assert np.allclose(num @ adag - adag @ num, adag, atol=1e-14)


@pytest.mark.parametrize("n_max", [1, 3, 5])
def test_rejects_odd_or_small_truncation(n_max):
    with pytest.raises(ValueError):
        TruncationSpec(n_max)


def test_rejects_nonpositive_omega():
    with pytest.raises(ValueError):
        TruncationSpec(4, omega=0.0)


def test_field_ops_nmax2():
    phi, pi = build_field_ops(TruncationSpec(2))
    assert np.allclose(phi, np.array([[0, 1], [1, 0]]) / np.sqrt(2))
    assert np.array_equal(phi, phi.T) and np.array_equal(pi, pi.conj().T)


@pytest.mark.parametrize("n_max,omega", [(4, 1.0), (8, 1.0), (6, 2.5)])
def test_quadratic_identity_with_top_projector(n_max, omega):
    # pi^2/2 + omega^2 phi^2/2 = H_har - (n_max/2) omega P_top
    spec = TruncationSpec(n_max, omega)
    phi, pi = build_field_ops(spec)
    lhs = 0.5 * (pi @ pi + omega**2 * phi @ phi)
    rhs = harmonic_hamiltonian(spec) - (n_max / 2.0) * omega * top_projector(spec)
    assert np.allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("n_max", [2, 4, 8])
def test_field_momentum_commutator(n_max):
    spec = TruncationSpec(n_max)
    phi, pi = build_field_ops(spec)
    comm = phi @ pi - pi @ phi
    expect = 1j * (np.eye(n_max) - n_max * top_projector(spec))
    assert np.allclose(comm, expect, atol=1e-13)


@pytest.mark.parametrize("t", [0.3, 1.0])
def test_interaction_picture_rotation(t):
    spec = TruncationSpec(8)
    a, _ = build_ladder(spec)
    h = harmonic_hamiltonian(spec)
    u = np.diag(np.exp(1j * np.diag(h) * t))
    rotated = u @ a @ u.conj().T
    assert np.max(np.abs(rotated - np.exp(-1j * spec.omega * t) * a)) <= 1e-12


def test_field_eigenvalues_nmax2():
    pairs = field_eigenbasis(TruncationSpec(2))
    assert np.allclose([p.phi for p in pairs], [-1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_field_eigenvalues_nmax4():
    pairs = field_eigenbasis(TruncationSpec(4))
    inner, outer = np.sqrt((3 - np.sqrt(6)) / 2), np.sqrt((3 + np.sqrt(6)) / 2)
    assert np.allclose([p.phi for p in pairs], [-outer, -inner, inner, outer], atol=1e-12)


@pytest.mark.parametrize("n_max", [2, 4, 8, 32])
def test_field_eigenbasis_is_orthonormal_eigenbasis(n_max):
    spec = TruncationSpec(n_max)
    phi, _ = build_field_ops(spec)
    pairs = field_eigenbasis(spec)
    vecs = np.array([p.vector for p in pairs]).T
    assert np.allclose(vecs.T @ vecs, np.eye(n_max), atol=1e-10)
    for p in pairs:
        assert np.max(np.abs(phi @ p.vector - p.phi * p.vector)) <= 1e-10
    # completeness per occupation level
    assert np.allclose((vecs**2).sum(axis=1), np.ones(n_max), atol=1e-10)


@pytest.mark.parametrize("n_max", [4, 16, 64, 128])
def test_hermite_roots_match_direct_diagonalization(n_max):
    spec = TruncationSpec(n_max)
    phi, _ = build_field_ops(spec)
    direct = np.linalg.eigvalsh(phi)
    roots = hermite_zeros(n_max) / np.sqrt(spec.omega)
    assert np.max(np.abs(np.sort(direct) - roots)) <= 1e-12


def test_omega_scaling_of_field_eigenvalues():
    pairs1 = field_eigenbasis(TruncationSpec(4, omega=1.0))
    pairs4 = field_eigenbasis(TruncationSpec(4, omega=4.0))
    assert np.allclose([p.phi for p in pairs4], [p.phi / 2.0 for p in pairs1], atol=1e-13)
