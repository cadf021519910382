import math

import numpy as np
import pytest

from phi4trunc import (
    LatticeSpec,
    ParityError,
    TruncationSpec,
    field_eigenbasis,
    lattice_hamiltonian,
    parity_decompose,
    single_site_hamiltonian,
    strong_coupling_hamiltonian,
)
from phi4trunc.algebra import sector_char_poly
from phi4trunc.oscillator import OperatorMatrix


def anh4_expected(lam):
    s2, s32 = math.sqrt(2), 3 * math.sqrt(1.5)
    return np.array([
        [3 * lam / 4 + 0.5, 0, 3 * lam / s2, 0],
        [0, 15 * lam / 4 + 1.5, 0, s32 * lam],
        [3 * lam / s2, 0, 27 * lam / 4 + 2.5, 0],
        [0, s32 * lam, 0, 15 * lam / 4 + 3.5],
    ])


@pytest.mark.parametrize("lam", [0.1, -0.3, 2.0])
def test_single_site_nmax4_matches_closed_form_matrix(lam):
    h = single_site_hamiltonian(TruncationSpec(4), lam)
    assert np.allclose(h.entries, anh4_expected(lam), atol=1e-14)
    assert h.hermitian


def test_single_site_harmonic_limit():
    h = single_site_hamiltonian(TruncationSpec(8), 0.0)
    assert np.allclose(h.entries, np.diag(np.arange(8) + 0.5), atol=1e-15)


def test_single_site_lowest_even_eigenvalue():
    h = single_site_hamiltonian(TruncationSpec(4), 0.1)
    blocks = parity_decompose(h, TruncationSpec(4))
    e0 = np.linalg.eigvalsh(blocks.even.entries)[0]
    assert abs(e0 - 0.557806) < 5e-7


def test_complex_coupling_clears_hermitian_flag():
    h = single_site_hamiltonian(TruncationSpec(4), 0.1 + 0.2j)
    assert not h.hermitian
    assert np.iscomplexobj(h.entries)


def test_strong_coupling_unperturbed_spectrum_doubly_degenerate():
    spec = TruncationSpec(4)
    h = strong_coupling_hamiltonian(spec, 0.0)
    eig = np.sort(np.linalg.eigvalsh(h.entries))
    # each +-phi_j pair contributes the same phi_j^4 twice
    expect = np.sort([p.phi**4 for p in field_eigenbasis(spec)])
    assert np.allclose(eig, expect, atol=1e-12)
    assert np.allclose(eig[0], eig[1]) and np.allclose(eig[2], eig[3])


def test_strong_weak_duality_entrywise_example():
    spec = TruncationSpec(4)
    anh = single_site_hamiltonian(spec, 0.5)
    strong = strong_coupling_hamiltonian(spec, 2.0)
    ea = np.sort(np.linalg.eigvalsh(anh.entries)) / 0.5
    es = np.sort(np.linalg.eigvalsh(strong.entries))
    assert np.max(np.abs(ea - es)) <= 1e-12


def test_strong_coupling_harmonic_limit():
    spec = TruncationSpec(6)
    lam_tilde = 1e8
    h = strong_coupling_hamiltonian(spec, lam_tilde)
    eig = np.sort(np.linalg.eigvalsh(h.entries)) / lam_tilde
    assert np.allclose(eig, np.arange(6) + 0.5, atol=1e-6)


def test_duality_random_couplings():
    rng = np.random.default_rng(7)
    spec = TruncationSpec(8)
    for lam in rng.uniform(0.01, 10.0, size=20):
        ea = np.sort(np.linalg.eigvalsh(single_site_hamiltonian(spec, lam).entries)) / lam
        es = np.sort(np.linalg.eigvalsh(strong_coupling_hamiltonian(spec, 1.0 / lam).entries))
        assert np.max(np.abs(ea - es) / np.abs(es)) <= 1e-10


def test_lattice_two_site_explicit_kron():
    spec = LatticeSpec(2, TruncationSpec(2), kappa=0.1, lam=0.0, boundary="open")
    h = lattice_hamiltonian(spec).matrix.toarray()
    phi2 = np.array([[0, 1], [1, 0]]) / np.sqrt(2)
    expect = np.diag([1.0, 2.0, 2.0, 3.0]) - 0.2 * np.kron(phi2, phi2)
    assert np.allclose(h, expect, atol=1e-15)
    eig = np.linalg.eigvalsh(expect)
    assert np.allclose(np.linalg.eigvalsh(h), eig, atol=1e-14)
    assert {1.9, 2.1} <= {round(float(e), 10) for e in eig}


def test_lattice_two_site_periodic_double_bond_and_dedup():
    trunc = TruncationSpec(2)
    phi2 = np.array([[0, 1], [1, 0]]) / np.sqrt(2)
    spec = LatticeSpec(2, trunc, kappa=0.1, lam=0.0, boundary="periodic")
    doubled = lattice_hamiltonian(spec).matrix.toarray()
    assert np.allclose(doubled, np.diag([1.0, 2, 2, 3]) - 0.4 * np.kron(phi2, phi2), atol=1e-15)
    single = lattice_hamiltonian(spec, dedup_double_bond=True).matrix.toarray()
    assert np.allclose(single, np.diag([1.0, 2, 2, 3]) - 0.2 * np.kron(phi2, phi2), atol=1e-15)


def test_lattice_decoupled_spectrum_is_tensor_sum():
    trunc = TruncationSpec(4)
    spec = LatticeSpec(3, trunc, kappa=0.0, lam=0.2, boundary="periodic")
    h = lattice_hamiltonian(spec).matrix.toarray()
    single = np.linalg.eigvalsh(single_site_hamiltonian(trunc, 0.2).entries)
    sums = np.sort([a + b + c for a in single for b in single for c in single])
    assert np.max(np.abs(np.linalg.eigvalsh(h) - sums)) <= 1e-12


def test_lattice_hermitian_by_construction():
    spec = LatticeSpec(3, TruncationSpec(4), kappa=0.3, lam=0.7, boundary="periodic")
    h = lattice_hamiltonian(spec).matrix.toarray()
    assert np.array_equal(h, h.T)


def test_lattice_nnz_growth_ratio():
    spec = LatticeSpec(4, TruncationSpec(4), kappa=0.1, lam=0.2, boundary="open")
    h = lattice_hamiltonian(spec)
    ratio = math.log(h.nnz) / math.log(spec.dim)
    assert 1.15 <= ratio <= 1.45
    assert h.nnz < 0.1 * spec.dim**2


def test_lattice_translation_invariance_periodic():
    trunc = TruncationSpec(4)
    spec = LatticeSpec(3, trunc, kappa=0.2, lam=0.3, boundary="periodic")
    h = lattice_hamiltonian(spec).matrix.toarray()
    n = trunc.n_max

    def rotate_index(i):
        digits = [(i // n**k) % n for k in reversed(range(3))]  # site 0 most significant
        digits = digits[1:] + digits[:1]
        return sum(d * n**k for d, k in zip(digits, reversed(range(3))))

    perm = np.array([rotate_index(i) for i in range(n**3)])
    rotated = h[np.ix_(perm, perm)]
    assert np.max(np.abs(np.linalg.eigvalsh(rotated) - np.linalg.eigvalsh(h))) <= 1e-10


def test_lattice_dimension_cap():
    with pytest.raises(ValueError, match="cap"):
        lattice_hamiltonian(LatticeSpec(6, TruncationSpec(16), 0.1, 0.1), dim_cap=2**20)


def test_parity_blocks_nmax4_and_characteristic_factor():
    trunc = TruncationSpec(4)
    h = single_site_hamiltonian(trunc, 0.1)
    blocks = parity_decompose(h, trunc)
    assert blocks.even.entries.shape == (2, 2)
    assert list(blocks.even_indices) == [0, 2]
    # even-sector characteristic polynomial, cleared to integers by 16
    zc = sector_char_poly(trunc, "even")
    assert zc[0] == [20, 84, 9]
    assert zc[1] == [-48, -120]
    assert zc[2] == [16]
    zodd = sector_char_poly(trunc, "odd")
    assert zodd[0] == [84, 300, 9]
    assert zodd[1] == [-80, -120]
    assert zodd[2] == [16]


def test_parity_nmax2_blocks_trivial():
    trunc = TruncationSpec(2)
    h = single_site_hamiltonian(trunc, 0.4)
    blocks = parity_decompose(h, trunc)
    assert blocks.even.entries.shape == (1, 1)
    assert blocks.odd.entries.shape == (1, 1)


@pytest.mark.parametrize("lam", [0.1, 0.9])
def test_parity_block_spectra_unite(lam):
    trunc = TruncationSpec(8)
    h = single_site_hamiltonian(trunc, lam)
    blocks = parity_decompose(h, trunc)
    union = np.sort(np.concatenate([
        np.linalg.eigvalsh(blocks.even.entries),
        np.linalg.eigvalsh(blocks.odd.entries),
    ]))
    assert np.max(np.abs(union - np.linalg.eigvalsh(h.entries))) <= 1e-12


def test_parity_decompose_rejects_parity_breaking():
    trunc = TruncationSpec(4)
    m = single_site_hamiltonian(trunc, 0.1).entries.copy()
    m[0, 1] = m[1, 0] = 0.5
    with pytest.raises(ParityError, match="couples parity.*5"):
        parity_decompose(OperatorMatrix(m, hermitian=True), trunc)


def test_parity_decompose_sparse_lattice():
    spec = LatticeSpec(2, TruncationSpec(4), kappa=0.1, lam=0.2, boundary="open")
    h = lattice_hamiltonian(spec)
    blocks = parity_decompose(h, spec)
    assert blocks.even.dim + blocks.odd.dim == spec.dim
    union = np.sort(np.concatenate([
        np.linalg.eigvalsh(blocks.even.matrix.toarray()),
        np.linalg.eigvalsh(blocks.odd.matrix.toarray()),
    ]))
    assert np.max(np.abs(union - np.linalg.eigvalsh(h.matrix.toarray()))) <= 1e-12


def test_sparse_triplets_sorted_and_hermitian():
    spec = LatticeSpec(2, TruncationSpec(4), kappa=0.1, lam=0.2, boundary="open")
    h = lattice_hamiltonian(spec)
    trips = h.triplets()
    assert trips == sorted(trips, key=lambda t: (t[0], t[1]))
    lookup = {(r, c): v for r, c, v in trips}
    assert all(abs(lookup[(c, r)] - np.conj(v)) <= 1e-15 for (r, c), v in lookup.items())


def test_single_site_builders_evaluate_their_families_with_exact_diagonal():
    from phi4trunc import anharmonic_family, strong_coupling_family

    trunc = TruncationSpec(16, 0.75)
    harmonic = np.diag(0.75 * (np.arange(16) + 0.5))
    assert np.array_equal(single_site_hamiltonian(trunc, 0.0).entries, harmonic)
    assert np.array_equal(strong_coupling_family(trunc).v, harmonic)
    for lam in (0.3, -0.05 + 0.02j, 1 + 0j):
        h = single_site_hamiltonian(trunc, lam)
        assert np.array_equal(h.entries, anharmonic_family(trunc).matrix(lam))
        assert h.hermitian == (complex(lam).imag == 0.0)
        hs = strong_coupling_hamiltonian(trunc, lam)
        assert np.array_equal(hs.entries, strong_coupling_family(trunc).matrix(lam))
        assert hs.hermitian == h.hermitian
    assert single_site_hamiltonian(trunc, 1 + 0j).entries.dtype == float


@pytest.mark.parametrize("n_max, n_sites", [(2, 1), (4, 1), (4, 3), (6, 2), (2, 5)])
def test_parity_indices_match_per_index_parity(n_max, n_sites):
    from phi4trunc.hamiltonian import parity_indices, parity_of_index

    even, odd = parity_indices(n_max, n_sites)
    par = [parity_of_index(i, n_max, n_sites) for i in range(n_max**n_sites)]
    assert even.tolist() == [i for i, p in enumerate(par) if p == 0]
    assert odd.tolist() == [i for i, p in enumerate(par) if p == 1]
