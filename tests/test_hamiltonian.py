import math

import numpy as np
import pytest

from phi4trunc import (
    LatticeSpec,
    TruncationSpec,
    affine_operator,
    anharmonic_family,
    lattice_hamiltonian,
    single_site_hamiltonian,
    strong_coupling_family,
)
from phi4trunc.algebra import sector_char_poly, sector_indices
from phi4trunc.hamiltonian import _lattice_blocks

from oracles import field_eigenbasis


def site_block(trunc, sector, lam):
    """The even or odd block of the single-site H(lam), cut from the family's H0 and V."""
    h0, v = anharmonic_family(trunc).sector_matrices(sector)
    return h0 + lam * v


def strong_coupling_hamiltonian(trunc, lam_tilde):
    """H_str = phi^4 + lam_tilde omega (a^dag a + 1/2), evaluated from its family."""
    family = strong_coupling_family(trunc)
    return affine_operator(family.h0, family.v, lam_tilde)


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
    e0 = np.linalg.eigvalsh(site_block(TruncationSpec(4), "even", 0.1))[0]
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


def test_lattice_two_site_periodic_double_bond():
    trunc = TruncationSpec(2)
    phi2 = np.array([[0, 1], [1, 0]]) / np.sqrt(2)
    spec = LatticeSpec(2, trunc, kappa=0.1, lam=0.0, boundary="periodic")
    doubled = lattice_hamiltonian(spec).matrix.toarray()
    assert np.allclose(doubled, np.diag([1.0, 2, 2, 3]) - 0.4 * np.kron(phi2, phi2), atol=1e-15)


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
        lattice_hamiltonian(LatticeSpec(6, TruncationSpec(16), 0.1, 0.1))


def test_parity_blocks_nmax4_and_characteristic_factor():
    trunc = TruncationSpec(4)
    assert site_block(trunc, "even", 0.1).shape == (2, 2)
    assert sector_indices(4, "even") == [0, 2]
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
    assert site_block(trunc, "even", 0.4).shape == (1, 1)
    assert site_block(trunc, "odd", 0.4).shape == (1, 1)


@pytest.mark.parametrize("lam", [0.1, 0.9])
def test_parity_block_spectra_unite(lam):
    trunc = TruncationSpec(8)
    h = single_site_hamiltonian(trunc, lam)
    union = np.sort(np.concatenate([
        np.linalg.eigvalsh(site_block(trunc, "even", lam)),
        np.linalg.eigvalsh(site_block(trunc, "odd", lam)),
    ]))
    assert np.max(np.abs(union - np.linalg.eigvalsh(h.entries))) <= 1e-12


@pytest.mark.parametrize("make_family", [anharmonic_family, strong_coupling_family])
@pytest.mark.parametrize("lam", [0.1, -0.3, 0.1 + 0.05j, 2 + 0j])
def test_sector_blocks_evaluate_to_the_cut_of_the_full_operator(make_family, lam):
    # h0[ix] + lam v[ix] is (h0 + lam v)[ix], double for double, under one real/complex rule
    fam = make_family(TruncationSpec(8))
    full = affine_operator(fam.h0, fam.v, lam)
    for sector in ("even", "odd"):
        idx = sector_indices(8, sector)
        block = affine_operator(*fam.sector_matrices(sector), lam)
        assert np.array_equal(block.entries, full.entries[np.ix_(idx, idx)])
        assert block.entries.dtype == full.entries.dtype == (float if complex(lam).imag == 0 else complex)
        assert block.hermitian == full.hermitian == (complex(lam).imag == 0)


def test_lattice_parity_blocks_unite_to_the_full_spectrum():
    # the builder's parity blocks split the whole lattice spectrum, on both boundaries
    for n_sites in (1, 2, 3, 4):
        for boundary in ("open", "periodic"):
            spec = LatticeSpec(n_sites, TruncationSpec(4), kappa=0.1, lam=0.2, boundary=boundary)
            blocks = _lattice_blocks(spec, "parity")
            assert sum(h0.shape[0] for h0, _ in blocks) == spec.dim
            union = np.sort(np.concatenate([np.linalg.eigvalsh(h0.toarray() + 0.2 * v.toarray())
                                            for h0, v in blocks]))
            full = np.linalg.eigvalsh(lattice_hamiltonian(spec).matrix.toarray())
            assert np.max(np.abs(union - full)) <= 1e-12


def test_sparse_triplets_sorted_and_hermitian():
    spec = LatticeSpec(2, TruncationSpec(4), kappa=0.1, lam=0.2, boundary="open")
    h = lattice_hamiltonian(spec)
    trips = h.triplets()
    assert trips == sorted(trips, key=lambda t: (t[0], t[1]))
    lookup = {(r, c): v for r, c, v in trips}
    assert all(abs(lookup[(c, r)] - np.conj(v)) <= 1e-15 for (r, c), v in lookup.items())


def test_single_site_builders_evaluate_their_families_with_exact_diagonal():
    trunc = TruncationSpec(16, 0.75)
    fam, strong = anharmonic_family(trunc), strong_coupling_family(trunc)
    harmonic = np.diag(0.75 * (np.arange(16) + 0.5))
    assert np.array_equal(single_site_hamiltonian(trunc, 0.0).entries, harmonic)
    assert np.array_equal(strong.v, harmonic)
    for lam in (0.3, -0.05 + 0.02j, 1 + 0j):
        h = single_site_hamiltonian(trunc, lam)
        assert np.array_equal(h.entries, fam.h0 + lam * fam.v)
        assert h.hermitian == (complex(lam).imag == 0.0)
        hs = strong_coupling_hamiltonian(trunc, lam)
        assert np.array_equal(hs.entries, strong.h0 + lam * strong.v)
        assert hs.hermitian == h.hermitian
    assert single_site_hamiltonian(trunc, 1 + 0j).entries.dtype == float


@pytest.mark.parametrize("n_max, n_sites", [(2, 1), (4, 1), (4, 3), (6, 2), (2, 5)])
def test_parity_indices_match_per_index_parity(n_max, n_sites):
    from phi4trunc.hamiltonian import _parity_array

    from oracles import parity_of_index

    # the parity of each product index under the lattice blocks, and the single-site sectors
    par = [parity_of_index(i, n_max, n_sites) for i in range(n_max**n_sites)]
    assert _parity_array(n_max, n_sites).tolist() == par
    if n_sites == 1:
        assert sector_indices(n_max, "even") == [i for i, p in enumerate(par) if p == 0]
        assert sector_indices(n_max, "odd") == [i for i, p in enumerate(par) if p == 1]


def _chain_group(n_sites, boundary):
    """The distinct site permutations x -> p[x] of the chain's group.

    Periodic: the dihedral group, translations x -> x + j and reflections
    x -> j - x mod N.  Open: the identity and the reflection x -> N-1-x.
    """
    if boundary == "open":
        return {tuple(range(n_sites)), tuple(range(n_sites))[::-1]}
    return {tuple((sign * x + j) % n_sites for x in range(n_sites)) for j in range(n_sites) for sign in (1, -1)}


def _burnside_orbits(n_max, n_sites, boundary):
    """Orbits of even and of odd total occupation under the chain's group, by Burnside's lemma.

    A state fixed by a permutation is constant on each of its cycles, and
    a cycle of length L adds L times its digit to the occupation.  The
    fixed states are even when every cycle is even, and otherwise half of
    them are (half the n_max digits are odd).  A reflection of an odd
    periodic or open chain fixes n^((N+1)/2) states; one of an even chain
    n^(N/2) (no site fixed) or n^(N/2+1) (two sites fixed, periodic only).
    """
    group = _chain_group(n_sites, boundary)
    fixed_even = fixed_all = 0
    for perm in group:
        seen, lengths = set(), []
        for x in range(n_sites):
            length = 0
            while x not in seen:
                seen.add(x)
                x, length = perm[x], length + 1
            if length:
                lengths.append(length)
        fixed_all += n_max ** len(lengths)
        fixed_even += n_max ** len(lengths) // (2 if any(length % 2 for length in lengths) else 1)
    assert fixed_all % len(group) == fixed_even % len(group) == 0
    return fixed_even // len(group), (fixed_all - fixed_even) // len(group)


@pytest.mark.parametrize("n_max, n_sites, boundary, counts", [
    (4, 4, "periodic", (31, 24)), (4, 8, "periodic", (2259, 2176)), (2, 5, "periodic", (4, 4)),
    (6, 3, "periodic", (28, 28)), (4, 1, "periodic", (2, 2)), (4, 2, "periodic", (6, 4)),
    (6, 4, "periodic", (123, 108)), (2, 6, "periodic", (8, 5)),
    (4, 4, "open", (72, 64)), (4, 8, "open", (16512, 16384)), (2, 5, "open", (10, 10)),
    (6, 3, "open", (63, 63)), (4, 1, "open", (2, 2)), (6, 4, "open", (342, 324)), (2, 6, "open", (20, 16)),
])
def test_sector_dimension_is_the_burnside_count(n_max, n_sites, boundary, counts):
    even, odd = _burnside_orbits(n_max, n_sites, boundary)
    assert (even, odd) == counts
    spec = LatticeSpec(n_sites, TruncationSpec(n_max), 0.1, boundary=boundary)
    sectors = _lattice_blocks(spec, "symmetric")
    assert [(h0.shape, v.shape) for h0, v in sectors] == [((even, even),) * 2, ((odd, odd),) * 2]


@pytest.mark.parametrize("n_sites", [1, 2, 3, 4])
@pytest.mark.parametrize("boundary", ["periodic", "open"])
def test_sector_matrix_is_the_projected_full_matrix(n_sites, boundary):
    # P^T H P with the columns of P the normalised sums over the orbits of
    # the representatives of each parity, the orbits gathered from the
    # rolled (periodic) and the reversed digits, and H the independent
    # dense Hamiltonian
    from oracles import dense_lattice_hamiltonian

    n_max, kappa, lam = 4, 0.3, -0.2
    dim, shape = n_max**n_sites, (n_max,) * n_sites
    digits = np.array(np.unravel_index(np.arange(dim), shape)).T
    h = dense_lattice_hamiltonian(n_sites, n_max, kappa, lam, boundary)
    sectors = _lattice_blocks(LatticeSpec(n_sites, TruncationSpec(n_max), kappa, boundary=boundary), "symmetric")
    shifts = range(n_sites) if boundary == "periodic" else [0]
    for parity, (h0, v) in enumerate(sectors):
        orbits = {}
        for d in digits:
            if d.sum() % 2 == parity:
                images = {int(np.ravel_multi_index(np.roll(e, -j), shape)) for e in (d, d[::-1]) for j in shifts}
                orbits.setdefault(min(images), images)
        p = np.zeros((dim, len(orbits)))
        for col, rep in enumerate(sorted(orbits)):
            p[sorted(orbits[rep]), col] = 1.0 / np.sqrt(len(orbits[rep]))
        assert np.max(np.abs(h0.toarray() + lam * v.toarray() - p.T @ h @ p)) <= 1e-13


@pytest.mark.parametrize("boundary", ["periodic", "open"])
def test_lattice_family_is_the_affine_lattice(boundary):
    from oracles import dense_lattice_hamiltonian

    spec = LatticeSpec(3, TruncationSpec(4), 0.2, 0.0, boundary)
    [(h0, v)] = _lattice_blocks(spec, "full")
    h0, v = h0.toarray(), v.toarray()
    for lam in (-0.3, 0.25):
        h = lattice_hamiltonian(LatticeSpec(3, TruncationSpec(4), 0.2, lam, boundary))
        assert np.max(np.abs(h0 + lam * v - h.matrix.toarray())) <= 1e-13
        assert np.max(np.abs(h0 + lam * v - dense_lattice_hamiltonian(3, 4, 0.2, lam, boundary))) <= 1e-13


@pytest.mark.parametrize("data_dtype, x_dtype", [(float, float), (float, complex), (complex, float),
                                                 (complex, complex)])
def test_csr_matrix_is_its_dense_array(data_dtype, x_dtype):
    # rows 0, 3 and 6 are empty; scipy only builds the reference
    import scipy.sparse as sp

    from phi4trunc.hamiltonian import CSRMatrix

    rng = np.random.default_rng(3)
    dense = rng.standard_normal((7, 7)).astype(data_dtype) * (rng.uniform(size=(7, 7)) < 0.5)
    if data_dtype is complex:
        dense += 1j * rng.standard_normal((7, 7)) * (dense != 0)
    dense[[0, 3, 6]] = 0.0
    dense[2, 2] = 0.0
    ref = sp.csr_matrix(dense)
    m = CSRMatrix(ref.indptr, ref.indices.astype(np.intp), ref.data)
    assert m.shape == (7, 7) and m.nnz == ref.nnz and m.dtype == dense.dtype
    assert np.array_equal(m.toarray(), dense)
    assert np.array_equal(m.rows, np.nonzero(dense)[0])
    assert np.array_equal(m.diagonal(), np.diagonal(dense))
    for seed in (0, 1):  # the second product reuses the matrix's buffer
        x = np.random.default_rng(seed).standard_normal(7).astype(x_dtype)
        assert np.allclose(m @ x, dense @ x, rtol=1e-14, atol=1e-14)
        assert np.array_equal(m @ x, m.matvec(x))
    with pytest.raises(ValueError, match=r"cannot multiply a \(7, 7\) matrix by a vector of shape \(6,\)"):
        m @ np.ones(6)


@pytest.mark.parametrize("lam", [0.0, 0.2, -0.35])
def test_scipy_eigsh_takes_the_lattice_matrix(lam):
    # the benchmark's spectrum check hands this matrix to eigsh and to @
    import scipy.sparse.linalg as spla

    h = lattice_hamiltonian(LatticeSpec(3, TruncationSpec(4), 0.1, lam)).matrix
    want = np.linalg.eigvalsh(h.toarray())
    w, v = spla.eigsh(h, k=2, which="SA", v0=np.ones(h.shape[0]), tol=1e-12)
    assert np.allclose(np.sort(w), want[:2], rtol=1e-10, atol=0)
    assert np.linalg.norm(h @ v[:, 0] - w[0] * v[:, 0]) <= 1e-9


@pytest.mark.parametrize("lam", [0.0, 0.25, 0.1 + 0.05j])
def test_lattice_matrix_stores_only_the_nonzero_entries(lam):
    # at lam = 0 the entries of phi^4 alone cancel and are not stored
    from oracles import dense_lattice_hamiltonian

    h = lattice_hamiltonian(LatticeSpec(3, TruncationSpec(4), 0.1, lam)).matrix
    want = dense_lattice_hamiltonian(3, 4, 0.1, lam)
    rows, cols = np.nonzero(want)
    assert np.array_equal(h.rows, rows) and np.array_equal(h.indices, cols)
    assert np.allclose(h.data, want[rows, cols], rtol=1e-14, atol=1e-15)
