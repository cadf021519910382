import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (SingularityEstimate, energy_derivatives, finite_difference_derivatives,
                     singularity_from_derivatives)

from phi4trunc import (
    LatticeSpec,
    TruncationSpec,
    affine_operator,
    anharmonic_family,
    dense_spectrum,
    lanczos_lowest,
    lattice_ground_energies,
    lattice_hamiltonian,
    single_site_hamiltonian,
)
from phi4trunc import spectral
from phi4trunc.hamiltonian import CSRMatrix, SparseOperator, _lattice_blocks
from phi4trunc.spectral import _sectors_hold_ground


def even_levels_nmax4(lam):
    root = 2 * np.sqrt(2) * np.sqrt(27 * lam**2 + 12 * lam + 2)
    return (15 * lam + 6 - root) / 4, (15 * lam + 6 + root) / 4


def odd_levels_nmax4(lam):
    root = 2 * np.sqrt(2) * np.sqrt(27 * lam**2 + 2)
    return (15 * lam + 10 - root) / 4, (15 * lam + 10 + root) / 4


def test_dense_even_sector_closed_form():
    res = dense_spectrum(affine_operator(*anharmonic_family(TruncationSpec(4)).sector_matrices("even"), 0.1))
    assert abs(res.eigenvalues[0] - 0.557806) < 5e-7
    e0, e2 = even_levels_nmax4(0.1)
    assert np.allclose(res.eigenvalues, [e0, e2], atol=1e-13)


def test_dense_odd_sector_closed_form():
    res = dense_spectrum(affine_operator(*anharmonic_family(TruncationSpec(4)).sector_matrices("odd"), 0.1))
    e1, e3 = odd_levels_nmax4(0.1)
    expect1 = (11.5 - 2 * np.sqrt(2) * np.sqrt(2.27)) / 4
    assert abs(e1 - expect1) < 1e-14
    assert np.allclose(res.eigenvalues, [e1, e3], atol=1e-13)


def test_dense_harmonic():
    res = dense_spectrum(single_site_hamiltonian(TruncationSpec(8), 0.0))
    assert np.allclose(res.eigenvalues, np.arange(8) + 0.5, atol=1e-14)


def test_dense_complex_coupling_uses_general_solver():
    h = single_site_hamiltonian(TruncationSpec(4), 0.1 + 0.05j)
    res = dense_spectrum(h)
    assert np.diff(res.eigenvalues.real).min() >= 0
    assert np.max(np.abs(res.eigenvalues - np.sort_complex(np.linalg.eigvals(h.entries)))) <= 1e-12


def test_dense_cap():
    from phi4trunc.oscillator import OperatorMatrix

    with pytest.raises(ValueError, match="cap"):
        dense_spectrum(OperatorMatrix(np.eye(5000), hermitian=True))


def test_lanczos_matches_dense_on_small_lattice():
    spec = LatticeSpec(2, TruncationSpec(4), kappa=0.1, lam=0.2, boundary="open")
    h = lattice_hamiltonian(spec)
    low = lanczos_lowest(h, 4, tol=1e-12)
    dense = np.linalg.eigvalsh(h.matrix.toarray())
    assert np.max(np.abs(low.eigenvalues - dense[:4])) <= 1e-9


def test_lanczos_diagonal_matrix_exact():
    low = lanczos_lowest(_operator(sp.diags(np.arange(200.0))), 5, tol=1e-13)
    assert np.allclose(low.eigenvalues, np.arange(5.0), atol=1e-10)


def test_lanczos_deterministic():
    spec = LatticeSpec(2, TruncationSpec(4), kappa=0.3, lam=0.4, boundary="periodic")
    h = lattice_hamiltonian(spec)
    a = lanczos_lowest(h, 3).eigenvalues
    b = lanczos_lowest(h, 3).eigenvalues
    assert np.array_equal(a, b)


def _operator(m) -> SparseOperator:
    """The scipy matrix m as a SparseOperator on a CSRMatrix."""
    m = sp.csr_matrix(m)
    m.sort_indices()
    return SparseOperator(CSRMatrix(m.indptr, m.indices, m.data))


def _sparse_symmetric(seed: int, dim: int, copies: int):
    """A random sparse symmetric matrix of size dim, with one block repeated copies times.

    The basis is shuffled, so the repeated eigenvalues sit in no visible block.
    """
    rng = np.random.default_rng(seed)
    size = dim // copies
    a = sp.random(size, size, density=min(1.0, 6.0 / size), random_state=rng, data_rvs=rng.standard_normal)
    blocks = [a + a.T + sp.diags(rng.uniform(-2.0, 2.0, size))] * copies
    if dim > size * copies:
        blocks.append(sp.diags(rng.uniform(-2.0, 2.0, dim - size * copies)))
    perm = rng.permutation(dim)
    return sp.block_diag(blocks, format="csr")[perm][:, perm]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(65, 300), st.sampled_from([1, 2, 3, 5]), st.integers(1, 4))
def test_lanczos_is_dense_eigvalsh_on_random_sparse_matrices(seed, dim, copies, k):
    # scipy only builds the matrices here; copies > 1 repeats every eigenvalue of the block
    m = _sparse_symmetric(seed, dim, copies)
    want = np.linalg.eigvalsh(m.toarray())[:k]
    got = lanczos_lowest(_operator(m), k).eigenvalues
    assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))


BLOCK = np.array([[1.0, 0.5, 0.0], [0.5, 2.0, 0.25], [0.0, 0.25, 3.0]])


@pytest.mark.parametrize("m, k, want", [
    # 22 copies of a 3x3 block: a Krylov space has 3 dimensions at most
    (sp.kron(sp.identity(22), BLOCK), 4, np.linalg.eigvalsh(BLOCK)[0]),
    # every vector is an eigenvector: each Krylov space has one dimension,
    # and for the zero matrix the residual is exactly zero
    (sp.csr_matrix((70, 70)), 3, 0.0),
    (3.0 * sp.identity(70), 3, 3.0),
])
def test_lanczos_restarts_when_the_krylov_space_is_exhausted(m, k, want):
    got = lanczos_lowest(_operator(m), k).eigenvalues
    assert np.allclose(got, [want] * k, rtol=0, atol=1e-12)


@pytest.mark.parametrize("k", [1, 3])
def test_lanczos_is_arpack_on_the_eight_site_sectors(k):
    # both symmetric sectors of the benchmark's 8-site chain (2259 and 2176 states)
    import scipy.sparse.linalg as spla

    lam = 0.15
    for h0, v in _lattice_blocks(LatticeSpec(8, TruncationSpec(4), 0.1), "symmetric"):
        m = sp.csr_matrix((h0.data + lam * v.data, h0.indices, h0.indptr), shape=h0.shape)
        want = np.sort(spla.eigsh(m, k=k, which="SA", tol=1e-14, v0=np.ones(m.shape[0]),
                                  return_eigenvectors=False))
        got = lanczos_lowest(_operator(m), k).eigenvalues
        assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want))


def test_lanczos_and_lattice_energies_reject_k_below_one():
    with pytest.raises(ValueError, match="k must be at least 1, got 0"):
        lanczos_lowest(_operator(sp.identity(80)), 0)
    with pytest.raises(ValueError, match="k must be at least 1, got -2"):
        lattice_ground_energies(LatticeSpec(4, TruncationSpec(4), 0.1), [0.1], k=-2)


def test_lanczos_reads_a_tol_of_zero_or_below_as_machine_epsilon():
    # as ARPACK does: the parent solver's eigsh read tol <= 0 so
    h0, v = _lattice_blocks(LatticeSpec(6, TruncationSpec(4), 0.1), "symmetric")[0]
    m = sp.csr_matrix((h0.data + 0.15 * v.data, h0.indices, h0.indptr), shape=h0.shape)
    eps = lanczos_lowest(_operator(m), 2, tol=np.finfo(float).eps).eigenvalues
    for tol in (0.0, -1.0):
        assert np.array_equal(lanczos_lowest(_operator(m), 2, tol=tol).eigenvalues, eps)
    want = np.linalg.eigvalsh(m.toarray())[:2]
    assert np.all(np.abs(eps - want) <= 1e-12 * np.abs(want))


def test_lanczos_fails_cleanly_past_its_step_limit(monkeypatch):
    # the limit bounds the basis to LANCZOS_MAX_STEPS vectors, whatever tol asks for
    monkeypatch.setattr(spectral, "LANCZOS_MAX_STEPS", 20)
    with pytest.raises(RuntimeError, match="Lanczos failed to converge: 0/2 eigenvalues converged in 20 steps"):
        lanczos_lowest(_operator(sp.diags(np.arange(200.0))), 2)
    with pytest.raises(ValueError, match="k=21 needs more than the 20 steps of one Lanczos run"):
        lanczos_lowest(_operator(sp.diags(np.arange(200.0))), 21)


def test_lanczos_warm_start_keeps_levels_orthogonal_to_near():
    # near is the ground vector of the upper block alone; the lower block's
    # ground level is reached only through the start's random share
    a = _sparse_symmetric(7, 100, 1)
    m = sp.block_diag([a, a - 10.0 * sp.identity(100)], format="csr")
    near = np.r_[np.linalg.eigh(a.toarray())[1][:, 0], np.zeros(100)]
    got = lanczos_lowest(_operator(m), 1, near=near)
    want = np.linalg.eigvalsh(m.toarray())[0]
    assert abs(got.eigenvalues[0] - want) <= 1e-10 * abs(want)
    vec = got.eigenvectors[:, 0]
    assert np.linalg.norm(m @ vec - want * vec) <= 1e-8


def test_warm_started_sweep_is_the_dense_sector_minimum():
    # the 6-site sectors (about 350 states each) take the Lanczos path, each
    # coupling started from the previous one's ground vector
    spec = LatticeSpec(6, TruncationSpec(4), 0.2)
    lams = np.linspace(-0.3, -0.05, 6)
    got = lattice_ground_energies(spec, lams)[:, 0]
    blocks = [(h0.toarray(), v.toarray()) for h0, v in _lattice_blocks(spec, "symmetric")]
    assert min(h0.shape[0] for h0, _ in blocks) > spectral.SECTOR_DENSE_DIM
    want = [min(np.linalg.eigvalsh(h0 + lam * v)[0] for h0, v in blocks) for lam in lams]
    assert np.allclose(got, want, rtol=1e-12, atol=0)


def test_lanczos_rejects_non_hermitian():
    m = _operator(np.array([[0.0, 1.0], [0.0, 0.0]])).matrix
    with pytest.raises(ValueError, match="Hermitian"):
        lanczos_lowest(SparseOperator(m, hermitian=False), 1)


def test_derivatives_at_zero_coupling():
    fam = anharmonic_family(TruncationSpec(4))
    est = energy_derivatives(fam, 0, "even", 0.0)
    assert abs(est.d1 - 0.75) <= 1e-12
    assert abs(est.d2 - (-4.5)) <= 1e-10


def test_hellmann_feynman_first_derivative():
    trunc = TruncationSpec(8)
    fam = anharmonic_family(trunc)
    lam0 = 0.3
    est = energy_derivatives(fam, 0, "even", lam0)
    h0s, vs = fam.sector_matrices("even")
    w, u = np.linalg.eigh(h0s + lam0 * vs)
    expect = u[:, 0] @ vs @ u[:, 0]
    assert abs(est.d1 - expect) <= 1e-10


def test_second_derivative_matches_closed_form():
    # analytic d2 of the even ground level at n_max=4
    fam = anharmonic_family(TruncationSpec(4))
    lam0 = 0.05
    q = 27 * lam0**2 + 12 * lam0 + 2
    d2_exact = -np.sqrt(2) / 2 * (27 / np.sqrt(q) - (27 * lam0 + 6) ** 2 / q**1.5)
    est = energy_derivatives(fam, 0, "even", lam0)
    assert abs(est.d2 - d2_exact) <= 1e-8


def test_schemes_agree_away_from_singularity():
    fam = anharmonic_family(TruncationSpec(4))
    lam0 = 0.6  # more than 2 |lam_s| from the exceptional points
    sos = energy_derivatives(fam, 0, "even", lam0)
    d1, d2, _ = finite_difference_derivatives(fam, 0, lam0)
    assert abs(sos.d1 - d1) / abs(sos.d1) <= 1e-3
    assert abs(sos.d2 - d2) / abs(sos.d2) <= 1e-3
    # fourth differences need a coarser step to beat roundoff
    _, _, d4 = finite_difference_derivatives(fam, 0, lam0, step=0.02)
    assert abs(sos.d4 - d4) / abs(sos.d4) <= 1e-3


def test_near_degeneracy_warning():
    fam = anharmonic_family(TruncationSpec(4))
    # at the real part of the exceptional point the even gap is ~ sqrt(2/3),
    # so fabricate a close pair instead: strong family at tiny coupling has
    # well-separated sector levels; use a custom family with a tuned gap
    import phi4trunc.hamiltonian as ham

    h0 = np.diag([0.0, 5.0, 1e-9, 7.0])  # even sector holds indices 0 and 2
    v = np.full((4, 4), 0.1)
    fam2 = ham.CouplingFamily(h0, v, 4)
    with pytest.warns(RuntimeWarning, match="degenerate"):
        energy_derivatives(fam2, 0, "even", 0.0)
    del fam


def test_lattice_family_derivatives_decoupled_limit():
    # at kappa = 0 the lattice ground energy is n_sites times the
    # single-site one, so every lam-derivative scales the same way
    from types import SimpleNamespace

    def lattice_family(spec):
        blocks = dict(zip(("even", "odd"), _lattice_blocks(spec, "parity")))
        return SimpleNamespace(sector_matrices=lambda sector: tuple(m.toarray() for m in blocks[sector]))

    trunc = TruncationSpec(4)
    single = energy_derivatives(anharmonic_family(trunc), 0, "even", 0.1)
    lat = lattice_family(LatticeSpec(2, trunc, kappa=0.0, lam=0.0))
    coupled = energy_derivatives(lat, 0, "even", 0.1)
    assert coupled.d1 == pytest.approx(2 * single.d1, rel=1e-9)
    assert coupled.d2 == pytest.approx(2 * single.d2, rel=1e-9)
    assert coupled.d4 == pytest.approx(2 * single.d4, rel=1e-7)
    # switching the hop on moves the derivatives away from the scaled value
    lat_hop = lattice_family(LatticeSpec(2, trunc, kappa=0.2, lam=0.0))
    hopped = energy_derivatives(lat_hop, 0, "even", 0.1)
    assert abs(hopped.d2 - 2 * single.d2) > 1e-3


def test_singularity_estimate_nmax4_exact_relations():
    fam = anharmonic_family(TruncationSpec(4))
    width, ratio = singularity_from_derivatives(fam, (0, 2), (-0.35, -0.1))
    assert abs(width.re - (-2.0 / 9.0)) <= 1e-6
    assert abs(width.im - np.sqrt(2) / 9.0) <= 1e-6
    assert abs(ratio.im - np.sqrt(2) / 9.0) <= 1e-6
    assert width.method == "derivative_width"
    assert ratio.method == "derivative_ratio"
    assert abs(width.radius - np.sqrt(2.0 / 27.0)) <= 2e-6


def test_singularity_reference_values_nmax8_ground_pair():
    fam = anharmonic_family(TruncationSpec(8))
    width, _ = singularity_from_derivatives(fam, (0, 2), (-0.09, -0.05), member="lower")
    assert abs(width.re - (-0.0648)) < 5e-5
    assert abs(width.im - 0.00399) < 5e-6


def test_singularity_no_interior_extremum_raises():
    fam = anharmonic_family(TruncationSpec(4))
    with pytest.raises(ValueError, match="interior"):
        singularity_from_derivatives(fam, (0, 2), (0.1, 0.3))


def test_singularity_estimate_requires_upper_half_plane():
    with pytest.raises(ValueError, match="positive"):
        SingularityEstimate(0.1, -0.2, (0, 2), "grid_scan")


def test_mixed_parity_pair_rejected():
    fam = anharmonic_family(TruncationSpec(4))
    with pytest.raises(ValueError, match="parity"):
        singularity_from_derivatives(fam, (0, 1), (-0.3, -0.1))


def test_energy_derivatives_rejects_a_misspelled_sector():
    fam = anharmonic_family(TruncationSpec(4))
    with pytest.raises(ValueError, match="'evn'"):
        energy_derivatives(fam, 0, "evn", 0.1)
    with pytest.raises(ValueError, match="level 1 lies in the odd sector, not 'even'"):
        energy_derivatives(fam, 1, "even", 0.1)


def test_sum_over_states_rejects_exact_degeneracy():
    import phi4trunc.hamiltonian as ham

    # the even sector (indices 0, 2) holds two equal unperturbed energies
    fam = ham.CouplingFamily(np.diag([1.0, 5.0, 1.0, 7.0]), np.zeros((4, 4)), 4)
    with pytest.warns(RuntimeWarning, match="degenerate"), \
            pytest.raises(ValueError, match="degenerate"):
        energy_derivatives(fam, 0, "even", 0.0)


def _dense_ground(n_sites, n_max, kappa, lam, omega=1.0):
    from oracles import dense_lattice_hamiltonian

    return np.linalg.eigvalsh(dense_lattice_hamiltonian(n_sites, n_max, kappa, lam, omega=omega))[0]


def _basis_used(spec, lams, k=1):
    """The basis lattice_ground_energies builds its blocks in, and its energies."""
    build, bases = spectral._lattice_blocks, []

    def recorded(spec, basis):
        bases.append(basis)
        return build(spec, basis)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "_lattice_blocks", recorded)
        got = lattice_ground_energies(spec, lams, k)
    [basis] = bases
    return basis, got


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(2, 1), (2, 4), (2, 7), (4, 1), (4, 2), (4, 3), (4, 4), (4, 5),
                        (6, 2), (6, 3), (8, 2), (8, 3)]),
       st.sampled_from([0.5, 1.0, 2.0]),
       st.floats(0.0, 3.0, exclude_min=True),
       st.floats(-2.0, 20.0))
def test_sector_ground_energy_is_the_dense_ground_energy(size, omega, kappa, lam):
    # whichever basis the proof picks, the energy is the full-space one
    n_max, n_sites = size
    basis, got = _basis_used(LatticeSpec(n_sites, TruncationSpec(n_max, omega), kappa), [lam])
    if n_max <= 4:  # the site field gauges nonnegative at every coupling
        assert basis == "symmetric"
    dense = _dense_ground(n_sites, n_max, kappa, lam, omega)
    assert got.shape == (1, 1)
    assert abs(got[0, 0] - dense) <= 1e-10


@pytest.mark.parametrize("n_max, lam, basis", [
    # 1.39e-17 is the coupling linspace puts in some benchmark lattice-sweep grids
    (4, 1.3877787807814457e-17, "symmetric"),
    (4, 1e-16, "symmetric"),
    (4, 1e-12, "symmetric"),
    (8, 0.1, "parity"),
])
def test_the_sign_proof_picks_the_basis(n_max, lam, basis):
    spec = LatticeSpec(3, TruncationSpec(n_max), 0.1)
    assert _sectors_hold_ground(spec, [-0.2, lam], 1) is (basis == "symmetric")
    used, got = _basis_used(spec, [lam])
    assert used == basis
    dense = _dense_ground(3, n_max, 0.1, lam)
    assert abs(got[0, 0] - dense) <= 1e-12 * max(1.0, abs(dense))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([(2, 3), (6, 2), (10, 2), (2, 6), (4, 4)]),
       st.floats(0.0, 5.0, exclude_min=True),
       st.floats(-100.0, 0.0))
def test_sector_ground_energy_at_negative_coupling_on_any_lattice(size, kappa, lam):
    # lam <= 0 needs no checked lattice: the sectors provably hold the ground state
    n_max, n_sites = size
    got = lattice_ground_energies(LatticeSpec(n_sites, TruncationSpec(n_max), kappa), [lam])
    dense = _dense_ground(n_sites, n_max, kappa, lam)
    assert abs(got[0, 0] - dense) <= 1e-12 * max(1.0, abs(dense))


def test_ground_energy_is_the_lower_of_the_two_sector_minima(monkeypatch):
    import phi4trunc.spectral as spectral

    spec, lams = LatticeSpec(4, TruncationSpec(4), 0.1), [-0.2, 0.1]
    want = lattice_ground_energies(spec, lams)
    sectors = spectral._lattice_blocks(spec, "symmetric")
    monkeypatch.setattr(spectral, "_lattice_blocks", lambda _, basis: sectors[::-1])
    assert np.array_equal(lattice_ground_energies(spec, lams), want)


def test_eight_site_sector_lanczos_is_the_full_space_lanczos():
    # both sectors (2259 and 2176 states) are past SECTOR_DENSE_DIM, so both sides are Lanczos
    trunc = TruncationSpec(4)
    points = [(0.05, 0.1), (0.1, 0.15), (0.15, 0.2)]
    for kappa, lam in points:
        spec = LatticeSpec(8, trunc, kappa, lam)
        full = lanczos_lowest(lattice_hamiltonian(spec), 1, tol=1e-12).eigenvalues[0]
        assert abs(lattice_ground_energies(spec, [lam])[0, 0] - full) <= 1e-10


@pytest.mark.parametrize("omega", [0.5, 1.0, 2.0])
def test_one_and_two_qubit_sites_are_proven_at_every_positive_coupling(omega):
    # near lam = 0 the even-odd block has entries at rounding level, which
    # must neither choose a sign nor fail the check
    lams = list(np.geomspace(1e-18, 1e3, 400))
    for n_max in (2, 4):
        assert spectral._site_field_gauges(TruncationSpec(n_max, omega), lams)


def test_sector_takes_omega_into_the_dimensionless_couplings():
    # H(omega, kappa, lam) = omega H(1, kappa/omega^2, lam/omega^3), and the proof gives both one verdict
    for n_max, omega, lam, proven in [(8, 2.0, 0.1, True), (6, 2.0, 0.8, True), (6, 0.5, 0.0125, True),
                                      (8, 0.5, 0.0125, False)]:
        spec = LatticeSpec(3, TruncationSpec(n_max, omega), 0.1 * omega**2)
        assert _sectors_hold_ground(spec, [lam], 1) is proven
        assert _sectors_hold_ground(LatticeSpec(3, TruncationSpec(n_max), 0.1), [lam / omega**3], 1) is proven
    # n_max = 4 is proven at lam/omega^3 = 1.5 and 4 (omega = 2 and 1/2)
    for spec, lam in [(LatticeSpec(4, TruncationSpec(4, 2.0), 3.0), 12.0),
                      (LatticeSpec(4, TruncationSpec(4, 0.5), 0.1), 0.5)]:
        assert _sectors_hold_ground(spec, [lam], 1)
        dense = _dense_ground(4, 4, spec.kappa, lam, spec.trunc.omega)
        assert abs(lattice_ground_energies(spec, [lam])[0, 0] - dense) <= 1e-10


def _dense_lowest(spec, lams, k):
    return np.array([np.linalg.eigvalsh(lattice_hamiltonian(LatticeSpec(spec.n_sites, spec.trunc, spec.kappa, lam,
                                                                         spec.boundary)).matrix.toarray())[:k]
                     for lam in lams])


@pytest.mark.parametrize("kappa, boundary, k, lams, n_max, n_sites", [
    (0.0, "periodic", 1, [-0.2, 0.1], 4, 4),
    (-0.3, "periodic", 1, [-0.2, 0.1], 4, 4),
    (0.1, "periodic", 3, [-0.2, 0.1], 4, 4),
    # positive couplings at which the site field does not gauge nonnegative
    (0.1, "periodic", 1, [-0.2, 0.1], 8, 2),
    (1.5, "periodic", 1, [-0.2, 0.1], 8, 2),
    (0.1, "periodic", 1, [-0.2, 2.5], 6, 2),
])
def test_ground_energies_outside_the_sector_are_full_space_lanczos(kappa, boundary, k, lams, n_max, n_sites):
    # the parity blocks give the k lowest full-space energies without the full-space matrix
    spec = LatticeSpec(n_sites, TruncationSpec(n_max), kappa, boundary=boundary)
    dense = _dense_lowest(spec, lams, k)
    basis, got = _basis_used(spec, lams, k)
    assert basis == "parity"
    assert got.shape == dense.shape
    assert np.all(np.abs(got - dense) <= 1e-12 * np.maximum(1.0, np.abs(dense)))


@pytest.mark.parametrize("kappa, lams, n_max, n_sites, boundary", [
    (0.1, [-0.2, 0.1], 6, 2, "periodic"),
    (1.5, [-0.2, 0.1], 4, 4, "periodic"),
    (0.1, [-0.2, 2.5], 4, 4, "periodic"),
    (0.1, [-0.2, 0.1], 4, 4, "open"),
    (1.5, [-0.2, 0.1], 4, 5, "open"),
])
def test_ground_energies_in_the_proven_sector_are_the_full_space_ones(kappa, lams, n_max, n_sites, boundary):
    spec = LatticeSpec(n_sites, TruncationSpec(n_max), kappa, boundary=boundary)
    dense = _dense_lowest(spec, lams, 1)
    basis, got = _basis_used(spec, lams)
    assert basis == "symmetric"
    assert np.all(np.abs(got - dense) <= 1e-12 * np.maximum(1.0, np.abs(dense)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.sampled_from([2, 4]), st.sampled_from(["periodic", "open"]),
       st.floats(0.0, 3.0, exclude_min=True), st.floats(-5.0, 5.0))
def test_symmetric_sectors_hold_the_dense_ground_energy(n_sites, n_max, boundary, kappa, lam):
    # wherever the proof holds, on either boundary, the lower of the two
    # symmetric blocks' ground energies is the full-space one
    from oracles import dense_lattice_hamiltonian

    spec = LatticeSpec(n_sites, TruncationSpec(n_max), kappa, boundary=boundary)
    assume(_sectors_hold_ground(spec, [lam], 1))
    got = min(np.linalg.eigvalsh(h0.toarray() + lam * v.toarray())[0]
              for h0, v in _lattice_blocks(spec, "symmetric"))
    want = np.linalg.eigvalsh(dense_lattice_hamiltonian(n_sites, n_max, kappa, lam, boundary))[0]
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_complex_coupling_keeps_the_full_space_error():
    spec = LatticeSpec(4, TruncationSpec(4), 0.1)
    with pytest.raises(ValueError, match=r"Hermitian.*\(-0\.1\+0\.05j\)"):
        lattice_ground_energies(spec, [-0.2, -0.1 + 0.05j])
