import numpy as np
import pytest
import scipy.sparse as sp

from phi4trunc import (
    LatticeSpec,
    TruncationSpec,
    anharmonic_family,
    dense_spectrum,
    energy_derivatives,
    lanczos_lowest,
    lattice_hamiltonian,
    parity_decompose,
    single_site_hamiltonian,
    singularity_from_derivatives,
)
from phi4trunc.hamiltonian import SparseOperator
from phi4trunc.spectral import SingularityEstimate


def even_levels_nmax4(lam):
    root = 2 * np.sqrt(2) * np.sqrt(27 * lam**2 + 12 * lam + 2)
    return (15 * lam + 6 - root) / 4, (15 * lam + 6 + root) / 4


def odd_levels_nmax4(lam):
    root = 2 * np.sqrt(2) * np.sqrt(27 * lam**2 + 2)
    return (15 * lam + 10 - root) / 4, (15 * lam + 10 + root) / 4


def test_dense_even_sector_closed_form():
    trunc = TruncationSpec(4)
    blocks = parity_decompose(single_site_hamiltonian(trunc, 0.1), trunc)
    res = dense_spectrum(blocks.even, sector="even")
    assert abs(res.eigenvalues[0] - 0.557806) < 5e-7
    e0, e2 = even_levels_nmax4(0.1)
    assert np.allclose(res.eigenvalues, [e0, e2], atol=1e-13)


def test_dense_odd_sector_closed_form():
    trunc = TruncationSpec(4)
    blocks = parity_decompose(single_site_hamiltonian(trunc, 0.1), trunc)
    res = dense_spectrum(blocks.odd, sector="odd")
    e1, e3 = odd_levels_nmax4(0.1)
    expect1 = (11.5 - 2 * np.sqrt(2) * np.sqrt(2.27)) / 4
    assert abs(e1 - expect1) < 1e-14
    assert np.allclose(res.eigenvalues, [e1, e3], atol=1e-13)


def test_dense_harmonic():
    res = dense_spectrum(single_site_hamiltonian(TruncationSpec(8), 0.0))
    assert np.allclose(res.eigenvalues, np.arange(8) + 0.5, atol=1e-14)


def test_dense_complex_coupling_uses_general_solver():
    h = single_site_hamiltonian(TruncationSpec(4), 0.1 + 0.05j)
    res = dense_spectrum(h, want_vectors=True)
    assert res.eigenvectors is not None
    assert np.diff(res.eigenvalues.real).min() >= 0
    for k in range(4):
        resid = h.entries @ res.eigenvectors[:, k] - res.eigenvalues[k] * res.eigenvectors[:, k]
        assert np.max(np.abs(resid)) <= 1e-12


def test_dense_cap():
    big = SparseOperator(sp.identity(5000, format="csr"))
    from phi4trunc.oscillator import OperatorMatrix

    with pytest.raises(ValueError, match="cap"):
        dense_spectrum(OperatorMatrix(np.eye(5000), hermitian=True))
    del big


def test_lanczos_matches_dense_on_small_lattice():
    spec = LatticeSpec(2, TruncationSpec(4), kappa=0.1, lam=0.2, boundary="open")
    h = lattice_hamiltonian(spec)
    low = lanczos_lowest(h, 4, tol=1e-12)
    dense = np.linalg.eigvalsh(h.matrix.toarray())
    assert np.max(np.abs(low.eigenvalues - dense[:4])) <= 1e-9


def test_lanczos_diagonal_matrix_exact():
    diag = sp.diags(np.arange(200.0)).tocsr()
    low = lanczos_lowest(SparseOperator(diag), 5, tol=1e-13)
    assert np.allclose(low.eigenvalues, np.arange(5.0), atol=1e-10)


def test_lanczos_deterministic():
    spec = LatticeSpec(2, TruncationSpec(4), kappa=0.3, lam=0.4, boundary="periodic")
    h = lattice_hamiltonian(spec)
    a = lanczos_lowest(h, 3).eigenvalues
    b = lanczos_lowest(h, 3).eigenvalues
    assert np.array_equal(a, b)


def test_lanczos_rejects_non_hermitian():
    m = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
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
    sos = energy_derivatives(fam, 0, "even", lam0, "sum_over_states")
    fd = energy_derivatives(fam, 0, "even", lam0, "finite_difference")
    assert abs(sos.d1 - fd.d1) / abs(sos.d1) <= 1e-3
    assert abs(sos.d2 - fd.d2) / abs(sos.d2) <= 1e-3
    # fourth differences need a coarser step to beat roundoff
    fd4 = energy_derivatives(fam, 0, "even", lam0, "finite_difference", fd_step=0.02)
    assert abs(sos.d4 - fd4.d4) / abs(sos.d4) <= 1e-3


def test_near_degeneracy_warning():
    fam = anharmonic_family(TruncationSpec(4))
    # at the real part of the exceptional point the even gap is ~ sqrt(2/3),
    # so fabricate a close pair instead: strong family at tiny coupling has
    # well-separated sector levels; use a custom family with a tuned gap
    import phi4trunc.hamiltonian as ham

    h0 = np.diag([0.0, 5.0, 1e-9, 7.0])  # even sector holds indices 0 and 2
    v = np.full((4, 4), 0.1)
    fam2 = ham.CouplingFamily(h0, v, 4, 1, "synthetic")
    with pytest.warns(RuntimeWarning, match="degenerate"):
        energy_derivatives(fam2, 0, "even", 0.0)
    del fam


def test_lattice_family_derivatives_decoupled_limit():
    # at kappa = 0 the lattice ground energy is n_sites times the
    # single-site one, so every lam-derivative scales the same way
    from phi4trunc import lattice_family

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
    fam = ham.CouplingFamily(np.diag([1.0, 5.0, 1.0, 7.0]), np.zeros((4, 4)), 4, 1, "synthetic")
    with pytest.warns(RuntimeWarning, match="degenerate"), \
            pytest.raises(ValueError, match="degenerate"):
        energy_derivatives(fam, 0, "even", 0.0)
