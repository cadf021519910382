"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here, not configurable.
"""
import functools
from fractions import Fraction

import numpy as np
import pytest

from phi4trunc import (
    LatticeSpec,
    TruncationSpec,
    affine_operator,
    build_trotter_plan,
    count_resources,
    dense_spectrum,
    dyson_series,
    evolve_projector_method,
    exact_amplitude,
    gap_scan,
    lanczos_lowest,
    lattice_ground_energies,
    lattice_hamiltonian,
    pauli_decompose,
    perturbed_projector,
    radius_estimate,
    refine_exceptional_point,
    simulate_trotter,
    single_site_hamiltonian,
    site_blocks,
    sylvester_discriminant,
    trotter_step_unitary,
    weak_series,
)
from phi4trunc.cli import _domain_blocks
from phi4trunc.spectral import curvature_peak, stencil_derivatives

from oracles import (benderwu_continuum, dense_lattice_hamiltonian, singularity_from_derivatives,
                     structural_pauli_count)

F = Fraction

EP4_EVEN = -(2 - 1j * np.sqrt(2)) / 9
EP4_ODD = 1j * np.sqrt(2.0 / 27.0)


def criterion(num, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:>3}  FAIL  {title}")
                raise
            print(f"criterion {num:>3}  PASS  {title}")
        return wrapper
    return decorate


@criterion("1", "n_max=4 closed forms, exceptional points, radius")
def test_c01_nmax4_exact_closed_forms():
    trunc = TruncationSpec(4)
    blocks = functools.partial(site_blocks, trunc)
    for lam in np.linspace(-0.5, 1.0, 151):
        even = dense_spectrum(affine_operator(*blocks("even"), lam))
        odd = dense_spectrum(affine_operator(*blocks("odd"), lam))
        root_e = 2 * np.sqrt(2) * np.sqrt(27 * lam**2 + 12 * lam + 2)
        root_o = 2 * np.sqrt(2) * np.sqrt(27 * lam**2 + 2)
        expect_e = np.sort([(15 * lam + 6 - root_e) / 4, (15 * lam + 6 + root_e) / 4])
        expect_o = np.sort([(15 * lam + 10 - root_o) / 4, (15 * lam + 10 + root_o) / 4])
        assert np.max(np.abs(even - expect_e)) <= 1e-12
        assert np.max(np.abs(odd - expect_o)) <= 1e-12

    refined_e = refine_exceptional_point(*blocks("even"), -0.2 + 0.15j)
    assert refined_e.exceptional and abs(refined_e.location - EP4_EVEN) <= 1e-6
    refined_o = refine_exceptional_point(*blocks("odd"), 0.02 + 0.26j)
    assert refined_o.exceptional and abs(refined_o.location - EP4_ODD) <= 1e-6

    res_e = sylvester_discriminant(trunc, "even").roots()
    assert min(abs(z - EP4_EVEN) for z in res_e) <= 1e-6
    res_o = sylvester_discriminant(trunc, "odd").roots()
    assert min(abs(z - EP4_ODD) for z in res_o) <= 1e-6

    radius = abs(refined_e.location)
    assert abs(radius - 0.272166) <= 5e-7


@criterion("2", "weak-series rationals for n_max=4 levels 0 and 2")
def test_c02_series_exact_rationals():
    trunc = TruncationSpec(4)
    assert weak_series(trunc, 0, max_order=4).coeffs == \
        [F(1, 2), F(3, 4), F(-9, 4), F(27, 4), F(-567, 32)]
    assert weak_series(trunc, 2, max_order=4).coeffs == \
        [F(5, 2), F(27, 4), F(9, 4), F(-27, 4), F(567, 32)]


@criterion("3", "continuum check and n_max=4 large-order slope")
def test_c03_continuum_and_slope(n4_e0_series_200):
    ser32 = weak_series(TruncationSpec(32), 0, max_order=6)
    oracle = benderwu_continuum(6)
    assert oracle[:4] == [F(1, 2), F(3, 4), F(-21, 8), F(333, 16)]
    for mine, ref in zip(ser32.coeffs, oracle):
        if ref == 0:
            assert mine == 0
            continue
        rel = abs(mine - ref) / abs(ref)
        assert rel <= 1e-5, f"coefficient {mine} vs {ref} beyond 5 significant digits"

    _, slope = radius_estimate(n4_e0_series_200, 100, 200)
    assert abs(slope - 1.292) <= 0.01
    assert slope < float(np.log(np.sqrt(27.0 / 2.0)))  # 1.30134 asymptote


@criterion("4a", "n_max=8 level radii, series fits and derivative estimates")
def test_c04a_nmax8_radii(n8_even_series_200):
    series_expect = {0: 0.0651, 2: 0.0454, 4: 0.0329}
    for level, expect in series_expect.items():
        radius, _ = radius_estimate(n8_even_series_200[level], 100, 200)
        assert abs(radius - expect) <= 2e-4, f"series radius level {level}: {radius:.5f}"

    blocks = functools.partial(site_blocks, TruncationSpec(8))
    windows = {(0, 2): (-0.09, -0.05), (2, 4): (-0.055, -0.03), (4, 6): (-0.03, 0.01)}
    der_expect = {(0, 2): 0.0649, (2, 4): 0.0456, (4, 6): 0.0330}
    for pair, window in windows.items():
        _, ratio_est = singularity_from_derivatives(blocks, pair, window, member="upper")
        assert abs(ratio_est.radius - der_expect[pair]) <= 2e-4, \
            f"derivative radius pair {pair}: {ratio_est.radius:.5f}"


@criterion("4b", "n_max=16 level radii from series fits (eight levels, 5%)")
def test_c04b_nmax16_radii(n16_even_series_100):
    # Level 4 is limited by the (4, 6) coalescence at |lam| = 0.016953, a
    # root of the integer resultant labelled by eigenvalue tracking in
    # test_singularities.py; 0.0191 was the (8, 10) point, which cannot
    # limit level 4.
    expect = {0: 0.0245, 2: 0.0205, 4: 0.0170, 6: 0.0144,
              8: 0.0113, 10: 0.00864, 12: 0.00621, 14: 0.00621}
    failures = []
    for level, target in expect.items():
        radius, _ = radius_estimate(n16_even_series_100[level], 50, 100)
        if abs(radius - target) / target > 0.05:
            failures.append(f"level {level}: fit {radius:.5f} vs reference {target}")
    assert not failures, "; ".join(failures)


@criterion("5", "n_max=8 pair (0,2): direct search and derivative estimate")
def test_c05_direct_search_values():
    blocks = functools.partial(site_blocks, TruncationSpec(8))
    width_est, _ = singularity_from_derivatives(blocks, (0, 2), (-0.09, -0.05), member="lower")
    assert abs(width_est.re - (-0.0648)) < 5e-5
    assert abs(width_est.im - 0.00399) < 5e-6

    seed = complex(width_est.re, width_est.im)
    refined = refine_exceptional_point(*blocks("even"), seed)
    assert refined.exceptional
    target = complex(-0.06473, 0.00391)
    found = complex(refined.location.real, abs(refined.location.imag))
    assert abs(found - target) <= 1e-4


@criterion("6", "projector coefficient matrices and successive approximations")
def test_c06_projector_series_values():
    trunc = TruncationSpec(4)
    ser, _ = perturbed_projector(trunc, 0, order=4)
    assert [ser.weighted[m][0][0] for m in range(5)] == \
        [F(1), F(0), F(-9, 8), F(27, 4), F(-1701, 64)]
    assert [ser.weighted[m][0][2] for m in range(5)] == \
        [F(0), F(-3, 2), F(9, 2), F(-81, 8), F(81, 8)]
    assert [ser.weighted[m][2][2] for m in range(5)] == \
        [F(0), F(0), F(9, 8), F(-27, 4), F(1701, 64)]

    e_sums = [float(s) for s in weak_series(trunc, 0, max_order=4).partial_sums(F(1, 10))]
    assert e_sums == pytest.approx([0.5, 0.575, 0.5525, 0.55925, 0.557478], abs=5e-7)
    sums, acc = [], 0.0
    for m in range(5):
        acc += ser.coefficient_matrix(m)[2, 0] * 0.1**m
        sums.append(acc)
    assert sums == pytest.approx(
        [0.0, -0.106066, -0.0742462, -0.0814057, -0.0806897], abs=5e-7)

    t = np.linspace(0.0, 20.0, 401)
    amp = evolve_projector_method(trunc, 4, 0.1, t, 0, 2)
    exact = np.abs(exact_amplitude(single_site_hamiltonian(trunc, 0.1), t, 0, 2)) ** 2
    assert np.max(np.abs(np.abs(amp) ** 2 - exact)) <= 1e-3


@criterion("7", "Dyson order-2 closed form, symbolic and numeric")
def test_c07_dyson_order2():
    trunc = TruncationSpec(4)
    lam = F(1, 10)
    amp = dyson_series(trunc, 2, lam, 0, 2)
    terms = {(k, w + F(5, 2)): c for (k, w), c in amp.poly.terms.items()}  # strip global phase
    c2 = F(9, 16) * lam * lam
    assert terms == {
        (0, F(2)): (F(-3, 4) * lam + 4 * c2, F(0)),
        (0, F(0)): (F(3, 4) * lam - 4 * c2, F(0)),
        (1, F(2)): (F(0), c2),
        (1, F(0)): (F(0), -9 * c2),
    }

    h = single_site_hamiltonian(trunc, 0.1)
    import mpmath as mp

    for t in (0.8, 2.0, 7.5):
        with mp.workdps(50):
            def entry(lam_v):
                he = mp.matrix([
                    [3 * lam_v / 4 + mp.mpf(1) / 2, 3 * lam_v / mp.sqrt(2)],
                    [3 * lam_v / mp.sqrt(2), 27 * lam_v / 4 + mp.mpf(5) / 2],
                ])
                return mp.expm(-1j * he * t)[1, 0]

            step = mp.mpf(10) ** -10
            vals = {k: entry(k * step) for k in (-2, -1, 0, 1, 2)}
            c1 = (vals[-2] - 8 * vals[-1] + 8 * vals[1] - vals[2]) / (12 * step)
            c2v = (-vals[-2] + 16 * vals[-1] - 30 * vals[0] + 16 * vals[1] - vals[2]) / (24 * step**2)
            taylor = complex(vals[0] + c1 / 10 + c2v / 100)
        assert abs(amp.trace([t])[0] - taylor) <= 1e-12
    del h


@criterion("8", "sector resultant polynomials and root cross-check")
def test_c08_resultants():
    poly4 = sylvester_discriminant(TruncationSpec(4), "even")
    assert poly4.coeffs == [-8192 * 2, -8192 * 12, -8192 * 27]

    poly8 = sylvester_discriminant(TruncationSpec(8), "even")
    bracket = [36864, 3698688, 194833408, 6739041792, 157100611648, 2408867895168,
               23876641218976, 156815960599872, 729625498514388, 2315977875333360,
               4112778331991700, 2446821666009000, 828875955639375]
    assert poly8.coeffs == [(1 << 60) * c for c in bracket]

    blocks = site_blocks(TruncationSpec(8), "even")
    for root in poly8.roots():
        if root.imag <= 1e-9:
            continue
        refined = refine_exceptional_point(*blocks, root)
        assert refined.exceptional
        assert abs(complex(refined.location.real, abs(refined.location.imag)) - root) <= 1e-6


@criterion("9", "strong-to-weak singularity inversion")
def test_c09_strong_weak_map():
    trunc = TruncationSpec(8)
    strong = _domain_blocks("strong", trunc, "even")
    grid = gap_scan(*strong, ((-13.0, -5.0), (25.0, 34.0)), (65, 70))
    j, i = np.unravel_index(np.nanargmin(grid.values), grid.values.shape)
    seed = complex(grid.re_axis()[i], grid.im_axis()[j])
    refined = refine_exceptional_point(*strong, seed)
    assert refined.exceptional
    mapped = 1 / refined.location
    assert abs(mapped.real - (-0.0093)) <= 0.1 * 0.0093
    assert abs(mapped.imag - (-0.032)) <= 0.1 * 0.032

    wgrid = gap_scan(*site_blocks(trunc, "even"), ((-0.016, -0.003), (-0.038, -0.026)), (53, 49))
    j, i = np.unravel_index(np.nanargmin(wgrid.values), wgrid.values.shape)
    wmin = complex(wgrid.re_axis()[i], wgrid.im_axis()[j])
    assert abs(wmin.real - (-0.0093)) <= 0.1 * 0.0093
    assert abs(wmin.imag - (-0.032)) <= 0.1 * 0.032


@criterion("10a", "Pauli decomposition of the n_max=4 Hamiltonian, six closed-form terms")
def test_c10a_pauli_symbolic():
    trunc = TruncationSpec(4)
    lam_a, lam_b = 1.0 / 3.0, 1.0 / 7.0
    deca = {t.string: t.coeff for t in pauli_decompose(single_site_hamiltonian(trunc, lam_a), 2).terms}
    decb = {t.string: t.coeff for t in pauli_decompose(single_site_hamiltonian(trunc, lam_b), 2).terms}
    slopes = {"XI": 3 * (np.sqrt(2) + np.sqrt(6)) / 4, "ZI": -1.5, "IZ": 0.0,
              "ZZ": -1.5, "XZ": 3 * (np.sqrt(2) - np.sqrt(6)) / 4}
    intercepts = {"XI": 0.0, "ZI": -1.0, "IZ": -0.5, "ZZ": 0.0, "XZ": 0.0}
    assert set(deca) == set(slopes)
    for s in slopes:
        beta = (deca[s] - decb[s]) / (lam_a - lam_b)
        alpha = deca[s] - beta * lam_a
        assert abs(beta - slopes[s]) <= 1e-12
        assert abs(alpha - intercepts[s]) <= 1e-12
    deci = pauli_decompose(single_site_hamiltonian(trunc, lam_a), 2).identity_coeff
    assert abs(deci - (15 * lam_a / 4 + 2)) <= 1e-12


@criterion("10b", "gate-resource counts for n_q = 2..8")
def test_c10b_resource_counts():
    ref_nnz = {2: 5, 3: 19, 4: 55, 5: 143, 6: 351, 7: 831, 8: 1919}
    ref_bound = {2: 25, 3: 133, 4: 495, 5: 1573, 6: 4563, 7: 12465, 8: 32623}
    # the reference row is the exact integer count, independent of the package
    assert ref_nnz == {n_q: structural_pauli_count(n_q) for n_q in ref_nnz}
    failures = []
    for n_q in range(2, 9):
        est = count_resources(n_q)
        if est.n_nz != ref_nnz[n_q] or est.depth_bound != ref_bound[n_q]:
            failures.append(
                f"n_q={n_q}: counted {est.n_nz} (bound {est.depth_bound}) vs "
                f"reference {ref_nnz[n_q]} ({ref_bound[n_q]})"
            )
    assert not failures, (
        "; ".join(failures)
        + " -- the reference row is the exact Walsh-Hadamard count of tests/oracles.py"
    )


@criterion("10c", "Trotter dt^2 step scaling and exact parity conservation")
def test_c10c_trotter_scaling_parity():
    trunc = TruncationSpec(4)
    h = single_site_hamiltonian(trunc, 0.1)
    dec = pauli_decompose(h, 2)
    w, v = np.linalg.eigh(h)
    errs = []
    for dt in (0.2, 0.1, 0.05):
        plan = build_trotter_plan(dec, dt, 1)
        u = trotter_step_unitary(plan)
        exact = (v * np.exp(-1j * w * dt)) @ v.conj().T * np.exp(1j * dec.identity_coeff * dt)
        errs.append(np.linalg.norm(u - exact, 2))
    assert abs(errs[0] / errs[1] - 4.0) <= 0.5
    assert abs(errs[1] / errs[2] - 4.0) <= 0.5

    plan = build_trotter_plan(dec, 0.1, 100)
    sim = simulate_trotter(plan, 0, [1, 3])
    assert np.max(sim["probabilities"]) <= 1e-12


@criterion("11a", "lattice: Lanczos ground energy matches dense")
def test_c11a_lattice_lanczos_vs_dense():
    trunc = TruncationSpec(4)
    for lam in (-0.2, 0.1):
        spec = LatticeSpec(4, trunc, kappa=0.1, lam=lam, boundary="periodic")
        h = lattice_hamiltonian(spec)
        ground = lanczos_lowest(h, 1, tol=1e-12)[0][0]
        dense = np.linalg.eigvalsh(h.matrix.toarray())[0]
        assert abs(ground - dense) <= 1e-9


def _lattice_peak_and_width(kappa, lo, hi, n=161):
    lams = np.linspace(lo, hi, n)
    spec = LatticeSpec(4, TruncationSpec(4), kappa)
    energies = lattice_ground_energies(spec, lams, tol=1e-11)[:, 0]
    return _curvature_peak_and_width(lams, energies)


def _curvature_peak_and_width(lams, energies):
    n = len(lams)
    step = lams[1] - lams[0]
    d2 = np.full(n, np.nan)
    for i in range(2, n - 2):
        f = energies[i - 2: i + 3]
        d2[i] = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * step**2)
    interior = np.arange(2, n - 2)
    ipk = interior[np.argmax(np.abs(d2[interior]))]
    half = abs(d2[ipk]) / 2.0
    left = right = np.nan
    for i in range(ipk, 1, -1):
        if abs(d2[i]) < half:
            x0, x1, y0, y1 = lams[i], lams[i + 1], abs(d2[i]), abs(d2[i + 1])
            left = x0 + (half - y0) * (x1 - x0) / (y1 - y0)
            break
    for i in range(ipk, n - 2):
        if abs(d2[i]) < half:
            x0, x1, y0, y1 = lams[i - 1], lams[i], abs(d2[i - 1]), abs(d2[i])
            right = x0 + (half - y0) * (x1 - x0) / (y1 - y0)
            break
    width = right - left
    im_est = width / (2.0 * np.sqrt(2.0 ** (2.0 / 3.0) - 1.0))
    return lams[ipk], im_est


def test_shared_stencil_matches_the_oracle_stencil():
    # one energy array through spectral's stencil and half-maximum width and
    # through the copy above: the same floats.  E = -sqrt((lam - a)^2 + b^2)
    # is a two-level branch point at a + i b, where the width rule is exact.
    lams = np.linspace(-0.3, 0.02, 161)
    energies = -np.sqrt((lams + 0.146) ** 2 + 0.03**2)
    derivs = stencil_derivatives(lams, energies)
    peak, im_est = curvature_peak(lams, derivs[:, 1])
    assert (peak, im_est) == _curvature_peak_and_width(lams, energies)
    assert abs(im_est - 0.03) <= 1e-3
    assert np.isnan(derivs[:2]).all() and np.isnan(derivs[-2:]).all()
    with pytest.warns(RuntimeWarning, match="grid boundary"):
        assert np.isnan(curvature_peak(lams, -np.abs(lams - 0.01))).all()


@criterion("11b", "lattice: E0'' peak at hop strength 2 kappa = 0.1 within 15% of -2/9")
def test_c11b_lattice_peak_location():
    # The hop is -2 kappa sum_x phi_x phi_{x+1} (hamiltonian.py), so weak
    # hopping of strength 0.1 is kappa = 0.05.
    peak, _ = _lattice_peak_and_width(0.05, -0.30, 0.02)
    target = -2.0 / 9.0
    assert abs(peak - target) <= 0.15 * abs(target), \
        f"peak at {peak:.4f} vs single-site {target:.4f}"

    # At kappa = 0.1 the peak sits at -0.146 for the package's sweep (the
    # dihedral-symmetric, even-parity sector) and for an independent dense build of
    # the same H on the full space.
    spec = LatticeSpec(4, TruncationSpec(4), 0.1, -0.146, "periodic")
    assert np.max(np.abs(lattice_hamiltonian(spec).matrix.toarray()
                         - dense_lattice_hamiltonian(4, 4, 0.1, -0.146))) <= 1e-13
    lams = np.linspace(-0.30, 0.02, 161)
    dense = np.array([np.linalg.eigvalsh(dense_lattice_hamiltonian(4, 4, 0.1, lam))[0]
                      for lam in lams])
    dense_peak, _ = _curvature_peak_and_width(lams, dense)
    swept_peak, _ = _lattice_peak_and_width(0.1, -0.30, 0.02)
    assert swept_peak == dense_peak
    assert abs(dense_peak - (-0.146)) <= 1e-9


@criterion("11c", "lattice: Im lam_s estimate decreases monotonically in kappa")
def test_c11c_lattice_imaginary_part_monotone():
    windows = {0.1: (-0.30, 0.02), 0.2: (-0.22, 0.07), 0.3: (-0.12, 0.13),
               0.4: (-0.03, 0.22), 0.5: (0.05, 0.30)}
    ims = []
    for kappa, (lo, hi) in windows.items():
        _, im_est = _lattice_peak_and_width(kappa, lo, hi)
        assert np.isfinite(im_est)
        ims.append(im_est)
    assert all(a > b for a, b in zip(ims, ims[1:])), f"not monotone: {ims}"


@criterion("12", "no gap minima on the positive real axis (n_max = 8, 16, 32)")
def test_c12_no_positive_axis_pinching():
    for n_max in (8, 16, 32):
        for sector in ("even", "odd"):
            grid = gap_scan(*site_blocks(TruncationSpec(n_max), sector), ((1e-3, 1.0), (0.0, 0.0)), (200, 1))
            assert np.nanmin(grid.values) > 1e-5, f"n_max={n_max} {sector}"
