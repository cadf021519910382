from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phi4trunc import (
    TruncationSpec,
    anharmonic_family,
    gap_scan,
    refine_exceptional_point,
    strong_coupling_family,
    strong_weak_map,
    sylvester_discriminant,
    riemann_export,
)
from phi4trunc.algebra import sector_char_poly
from phi4trunc.hamiltonian import CouplingFamily
from phi4trunc.singularities import (
    _CLOSED_FORM_LEVELS,
    _GRID_CHUNK,
    ResultantPolynomial,
    _aberth_roots,
    _closed_form_gaps,
    _disks_certify,
    _float_char_poly,
    _mollweide,
    grid_gaps,
    min_sector_gaps,
)

from oracles import (
    bareiss_det_poly,
    coalescing_levels,
    lambda_to_sphere,
    mollweide_project,
    mp_sector_gaps,
    sylvester_rows,
)

EP4_EVEN = -(2 - 1j * np.sqrt(2)) / 9
EP4_ODD = 1j * np.sqrt(2.0 / 27.0)

# reference even-sector resultant for n_max=8 (inner bracket, 2^60 outside)
N8_BRACKET = [36864, 3698688, 194833408, 6739041792, 157100611648, 2408867895168,
              23876641218976, 156815960599872, 729625498514388, 2315977875333360,
              4112778331991700, 2446821666009000, 828875955639375]


def test_gap_scan_finds_nmax4_even_minima():
    fam = anharmonic_family(TruncationSpec(4))
    grid = gap_scan(fam, ((-0.4, 0.1), (-0.3, 0.3)), (101, 121), "even")
    point, gap = grid.min_point()
    assert min(abs(point - EP4_EVEN), abs(point - np.conj(EP4_EVEN))) < 0.01
    # the gap rises like sqrt(distance), so a grid-spacing miss still reads ~0.2
    assert gap < 0.3
    assert grid.failures == 0


def test_gap_scan_conjugation_symmetry():
    fam = anharmonic_family(TruncationSpec(8))
    grid = gap_scan(fam, ((-0.08, -0.05), (-0.02, 0.02)), (21, 21), "even")
    vals = grid.values
    assert np.max(np.abs(vals - vals[::-1, :])) <= 1e-10


def test_gap_scan_threaded_matches_serial():
    # n_max 10: five-level blocks go to the eigensolver, on threads
    fam = anharmonic_family(TruncationSpec(10))
    region = ((-0.3, 0.0), (0.0, 0.25))
    # 61 x 41 couplings, none mirrored: four chunks of the grid kernel
    assert 61 * 41 >= 4 * _GRID_CHUNK
    serial = gap_scan(fam, region, (61, 41), "even", workers=1)
    threaded = gap_scan(fam, region, (61, 41), "even", workers=4)
    assert np.array_equal(serial.values, threaded.values)


def test_refine_even_and_odd_nmax4():
    fam = anharmonic_family(TruncationSpec(4))
    even = refine_exceptional_point(fam, -0.2 + 0.15j, "even")
    assert even.exceptional
    assert abs(even.location - EP4_EVEN) <= 1e-6
    odd = refine_exceptional_point(fam, 0.02 + 0.25j, "odd")
    assert odd.exceptional
    assert abs(odd.location - EP4_ODD) <= 1e-6
    assert odd.location.imag != 0


def test_refine_nmax8_ground_pair_direct_search_values():
    fam = anharmonic_family(TruncationSpec(8))
    res = refine_exceptional_point(fam, -0.065 + 0.004j, "even")
    assert res.exceptional
    assert abs(res.location.real - (-0.06473)) <= 1e-4
    assert abs(abs(res.location.imag) - 0.00391) <= 1e-4


def test_real_axis_guess_classified_avoided():
    fam = anharmonic_family(TruncationSpec(4))
    res = refine_exceptional_point(fam, 0.3 + 0.0j, "even")
    assert not res.exceptional
    assert res.gap > 1e-3
    assert res.location.imag == 0.0
    # with V = 0 the gap never rises, so the downhill walk runs out
    flat = CouplingFamily(fam.h0, np.zeros_like(fam.v), 4)
    with pytest.raises(ValueError, match=r"guess \(0\.3\+0j\)"):
        refine_exceptional_point(flat, 0.3 + 0.0j, "even")


@pytest.mark.parametrize("n_max, sector, x0", [(4, "even", 0.3), (8, "even", -0.05), (8, "odd", 0.1)])
def test_real_axis_minimum_is_the_scipy_minimum(n_max, sector, x0):
    # scipy's Brent search from the same first step is the reference; at
    # (8, even, -0.05) the minimum lies 0.015 away, past that first step
    from scipy.optimize import minimize_scalar

    fam = anharmonic_family(TruncationSpec(n_max))
    h0s, vs = fam.sector_matrices(sector)

    def gap(x):
        return abs(min_sector_gaps(h0s, vs, np.array([complex(x, 0.0)]))[0])

    ref = minimize_scalar(gap, bracket=(x0, x0 + 1e-3 * max(1.0, abs(x0))))
    res = refine_exceptional_point(fam, complex(x0, 0.0), sector)
    assert res.location.imag == 0.0 and not res.exceptional
    assert abs(res.location.real - ref.x) <= 1e-6
    assert abs(res.gap - gap(ref.x)) <= 1e-9


def test_resultant_nmax4_even_exact():
    poly = sylvester_discriminant(TruncationSpec(4), "even")
    assert poly.coeffs == [-8192 * 2, -8192 * 12, -8192 * 27]
    roots = sorted(poly.roots(), key=lambda z: z.imag)
    assert abs(roots[1] - EP4_EVEN) <= 1e-10
    assert poly.degree_deficit == 0


def test_resultant_nmax4_odd_exact_roots():
    poly = sylvester_discriminant(TruncationSpec(4), "odd")
    roots = sorted(poly.roots(), key=lambda z: z.imag)
    assert abs(roots[1] - EP4_ODD) <= 1e-10
    assert abs(roots[0] + EP4_ODD) <= 1e-10


def test_resultant_nmax8_even_matches_reference_integers():
    poly = sylvester_discriminant(TruncationSpec(8), "even")
    assert poly.coeffs == [(1 << 60) * c for c in N8_BRACKET]
    assert poly.degree == 12 and poly.degree_deficit == 0


@pytest.mark.parametrize("omega", [1, Fraction(1, 2), Fraction(3, 2)])
@pytest.mark.parametrize("sector", ["even", "odd"])
@pytest.mark.parametrize("n_max", [4, 6, 8, 10, 12])
def test_interpolated_resultant_is_the_polynomial_bareiss_oracle(n_max, sector, omega):
    # values at s(s-1) + 1 integer couplings, interpolated, against Bareiss
    # elimination on the integer polynomial entries of the Sylvester matrix
    trunc = TruncationSpec(n_max, omega)
    oracle = bareiss_det_poly(sylvester_rows(sector_char_poly(trunc, sector)))
    assert sylvester_discriminant(trunc, sector).coeffs == oracle


@pytest.mark.parametrize("sector", ["even", "odd"])
@pytest.mark.parametrize("n_max", [4, 8])
def test_resultant_roots_match_refined_points(n_max, sector):
    trunc = TruncationSpec(n_max)
    fam = anharmonic_family(trunc)
    poly = sylvester_discriminant(trunc, sector)
    roots = [z for z in poly.roots() if z.imag > -1e-12]
    for root in roots:
        seed = complex(root.real, root.imag if root.imag > 1e-9 else 1e-4)
        res = refine_exceptional_point(fam, seed, sector)
        assert res.exceptional, f"root {root} did not refine to an exceptional point"
        target = complex(root.real, abs(root.imag))
        found = complex(res.location.real, abs(res.location.imag))
        assert abs(found - target) <= 1e-6


def _polyroots_oracle(coeffs):
    with mpmath.workdps(60):
        roots = mpmath.polyroots([mpmath.mpf(c) for c in reversed(coeffs)],
                                 maxsteps=200, extraprec=240)
    return np.array([complex(z) for z in roots])


def _fail(*args, **kwargs):
    raise AssertionError("mp.polyroots reached on a certified input")


@pytest.mark.parametrize("sector", ["even", "odd"])
@pytest.mark.parametrize("n_max", [4, 6, 8, 10, 12])
def test_certified_roots_equal_polyroots_oracle(n_max, sector, monkeypatch):
    # the certified Aberth path never falls back here, and its doubles are
    # those of mp.polyroots at 60 digits, the slow independent oracle
    poly = sylvester_discriminant(TruncationSpec(n_max), sector)
    with monkeypatch.context() as m:
        m.setattr(mpmath, "polyroots", _fail)
        roots = np.sort_complex(poly.roots())
    s = n_max // 2
    assert len(roots) == s * (s - 1)
    assert np.array_equal(roots, np.sort_complex(roots.conj()))
    assert np.array_equal(roots, np.sort_complex(_polyroots_oracle(poly.coeffs)))


def test_certified_roots_chop_parts_like_polyroots(monkeypatch):
    # (lam - 1)(lam - 2)(lam^2 + 1): real and imaginary roots come back with
    # exactly zero imaginary and real parts, as mp.polyroots returns them
    coeffs = [2, -3, 3, -3, 1]
    with monkeypatch.context() as m:
        m.setattr(mpmath, "polyroots", _fail)
        roots = np.sort_complex(ResultantPolynomial(coeffs, "even", 4).roots())
    assert list(roots) == [-1j, 1j, 1.0, 2.0]
    assert np.array_equal(roots, np.sort_complex(_polyroots_oracle(coeffs)))


def test_roots_fall_back_when_doubles_cannot_separate_them(monkeypatch):
    # (lam - 1)(10^25 lam - 10^25 - 1): the roots 1 and 1 + 1e-25 share one
    # double, so the companion-matrix seeds coincide and Aberth cannot start
    big = 10**25
    poly = ResultantPolynomial([big + 1, -(2 * big + 1), big], "even", 4)
    calls = []
    real_polyroots = mpmath.polyroots

    def counting(*args, **kwargs):
        calls.append(1)
        return real_polyroots(*args, **kwargs)

    monkeypatch.setattr(mpmath, "polyroots", counting)
    roots = poly.roots()
    assert len(calls) == 1
    assert list(roots) == [1.0, 1.0]


def test_roots_of_coefficients_past_a_double(monkeypatch):
    # omega 11/10 at n_max 14: coefficients of up to 2,900 bits, where a
    # float of one overflows; the seeds take each sign from the integer
    poly = sylvester_discriminant(TruncationSpec(14, Fraction(11, 10)), "even")
    assert max(abs(c) for c in poly.coeffs).bit_length() > 1100
    with monkeypatch.context() as m:
        m.setattr(mpmath, "polyroots", _fail)
        roots = np.sort_complex(poly.roots())
    assert np.array_equal(roots, np.sort_complex(_polyroots_oracle(poly.coeffs)))


@pytest.mark.parametrize("sector", ["even", "odd"])
def test_polyroots_fallback_returns_the_certified_roots(sector, monkeypatch):
    import phi4trunc.singularities as sing

    poly = sylvester_discriminant(TruncationSpec(8), sector)
    certified = np.sort_complex(poly.roots())
    monkeypatch.setattr(sing, "_aberth_roots", lambda *args, **kwargs: None)
    assert np.array_equal(np.sort_complex(poly.roots()), certified)


def test_polyroots_fallback_failure_names_the_degree(monkeypatch):
    import phi4trunc.singularities as sing

    def stall(*args, **kwargs):
        raise mpmath.libmp.NoConvergence("Didn't converge in maxsteps=400 steps.")

    monkeypatch.setattr(sing, "_aberth_roots", lambda *args, **kwargs: None)
    monkeypatch.setattr(mpmath, "polyroots", stall)
    with pytest.raises(ArithmeticError, match=r"degree-12 resultant \(n_max 8, even\).*400 steps"):
        sylvester_discriminant(TruncationSpec(8), "even").roots()


def _record_rungs(monkeypatch) -> list:
    """The digits of each Aberth polish that roots() runs, in order."""
    import phi4trunc.singularities as sing

    rungs, aberth = [], sing._aberth_roots

    def spy(coeffs, dps, decided=False):
        rungs.append(dps)
        return aberth(coeffs, dps, decided)

    monkeypatch.setattr(sing, "_aberth_roots", spy)
    return rungs


@pytest.mark.parametrize("k", [199, 200, 201])
def test_root_straddling_a_rounding_midpoint_takes_the_60_digit_rung(monkeypatch, k):
    # (2^k lam - 2^k r)(lam - 2) with r = m - 2^-k, just below the midpoint
    # m = 1 + 3 2^-53 of the doubles 1 + 2^-52 and 1 + 2^-51: the 20-digit
    # grid, 2^-196 here, cannot tell r from m, whose tie rounds to the even
    # 1 + 2^-51, and its disk spans m; the 60-digit rung resolves r
    m = 1 + Fraction(3, 2**53)
    r = m - Fraction(1, 2**k)
    coeffs = _expand([[-r.numerator, r.denominator], [-2, 1]])
    rungs = _record_rungs(monkeypatch)
    with monkeypatch.context() as patched:
        patched.setattr(mpmath, "polyroots", _fail)
        roots = np.sort_complex(ResultantPolynomial(coeffs, "even", 4).roots())
    assert rungs == [20, 60]
    assert list(roots) == [float(r), 2.0] and float(r) == 1 + 2.0**-52
    assert np.array_equal(roots, np.sort_complex(_polyroots_oracle(coeffs)))


def test_resultant_roots_take_the_20_digit_rung_where_it_decides(monkeypatch):
    rungs = _record_rungs(monkeypatch)
    for n_max in (8, 12):
        for sector in ("even", "odd"):
            sylvester_discriminant(TruncationSpec(n_max), sector).roots()
    assert rungs == [20] * 4


def _expand(factors):
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


@settings(max_examples=40, deadline=None)
@given(reals=st.lists(st.builds(Fraction, st.integers(-30, 30).filter(bool), st.integers(1, 7)),
                      max_size=4, unique=True),
       pairs=st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 6)), max_size=3, unique=True))
@example(reals=[Fraction(1, 7), Fraction(1, 6)], pairs=[(0, 1)])
def test_certified_roots_are_the_exact_roots(reals, pairs):
    # distinct rational roots and conjugate pairs a +- b i of Gaussian integers
    if not reals and not pairs:
        reals = [Fraction(1)]
    coeffs = _expand([[-r.numerator, r.denominator] for r in reals]
                     + [[a * a + b * b, -2 * a, 1] for a, b in pairs])
    roots = _aberth_roots(coeffs, 60)
    assert roots is not None
    got = np.sort_complex(np.array([complex(z) for z in roots]))
    exact = [complex(float(r)) for r in reals] + [complex(a, sign * b) for a, b in pairs for sign in (1, -1)]
    assert np.array_equal(got, np.sort_complex(np.array(exact)))
    assert np.array_equal(got, np.sort_complex(_polyroots_oracle(coeffs)))


def test_disks_need_every_radius_small_and_every_pair_apart():
    bits = 480
    eighth, delta = 1 << (bits - 3), 1 << (bits - 230)

    def certify(factors, xs):
        return _disks_certify([c << bits for c in _expand(factors)], xs, [0] * len(xs), bits, 60)

    # (8 lam - 1)(8 lam - 2) with iterates on its roots 1/8 and 2/8: point disks
    assert certify([[-1, 8], [-2, 8]], [eighth, 2 * eighth])
    # one iterate 2^-150 off: the disks stay apart, but that one is too wide
    assert not certify([[-1, 8], [-2, 8]], [eighth, 2 * eighth + (1 << (bits - 150))])
    # (8 lam - 1)^2 with iterates 1/8 -+ 2^-230: both radii, 2^-230, are
    # small enough, but the two disks touch
    assert not certify([[-1, 8], [-1, 8]], [eighth - delta, eighth + delta])


@pytest.mark.parametrize("sector", ["even", "odd"])
def test_refine_lands_on_every_nmax8_resultant_root(sector):
    trunc = TruncationSpec(8)
    fam = anharmonic_family(trunc)
    for root in sylvester_discriminant(trunc, sector).roots():
        res = refine_exceptional_point(fam, root, sector)
        assert res.exceptional, f"root {root} did not refine to an exceptional point"
        assert abs(res.location - root) <= 1e-12


def test_refine_classifies_noise_floor_ep_at_ulp_neighbours():
    # At this EP the double-precision gap reads 5e-8 to 1.5e-7 across 1-ulp
    # nudges of lam, so a fixed 1e-7 gap threshold rejected correctly
    # located points by chance.
    trunc = TruncationSpec(8)
    fam = anharmonic_family(trunc)
    root = min(sylvester_discriminant(trunc, "even").roots(),
               key=lambda z: abs(z - (-0.00933 + 0.03118j)))
    assert abs(root - (-0.00933 + 0.03118j)) < 1e-5
    seeds = [root]
    for toward in (-1.0, 1.0):
        seeds.append(complex(np.nextafter(root.real, toward), root.imag))
        seeds.append(complex(root.real, np.nextafter(root.imag, toward)))
    for seed in seeds:
        res = refine_exceptional_point(fam, seed, "even")
        assert res.exceptional, f"seed {seed!r}: gap {res.gap:.3g}"
        assert abs(res.location - root) <= 1e-12


def test_min_sector_gaps_matches_pointwise_solves():
    h0s, vs = anharmonic_family(TruncationSpec(8)).sector_matrices("odd")
    lams = 0.3 * np.exp(1j * np.linspace(-np.pi, np.pi, 17))
    gaps = np.abs(min_sector_gaps(h0s, vs, lams))
    for lam, gap in zip(lams, gaps):
        z = np.linalg.eigvals(h0s + lam * vs)
        diff = np.abs(z[:, None] - z[None, :])
        np.fill_diagonal(diff, np.inf)
        assert gap == diff.min()
    # a point whose solve fails reads NaN and leaves the others as they were
    broken = np.abs(min_sector_gaps(h0s, vs, np.insert(lams, 3, np.nan)))
    assert np.isnan(broken[3])
    assert np.array_equal(np.delete(broken, 3), gaps)


def _representatives(lams):
    lams = np.asarray(lams, dtype=complex)
    return lams.real + 1j * np.abs(lams.imag)


def _pointwise_gaps(h0s, vs, lams):
    """The smallest |z_i - z_j| of each coupling, one eigensolve a coupling."""
    out = []
    for lam in np.ravel(lams):
        z = np.linalg.eigvals(h0s + lam * vs)
        diff = np.abs(z[:, None] - z[None, :])
        np.fill_diagonal(diff, np.inf)
        out.append(diff.min())
    return np.reshape(out, np.shape(lams))


# (re range, im range, n_re, n_im): exactly mirrored rows, no mirrors, and an
# odd n_im whose middle row is im = 0
FOLD_GRIDS = {
    "mirrored": ((-0.1, 0.02), (-0.05, 0.05), 9, 10),
    "unmirrored": ((-0.1, 0.02), (0.01, 0.05), 9, 4),
    "real-row": ((-0.3, 0.3), (-0.3, 0.3), 6, 5),
}


@pytest.mark.parametrize("grid", sorted(FOLD_GRIDS))
@pytest.mark.parametrize("sector", ["even", "odd"])
@pytest.mark.parametrize("n_max", [4, 6, 8, 12, 16])
@pytest.mark.parametrize("make_family", [anharmonic_family, strong_coupling_family], ids=["weak", "strong"])
def test_grid_gaps_are_the_pointwise_gaps_at_the_representatives(make_family, n_max, sector, grid):
    (re_lo, re_hi), (im_lo, im_hi), n_re, n_im = FOLD_GRIDS[grid]
    ims = np.linspace(im_lo, im_hi, n_im)
    lams = np.linspace(re_lo, re_hi, n_re) + 1j * ims[:, None]
    mirrored = np.isin(ims, -ims[ims < 0]).sum()
    assert mirrored == {"mirrored": 3, "unmirrored": 0, "real-row": 1}[grid]
    assert (0.0 in ims) == (grid == "real-row")
    h0s, vs = make_family(TruncationSpec(n_max)).sector_matrices(sector)
    gaps = grid_gaps(h0s, vs, lams)
    assert gaps.shape == lams.shape
    reps = _representatives(lams)
    if n_max // 2 > _CLOSED_FORM_LEVELS:
        assert np.array_equal(gaps, _pointwise_gaps(h0s, vs, reps))
        return
    # closed-form roots: a coupling and its conjugate read one gap, the 30-digit one
    assert np.array_equal(gaps, grid_gaps(h0s, vs, reps))
    unique, where = np.unique(reps, return_inverse=True)
    want = mp_sector_gaps(h0s, vs, unique)[where].reshape(lams.shape)
    assert np.all(np.abs(gaps - want) <= 1e-11 * want)


@settings(max_examples=60, deadline=None)
@given(make_family=st.sampled_from([anharmonic_family, strong_coupling_family]),
       n_max=st.sampled_from([4, 6, 8]), sector=st.sampled_from(["even", "odd"]),
       polar=st.lists(st.tuples(st.floats(-3, 2), st.floats(-np.pi, np.pi)), min_size=1, max_size=4))
@example(make_family=anharmonic_family, n_max=8, sector="even",
         polar=[(-3, 0.0), (2, np.pi), (-1.3, 1.9), (0, np.pi / 2)])
@example(make_family=strong_coupling_family, n_max=8, sector="odd", polar=[(2, 0.0), (-3, -np.pi), (1.5, 2.3)])
def test_closed_form_gaps_are_the_30_digit_gaps(make_family, n_max, sector, polar):
    lams = np.array([10.0**e * np.exp(1j * phase) for e, phase in polar])
    h0s, vs = make_family(TruncationSpec(n_max)).sector_matrices(sector)
    gaps = _closed_form_gaps(_float_char_poly(h0s, vs), lams)
    want = mp_sector_gaps(h0s, vs, lams)
    assert np.all(np.abs(gaps - want) <= 1e-11 * want)  # and none lost (NaN)


def _benchmark_grid(name):
    """The couplings of the benchmark's scan (100 x 100) or sphere (80 x 160) grid."""
    if name == "scan":
        return np.linspace(-0.1, 0.02, 100) + 1j * np.linspace(-0.05, 0.05, 100)[:, None]
    sin = np.sin(np.linspace(-np.pi / 2 * 0.98, np.pi / 2 * 0.98, 80))
    return np.sqrt((1 + sin) / (1 - sin))[:, None] * np.exp(1j * np.linspace(-np.pi, np.pi, 160, endpoint=False))


@pytest.mark.parametrize("grid", ["scan", "sphere"])
@pytest.mark.parametrize("sector", ["even", "odd"])
@pytest.mark.parametrize("make_family", [anharmonic_family, strong_coupling_family], ids=["weak", "strong"])
def test_closed_form_keeps_every_benchmark_grid_point_within_1e12_of_eigvals(make_family, sector, grid):
    # the Newton step is what brings the sphere's gaps from 6.5e-12 to 1.3e-13 of eigvals'
    h0s, vs = make_family(TruncationSpec(8)).sector_matrices(sector)
    reps = np.unique(_representatives(_benchmark_grid(grid)))
    gaps = _closed_form_gaps(_float_char_poly(h0s, vs), reps)
    want = np.abs(min_sector_gaps(h0s, vs, reps))
    assert np.all(np.abs(gaps - want) <= 1e-12 * want)  # and none lost (NaN)


@pytest.mark.parametrize("sector", ["even", "odd"])
@pytest.mark.parametrize("n_max", [4, 6, 8])
@pytest.mark.parametrize("make_family", [anharmonic_family, strong_coupling_family], ids=["weak", "strong"])
def test_float_char_poly_is_the_exact_polynomial_rounded_once(make_family, n_max, sector):
    # at s + 1 couplings the table's z^j coefficient is within one rounding
    # of det(z I - h0s - lam vs) from Bareiss elimination on polynomials in
    # z, with every float entry taken exactly; the lam-degree is at most s - j
    h0s, vs = make_family(TruncationSpec(n_max)).sector_matrices(sector)
    poly = _float_char_poly(h0s, vs)
    s = len(poly)
    assert poly.shape == (s, s + 1)
    assert all(not poly[j, s - j + 1:].any() for j in range(s))
    for lam in [Fraction(-k, 3) for k in range(1, s + 2)]:
        matrix = [[[-Fraction(h0s[i, j]) - lam * Fraction(vs[i, j])] + ([1] if i == j else [])
                   for j in range(s)] for i in range(s)]
        det = bareiss_det_poly(matrix)
        assert det[s] == 1
        for j in range(s):
            got = sum(Fraction(c) * lam**k for k, c in enumerate(poly[j]))
            bound = sum(abs(Fraction(c)) * abs(lam) ** k for k, c in enumerate(poly[j])) / 2**52
            assert abs(got - det[j]) <= bound


@pytest.mark.parametrize("resolution", [(37, 41), (3 * _GRID_CHUNK + 1, 1), (10, 10), (1, 1)],
                         ids=["not-a-multiple", "three-chunks-and-one", "below-one-chunk", "one-point"])
def test_grid_gaps_on_two_workers_are_the_serial_ones(resolution):
    n_re, n_im = resolution
    h0s, vs = anharmonic_family(TruncationSpec(10)).sector_matrices("even")
    lams = np.linspace(-0.1, 0.02, n_re) + 1j * np.linspace(0.01, 0.05, n_im)[:, None]
    serial = grid_gaps(h0s, vs, lams, workers=1)
    assert np.array_equal(grid_gaps(h0s, vs, lams, workers=2), serial)
    assert np.array_equal(grid_gaps(h0s, vs, lams, workers=3), serial)
    with pytest.raises(ValueError, match="workers 0 must be at least 1"):
        grid_gaps(h0s, vs, lams, workers=0)


@pytest.mark.parametrize("n_max, threads", [(4, 0), (8, 0), (10, 1)])
def test_only_eigensolved_grids_start_threads(monkeypatch, n_max, threads):
    # closed-form chunks (up to 4 levels) all run on the calling thread
    import threading

    started, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: (started.append(self), start(self))[1])
    h0s, vs = anharmonic_family(TruncationSpec(n_max)).sector_matrices("even")
    lams = np.linspace(-0.1, 0.02, 100) + 1j * np.linspace(0.01, 0.05, 40)[:, None]
    assert lams.size // _GRID_CHUNK > 2
    gaps = grid_gaps(h0s, vs, lams, workers=2)
    assert len(started) == threads
    assert np.array_equal(gaps, grid_gaps(h0s, vs, lams, workers=1))


@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_grid_gaps_raises_a_failed_chunk_once_every_thread_has_ended(monkeypatch, failing):
    import threading
    import time

    import phi4trunc.singularities as sing

    h0s, vs = anharmonic_family(TruncationSpec(10)).sector_matrices("even")
    lams = np.linspace(-0.1, 0.02, 100) + 1j * np.linspace(0.01, 0.05, 40)[:, None]
    solve, worker_busy, finished = sing._chunk_gaps, threading.Event(), []

    def solve_or_fail(h0s, vs, poly, chunk):
        # the failing side raises only once the other one is inside a chunk
        if threading.current_thread() is threading.main_thread():
            assert worker_busy.wait(10)
            if failing == "caller":
                raise RuntimeError("chunk failed")
            return solve(h0s, vs, poly, chunk)
        worker_busy.set()
        if failing == "worker":
            raise RuntimeError("chunk failed")
        time.sleep(0.05)
        finished.append(len(chunk))
        return solve(h0s, vs, poly, chunk)

    monkeypatch.setattr(sing, "_chunk_gaps", solve_or_fail)
    threads = threading.active_count()
    assert lams.size // _GRID_CHUNK > 2
    with pytest.raises(RuntimeError, match="chunk failed"):
        grid_gaps(h0s, vs, lams, workers=2)
    assert threading.active_count() == threads
    if failing == "caller":
        assert finished  # the caller's failure waited for the chunk the worker was solving


@pytest.mark.parametrize("resolution, solves", [((100, 100), 8500), ((80, 160), 8480)],
                         ids=["scan", "riemann"])
def test_benchmark_grids_solve_each_conjugate_pair_once(monkeypatch, resolution, solves):
    """The scan and riemann grids of the benchmark, in couplings handed to the chunk solver."""
    import phi4trunc.singularities as sing

    solved, tables = [], []

    def count(h0s, vs, poly, lams):
        solved.extend(lams)
        tables.append(poly)
        return np.ones(len(lams))

    monkeypatch.setattr(sing, "_chunk_gaps", count)
    fam = anharmonic_family(TruncationSpec(8))
    if resolution == (100, 100):
        grid = gap_scan(fam, ((-0.1, 0.02), (-0.05, 0.05)), resolution, "even", workers=2)
        assert grid.values.shape == (100, 100)
    else:
        assert riemann_export(fam, "even", resolution, workers=2).shape == (80 * 160, 5)
    assert len(solved) == len(set(solved)) == solves
    assert min(z.imag for z in solved) >= 0
    # one characteristic polynomial for the whole grid, shared by every chunk
    assert all(poly is tables[0] for poly in tables) and tables[0].shape == (4, 5)


def _lose_every_closed_form(monkeypatch):
    """Make the closed-form roots of every block size come out NaN."""
    import phi4trunc.singularities as sing

    def lost(*coeffs):
        return [np.full(coeffs[0].shape, np.nan + 0j) for _ in coeffs]

    monkeypatch.setattr(sing, "_CLOSED_FORMS", {s: lost for s in sing._CLOSED_FORMS})


def test_failed_solves_reach_the_gap_grid_failures(monkeypatch):
    fam = anharmonic_family(TruncationSpec(8))
    region, resolution = ((-0.1, 0.02), (-0.05, 0.05)), (9, 10)
    h0s, vs = fam.sector_matrices("even")
    ims = np.linspace(-0.05, 0.05, 10)
    # a coupling in the upper half-plane whose conjugate is on the grid too
    up = next(j for j in range(10) if ims[j] > 0 and -ims[j] in ims)
    down = int(np.flatnonzero(ims == -ims[up])[0])
    bad = np.linspace(-0.1, 0.02, 9)[4] + 1j * ims[up]
    poison = h0s + bad * vs
    eigvals = np.linalg.eigvals

    def failing(stack):
        if np.any(np.all(stack == poison, axis=(1, 2))):
            raise np.linalg.LinAlgError("poisoned coupling")
        return eigvals(stack)

    # every coupling goes on to the eigensolver, which fails at one of them
    _lose_every_closed_form(monkeypatch)
    monkeypatch.setattr(np.linalg, "eigvals", failing)
    with pytest.warns(RuntimeWarning, match="2 grid points failed"):
        grid = gap_scan(fam, region, resolution, "even", workers=2)
    assert grid.failures == 2
    assert np.isnan(grid.values[up, 4]) and np.isnan(grid.values[down, 4])
    assert np.isnan(grid.values).sum() == 2
    assert grid.min_point()[1] > 0


@pytest.mark.parametrize("n_max", [4, 6, 8])
def test_couplings_whose_closed_form_is_lost_go_to_the_eigensolver(monkeypatch, n_max):
    import phi4trunc.singularities as sing

    h0s, vs = strong_coupling_family(TruncationSpec(n_max)).sector_matrices("odd")
    # past |lam| ~ 1e154 the lam^s coefficient of the characteristic polynomial overflows
    huge = np.array([1e160 + 1e160j, -3e170 + 0j])
    lams = np.concatenate([np.linspace(-2, 2, 7) + 0.5j, huge])
    closed = _closed_form_gaps(_float_char_poly(h0s, vs), lams)
    assert np.array_equal(np.isnan(closed), np.isin(lams, huge))
    handed = []

    def spy(h0s, vs, lams):
        handed.extend(lams)
        return min_sector_gaps(h0s, vs, lams)

    monkeypatch.setattr(sing, "min_sector_gaps", spy)
    gaps = grid_gaps(h0s, vs, lams)
    assert sorted(handed, key=abs) == sorted(huge, key=abs)
    assert np.array_equal(gaps[-2:], _pointwise_gaps(h0s, vs, huge))
    assert np.array_equal(gaps[:-2], closed[:-2])


# n_max=16 even-sector series-fit radii of levels 0, 2, ..., 14 (criterion 4b)
N16_LEVEL_RADII = {0: 0.0245, 2: 0.0205, 4: 0.0170, 6: 0.0144,
                   8: 0.0113, 10: 0.00864, 12: 0.00621, 14: 0.00621}


@pytest.fixture(scope="module")
def n16_even_resultant():
    poly = sylvester_discriminant(TruncationSpec(16), "even")
    return poly, poly.roots()


def test_nmax16_inner_pairs_consistent_with_level_radii(n16_even_resultant):
    # Ten conjugate pairs live inside |lam| < 0.026; the seven distinct
    # level radii of the n_max=16 even sector each correspond to one of
    # them (the adjacent-level coalescences).  The order-100 fits sit up to
    # 5.5% above the pair they converge to (0.00864 against 0.008165).
    poly, roots = n16_even_resultant
    assert poly.degree == 56 and poly.degree_deficit == 0
    inner = [z for z in roots if abs(z) < 0.026 and z.imag > 0]
    assert len(inner) >= 7
    for target in sorted(set(N16_LEVEL_RADII.values()), reverse=True):
        best = min(abs(abs(z) - target) / target for z in inner)
        assert best <= 0.06, f"no singularity pair within 6% of radius {target}"
    # the ground pair barely leaves the real axis
    ground = max(inner, key=abs)
    assert abs(ground) == pytest.approx(0.0245, abs=2e-4)
    assert 0 < ground.imag < 5e-5


def test_nmax16_level_radii_are_nearest_coalescences(n16_even_resultant):
    # Label each inner resultant root by the two levels that meet there,
    # found by eigenvalue tracking from lam = 0.  A level's series radius
    # is its nearest such point.
    _, roots = n16_even_resultant
    labelled = {z: coalescing_levels(16, z) for z in roots if abs(z) < 0.026 and z.imag > 0}
    for level, target in N16_LEVEL_RADII.items():
        nearest = min(abs(z) for z, pair in labelled.items() if level in pair)
        assert abs(nearest - target) / target <= 0.06, f"level {level}: {nearest:.6f}"
    # level 4: the (4, 6) point at -0.016879+0.001576i; the point at
    # |lam| = 0.019011, once read as the level-4 radius, joins levels 8 and 10
    def pair_at(modulus):
        return labelled[min(labelled, key=lambda z: abs(abs(z) - modulus))]

    assert pair_at(0.016953) == (4, 6)
    assert pair_at(0.019011) == (8, 10)
    assert min(abs(z) for z, pair in labelled.items() if 4 in pair) == \
        pytest.approx(N16_LEVEL_RADII[4], rel=0.005)


def test_no_pinching_on_positive_real_axis_nmax8():
    fam = anharmonic_family(TruncationSpec(8))
    for sector in ("even", "odd"):
        grid = gap_scan(fam, ((1e-3, 1.0), (0.0, 0.0)), (200, 1), sector)
        assert np.nanmin(grid.values) > 1e-5


def test_strong_weak_map_properties():
    assert strong_weak_map(1.0) == 1.0
    z = -8.8 + 29.45j
    assert abs(strong_weak_map(strong_weak_map(z)) - z) <= 1e-12
    mapped = strong_weak_map(z)
    assert mapped == pytest.approx(-0.009315 - 0.031173j, abs=1e-5)
    with pytest.raises(ZeroDivisionError):
        strong_weak_map(0.0)


def test_gap_grid_domain_tags():
    trunc = TruncationSpec(4)
    weak = gap_scan(anharmonic_family(trunc), ((0.0, 0.1), (0.0, 0.1)), (3, 3), "even")
    assert weak.domain == "lambda"
    strong = gap_scan(strong_coupling_family(trunc), ((0.0, 0.1), (0.0, 0.1)), (3, 3), "even")
    assert strong.domain == "lambda_tilde"


def test_strong_family_shares_inverted_singularities():
    trunc = TruncationSpec(4)
    fam = strong_coupling_family(trunc)
    target = 1.0 / EP4_EVEN
    res = refine_exceptional_point(fam, target * (1 + 1e-3), "even")
    assert res.exceptional
    assert abs(res.location - target) <= 1e-5 * abs(target)


# riemann_export samples latitudes from -SPHERE_BAND to SPHERE_BAND, away from the poles
SPHERE_BAND = np.pi / 2 * 0.98


def _grid_angles(resolution):
    n_lat, n_lon = resolution
    lats = np.linspace(-SPHERE_BAND, SPHERE_BAND, n_lat)
    lons = np.linspace(-np.pi, np.pi, n_lon, endpoint=False)
    return np.repeat(lats, n_lon), np.tile(lons, n_lat)


def test_sphere_projection_orientation():
    for resolution in [(5, 4), (7, 12)]:
        rows = riemann_export(anharmonic_family(TruncationSpec(4)), "even", resolution)
        lats, lons = _grid_angles(resolution)
        back = np.array([lambda_to_sphere(complex(re, im)) for re, im in rows[:, :2]])
        # the longitudes -pi and pi are one meridian
        assert np.allclose(np.exp(1j * back[:, 0]), np.exp(1j * lons), atol=1e-12)
        assert np.allclose(back[:, 1], lats, atol=1e-12)
        # lam = 0 is the south pole, infinity the north
        modulus = np.abs(rows[:, 0] + 1j * rows[:, 1])
        n_lon = resolution[1]
        assert modulus[:n_lon].max() < 0.02 and modulus[-n_lon:].min() > 50
        assert np.all(np.diff(modulus[::n_lon]) > 0)


def test_mollweide_anchor_points():
    assert _mollweide(0.0, 0.0) == (0.0, 0.0)
    x, y = _mollweide(np.pi, 0.0)
    assert (x, y) == pytest.approx((2 * np.sqrt(2), 0.0))
    with pytest.raises(RuntimeError, match="lon=1.0, lat=nan"):
        _mollweide([0.0, 1.0], [0.3, np.nan])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(-np.pi, np.pi),
                          st.floats(-SPHERE_BAND, SPHERE_BAND, exclude_min=True, exclude_max=True)),
                min_size=1, max_size=40))
@example(list(zip(*_grid_angles((80, 1))[::-1])))
def test_mollweide_matches_the_scalar_oracle_bit_for_bit(points):
    lons, lats = (np.array(c) for c in zip(*points))
    x, y = _mollweide(lons, lats)
    assert list(zip(x, y)) == [mollweide_project(lon, lat) for lon, lat in points]


def test_riemann_export_positive_axis_and_mirror():
    for n_lat, n_lon in [(5, 4), (7, 12)]:
        rows = riemann_export(anharmonic_family(TruncationSpec(4)), "even", (n_lat, n_lon))
        grid = rows.reshape(n_lat, n_lon, 5)
        zero = grid[:, n_lon // 2]  # longitude 0
        assert np.all(np.abs(zero[:, 3]) <= 1e-12)
        assert np.all(zero[:, 0] > 0) and np.all(np.abs(zero[:, 1]) <= 1e-12 * zero[:, 0])
        for k in range(1, n_lon // 2):
            left, right = grid[:, n_lon // 2 - k], grid[:, n_lon // 2 + k]
            assert np.allclose(left[:, 3], -right[:, 3], rtol=1e-12, atol=0)
            assert np.array_equal(left[:, 4], right[:, 4])
            assert np.allclose(left[:, 2], right[:, 2], rtol=1e-9, atol=1e-12)


def test_riemann_export_of_grid_includes_gap_column():
    fam = anharmonic_family(TruncationSpec(4))
    for sector in ("even", "odd"):
        rows = riemann_export(fam, sector, (5, 4))
        assert rows.shape == (20, 5)
        h0s, vs = fam.sector_matrices(sector)
        lams = rows[:, 0] + 1j * rows[:, 1]
        # the gap at lam is the one solved at its representative re + i |im| ...
        assert np.array_equal(rows[:, 2], grid_gaps(h0s, vs, _representatives(lams)))
        # ... and the 30-digit gap at lam itself
        want = mp_sector_gaps(h0s, vs, lams)
        assert np.all(np.abs(rows[:, 2] - want) <= 1e-11 * want)


@pytest.mark.parametrize("resolution", [(80, 160), (7, 6), (7, 7)])
def test_riemann_axis_couplings_have_exact_zero_parts(resolution):
    # at the longitudes -pi, -pi/2, 0 and pi/2 the phase is exactly -1, -i, 1
    # or i, so one part of lam is +0.0, which prints as 0, never -0
    n_lat, n_lon = resolution
    grid = riemann_export(anharmonic_family(TruncationSpec(8)), "even", resolution).reshape(n_lat, n_lon, 5)
    axis = np.flatnonzero(4 * np.arange(n_lon) % n_lon == 0)
    assert len(axis) == (4 if n_lon % 4 == 0 else 2 if n_lon % 2 == 0 else 1)
    parts = grid[:, axis, :2]
    zero = parts == 0.0
    assert np.all(zero.sum(axis=2) == 1) and not np.any(np.signbit(parts[zero]))
    # quarter turns from -pi: im on the real axis, re on the imaginary axis
    assert np.all(zero[..., 1] == (4 * axis // n_lon % 2 == 0))


@pytest.mark.parametrize("sector", ["even", "odd"])
def test_riemann_axis_gaps_are_those_of_the_rounded_couplings(sector):
    # on the benchmark sphere the gap at each exact axis coupling stays
    # within 1e-12 of the one at r e^(i lon) with the phase rounded by np.exp
    n_lat, n_lon = 80, 160
    fam = anharmonic_family(TruncationSpec(8))
    grid = riemann_export(fam, sector, (n_lat, n_lon)).reshape(n_lat, n_lon, 5)
    axis = np.flatnonzero(4 * np.arange(n_lon) % n_lon == 0)
    sin = np.sin(np.linspace(-SPHERE_BAND, SPHERE_BAND, n_lat))
    lons = np.linspace(-np.pi, np.pi, n_lon, endpoint=False)[axis]
    rounded = np.sqrt((1 + sin) / (1 - sin))[:, None] * np.exp(1j * lons)
    assert np.all(rounded.real != 0) and np.count_nonzero(rounded.imag) == rounded.size - n_lat
    ref = grid_gaps(*fam.sector_matrices(sector), rounded)
    assert np.all(np.abs(grid[:, axis, 2] - ref) <= 1e-12 * ref)
