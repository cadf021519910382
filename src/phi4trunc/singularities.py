"""Exceptional points in the complex coupling plane.

Three independent routes to the same objects: brute-force minimum-gap scans
over a rectangular grid of complex couplings, local secant refinement of a
candidate on the squared distance of the closest pair of sector eigenvalues,
and the algebraic route -- the determinant of the Sylvester-style matrix
built from a sector's exact characteristic polynomial f and its
z-derivative f', whose roots in lam are precisely the couplings where f has
a double root.

Also provides the weak/strong inversion map and the one sphere path,
`riemann_export`: the minimum gaps over the whole Riemann sphere of
couplings, from lam = 0 to lam = infinity, in Mollweide plot coordinates,
which show that nothing pinches the positive real axis.
"""
from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar

from . import algebra
from .hamiltonian import CouplingFamily
from .oscillator import TruncationSpec
from .spectral import SingularityEstimate

__all__ = [
    "GapGrid",
    "ResultantPolynomial",
    "RefineResult",
    "gap_scan",
    "refine_exceptional_point",
    "sylvester_discriminant",
    "strong_weak_map",
    "riemann_export",
    "EXCEPTIONAL_GAP_THRESHOLD",
]

# an exceptional point's closest pair is split only by eigensolver noise, of
# order sqrt(eps) ||H||; an avoided crossing keeps a gap far above this
EXCEPTIONAL_GAP_THRESHOLD = 1e-6
_ABERTH_SWEEPS = 100
_SECANT_STEPS = 50


@dataclass
class GapGrid:
    """Minimum within-sector eigenvalue gap over a rectangular coupling grid."""

    re_range: tuple[float, float]
    im_range: tuple[float, float]
    resolution: tuple[int, int]
    values: np.ndarray = field(repr=False)
    sector: str = "even"
    domain: str = "lambda"
    n_max: int = 0
    failures: int = 0

    def re_axis(self) -> np.ndarray:
        return np.linspace(self.re_range[0], self.re_range[1], self.resolution[0])

    def im_axis(self) -> np.ndarray:
        return np.linspace(self.im_range[0], self.im_range[1], self.resolution[1])

    def min_point(self) -> tuple[complex, float]:
        """Grid point with the smallest finite gap."""
        vals = np.where(np.isnan(self.values), np.inf, self.values)
        j, i = np.unravel_index(np.argmin(vals), vals.shape)
        return complex(self.re_axis()[i], self.im_axis()[j]), float(vals[j, i])

    def points(self):
        """Yield (re, im, gap) rows in deterministic row-major order."""
        res = self.re_axis()
        ims = self.im_axis()
        for j, im in enumerate(ims):
            for i, re in enumerate(res):
                yield re, im, self.values[j, i]


@dataclass
class ResultantPolynomial:
    """Integer resultant of (f, df/dz) in the coupling; roots are the EPs."""

    coeffs: list
    sector: str
    n_max: int

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def expected_degree(self) -> int:
        s = self.n_max // 2
        return s * (s - 1)

    @property
    def degree_deficit(self) -> int:
        return self.expected_degree - self.degree

    def roots(self, dps: int = 60) -> np.ndarray:
        """All complex roots, each certified to dps significant digits.

        The integer coefficients span many orders of magnitude, so double
        precision companion-matrix roots are up to 8% off at n_max = 16; they
        only seed a simultaneous Aberth-Ehrlich polish at 2 dps working
        digits (about 14 digits cancel when the degree-56 polynomial of
        n_max = 16 is evaluated near its roots).  Each polished root z_i
        carries the Weierstrass inclusion disk of radius
        N |p(z_i) / (c_N prod_{j != i} (z_i - z_j))|; pairwise disjoint disks
        hold one root each, and radii below 10^-dps |z_i| certify the digits.
        When the polish stalls or the disks fail, mpmath's Durand-Kerner
        `polyroots` solves at dps instead.  n_max = 16 takes about a second.
        """
        roots = _aberth_roots(self.coeffs, dps)
        if roots is None:
            import mpmath as mp

            with mp.workdps(dps):
                roots = mp.polyroots([mp.mpf(c) for c in reversed(self.coeffs)],
                                     maxsteps=200, extraprec=4 * dps)
        return np.array([complex(z) for z in roots])


def _aberth_roots(coeffs: list, dps: int) -> list | None:
    """Certified roots of the integer polynomial sum_k coeffs[k] lam^k, or None.

    The roots come rounded to dps digits and cleaned up as `mp.polyroots`
    cleans its own (parts below its tolerance become exact zeros), so both
    paths give the same doubles.
    """
    import mpmath as mp

    n = len(coeffs) - 1
    if n < 1 or not coeffs[0] or not coeffs[-1]:
        return None
    # seeds: roots of the polynomial in lam / rho, where rho = |c_0 / c_N|^(1/N)
    # is the geometric mean of the root moduli, so its coefficients fit doubles
    log_rho = (math.log(abs(coeffs[0])) - math.log(abs(coeffs[-1]))) / n
    logs = [math.log(abs(c)) + k * log_rho if c else -math.inf for k, c in enumerate(coeffs)]
    top = max(logs)
    scaled = [math.copysign(math.exp(v - top), c) for v, c in zip(logs, coeffs)]
    seeds = np.roots(scaled[::-1]) * math.exp(log_rho)
    if len(seeds) != n or not np.all(np.isfinite(seeds)):
        return None

    with mp.workdps(2 * dps):
        a = [mp.mpf(c) for c in reversed(coeffs)]
        z = [mp.mpc(complex(s)) for s in seeds]
        tol = mp.mpf(10) ** -dps
        done = [False] * n
        try:
            for _ in range(_ABERTH_SWEEPS):
                for i in range(n):
                    if done[i]:
                        continue
                    zi = z[i]
                    p, dp = mp.polyval(a, zi, derivative=True)
                    w = p / dp
                    pull = 0
                    for j in range(n):
                        if j != i:
                            pull += 1 / (zi - z[j])
                    step = w / (1 - w * pull)
                    z[i] = zi - step
                    done[i] = abs(step) <= tol * abs(z[i])
                if all(done):
                    break
            else:
                return None
            radii = []
            for i, zi in enumerate(z):
                denom = a[0]
                for j in range(n):
                    if j != i:
                        denom *= zi - z[j]
                radii.append(n * abs(mp.polyval(a, zi) / denom))
        except ZeroDivisionError:  # coinciding iterates or a vanishing derivative
            return None
        if any(r > tol * abs(zi) for r, zi in zip(radii, z)):
            return None
        if any(abs(z[i] - z[j]) <= radii[i] + radii[j] for i in range(n) for j in range(i)):
            return None
    with mp.workdps(dps):
        chop = +mp.eps
        out = []
        for zi in z:
            zi = +zi
            if abs(zi.imag) < chop:
                zi = mp.mpc(zi.real)
            elif abs(zi.real) < chop:
                zi = mp.mpc(0, zi.imag)
            out.append(zi)
    return out


@dataclass
class RefineResult:
    """Outcome of a local exceptional-point search."""

    location: complex
    gap: float
    exceptional: bool
    estimate: SingularityEstimate | None


def min_sector_gaps(h0s: np.ndarray, vs: np.ndarray, lams) -> np.ndarray:
    """Closest eigenvalue pair of h0s + lam vs at each coupling, as z_i - z_j.

    The modulus is the minimum gap; the square is analytic in lam near an
    exceptional point, where it has a simple zero.  All couplings go to one
    batched eigensolve; if that fails, they are solved one at a time and a
    coupling whose own solve fails reads NaN.  A block with fewer than two
    eigenvalues has an infinite gap.
    """
    lams = np.asarray(lams)
    s = h0s.shape[0]
    if s < 2:
        return np.full(lams.shape, np.inf, dtype=complex)
    stack = h0s[None, :, :] + lams[:, None, None] * vs[None, :, :]
    try:
        z = np.linalg.eigvals(stack)
    except np.linalg.LinAlgError:
        if len(lams) == 1:
            return np.array([complex(np.nan, np.nan)])
        return np.concatenate([min_sector_gaps(h0s, vs, lams[k:k + 1]) for k in range(len(lams))])
    diff = (z[:, :, None] - z[:, None, :]).reshape(len(lams), -1)
    dist = np.abs(diff)
    dist[:, np.arange(s) * (s + 1)] = np.inf  # the flattened diagonal, i == j
    return diff[np.arange(len(lams)), dist.argmin(axis=1)]


def gap_scan(
    family: CouplingFamily,
    region: tuple[tuple[float, float], tuple[float, float]],
    resolution: tuple[int, int],
    sector: str = "even",
    workers: int = 1,
) -> GapGrid:
    """Minimum pairwise |z_i - z_j| within a sector over a complex-lam grid.

    Rows are independent and may be computed in a thread pool; assembly is
    keyed by row index so the result never depends on scheduling.  Isolated
    eigensolver failures are recorded as NaN, not raised.
    """
    (re_lo, re_hi), (im_lo, im_hi) = region
    n_re, n_im = resolution
    res = np.linspace(re_lo, re_hi, n_re)
    ims = np.linspace(im_lo, im_hi, n_im)
    h0s, vs = family.sector_matrices(sector)

    def row(j: int) -> np.ndarray:
        return np.abs(min_sector_gaps(h0s, vs, res + 1j * ims[j]))

    values = np.empty((n_im, n_re))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for j, data in enumerate(pool.map(row, range(n_im))):
                values[j] = data
    else:
        for j in range(n_im):
            values[j] = row(j)
    failures = int(np.isnan(values).sum())
    if failures:
        warnings.warn(f"{failures} grid points failed to diagonalize", RuntimeWarning)
    domain = "lambda_tilde" if family.label == "strong" else "lambda"
    return GapGrid((re_lo, re_hi), (im_lo, im_hi), (n_re, n_im), values,
                   sector, domain, family.n_max, failures)


def refine_exceptional_point(
    family: CouplingFamily,
    guess: complex,
    sector: str = "even",
    gap_tol: float = EXCEPTIONAL_GAP_THRESHOLD,
    level_pair: tuple[int, int] = (-1, -1),
) -> RefineResult:
    """Secant iteration on g(lam) = (z_i - z_j)^2 of the closest eigenvalue pair.

    g is analytic with a simple zero at an exceptional point, so the secant
    converges superlinearly where a search on the gap |z_i - z_j| itself
    would crawl along its square-root valley.  The minimum is classified as
    exceptional when the iteration converged and the gap is at most
    gap_tol * max(1, ||H(lam)||_2), since the floating-point eigensolver
    splits a coalesced pair by about sqrt(eps) ||H||; an avoided crossing is
    a result, not an error.  An exactly real guess stays on the real axis,
    where a bracketed 1-D search finds the smallest gap: there the family is
    real symmetric, hence diagonalizable, so the minimum is an avoided
    crossing.  The reported estimate is folded into the upper half-plane
    (the conjugate point is implied).
    """
    h0s, vs = family.sector_matrices(sector)

    def pair(lam: complex) -> complex:
        return min_sector_gaps(h0s, vs, np.array([lam], dtype=complex))[0]

    if guess.imag == 0.0:
        x0 = guess.real
        found = minimize_scalar(lambda x: abs(pair(complex(x, 0.0))),
                                bracket=(x0, x0 + 1e-3 * max(1.0, abs(x0))))
        loc = complex(found.x, 0.0)
        return RefineResult(loc, float(abs(pair(loc))), False, None)

    converged = False
    prev, g_prev = guess, pair(guess) ** 2
    loc = guess * (1 + 1e-3)
    for _ in range(_SECANT_STEPS):
        g = pair(loc) ** 2
        if g == g_prev:
            converged = g == 0
            break
        step = g * (loc - prev) / (g - g_prev)
        prev, g_prev = loc, g
        loc = loc - step
        if not np.isfinite(loc):
            break
        # convergence is superlinear: after a step this small, loc sits at
        # the eigensolver's noise floor
        if abs(step) <= 1e-12 * abs(loc):
            converged = True
            break
    loc = complex(loc)
    gap = float(abs(pair(loc)))
    exceptional = converged and gap <= gap_tol * max(1.0, np.linalg.norm(h0s + loc * vs, 2))
    estimate = None
    if exceptional and abs(loc.imag) > 0:
        estimate = SingularityEstimate(loc.real, abs(loc.imag), level_pair, "grid_scan")
    return RefineResult(loc, gap, bool(exceptional), estimate)


def sylvester_discriminant(trunc: TruncationSpec, sector: str) -> ResultantPolynomial:
    """Exact resultant of the sector characteristic polynomial and its z-derivative.

    The matrix rows are f, z f, ..., z^(s-2) f followed by f', z f', ...,
    z^(s-1) f' written on the monomial basis 1, z, ..., z^(2s-2); its
    determinant is expanded fraction-free over integer polynomials in lam.
    A degree below s(s-1) is reported via degree_deficit, not an error.
    """
    zc = algebra.sector_char_poly(trunc, sector)
    s = len(zc) - 1
    if s < 2:
        raise ValueError(f"sector block of size {s} has no level pairs (n_max=2 is trivial)")
    fprime = [algebra.poly_trim([c * k for c in zc[k]]) for k in range(1, s + 1)]

    ncols = 2 * s - 1
    rows: list[list[list[int]]] = []
    for shift in range(s - 1):
        row = [[0] for _ in range(ncols)]
        for j, c in enumerate(zc):
            row[j + shift] = list(c)
        rows.append(row)
    for shift in range(s):
        row = [[0] for _ in range(ncols)]
        for j, c in enumerate(fprime):
            row[j + shift] = list(c)
        rows.append(row)

    det = algebra.bareiss_det_poly(rows)
    poly = ResultantPolynomial(det, sector, trunc.n_max)
    if poly.degree_deficit != 0:
        warnings.warn(
            f"resultant degree {poly.degree} below expected {poly.expected_degree} "
            f"(common roots of f and f' beyond simple pairs)",
            RuntimeWarning,
        )
    return poly


def strong_weak_map(point: complex, direction: str = "to_weak") -> complex:
    """Inversion lam <-> lam_tilde = 1/lam between the two coupling planes."""
    if direction not in ("to_weak", "to_strong"):
        raise ValueError(f"direction must be 'to_weak' or 'to_strong', got {direction!r}")
    if point == 0:
        raise ZeroDivisionError("zero has no image under the inversion map")
    return 1.0 / point


def _mollweide(lon, lat) -> tuple[np.ndarray, np.ndarray]:
    """Equal-area Mollweide (x, y) of longitudes and latitudes in radians, elementwise.

    Solves 2 theta + sin 2 theta = pi sin(lat) by Newton iteration.  Each
    element stops once its own step is below 1e-10, so it takes the steps it
    would take alone; raises naming the first element still moving after
    100 steps.  The derivative 2 + 2 cos 2 theta vanishes at the poles, so
    |lat| must stay below pi/2.
    """
    lon, lat = np.broadcast_arrays(np.asarray(lon, dtype=float), np.asarray(lat, dtype=float))
    theta = lat.copy()
    target = np.pi * np.sin(lat)
    moving = np.ones(theta.shape, dtype=bool)
    for _ in range(100):
        t = theta[moving]
        step = (2 * t + np.sin(2 * t) - target[moving]) / (2 + 2 * np.cos(2 * t))
        theta[moving] = t - step
        moving[moving] = ~(np.abs(step) < 1e-10)
        if not moving.any():
            break
    else:
        first = tuple(np.argwhere(moving)[0])
        raise RuntimeError(f"Mollweide iteration failed at lon={lon[first]}, lat={lat[first]}")
    x = 2.0 * np.sqrt(2.0) / np.pi * lon * np.cos(theta)
    y = np.sqrt(2.0) * np.sin(theta)
    return x, y


def riemann_export(family: CouplingFamily, sector: str, resolution: tuple[int, int]) -> np.ndarray:
    """Minimum sector gaps over the Riemann sphere, in Mollweide plot coordinates.

    The sphere is sampled at n_lat latitudes from -0.98 pi/2 to 0.98 pi/2
    and n_lon longitudes from -pi up to (not including) pi, resolution =
    (n_lat, n_lon).  Inverse stereographic projection puts lam = 0 at the
    south pole, infinity at the north pole and the positive real axis on the
    zero meridian, so each point is the coupling r e^(i lon) with
    r = sqrt((1 + sin lat) / (1 - sin lat)).  Returns the rows
    (re lam, im lam, gap, x, y), latitude by latitude from the south; each
    latitude's gaps come from one batched eigensolve.
    """
    n_lat, n_lon = resolution
    h0s, vs = family.sector_matrices(sector)
    lats = np.linspace(-np.pi / 2 * 0.98, np.pi / 2 * 0.98, n_lat)
    lons = np.linspace(-np.pi, np.pi, n_lon, endpoint=False)
    rows = np.empty((n_lat, n_lon, 5))
    rows[..., 3], rows[..., 4] = _mollweide(lons, lats[:, None])
    for j, lat in enumerate(lats):
        radius = np.sqrt((1 + np.sin(lat)) / (1 - np.sin(lat)))
        lams = radius * np.exp(1j * lons)
        rows[j, :, 0], rows[j, :, 1] = lams.real, lams.imag
        rows[j, :, 2] = np.abs(min_sector_gaps(h0s, vs, lams))
    return rows.reshape(-1, 5)
