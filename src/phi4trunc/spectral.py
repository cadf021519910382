"""Eigensolution and coupling-derivative analysis of H(lam) families.

Derivatives of an eigenvalue with respect to the coupling are computed two
ways: a sum-over-states evaluation of the nondegenerate perturbation
formulas in the eigenbasis at lam0 (exact up to the eigensolve), and
five-point central finite differences with one Richardson step.  The
location and width of the peak in the second derivative on the real axis
estimate the nearest complex singularity: the peak sits at its real part,
and the imaginary part follows either from the width at half maximum
(W = 2 sqrt(2^(2/3)-1) Im lam_s, exact for a two-level square-root gap) or
from the curvature ratio Im lam_s = sqrt(-3 E''/E'''') at the peak.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from . import algebra
from .hamiltonian import CouplingFamily, SparseOperator
from .oscillator import OperatorMatrix

__all__ = [
    "SpectrumResult",
    "DerivativeEstimate",
    "SingularityEstimate",
    "dense_spectrum",
    "lanczos_lowest",
    "energy_derivatives",
    "singularity_from_derivatives",
    "exact_amplitude",
    "stencil_derivatives",
    "curvature_peak",
    "LANCZOS_SEED",
]

DENSE_CAP = 4096
LANCZOS_SEED = 0x5EED
HALF_WIDTH_FACTOR = 2.0 * np.sqrt(2.0 ** (2.0 / 3.0) - 1.0)


@dataclass
class SpectrumResult:
    """Eigenvalues sorted by ascending real part, optionally with vectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None
    sector: str = "full"


@dataclass
class DerivativeEstimate:
    """First, second and fourth lam-derivatives of one tracked level."""

    level: int
    lambda0: float
    d1: float
    d2: float
    d4: float
    scheme: str = "sum_over_states"


@dataclass
class SingularityEstimate:
    """Nearest-singularity estimate; the conjugate partner is implied."""

    re: float
    im: float
    level_pair: tuple[int, int]
    method: str

    def __post_init__(self):
        if not self.im > 0:
            raise ValueError(f"im must be positive (upper half-plane), got {self.im}")

    @property
    def radius(self) -> float:
        return float(np.hypot(self.re, self.im))


def dense_spectrum(h: OperatorMatrix, want_vectors: bool = False, sector: str = "full",
                   dense_cap: int = DENSE_CAP) -> SpectrumResult:
    """Full dense spectrum; Hermitian solver when the flag allows it."""
    if h.dim > dense_cap:
        raise ValueError(f"dimension {h.dim} exceeds dense cap {dense_cap}")
    try:
        if h.hermitian:
            if want_vectors:
                w, v = np.linalg.eigh(h.entries)
            else:
                w, v = np.linalg.eigvalsh(h.entries), None
        else:
            w, v = np.linalg.eig(h.entries)
            order = np.argsort(w.real, kind="stable")
            w = w[order]
            v = v[:, order] if want_vectors else None
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            f"dense eigensolver failed on {h.dim}x{h.dim} "
            f"{'Hermitian' if h.hermitian else 'general'} matrix: {exc}"
        ) from exc
    return SpectrumResult(w, v, sector)


def lanczos_lowest(
    h: SparseOperator,
    k: int,
    tol: float = 1e-12,
    restart_dim: int | None = None,
    want_vectors: bool = False,
) -> SpectrumResult:
    """k lowest eigenvalues of a Hermitian sparse operator.

    Uses implicitly restarted Lanczos with a deterministic start vector
    seeded from LANCZOS_SEED, so repeated runs are bit-identical.  The
    matrix is shifted positive definite internally (an eigenvalue exactly
    at zero leaves no Krylov component and regular-mode ARPACK misses it);
    the shift is removed from the returned eigenvalues.
    """
    if not h.hermitian:
        raise ValueError("lanczos_lowest requires a Hermitian operator")
    dim = h.dim
    if k >= dim - 1:
        # ARPACK cannot ask for (almost) the full spectrum; fall back to dense.
        w = np.linalg.eigvalsh(h.matrix.toarray())
        return SpectrumResult(w[:k], None, "full")
    rng = np.random.default_rng(LANCZOS_SEED)
    v0 = rng.standard_normal(dim)
    ncv = restart_dim if restart_dim is not None else min(dim, max(2 * k + 10, 40))
    import scipy.sparse as sp

    shift = 1.0 + float(abs(h.matrix).sum(axis=1).max())  # Gershgorin bound
    shifted = (h.matrix + shift * sp.identity(dim, format="csr", dtype=h.matrix.dtype)).tocsr()
    try:
        if want_vectors:
            w, v = spla.eigsh(shifted, k=k, which="SA", v0=v0, tol=tol, ncv=ncv)
        else:
            w = spla.eigsh(shifted, k=k, which="SA", v0=v0, tol=tol, ncv=ncv,
                           return_eigenvectors=False)
            v = None
    except spla.ArpackNoConvergence as exc:
        raise RuntimeError(
            f"Lanczos failed to converge: {len(exc.eigenvalues)}/{k} eigenvalues "
            f"converged (ncv={ncv}, tol={tol})"
        ) from exc
    w = w - shift
    order = np.argsort(w)
    w = w[order]
    if v is not None:
        v = v[:, order]
    return SpectrumResult(w, v, "full")


def _tracked_sector_level(family: CouplingFamily, sector: str, pos: int, lam: float,
                          ref_vec: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    h0s, vs = family.sector_matrices(sector)
    w, u = np.linalg.eigh(h0s + lam * vs)
    if ref_vec is None:
        j = pos
    else:
        j = int(np.argmax(np.abs(ref_vec @ u)))
    return float(w[j]), u[:, j]


def energy_derivatives(
    family: CouplingFamily,
    level: int,
    sector: str,
    lambda0: float,
    scheme: str = "sum_over_states",
    fd_step: float | None = None,
    cross_check: bool = False,
) -> DerivativeEstimate:
    """d1, d2, d4 of E_level(lam) at lambda0 within its parity sector.

    level is the global harmonic label; its position inside the sector is
    level // 2, and sector must be the one that holds it.  Near-degeneracy (sector gap < 1e-8) triggers a warning,
    since both schemes lose accuracy there.  With cross_check the other
    scheme is evaluated too and disagreements beyond 1% in d1 or d2 are
    flagged; d4 is exempt because the default finite-difference step is
    cancellation-limited for fourth differences in double precision.
    """
    sector = algebra.level_sector(level, sector)
    pos = level // 2
    h0s, vs = family.sector_matrices(sector)
    w, u = np.linalg.eigh(h0s + lambda0 * vs)
    gaps = np.abs(np.delete(w - w[pos], pos))
    if gaps.size and gaps.min() < 1e-8:
        warnings.warn(
            f"level {level} nearly degenerate at lambda0={lambda0} (gap {gaps.min():.2e})",
            RuntimeWarning,
        )
    if scheme not in ("sum_over_states", "finite_difference"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme == "sum_over_states":
        veig = u.T @ vs @ u
        c, _ = algebra.rayleigh_schrodinger(w.tolist(), veig.tolist(), pos, 4)
        est = DerivativeEstimate(level, lambda0, c[1], 2.0 * c[2], 24.0 * c[4], scheme)
        if cross_check:
            _compare_schemes(est, energy_derivatives(
                family, level, sector, lambda0, "finite_difference", fd_step))
        return est

    h = fd_step if fd_step is not None else 1e-4 * max(1.0, abs(lambda0))
    ref = u[:, pos]

    def energy(x: float) -> float:
        return _tracked_sector_level(family, sector, pos, x, ref)[0]

    # nine-point sampling serves both the h and h/2 stencils
    es = {k: energy(lambda0 + k * h / 2.0) for k in range(-4, 5)}

    def stencils(step_mult: int) -> tuple[float, float, float]:
        return _five_point_stencil([es[k * step_mult] for k in (-2, -1, 0, 1, 2)],
                                  h * step_mult / 2.0)

    coarse = stencils(2)
    fine = stencils(1)
    d1, d2, d4 = ((4 * fi - co) / 3.0 for fi, co in zip(fine, coarse))
    est = DerivativeEstimate(level, lambda0, d1, d2, d4, scheme)
    if cross_check:
        _compare_schemes(
            energy_derivatives(family, level, sector, lambda0, "sum_over_states"), est)
    return est


def _five_point_stencil(f, h: float) -> tuple[float, float, float]:
    """d1, d2 and d4 at the middle of five samples f spaced h apart."""
    d1 = (f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * h)
    d2 = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h**2)
    d4 = (f[0] - 4 * f[1] + 6 * f[2] - 4 * f[3] + f[4]) / h**4
    return d1, d2, d4


def stencil_derivatives(lams: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """Rows (d1, d2, d4) of five-point stencils on a uniform grid.

    The two points at either end have no full stencil and get NaN.
    """
    n = len(lams)
    h = lams[1] - lams[0]
    out = np.full((n, 3), np.nan)
    for i in range(2, n - 2):
        out[i] = _five_point_stencil(energies[i - 2: i + 3], h)
    return out


def curvature_peak(lams: np.ndarray, d2: np.ndarray, label: str = "") -> tuple[float, float]:
    """(lambda at the |d2| peak, Im lam_s from its width at half maximum).

    The peak is sought among the stencil points lams[2:-2]; each half-maximum
    crossing is interpolated linearly between grid points, and the width
    converts to Im lam_s through HALF_WIDTH_FACTOR.  A peak on the first or
    last stencil point warns (prefixed by label) and returns NaN for both.
    """
    n = len(lams)
    ipk = int(np.nanargmax(np.abs(d2[2: n - 2]))) + 2
    if ipk in (2, n - 3):
        warnings.warn(f"{label}|E0''| peaks at the grid boundary lambda={lams[ipk]:.6g}; "
                      "widen the lambda grid", RuntimeWarning)
        return float("nan"), float("nan")
    half = abs(d2[ipk]) / 2.0
    left = right = float("nan")
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
    return lams[ipk], (right - left) / HALF_WIDTH_FACTOR


def _compare_schemes(ref: DerivativeEstimate, other: DerivativeEstimate) -> None:
    for name in ("d1", "d2"):
        a, b = getattr(ref, name), getattr(other, name)
        scale = max(abs(a), abs(b), 1e-30)
        if abs(a - b) / scale > 0.01:
            warnings.warn(
                f"derivative schemes disagree on {name} at lambda0={ref.lambda0}: "
                f"{a:.6g} vs {b:.6g}",
                RuntimeWarning,
            )


def _pair_d2(family: CouplingFamily, sector: str, pos: int, lam: float, scheme: str) -> float:
    level = 2 * pos + (0 if sector == "even" else 1)
    return energy_derivatives(family, level, sector, lam, scheme).d2


def _golden_max(f, a: float, b: float, tol: float = 1e-12) -> float:
    g = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def singularity_from_derivatives(
    family: CouplingFamily,
    level_pair: tuple[int, int],
    scan_range: tuple[float, float],
    scheme: str = "sum_over_states",
    member: str = "upper",
    n_scan: int = 101,
) -> tuple[SingularityEstimate, SingularityEstimate]:
    """Width-based and curvature-ratio estimates of the pair's singularity.

    Scans |E''| of the chosen pair member (upper or lower level) across
    scan_range, refines the interior extremum by golden section, then reads
    the imaginary part from the width at half maximum and from the
    fourth-derivative ratio.  Both estimates are returned so callers can
    cross-check them against each other.
    """
    lo, hi = scan_range
    if not lo < hi:
        raise ValueError(f"empty scan range {scan_range}")
    low, high = sorted(level_pair)
    if low % 2 != high % 2:
        raise ValueError(f"level pair {level_pair} spans parity sectors")
    sector = "even" if low % 2 == 0 else "odd"
    level = high if member == "upper" else low
    pos = level // 2

    def absd2(x: float) -> float:
        return abs(_pair_d2(family, sector, pos, x, scheme))

    grid = np.linspace(lo, hi, n_scan)
    vals = np.array([absd2(x) for x in grid])
    imax = int(np.argmax(vals))
    if imax in (0, n_scan - 1):
        raise ValueError(
            f"no interior |E''| extremum of pair {level_pair} in {scan_range}; "
            f"max sits at boundary lambda={grid[imax]:.6g}"
        )
    re = _golden_max(absd2, grid[imax - 1], grid[imax + 1])
    peak = absd2(re)
    half = peak / 2.0

    def cross(inner: float, outer: float) -> float:
        a, b = inner, outer  # absd2(a) > half >= absd2(b)
        for _ in range(80):
            m = 0.5 * (a + b)
            if absd2(m) > half:
                a = m
            else:
                b = m
        return 0.5 * (a + b)

    step = (hi - lo) / (n_scan - 1)
    left = re
    while absd2(left) > half:
        left -= step
        if left < lo - (hi - lo):
            raise ValueError(f"half-maximum width of pair {level_pair} spans the scan boundary")
    right = re
    while absd2(right) > half:
        right += step
        if right > hi + (hi - lo):
            raise ValueError(f"half-maximum width of pair {level_pair} spans the scan boundary")
    width = cross(re, right) - cross(re, left)
    im_width = width / HALF_WIDTH_FACTOR

    est = energy_derivatives(family, level, sector, re, scheme)
    ratio = -3.0 * est.d2 / est.d4
    if ratio <= 0:
        warnings.warn(
            f"curvature ratio not sign-definite at pair {level_pair} extremum; using |ratio|",
            RuntimeWarning,
        )
    im_ratio = float(np.sqrt(abs(ratio)))
    pair = (low, high)
    return (
        SingularityEstimate(re, im_width, pair, "derivative_width"),
        SingularityEstimate(re, im_ratio, pair, "derivative_ratio"),
    )


def exact_amplitude(
    h: OperatorMatrix, t_grid: np.ndarray, state_in: int, state_out: int
) -> np.ndarray:
    """<out| exp(-i H t) |in> on a grid of times, via full diagonalization."""
    if h.hermitian:
        w, u = np.linalg.eigh(h.entries)
        w = w.astype(complex)
        weights = u[state_out, :] * np.conj(u[state_in, :])
    else:
        w, u = np.linalg.eig(h.entries)
        weights = u[state_out, :] * np.linalg.inv(u)[:, state_in]
    t = np.asarray(t_grid, dtype=float)
    return np.exp(-1j * np.outer(t, w)) @ weights
