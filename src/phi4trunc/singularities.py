"""Exceptional points in the complex coupling plane.

Three routes to the same objects: brute-force minimum-gap scans over a
rectangular grid of complex couplings (closed-form roots of the block's
exact characteristic polynomial up to four levels, batched eigensolves
above), local secant refinement of a candidate on the squared distance of
the closest pair of sector eigenvalues (one eigensolve per step),
and the algebraic route -- the determinant of the Sylvester-style matrix
built from a sector's exact characteristic polynomial f and its
z-derivative f', whose roots in lam are precisely the couplings where f has
a double root.

Also provides the one sphere path, `riemann_export`: the minimum gaps over
the whole Riemann sphere of couplings, from lam = 0 to lam = infinity, in
Mollweide plot coordinates, which show that nothing pinches the positive
real axis.
"""
from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import algebra
from .oscillator import TruncationSpec

__all__ = [
    "GapGrid",
    "ResultantPolynomial",
    "RefineResult",
    "gap_scan",
    "refine_exceptional_point",
    "sylvester_discriminant",
    "riemann_export",
    "EXCEPTIONAL_GAP_THRESHOLD",
]

# an exceptional point's closest pair is split only by eigensolver noise, of
# order sqrt(eps) ||H||; an avoided crossing keeps a gap far above this
EXCEPTIONAL_GAP_THRESHOLD = 1e-6
_ABERTH_SWEEPS = 100
# digits of the Aberth polish, tried in turn: the first is taken only where
# each part of each root is decided to one double, the last as it stands
_RUNG_DIGITS = (20, 60)
# Durand-Kerner steps of the mp.polyroots fallback
_POLYROOTS_STEPS = 400
# a root part below 2^-_CHOP_BITS reads exactly zero, as mp.polyroots chops
# parts below its epsilon at 60 digits
_CHOP_BITS = 202
# grid bits beyond 2 dps digits and the root spread: they hold the Horner
# error of at most 2n grid units with 32 bits to spare up to n = 2^30
_GUARD_BITS = 64
# fixed-point scale of the double-precision Aberth factor
_G_BITS = 60
_G = 1 << _G_BITS
_SECANT_STEPS = 50
# couplings per chunk of a grid: on 4 x 4 blocks a second thread gains
# nothing on batched eigensolves of 100 couplings and 1.5-2x from about 500;
# closed-form chunks run on the calling thread, where a second one gained
# nothing on grids of 10^4 couplings
_GRID_CHUNK = 512
# grids of blocks of 2 to this many levels take closed-form roots of the
# characteristic polynomial (quadratic, Cardano, Ferrari)
_CLOSED_FORM_LEVELS = 4
# largest Newton step a closed-form root may take, relative to the closest
# pair's gap: the step leaves an error of order (s - 1) step^2 / gap, below
# 1e-11 of the gap, where a larger step marks roots the formula lost
_NEWTON_STEP_TOL = 1e-6
_CUBE_ROOTS_OF_UNITY = np.exp(2j * np.pi / 3 * np.arange(3))


@dataclass
class GapGrid:
    """Minimum within-sector eigenvalue gap over a rectangular coupling grid.

    values[j, i] is the gap at re_axis()[i] + 1j im_axis()[j], NaN where
    the eigensolver failed.
    """

    re_range: tuple[float, float]
    im_range: tuple[float, float]
    values: np.ndarray = field(repr=False)

    @property
    def failures(self) -> int:
        return int(np.isnan(self.values).sum())

    def re_axis(self) -> np.ndarray:
        return np.linspace(self.re_range[0], self.re_range[1], self.values.shape[1])

    def im_axis(self) -> np.ndarray:
        return np.linspace(self.im_range[0], self.im_range[1], self.values.shape[0])


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

    def roots(self) -> np.ndarray:
        """All complex roots, each the double nearest the exact root's parts.

        The integer coefficients span many orders of magnitude, so double
        precision companion-matrix roots are up to 8% off at n_max = 16; they
        only seed a simultaneous Aberth-Ehrlich polish on fixed-point Python
        ints that resolve 2 dps digits below the smallest root (about 14
        digits cancel when the degree-56 polynomial of n_max = 16 is
        evaluated near its roots).  Each polished root z_i carries the
        Weierstrass inclusion disk of radius
        N |p(z_i) / (c_N prod_{j != i} (z_i - z_j))|; pairwise disjoint disks
        hold one root each, and radii below 10^-dps |z_i| certify the digits
        (D. A. Bini and G. Fiorentino, Numer. Algorithms 23, 127 (2000)).
        The polish first runs at _RUNG_DIGITS[0] digits, and its roots are
        taken only where every disk's real and imaginary intervals each
        round to one double, so that each returned part is the double
        nearest the exact root's.  Otherwise it reruns at _RUNG_DIGITS[-1]
        digits and returns the doubles nearest the certified centres; when
        that polish stalls or its disks fail, mpmath's Durand-Kerner
        `polyroots` solves at as many digits instead, in up to 400 steps
        (the n_max 16 even resultant at omega 0.5 needs more than 200).
        n_max = 16 takes about 0.08 s, three quarters of it in _horner.
        """
        for dps in _RUNG_DIGITS:
            roots = _aberth_roots(self.coeffs, dps, decided=dps < _RUNG_DIGITS[-1])
            if roots is not None:
                return np.array(roots)
        import mpmath as mp

        with mp.workdps(dps):
            try:
                roots = mp.polyroots([mp.mpf(c) for c in reversed(self.coeffs)],
                                     maxsteps=_POLYROOTS_STEPS, extraprec=4 * dps)
            except mp.libmp.NoConvergence as exc:
                raise ArithmeticError(
                    f"roots of the degree-{self.degree} resultant (n_max {self.n_max}, {self.sector}): "
                    f"the Aberth polish failed at {', '.join(map(str, _RUNG_DIGITS))} digits and "
                    f"mp.polyroots did not converge in {_POLYROOTS_STEPS} steps") from exc
        return np.array([complex(z) for z in roots])


def _horner(fixed: list[int], x: int, y: int, bits: int) -> tuple[int, int, int, int]:
    """p(z) and p'(z) at z = (x + i y) 2^-bits, both as (re, im) ints scaled by 2^bits.

    fixed are the ascending coefficients of p times 2^bits.
    Each product is truncated to the grid by a floor shift; for |z| < 1 the
    value of p is then within 2n grid units of the exact one (the floor
    errors, under sqrt(2) each, reach the result multiplied by z^k).
    """
    pr, pi, dr, di = fixed[-1], 0, 0, 0
    for c in reversed(fixed[:-1]):
        dr, di = ((dr * x - di * y) >> bits) + pr, ((dr * y + di * x) >> bits) + pi
        pr, pi = ((pr * x - pi * y) >> bits) + c, (pr * y + pi * x) >> bits
    return pr, pi, dr, di


def _disks_certify(fixed: list[int], xs: list[int], ys: list[int], bits: int, dps: int) -> list[int] | None:
    """The radii of the iterates' Weierstrass disks on the grid, or None where they do not certify dps digits.

    fixed are the ascending integer coefficients of p times 2^bits and the
    iterates are z_i = (xs[i] + i ys[i]) 2^-bits, inside the unit disk.  The
    disk around z_i has the radius n |p(z_i) / (c_n prod_{j != i} (z_i - z_j))|;
    pairwise disjoint disks hold one root each.  Each radius must be at most
    10^-dps |z_i| and the disks must be pairwise disjoint, compared exactly
    in ints on radii rounded up: |p(z_i)| is taken at its Horner value plus
    the Horner error bound, and the product of distances is bounded below.
    Each radius is returned in grid units, rounded up.
    """
    n = len(fixed) - 1
    one = 1 << bits
    # the 2n-unit Horner bound holds inside the unit disk only
    if any(x * x + y * y >= one * one for x, y in zip(xs, ys)):
        return None
    dist2 = [[(xs[i] - xs[j]) ** 2 + (ys[i] - ys[j]) ** 2 for j in range(n)] for i in range(n)]
    radii = []
    for i in range(n):
        pr, pi, _, _ = _horner(fixed, xs[i], ys[i], bits)
        p_up = math.isqrt(pr * pr + pi * pi) + 1 + 2 * n  # >= |p(z_i)| 2^bits
        # prod_{j != i} |z_i - z_j|^2 2^(2 bits (n-1)) >= low 2^(2 half), cut to 128 bits
        low, half = 1, 0
        for j in range(n):
            if j != i:
                low *= dist2[i][j]
                cut = max(0, low.bit_length() - 128) // 2
                low >>= 2 * cut
                half += cut
        if not low:
            return None
        # the radius on the grid, rounded up: n p_up 2^(bits n - half) / (|c_n| 2^bits isqrt(low))
        num, den, k = n * p_up, abs(fixed[-1]) * math.isqrt(low), bits * n - half
        num, den = (num << k, den) if k >= 0 else (num, den << -k)
        radii.append(-(-num // den))
    tol2 = 10 ** (2 * dps)
    if any(r * r * tol2 > x * x + y * y for r, x, y in zip(radii, xs, ys)):
        return None
    if any(dist2[i][j] <= (radii[i] + radii[j]) ** 2 for i in range(n) for j in range(i)):
        return None
    return radii


def _aberth_roots(coeffs: list, dps: int, decided: bool = False) -> list[complex] | None:
    """Certified roots of the integer polynomial sum_k coeffs[k] lam^k, as doubles, or None.

    The iteration runs on mu = lam / 2^e, with 2^e above twice the largest
    seed modulus, so that every root lies well inside |mu| < 1.  Each iterate
    is a pair of Python ints on the grid 2^-F, where F holds 2 dps digits,
    the bits by which the smallest seed lies below |mu| = 1, and
    _GUARD_BITS.  The Newton quotient p/p' is exact to the grid, and the
    stopping rule, the Weierstrass radii and the disjointness of the disks
    are compared exactly in ints, with every rounding taken against
    certification: |p(z_i)| is bounded above by the Horner error bound and
    the product of root distances below.  Only the Aberth correction
    sum_{j != i} 1/(z_i - z_j) runs in doubles; it sets how fast the
    iteration converges, not where.  The roots are cleaned up as
    `mp.polyroots` cleans its own at 60 digits (a part below
    2^-_CHOP_BITS becomes an exact zero), so both paths give the same
    doubles, and each centre is rounded once, exactly, to doubles: Python's
    int true division is correctly rounded.  With decided, the roots are
    returned only if every other part rounds to one double over the whole
    of its disk, which is then the double nearest the exact part.
    """
    n = len(coeffs) - 1
    if n < 1 or not coeffs[0] or not coeffs[-1]:
        return None
    # seeds: roots of the polynomial in lam / rho, where rho = |c_0 / c_N|^(1/N)
    # is the geometric mean of the root moduli, so its coefficients fit doubles
    log_rho = (math.log(abs(coeffs[0])) - math.log(abs(coeffs[-1]))) / n
    logs = [math.log(abs(c)) + k * log_rho if c else -math.inf for k, c in enumerate(coeffs)]
    top = max(logs)
    scaled = [math.exp(v - top) if c > 0 else -math.exp(v - top) for v, c in zip(logs, coeffs)]
    seeds = np.roots(scaled[::-1]) * math.exp(log_rho)
    if len(seeds) != n or not np.all(np.isfinite(seeds)):
        return None

    mods = np.abs(seeds)
    e = max(0, math.frexp(mods.max())[1] + 1)
    bits = math.ceil(2 * dps * math.log2(10)) + max(0, -math.frexp(mods.min() / 2**e)[1]) + _GUARD_BITS
    one = 1 << bits
    # p(2^e mu) has the integer coefficients c_k 2^(e k), here put on the grid
    fixed = [c << (e * k + bits) for k, c in enumerate(coeffs)]
    xs, ys = [], []
    for z in seeds:
        for part, out in ((z.real, xs), (z.imag, ys)):
            num, den = float(part).as_integer_ratio()
            out.append((num << bits) // (den << e))
    approx = [complex(x / one, y / one) for x, y in zip(xs, ys)]
    tol2 = 10 ** (2 * dps)
    done = [False] * n
    try:
        for _ in range(_ABERTH_SWEEPS):
            for i in range(n):
                if done[i]:
                    continue
                x, y = xs[i], ys[i]
                pr, pi, dr, di = _horner(fixed, x, y, bits)
                norm = dr * dr + di * di
                wr = ((pr * dr + pi * di) << bits) // norm
                wi = ((pi * dr - pr * di) << bits) // norm
                zi = approx[i]
                pull = sum(1 / (zi - zj) for j, zj in enumerate(approx) if j != i)
                g = 1 / (1 - complex(wr / one, wi / one) * pull)
                gr, gi = round(g.real * _G), round(g.imag * _G)
                sr, si = (wr * gr - wi * gi) >> _G_BITS, (wr * gi + wi * gr) >> _G_BITS
                x, y = xs[i], ys[i] = x - sr, y - si
                approx[i] = complex(x / one, y / one)
                done[i] = (sr * sr + si * si) * tol2 <= x * x + y * y
            if all(done):
                break
        else:
            return None
    except (ZeroDivisionError, OverflowError, ValueError):  # coinciding iterates, p' = 0, g not finite
        return None
    radii = _disks_certify(fixed, xs, ys, bits, dps)
    if radii is None:
        return None
    # a grid value v is v 2^(e - bits) = (v << up) / down
    up, down = max(0, e - bits), 1 << max(0, bits - e)
    out = []
    for x, y, r in zip(xs, ys, radii):
        if abs(y) << (_CHOP_BITS + e) < one:
            y = 0
        elif abs(x) << (_CHOP_BITS + e) < one:
            x = 0
        parts = []
        for v in (x, y):
            # a part that is not chopped must keep its double, and its sign, across [v - r, v + r]
            lo, hi = v - r, v + r
            if decided and v and ((lo << up) / down, lo < 0) != ((hi << up) / down, hi < 0):
                return None
            parts.append((v << up) / down)
        out.append(complex(*parts))
    return out


@dataclass
class RefineResult:
    """Outcome of a local exceptional-point search."""

    location: complex
    gap: float
    exceptional: bool


def _closest_pair(z: np.ndarray) -> np.ndarray:
    """z_i - z_j of the closest pair in each row of z, the first in row-major order on ties."""
    n, s = z.shape
    diff = (z[:, :, None] - z[:, None, :]).reshape(n, -1)
    dist = np.abs(diff)
    dist[:, np.arange(s) * (s + 1)] = np.inf  # the flattened diagonal, i == j
    return diff[np.arange(n), dist.argmin(axis=1)]


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
    return _closest_pair(z)


def _float_char_poly(h0s: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """det(z I - h0s - lam vs) of a real float pencil, exact, then rounded once to doubles.

    Every finite double is a dyadic rational, so for the largest
    power-of-two denominator 2^e among the entries, a = 2^e h0s and
    b = 2^e vs are integer matrices.  algebra._pencil_char_poly gives
    det(w I - a - lam b) exactly, and w = 2^e z divides its w^j lam^k
    coefficient by 2^(e (s - j)) into the z^j lam^k coefficient of the monic
    polynomial.  Row j < s holds the z^j coefficients, ascending in lam;
    the z^s coefficient is 1.
    """
    s = h0s.shape[0]
    ratios = [[[x.as_integer_ratio() for x in row] for row in m.tolist()] for m in (h0s, vs)]
    e = max(den.bit_length() - 1 for m in ratios for row in m for _, den in row)
    a, b = ([[num << (e + 1 - den.bit_length()) for num, den in row] for row in m] for m in ratios)
    out = np.zeros((s, s + 1))
    for j, poly in enumerate(algebra._pencil_char_poly(a, b)[:s]):
        out[j, :len(poly)] = [c / (1 << (e * (s - j))) for c in poly]
    return out


def _quadratic_roots(c0, c1) -> list:
    """Roots of z^2 + c1 z + c0, the second from the product of the roots (no cancellation)."""
    d = np.sqrt(c1 * c1 - 4 * c0)
    d = np.where((d.conj() * c1).real >= 0, d, -d)
    big = -(c1 + d) / 2
    return [big, c0 / big]


def _cubic_roots(c0, c1, c2) -> list:
    """Roots of z^3 + c2 z^2 + c1 z + c0 by Cardano's formula.

    z = t - c2/3 gives t^3 + p t + q; with u^3 the root of
    u^6 + q u^3 - p^3/27 of the larger modulus, t = u w - p / (3 u w) over
    the cube roots of unity w.
    """
    p = c1 - c2 * c2 / 3
    q = (2 * c2 * c2 - 9 * c1) * c2 / 27 + c0
    d = np.sqrt(q * q / 4 + p * p * p / 27)
    u3 = np.where(np.abs(d - q / 2) >= np.abs(d + q / 2), d - q / 2, -d - q / 2)
    u = u3 ** (1 / 3)
    return [w * u - p / (3 * w * u) - c2 / 3 for w in _CUBE_ROOTS_OF_UNITY]


def _quartic_roots(c0, c1, c2, c3) -> list:
    """Roots of z^4 + c3 z^3 + c2 z^2 + c1 z + c0 by Ferrari's method.

    z = y - c3/4 gives y^4 + p y^2 + q y + r.  For a root m of the resolvent
    cubic m^3 + p m^2 + (p^2/4 - r) m - q^2/8, taken of the largest modulus
    so that it is far from zero, y^4 + p y^2 + q y + r
    = (y^2 + p/2 + m)^2 - 2m (y - q/(4m))^2, and with s^2 = 2m the roots are
    (e s +- sqrt(-2p - 2m - 2 e q / s)) / 2 for e = +-1.
    """
    p = c2 - 3 * c3 * c3 / 8
    q = c1 - c3 * c2 / 2 + c3 * c3 * c3 / 8
    r = c0 - c3 * c1 / 4 + c3 * c3 * c2 / 16 - 3 * c3 ** 4 / 256
    ms = np.stack(_cubic_roots(-q * q / 8, p * p / 4 - r, p))
    m = np.take_along_axis(ms, np.abs(ms).argmax(axis=0)[None], axis=0)[0]
    s = np.sqrt(2 * m)
    roots = []
    for e in (1, -1):
        root = np.sqrt(-2 * p - 2 * m - 2 * e * q / s)
        roots += [(e * s + root) / 2 - c3 / 4, (e * s - root) / 2 - c3 / 4]
    return roots


_CLOSED_FORMS = {2: _quadratic_roots, 3: _cubic_roots, 4: _quartic_roots}


def _closed_form_gaps(poly: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Closest-pair gaps at each coupling from the closed-form roots of the table poly, NaN where lost.

    poly is _float_char_poly's table.  Each coupling's coefficients come by
    Horner in lam, its roots in closed form, and one vectorised Newton step
    on the polynomial polishes each root before the closest pair is taken.
    A coupling's roots are lost when one is not finite or its largest
    Newton step is not below _NEWTON_STEP_TOL of its gap.
    """
    s = poly.shape[0]
    with np.errstate(all="ignore"):  # an overflow or 0/0 gives a root that is not finite
        coef = poly[:, s]
        for k in range(s - 1, -1, -1):
            coef = coef * lams[:, None] + poly[:, k]
        z = np.stack(_CLOSED_FORMS[s](*coef.T), axis=1)
        p, dp = np.ones_like(z), np.zeros_like(z)
        for j in range(s - 1, -1, -1):
            dp = dp * z + p
            p = p * z + coef[:, j, None]
        step = p / dp
        gaps = np.abs(_closest_pair(z - step))
        return np.where(np.abs(step).max(axis=1) < _NEWTON_STEP_TOL * gaps, gaps, np.nan)


def _chunk_gaps(h0s: np.ndarray, vs: np.ndarray, poly: np.ndarray | None, lams: np.ndarray) -> np.ndarray:
    """|min_sector_gaps| of h0s + lam vs at each coupling of the chunk lams.

    With poly, the table of _float_char_poly, the gaps come from
    _closed_form_gaps, and only the couplings whose roots it lost go to
    min_sector_gaps; without it, every coupling does.
    """
    if poly is None:
        return np.abs(min_sector_gaps(h0s, vs, lams))
    gaps = _closed_form_gaps(poly, lams)
    lost = np.isnan(gaps)
    if lost.any():
        gaps[lost] = np.abs(min_sector_gaps(h0s, vs, lams[lost]))
    return gaps


def grid_gaps(h0s: np.ndarray, vs: np.ndarray, lams, workers: int = 1) -> np.ndarray:
    """|min_sector_gaps| of h0s + lam vs at every coupling of the array lams.

    The family is real, so H(conj lam) = conj H(lam) has the same gaps: the
    couplings are deduplicated on their exact (re lam, |im lam|) and each is
    solved once, at its representative re lam + i |im lam|, so the gap at
    lam is by definition the gap solved there.  Blocks of 2 to
    _CLOSED_FORM_LEVELS levels (n_max 4 to 8) need no eigensolve per
    coupling: their characteristic polynomial is computed exactly once per
    call (_float_char_poly) and each coupling's roots come in closed form
    (_chunk_gaps); a coupling whose closed-form roots are lost goes to
    min_sector_gaps, which solves every coupling of larger blocks.  The
    representatives go to _chunk_gaps in chunks of _GRID_CHUNK to
    2 _GRID_CHUNK - 1 couplings.  Closed-form chunks all run on the calling
    thread.  Eigensolved chunks, when there is more than one, are taken in
    turn by the calling thread and up to workers - 1 plain threads, and
    the gaps are put back by chunk index, so the result never depends on
    scheduling.  A coupling whose eigensolve fails reads NaN;
    an exception in any thread stops the others taking chunks and is
    raised in the caller once every thread has finished.
    """
    if workers < 1:
        raise ValueError(f"workers {workers!r} must be at least 1")
    lams = np.asarray(lams, dtype=complex)
    reps, where = np.unique(lams.real + 1j * np.abs(lams.imag), return_inverse=True)
    chunks = np.array_split(reps, max(1, reps.size // _GRID_CHUNK))
    poly = _float_char_poly(h0s, vs) if 2 <= h0s.shape[0] <= _CLOSED_FORM_LEVELS else None
    gaps, errors = [None] * len(chunks), []
    todo, lock = iter(range(len(chunks))), threading.Lock()

    def work() -> None:
        try:
            while not errors:
                with lock:
                    k = next(todo, None)
                if k is None:
                    return
                gaps[k] = _chunk_gaps(h0s, vs, poly, chunks[k])
        except BaseException as exc:  # re-raised in the caller after the join
            errors.append(exc)

    spare = 0 if poly is not None else min(workers, len(chunks)) - 1
    threads = [threading.Thread(target=work, daemon=True) for _ in range(spare)]
    for thread in threads:
        thread.start()
    work()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return np.concatenate(gaps)[where].reshape(lams.shape)


def gap_scan(
    h0s: np.ndarray,
    vs: np.ndarray,
    region: tuple[tuple[float, float], tuple[float, float]],
    resolution: tuple[int, int],
    workers: int = 1,
) -> GapGrid:
    """Minimum pairwise |z_i - z_j| of the eigenvalues of h0s + lam vs over a complex-lam grid.

    h0s and vs are a sector block pair, such as hamiltonian.site_blocks
    gives.  The whole grid goes to grid_gaps, on up to `workers` threads.
    Isolated eigensolver failures are recorded as NaN and counted, not
    raised.
    """
    (re_lo, re_hi), (im_lo, im_hi) = region
    n_re, n_im = resolution
    res = np.linspace(re_lo, re_hi, n_re)
    ims = np.linspace(im_lo, im_hi, n_im)
    grid = GapGrid((re_lo, re_hi), (im_lo, im_hi), grid_gaps(h0s, vs, res + 1j * ims[:, None], workers))
    if grid.failures:
        warnings.warn(f"{grid.failures} grid points failed to diagonalize", RuntimeWarning)
    return grid


def refine_exceptional_point(h0s: np.ndarray, vs: np.ndarray, guess: complex) -> RefineResult:
    """Secant iteration on g(lam) = (z_i - z_j)^2 of the closest eigenvalue pair of h0s + lam vs.

    h0s and vs are a sector block pair, such as hamiltonian.site_blocks
    gives.  g is analytic with a simple zero at an exceptional point, so
    the secant converges superlinearly where a search on the gap
    |z_i - z_j| itself would crawl along its square-root valley.  The
    minimum is classified as exceptional when the iteration converged and
    the gap is at most EXCEPTIONAL_GAP_THRESHOLD * max(1, ||H(lam)||_2),
    since the floating-point eigensolver splits a coalesced pair by about
    sqrt(eps) ||H||; an avoided crossing is a result, not an error.  On the
    real axis H(lam) is real symmetric, hence diagonalizable, so no
    exceptional point lies there: ValueError names an exactly real guess.
    """
    if guess.imag == 0.0:
        raise ValueError(f"guess {guess!r} is real, where H(lam) is real symmetric and has no exceptional point")

    def pair(lam: complex) -> complex:
        return min_sector_gaps(h0s, vs, np.array([lam], dtype=complex))[0]

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
    exceptional = converged and gap <= EXCEPTIONAL_GAP_THRESHOLD * max(1.0, np.linalg.norm(h0s + loc * vs, 2))
    return RefineResult(loc, gap, bool(exceptional))


def sylvester_discriminant(trunc: TruncationSpec, sector: str) -> ResultantPolynomial:
    """Exact resultant of the sector characteristic polynomial and its z-derivative.

    The Sylvester matrix has the rows f, z f, ..., z^(s-2) f followed by
    f', z f', ..., z^(s-1) f', written on the monomial basis 1, z, ...,
    z^(2s-2), where s is the sector block size and f = f(z, lam) comes
    from algebra.sector_char_poly.  Its determinant is an integer
    polynomial in lam of degree at most s(s-1):

    - the z^j coefficient of f = c det(z I - H0 - lam V) has lam-degree at
      most s - j, because each power of lam in the expansion of the
      determinant takes the place of a power of z;
    - so f has total degree s in (z, lam), and f' total degree s - 1;
    - the entry in column c of the i-th f row (counting from 0) then has
      lam-degree at most s + i - c, and that of the i-th f' row
      s - 1 + i - c; every product of one entry per row and column has
      lam-degree at most sum_i (s + i) + sum_i (s - 1 + i) - sum_c c
      = s(s-1), the degree bound of the resultant of two polynomials of
      total degrees s and s - 1.

    The determinant is therefore taken at the s(s-1) + 1 integer couplings
    -s(s-1)/2, ..., s(s-1)/2, each by scalar integer Bareiss elimination,
    and recovered by exact Newton interpolation (G. E. Collins, J. ACM 18,
    515 (1971)).  A degree below s(s-1) is reported via degree_deficit,
    not an error.
    """
    zc = algebra.sector_char_poly(trunc, sector)
    s = len(zc) - 1
    if s < 2:
        raise ValueError(f"sector block of size {s} has no level pairs (n_max=2 is trivial)")
    half = s * (s - 1) // 2
    nodes = list(range(-half, half + 1))
    values = []
    for t in nodes:
        f = [sum(c * t**k for k, c in enumerate(poly)) for poly in zc]
        df = [k * f[k] for k in range(1, s + 1)]
        rows = [[0] * i + f + [0] * (s - 2 - i) for i in range(s - 1)]
        rows += [[0] * i + df + [0] * (s - 1 - i) for i in range(s)]
        values.append(algebra._bareiss_det(rows))
    det = algebra._newton_interpolate(nodes, values)
    poly = ResultantPolynomial(det, sector, trunc.n_max)
    if poly.degree_deficit != 0:
        warnings.warn(
            f"resultant degree {poly.degree} below expected {poly.expected_degree} "
            f"(common roots of f and f' beyond simple pairs)",
            RuntimeWarning,
        )
    return poly


def _mollweide(lon, lat) -> tuple[np.ndarray, np.ndarray]:
    """Equal-area Mollweide (x, y) of longitudes and latitudes in radians, elementwise.

    Solves 2 theta + sin 2 theta = pi sin(lat) by Newton iteration, on the
    latitudes only; lon and theta are broadcast in x and y.  Each element
    stops once its own step is below 1e-10, so it takes the steps it would
    take alone; raises naming the first element still moving after 100
    steps.  The derivative 2 + 2 cos 2 theta vanishes at the poles, so |lat|
    must stay below pi/2.
    """
    lon, lat = np.asarray(lon, dtype=float), np.asarray(lat, dtype=float)
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
        lon, lat, moving = np.broadcast_arrays(lon, lat, moving)
        first = tuple(np.argwhere(moving)[0])
        raise RuntimeError(f"Mollweide iteration failed at lon={lon[first]}, lat={lat[first]}")
    x = 2.0 * np.sqrt(2.0) / np.pi * lon * np.cos(theta)
    y = np.broadcast_to(np.sqrt(2.0) * np.sin(theta), x.shape)
    return x, y


def riemann_export(h0s: np.ndarray, vs: np.ndarray, resolution: tuple[int, int],
                   workers: int = 1) -> np.ndarray:
    """Minimum gaps of h0s + lam vs over the Riemann sphere, in Mollweide plot coordinates.

    h0s and vs are a sector block pair, such as hamiltonian.site_blocks
    gives.  The sphere is sampled at n_lat latitudes from -0.98 pi/2 to
    0.98 pi/2 and n_lon longitudes from -pi up to (not including) pi,
    resolution = (n_lat, n_lon).  Inverse stereographic projection puts
    lam = 0 at the south pole, infinity at the north pole and the positive
    real axis on the zero meridian, so each point is the coupling
    r e^(i lon) with r = sqrt((1 + sin lat) / (1 - sin lat)).  Returns the rows
    (re lam, im lam, gap, x, y), latitude by latitude from the south; the
    gaps of the whole sphere come from grid_gaps, on up to `workers` threads.
    """
    n_lat, n_lon = resolution
    lats = np.linspace(-np.pi / 2 * 0.98, np.pi / 2 * 0.98, n_lat)
    lons = np.linspace(-np.pi, np.pi, n_lon, endpoint=False)
    sin = np.sin(lats)
    phases = np.exp(1j * lons)
    # lon = -pi + 2 pi k / n_lon lies on an axis where 4 k = q n_lon: the
    # phase i^(q - 2) exactly, so re or im is 0 there, not a rounding residue
    k = np.flatnonzero(4 * np.arange(n_lon) % n_lon == 0)
    phases[k] = np.array([1, 1j, -1, -1j])[(4 * k // n_lon - 2) % 4]
    lams = np.sqrt((1 + sin) / (1 - sin))[:, None] * phases
    rows = np.empty((n_lat, n_lon, 5))
    rows[..., 0], rows[..., 1] = lams.real, lams.imag
    rows[..., 2] = grid_gaps(h0s, vs, lams, workers)
    rows[..., 3], rows[..., 4] = _mollweide(lons, lats[:, None])
    return rows.reshape(-1, 5)
