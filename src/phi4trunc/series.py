"""Weak- and strong-coupling energy expansions and radius estimation.

Weak coupling expands around the harmonic spectrum in powers of lam; since
the unperturbed energies are half-integers, the Rayleigh-Schrodinger
recursion restricted to a parity sector closes over exact rationals.  It
runs on the integers Q^k psi_k modulo word-size primes, as many as a float
bound on the numerators proves enough, and each coefficient comes back by
Chinese remaindering and is reduced once (algebra.rs_rational_series).
The same expansion solved from the characteristic polynomial, order by
order (weak_series_charpoly), is kept as an independent cross-check path,
which the benchmark's series check runs.

Strong coupling expands around phi^4 in powers of lam_tilde = 1/lam.  The
unperturbed energies are fourth powers of Hermite zeros, so the zeros, the
field eigenbasis and the recursion run on Python integers at a binary
precision set by a number of decimal digits, each value an integer
mantissa at an explicit power-of-two scale, rounded where a product is
cut back to the working bits.  A rerun at twice the digits certifies how
many survived, and the coefficients come back as mpmath floats.
"""
from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

from . import algebra
from .oscillator import TruncationSpec, hermite_zeros

__all__ = [
    "PowerSeries",
    "PrecisionExhausted",
    "weak_series",
    "weak_series_charpoly",
    "strong_series",
    "radius_estimate",
    "log_abs_coefficient",
]


# the fewest digits a strong series may certify
MIN_DIGITS = 6
# bits the strong series carries past its working precision, and the bits
# its Newton refinement takes from the double Hermite zeros
GUARD_BITS = 32
SEED_BITS = 52


class PrecisionExhausted(RuntimeError):
    """Strong-coupling recursion lost essentially all working digits."""


@dataclass
class PowerSeries:
    """Energy expansion coefficients, exact rationals or high-precision floats.

    domain is 'weak_lambda' (expansion in lam around 0) or
    'strong_lambda_tilde' (expansion in 1/lam around 0).  precision_digits
    is set only for the float domain.
    """

    coeffs: list
    domain: str
    precision_digits: int | None = None
    certified_digits: int | None = None
    meta: dict = field(default_factory=dict)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, x):
        """The sum of every term at x, by Horner's rule."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def partial_sums(self, x) -> list:
        out, acc, xp = [], 0, 1
        for c in self.coeffs:
            acc = acc + c * xp
            xp = xp * x
            out.append(acc)
        return out


def weak_series(trunc: TruncationSpec, level: int, max_order: int = 10) -> PowerSeries:
    """Exact rational expansion of E_level(lam) around lam = 0.

    level is the global harmonic label (0 .. n_max-1); within its parity
    sector the unperturbed spectrum is nondegenerate, so the plain
    nondegenerate recursion applies at every truncation.  meta["residues"]
    records how the recursion ran: the scale q of E_k = N_k / q^k, the
    number of primes, and the bits B of the bound |N_k| < 2^B that set it
    (algebra.rs_rational_series).
    """
    if max_order < 0:
        raise ValueError(f"order {max_order} must be at least 0")
    sector = algebra.level_sector(level)
    if not 0 <= level < trunc.n_max:
        raise ValueError(f"level {level} outside 0..{trunc.n_max - 1}")
    h0, v = algebra.weighted_sector_blocks(trunc, sector)
    record: dict = {}
    coeffs = algebra.rs_rational_series(h0, v, level // 2, max_order, record)
    return PowerSeries(coeffs, "weak_lambda", meta={"residues": record})


def weak_series_charpoly(trunc: TruncationSpec, level: int, max_order: int = 10) -> PowerSeries:
    """Same expansion obtained by solving the characteristic equation.

    Substitutes z(lam) = sum_m e_m lam^m into the exact sector polynomial
    f(z, lam) and solves order by order; kept as an independent check on
    the recursion path.
    """
    sector = algebra.level_sector(level)
    zc = algebra.sector_char_poly(trunc, sector)  # z-coeffs of integer lam-polys
    s = len(zc) - 1

    e = [Fraction(trunc.omega) * (level + Fraction(1, 2))]

    def f_of_series(zser: list[Fraction], upto: int) -> list[Fraction]:
        """Coefficients of f(z(lam), lam) through lam^upto, by Horner in z."""
        acc = [Fraction(c) for c in zc[s][: upto + 1]]
        for j in range(s - 1, -1, -1):
            acc = [a + (zc[j][i] if i < len(zc[j]) else 0) for i, a in enumerate(_trunc_mul(acc, zser, upto))]
        return acc

    # df/dz at (e0, 0) must be nonzero for a simple root
    dfdz0 = sum(k * Fraction(zc[k][0]) * e[0] ** (k - 1) for k in range(1, s + 1))
    if dfdz0 == 0:
        raise ValueError(f"level {level} is not a simple root at lam=0")

    for m in range(1, max_order + 1):
        resid = f_of_series(e + [Fraction(0)], m)
        e.append(-resid[m] / dfdz0 if m < len(resid) else Fraction(0))
    return PowerSeries(e, "weak_lambda")


def _trunc_mul(p: list[Fraction], q: list[Fraction], upto: int) -> list[Fraction]:
    out = [Fraction(0)] * (upto + 1)
    for i, a in enumerate(p[: upto + 1]):
        if a:
            for j in range(min(len(q), upto + 1 - i)):
                if q[j]:
                    out[i + j] += a * q[j]
    return out


# ---------------------------------------------------------------------------
# strong coupling

def _field_zeros(n: int, p: int) -> list[tuple[int, list[int]]]:
    """Positive zeros x of H_n, ascending, each with h_0(x), ..., h_n(x); integers at the scale 2^p.

    h_k(x) = H_k(x)/sqrt(2^k k!) are the normalised Hermite values, bounded
    by about exp(x^2/2), from the recurrence h_(k+1) = x a_k h_k - b_k h_(k-1)
    with the constants a_k = sqrt(2/(k+1)) and b_k = sqrt(k/(k+1)) rounded by
    math.isqrt.
    Newton's method, h'_n = sqrt(2n) h_(n-1), starts from the double
    zeros and runs on a ladder of precisions that about doubles per step
    up to p, then takes one more step at p.
    """
    a = [math.isqrt((2 << 2 * p) // (k + 1)) for k in range(n)]
    b = [math.isqrt((k << 2 * p) // (k + 1)) for k in range(n)]
    c = math.isqrt(2 * n << 2 * p)
    ladder = [p, p]  # each step about doubles the correct bits, so each rung may be 8 more than half the next
    while ladder[-1] // 2 + 8 > SEED_BITS:
        ladder.append(ladder[-1] // 2 + 8)
    xs, q = [int(math.ldexp(x, SEED_BITS)) for x in hermite_zeros(n) if x > 0], SEED_BITS
    for r in reversed(ladder):
        d = p - r
        ar, br, cr = [x >> d for x in a], [x >> d for x in b], c >> d
        xs, q = [x << (r - q) for x in xs], r
        for i, x in enumerate(xs):
            h = _hermite_rows(x, ar, br, r)
            xs[i] = x - (h[n] << r) // (cr * h[n - 1] >> r)
    return [(x, _hermite_rows(x, a, b, p)) for x in xs]


def _hermite_rows(x: int, a: list[int], b: list[int], p: int) -> list[int]:
    """h_0(x), ..., h_len(a)(x) at the scale 2^p, each product floored once."""
    h, last = [1 << p], 0
    for ak, bk in zip(a, b):
        h.append(((x * ak >> p) * h[-1] - bk * last) >> p)
        last = h[-2]
    return h


def _strong_blocks(trunc: TruncationSpec, sector: str, p: int) -> tuple[list[int], list[list[int]]]:
    """h0 = x_j^4 / omega^2 and the harmonic term w in the sector's field eigenbasis, at the scale 2^p.

    The parity-projected field eigenvectors are u_j[m] = sqrt(2) <l_m | phi_j>
    = sqrt(2/n) h_(l_m)(x_j) / h_(n-1)(x_j) over the sector's levels l_m, and
    w[j][k] = omega sum_m (l_m + 1/2) u_j[m] u_k[m] is summed exactly.
    """
    n = trunc.n_max
    omega = Fraction(trunc.omega)
    levels = algebra.sector_indices(n, sector)
    root = math.isqrt((2 << 2 * p) // n)
    zeros = _field_zeros(n, p)
    u = [[h[m] * root // h[n - 1] for m in levels] for _, h in zeros]
    weighted = [[(2 * m + 1) * x for m, x in zip(levels, row)] for row in u]
    den = 2 * omega.denominator << p
    w = [[sum(map(operator.mul, wj, uk)) * omega.numerator // den for uk in u] for wj in weighted]
    h0 = [x**4 * omega.denominator**2 // (omega.numerator**2 << 3 * p) for x, _ in zeros]
    return h0, w


def _rs_fixed(h0: list[int], w: list[list[int]], pos: int, max_order: int, p: int) -> list[tuple[int, int]]:
    """The nondegenerate Rayleigh-Schrodinger recursion on integers in binary block floating point.

    h0 and w are integers at the scale 2^p.  Each state psi_k is kept as
    integers P_k at its own scale 2^t_k, chosen so that its largest entry
    has p bits, so the precision follows the state however fast the series
    grows or falls.  E_k = sum_i w[pos][i] psi_(k-1)[i] is exact from
    P_(k-1), at the scale 2^(p + t_(k-1)); the convolution takes it rounded
    to p bits.  The right-hand side w psi_(k-1) - sum_j E_j psi_(k-j) is
    summed exactly, each E_j shifted so that every term sits at the finest
    of their scales, and its product with the resolvent is rounded once to
    P_k.  Returns the energies as (mantissa, scale) pairs,
    E_k = mantissa / 2^scale.
    """
    s = len(h0)
    res = [0 if m == pos else (1 << 2 * p) // (h0[pos] - e) for m, e in enumerate(h0)]
    cols = [[1 << p if m == pos else 0] for m in range(s)]  # cols[m][k] = P_k[m]
    scales = [p]  # t_k
    energies = [(h0[pos], p)]
    short = []  # (E_j rounded to p bits, its scale) for j >= 1
    for k in range(1, max_order + 1):
        prev = [col[-1] for col in cols]
        t = scales[-1]
        e = sum(map(operator.mul, w[pos], prev))
        energies.append((e, p + t))
        # scales of the terms E_j psi_(k-j), j = 1 .. k-1, and of w psi_(k-1)
        conv = [u + tj for (_, u), tj in zip(short, reversed(scales))]
        top = max([p + t, *conv])
        lifted = [x << (top - d) for (x, _), d in zip(short, conv)]
        vals = [res[m] * ((sum(map(operator.mul, w[m], prev)) << (top - p - t))
                          - sum(map(operator.mul, lifted, reversed(cols[m])))) for m in range(s)]
        held = max(abs(v) for v in vals).bit_length()
        drop = max(0, held - p)
        half = (1 << drop) >> 1
        for col, v in zip(cols, vals):
            col.append((v + half) >> drop)
        scales.append(top + p - drop)
        cut = max(0, abs(e).bit_length() - p)
        short.append((e >> cut, p + t - cut))
    return energies


def strong_series(
    trunc: TruncationSpec,
    level: int,
    sector: str = "even",
    max_order: int = 10,
    precision_digits: int | None = None,
) -> PowerSeries:
    """Expansion of E_str in lam_tilde around the phi^4 spectrum.

    level indexes the sector's unperturbed states by ascending phi^4
    eigenvalue (0 = smallest).  Exact arithmetic is impractical here, so the
    recursion runs at precision_digits decimal digits (default
    4 * max_order, floor 30), and then repeated at double precision; the
    agreement is recorded in certified_digits.
    """
    if max_order < 0:
        raise ValueError(f"order {max_order} must be at least 0")
    if sector not in ("even", "odd"):
        raise ValueError(f"sector must be 'even' or 'odd', got {sector!r}")
    s = trunc.n_max // 2
    if not 0 <= level < s:
        raise ValueError(f"strong-coupling level must be in 0..{s - 1}, got {level}")
    digits = precision_digits if precision_digits is not None else max(30, 4 * max_order)
    if digits < MIN_DIGITS:
        raise ValueError(f"precision {digits} must be at least {MIN_DIGITS} digits, the fewest it can certify")
    import mpmath as mp

    passes, precs = [], [mp.libmp.dps_to_prec(dps) + GUARD_BITS for dps in (digits + 10, 2 * digits + 10)]
    for p in precs:
        h0, w = _strong_blocks(trunc, sector, p)
        passes.append(_rs_fixed(h0, w, level, max_order, p))
    # a coefficient that the rerun shrinks by half the bits it adds, or more,
    # follows the working precision, not the series: it is the rounding
    # residue of an exact zero, such as the odd orders of a two-level odd
    # block, and reads zero; the recursion's states are left as they are
    shrink = (precs[1] - precs[0]) // 2
    certified = digits
    for k, ((a, x), (b, y)) in enumerate(zip(*passes)):
        z = max(x, y)
        a, b = a << (z - x), b << (z - y)
        if a and abs(b) << shrink <= abs(a):
            passes[0][k], a = (0, x), 0
        if a == b:
            continue
        # log10 of |a - b| / |b|, with 10^-digits in its place where a or b is zero
        err = math.log10(abs(a - b)) - (math.log10(abs(b)) if a and b else z * math.log10(2) - digits)
        certified = min(certified, max(0, min(digits, int(-err))))
    if certified < MIN_DIGITS:
        raise PrecisionExhausted(
            f"strong series certified only {certified} digits at dps={digits}; "
            "raise precision_digits"
        )
    with mp.workdps(digits + 10):
        coeffs = [mp.mpf((m, -e)) for m, e in passes[0]]
    return PowerSeries(coeffs, "strong_lambda_tilde", precision_digits=digits, certified_digits=certified)


# ---------------------------------------------------------------------------
# radius of convergence from coefficients

def log_abs_coefficient(c) -> float:
    """ln|c| that stays finite for huge exact rationals."""
    if isinstance(c, Fraction):
        return math.log(abs(c.numerator)) - math.log(c.denominator)
    if hasattr(c, "_mpf_"):  # an mpmath float, whose exponent may be past a double's
        import mpmath as mp

        return float(mp.log(abs(c)))
    return math.log(abs(c))


def radius_estimate(series: PowerSeries, fit_lo: int, fit_hi: int) -> tuple[float, float]:
    """(radius, slope) from a linear fit of ln|a_m| against m on [fit_lo, fit_hi].

    Zero coefficients inside the window are skipped with a warning; fewer
    than 10 usable points is an error.  radius = exp(-slope).
    """
    if fit_hi > series.order:
        raise ValueError(f"fit window end {fit_hi} exceeds available order {series.order}")
    if fit_lo < 0 or fit_lo >= fit_hi:
        raise ValueError(f"bad fit window [{fit_lo}, {fit_hi}]")
    pts = []
    for m in range(fit_lo, fit_hi + 1):
        c = series.coeffs[m]
        if c == 0:
            warnings.warn(f"zero coefficient at order {m} skipped in radius fit", RuntimeWarning)
            continue
        pts.append((m, log_abs_coefficient(c)))
    if len(pts) < 10:
        raise ValueError(f"only {len(pts)} usable points in fit window; need at least 10")
    n = len(pts)
    sx = sum(p[0] for p in pts)
    sy = sum(p[1] for p in pts)
    sxx = sum(p[0] * p[0] for p in pts)
    sxy = sum(p[0] * p[1] for p in pts)
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    return math.exp(-slope), slope

