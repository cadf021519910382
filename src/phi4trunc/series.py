"""Weak- and strong-coupling energy expansions and radius estimation.

Weak coupling expands around the harmonic spectrum in powers of lam; since
the unperturbed energies are half-integers, the Rayleigh-Schrodinger
recursion restricted to a parity sector closes over exact rationals; it
runs on integers at a scale A B^k read off the block's first orders and
widened where an exact division fails, so each coefficient is reduced
once (algebra.rs_rational_series).  The same
expansion solved from the characteristic polynomial, order by order, is
kept as an independent cross-check path.

Strong coupling expands around phi^4 in powers of lam_tilde = 1/lam.  The
unperturbed energies are fourth powers of Hermite zeros, so the recursion
runs in software floating point at a configurable number of decimal digits,
with a doubled-precision rerun to certify how many digits survived.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp

from . import algebra
from .oscillator import TruncationSpec, _hermite_normalized, hermite_zeros

__all__ = [
    "PowerSeries",
    "PrecisionExhausted",
    "weak_series",
    "weak_series_charpoly",
    "strong_series",
    "radius_estimate",
    "benderwu_asymptote",
    "log_abs_coefficient",
]


class PrecisionExhausted(RuntimeError):
    """Strong-coupling recursion lost essentially all working digits."""


@dataclass
class PowerSeries:
    """Energy expansion coefficients, exact rationals or high-precision floats.

    domain is 'weak_lambda' (expansion in lam around 0) or
    'strong_lambda_tilde' (expansion in 1/lam around 0); origin records the
    expansion point.  precision_digits is set only for the float domain.
    """

    coeffs: list
    domain: str
    level: int = 0
    sector: str = "even"
    origin: float = 0.0
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


def weak_series(
    trunc: TruncationSpec, level: int, sector: str | None = None, max_order: int = 10
) -> PowerSeries:
    """Exact rational expansion of E_level(lam) around lam = 0.

    level is the global harmonic label (0 .. n_max-1); within its parity
    sector the unperturbed spectrum is nondegenerate, so the plain
    nondegenerate recursion applies at every truncation.  meta["scale"]
    records the integer scale the recursion ran at: q, offset, base and
    the orders at which it widened (algebra.rs_rational_series).
    """
    if max_order < 0:
        raise ValueError(f"order {max_order} must be at least 0")
    sector = algebra.level_sector(level, sector)
    if not 0 <= level < trunc.n_max:
        raise ValueError(f"level {level} outside 0..{trunc.n_max - 1}")
    h0, v = algebra.weighted_sector_blocks(trunc, sector)
    scale: dict = {}
    coeffs = algebra.rs_rational_series(h0, v, level // 2, max_order, scale)
    return PowerSeries(coeffs, "weak_lambda", level, sector, meta={"scale": scale})


def weak_series_charpoly(
    trunc: TruncationSpec, level: int, sector: str | None = None, max_order: int = 10
) -> PowerSeries:
    """Same expansion obtained by solving the characteristic equation.

    Substitutes z(lam) = sum_m e_m lam^m into the exact sector polynomial
    f(z, lam) and solves order by order; kept as an independent check on
    the recursion path.
    """
    sector = algebra.level_sector(level, sector)
    zc = algebra.sector_char_poly(trunc, sector)  # z-coeffs of integer lam-polys
    s = len(zc) - 1
    pos = level // 2

    e = [Fraction(2 * pos + (0 if sector == "even" else 1)) + Fraction(1, 2)]
    e[0] *= Fraction(trunc.omega)

    def f_of_series(zser: list[Fraction], upto: int) -> list[Fraction]:
        """Coefficients of f(z(lam), lam) through lam^upto, by Horner in z."""
        acc = [Fraction(c) for c in zc[s][: upto + 1]]
        for j in range(s - 1, -1, -1):
            acc = _trunc_mul(acc, zser, upto)
            cj = [Fraction(c) for c in zc[j][: upto + 1]]
            acc = _trunc_add(acc, cj, upto)
        return acc

    # df/dz at (e0, 0) must be nonzero for a simple root
    dfdz0 = sum(k * Fraction(zc[k][0]) * e[0] ** (k - 1) for k in range(1, s + 1))
    if dfdz0 == 0:
        raise ValueError(f"level {level} is not a simple root at lam=0")

    for m in range(1, max_order + 1):
        resid = f_of_series(e + [Fraction(0)], m)
        e.append(-resid[m] / dfdz0 if m < len(resid) else Fraction(0))
    return PowerSeries(e, "weak_lambda", level, sector, meta={"path": "charpoly"})


def _trunc_mul(p: list[Fraction], q: list[Fraction], upto: int) -> list[Fraction]:
    out = [Fraction(0)] * (upto + 1)
    for i, a in enumerate(p[: upto + 1]):
        if a:
            for j in range(min(len(q), upto + 1 - i)):
                if q[j]:
                    out[i + j] += a * q[j]
    return out


def _trunc_add(p: list[Fraction], q: list[Fraction], upto: int) -> list[Fraction]:
    n = max(len(p), len(q))
    out = [(p[i] if i < len(p) else Fraction(0)) + (q[i] if i < len(q) else Fraction(0))
           for i in range(min(n, upto + 1))]
    return out


# ---------------------------------------------------------------------------
# strong coupling

def _hermite_zeros_mp(degree: int) -> list:
    """Positive zeros of H_degree at working precision, by Newton refinement."""
    seeds = [x for x in hermite_zeros(degree) if x > 0]
    out = []
    for seed in seeds:
        x = mp.mpf(seed)
        for _ in range(60):
            h = _hermite_normalized(degree, x, mp.sqrt)
            dh = mp.sqrt(2 * mp.mpf(degree)) * h[-2]  # h'_n = sqrt(2n) h_{n-1}
            step = h[-1] / dh
            x -= step
            if abs(step) < mp.mpf(10) ** (-mp.mp.dps + 2):
                break
        out.append(x)
    return out


def _strong_coefficients(trunc: TruncationSpec, pos: int, sector: str, max_order: int) -> list:
    """One strong-coupling recursion pass at the current mpmath precision."""
    n = trunc.n_max
    omega = mp.mpf(trunc.omega)
    xs = _hermite_zeros_mp(n)  # positive zeros, ascending
    s = n // 2
    rem = 0 if sector == "even" else 1
    levels = [2 * k + rem for k in range(s)]

    # parity-projected field eigenvectors: u_j[m] = sqrt(2) <levels[m] | phi_j>
    basis = []
    for x in xs:
        hvals = _hermite_normalized(n - 1, x, mp.sqrt)
        top = hvals[n - 1]
        basis.append([mp.sqrt(mp.mpf(2)) * hvals[m] / (mp.sqrt(mp.mpf(n)) * top) for m in levels])

    # unperturbed energies x_j^4/omega^2 ascending; perturbation = harmonic term
    h0 = [x**4 / omega**2 for x in xs]
    w = [[sum(basis[j][m] * omega * (levels[m] + mp.mpf(1) / 2) * basis[k][m] for m in range(s))
          for k in range(s)] for j in range(s)]
    return algebra.rayleigh_schrodinger(h0, w, pos, max_order)[0]


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

    with mp.workdps(digits + 10):
        coeffs = _strong_coefficients(trunc, level, sector, max_order)
    with mp.workdps(2 * digits + 10):
        ref = _strong_coefficients(trunc, level, sector, max_order)
    certified = digits
    for a, b in zip(coeffs, ref):
        if a == b == 0:
            continue
        denom = abs(b) if abs(b) > 0 else mp.mpf(10) ** (-digits)
        err = abs(a - b) / denom
        agree = digits if err == 0 else min(digits, int(-mp.log10(err)))
        certified = min(certified, max(agree, 0))
    if certified < 6:
        raise PrecisionExhausted(
            f"strong series certified only {certified} digits at dps={digits}; "
            "raise precision_digits"
        )
    return PowerSeries(
        coeffs, "strong_lambda_tilde", level, sector,
        precision_digits=digits, certified_digits=certified,
    )


# ---------------------------------------------------------------------------
# radius of convergence from coefficients

def log_abs_coefficient(c) -> float:
    """ln|c| that stays finite for huge exact rationals."""
    if isinstance(c, Fraction):
        return math.log(abs(c.numerator)) - math.log(c.denominator)
    if isinstance(c, mp.mpf):
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


def benderwu_asymptote(m: int) -> float:
    """Large-order growth sqrt(6/pi^3) 3^m Gamma(m + 1/2) of the untruncated series."""
    if m < 0:
        raise ValueError(f"order must be nonnegative, got {m}")
    log_val = 0.5 * math.log(6.0 / math.pi**3) + m * math.log(3.0) + math.lgamma(m + 0.5)
    if log_val > 700.0:
        raise OverflowError(f"asymptote at order {m} exceeds double range; use the log form")
    return math.exp(log_val)
