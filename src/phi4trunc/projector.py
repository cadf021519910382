"""Perturbed eigenprojectors and projector-method time evolution.

A nondegenerate level of H0 + lam V has the rank-one projector

    P(lam) = |psi_R(lam)><psi_L(lam)| / <psi_L(lam)|psi_R(lam)>

(Kato, Perturbation Theory for Linear Operators, ch. II), with psi_R and
psi_L its right and left eigenvectors.  In the sqrt(n!)-weighted basis,
V = D^-1 V_occ D is rational but not symmetric; with V_occ symmetric and
D^2 = diag(k!), V^T = D^2 V D^-2.  So psi_L, the Rayleigh-Schrodinger
state series on the transpose, is psi_R times k!/level! entry by entry,
and one run of the recursion gives both; a scale of psi_L cancels between
the outer product and <psi_L|psi_R>.  The normalisation series is
inverted term by term.  Everything stays exact, as integers at the scale
Q^m with one rational per final entry, and the cost is polynomial in the
order.  Time evolution follows by inserting the perturbed resolution of
identity: each level contributes <out|P_n|in> e^(-i E_n t) with the
energy from its weak series at the same order, read off the same
recursion, so phases stay bounded for all t.  Only evaluation rounds: a
weighted entry becomes a double scaled by sqrt(i!)/sqrt(j!), each root
correctly rounded (algebra._nearest_sqrt).  Evaluating a projector at
lam, or evolving from a state, warns when |lam| is at or past the
convergence radius fitted to the weak series of that level.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import algebra
from .oscillator import TruncationSpec
from .series import PowerSeries, radius_estimate, weak_series

__all__ = [
    "ProjectorSeries",
    "perturbed_projector",
    "evolve_projector_method",
]


@dataclass
class ProjectorSeries:
    """Coefficient matrices of |n><n| in powers of lam, and the level's energy series.

    weighted[m][i][j] is the exact rational order-m (i, j) entry in the
    sqrt(n!)-weighted basis; the standard-basis entry carries an extra
    sqrt(i!/j!), which is folded in by coefficient_matrix.  energy holds
    E_n through the same order, exact, from the recursion that gives the
    right states.
    """

    weighted: list = field(repr=False)
    energy: PowerSeries = field(repr=False)

    @property
    def order(self) -> int:
        return len(self.weighted) - 1

    @property
    def n_max(self) -> int:
        return len(self.weighted[0])

    def coefficient_matrix(self, m: int) -> np.ndarray:
        d = np.array([algebra._nearest_sqrt(math.factorial(k), 1) for k in range(self.n_max)])
        w = np.array([[float(x) for x in row] for row in self.weighted[m]])
        return (d[:, None] * w) / d[None, :]

    def evaluate(self, lam: float) -> np.ndarray:
        acc = np.zeros((self.n_max, self.n_max))
        for m in range(self.order, -1, -1):
            acc = acc * lam + self.coefficient_matrix(m)
        return acc


def _convergence_warning(trunc: TruncationSpec, level: int, lam: float) -> None:
    """Warn when |lam| is at or past the radius fitted to orders 20-40 of the level's weak series.

    The fit's own warnings, for the zero coefficients it skips (such as the
    odd orders of a two-level odd block), are not passed on.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            radius, _ = radius_estimate(weak_series(trunc, level, max_order=40), 20, 40)
    except (ValueError, ArithmeticError):
        return
    if abs(lam) >= radius:
        warnings.warn(
            f"|lam|={abs(lam):.4g} is outside the estimated convergence radius "
            f"{radius:.4g} of level {level}; the expansion is not reliable",
            RuntimeWarning,
        )


def _level_projector(
    h0: list[Fraction], v: list[list[Fraction]], level: int, sector: str, order: int, n: int
) -> ProjectorSeries:
    """Projector and energy series of one level of its sector block.

    One run of the scaled-integer recursion gives the right states as the
    integers Q^m psi_R,m.  By the similarity the left states are g_k / g_level
    times them, g_k = k! over the sector's global indices; any scale of psi_L
    cancels in P.  The norm series Q^m <psi_L|psi_R>_m is a Fraction over
    g_level with constant term 1; its term-by-term inverse is cleared by the
    lcm d of its denominators, and each entry is reduced once, over
    d g_level Q^m.  The block sits at the sector's rows and columns of an
    n x n matrix that is zero elsewhere.
    """
    pos, idx = level // 2, algebra.sector_indices(n, sector)
    energies, right, q = algebra._rs_scaled_integer(h0, v, pos, order)
    g = [math.factorial(k) for k in idx]

    # Q^m <psi_L|psi_R>_m, its inverse term by term (norm[0] = 1) cleared
    # by d, and d Q^m (psi_R / <psi_L|psi_R>)_m
    s, orders = len(h0), range(order + 1)
    norm = [Fraction(sum(g[i] * sum(right[m - a][i] * right[a][i] for a in range(m + 1)) for i in range(s)),
                     g[pos]) for m in orders]
    inv = [Fraction(1)]
    for m in range(1, order + 1):
        inv.append(-sum(norm[j] * inv[m - j] for j in range(1, m + 1)))
    d = math.lcm(*(x.denominator for x in inv))
    inv = [x.numerator * (d // x.denominator) for x in inv]
    scaled = [[sum(inv[m - a] * right[a][i] for a in range(m + 1)) for i in range(s)]
              for m in orders]

    coeff_mats = []
    for m in orders:
        full = [[Fraction(0)] * n for _ in range(n)]
        den = d * g[pos] * q**m
        for bi, i in enumerate(idx):
            for bj, j in enumerate(idx):
                if x := sum(scaled[a][bi] * right[m - a][bj] for a in range(m + 1)):
                    full[i][j] = Fraction(g[bj] * x, den)
        coeff_mats.append(full)
    energy = PowerSeries(energies, "weak_lambda")
    return ProjectorSeries(coeff_mats, energy)


def perturbed_projector(
    trunc: TruncationSpec,
    level: int,
    order: int = 4,
    lam: float | None = None,
) -> tuple[ProjectorSeries, np.ndarray | None]:
    """Projector series for one level through the given order, plus its value.

    Built from the Rayleigh-Schrodinger state series on the level's
    parity-sector block, whose left states are k!/level! times its right
    ones, with exact rationals throughout, then embedded in the full
    weighted basis (entries outside the sector are zero).  Returns
    (series, evaluated matrix at lam in the standard basis), the second
    entry None when lam is not supplied.
    """
    n = trunc.n_max
    if not 0 <= level < n:
        raise ValueError(f"level {level} outside 0..{n - 1}")
    if order < 0:
        raise ValueError(f"order {order} must be at least 0")
    sector = algebra.level_sector(level)
    h0, v = algebra.weighted_sector_blocks(trunc, sector)
    series = _level_projector(h0, v, level, sector, order, n)
    value = None
    if lam is not None:
        _convergence_warning(trunc, level, lam)
        value = series.evaluate(lam)
    return series, value


def evolve_projector_method(
    trunc: TruncationSpec,
    order: int,
    lam: float,
    t_grid,
    state_in: int,
    state_out: int,
) -> np.ndarray:
    """Amplitude <out|U(t)|in> at each time of t_grid, from order-truncated projectors and energies.

    Sums e^(-i E_n(lam) t) weighted by the projector matrix elements over
    every level in the input state's parity sector; both P_n and E_n are
    partial sums through the same order, and both come from one
    Rayleigh-Schrodinger run per level on the sector block, built once.
    States of opposite parity give an identically zero amplitude.
    """
    if order < 0:
        raise ValueError(f"order {order} must be at least 0")
    if not (0 <= state_in < trunc.n_max and 0 <= state_out < trunc.n_max):
        raise ValueError(f"states {state_in}->{state_out} outside 0..{trunc.n_max - 1}")
    t = np.asarray(t_grid, dtype=float)
    if state_in % 2 != state_out % 2:
        return np.zeros(len(t), dtype=complex)
    _convergence_warning(trunc, state_in, lam)

    n = trunc.n_max
    sector = algebra.level_sector(state_in)
    h0, v = algebra.weighted_sector_blocks(trunc, sector)
    amplitude = np.zeros(len(t), dtype=complex)
    for level in algebra.sector_indices(n, sector):
        series = _level_projector(h0, v, level, sector, order, n)
        weight = series.evaluate(lam)[state_out, state_in]
        if weight == 0.0:
            continue
        energy = float(series.energy.evaluate(lam))
        amplitude += weight * np.exp(-1j * energy * t)
    return amplitude
