"""Perturbed eigenprojectors and projector-method time evolution.

A nondegenerate level of H0 + lam V has the rank-one projector

    P(lam) = |psi_R(lam)><psi_L(lam)| / <psi_L(lam)|psi_R(lam)>

(Kato, Perturbation Theory for Linear Operators, ch. II), with psi_R and
psi_L its right and left eigenvectors.  In the sqrt(n!)-weighted basis V is
rational but not symmetric, so psi_R is the Rayleigh-Schrodinger state
series on the level's sector block of V and psi_L the same series on its
transpose; the normalisation series is inverted term by term.  Everything
stays in exact rationals, and the cost is polynomial in the order.  Time
evolution follows by inserting the perturbed resolution of identity: each
level contributes <out|P_n|in> e^(-i E_n t) with the energy from its weak
series at the same order, so phases stay bounded for all t.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import algebra
from .oscillator import TruncationSpec
from .series import radius_estimate, weak_series

__all__ = [
    "ProjectorSeries",
    "AmplitudeTrace",
    "perturbed_projector",
    "evolve_projector_method",
]


@dataclass
class ProjectorSeries:
    """Coefficient matrices of |n><n| in powers of lam.

    weighted[m][i][j] are exact rationals in the sqrt(n!)-weighted basis;
    the standard-basis entry carries an extra sqrt(i!/j!), which is folded
    in by coefficient_matrix / matrices.
    """

    level: int
    order: int
    weighted: list = field(repr=False)
    n_max: int = 0

    def entry_exact(self, m: int, i: int, j: int) -> Fraction:
        """Rational part of the order-m (i, j) entry; multiply by sqrt(i!/j!)."""
        return self.weighted[m][i][j]

    def coefficient_matrix(self, m: int) -> np.ndarray:
        d = np.sqrt([math.factorial(k) for k in range(self.n_max)])
        w = np.array([[float(x) for x in row] for row in self.weighted[m]])
        return (d[:, None] * w) / d[None, :]

    @property
    def matrices(self) -> list[np.ndarray]:
        return [self.coefficient_matrix(m) for m in range(self.order + 1)]

    def evaluate(self, lam: float, order: int | None = None) -> np.ndarray:
        upto = self.order if order is None else min(order, self.order)
        acc = np.zeros((self.n_max, self.n_max))
        for m in range(upto, -1, -1):
            acc = acc * lam + self.coefficient_matrix(m)
        return acc


@dataclass
class AmplitudeTrace:
    """Transition amplitude and probability sampled on a time grid."""

    t: np.ndarray
    amplitude: np.ndarray
    method: str = "projector"

    @property
    def probability(self) -> np.ndarray:
        return np.abs(self.amplitude) ** 2


def _convergence_warning(trunc: TruncationSpec, level: int, lam: float) -> None:
    try:
        ser = weak_series(trunc, level, max_order=40)
        radius, _ = radius_estimate(ser, 20, 40)
    except (ValueError, ArithmeticError):
        return
    if abs(lam) >= radius:
        warnings.warn(
            f"|lam|={abs(lam):.4g} is outside the estimated convergence radius "
            f"{radius:.4g} of level {level}; the expansion is not reliable",
            RuntimeWarning,
        )


def perturbed_projector(
    trunc: TruncationSpec,
    level: int,
    sector: str | None = None,
    order: int = 4,
    lam: float | None = None,
    check_convergence: bool = True,
) -> tuple[ProjectorSeries, np.ndarray | None]:
    """Projector series for one level through the given order, plus its value.

    Built from the Rayleigh-Schrodinger right and left state series on the
    level's parity-sector block, with exact rationals throughout, then
    embedded in the full weighted basis (entries outside the sector are
    zero).  Returns (series, evaluated matrix at lam in the standard
    basis), the second entry None when lam is not supplied.
    """
    n = trunc.n_max
    if not 0 <= level < n:
        raise ValueError(f"level {level} outside 0..{n - 1}")
    sector = algebra.level_sector(level, sector)
    h0, v = algebra.weighted_sector_blocks(trunc, sector)
    pos = level // 2
    vt = [list(col) for col in zip(*v)]
    _, right = algebra.rayleigh_schrodinger(h0, v, pos, order)
    _, left = algebra.rayleigh_schrodinger(h0, vt, pos, order)

    # <psi_L|psi_R> order by order, its inverse term by term (norm[0] = 1),
    # and psi_R / <psi_L|psi_R>
    s, orders = len(h0), range(order + 1)
    norm = [sum(left[m - a][i] * right[a][i] for a in range(m + 1) for i in range(s))
            for m in orders]
    inv = [Fraction(1)]
    for m in range(1, order + 1):
        inv.append(-sum(norm[j] * inv[m - j] for j in range(1, m + 1)))
    scaled = [[sum(inv[m - a] * right[a][i] for a in range(m + 1)) for i in range(s)]
              for m in orders]

    idx = algebra.sector_indices(n, sector)
    coeff_mats = []
    for m in orders:
        full = [[Fraction(0)] * n for _ in range(n)]
        for a in range(m + 1):
            r, lft = scaled[a], left[m - a]
            for i, ri in zip(idx, r):
                if ri:
                    for j, lj in zip(idx, lft):
                        full[i][j] += ri * lj
        coeff_mats.append(full)

    series = ProjectorSeries(level, order, coeff_mats, n)
    value = None
    if lam is not None:
        if check_convergence:
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
    check_convergence: bool = True,
) -> AmplitudeTrace:
    """Amplitude <out|U(t)|in> from order-truncated projectors and energies.

    Sums e^(-i E_n(lam) t) weighted by the projector matrix elements over
    every level in the input state's parity sector; both P_n and E_n are
    partial sums through the same order.  States of opposite parity give an
    identically zero trace.
    """
    t = np.asarray(t_grid, dtype=float)
    if state_in % 2 != state_out % 2:
        return AmplitudeTrace(t, np.zeros(len(t), dtype=complex))
    if check_convergence:
        _convergence_warning(trunc, state_in, lam)

    amplitude = np.zeros(len(t), dtype=complex)
    for level in range(state_in % 2, trunc.n_max, 2):
        series, _ = perturbed_projector(trunc, level, None, order, None, False)
        weight = series.evaluate(lam)[state_out, state_in]
        if weight == 0.0:
            continue
        energy = float(weak_series(trunc, level, max_order=order).evaluate(lam))
        amplitude += weight * np.exp(-1j * energy * t)
    return AmplitudeTrace(t, amplitude)
