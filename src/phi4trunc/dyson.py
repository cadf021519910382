"""Chronological (Dyson) expansion of the evolution operator.

In the interaction picture every matrix element of V(t) is a sum of terms
c e^(i Omega t) with Omega an unperturbed energy difference, and each
nested time-ordered integral maps sums of terms c t^k e^(i Omega t) into
themselves.  The expansion runs on graded real rationals and returns one
exact term map, (k, Omega) -> c with c = (re, im) a pair of Fractions when
the coupling and omega are rational; that is what lets low orders be
compared symbolically against closed forms.

Every Omega is omega m with m an integer (the levels are omega (n + 1/2)),
so terms are keyed by (k, m).  Integrating t^k e^(i omega m t) by parts
brings one factor 1/(i omega m) = -i/(omega m) per power of t it removes,
plus one, so each int_0^t raises (number of such factors + t-degree) by
exactly one.  At order p the coefficient of t^k e^(i omega m t) is
therefore a real rational times (-i)^(p-k), and the recursion carries only
that real rational (_integrate_graded).  With the factor (-i lam)^p it
becomes (-lam)^p times that real times i^k, so the whole sum over orders
is a real rational times i^k at every key, and it too is summed in reals.

The amplitude <out|U(t)|in> is assembled in the sqrt(n!)-weighted basis
(where the quartic term is rational) and carries the basis weight
sqrt(out!/in!) as an explicit prefactor, rounded once from the exact
factorials (algebra._nearest_sqrt), so it stays finite at every n_max.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import algebra
from .oscillator import TruncationSpec

__all__ = ["PhasePolynomial", "DysonAmplitude", "dyson_series", "DEFAULT_ORDER_CAP"]

DEFAULT_ORDER_CAP = 6


def _times_i_power(r: Fraction, k: int) -> tuple[Fraction, Fraction]:
    """(re, im) of the real r times i^k."""
    zero = Fraction(0)
    return ((r, zero), (zero, r), (-r, zero), (zero, -r))[k % 4]


def _merge(acc: dict, items) -> dict:
    """acc with every (key, c) of items added in and zero sums dropped.

    Keys keep the order of their first insertion; a key that sums to zero
    leaves, and comes back at the end if a later item brings it back.
    """
    cancelled = False
    for key, c in items:
        old = acc.get(key)
        if old is None:
            acc[key] = c
        else:
            acc[key] = c = old + c
            cancelled = cancelled or not c
    return {key: c for key, c in acc.items() if c} if cancelled else acc


def _integrate_graded(terms, omega) -> dict:
    """int_0^t of sum r t^k e^(i omega m t) over ((k, m), r) in terms, graded.

    A real r at (k, m) stands for the coefficient r (-i)^(-k) u with one
    unit u common to all terms; the result, keyed the same way, stands for
    its coefficients with unit -i u.  For m != 0 the reduction
    I_k = t^k e^(i w t)/(i w) - (k/(i w)) I_(k-1), w = omega m, unrolls
    down to k = 0 and the lower limit lands at (0, 0); for m = 0, t^k
    integrates to t^(k+1)/(k+1).  Zero coefficients are pruned.
    """
    out: dict = {}

    def add(key, c):
        old = out.get(key)
        out[key] = c if old is None else old + c

    for (k, m), r in terms:
        if m == 0:
            add((k + 1, m), r / (k + 1))
            continue
        w = omega * m
        q = r / w
        for j in range(k, 0, -1):
            add((j, m), q)
            q = q * -j / w
        add((0, m), q)
        add((0, 0), -q)
    return {key: c for key, c in out.items() if c}


@dataclass
class PhasePolynomial:
    """Finite sum of terms c t^k e^(i Omega t), as dyson_series returns it.

    terms maps (k, Omega) -> c = (re, im), a pair of Fractions, with Omega a
    Fraction, in the order the expansion first met each key.  No term is
    zero.
    """

    terms: dict = field(default_factory=dict)


@dataclass
class DysonAmplitude:
    """Phase polynomial for <out|U(t)|in> and its basis-weight prefactor.

    The polynomial is exact in the weighted basis; the physical amplitude
    is prefactor * poly(t) with prefactor the double nearest sqrt(out!/in!).
    """

    poly: PhasePolynomial
    prefactor: float

    def trace(self, t_grid) -> np.ndarray:
        """prefactor * poly(t) at every t of t_grid, with each coefficient and frequency converted once."""
        terms = [(complex(float(re), float(im)), k, 1j * float(w))
                 for (k, w), (re, im) in self.poly.terms.items()]
        out = []
        for t in np.asarray(t_grid, dtype=float):
            val = 0j
            for c, k, iw in terms:
                val += c * t**k * np.exp(iw * t)
            out.append(self.prefactor * complex(val))
        return np.array(out)


def dyson_series(
    trunc: TruncationSpec,
    order: int,
    lam,
    state_in: int,
    state_out: int,
) -> DysonAmplitude:
    """Dyson amplitude <out|exp(-iHt)|in> truncated at the given order.

    With a rational lam (int or Fraction) and rational omega the result is
    exact; a float lam degrades gracefully to exact-rational coefficients
    multiplying the float's binary value.  The nested integrals grow
    combinatorially with order, hence the cap DEFAULT_ORDER_CAP.
    """
    if order < 0:
        raise ValueError(f"order {order} must be at least 0")
    if order > DEFAULT_ORDER_CAP:
        raise ValueError(f"order {order} exceeds cap {DEFAULT_ORDER_CAP}")
    n = trunc.n_max
    if not (0 <= state_in < n and 0 <= state_out < n):
        raise ValueError(f"states {state_in}->{state_out} outside 0..{n - 1}")

    energies, v = algebra.weighted_hamiltonian(trunc)
    omega = energies[1] - energies[0]  # E_j - E_k = omega (j - k)
    minus_lam = -Fraction(lam)

    # current[j] = <j| (p-fold nested integral of V_I) |in>, graded: (k, m) -> r
    # stands for r (-i)^(p-k) t^k e^(i omega m t)
    current: dict[int, dict] = {state_in: {(0, 0): Fraction(1)}}
    # total: (k, m) -> R, the sum over orders, stands for R i^k t^k e^(i omega m t)
    total = {(0, 0): Fraction(1)} if state_in == state_out else {}
    for p in range(1, order + 1):
        nxt: dict[int, dict] = {}
        for k_state, poly in current.items():
            for j in range(n):
                vjk = v[j][k_state]
                if not vjk:
                    continue
                shift = j - k_state
                contrib = _integrate_graded(
                    (((k, m + shift), vjk * r) for (k, m), r in poly.items()), omega)
                nxt[j] = _merge(nxt.get(j, {}), contrib.items())
        current = nxt
        # (-i lam)^p times r (-i)^(p-k) is (-lam)^p r i^k
        scale = minus_lam**p
        if state_out in current and scale:
            total = _merge(total, ((key, scale * r) for key, r in current[state_out].items()))

    # Schroedinger picture: the global phase e^(-i E_out t) shifts every frequency
    shift = -energies[state_out]
    terms = {(k, omega * m + shift): _times_i_power(r, k) for (k, m), r in total.items()}
    prefactor = algebra._nearest_sqrt(math.factorial(state_out), math.factorial(state_in))
    return DysonAmplitude(PhasePolynomial(terms), prefactor)
