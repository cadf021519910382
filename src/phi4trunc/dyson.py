"""Chronological (Dyson) expansion of the evolution operator.

In the interaction picture every matrix element of V(t) is a sum of terms
c e^(i Omega t) with Omega an unperturbed energy difference, and each
nested time-ordered integral maps the algebra of terms c t^k e^(i Omega t)
into itself.  PhasePolynomial implements that closed algebra; when the
coupling and omega are rational the coefficients stay exact Gaussian
rationals, which is what lets low orders be compared symbolically against
closed forms.

The series itself never needs the Gaussian arithmetic.  Every Omega is
omega m with m an integer (the levels are omega (n + 1/2)), so terms are
keyed by (k, m).  Integrating t^k e^(i omega m t) by parts brings one
factor 1/(i omega m) = -i/(omega m) per power of t it removes, plus one, so
each int_0^t raises (number of such factors + t-degree) by exactly one.
At order p the coefficient of t^k e^(i omega m t) is therefore a real
rational times (-i)^(p-k), and the recursion carries only that real
rational (_integrate_graded).  Order p enters the Gaussian total once, as
lam^p (-i)^(2p-k) times it.

The amplitude <out|U(t)|in> is assembled in the sqrt(n!)-weighted basis
(where the quartic term is rational) and carries the basis weight
sqrt(out!/in!) as an explicit prefactor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import algebra
from .oscillator import TruncationSpec

__all__ = ["QQi", "PhasePolynomial", "DysonAmplitude", "dyson_series", "DEFAULT_ORDER_CAP"]

DEFAULT_ORDER_CAP = 6


@dataclass(frozen=True)
class QQi:
    """Gaussian rational a + b i with exact Fraction components."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __add__(self, other: "QQi") -> "QQi":
        return QQi(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "QQi") -> "QQi":
        return QQi(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "QQi") -> "QQi":
        return QQi(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    @staticmethod
    def of(x) -> "QQi":
        if isinstance(x, QQi):
            return x
        if isinstance(x, complex):
            return QQi(Fraction(x.real), Fraction(x.imag))
        return QQi(Fraction(x))


def _turn(re: Fraction, im: Fraction, n: int) -> tuple[Fraction, Fraction]:
    """Components of (re + i im) i^n: quarter turns, swaps and sign flips only."""
    for _ in range(n % 4):
        re, im = -im, re
    return re, im


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
    """Finite sum of terms c t^k e^(i Omega t), closed under * and int_0^t.

    terms maps (k, Omega) -> QQi coefficient, with Omega a Fraction so that
    equal frequencies merge exactly.  Zero coefficients are pruned on
    canonicalization.
    """

    terms: dict = field(default_factory=dict)

    @staticmethod
    def constant(c) -> "PhasePolynomial":
        return PhasePolynomial({(0, Fraction(0)): QQi.of(c)}).canonical()

    @staticmethod
    def phase(omega) -> "PhasePolynomial":
        """e^(i omega t)."""
        return PhasePolynomial({(0, Fraction(omega)): QQi.of(1)}).canonical()

    def canonical(self) -> "PhasePolynomial":
        self.terms = {key: c for key, c in self.terms.items() if c}
        return self

    def __add__(self, other: "PhasePolynomial") -> "PhasePolynomial":
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, QQi()) + c
        return PhasePolynomial(out).canonical()

    def __mul__(self, other: "PhasePolynomial") -> "PhasePolynomial":
        out: dict = {}
        for (k1, w1), c1 in self.terms.items():
            for (k2, w2), c2 in other.terms.items():
                key = (k1 + k2, w1 + w2)
                out[key] = out.get(key, QQi()) + c1 * c2
        return PhasePolynomial(out).canonical()

    def scaled(self, c) -> "PhasePolynomial":
        cc = QQi.of(c)
        return PhasePolynomial({key: v * cc for key, v in self.terms.items()}).canonical()

    def integrate(self) -> "PhasePolynomial":
        """int_0^t of every term, exactly.

        The graded real and imaginary parts, x + i y = c (-i)^k, each go
        through _integrate_graded (units 1 and i), and each result turns
        back by i^(j-1) at its degree j.
        """
        parts: tuple[dict, dict] = ({}, {})
        for (k, w), c in self.terms.items():
            for part, r in zip(parts, _turn(c.re, c.im, -k)):
                if r:
                    part[(k, w)] = r
        out: dict = {}
        for unit, part in enumerate(parts):
            for (j, w), r in _integrate_graded(part.items(), 1).items():
                key = (j, Fraction(w))
                out[key] = out.get(key, QQi()) + QQi(*_turn(r, Fraction(0), j - 1 + unit))
        return PhasePolynomial(out).canonical()

    def _float_terms(self) -> list[tuple[complex, int, complex]]:
        """(c, k, i Omega) of every term as floats, the inputs of evaluate."""
        return [(complex(c), k, 1j * float(w)) for (k, w), c in self.terms.items()]

    def evaluate(self, t: float) -> complex:
        return _evaluate_terms(self._float_terms(), t)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PhasePolynomial):
            return NotImplemented
        return self.canonical().terms == other.canonical().terms


def _evaluate_terms(float_terms, t: float) -> complex:
    val = 0j
    for c, k, iw in float_terms:
        val += c * t**k * np.exp(iw * t)
    return complex(val)


@dataclass
class DysonAmplitude:
    """Phase polynomial for <out|U(t)|in> with its basis-weight prefactor.

    The polynomial is exact in the weighted basis; the physical amplitude
    is prefactor * poly(t) with prefactor = sqrt(out!/in!).
    """

    poly: PhasePolynomial
    state_in: int
    state_out: int
    order: int
    lam: object

    @property
    def prefactor(self) -> float:
        return math.sqrt(math.factorial(self.state_out) / math.factorial(self.state_in))

    def evaluate(self, t: float) -> complex:
        return self.prefactor * self.poly.evaluate(t)

    def trace(self, t_grid) -> np.ndarray:
        """evaluate at every t, with each coefficient and frequency converted once."""
        prefactor, terms = self.prefactor, self.poly._float_terms()
        return np.array([prefactor * _evaluate_terms(terms, t)
                         for t in np.asarray(t_grid, dtype=float)])


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
    lam_frac = Fraction(lam)

    # current[j] = <j| (p-fold nested integral of V_I) |in>, graded: (k, m) -> r
    # stands for r (-i)^(p-k) t^k e^(i omega m t)
    current: dict[int, dict] = {state_in: {(0, 0): Fraction(1)}}
    total = PhasePolynomial.constant(1 if state_in == state_out else 0)
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
                acc = nxt.setdefault(j, {})
                cancelled = False
                for key, c in contrib.items():
                    old = acc.get(key)
                    if old is None:
                        acc[key] = c
                    else:
                        acc[key] = c = old + c
                        cancelled = cancelled or not c
                if cancelled:  # prune as PhasePolynomial.__add__ does, so key order matches
                    nxt[j] = {key: c for key, c in acc.items() if c}
        current = nxt
        lam_p = lam_frac**p
        if state_out in current and lam_p:
            # (-i lam)^p times r (-i)^(p-k) is lam^p r i^(k-2p)
            total = total + PhasePolynomial({
                (k, omega * m): QQi(*_turn(lam_p * r, Fraction(0), k - 2 * p))
                for (k, m), r in current[state_out].items()})

    # Schroedinger picture: multiply by the global phase e^(-i E_out t)
    total = total * PhasePolynomial.phase(-energies[state_out])
    return DysonAmplitude(total, state_in, state_out, order, lam)
