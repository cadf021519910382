"""Chronological (Dyson) expansion of the evolution operator.

In the interaction picture every matrix element of V(t) is a sum of terms
c e^(i Omega t) with Omega an unperturbed energy difference, and each
nested time-ordered integral maps the algebra of terms c t^k e^(i Omega t)
into itself.  PhasePolynomial implements that closed algebra; when the
coupling and omega are rational the coefficients stay exact Gaussian
rationals, which is what lets low orders be compared symbolically against
closed forms.

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

    def __truediv__(self, other: "QQi") -> "QQi":
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return QQi(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __neg__(self) -> "QQi":
        return QQi(-self.re, -self.im)

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


_I = QQi(Fraction(0), Fraction(1))


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
    def phase(omega, c=1) -> "PhasePolynomial":
        """c e^(i omega t)."""
        return PhasePolynomial({(0, Fraction(omega)): QQi.of(c)}).canonical()

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

        For Omega != 0 the reduction t^k e^(i Omega t) integrates by parts
        down to k = 0; the constant lower-limit contributions land at
        (0, 0).  For Omega = 0, t^k integrates to t^(k+1)/(k+1).
        """
        out: dict = {}

        def add(key, c):
            if c:
                out[key] = out.get(key, QQi()) + c

        for (k, w), c in self.terms.items():
            if w == 0:
                add((k + 1, w), c / QQi.of(k + 1))
                continue
            iw = _I * QQi.of(w)
            # I_k = t^k e^(iwt)/(iw) - (k/(iw)) I_{k-1}; unroll the recursion
            coef = c
            for j in range(k, -1, -1):
                add((j, w), coef / iw)
                if j > 0:
                    coef = -(coef * QQi.of(j)) / iw
                else:
                    add((0, Fraction(0)), -(coef / iw))
        return PhasePolynomial(out).canonical()

    def evaluate(self, t: float) -> complex:
        val = 0j
        for (k, w), c in self.terms.items():
            val += complex(c) * t**k * np.exp(1j * float(w) * t)
        return complex(val)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PhasePolynomial):
            return NotImplemented
        return self.canonical().terms == other.canonical().terms


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
        return np.array([self.evaluate(t) for t in np.asarray(t_grid, dtype=float)])


def dyson_series(
    trunc: TruncationSpec,
    order: int,
    lam,
    state_in: int,
    state_out: int,
    order_cap: int = DEFAULT_ORDER_CAP,
) -> DysonAmplitude:
    """Dyson amplitude <out|exp(-iHt)|in> truncated at the given order.

    With a rational lam (int or Fraction) and rational omega the result is
    exact; a float lam degrades gracefully to exact-rational coefficients
    multiplying the float's binary value.  The nested integrals grow
    combinatorially with order, hence the configurable cap.
    """
    if order > order_cap:
        raise ValueError(f"order {order} exceeds cap {order_cap}")
    n = trunc.n_max
    if not (0 <= state_in < n and 0 <= state_out < n):
        raise ValueError(f"states must lie in 0..{n - 1}")

    energies, v = algebra.weighted_hamiltonian(trunc)
    lam_frac = Fraction(lam)

    # v_p[j] = <j| (p-fold nested integral of V_I) |in> as a PhasePolynomial
    current: dict[int, PhasePolynomial] = {state_in: PhasePolynomial.constant(1)}
    total = PhasePolynomial.constant(1 if state_in == state_out else 0)
    factor = QQi(Fraction(1))
    for p in range(1, order + 1):
        nxt: dict[int, PhasePolynomial] = {}
        for k_state, poly in current.items():
            for j in range(n):
                if not v[j][k_state]:
                    continue
                phase = PhasePolynomial.phase(energies[j] - energies[k_state], v[j][k_state])
                contrib = (phase * poly).integrate()
                nxt[j] = nxt.get(j, PhasePolynomial()) + contrib
        current = nxt
        factor = factor * (-_I) * QQi(lam_frac)
        if state_out in current:
            total = total + current[state_out].scaled(factor)

    # Schroedinger picture: multiply by the global phase e^(-i E_out t)
    total = total * PhasePolynomial.phase(-energies[state_out])
    return DysonAmplitude(total, state_in, state_out, order, lam)
