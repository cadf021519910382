"""Truncated ladder algebra and the Hermite zeros of the field.

The local Hilbert space keeps the lowest n_max occupation states of a
harmonic oscillator of frequency omega.  All ladder relations survive the
truncation except that raising the top state gives zero, which turns the
canonical commutator into

    [a, a^dag] = 1 - n_max |n_max-1><n_max-1|.

Every operator is a plain square ndarray: a and a^dag are real, phi and
the harmonic Hamiltonian real symmetric, and pi, the one complex
operator, Hermitian.  Field eigenvalues are the zeros of the degree-n_max
(physicists') Hermite polynomial scaled by 1/sqrt(omega); the strong
series refines them and builds the field eigenbasis from them on integers
(series._field_zeros).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TruncationSpec",
    "build_ladder",
    "build_field_ops",
    "harmonic_hamiltonian",
    "hermite_zeros",
]

MAX_DENSE_NMAX = 256


@dataclass(frozen=True)
class TruncationSpec:
    """Local Hilbert-space truncation: dimension n_max and frequency omega."""

    n_max: int
    omega: float = 1.0

    def __post_init__(self):
        if self.n_max < 2 or self.n_max % 2 != 0:
            raise ValueError(
                f"n_max must be an even integer >= 2, got {self.n_max} "
                "(odd truncations leave the parity sectors degenerate)"
            )
        if self.n_max > MAX_DENSE_NMAX:
            raise ValueError(f"n_max={self.n_max} exceeds supported cap {MAX_DENSE_NMAX}")
        if not self.omega > 0:
            raise ValueError(f"omega must be positive, got {self.omega}")


def build_ladder(spec: TruncationSpec) -> tuple[np.ndarray, np.ndarray]:
    """Annihilation and creation operators on the truncated space.

    a|n> = sqrt(n)|n-1>, a^dag|n> = sqrt(n+1)|n+1> for n < n_max-1, and
    a^dag kills the top state.
    """
    n = spec.n_max
    a = np.zeros((n, n))
    for k in range(1, n):
        a[k - 1, k] = np.sqrt(k)
    return a, a.T.copy()


def build_field_ops(spec: TruncationSpec) -> tuple[np.ndarray, np.ndarray]:
    """Field phi = (a + a^dag)/sqrt(2 omega) and momentum pi = -i sqrt(omega/2)(a - a^dag)."""
    a, adag = build_ladder(spec)
    phi = (a + adag) / np.sqrt(2.0 * spec.omega)
    pi = -1j * np.sqrt(spec.omega / 2.0) * (a - adag)
    return phi, pi


def harmonic_hamiltonian(spec: TruncationSpec) -> np.ndarray:
    """omega (a^dag a + 1/2): diagonal with entries omega (n + 1/2)."""
    return np.diag(spec.omega * (np.arange(spec.n_max) + 0.5))


def hermite_zeros(degree: int) -> np.ndarray:
    """Zeros of the physicists' Hermite polynomial H_degree, ascending.

    Computed as eigenvalues of the symmetric tridiagonal recurrence matrix
    (off-diagonal sqrt(k/2)), which is stable for every degree in range.
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    off = np.sqrt(np.arange(1, degree) / 2.0)
    try:
        roots = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise RuntimeError(f"Hermite root solve failed at degree {degree}: {exc}") from exc
    return np.sort(roots)
