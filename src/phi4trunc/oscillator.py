"""Truncated ladder algebra and the local field eigenbasis.

The local Hilbert space keeps the lowest n_max occupation states of a
harmonic oscillator of frequency omega.  All ladder relations survive the
truncation except that raising the top state gives zero, which turns the
canonical commutator into

    [a, a^dag] = 1 - n_max |n_max-1><n_max-1|.

Field eigenvalues are the zeros of the degree-n_max (physicists') Hermite
polynomial scaled by 1/sqrt(omega); the eigenvector amplitudes are ratios
of Hermite polynomials, evaluated here through the normalized recurrence
so that nothing overflows up to n_max = 128.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TruncationSpec",
    "OperatorMatrix",
    "FieldEigenpair",
    "build_ladder",
    "build_field_ops",
    "harmonic_hamiltonian",
    "top_projector",
    "field_eigenbasis",
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


@dataclass
class OperatorMatrix:
    """Dense operator matrix.

    entries is one square matrix, or a stack of them along leading axes.
    The hermitian flag is an assertion made by the constructor, not
    something recomputed on access.
    """

    entries: np.ndarray
    hermitian: bool = False

    def __post_init__(self):
        self.entries = np.asarray(self.entries)
        if self.entries.ndim < 2 or self.entries.shape[-2] != self.entries.shape[-1]:
            raise ValueError(f"operator must be square, got shape {self.entries.shape}")

    @property
    def dim(self) -> int:
        return self.entries.shape[-1]


@dataclass
class FieldEigenpair:
    """One field eigenvalue phi_j with its amplitudes <n|phi_j>."""

    phi: float
    vector: np.ndarray = field(repr=False)


def build_ladder(spec: TruncationSpec) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Annihilation and creation operators on the truncated space.

    a|n> = sqrt(n)|n-1>, a^dag|n> = sqrt(n+1)|n+1> for n < n_max-1, and
    a^dag kills the top state.
    """
    n = spec.n_max
    a = np.zeros((n, n))
    for k in range(1, n):
        a[k - 1, k] = np.sqrt(k)
    return (
        OperatorMatrix(a),
        OperatorMatrix(a.T.copy()),
    )


def build_field_ops(spec: TruncationSpec) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Field phi = (a + a^dag)/sqrt(2 omega) and momentum pi = -i sqrt(omega/2)(a - a^dag)."""
    a, adag = build_ladder(spec)
    phi = (a.entries + adag.entries) / np.sqrt(2.0 * spec.omega)
    pi = -1j * np.sqrt(spec.omega / 2.0) * (a.entries - adag.entries)
    return (
        OperatorMatrix(phi, hermitian=True),
        OperatorMatrix(pi, hermitian=True),
    )


def harmonic_hamiltonian(spec: TruncationSpec) -> OperatorMatrix:
    """omega (a^dag a + 1/2): diagonal with entries omega (n + 1/2)."""
    diag = spec.omega * (np.arange(spec.n_max) + 0.5)
    return OperatorMatrix(np.diag(diag), hermitian=True)


def top_projector(spec: TruncationSpec) -> OperatorMatrix:
    """Projector |n_max-1><n_max-1| onto the highest retained state."""
    p = np.zeros((spec.n_max, spec.n_max))
    p[-1, -1] = 1.0
    return OperatorMatrix(p, hermitian=True)


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


def _hermite_normalized(n_top: int, x: float) -> list[float]:
    """Values h_n(x) = H_n(x)/sqrt(2^n n!) for n = 0..n_top.

    The rescaling keeps the recurrence bounded by ~exp(x^2/2), so the
    ratio formula below stays inside double range for n_max <= 128.  The
    strong series runs the same recurrence on fixed-point integers
    (series._field_zeros).
    """
    h = [1.0, x * math.sqrt(2)][: n_top + 1]
    for n in range(1, n_top):
        h.append(x * math.sqrt(2 / (n + 1)) * h[n] - math.sqrt(n / (n + 1)) * h[n - 1])
    return h


def field_eigenbasis(spec: TruncationSpec) -> list[FieldEigenpair]:
    """All n_max field eigenpairs, sorted by ascending eigenvalue.

    The amplitude of |phi_j> on |n> is h_n(x_j) / (sqrt(n_max) h_{n_max-1}(x_j))
    with x_j = sqrt(omega) phi_j a zero of H_{n_max}; this is the normalized
    Hermite-ratio expression rewritten in the overflow-safe h_n basis.
    """
    n = spec.n_max
    xs = hermite_zeros(n)
    pairs = []
    for x in xs:
        h = np.array(_hermite_normalized(n - 1, x))
        vec = h / (np.sqrt(n) * h[n - 1])
        pairs.append(FieldEigenpair(phi=x / np.sqrt(spec.omega), vector=vec))
    return pairs
