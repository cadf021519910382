"""Pauli-string decomposition, gate-resource counts, and Trotter evolution.

A Hermitian matrix on n_q qubits expands uniquely on the 4^n_q tensor
products of Pauli matrices with real coefficients tr(P H)/2^n_q.  The
expansion is computed by a block recursion (split the matrix into qubit-0
quadrants, recurse on the four combinations) rather than explicit traces;
the trace route is retained as a slow oracle for tests.

Occupation states map to qubits most-significant-bit first, so qubit 0 is
the slowest-varying index, matching the lattice site ordering.  First-order
Trotter steps apply each term's rotation exp(-i theta P) as a two-amplitude
statevector update: P permutes basis states by the X/Y mask with a phase
fixed by the Z/Y mask.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .oscillator import OperatorMatrix

__all__ = [
    "PauliTerm",
    "PauliDecomposition",
    "TrotterPlan",
    "ResourceEstimate",
    "pauli_decompose",
    "pauli_decompose_trace",
    "count_resources",
    "build_trotter_plan",
    "trotter_step_unitary",
    "simulate_trotter",
    "pauli_matrix",
    "qubit_count",
]

DROP_THRESHOLD = 1e-12

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class PauliTerm:
    """One Pauli word with its real coefficient."""

    string: str
    coeff: float


@dataclass
class PauliDecomposition:
    """Non-identity terms above threshold, the identity coefficient, and drop count."""

    terms: list[PauliTerm]
    identity_coeff: float
    n_qubits: int
    n_dropped: int = 0


@dataclass
class TrotterPlan:
    """Ordered Pauli terms with step size and count for first-order evolution."""

    terms: list[PauliTerm]
    dt: float
    steps: int
    ordering: str = "by_magnitude_desc"

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if any(len(t.string) != len(self.terms[0].string) for t in self.terms):
            raise ValueError("all Pauli strings in a plan must share one width")
        if any(set(t.string) == {"I"} for t in self.terms):
            raise ValueError("identity string is a global phase and must not enter a plan")


@dataclass
class ResourceEstimate:
    """Structural nonzero count and worst-case compiled depth n_nz (2 n_q + 1)."""

    n_q: int
    n_nz: int

    @property
    def depth_bound(self) -> int:
        return self.n_nz * (2 * self.n_q + 1)


def pauli_matrix(string: str) -> np.ndarray:
    """Dense tensor product of the word's single-qubit Pauli factors."""
    m = np.array([[1.0 + 0j]])
    for ch in string:
        m = np.kron(m, _PAULI[ch])
    return m


def qubit_count(n_max: int) -> int:
    """n_q with n_max = 2^n_q: the qubits that encode one truncated site."""
    n_q = n_max.bit_length() - 1
    if n_max < 2 or 2**n_q != n_max:
        raise ValueError(f"n_max={n_max} is not a power of two, so no qubit register encodes it")
    return n_q


def _check_input(h: OperatorMatrix, n_q: int) -> np.ndarray:
    m = np.asarray(h.entries, dtype=complex)
    if m.shape[0] != 2**n_q:
        raise ValueError(f"dimension {m.shape[0]} is not 2^{n_q}")
    if not np.allclose(m, m.conj().T, atol=1e-10):
        raise ValueError("Pauli decomposition requires a Hermitian matrix")
    return m


def _block_coefficients(m: np.ndarray) -> dict[str, complex]:
    """Recursive quadrant split: coefficients of all Pauli words on m."""
    dim = m.shape[0]
    if dim == 1:
        return {"": complex(m[0, 0])}
    half = dim // 2
    a, b = m[:half, :half], m[:half, half:]
    c, d = m[half:, :half], m[half:, half:]
    sub = {
        "I": _block_coefficients((a + d) / 2.0),
        "X": _block_coefficients((b + c) / 2.0),
        "Y": _block_coefficients(1j * (b - c) / 2.0),
        "Z": _block_coefficients((a - d) / 2.0),
    }
    out: dict[str, complex] = {}
    for letter, coeffs in sub.items():
        for rest, val in coeffs.items():
            out[letter + rest] = val
    return out


def pauli_decompose(
    h: OperatorMatrix, n_q: int, drop_threshold: float = DROP_THRESHOLD
) -> PauliDecomposition:
    """Expansion of a Hermitian matrix on the Pauli basis.

    Coefficients are tr(P H)/2^n_q; the identity coefficient is reported
    separately because it only contributes a global phase.  Terms with
    |coeff| <= drop_threshold are pruned and counted.
    """
    m = _check_input(h, n_q)
    raw = _block_coefficients(m)
    terms = []
    dropped = 0
    identity = 0.0
    for string in sorted(raw):
        val = raw[string]
        if abs(val.imag) > 1e-9:
            raise ValueError(f"non-real coefficient {val} on {string}; input not Hermitian")
        coeff = float(val.real)
        if set(string) == {"I"}:
            identity = coeff
            continue
        if abs(coeff) <= drop_threshold:
            if coeff != 0.0:
                dropped += 1
            continue
        terms.append(PauliTerm(string, coeff))
    return PauliDecomposition(terms, identity, n_q, dropped)


def pauli_decompose_trace(h: OperatorMatrix, n_q: int) -> dict[str, float]:
    """Direct-trace decomposition over all 4^n_q words; slow test oracle."""
    m = _check_input(h, n_q)
    dim = 2**n_q
    out = {}
    words = [""]
    for _ in range(n_q):
        words = [w + ch for w in words for ch in "IXYZ"]
    for w in words:
        out[w] = float(np.trace(pauli_matrix(w) @ m).real) / dim
    return out


def _structural_strings(n_q: int, lam, omega, dps: int) -> set[str]:
    """Nonzero non-identity Pauli words of H_anh at one coupling.

    The quadrant recursion runs in software floats at dps digits and keeps
    every word above 10^-(dps-10).  The smallest genuine coefficients
    shrink fast with n_q (2.4e-7, 7.4e-9 and 2.3e-10 at n_q = 6, 7, 8 for
    lam = 1/3); doubles still resolve them, and at the default dps = 40
    the threshold 1e-30 sits twenty orders of magnitude below them.
    """
    import mpmath as mp

    n = 2**n_q
    with mp.workdps(dps):
        x = [[mp.mpf(0)] * n for _ in range(n)]
        for k in range(1, n):
            root = mp.sqrt(k)
            x[k - 1][k] = root
            x[k][k - 1] = root

        def banded_mul(a, b, band):
            out = [[mp.mpf(0)] * n for _ in range(n)]
            for i in range(n):
                for k in range(max(0, i - band), min(n, i + band + 1)):
                    aik = a[i][k]
                    if aik:
                        row = b[k]
                        for j in range(max(0, k - band), min(n, k + band + 1)):
                            if row[j]:
                                out[i][j] += aik * row[j]
            return out

        x2 = banded_mul(x, x, 1)
        x4 = banded_mul(x2, x2, 2)
        lam_mp = mp.mpf(lam.numerator) / lam.denominator if hasattr(lam, "numerator") \
            else mp.mpf(lam)
        omega_mp = mp.mpf(omega)
        h = [[lam_mp * x4[i][j] / (4 * omega_mp**2) for j in range(n)] for i in range(n)]
        for k in range(n):
            h[k][k] += omega_mp * (k + mp.mpf(1) / 2)

        half = mp.mpf(1) / 2

        def coeffs(mat, dim):
            if dim == 1:
                return {"": mat[0][0]}
            hdim = dim // 2
            quads = {
                "I": [[(mat[i][j] + mat[i + hdim][j + hdim]) * half for j in range(hdim)]
                      for i in range(hdim)],
                "X": [[(mat[i][j + hdim] + mat[i + hdim][j]) * half for j in range(hdim)]
                      for i in range(hdim)],
                "Y": [[(mat[i][j + hdim] - mat[i + hdim][j]) * half for j in range(hdim)]
                      for i in range(hdim)],
                "Z": [[(mat[i][j] - mat[i + hdim][j + hdim]) * half for j in range(hdim)]
                      for i in range(hdim)],
            }
            out = {}
            for letter, sub in quads.items():
                for rest, val in coeffs(sub, hdim).items():
                    out[letter + rest] = val
            return out

        raw = coeffs(h, n)
        tol = mp.mpf(10) ** (-(dps - 10))
        return {s for s, v in raw.items() if set(s) != {"I"} and abs(v) > tol}


def count_resources(
    n_q: int,
    lam_probe: tuple = (Fraction(1, 3), Fraction(1, 7)),
    omega: float = 1.0,
    dps: int = 40,
) -> ResourceEstimate:
    """Structural nonzero Pauli terms of the single-site quartic Hamiltonian.

    A term counts when its coefficient is nonzero at either of two generic
    probe couplings, which filters coefficients that vanish identically in
    lam without being fooled by accidental zeros at special values.  The
    count runs at dps working digits (see _structural_strings for the
    margin).  It agrees with an exact integer count, which groups each
    Walsh-Hadamard sum of H[i, i ^ f] by the squarefree part of its
    radicands: 5, 19, 55, 143, 351, 831 and 1919 terms for n_q = 2..8.
    """
    if n_q < 1:
        raise ValueError(f"n_q must be >= 1, got {n_q}")
    per_probe = [_structural_strings(n_q, lam, omega, dps) for lam in lam_probe]
    strings = set.union(*per_probe)
    accidental = strings - set.intersection(*per_probe)
    if accidental:
        import warnings

        warnings.warn(
            f"{len(accidental)} coefficients vanish at one probe coupling only "
            f"(accidental zeros): {sorted(accidental)[:4]}...",
            RuntimeWarning,
        )
    return ResourceEstimate(n_q, len(strings))


def build_trotter_plan(
    decomposition: PauliDecomposition,
    dt: float,
    steps: int,
    ordering: str = "by_magnitude_desc",
) -> TrotterPlan:
    """Fix the term order for reproducible first-order product formulas."""
    terms = list(decomposition.terms)
    if ordering == "by_magnitude_desc":
        terms.sort(key=lambda t: (-abs(t.coeff), t.string))
    elif ordering == "lexicographic":
        terms.sort(key=lambda t: t.string)
    elif ordering != "as_given":
        raise ValueError(f"unknown ordering {ordering!r}")
    return TrotterPlan(terms, dt, steps, ordering)


def trotter_step_unitary(plan: TrotterPlan) -> OperatorMatrix:
    """Dense product of the plan's rotations, each in closed form.

    P^2 = 1 gives exp(-i theta P) = cos(theta) 1 - i sin(theta) P, so the
    step is an exact product of cosine/sine combinations.
    """
    n_q = len(plan.terms[0].string) if plan.terms else 1
    dim = 2**n_q
    u = np.eye(dim, dtype=complex)
    for term in plan.terms:
        theta = plan.dt * term.coeff
        p = pauli_matrix(term.string)
        u = (np.cos(theta) * np.eye(dim) - 1j * np.sin(theta) * p) @ u
    return OperatorMatrix(u, "occupation", hermitian=False)


def _apply_pauli_rotation(state: np.ndarray, string: str, theta: float) -> np.ndarray:
    """exp(-i theta P) |state> via one permutation and one phase array."""
    n_q = len(string)
    dim = state.shape[0]
    flip = 0
    zy_mask = 0
    y_count = 0
    for q, ch in enumerate(string):
        bit = 1 << (n_q - 1 - q)  # qubit 0 is the most significant bit
        if ch in ("X", "Y"):
            flip |= bit
        if ch in ("Z", "Y"):
            zy_mask |= bit
        if ch == "Y":
            y_count += 1
    idx = np.arange(dim)
    parity = np.zeros(dim, dtype=int)
    bits = idx & zy_mask
    while np.any(bits):
        parity ^= bits & 1
        bits >>= 1
    phase = (1j**y_count) * np.where(parity, -1.0, 1.0)
    # (P psi)[x] = phase(x ^ flip) * psi[x ^ flip]
    permuted = phase[idx ^ flip] * state[idx ^ flip]
    return np.cos(theta) * state - 1j * np.sin(theta) * permuted


def simulate_trotter(
    plan: TrotterPlan,
    state_in: np.ndarray | int,
    observable_states: list[int],
) -> dict:
    """Repeated first-order Trotter steps with per-step occupation records.

    Returns arrays of shape (steps+1, len(observable_states)) of
    probabilities |<m|psi>|^2, plus the per-step norm for conservation
    checks.  state_in may be a basis index or a normalized vector.
    """
    n_q = len(plan.terms[0].string) if plan.terms else 1
    dim = 2**n_q
    if isinstance(state_in, (int, np.integer)):
        psi = np.zeros(dim, dtype=complex)
        psi[state_in] = 1.0
    else:
        psi = np.asarray(state_in, dtype=complex).copy()
        if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
            raise ValueError("input state must be normalized")

    probs = np.empty((plan.steps + 1, len(observable_states)))
    norms = np.empty(plan.steps + 1)
    probs[0] = [abs(psi[m]) ** 2 for m in observable_states]
    norms[0] = np.linalg.norm(psi)
    for step in range(1, plan.steps + 1):
        for term in plan.terms:
            psi = _apply_pauli_rotation(psi, term.string, plan.dt * term.coeff)
        probs[step] = [abs(psi[m]) ** 2 for m in observable_states]
        norms[step] = np.linalg.norm(psi)
    t = plan.dt * np.arange(plan.steps + 1)
    return {"t": t, "probabilities": probs, "norms": norms, "state": psi}
