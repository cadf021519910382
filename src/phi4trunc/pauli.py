"""Pauli-string decomposition, gate-resource counts, and Trotter evolution.

Occupation states map to qubits most-significant-bit first, so qubit 0 is
the slowest-varying index, matching the lattice site ordering.  The Pauli
word with X/Y mask f and Z/Y mask z maps |x> to
i^popcount(f & z) (-1)^popcount(x & z) |x ^ f>, so its coefficient
tr(P H)/2^n_q is i^popcount(f & z)/2^n_q times the Walsh-Hadamard
transform at z of the diagonal i -> H[i, i ^ f].  One transform of all
2^n_q diagonals gives all 4^n_q coefficients.  The gate-resource count runs
the same transform on exact integers.  A Trotter plan compiles to one source permutation x ^ f
and one phase vector per term; applied to the identity they give the step
unitary, which then advances the state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import _x4_band
from .oscillator import OperatorMatrix

__all__ = [
    "PauliTerm",
    "PauliDecomposition",
    "TrotterPlan",
    "ResourceEstimate",
    "pauli_decompose",
    "count_resources",
    "build_trotter_plan",
    "trotter_step_unitary",
    "simulate_trotter",
    "qubit_count",
]

# count_resources holds arrays of 4^n_q words: about 35, 52 and 119 MB at
# n_q = 8, 9 and 10, four times more per qubit
MAX_RESOURCE_QUBITS = 10

_LETTERS = np.array(list("IXYZ"))
_I_POWERS = np.array([1, 1j, -1, -1j])


@dataclass(frozen=True)
class PauliTerm:
    """One Pauli word with its real coefficient."""

    string: str
    coeff: float


@dataclass
class PauliDecomposition:
    """Non-identity terms above rounding level, the identity coefficient, and drop count."""

    terms: list[PauliTerm]
    identity_coeff: float
    n_qubits: int
    n_dropped: int = 0


@dataclass
class TrotterPlan:
    """Ordered Pauli terms with step size and count for first-order evolution.

    n_q is the register width; it may be left out when a term gives it.
    """

    terms: list[PauliTerm]
    dt: float
    steps: int
    ordering: str = "by_magnitude_desc"
    n_q: int | None = None

    def __post_init__(self):
        if self.n_q is None:
            if not self.terms:
                raise ValueError("a plan with no terms needs its register width n_q")
            self.n_q = len(self.terms[0].string)
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not isinstance(self.steps, (int, np.integer)) or self.steps < 0:
            raise ValueError(f"steps must be a non-negative integer, got {self.steps!r}")
        if any(len(t.string) != self.n_q for t in self.terms):
            raise ValueError(f"all Pauli strings in a plan must have the register width {self.n_q}")
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


def _walsh_hadamard(a: np.ndarray) -> np.ndarray:
    """Unnormalised transform of each row: out[r, z] = sum_i (-1)^popcount(i & z) a[r, i].

    Butterflies run from the most significant bit down, the order in which
    a recursive split into qubit-0 quadrants adds the entries.
    """
    rows, dim = a.shape
    half = dim // 2
    while half:
        a = a.reshape(rows, -1, 2, half)
        a = np.stack((a[:, :, 0] + a[:, :, 1], a[:, :, 0] - a[:, :, 1]), axis=2)
        half //= 2
    return a.reshape(rows, dim)


def _word_masks(n_q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(f, z, Y count) of all 4^n_q words, in lexicographic I < X < Y < Z order.

    Word w has the base-4 digit (w >> 2(n_q-1-q)) & 3 on qubit q, 0..3 for
    I, X, Y, Z, so f has a bit for digits 1 and 2 and z for digits 2 and 3.
    """
    w = np.arange(4**n_q)
    f = np.zeros_like(w)
    z = np.zeros_like(w)
    ys = np.zeros_like(w)
    for q in range(n_q):
        digit = (w >> (2 * (n_q - 1 - q))) & 3
        bit = 1 << (n_q - 1 - q)
        f |= np.where((digit == 1) | (digit == 2), bit, 0)
        z |= np.where(digit >= 2, bit, 0)
        ys += digit == 2
    return f, z, ys


def _word_strings(words: np.ndarray, n_q: int) -> list[str]:
    """Pauli strings of the words with the given lexicographic indices."""
    shifts = 2 * np.arange(n_q - 1, -1, -1)
    chars = _LETTERS[(np.asarray(words)[:, None] >> shifts) & 3]
    return chars.view(f"<U{n_q}").ravel().tolist()


def pauli_decompose(h: OperatorMatrix, n_q: int) -> PauliDecomposition:
    """Expansion of a Hermitian matrix on the Pauli basis.

    Coefficients are tr(P H)/2^n_q; the identity coefficient is reported
    separately because it only contributes a global phase.  A word whose
    |coeff| is at most n_q eps max_i |H[i, i ^ f]|, the rounding error of
    its flip f's transform, is pruned and counted; the cut scales with H,
    so a change of units drops nothing new.  Terms come in lexicographic
    I < X < Y < Z order.
    """
    m = _check_input(h, n_q)
    dim = 2**n_q
    idx = np.arange(dim)
    # row f of the gather is the diagonal i -> m[i, i ^ f]
    diagonals = m[idx, idx ^ idx[:, None]]
    spectrum = _walsh_hadamard(diagonals)
    f, z, ys = _word_masks(n_q)
    vals = spectrum[f, z] * _I_POWERS[ys % 4] / dim
    bad = np.flatnonzero(np.abs(vals.imag) > 1e-9)
    if bad.size:
        word = _word_strings(bad[:1], n_q)[0]
        raise ValueError(f"non-real coefficient {vals[bad[0]]} on {word}; input not Hermitian")
    coeffs = vals.real
    # n_q butterfly levels each round a partial sum bounded by dim max|H[i, i ^ f]|
    # by eps; the structural words of the phi^4 site sit 39x or more above it
    # at n_q <= 8, and the roundoff of summed Pauli words stays below 0.1x
    cut = n_q * np.finfo(float).eps * np.abs(diagonals).max(axis=1)[f]
    size, cut = np.abs(coeffs[1:]), cut[1:]  # word 0 is the identity
    kept = np.flatnonzero(size > cut) + 1
    dropped = int(np.count_nonzero((size <= cut) & (size != 0.0)))
    terms = [PauliTerm(s, float(c)) for s, c in zip(_word_strings(kept, n_q), coeffs[kept])]
    return PauliDecomposition(terms, float(coeffs[0]), n_q, dropped)


def _surd_sqrt(factors) -> tuple[int, int]:
    """sqrt of a product of positive integers as (m, s): m sqrt(s) with s squarefree."""
    m, s = 1, 1
    for k in factors:
        p = 2
        while p * p <= k:
            while k % (p * p) == 0:
                k //= p * p
                m *= p
            p += 1
        g = math.gcd(s, k)  # k is squarefree now: sqrt(s k) = g sqrt((s/g)(k/g))
        m, s = m * g, (s // g) * (k // g)
    return m, s


def _surd_groups(n: int) -> dict[tuple[int, int], np.ndarray]:
    """Integer vectors v of H on n levels by (flip f, squarefree s), see _structural_words.

    Each occupation entry X^4[i, i ^ f] is v[i] sqrt(s) in exactly one
    group (f, s) and zero in the others; the key (0, 0) holds 2i + 1, the
    harmonic diagonal in units of omega / 2.
    """
    groups = {(0, 0): 2 * np.arange(n, dtype=np.int64) + 1}  # harmonic: s = 0 is no surd
    for hi, row in enumerate(_x4_band(n)):
        for lo, big_n in row.items():
            if lo <= hi:
                m, s = _surd_sqrt(range(lo + 1, hi + 1))
                vec = groups.setdefault((hi ^ lo, s), np.zeros(n, dtype=np.int64))
                vec[hi] = vec[lo] = big_n * m
    return groups


def _structural_words(n_q: int) -> list[str]:
    """Non-identity words of H = omega (n + 1/2) + lam phi^4 / omega^2 not identically zero.

    In the sqrt(n!)-weighted basis X = a + a^dag has superdiagonal
    1, ..., n-1 and subdiagonal ones, so X_w^4 is an integer matrix, and for
    i <= j the occupation entry is X^4[i, j] = X_w^4[j, i] sqrt((i+1)...j),
    which is N m sqrt(s) with N, m integers and s squarefree.  The entries
    H[i, i ^ f] of each flip f are grouped by s, and the harmonic diagonal
    is a group of its own.  A coefficient a + lam b is identically zero
    exactly when every group's integer Walsh-Hadamard transform vanishes at
    z, because square roots of distinct squarefree integers are linearly
    independent over the rationals.  No threshold and no probe coupling
    enter, and no omega > 0 changes the set.
    """
    n = 2**n_q
    groups = _surd_groups(n)
    flips = np.array([flip for flip, _ in groups])
    vecs = np.stack(list(groups.values()))
    if int(np.abs(vecs).max()) * n >= 2**63:  # |transform| <= n max|v| at every butterfly
        raise OverflowError(f"integer transform at n_q={n_q} exceeds int64")
    hit = np.zeros((n, n), dtype=bool)
    np.logical_or.at(hit, flips, _walsh_hadamard(vecs) != 0)
    hit[0, 0] = False  # the identity word is a global phase
    f, z, _ = _word_masks(n_q)
    return _word_strings(np.flatnonzero(hit[f, z]), n_q)


def count_resources(n_q: int) -> ResourceEstimate:
    """Structural nonzero Pauli terms of the single-site quartic Hamiltonian.

    An exact count of the words whose coefficient is not identically zero
    in the coupling (_structural_words): 5, 19, 55, 143, 351, 831 and 1919
    terms for n_q = 2..8.  n_q past MAX_RESOURCE_QUBITS is refused before
    anything is allocated.
    """
    if n_q < 1:
        raise ValueError(f"n_q must be >= 1, got {n_q}")
    if n_q > MAX_RESOURCE_QUBITS:
        raise ValueError(f"n_q {n_q} exceeds cap {MAX_RESOURCE_QUBITS}: the count holds 4^n_q words in memory")
    return ResourceEstimate(n_q, len(_structural_words(n_q)))


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
    return TrotterPlan(terms, dt, steps, ordering, decomposition.n_qubits)


def _compile(plan: TrotterPlan) -> list[tuple[np.ndarray, float, np.ndarray]]:
    """One (source index x ^ f, cos theta, -i sin theta phase) triple per term.

    exp(-i theta P) psi = cos(theta) psi + g * psi[x ^ f], where
    g[x] = -i sin(theta) i^#Y (-1)^popcount((x ^ f) & z).
    """
    n_q = plan.n_q
    idx = np.arange(2**n_q)
    parity = np.zeros_like(idx)
    for q in range(n_q):
        parity ^= (idx >> q) & 1
    sign = np.where(parity, -1.0, 1.0)  # (-1)^popcount(y), read at y = src & z
    out = []
    for term in plan.terms:
        f = z = 0
        for ch in term.string:
            f = 2 * f + (ch in "XY")
            z = 2 * z + (ch in "ZY")
        src = idx ^ f
        theta = plan.dt * term.coeff
        phase = _I_POWERS[term.string.count("Y") % 4] * sign[src & z]
        out.append((src, np.cos(theta), -1j * np.sin(theta) * phase))
    return out


def trotter_step_unitary(plan: TrotterPlan) -> OperatorMatrix:
    """Product of the plan's rotations, each applied to the rows of the identity.

    P^2 = 1 gives exp(-i theta P) = cos(theta) 1 - i sin(theta) P, so each
    rotation is a row permutation with a phase: O(4^n_q) per term.
    """
    u = np.eye(2**plan.n_q, dtype=complex)
    for src, c, g in _compile(plan):
        u = c * u + g[:, None] * u[src]
    return OperatorMatrix(u)


def _basis_index(value, dim: int, what: str) -> int:
    if not isinstance(value, (int, np.integer)) or not 0 <= value < dim:
        raise ValueError(f"{what} {value!r} is not a basis index 0..{dim - 1} "
                         f"of the {dim.bit_length() - 1}-qubit plan")
    return int(value)


def simulate_trotter(
    plan: TrotterPlan,
    state_in: np.ndarray | int,
    observable_states: list[int],
) -> dict:
    """Repeated first-order Trotter steps with per-step occupation records.

    Returns arrays of shape (steps+1, len(observable_states)) of
    probabilities |<m|psi>|^2, plus the per-step norm for conservation
    checks.  state_in may be a basis index or a normalized vector of 2^n_q
    amplitudes.  Each step multiplies by the step unitary, formed once.
    """
    dim = 2**plan.n_q
    if isinstance(state_in, (int, np.integer)):
        psi = np.zeros(dim, dtype=complex)
        psi[_basis_index(state_in, dim, "input state")] = 1.0
    else:
        psi = np.array(state_in, dtype=complex)
        if psi.shape != (dim,):
            raise ValueError(f"input state has shape {psi.shape}, but the "
                             f"{dim.bit_length() - 1}-qubit plan needs {dim} amplitudes")
        if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
            raise ValueError("input state must be normalized")
    obs = np.array([_basis_index(m, dim, "observable state") for m in observable_states],
                   dtype=np.intp)

    u = trotter_step_unitary(plan).entries
    probs = np.empty((plan.steps + 1, obs.size))
    norms = np.empty(plan.steps + 1)
    probs[0] = np.abs(psi[obs]) ** 2
    norms[0] = np.linalg.norm(psi)
    for step in range(1, plan.steps + 1):
        psi = u @ psi
        probs[step] = np.abs(psi[obs]) ** 2
        norms[step] = np.linalg.norm(psi)
    t = plan.dt * np.arange(plan.steps + 1)
    return {"t": t, "probabilities": probs, "norms": norms, "state": psi}
