"""Single-site, strong-coupling-form and 1+1D lattice Hamiltonians.

The lattice Hamiltonian is a sum of local anharmonic terms and quadratic
nearest-neighbor hops,

    H = sum_x [ omega (a_x^dag a_x + 1/2) + lam phi_x^4 ] - 2 kappa sum_x phi_x phi_{x+1},

assembled by Kronecker placement with site 0 as the slowest-varying index.
Couplings may be complex; the hermitian flag is cleared accordingly so the
analytic family H(lam) can be scanned off the real axis.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .oscillator import OperatorMatrix, TruncationSpec, build_field_ops, harmonic_hamiltonian

__all__ = [
    "LatticeSpec",
    "SparseOperator",
    "ParityBlocks",
    "ParityError",
    "single_site_hamiltonian",
    "strong_coupling_hamiltonian",
    "lattice_hamiltonian",
    "parity_of_index",
    "parity_indices",
    "parity_decompose",
    "CouplingFamily",
    "anharmonic_family",
    "strong_coupling_family",
    "lattice_family",
]

DEFAULT_DIM_CAP = 2**20


@dataclass(frozen=True)
class LatticeSpec:
    """Chain of n_sites truncated oscillators with hopping kappa and coupling lam."""

    n_sites: int
    trunc: TruncationSpec
    kappa: float = 0.0
    lam: complex = 0.0
    boundary: str = "periodic"

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError(f"n_sites must be >= 1, got {self.n_sites}")
        if self.boundary not in ("periodic", "open"):
            raise ValueError(f"boundary must be 'periodic' or 'open', got {self.boundary!r}")

    @property
    def dim(self) -> int:
        return self.trunc.n_max**self.n_sites


@dataclass
class SparseOperator:
    """Hermitian-by-construction sparse operator stored as CSR with triplet access."""

    matrix: sp.csr_matrix
    hermitian: bool = True

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    def triplets(self) -> list[tuple[int, int, complex]]:
        """Deterministic (row, col, value) list sorted by (row, col)."""
        coo = self.matrix.tocoo()
        order = np.lexsort((coo.col, coo.row))
        return [(int(coo.row[i]), int(coo.col[i]), complex(coo.data[i])) for i in order]


@dataclass
class ParityBlocks:
    """Even/odd occupation-parity blocks with index maps back to the full basis."""

    even: object
    odd: object
    even_indices: np.ndarray = field(repr=False)
    odd_indices: np.ndarray = field(repr=False)


class ParityError(ValueError):
    """Raised when an operator does not commute with global parity."""


def _phi4(spec: TruncationSpec) -> np.ndarray:
    phi, _ = build_field_ops(spec)
    return np.linalg.matrix_power(phi.entries, 4)


def _evaluate(family: "CouplingFamily", lam: complex) -> OperatorMatrix:
    """family.matrix(lam), Hermitian (and real) exactly when lam is real."""
    lam_is_real = isinstance(lam, numbers.Real) or complex(lam).imag == 0.0
    lam_c = complex(lam).real if lam_is_real else complex(lam)
    return OperatorMatrix(family.matrix(lam_c), "occupation", hermitian=lam_is_real)


def single_site_hamiltonian(trunc: TruncationSpec, lam: complex) -> OperatorMatrix:
    """H = omega (a^dag a + 1/2) + lam phi^4 on one site."""
    return _evaluate(anharmonic_family(trunc), lam)


def strong_coupling_hamiltonian(trunc: TruncationSpec, lam_tilde: complex) -> OperatorMatrix:
    """H_str = phi^4 + lam_tilde omega (a^dag a + 1/2).

    Satisfies H_str(1/lam) = H_anh(lam)/lam entrywise for lam != 0, so both
    families share the same exceptional points up to inversion.
    """
    return _evaluate(strong_coupling_family(trunc), lam_tilde)


def lattice_hamiltonian(
    spec: LatticeSpec,
    dim_cap: int = DEFAULT_DIM_CAP,
    dedup_double_bond: bool = False,
) -> SparseOperator:
    """Sparse lattice Hamiltonian by Kronecker placement.

    The hop sum runs over positive directions literally, so n_sites=2 with
    periodic boundary counts the single geometric bond twice (coefficient
    -4 kappa); pass dedup_double_bond=True to keep it once.
    """
    if spec.dim > dim_cap:
        raise ValueError(f"lattice dimension {spec.dim} exceeds cap {dim_cap}")
    n = spec.trunc.n_max
    ns = spec.n_sites
    lam_is_real = complex(spec.lam).imag == 0.0
    dtype = float if lam_is_real else complex
    lam = complex(spec.lam).real if lam_is_real else complex(spec.lam)

    h_site = sp.coo_matrix(single_site_hamiltonian(spec.trunc, lam).entries.astype(dtype))
    phi, _ = build_field_ops(spec.trunc)
    phi_s = sp.coo_matrix(phi.entries)

    def place(op: sp.spmatrix, site: int) -> sp.coo_matrix:
        left = sp.identity(n**site, format="coo")
        right = sp.identity(n ** (ns - site - 1), format="coo")
        return sp.kron(sp.kron(left, op, format="coo"), right, format="coo")

    total = sp.coo_matrix((spec.dim, spec.dim), dtype=dtype)
    for x in range(ns):
        total = total + place(h_site, x)

    bonds: list[tuple[int, int]] = []
    if ns >= 2:
        for x in range(ns):
            y = x + 1
            if y >= ns:
                if spec.boundary != "periodic":
                    continue
                y = 0
            bonds.append((x, y))
        if dedup_double_bond:
            bonds = sorted({tuple(sorted(b)) for b in bonds})
    for x, y in bonds:
        if x == y:
            continue
        px, py = sorted((x, y))
        left = sp.identity(n**px, format="coo")
        mid = sp.identity(n ** (py - px - 1), format="coo")
        right = sp.identity(n ** (ns - py - 1), format="coo")
        op = sp.kron(sp.kron(sp.kron(sp.kron(left, phi_s), mid), phi_s), right, format="coo")
        total = total - 2.0 * spec.kappa * op

    csr = total.tocsr()
    csr.sum_duplicates()
    csr.eliminate_zeros()
    csr.sort_indices()
    return SparseOperator(csr, hermitian=lam_is_real)


def parity_of_index(index: int, n_max: int, n_sites: int = 1) -> int:
    """Total occupation mod 2 of a product-basis index (site 0 most significant)."""
    s = 0
    for _ in range(n_sites):
        s += index % n_max
        index //= n_max
    return s % 2


def _parity_array(n_max: int, n_sites: int) -> np.ndarray:
    """parity_of_index for every product-basis index, digit by digit in base n_max."""
    idx = np.arange(n_max**n_sites)
    par = np.zeros_like(idx)
    for _ in range(n_sites):
        par += idx % n_max
        idx //= n_max
    return par % 2


def parity_indices(n_max: int, n_sites: int = 1) -> tuple[np.ndarray, np.ndarray]:
    par = _parity_array(n_max, n_sites)
    return np.flatnonzero(par == 0), np.flatnonzero(par)


def parity_decompose(h, spec) -> ParityBlocks:
    """Split an operator into even/odd occupation-parity blocks.

    Accepts an OperatorMatrix or SparseOperator together with the
    TruncationSpec or LatticeSpec it was built from.  Raises ParityError,
    reporting the largest offender, if any cross-parity entry is nonzero.
    """
    if isinstance(spec, LatticeSpec):
        n_max, n_sites = spec.trunc.n_max, spec.n_sites
    else:
        n_max, n_sites = spec.n_max, 1
    par = _parity_array(n_max, n_sites)
    even_idx, odd_idx = np.flatnonzero(par == 0), np.flatnonzero(par)

    if isinstance(h, SparseOperator):
        coo = h.matrix.tocoo()
        cross = par[coo.row] != par[coo.col]
        if np.any(cross):
            worst = np.max(np.abs(coo.data[cross]))
            raise ParityError(f"operator couples parity sectors; max cross entry {worst:.3e}")
        even = SparseOperator(h.matrix[np.ix_(even_idx, even_idx)].tocsr(), h.hermitian)
        odd = SparseOperator(h.matrix[np.ix_(odd_idx, odd_idx)].tocsr(), h.hermitian)
        return ParityBlocks(even, odd, even_idx, odd_idx)

    m = h.entries
    cross_block = np.abs(m[np.ix_(even_idx, odd_idx)])
    cross_block2 = np.abs(m[np.ix_(odd_idx, even_idx)])
    worst = max(cross_block.max(initial=0.0), cross_block2.max(initial=0.0))
    if worst != 0.0:
        raise ParityError(f"operator couples parity sectors; max cross entry {worst:.3e}")
    even = OperatorMatrix(m[np.ix_(even_idx, even_idx)], h.basis, h.hermitian)
    odd = OperatorMatrix(m[np.ix_(odd_idx, odd_idx)], h.basis, h.hermitian)
    return ParityBlocks(even, odd, even_idx, odd_idx)


@dataclass(frozen=True)
class CouplingFamily:
    """Affine analytic family H(lam) = H0 + lam V with parity bookkeeping.

    h0 and v are dense arrays on the full local (or lattice) basis; the
    derivative of H with respect to lam is exactly v, which is what the
    sum-over-states derivative formulas need.
    """

    h0: np.ndarray
    v: np.ndarray
    n_max: int
    n_sites: int = 1
    label: str = "anharmonic"

    def matrix(self, lam: complex) -> np.ndarray:
        return self.h0 + lam * self.v

    def sector_matrices(self, sector: str) -> tuple[np.ndarray, np.ndarray]:
        even_idx, odd_idx = parity_indices(self.n_max, self.n_sites)
        idx = even_idx if sector == "even" else odd_idx
        return self.h0[np.ix_(idx, idx)], self.v[np.ix_(idx, idx)]

    def sector_block(self, lam: complex, sector: str) -> np.ndarray:
        h0s, vs = self.sector_matrices(sector)
        return h0s + lam * vs


def anharmonic_family(trunc: TruncationSpec) -> CouplingFamily:
    """H(lam) = H_har + lam phi^4 for one site."""
    return CouplingFamily(harmonic_hamiltonian(trunc).entries, _phi4(trunc), trunc.n_max, 1,
                          "anharmonic")


def strong_coupling_family(trunc: TruncationSpec) -> CouplingFamily:
    """H_str(lam_tilde) = phi^4 + lam_tilde H_har for one site."""
    return CouplingFamily(_phi4(trunc), harmonic_hamiltonian(trunc).entries, trunc.n_max, 1,
                          "strong")


def lattice_family(spec: LatticeSpec, dim_cap: int = DEFAULT_DIM_CAP) -> CouplingFamily:
    """Lattice family in lam at fixed kappa, as dense arrays (small lattices only)."""
    base = lattice_hamiltonian(
        LatticeSpec(spec.n_sites, spec.trunc, spec.kappa, 0.0, spec.boundary), dim_cap
    ).matrix.toarray()
    withv = lattice_hamiltonian(
        LatticeSpec(spec.n_sites, spec.trunc, spec.kappa, 1.0, spec.boundary), dim_cap
    ).matrix.toarray()
    return CouplingFamily(base, withv - base, spec.trunc.n_max, spec.n_sites, "lattice")
