"""Single-site, strong-coupling-form and 1+1D lattice Hamiltonians.

The lattice Hamiltonian is a sum of local anharmonic terms and quadratic
nearest-neighbor hops,

    H = sum_x [ omega (a_x^dag a_x + 1/2) + lam phi_x^4 ] - 2 kappa sum_x phi_x phi_{x+1},

built once per kappa as the affine pair H(lam) = H0 + lam V: H0 holds the
harmonic sites and the hop, V the phi^4 sites.  On the full product basis
(site 0 the slowest-varying index) the pair comes from Kronecker placement
and lattice_hamiltonian evaluates it.  _lattice_sectors builds the pair of
a periodic chain directly in its two momentum-0 sectors, one per occupation
parity, with one basis state per translation orbit, by applying the local
terms to the orbit representatives; the full-space matrix is never formed.
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


def _bonds(spec: LatticeSpec, dedup_double_bond: bool = False) -> list[tuple[int, int]]:
    """Nearest-neighbour bonds (x, x+1), wrapping at the end of a periodic chain."""
    ns = spec.n_sites
    if ns < 2:
        return []
    bonds = [(x, x + 1) for x in range(ns - 1)]
    if spec.boundary == "periodic":
        bonds.append((ns - 1, 0))
    if dedup_double_bond:
        bonds = sorted({tuple(sorted(b)) for b in bonds})
    return bonds


def _kronecker_pair(
    spec: LatticeSpec, dim_cap: int = DEFAULT_DIM_CAP, dedup_double_bond: bool = False
) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """(H0, V) on the full product basis, H(lam) = H0 + lam V, by Kronecker placement.

    H0 holds the harmonic sites and the hop, V the phi^4 sites.
    """
    if spec.dim > dim_cap:
        raise ValueError(f"lattice dimension {spec.dim} exceeds cap {dim_cap}")
    n = spec.trunc.n_max
    ns = spec.n_sites

    def place(coeff: float, ops: dict) -> sp.coo_matrix:
        """coeff times the Kronecker product of ops[x] at site x and identities elsewhere."""
        out, done = sp.coo_matrix([[coeff]]), 0
        for x in sorted(ops):
            out = sp.kron(sp.kron(out, sp.identity(n ** (x - done)), format="coo"), ops[x], format="coo")
            done = x + 1
        return sp.kron(out, sp.identity(n ** (ns - done)), format="coo")

    def total(terms: list[sp.coo_matrix]) -> sp.csr_matrix:
        rows, cols, vals = (np.concatenate([getattr(t, a) for t in terms]) for a in ("row", "col", "data"))
        return sp.coo_matrix((vals, (rows, cols)), shape=(spec.dim, spec.dim)).tocsr()

    # the harmonic sites sum to omega (total occupation + n_sites/2) on the diagonal
    har = sp.diags(spec.trunc.omega * (_digit_sum(np.arange(spec.dim), n, ns) + ns / 2.0), format="coo")
    phi4 = sp.coo_matrix(_phi4(spec.trunc))
    phi = sp.coo_matrix(build_field_ops(spec.trunc)[0].entries)
    hops = [place(-2.0 * spec.kappa, {x: phi, y: phi}) for x, y in _bonds(spec, dedup_double_bond)]
    return total([har] + hops), total([place(1.0, {x: phi4}) for x in range(ns)])


def lattice_hamiltonian(
    spec: LatticeSpec,
    dim_cap: int = DEFAULT_DIM_CAP,
    dedup_double_bond: bool = False,
) -> SparseOperator:
    """Sparse lattice Hamiltonian H0 + lam V at lam = spec.lam on the full product basis.

    The hop sum runs over positive directions literally, so n_sites=2 with
    periodic boundary counts the single geometric bond twice (coefficient
    -4 kappa); pass dedup_double_bond=True to keep it once.
    """
    h0, v = _kronecker_pair(spec, dim_cap, dedup_double_bond)
    lam_is_real = complex(spec.lam).imag == 0.0
    lam = complex(spec.lam).real if lam_is_real else complex(spec.lam)
    csr = (h0 + lam * v).tocsr()
    csr.sum_duplicates()
    csr.eliminate_zeros()
    csr.sort_indices()
    return SparseOperator(csr, hermitian=lam_is_real)


def _digit_sum(index: np.ndarray, n_max: int, n_sites: int) -> np.ndarray:
    """Total occupation of each product-basis index, digit by digit in base n_max."""
    index = np.array(index)
    total = np.zeros_like(index)
    for _ in range(n_sites):
        total += index % n_max
        index //= n_max
    return total


def _translation_orbits(n_max: int, n_sites: int) -> tuple[np.ndarray, np.ndarray]:
    """Per product index: its orbit representative (least index) and orbit size.

    One translation moves site 0's digit to the last site.
    """
    index = np.arange(n_max**n_sites, dtype=np.int64)
    top = n_max ** (n_sites - 1)
    rep = index.copy()
    size = np.zeros_like(index)
    shifted = index
    for j in range(1, n_sites + 1):
        shifted = (shifted % top) * n_max + shifted // top
        np.minimum(rep, shifted, out=rep)
        size[(size == 0) & (shifted == index)] = j
    return rep, size


def _band(op: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """Nonzero diagonals of a local operator as (offset, entry op[d + offset, d] by digit d)."""
    n = op.shape[0]
    bands = [(k, np.pad(np.diagonal(op, -k), (max(0, -k), max(0, k)))) for k in range(1 - n, n)]
    return [(k, vals) for k, vals in bands if vals.any()]


def _lattice_sectors(spec: LatticeSpec) -> list[tuple[sp.csr_matrix, sp.csr_matrix]]:
    """(H0, V) of the periodic chain in its momentum-0 sectors: even, then odd parity.

    A sector state |R> is the normalised sum over the translation orbit O_R
    of a representative r of the sector's total-occupation parity.  Applying
    the local terms of H to the digits of r gives <R'|H|R> = sqrt(|O_R|/|O_R'|)
    sum_{s' in O_R'} H_{s',r} without the full-space matrix.  Same terms and
    bond convention as lattice_hamiltonian.
    """
    if spec.boundary != "periodic":
        raise ValueError(f"the momentum sector needs a periodic chain, got {spec.boundary!r}")
    if spec.dim > DEFAULT_DIM_CAP:
        raise ValueError(f"lattice dimension {spec.dim} exceeds cap {DEFAULT_DIM_CAP}")
    n, ns = spec.trunc.n_max, spec.n_sites
    rep, size = _translation_orbits(n, ns)
    index = np.arange(n**ns, dtype=np.int64)
    odd = _digit_sum(index, n, ns) % 2
    # each index sits in one parity, so one array holds its position within its sector
    pos = np.full(n**ns, -1, dtype=np.int64)
    place = [n ** (ns - 1 - x) for x in range(ns)]
    har, phi4, phi = (_band(op) for op in (harmonic_hamiltonian(spec.trunc).entries,
                                           _phi4(spec.trunc), build_field_ops(spec.trunc)[0].entries))

    def sector(parity: int) -> tuple[sp.csr_matrix, sp.csr_matrix]:
        reps = np.flatnonzero((rep == index) & (odd == parity))
        pos[reps] = np.arange(reps.size)
        digits = [(reps // place[x]) % n for x in range(ns)]

        def apply(coeff: float, ops: list[tuple[int, list]], acc: tuple[list, list, list]) -> None:
            """Add coeff * prod_x op_x |r> to the sector entries, for each representative r.

            A digit moved out of range picks up a zero amplitude and is dropped.
            """
            parts = [(reps, np.full(reps.size, coeff))]
            for x, band in ops:
                parts = [(target + offset * place[x], amp * vals[digits[x]])
                         for target, amp in parts for offset, vals in band]
            for target, amp in parts:
                keep = amp != 0.0
                target, amp = target[keep], amp[keep]
                acc[0].append(pos[rep[target]])
                acc[1].append(np.flatnonzero(keep))
                acc[2].append(amp * np.sqrt(size[reps[keep]] / size[target]))

        def assemble(acc) -> sp.csr_matrix:
            rows, cols, vals = (np.concatenate(a) for a in acc)
            m = sp.coo_matrix((vals, (rows, cols)), shape=(reps.size, reps.size)).tocsr()
            m.sum_duplicates()
            m.eliminate_zeros()
            return m

        h0_acc, v_acc = ([], [], []), ([], [], [])
        for x in range(ns):
            apply(1.0, [(x, har)], h0_acc)
            apply(1.0, [(x, phi4)], v_acc)
        for x, y in _bonds(spec):
            apply(-2.0 * spec.kappa, [(x, phi), (y, phi)], h0_acc)
        return assemble(h0_acc), assemble(v_acc)

    return [sector(0), sector(1)]


def _parity_array(n_max: int, n_sites: int) -> np.ndarray:
    """Total occupation mod 2 of every product-basis index (site 0 most significant)."""
    return _digit_sum(np.arange(n_max**n_sites), n_max, n_sites) % 2


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
    h0, v = _kronecker_pair(spec, dim_cap)
    return CouplingFamily(h0.toarray(), v.toarray(), spec.trunc.n_max, spec.n_sites, "lattice")
