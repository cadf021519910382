"""Single-site, strong-coupling-form and 1+1D lattice Hamiltonians.

Every Hamiltonian here is an affine family H(lam) = H0 + lam V in its
coupling, and affine_operator evaluates one, real and flagged Hermitian
exactly when lam is real, so the family can be scanned off the real axis.
A single site keeps occupation parity, and CouplingFamily.sector_matrices
cuts H0 and V to the even or the odd block.  The lattice Hamiltonian is a
sum of local anharmonic terms and quadratic nearest-neighbor hops,

    H = sum_x [ omega (a_x^dag a_x + 1/2) + lam phi_x^4 ] - 2 kappa sum_x phi_x phi_{x+1},

built once per kappa: H0 holds the harmonic sites and the hop, V the
phi^4 sites.  One builder, _orbit_pair, forms the pair by applying the
local terms to the digits of basis states (site 0 the slowest-varying
index).  _lattice_blocks gives it one of three bases: the full product
basis, its two occupation-parity blocks, and the two symmetric sectors,
one state per orbit of the site permutations that keep the bonds (the
translations and the reflection of a periodic chain, the reflection of an
open one).  The product basis is the case where every state is its own
orbit; lattice_hamiltonian evaluates it.  No other basis forms the
full-space matrix.
H0 and V are CSRMatrix blocks on one shared pattern.  CSRMatrix is the
package's one sparse matrix and the one place that reads the CSR layout;
lattice_hamiltonian hands one out, which scipy's sparse solvers take as a
linear operator.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import sector_indices
from .oscillator import OperatorMatrix, TruncationSpec, build_field_ops, harmonic_hamiltonian

__all__ = [
    "LatticeSpec",
    "CSRMatrix",
    "SparseOperator",
    "affine_operator",
    "single_site_hamiltonian",
    "lattice_hamiltonian",
    "CouplingFamily",
    "anharmonic_family",
    "strong_coupling_family",
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


@dataclass(frozen=True, eq=False)
class CSRMatrix:
    """Square sparse matrix as plain numpy compressed-sparse-row arrays.

    Row i holds entries indptr[i]:indptr[i + 1] of indices and data; its
    column indices ascend, with no duplicates, so the entries run in (row,
    col) order.  They are intp, the index type np.take gathers with, so a
    matvec does not convert them.  shape, dtype and matvec make it a linear
    operator for scipy.sparse.linalg.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.indptr.size - 1, self.indptr.size - 1

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @cached_property
    def rows(self) -> np.ndarray:
        """The row of every stored entry."""
        return np.repeat(np.arange(self.shape[0], dtype=self.indices.dtype), np.diff(self.indptr))

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.dtype)
        out[self.rows, self.indices] = self.data
        return out

    def diagonal(self) -> np.ndarray:
        on = np.flatnonzero(self.rows == self.indices)
        diag = np.zeros(self.shape[0], dtype=self.dtype)
        diag[self.rows[on]] = self.data[on]
        return diag

    @cached_property
    def _plan(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The non-empty rows, where each starts among the entries, and a buffer for the products."""
        full = np.flatnonzero(np.diff(self.indptr))
        return full, self.indptr[full].astype(np.intp), np.empty(self.nnz, np.result_type(self.dtype, np.float64))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """self @ x for a vector x: gather x by column, multiply, and sum each row by reduceat.

        The products go to one buffer per matrix when x has its dtype, so
        two threads must not multiply by one matrix at once.
        """
        x = np.asarray(x)
        if x.shape[0] != self.shape[1]:
            raise ValueError(f"cannot multiply a {self.shape} matrix by a vector of shape {x.shape}")
        full, starts, buffer = self._plan
        out = buffer if x.dtype == buffer.dtype else None
        # with out=, the default mode="raise" buffers the gather; CSR column
        # indices are in range, so mode="clip" changes nothing but the speed
        prod = np.multiply(np.take(x, self.indices, out=out, mode="clip"), self.data, out=out)
        if full.size == self.shape[0]:
            return np.add.reduceat(prod, starts)
        y = np.zeros(self.shape[0], dtype=prod.dtype)
        y[full] = np.add.reduceat(prod, starts)
        return y

    __matmul__ = matvec


@dataclass
class SparseOperator:
    """Hermitian-by-construction sparse operator: a CSRMatrix and its Hermitian flag."""

    matrix: CSRMatrix
    hermitian: bool = True

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    def triplets(self) -> list[tuple[int, int, complex]]:
        """Deterministic (row, col, value) list sorted by (row, col), the order of the CSR entries."""
        m = self.matrix
        return list(zip(m.rows.tolist(), m.indices.tolist(), m.data.astype(complex).tolist()))


def _phi4(spec: TruncationSpec) -> np.ndarray:
    phi, _ = build_field_ops(spec)
    return np.linalg.matrix_power(phi.entries, 4)


def _coupling(lam: complex) -> tuple[complex, bool]:
    """lam as a float when its imaginary part is zero, else as a complex, and whether it is real."""
    lam = complex(lam)
    return (lam.real, True) if lam.imag == 0.0 else (lam, False)


def affine_operator(h0: np.ndarray, v: np.ndarray, lam: complex) -> OperatorMatrix:
    """h0 + lam v, real and flagged Hermitian exactly when lam is real."""
    lam, real = _coupling(lam)
    return OperatorMatrix(h0 + lam * v, hermitian=real)


def single_site_hamiltonian(trunc: TruncationSpec, lam: complex) -> OperatorMatrix:
    """H = omega (a^dag a + 1/2) + lam phi^4 on one site."""
    family = anharmonic_family(trunc)
    return affine_operator(family.h0, family.v, lam)


def _bonds(spec: LatticeSpec) -> list[tuple[int, int]]:
    """Nearest-neighbour bonds (x, x+1), wrapping at the end of a periodic chain."""
    ns = spec.n_sites
    if ns < 2:
        return []
    bonds = [(x, x + 1) for x in range(ns - 1)]
    if spec.boundary == "periodic":
        bonds.append((ns - 1, 0))
    return bonds


def lattice_hamiltonian(spec: LatticeSpec) -> SparseOperator:
    """Sparse lattice Hamiltonian H0 + lam V at lam = spec.lam on the full product basis.

    Entries that cancel at spec.lam are dropped, so at lam = 0 the entries
    of V alone are absent.  The hop sum runs over positive directions
    literally, so n_sites=2 with periodic boundary counts the single
    geometric bond twice (coefficient -4 kappa).
    """
    [(h0, v)] = _lattice_blocks(spec, "full")
    lam, real = _coupling(spec.lam)
    data = h0.data + lam * v.data
    live = data != 0
    # the live entries before each row start
    indptr = np.concatenate(([0], np.cumsum(live)))[h0.indptr].astype(h0.indptr.dtype)
    return SparseOperator(CSRMatrix(indptr, h0.indices[live], data[live]), hermitian=real)


def _chain_orbits(spec: LatticeSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per product index: its orbit representative (least index) and orbit size under the chain's group.

    The group holds every site permutation that keeps the bonds: the
    reflection x -> N-1-x, and on a periodic chain the translations too (the
    dihedral group).  One translation moves site 0's digit to the last site.
    The orbit of s under the whole group is the translation orbit of s (s
    alone on an open chain) joined with that of its digit reversal, which
    is the same orbit or a disjoint one of the same size.  The arithmetic runs in int32, which
    halves its time; indices stay below the lattice dimension cap.
    """
    n_max, n_sites = spec.trunc.n_max, spec.n_sites
    index = np.arange(n_max**n_sites, dtype=np.int32)
    rep = index.copy()
    if spec.boundary == "periodic":
        top = n_max ** (n_sites - 1)
        size = np.zeros_like(index)
        shifted = index
        for j in range(1, n_sites + 1):
            shifted = (shifted % top) * n_max + shifted // top
            np.minimum(rep, shifted, out=rep)
            size[(size == 0) & (shifted == index)] = j
    else:
        size = np.ones_like(index)
    rev, rest = np.zeros_like(index), index.copy()
    for _ in range(n_sites):
        rev = rev * n_max + rest % n_max
        rest //= n_max
    mirror = rep[rev]
    size[mirror != rep] *= 2
    np.minimum(rep, mirror, out=rep)
    return rep, size


def _band(op: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """Nonzero diagonals of a local operator as (offset, entry op[d + offset, d] by digit d)."""
    n = op.shape[0]
    bands = [(k, np.pad(np.diagonal(op, -k), (max(0, -k), max(0, k)))) for k in range(1 - n, n)]
    return [(k, vals) for k, vals in bands if vals.any()]


def _lattice_blocks(spec: LatticeSpec, basis: str) -> list[tuple[CSRMatrix, CSRMatrix]]:
    """(H0, V) with H(lam) = H0 + lam V on each block of a basis of the chain.

    H0 and V of a block share indptr and indices, so H(lam) has data
    H0.data + lam V.data on the same pattern.

    basis "full" is the product basis as one block.  "parity" is its even
    and its odd total-occupation block, exact on every chain: phi changes
    one occupation by one, so phi^4 and the hop phi_x phi_y change the
    total by an even number.  "symmetric" is the even and the odd sector of
    states invariant under every site permutation that keeps the bonds
    (_chain_orbits), one state per orbit: on a periodic chain the dihedral
    group's trivial sector, which lies at momentum 0, and on an open chain
    the reflection-even states.
    """
    if spec.dim > DEFAULT_DIM_CAP:
        raise ValueError(f"lattice dimension {spec.dim} exceeds cap {DEFAULT_DIM_CAP}")
    n, ns = spec.trunc.n_max, spec.n_sites
    if basis == "full":
        return [_orbit_pair(spec, np.arange(spec.dim))]
    odd = _parity_array(n, ns)
    if basis == "parity":
        return [_orbit_pair(spec, np.flatnonzero(odd == parity)) for parity in (0, 1)]
    rep, size = _chain_orbits(spec)
    own = rep == np.arange(spec.dim)
    return [_orbit_pair(spec, np.flatnonzero(own & (odd == parity)), rep, size) for parity in (0, 1)]


def _orbit_pair(spec: LatticeSpec, reps: np.ndarray, rep: np.ndarray | None = None,
                size: np.ndarray | None = None) -> tuple[CSRMatrix, CSRMatrix]:
    """(H0, V) on the orbit states |R>, one per representative r in reps.

    |R> is the normalised sum over the orbit O_R of r under a group of
    site permutations that commutes with H.  rep maps each product index to
    the representative of its orbit and size gives |O_R|; without them
    every index is its own orbit.  Applying the local terms of H to the
    digits of r gives <R'|H|R> = sqrt(|O_R|/|O_R'|) sum_{s' in O_R'}
    H_{s',r} without the full-space matrix.
    """
    n, ns = spec.trunc.n_max, spec.n_sites
    dim = reps.size
    place = [n ** (ns - 1 - x) for x in range(ns)]
    digits = [(reps // place[x]) % n for x in range(ns)]
    pos = np.full(n**ns, -1, dtype=np.int64)
    pos[reps] = np.arange(dim)
    # keys source * dim + target in int32 where they fit
    itype = np.int32 if dim * dim < 2**31 else np.int64
    har, phi4, phi = (_band(op) for op in (harmonic_hamiltonian(spec.trunc).entries,
                                           _phi4(spec.trunc), build_field_ops(spec.trunc)[0].entries))

    def assemble(terms: list[tuple[float, list]]) -> tuple[np.ndarray, np.ndarray]:
        """Keys and values of the entries of a sum of products of local operators.

        terms are (coeff, [(x, band of op_x), ...]), each standing for
        coeff * prod_x op_x.  A part that moves no digit is summed into the
        diagonal, term by term.  Every other part is an entry of its own:
        in an orbit basis a hop can land in its own orbit or two parts in
        one orbit, and _shared_csr adds those.  A digit moved out of range
        picks up a zero amplitude and is dropped.  Each part is mapped to
        its key on its own, so that no array of the block's size is made
        but the last.
        """
        keys, vals = [], []
        diag = np.zeros(dim)
        for coeff, ops in terms:
            parts = [(0, coeff)]
            for x, band in ops:
                parts = [(shift + offset * place[x], amp * entries[digits[x]])
                         for shift, amp in parts for offset, entries in band]
            for shift, amp in parts:
                if shift == 0:
                    diag += amp
                    continue
                keep = np.flatnonzero(amp)
                target, val = reps[keep] + shift, amp[keep]
                if rep is not None:
                    val *= np.sqrt(size[reps[keep]] / size[target])
                    target = rep[target]
                if dim < pos.size:  # the whole product basis is its own position map
                    target = pos[target]
                keys.append((keep * dim + target).astype(itype))
                vals.append(val)
        index = np.arange(dim, dtype=itype)
        return np.concatenate(keys + [index * itype(dim + 1)]), np.concatenate(vals + [diag])

    h0 = assemble([(1.0, [(x, har)]) for x in range(ns)]
                  + [(-2.0 * spec.kappa, [(x, phi), (y, phi)]) for x, y in _bonds(spec)])
    return _shared_csr(dim, h0, assemble([(1.0, [(x, phi4)]) for x in range(ns)]))


def _shared_csr(dim: int, *parts: tuple[np.ndarray, np.ndarray]) -> tuple[CSRMatrix, ...]:
    """One CSRMatrix per (keys, values) entry list, all on their union pattern.

    A key is source * dim + target.  The entries are sorted stably by key,
    which is fast because each term's sources come as an ascending run.  H
    is symmetric, so that order is also the CSR order of its rows (where
    the two sides of an entry round differently, the source side's
    rounding is kept).  Entries of one matrix at the same place are summed
    in list order.  The pattern keeps the places where some matrix is
    nonzero, so a matrix can hold explicit zeros where only another one has
    entries.  The steps work in place where they can: each array of this
    size is fresh memory whose pages cost a fault apiece.
    """
    keys = np.concatenate([k for k, _ in parts])
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    vals = np.concatenate([v for _, v in parts])[order]
    first = np.empty(keys.size, bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    # the place of each entry, offset by the place count for each list before its own
    slot = np.cumsum(first, dtype=np.intp)
    slot -= 1
    for bound in np.cumsum([k.size for k, _ in parts])[:-1]:
        np.add(slot, keys.size, out=slot, where=order >= bound)
    data = np.bincount(slot, vals, keys.size * len(parts)).reshape(len(parts), keys.size)
    live = data.any(axis=0)
    if not live.all():
        data, keys = data[:, live], keys[live]
    rows = keys // keys.dtype.type(dim)
    indptr = np.searchsorted(rows, np.arange(dim + 1, dtype=rows.dtype)).astype(np.int32)
    keys -= rows * keys.dtype.type(dim)
    return tuple(CSRMatrix(indptr, keys.astype(np.intp), d) for d in data)


def _parity_array(n_max: int, n_sites: int) -> np.ndarray:
    """Total occupation mod 2 of every product-basis index, digit by digit in base n_max (in int32)."""
    index = np.arange(n_max**n_sites, dtype=np.int32)
    total = np.zeros_like(index)
    for _ in range(n_sites):
        total += index % n_max
        index //= n_max
    return total % 2


@dataclass(frozen=True)
class CouplingFamily:
    """Affine analytic family H(lam) = H0 + lam V of one site, with parity bookkeeping.

    h0 and v are dense arrays on the n_max occupation states.
    """

    h0: np.ndarray
    v: np.ndarray
    n_max: int

    def sector_matrices(self, sector: str) -> tuple[np.ndarray, np.ndarray]:
        """The even or the odd occupation-parity block of h0 and of v."""
        idx = sector_indices(self.n_max, sector)
        return self.h0[np.ix_(idx, idx)], self.v[np.ix_(idx, idx)]


def anharmonic_family(trunc: TruncationSpec) -> CouplingFamily:
    """H(lam) = H_har + lam phi^4 for one site."""
    return CouplingFamily(harmonic_hamiltonian(trunc).entries, _phi4(trunc), trunc.n_max)


def strong_coupling_family(trunc: TruncationSpec) -> CouplingFamily:
    """H_str(lam_tilde) = phi^4 + lam_tilde H_har for one site.

    H_str(1/lam) = H_anh(lam)/lam for lam != 0, so both families share the
    same exceptional points up to inversion.
    """
    return CouplingFamily(_phi4(trunc), harmonic_hamiltonian(trunc).entries, trunc.n_max)

