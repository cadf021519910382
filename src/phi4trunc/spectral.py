"""Eigensolutions of H(lam) families and real-axis curvature peaks.

Dense and Lanczos eigensolvers, the lattice ground energies over the
chain's symmetric sectors or parity blocks, and exact time evolution.
Lattice sweeps take five-point stencils of the ground energy on a grid of
couplings.  The location and width of the peak in the second derivative
on the real axis estimate the nearest complex singularity: the peak sits
at its real part, and the imaginary part follows from the width at half
maximum (W = 2 sqrt(2^(2/3)-1) Im lam_s, exact for a two-level
square-root gap).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .hamiltonian import CSRMatrix, LatticeSpec, SparseOperator, _lattice_blocks, anharmonic_family
from .oscillator import OperatorMatrix, TruncationSpec, build_field_ops

__all__ = [
    "SpectrumResult",
    "dense_spectrum",
    "lanczos_lowest",
    "lattice_ground_energies",
    "exact_amplitude",
    "stencil_derivatives",
    "curvature_peak",
    "LANCZOS_SEED",
]

DENSE_CAP = 4096
# Above this dimension a warm-started Lanczos sweep beats one stacked dense
# eigvalsh over the couplings of a lattice block (2-core x86-64, OpenBLAS,
# one thread; tools/sector_bench.py, 41 couplings on symmetric sectors,
# per coupling: dense 0.47 against Lanczos 0.76 ms at 122 states, 1.1
# against 2.0 ms at 182, 1.3 against 0.81 ms at 190, 1.9 against 1.4 ms at
# 226, 4.7 against 2.1 ms at 346).
SECTOR_DENSE_DIM = 180
LANCZOS_SEED = 0x5EED
# Lanczos steps between two checks of the Ritz residuals, and the most
# steps of one run: at 300, the basis of a 10-site symmetric sector
# (27,036 states) stays under 65 MB
LANCZOS_CHECK = 4
LANCZOS_MAX_STEPS = 300
# the random vector's share of a start from a given near vector: small, so
# the start stays near, but not zero, so that no level orthogonal to near
# is hidden (a 10-site, 11-coupling sweep: 1480 matvecs from cold starts,
# 1356 at this share, 1216 from near alone)
LANCZOS_WARM_SHARE = 1e-2
HALF_WIDTH_FACTOR = 2.0 * np.sqrt(2.0 ** (2.0 / 3.0) - 1.0)


@dataclass
class SpectrumResult:
    """Eigenvalues sorted by ascending real part, optionally with vectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None


def dense_spectrum(h: OperatorMatrix) -> SpectrumResult:
    """Full dense spectrum; Hermitian solver when the flag allows it.

    A stack of matrices gives one row of eigenvalues per matrix.
    """
    if h.dim > DENSE_CAP:
        raise ValueError(f"dimension {h.dim} exceeds dense cap {DENSE_CAP}")
    try:
        if h.hermitian:
            w = np.linalg.eigvalsh(h.entries)
        else:
            w = np.linalg.eigvals(h.entries)
            w = np.take_along_axis(w, np.argsort(w.real, axis=-1, kind="stable"), axis=-1)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            f"dense eigensolver failed on {h.dim}x{h.dim} "
            f"{'Hermitian' if h.hermitian else 'general'} matrix: {exc}"
        ) from exc
    return SpectrumResult(w)


def lanczos_lowest(h: SparseOperator, k: int, tol: float = 1e-12,
                   near: np.ndarray | None = None) -> SpectrumResult:
    """k lowest eigenpairs of a Hermitian sparse operator, by Lanczos with full reorthogonalisation.

    The start is the first LANCZOS_SEED random vector (_random_vectors)
    plus an equal-norm vector weighted by exp(-(H_ii - min H_ii)), or,
    when a vector near the ground state is given (such as the ground
    vector at a nearby coupling), near plus LANCZOS_WARM_SHARE of the
    random vector; repeated runs are bit-identical (see _lanczos for one
    run).  A tol <= 0 means machine epsilon, as in ARPACK.  A Krylov space
    holds a single vector of each eigenspace, so for k > 1 the k Ritz
    vectors found are locked and a run from a fresh random vector,
    orthogonal to them, looks for the lowest eigenvalue left; while that
    falls below the k-th, it joins the k lowest and the search repeats.
    This finds repeated eigenvalues, such as the +-k momentum pairs of a
    periodic chain's parity blocks.  The eigenvectors are the Ritz
    vectors, one column each.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if not h.hermitian:
        raise ValueError("lanczos_lowest requires a Hermitian operator")
    if tol <= 0:
        tol = float(np.finfo(float).eps)
    dim = h.dim
    if k >= dim - 1:
        w, u = np.linalg.eigh(h.matrix.toarray())
        return SpectrumResult(w[:k], u[:, :k])
    if k > LANCZOS_MAX_STEPS:
        raise ValueError(f"k={k} needs more than the {LANCZOS_MAX_STEPS} steps of one Lanczos run")
    matvec = h.matrix.matvec
    fresh = _random_vectors(dim, LANCZOS_SEED)
    noise, share = next(fresh), LANCZOS_WARM_SHARE
    if near is None:
        diag = h.matrix.diagonal().real
        near, share = np.exp(-(diag - diag.min())), 1.0
    start = share * noise / _norm(noise) + near / _norm(near)
    dtype = np.result_type(h.matrix.dtype, np.float64)
    theta, y = _lanczos(matvec, start.astype(dtype), k, tol, fresh, np.empty((0, dim), dtype))
    while k > 1:
        mu, u = _lanczos(matvec, next(fresh).astype(dtype), 1, tol, fresh, y)
        if not mu[0] < theta[-1] - tol * max(1.0, abs(theta[-1])):
            break
        order = np.argsort(np.r_[theta, mu], kind="stable")[:k]
        theta, y = np.r_[theta, mu][order], np.concatenate([y, u])[order]
    return SpectrumResult(theta, y.T)


def _lanczos(matvec, q: np.ndarray, k: int, tol: float, fresh,
             locked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The k lowest Ritz values and vectors (rows) of one Lanczos process from q, orthogonal to locked.

    Each Lanczos vector is orthogonalised against the rows of locked and
    all earlier vectors (Paige, 1972), and the Rayleigh quotient
    T = Q^H H Q keeps every coefficient that removes.  Every LANCZOS_CHECK
    steps the process stops if each of the k lowest Ritz values theta_i
    has a residual bound sum_j beta_j |s_ji| <= tol max(1, |theta_i|), over
    the last vector j of every Krylov run.  A run that breaks down (its
    Krylov space is invariant) is continued from a fresh random vector
    orthogonalised against the basis.  A run that fills the space is exact;
    one that has not converged in LANCZOS_MAX_STEPS steps raises
    RuntimeError, which bounds the basis to that many vectors.
    """
    dim, held = q.size, locked.shape[0]
    project = (lambda b, x: b.conj() @ x) if np.iscomplexobj(q) else (lambda b, x: b @ x)
    tiny = 64 * np.finfo(float).eps
    steps = min(dim - held, LANCZOS_MAX_STEPS)
    # rows of basis hold memory only once written, so the unused ones cost nothing
    basis, t = np.empty((held + steps, dim), q.dtype), np.zeros((steps, steps), q.dtype)
    basis[:held] = locked
    ends, beta, anorm = [], 0.0, 0.0
    q = _orthonormal(q, basis[:held], project)
    for m in range(1, steps + 1):
        basis[held + m - 1] = q
        z = matvec(q)
        if beta:
            z -= beta * basis[held + m - 2]
            t[m - 2, m - 1] = beta
        t[m - 1, m - 1] = np.vdot(q, z).real
        z -= t[m - 1, m - 1] * q
        beta = _norm(z)
        for _ in range(2):  # a second pass only when the first removed much (Daniel et al., 1976)
            before = beta
            c = project(basis[:held + m], z)
            z -= c @ basis[:held + m]
            t[:m, m - 1] += c[held:]
            beta = _norm(z)
            if beta > 0.7 * before:
                break
        anorm = max(anorm, abs(t[m - 1, m - 1]), beta)
        broken = beta <= tiny * anorm
        if m >= k and (m % LANCZOS_CHECK == 0 or broken or m == steps):
            theta, s = np.linalg.eigh(t[:m, :m], UPLO="U")
            bound = sum(b * np.abs(s[j, :k]) for j, b in [*ends, (m - 1, beta)])
            done = bound <= tol * np.maximum(1.0, np.abs(theta[:k]))
            if done.all() or held + m == dim:
                return theta[:k], s[:, :k].T @ basis[held:held + m]
            if m == steps:
                raise RuntimeError(f"Lanczos failed to converge: {done.sum()}/{k} eigenvalues converged "
                                   f"in {steps} steps (tol={tol})")
        if broken:
            ends.append((m - 1, beta))
            q = _orthonormal(next(fresh).astype(q.dtype), basis[:held + m], project)
            beta = 0.0
        else:
            q = z / beta


def _random_vectors(dim: int, seed: int):
    """Endless vectors of dim doubles, uniform in [-1, 1), from SplitMix64 (Steele, Lea and Flood, 2014).

    A counter-based generator on numpy integers: bit-identical on every
    platform, and numpy.random, whose import costs more than an 8-site
    solve, is not imported.
    """
    mix1, mix2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
    gamma = 0x9E3779B97F4A7C15
    state = np.arange(1, dim + 1, dtype=np.uint64) * np.uint64(gamma) + np.uint64(seed)
    step = np.uint64(gamma * dim % 2**64)
    while True:
        z = (state ^ (state >> np.uint64(30))) * mix1
        z = (z ^ (z >> np.uint64(27))) * mix2
        yield ((z ^ (z >> np.uint64(31))) >> np.uint64(11)) * 2.0**-52 - 1.0
        state += step


def _orthonormal(q: np.ndarray, rows: np.ndarray, project) -> np.ndarray:
    """q with its components along the orthonormal rows removed (two passes), normalised."""
    for _ in range(2):
        q = q - project(rows, q) @ rows
    return q / _norm(q)


def _norm(x: np.ndarray) -> float:
    return float(np.sqrt(np.vdot(x, x).real))


def _sectors_hold_ground(spec: LatticeSpec, lams: list[float], k: int) -> bool:
    """Whether the two symmetric sectors provably hold the ground energy at every coupling of lams.

    If every off-diagonal entry of H is <= 0 in a product basis, the ground
    space holds a nonnegative vector (Perron-Frobenius; Bravyi, DiVincenzo,
    Oliveira and Terhal, Quantum Inf. Comput. 8, 361 (2008)).  The site
    permutations that keep the bonds (translations and the reflection of a
    periodic chain, the reflection of an open one) commute with H and
    permute that basis, so each maps the vector to another nonnegative
    ground vector.  Their average over the group is nonzero, being a sum of
    nonnegative vectors, and invariant under every permutation, and so is
    its even or its odd part: a ground state in one of the two symmetric
    sectors, on either boundary.  For kappa > 0 and lam <= 0 the occupation
    basis is one: phi and phi^4 have nonnegative entries.  For lam > 0 the
    product of site eigenstates is one when _site_field_gauges shows it.
    """
    if not (k == 1 and spec.kappa > 0):
        return False
    positive = [lam for lam in lams if lam > 0]
    return not positive or _site_field_gauges(spec.trunc, positive)


def _site_field_gauges(trunc: TruncationSpec, lams: list[float]) -> bool:
    """Whether, at every coupling, signs of the site eigenstates make every entry of phi >= 0.

    The site Hamiltonian omega (n + 1/2) + lam phi^4 keeps occupation
    parity and phi is odd, so in its eigenbasis phi has one block B =
    <even|phi|odd>.  The even states take the signs of B's first column,
    each odd state the sign of its column's sum over the re-signed rows,
    which entries at rounding level (near lam = 0) do not flip.  Any +-1
    signs that pass are a proof: each hop entry of H in the product of
    these states is then -2 kappa b b' <= 0.  Entries down to -n_max eps
    max|B| count as zero, a change of H at rounding level (Weyl).
    """
    lam = np.reshape(lams, (-1, 1, 1))
    blocks = map(anharmonic_family(trunc).sector_matrices, ("even", "odd"))
    _, u = np.linalg.eigh([h0 + lam * v for h0, v in blocks])
    n = trunc.n_max
    phi = build_field_ops(trunc)[0].entries[np.ix_(np.arange(0, n, 2), np.arange(1, n, 2))]
    b = np.swapaxes(u[0], 1, 2) @ phi @ u[1]
    b *= np.where(b[:, :, :1] < 0, -1.0, 1.0)
    b *= np.where(b.sum(axis=1, keepdims=True) < 0, -1.0, 1.0)
    tol = trunc.n_max * np.finfo(float).eps * np.abs(b).max(axis=(1, 2), keepdims=True)
    return bool((b >= -tol).all())


def _sector_ground(h0, v, lams: list[float], k: int, tol: float) -> np.ndarray:
    """The min(k, dim) lowest eigenvalues of h0 + lam v at each coupling, dense up to SECTOR_DENSE_DIM.

    h0 and v are CSRMatrix blocks on one pattern.  The dense path solves
    the stack of every coupling's matrix in one call; the Lanczos path
    starts each coupling from the previous one's ground vector.
    """
    dim = h0.shape[0]
    if dim <= SECTOR_DENSE_DIM:
        stack = h0.toarray() + np.reshape(lams, (-1, 1, 1)) * v.toarray()
        return dense_spectrum(OperatorMatrix(stack, hermitian=True)).eigenvalues[:, :k]
    rows, near = [], None
    for lam in lams:
        found = lanczos_lowest(SparseOperator(CSRMatrix(h0.indptr, h0.indices, h0.data + lam * v.data)),
                               k, tol, near)
        rows.append(found.eigenvalues)
        near = found.eigenvectors[:, 0]
    return np.array(rows).reshape(len(lams), min(k, dim))


def lattice_ground_energies(spec: LatticeSpec, lams, k: int = 1, tol: float = 1e-12) -> np.ndarray:
    """The k lowest lattice energies at each coupling of lams, shape (len(lams), k).

    spec.lam is not used.  A k past the lattice dimension gives every
    eigenvalue.  H0 and V are built once, block by block
    (hamiltonian._lattice_blocks): in the even and the odd symmetric
    sector, the states that every site permutation of the chain keeps,
    where the group average of a nonnegative ground vector provably lies
    there (_sectors_hold_ground: kappa > 0, k = 1, and at each coupling
    lam <= 0 or site eigenstates in which phi is nonnegative), and in the
    even and the odd parity block of the full basis everywhere else.  Each
    block gives its k lowest energies at each coupling, and the k lowest of
    their union are returned.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    lams = list(lams)
    for lam in lams:
        if complex(lam).imag != 0.0:
            raise ValueError(f"lattice ground energies need a Hermitian H(lam); coupling {lam!r} is complex")
    lams = [complex(lam).real for lam in lams]
    basis = "symmetric" if _sectors_hold_ground(spec, lams, k) else "parity"
    levels = np.hstack([_sector_ground(h0, v, lams, k, tol) for h0, v in _lattice_blocks(spec, basis)])
    return np.sort(levels, axis=1)[:, :k]


def _five_point_stencil(f, h: float) -> tuple[float, float, float]:
    """d1, d2 and d4 at the middle of five samples f spaced h apart."""
    d1 = (f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * h)
    d2 = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h**2)
    d4 = (f[0] - 4 * f[1] + 6 * f[2] - 4 * f[3] + f[4]) / h**4
    return d1, d2, d4


def stencil_derivatives(lams: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """Rows (d1, d2, d4) of five-point stencils on a uniform grid.

    The two points at either end have no full stencil and get NaN.
    """
    n = len(lams)
    h = lams[1] - lams[0]
    out = np.full((n, 3), np.nan)
    for i in range(2, n - 2):
        out[i] = _five_point_stencil(energies[i - 2: i + 3], h)
    return out


def curvature_peak(lams: np.ndarray, d2: np.ndarray, label: str = "") -> tuple[float, float]:
    """(lambda at the |d2| peak, Im lam_s from its width at half maximum).

    The peak is sought among the stencil points lams[2:-2]; each half-maximum
    crossing is interpolated linearly between grid points, and the width
    converts to Im lam_s through HALF_WIDTH_FACTOR.  A peak on the first or
    last stencil point warns (prefixed by label) and returns NaN for both.
    """
    n = len(lams)
    ipk = int(np.nanargmax(np.abs(d2[2: n - 2]))) + 2
    if ipk in (2, n - 3):
        warnings.warn(f"{label}|E0''| peaks at the grid boundary lambda={lams[ipk]:.6g}; "
                      "widen the lambda grid", RuntimeWarning)
        return float("nan"), float("nan")
    half = abs(d2[ipk]) / 2.0
    left = right = float("nan")
    for i in range(ipk, 1, -1):
        if abs(d2[i]) < half:
            x0, x1, y0, y1 = lams[i], lams[i + 1], abs(d2[i]), abs(d2[i + 1])
            left = x0 + (half - y0) * (x1 - x0) / (y1 - y0)
            break
    for i in range(ipk, n - 2):
        if abs(d2[i]) < half:
            x0, x1, y0, y1 = lams[i - 1], lams[i], abs(d2[i - 1]), abs(d2[i])
            right = x0 + (half - y0) * (x1 - x0) / (y1 - y0)
            break
    return lams[ipk], (right - left) / HALF_WIDTH_FACTOR


def exact_amplitude(
    h: OperatorMatrix, t_grid: np.ndarray, state_in: int, state_out: int
) -> np.ndarray:
    """<out| exp(-i H t) |in> on a grid of times, via full diagonalization."""
    if not (0 <= state_in < h.dim and 0 <= state_out < h.dim):
        raise ValueError(f"states {state_in}->{state_out} outside 0..{h.dim - 1}")
    if h.hermitian:
        w, u = np.linalg.eigh(h.entries)
        w = w.astype(complex)
        weights = u[state_out, :] * np.conj(u[state_in, :])
    else:
        w, u = np.linalg.eig(h.entries)
        weights = u[state_out, :] * np.linalg.inv(u)[:, state_in]
    t = np.asarray(t_grid, dtype=float)
    return np.exp(-1j * np.outer(t, w)) @ weights
