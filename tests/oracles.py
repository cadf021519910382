"""Independent oracles used only by the tests.

None of them imports the package:

- the continuum quartic-oscillator coefficients come from the classic
  wavefunction recursion: write psi = e^(-x^2/2) sum_m lam^m B_m(x) with
  B_m an even polynomial, match powers of x in the Schroedinger equation and
  read the energy coefficient off the constant term;
- the dense lattice Hamiltonian is assembled from numpy Kronecker products
  of the documented local terms and hop;
- exceptional points are labelled by following eigenvalues along a ray in
  the complex coupling plane;
- structural Pauli counts are exact integer Walsh-Hadamard transforms;
- perturbed projectors come from Kato's composition sum over the whole
  truncated space, whose cost grows like C(2m, m) with the order m.
"""
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
from scipy.optimize import linear_sum_assignment


def benderwu_continuum(max_order: int) -> list[Fraction]:
    """Ground-energy coefficients of H = (p^2 + x^2)/2 + lam x^4, exact."""
    a = [Fraction(1, 2)]
    b_prev = {0: Fraction(1)}
    table = {0: b_prev}
    for m in range(1, max_order + 1):
        bm: dict[int, Fraction] = {}
        for k in range(2 * m, 0, -1):
            rhs = Fraction(0)
            for j in range(1, m):
                rhs += a[j] * table[m - j].get(k, Fraction(0))
            val = rhs + (k + 1) * (2 * k + 1) * bm.get(k + 1, Fraction(0)) \
                - table[m - 1].get(k - 2, Fraction(0))
            bm[k] = val / (2 * k)
        a.append(-bm.get(1, Fraction(0)))
        bm[0] = Fraction(0)
        table[m] = bm
    return a


def dense_lattice_hamiltonian(n_sites: int, n_max: int, kappa: float, lam: complex) -> np.ndarray:
    """Dense H = sum_x [(n_x + 1/2) + lam phi_x^4] - 2 kappa sum_x phi_x phi_{x+1}, omega = 1.

    Periodic chain with site 0 the slowest-varying Kronecker factor and the
    bond sum taken literally over x = 0 .. n_sites-1 (so two sites carry the
    one geometric bond twice).  Built from numpy kron products alone; a
    single site with kappa = 0 is the anharmonic oscillator itself.
    """
    a = np.diag(np.sqrt(np.arange(1.0, n_max)), 1)
    phi = (a + a.T) / np.sqrt(2.0)
    local = np.diag(np.arange(n_max) + 0.5) + lam * np.linalg.matrix_power(phi, 4)
    eye = np.eye(n_max)

    def place(ops: dict) -> np.ndarray:
        out = np.eye(1)
        for x in range(n_sites):
            out = np.kron(out, ops.get(x, eye))
        return out

    h = sum(place({x: local}) for x in range(n_sites))
    if n_sites > 1:
        for x in range(n_sites):
            h = h - 2.0 * kappa * place({x: phi, (x + 1) % n_sites: phi})
    return h


def coalescing_levels(n_max: int, point: complex) -> tuple[int, int]:
    """The two even unperturbed levels whose eigenvalues meet at the coupling `point`.

    Follows the even-sector eigenvalues of the single-site Hamiltonian along the
    ray lam = t * point from t = 0, where they are the harmonic levels
    n + 1/2, to t = 1 - 1e-6.  Each step matches new eigenvalues to old by
    a minimal-cost assignment and is accepted only when every eigenvalue
    moves less than a quarter of its distance to the nearest other one.
    Returns the occupation labels of the closest pair at the end of the ray.
    """
    def block(t: float) -> np.ndarray:
        return dense_lattice_hamiltonian(1, n_max, 0.0, t * point)[::2, ::2]

    def nearest(ev: np.ndarray) -> np.ndarray:
        dist = np.abs(ev[:, None] - ev[None, :])
        np.fill_diagonal(dist, np.inf)
        return dist

    ev = np.diag(block(0.0)).astype(complex)
    t, dt, t_end = 0.0, 1e-3, 1.0 - 1e-6
    while t < t_end:
        dt = min(dt, t_end - t)
        new = np.linalg.eigvals(block(t + dt))
        cost = np.abs(ev[:, None] - new[None, :])
        _, col = linear_sum_assignment(cost)
        if np.all(cost[np.arange(len(ev)), col] < nearest(ev).min(axis=1) / 4):
            ev, t, dt = new[col], t + dt, 1.5 * dt
        else:
            dt /= 2
    dist = nearest(ev)
    i, j = np.unravel_index(np.argmin(dist), dist.shape)
    return tuple(sorted((2 * int(i), 2 * int(j))))


def _squarefree_split(k: int) -> tuple[int, int]:
    """k = m^2 s with s squarefree; returns (m, s)."""
    m, s, p = 1, 1, 2
    while p * p <= k:
        while k % (p * p) == 0:
            k //= p * p
            m *= p
        if k % p == 0:
            k //= p
            s *= p
        p += 1
    return m, s * k


def _surd_matmul(a: dict, b: dict) -> dict:
    """Product of sparse matrices {i: {j: {s: c}}} with entries sum_s c sqrt(s)."""
    out = {}
    for i, row in a.items():
        acc: dict = {}
        for k, aik in row.items():
            for j, bkj in b.get(k, {}).items():
                cell = acc.setdefault(j, {})
                for s1, c1 in aik.items():
                    for s2, c2 in bkj.items():
                        # sqrt(s1 s2) = g sqrt((s1/g)(s2/g)), squarefree for g = gcd
                        g = math.gcd(s1, s2)
                        s = (s1 // g) * (s2 // g)
                        cell[s] = cell.get(s, 0) + c1 * c2 * g
        out[i] = {j: {s: c for s, c in cell.items() if c} for j, cell in acc.items()}
    return out


def _walsh_hadamard(v: np.ndarray) -> np.ndarray:
    """Unnormalised transform: out[z] = sum_j (-1)^popcount(j & z) v[j]."""
    n = v.size
    h = 1
    while h < n:
        v = v.reshape(-1, 2, h)
        v = np.stack([v[:, 0] + v[:, 1], v[:, 0] - v[:, 1]], axis=1).reshape(n)
        h *= 2
    return v


def structural_pauli_count(n_q: int) -> int:
    """Exact number of non-identity Pauli words in H = (n + 1/2) + lam phi^4.

    The coefficient of the word with X/Y mask f and Z/Y mask z is, up to a
    unit factor, the Walsh-Hadamard transform at z of the diagonal
    j -> H[j, j ^ f].  Every entry of (a + a^dag)^4 is an integer multiple of
    sqrt(r); grouping by the squarefree part of r, a coefficient vanishes
    exactly when each group's integer transform does, because square roots
    of distinct squarefree integers are linearly independent over the
    rationals.  The harmonic part (f = 0 only) is a separate group, since a
    word counts when its coefficient a + lam b is not identically zero.
    Integer arithmetic throughout: no floating-point threshold is involved.
    """
    n = 2**n_q
    x = {i: {} for i in range(n)}
    for k in range(1, n):
        m, s = _squarefree_split(k)
        x[k - 1][k] = {s: m}
        x[k][k - 1] = {s: m}
    x2 = _surd_matmul(x, x)
    x4 = _surd_matmul(x2, x2)
    groups = {(0, "harmonic"): 2 * np.arange(n, dtype=np.int64) + 1}
    for i, row in x4.items():
        for j, cell in row.items():
            for s, c in cell.items():
                groups.setdefault((i ^ j, s), np.zeros(n, dtype=np.int64))[i] = c
    nonzero: dict[int, set] = {}
    for (flip, _), vec in groups.items():
        # |transform| <= n max|v| bounds every butterfly stage: no int64 overflow
        assert int(np.abs(vec).max()) * n < 2**63
        nonzero.setdefault(flip, set()).update(np.flatnonzero(_walsh_hadamard(vec)).tolist())
    nonzero[0].discard(0)  # the identity word is a global phase
    return sum(len(zs) for zs in nonzero.values())


def weighted_quartic(n_max: int, omega: Fraction = Fraction(1)) -> tuple[list, list]:
    """(diagonal of omega (n + 1/2), X^4 / (4 omega^2)) in the sqrt(n!)-weighted basis.

    After the similarity by d_n = sqrt(n!), X = a + a^dag has superdiagonal
    1, 2, ..., n_max-1 and subdiagonal ones, so every entry is rational.
    """
    x = [[Fraction(int(j == i + 1) * j + int(j == i - 1)) for j in range(n_max)]
         for i in range(n_max)]

    def mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(n_max)) for j in range(n_max)]
                for i in range(n_max)]

    x2 = mul(x, x)
    v = [[c / (4 * omega * omega) for c in row] for row in mul(x2, x2)]
    return [omega * (n + Fraction(1, 2)) for n in range(n_max)], v


def kato_projector_series(n_max: int, level: int, order: int,
                          omega: Fraction = Fraction(1)) -> list:
    """Weighted-basis coefficients P^(0..order) of the perturbed projector, exact.

    Kato's expansion of the Riesz projector around the unperturbed energy
    E = omega (level + 1/2):

        P^(m) = - sum over k_1 + ... + k_{m+1} = m of S_{k_1} V S_{k_2} V ... V S_{k_{m+1}},

    with S_0 = -|level><level| and S_k = (Q / (E - H0))^k, Q the complement
    of |level>.  The sum runs over all C(2m, m) compositions on the whole
    truncated space; parity is not used.
    """
    h0, v = weighted_quartic(n_max, omega)
    e = h0[level]
    zero = Fraction(0)

    def s_times(k: int, mat: list) -> list:
        if k == 0:
            return [[-c if i == level else zero for c in row] for i, row in enumerate(mat)]
        return [[zero if i == level else c / (e - h0[i]) ** k for c in row]
                for i, row in enumerate(mat)]

    def v_times(mat: list) -> list:
        return [[sum(v[i][k] * mat[k][j] for k in range(n_max) if v[i][k]) for j in range(n_max)]
                for i in range(n_max)]

    identity = [[Fraction(int(i == j)) for j in range(n_max)] for i in range(n_max)]
    series = [[[Fraction(int(i == j == level)) for j in range(n_max)] for i in range(n_max)]]
    for m in range(1, order + 1):
        total = [[zero] * n_max for _ in range(n_max)]
        # a composition of m into m + 1 parts is a choice of m bar positions
        for bars in combinations(range(2 * m), m):
            edges = (-1,) + bars + (2 * m,)
            parts = [edges[i + 1] - edges[i] - 1 for i in range(m + 1)]
            term = s_times(parts[-1], identity)
            for k in reversed(parts[:-1]):
                term = s_times(k, v_times(term))
            total = [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(total, term)]
        series.append(total)
    return series
