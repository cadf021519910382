"""Independent oracles and reference paths used only by the tests.

They leave the package alone: the only name they import from it is
hermite_zeros, whose doubles seed the strong-series oracle's Newton.

- the continuum quartic-oscillator coefficients come from the classic
  wavefunction recursion: write psi = e^(-x^2/2) sum_m lam^m B_m(x) with
  B_m an even polynomial, match powers of x in the Schroedinger equation and
  read the energy coefficient off the constant term; its large-order growth
  is the Bender-Wu asymptote;
- the dense lattice Hamiltonian is assembled from numpy Kronecker products
  of the documented local terms and hop;
- exceptional points are labelled by following eigenvalues along a ray in
  the complex coupling plane;
- coupling derivatives of one level come from nine-point finite
  differences: five-point stencils at steps h and h/2 and one Richardson
  step, the level followed by its overlap with the eigenvector at the
  middle point;
- they also come by sum over states, the Rayleigh-Schrodinger
  coefficients in the eigenbasis at the coupling; the peak of |E''| on the
  real axis, its width at half maximum and the curvature ratio there
  estimate the nearest exceptional point (singularity_from_derivatives);
- the Rayleigh-Schrodinger recursion runs as one generic loop over any
  scalar field: doubles for those derivatives, Fractions as the oracle of
  the package's integer loop, mpmath floats for the strong series;
- the field eigenbasis comes from the normalized Hermite recurrence at the
  double Hermite zeros;
- minimum sector gaps come from mpmath's QR eigenvalues of h0 + lam v at
  30 digits, with the float entries taken exactly;
- structural Pauli counts are exact integer Walsh-Hadamard transforms;
- the occupation-basis quartic X^4 comes from banded products of X in
  mpmath floats (mp_x4);
- structural Pauli word sets also come from a 40-digit recursive split
  of that X^4 into qubit-0 quadrants at a fixed coupling;
- Pauli coefficients also come from explicit traces tr(P H)/2^n_q of
  dense Kronecker-product words, and bit for bit from the full gather:
  the Walsh-Hadamard transform of all 2^n_q diagonals i -> H[i, i ^ f],
  read at the masks of all 4^n_q words;
- occupation parity is summed digit by digit, one product index at a time;
- Trotter steps are dense products of cos(theta) 1 - i sin(theta) P, and
  Trotter evolution applies each rotation to the statevector in turn;
- perturbed projectors come from Kato's composition sum over the whole
  truncated space, whose cost grows like C(2m, m) with the order m;
- sphere coordinates come from the inverse stereographic projection of one
  coupling at a time, and Mollweide coordinates from a scalar Newton
  iteration per point;
- determinants of matrices of polynomials (the Sylvester resultant in lam,
  characteristic polynomials in z) come from fraction-free Bareiss
  elimination on the polynomial entries themselves;
- Dyson amplitudes come from the nested time integrals on Gaussian
  rationals, each integral by parts with division by i Omega;
- strong-coupling series run on mpmath floats: Newton-refined Hermite
  zeros from the package's double seeds, the field eigenbasis from the
  normalized Hermite recurrence, and the generic Rayleigh-Schrodinger loop
  above, at two precisions.
"""
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import mpmath as mp
import numpy as np
from scipy.optimize import linear_sum_assignment

from phi4trunc.oscillator import hermite_zeros

HALF_WIDTH_FACTOR = 2.0 * np.sqrt(2.0 ** (2.0 / 3.0) - 1.0)


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


def benderwu_asymptote(m: int) -> float:
    """Large-order growth sqrt(6/pi^3) 3^m Gamma(m + 1/2) of the untruncated series."""
    if m < 0:
        raise ValueError(f"order must be nonnegative, got {m}")
    log_val = 0.5 * math.log(6.0 / math.pi**3) + m * math.log(3.0) + math.lgamma(m + 0.5)
    if log_val > 700.0:
        raise OverflowError(f"asymptote at order {m} exceeds double range; use the log form")
    return math.exp(log_val)


def dense_lattice_hamiltonian(n_sites: int, n_max: int, kappa: float, lam: complex,
                              boundary: str = "periodic", omega: float = 1.0) -> np.ndarray:
    """Dense H = sum_x [omega (n_x + 1/2) + lam phi_x^4] - 2 kappa sum_x phi_x phi_{x+1}.

    Site 0 is the slowest-varying Kronecker factor.  On a periodic chain the
    bond sum runs literally over x = 0 .. n_sites-1 (so two sites carry the
    one geometric bond twice); an open chain drops the wrap bond x =
    n_sites-1.  Built from numpy kron products alone; a single site with
    kappa = 0 is the anharmonic oscillator itself.
    """
    a = np.diag(np.sqrt(np.arange(1.0, n_max)), 1)
    phi = (a + a.T) / np.sqrt(2.0 * omega)
    local = omega * np.diag(np.arange(n_max) + 0.5) + lam * np.linalg.matrix_power(phi, 4)
    eye = np.eye(n_max)

    def place(ops: dict) -> np.ndarray:
        out = np.eye(1)
        for x in range(n_sites):
            out = np.kron(out, ops.get(x, eye))
        return out

    h = sum(place({x: local}) for x in range(n_sites))
    if n_sites > 1:
        for x in range(n_sites if boundary == "periodic" else n_sites - 1):
            h = h - 2.0 * kappa * place({x: phi, (x + 1) % n_sites: phi})
    return h


def parity_of_index(index: int, n_max: int, n_sites: int = 1) -> int:
    """Total occupation mod 2 of a product-basis index (site 0 most significant)."""
    s = 0
    for _ in range(n_sites):
        s += index % n_max
        index //= n_max
    return s % 2


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


def tracked_sector_level(blocks, sector: str, pos: int, lam: float,
                         ref_vec: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Eigenpair of the sector block h0s + lam vs at lam: position pos, or the one most like ref_vec.

    blocks maps a sector to its pair (h0s, vs), as
    functools.partial(site_blocks, trunc) does.
    """
    h0s, vs = blocks(sector)
    w, u = np.linalg.eigh(h0s + lam * vs)
    j = pos if ref_vec is None else int(np.argmax(np.abs(ref_vec @ u)))
    return float(w[j]), u[:, j]


def finite_difference_derivatives(blocks, level: int, lambda0: float,
                                  step: float | None = None) -> tuple[float, float, float]:
    """d1, d2 and d4 of E_level(lam) at lambda0 from nine samples spaced step/2 apart.

    step defaults to 1e-4 max(1, |lambda0|).  Five-point central stencils
    at step and at step/2 are combined by one Richardson step,
    (4 fine - coarse) / 3.
    """
    sector, pos = ("even", "odd")[level % 2], level // 2
    h = step if step is not None else 1e-4 * max(1.0, abs(lambda0))
    _, ref = tracked_sector_level(blocks, sector, pos, lambda0)
    es = {k: tracked_sector_level(blocks, sector, pos, lambda0 + k * h / 2.0, ref)[0] for k in range(-4, 5)}

    def stencil(mult: int) -> tuple[float, float, float]:
        f, s = [es[k * mult] for k in (-2, -1, 0, 1, 2)], h * mult / 2.0
        return ((f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * s),
                (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * s**2),
                (f[0] - 4 * f[1] + 6 * f[2] - 4 * f[3] + f[4]) / s**4)

    d1, d2, d4 = ((4 * fine - coarse) / 3.0 for fine, coarse in zip(stencil(1), stencil(2)))
    return d1, d2, d4


@dataclass
class DerivativeEstimate:
    """First, second and fourth lam-derivatives of one tracked level."""

    level: int
    lambda0: float
    d1: float
    d2: float
    d4: float


@dataclass
class SingularityEstimate:
    """Nearest-singularity estimate; the conjugate partner is implied."""

    re: float
    im: float
    level_pair: tuple[int, int]
    method: str

    def __post_init__(self):
        if not self.im > 0:
            raise ValueError(f"im must be positive (upper half-plane), got {self.im}")

    @property
    def radius(self) -> float:
        return float(np.hypot(self.re, self.im))


def energy_derivatives(blocks, level: int, sector: str, lambda0: float) -> DerivativeEstimate:
    """d1, d2, d4 of E_level(lam) at lambda0 within its parity sector, by sum over states.

    level is the global harmonic label; its position inside the sector is
    level // 2, and sector must be the one that holds it.  The derivatives
    are 1!, 2! and 4! times the Rayleigh-Schrodinger coefficients in the
    eigenbasis at lambda0.  Near-degeneracy (sector gap < 1e-8) triggers a
    warning, since the sum over states loses accuracy there.
    """
    held = "even" if level % 2 == 0 else "odd"
    if sector != held:
        raise ValueError(f"level {level} lies in the {held} sector, not {sector!r}")
    pos = level // 2
    h0s, vs = blocks(sector)
    w, u = np.linalg.eigh(h0s + lambda0 * vs)
    gaps = np.abs(np.delete(w - w[pos], pos))
    if gaps.size and gaps.min() < 1e-8:
        warnings.warn(
            f"level {level} nearly degenerate at lambda0={lambda0} (gap {gaps.min():.2e})",
            RuntimeWarning,
        )
    veig = u.T @ vs @ u
    c, _ = rayleigh_schrodinger(w.tolist(), veig.tolist(), pos, 4)
    return DerivativeEstimate(level, lambda0, c[1], 2.0 * c[2], 24.0 * c[4])


def _pair_d2(blocks, sector: str, pos: int, lam: float) -> float:
    level = 2 * pos + (0 if sector == "even" else 1)
    return energy_derivatives(blocks, level, sector, lam).d2


def _golden_max(f, a: float, b: float) -> float:
    """A maximum of f on [a, b] by golden-section search, to a bracket of 1e-12."""
    g = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > 1e-12:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def singularity_from_derivatives(
    blocks,
    level_pair: tuple[int, int],
    scan_range: tuple[float, float],
    member: str = "upper",
) -> tuple[SingularityEstimate, SingularityEstimate]:
    """Width-based and curvature-ratio estimates of the pair's singularity.

    Scans the sum-over-states |E''| of the chosen pair member (upper or
    lower level) at 101 points across scan_range, refines the interior
    extremum by golden section, then reads the imaginary part from the
    width at half maximum (W = HALF_WIDTH_FACTOR Im lam_s, exact for a
    two-level square-root gap) and from the curvature ratio
    Im lam_s = sqrt(-3 E''/E'''') at the peak.  Both estimates are
    returned so callers can cross-check them against each other.
    """
    lo, hi = scan_range
    if not lo < hi:
        raise ValueError(f"empty scan range {scan_range}")
    low, high = sorted(level_pair)
    if low % 2 != high % 2:
        raise ValueError(f"level pair {level_pair} spans parity sectors")
    sector = "even" if low % 2 == 0 else "odd"
    level = high if member == "upper" else low
    pos = level // 2

    def absd2(x: float) -> float:
        return abs(_pair_d2(blocks, sector, pos, x))

    grid = np.linspace(lo, hi, 101)
    vals = np.array([absd2(x) for x in grid])
    imax = int(np.argmax(vals))
    if imax in (0, grid.size - 1):
        raise ValueError(
            f"no interior |E''| extremum of pair {level_pair} in {scan_range}; "
            f"max sits at boundary lambda={grid[imax]:.6g}"
        )
    re = _golden_max(absd2, grid[imax - 1], grid[imax + 1])
    peak = absd2(re)
    half = peak / 2.0

    def cross(inner: float, outer: float) -> float:
        a, b = inner, outer  # absd2(a) > half >= absd2(b)
        for _ in range(80):
            m = 0.5 * (a + b)
            if absd2(m) > half:
                a = m
            else:
                b = m
        return 0.5 * (a + b)

    step = (hi - lo) / (grid.size - 1)
    left = re
    while absd2(left) > half:
        left -= step
        if left < lo - (hi - lo):
            raise ValueError(f"half-maximum width of pair {level_pair} spans the scan boundary")
    right = re
    while absd2(right) > half:
        right += step
        if right > hi + (hi - lo):
            raise ValueError(f"half-maximum width of pair {level_pair} spans the scan boundary")
    width = cross(re, right) - cross(re, left)
    im_width = width / HALF_WIDTH_FACTOR

    est = energy_derivatives(blocks, level, sector, re)
    ratio = -3.0 * est.d2 / est.d4
    if ratio <= 0:
        warnings.warn(
            f"curvature ratio not sign-definite at pair {level_pair} extremum; using |ratio|",
            RuntimeWarning,
        )
    im_ratio = float(np.sqrt(abs(ratio)))
    pair = (low, high)
    return (
        SingularityEstimate(re, im_width, pair, "derivative_width"),
        SingularityEstimate(re, im_ratio, pair, "derivative_ratio"),
    )


def mp_sector_gaps(h0s: np.ndarray, vs: np.ndarray, lams, dps: int = 30) -> np.ndarray:
    """min_{i != j} |z_i - z_j| of h0s + lam vs at each coupling, from dps-digit eigenvalues.

    The float entries and couplings are taken exactly; only the result is
    rounded to a double.
    """
    s = h0s.shape[0]
    out = []
    with mp.workdps(dps):
        for lam in np.ravel(lams):
            lam = mp.mpc(float(lam.real), float(lam.imag))
            block = mp.matrix([[mp.mpf(float(h0s[i, j])) + lam * mp.mpf(float(vs[i, j])) for j in range(s)]
                               for i in range(s)])
            z = mp.eig(block, left=False, right=False)
            out.append(float(min(abs(z[i] - z[j]) for i in range(s) for j in range(i))))
    return np.reshape(out, np.shape(lams))


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


def _walsh_hadamard(a: np.ndarray) -> np.ndarray:
    """Unnormalised transform of each row: out[r, z] = sum_i (-1)^popcount(i & z) a[r, i].

    Butterflies run from the most significant bit down, each level a new
    stacked array.
    """
    rows, dim = a.shape
    half = dim // 2
    while half:
        a = a.reshape(rows, -1, 2, half)
        a = np.stack((a[:, :, 0] + a[:, :, 1], a[:, :, 0] - a[:, :, 1]), axis=2)
        half //= 2
    return a.reshape(rows, dim)


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
        nonzero.setdefault(flip, set()).update(np.flatnonzero(_walsh_hadamard(vec[None])).tolist())
    nonzero[0].discard(0)  # the identity word is a global phase
    return sum(len(zs) for zs in nonzero.values())


def mp_x4(n: int) -> list[list]:
    """X^4 = (a + a^dag)^4 on n levels in the occupation basis, in mpmath floats at the working precision.

    X has sqrt(k) beside the diagonal; two banded products square it twice.
    """
    x = [[mp.mpf(0)] * n for _ in range(n)]
    for k in range(1, n):
        x[k - 1][k] = x[k][k - 1] = mp.sqrt(k)

    def banded_mul(a, b, band):
        out = [[mp.mpf(0)] * n for _ in range(n)]
        for i in range(n):
            for k in range(max(0, i - band), min(n, i + band + 1)):
                if a[i][k]:
                    for j in range(max(0, k - band), min(n, k + band + 1)):
                        out[i][j] += a[i][k] * b[k][j]
        return out

    x2 = banded_mul(x, x, 1)
    return banded_mul(x2, x2, 2)


def mp_pauli_words(n_q: int, lam: Fraction, dps: int = 40) -> set[str]:
    """Non-identity Pauli words of (n + 1/2) + lam phi^4 above 10^-(dps-10) at one coupling.

    The quadrant recursion runs in mpmath floats at dps digits: for each
    split of the matrix into qubit-0 blocks [[a, b], [c, d]] the words
    starting with I, X, Y, Z carry (a + d)/2, (b + c)/2, i(b - c)/2 and
    (a - d)/2; the unit factor i is left out, since only |coefficient| is
    tested.  The smallest genuine coefficients shrink fast with n_q
    (2.4e-7, 7.4e-9 and 2.3e-10 at n_q = 6, 7, 8 for lam = 1/3); at
    dps = 40 the threshold 1e-30 sits twenty orders below them.  Zeros
    that happen only at this lam are not filtered; take the union over two
    couplings for the structural set.
    """
    n = 2**n_q
    with mp.workdps(dps):
        x4 = mp_x4(n)
        coupling = mp.mpf(lam.numerator) / lam.denominator
        h = [[coupling * x4[i][j] / 4 for j in range(n)] for i in range(n)]
        for k in range(n):
            h[k][k] += k + mp.mpf(1) / 2

        def coeffs(mat, dim):
            if dim == 1:
                return {"": mat[0][0]}
            hd = dim // 2
            blocks = {
                "I": lambda i, j: (mat[i][j] + mat[i + hd][j + hd]) / 2,
                "X": lambda i, j: (mat[i][j + hd] + mat[i + hd][j]) / 2,
                "Y": lambda i, j: (mat[i][j + hd] - mat[i + hd][j]) / 2,
                "Z": lambda i, j: (mat[i][j] - mat[i + hd][j + hd]) / 2,
            }
            out = {}
            for letter, entry in blocks.items():
                sub = [[entry(i, j) for j in range(hd)] for i in range(hd)]
                for rest, val in coeffs(sub, hd).items():
                    out[letter + rest] = val
            return out

        tol = mp.mpf(10) ** (-(dps - 10))
        return {w for w, v in coeffs(h, n).items() if set(w) != {"I"} and abs(v) > tol}


_PAULI_LETTERS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_matrix(word: str) -> np.ndarray:
    """Dense tensor product of the word's single-qubit Pauli factors."""
    out = np.eye(1, dtype=complex)
    for ch in word:
        out = np.kron(out, _PAULI_LETTERS[ch])
    return out


def pauli_decompose_trace(m: np.ndarray, n_q: int) -> dict[str, float]:
    """Coefficient tr(P m) / 2^n_q of every one of the 4^n_q words, by explicit traces."""
    words = [""]
    for _ in range(n_q):
        words = [w + ch for w in words for ch in "IXYZ"]
    return {w: float(np.trace(pauli_matrix(w) @ m).real) / 2**n_q for w in words}


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


def _word_string(word: int, n_q: int) -> str:
    return "".join("IXYZ"[(word >> 2 * (n_q - 1 - q)) & 3] for q in range(n_q))


def pauli_decompose_full_gather(m: np.ndarray, n_q: int) -> tuple[list[tuple[str, float]], float, int]:
    """(terms, identity coefficient, dropped count) from every flip's diagonal and every word.

    The dense path that the package's pauli_decompose restricts to the flips of
    the nonzero entries: the dense Hermitian test, the gather and transform
    of all 2^n_q diagonals i -> m[i, i ^ f], the masks of all 4^n_q words,
    and the same per-flip cut n_q eps max_i |m[i, i ^ f]|.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape[0] != 2**n_q:
        raise ValueError(f"dimension {m.shape[0]} is not 2^{n_q}")
    if not np.allclose(m, m.conj().T, atol=1e-10):
        raise ValueError("Pauli decomposition requires a Hermitian matrix")
    dim = 2**n_q
    idx = np.arange(dim)
    diagonals = m[idx, idx ^ idx[:, None]]
    spectrum = _walsh_hadamard(diagonals)
    f, z, ys = _word_masks(n_q)
    vals = spectrum[f, z] * np.array([1, 1j, -1, -1j])[ys % 4] / dim
    bad = np.flatnonzero(np.abs(vals.imag) > 1e-9)
    if bad.size:
        word = _word_string(int(bad[0]), n_q)
        raise ValueError(f"non-real coefficient {vals[bad[0]]} on {word}; input not Hermitian")
    coeffs = vals.real
    cut = n_q * np.finfo(float).eps * np.abs(diagonals).max(axis=1)[f]
    size, cut = np.abs(coeffs[1:]), cut[1:]
    kept = np.flatnonzero(size > cut) + 1
    dropped = int(np.count_nonzero((size <= cut) & (size != 0.0)))
    return [(_word_string(int(w), n_q), float(coeffs[w])) for w in kept], float(coeffs[0]), dropped


def dense_trotter_step(terms: list[tuple[str, float]], dt: float) -> np.ndarray:
    """Product over the terms, in order, of cos(dt c) 1 - i sin(dt c) P as dense matrices."""
    dim = 2 ** len(terms[0][0])
    u = np.eye(dim, dtype=complex)
    for word, coeff in terms:
        theta = dt * coeff
        u = (np.cos(theta) * np.eye(dim) - 1j * np.sin(theta) * pauli_matrix(word)) @ u
    return u


def rotate_pauli(state: np.ndarray, word: str, theta: float) -> np.ndarray:
    """exp(-i theta P) |state> as one permutation and one phase array on the amplitudes.

    P |x> = i^#Y (-1)^popcount(x & z) |x ^ f> with f the X/Y and z the Z/Y
    mask, qubit 0 the most significant bit.
    """
    n_q = len(word)
    idx = np.arange(state.shape[0])
    flip = sum(1 << (n_q - 1 - q) for q, ch in enumerate(word) if ch in "XY")
    zmask = sum(1 << (n_q - 1 - q) for q, ch in enumerate(word) if ch in "ZY")
    parity = np.array([bin(int(i) & zmask).count("1") % 2 for i in idx])
    phase = (1j ** word.count("Y")) * np.where(parity, -1.0, 1.0)
    permuted = phase[idx ^ flip] * state[idx ^ flip]
    return np.cos(theta) * state - 1j * np.sin(theta) * permuted


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


def lambda_to_sphere(lam: complex) -> tuple[float, float]:
    """(longitude, latitude) of lam under inverse stereographic projection.

    lam = 0 maps to the south pole, infinity to the north pole, and the
    positive real axis to the zero meridian.
    """
    r2 = abs(lam) ** 2
    z = (r2 - 1.0) / (r2 + 1.0)
    lat = np.arcsin(z)
    lon = np.arctan2(lam.imag, lam.real)
    return float(lon), float(lat)


def mollweide_project(lon: float, lat: float, tol: float = 1e-10) -> tuple[float, float]:
    """Equal-area Mollweide coordinates from longitude/latitude (radians).

    Solves 2 theta + sin 2 theta = pi sin(lat) by Newton iteration to tol;
    raises if the iteration stalls (it converges in a handful of steps away
    from the poles, where the closed form takes over).
    """
    if abs(abs(lat) - np.pi / 2) < 1e-12:
        theta = np.sign(lat) * np.pi / 2
    else:
        theta = lat
        target = np.pi * np.sin(lat)
        for _ in range(100):
            f = 2 * theta + np.sin(2 * theta) - target
            df = 2 + 2 * np.cos(2 * theta)
            if abs(df) < 1e-14:
                theta = np.sign(lat) * np.pi / 2
                break
            step = f / df
            theta -= step
            if abs(step) < tol:
                break
        else:
            raise RuntimeError(f"Mollweide iteration failed at lon={lon}, lat={lat}")
    x = 2.0 * np.sqrt(2.0) / np.pi * lon * np.cos(theta)
    y = np.sqrt(2.0) * np.sin(theta)
    return float(x), float(y)


def _poly_trim(p: list) -> list:
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return p


def _poly_sub(p: list, q: list) -> list:
    n = max(len(p), len(q))
    return _poly_trim([(p[i] if i < len(p) else 0) - (q[i] if i < len(q) else 0) for i in range(n)])


def _poly_mul(p: list, q: list) -> list:
    if _poly_trim(p) == [0] or _poly_trim(q) == [0]:
        return [0]
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _poly_trim(out)


def _poly_divexact(p: list, q: list) -> list:
    """Exact polynomial division (over int or Fraction); raises if not exact."""
    p, q = _poly_trim(list(p)), _poly_trim(list(q))
    if q == [0]:
        raise ZeroDivisionError("polynomial division by zero")
    if p == [0]:
        return [0]
    if len(p) < len(q):
        raise ArithmeticError("non-exact polynomial division (degree too low)")
    rem = list(p)
    out = [0] * (len(p) - len(q) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = rem[k + len(q) - 1]
        if isinstance(c, int) and isinstance(q[-1], int):
            coef, r = divmod(c, q[-1])
            if r:
                raise ArithmeticError("non-exact polynomial division (leading coefficient)")
        else:
            coef = c / q[-1]
        out[k] = coef
        for j, b in enumerate(q):
            rem[k + j] -= coef * b
    if any(rem):
        raise ArithmeticError("non-exact polynomial division (nonzero remainder)")
    return _poly_trim(out)


def bareiss_det_poly(matrix: list[list[list]]) -> list:
    """Determinant of a matrix of polynomials (ascending coefficient lists), exact.

    Bareiss elimination on the polynomial entries: every intermediate entry
    is the exact quotient of a 2x2 minor by the previous pivot, so integer
    entries stay integer polynomials.  Row swaps on zero pivots flip the sign.
    """
    n = len(matrix)
    m = [[_poly_trim(list(e)) for e in row] for row in matrix]
    sign, prev = 1, [1]
    for k in range(n - 1):
        if m[k][k] == [0]:
            pivot_row = next((r for r in range(k + 1, n) if m[r][k] != [0]), None)
            if pivot_row is None:
                return [0]
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = _poly_sub(_poly_mul(m[k][k], m[i][j]), _poly_mul(m[i][k], m[k][j]))
                m[i][j] = _poly_divexact(num, prev)
            m[i][k] = [0]
        prev = m[k][k]
    return [sign * c for c in m[n - 1][n - 1]]


def sylvester_rows(zc: list[list]) -> list[list[list]]:
    """Sylvester matrix of f = sum_j zc[j] z^j and df/dz, with polynomial entries.

    Rows f, z f, ..., z^(s-2) f, then f', z f', ..., z^(s-1) f', on the
    monomial basis 1, z, ..., z^(2s-2); its determinant is the resultant.
    """
    s = len(zc) - 1
    fprime = [[c * k for c in zc[k]] for k in range(1, s + 1)]
    rows = []
    for poly, shifts in ((zc, s - 1), (fprime, s)):
        for shift in range(shifts):
            row = [[0] for _ in range(2 * s - 1)]
            for j, c in enumerate(poly):
                row[j + shift] = list(c)
            rows.append(row)
    return rows


def _gauss_mul(a: tuple, b: tuple) -> tuple:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gauss_div(a: tuple, b: tuple) -> tuple:
    d = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d)


def _phase_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for key, c in q.items():
        old = out.get(key, (Fraction(0), Fraction(0)))
        out[key] = (old[0] + c[0], old[1] + c[1])
    return {key: c for key, c in out.items() if any(c)}


def _phase_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for (k1, w1), c1 in p.items():
        for (k2, w2), c2 in q.items():
            key = (k1 + k2, w1 + w2)
            old, prod = out.get(key, (Fraction(0), Fraction(0))), _gauss_mul(c1, c2)
            out[key] = (old[0] + prod[0], old[1] + prod[1])
    return {key: c for key, c in out.items() if any(c)}


def _phase_integrate(p: dict) -> dict:
    """int_0^t of sum c t^k e^(i w t), by parts on Gaussian rationals."""
    zero = (Fraction(0), Fraction(0))
    out: dict = {}

    def add(key, c):
        if any(c):
            old = out.get(key, zero)
            out[key] = (old[0] + c[0], old[1] + c[1])

    for (k, w), c in p.items():
        if w == 0:
            add((k + 1, w), _gauss_div(c, (Fraction(k + 1), Fraction(0))))
            continue
        iw = (Fraction(0), w)
        coef = c
        for j in range(k, -1, -1):
            add((j, w), _gauss_div(coef, iw))
            if j > 0:
                step = _gauss_div(_gauss_mul(coef, (Fraction(j), Fraction(0))), iw)
                coef = (-step[0], -step[1])
            else:
                last = _gauss_div(coef, iw)
                add((0, Fraction(0)), (-last[0], -last[1]))
    return {key: c for key, c in out.items() if any(c)}


def dyson_terms(n_max: int, omega: Fraction, order: int, lam: Fraction,
                state_in: int) -> dict[int, dict]:
    """Dyson amplitudes <out|U(t)|in> for every out, as {(k, Omega): (re, im)}.

    The nested integrals of V_I(t) = e^(i H0 t) V e^(-i H0 t) in the
    sqrt(n!)-weighted basis, each a sum of c t^k e^(i Omega t) with c a
    Gaussian rational (re, im) and Omega a Fraction, times (-i lam)^p at
    order p, then the global phase e^(-i E_out t).  Terms are kept in the
    order of first insertion and zero sums are dropped after every sum.
    """
    energies, v = weighted_quartic(n_max, omega)
    one = (Fraction(1), Fraction(0))
    current = {state_in: {(0, Fraction(0)): one}}
    totals = {out: ({(0, Fraction(0)): one} if out == state_in else {}) for out in range(n_max)}
    factor = one
    for _ in range(order):
        nxt: dict[int, dict] = {}
        for k_state, poly in current.items():
            for j in range(n_max):
                if not v[j][k_state]:
                    continue
                phase = {(0, energies[j] - energies[k_state]): (v[j][k_state], Fraction(0))}
                nxt[j] = _phase_add(nxt.get(j, {}), _phase_integrate(_phase_mul(phase, poly)))
        current = nxt
        factor = _gauss_mul(_gauss_mul(factor, (Fraction(0), Fraction(-1))), (Fraction(lam), Fraction(0)))
        for out, poly in current.items():
            scaled = {key: _gauss_mul(c, factor) for key, c in poly.items()}
            totals[out] = _phase_add(totals[out], {key: c for key, c in scaled.items() if any(c)})
    return {out: _phase_mul(total, {(0, -energies[out]): one}) for out, total in totals.items()}


@dataclass
class FieldEigenpair:
    """One field eigenvalue phi_j with its amplitudes <n|phi_j>."""

    phi: float
    vector: np.ndarray = field(repr=False)


def _hermite_normalized(n_top: int, x: float) -> list[float]:
    """Values h_n(x) = H_n(x)/sqrt(2^n n!) for n = 0..n_top.

    The rescaling keeps the recurrence bounded by ~exp(x^2/2), so the
    ratio formula of field_eigenbasis stays inside double range for
    n_max <= 128.
    """
    h = [1.0, x * math.sqrt(2)][: n_top + 1]
    for n in range(1, n_top):
        h.append(x * math.sqrt(2 / (n + 1)) * h[n] - math.sqrt(n / (n + 1)) * h[n - 1])
    return h


def field_eigenbasis(spec) -> list[FieldEigenpair]:
    """All n_max field eigenpairs of a TruncationSpec, sorted by ascending eigenvalue.

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


def rayleigh_schrodinger(h0: list, v: list[list], pos: int, max_order: int) -> tuple[list, list]:
    """Nondegenerate Rayleigh-Schrodinger series over any scalar field.

    h0 is the diagonal unperturbed block and v the perturbation, both in
    one field: float for the sum-over-states derivatives, Fraction as the
    oracle of the package's integer loop (algebra._rs_scaled_integer) and of
    the weak series on residues (algebra.rs_rational_series), and mpmath
    mpf as the oracle of the strong series' fixed-point loop
    (series._rs_fixed).  Returns (energies, states): energies
    [E_0, ..., E_max_order] of the level at diagonal position pos, and the
    state corrections psi_k, normalised so that <pos|psi_k> is 1 for k = 0
    and 0 above, which solve h0 psi_k + v psi_{k-1} = sum_j E_j psi_{k-j}.
    Products with an exact zero are skipped.  Raises ValueError when
    h0[pos] is degenerate.
    """
    s = len(h0)
    for m, e in enumerate(h0):
        if m != pos and e == h0[pos]:
            raise ValueError(f"unperturbed level at position {pos} is degenerate with {m}")
    e0 = h0[pos]
    zero = e0 - e0
    one = zero + 1
    resolvent = [zero if m == pos else 1 / (e0 - e) for m, e in enumerate(h0)]
    rows = [[(j, x) for j, x in enumerate(row) if x] for row in v]
    energies = [e0]
    states = [[one if i == pos else zero for i in range(s)]]
    for k in range(1, max_order + 1):
        prev = states[k - 1]
        rhs = [sum((x * prev[j] for j, x in row if prev[j]), zero) for row in rows]
        energies.append(rhs[pos])
        for j in range(1, k):
            ej = energies[j]
            if ej:
                pk = states[k - j]
                for i in range(s):
                    rhs[i] -= ej * pk[i]
        states.append([resolvent[i] * rhs[i] for i in range(s)])
    return energies, states


def _hermite_mp(n_top: int, x) -> list:
    """h_n(x) = H_n(x)/sqrt(2^n n!) for n = 0..n_top on mpf values, by the normalized three-term recurrence."""
    h = [mp.mpf(1), x * mp.sqrt(2)][: n_top + 1]
    for n in range(1, n_top):
        h.append(x * mp.sqrt(mp.mpf(2) / (n + 1)) * h[n] - mp.sqrt(mp.mpf(n) / (n + 1)) * h[n - 1])
    return h


def _hermite_zeros_mp(degree: int) -> list:
    """Positive zeros of H_degree at working precision, by Newton refinement."""
    seeds = [x for x in hermite_zeros(degree) if x > 0]
    out = []
    for seed in seeds:
        x = mp.mpf(seed)
        for _ in range(60):
            h = _hermite_mp(degree, x)
            dh = mp.sqrt(2 * mp.mpf(degree)) * h[-2]  # h'_n = sqrt(2n) h_{n-1}
            step = h[-1] / dh
            x -= step
            if abs(step) < mp.mpf(10) ** (-mp.mp.dps + 2):
                break
        out.append(x)
    return out


def strong_coefficients_mp(n_max: int, omega: float, pos: int, sector: str, max_order: int) -> list:
    """One strong-coupling recursion pass at the current mpmath precision."""
    n = n_max
    omega = mp.mpf(omega)
    xs = _hermite_zeros_mp(n)  # positive zeros, ascending
    s = n // 2
    rem = 0 if sector == "even" else 1
    levels = [2 * k + rem for k in range(s)]

    # parity-projected field eigenvectors: u_j[m] = sqrt(2) <levels[m] | phi_j>
    basis = []
    for x in xs:
        hvals = _hermite_mp(n - 1, x)
        top = hvals[n - 1]
        basis.append([mp.sqrt(mp.mpf(2)) * hvals[m] / (mp.sqrt(mp.mpf(n)) * top) for m in levels])

    # unperturbed energies x_j^4/omega^2 ascending; perturbation = harmonic term
    h0 = [x**4 / omega**2 for x in xs]
    w = [[sum(basis[j][m] * omega * (levels[m] + mp.mpf(1) / 2) * basis[k][m] for m in range(s))
          for k in range(s)] for j in range(s)]
    return rayleigh_schrodinger(h0, w, pos, max_order)[0]


def strong_series_mp(n_max: int, omega: float, level: int, sector: str, max_order: int,
                     digits: int) -> tuple[list, int]:
    """(coefficients at digits + 10 dps, certified digits against a rerun at 2 digits + 10 dps).

    As in series.strong_series, a coefficient that the rerun shrinks by half
    the bits it adds, or more, is the rounding residue of an exact zero and
    reads 0, and a zero in either pass is compared with 10^-digits.
    """
    with mp.workdps(digits + 10):
        coeffs = strong_coefficients_mp(n_max, omega, level, sector, max_order)
    with mp.workdps(2 * digits + 10):
        ref = strong_coefficients_mp(n_max, omega, level, sector, max_order)
    dps_to_prec = mp.libmp.dps_to_prec
    shrink = mp.mpf(2) ** ((dps_to_prec(2 * digits + 10) - dps_to_prec(digits + 10)) // 2)
    certified = digits
    for k, (a, b) in enumerate(zip(coeffs, ref)):
        if a and abs(b) * shrink <= abs(a):
            coeffs[k] = a = mp.mpf(0)
        if a == b:
            continue
        denom = abs(b) if a and b else mp.mpf(10) ** (-digits)
        err = abs(a - b) / denom
        agree = digits if err == 0 else min(digits, int(-mp.log10(err)))
        certified = min(certified, max(agree, 0))
    return coeffs, certified
