"""Exact rational sector blocks and polynomial algebra.

The diagonal similarity d_n = sqrt(n!) turns X = a + a^dag into the integer
matrix with superdiagonal (1, 2, ..., n_max-1) and subdiagonal ones, leaving
the spectrum untouched.  In that weighted basis the quartic perturbation
X^4/(4 omega^2) is a matrix of exact rationals, so perturbative recursions
and characteristic polynomials can be carried out over Q with no rounding.
An occupation-basis double is derived from those exact numbers in one
place, _nearest_sqrt: the double nearest sqrt(num/den) of two integers.
It gives phi^4 (hamiltonian._phi4, from the entries of _x4_lower), the
weights sqrt(k!) of the projector and the Dyson prefactor sqrt(out!/in!).
The exact Rayleigh-Schrodinger recursion of the package lives here.
_rs_scaled_integer runs it on exact rational blocks as integers at the
scale Q^k, Q the lcm of the one-step denominators, with no division; the
projectors read its states.  The weak series (rs_rational_series) runs
the same recursion modulo word-size primes and takes each numerator
Q^k E_k back by Chinese remaindering.  The prime count is proven by a
float run of the recursion on absolute values that bounds the numerators,
and every int64 sum is kept under 2^63 by the primes' width.

Polynomials in the coupling are plain coefficient lists (index = power),
over Fraction or int.  Two integer kernels carry the exact polynomial work:
a scalar Bareiss determinant and a Newton interpolator.  The bivariate
characteristic polynomial f(z, lam) of a parity-sector block comes from
Bareiss determinants of the integer matrices w I - d H(t) at integer nodes
w and t, interpolated first in w, then in lam (_pencil_char_poly), and is
cleared to integers by the 4^s omega^(2s) denominator of the block
entries.  The same core gives the exact characteristic polynomial of a
float block, whose entries are dyadic (singularities.grid_gaps).  The resultant of
f and its z-derivative takes the same two kernels at integer couplings
(singularities.sylvester_discriminant).
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction

import numpy as np

from .oscillator import TruncationSpec

__all__ = [
    "weighted_hamiltonian",
    "weighted_sector_blocks",
    "sector_indices",
    "level_sector",
    "rs_rational_series",
    "sector_char_poly",
    "poly_trim",
]

Poly = list  # coefficient list, index = power


def _as_fraction(x, what: str) -> Fraction:
    try:
        return Fraction(x)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} must be exactly representable as a rational, got {x!r}") from exc


def _x4_band(n: int) -> list[dict]:
    """X_w^4 on n levels as rows {column: entry}: the 9 integer bands of the weighted quartic.

    X_w is integer tridiagonal, X_w[m][m+1] = m + 1 and X_w[m+1][m] = 1, so
    squaring its band twice gives X_w^2 and X_w^4 with no dense product.
    """
    x = [{k: (m + 1 if k > m else 1) for k in (m - 1, m + 1) if 0 <= k < n} for m in range(n)]
    for _ in range(2):
        square = []
        for row in x:
            acc: dict[int, int] = {}
            for k, xik in row.items():
                for j, xkj in x[k].items():
                    acc[j] = acc.get(j, 0) + xik * xkj
            square.append(acc)
        x = square
    return x


def _x4_lower(n: int) -> list[tuple[int, int, int, int]]:
    """(hi, lo, N, P) for every nonzero X_w^4[hi][lo] = N with lo <= hi, and P = (lo+1)...hi.

    The occupation-basis quartic is symmetric, with X^4[lo, hi] =
    X^4[hi, lo] = N sqrt(P): the weight sqrt(hi!/lo!) of the similarity.
    """
    return [(hi, lo, big_n, math.prod(range(lo + 1, hi + 1)))
            for hi, row in enumerate(_x4_band(n)) for lo, big_n in row.items() if lo <= hi]


def _nearest_sqrt(num: int, den: int) -> float:
    """The double nearest sqrt(num / den) for positive integers num and den, ties to even.

    math.isqrt gives q = floor(sqrt(num / den) 2^s) with at least 56 bits.
    Setting its last bit when the root is inexact rounds it to odd, which
    keeps the rounding of q to a double, done once by float(), correct.
    """
    s = 56 - (num.bit_length() - den.bit_length()) // 2
    top, bottom = (num << 2 * s, den) if s >= 0 else (num, den << -2 * s)
    q = math.isqrt(top // bottom)
    return math.ldexp(float(q | (q * q * bottom != top)), -s)


def sector_indices(n_max: int, sector: str) -> list[int]:
    if sector not in ("even", "odd"):
        raise ValueError(f"sector must be 'even' or 'odd', got {sector!r}")
    rem = 0 if sector == "even" else 1
    return [n for n in range(n_max) if n % 2 == rem]


def level_sector(level: int) -> str:
    """Parity sector of a global harmonic level."""
    return "even" if level % 2 == 0 else "odd"


def weighted_hamiltonian(trunc: TruncationSpec) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Diagonal of H_har and the full phi^4 matrix X^4 / (4 omega^2), exact.

    Requires omega to be rational.  Both live in the sqrt(n!)-weighted
    basis, where H_har stays diagonal and the quartic term is rational.
    """
    omega = _as_fraction(trunc.omega, "omega")
    n_max = trunc.n_max
    scale, zero = 4 * omega**2, Fraction(0)
    v = [[Fraction(row[j]) / scale if j in row else zero for j in range(n_max)]
         for row in _x4_band(n_max)]
    h0 = [omega * (Fraction(n) + Fraction(1, 2)) for n in range(n_max)]
    return h0, v


def weighted_sector_blocks(
    trunc: TruncationSpec, sector: str
) -> tuple[list[Fraction], list[list[Fraction]]]:
    """weighted_hamiltonian restricted to one parity sector: (h0_diagonal, v_block)."""
    h0, v = weighted_hamiltonian(trunc)
    idx = sector_indices(trunc.n_max, sector)
    return [h0[i] for i in idx], [[v[i][j] for j in idx] for i in idx]


def _resolvent(h0: list, pos: int) -> list:
    """R_m = 1/(h0[pos] - h0[m]), zero at pos; ValueError when h0[pos] is degenerate."""
    for m, e in enumerate(h0):
        if m != pos and e == h0[pos]:
            raise ValueError(f"unperturbed level at position {pos} is degenerate with {m}")
    return [h0[pos] - e if m == pos else 1 / (h0[pos] - e) for m, e in enumerate(h0)]


def _rs_rows(h0: list[Fraction], v: list[list[Fraction]], pos: int) -> tuple[int, list, list, list]:
    """Q and the integer rows [Q V[pos]], Q R_m V[m] and Q R_m V[pos] of the recursion, R_m = 1/(h0[pos] - h0[m]).

    Q is the lcm of the rows' denominators; a degenerate h0[pos] raises ValueError (_resolvent).
    """
    res = _resolvent([Fraction(x) for x in h0], pos)
    rows = [[Fraction(x) if x else 0 for x in row] for row in v]
    state_rows = [[r * x if r and x else 0 for x in row] for r, row in zip(res, rows)]
    shift_rows = [[r * x if r and x else 0 for x in rows[pos]] for r in res]
    q = math.lcm(*(x.denominator for row in (rows[pos], *state_rows, *shift_rows) for x in row if x))
    return q, *([[x.numerator * (q // x.denominator) if x else 0 for x in row] for row in block]
                for block in ([rows[pos]], state_rows, shift_rows))


def _rs_scaled_integer(
    h0: list[Fraction], v: list[list[Fraction]], pos: int, max_order: int
) -> tuple[list[Fraction], list[list[int]], int]:
    """The nondegenerate Rayleigh-Schrodinger recursion on exact blocks, in integers at the scale Q^k.

    h0 is the diagonal unperturbed block and v the perturbation.  The state
    corrections psi_k of the level at diagonal position pos solve
    h0 psi_k + v psi_(k-1) = sum_j E_j psi_(k-j), with <pos|psi_k> 1 at
    k = 0 and 0 above.  With the integer rows of _rs_rows, the states
    psi~_k = Q^k psi_k are integers, and no step divides:

        shift_j   = sum_i (Q R_m V[pos, i]) psi~_(j-1)[i]            (= Q^j R_m E_j)
        psi~_k[m] = sum_i (Q R_m V[m, i]) psi~_(k-1)[i] - sum_(j<k) shift_j psi~_(k-j)[m]
        N_k       = sum_i (Q V[pos, i]) psi~_(k-1)[i],    E_k = N_k / Q^k

    Q is the lcm of the rows' denominators.  Returns (energies, scaled
    states psi~_k, Q).
    """
    q, top, lifted, shift_rows = ([[(j, x) for j, x in enumerate(row) if x] for row in rows] if i else rows
                                  for i, rows in enumerate(_rs_rows(h0, v, pos)))
    cols = [[int(m == pos)] for m in range(len(h0))]  # cols[m][k] = psi~_k[m]
    shifts: list[list[int]] = [[] for _ in cols]  # shifts[m][j - 1] = shift_j
    energies = [Fraction(h0[pos])]
    for k in range(1, max_order + 1):
        prev = [col[-1] for col in cols]
        energies.append(Fraction(sum(x * prev[j] for j, x in top[0]), q**k))
        for row, shift_row, shift, col in zip(lifted, shift_rows, shifts, cols):
            col.append(sum(x * prev[j] for j, x in row) - sum(map(operator.mul, shift, reversed(col))))
            shift.append(sum(x * prev[j] for j, x in shift_row))
    return energies, [list(psi) for psi in zip(*cols)], q


# every prime lies above 2^16, so a 16-bit limb is a residue of each
LIMB_BITS = 16
_PRIMES: dict[int, list[int]] = {}  # per width, the primes below 2^width sieved so far, descending


def _prime_width(terms: int) -> int:
    """The widest w with terms (2^w - 1)^2 < 2^63: a sum of terms products of residues below 2^w fits int64."""
    return (math.isqrt(((1 << 63) - 1) // terms) + 1).bit_length() - 1


def _primes_below(width: int, count: int) -> list[int]:
    """The count largest primes below 2^width, descending, above 2^16; sieved on first use, 2^12 integers at a time."""
    found = _PRIMES.get(width, [])
    top = found[-1] if found else 1 << width
    while len(found) < count:
        lo = max(top - (1 << 12), 1 << LIMB_BITS)
        if lo >= top:
            raise ValueError(f"the residue recursion needs {count} primes between 2^16 and 2^{width}, not {len(found)}")
        small = np.ones(math.isqrt(top) + 1, bool)
        small[:2] = False
        for i in range(2, math.isqrt(len(small) - 1) + 1):
            if small[i]:
                small[i * i :: i] = False
        small = np.flatnonzero(small)
        first = (-lo) % small
        hits = (top - lo - first + small - 1) // small
        steps = np.arange(hits.sum()) - np.repeat(np.cumsum(hits) - hits, hits)
        composite = np.zeros(top - lo, bool)
        composite[np.repeat(first, hits) + steps * np.repeat(small, hits)] = True
        found = found + (lo + np.flatnonzero(~composite))[::-1].tolist()  # a new list: a cached one never changes
        top = lo
    _PRIMES[width] = found
    return found[:count]


def _rs_bound_bits(rows: list[list[int]], pos: int, max_order: int) -> int:
    """B with |N_k| < 2^B for k = 1 .. K = max_order: _rs_scaled_integer's recursion on absolute values, in floats.

    rows are the integer rows [Q V[pos]; Q R_m V[m]; Q R_m V[pos]].  They
    enter as floats at or above their absolute values over 2^e, e their
    largest bit length, each nonzero one at 2^-62 or more; each state at a
    power of two of its own, its largest entry in [1/2, 1) and every nonzero
    one raised to 2^-62 or more; each shift at its state's power.  So
    nothing overflows and no product underflows.  A term passes at most
    K + s + 5 roundings of relative 2^-53, all on nonnegative values, so
    rows and weights scaled by 1 + (K + s + 8) 2^-50 keep every sum an upper
    bound; weights below 2^-800 are raised to it, which only raises them.
    """
    s, e0 = len(rows[0]), max(x.bit_length() for row in rows for x in row)
    margin, cut = 1 + (max_order + s + 8) * 2.0**-50, max(e0 - 62, 0)
    a = np.ldexp([[float((abs(x) >> cut) + 1) if x else 0.0 for x in row] for row in rows], cut - e0) * margin
    beta, ex = np.zeros((max_order + 1, s)), np.zeros(max_order + 1, np.int64)  # psi~_k <= beta[k] 2^ex[k]
    sig = np.zeros((max_order, s))  # shift_(j+1) <= sig[j] 2^(e0 + ex[j])
    beta[0, pos], bits = 1.0, 0
    for k in range(1, max_order + 1):
        out, e = a @ beta[k - 1], int(ex[k - 1])
        bits = max(bits, math.frexp(out[0])[1] + e0 + e if out[0] else 0)
        sig[k - 1] = out[s + 1 :]
        exps = ex[: k - 1] + ex[k - 1 : 0 : -1]  # of the convolution's terms, less e0
        high = int(np.max(exps, initial=e))
        b = np.ldexp(out[1 : s + 1], max(e - high, -800)) + np.einsum(
            "j,jm,jm->m", np.ldexp(margin, np.maximum(exps - high, -800)), sig[: k - 1], beta[k - 1 : 0 : -1])
        x = math.frexp(b.max())[1]
        beta[k], ex[k] = np.ldexp(b, -x), e0 + high + x
        np.maximum(beta[k], 2.0**-62, out=beta[k], where=beta[k] > 0)
    return bits


def _crt(residues: np.ndarray, primes: list[int]) -> list[int]:
    """The integers N with |N| < M/2, M the primes' product, from their residues, one row each.

    N = sum_i c_i M/p_i mod M, c_i = r_i (M/p_i)^-1 mod p_i: one int64 matmul
    of the c against the 16-bit limbs of the M/p_i, whose limb sums are read
    as four runs of 64-bit words at bit offsets 0, 16, 32 and 48, with no carries.
    """
    m = math.prod(primes)
    cofactors = [m // p for p in primes]
    c = residues * np.array([pow(x, -1, p) for x, p in zip(cofactors, primes)], np.int64) % np.array(primes)
    n = -(-m.bit_length() // (4 * LIMB_BITS)) * 4
    limbs = np.frombuffer(b"".join(x.to_bytes(2 * n, "little") for x in cofactors), "<u2").reshape(-1, n)
    words = (c @ limbs.astype(np.int64)).reshape(len(c), n // 4, 4).transpose(0, 2, 1).astype("<i8")
    out = (sum(int.from_bytes(run.tobytes(), "little") << LIMB_BITS * i for i, run in enumerate(row)) % m
           for row in words)
    return [x - m if 2 * x > m else x for x in out]


def rs_rational_series(
    h0: list[Fraction], v: list[list[Fraction]], pos: int, max_order: int, record: dict | None = None
) -> list[Fraction]:
    """Nondegenerate Rayleigh-Schrodinger energy coefficients, exact, from the recursion on residues.

    h0 is the diagonal unperturbed block (all entries distinct), v the
    perturbation; returns [E_0, ..., E_max_order] of the level at diagonal
    position pos.  _rs_scaled_integer's recursion runs modulo P primes at
    once, on int64 arrays (rows x states x primes): an order is one einsum
    for N_k, the states' matrix part and shift_k, and one for the
    convolution.  N_k = Q^k E_k comes back by Chinese remaindering (_crt).

    The prime count is proven: _rs_bound_bits gives |N_k| < 2^B, and the
    primes' product M reaches 2^(B+1), so N_k is the one integer with its
    residues and |N_k| < M/2.  So is the int64 headroom: each sum adds at
    most `terms` products of two residues below 2^w (s in a row, k - 1 in
    the convolution, P in the CRT matmul, one per limb of the largest row
    entry), and w is the widest with terms (2^w - 1)^2 < 2^63
    (_prime_width).  A given record dict receives q, P and B.
    """
    q, *blocks = _rs_rows(h0, v, pos)
    rows = [row for block in blocks for row in block]
    s, flat, energies = len(rows[0]), [x for row in rows for x in row], [Fraction(h0[pos])]
    bits = _rs_bound_bits(rows, pos, max_order) if max_order else 0
    n = -(-max(1, *(abs(x).bit_length() for x in flat)) // LIMB_BITS)
    terms, count = max(s, max_order - 1, n), 0
    # P can set the width only on short series of large entries; each prime adds under w bits to M
    while max_order and (short := bits + 2 - math.prod(
            primes := _primes_below(width := _prime_width(max(terms, count)), count)).bit_length()) > 0:
        count += -(-short // width)
    if record is not None:
        record.update(q=q, primes=count, bound_bits=bits)
    if not max_order:
        return energies
    p, powers = np.array(primes, np.int64), np.ones((n, count), np.int64)  # 2^(16 t) mod p
    for t in range(1, n):
        powers[t] = (powers[t - 1] << LIMB_BITS) % p
    limbs = np.frombuffer(b"".join(abs(x).to_bytes(2 * n, "little") for x in flat), "<u2").reshape(-1, n)
    mats = (np.where(np.array([x < 0 for x in flat])[:, None], -1, 1) * (limbs.astype(np.int64) @ powers) % p
            ).reshape(2 * s + 1, s, count)
    states, shifts = np.zeros((max_order + 1, s, count), np.int64), np.zeros((max_order, s, count), np.int64)
    states[0, pos] = 1
    numerators = np.empty((max_order, count), np.int64)
    for k in range(1, max_order + 1):
        out = np.einsum("rip,ip->rp", mats, states[k - 1])
        numerators[k - 1], shifts[k - 1] = out[0], out[s + 1 :] % p
        states[k] = (out[1 : s + 1] - np.einsum("jmp,jmp->mp", shifts[: k - 1], states[k - 1 : 0 : -1])) % p
    return energies + [Fraction(num, q**k) for k, num in enumerate(_crt(numerators % p, primes), 1)]


# ---------------------------------------------------------------------------
# exact polynomial helpers (coefficient lists over Fraction or int)

def poly_trim(p: Poly) -> Poly:
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return p


def _newton_interpolate(nodes: list[int], values: list[int]) -> Poly:
    """Ascending integer coefficients of the polynomial of degree < len(nodes) through the points, exact.

    Newton divided differences over the distinct integer nodes, then the
    nested form expanded from the top.  The values divide as integers,
    which is exact whenever the interpolant has integer coefficients, and
    raise ArithmeticError when it has not.
    """
    c = list(values)
    n = len(c)
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            num, den = c[i] - c[i - 1], nodes[i] - nodes[i - k]
            q, r = divmod(num, den)
            if r:
                raise ArithmeticError(f"divided difference {num}/{den} of integer values is not integral")
            c[i] = q
    out = [c[-1]]
    for i in range(n - 2, -1, -1):  # out <- out * (lam - nodes[i]) + c[i]
        x = nodes[i]
        out = [c[i] - x * out[0]] + [out[j - 1] - x * out[j] for j in range(1, len(out))] + [out[-1]]
    return poly_trim(out)


def _bareiss_det(matrix: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free Bareiss elimination.

    Every intermediate entry is the exact integer quotient of the previous
    pivot; a zero pivot is swapped for a nonzero one below it, flipping the
    sign.
    """
    m = [list(row) for row in matrix]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot, row_k = m[k][k], m[k]
        for i in range(k + 1, n):
            row_i = m[i]
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - lead * row_k[j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1]


# ---------------------------------------------------------------------------
# exact characteristic polynomials

def _pencil_char_poly(a: list[list[int]], b: list[list[int]]) -> list[Poly]:
    """Integer coefficients of det(w I - a - t b) for square integer matrices a and b.

    Returns the w-coefficients (ascending), each an integer polynomial in t
    (ascending).  The w^j coefficient has t-degree at most s - j, so the
    Bareiss determinants at the integer nodes w, t = 0..s determine it:
    they are interpolated exactly, first in w at each t, then in t.
    """
    s = len(a)
    nodes = list(range(s + 1))
    per_node = []
    for t in nodes:
        dets = [_bareiss_det([[(w if i == j else 0) - x - t * y for j, (x, y) in enumerate(zip(row_a, row_b))]
                              for i, (row_a, row_b) in enumerate(zip(a, b))]) for w in nodes]
        per_node.append(_newton_interpolate(nodes, dets))  # monic, degree s
    return [_newton_interpolate(nodes, [row[j] for row in per_node]) for j in range(s + 1)]


def sector_char_poly(trunc: TruncationSpec, sector: str) -> list[list[int]]:
    """Integer-cleared bivariate characteristic polynomial of a sector block.

    Returns f(z, lam) = c det(z I - H_sector(lam)) as a list of
    z-coefficients (ascending), each an integer polynomial in lam
    (ascending).  With d the lcm of the block's denominators,
    _pencil_char_poly gives det(w I - d H(t)), whose w^j coefficient times
    d^(j-s) is the z^j coefficient of det(z I - H(t)).  c is 4^s omega^(2s),
    the entrywise denominator of the weighted block at integer omega, times
    the smallest integer that clears what a fractional omega leaves (h0 =
    omega (n + 1/2) has denominator 4 at omega = 1/2).
    """
    h0, v = weighted_sector_blocks(trunc, sector)
    s = len(h0)
    omega = _as_fraction(trunc.omega, "omega")
    d = math.lcm(*(x.denominator for x in h0), *(x.denominator for row in v for x in row))
    dh0 = [[int(d * x) if i == j else 0 for j in range(s)] for i, x in enumerate(h0)]
    dv = [[int(d * x) for x in row] for row in v]
    polys = [[Fraction(c, d ** (s - j)) for c in poly] for j, poly in enumerate(_pencil_char_poly(dh0, dv))]
    clear = (4 * omega**2) ** s
    clear *= math.lcm(*((c * clear).denominator for poly in polys for c in poly))
    return [poly_trim([int(c * clear) for c in poly]) for poly in polys]
