"""Exact rational sector blocks and polynomial algebra.

The diagonal similarity d_n = sqrt(n!) turns X = a + a^dag into the integer
matrix with superdiagonal (1, 2, ..., n_max-1) and subdiagonal ones, leaving
the spectrum untouched.  In that weighted basis the quartic perturbation
X^4/(4 omega^2) is a matrix of exact rationals, so perturbative recursions
and characteristic polynomials can be carried out over Q with no rounding.
The exact Rayleigh-Schrodinger recursion of the package lives here:
_rs_scaled_integer runs it on exact rational blocks as integers at a scale
A B^k, with one reduction per coefficient.  The projectors keep B = Q, the
lcm of the one-step denominators, and A = 1.  The weak series reads a
tighter B dividing Q and a small offset A off its first orders, and the
loop widens that scale in place at any order whose exact division leaves a
remainder.

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

# orders of the exact weak series run at Q^k before its scale is tightened
PROBE_ORDERS = 16


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


def _prime_exponents(n: int) -> dict[int, int]:
    """{p: e} for the primes p below 1024 that divide n, by trial division.

    The rest of n is left out: an omega read from a float puts primes of
    up to 16 digits into a block denominator, which trial division would
    take minutes to find.
    """
    out = {}
    for p in range(2, 1024):
        if n == 1:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    return out


def _valuation(n: int, p: int) -> int:
    """Exponent of the prime p in the nonzero integer n."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def _rs_scaled_integer(
    h0: list[Fraction], v: list[list[Fraction]], pos: int, max_order: int,
    base: int | None = None, offset: int = 1,
) -> tuple[list[Fraction], list[list[int]], int, int, list[int]]:
    """The nondegenerate Rayleigh-Schrodinger recursion on exact blocks, in integers.

    h0 is the diagonal unperturbed block and v the perturbation.  The state
    corrections psi_k of the level at diagonal position pos solve
    h0 psi_k + v psi_(k-1) = sum_j E_j psi_(k-j), with <pos|psi_k> 1 at
    k = 0 and 0 above.  With R_m = 1/(h0[pos] - h0[m]) and Q the lcm of
    base and of the denominators of V[pos, i], R_m V[m, i] and
    R_m V[pos, i], the states are kept at the scale A B^k of an offset A and a base B dividing Q,
    psi~_k = A B^k psi_k.  B holds every prime of Q past _prime_exponents'
    reach to its full power in Q, and A none.  With integer rows Q V and
    Q R V,

        X         = sum_i (Q R_m V[m, i]) psi~_(k-1)[i]            at Q A B^(k-1)
        Y         = sum_(j<k) shift_j psi~_(k-j)[m]                at Q A^2 B^(k-1)
        shift_j   = sum_i (Q R_m V[pos, i]) psi~_(j-1)[i]          at Q A B^(j-1)
        psi~_k[m] = (A X - Y) / (Q A / B)
        E_k       = Fraction(sum_i (Q V[pos, i]) psi~_(k-1)[i], Q A B^(k-1))

    Every term of the convolution Y sits at the one scale, so it needs no
    multiplier, and each new entry costs one exact division.  The default,
    A = 1 and B = Q, divides by 1 and keeps Q^k psi_k.  A smaller scale is
    checked entry by entry: when a division leaves a remainder, the rate of
    each prime short in that order's denominator is raised towards its
    exponent in Q, the stored columns and shifts are multiplied up to the
    wider scale in place, and the order is redone.  Returns (energies,
    scaled states psi~_k, A, B, the orders at which the scale widened).
    Raises ValueError when h0[pos] is degenerate.
    """
    h0 = [Fraction(x) for x in h0]
    s = len(h0)
    res = _resolvent(h0, pos)
    rows = [[(j, Fraction(x)) for j, x in enumerate(row) if x] for row in v]
    top = rows[pos]
    state_rows = [[(j, r * x) for j, x in row] if r else [] for r, row in zip(res, rows)]
    shift_rows = [[(j, r * x) for j, x in top] if r else [] for r in res]
    q = math.lcm(base or 1, *(x.denominator for row in (top, *state_rows, *shift_rows) for _, x in row))
    if base is None:
        base = q
    top = [(j, int(x * q)) for j, x in top]
    shift_rows = [[(j, int(x * q)) for j, x in row] for row in shift_rows]
    lifted = [[(j, int(x * q) * offset) for j, x in row] for row in state_rows]  # A Q R_m V[m, i]
    cols = [[offset * (m == pos)] for m in range(s)]  # cols[m][k] = psi~_k[m]
    shifts: list[list[int]] = [[] for _ in range(s)]  # shifts[m][j - 1] = shift_j
    energies = [h0[pos]]
    widened: list[int] = []
    scale = offset  # A B^(k-1), the scale of the newest column
    k = 1
    while k <= max_order:
        prev = [col[-1] for col in cols]
        new = [sum(x * prev[j] for j, x in row) - sum(map(operator.mul, shift, reversed(col)))
               for row, shift, col in zip(lifted, shifts, cols)]
        div = q * offset // base
        if div != 1:
            split = [divmod(x, div) for x in new]
            if any(r for _, r in split):
                short = math.lcm(*(div // math.gcd(r, div) for _, r in split))
                grow = 1
                for p, e in _prime_exponents(short).items():
                    rate = _valuation(base, p)
                    grow *= p ** (min(_valuation(q, p), rate - -e // k) - rate)
                powers = [grow**j for j in range(k)]
                for col, shift in zip(cols, shifts):
                    col[:] = map(operator.mul, col, powers)
                    shift[:] = map(operator.mul, shift, powers)
                base, scale = base * grow, scale * powers[-1]
                widened.append(k)
                continue
            new = [x for x, _ in split]
        energies.append(Fraction(sum(x * prev[j] for j, x in top), q * scale))
        for m in range(s):
            cols[m].append(new[m])
            shifts[m].append(sum(x * prev[j] for j, x in shift_rows[m]))
        scale *= base
        k += 1
    return energies, [list(psi) for psi in zip(*cols)], offset, base, widened


def _reach(v: list[list], pos: int) -> int:
    """Orders it takes the states psi_k of the level at pos to touch every position they reach."""
    into = [[m for m, row in enumerate(v) if row[i]] for i in range(len(v))]
    seen, front, k = {pos}, {pos}, 0
    while front := {m for i in front for m in into[i]} - seen:
        seen |= front
        k += 1
    return k


def _tight_scale(states: list[list[int]], q: int) -> tuple[int, int]:
    """An offset A and a base B | Q with A B^k a multiple of the denominator of psi_k at every order given.

    states are the scaled states Q^k psi_k.  Per prime p of Q, e_k is the
    exponent of p in the denominator of psi_k.  The rate of p in B is the
    slope of e_k over the later half of the orders, rounded to the nearest
    integer; its exponent in A is the least offset that keeps the line at
    or above every e_k.  A rate read too low costs the recursion a widening,
    one too high costs bits in every later order.
    """
    dens, qk = [], 1
    for psi in states:
        dens.append(qk // math.gcd(qk, *psi))
        qk *= q
    last = len(dens) - 1
    mid = last // 2
    primes = _prime_exponents(q)
    offset, base = 1, q // math.prod(p**cap for p, cap in primes.items())  # larger primes stay whole
    for p, cap in primes.items():
        e = [_valuation(d, p) for d in dens]
        rise, run = max(0, e[last] - e[mid]), last - mid
        rate = min(cap, (2 * rise + run) // (2 * run)) if run else cap
        offset *= p ** max(0, *(x - rate * k for k, x in enumerate(e)))
        base *= p**rate
    return offset, base


def rs_rational_series(
    h0: list[Fraction], v: list[list[Fraction]], pos: int, max_order: int, record: dict | None = None
) -> list[Fraction]:
    """Nondegenerate Rayleigh-Schrodinger energy coefficients, exact.

    h0 is the diagonal unperturbed block (all entries distinct), v the
    perturbation; returns [E_0, E_1, ..., E_max_order] for the level at
    the given diagonal position, from the scaled-integer recursion.  A
    probe runs the first orders at Q^k: PROBE_ORDERS of them, or twice the
    block's reach if that is more, so that the later half from which
    _tight_scale reads the rates starts once every resolvent has entered.
    The series then runs again from order zero at the tight scale A B^k.
    A given record dict receives q, offset, base and the orders at which
    the scale widened.
    """
    probe = min(max_order, max(PROBE_ORDERS, 2 * _reach(v, pos)))
    energies, states, _, q, _ = _rs_scaled_integer(h0, v, pos, probe)
    offset, base, widened = 1, q, []
    if max_order > probe:
        offset, base = _tight_scale(states, q)
        energies, _, offset, base, widened = _rs_scaled_integer(h0, v, pos, max_order, base, offset)
    if record is not None:
        record.update(q=q, offset=offset, base=base, widened=widened)
    return energies


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
