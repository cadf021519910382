"""Exact rational sector blocks and polynomial algebra.

The diagonal similarity d_n = sqrt(n!) turns X = a + a^dag into the integer
matrix with superdiagonal (1, 2, ..., n_max-1) and subdiagonal ones, leaving
the spectrum untouched.  In that weighted basis the quartic perturbation
X^4/(4 omega^2) is a matrix of exact rationals, so perturbative recursions
and characteristic polynomials can be carried out over Q with no rounding.
The one Rayleigh-Schrodinger recursion of the package lives here and works
over any scalar field: the weak series and projectors run it on Fractions,
the strong series on mpmath floats and the sum-over-states derivatives on
doubles.

Polynomials in the coupling are plain coefficient lists (index = power),
over Fraction or int; the bivariate characteristic polynomial f(z, lam) of
a parity-sector block is recovered by exact Lagrange interpolation in lam
of Faddeev-LeVerrier characteristic polynomials, then cleared to integers
by the 4^s denominator of the block entries.
"""
from __future__ import annotations

from fractions import Fraction

from .oscillator import TruncationSpec

__all__ = [
    "weighted_x_matrix",
    "weighted_hamiltonian",
    "weighted_sector_blocks",
    "sector_indices",
    "level_sector",
    # rs_rational_series calls the engine rayleigh_schrodinger, which stays
    # out: perfbench's tracer wraps only __all__ names, and a span around
    # the engine would leave the algebra.rs kernel with no self time
    "rs_rational_series",
    "char_poly_fractions",
    "sector_char_poly",
    "poly_add",
    "poly_sub",
    "poly_mul",
    "poly_scale",
    "poly_eval",
    "poly_divexact",
    "poly_deriv",
    "poly_trim",
    "bareiss_det_poly",
]

Poly = list  # coefficient list, index = power


def _as_fraction(x, what: str) -> Fraction:
    try:
        return Fraction(x)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} must be exactly representable as a rational, got {x!r}") from exc


def weighted_x_matrix(n_max: int) -> list[list[Fraction]]:
    """X = a + a^dag after the sqrt(n!) similarity: integer tridiagonal."""
    x = [[Fraction(0)] * n_max for _ in range(n_max)]
    for n in range(n_max - 1):
        x[n][n + 1] = Fraction(n + 1)
        x[n + 1][n] = Fraction(1)
    return x


def _frac_matmul(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(a)
    bt = list(zip(*b))
    return [[sum(ra[k] * cb[k] for k in range(n) if ra[k]) for cb in bt] for ra in a]


def sector_indices(n_max: int, sector: str) -> list[int]:
    if sector not in ("even", "odd"):
        raise ValueError(f"sector must be 'even' or 'odd', got {sector!r}")
    rem = 0 if sector == "even" else 1
    return [n for n in range(n_max) if n % 2 == rem]


def level_sector(level: int, sector: str | None = None) -> str:
    """Parity sector of a global harmonic level; a named sector must match it."""
    derived = "even" if level % 2 == 0 else "odd"
    if sector is not None and sector != derived:
        raise ValueError(f"level {level} lies in the {derived} sector, not {sector!r}")
    return derived


def weighted_hamiltonian(trunc: TruncationSpec) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Diagonal of H_har and the full phi^4 matrix X^4 / (4 omega^2), exact.

    Requires omega to be rational.  Both live in the sqrt(n!)-weighted
    basis, where H_har stays diagonal and the quartic term is rational.
    """
    omega = _as_fraction(trunc.omega, "omega")
    x = weighted_x_matrix(trunc.n_max)
    x2 = _frac_matmul(x, x)
    v = [[c / (4 * omega**2) for c in row] for row in _frac_matmul(x2, x2)]
    h0 = [omega * (Fraction(n) + Fraction(1, 2)) for n in range(trunc.n_max)]
    return h0, v


def weighted_sector_blocks(
    trunc: TruncationSpec, sector: str
) -> tuple[list[Fraction], list[list[Fraction]]]:
    """weighted_hamiltonian restricted to one parity sector: (h0_diagonal, v_block)."""
    h0, v = weighted_hamiltonian(trunc)
    idx = sector_indices(trunc.n_max, sector)
    return [h0[i] for i in idx], [[v[i][j] for j in idx] for i in idx]


def rayleigh_schrodinger(h0: list, v: list[list], pos: int, max_order: int) -> tuple[list, list]:
    """Nondegenerate Rayleigh-Schrodinger series over any scalar field.

    h0 is the diagonal unperturbed block and v the perturbation, both in
    one field (Fraction, mpmath mpf or float).  Returns (energies, states):
    energies [E_0, ..., E_max_order] of the level at diagonal position pos,
    and the state corrections psi_k, normalised so that <pos|psi_k> is 1
    for k = 0 and 0 above, which solve
    h0 psi_k + v psi_{k-1} = sum_j E_j psi_{k-j}.  Products with an exact
    zero are skipped.  Raises ValueError when h0[pos] is degenerate.
    """
    s = len(h0)
    for m in range(s):
        if m != pos and h0[m] == h0[pos]:
            raise ValueError(f"unperturbed level at position {pos} is degenerate with {m}")
    e0 = h0[pos]
    zero = e0 - e0
    one = zero + 1
    rows = [[(j, x) for j, x in enumerate(row) if x] for row in v]
    energies = [e0]
    states = [[one if i == pos else zero for i in range(s)]]
    resolvent = [zero if m == pos else 1 / (e0 - h0[m]) for m in range(s)]
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


def rs_rational_series(
    h0: list[Fraction], v: list[list[Fraction]], pos: int, max_order: int
) -> list[Fraction]:
    """Nondegenerate Rayleigh-Schrodinger energy coefficients, exact.

    h0 is the diagonal unperturbed block (all entries distinct), v the
    perturbation; returns [E_0, E_1, ..., E_max_order] for the level at
    the given diagonal position.
    """
    return rayleigh_schrodinger(h0, v, pos, max_order)[0]


# ---------------------------------------------------------------------------
# dense polynomial helpers (coefficient lists over Fraction or int)

def poly_trim(p: Poly) -> Poly:
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return p


def poly_add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return poly_trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)])


def poly_sub(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return poly_trim([(p[i] if i < len(p) else 0) - (q[i] if i < len(q) else 0) for i in range(n)])


def poly_mul(p: Poly, q: Poly) -> Poly:
    if (len(p) == 1 and p[0] == 0) or (len(q) == 1 and q[0] == 0):
        return [0]
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] += a * b
    return poly_trim(out)


def poly_scale(p: Poly, c) -> Poly:
    return poly_trim([a * c for a in p])


def poly_eval(p: Poly, x):
    acc = 0
    for a in reversed(p):
        acc = acc * x + a
    return acc


def poly_deriv(p: Poly) -> Poly:
    if len(p) <= 1:
        return [0]
    return [i * a for i, a in enumerate(p)][1:]


def poly_divexact(p: Poly, q: Poly) -> Poly:
    """Exact polynomial division over the integers; raises if not exact."""
    p = poly_trim(list(p))
    q = poly_trim(list(q))
    if q == [0]:
        raise ZeroDivisionError("polynomial division by zero")
    if p == [0]:
        return [0]
    if len(p) < len(q):
        raise ArithmeticError("non-exact polynomial division (degree too low)")
    rem = list(p)
    out = [0] * (len(p) - len(q) + 1)
    lead = q[-1]
    for k in range(len(out) - 1, -1, -1):
        c = rem[k + len(q) - 1]
        if isinstance(c, int) and isinstance(lead, int):
            coef, r = divmod(c, lead)
            if r != 0:
                raise ArithmeticError("non-exact polynomial division (leading coefficient)")
        else:
            coef = c / lead
        out[k] = coef
        if coef:
            for j, b in enumerate(q):
                rem[k + j] -= coef * b
    if any(r != 0 for r in rem):
        raise ArithmeticError("non-exact polynomial division (nonzero remainder)")
    return poly_trim(out)


# ---------------------------------------------------------------------------
# exact characteristic polynomials

def char_poly_fractions(a: list[list[Fraction]]) -> list[Fraction]:
    """det(z I - A) for a Fraction matrix, by Faddeev-LeVerrier.

    Returns coefficients ascending in z; the leading coefficient is 1.
    """
    s = len(a)
    coeffs = [Fraction(0)] * s + [Fraction(1)]  # index = power of z
    m = [[Fraction(0)] * s for _ in range(s)]
    c_prev = Fraction(1)
    for k in range(1, s + 1):
        # M_k = A M_{k-1} + c_{s-k+1} I
        am = _frac_matmul(a, m)
        for i in range(s):
            am[i][i] += c_prev
        m = am
        tr = sum(sum(a[i][j] * m[j][i] for j in range(s)) for i in range(s))
        c = -tr / k
        coeffs[s - k] = c
        c_prev = c
    return coeffs


def sector_char_poly(trunc: TruncationSpec, sector: str) -> list[list[int]]:
    """Integer-cleared bivariate characteristic polynomial of a sector block.

    Returns f(z, lam) = 4^s omega^(2s) det(z I - H_sector(lam)) as a list of
    z-coefficients (ascending), each an integer polynomial in lam (ascending).
    With omega = 1 the clearing factor 4^s matches the entrywise denominator
    of the weighted phi^4 block, so every coefficient is an exact integer.
    """
    h0, v = weighted_sector_blocks(trunc, sector)
    s = len(h0)
    omega = _as_fraction(trunc.omega, "omega")
    clear = (4 * omega**2) ** s

    # interpolate each z-coefficient in lam from s+1 integer nodes
    nodes = list(range(s + 1))
    per_node = []
    for t in nodes:
        block = [[(h0[i] if i == j else Fraction(0)) + t * v[i][j] for j in range(s)] for i in range(s)]
        per_node.append(char_poly_fractions(block))

    zcoeffs: list[list[int]] = []
    for j in range(s + 1):
        values = [per_node[i][j] for i in range(len(nodes))]
        poly = _lagrange_interpolate(nodes, values)
        poly = [c * clear for c in poly]
        ints = []
        for c in poly:
            if c.denominator != 1:
                raise ArithmeticError(
                    f"char poly coefficient not integral after clearing: {c} "
                    f"(n_max={trunc.n_max}, sector={sector})"
                )
            ints.append(int(c))
        zcoeffs.append(poly_trim(ints))
    return zcoeffs


def _lagrange_interpolate(nodes: list[int], values: list[Fraction]) -> list[Fraction]:
    """Exact Lagrange interpolation; returns ascending coefficients over Q."""
    n = len(nodes)
    acc: Poly = [Fraction(0)]
    for i in range(n):
        basis: Poly = [Fraction(1)]
        denom = Fraction(1)
        for j in range(n):
            if j == i:
                continue
            basis = poly_mul(basis, [Fraction(-nodes[j]), Fraction(1)])
            denom *= Fraction(nodes[i] - nodes[j])
        acc = poly_add(acc, poly_scale(basis, values[i] / denom))
    return acc


def bareiss_det_poly(matrix: list[list[Poly]]) -> Poly:
    """Determinant of a matrix of integer polynomials, fraction-free.

    Bareiss elimination keeps every intermediate entry an exact integer
    polynomial; row swaps on zero pivots flip the sign.
    """
    n = len(matrix)
    m = [[poly_trim(list(e)) for e in row] for row in matrix]
    sign = 1
    prev = [1]
    for k in range(n - 1):
        if m[k][k] == [0]:
            pivot_row = next((r for r in range(k + 1, n) if m[r][k] != [0]), None)
            if pivot_row is None:
                return [0]
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = poly_sub(poly_mul(m[k][k], m[i][j]), poly_mul(m[i][k], m[k][j]))
                m[i][j] = poly_divexact(num, prev)
            m[i][k] = [0]
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return poly_scale(det, sign) if sign < 0 else det
