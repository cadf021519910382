"""'%.17g' for every value of a float64 table, in numpy array operations.

csvio.write_csv prints 2-D float64 arrays of at least csvio._KERNEL_CELLS
cells through g17_lines, and imports this module at its first such table,
so that neither start-up nor a small table compiles it.
The 17 digits of each value with 1e-4 <= |v| < 1e16 are
round-half-even(|v| 10^(16 - x)), taken exactly from Dekker's two-product
(Numer. Math. 18, 224 (1971)) with the exact double 10^(16 - x); they are
the digits of the correctly rounded conversion that Python's '%' makes
(D. M. Gay, AT&T numerical analysis manuscript 90-10, 1990).  Every other
value (0, -0, nan, inf, tiny or huge) is printed by Python's '%'.
"""
from __future__ import annotations

import numpy as np

# exact doubles 10^0 ... 10^22 and their Veltkamp halves
_SPLIT = 134217729.0  # 2^27 + 1
_POW10 = np.array([float(10 ** k) for k in range(23)])
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
# the digit values of 0000 ... 9999 as the bytes of a little-endian word, and
# their trailing zeros, built without 10,000-element integer temporaries
_DIGITS4 = np.stack([np.tile(np.repeat(np.arange(10, dtype=np.uint8), 10 ** (3 - j)), 10 ** j) for j in range(4)],
                    axis=1).view("<u4").ravel().astype(np.uint64)
_TRAILING4 = np.zeros(10000, dtype=np.int64)
for _step in (10, 100, 1000, 10000):
    _TRAILING4[::_step] += 1
# XOR with eight '0' bytes turns digit values into ASCII digits
_ASCII_ZEROS = np.uint64(int.from_bytes(b"0" * 8, "little"))


def _fixed_layouts() -> tuple[np.ndarray, ...]:
    """How '%g' lays out 17 digits at each exponent x = -4 ... 16 (row x + 4).

    Fixed notation keeps digits 0 ... x in place, puts the point after them
    and the other digits one byte on (x >= 0), or puts all digits 1 - x
    bytes on, after '0.' and -x - 1 zeros (x < 0).  Returns the bits the
    digits move, and (3, 21) words of 24 text bytes: those kept in place,
    those taken from the moved digits, and the point as '.' XOR '0'.
    """
    kept, moved, point = bytearray(), bytearray(), bytearray()
    for x in range(-4, 17):
        dot = max(x + 1, 1)
        kept += bytes(0xff * (k <= x) for k in range(24))
        moved += bytes(0xff * (k > dot) for k in range(24))
        point += bytes((ord(".") ^ ord("0")) * (k == dot) for k in range(24))
    shift = np.array([8 * (1 + max(-x, 0)) for x in range(-4, 17)], dtype=np.uint64)
    return (shift, *(np.frombuffer(m, dtype="<u8").reshape(21, 3).T.astype(np.uint64) for m in (kept, moved, point)))


_SHIFT, _KEPT, _MOVED, _POINT = _fixed_layouts()
# row k: 32 bytes as four little-endian words, those below byte k set to 1
_BELOW = np.frombuffer(bytes(1 if j < k else 0 for k in range(33) for j in range(32)), dtype="<u8").reshape(33, 4)


def _round17(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """round-half-even(a 10^(16 - x)) as int64, exact from 2^53 up.

    hi + lo is the exact product (Dekker's two-product on Veltkamp halves, no
    FMA needed); at 2^53 and above hi is an even integer, so rounding lo half
    to even rounds the sum half to even.  Below 2^53 the result is still
    below 10^16.
    """
    k = 16 - x
    b, b_hi, b_lo = _POW10[k], _POW10_HI[k], _POW10_LO[k]
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    hi = a * b
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def g17_lines(block: np.ndarray) -> str:
    """The CSV lines of a 2-D float64 block, each value printed as '%.17g' % v.

    Values with 1e-4 <= |v| < 1e16 are printed by numpy array operations:
    x = floor(log10|v|), moved by one where the rounded digits
    D = round(|v| 10^(16 - x)) leave [10^16, 10^17), then D's digits without
    trailing zeros in fixed notation, which '%g' uses for exponents -4 ... 16.
    Every other value is printed by '%'.  Each value gets a row of 32 bytes:
    '-' in byte 7, its text from byte 8 (from byte 0 for '%') and a separator.
    """
    values = block.ravel()
    a = np.abs(values)
    fast = (a >= 1e-4) & (a < 1e16)
    a = np.where(fast, a, 1.0)
    x = np.floor(np.log10(a)).astype(np.int64)
    d = _round17(a, x)
    off = np.flatnonzero((d < 10 ** 16) | (d >= 10 ** 17))
    x[off] += np.where(d[off] < 10 ** 16, -1, 1)
    d[off] = _round17(a[off], x[off])
    fast &= (d >= 10 ** 16) & (d < 10 ** 17)
    d[~fast], x[~fast] = 10 ** 16, 0
    # D = lead 10^16 + g1 10^12 + g2 10^8 + g3 10^4 + g4
    lead = d // 10 ** 16
    high = (d - lead * 10 ** 16) // 10 ** 8
    low = d - lead * 10 ** 16 - high * 10 ** 8
    g1, g3 = high // 10000, low // 10000
    groups = (g1, high - g1 * 10000, g3, low - g3 * 10000)
    zeros = [_TRAILING4[g] for g in groups]
    trailing = zeros[3] + (zeros[3] == 4) * (zeros[2] + (zeros[2] == 4) * (zeros[1] + (zeros[1] == 4) * zeros[0]))
    # the 17 digit values as bytes 0-16 of three little-endian words, laid
    # out in fixed notation; XOR with '0' turns digit values into ASCII
    q1, q2, q3, q4 = (_DIGITS4[g] for g in groups)
    digits = [lead.astype(np.uint64) | q1 << 8 | q2 << 40, q2 >> 24 | q3 << 8 | q4 << 40, q4 >> 24]
    row = x + 4
    bits = _SHIFT[row]
    back = 64 - bits
    shifted = [digits[0] << bits, digits[1] << bits | digits[0] >> back, digits[2] << bits | digits[1] >> back]
    words = np.empty((len(values), 4), dtype="<u8")
    words[:, 0] = np.uint64(ord("-")) << 56
    for k in range(3):
        words[:, k + 1] = (digits[k] & _KEPT[k][row] | shifted[k] & _MOVED[k][row] | _POINT[k][row]) ^ _ASCII_ZEROS
    fraction = np.maximum(16 - x - trailing, 0)
    first = 8 - np.signbit(values)
    end = 8 + np.where(x >= 0, x + 1 + (fraction > 0) + fraction, 18 - x - trailing)
    slow = np.flatnonzero(~fast)
    flat = words.view(np.uint8).reshape(-1)
    if len(slow):
        printed = [("%.17g" % v).encode() for v in values[slow].tolist()]
        first[slow], end[slow] = 0, [len(text) for text in printed]
        for i, text in zip(slow.tolist(), printed):
            flat[32 * i:32 * i + len(text)] = np.frombuffer(text, dtype=np.uint8)
    separators = np.full(len(values), ord(","), dtype=np.uint8)
    separators[block.shape[1] - 1::block.shape[1]] = ord("\n")
    flat[np.arange(0, 32 * len(values), 32) + end] = separators
    return flat[(_BELOW[end + 1] & ~_BELOW[first]).view(np.bool_).reshape(-1)].tobytes().decode("ascii")
