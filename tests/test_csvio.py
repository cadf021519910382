import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from phi4trunc import _g17, csvio

EDGES = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
         1.7976931348623157e308, -1.7976931348623157e308]


def _per_cell(header, rows) -> str:
    """The CSV body cell by cell through csvio.fmt, as rows of Python floats."""
    lines = [",".join(header)] + [",".join(map(csvio.fmt, row)) for row in rows.tolist()]
    return "".join(line + "\n" for line in lines)


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=7),
                  elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
                  | st.sampled_from(EDGES)))
@example(np.array([EDGES, EDGES[::-1]]))
@example(np.arange(3 * 2500, dtype=float).reshape(2500, 3) / 7)  # more than two blocks of rows
def test_array_rows_print_as_the_per_cell_path(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    header = [f"c{k}" for k in range(rows.shape[1])]
    csvio.write_csv(path, header, rows, {"n": len(rows)})
    text = path.read_text()
    assert text == f"# n={len(rows)}\n" + _per_cell(header, rows)


def _exact_ties() -> list[float]:
    """Doubles odd / 2^(k+1) whose 17 digits, D = |v| 10^k with 10^16 <= D < 10^17, end in exactly .5."""
    ties = []
    for k in range(1, 21):
        lo = math.ceil(Fraction(10) ** (16 - k) * 2 ** (k + 1))
        hi = min(math.floor(Fraction(10) ** (17 - k) * 2 ** (k + 1)), 2 ** 53)
        ties += [(lo + j * (hi - lo) // 6 | 1) / 2 ** (k + 1) for j in range(1, 6)]
    return ties


TIES = _exact_ties()
POWERS = [10.0 ** k for k in range(-6, 18)]
NEIGHBOURS = [np.nextafter(p, to) for p in POWERS for to in (0.0, np.inf)]


def _kernel_lines(values) -> list[str]:
    return _g17.g17_lines(np.asarray(values, dtype=np.float64).reshape(-1, 1)).split("\n")[:-1]


def test_exact_ties_are_ties():
    assert len(TIES) == 100
    for v in TIES:
        [scaled] = [Fraction(v) * 10 ** k for k in range(1, 21) if 10 ** 16 <= Fraction(v) * 10 ** k < 10 ** 17]
        assert scaled % 1 == Fraction(1, 2)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
                | st.floats(1e-4, 1e16) | st.sampled_from(EDGES + TIES + POWERS + NEIGHBOURS), max_size=40))
@example(TIES + [-v for v in TIES])
@example(POWERS + NEIGHBOURS + [-v for v in POWERS + NEIGHBOURS])
@example([1e-4, 1e16, np.nextafter(1e-4, 0), np.nextafter(1e16, 0), np.nextafter(1e-4, 1), 1000000000000000.25])
@example(EDGES + [2.2250738585072014e-308, -2.2250738585072014e-308, 1e-320])
def test_g17_prints_as_python_percent_17g(values):
    assert _kernel_lines(values) == ["%.17g" % float(v) for v in values]


@given(st.floats(allow_nan=True, allow_infinity=True), st.integers(-2 ** 63, 2 ** 63 - 1))
def test_numpy_scalars_print_as_python_ones(v, k):
    assert csvio.fmt(np.float64(v)) == csvio.fmt(float(v))
    assert csvio.fmt(np.int64(k)) == str(k)


def test_only_large_tables_load_the_kernel(tmp_path):
    # csvio imports _g17 at its first table of _KERNEL_CELLS cells, so neither
    # start-up nor a small table compiles it
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import phi4trunc.cli\n"
        "from phi4trunc import csvio\n"
        "print('phi4trunc._g17' in sys.modules)\n"
        f"csvio.write_csv({str(tmp_path / 'small.csv')!r}, ['a'], np.ones((csvio._KERNEL_CELLS - 1, 1)))\n"
        "print('phi4trunc._g17' in sys.modules)\n"
        f"csvio.write_csv({str(tmp_path / 'large.csv')!r}, ['a'], np.ones((csvio._KERNEL_CELLS, 1)))\n"
        "print('phi4trunc._g17' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "True"]


@settings(max_examples=20, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=7),
                  elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
                  | st.sampled_from(EDGES)))
@example(np.array([EDGES, EDGES[::-1]]))
def test_large_array_rows_print_as_the_per_cell_path(tmp_path_factory, block):
    # the small array repeated to at least _KERNEL_CELLS cells, over two blocks or more
    rows = np.tile(block, (-(-csvio._KERNEL_CELLS // block.size), 1))
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    header = [f"c{k}" for k in range(rows.shape[1])]
    csvio.write_csv(path, header, rows)
    assert path.read_text() == _per_cell(header, rows)
