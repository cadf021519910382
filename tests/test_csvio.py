import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from phi4trunc import csvio

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
