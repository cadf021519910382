"""Deterministic CSV and manifest output.

Every floating value is printed exactly as Python's '%.17g' prints it, so
identical configurations produce byte-identical file bodies; exact
rationals are printed as numerator/denominator columns and never
decimalized.  A large 2-D float64 table is printed through one vectorised
kernel, _g17.g17_lines, and every other row cell by cell through fmt.
Callers put a column into a float64 table only as the doubles that the
per-cell path prints: a per-scalar `abs(a) ** 2` differs from
`np.abs(amp) ** 2` in the last bit for about a third of amplitudes.  Each
run directory carries a manifest.json echoing the fully resolved
configuration.
"""
from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from .hamiltonian import SparseOperator

__all__ = ["fmt", "write_csv", "write_matrix_csv", "mirror_csv_as_json",
           "write_manifest", "read_config_file"]


# a float64 array of fewer cells prints cell by cell: in a fresh interpreter
# the kernel's first table costs about 3.5 ms more (compiling it and its
# tables) and 1-1.6 MB of peak RSS (numpy code it is first to run), which
# its 0.3 against 0.9 us a cell repays only at about 5,000 cells
_KERNEL_CELLS = 6000
# cells of a float64 array printed per write: a whole-file join costs megabytes
# of peak RSS, and the kernel's (cells, 32) byte matrices stay below glibc's
# default mmap threshold of 128 KiB
_BLOCK_CELLS = 3072
# the cell types the commands write, looked up by exact type first
_FORMAT = {
    float: "{:.17g}".format,
    np.float64: "{:.17g}".format,
    int: str,
    np.int64: str,
    str: str,
    Fraction: lambda x: f"{x.numerator}/{x.denominator}",
    complex: lambda x: f"{x.real:.17g}+{x.imag:.17g}j",
}


def fmt(x) -> str:
    """Fixed-width deterministic rendering of one CSV cell."""
    exact = _FORMAT.get(type(x))
    if exact is not None:
        return exact(x)
    for kind in (Fraction, complex, float):  # subclasses: numpy scalars, bool
        if isinstance(x, kind):
            return _FORMAT[kind](x)
    return str(x)


def write_csv(path, header: list[str], rows, meta: dict | None = None) -> Path:
    """Write rows under a one-line header, with optional '#' metadata lines.

    Rows are written as they come; an ndarray row becomes Python scalars first.
    A 2-D float64 ndarray of at least _KERNEL_CELLS cells is written block by
    block through _g17.g17_lines, which prints every float as fmt does.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        if meta:
            for key in sorted(meta):
                fh.write(f"# {key}={meta[key]}\n")
        fh.write(",".join(header) + "\n")
        if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype == np.float64 \
                and rows.size >= _KERNEL_CELLS:
            from ._g17 import g17_lines  # compiled at the first large table, not at start-up

            step = max(1, _BLOCK_CELLS // rows.shape[1])
            for start in range(0, len(rows), step):
                fh.write(g17_lines(rows[start:start + step]))
        else:
            for row in rows:
                if isinstance(row, np.ndarray):
                    row = row.tolist()
                fh.write(",".join(map(fmt, row)) + "\n")
    return path


def write_matrix_csv(path, op, meta: dict | None = None) -> Path:
    """Operator entries as `row,col,re,im` rows under a one-line header.

    Accepts a dense OperatorMatrix or a SparseOperator; only nonzero
    entries are emitted, in (row, col) order.
    """
    if isinstance(op, SparseOperator):
        entries = op.triplets()
    else:
        rows, cols = np.nonzero(op.entries)
        entries = zip(rows.tolist(), cols.tolist(), op.entries[rows, cols].astype(complex).tolist())
    rows = [(r, c, v.real, v.imag) for r, c, v in entries if v != 0]
    return write_csv(path, ["row", "col", "re", "im"], rows, meta)


def write_manifest(outdir, command: str, config: dict, outputs: list[str],
                   status: str = "ok", error: dict | None = None, run: dict | None = None) -> Path:
    """Record the resolved run configuration next to its outputs.

    run holds what the run did rather than what it was asked (its warnings),
    under its own key so that config and outputs stay deterministic.
    """
    from . import __version__

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    body = {
        "artifact": "phi4trunc",
        "version": __version__,
        "command": command,
        "config": {k: config[k] for k in sorted(config)},
        "outputs": sorted(outputs),
        "status": status,
    }
    if error is not None:
        body["error"] = error
    if run is not None:
        body["run"] = run
    path = outdir / "manifest.json"
    with open(path, "w") as fh:
        json.dump(body, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return path


def mirror_csv_as_json(csv_path) -> Path:
    """Write a .json sibling of a CSV file: metadata, header and row cells.

    Cells stay as their deterministic CSV strings so both mirrors are
    byte-reproducible from the same configuration.
    """
    csv_path = Path(csv_path)
    meta: dict[str, str] = {}
    header: list[str] = []
    rows: list[list[str]] = []
    for line in csv_path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif not header:
            header = line.split(",")
        elif line:
            rows.append(line.split(","))
    out = csv_path.with_suffix(".json")
    with open(out, "w") as fh:
        json.dump({"meta": meta, "header": header, "rows": rows}, fh, indent=1)
        fh.write("\n")
    return out


def read_config_file(path) -> dict[str, str]:
    """Flat `key = value` file with '#' comments; later keys win."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out
