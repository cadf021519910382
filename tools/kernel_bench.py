"""Kernel rows: import cost, Lanczos against ARPACK, lattice sweeps, gap grids, weak and strong series, roots, CSV writes, Dyson, Pauli, projector.

Usage, from the root of a checkout, with the parent commit checked out at PARENT:

    PYTHONPATH=src python3 tools/kernel_bench.py --parent PARENT --out kernels.json [--parts grid ...]

`import` spawns fresh interpreters that import `phi4trunc.cli` from each
side's src/, alternating sides, and records the median wall time and peak
RSS of the import, whether the interpreter ran with PYTHONDONTWRITEBYTECODE,
the sorted third-party top-level modules the import left in sys.modules,
and the bytecode cache it could read.  Every sample runs with
PYTHONDONTWRITEBYTECODE set and PYTHONPYCACHEPREFIX at a fresh directory,
so no __pycache__ in a side's src/ is ever read: one warm-up import per
side first writes every module's bytecode there, and the sides' own
src/ trees are then removed from it, so each sample reads the bytecode of
the standard library and numpy, as an installed interpreter does, and
compiles src/ from source.  `solve` times, in this checkout, spectral.lanczos_lowest
against scipy's ARPACK called the way the parent's lanczos_lowest called it
(Gershgorin shift, start vector from LANCZOS_SEED, ncv 40), on the even and
odd symmetric sectors of the 8- and 10-site periodic chains and the 8-site
open chain (n_max 4, kappa 0.1, lam 0.15), median per solve after a
warm-up, alternating the solvers.
`sweep` runs lattice_ground_energies over the couplings of each of SWEEPS
(n_sites, n_max, kappa, and count couplings in [lo, hi]) in fresh
interpreters, alternating sides: wall time, peak RSS, whether
spectral._sectors_hold_ground chose the symmetric sectors, and the
largest relative difference of the two sides' ground energies.  On the
parent side a sweep may stop after its first few couplings, where the
parent's path would take minutes and gigabytes.  Every process runs with
perfbench's pinned settings (one BLAS thread, fixed mmap threshold, no
numpy huge pages); the glibc setting takes effect only in the spawned
interpreters.  `grid` loads the parent's package next to this checkout's
in one process and times singularities.grid_gaps on each side, on the
benchmark's scan grid (n_max 8 even, 100 x 100 over [-0.1, 0.02] x
[-0.05, 0.05]) and sphere grid (80 x 160), with 1 and 2 workers,
alternating the sides, median of --grid-repeats after a warm-up; each
grid records its couplings, the solves left after folding conjugates, the
largest relative difference of the two sides' gaps, and per side the
couplings that went to the eigensolver (min_sector_gaps).  `rs` loads the parent's package next to
this checkout's in one process and times weak_series on each side for
every row of RS_ROWS (n_max, omega, level, orders), alternating the sides,
median of --rs-repeats after a warm-up; each row records whether the two
sides' coefficients are equal and how this checkout's residue recursion
ran (q, the prime count, the bits B of its bound |N_k| < 2^B, and the
true bits of the largest numerator N_k = q^k E_k).  `strong` does the same for strong_series
on every row of STRONG_ROWS (n_max, sector, level, orders) at the default
precision; each row records whether the two sides print the same digits
(mpmath.nstr at the precision) and each side's certified digits.  `roots`
does the same for ResultantPolynomial.roots on the resultant of every row
of ROOTS_ROWS (n_max, sector), computed once; each row records the
degree, each side's _horner calls, and whether the two sides' roots are
the same doubles, bit for bit; its medians take --rs-repeats too.  `csv`
times csvio.write_csv on each side on the tables that `scan` and `riemann`
write for the benchmark's grids (n_max 8 even, 100 x 100 and 80 x 160),
alternating the sides, median of --grid-repeats after a warm-up, and
records whether the two files are equal byte for byte; the pinned glibc
mmap threshold, under which the write's larger arrays are mapped and
unmapped each time, holds here only when the tool itself runs under it.
`dyson` times, on each side, the benchmark's Dyson op for every row of
DYSON_ROWS (state in, state out, lam): dyson_series at n_max 8, order 6,
plus its trace over 101 times in [0, 1], alternating the sides, median of
--rs-repeats after a warm-up, and records the number of terms and whether
the two traces are equal byte for byte.
`pauli` times, on each side, pauli_decompose of the single-site
Hamiltonian for every n_max of PAULI_NMAX (the benchmark's pauli ops run
n_max 64 and 256) and count_resources for every n_q of PAULI_NQ,
alternating the sides, median of --rs-repeats after a warm-up, and records
whether the two sides' results are equal bit for bit and the median minor
page faults per call; run the tool under perfbench's pinned glibc mmap
threshold for fault counts that match the benchmark's.
`projector` times, on each side, perturbed_projector for every row of
PROJECTOR_ROWS (n_max, level, order) and evolve_projector_method over 201
times in [0, 20] for every row of EVOLVE_ROWS (n_max, order, lam, state in,
with state out two above), alternating the sides, median of --rs-repeats
after a warm-up, and records whether the two sides give equal Fractions
(projector coefficients and energies) and byte-equal traces.
--parts picks the parts to run (default: all).  Pass the file to tools/bench_collect.py with --extra.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# perfbench's pinned settings: one BLAS thread, and a fixed glibc mmap threshold and no
# numpy huge pages, without which peak RSS lands on one of several values from run to run
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "MALLOC_MMAP_THRESHOLD_": "131072", "NUMPY_MADVISE_HUGEPAGE": "0"}
os.environ.update(PINNED)

import numpy as np  # noqa: E402  (after the thread pinning)

# a child's peak RSS in MB: Linux's ru_maxrss keeps, across fork and exec, the
# peak of the process that forked it, which here may be far larger than the child's
PEAK_MB = ("def peak_mb():\n"
           "    [kb] = [line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM')]\n"
           "    return int(kb) / 1024\n")
IMPORT = (PEAK_MB + "import sys, time\n"
          "before = set(sys.modules)\n"
          "t = time.perf_counter()\n"
          "import phi4trunc.cli\n"
          "t = time.perf_counter() - t\n"
          "new = {name.split('.')[0] for name in set(sys.modules) - before}\n"
          "import json\n"
          "print(json.dumps([t, peak_mb(), sys.flags.dont_write_bytecode,\n"
          "                  sorted(new - set(sys.stdlib_module_names) - {'phi4trunc'})]))\n")
SWEEP = (PEAK_MB + "import json, sys, time\n"
         "import numpy as np\n"
         "from phi4trunc import LatticeSpec, TruncationSpec, lattice_ground_energies\n"
         "from phi4trunc.spectral import _sectors_hold_ground\n"
         "n_sites, n_max, kappa, lo, hi, count, first = json.loads(sys.argv[1])\n"
         "spec, lams = LatticeSpec(n_sites, TruncationSpec(n_max), kappa), np.linspace(lo, hi, count)[:first]\n"
         "t = time.perf_counter()\n"
         "e = lattice_ground_energies(spec, lams)[:, 0]\n"
         "print(json.dumps([time.perf_counter() - t, peak_mb(),\n"
         "                  int(_sectors_hold_ground(spec, list(lams), 1)), *e]))\n")
# name: (n_sites, n_max, kappa, lo, hi, count), samples, couplings run on the parent side
SWEEPS = {
    "sweep_10_sites_kappa_0.1_lam_0.05_0.3": ((10, 4, 0.1, 0.05, 0.3, 11), 1, 2),
    "sweep_3_sites_nmax_6_kappa_0.1_lam_0.05_2": ((3, 6, 0.1, 0.05, 2.0, 11), 5, 11),
    "sweep_4_sites_nmax_6_kappa_0.1_lam_0.05_2": ((4, 6, 0.1, 0.05, 2.0, 11), 5, 11),
    "sweep_3_sites_nmax_8_kappa_0.1_lam_0.05_2": ((3, 8, 0.1, 0.05, 2.0, 11), 5, 11),
}


def alternate(sides: dict[str, Path], script: str, samples: int,
              args: dict[str, list[str]] | None = None, env: dict[str, str] | None = None) -> dict[str, list[list]]:
    """The JSON list script prints, per side, from fresh interpreters, alternating which side runs first.

    args gives each side's command-line arguments to the script, env
    variables set on top of the pinned ones.
    """
    got = {side: [] for side in sides}
    for i in range(samples):
        for side in (list(sides) if i % 2 == 0 else list(sides)[::-1]):
            env_side = {**os.environ, **PINNED, **(env or {}), "PYTHONPATH": str(sides[side] / "src")}
            out = subprocess.run([sys.executable, "-c", script, *(args or {}).get(side, [])], env=env_side,
                                 capture_output=True, text=True, check=True)
            got[side].append(json.loads(out.stdout))
    return got


def import_rows(sides: dict[str, Path], samples: int) -> dict:
    with tempfile.TemporaryDirectory() as prefix:
        alternate(sides, IMPORT, 1, env={"PYTHONPYCACHEPREFIX": prefix, "PYTHONDONTWRITEBYTECODE": ""})
        for root in sides.values():  # the prefix mirrors absolute source paths
            shutil.rmtree(Path(prefix) / (root / "src").relative_to(root.anchor), ignore_errors=True)
        got = alternate(sides, IMPORT, samples, env={"PYTHONPYCACHEPREFIX": prefix, "PYTHONDONTWRITEBYTECODE": "1"})
    return {side: {"import_s": round(statistics.median(r[0] for r in rows), 4),
                   "import_rss_mb": round(statistics.median(r[1] for r in rows), 1),
                   "dont_write_bytecode": bool(rows[0][2]), "third_party": rows[0][3],
                   "pycache_prefix": "fresh directory: standard library and numpy bytecode only",
                   "samples": samples}
            for side, rows in got.items()}


def arpack_lowest(matrix, k: int, tol: float = 1e-12) -> np.ndarray:
    """The parent's lanczos_lowest: ARPACK on the Gershgorin-shifted matrix."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    from phi4trunc.spectral import LANCZOS_SEED

    dim = matrix.shape[0]
    v0 = np.random.default_rng(LANCZOS_SEED).standard_normal(dim)
    shift = 1.0 + float(abs(matrix).sum(axis=1).max())
    shifted = (matrix + shift * sp.identity(dim, format="csr", dtype=matrix.dtype)).tocsr()
    w = spla.eigsh(shifted, k=k, which="SA", v0=v0, tol=tol, ncv=min(dim, max(2 * k + 10, 40)),
                   return_eigenvectors=False)
    return np.sort(w - shift)


def solve_rows(repeats: int) -> list[dict]:
    import scipy.sparse as sp

    from phi4trunc import LatticeSpec, TruncationSpec
    from phi4trunc.hamiltonian import CSRMatrix, SparseOperator, _lattice_blocks
    from phi4trunc.spectral import lanczos_lowest

    rows, lam = [], 0.15
    for n_sites, boundary in ((8, "periodic"), (10, "periodic"), (8, "open")):
        blocks = _lattice_blocks(LatticeSpec(n_sites, TruncationSpec(4), 0.1, boundary=boundary), "symmetric")
        for parity, (h0, v) in zip(("even", "odd"), blocks):
            data = h0.data + lam * v.data
            ours = SparseOperator(CSRMatrix(h0.indptr, h0.indices, data))
            scipy_matrix = sp.csr_matrix((data, h0.indices, h0.indptr), shape=h0.shape)
            solvers = {"numpy_lanczos_s": lambda: lanczos_lowest(ours, 1)[0],
                       "arpack_s": lambda: arpack_lowest(scipy_matrix, 1)}
            values = {name: solve() for name, solve in solvers.items()}  # warm-up
            times = {name: [] for name in solvers}
            for i in range(repeats):
                for name in (list(solvers) if i % 2 == 0 else list(solvers)[::-1]):
                    begin = time.perf_counter()
                    solvers[name]()
                    times[name].append(time.perf_counter() - begin)
            row = {"n_sites": n_sites, "boundary": boundary, "sector": parity, "dim": h0.shape[0], "nnz": h0.nnz,
                   **{name: round(statistics.median(t), 4) for name, t in times.items()}}
            row["ratio"] = round(row["numpy_lanczos_s"] / row["arpack_s"], 2)
            e, ref = values["numpy_lanczos_s"][0], values["arpack_s"][0]
            row["e0_rel_diff"] = float(f"{abs(e - ref) / abs(ref):.1e}")
            rows.append(row)
            print(json.dumps(row), flush=True)
    return rows


def sweep_rows(sides: dict[str, Path]) -> dict:
    out = {}
    for name, (config, samples, parent_first) in SWEEPS.items():
        firsts = {"parent": parent_first, "change": config[-1]}
        got = alternate(sides, SWEEP, samples, {side: [json.dumps([*config, firsts[side]])] for side in sides})
        row = {side: {"couplings": firsts[side], "wall_s": round(statistics.median(r[0] for r in rows), 3),
                      "peak_rss_mb": round(statistics.median(r[1] for r in rows), 1),
                      "symmetric_sectors": bool(rows[0][2]), "e0": rows[0][3:], "samples": samples}
               for side, rows in got.items()}
        both = min(firsts.values())
        e, ref = np.array(row["change"]["e0"][:both]), np.array(row["parent"]["e0"][:both])
        row["e0_max_rel_diff"] = float(f"{np.max(np.abs(e - ref) / np.abs(ref)):.1e}")
        out[name] = row
        print(json.dumps({name: row}), flush=True)
    return out


def _median_times(calls: dict, repeats: int, faults: dict | None = None) -> dict[str, float]:
    """Median seconds of each call after a warm-up, alternating the order of the calls.

    A faults dict, when given, receives each call's median minor page faults.
    """
    import resource

    for call in calls.values():
        call()
    times = {name: [] for name in calls}
    minflt = {name: [] for name in calls}
    for i in range(repeats):
        for name in (list(calls) if i % 2 == 0 else list(calls)[::-1]):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            begin = time.perf_counter()
            calls[name]()
            times[name].append(time.perf_counter() - begin)
            minflt[name].append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    if faults is not None:
        faults.update({name: int(statistics.median(n)) for name, n in minflt.items()})
    return {name: round(statistics.median(t), 4) for name, t in times.items()}


def grid_rows(sides: dict[str, Path], repeats: int) -> dict:
    packages = {side: _load_package(f"phi4trunc_{side}", root) for side, root in sides.items()}
    h0s, vs = packages["change"].site_blocks(packages["change"].TruncationSpec(8), "even")
    sin = np.sin(np.linspace(-np.pi / 2 * 0.98, np.pi / 2 * 0.98, 80))
    grids = {
        "scan_100x100": np.linspace(-0.1, 0.02, 100) + 1j * np.linspace(-0.05, 0.05, 100)[:, None],
        "riemann_80x160": np.sqrt((1 + sin) / (1 - sin))[:, None]
        * np.exp(1j * np.linspace(-np.pi, np.pi, 160, endpoint=False)),
    }
    out = {}
    for name, lams in grids.items():
        gaps, eigvals_points = {}, {}
        for side, pkg in packages.items():
            sing, handed = pkg.singularities, []
            solve = sing.min_sector_gaps

            def count(h0s, vs, lams, solve=solve, handed=handed):
                handed.append(len(lams))
                return solve(h0s, vs, lams)

            sing.min_sector_gaps = count
            try:
                gaps[side] = sing.grid_gaps(h0s, vs, lams)
            finally:
                sing.min_sector_gaps = solve
            eigvals_points[side] = sum(handed)
        row = {"points": lams.size, "solves": len(np.unique(lams.real + 1j * np.abs(lams.imag))),
               "max_rel_diff": float(f"{np.max(np.abs(gaps['change'] - gaps['parent']) / gaps['parent']):.1e}"),
               "eigvals_points": eigvals_points}
        for workers in (1, 2):
            calls = {f"{side}_s": (lambda pkg=pkg: pkg.singularities.grid_gaps(h0s, vs, lams, workers))
                     for side, pkg in packages.items()}
            times = _median_times(calls, repeats)
            row[f"workers_{workers}"] = {**times, "ratio": round(times["change_s"] / times["parent_s"], 2)}
        out[name] = row
        print(json.dumps({name: row}), flush=True)
    return out


# (n_max, omega, level, orders): the benchmark's weak-series blocks, two wide
# n_max 64 blocks, two blocks at a rational omega, and two 40-order series
# of the projector's radius check
RS_ROWS = [(8, "1", level, 200) for level in (2, 3, 4)] + [(12, "1", level, 150) for level in (4, 5)] \
    + [(32, "1", level, 100) for level in (8, 12, 16, 20)] + [(64, "1", level, 100) for level in (8, 30)] \
    + [(16, "1/2", 0, 120), (16, "3/2", 1, 120), (8, "1", 3, 40), (8, "1", 6, 40)]


def _load_package(name: str, root: Path):
    """The phi4trunc package under root/src, imported as the module name once per process."""
    import importlib.util

    if name in sys.modules:  # a second import would leave its submodules unbound
        return sys.modules[name]

    pkg = root / "src" / "phi4trunc"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def rs_rows(sides: dict[str, Path], repeats: int) -> list[dict]:
    from fractions import Fraction

    packages = {side: _load_package(f"phi4trunc_{side}", root) for side, root in sides.items()}
    rows = []
    for n_max, omega, level, orders in RS_ROWS:
        calls = {f"{side}_s": (lambda pkg=pkg: pkg.weak_series(pkg.TruncationSpec(n_max, Fraction(omega)),
                                                              level, max_order=orders))
                 for side, pkg in packages.items()}
        series = {name: call() for name, call in calls.items()}
        residues = series["change_s"].meta["residues"]
        numerators = [c * residues["q"] ** k for k, c in enumerate(series["change_s"].coeffs)]
        row = {"n_max": n_max, "omega": omega, "level": level, "orders": orders, **_median_times(calls, repeats),
               "same": series["parent_s"].coeffs == series["change_s"].coeffs, **residues,
               "true_bits": max(abs(n.numerator).bit_length() for n in numerators[1:])}
        row["ratio"] = round(row["change_s"] / row["parent_s"], 2)
        rows.append(row)
        print(json.dumps(row), flush=True)
    return rows


# (n_max, sector, level, orders): the benchmark's eight strong-series ops and two larger blocks
STRONG_ROWS = [(8, sector, level, 40) for sector in ("even", "odd") for level in range(4)] \
    + [(16, "even", 0, 60), (32, "even", 0, 80)]


def strong_rows(sides: dict[str, Path], repeats: int) -> list[dict]:
    import mpmath as mp

    packages = {side: _load_package(f"phi4trunc_{side}", root) for side, root in sides.items()}
    rows = []
    for n_max, sector, level, orders in STRONG_ROWS:
        calls = {f"{side}_s": (lambda pkg=pkg: pkg.strong_series(pkg.TruncationSpec(n_max), level, sector, orders))
                 for side, pkg in packages.items()}
        series = {name: call() for name, call in calls.items()}
        printed = {name: [mp.nstr(c, ser.precision_digits, strip_zeros=False) for c in ser.coeffs]
                   for name, ser in series.items()}
        row = {"n_max": n_max, "sector": sector, "level": level, "orders": orders,
               "digits": series["change_s"].precision_digits, **_median_times(calls, repeats),
               "same": printed["parent_s"] == printed["change_s"],
               "certified": {name[:-2]: ser.certified_digits for name, ser in series.items()}}
        row["ratio"] = round(row["change_s"] / row["parent_s"], 2)
        rows.append(row)
        print(json.dumps(row), flush=True)
    return rows


# (n_max, sector): the benchmark's resultants (n_max 8 and 12) and the largest at n_max 16
ROOTS_ROWS = [(n_max, sector) for n_max in (8, 12, 16) for sector in ("even", "odd")]


def roots_rows(sides: dict[str, Path], repeats: int) -> list[dict]:
    packages = {side: _load_package(f"phi4trunc_{side}", root) for side, root in sides.items()}
    rows = []
    for n_max, sector in ROOTS_ROWS:
        coeffs = packages["change"].sylvester_discriminant(packages["change"].TruncationSpec(n_max), sector).coeffs
        calls = {f"{side}_s": (lambda pkg=pkg: pkg.singularities.ResultantPolynomial(coeffs, sector, n_max).roots())
                 for side, pkg in packages.items()}
        roots, horner = {}, {}
        for side, pkg in packages.items():
            sing, counted = pkg.singularities, []
            real = sing._horner

            def count(*args, real=real, counted=counted):
                counted.append(1)
                return real(*args)

            sing._horner = count
            try:
                roots[side] = np.sort_complex(calls[f"{side}_s"]())
            finally:
                sing._horner = real
            horner[side] = len(counted)
        row = {"n_max": n_max, "sector": sector, "degree": len(coeffs) - 1, **_median_times(calls, repeats),
               "horner_calls": horner, "same": roots["parent"].tobytes() == roots["change"].tobytes()}
        row["ratio"] = round(row["change_s"] / row["parent_s"], 2)
        rows.append(row)
        print(json.dumps(row), flush=True)
    return rows


def csv_rows(sides: dict[str, Path], repeats: int) -> dict:
    import importlib

    packages = {side: _load_package(f"phi4trunc_{side}", root) for side, root in sides.items()}
    writers = {side: importlib.import_module(f"phi4trunc_{side}.csvio").write_csv for side in sides}
    pkg = packages["change"]
    blocks = pkg.site_blocks(pkg.TruncationSpec(8), "even")
    scan = pkg.gap_scan(*blocks, ((-0.1, 0.02), (-0.05, 0.05)), (100, 100))
    tables = {  # as the scan and riemann commands build them
        "scan_100x100": (["re", "im", "gap"], np.column_stack(
            [np.tile(scan.re_axis(), 100), np.repeat(scan.im_axis(), 100), scan.values.ravel()])),
        "riemann_80x160": (["re", "im", "gap", "x", "y"], pkg.riemann_export(*blocks, (80, 160))),
    }
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (header, table) in tables.items():
            paths = {side: Path(tmp) / f"{side}.csv" for side in sides}
            calls = {f"{side}_s": (lambda side=side: writers[side](paths[side], header, table, {"n": 1}))
                     for side in sides}
            row = {"rows": len(table), "columns": table.shape[1], **_median_times(calls, repeats),
                   "bytes_equal": paths["parent"].read_bytes() == paths["change"].read_bytes(),
                   "bytes": paths["change"].stat().st_size}
            row["ratio"] = round(row["change_s"] / row["parent_s"], 2)
            out[name] = row
            print(json.dumps({name: row}), flush=True)
    return out


# (state_in, state_out, lam): the benchmark's two Dyson transitions at couplings of its range
DYSON_ROWS = [(2, 4, "0.0013"), (3, 5, "0.0017")]


def dyson_rows(sides: dict[str, Path], repeats: int) -> list[dict]:
    from fractions import Fraction

    packages = {side: _load_package(f"phi4trunc_{side}", root) for side, root in sides.items()}
    t = np.linspace(0.0, 1.0, 101)
    rows = []
    for state_in, state_out, lam in DYSON_ROWS:
        calls = {f"{side}_s": (lambda pkg=pkg: pkg.dyson_series(pkg.TruncationSpec(8), 6, Fraction(lam),
                                                                 state_in, state_out).trace(t))
                 for side, pkg in packages.items()}
        traces = {name: call() for name, call in calls.items()}
        terms = len(packages["change"].dyson_series(packages["change"].TruncationSpec(8), 6, Fraction(lam),
                                                    state_in, state_out).poly.terms)
        row = {"state_in": state_in, "state_out": state_out, "lam": lam, "terms": terms,
               **_median_times(calls, repeats),
               "same": traces["parent_s"].tobytes() == traces["change_s"].tobytes()}
        row["ratio"] = round(row["change_s"] / row["parent_s"], 2)
        rows.append(row)
        print(json.dumps(row), flush=True)
    return rows


# pauli_decompose sizes and count_resources registers: the benchmark's pauli
# and resources ops and the counts up to MAX_RESOURCE_QUBITS
PAULI_NMAX = (16, 64, 256)
PAULI_NQ = (7, 8, 9, 10)


def pauli_rows(sides: dict[str, Path], repeats: int) -> list[dict]:
    packages = {side: _load_package(f"phi4trunc_{side}", root) for side, root in sides.items()}

    def decompose(pkg, n_max: int):
        return pkg.pauli_decompose(pkg.single_site_hamiltonian(pkg.TruncationSpec(n_max), 0.1), n_max.bit_length() - 1)

    def bits(dec) -> tuple:
        return [(t.string, t.coeff.hex()) for t in dec.terms], dec.identity_coeff.hex(), dec.n_dropped

    # (row, the call on one side's package, the result's bits and its term count)
    cases = [({"op": "pauli_decompose", "n_max": n, "lam": 0.1}, lambda pkg, n=n: decompose(pkg, n),
              lambda dec: (bits(dec), len(dec.terms))) for n in PAULI_NMAX] \
        + [({"op": "count_resources", "n_q": n}, lambda pkg, n=n: pkg.count_resources(n),
            lambda est: ((est.n_q, est.n_nz), est.n_nz)) for n in PAULI_NQ]
    rows = []
    for row, run, key in cases:
        calls = {f"{side}_s": (lambda pkg=pkg: run(pkg)) for side, pkg in packages.items()}
        results = {name: key(call()) for name, call in calls.items()}
        faults = {}
        row.update(terms=results["change_s"][1], **_median_times(calls, repeats, faults))
        row["minor_faults_per_call"] = {name[:-2]: n for name, n in faults.items()}
        row["same"] = results["parent_s"] == results["change_s"]
        row["ratio"] = round(row["change_s"] / row["parent_s"], 2)
        rows.append(row)
        print(json.dumps(row), flush=True)
    return rows


# perturbed_projector (n_max, level, order): every level at the benchmark's projector
# op, the ends of a 24-level truncation at order 6, and two levels of a 64-level one;
# evolve_projector_method (n_max, order, lam, state_in): the benchmark's evolve op
PROJECTOR_ROWS = [(8, level, 4) for level in range(8)] + [(24, 0, 6), (24, 22, 6), (64, 10, 4), (64, 63, 4)]
EVOLVE_ROWS = [(8, 4, 0.0074, state_in) for state_in in (2, 3)]


def projector_rows(sides: dict[str, Path], repeats: int) -> list[dict]:
    packages = {side: _load_package(f"phi4trunc_{side}", root) for side, root in sides.items()}
    t = np.linspace(0.0, 20.0, 201)
    # (row, the call on one side's package, what must be equal across the sides)
    cases = [({"op": "perturbed_projector", "n_max": n, "level": level, "order": order},
              lambda pkg, n=n, level=level, order=order: pkg.perturbed_projector(pkg.TruncationSpec(n), level, order)[0],
              lambda ser: (ser.weighted, ser.energy.coeffs)) for n, level, order in PROJECTOR_ROWS] \
        + [({"op": "evolve_projector_method", "n_max": n, "order": order, "lam": lam, "state_in": s, "state_out": s + 2},
            lambda pkg, n=n, order=order, lam=lam, s=s: pkg.evolve_projector_method(pkg.TruncationSpec(n), order, lam,
                                                                                    t, s, s + 2),
            lambda amp: amp.tobytes()) for n, order, lam, s in EVOLVE_ROWS]
    rows = []
    for row, run, key in cases:
        calls = {f"{side}_s": (lambda pkg=pkg: run(pkg)) for side, pkg in packages.items()}
        results = {name: key(call()) for name, call in calls.items()}
        row.update(_median_times(calls, repeats), same=results["parent_s"] == results["change_s"])
        row["ratio"] = round(row["change_s"] / row["parent_s"], 2)
        rows.append(row)
        print(json.dumps(row), flush=True)
    return rows


PARTS = ("import", "solve", "sweep", "grid", "rs", "strong", "roots", "csv", "dyson", "pauli", "projector")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--import-samples", type=int, default=15)
    parser.add_argument("--solve-repeats", type=int, default=7)
    parser.add_argument("--grid-repeats", type=int, default=9)
    parser.add_argument("--rs-repeats", type=int, default=7)
    parser.add_argument("--parts", nargs="+", choices=PARTS, default=list(PARTS))
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": Path(__file__).resolve().parents[1]}
    kernels = {"note": "perfbench's pinned settings; import and sweep rows are fresh interpreters per "
                       "sample, alternating which side runs first; solve, grid, rs, strong, roots, csv, dyson, "
                       "pauli and projector rows are medians in this process after a warm-up, all but solve "
                       "alternating the sides"}
    if "import" in args.parts:
        kernels["import_phi4trunc_cli"] = import_rows(sides, args.import_samples)
    if "solve" in args.parts:
        kernels["lanczos_per_solve_lam_0.15_kappa_0.1"] = solve_rows(args.solve_repeats)
    if "sweep" in args.parts:
        kernels.update(sweep_rows(sides))
    if "grid" in args.parts:
        kernels["grid"] = grid_rows(sides, args.grid_repeats)
    if "rs" in args.parts:
        kernels["rs"] = rs_rows(sides, args.rs_repeats)
    if "strong" in args.parts:
        kernels["strong"] = strong_rows(sides, args.rs_repeats)
    if "roots" in args.parts:
        kernels["roots"] = roots_rows(sides, args.rs_repeats)
    if "csv" in args.parts:
        kernels["csv"] = csv_rows(sides, args.grid_repeats)
    if "dyson" in args.parts:
        kernels["dyson"] = dyson_rows(sides, args.rs_repeats)
    if "pauli" in args.parts:
        kernels["pauli"] = pauli_rows(sides, args.rs_repeats)
    if "projector" in args.parts:
        kernels["projector"] = projector_rows(sides, args.rs_repeats)
    out = {"kernels": kernels}
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
