"""Kernel rows of the scipy-free lattice path: import cost, Lanczos against ARPACK, a 10-site sweep.

Usage, from the root of a checkout, with the parent commit checked out at PARENT:

    PYTHONPATH=src python3 tools/kernel_bench.py --parent PARENT --out kernels.json

`import` spawns fresh interpreters that import `phi4trunc.cli` from each
side's src/, alternating sides, and records the median wall time and peak
RSS of the import.  `solve` times, in this checkout, spectral.lanczos_lowest
against scipy's ARPACK called the way the parent's lanczos_lowest called it
(Gershgorin shift, start vector from LANCZOS_SEED, ncv 40), on the even and
odd momentum-0 sectors of the 8- and 10-site chains (n_max 4, kappa 0.1,
lam 0.15), median per solve after a warm-up, alternating the solvers.
`sweep` runs the 10-site chain's lattice_ground_energies over 11 couplings
in [-0.3, -0.05] (the k = 0 sectors; this checkout starts each coupling
from the previous one's ground vector, ARPACK started cold) in fresh
interpreters, alternating sides: wall time and peak RSS.  Every process runs with perfbench's pinned settings
(one BLAS thread, fixed mmap threshold, no numpy huge pages); the glibc
setting takes effect only in the spawned interpreters.  Pass the file to
tools/bench_collect.py with --extra.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# perfbench's pinned settings: one BLAS thread, and a fixed glibc mmap threshold and no
# numpy huge pages, without which peak RSS lands on one of several values from run to run
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "MALLOC_MMAP_THRESHOLD_": "131072", "NUMPY_MADVISE_HUGEPAGE": "0"}
os.environ.update(PINNED)

import numpy as np  # noqa: E402  (after the thread pinning)

IMPORT = ("import resource, sys, time\n"
          "t = time.perf_counter()\n"
          "import phi4trunc.cli\n"
          "print(time.perf_counter() - t, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)\n")
SWEEP = ("import resource, time\n"
         "import numpy as np\n"
         "from phi4trunc import LatticeSpec, TruncationSpec, lattice_ground_energies\n"
         "t = time.perf_counter()\n"
         "e = lattice_ground_energies(LatticeSpec(10, TruncationSpec(4), 0.1), np.linspace(-0.3, -0.05, 11))\n"
         "print(time.perf_counter() - t, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, e[0, 0])\n")


def alternate(sides: dict[str, Path], script: str, samples: int) -> dict[str, list[list[float]]]:
    """The numbers script prints, per side, from fresh interpreters, alternating which side runs first."""
    got = {side: [] for side in sides}
    for i in range(samples):
        for side in (list(sides) if i % 2 == 0 else list(sides)[::-1]):
            env = {**os.environ, **PINNED, "PYTHONPATH": str(sides[side] / "src")}
            out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                                 check=True)
            got[side].append([float(x) for x in out.stdout.split()])
    return got


def import_rows(sides: dict[str, Path], samples: int) -> dict:
    return {side: {"import_s": round(statistics.median(r[0] for r in rows), 4),
                   "import_rss_mb": round(statistics.median(r[1] for r in rows), 1), "samples": samples}
            for side, rows in alternate(sides, IMPORT, samples).items()}


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
    for n_sites in (8, 10):
        blocks = _lattice_blocks(LatticeSpec(n_sites, TruncationSpec(4), 0.1), "momentum")
        for parity, (h0, v) in zip(("even", "odd"), blocks):
            data = h0.data + lam * v.data
            ours = SparseOperator(CSRMatrix(h0.indptr, h0.indices, data))
            scipy_matrix = sp.csr_matrix((data, h0.indices, h0.indptr), shape=h0.shape)
            solvers = {"numpy_lanczos_s": lambda: lanczos_lowest(ours, 1).eigenvalues,
                       "arpack_s": lambda: arpack_lowest(scipy_matrix, 1)}
            values = {name: solve() for name, solve in solvers.items()}  # warm-up
            times = {name: [] for name in solvers}
            for i in range(repeats):
                for name in (list(solvers) if i % 2 == 0 else list(solvers)[::-1]):
                    begin = time.perf_counter()
                    solvers[name]()
                    times[name].append(time.perf_counter() - begin)
            row = {"n_sites": n_sites, "sector": parity, "dim": h0.shape[0], "nnz": h0.nnz,
                   **{name: round(statistics.median(t), 4) for name, t in times.items()}}
            row["ratio"] = round(row["numpy_lanczos_s"] / row["arpack_s"], 2)
            e, ref = values["numpy_lanczos_s"][0], values["arpack_s"][0]
            row["e0_rel_diff"] = float(f"{abs(e - ref) / abs(ref):.1e}")
            rows.append(row)
            print(json.dumps(row), flush=True)
    return rows


def sweep_rows(sides: dict[str, Path], samples: int) -> dict:
    return {side: {"wall_s": round(statistics.median(r[0] for r in rows), 2),
                   "peak_rss_mb": round(statistics.median(r[1] for r in rows), 1),
                   "e0_first": rows[0][2], "samples": samples}
            for side, rows in alternate(sides, SWEEP, samples).items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--import-samples", type=int, default=15)
    parser.add_argument("--solve-repeats", type=int, default=7)
    parser.add_argument("--sweep-samples", type=int, default=3)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": Path(__file__).resolve().parents[1]}
    out = {"kernels_13": {
        "note": "perfbench's pinned settings; import and sweep rows are fresh interpreters per sample, "
                "alternating which side runs first",
        "import_phi4trunc_cli": import_rows(sides, args.import_samples),
        "lanczos_per_solve_lam_0.15_kappa_0.1": solve_rows(args.solve_repeats),
        "sweep_10_sites_11_couplings_lam_le_0": sweep_rows(sides, args.sweep_samples),
    }}
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
