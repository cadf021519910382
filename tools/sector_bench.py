"""Measure the lattice sector solver's dense/Lanczos crossover.

Usage:

    PYTHONPATH=src python3 tools/sector_bench.py --out sector.json

`crossover` times a sweep of spectral._sector_ground over 41 couplings on
the even symmetric sector of several periodic lattices, once with
spectral.SECTOR_DENSE_DIM at the sector's size (one stacked dense
eigvalsh) and once just below it (a Lanczos sweep, each coupling started
from the previous one's ground vector), best of 3, with one BLAS thread as
in perfbench; spectral.SECTOR_DENSE_DIM is read off it.  Pass the file to
tools/bench_collect.py with --extra.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402  (after the thread pinning)
import json  # noqa: E402
import platform  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from phi4trunc import LatticeSpec, TruncationSpec, spectral  # noqa: E402
from phi4trunc.hamiltonian import _lattice_blocks  # noqa: E402

CROSSOVER = [(2, 8), (6, 3), (2, 10), (8, 3), (2, 11), (4, 5), (10, 3), (6, 4), (2, 12), (12, 3),
             (2, 13), (4, 6), (8, 4), (6, 5), (4, 7)]
LAMS = list(np.linspace(-0.3, 0.3, 41))


def best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        begin = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - begin)
    return best


def crossover() -> list[dict]:
    rows, dense_dim = [], spectral.SECTOR_DENSE_DIM
    try:
        for n_max, n_sites in CROSSOVER:
            (h0, v), _ = _lattice_blocks(LatticeSpec(n_sites, TruncationSpec(n_max), 0.1), "symmetric")
            dim, times = h0.shape[0], {}
            for path, limit in (("dense", dim), ("lanczos", dim - 1)):
                spectral.SECTOR_DENSE_DIM = limit
                spectral._sector_ground(h0, v, LAMS[:2], 1, 1e-12)  # warm-up
                times[path] = best_of(lambda: spectral._sector_ground(h0, v, LAMS, 1, 1e-12))
            rows.append({"n_max": n_max, "n_sites": n_sites, "sector_dim": dim,
                         **{f"{path}_per_lam_s": float(f"{t / len(LAMS):.3g}") for path, t in times.items()}})
            print(json.dumps(rows[-1]), flush=True)
    finally:
        spectral.SECTOR_DENSE_DIM = dense_dim
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    out = {"machine": platform.machine(), "numpy": np.__version__, "sector_crossover": crossover()}
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
