"""Measure the lattice momentum-sector solver: dense/Lanczos crossover and 8-site checks.

Usage:

    PYTHONPATH=src python3 tools/sector_bench.py --out sector.json

`crossover` times, per coupling, dense eigvalsh (via spectral.dense_spectrum)
against spectral.lanczos_lowest on the even momentum-0 sector of several
lattices (best of 3 over 5 couplings); spectral.SECTOR_DENSE_DIM is read off
it.  `checks` compares spectral.lattice_ground_energies with full-space
Lanczos on the 8-site, n_max = 4 chain over the checked kappa and lambda
ranges (spectral.SECTOR_CHECKED).  Pass the file to tools/bench_collect.py
with --extra.
"""
from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

import numpy as np

from phi4trunc import LatticeSpec, TruncationSpec, lattice_hamiltonian
from phi4trunc.hamiltonian import CSRMatrix, SparseOperator, _lattice_blocks
from phi4trunc.oscillator import OperatorMatrix
from phi4trunc.spectral import dense_spectrum, lanczos_lowest, lattice_ground_energies

CROSSOVER = [(2, 8), (6, 3), (2, 10), (8, 3), (2, 11), (4, 5), (6, 4), (12, 3), (4, 6),
             (8, 4), (6, 5), (4, 7)]
CHECK_KAPPAS = [0.01, 0.05, 0.1, 0.2, 0.5, 1.0]
CHECK_LAMS = [0.01, 0.1, 0.5, 1.0, 2.0]


def best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        begin = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - begin)
    return best


def crossover() -> list[dict]:
    dense_spectrum(OperatorMatrix(np.eye(8), hermitian=True))
    eye = np.arange(65, dtype=np.int32)
    lanczos_lowest(SparseOperator(CSRMatrix(eye, eye[:-1], np.arange(64.0))), 1)
    rows = []
    for n_max, n_sites in CROSSOVER:
        (h0, v), _ = _lattice_blocks(LatticeSpec(n_sites, TruncationSpec(n_max), 0.1), "momentum")
        d0, dv = h0.toarray(), v.toarray()
        lams = np.linspace(-0.3, 0.3, 5)
        dense = best_of(lambda: [dense_spectrum(OperatorMatrix(d0 + lam * dv, hermitian=True))
                                 for lam in lams])
        lanczos = best_of(lambda: [lanczos_lowest(SparseOperator(CSRMatrix(h0.indptr, h0.indices,
                                                                           h0.data + lam * v.data)), 1)
                                   for lam in lams])
        rows.append({"n_max": n_max, "n_sites": n_sites, "sector_dim": h0.shape[0],
                     "dense_per_lam_s": float(f"{dense / len(lams):.3g}"),
                     "lanczos_per_lam_s": float(f"{lanczos / len(lams):.3g}")})
        print(json.dumps(rows[-1]), flush=True)
    return rows


def checks() -> list[dict]:
    rows = []
    for kappa in CHECK_KAPPAS:
        for lam in CHECK_LAMS:
            spec = LatticeSpec(8, TruncationSpec(4), kappa, lam)
            sector = lattice_ground_energies(spec, [lam])[0, 0]
            full = lanczos_lowest(lattice_hamiltonian(spec), 1).eigenvalues[0]
            rows.append({"kappa": kappa, "lam": lam, "sector": float(sector), "full": float(full),
                         "diff": float(f"{sector - full:.2e}")})
            print(json.dumps(rows[-1]), flush=True)
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    out = {"machine": platform.machine(), "numpy": np.__version__,
           "sector_crossover": crossover(), "sector_checks": checks()}
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
