"""SHA-256 digests of what a fixed list of CLI ops writes: the byte rule as a file.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 tools/csv_digests.py [--out tests/csv_digests.json]

The ops are the 63 ops of the three benchmark workloads at seeds 1-3,
generated by perfbench/workloads.py (loaded unchanged), and OFF_BENCHMARK.
They run through phi4trunc.cli.main one after another in this process,
each in an output directory of its own, under one BLAS thread as in the
benchmark (OpenBLAS's eigvalsh of a few hundred states depends on its
thread count).  Every CSV file gets the SHA-256 of its bytes, and every
manifest one over its config, status, run.warnings and the names of its
outputs.  The file also records the numpy version and
the BLAS: the exact outputs (series, resultants, projectors, resource
counts) do not depend on them, but the float ones may.
tests/test_csv_digests.py compares a fresh run of this script with the
committed file; a change that moves bytes on purpose regenerates it in the
same commit.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import tempfile
from pathlib import Path

os.environ.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
# off the benchmark: spectra at n_max 18, 20, 26 and 28 (where a phi^4 formed
# by BLAS products once lost its symmetry), complex and strong couplings,
# matrix dumps, the full grid commands, a 2-site chain and an open chain
# with a negative hop, the qubit commands at larger sizes, and a few more
# paths: a lanczos k > 1, a Trotter evolution, every register size of
# resources, a weak series off omega 1; pauli at every n_max from 2 to 256,
# the projector past n_max 21, where sqrt(k!) leaves int64, and a Dyson
# amplitude whose sqrt(out!/in!) overflows a double quotient of factorials;
# weak series at the edges of the residue recursion: 2200 orders, which
# narrow its primes past 27 bits, the widest block, two omegas off 1, and
# order zero; the projector and its evolution at order 6 off omega 1, with
# lam inside the radius
OFF_BENCHMARK = [
    ["spectrum", "--nmax=28", "--lam=0.2-0.1j"],
    ["spectrum", "--nmax=28", "--lam=0.2-0.1j", "--sector=even"],
    *[args for n_max in (18, 20, 26) for args in (
        ["spectrum", f"--nmax={n_max}", "--lam=0.3"],
        ["spectrum", f"--nmax={n_max}", "--domain=strong", "--lam=0.5", "--sector=odd"],
        ["spectrum", f"--nmax={n_max}", "--lam=0.1-0.2j", "--dump-matrix=1"],
    )],
    ["riemann", "--nmax=18", "--jobs=2"],
    ["scan", "--nmax=10", "--res=60,60", "--jobs=2"],
    ["spectrum", "--nsites=2", "--nmax=18", "--kappa=0.1", "--lam=0.3", "--dump-matrix=1"],
    ["lattice-sweep", "--nsites=3", "--nmax=4", "--boundary=open", "--kappas=-0.1,0.2",
     "--lam-grid=-0.3,0.1,21"],
    ["pauli", "--nmax=128", "--lam=0.05"],
    ["trotter", "--nmax=32", "--lam=0.05"],
    ["evolve", "--nmax=18", "--lam=0.2", "--nt=51"],
    ["evolve", "--method=trotter", "--nmax=16", "--lam=0.05", "--steps=100"],
    ["spectrum", "--nsites=6", "--nmax=4", "--kappa=0.1", "--lam=0.15", "--method=lanczos", "--k=3"],
    ["resources", "--nq=1,2,3,4,5,6,7,8,9,10"],
    ["series", "--nmax=8", "--omega=1.1", "--level=2", "--orders=200"],
    *[["pauli", f"--nmax={n_max}", "--lam=0.05"] for n_max in (2, 4, 8, 16, 32, 64, 256)],
    ["projector", "--nmax=24", "--lam=0.01"],
    ["evolve", "--method=projector", "--nmax=24", "--lam=0.01"],
    ["evolve", "--method=dyson", "--nmax=256", "--state-in=0", "--state-out=200", "--order=1"],
    ["series", "--nmax=4", "--level=0", "--orders=2200"],
    ["series", "--nmax=64", "--level=31", "--orders=60"],
    ["series", "--omega=0.5", "--nmax=8", "--level=3", "--orders=120"],
    ["radius", "--nmax=16", "--omega=1.5", "--level=7", "--orders=150", "--fit=75,150"],
    ["series", "--orders=0"],
    ["projector", "--nmax=10", "--omega=1.1", "--level=3", "--order=6", "--lam=0.02", "--entry=3,1"],
    ["evolve", "--method=projector", "--omega=0.5", "--nmax=12", "--order=6", "--lam=0.002"],
]


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def ops() -> dict[str, list[str]]:
    """Each op's argv under its label: workload/seed/index, or off/index, then the argv."""
    workloads = _workloads()
    labelled = {}
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            for i, op in enumerate(workloads.generate(name, seed)):
                if "jobs" in op["params"]:  # the scan's min(2, cpu count), fixed so the labels are too
                    op = workloads.op(op["command"], **{**op["params"], "jobs": 2})
                labelled[f"{name}/{seed}/{i:02d} {' '.join(op['argv'])}"] = op["argv"]
    for i, argv in enumerate(OFF_BENCHMARK):
        labelled[f"off/{i:02d} {' '.join(argv)}"] = argv
    return labelled


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests() -> dict[str, dict[str, str]]:
    """Per op label: the SHA-256 of each CSV file it wrote, and of its manifest's deterministic part."""
    from phi4trunc.cli import main

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (label, argv) in enumerate(ops().items()):
            outdir = Path(tmp) / f"op{i:03d}"
            main(argv + [f"--outdir={outdir}"])
            manifest = json.loads((outdir / "manifest.json").read_text())
            kept = {"config": manifest["config"], "status": manifest["status"],
                    "warnings": manifest["run"]["warnings"],
                    "outputs": [Path(path).name for path in manifest["outputs"]]}
            out[label] = {"manifest": _sha(json.dumps(kept, sort_keys=True, default=str).encode()),
                          **{path.name: _sha(path.read_bytes()) for path in sorted(outdir.glob("*.csv"))}}
    return out


def environment() -> dict[str, str]:
    """The numpy version and the BLAS it was built with, as a manifest's run.environment names them."""
    from phi4trunc.cli import _environment

    return {key: _environment()[key] for key in ("numpy", "blas")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, default=ROOT / "tests" / "csv_digests.json")
    args = parser.parse_args(argv)
    record = {**environment(), "digests": digests()}
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"{sum(map(len, record['digests'].values()))} digests of {len(record['digests'])} ops in {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
