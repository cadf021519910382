"""Collect parent/change benchmark runs into one committed BENCH_<n>.json.

Usage, after running perfbench/run.py in two checkouts (the parent commit
and the change) for the same workloads and seeds:

    python3 tools/bench_collect.py --parent ../parent --change . --out BENCH_6.json \
        --runs exact-series-seed11-trace0 exact-series-seed12-trace0 ...

Each run is the record perfbench writes to `.perfbench/<run>/result.json`
(environment, correct, attempted, failed, metrics, per-op wall times); the
raw per-pass samples are left out.  `pairs` lines up the metrics of each
named run side by side.  Each side also gets `wc -l src/phi4trunc/*.py`
and the wall time and summary line of the Tier-1 suite, run in that
checkout.  --extra merges the keys of a JSON object file (for example the
rows of tools/sector_bench.py) into the output.  Standard library only.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def line_counts(root: Path) -> dict[str, int]:
    """Newline count of every module, as `wc -l src/phi4trunc/*.py` prints it."""
    counts = {p.name: p.read_bytes().count(b"\n") for p in sorted((root / "src" / "phi4trunc").glob("*.py"))}
    return {**counts, "total": sum(counts.values())}


def tier1(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    begin = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=root, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - begin
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": round(wall, 2), "summary": lines[-1] if lines else "", "exit": proc.returncode}


def runs(root: Path) -> dict[str, dict]:
    out = {}
    for path in sorted((root / ".perfbench").glob("*/result.json")):
        record = json.loads(path.read_text())
        record.pop("passes", None)
        out[path.parent.name] = record
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--runs", nargs="+", required=True, help="run directory names under .perfbench/")
    parser.add_argument("--extra", type=Path, help="JSON object whose keys are added to the output")
    args = parser.parse_args(argv)

    sides = {"parent": args.parent, "change": args.change}
    found = {name: runs(root) for name, root in sides.items()}
    missing = [f"{side}:{n}" for side in sides for n in args.runs if n not in found[side]]
    if missing:
        print(f"error: no result.json for {', '.join(missing)}", file=sys.stderr)
        return 2
    bench = {side: {"src_lines": line_counts(root), "tier1": tier1(root),
                    "runs": {n: found[side][n] for n in args.runs}}
             for side, root in sides.items()}
    bench["pairs"] = [
        {"run": n, **{side: {k: m["value"] for k, m in found[side][n]["metrics"].items()}
                      for side in sides}}
        for n in args.runs
    ]
    if args.extra:
        bench.update(json.loads(args.extra.read_text()))
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {args.out}: {len(args.runs)} runs per side")
    return 0


if __name__ == "__main__":
    sys.exit(main())
