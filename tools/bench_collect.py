"""Collect parent/change benchmark runs into one committed BENCH_<n>.json.

Usage, after running perfbench/run.py in two checkouts (the parent commit
and the change) for the same workloads and seeds:

    python3 tools/bench_collect.py --parent ../parent --change . --out BENCH_6.json \
        --runs exact-series-seed11-trace0 exact-series-seed12-trace0 ...

Each run is the record perfbench writes to `.perfbench/<run>/result.json`
(environment, correct, attempted, failed, metrics, per-op wall times); the
raw per-pass samples are left out.  `pairs` lines up the metrics of each
named run side by side.  Each side also gets `wc -l src/phi4trunc/*.py`,
its settable values (defaulted parameters and dataclass fields, counted
by `ast`, the fields also per class), the flag count of each command in
`phi4trunc.cli.COMMANDS` (each command also takes --config, --outdir and
--json), and the wall time and summary line of the Tier-1 suite, run in
that checkout.  --extra
merges the keys of a JSON object file (for example the rows of
tools/sector_bench.py) into the output.  Standard library only.
"""
from __future__ import annotations

import argparse
import ast
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


def _is_dataclass(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d  # @dataclass(frozen=True)
        if (d.id if isinstance(d, ast.Name) else getattr(d, "attr", None)) == "dataclass":
            return True
    return False


def settable_values(root: Path) -> dict:
    """Defaulted parameters of every function and fields of every dataclass in src/phi4trunc.

    The fields are also given per class, keyed module.Class.
    """
    params, per_class = 0, {}
    for path in sorted((root / "src" / "phi4trunc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                params += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                per_class[f"{path.stem}.{node.name}"] = sum(isinstance(stmt, ast.AnnAssign) for stmt in node.body)
    fields = sum(per_class.values())
    return {"defaulted_params": params, "dataclass_fields": fields, "total": params + fields,
            "fields_per_class": per_class}


def _src_env(root: Path) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))


def cli_flags(root: Path) -> dict:
    """Flag count of each command in that side's cli.COMMANDS, read in a fresh interpreter."""
    script = ("import json\nfrom phi4trunc.cli import COMMANDS\n"
              "print(json.dumps({name: len(spec) for name, (_fn, spec) in COMMANDS.items()}))")
    proc = subprocess.run([sys.executable, "-c", script], cwd=root, env=_src_env(root),
                          capture_output=True, text=True, check=True)
    per_command = json.loads(proc.stdout)
    return {"per_command": per_command, "total": sum(per_command.values())}


def tier1(root: Path) -> dict:
    begin = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=root, env=_src_env(root), capture_output=True, text=True)
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
    bench = {side: {"src_lines": line_counts(root), "settable_values": settable_values(root),
                    "cli_flags": cli_flags(root), "tier1": tier1(root),
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
