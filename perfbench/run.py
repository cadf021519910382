"""phi4trunc benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exact-series --seed 1 --seconds 35 --trace 0

A run repeats one pass of the workload's op sequence (see workloads.py)
until --seconds have gone by.  Each pass is a fresh interpreter
(perfbench/child.py) that imports `phi4trunc.cli` and calls
`phi4trunc.cli.main(argv)` for every op, one after another: a closed loop,
one op at a time, BLAS and OpenMP pinned to one thread.  Passes of one run
are identical, so the first pass's outputs are checked against independent
paths (checks.py) and every later pass's CSV files must equal them byte
for byte.  Checks run after the timed passes.

--trace 0 prints the end-to-end metrics:
  wall_s       summed wall time of all ops, each op the median over the
               passes, at reference speed (below)
  setup_s      median time from spawning an interpreter until phi4trunc.cli
               is imported, over every pass plus extra import-only spawns,
               at reference speed
  peak_rss_mb  largest ru_maxrss of a pass process
Other tenants of the host slow it in bursts of seconds to a minute, and its
speed differs from one period to the next.  Each pass runs a fixed speed
probe (probe.py) before every op and after the last.  A pass's speed is its
median probe time over the probe's reference time; every op time of the
pass is divided by it before the median over passes is taken, and setup_s
is divided by the median over all passes' probes.  Both then read as
seconds at the speed of the reference machine.  The measured times and the
speeds go on the environment line.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of the traced ones (spans.py), with the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the environment.
Run records and spans go to .perfbench/ in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import probe
import spans
import workloads

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 7
RUN_BUDGET_S = 150.0  # a run must end within 180 s; children are killed past this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PINNED = (*THREAD_VARS, "PYTHONHASHSEED", "MALLOC_MMAP_THRESHOLD_", "NUMPY_MADVISE_HUGEPAGE")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def child_env(root: Path) -> dict:
    """The environment of a pass: package on the path, one BLAS thread, no config overrides."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PHI4TRUNC_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    # Peak RSS must not depend on the machine's memory state: glibc's dynamic
    # mmap threshold and numpy's huge-page requests both make the 8-site
    # Lanczos peak land at 153 or 166 MB from run to run; pinned, it repeats.
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_pass(root: Path, pass_dir: Path, ops: list[dict], traced: bool, timeout: float) -> dict:
    """Spawn one child over the ops; returns set-up time, peak RSS and the child's records."""
    pass_dir.mkdir(parents=True)
    (pass_dir / "ops.json").write_text(json.dumps([o["argv"] for o in ops]))
    cmd = [sys.executable, str(HERE / "child.py"), str(pass_dir), "1" if traced else "0"]
    start = time.perf_counter()
    with open(pass_dir / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(cmd, cwd=root, env=child_env(root), stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
    result = None
    if ready == b"ready\n" and proc.returncode == 0:
        result = json.loads((pass_dir / "result.json").read_text())
    else:
        tail = (pass_dir / "stderr.txt").read_text(errors="replace")[-2000:]
        print(f"pass {pass_dir.name} exited {proc.returncode}:\n{tail}", file=sys.stderr)
    return {"dir": pass_dir, "traced": traced, "setup_s": setup, "duration_s": time.perf_counter() - start,
            "rss_mb": usage.ru_maxrss / 1024.0, "result": result}


def _csv_bodies(outdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(outdir.glob("*.csv"))}


def check_passes(ops: list[dict], passes: list[dict]) -> list[list[str | None]]:
    """Per pass and op: None if the op succeeded and its outputs are right, else why not."""
    import checks

    verdicts = []
    reference: list[dict[str, bytes] | None] = [None] * len(ops)
    for n, p in enumerate(passes):
        row = []
        for i, op in enumerate(ops):
            outdir = p["dir"] / f"op{i:02d}"
            rec = p["result"]["ops"][i] if p["result"] else None
            if rec is None:
                row.append("pass process failed")
            elif rec["rc"] != 0 or rec["error"]:
                row.append(f"exit {rec['rc']} {rec['error'] or ''}".strip())
            elif n == 0:
                why = checks.check_op(op, outdir)
                reference[i] = _csv_bodies(outdir) if why is None else None
                row.append(why)
            elif reference[i] is None:
                row.append("first pass of this op failed its check")
            else:
                same = _csv_bodies(outdir) == reference[i]
                row.append(None if same else "outputs differ from the first pass")
        verdicts.append(row)
    return verdicts


def traced_metrics(p: dict) -> dict[str, float]:
    """Layer metrics of one traced pass, plus counts read from its outputs."""
    import checks

    result = p["result"]
    m = spans.layer_metrics(result["spans"], result["counts"])
    m["cli.warnings"] = sum(len(r["warnings"]) for r in result["ops"])
    refined = sum(len(checks.read_csv(f)[1]) for f in p["dir"].glob("op*/scan_refined.csv"))
    calls = m.get("singularities.refine.calls", 0)
    m["singularities.refine.useful_ratio"] = refined / calls if calls else 0.0
    m["trace.wall_s"] = pass_wall(p)
    # share of the wall time spent inside named spans, i.e. outside cli glue
    named = sum(v for k, v in m.items() if k.count(".") == 1 and k.endswith(".self_s") and k != "cli.self_s")
    m["trace.coverage"] = named / m["trace.wall_s"]
    return m


def pass_wall(p: dict) -> float:
    return sum(r["wall_ns"] for r in p["result"]["ops"]) / 1e9


def op_walls(passes: list[dict], scaled: bool = False) -> list[float]:
    """Each op's median wall time over the passes, in seconds.

    Summing per-op medians keeps a burst of machine noise during one op of
    one pass out of the total.  With `scaled`, each pass's times are first
    divided by that pass's speed, so a pass run during a slow stretch counts
    at reference speed.
    """
    records = [(p["result"]["ops"], pass_speed(p) if scaled else 1.0) for p in passes]
    return [statistics.median(r[i]["wall_ns"] / speed for r, speed in records) / 1e9
            for i in range(len(records[0][0]))]


def pass_speed(p: dict) -> float:
    """A pass's median probe time over the probe's reference time."""
    return statistics.median(p["result"]["probe_ns"]) / 1e9 / probe.REFERENCE_S


def environment(root: Path, workload: str, seed: int) -> dict:
    import mpmath
    import numpy
    import scipy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))
    return {
        "workload": workload, "seed": seed, "commit": commit,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "mpmath": mpmath.__version__, "blas": blas,
        "pinned_env": {k: v for k, v in child_env(root).items() if k in PINNED}, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu, "src_lines": src_lines,
    }


def _median_dict(dicts: list[dict]) -> dict:
    keys = set().union(*dicts)
    return {k: statistics.median(d.get(k, 0.0) for d in dicts) for k in keys}


def run_benchmark(root: Path, workload: str, seed: int, seconds: float, trace: bool,
                  small: bool = False) -> dict:
    """Run passes for `seconds`, check them, and return the result record."""
    ops = workloads.generate(workload, seed, small)
    run_dir = root / ".perfbench" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    begin = time.perf_counter()

    def timeout() -> float:
        return max(5.0, RUN_BUDGET_S - (time.perf_counter() - begin))

    # a full run takes every op's median over at least two passes; a traced
    # run needs an untraced and a traced pass
    min_passes = 2 if trace or not small else 1
    passes = []
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(root, run_dir / f"pass{len(passes):02d}", ops, traced, timeout()))
        elapsed = time.perf_counter() - begin
        typical = statistics.median(p["duration_s"] for p in passes)
        if elapsed + typical > seconds and len(passes) >= min_passes:
            break
    setup = [p["setup_s"] for p in passes]
    while not trace and len(setup) < SETUP_SAMPLES:
        setup.append(run_pass(root, run_dir / f"setup{len(setup):02d}", [], False, timeout())["setup_s"])

    verdicts = check_passes(ops, passes)
    failures = [(p["dir"].name, ops[i]["command"], why)
                for p, row in zip(passes, verdicts) for i, why in enumerate(row) if why]
    for where, command, why in failures:
        print(f"FAILED {where} {command}: {why}", file=sys.stderr)
    complete = [p for p in passes if p["result"]]
    plain = [p for p in complete if not p["traced"]]
    metrics: dict[str, dict] = {}
    measured: dict[str, float] = {}
    if plain and trace:
        traced = [p for p in complete if p["traced"]]
        if traced:
            values = _median_dict([traced_metrics(p) for p in traced])
            values["trace.wall_s"] = sum(op_walls(traced))
            values["trace.overhead_s"] = values["trace.wall_s"] - sum(op_walls(plain))
            metrics = {k: {"value": values.get(k, 0.0), "unit": unit} for k, unit in spans.PER_LAYER.items()}
    elif plain:
        probes = [t for p in plain for t in p["result"]["probe_ns"]]
        measured = {"wall_s": sum(op_walls(plain)), "setup_s": statistics.median(setup),
                    "speed": statistics.median(probes) / 1e9 / probe.REFERENCE_S,
                    "pass_speeds": [pass_speed(p) for p in plain],
                    "probe_samples": len(probes), "passes": len(plain)}
        values = {"wall_s": sum(op_walls(plain, scaled=True)),
                  "setup_s": measured["setup_s"] / measured["speed"],
                  "peak_rss_mb": max(p["rss_mb"] for p in plain)}
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    attempted = len(ops) * len(passes)
    record = {"correct": not failures and bool(metrics), "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    if trace:
        (run_dir / "spans.json").write_text(json.dumps(
            [p["result"]["spans"] for p in complete if p["traced"]]))
    for p in passes:
        shutil.rmtree(p["dir"], ignore_errors=True)
    env = environment(root, workload, seed)
    per_op = [{"argv": op["argv"], "wall_s": wall} for op, wall in zip(ops, op_walls(plain))] if plain else []
    env["measured"] = measured
    raw = [{"ops_ns": [r["wall_ns"] for r in p["result"]["ops"]], "probe_ns": p["result"]["probe_ns"]}
           for p in plain]
    (run_dir / "result.json").write_text(json.dumps({"environment": env, **record, "ops": per_op,
                                                     "passes": raw}, indent=1))
    return {"environment": env, **record}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "phi4trunc" / "cli.py").is_file():
        print(f"error: no phi4trunc sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    record = run_benchmark(root, args.workload, args.seed, args.seconds, bool(args.trace))
    env = record.pop("environment")
    print(json.dumps({"environment": env}))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
