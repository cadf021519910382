"""What the benchmark's traced pass reads off the package.

perfbench/spans.py wraps the package's public functions and methods by
name and reads its work counts off their arguments and results (for
instance `DysonAmplitude.poly.terms`).  This runs every workload's
shrunken ops through `cli.main` under its Tracer, in a fresh interpreter
as the benchmark does, so a refactor that breaks what the tracer reads
fails here.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
from phi4trunc import cli
import spans, workloads

# record the keys each counter returns; the tracer adds them to its counts
counted = sorted(set(spans.COUNTERS) | set(spans.MAXIMA))
reached = {}
for table in (spans.COUNTERS, spans.MAXIMA):
    for name, counter in list(table.items()):
        def record(first, result, name=name, counter=counter):
            out = counter(first, result)
            reached.setdefault(name, set()).update(out)
            return out
        table[name] = record
tracer = spans.Tracer()
spans.install(tracer)
codes = {}
for name in workloads.WORKLOADS:
    for i, op in enumerate(workloads.generate(name, 7, small=True)):
        codes[f"{name}:{i}:{op['command']}"] = cli.main(op["argv"] + [f"--outdir={sys.argv[1]}/{name}/op{i:02d}"])
print(json.dumps({"codes": codes, "counted": counted, "reached": {k: sorted(v) for k, v in reached.items()},
                  "counts": tracer.counts}))
"""


def test_every_workload_op_runs_traced_and_reaches_its_counters(tmp_path):
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=600)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["codes"] and all(code == 0 for code in got["codes"].values()), got["codes"]
    # every counted function but two no workload op calls: the JSON mirror
    # (no --json) and the full lattice build (the lattice ops build sector blocks)
    unreached = {"csvio.mirror_csv_as_json", "hamiltonian.lattice_hamiltonian"}
    assert set(got["reached"]) == set(got["counted"]) - unreached
    for name, keys in got["reached"].items():
        assert keys and set(keys) <= set(got["counts"]), name
    assert got["counts"]["dyson.terms"] > 0
