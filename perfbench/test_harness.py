"""Self-tests of the benchmark harness.

Run from the repository root with `python3 -m pytest perfbench -q`.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_shrunken_run_has_no_failed_op(workload):
    record = run.run_benchmark(ROOT, workload, seed=7, seconds=0, trace=False, small=True)
    assert record["failed"] == 0 and record["correct"]
    assert record["attempted"] == len(workloads.generate(workload, 7, small=True))
    assert set(record["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in record["metrics"].values())
    # probes before every op and after the last
    measured = record["environment"]["measured"]
    assert measured["passes"] == 1
    slots = record["attempted"] + 1
    assert measured["probe_samples"] == slots * max(1, round(probe.PER_PASS / slots))
    # one pass: its speed is the run's
    assert measured["pass_speeds"] == [pytest.approx(measured["speed"])]
    for name in ("wall_s", "setup_s"):
        assert record["metrics"][name]["value"] == pytest.approx(measured[name] / measured["speed"])


def test_every_command_is_checked():
    commands = {op["command"] for name in workloads.WORKLOADS for op in workloads.generate(name, 0)}
    assert commands == set(checks.CHECKS) == set(spans.COMMANDS)


def test_corrupted_rational_fails_its_check(tmp_path):
    op = workloads.op("series", nmax=4, level=0, orders=12)
    p = run.run_pass(ROOT, tmp_path / "pass", [op], traced=False, timeout=60)
    assert run.check_passes([op], [p]) == [[None]]
    csv = tmp_path / "pass" / "op00" / "series.csv"
    lines = csv.read_text().splitlines()
    order, num, den = lines[-1].split(",")
    lines[-1] = f"{order},{int(num) + 1},{den}"
    csv.write_text("\n".join(lines) + "\n")
    [[why]] = run.check_passes([op], [p])
    assert why and "char-poly" in why


def test_later_pass_must_match_the_first(tmp_path):
    op = workloads.op("series", nmax=4, level=0, orders=12)
    first = run.run_pass(ROOT, tmp_path / "a", [op], traced=False, timeout=60)
    second = run.run_pass(ROOT, tmp_path / "b", [op], traced=True, timeout=60)
    assert run.check_passes([op], [first, second]) == [[None], [None]]
    (tmp_path / "b" / "op00" / "series.csv").write_text("order,numerator,denominator\n")
    assert run.check_passes([op], [first, second])[1][0] == "outputs differ from the first pass"


def test_self_time_is_exact_on_a_synthetic_nest():
    nest = [
        ["cli.series", 0, 1000, -1],
        ["series.weak_series", 100, 700, 0],
        ["algebra.rs_rational_series", 150, 600, 1],
        ["algebra.weighted_sector_blocks", 610, 640, 1],
        ["csvio.write_csv", 800, 950, 0],
    ]
    assert spans.self_times(nest) == [250, 120, 450, 30, 150]
    assert sum(spans.self_times(nest)) == 1000
    m = spans.layer_metrics(nest, {"algebra.rs.coeffs": 13})
    assert m["cli.self_s"] == pytest.approx(250e-9) and m["cli.series.wall_s"] == pytest.approx(1000e-9)
    assert m["algebra.self_s"] == pytest.approx(480e-9) and m["algebra.rs.self_s"] == pytest.approx(450e-9)
    assert m["series.weak.calls"] == 1 and m["algebra.rs.coeffs"] == 13


def test_traced_run_covers_the_wall_time():
    record = run.run_benchmark(ROOT, "exact-series", seed=7, seconds=0, trace=True, small=True)
    assert record["failed"] == 0 and record["correct"]
    metrics = {k: v["value"] for k, v in record["metrics"].items()}
    assert set(metrics) == set(spans.PER_LAYER)
    assert metrics["trace.coverage"] >= 0.9
    # cli imports weak_series by name; the traced run must still see those calls
    assert metrics["series.weak.calls"] >= 4 and metrics["algebra.rs.coeffs"] > 0
    assert metrics["projector.calls"] >= 1 and metrics["dyson.terms"] > 0


def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact-series",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and not out.stdout.strip()
