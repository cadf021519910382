"""One benchmark pass in a fresh interpreter.

Usage: python3 perfbench/child.py PASS_DIR TRACED

Imports `phi4trunc.cli`, prints `ready` on stdout (the parent times set-up
up to that line), then runs each argv of PASS_DIR/ops.json through
`phi4trunc.cli.main`, one after another, with outputs in PASS_DIR/opNN.
Per op it records the wall time, exit code, exception and captured
warnings; with TRACED=1 it also records spans around the package's public
functions.  The speed probe (probe.py) runs before each op and after the
last one, as often at each of these slots as makes about `probe.PER_PASS`
samples in the pass; an import-only pass runs no probe.  Everything is
written to PASS_DIR/result.json at the end.
"""
import json
import sys
import time
import warnings
from pathlib import Path


def main() -> None:
    from phi4trunc import cli

    print("ready", flush=True)
    from probe import PER_PASS, probe

    pass_dir, traced = Path(sys.argv[1]), sys.argv[2] == "1"
    ops = json.loads((pass_dir / "ops.json").read_text())
    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    caught: list[str] = []
    warnings.showwarning = lambda message, category, *rest, **kw: caught.append(
        f"{category.__name__}: {message}")
    records = []
    repeats = max(1, round(PER_PASS / (len(ops) + 1))) if ops else 0
    probes = []
    for i, argv in enumerate(ops):
        probes += [probe() for _ in range(repeats)]
        argv = argv + [f"--outdir={pass_dir / f'op{i:02d}'}"]
        caught.clear()
        error = None
        span = tracer.open(f"cli.{argv[0]}") if tracer else None
        start = time.perf_counter_ns()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed op, not a failed pass
            rc, error = 1, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter_ns() - start
        if span:
            tracer.close(span)
        records.append({"wall_ns": wall, "rc": rc, "error": error, "warnings": list(caught)})
    probes += [probe() for _ in range(repeats)]
    result = {"ops": records, "probe_ns": probes}
    if tracer:
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
    (pass_dir / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main()
