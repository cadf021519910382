"""Spans around the package's public functions, and the layer metrics they give.

The traced child process wraps every public function of every module at
each name it is bound to (`cli` does `from .series import weak_series`, so
patching only the defining module would miss the CLI's calls), records a
span (name, start, end, parent) per call in memory, and writes the spans out
when the pass ends.  A span's self time is its duration minus the
durations of its direct children.
"""
from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
import types
from collections import defaultdict

MODULES = ("oscillator", "hamiltonian", "spectral", "algebra", "series", "projector",
           "dyson", "singularities", "pauli", "csvio")
# per-element helpers, called 10^4-10^5 times a run: a span around each would
# cost more than the work inside it and distort the spans around them
SKIP = {"csvio.fmt", "singularities.mollweide_project", "singularities.lambda_to_sphere",
        "hamiltonian.parity_of_index"}
METHODS = {"singularities": ("ResultantPolynomial.roots",), "dyson": ("DysonAmplitude.trace",)}

# spans whose self time and call count are reported as a kernel of their layer
KERNELS = {
    "algebra.rs_rational_series": "algebra.rs",
    "algebra.char_poly_fractions": "algebra.charpoly",
    "algebra.sector_char_poly": "algebra.charpoly",
    "algebra.bareiss_det_poly": "algebra.bareiss",
    "series.weak_series": "series.weak",
    "series.strong_series": "series.strong",
    "projector.perturbed_projector": "projector",
    "dyson.dyson_series": "dyson",
    "singularities.ResultantPolynomial.roots": "singularities.roots",
    "singularities.sylvester_discriminant": "singularities.resultant",
    "singularities.gap_scan": "singularities.gap_scan",
    "singularities.refine_exceptional_point": "singularities.refine",
    "pauli.count_resources": "pauli.resources",
    "pauli.pauli_decompose": "pauli.decompose",
    "pauli.simulate_trotter": "pauli.trotter_sim",
    "pauli.trotter_step_unitary": "pauli.step_unitary",
    "hamiltonian.lattice_hamiltonian": "hamiltonian.lattice",
    "spectral.lanczos_lowest": "spectral.lanczos",
    "spectral.dense_spectrum": "spectral.dense",
}


def _bits(coeffs) -> int:
    return sum(c.numerator.bit_length() + c.denominator.bit_length() for c in coeffs)


def _written(_first, path) -> dict:
    return {"csvio.files": 1, "csvio.bytes": os.path.getsize(path)}


# work counts read off a call's first argument and its result, after its
# span has closed
COUNTERS = {
    "algebra.rs_rational_series": lambda a, r: {"algebra.rs.coeffs": len(r), "algebra.rs.coeff_bits": _bits(r)},
    "dyson.dyson_series": lambda a, r: {"dyson.terms": len(r.poly.terms)},
    "singularities.ResultantPolynomial.roots": lambda a, r: {"singularities.roots.degree": a.degree},
    "singularities.gap_scan": lambda a, r: {"singularities.gap_scan.points": int(r.values.size),
                                            "singularities.gap_scan.failures": r.failures},
    "pauli.pauli_decompose": lambda a, r: {"pauli.decompose.terms": len(r.terms),
                                           "pauli.decompose.dropped": r.n_dropped},
    "pauli.simulate_trotter": lambda a, r: {"pauli.rotations": a.steps * len(a.terms)},
    "hamiltonian.lattice_hamiltonian": lambda a, r: {"hamiltonian.lattice.nnz": r.nnz},
    "csvio.write_csv": _written,
    "csvio.write_manifest": _written,
    "csvio.mirror_csv_as_json": _written,
}
# counts reported as the largest value seen rather than a sum
MAXIMA = {"spectral.lanczos_lowest": lambda a, r: {"spectral.lanczos.dim": a.dim}}


S, N = "s", "count"
COMMANDS = ("spectrum", "series", "radius", "projector", "evolve", "scan", "resultant", "pauli",
            "resources", "trotter", "lattice-sweep", "riemann")
# every metric a traced run reports, with its unit; a workload that never
# reaches a layer reports 0 for it
PER_LAYER = {
    "algebra.rs.self_s": S, "algebra.rs.coeffs": N, "algebra.rs.coeff_bits": "bit",
    "algebra.charpoly.self_s": S, "algebra.bareiss.self_s": S,
    "series.weak.calls": N, "series.strong.self_s": S, "series.self_s": S,
    "projector.calls": N, "projector.self_s": S,
    "dyson.self_s": S, "dyson.terms": N,
    "singularities.roots.self_s": S, "singularities.roots.degree": N,
    "singularities.resultant.self_s": S, "singularities.gap_scan.self_s": S,
    "singularities.gap_scan.points": N, "singularities.gap_scan.failures": N,
    "singularities.refine.calls": N, "singularities.refine.self_s": S,
    "singularities.refine.useful_ratio": "ratio",
    "pauli.resources.self_s": S, "pauli.decompose.self_s": S, "pauli.decompose.terms": N,
    "pauli.decompose.dropped": N, "pauli.trotter_sim.self_s": S, "pauli.rotations": N,
    "pauli.step_unitary.self_s": S,
    "hamiltonian.lattice.calls": N, "hamiltonian.lattice.self_s": S, "hamiltonian.lattice.nnz": N,
    "hamiltonian.self_s": S,
    "spectral.lanczos.calls": N, "spectral.lanczos.self_s": S, "spectral.lanczos.dim": N,
    "spectral.dense.self_s": S,
    "oscillator.self_s": S,
    "csvio.self_s": S, "csvio.files": N, "csvio.bytes": "byte",
    **{f"cli.{c}.wall_s": S for c in COMMANDS},
    "cli.self_s": S, "cli.warnings": N,
    "trace.wall_s": S, "trace.overhead_s": S, "trace.coverage": "ratio",
}


class Tracer:
    """In-memory span recorder for the main thread of one process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._main = threading.get_ident()

    def open(self, name: str) -> list:
        span = [name, 0, 0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        return span

    def close(self, span: list) -> None:
        span[2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        counter, maximum = COUNTERS.get(name), MAXIMA.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # worker threads (gap_scan rows) would break the parent stack
            if threading.get_ident() != self._main:
                return fn(*args, **kwargs)
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            first = args[0] if args else next(iter(kwargs.values()), None)
            if counter:
                for key, value in counter(first, result).items():
                    self.counts[key] += value
            if maximum:
                for key, value in maximum(first, result).items():
                    self.counts[key] = max(self.counts[key], value)
            return result

        return traced


def install(tracer: Tracer, package: str = "phi4trunc") -> None:
    """Wrap the package's public functions at every name they are bound to."""
    wrapped: dict[int, types.FunctionType] = {}
    for short in MODULES:
        mod = importlib.import_module(f"{package}.{short}")
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr)
            name = f"{short}.{attr}"
            if (isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__
                    and name not in SKIP and not attr.startswith("poly_")):
                wrapped[id(fn)] = tracer.wrap(name, fn)
        for path in METHODS.get(short, ()):
            cls_name, meth = path.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, tracer.wrap(f"{short}.{path}", getattr(cls, meth)))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == package or mod_name.startswith(package + "."):
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped and isinstance(value, types.FunctionType):
                    setattr(mod, attr, wrapped[id(value)])


def self_times(spans: list) -> list[int]:
    """Duration of each span minus the durations of its direct children."""
    own = [end - start for _name, start, end, _parent in spans]
    for _name, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list, counts: dict) -> dict[str, float]:
    """Per-layer self times, per-kernel self times and calls, cli wall times, counts."""
    out: dict[str, float] = defaultdict(float)
    for (name, start, end, _parent), own in zip(spans, self_times(spans)):
        layer = name.split(".")[0]
        out[f"{layer}.self_s"] += own / 1e9
        if layer == "cli":
            out[f"{name}.wall_s"] += (end - start) / 1e9
        elif name in KERNELS:
            kernel = KERNELS[name]
            out[f"{kernel}.calls"] += 1
            if kernel != layer:
                out[f"{kernel}.self_s"] += own / 1e9
    for key, value in counts.items():
        out[key] += value
    return dict(out)
