"""Command-line surface for every pipeline in the package.

Configuration precedence per key: built-in default, then `key = value`
lines from --config, then environment variables with the PHI4TRUNC_ prefix,
then explicit flags.  Every value, whichever of the four it comes from,
takes one path: _resolve casts it and checks it against the rule declared
beside its flag in COMMANDS, and names each refused value with where it
came from.  Command bodies check only what reads two flags together.
Every run writes its outputs plus a manifest.json echoing the fully
resolved configuration; identical manifests produce byte-identical CSV
bodies (floats are printed at fixed 17 significant digits, rationals as
numerator/denominator).

Exit codes: 0 success, 1 a refused value or a numeric failure (recorded in
the manifest), 2 an unknown command or flag.
"""
from __future__ import annotations

import argparse
import functools
import gc
import os
import platform
import sys
import warnings
from fractions import Fraction

import numpy as np

from . import csvio
from .algebra import level_sector, sector_indices
from .dyson import dyson_series
from .hamiltonian import LatticeSpec, affine_operator, lattice_hamiltonian, single_site_hamiltonian, site_blocks
from .oscillator import TruncationSpec
from .pauli import (
    MAX_RESOURCE_QUBITS,
    build_trotter_plan,
    count_resources,
    pauli_decompose,
    qubit_count,
    simulate_trotter,
    trotter_step_unitary,
)
from .projector import evolve_projector_method, perturbed_projector
from .series import MIN_DIGITS, radius_estimate, strong_series, weak_series
from .singularities import (
    gap_scan,
    refine_exceptional_point,
    riemann_export,
    sylvester_discriminant,
)
from .spectral import (
    DENSE_CAP,
    curvature_peak,
    dense_spectrum,
    exact_amplitude,
    lattice_ground_energies,
    stencil_derivatives,
)

ENV_PREFIX = "PHI4TRUNC_"


def _parse_complex(text: str) -> complex:
    return complex(text.replace(" ", ""))


def _int_list(text: str) -> list[int]:
    return [int(t) for t in text.replace(",", " ").split()]


def _float_list(text: str) -> list[float]:
    return [float(t) for t in text.replace(",", " ").split()]


# A flag's rule maps its cast value to the reason the value is refused, or None.

def _one_of(*allowed: str):
    names = ", ".join(map(repr, allowed[:-1])) + f" or {allowed[-1]!r}"
    return lambda v: None if v in allowed else f"must be {names}"


def _at_least(low: int):
    return lambda v: None if v >= low else f"must be at least {low}"


def _grid_res(v: list[int]) -> str | None:
    return None if len(v) == 2 and min(v) >= 1 else "needs exactly 2 integers >= 1"


def _window(v: list[float]) -> str | None:
    return None if len(v) == 2 and v[0] < v[1] else "needs exactly 2 values, lo < hi"


def _each(what: str, ok, reason: str):
    """The rule of a list flag that must name at least one value, each passing ok."""
    return lambda v: f"names no {what}" if not v else None if all(map(ok, v)) else reason


_SWEEP_CSV = "sweep_kappa{:g}.csv"


def _kappas(v: list[float]) -> str | None:
    names = [_SWEEP_CSV.format(kappa) for kappa in v]
    shared = sorted({name for name in names if names.count(name) > 1})
    return "names no kappa" if not v else f"share the output file {', '.join(shared)}" if shared else None


def _lam_grid(v: list[float]) -> str | None:
    if len(v) != 3:
        return "needs exactly 3 values: lo, hi, count"
    if not v[0] < v[1]:
        return "needs lo < hi"
    if not (v[2] >= 5 and float(v[2]).is_integer()):
        return "needs an integer count >= 5 (one 5-point stencil)"
    return None


def _domain_blocks(domain: str, trunc: TruncationSpec, sector: str) -> tuple[np.ndarray, np.ndarray]:
    """(H0, V) of one site in --domain: H_har + lam phi^4, or swapped, phi^4 + lam H_har, when strong.

    H_str(1/lam) = H(lam)/lam for lam != 0, so both domains share the same
    exceptional points up to inversion.
    """
    pair = site_blocks(trunc, sector)
    return pair[::-1] if domain == "strong" else pair


# ---------------------------------------------------------------------------
# subcommand bodies: each returns a list of output paths

def _cmd_spectrum(cfg, outdir):
    trunc = TruncationSpec(cfg["nmax"], cfg["omega"])
    if cfg["nsites"] > 1:
        # the lattice path takes the whole weak-coupling chain, with no parity split
        if cfg["sector"] != "full":
            raise ValueError(f"--sector {cfg['sector']!r} needs --nsites 1 (lattice spectra are full)")
        if cfg["domain"] != "weak":
            raise ValueError(f"--domain {cfg['domain']!r} needs --nsites 1 (lattice spectra are weak coupling)")
        spec = LatticeSpec(cfg["nsites"], trunc, cfg["kappa"], cfg["lam"], cfg["boundary"])
        if cfg["method"] == "dense" and spec.dim > DENSE_CAP:
            raise ValueError(f"--nsites {cfg['nsites']} at --nmax {cfg['nmax']} gives {spec.dim} states, "
                             f"past the dense cap {DENSE_CAP}; use --method lanczos")
        # the full-space matrix is built only for the dense path and the dump
        h = lattice_hamiltonian(spec) if cfg["method"] != "lanczos" or cfg["dump_matrix"] else None
        if cfg["method"] == "lanczos":
            eigenvalues = lattice_ground_energies(spec, [cfg["lam"]], cfg["k"], cfg["tol"])[0]
        else:
            eigenvalues = dense_spectrum(h.matrix.toarray())
    else:
        if cfg["method"] != "dense":
            raise ValueError(f"--method {cfg['method']!r} needs --nsites > 1 (a single site is solved dense)")
        if cfg["kappa"] != 0.0:
            raise ValueError(f"--kappa {cfg['kappa']!r} needs --nsites > 1 (a single site has no hop)")
        if cfg["boundary"] != "periodic":
            raise ValueError(f"--boundary {cfg['boundary']!r} needs --nsites > 1 (a single site has no bond)")
        h = affine_operator(*_domain_blocks(cfg["domain"], trunc, cfg["sector"]), cfg["lam"])
        eigenvalues = dense_spectrum(h)
    rows = [(i, complex(z).real, complex(z).imag) for i, z in enumerate(eigenvalues)]
    path = csvio.write_csv(outdir / "spectrum.csv", ["index", "re", "im"], rows,
                           {"nmax": cfg["nmax"], "sector": cfg["sector"]})
    outputs = [str(path)]
    if cfg["dump_matrix"]:
        mpath = csvio.write_matrix_csv(outdir / "matrix.csv", h,
                                       {"nmax": cfg["nmax"], "sector": cfg["sector"]})
        outputs.append(str(mpath))
    return outputs


def _series(cfg):
    """The weak or strong series of a series or radius run.

    --sector defaults to the level's own sector in the weak domain, where
    a named one must hold the level, and to even in the strong domain.
    """
    sector = cfg["sector"]
    trunc = TruncationSpec(cfg["nmax"], cfg["omega"])
    if cfg["domain"] == "weak":
        held = level_sector(cfg["level"])
        if sector not in (None, held):
            raise ValueError(f"--sector {sector!r} does not hold --level {cfg['level']}, "
                             f"which lies in the {held} sector")
        return weak_series(trunc, cfg["level"], cfg["orders"])
    if cfg["precision"] is not None and cfg["precision"] < MIN_DIGITS:
        raise ValueError(f"--precision {cfg['precision']!r} must be at least {MIN_DIGITS}")
    return strong_series(trunc, cfg["level"], sector or "even", cfg["orders"], cfg["precision"])


def _cmd_series(cfg, outdir):
    ser = _series(cfg)
    if cfg["domain"] == "weak":
        rows = [(m, c.numerator, c.denominator) for m, c in enumerate(ser.coeffs)]
        header = ["order", "numerator", "denominator"]
    else:
        rows = [(m, mp_str(c, ser.precision_digits), ser.precision_digits)
                for m, c in enumerate(ser.coeffs)]
        header = ["order", "coefficient", "precision"]
    path = csvio.write_csv(outdir / "series.csv", header, rows,
                           {"domain": ser.domain, "level": cfg["level"], "nmax": cfg["nmax"]})
    return [str(path)]


def mp_str(c, digits: int) -> str:
    import mpmath as mp

    return mp.nstr(c, digits, strip_zeros=False)


def _cmd_radius(cfg, outdir):
    fit_lo, fit_hi = cfg["fit"]
    if not 0 <= fit_lo < fit_hi <= cfg["orders"]:
        raise ValueError(f"--fit {cfg['fit']!r} needs 0 <= first < second <= --orders {cfg['orders']}")
    ser = _series(cfg)
    radius, slope = radius_estimate(ser, fit_lo, fit_hi)
    path = csvio.write_csv(
        outdir / "radius.csv",
        ["level", "fit_lo", "fit_hi", "slope", "radius"],
        [(cfg["level"], fit_lo, fit_hi, slope, radius)],
        {"domain": ser.domain, "nmax": cfg["nmax"]},
    )
    return [str(path)]


def _cmd_projector(cfg, outdir):
    trunc = TruncationSpec(cfg["nmax"], cfg["omega"])
    if len(cfg["entry"]) != 2 or not all(0 <= i < trunc.n_max for i in cfg["entry"]):
        raise ValueError(f"--entry {cfg['entry']!r} needs exactly 2 indices in 0..{trunc.n_max - 1}")
    series, value = perturbed_projector(trunc, cfg["level"], cfg["order"], cfg["lam"])
    rows = []
    for m in range(series.order + 1):
        for i in range(trunc.n_max):
            for j in range(trunc.n_max):
                c = series.weighted[m][i][j]
                if c != 0:
                    rows.append((m, i, j, c.numerator, c.denominator))
    p1 = csvio.write_csv(outdir / "projector_series.csv",
                         ["order", "row", "col", "numerator", "denominator"], rows,
                         {"basis": "weighted", "level": cfg["level"], "nmax": cfg["nmax"]})
    rows = [(i, j, value[i, j]) for i in range(trunc.n_max) for j in range(trunc.n_max)]
    p2 = csvio.write_csv(outdir / "projector_value.csv", ["row", "col", "value"], rows,
                         {"lambda": cfg["lam"], "level": cfg["level"]})
    r, c = cfg["entry"]
    esums = series.energy.partial_sums(Fraction(str(cfg["lam"])))
    entry_sums = []
    acc = 0.0
    for m in range(series.order + 1):
        acc += series.coefficient_matrix(m)[r, c] * cfg["lam"] ** m
        entry_sums.append(acc)
    rows = [(m, float(esums[m]), entry_sums[m]) for m in range(series.order + 1)]
    p3 = csvio.write_csv(outdir / "successive.csv",
                         ["order", "energy_partial", "entry_partial"], rows,
                         {"entry": f"({r},{c})", "lambda": cfg["lam"]})
    return [str(p1), str(p2), str(p3)]


def _cmd_evolve(cfg, outdir):
    method = cfg["method"]
    trunc = TruncationSpec(cfg["nmax"], cfg["omega"])
    sin, sout = cfg["state_in"], cfg["state_out"]
    if method == "trotter":
        steps = cfg["steps"] if cfg["steps"] else int(round(cfg["tmax"] / cfg["dt"]))
        if steps < 0:
            raise ValueError(f"--tmax {cfg['tmax']!r} over --dt {cfg['dt']!r} gives {steps} Trotter steps; "
                             "--tmax must be at least 0")
        n_q = qubit_count(trunc.n_max)
        dec = pauli_decompose(single_site_hamiltonian(trunc, cfg["lam"]), n_q)
        plan = build_trotter_plan(dec, cfg["dt"], steps, cfg["ordering"])
        sim = simulate_trotter(plan, sin, [sout])
        # step and state are integers far below 2^53, which print as str does
        rows = np.column_stack([np.arange(steps + 1), sim["t"], np.full(steps + 1, sout),
                                sim["probabilities"][:, 0]])
        drift = np.max(np.abs(sim["norms"] - 1.0))
        path = csvio.write_csv(outdir / "trotter_trace.csv", ["step", "t", "state", "prob"], rows,
                               {"dt": cfg["dt"], "lambda": cfg["lam"], "norm_drift": f"{drift:.17g}",
                                "ordering": cfg["ordering"]})
        return [str(path)]
    t = np.linspace(0.0, cfg["tmax"], cfg["nt"])
    if method == "exact":
        amp = exact_amplitude(single_site_hamiltonian(trunc, cfg["lam"]), t, sin, sout)
    elif method == "projector":
        amp = evolve_projector_method(trunc, cfg["order"], cfg["lam"], t, sin, sout)
    else:
        damp = dyson_series(trunc, cfg["order"], Fraction(str(cfg["lam"])), sin, sout)
        amp = damp.trace(t)
    # per scalar: np.abs(amp) ** 2 differs from abs(a) ** 2 in the last bit
    rows = np.column_stack([t, amp.real, amp.imag, [abs(a) ** 2 for a in amp]])
    path = csvio.write_csv(outdir / "evolve.csv", ["t", "re", "im", "prob"], rows,
                           {"method": method, "lambda": cfg["lam"],
                            "order": cfg["order"], "transition": f"{sin}->{sout}"})
    return [str(path)]


def _grid_trunc(cfg) -> TruncationSpec:
    """The truncation of a scan or riemann grid, after checking that its sector has a level pair."""
    trunc = TruncationSpec(cfg["nmax"], cfg["omega"])
    levels = len(sector_indices(trunc.n_max, cfg["sector"]))
    if levels < 2:
        raise ValueError(f"--nmax {trunc.n_max} leaves the {cfg['sector']} sector {levels} level, "
                         "and a gap needs a pair of levels")
    return trunc


def _cmd_scan(cfg, outdir):
    (re_lo, re_hi), (im_lo, im_hi) = cfg["re"], cfg["im"]
    n_re, n_im = cfg["res"]
    blocks = _domain_blocks(cfg["domain"], _grid_trunc(cfg), cfg["sector"])
    grid = gap_scan(*blocks, ((re_lo, re_hi), (im_lo, im_hi)), (n_re, n_im), cfg["jobs"])
    if grid.failures == grid.values.size:
        raise np.linalg.LinAlgError(f"scan grid {n_re}x{n_im}: all {grid.failures} points failed to "
                                    "diagonalize, so no gap is left")
    meta = {"nmax": cfg["nmax"], "sector": cfg["sector"], "domain": cfg["domain"],
            "re_range": f"[{re_lo},{re_hi}]", "im_range": f"[{im_lo},{im_hi}]",
            "resolution": f"{n_re}x{n_im}"}
    # (re, im, gap) rows in row-major order, im outermost
    table = np.column_stack([np.tile(grid.re_axis(), n_im), np.repeat(grid.im_axis(), n_re),
                             grid.values.ravel()])
    p1 = csvio.write_csv(outdir / "scan.csv", ["re", "im", "gap"], table, meta)
    outputs = [str(p1)]
    if cfg["refine"]:
        flat = np.sort(grid.values[~np.isnan(grid.values)].ravel())
        cut = flat[max(0, int(0.01 * flat.size) - 1)]
        gaps = table[:, 2]
        picked = np.flatnonzero((gaps <= cut) & (table[:, 1] > 0))
        picked = picked[np.argsort(gaps[picked], kind="stable")]
        seeds = [complex(re, im) for re, im in table[picked, :2].tolist()]
        # deepest candidates first; one refinement per basin, where a basin
        # is taken as 2% of the window diagonal around an accepted point
        basin = 0.02 * np.hypot(re_hi - re_lo, im_hi - im_lo)
        refined = []
        visited: list[complex] = []
        for seed in seeds:
            if len(visited) >= 64:
                break
            if any(abs(seed - v) < basin for v in visited):
                continue
            res = refine_exceptional_point(*blocks, seed)
            loc = res.location
            visited.append(loc)
            if res.exceptional and not any(abs(loc - complex(r, i)) < 1e-9
                                           for r, i, _ in refined):
                refined.append((loc.real, loc.imag, res.gap))
        p2 = csvio.write_csv(outdir / "scan_refined.csv", ["re", "im", "gap"],
                             sorted(refined), meta)
        outputs.append(str(p2))
    return outputs


def _cmd_resultant(cfg, outdir):
    trunc = TruncationSpec(cfg["nmax"], cfg["omega"])
    poly = sylvester_discriminant(trunc, cfg["sector"])
    rows = [(m, c, 1) for m, c in enumerate(poly.coeffs)]
    p1 = csvio.write_csv(outdir / "resultant.csv", ["order", "numerator", "denominator"],
                         rows, {"nmax": cfg["nmax"], "sector": cfg["sector"],
                                "degree": poly.degree, "degree_deficit": poly.degree_deficit})
    roots = sorted(poly.roots(), key=lambda z: (abs(z), z.imag))
    p2 = csvio.write_csv(outdir / "resultant_roots.csv", ["re", "im"],
                         [(z.real, z.imag) for z in roots],
                         {"nmax": cfg["nmax"], "sector": cfg["sector"]})
    return [str(p1), str(p2)]


def _cmd_pauli(cfg, outdir):
    trunc = TruncationSpec(cfg["nmax"], cfg["omega"])
    n_q = qubit_count(trunc.n_max)
    dec = pauli_decompose(single_site_hamiltonian(trunc, cfg["lam"]), n_q)
    rows = [(t.string, t.coeff) for t in dec.terms]
    path = csvio.write_csv(outdir / "pauli.csv", ["string", "coeff"], rows,
                           {"identity_coeff": f"{dec.identity_coeff:.17g}",
                            "lambda": cfg["lam"], "n_dropped": dec.n_dropped, "n_qubits": n_q})
    return [str(path)]


def _cmd_resources(cfg, outdir):
    rows = []
    for n_q in cfg["nq"]:
        est = count_resources(n_q)
        rows.append((est.n_q, est.n_nz, est.depth_bound))
    path = csvio.write_csv(outdir / "resources.csv", ["nq", "nnz", "depth_bound"], rows)
    return [str(path)]


def _cmd_trotter(cfg, outdir):
    trunc = TruncationSpec(cfg["nmax"], cfg["omega"])
    n_q = qubit_count(trunc.n_max)
    h = single_site_hamiltonian(trunc, cfg["lam"])
    dec = pauli_decompose(h, n_q)
    w, u = np.linalg.eigh(h)
    rows = []
    prev = None
    for dt in cfg["dts"]:
        plan = build_trotter_plan(dec, dt, 1, cfg["ordering"])
        step = trotter_step_unitary(plan)
        exact = (u * np.exp(-1j * w * dt)) @ u.conj().T
        # identity-term phase is not in the plan; restore it for the comparison
        exact = exact * np.exp(1j * dec.identity_coeff * dt)
        err = np.linalg.norm(step - exact, 2)
        rows.append((dt, err, prev / err if prev else float("nan")))
        prev = err
    path = csvio.write_csv(outdir / "trotter_error.csv", ["dt", "error", "ratio_vs_prev"],
                           rows, {"lambda": cfg["lam"], "nmax": cfg["nmax"]})
    return [str(path)]


def _cmd_lattice_sweep(cfg, outdir):
    trunc = TruncationSpec(cfg["nmax"], cfg["omega"])
    lam_lo, lam_hi, n_lam = cfg["lam_grid"]
    if cfg["nsites"] == 1 and any(cfg["kappas"]):
        raise ValueError(f"--kappas {cfg['kappas']!r} needs --nsites > 1 for a nonzero kappa "
                         "(a single site has no hop)")
    if cfg["nsites"] == 1 and cfg["boundary"] != "periodic":
        raise ValueError(f"--boundary {cfg['boundary']!r} needs --nsites > 1 (a single site has no bond)")
    lams = np.linspace(lam_lo, lam_hi, int(n_lam))
    outputs = []
    summary = []
    for kappa in cfg["kappas"]:
        spec = LatticeSpec(cfg["nsites"], trunc, kappa, boundary=cfg["boundary"])
        energies = lattice_ground_energies(spec, lams, tol=cfg["tol"])[:, 0]
        derivs = stencil_derivatives(lams, energies)
        path = csvio.write_csv(outdir / _SWEEP_CSV.format(kappa),
                               ["lambda", "E", "d1", "d2", "d4"], np.column_stack([lams, energies, derivs]),
                               {"kappa": kappa, "nsites": cfg["nsites"], "nmax": cfg["nmax"],
                                "boundary": cfg["boundary"], "scheme": "finite_difference_5pt"})
        outputs.append(str(path))
        summary.append((kappa, *curvature_peak(lams, derivs[:, 1], f"kappa={kappa}: ")))
    p = csvio.write_csv(outdir / "sweep_singularities.csv",
                        ["kappa", "re_estimate", "im_estimate"], summary,
                        {"nsites": cfg["nsites"], "nmax": cfg["nmax"], "boundary": cfg["boundary"]})
    outputs.append(str(p))
    return outputs


def _cmd_riemann(cfg, outdir):
    n_lat, n_lon = cfg["res"]
    rows = riemann_export(*site_blocks(_grid_trunc(cfg), cfg["sector"]), (n_lat, n_lon), cfg["jobs"])
    path = csvio.write_csv(outdir / "riemann.csv", ["re", "im", "gap", "x", "y"], rows,
                           {"nmax": cfg["nmax"], "sector": cfg["sector"],
                            "orientation": "0->south,inf->north,arg(lambda)->longitude",
                            "resolution": f"{n_lat}x{n_lon}"})
    return [str(path)]


# ---------------------------------------------------------------------------
# each flag is (cast, default, rule); the entries below are shared by several commands

_TRUNC = {"nmax": (int, 4, None), "omega": (float, 1.0, None)}
_DOMAIN = (str, "weak", _one_of("weak", "strong"))
_PARITY = _one_of("even", "odd")
_SECTOR = (str, "even", _PARITY)
_BOUNDARY = (str, "periodic", _one_of("periodic", "open"))
_ORDERING = (str, "by_magnitude_desc", _one_of("by_magnitude_desc", "lexicographic", "as_given"))
_JOBS = (int, os.cpu_count() or 1, _at_least(1))
_SERIES = {**_TRUNC, "domain": _DOMAIN, "level": (int, 0, None), "sector": (str, None, _PARITY),
           "precision": (int, None, None)}

COMMANDS = {
    "spectrum": (_cmd_spectrum, {
        **_TRUNC, "lam": (_parse_complex, 0.1, None),
        "sector": (str, "full", _one_of("full", "even", "odd")),
        "method": (str, "dense", _one_of("dense", "lanczos")), "domain": _DOMAIN,
        "nsites": (int, 1, _at_least(1)), "kappa": (float, 0.0, None), "boundary": _BOUNDARY,
        "k": (int, 4, _at_least(1)), "tol": (float, 1e-12, None), "dump_matrix": (int, 0, None),
    }),
    "series": (_cmd_series, {**_SERIES, "orders": (int, 10, _at_least(0))}),
    "radius": (_cmd_radius, {
        **_SERIES, "orders": (int, 200, _at_least(0)),
        "fit": (_int_list, [100, 200], lambda v: None if len(v) == 2 else "needs exactly 2 orders"),
    }),
    "projector": (_cmd_projector, {
        **_TRUNC, "level": (int, 0, None), "order": (int, 4, None), "lam": (float, 0.1, None),
        "entry": (_int_list, [2, 0], None),
    }),
    "evolve": (_cmd_evolve, {
        **_TRUNC, "method": (str, "exact", _one_of("exact", "projector", "dyson", "trotter")),
        "lam": (float, 0.1, None), "order": (int, 4, None), "tmax": (float, 20.0, None),
        "nt": (int, 201, _at_least(1)), "state_in": (int, 0, None), "state_out": (int, 2, None),
        "dt": (float, 0.1, lambda v: None if v > 0 else "must be positive"),
        "steps": (int, 0, _at_least(0)), "ordering": _ORDERING,
    }),
    "scan": (_cmd_scan, {
        **_TRUNC, "sector": _SECTOR, "domain": _DOMAIN,
        "re": (_float_list, [-0.4, 0.1], _window), "im": (_float_list, [-0.3, 0.3], _window),
        "res": (_int_list, [400, 400], _grid_res), "refine": (int, 1, None), "jobs": _JOBS,
    }),
    "resultant": (_cmd_resultant, {**_TRUNC, "sector": _SECTOR}),
    "pauli": (_cmd_pauli, {**_TRUNC, "lam": (float, 0.1, None)}),
    "resources": (_cmd_resources, {
        "nq": (_int_list, [2, 3, 4, 5, 6, 7, 8], _each("register", lambda n_q: 1 <= n_q <= MAX_RESOURCE_QUBITS,
                                                         f"needs each n_q in 1..{MAX_RESOURCE_QUBITS}")),
    }),
    "trotter": (_cmd_trotter, {
        **_TRUNC, "lam": (float, 0.1, None),
        "dts": (_float_list, [0.2, 0.1, 0.05], _each("step", lambda dt: dt > 0, "must all be positive")),
        "ordering": _ORDERING,
    }),
    "lattice-sweep": (_cmd_lattice_sweep, {
        "nsites": (int, 4, _at_least(1)), **_TRUNC,
        "kappas": (_float_list, [0.1], _kappas),
        "lam_grid": (_float_list, [-0.32, -0.02, 121], _lam_grid), "boundary": _BOUNDARY,
        "tol": (float, 1e-11, None),
    }),
    "riemann": (_cmd_riemann, {
        **_TRUNC, "nmax": (int, 8, None), "sector": _SECTOR,
        "res": (_int_list, [60, 120], _grid_res), "jobs": _JOBS,
    }),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phi4trunc",
        description="Truncated quartic oscillators: spectra, series, singularities, evolution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_fn, spec) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key = value configuration file")
        p.add_argument("--outdir", default=None, help="output directory (default: out/<command>)")
        p.add_argument("--json", default=0, help="also mirror each CSV as JSON")
        for key, (_cast, default, _rule) in spec.items():
            # the text is cast and checked in _resolve
            p.add_argument("--" + key.replace("_", "-"), dest=key, default=None, help=f"default: {default}")
    return parser


def _resolve(spec: dict, args: argparse.Namespace) -> tuple[dict, object, list[str]]:
    """Each key's value by precedence, cast and checked; the --json value; and the values refused.

    Flags, PHI4TRUNC_ variables and --config lines arrive as text and are
    cast here; every value, a default too, is then checked: a real or
    complex one must be finite, and each must pass its flag's rule (None,
    the default of an optional flag, is not checked).  Each refused value
    is named in the last list with where it came from, so that main records
    the failure in the manifest; one that does not cast stays text in the
    config.  So is a --config file that cannot be read or parsed.  --json,
    a flag only, is checked the same way and kept out of the config.
    """
    bad = []

    def checked(flag: str, value, cast, rule):
        try:
            value = cast(value) if isinstance(value, str) else value
        except ValueError as exc:
            bad.append(f"{flag} {value!r}: {exc}")
            return value
        if value is not None and cast in (float, _float_list, _parse_complex) and not np.isfinite(value).all():
            bad.append(f"{flag} {value!r} must be finite")
        elif value is not None and rule and (reason := rule(value)):
            bad.append(f"{flag} {value!r} {reason}")
        return value

    try:
        config_file = csvio.read_config_file(args.config) if args.config else {}
    except (OSError, ValueError) as exc:
        config_file = {}
        bad.append(f"--config {args.config}: {exc}")
    cfg = {}
    for key, (cast, default, rule) in spec.items():
        value, origin = getattr(args, key), ""
        if value is None:
            env = os.environ.get(ENV_PREFIX + key.upper())
            if env is not None:
                value, origin = env, f" (from {ENV_PREFIX}{key.upper()})"
            elif key in config_file:
                value, origin = config_file[key], f" (from {args.config})"
            else:
                value = default
        cfg[key] = checked(f"--{key.replace('_', '-')}{origin}", value, cast, rule)
    return cfg, checked("--json", args.json, int, None), bad


def _environment() -> dict:
    """What a float output's last bits can follow: Python, numpy, its BLAS and thread settings, the CPUs."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            **{var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
            "cpu_count": os.cpu_count()}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    fn, spec = COMMANDS[args.command]
    cfg, mirror, bad = _resolve(spec, args)

    from pathlib import Path

    outdir = Path(args.outdir) if args.outdir else Path("out") / args.command
    run = {"environment": _environment(), "warnings": []}
    try:
        if bad:
            raise ValueError("; ".join(bad))
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            show = warnings.showwarning

            def record(message, category, *rest, **kwargs):
                # kept for the manifest and still shown (stderr by default)
                run["warnings"].append({"category": category.__name__, "message": str(message)})
                show(message, category, *rest, **kwargs)

            warnings.showwarning = record
            outputs = fn(cfg, outdir)
    except Exception as exc:  # numeric or configuration failure
        csvio.write_manifest(outdir, args.command, cfg, [], status="error",
                             error={"type": type(exc).__name__, "message": str(exc)}, run=run)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if mirror:
        outputs = outputs + [
            str(csvio.mirror_csv_as_json(path)) for path in outputs if path.endswith(".csv")
        ]
    csvio.write_manifest(outdir, args.command, cfg, outputs, run=run)
    return 0


# Everything import left alive is permanent: without this, the first full
# collection of a process traverses it all inside whichever command runs first.
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
