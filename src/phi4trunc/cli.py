"""Command-line surface for every pipeline in the package.

Configuration precedence per key: built-in default, then `key = value`
lines from --config, then environment variables with the PHI4TRUNC_ prefix,
then explicit flags.  Every run writes its outputs plus a manifest.json
echoing the fully resolved configuration; identical manifests produce
byte-identical CSV bodies (floats are printed at fixed 17 significant
digits, rationals as numerator/denominator).

Exit codes: 0 success, 1 numeric failure (recorded in the manifest),
2 usage errors.
"""
from __future__ import annotations

import argparse
import functools
import gc
import os
import sys
import warnings
from fractions import Fraction

import numpy as np

from . import csvio
from .algebra import level_sector, sector_indices
from .dyson import dyson_series
from .hamiltonian import (
    LatticeSpec,
    affine_operator,
    anharmonic_family,
    lattice_hamiltonian,
    single_site_hamiltonian,
    strong_coupling_family,
)
from .oscillator import OperatorMatrix, TruncationSpec
from .pauli import (
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


def _choice(cfg, key: str, *allowed: str) -> str:
    """cfg[key], after checking that it is one of allowed."""
    if cfg[key] not in allowed:
        names = ", ".join(map(repr, allowed[:-1])) + f" or {allowed[-1]!r}"
        raise ValueError(f"--{key} {cfg[key]!r} must be {names}")
    return cfg[key]


def _ordering(cfg) -> str:
    """The --ordering of the Trotter terms, after checking it."""
    return _choice(cfg, "ordering", "by_magnitude_desc", "lexicographic", "as_given")


def _family(cfg, trunc: TruncationSpec):
    """The single-site family of --domain, after checking it."""
    if _choice(cfg, "domain", "weak", "strong") == "strong":
        return strong_coupling_family(trunc)
    return anharmonic_family(trunc)


# ---------------------------------------------------------------------------
# subcommand bodies: each returns a list of output paths

def _cmd_spectrum(cfg, outdir):
    _choice(cfg, "method", "dense", "lanczos")
    _choice(cfg, "sector", "full", "even", "odd")
    _choice(cfg, "domain", "weak", "strong")
    _choice(cfg, "boundary", "periodic", "open")
    if cfg["nsites"] < 1:
        raise ValueError(f"--nsites {cfg['nsites']!r} must be at least 1")
    if cfg["k"] < 1:
        raise ValueError(f"--k {cfg['k']!r} must be at least 1")
    trunc = TruncationSpec(cfg["nmax"], cfg["omega"])
    if cfg["nsites"] > 1:
        # the lattice path takes the whole weak-coupling chain, with no parity split
        if cfg["sector"] != "full":
            raise ValueError(f"--sector {cfg['sector']!r} needs --nsites 1 (lattice spectra are full)")
        if cfg["domain"] != "weak":
            raise ValueError(f"--domain {cfg['domain']!r} needs --nsites 1 (lattice spectra are weak coupling)")
        spec = LatticeSpec(cfg["nsites"], trunc, cfg["kappa"], cfg["lam"], cfg["boundary"])
        # the full-space matrix is built only for the dense path and the dump
        h = lattice_hamiltonian(spec) if cfg["method"] != "lanczos" or cfg["dump_matrix"] else None
        if cfg["method"] == "lanczos":
            eigenvalues = lattice_ground_energies(spec, [cfg["lam"]], cfg["k"], cfg["tol"])[0]
        else:
            eigenvalues = dense_spectrum(OperatorMatrix(h.matrix.toarray(), hermitian=h.hermitian)).eigenvalues
    else:
        family = _family(cfg, trunc)
        blocks = (family.h0, family.v) if cfg["sector"] == "full" else family.sector_matrices(cfg["sector"])
        h = affine_operator(*blocks, cfg["lam"])
        eigenvalues = dense_spectrum(h).eigenvalues
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
    """The weak or strong series of a series or radius run, after checking its flags.

    --sector defaults to the level's own sector in the weak domain, where
    a named one must hold the level, and to even in the strong domain.
    """
    if cfg["orders"] < 0:
        raise ValueError(f"--orders {cfg['orders']!r} must be at least 0")
    sector = cfg["sector"]
    if sector is not None:
        _choice(cfg, "sector", "even", "odd")
    trunc = TruncationSpec(cfg["nmax"], cfg["omega"])
    if _choice(cfg, "domain", "weak", "strong") == "weak":
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
    if len(cfg["fit"]) != 2:
        raise ValueError(f"--fit {cfg['fit']!r} needs exactly 2 orders")
    fit_lo, fit_hi = cfg["fit"]
    # a negative --orders is named by _series
    if cfg["orders"] >= 0 and not 0 <= fit_lo < fit_hi <= cfg["orders"]:
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
    method = _choice(cfg, "method", "exact", "projector", "dyson", "trotter")
    trunc = TruncationSpec(cfg["nmax"], cfg["omega"])
    sin, sout = cfg["state_in"], cfg["state_out"]
    if method == "trotter":
        ordering = _ordering(cfg)
        if not cfg["dt"] > 0:
            raise ValueError(f"--dt {cfg['dt']!r} must be positive")
        if cfg["steps"] < 0:
            raise ValueError(f"--steps {cfg['steps']!r} must be at least 0")
        steps = cfg["steps"] if cfg["steps"] else int(round(cfg["tmax"] / cfg["dt"]))
        if steps < 0:
            raise ValueError(f"--tmax {cfg['tmax']!r} over --dt {cfg['dt']!r} gives {steps} Trotter steps; "
                             "--tmax must be at least 0")
        n_q = qubit_count(trunc.n_max)
        dec = pauli_decompose(single_site_hamiltonian(trunc, cfg["lam"]), n_q)
        plan = build_trotter_plan(dec, cfg["dt"], steps, ordering)
        sim = simulate_trotter(plan, sin, [sout])
        # step and state are integers far below 2^53, which print as str does
        rows = np.column_stack([np.arange(steps + 1), sim["t"], np.full(steps + 1, sout),
                                sim["probabilities"][:, 0]])
        drift = np.max(np.abs(sim["norms"] - 1.0))
        path = csvio.write_csv(outdir / "trotter_trace.csv", ["step", "t", "state", "prob"], rows,
                               {"dt": cfg["dt"], "lambda": cfg["lam"], "norm_drift": f"{drift:.17g}",
                                "ordering": plan.ordering})
        return [str(path)]
    if cfg["nt"] < 1:
        raise ValueError(f"--nt {cfg['nt']!r} must be at least 1")
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


def _grid_shape(cfg) -> tuple[int, int]:
    """The --res of a scan or riemann grid, after checking it."""
    res = cfg["res"]
    if len(res) != 2 or min(res) < 1:
        raise ValueError(f"--res {res!r} needs exactly 2 integers >= 1")
    return res[0], res[1]


def _scan_window(cfg) -> tuple[tuple[float, float], tuple[float, float]]:
    """The --re and --im ranges of a scan, after checking them."""
    for key in ("re", "im"):
        if len(cfg[key]) != 2 or not cfg[key][0] < cfg[key][1]:
            raise ValueError(f"--{key} {cfg[key]!r} needs exactly 2 values, lo < hi")
    return (cfg["re"][0], cfg["re"][1]), (cfg["im"][0], cfg["im"][1])


def _jobs(cfg) -> int:
    """The --jobs of a scan or riemann grid, after checking it."""
    if cfg["jobs"] < 1:
        raise ValueError(f"--jobs {cfg['jobs']!r} must be at least 1")
    return cfg["jobs"]


def _grid_trunc(cfg) -> TruncationSpec:
    """The truncation of a scan or riemann grid, after checking that its sector has a level pair."""
    trunc = TruncationSpec(cfg["nmax"], cfg["omega"])
    levels = len(sector_indices(trunc.n_max, _choice(cfg, "sector", "even", "odd")))
    if levels < 2:
        raise ValueError(f"--nmax {trunc.n_max} leaves the {cfg['sector']} sector {levels} level, "
                         "and a gap needs a pair of levels")
    return trunc


def _cmd_scan(cfg, outdir):
    (re_lo, re_hi), (im_lo, im_hi) = _scan_window(cfg)
    n_re, n_im = _grid_shape(cfg)
    jobs = _jobs(cfg)
    family = _family(cfg, _grid_trunc(cfg))
    grid = gap_scan(family, ((re_lo, re_hi), (im_lo, im_hi)), (n_re, n_im), cfg["sector"], jobs)
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
            res = refine_exceptional_point(family, seed, cfg["sector"])
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
    poly = sylvester_discriminant(trunc, _choice(cfg, "sector", "even", "odd"))
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
    if not all(dt > 0 for dt in cfg["dts"]):
        raise ValueError(f"--dts {cfg['dts']!r} must all be positive")
    ordering = _ordering(cfg)
    trunc = TruncationSpec(cfg["nmax"], cfg["omega"])
    n_q = qubit_count(trunc.n_max)
    h = single_site_hamiltonian(trunc, cfg["lam"])
    dec = pauli_decompose(h, n_q)
    w, u = np.linalg.eigh(h.entries)
    rows = []
    prev = None
    for dt in cfg["dts"]:
        plan = build_trotter_plan(dec, dt, 1, ordering)
        step = trotter_step_unitary(plan).entries
        exact = (u * np.exp(-1j * w * dt)) @ u.conj().T
        # identity-term phase is not in the plan; restore it for the comparison
        exact = exact * np.exp(1j * dec.identity_coeff * dt)
        err = np.linalg.norm(step - exact, 2)
        rows.append((dt, err, prev / err if prev else float("nan")))
        prev = err
    path = csvio.write_csv(outdir / "trotter_error.csv", ["dt", "error", "ratio_vs_prev"],
                           rows, {"lambda": cfg["lam"], "nmax": cfg["nmax"]})
    return [str(path)]


def _sweep_grid(cfg) -> np.ndarray:
    """The lambda grid of a lattice sweep, after checking it and the kappas."""
    if not cfg["kappas"]:
        raise ValueError(f"--kappas {cfg['kappas']!r} names no kappa")
    if len(cfg["lam_grid"]) != 3:
        raise ValueError(f"--lam-grid {cfg['lam_grid']!r} needs exactly 3 values: lo, hi, count")
    lam_lo, lam_hi, n_lam = cfg["lam_grid"]
    if not lam_lo < lam_hi:
        raise ValueError(f"--lam-grid lo {lam_lo!r} must be below hi {lam_hi!r}")
    if n_lam != int(n_lam) or n_lam < 5:
        raise ValueError(f"--lam-grid count {n_lam!r} must be an integer >= 5 (one 5-point stencil)")
    return np.linspace(lam_lo, lam_hi, int(n_lam))


def _cmd_lattice_sweep(cfg, outdir):
    if cfg["nsites"] < 1:
        raise ValueError(f"--nsites {cfg['nsites']!r} must be at least 1")
    _choice(cfg, "boundary", "periodic", "open")
    trunc = TruncationSpec(cfg["nmax"], cfg["omega"])
    lams = _sweep_grid(cfg)
    outputs = []
    summary = []
    for kappa in cfg["kappas"]:
        spec = LatticeSpec(cfg["nsites"], trunc, kappa, boundary=cfg["boundary"])
        energies = lattice_ground_energies(spec, lams, tol=cfg["tol"])[:, 0]
        derivs = stencil_derivatives(lams, energies)
        path = csvio.write_csv(outdir / f"sweep_kappa{kappa:g}.csv",
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
    n_lat, n_lon = _grid_shape(cfg)
    jobs = _jobs(cfg)
    family = anharmonic_family(_grid_trunc(cfg))
    rows = riemann_export(family, cfg["sector"], (n_lat, n_lon), jobs)
    path = csvio.write_csv(outdir / "riemann.csv", ["re", "im", "gap", "x", "y"], rows,
                           {"nmax": cfg["nmax"], "sector": cfg["sector"],
                            "orientation": "0->south,inf->north,arg(lambda)->longitude",
                            "resolution": f"{n_lat}x{n_lon}"})
    return [str(path)]


# ---------------------------------------------------------------------------

COMMANDS = {
    "spectrum": (_cmd_spectrum, {
        "nmax": (int, 4), "omega": (float, 1.0), "lam": (_parse_complex, 0.1),
        "sector": (str, "full"), "method": (str, "dense"), "domain": (str, "weak"),
        "nsites": (int, 1), "kappa": (float, 0.0), "boundary": (str, "periodic"),
        "k": (int, 4), "tol": (float, 1e-12), "dump_matrix": (int, 0),
    }),
    "series": (_cmd_series, {
        "nmax": (int, 4), "omega": (float, 1.0), "domain": (str, "weak"),
        "level": (int, 0), "sector": (str, None), "orders": (int, 10),
        "precision": (int, None),
    }),
    "radius": (_cmd_radius, {
        "nmax": (int, 4), "omega": (float, 1.0), "domain": (str, "weak"),
        "level": (int, 0), "sector": (str, None), "orders": (int, 200),
        "fit": (_int_list, [100, 200]), "precision": (int, None),
    }),
    "projector": (_cmd_projector, {
        "nmax": (int, 4), "omega": (float, 1.0), "level": (int, 0),
        "order": (int, 4), "lam": (float, 0.1), "entry": (_int_list, [2, 0]),
    }),
    "evolve": (_cmd_evolve, {
        "nmax": (int, 4), "omega": (float, 1.0), "method": (str, "exact"),
        "lam": (float, 0.1), "order": (int, 4), "tmax": (float, 20.0),
        "nt": (int, 201), "state_in": (int, 0), "state_out": (int, 2),
        "dt": (float, 0.1), "steps": (int, 0), "ordering": (str, "by_magnitude_desc"),
    }),
    "scan": (_cmd_scan, {
        "nmax": (int, 4), "omega": (float, 1.0), "sector": (str, "even"),
        "domain": (str, "weak"), "re": (_float_list, [-0.4, 0.1]),
        "im": (_float_list, [-0.3, 0.3]), "res": (_int_list, [400, 400]),
        "refine": (int, 1), "jobs": (int, os.cpu_count() or 1),
    }),
    "resultant": (_cmd_resultant, {
        "nmax": (int, 4), "omega": (float, 1.0), "sector": (str, "even"),
    }),
    "pauli": (_cmd_pauli, {
        "nmax": (int, 4), "omega": (float, 1.0), "lam": (float, 0.1),
    }),
    "resources": (_cmd_resources, {
        "nq": (_int_list, [2, 3, 4, 5, 6, 7, 8]),
    }),
    "trotter": (_cmd_trotter, {
        "nmax": (int, 4), "omega": (float, 1.0), "lam": (float, 0.1),
        "dts": (_float_list, [0.2, 0.1, 0.05]), "ordering": (str, "by_magnitude_desc"),
    }),
    "lattice-sweep": (_cmd_lattice_sweep, {
        "nsites": (int, 4), "nmax": (int, 4), "omega": (float, 1.0),
        "kappas": (_float_list, [0.1]), "lam_grid": (_float_list, [-0.32, -0.02, 121]),
        "boundary": (str, "periodic"), "tol": (float, 1e-11),
    }),
    "riemann": (_cmd_riemann, {
        "nmax": (int, 8), "omega": (float, 1.0), "sector": (str, "even"),
        "res": (_int_list, [60, 120]), "jobs": (int, os.cpu_count() or 1),
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
        p.add_argument("--json", type=int, default=0, help="also mirror each CSV as JSON")
        for key, (caster, default) in spec.items():
            # list flags arrive as text and are cast in _resolve
            kind = str if caster in (_int_list, _float_list) else caster
            p.add_argument("--" + key.replace("_", "-"), dest=key, default=None, type=kind, help=f"default: {default}")
    return parser


def _resolve(spec: dict, args: argparse.Namespace) -> tuple[dict, list[str]]:
    """Each key's value by precedence, cast, and the values that do not cast.

    argparse casts the scalar flags; list flags, PHI4TRUNC_ variables and
    --config lines arrive as text and are cast here.  A value that does not
    cast stays text in the config and is named, with where it came from, in
    the second list, so that main records the failure in the manifest; so
    is a --config file that cannot be read or parsed.
    """
    cfg, bad = {}, []
    try:
        config_file = csvio.read_config_file(args.config) if args.config else {}
    except (OSError, ValueError) as exc:
        config_file = {}
        bad.append(f"--config {args.config}: {exc}")
    for key, (caster, default) in spec.items():
        raw, origin = getattr(args, key, None), ""
        if raw is None:
            env = os.environ.get(ENV_PREFIX + key.upper())
            if env is not None:
                raw, origin = env, f" (from {ENV_PREFIX}{key.upper()})"
            elif key in config_file:
                raw, origin = config_file[key], f" (from {args.config})"
            else:
                raw = default
        if isinstance(raw, str) and caster is not str:
            try:
                raw = caster(raw)
            except ValueError as exc:
                bad.append(f"--{key.replace('_', '-')}{origin} {raw!r}: {exc}")
        cfg[key] = raw
    return cfg, bad


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    fn, spec = COMMANDS[args.command]
    cfg, bad = _resolve(spec, args)

    from pathlib import Path

    outdir = Path(args.outdir) if args.outdir else Path("out") / args.command
    run = {"warnings": []}
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
    if args.json:
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
