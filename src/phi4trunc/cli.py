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
import os
import sys
import warnings
from fractions import Fraction

import numpy as np

from . import csvio
from .dyson import dyson_series
from .hamiltonian import (
    LatticeSpec,
    anharmonic_family,
    lattice_hamiltonian,
    parity_decompose,
    single_site_hamiltonian,
    strong_coupling_family,
    strong_coupling_hamiltonian,
)
from .oscillator import TruncationSpec
from .pauli import (
    build_trotter_plan,
    count_resources,
    pauli_decompose,
    qubit_count,
    simulate_trotter,
    trotter_step_unitary,
)
from .projector import evolve_projector_method, perturbed_projector
from .series import radius_estimate, strong_series, weak_series
from .singularities import (
    gap_scan,
    min_sector_gaps,
    mollweide_project,
    refine_exceptional_point,
    sylvester_discriminant,
)
from .spectral import (
    curvature_peak,
    dense_spectrum,
    exact_amplitude,
    lanczos_lowest,
    stencil_derivatives,
)

ENV_PREFIX = "PHI4TRUNC_"


def _parse_complex(text: str) -> complex:
    return complex(text.replace(" ", ""))


def _int_list(text: str) -> list[int]:
    return [int(t) for t in text.replace(",", " ").split()]


def _float_list(text: str) -> list[float]:
    return [float(t) for t in text.replace(",", " ").split()]


def _sector_handle(h, cfg):
    if cfg["sector"] in ("even", "odd"):
        blocks = parity_decompose(h, TruncationSpec(cfg["nmax"], cfg["omega"]))
        return blocks.even if cfg["sector"] == "even" else blocks.odd
    return h


# ---------------------------------------------------------------------------
# subcommand bodies: each returns a list of output paths

def _cmd_spectrum(cfg, outdir):
    trunc = TruncationSpec(cfg["nmax"], cfg["omega"])
    if cfg["nsites"] > 1:
        # the lattice path diagonalizes the full weak-coupling chain
        if cfg["sector"] != "full":
            raise ValueError(f"--sector {cfg['sector']!r} needs --nsites 1 (lattice spectra are full)")
        if cfg["domain"] != "weak":
            raise ValueError(f"--domain {cfg['domain']!r} needs --nsites 1 (lattice spectra are weak coupling)")
        spec = LatticeSpec(cfg["nsites"], trunc, cfg["kappa"], cfg["lam"], cfg["boundary"])
        h = lattice_hamiltonian(spec)
        if cfg["method"] == "lanczos":
            result = lanczos_lowest(h, cfg["k"], cfg["tol"])
        else:
            from .oscillator import OperatorMatrix

            result = dense_spectrum(OperatorMatrix(h.matrix.toarray(), hermitian=h.hermitian))
    else:
        if cfg["domain"] == "strong":
            h = strong_coupling_hamiltonian(trunc, cfg["lam"])
        else:
            h = single_site_hamiltonian(trunc, cfg["lam"])
        h = _sector_handle(h, cfg)
        result = dense_spectrum(h)
    rows = [(i, complex(z).real, complex(z).imag) for i, z in enumerate(result.eigenvalues)]
    path = csvio.write_csv(outdir / "spectrum.csv", ["index", "re", "im"], rows,
                           {"nmax": cfg["nmax"], "sector": cfg["sector"]})
    outputs = [str(path)]
    if cfg["dump_matrix"]:
        mpath = csvio.write_matrix_csv(outdir / "matrix.csv", h,
                                       {"nmax": cfg["nmax"], "sector": cfg["sector"]})
        outputs.append(str(mpath))
    return outputs


def _cmd_series(cfg, outdir):
    trunc = TruncationSpec(cfg["nmax"], cfg["omega"])
    if cfg["domain"] == "weak":
        ser = weak_series(trunc, cfg["level"], None, cfg["orders"])
        rows = [(m, c.numerator, c.denominator) for m, c in enumerate(ser.coeffs)]
        header = ["order", "numerator", "denominator"]
    else:
        ser = strong_series(trunc, cfg["level"], cfg["sector"], cfg["orders"], cfg["precision"])
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
    trunc = TruncationSpec(cfg["nmax"], cfg["omega"])
    fit_lo, fit_hi = cfg["fit"]
    if cfg["domain"] == "weak":
        ser = weak_series(trunc, cfg["level"], None, cfg["orders"])
    else:
        ser = strong_series(trunc, cfg["level"], cfg["sector"], cfg["orders"], cfg["precision"])
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
    series, value = perturbed_projector(trunc, cfg["level"], None, cfg["order"], cfg["lam"])
    rows = []
    for m in range(series.order + 1):
        for i in range(trunc.n_max):
            for j in range(trunc.n_max):
                c = series.entry_exact(m, i, j)
                if c != 0:
                    rows.append((m, i, j, c.numerator, c.denominator))
    p1 = csvio.write_csv(outdir / "projector_series.csv",
                         ["order", "row", "col", "numerator", "denominator"], rows,
                         {"basis": "weighted", "level": cfg["level"], "nmax": cfg["nmax"]})
    rows = [(i, j, value[i, j]) for i in range(trunc.n_max) for j in range(trunc.n_max)]
    p2 = csvio.write_csv(outdir / "projector_value.csv", ["row", "col", "value"], rows,
                         {"lambda": cfg["lam"], "level": cfg["level"]})
    r, c = cfg["entry"]
    ser_e = weak_series(trunc, cfg["level"], None, cfg["order"])
    esums = ser_e.partial_sums(Fraction(str(cfg["lam"])))
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
    trunc = TruncationSpec(cfg["nmax"], cfg["omega"])
    t = np.linspace(0.0, cfg["tmax"], cfg["nt"])
    sin, sout = cfg["state_in"], cfg["state_out"]
    if cfg["method"] == "trotter":
        n_q = qubit_count(trunc.n_max)
        dec = pauli_decompose(single_site_hamiltonian(trunc, cfg["lam"]), n_q)
        steps = cfg["steps"] if cfg["steps"] else int(round(cfg["tmax"] / cfg["dt"]))
        plan = build_trotter_plan(dec, cfg["dt"], steps, cfg["ordering"])
        sim = simulate_trotter(plan, sin, [sout])
        rows = [(k, sim["t"][k], sout, sim["probabilities"][k, 0]) for k in range(steps + 1)]
        path = csvio.write_csv(outdir / "trotter_trace.csv", ["step", "t", "state", "prob"],
                               rows, {"dt": cfg["dt"], "lambda": cfg["lam"], "ordering": plan.ordering})
        return [str(path)]
    if cfg["method"] == "exact":
        amp = exact_amplitude(single_site_hamiltonian(trunc, cfg["lam"]), t, sin, sout)
    elif cfg["method"] == "projector":
        amp = evolve_projector_method(trunc, cfg["order"], cfg["lam"], t, sin, sout).amplitude
    elif cfg["method"] == "dyson":
        damp = dyson_series(trunc, cfg["order"], Fraction(str(cfg["lam"])), sin, sout)
        amp = damp.trace(t)
    else:
        raise ValueError(f"unknown evolve method {cfg['method']!r}")
    rows = [(tv, a.real, a.imag, abs(a) ** 2) for tv, a in zip(t, amp)]
    path = csvio.write_csv(outdir / "evolve.csv", ["t", "re", "im", "prob"], rows,
                           {"method": cfg["method"], "lambda": cfg["lam"],
                            "order": cfg["order"], "transition": f"{sin}->{sout}"})
    return [str(path)]


def _cmd_scan(cfg, outdir):
    trunc = TruncationSpec(cfg["nmax"], cfg["omega"])
    family = strong_coupling_family(trunc) if cfg["domain"] == "strong" else anharmonic_family(trunc)
    re_lo, re_hi = cfg["re"]
    im_lo, im_hi = cfg["im"]
    n_re, n_im = cfg["res"]
    grid = gap_scan(family, ((re_lo, re_hi), (im_lo, im_hi)), (n_re, n_im),
                    cfg["sector"], cfg["jobs"])
    meta = {"nmax": cfg["nmax"], "sector": cfg["sector"], "domain": cfg["domain"],
            "re_range": f"[{re_lo},{re_hi}]", "im_range": f"[{im_lo},{im_hi}]",
            "resolution": f"{n_re}x{n_im}"}
    p1 = csvio.write_csv(outdir / "scan.csv", ["re", "im", "gap"], grid.points(), meta)
    outputs = [str(p1)]
    if cfg["refine"]:
        flat = np.sort(grid.values[~np.isnan(grid.values)].ravel())
        cut = flat[max(0, int(0.01 * flat.size) - 1)]
        seeds = sorted(
            (complex(re, im) for re, im, gap in grid.points() if gap <= cut and im > 0),
            key=lambda z: grid.values[
                np.argmin(np.abs(grid.im_axis() - z.imag)),
                np.argmin(np.abs(grid.re_axis() - z.real)),
            ],
        )
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
                            "lambda": cfg["lam"], "n_qubits": n_q})
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
    w, u = np.linalg.eigh(h.entries)
    rows = []
    prev = None
    for dt in cfg["dts"]:
        plan = build_trotter_plan(dec, dt, 1, cfg["ordering"])
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


def _cmd_lattice_sweep(cfg, outdir):
    trunc = TruncationSpec(cfg["nmax"], cfg["omega"])
    lam_lo, lam_hi, n_lam = cfg["lam_grid"]
    lams = np.linspace(lam_lo, lam_hi, int(n_lam))
    outputs = []
    summary = []
    for kappa in cfg["kappas"]:
        energies = []
        for lam in lams:
            spec = LatticeSpec(cfg["nsites"], trunc, kappa, lam, cfg["boundary"])
            h = lattice_hamiltonian(spec)
            res = lanczos_lowest(h, 1, cfg["tol"])
            energies.append(res.eigenvalues[0])
        energies = np.array(energies)
        derivs = stencil_derivatives(lams, energies)
        rows = [(lam, e, d1, d2, d4) for lam, e, (d1, d2, d4) in zip(lams, energies, derivs)]
        path = csvio.write_csv(outdir / f"sweep_kappa{kappa:g}.csv",
                               ["lambda", "E", "d1", "d2", "d4"], rows,
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
    trunc = TruncationSpec(cfg["nmax"], cfg["omega"])
    family = anharmonic_family(trunc)
    h0s, vs = family.sector_matrices(cfg["sector"])
    rows = []
    n_lat, n_lon = cfg["res"]
    lons = np.linspace(-np.pi, np.pi, n_lon, endpoint=False)
    for lat in np.linspace(-np.pi / 2 * 0.98, np.pi / 2 * 0.98, n_lat):
        radius = np.sqrt((1 + np.sin(lat)) / (1 - np.sin(lat)))
        lams = radius * np.exp(1j * lons)
        gaps = np.abs(min_sector_gaps(h0s, vs, lams))
        for lon, lam, gap in zip(lons, lams, gaps):
            x, y = mollweide_project(lon, lat)
            rows.append((lam.real, lam.imag, gap, x, y))
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
        "level": (int, 0), "sector": (str, "even"), "orders": (int, 10),
        "precision": (int, None),
    }),
    "radius": (_cmd_radius, {
        "nmax": (int, 4), "omega": (float, 1.0), "domain": (str, "weak"),
        "level": (int, 0), "sector": (str, "even"), "orders": (int, 200),
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
        "res": (_int_list, [60, 120]),
    }),
}


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
            flag = "--" + key.replace("_", "-")
            if caster in (_int_list, _float_list):
                p.add_argument(flag, dest=key, default=None, type=str,
                               help=f"default: {default}")
            else:
                p.add_argument(flag, dest=key, default=None,
                               type=caster if caster is not None else str,
                               help=f"default: {default}")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    fn, spec = COMMANDS[args.command]
    config_file = csvio.read_config_file(args.config) if args.config else {}
    cfg = {}
    for key, (caster, default) in spec.items():
        raw = getattr(args, key, None)
        if raw is not None and caster in (_int_list, _float_list):
            raw = caster(raw)
        if raw is None:
            env = os.environ.get(ENV_PREFIX + key.upper())
            if env is not None:
                raw = caster(env) if caster is not None else env
            elif key in config_file:
                raw = caster(config_file[key]) if caster is not None else config_file[key]
            else:
                raw = default
        cfg[key] = raw

    from pathlib import Path

    outdir = Path(args.outdir) if args.outdir else Path("out") / args.command
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            outputs = fn(cfg, outdir)
    except Exception as exc:  # numeric or configuration failure
        csvio.write_manifest(outdir, args.command, cfg, [], status="error",
                             error={"type": type(exc).__name__, "message": str(exc)})
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        outputs = outputs + [
            str(csvio.mirror_csv_as_json(path)) for path in outputs if path.endswith(".csv")
        ]
    csvio.write_manifest(outdir, args.command, cfg, outputs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
