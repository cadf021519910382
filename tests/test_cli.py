import json
import os
import subprocess
import sys
import warnings

import pytest

from phi4trunc.cli import build_parser, main


def run_cli(args, tmp_path, name):
    outdir = tmp_path / name
    code = main(args + ["--outdir", str(outdir)])
    return code, outdir


def test_series_output_exact_rationals(tmp_path):
    code, outdir = run_cli(["series", "--nmax", "4", "--level", "0", "--orders", "4"],
                           tmp_path, "s")
    assert code == 0
    body = (outdir / "series.csv").read_text().splitlines()
    assert body[-5:] == ["0,1,2", "1,3,4", "2,-9,4", "3,27,4", "4,-567,32"]
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["config"]["nmax"] == 4
    assert manifest["outputs"]


def test_spectrum_even_sector(tmp_path):
    code, outdir = run_cli(["spectrum", "--nmax", "4", "--lam", "0.1", "--sector", "even"],
                           tmp_path, "sp")
    assert code == 0
    rows = [l for l in (outdir / "spectrum.csv").read_text().splitlines()
            if l and not l.startswith("#")][1:]
    e0 = float(rows[0].split(",")[1])
    assert abs(e0 - 0.557806) < 5e-7


def test_spectrum_matrix_dump(tmp_path):
    code, outdir = run_cli(["spectrum", "--nmax", "4", "--lam", "0.1", "--dump-matrix", "1"],
                           tmp_path, "dm")
    assert code == 0
    rows = [l for l in (outdir / "matrix.csv").read_text().splitlines()
            if l and not l.startswith("#")]
    assert rows[0] == "row,col,re,im"
    first = rows[1].split(",")
    assert first[:2] == ["0", "0"] and float(first[2]) == pytest.approx(0.575)


@pytest.mark.parametrize("method, lam", [("dense", 0.0), ("lanczos", 0.0), ("dense", 0.25), ("lanczos", -0.2),
                                         ("dense", 0.1 + 0.05j)])
def test_lattice_matrix_dump_is_the_nonzero_dense_entries(tmp_path, lam, method):
    # at lam = 0 the entries of phi^4 alone (two steps on one site) are absent
    import numpy as np

    from oracles import dense_lattice_hamiltonian

    code, outdir = run_cli(["spectrum", "--nsites", "3", "--nmax", "4", "--kappa", "0.1", "--lam", str(lam),
                            "--method", method, "--k", "2", "--dump-matrix", "1"], tmp_path, "dm")
    assert code == 0
    rows = [l.split(",") for l in (outdir / "matrix.csv").read_text().splitlines() if not l.startswith("#")]
    assert rows[0] == ["row", "col", "re", "im"]
    want = dense_lattice_hamiltonian(3, 4, 0.1, lam, "periodic")
    assert [(int(r), int(c)) for r, c, _, _ in rows[1:]] == list(zip(*np.nonzero(want)))
    got = np.array([complex(float(re), float(im)) for _, _, re, im in rows[1:]])
    assert np.allclose(got, want[np.nonzero(want)], rtol=1e-14, atol=1e-15)


def test_resources_row(tmp_path):
    code, outdir = run_cli(["resources", "--nq", "4"], tmp_path, "r")
    assert code == 0
    assert "4,55,495" in (outdir / "resources.csv").read_text()


def test_radius_csv(tmp_path):
    code, outdir = run_cli(["radius", "--nmax", "4", "--level", "0", "--orders", "60",
                            "--fit", "30 60"], tmp_path, "rad")
    assert code == 0
    last = (outdir / "radius.csv").read_text().splitlines()[-1].split(",")
    assert float(last[-1]) == pytest.approx(0.2843, abs=2e-4)


def test_evolve_projector_harmonic_is_zero(tmp_path):
    code, outdir = run_cli(["evolve", "--method", "projector", "--nmax", "4", "--lam", "0",
                            "--order", "0", "--tmax", "5", "--nt", "6"], tmp_path, "ev")
    assert code == 0
    rows = [l for l in (outdir / "evolve.csv").read_text().splitlines()
            if l and not l.startswith("#")][1:]
    assert all(float(r.split(",")[3]) == 0.0 for r in rows)


def test_json_mirror(tmp_path):
    code, outdir = run_cli(["series", "--nmax", "4", "--level", "0", "--orders", "2",
                            "--json", "1"], tmp_path, "jm")
    assert code == 0
    mirror = json.loads((outdir / "series.json").read_text())
    assert mirror["header"] == ["order", "numerator", "denominator"]
    assert mirror["rows"][2] == ["2", "-9", "4"]
    assert mirror["meta"]["level"] == "0"
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert any(p.endswith("series.json") for p in manifest["outputs"])


def test_byte_identical_reruns(tmp_path):
    _, out1 = run_cli(["scan", "--nmax", "4", "--re", "-0.3 0.0", "--im", "0.0 0.2",
                       "--res", "11 11", "--jobs", "3"], tmp_path, "a")
    _, out2 = run_cli(["scan", "--nmax", "4", "--re", "-0.3 0.0", "--im", "0.0 0.2",
                       "--res", "11 11", "--jobs", "3"], tmp_path, "b")
    assert (out1 / "scan.csv").read_bytes() == (out2 / "scan.csv").read_bytes()


def test_env_and_config_precedence(tmp_path, monkeypatch):
    conf = tmp_path / "run.conf"
    conf.write_text("# comment\nnmax = 8\nlevel = 4\norders = 3\n")
    # config file alone
    code, outdir = run_cli(["series", "--config", str(conf)], tmp_path, "c1")
    assert code == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["config"]["nmax"] == 8 and manifest["config"]["level"] == 4
    # environment beats config
    monkeypatch.setenv("PHI4TRUNC_LEVEL", "2")
    code, outdir = run_cli(["series", "--config", str(conf)], tmp_path, "c2")
    assert json.loads((outdir / "manifest.json").read_text())["config"]["level"] == 2
    # explicit flag beats both
    code, outdir = run_cli(["series", "--config", str(conf), "--level", "0"], tmp_path, "c3")
    assert json.loads((outdir / "manifest.json").read_text())["config"]["level"] == 0


def test_numeric_failure_exit_code_and_manifest(tmp_path, capsys):
    code, outdir = run_cli(["series", "--nmax", "6", "--level", "9"], tmp_path, "bad")
    assert code == 1
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert manifest["error"]["type"] == "ValueError"


@pytest.mark.parametrize("args, held", [
    (["series", "--level", "0", "--sector", "odd"], "even"),
    (["radius", "--level", "1", "--sector", "even", "--orders", "20", "--fit", "5,10"], "odd"),
])
def test_weak_series_refuses_a_sector_that_does_not_hold_the_level_before_any_work(tmp_path, monkeypatch,
                                                                                    args, held):
    from phi4trunc import cli

    def no_work(*args, **kwargs):
        raise AssertionError("the weak series ran")

    monkeypatch.setattr(cli, "weak_series", no_work)
    code, outdir = run_cli(args + ["--nmax", "4"], tmp_path, "bad")
    assert code == 1
    manifest = json.loads((outdir / "manifest.json").read_text())
    level, sector = args[2], args[4]
    assert manifest["error"] == {"type": "ValueError", "message": f"--sector {sector!r} does not hold "
                                                                  f"--level {level}, which lies in the {held} sector"}
    assert not list(outdir.glob("*.csv"))


def test_weak_series_takes_the_level_sector_named_or_not(tmp_path):
    bodies = []
    for name, extra in (("named", ["--sector", "odd"]), ("unnamed", [])):
        code, outdir = run_cli(["series", "--nmax", "4", "--level", "1", "--orders", "4"] + extra, tmp_path, name)
        assert code == 0
        bodies.append((outdir / "series.csv").read_text())
    assert bodies[0] == bodies[1]


@pytest.mark.parametrize("flag, value", [("--sector", "even"), ("--domain", "strong")])
def test_lattice_spectrum_rejects_single_site_flags(tmp_path, flag, value):
    code, outdir = run_cli(["spectrum", "--nsites", "2", "--nmax", "2", "--kappa", "0.1",
                            flag, value], tmp_path, "lat")
    assert code == 1
    error = json.loads((outdir / "manifest.json").read_text())["error"]
    assert error["type"] == "ValueError"
    assert repr(value) in error["message"]


@pytest.mark.parametrize("args, named", [
    (["--nsites", "4", "--kappa", "0.1", "--method", "lanzcos"], "--method 'lanzcos'"),
    (["--method", "lanzcos"], "--method 'lanzcos'"),
    (["--nsites", "0"], "--nsites 0"),
    (["--nsites", "-3"], "--nsites -3"),
])
def test_spectrum_rejects_a_bad_method_or_site_count(tmp_path, args, named):
    code, outdir = run_cli(["spectrum"] + args, tmp_path, "bad")
    assert code == 1
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["error"]["type"] == "ValueError"
    assert named in manifest["error"]["message"]
    assert not list(outdir.glob("*.csv"))


@pytest.mark.parametrize("args, named", [
    (["spectrum", "--nmax", "4", "--sector", "evn"], "--sector 'evn' must be 'full', 'even' or 'odd'"),
    (["spectrum", "--nmax", "4", "--domain", "strng"], "--domain 'strng' must be 'weak' or 'strong'"),
    (["spectrum", "--nsites", "2", "--nmax", "2", "--kappa", "0.1", "--sector", "evn"], "--sector 'evn' must be"),
    (["scan", "--nmax", "4", "--res", "4,4", "--domain", "strng"], "--domain 'strng' must be 'weak' or 'strong'"),
    (["series", "--nmax", "4", "--domain", "strng"], "--domain 'strng' must be 'weak' or 'strong'"),
    (["radius", "--nmax", "4", "--domain", "strng"], "--domain 'strng' must be 'weak' or 'strong'"),
    (["series", "--nmax", "4", "--domain", "strong", "--sector", "evn"], "--sector 'evn' must be 'even' or 'odd'"),
    (["scan", "--nmax", "4", "--res", "4,4", "--sector", "evn"], "--sector 'evn' must be 'even' or 'odd'"),
    (["riemann", "--nmax", "4", "--res", "4,4", "--sector", "evn"], "--sector 'evn' must be 'even' or 'odd'"),
    (["resultant", "--nmax", "4", "--sector", "evn"], "--sector 'evn' must be 'even' or 'odd'"),
])
def test_misspelled_sector_or_domain_is_recorded_naming_the_flag(tmp_path, args, named):
    code, outdir = run_cli(args, tmp_path, "bad")
    assert code == 1
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["status"] == "error" and manifest["error"]["type"] == "ValueError"
    assert named in manifest["error"]["message"]
    assert not list(outdir.glob("*.csv"))


@pytest.mark.parametrize("args, named", [
    (["evolve", "--method", "trotter", "--dt", "0"], "--dt 0.0 must be positive"),
    (["evolve", "--method", "trotter", "--dt", "-0.1", "--steps", "5"], "--dt -0.1 must be positive"),
    (["evolve", "--method", "trotter", "--steps", "-1"], "--steps -1 must be at least 0"),
    (["evolve", "--method", "trotter", "--tmax=-1"],
     "--tmax -1.0 over --dt 0.1 gives -10 Trotter steps; --tmax must be at least 0"),
    (["trotter", "--dts", "0.1,0"], "--dts [0.1, 0.0] must all be positive"),
    (["trotter", "--dts", "-0.05"], "--dts [-0.05] must all be positive"),
])
def test_bad_trotter_steps_are_recorded_naming_the_flag_before_any_work(tmp_path, monkeypatch, args, named):
    from phi4trunc import cli

    def no_work(*args, **kwargs):
        raise AssertionError("the Pauli decomposition ran")

    monkeypatch.setattr(cli, "pauli_decompose", no_work)
    code, outdir = run_cli(args + ["--nmax", "4"], tmp_path, "bad")
    assert code == 1
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["error"] == {"type": "ValueError", "message": named}
    assert not list(outdir.glob("*.csv"))


@pytest.mark.parametrize("args, warned", [
    (["projector", "--level", "1", "--lam", "0.05"], []),
    (["evolve", "--method", "projector", "--state-in", "1", "--state-out", "3", "--lam", "0.05", "--nt", "3"], []),
    (["projector", "--level", "1", "--lam", "0.5"], ["|lam|=0.5 is outside the estimated convergence radius"]),
])
def test_convergence_check_records_only_its_radius_warning(tmp_path, monkeypatch, args, warned):
    # the check's 20-40 order fit skips the vanishing odd orders of the two-level odd block unheard
    monkeypatch.setattr(warnings, "showwarning", lambda *args, **kwargs: None)
    code, outdir = run_cli(args + ["--nmax", "4"], tmp_path, "conv")
    assert code == 0
    recorded = json.loads((outdir / "manifest.json").read_text())["run"]["warnings"]
    assert len(recorded) == len(warned)
    assert all(w["category"] == "RuntimeWarning" and w["message"].startswith(text)
               for w, text in zip(recorded, warned))


@pytest.mark.parametrize("args, named", [
    (["evolve", "--method", "dyson", "--order", "-2"], "order -2"),
    (["evolve", "--method", "projector", "--order", "-1"], "order -1"),
    (["evolve", "--method", "exact", "--nt", "0"], "--nt 0 must be at least 1"),
    (["evolve", "--method", "dyson", "--nt", "-1"], "--nt -1 must be at least 1"),
    (["evolve", "--method", "projector", "--nt", "-5"], "--nt -5 must be at least 1"),
    (["spectrum", "--nsites", "4", "--kappa", "0.1", "--method", "lanczos", "--k", "0"],
     "k must be at least 1, got 0"),
    (["series", "--nmax", "8", "--level", "2", "--orders", "-1"], "--orders -1 must be at least 0"),
    (["series", "--nmax", "8", "--level", "2", "--domain", "strong", "--orders", "-3"],
     "--orders -3 must be at least 0"),
    (["radius", "--nmax", "8", "--level", "2", "--orders", "-1"], "--orders -1 must be at least 0"),
    (["radius", "--nmax", "8", "--level", "2", "--domain", "strong", "--orders", "-2"],
     "--orders -2 must be at least 0"),
    (["radius", "--nmax", "4", "--orders", "20", "--fit", "5,10,15"], "--fit [5, 10, 15] needs exactly 2 orders"),
    (["radius", "--nmax", "4", "--orders", "20", "--fit", "5"], "--fit [5] needs exactly 2 orders"),
    (["radius", "--nmax", "8", "--level", "2", "--orders", "200", "--fit", "100,250"],
     "--fit [100, 250] needs 0 <= first < second <= --orders 200"),
    (["radius", "--nmax", "8", "--level", "2", "--orders", "200", "--fit", "150,100"],
     "--fit [150, 100] needs 0 <= first < second <= --orders 200"),
    (["series", "--nmax", "8", "--level", "2", "--domain", "strong", "--precision", "-4"],
     "--precision -4 must be at least 6"),
    (["radius", "--nmax", "8", "--level", "2", "--domain", "strong", "--precision", "5"],
     "--precision 5 must be at least 6"),
])
def test_bad_orders_and_level_counts_are_recorded(tmp_path, args, named):
    code, outdir = run_cli(args, tmp_path, "bad")
    assert code == 1
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["status"] == "error" and manifest["error"]["type"] == "ValueError"
    assert named in manifest["error"]["message"]
    assert not list(outdir.glob("*.csv"))


def test_weak_series_ignores_precision(tmp_path):
    # --precision sets the digits of a strong series only; a weak run is exact
    code, outdir = run_cli(["series", "--nmax", "4", "--level", "0", "--orders", "4", "--precision", "5"],
                           tmp_path, "s")
    assert code == 0
    assert (outdir / "series.csv").read_text().splitlines()[-1] == "4,-567,32"


@pytest.mark.parametrize("args, named", [
    (["evolve", "--method", "exact", "--state-in", "-1", "--state-out", "1"], "states -1->1 outside 0..3"),
    (["evolve", "--method", "exact", "--state-out", "6"], "states 0->6 outside 0..3"),
    (["evolve", "--method", "projector", "--state-in", "-1", "--state-out", "1"], "states -1->1 outside 0..3"),
    (["evolve", "--method", "projector", "--state-out", "6"], "states 0->6 outside 0..3"),
    (["evolve", "--method", "dyson", "--state-out", "4"], "states 0->4 outside 0..3"),
    (["projector", "--entry", "9,0"], "--entry [9, 0] needs exactly 2 indices in 0..3"),
    (["projector", "--entry", "1"], "--entry [1] needs exactly 2 indices in 0..3"),
])
def test_bad_state_and_entry_indices_are_recorded_before_any_output(tmp_path, args, named):
    code, outdir = run_cli(args + ["--nmax", "4"], tmp_path, "bad")
    assert code == 1
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["status"] == "error" and manifest["error"]["type"] == "ValueError"
    assert named in manifest["error"]["message"]
    assert not list(outdir.glob("*.csv"))


def test_lanczos_spectrum_takes_a_tol_of_zero(tmp_path):
    args = ["spectrum", "--nsites", "6", "--nmax", "4", "--kappa", "0.1", "--lam", "0.15",
            "--method", "lanczos", "--k", "1", "--tol"]
    energies = []
    for tol in ("0", "1e-12"):
        code, outdir = run_cli(args + [tol], tmp_path, f"tol{tol}")
        assert code == 0
        rows = [l for l in (outdir / "spectrum.csv").read_text().splitlines() if not l.startswith("#")]
        energies.append(float(rows[1].split(",")[1]))
    assert abs(energies[0] - energies[1]) <= 1e-12 * abs(energies[1])


def test_lanczos_past_its_step_limit_is_recorded(tmp_path, monkeypatch):
    from phi4trunc import spectral

    monkeypatch.setattr(spectral, "LANCZOS_MAX_STEPS", 10)
    code, outdir = run_cli(["spectrum", "--nsites", "6", "--nmax", "4", "--kappa", "0.1",
                            "--method", "lanczos", "--k", "1"], tmp_path, "capped")
    assert code == 1
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["error"]["type"] == "RuntimeError"
    assert manifest["error"]["message"].startswith("Lanczos failed to converge: 0/1 eigenvalues converged in 10 steps")
    assert not list(outdir.glob("*.csv"))


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "phi4trunc.cli", "spectrum", "--no-such-flag"],
        capture_output=True,
        env={**os.environ},
    )
    assert proc.returncode == 2


def test_pauli_csv_and_identity_metadata(tmp_path):
    code, outdir = run_cli(["pauli", "--nmax", "4", "--lam", "0.1"], tmp_path, "p")
    assert code == 0
    text = (outdir / "pauli.csv").read_text()
    assert "# identity_coeff=2.375" in text
    assert "# n_dropped=0" in text
    assert "IZ,-0.5" in text


def test_trotter_trace_records_norm_drift(tmp_path):
    code, outdir = run_cli(["evolve", "--method", "trotter", "--nmax", "8", "--lam", "0.2",
                            "--dt", "0.01", "--steps", "300"], tmp_path, "e")
    assert code == 0
    lines = (outdir / "trotter_trace.csv").read_text().splitlines()
    drift = float(next(l for l in lines if l.startswith("# norm_drift=")).partition("=")[2])
    assert 0.0 <= drift <= 1e-12
    assert len([l for l in lines if not l.startswith("#")]) == 302  # header plus steps 0..300


def test_trotter_error_table(tmp_path):
    code, outdir = run_cli(["trotter", "--nmax", "4", "--lam", "0.1",
                            "--dts", "0.2 0.1"], tmp_path, "t")
    assert code == 0
    rows = [l for l in (outdir / "trotter_error.csv").read_text().splitlines()
            if l and not l.startswith("#")][1:]
    ratio = float(rows[1].split(",")[2])
    assert ratio == pytest.approx(4.0, abs=0.5)


def test_resultant_outputs(tmp_path):
    code, outdir = run_cli(["resultant", "--nmax", "4", "--sector", "even"], tmp_path, "res")
    assert code == 0
    body = (outdir / "resultant.csv").read_text()
    assert "0,-16384,1" in body and "2,-221184,1" in body
    roots = (outdir / "resultant_roots.csv").read_text()
    assert "-0.2222222" in roots


def test_resultant_roots_of_coefficients_past_a_double(tmp_path):
    # omega 1.1 is the double 2476979795053773 / 2^51: coefficients of over 2,000 bits
    import mpmath
    import numpy as np

    code, outdir = run_cli(["resultant", "--nmax", "6", "--sector", "even", "--omega", "1.1"], tmp_path, "big")
    assert code == 0
    coeffs = [int(line.split(",")[1]) for line in (outdir / "resultant.csv").read_text().splitlines()
              if line and line[0].isdigit()]
    assert max(abs(c) for c in coeffs).bit_length() > 1100
    rows = [line.split(",") for line in (outdir / "resultant_roots.csv").read_text().splitlines()
            if line and not line.startswith("#")][1:]
    got = [complex(float(re), float(im)) for re, im in rows]
    with mpmath.workdps(60):
        want = mpmath.polyroots([mpmath.mpf(c) for c in reversed(coeffs)], maxsteps=200, extraprec=240)
    assert np.array_equal(np.sort_complex(got), np.sort_complex([complex(z) for z in want]))


def test_resultant_leaves_mpmath_unimported(tmp_path):
    # certified roots round their fixed-point centres to doubles without mpmath
    script = (
        "import sys\n"
        "from phi4trunc.cli import main\n"
        f"out = {str(tmp_path)!r}\n"
        "for n_max in ('8', '12'):\n"
        "    for sector in ('even', 'odd'):\n"
        "        assert main(['resultant', '--nmax', n_max, '--sector', sector, f'--outdir={out}/{n_max}{sector}']) == 0\n"
        "print('mpmath' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_riemann_output(tmp_path):
    code, outdir = run_cli(["riemann", "--nmax", "4", "--res", "7 12"], tmp_path, "ri")
    assert code == 0
    rows = [l for l in (outdir / "riemann.csv").read_text().splitlines()
            if l and not l.startswith("#")]
    assert rows[0] == "re,im,gap,x,y"
    assert len(rows) == 1 + 7 * 12


def test_lattice_sweep_outputs(tmp_path):
    code, outdir = run_cli(["lattice-sweep", "--nsites", "2", "--nmax", "4",
                            "--kappas", "0.1", "--lam-grid", "-0.35 0.05 41"],
                           tmp_path, "lat")
    assert code == 0
    summary = (outdir / "sweep_singularities.csv").read_text().splitlines()[-1]
    kappa, re_est, im_est = (float(x) for x in summary.split(","))
    assert kappa == 0.1
    assert -0.3 < re_est < -0.05
    assert im_est > 0


@pytest.mark.parametrize("args, n_max", [
    (["trotter", "--nmax", "6"], 6),
    (["pauli", "--nmax", "6"], 6),
    (["evolve", "--method", "trotter", "--nmax", "12", "--steps", "2"], 12),
])
def test_qubit_commands_name_a_non_power_of_two_nmax(tmp_path, args, n_max):
    code, outdir = run_cli(args, tmp_path, "q")
    assert code == 1
    error = json.loads((outdir / "manifest.json").read_text())["error"]
    assert error["type"] == "ValueError"
    assert f"n_max={n_max} is not a power of two" in error["message"]


@pytest.mark.parametrize("flag, named", [
    ("--kappas=", "[]"),
    ("--lam-grid=-0.3,0.1", "[-0.3, 0.1]"),
    ("--lam-grid=0.1,-0.3,41", "0.1"),
    ("--lam-grid=-0.3,0.1,4", "4.0"),
    ("--lam-grid=-0.3,0.1,40.5", "40.5"),
])
def test_lattice_sweep_rejects_bad_grids_before_any_work(tmp_path, flag, named):
    code, outdir = run_cli(["lattice-sweep", "--nsites", "2", "--nmax", "2", flag], tmp_path, "bad")
    assert code == 1
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["error"]["type"] == "ValueError"
    assert named in manifest["error"]["message"]
    assert not list(outdir.glob("*.csv"))


@pytest.mark.parametrize("args, named", [
    (["riemann", "--res=0,5"], "[0, 5]"),
    (["riemann", "--res=3,0"], "[3, 0]"),
    (["riemann", "--res=3,4,5"], "[3, 4, 5]"),
    (["scan", "--res=0,5"], "[0, 5]"),
    (["scan", "--res=7"], "[7]"),
    (["scan", "--res=5,0", "--refine=1"], "[5, 0]"),
    (["scan", "--re=-0.1"], "--re [-0.1]"),
    (["scan", "--re=0.1,-0.4"], "--re [0.1, -0.4]"),
    (["scan", "--im=0.3,0.3"], "--im [0.3, 0.3]"),
    (["scan", "--sector=evn"], "'evn'"),
    (["riemann", "--sector=evn"], "'evn'"),
    (["riemann", "--res", "7.5 3"], "--res '7.5 3': invalid literal for int()"),
    (["scan", "--re", "abc"], "--re 'abc': could not convert string to float"),
    (["scan", "--jobs=0"], "--jobs 0 must be at least 1"),
    (["riemann", "--jobs=-3"], "--jobs -3 must be at least 1"),
])
def test_grid_commands_reject_bad_inputs_before_any_work(tmp_path, args, named):
    code, outdir = run_cli(args + ["--nmax", "2"], tmp_path, "bad")
    assert code == 1
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["error"]["type"] == "ValueError"
    assert named in manifest["error"]["message"]
    assert not list(outdir.glob("*.csv"))


@pytest.mark.parametrize("command", ["scan", "riemann"])
@pytest.mark.parametrize("sector", ["even", "odd"])
def test_grid_commands_reject_a_sector_of_one_level_before_any_work(tmp_path, command, sector):
    code, outdir = run_cli([command, "--nmax", "2", "--sector", sector, "--res", "4 4"], tmp_path, "one")
    assert code == 1
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["error"] == {"type": "ValueError", "message": f"--nmax 2 leaves the {sector} sector 1 "
                                 "level, and a gap needs a pair of levels"}
    assert manifest["run"]["warnings"] == []
    assert not list(outdir.glob("*.csv"))


@pytest.mark.parametrize("refine", ["0", "1"])
def test_scan_whose_every_point_fails_names_the_grid(tmp_path, monkeypatch, refine):
    import numpy as np

    import phi4trunc.singularities as sing

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    def lost(*coeffs):
        return [np.full(coeffs[0].shape, np.nan + 0j) for _ in coeffs]

    # the closed-form roots are lost at every point, so each goes on to the failing eigensolver
    monkeypatch.setattr(sing, "_CLOSED_FORMS", {s: lost for s in sing._CLOSED_FORMS})
    monkeypatch.setattr(np.linalg, "eigvals", fail)
    with pytest.warns(RuntimeWarning, match="9 grid points failed"):
        code, outdir = run_cli(["scan", "--nmax", "4", "--res", "3 3", "--refine", refine], tmp_path, "failed")
    assert code == 1
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["error"] == {"type": "LinAlgError", "message": "scan grid 3x3: all 9 points failed to "
                                 "diagonalize, so no gap is left"}
    assert not list(outdir.glob("*.csv"))


@pytest.mark.parametrize("source", ["env", "config"])
def test_list_values_from_variables_and_files_that_do_not_cast_are_recorded(tmp_path, monkeypatch, source):
    if source == "env":
        monkeypatch.setenv("PHI4TRUNC_RES", "4 x")
        args, named = ["riemann"], "--res (from PHI4TRUNC_RES) '4 x'"
    else:
        conf = tmp_path / "run.conf"
        conf.write_text("dts = 0.1, zz\n")
        args, named = ["trotter", "--config", str(conf)], f"--dts (from {conf}) '0.1, zz'"
    code, outdir = run_cli(args + ["--nmax", "2"], tmp_path, "bad")
    assert code == 1
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["status"] == "error" and manifest["error"]["type"] == "ValueError"
    assert named in manifest["error"]["message"]
    assert not list(outdir.glob("*.csv"))


@pytest.mark.parametrize("text, named", [("dts 0.1\n", "expected 'key = value'"),
                                         (None, "No such file")], ids=["unparsed-line", "missing-file"])
def test_config_files_that_cannot_be_read_are_recorded(tmp_path, text, named):
    conf = tmp_path / "run.conf"
    if text is not None:
        conf.write_text(text)
    code, outdir = run_cli(["trotter", "--config", str(conf), "--nmax", "2"], tmp_path, "bad")
    assert code == 1
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert str(conf) in manifest["error"]["message"] and named in manifest["error"]["message"]
    assert not list(outdir.glob("*.csv"))


def test_exact_and_scan_commands_leave_scipy_optimize_unimported(tmp_path):
    script = (
        "import sys\n"
        "from phi4trunc.cli import main\n"
        f"out = {str(tmp_path)!r}\n"
        "assert main(['resultant', '--nmax', '4', '--outdir', out + '/r']) == 0\n"
        "assert main(['scan', '--nmax', '4', '--res', '20 20', '--refine', '1', '--jobs', '1',"
        " '--outdir', out + '/s']) == 0\n"
        "assert main(['resources', '--nq', '2 3', '--outdir', out + '/q']) == 0\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_benchmark_commands_leave_scipy_unimported(tmp_path):
    # every op of the three benchmark workloads, at their small sizes, and the
    # lattice paths that build the full sparse matrix: the package imports no scipy
    perfbench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
    script = (
        "import sys\n"
        f"sys.path.insert(0, {perfbench!r})\n"
        "import workloads\n"
        "from phi4trunc.cli import main\n"
        f"out = {str(tmp_path)!r}\n"
        "for name in workloads.WORKLOADS:\n"
        "    for i, op in enumerate(workloads.generate(name, 1, small=True)):\n"
        "        assert main(op['argv'] + [f'--outdir={out}/{name}{i}']) == 0, op['argv']\n"
        "for method in ('dense', 'lanczos'):\n"
        "    assert main(['spectrum', '--nsites', '3', '--nmax', '4', '--kappa', '0.1', '--method', method,"
        " '--dump-matrix', '1', f'--outdir={out}/{method}']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_start_up_leaves_mpmath_and_thread_pools_unimported(tmp_path):
    # import loads numpy and the package only; the lattice-qubit ops never load
    # mpmath, and the grid commands run their threads without concurrent.futures
    # (at n_max 10: closed-form grids, up to n_max 8, run on the calling thread)
    perfbench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
    script = (
        "import sys, threading\n"
        f"sys.path.insert(0, {perfbench!r})\n"
        "import workloads\n"
        "def loaded():\n"
        "    return [m for m in ('mpmath', 'concurrent.futures') if m in sys.modules]\n"
        "import phi4trunc\n"
        "print(loaded())\n"
        "from phi4trunc.cli import main\n"
        "print(loaded())\n"
        f"out = {str(tmp_path)!r}\n"
        "for i, op in enumerate(workloads.generate('lattice-qubit', 1, small=True)):\n"
        "    assert main(op['argv'] + [f'--outdir={out}/{i}']) == 0, op['argv']\n"
        "print(loaded())\n"
        "started, start = [], threading.Thread.start\n"
        "threading.Thread.start = lambda self: (started.append(self), start(self))[1]\n"
        "assert main(['scan', '--nmax', '10', '--re', '-0.1 0.02', '--im', '-0.05 0.05', '--res', '60 60',"
        " '--jobs', '2', f'--outdir={out}/s']) == 0\n"
        "assert main(['riemann', '--nmax', '10', '--res', '40 80', '--jobs', '2', f'--outdir={out}/r']) == 0\n"
        "print(len(started), 'concurrent.futures' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ})
    assert proc.returncode == 0, proc.stderr
    package, cli, lattice, grids = proc.stdout.splitlines()
    assert package == cli == lattice == "[]"
    threads, futures = grids.split()
    assert int(threads) >= 2 and futures == "False"


def test_manifest_records_warnings_and_still_shows_them(tmp_path, monkeypatch):
    # the warning still reaches the installed showwarning (stderr by default)
    shown = []
    monkeypatch.setattr(warnings, "showwarning", lambda message, *rest, **kw: shown.append(str(message)))
    # a window that ends before the curvature peak warns once per kappa
    code, outdir = run_cli(["lattice-sweep", "--nsites", "4", "--nmax", "4", "--kappas", "0.1",
                            "--lam-grid=-0.30,-0.25,9"], tmp_path, "w")
    assert code == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert [w["category"] for w in manifest["run"]["warnings"]] == ["RuntimeWarning"]
    assert "grid boundary" in manifest["run"]["warnings"][0]["message"]
    assert shown == [manifest["run"]["warnings"][0]["message"]]
    code, outdir = run_cli(["series", "--orders", "2"], tmp_path, "quiet")
    assert json.loads((outdir / "manifest.json").read_text())["run"] == {"warnings": []}


def test_first_commands_run_no_full_collection(tmp_path):
    # the objects import leaves alive are frozen, out of reach of every later
    # collection, so the first full (generation 2) collection of a process
    # does not traverse them inside its first commands
    script = (
        "import gc\n"
        "from phi4trunc.cli import main\n"
        "print(len(gc.get_objects()), gc.get_freeze_count())\n"
        f"out = {str(tmp_path)!r}\n"
        "full = []\n"
        "gc.callbacks.append(lambda phase, info: full.append(1)"
        " if phase == 'start' and info['generation'] == 2 else None)\n"
        "assert main(['series', '--nmax', '8', '--level', '3', '--orders', '200',"
        " '--outdir', out + '/s']) == 0\n"
        "assert main(['radius', '--nmax', '8', '--level', '3', '--orders', '200',"
        " '--fit', '100,200', '--outdir', out + '/r']) == 0\n"
        "print(len(full))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ})
    assert proc.returncode == 0, proc.stderr
    counts, collections = proc.stdout.splitlines()
    tracked, frozen = map(int, counts.split())
    assert tracked < frozen // 10
    assert collections == "0"


def test_successive_commands_match_fresh_calls(tmp_path):
    # one parser serves every main() of a process; no value set by one call
    # reaches the next, so outputs and manifests equal those of fresh parsers
    commands = [
        ["evolve", "--method", "dyson", "--nmax", "4", "--order", "2", "--lam", "0.05", "--nt", "11"],
        ["series", "--nmax", "4", "--orders", "6"],
        ["evolve", "--nmax", "4", "--nt", "11"],
    ]

    def outputs(i):
        return {p.name: p.read_bytes() for p in sorted((tmp_path / f"c{i}").iterdir())}

    fresh = []
    for i, args in enumerate(commands):
        build_parser.cache_clear()
        assert main(args + ["--outdir", str(tmp_path / f"c{i}")]) == 0
        fresh.append(outputs(i))
    build_parser.cache_clear()
    for i, args in enumerate(commands):
        assert main(args + ["--outdir", str(tmp_path / f"c{i}")]) == 0
        assert outputs(i) == fresh[i]
    assert build_parser.cache_info().misses == 1
