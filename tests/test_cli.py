import json
import os
import subprocess
import sys

import pytest

from phi4trunc.cli import main


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
    # sparse lattice dump goes through the triplet path
    code, outdir = run_cli(["spectrum", "--nsites", "2", "--nmax", "2", "--kappa", "0.1",
                            "--lam", "0", "--dump-matrix", "1", "--method", "lanczos",
                            "--k", "2"], tmp_path, "dm2")
    assert code == 0
    assert (outdir / "matrix.csv").exists()


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


@pytest.mark.parametrize("flag, value", [("--sector", "even"), ("--domain", "strong")])
def test_lattice_spectrum_rejects_single_site_flags(tmp_path, flag, value):
    code, outdir = run_cli(["spectrum", "--nsites", "2", "--nmax", "2", "--kappa", "0.1",
                            flag, value], tmp_path, "lat")
    assert code == 1
    error = json.loads((outdir / "manifest.json").read_text())["error"]
    assert error["type"] == "ValueError"
    assert repr(value) in error["message"]


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
    assert "IZ,-0.5" in text


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
