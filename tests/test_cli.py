import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import casimir_friction
from casimir_friction.cli import build_spec, main
from casimir_friction.numerics import CONST

DRUDE_ARGS = ["--model", "drude", "--wp-ev", "9", "--nu-ev", "0.035"]
STATE_ARGS = ["--gap-nm", "10", "--temp-k", "300", "--velocity", "1"]


def cli_env():
    """Environment in which `python -m casimir_friction` imports this package."""
    src = str(Path(casimir_friction.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_force_linear_json(capsys):
    code, out, _ = run_cli(
        capsys,
        ["force", *DRUDE_ARGS, "--gap-nm", "10", "--temp-k", "300",
         "--velocity", "1", "--regime", "linear"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["regime"] == "LinearFiniteT"
    assert doc["direction"] == "opposes_motion"
    assert doc["force_per_area_N_m2"] > 0
    # closed-form oracle nu^2 v/(4 beta^2 d^4 hbar wp^4)
    nu = 0.035 * CONST.eV / CONST.hbar
    wp = 9.0 * CONST.eV / CONST.hbar
    beta = 1.0 / (CONST.k_B * 300.0)
    d = 10.0 * CONST.nm
    expected = nu**2 * 1.0 / (4.0 * beta**2 * d**4 * CONST.hbar * wp**4)
    assert doc["force_per_area_N_m2"] == pytest.approx(expected, rel=1e-10)
    assert "validity_flags" in doc["diagnostics"]
    assert doc["inputs"]["regime"] == "linear"


def test_force_byte_identical_reruns(capsys):
    argv = ["force", *DRUDE_ARGS, *STATE_ARGS, "--regime", "general"]
    code1, out1, _ = run_cli(capsys, argv)
    code2, out2, _ = run_cli(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_force_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, ["force", *DRUDE_ARGS, *STATE_ARGS, "--regime", "linear",
                 "--format", "csv"],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "force_per_area_N_m2,regime,quadrature_rel_err"
    assert len(lines) == 2
    assert float(lines[1].split(",")[0]) > 0


def test_force_contradictory_regime_exits_2(capsys):
    code, out, err = run_cli(
        capsys, ["force", *DRUDE_ARGS, "--gap-nm", "10", "--temp-k", "300",
                 "--velocity", "1", "--regime", "zero-t"],
    )
    assert code == 2
    assert out == ""
    assert "contradicts" in err


def test_force_zero_velocity_exits_2(capsys):
    code, out, _ = run_cli(
        capsys, ["force", *DRUDE_ARGS, "--gap-nm", "10", "--temp-k", "300",
                 "--velocity", "0"],
    )
    assert code == 2
    assert out == ""


def test_force_missing_material_exits_2(capsys):
    code, _, err = run_cli(
        capsys, ["force", "--model", "drude", *STATE_ARGS],
    )
    assert code == 2
    assert "wp-ev" in err


def test_force_numerical_failure_exits_3(capsys):
    code, out, err = run_cli(
        capsys,
        ["force", *DRUDE_ARGS, *STATE_ARGS, "--regime", "general",
         "--max-subdivisions", "1", "--rtol", "1e-12"],
    )
    assert code == 3
    assert out == ""
    assert "numerical failure" in err


def test_force_rtol_below_quadrature_floor_exits_2(capsys):
    code, out, err = run_cli(
        capsys, ["force", *DRUDE_ARGS, *STATE_ARGS, "--regime", "general", "--rtol", "1e-14"],
    )
    assert code == 2
    assert out == ""
    assert "rel_tol" in err
    assert "epsrel" not in err


@pytest.mark.parametrize("flag", ["--gap-nm", "--velocity", "--temp-k", "--wp-ev", "--nu-ev"])
def test_force_non_finite_input_exits_2(capsys, flag):
    argv = ["force", *DRUDE_ARGS, *STATE_ARGS]
    argv[argv.index(flag) + 1] = "inf"
    for regime in ("auto", "linear", "plasmon"):
        code, out, err = run_cli(capsys, [*argv, "--regime", regime])
        assert code == 2
        assert out == ""
        assert "finite" in err


def test_force_auto_regime_selection(capsys):
    code, out, err = run_cli(
        capsys, ["force", *DRUDE_ARGS, "--gap-nm", "10", "--temp-k", "300",
                 "--velocity", "0.001"],
    )
    assert code == 0
    assert json.loads(out)["regime"] == "LinearFiniteT"
    assert "auto regime" in err

    code, out, _ = run_cli(
        capsys, ["force", *DRUDE_ARGS, "--gap-nm", "10", "--temp-k", "zero",
                 "--velocity", "1"],
    )
    assert code == 0
    assert json.loads(out)["regime"] == "ZeroT_Cubic"

    code, out, _ = run_cli(
        capsys, ["force", "--model", "plasmon", "--wsp-ev", "6.36", "--gap-nm",
                 "0.1", "--temp-k", "zero", "--velocity", "2e6"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["regime"] == "PlasmonLine"
    assert doc["diagnostics"]["suppression_exponent"] > 0

    # high velocity at finite T: the discriminator picks the cubic channel,
    # and the closed form flags that omega_v strains the linear head there
    with pytest.warns(Warning):
        code, out, err = run_cli(
            capsys, ["force", *DRUDE_ARGS, "--gap-nm", "10", "--temp-k", "300",
                     "--velocity", "1e7"],
        )
    assert code == 0
    doc = json.loads(out)
    assert doc["regime"] == "ZeroT_Cubic"
    assert doc["diagnostics"]["validity_flags"]
    assert "auto regime" in err


def test_force_meta_flag(capsys):
    argv = ["force", *DRUDE_ARGS, *STATE_ARGS, "--regime", "linear"]
    _, plain, _ = run_cli(capsys, argv)
    _, with_meta, _ = run_cli(capsys, [*argv, "--meta"])
    assert "meta" not in json.loads(plain)
    assert "timestamp" in json.loads(with_meta)["meta"]


def test_compare_exit_3_on_failed_check(capsys, monkeypatch):
    from casimir_friction import cli as cli_mod

    def broken_report(*args, **kwargs):
        return {
            "all_passed": False,
            "checks": [{"name": "forced", "passed": False}],
        }

    monkeypatch.setattr(cli_mod, "consistency_report", broken_report)
    code, out, err = run_cli(
        capsys, ["compare", *DRUDE_ARGS, *STATE_ARGS],
    )
    assert code == 3
    assert "FAILED" in err


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg = {
        "model": "drude", "wp_ev": 9.0, "nu_ev": 0.035, "gap_nm": 10.0,
        "temp_k": 300.0, "velocity": 1.0, "regime": "linear",
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    code, out_base, _ = run_cli(capsys, ["force", "--config", str(path)])
    assert code == 0
    base = json.loads(out_base)["force_per_area_N_m2"]
    code, out_fast, _ = run_cli(
        capsys, ["force", "--config", str(path), "--velocity", "2"]
    )
    assert code == 0
    assert json.loads(out_fast)["force_per_area_N_m2"] == pytest.approx(2 * base, rel=1e-12)


def test_config_file_can_supply_subcommand_inputs(capsys, tmp_path):
    path = tmp_path / "dissipate.json"
    path.write_text(json.dumps({"tau": 50.0, "omega_v": 1.0, "doublings": 1}),
                    encoding="utf-8")
    code, out, _ = run_cli(capsys, ["dissipate", "--config", str(path)])
    assert code == 0
    assert len(json.loads(out)["delta_convergence"]) == 2

    code, _, err = run_cli(capsys, ["dissipate", "--tau", "10"])
    assert code == 2
    assert "omega-v" in err

    code, _, err = run_cli(capsys, ["sweep", *DRUDE_ARGS, "--gap-nm", "10",
                                    "--temp-k", "zero", "--param", "velocity"])
    assert code == 2
    assert "--from" in err


def test_env_rtol_override(monkeypatch):
    monkeypatch.setenv("CASIMIR_QUAD_RTOL", "1e-4")
    spec = build_spec({}, default_rtol=1e-6)
    assert spec.rel_tol == 1e-4
    # explicit flag wins over the environment
    spec = build_spec({"rtol": 1e-8}, default_rtol=1e-6)
    assert spec.rel_tol == 1e-8
    monkeypatch.delenv("CASIMIR_QUAD_RTOL")
    assert build_spec({}, default_rtol=1e-6).rel_tol == 1e-6


def test_spectrum_contract(capsys):
    code, out, _ = run_cli(
        capsys, ["spectrum", *DRUDE_ARGS, "--points", "60"],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "omega_rad_s,eps_re,eps_im,im_R,spectral_density"
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    assert rows.shape == (60, 5)
    assert np.all(np.diff(rows[:, 0]) > 0)  # monotone grid
    assert np.all(rows[:, 4] >= 0)          # passive density
    # linear head: im_R/omega -> -2 nu/wp^2 at the low end
    nu = 0.035 * CONST.eV / CONST.hbar
    wp = 9.0 * CONST.eV / CONST.hbar
    head = rows[:5, 3] / rows[:5, 0]
    assert np.allclose(head, -2.0 * nu / wp**2, rtol=1e-4)


def test_spectrum_singular_response_exits_3(capsys):
    # hbar*omega = 9/sqrt(2) eV is the lossless surface-plasmon pole eps = -1
    code, out, err = run_cli(
        capsys,
        ["spectrum", "--wp-ev", "9", "--nu-ev", "0", "--omega-min-ev",
         "6.363961030678928", "--omega-max-ev", "7", "--points", "1"],
    )
    assert code == 3
    assert out == ""
    assert "numerical failure" in err


def test_spectrum_zero_plasma_frequency(capsys):
    code, out, _ = run_cli(
        capsys,
        ["spectrum", "--model", "drude", "--wp-ev", "0", "--nu-ev", "0.035",
         "--omega-min-ev", "0.01", "--omega-max-ev", "10", "--points", "20"],
    )
    assert code == 0
    rows = [ln.split(",") for ln in out.strip().split("\n")[1:]]
    assert all(float(r[3]) == 0.0 for r in rows)
    assert all(float(r[1]) == 1.0 for r in rows)


def test_dissipate_convergence_table(capsys):
    code, out, _ = run_cli(
        capsys,
        ["dissipate", "--tau", "50", "--alpha", "inf", "--omega-v", "1.0",
         "--doublings", "2", "--profile-points", "11"],
    )
    assert code == 0
    doc = json.loads(out)
    rows = doc["delta_convergence"]
    assert len(rows) == 3
    assert rows[1]["ratio_vs_prev"] == pytest.approx(2.0, abs=0.2)
    assert rows[2]["ratio_vs_prev"] == pytest.approx(2.0, abs=0.2)
    alphas = doc["alpha_convergence"]
    diffs = [r["mean_rel_diff"] for r in alphas]
    assert all(a > b for a, b in zip(diffs, diffs[1:]))  # monotone in alpha


def test_dissipate_zero_omega_v(capsys):
    code, out, _ = run_cli(
        capsys, ["dissipate", "--tau", "10", "--omega-v", "0"],
    )
    assert code == 0
    doc = json.loads(out)
    assert all(p["qhat_sq"] == 0.0 for p in doc["qhat_profile"])
    assert doc["delta_convergence"] == []


def test_compare_all_checks_true(capsys):
    code, out, _ = run_cli(
        capsys, ["compare", *DRUDE_ARGS, *STATE_ARGS],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert all(c["passed"] for c in doc["checks"])
    assert doc["F_ours_zeroT"] / doc["F_Pendry"] == pytest.approx(12.0, rel=1e-12)


def test_compare_requires_drude(capsys):
    code, _, err = run_cli(
        capsys, ["compare", "--model", "plasmon", "--wsp-ev", "6.4", *STATE_ARGS],
    )
    assert code == 2
    assert "drude" in err


def test_sweep_velocity_cubic_slope(capsys):
    code, out, _ = run_cli(
        capsys,
        ["sweep", *DRUDE_ARGS, "--gap-nm", "10", "--temp-k", "zero",
         "--param", "velocity", "--from", "0.1", "--to", "1.0",
         "--points", "8", "--scale", "log"],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "index,velocity,force_per_area_N_m2,regime"
    rows = [ln.split(",") for ln in lines[1:]]
    v = np.array([float(r[1]) for r in rows])
    f = np.array([float(r[2]) for r in rows])
    slope = np.polyfit(np.log(v), np.log(f), 1)[0]
    assert slope == pytest.approx(3.0, abs=0.02)


def test_sweep_gap_linear_slope(capsys):
    code, out, _ = run_cli(
        capsys,
        ["sweep", *DRUDE_ARGS, "--temp-k", "300", "--velocity", "1e-3",
         "--regime", "linear", "--param", "gap-nm", "--from", "5", "--to", "50",
         "--points", "8", "--scale", "log"],
    )
    assert code == 0
    rows = [ln.split(",") for ln in out.strip().split("\n")[1:]]
    g = np.array([float(r[1]) for r in rows])
    f = np.array([float(r[2]) for r in rows])
    slope = np.polyfit(np.log(g), np.log(f), 1)[0]
    assert slope == pytest.approx(-4.0, abs=0.02)


def test_sweep_evaluates_each_point_once(capsys, monkeypatch):
    from casimir_friction import cli as cli_mod

    calls = []
    real = cli_mod.dissipation_general

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli_mod, "dissipation_general", counting)
    code, out, _ = run_cli(
        capsys,
        ["sweep", *DRUDE_ARGS, "--gap-nm", "10", "--temp-k", "zero", "--regime",
         "general", "--param", "velocity", "--from", "0.1", "--to", "1.0",
         "--points", "3"],
    )
    assert code == 0
    assert len(out.strip().split("\n")) == 4
    assert len(calls) == 3


@pytest.mark.parametrize("bounds", [("-1", "1"), ("1", "-1")])
def test_sweep_bad_input_exits_2(capsys, bounds):
    # a bad first or last point: nothing is printed
    code, out, err = run_cli(
        capsys,
        ["sweep", *DRUDE_ARGS, "--gap-nm", "10", "--temp-k", "300", "--param",
         "velocity", "--from", bounds[0], "--to", bounds[1], "--points", "3",
         "--scale", "lin"],
    )
    assert code == 2
    assert out == ""
    assert "velocity" in err


def test_sweep_single_point(capsys):
    argv = ["sweep", *DRUDE_ARGS, "--gap-nm", "10", "--temp-k", "zero",
            "--param", "velocity", "--from", "0.5", "--to", "9.0", "--points", "1"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert lines[1].split(",")[1] == "0.5"


def test_console_entry_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "casimir_friction", "force", *DRUDE_ARGS,
         *STATE_ARGS, "--regime", "linear"],
        capture_output=True, text=True, timeout=120, env=cli_env(),
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["force_per_area_N_m2"] > 0
    # stdout carries exactly one machine-readable document
    assert proc.stdout.count('"force_per_area_N_m2"') == 1


def test_argparse_errors_exit_2():
    proc = subprocess.run(
        [sys.executable, "-m", "casimir_friction", "force", "--regime", "bogus"],
        capture_output=True, text=True, timeout=120, env=cli_env(),
    )
    assert proc.returncode == 2
