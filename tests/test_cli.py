import argparse
import io
import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

import casimir_friction
from casimir_friction.cli import build_parser, main
from casimir_friction.friction import force_plasmon
from casimir_friction.geometry import PlateConfig
from casimir_friction.material import Drude, Tabulated
from casimir_friction.numerics import CONST, NESTED_SPEC

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


#: A T = 0 general force whose Phi table does not converge, on a plasmon line 1e-9 eV
#: wide: the pole sum takes every node of it, but the panels graded toward the sum
#: resonance Omega_1 + Omega_2, a Lorentzian 8e-11 of it wide, reach the cap of 64.
#: Phi's own rule once failed here first, where Im R is rounded at about
#: eps omega_sp / nu = 2e-6 of itself.
NONCONVERGENT_ARGS = ["force", "--model", "drude", "--wp-ev", "9", "--nu-ev", "1e-9",
                      "--gap-nm", "1", "--velocity", "1e7", "--temp-k", "zero",
                      "--regime", "general"]


def test_force_numerical_failure_exits_3(capsys):
    code, out, err = run_cli(capsys, NONCONVERGENT_ARGS)
    assert code == 3
    assert out == ""
    assert "numerical failure: Phi table did not reach rel_tol=1e-06 on omega in [" in err
    assert "] within 64 panels (level: omega1)" in err  # the band the table failed on


#: A T = 0 general force on a narrow line, whose Phi table holds many narrow panels
#: inside the point's band: a k_x rule cut only at the resonances failed on their edges.
KINKED_ARGS = ["force", "--model", "drude", "--wp-ev", "4.9555017756573285",
               "--nu-ev", "0.0024151963478304737", "--gap-nm", "1.0454794467392023",
               "--velocity", "67900020.93075527", "--temp-k", "zero", "--regime", "general"]


def test_general_force_across_many_table_panels_converges(capsys):
    forces = {}
    for extra in ([], ["--rtol", "1e-9"]):
        code, out, err = run_cli(capsys, [*KINKED_ARGS, *extra])
        assert code == 0, err
        doc = json.loads(out)
        forces[tuple(extra)] = (doc["force_per_area_N_m2"],
                                doc["diagnostics"]["quadrature_rel_err"])
    (force, rel_err), (tight, _) = forces[()], forces[("--rtol", "1e-9")]
    assert math.isfinite(force) and force > 0
    assert abs(force - tight) <= rel_err * force


#: Finite inputs at which a float division by zero or overflow stops the run, each
#: with the level and the quantity its exit-3 line names.
FLOAT_FAILURES = [
    (["force", *DRUDE_ARGS, "--gap-nm", "1e-300", "--temp-k", "300", "--velocity", "1",
      "--regime", "auto"], "ZeroT_Cubic", "d^6) at d = 1e-309 m"),
    (["force", *DRUDE_ARGS, "--gap-nm", "1e-300", "--temp-k", "300", "--velocity", "1",
      "--regime", "linear"], "LinearFiniteT", "d^4) at d = 1e-309 m"),
    (["force", *DRUDE_ARGS, "--gap-nm", "1e-300", "--temp-k", "zero", "--velocity", "1",
      "--regime", "zero-t"], "ZeroT_Cubic", "d^6) at d = 1e-309 m"),
    (["compare", *DRUDE_ARGS, "--gap-nm", "1e-300", "--temp-k", "300", "--velocity", "1"],
     "LinearFiniteT", "d^4) at d = 1e-309 m"),
    (["compare", *DRUDE_ARGS, "--gap-nm", "10", "--temp-k", "300", "--velocity", "1e-300"],
     "compare", "expected linear/cubic ratio"),
    (["force", *DRUDE_ARGS, "--gap-nm", "10", "--temp-k", "1e300", "--velocity", "1",
      "--regime", "linear"], "LinearFiniteT", "force 3 hbar v Phi_1 / (64 pi^2 d^4) at d = 1e-08"),
    (["force", *DRUDE_ARGS, "--gap-nm", "10", "--temp-k", "1e300", "--velocity", "1",
      "--regime", "general"], "omega1", "thermal scale 2 k_B T / hbar"),
    # at 300 K Phi's small-omega series takes these omegas, and the force underflows
    # (test_forces_at_tiny_velocities_are_linear_or_flagged_zero); at 3000 K the series
    # leaves them to the quadrature
    (["force", *DRUDE_ARGS, "--gap-nm", "10", "--temp-k", "3000", "--velocity", "1e-300",
      "--regime", "general"], "omega1", "Phi (sum channel) is not finite at omega="),
    (["force", "--model", "drude", "--wp-ev", "1e-300", "--nu-ev", "1e-300", "--gap-nm", "10",
      "--temp-k", "300", "--velocity", "1", "--regime", "linear"], "LinearFiniteT",
     "force 3 hbar v Phi_1 / (64 pi^2 d^4) at d = 1e-08"),
    (["force", "--model", "drude", "--wp-ev", "1e-150", "--nu-ev", "0.03", "--gap-nm", "10",
      "--temp-k", "zero", "--velocity", "1", "--regime", "zero-t"], "ZeroT_Cubic",
     "force 45 hbar v^3 Phi_3 / (256 pi^2 d^6) at d = 1e-08"),
    (["spectrum", "--wp-ev", "1e-300", "--nu-ev", "0", "--points", "3"],
     "material", "eps = 1 + omega_p^2 / (xi (xi + nu)) at omega = "),
    # k_x = 2 omega_sp / v underflows to 0, where K1 has its pole
    (["force", "--model", "drude", "--wp-ev", "1e-300", "--gap-nm", "1e-300", "--temp-k",
      "zero", "--velocity", "1e300", "--regime", "plasmon"], "PlasmonLine", "K1(x) e^x at x = "),
]


# each case keeps its id when an earlier one leaves the list (case 10, a spectrum
# bound past the float range, exits 2 now: test_spectrum_bound_past_float_range_exits_2;
# case 13, a plasmon force at a subnormal gap, is finite now:
# test_plasmon_force_at_a_subnormal_gap_is_finite)
@pytest.mark.parametrize("argv,level,quantity", FLOAT_FAILURES, ids=[*range(10), 11, 12])
def test_float_failure_at_extreme_finite_input_exits_3(capsys, argv, level, quantity):
    code, out, err = run_cli(capsys, argv)
    assert code == 3
    assert out == ""
    assert "Traceback" not in err
    failures = [ln for ln in err.splitlines() if ln.startswith("numerical failure: ")]
    assert len(failures) == 1 and err.splitlines()[-1] == failures[0]
    # the line names the quantity that failed and the level it failed at
    assert quantity in failures[0]
    assert failures[0].endswith(f"(level: {level})")


def test_plasmon_force_at_a_subnormal_gap_is_finite(capsys):
    # k_x K1(2 d k_x) is about 1/(2d), past the float range at d = 1e-309 m, but the
    # force (hbar omega_sp^4 / (pi v^3)) K1(4 omega_sp d / v) is not: one product of
    # its factors gives it, where the hand-ordered product exited 3
    code, out, err = run_cli(capsys, ["force", "--regime", "plasmon", "--model", "drude",
                                      "--wp-ev", "9", "--gap-nm", "1e-300", "--velocity", "1e8",
                                      "--temp-k", "zero"])
    assert code == 0, err
    force = json.loads(out)["force_per_area_N_m2"]
    wsp, d, v = 9.0 * CONST.eV / CONST.hbar / math.sqrt(2.0), 1e-300 * CONST.nm, 1e8
    x = 4.0 * wsp * d / v
    assert force == pytest.approx(CONST.hbar * wsp**4 / (math.pi * v**3) * special.k1(x),
                                  rel=1e-12)
    assert force == pytest.approx(7.585e305, rel=1e-3)


#: A 300 K, 10 nm force whose discriminator (16 pi^2/15) (d k_B T / (hbar v))^2 is past
#: the float range below about v = 3e-148 m/s
TINY_V_ARGS = ["force", *DRUDE_ARGS, "--gap-nm", "10", "--temp-k", "300"]


@pytest.mark.parametrize("velocity", ["1e-160", "1e-300"])
def test_auto_reads_a_discriminator_past_the_float_range_as_linear(capsys, velocity):
    code, out, err = run_cli(capsys, [*TINY_V_ARGS, "--velocity", velocity])
    assert code == 0, err
    auto = json.loads(out)
    assert auto["inputs"]["regime"] == "linear" and auto["regime"] == "LinearFiniteT"
    assert "linear/cubic discriminator = inf -> linear" in err
    code, out, _ = run_cli(capsys, [*TINY_V_ARGS, "--velocity", velocity, "--regime", "linear"])
    assert code == 0
    assert auto["force_per_area_N_m2"] == json.loads(out)["force_per_area_N_m2"]


COMPARE_ARGS = ["compare", *DRUDE_ARGS, "--gap-nm", "10", "--temp-k", "300"]


def test_compare_near_pendry_underflow_passes_or_names_the_force(capsys):
    # at 1e-93 m/s every compared force is a normal float, and the checks pass (a
    # hand-ordered Pendry product once was 1.3e-11 off there); below, Pendry's
    # force leaves the normal floats, and the report names it instead of failing
    # its identities on rounding or a 0
    code, out, err = run_cli(capsys, [*COMPARE_ARGS, "--velocity", "1e-93"])
    assert code == 0, err
    doc = json.loads(out)
    assert doc["all_passed"]
    assert all(doc[k] >= sys.float_info.min for k in ("F_ours_zeroT", "F_Pendry"))
    for exponent in range(-94, -101, -1):
        code, out, err = run_cli(capsys, [*COMPARE_ARGS, "--velocity", f"1e{exponent}"])
        assert code == 3 and out == ""
        [line] = [ln for ln in err.splitlines() if ln.startswith("numerical failure: ")]
        assert "F_Pendry" in line and "below the normal floats" in line
        assert line.endswith("(level: compare)")


def test_general_sweep_names_the_row_whose_kernel_band_leaves_the_float_range(capsys):
    code, out, err = run_cli(capsys, ["sweep", *DRUDE_ARGS, "--gap-nm", "10", "--temp-k", "300",
                                      "--regime", "general", "--param", "velocity", "--from", "1",
                                      "--to", "1e300", "--points", "3"])
    assert code == 2 and out == ""
    assert err.splitlines()[-1].startswith("error: row 1 (velocity=1e+150): the kernel band [")


@pytest.mark.parametrize("regime, temp, power, exponents", [
    ("linear", "300", 1, range(-250, -301, -5)),
    ("general", "300", 1, range(-250, -301, -5)),
    ("zero-t", "zero", 3, [*range(-90, -101, -2), -250, -300]),
])
def test_forces_at_tiny_velocities_are_linear_or_flagged_zero(capsys, regime, temp, power,
                                                              exponents):
    # each force is v^power times its value at 1 m/s, with no digits lost to an
    # intermediate product below the normal floats (3 hbar v at 1e-285 m/s printed 0.0),
    # or, where the force itself is below them, 0 with an underflow flag; --rtol 1e-9
    # holds the general force's k_x integral to about 1e-15 (at the default 1e-6 it
    # moves by 2.7e-12 between 1 and 0.1 m/s)
    def force(velocity):
        code, out, _ = run_cli(capsys, ["force", *DRUDE_ARGS, "--gap-nm", "10", "--temp-k", temp,
                                        "--velocity", repr(velocity), "--regime", regime,
                                        "--rtol", "1e-9"])
        assert code == 0
        doc = json.loads(out)
        return doc["force_per_area_N_m2"], doc["diagnostics"]["validity_flags"]

    unit, _ = force(1.0)
    for exponent in exponents:
        v = 10.0**exponent
        value, flags = force(v)
        if value:
            assert value / v**power == pytest.approx(unit, rel=1e-12)
            assert not flags
        else:
            assert unit * v**power < sys.float_info.min * (1.0 + 1e-9)
            assert [f for f in flags if f.startswith("underflow: ")]


def test_force_rtol_below_quadrature_floor_exits_2(capsys):
    code, out, err = run_cli(
        capsys, ["force", *DRUDE_ARGS, *STATE_ARGS, "--regime", "general", "--rtol", "1e-14"],
    )
    assert code == 2
    assert out == ""
    assert "rel_tol" in err
    assert "epsrel" not in err


def test_force_rtol_inf_exits_2(capsys):
    # an infinite tolerance would accept any first estimate of the integral
    code, out, err = run_cli(
        capsys, ["force", *DRUDE_ARGS, *STATE_ARGS, "--regime", "general", "--rtol", "inf"],
    )
    assert code == 2
    assert out == ""
    assert "rel_tol must be finite" in err


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

    # high velocity at finite T: the discriminator picks the cubic channel,
    # and the closed form flags that omega_v strains the linear head there
    code, out, err = run_cli(
        capsys, ["force", *DRUDE_ARGS, "--gap-nm", "10", "--temp-k", "300",
                 "--velocity", "1e7"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["regime"] == "ZeroT_Cubic"
    flags = doc["diagnostics"]["validity_flags"]
    assert len(flags) == 1
    assert "auto regime" in err
    assert f"validity: {flags[0]}" in err.splitlines()


def test_force_meta_flag(capsys):
    argv = ["force", *DRUDE_ARGS, *STATE_ARGS, "--regime", "linear"]
    _, plain, _ = run_cli(capsys, argv)
    _, with_meta, _ = run_cli(capsys, [*argv, "--meta"])
    assert "meta" not in json.loads(plain)
    assert "timestamp" in json.loads(with_meta)["meta"]


def test_meta_with_csv_exits_2(capsys, tmp_path):
    # the CSV document has no place for run metadata, so --meta is a flag it does not read
    argv = ["force", *DRUDE_ARGS, *STATE_ARGS, "--regime", "linear", "--format", "csv"]
    cfg = {"model": "drude", "wp_ev": 9, "nu_ev": 0.035, "gap_nm": 10, "temp_k": 300,
           "velocity": 1, "regime": "linear", "format": "csv", "meta": True}
    for args in ([*argv, "--meta"], ["force", "--config", _write_config(tmp_path, cfg)]):
        code, out, err = run_cli(capsys, args)
        assert (code, out) == (2, "")
        assert err == "error: --meta is read only by --format json\n"
    code, out, _ = run_cli(capsys, argv)
    assert code == 0 and out.startswith("force_per_area_N_m2,")


def test_compare_exit_3_on_failed_check(capsys, monkeypatch):
    from casimir_friction import cli as cli_mod

    def broken_report(*args, **kwargs):
        return {
            "all_passed": False,
            "checks": [{"name": "forced", "passed": False}],
            "validity_flags": [],
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
    path = tmp_path / "spectrum.json"
    path.write_text(json.dumps({"wp_ev": 9.0, "nu_ev": 0.035, "points": 2}), encoding="utf-8")
    code, out, _ = run_cli(capsys, ["spectrum", "--config", str(path)])
    assert code == 0
    assert len(out.strip().split("\n")) == 3

    code, _, err = run_cli(capsys, ["force", *DRUDE_ARGS, "--gap-nm", "10", "--temp-k", "300"])
    assert code == 2
    assert "--velocity" in err

    code, _, err = run_cli(capsys, ["sweep", *DRUDE_ARGS, "--gap-nm", "10",
                                    "--temp-k", "zero", "--param", "velocity"])
    assert code == 2
    assert "--from" in err


def _write_config(tmp_path, cfg):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("command, key, value", [
    ("sweep", "scale", "logg"), ("force", "rtoll", 1e-8), ("force", "format", "xml"),
    ("force", "vel", 1),  # a prefix of "velocity" is not that key
])
def test_config_file_bad_key_or_value_exits_2(capsys, tmp_path, command, key, value):
    # a config file goes through the subcommand's own parser, as flags do
    path = _write_config(tmp_path, {key: value})
    argv = [command, "--config", path, *DRUDE_ARGS, *STATE_ARGS]
    if command == "sweep":
        argv += ["--param", "velocity", "--from", "1", "--to", "2", "--points", "2"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--" + key in capsys.readouterr().err


@pytest.mark.parametrize("command", ["force", "compare", "sweep"])
def test_shortened_flag_exits_2(capsys, command):
    argv = [command, *DRUDE_ARGS, "--gap", "10", "--temp", "300", "--vel", "1"]
    if command == "sweep":
        argv += ["--param", "gap-nm", "--from", "5", "--to", "10", "--points", "2"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --gap 10 --temp 300 --vel 1" in captured.err


SWEEP_ARGS = ["sweep", *DRUDE_ARGS, *STATE_ARGS, "--regime", "linear", "--param", "velocity"]


@pytest.mark.parametrize("argv, message", [
    (["force", "--config", "MISSING.json", *DRUDE_ARGS, *STATE_ARGS],
     "cannot read config file"),
    (["force", "--config", "LIST.json", *DRUDE_ARGS, *STATE_ARGS],
     "config file must hold a JSON object"),
    (["force", "--model", "tabulated", *STATE_ARGS], "tabulated model needs --eps-csv"),
    (["force", "--model", "tabulated", "--eps-csv", "MISSING.csv", *STATE_ARGS],
     "cannot load"),
    (["force", "--model", "tabulated", "--eps-csv", "BAD.csv", *STATE_ARGS],
     "expected header"),
    (["force", *DRUDE_ARGS, "--gap-nm", "10", "--velocity", "1"],
     "missing required input: --temp-k"),
    (["force", *DRUDE_ARGS, "--gap-nm", "10", "--velocity", "1", "--temp-k", "abc"],
     "--temp-k must be a temperature in K or 'zero', got 'abc'"),
    (SWEEP_ARGS[:-2] + ["--from", "1", "--to", "2"], "missing required input: --param"),
    (["spectrum", *DRUDE_ARGS, "--points", "0"], "--points must be >= 1"),
    ([*SWEEP_ARGS, "--from", "1", "--to", "2", "--points", "0"], "--points must be >= 1"),
    ([*SWEEP_ARGS, "--from", "0", "--to", "2", "--scale", "log"],
     "log scale requires positive bounds"),
    ([*SWEEP_ARGS, "--from", "1", "--to", "-2", "--scale", "log"],
     "log scale requires positive bounds"),
    (["spectrum", "--wp-ev", "0", "--nu-ev", "0.035"],
     "need --omega-min-ev/--omega-max-ev for this material"),
], ids=["config-unreadable", "config-not-object", "tabulated-no-csv", "csv-unreadable",
        "csv-malformed", "temp-k-missing", "temp-k-abc", "sweep-no-param", "spectrum-points-0",
        "sweep-points-0", "log-from-0", "log-to-negative", "vacuum-no-bounds"])
def test_bad_input_exits_2(capsys, tmp_path, argv, message):
    (tmp_path / "LIST.json").write_text("[1, 2]", encoding="utf-8")
    (tmp_path / "BAD.csv").write_text("omega,re,im\n1e12,1,0\n1e13,1,0\n", encoding="utf-8")
    argv = [str(tmp_path / a) if a in ("MISSING.json", "LIST.json", "MISSING.csv", "BAD.csv")
            else a for a in argv]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_config_file_prints_what_the_flags_print(capsys, tmp_path):
    sweep = {"model": "drude", "wp_ev": 9, "nu_ev": 0.035, "gap_nm": 10, "temp_k": "zero",
             "param": "velocity", "from": 0.1, "to": 1.0, "points": 4}
    force = {"wp_ev": 9, "nu_ev": 0.035, "gap_nm": 10, "temp_k": 300, "velocity": 1,
             "regime": "general", "rtol": 1e-8, "meta": False}
    for command, cfg in (("sweep", sweep), ("force", force)):
        flags = [command]
        for key, value in cfg.items():
            if value is not False:
                flags += ["--" + key.replace("_", "-"), str(value)]
        code_flags, by_flags, _ = run_cli(capsys, flags)
        code_file, by_file, _ = run_cli(capsys, [command, "--config", _write_config(tmp_path, cfg)])
        assert code_flags == code_file == 0
        assert by_file == by_flags
    assert json.loads(by_file)["inputs"]["rtol"] == 1e-8
    # "meta": true is the bare --meta flag: the same document, with run metadata
    flags = ["force", *DRUDE_ARGS, *STATE_ARGS, "--regime", "linear"]
    with_meta = {"model": "drude", "wp_ev": 9, "nu_ev": 0.035, "gap_nm": 10, "temp_k": 300,
                 "velocity": 1, "regime": "linear", "meta": True}
    docs = []
    for argv in ([*flags, "--meta"], ["force", "--config", _write_config(tmp_path, with_meta)]):
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        doc = json.loads(out)
        assert set(doc.pop("meta")) == {"timestamp", "python"}
        docs.append(doc)
    assert docs[0] == docs[1] == json.loads(run_cli(capsys, flags)[1])


FLAGS = {
    "force": {
        "--config", "--model", "--wp-ev", "--nu-ev", "--eps-csv",
        "--gap-nm", "--temp-k", "--velocity", "--rtol",
        "--regime", "--format", "--meta",
    },
    "spectrum": {
        "--config", "--model", "--wp-ev", "--nu-ev", "--eps-csv", "--rho1",
        "--omega-min-ev", "--omega-max-ev", "--points",
    },
    "compare": {
        "--config", "--model", "--wp-ev", "--nu-ev", "--gap-nm", "--temp-k", "--velocity",
    },
    "sweep": {
        "--config", "--model", "--wp-ev", "--nu-ev", "--eps-csv",
        "--gap-nm", "--temp-k", "--velocity", "--rtol",
        "--regime", "--param", "--from", "--to", "--points", "--scale",
    },
}


def test_each_subcommand_takes_only_the_flags_it_reads():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(FLAGS)
    for name, flags in FLAGS.items():
        registered = {s for a in sub.choices[name]._actions for s in a.option_strings}
        assert registered - {"-h", "--help"} == flags, name
    models = {name: next(a.choices for a in sub.choices[name]._actions if a.dest == "model")
              for name in ("force", "spectrum", "compare", "sweep")}
    assert models == {"force": ["drude", "tabulated"], "spectrum": ["drude", "tabulated"],
                      "compare": ["drude"], "sweep": ["drude", "tabulated"]}
    assert sum(len(flags) for flags in FLAGS.values()) == 43


def test_one_parser_serves_every_call_in_a_process(capsys):
    # main builds its parser once per process; calls of different subcommands
    # through it print what each prints in a process of its own
    assert build_parser() is build_parser()
    for argv in (["compare", *DRUDE_ARGS, *STATE_ARGS],
                 ["force", *DRUDE_ARGS, *STATE_ARGS, "--format", "csv"],
                 ["compare", *DRUDE_ARGS, *STATE_ARGS, "--velocity", "1e6"]):
        code, out, err = run_cli(capsys, argv)
        fresh = subprocess.run([sys.executable, "-m", "casimir_friction", *argv],
                               capture_output=True, text=True, timeout=120, env=cli_env())
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)


@pytest.mark.parametrize("argv", [
    ["force", *DRUDE_ARGS, *STATE_ARGS, "--model", "plasmon"],
    ["force", *DRUDE_ARGS, *STATE_ARGS, "--wsp-ev", "6.36"],
    ["force", *DRUDE_ARGS, *STATE_ARGS, "--rho1", "1e28"],
    ["sweep", *DRUDE_ARGS, *STATE_ARGS, "--param", "velocity", "--from", "1", "--to", "2",
     "--model", "plasmon"],
    ["sweep", *DRUDE_ARGS, *STATE_ARGS, "--param", "velocity", "--from", "1", "--to", "2",
     "--wsp-ev", "6.36"],
    ["sweep", *DRUDE_ARGS, *STATE_ARGS, "--param", "velocity", "--from", "1", "--to", "2",
     "--rho1", "1e28"],
    ["compare", *DRUDE_ARGS, *STATE_ARGS, "--rho2", "1e28"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_deleted_material_and_density_flags_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_plasmon_regime_is_the_drude_line(capsys):
    # the sharp line is the nu -> 0 Drude metal, at omega_sp = omega_p / sqrt(2)
    argv = ["force", "--model", "drude", "--wp-ev", "9", "--gap-nm", "0.1",
            "--temp-k", "zero", "--velocity", "2e6", "--regime", "plasmon"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    wp = 9.0 * CONST.eV / CONST.hbar
    expected = force_plasmon(wp / math.sqrt(2.0), PlateConfig(d=0.1 * CONST.nm), 2e6)
    assert doc["regime"] == "PlasmonLine"
    assert doc["force_per_area_N_m2"] == expected.force_per_area
    assert doc["diagnostics"]["suppression_exponent"] == (
        expected.diagnostics.suppression_exponent
    )
    assert "rho1" not in doc["inputs"] and "rho2" not in doc["inputs"]


@pytest.mark.parametrize("argv", [
    ["force", "--model", "tabulated", "--eps-csv", "T.csv", "--wp-ev", "9", *STATE_ARGS],
    ["force", "--model", "tabulated", "--eps-csv", "T.csv", "--nu-ev", "0.035", *STATE_ARGS],
    ["force", *DRUDE_ARGS, "--eps-csv", "T.csv", *STATE_ARGS],
    ["spectrum", *DRUDE_ARGS, "--eps-csv", "T.csv"],
    ["sweep", "--model", "tabulated", "--eps-csv", "T.csv", *STATE_ARGS, "--regime", "linear",
     "--param", "wp-ev", "--from", "1", "--to", "20", "--points", "3"],
], ids=["force-tab-wp", "force-tab-nu", "force-drude-csv", "spectrum-drude-csv", "sweep-tab-wp"])
def test_material_flag_the_model_does_not_read_exits_2(capsys, tmp_path, argv):
    table = tmp_path / "T.csv"
    table.write_text("omega_rad_s,eps_re,eps_im\n1e12,-1e6,1e5\n1e17,0.5,0.1\n",
                     encoding="utf-8")
    argv = [str(table) if a == "T.csv" else a for a in argv]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert "read only by --model" in err


THREE_NODE_TABLE = "omega_rad_s,eps_re,eps_im\n1e12,-1e6,1e5\n1e14,-1e3,1e2\n1e17,0.5,0.1\n"


NO_REGIME = "no regime takes a tabulated material at T = 0"


@pytest.mark.parametrize("state, regime, advice", [
    (["--temp-k", "zero", "--velocity", "1"], "auto", NO_REGIME),
    # discriminator 1.6e-2 at 300 K, 10 nm, 1e7 m/s: auto picks zero-t
    (["--temp-k", "300", "--velocity", "1e7"], "auto", "use --regime linear"),
    (["--temp-k", "zero", "--velocity", "1"], "zero-t", NO_REGIME),
    (["--temp-k", "300", "--velocity", "1"], "plasmon", "use --regime linear"),
], ids=["auto-zero", "auto-300K", "zero-t", "plasmon"])
def test_closed_form_a_table_cannot_take_exits_2(capsys, tmp_path, state, regime, advice):
    table = tmp_path / "T.csv"
    table.write_text(THREE_NODE_TABLE, encoding="utf-8")
    argv = ["force", "--model", "tabulated", "--eps-csv", str(table), "--gap-nm", "10", *state,
            "--regime", regime]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1].startswith("error: ") and err.endswith(f"; {advice}\n")
    assert "force_zero_t" not in err
    if regime == "auto" and state[1] != "zero":
        # at finite T with a discriminator >= 1, auto still computes the linear force
        argv[argv.index("--velocity") + 1] = "1"
        code, out, err = run_cli(capsys, argv)
        assert code == 0, err
        assert json.loads(out)["regime"] == "LinearFiniteT"


@pytest.mark.parametrize("row", ["1e14,nan,1e2", "1e14,-1e3,inf", "inf,0.5,0.1"],
                         ids=["nan-eps-re", "inf-eps-im", "inf-omega"])
@pytest.mark.parametrize("command", ["spectrum", "force"])
def test_non_finite_table_exits_2(capsys, tmp_path, command, row):
    # float() reads nan and inf: unchecked, they give a nan spectrum row, a force on
    # a grid that ends at inf, or a numerical failure (exit 3) in Phi_1
    table = tmp_path / "T.csv"
    table.write_text("omega_rad_s,eps_re,eps_im\n1e12,-1e6,1e5\n1e13,-1e4,1e3\n"
                     f"{row}\n", encoding="utf-8")
    argv = [command, "--model", "tabulated", "--eps-csv", str(table)]
    argv += (["--points", "3"] if command == "spectrum"
             else [*STATE_ARGS, "--regime", "linear"])
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot load ") and "must be finite" in err


@pytest.mark.parametrize("temp", ["300", "zero"])
@pytest.mark.parametrize("command", ["force", "sweep"])
def test_general_force_on_a_table_exits_2(capsys, tmp_path, temp, command):
    # Phi integrates Im R from omega = 0, below a table's first node, even one at 1e-30 rad/s
    table = tmp_path / "T.csv"
    table.write_text("omega_rad_s,eps_re,eps_im\n1e-30,-1e6,1e5\n1e17,0.5,0.1\n",
                     encoding="utf-8")
    argv = [command, "--model", "tabulated", "--eps-csv", str(table), "--gap-nm", "10",
            "--temp-k", temp, "--velocity", "1", "--regime", "general"]
    if command == "sweep":
        argv += ["--param", "velocity", "--from", "1", "--to", "10", "--points", "3"]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: Phi (the general force) requires Drude plates: ")
    assert "below the first node of a tabulated material" in err
    assert "extrapolation forbidden" not in err


def test_spectrum_rho1_scales_the_density_column(capsys):
    base = ["spectrum", *DRUDE_ARGS, "--omega-min-ev", "0.01", "--omega-max-ev", "10",
            "--points", "3"]
    columns = []
    for rho1 in ("1e28", "4e28"):
        code, out, _ = run_cli(capsys, [*base, "--rho1", rho1])
        assert code == 0
        columns.append([[float(c) for c in ln.split(",")] for ln in out.strip().split("\n")[1:]])
    for one, four in zip(*columns):
        assert one[:4] == four[:4]
        assert four[4] == pytest.approx(one[4] / 4.0, rel=1e-15)


def test_readme_cli_examples_exit_0(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("casimir-friction ")]
    assert examples
    for argv in examples:
        code, _, err = run_cli(capsys, argv)
        assert code == 0, (argv, err)


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


@pytest.mark.parametrize("model", ["drude", "vacuum", "tabulated"])
@pytest.mark.parametrize("flag, bounds", [("--omega-max-ev", ("1e-300", "1e300")),
                                          ("--omega-min-ev", ("1e299", "1e300"))])
def test_spectrum_bound_past_float_range_exits_2(capsys, tmp_path, model, flag, bounds):
    # omega = E * eV / hbar overflows; no material is asked for its response there
    material = {"drude": DRUDE_ARGS, "vacuum": ["--wp-ev", "0"],
                "tabulated": ["--model", "tabulated", "--eps-csv", str(tmp_path / "t.csv")]}
    (tmp_path / "t.csv").write_text(THREE_NODE_TABLE, encoding="utf-8")
    code, out, err = run_cli(capsys, ["spectrum", *material[model], "--omega-min-ev", bounds[0],
                                      "--omega-max-ev", bounds[1], "--points", "3"])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag} ")


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


def test_spectrum_tabulated_default_range_is_the_table(capsys, tmp_path):
    # the default grid ends are the table's own nodes, not their eV round trip
    gold = Drude(omega_p=9.0 * CONST.eV / CONST.hbar, nu=0.035 * CONST.eV / CONST.hbar)
    grid = np.logspace(9.0, math.log10(3e16), 400)
    rows = ["omega_rad_s,eps_re,eps_im"]
    for w in map(float, grid):
        eps = gold.eps_at(w)
        rows.append(f"{w!r},{eps.real!r},{-eps.imag!r}")  # file convention: Im eps >= 0
    path = tmp_path / "gold.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, ["spectrum", "--model", "tabulated", "--eps-csv", str(path)])
    assert code == 0, err
    omega = [float(ln.split(",")[0]) for ln in out.strip().split("\n")[1:]]
    assert len(omega) == 200
    assert omega[0] == grid[0] and omega[-1] == grid[-1]


SPECTRUM_ARGS = ["spectrum", *DRUDE_ARGS, "--rho1", "1e28", "--omega-min-ev", "0.01",
                 "--omega-max-ev", "10", "--points", "3"]


@pytest.mark.parametrize("flag, value", [
    pytest.param(flag, value, id=f"spectrum{flag}={value}")
    for flag in ("--wp-ev", "--nu-ev", "--rho1", "--omega-min-ev", "--omega-max-ev")
    for value in ("inf", "nan")
])
def test_dissipate_and_spectrum_non_finite_input_exits_2(capsys, flag, value):
    argv = list(SPECTRUM_ARGS)
    argv[argv.index(flag) + 1] = value
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert flag in err
    assert not caught


def test_compare_all_checks_true(capsys):
    code, out, _ = run_cli(
        capsys, ["compare", *DRUDE_ARGS, *STATE_ARGS],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert all(c["passed"] for c in doc["checks"])
    assert doc["F_ours_zeroT"] / doc["F_Pendry"] == pytest.approx(12.0, rel=1e-12)
    assert doc["validity_flags"] == []


def test_compare_outside_its_windows_says_so(capsys):
    # the checks still pass (they are identities), but both windows are left
    code, out, err = run_cli(capsys, ["compare", *DRUDE_ARGS, "--gap-nm", "1",
                                      "--temp-k", "300", "--velocity", "1e8"])
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    flags = doc["validity_flags"]
    assert len(flags) == 2
    assert "cubic closed form" in flags[0] and "Pendry" in flags[1]
    assert [ln for ln in err.splitlines() if ln.startswith("validity: ")] == [
        f"validity: {f}" for f in flags
    ]
    assert ".py:" not in err


def test_compare_requires_drude(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--model", "plasmon", *STATE_ARGS])
    assert exc.value.code == 2
    assert "drude" in capsys.readouterr().err

    # the library's one check of the Drude mapping, reported as bad input
    code, out, err = run_cli(capsys, ["compare", "--wp-ev", "9", "--nu-ev", "0", *STATE_ARGS])
    assert code == 2
    assert out == ""
    assert err == "error: Drude mapping requires omega_p > 0 and nu > 0\n"


def test_sweep_flags_every_point(capsys):
    # kT at 900 K against hbar*omega_sp = 0.35 eV flags the linear head at each point
    code, out, err = run_cli(
        capsys,
        ["sweep", "--wp-ev", "0.5", "--nu-ev", "0.035", "--gap-nm", "10", "--temp-k", "900",
         "--regime", "linear", "--param", "velocity", "--from", "0.1", "--to", "1",
         "--points", "4"],
    )
    assert code == 0
    rows = [ln.split(",") for ln in out.strip().split("\n")[1:]]
    assert len(rows) == 4
    # each line names its row and the swept value as the CSV prints it
    assert err.splitlines() == [
        f"validity: row {i} (velocity={v}): kT approaches hbar*omega_sp: small-m linear "
        "head is inaccurate over the thermal window"
        for i, v, *_ in rows
    ]
    assert len(set(err.splitlines())) == 4


def test_lossless_plate_zero_is_flagged(capsys):
    # --nu-ev absent is nu = 0: the general force is 0, and its JSON and stderr
    # say that the nu -> 0 limit is the plasmon line, as each row of a
    # shared-table sweep does
    lossless = ["--model", "drude", "--wp-ev", "9", "--gap-nm", "10", "--temp-k", "300",
                "--velocity", "1e3", "--regime", "general"]
    code, out, err = run_cli(capsys, ["force", *lossless])
    assert code == 0
    doc = json.loads(out)
    assert doc["force_per_area_N_m2"] == 0.0
    [flag] = doc["diagnostics"]["validity_flags"]
    assert "--regime plasmon" in flag
    assert err.splitlines() == [f"validity: {flag}"]
    code, out, err = run_cli(capsys, ["sweep", *lossless, "--param", "velocity", "--from", "1",
                                      "--to", "10", "--points", "2"])
    assert code == 0
    assert [ln.split(",")[2] for ln in out.strip().split("\n")[1:]] == ["0.0", "0.0"]
    assert err.splitlines() == [f"validity: row {i} (velocity={v!r}): {flag}"
                                for i, v in enumerate((1.0, 10.0))]


def test_sweep_auto_note_names_its_row(capsys):
    code, out, err = run_cli(
        capsys,
        ["sweep", *DRUDE_ARGS, "--gap-nm", "10", "--temp-k", "300", "--param", "velocity",
         "--from", "0.1", "--to", "1e7", "--points", "3"],
    )
    assert code == 0
    rows = [ln.split(",") for ln in out.strip().split("\n")[1:]]
    assert [r[3] for r in rows] == ["LinearFiniteT", "LinearFiniteT", "ZeroT_Cubic"]
    notes = [ln for ln in err.splitlines() if ln.startswith("auto regime: ")]
    assert len(notes) == 3
    for (i, v, *_), note, choice in zip(rows, notes, ["linear", "linear", "zero-t"]):
        assert note.startswith(f"auto regime: row {i} (velocity={v}): linear/cubic "
                               "discriminator = ")
        assert note.endswith(f" -> {choice}")


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


#: General sweeps over v or d: (fixed flags, --param, --from, --to, --points).
EACH_POINT_ONCE = {
    "velocity-3-points": (["--gap-nm", "10", "--temp-k", "zero"], "velocity", "0.1", "1.0", 3),
    "velocity-1-point": (["--gap-nm", "10", "--temp-k", "300"], "velocity", "3.7", "3.7", 1),
    "gap-nm-1-point": (["--velocity", "1", "--temp-k", "300"], "gap-nm", "37", "37", 1),
}


@pytest.mark.parametrize("case", EACH_POINT_ONCE)
def test_sweep_evaluates_each_point_once(capsys, monkeypatch, case):
    # a general sweep over v or d, of any length, hands every row to one
    # general_forces call: each row reaches it once, and none twice
    from casimir_friction import cli

    fixed, param, lo, hi, points = EACH_POINT_ONCE[case]
    passes = []
    real = cli.general_forces

    def counting(material1, material2, thermal, v, d, *args, **kwargs):
        passes.append(list(zip(v, d)))
        return real(material1, material2, thermal, v, d, *args, **kwargs)

    monkeypatch.setattr(cli, "general_forces", counting)
    code, out, _ = run_cli(capsys, ["sweep", *DRUDE_ARGS, *fixed, "--regime", "general",
                                    "--param", param, "--from", lo, "--to", hi,
                                    "--points", str(points)])
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == points + 1
    [rows] = passes
    assert len(rows) == points and len(set(rows)) == points
    if points > 1:
        assert [v for v, _ in rows] == [float(x) for x in np.logspace(-1.0, 0.0, 3)]
    else:
        # a lone row's table is the one `force` builds for that point
        code, out, _ = run_cli(capsys, ["force", *DRUDE_ARGS, *fixed, f"--{param}", lo,
                                        "--regime", "general", "--format", "csv"])
        assert code == 0
        assert lines[1].split(",")[2] == out.split("\n")[1].split(",")[0]


#: Each swept flag, the flags its sweep leaves fixed, and its message for -1.
BAD_ROW = {
    "velocity": (["--gap-nm", "10", "--temp-k", "300"], "--velocity must be finite and > 0"),
    "gap-nm": (["--velocity", "1", "--temp-k", "300"], "--gap-nm must be finite and > 0"),
    "temp-k": (["--gap-nm", "10", "--velocity", "1"],
               "--temp-k must be finite and > 0 (or 'zero')"),
    "wp-ev": (["--gap-nm", "10", "--temp-k", "300", "--velocity", "1"],
              "--wp-ev must be finite and >= 0"),
    "nu-ev": (["--gap-nm", "10", "--temp-k", "300", "--velocity", "1"],
              "--nu-ev must be finite and >= 0"),
}


@pytest.mark.parametrize("regime", ["auto", "general"])
@pytest.mark.parametrize("param", BAD_ROW)
def test_sweep_bad_input_names_its_row(capsys, param, regime):
    # a row whose swept value is a bad input exits 2 naming its row and value,
    # as its validity and numerical-failure lines do
    fixed, message = BAD_ROW[param]
    code, out, err = run_cli(capsys, ["sweep", *DRUDE_ARGS, *fixed, "--regime", regime,
                                      "--param", param, "--from", "-1", "--to", "1",
                                      "--points", "3", "--scale", "lin"])
    assert code == 2
    assert out == ""
    key = param.replace("-", "_")
    assert err.splitlines() == [f"error: row 0 ({key}=-1.0): {message}, got -1.0"]


#: A general velocity sweep from 0.1 to 1e8 m/s at 10 nm: its kernels cross
#: omega_sp and 2 omega_sp between rows.
WIDE_SWEEP = ["sweep", *DRUDE_ARGS, "--gap-nm", "10", "--regime", "general",
              "--param", "velocity", "--from", "0.1", "--to", "1e8", "--points", "33"]


@pytest.mark.parametrize("temp", ["zero", "300"])
def test_wide_general_sweep_meets_its_tolerance_at_every_row(capsys, monkeypatch, temp):
    # a table refined only for kernel scales a decade apart once left rows
    # between them 30 times outside --rtol (3.0e-5 at T = 0, 8.0e-6 at 300 K),
    # and the sweep CSV has no column that shows it
    from casimir_friction import cli

    results = []
    real = cli.general_forces

    def recording(*args, **kwargs):
        results.extend(real(*args, **kwargs))
        return results

    monkeypatch.setattr(cli, "general_forces", recording)
    code, out, _ = run_cli(capsys, [*WIDE_SWEEP, "--temp-k", temp])
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert [float(row[2]) for row in rows] == [r.force_per_area for r in results]
    assert len(rows) == 33
    assert max(r.diagnostics.quadrature_rel_err for r in results) <= 2.0 * NESTED_SPEC.rel_tol


def test_sweep_numerical_failure_names_its_row(capsys):
    # rows 0 and 1 converge; the lossless-limit row 2 fails in Phi
    code, out, err = run_cli(
        capsys,
        ["sweep", "--model", "drude", "--wp-ev", "9", "--gap-nm", "1", "--velocity", "1e7",
         "--temp-k", "zero", "--regime", "general", "--param", "nu-ev", "--from", "0.035",
         "--to", "1e-9", "--points", "3", "--scale", "log"],
    )
    assert code == 3
    assert out == ""
    [line] = [ln for ln in err.splitlines() if ln.startswith("numerical failure: ")]
    assert line.startswith("numerical failure: row 2 (nu_ev=1e-09): Phi ")
    assert line.endswith("(level: omega1)")


@pytest.mark.parametrize("argv", [
    ["force", *DRUDE_ARGS, *STATE_ARGS],
    ["sweep", *DRUDE_ARGS, *STATE_ARGS, "--param", "velocity", "--from", "1", "--to", "10",
     "--points", "2"],
    ["sweep", *DRUDE_ARGS, *STATE_ARGS, "--regime", "general", "--param", "velocity",
     "--from", "1", "--to", "10", "--points", "2"],
], ids=["force", "per-row-sweep", "general-sweep"])
def test_a_bad_rtol_exits_2_naming_the_flag(capsys, argv):
    # --rtol belongs to the command, not to a row: it is checked once, before any
    # force, row or `auto regime:` note
    code, out, err = run_cli(capsys, [*argv, "--rtol", "1e-20"])
    assert code == 2
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith("error: --rtol: ") and line.endswith("got 1e-20")


def test_phi_slope_failure_names_its_level(capsys, tmp_path, monkeypatch):
    # Phi_1, the linear force's integral over a table, fails at level omega1, as Phi does
    from casimir_friction import numerics

    monkeypatch.setattr(numerics, "MAX_BISECTIONS", 0)
    table = tmp_path / "T.csv"
    table.write_text("omega_rad_s,eps_re,eps_im\n1e13,-50,5\n1e14,-20,2\n1e15,-5,0.5\n",
                     encoding="utf-8")
    code, out, err = run_cli(capsys, ["force", "--model", "tabulated", "--eps-csv", str(table),
                                      *STATE_ARGS, "--regime", "linear"])
    assert code == 3
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith("numerical failure: Phi_1 did not converge within 0 bisections on ")
    assert line.endswith("(level: omega1)")


def test_general_sweep_table_failure_names_no_row(capsys):
    # a velocity sweep's rows share one Phi table: a failure there, at the sum resonance
    # of a nearly lossless plate, belongs to no row and is reported without a prefix
    code, out, err = run_cli(
        capsys,
        ["sweep", "--model", "drude", "--wp-ev", "9", "--nu-ev", "1e-9", "--gap-nm", "1",
         "--temp-k", "zero", "--regime", "general", "--param", "velocity", "--from", "1e6",
         "--to", "1e7", "--points", "2"],
    )
    assert code == 3
    assert out == ""
    [line] = [ln for ln in err.splitlines() if ln.startswith("numerical failure: ")]
    assert line.startswith("numerical failure: Phi table did not reach rel_tol=")
    assert line.endswith("(level: omega1)")


def test_shared_sweep_kx_failure_names_its_row(capsys, monkeypatch):
    # a k_x integral that fails inside the one pass of a gap sweep is named by
    # its row, as a per-row failure is; at T = 0, where every row takes the pass
    # (at 300 K the force series takes these slow rows)
    from casimir_friction import friction
    from test_friction import kx_integrand_failing_at

    monkeypatch.setattr(friction, "integrate_semi_infinite", kx_integrand_failing_at(1))
    code, out, err = run_cli(
        capsys,
        ["sweep", *DRUDE_ARGS, "--velocity", "1", "--temp-k", "zero", "--regime", "general",
         "--param", "gap-nm", "--from", "5", "--to", "20", "--points", "3", "--scale", "log"],
    )
    assert code == 3
    assert out == ""
    [line] = [ln for ln in err.splitlines() if ln.startswith("numerical failure: ")]
    assert line.startswith("numerical failure: row 1 (gap_nm=10.0): k_x integral ")
    assert line.endswith("(level: k_x)")


def test_sweep_builds_its_material_once(capsys, tmp_path, monkeypatch):
    gold = Drude(omega_p=9.0 * CONST.eV / CONST.hbar, nu=0.035 * CONST.eV / CONST.hbar)
    rows = ["omega_rad_s,eps_re,eps_im"]
    for w in np.logspace(9.0, math.log10(3e16), 40):
        eps = gold.eps_at(float(w))
        rows.append(f"{float(w)!r},{eps.real!r},{-eps.imag!r}")  # file convention: Im eps >= 0
    path = tmp_path / "gold.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    loads = []
    real = Tabulated.from_csv

    def counting(csv_path):
        loads.append(csv_path)
        return real(csv_path)

    monkeypatch.setattr(Tabulated, "from_csv", staticmethod(counting))
    code, out, err = run_cli(
        capsys,
        ["sweep", "--model", "tabulated", "--eps-csv", str(path), "--gap-nm", "10",
         "--temp-k", "300", "--regime", "linear", "--param", "velocity", "--from", "0.1",
         "--to", "1", "--points", "4"],
    )
    assert code == 0, err
    assert len(out.strip().split("\n")) == 5
    assert loads == [str(path)]


#: The general sweeps of the reference metal at 300 K, by swept parameter.
GENERAL_SWEEP_ARGS = {
    "velocity": ["--gap-nm", "10", "--param", "velocity", "--from", "0.1", "--to", "1e5"],
    "gap-nm": ["--velocity", "1", "--param", "gap-nm", "--from", "5", "--to", "100"],
}


def general_sweep(capsys, param, points, *extra):
    """(swept value, force) of each row of a 300 K general sweep."""
    code, out, err = run_cli(capsys, ["sweep", *DRUDE_ARGS, "--temp-k", "300", "--regime",
                                      "general", *GENERAL_SWEEP_ARGS[param],
                                      "--points", str(points), *extra])
    assert code == 0, err
    return [(x, float(f)) for _, x, f, _ in (ln.split(",") for ln in out.split("\n")[1:-1])]


def general_force(capsys, param, value, *extra):
    """force --regime general at one point of the sweep of `param`."""
    fixed = GENERAL_SWEEP_ARGS[param][:2]
    code, out, err = run_cli(capsys, ["force", *DRUDE_ARGS, "--temp-k", "300", "--regime",
                                      "general", *fixed, f"--{param}", value, *extra])
    assert code == 0, err
    return json.loads(out)["force_per_area_N_m2"]


@pytest.mark.parametrize("param", ["velocity", "gap-nm"])
def test_general_sweep_rows_match_force(capsys, param):
    # every row integrates against the sweep's table, force against its own:
    # both tables are refined to the default rel_tol
    rows = general_sweep(capsys, param, 8)
    assert len(rows) == 8
    for value, force in rows:
        assert force == pytest.approx(general_force(capsys, param, value), rel=1e-6, abs=0)


def test_general_sweep_rtol_tightens_its_table(capsys):
    # at T = 0, where every row is tabulated: at 300 K the force series takes these
    # rows, each as the force takes it
    worst = {}
    for rtol in ("1e-6", "1e-9"):
        cold = ("--temp-k", "zero", "--rtol", rtol)
        rows = general_sweep(capsys, "velocity", 3, "--from", "1e3", *cold)
        worst[rtol] = max(abs(f / general_force(capsys, "velocity", x, *cold) - 1.0)
                          for x, f in rows)
        assert worst[rtol] <= float(rtol)
    assert worst["1e-9"] < worst["1e-6"]


def test_general_force_matches_the_sweep_across_the_plasmon_resonances(capsys):
    # the sweep's table spans omega_sp and 2 omega_sp; the force's own table
    # spans its band alone
    rows = general_sweep(capsys, "velocity", 5, "--from", "1e4", "--to", "1e8", "--scale", "log")
    assert rows[2][0] == "1000000.0"
    force = general_force(capsys, "velocity", "1e6")
    assert force == pytest.approx(5.3222e-7, rel=1e-4)
    assert rows[2][1] == pytest.approx(force, rel=1e-6, abs=0)


def test_general_sweep_tabulates_phi_once(capsys, monkeypatch):
    # the benchmark's 32-point velocity sweep, at T = 0: about 145 Phi evaluations
    # per point when each point integrates Phi itself (at 300 K the force series
    # takes every row, and Phi is not evaluated)
    from casimir_friction import friction

    calls = []
    real = friction.im_r_dissipation_integral

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(friction, "im_r_dissipation_integral", counting)
    rows = general_sweep(capsys, "velocity", 32, "--scale", "log", "--temp-k", "zero")
    assert len(rows) == 32
    assert 0 < len(calls) <= 300


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


@pytest.mark.parametrize("flag", ["--from", "--to"])
@pytest.mark.parametrize("value", ["inf", "nan", "1e400"])
@pytest.mark.parametrize("scale", ["lin", "log"])
def test_sweep_non_finite_bound_exits_2(capsys, flag, value, scale):
    argv = ["sweep", *DRUDE_ARGS, "--gap-nm", "10", "--temp-k", "300", "--regime", "linear",
            "--param", "gap-nm", "--from", "1", "--to", "2", "--points", "3", "--scale", scale]
    argv[argv.index(flag) + 1] = value
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: {flag} must be finite, got {float(value)}"]


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


#: In a fresh interpreter with scipy blocked (every import of it raises
#: ImportError): run cli.main on argv[1:], then print the scipy modules it
#: loaded to stderr, as the last line, and exit with main's code.
NO_SCIPY_PROBE = """
import json, sys
sys.modules["scipy"] = None
from casimir_friction.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
print(json.dumps([m for m, mod in sys.modules.items() if m.startswith("scipy") and mod]),
      file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("argv", [
    ["force", *DRUDE_ARGS, *STATE_ARGS, "--regime", "general"],
    ["sweep", *DRUDE_ARGS, *STATE_ARGS, "--regime", "general", "--param", "velocity",
     "--from", "0.1", "--to", "100", "--points", "4", "--scale", "log"],
], ids=["force", "sweep"])
def test_general_path_runs_without_scipy(argv):
    # the package depends on numpy alone: K1 and the quadrature rule are its own
    blocked = subprocess.run([sys.executable, "-c", NO_SCIPY_PROBE, *argv],
                             capture_output=True, text=True, timeout=120, env=cli_env())
    fresh = subprocess.run([sys.executable, "-m", "casimir_friction", *argv],
                           capture_output=True, text=True, timeout=120, env=cli_env())
    assert (blocked.returncode, fresh.returncode) == (0, 0), blocked.stderr
    assert blocked.stdout == fresh.stdout
    assert blocked.stderr.splitlines()[-1] == "[]"


#: In a fresh interpreter: run cli.main on argv[1:], then print the mpmath and scipy
#: modules loaded and how many coefficient sets of Phi's small-omega series were built.
SERIES_PROBE = """
import contextlib, io, json, sys
from casimir_friction.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
from casimir_friction import _phi0
print(json.dumps([code, [m for m in sys.modules if m.startswith(("mpmath", "scipy"))],
                  _phi0.series_coefficients.cache_info().currsize]))
"""


def test_series_path_loads_neither_mpmath_nor_scipy():
    # a 300 K general force takes Phi below omega_sp / 2 from its small-omega series,
    # whose zeta values and binomials are the package's own
    argv = ["force", *DRUDE_ARGS, *STATE_ARGS, "--regime", "general"]
    proc = subprocess.run([sys.executable, "-c", SERIES_PROBE, *argv],
                          capture_output=True, text=True, timeout=120, env=cli_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, [], 1]


#: In a fresh interpreter: import the package, run each argv of argv[1] through
#: cli.main, then the general force of argv[2].  Prints the numpy submodules and
#: scipy modules loaded after each step (numpy itself may be a lazy placeholder),
#: then the exit codes and the general force's stdout.
COLD_PROBE = """
import contextlib, io, json, sys
def loaded():
    return [m for m in sys.modules if m.startswith(("numpy.", "scipy", "casimir_friction._phi0"))]
import casimir_friction
steps = {"import casimir_friction": (0, loaded())}
from casimir_friction.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        steps[" ".join(argv)] = (main(argv), loaded())
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(json.loads(sys.argv[2]))
print(json.dumps({"steps": steps, "general": [code, out.getvalue()]}))
"""


def test_closed_forms_load_neither_numpy_nor_scipy():
    closed = [
        ["force", *DRUDE_ARGS, *STATE_ARGS, "--regime", regime]
        for regime in ("linear", "plasmon", "auto")
    ] + [
        ["force", *DRUDE_ARGS, *STATE_ARGS[:2], "--temp-k", "zero", *STATE_ARGS[4:],
         "--regime", regime]
        for regime in ("zero-t", "auto")
    ] + [["compare", *DRUDE_ARGS, *STATE_ARGS]]
    general = ["force", *DRUDE_ARGS, *STATE_ARGS, "--regime", "general"]
    proc = subprocess.run(
        [sys.executable, "-c", COLD_PROBE, json.dumps(closed), json.dumps(general)],
        capture_output=True, text=True, timeout=120, env=cli_env(),
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert len(report["steps"]) == 1 + len(closed)
    for step, (code, loaded) in report["steps"].items():
        assert (code, loaded) == (0, []), step
    # numpy and the closed forms of Phi then load on first use, and the
    # general force is the one a fresh process prints
    fresh = subprocess.run([sys.executable, "-m", "casimir_friction", *general],
                           capture_output=True, text=True, timeout=120, env=cli_env())
    assert report["general"] == [0, fresh.stdout]
    assert fresh.returncode == 0


def test_argparse_errors_exit_2():
    proc = subprocess.run(
        [sys.executable, "-m", "casimir_friction", "force", "--regime", "bogus"],
        capture_output=True, text=True, timeout=120, env=cli_env(),
    )
    assert proc.returncode == 2


REGIMES = ["auto", "linear", "zero-t", "general", "plasmon"]


@settings(derandomize=True, deadline=None, max_examples=160)
@given(
    wp=st.floats(1.0, 15.0),
    nu_exp=st.floats(-3.0, math.log10(0.3)),
    gap_exp=st.floats(0.0, 3.0),
    v_exp=st.floats(-1.0, 8.0),
    t_exp=st.one_of(st.none(), st.floats(0.0, 3.0)),
    regime=st.sampled_from(REGIMES),
)
def test_force_property_over_physical_box(wp, nu_exp, gap_exp, v_exp, t_exp, regime):
    # every input in the box gives a finite force >= 0 or a documented exit code
    temp = "zero" if t_exp is None else repr(10.0**t_exp)
    argv = ["force", "--model", "drude", "--wp-ev", repr(wp), "--nu-ev", repr(10.0**nu_exp),
            "--gap-nm", repr(10.0**gap_exp), "--velocity", repr(10.0**v_exp),
            "--temp-k", temp, "--regime", regime]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert ".py:" not in err.getvalue()  # no warning text with a source line
    contradiction = (regime == "linear" and temp == "zero") or (
        regime == "zero-t" and temp != "zero"
    )
    if contradiction:
        assert code == 2, err.getvalue()
    else:
        # the general pipeline converges on the whole box, like the closed forms
        assert code == 0, err.getvalue()
        doc = json.loads(out.getvalue())
        force = doc["force_per_area_N_m2"]
        assert math.isfinite(force) and force >= 0.0
        # every flag of the result, and only those, is echoed on stderr
        echoed = [ln for ln in err.getvalue().splitlines() if ln.startswith("validity: ")]
        assert echoed == [f"validity: {f}" for f in doc["diagnostics"]["validity_flags"]]
