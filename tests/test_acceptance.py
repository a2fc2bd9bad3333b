"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every criterion asserts both its numerical tolerance and its
runtime budget.
"""

import json
import math
import time

import numpy as np
import pytest

from casimir_friction.numerics import (
    CONST,
    QuadratureSpec,
)
from casimir_friction.material import Drude, surface_response
from casimir_friction.geometry import PlateConfig
from casimir_friction.response import ThermalState
from casimir_friction.friction import (
    force_linear,
    force_plasmon,
    force_zero_t,
    dissipation_general,
)
from casimir_friction.compare import pendry_force
from casimir_friction import cli
import oracles

GOLD = Drude(omega_p=9.0 * CONST.eV / CONST.hbar, nu=0.035 * CONST.eV / CONST.hbar)
PLATE = PlateConfig(d=10.0 * CONST.nm, rho1=1e28, rho2=1e28)
ROOM = ThermalState.finite(300.0)
COLD = ThermalState.zero()


def _report(n, desc, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    line = f"acceptance {n:2d} [{status}] {desc}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert passed, line


def test_criterion_01_bose_integral():
    t0 = time.perf_counter()
    spec = QuadratureSpec(rel_tol=1e-12)

    def f(x):
        if x <= 0.0:
            return 1.0  # limit of x^2 e^-x/(1-e^-x)^2
        return x * x * math.exp(-x) / math.expm1(-x) ** 2

    value, _ = oracles.quad_semi_infinite(f, 0.0, 1.0, spec)
    elapsed = time.perf_counter() - t0
    rel = abs(value - math.pi**2 / 3.0) / (math.pi**2 / 3.0)
    _report(1, "thermal spectral constant equals pi^2/3",
            rel < 1e-10 and elapsed < 0.1,
            f"rel_err={rel:.2e}, t={elapsed:.3f}s")


def test_criterion_02_k_moments():
    t0 = time.perf_counter()
    worst = 0.0
    for d in (1e-9, 1e-8, 1e-6):
        for power, closed in ((2, 3.0 * math.pi / (8.0 * d**4) * 1e56),
                              (4, 45.0 * math.pi / (32.0 * d**6) * 1e56)):
            numeric = oracles.k_moment(power, d, 1e28, 1e28)
            worst = max(worst, abs(numeric - closed) / closed)
    elapsed = time.perf_counter() - t0
    _report(2, "numeric k-moments reproduce G and G_P gap laws",
            worst < 1e-8 and elapsed < 1.0,
            f"worst_rel={worst:.2e}, t={elapsed:.3f}s")


def test_criterion_03_ratio_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    coeff = (1.0 / 12.0) * (64.0 * math.pi**2 / 5.0)
    worst = 0.0
    for _ in range(20):
        mat = Drude(
            omega_p=rng.uniform(2.0, 15.0) * CONST.eV / CONST.hbar,
            nu=rng.uniform(0.001, 0.2) * CONST.eV / CONST.hbar,
        )
        rho = rng.uniform(1e27, 1e29)
        plate = PlateConfig(d=rng.uniform(1.0, 100.0) * CONST.nm, rho1=rho, rho2=rho)
        thermal = ThermalState.finite(rng.uniform(10.0, 1000.0))
        v = rng.uniform(1e-3, 1e2)
        ratio = (
            force_linear(mat, plate, thermal, v).force_per_area
            / force_zero_t(mat, plate, v).force_per_area
        )
        expected = coeff * (plate.d / (thermal.beta * CONST.hbar * v)) ** 2
        worst = max(worst, abs(ratio - expected) / expected)
    elapsed = time.perf_counter() - t0
    _report(3, "linear/cubic ratio identity over 20 random parameter sets",
            worst < 1e-12 and elapsed < 0.1,
            f"worst_rel={worst:.2e}, t={elapsed:.3f}s")


def test_criterion_04_factor_chain():
    t0 = time.perf_counter()
    ours = force_zero_t(GOLD, PLATE, 1.0).force_per_area
    f_pendry = pendry_force(GOLD.omega_p**2 / GOLD.nu, PLATE.d, 1.0)
    f_vp = 6.0 * f_pendry
    f_barton = 12.0 * f_pendry
    rel12 = abs(ours / f_pendry - 12.0) / 12.0
    rel_b = abs(ours - f_barton) / f_barton
    rel_vp = abs(ours / f_vp - 2.0) / 2.0
    elapsed = time.perf_counter() - t0
    _report(4, "factor chain Pendry:VP:Barton = 1:6:12 with ours = Barton",
            rel12 < 1e-12 and rel_b < 1e-12 and rel_vp < 1e-12 and elapsed < 0.1,
            f"rel12={rel12:.2e}, relB={rel_b:.2e}, t={elapsed:.3f}s")


def test_criterion_05_regime_consistency():
    # general pipeline vs linear closed form at T = 300 K
    worst_lin, worst_cold = 0.0, 0.0
    max_point = 0.0
    for v in (1e-2, 1e-3):
        t0 = time.perf_counter()
        general = dissipation_general(GOLD, GOLD, PLATE, ROOM, v).force_per_area
        max_point = max(max_point, time.perf_counter() - t0)
        closed = force_linear(GOLD, PLATE, ROOM, v).force_per_area
        worst_lin = max(worst_lin, abs(general - closed) / closed)
    # vs the zero-T closed form at v small enough that hbar*omega_v << m_max
    for v in (1.0, 0.3):
        t0 = time.perf_counter()
        general = dissipation_general(GOLD, GOLD, PLATE, COLD, v).force_per_area
        max_point = max(max_point, time.perf_counter() - t0)
        closed = force_zero_t(GOLD, PLATE, v).force_per_area
        worst_cold = max(worst_cold, abs(general - closed) / closed)
    _report(5, "general pipeline matches linear and cubic closed forms within 1%",
            worst_lin < 0.01 and worst_cold < 0.01 and max_point < 60.0,
            f"finite-T dev={worst_lin:.2e}, zero-T dev={worst_cold:.2e}, "
            f"max_point={max_point:.1f}s")


def test_criterion_06_scaling_laws():
    t0 = time.perf_counter()
    vs = np.logspace(-3, -2, 8)
    f_lin = [force_linear(GOLD, PLATE, ROOM, float(v)).force_per_area for v in vs]
    slope_lin = np.polyfit(np.log(vs), np.log(f_lin), 1)[0]

    vs3 = np.logspace(-1, 0, 8)
    f_cub = [force_zero_t(GOLD, PLATE, float(v)).force_per_area for v in vs3]
    slope_cub = np.polyfit(np.log(vs3), np.log(f_cub), 1)[0]

    f_gen = [
        dissipation_general(GOLD, GOLD, PLATE, COLD, float(v)).force_per_area
        for v in vs3
    ]
    slope_gen = np.polyfit(np.log(vs3), np.log(f_gen), 1)[0]
    elapsed = time.perf_counter() - t0
    _report(6, "force scaling exponents: v^1 (linear), v^3 (closed and numeric)",
            abs(slope_lin - 1.0) < 1e-3 and abs(slope_cub - 3.0) < 1e-3
            and abs(slope_gen - 3.0) < 0.02 and elapsed < 300.0,
            f"slopes=({slope_lin:.4f}, {slope_cub:.4f}, {slope_gen:.4f}), "
            f"t={elapsed:.1f}s")


def test_criterion_07_delta_sequence_convergence():
    t0 = time.perf_counter()
    rows = oracles.delta_limit_convergence(1.0, [50.0, 100.0, 200.0, 400.0])
    ratios = [r["ratio_vs_prev"] for r in rows[1:]]
    elapsed = time.perf_counter() - t0
    ok = all(abs(r - 2.0) <= 0.2 for r in ratios)
    _report(7, "finite-loop kernel converges to the delta limit at rate 1/tau",
            ok and elapsed < 30.0,
            "ratios=" + ",".join(f"{r:.3f}" for r in ratios) + f", t={elapsed:.1f}s")


def test_criterion_08_plasmon_suppression():
    t0 = time.perf_counter()
    d = 0.1 * CONST.nm
    plate = PlateConfig(d=d, rho1=1e28, rho2=1e28)
    wsp = GOLD.omega_sp
    c = 4.0 * wsp * d
    # fit ln F = a + b*(1/v) + g*ln(1/v): b captures the exponential rate
    # in the presence of the power-law prefactor
    us = np.linspace(5.0 / c, 50.0 / c, 12)
    lnf = np.array([
        math.log(force_plasmon(wsp, plate, 1.0 / u).force_per_area) for u in us
    ])
    design = np.vstack([np.ones_like(us), us, np.log(us)]).T
    coeffs, *_ = np.linalg.lstsq(design, lnf, rcond=None)
    rate_dev = abs(coeffs[1] + c) / c

    v_star = 4.0 * wsp * d  # solves 4 w_sp d / v = 1
    factor = v_star / 2.4e6
    elapsed = time.perf_counter() - t0
    _report(8, "plasmon suppression rate -4*w_sp*d and order-of-magnitude velocity",
            rate_dev < 0.02 and 0.5 < factor < 2.0 and elapsed < 60.0,
            f"rate_dev={rate_dev:.2e}, v*={v_star:.3e} m/s "
            f"({factor:.2f}x the reported 2.4e6), t={elapsed:.1f}s")


def test_criterion_09_oracle_equivalence():
    t0 = time.perf_counter()
    traj = oracles.LoopTrajectory(tau=10.0, alpha=50.0)
    worst_q = 0.0
    for w in np.linspace(0.3, 2.1, 5):
        for wv in np.linspace(0.1, 1.4, 5):
            closed = oracles.qhat_closed_form(float(w), float(wv), traj)
            numeric = oracles.qhat_numeric(float(w), float(wv), traj)
            worst_q = max(worst_q, abs(closed - numeric) / max(abs(numeric), 1e-3))

    sd = oracles.density(GOLD, 1e28)
    worst_j = 0.0
    for wv in (1e13, 1e14, 5e14):
        j_spectral = oracles.j_zero_t(wv, sd, sd, 1.0)
        conv = oracles.convolution(
            wv,
            lambda w: surface_response(GOLD, w),
            lambda w: surface_response(GOLD, w),
        )
        j_response = (
            2.0 * math.pi * 1.0 * wv * CONST.hbar
            * (1.0 / (2.0 * math.pi**2 * 1e28)) ** 2 * conv
        )
        worst_j = max(worst_j, abs(j_spectral - j_response) / j_response)
    elapsed = time.perf_counter() - t0
    _report(9, "closed forms agree with their independent quadrature oracles",
            worst_q < 1e-6 and worst_j < 1e-8 and elapsed < 30.0,
            f"qhat_dev={worst_q:.2e}, j_dev={worst_j:.2e}, t={elapsed:.1f}s")


def test_criterion_10_cli_contracts(capsys):
    t0 = time.perf_counter()
    force_args = ["force", "--model", "drude", "--wp-ev", "9", "--nu-ev", "0.035",
                  "--gap-nm", "10", "--temp-k", "300", "--velocity", "1",
                  "--regime", "linear"]
    code_a = cli.main(force_args)
    out_a = capsys.readouterr().out
    code_b = cli.main(force_args)
    out_b = capsys.readouterr().out
    byte_identical = out_a == out_b and code_a == code_b == 0

    code_bad = cli.main(["force", "--model", "drude", "--wp-ev", "9",
                         "--nu-ev", "0.035", "--gap-nm", "10", "--temp-k", "300",
                         "--velocity", "1", "--regime", "zero-t"])
    capsys.readouterr()
    code_vel = cli.main(["force", "--model", "drude", "--wp-ev", "9",
                         "--nu-ev", "0.035", "--gap-nm", "10", "--temp-k", "300",
                         "--velocity", "0"])
    capsys.readouterr()
    # a T = 0 general force on a line 1e-9 eV wide, whose rounding stops Phi's rule
    code_num = cli.main(["force", "--model", "drude", "--wp-ev", "9", "--nu-ev", "1e-9",
                         "--gap-nm", "1", "--velocity", "1e7", "--temp-k", "zero",
                         "--regime", "general"])
    capsys.readouterr()

    code_cmp = cli.main(["compare", "--model", "drude", "--wp-ev", "9",
                         "--nu-ev", "0.035", "--gap-nm", "10", "--temp-k", "300",
                         "--velocity", "1"])
    doc = json.loads(capsys.readouterr().out)
    compare_ok = code_cmp == 0 and doc["all_passed"] and all(
        c["passed"] for c in doc["checks"]
    )
    elapsed = time.perf_counter() - t0
    _report(10, "CLI determinism, exit codes 0/2/3, and compare checks",
            byte_identical and code_bad == 2 and code_vel == 2 and code_num == 3
            and compare_ok and elapsed < 5.0,
            f"codes=(0,{code_bad},{code_vel},{code_num}), t={elapsed:.2f}s")
