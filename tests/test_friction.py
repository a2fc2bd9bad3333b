import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import k1, k1e

from casimir_friction import _phi0, friction, numerics, response
from casimir_friction.numerics import (
    CONST,
    NESTED_SPEC,
    DomainError,
    FloatFailure,
    NonConvergence,
    QuadratureSpec,
)
from casimir_friction.material import Drude, SingularResponse, Tabulated, surface_response
from casimir_friction.geometry import PlateConfig
from casimir_friction.response import ThermalState, im_r_dissipation_integral, phi_slope
from casimir_friction.compare import consistency_report, pendry_force
from casimir_friction.friction import (
    GENERAL_NUMERIC,
    LINEAR_FINITE_T,
    PLASMON_LINE,
    ZERO_T_CUBIC,
    _k1e,
    _kernel,
    _xk1e_array,
    dissipation_general,
    force_linear,
    force_plasmon,
    force_zero_t,
    general_forces,
)
import oracles

EV = CONST.eV / CONST.hbar
GOLD = Drude(omega_p=9.0 * CONST.eV / CONST.hbar, nu=0.035 * CONST.eV / CONST.hbar)
PLATE = PlateConfig(d=10.0 * CONST.nm, rho1=1e28, rho2=1e28)
ROOM = ThermalState.finite(300.0)
COLD = ThermalState.zero()

# fast settings for the in-module closed-form comparisons
FAST = QuadratureSpec(rel_tol=1e-5)
ORACLE = QuadratureSpec(rel_tol=1e-12)


def closed_linear(material, d, beta, v):
    """Arithmetic oracle nu^2 v / (4 beta^2 d^4 hbar omega_p^4)."""
    return material.nu**2 * v / (4.0 * beta**2 * d**4 * CONST.hbar * material.omega_p**4)


def closed_cubic(material, d, v):
    """Arithmetic oracle 15 nu^2 hbar v^3 / (64 pi^2 omega_p^4 d^6)."""
    return 15.0 * material.nu**2 * CONST.hbar * v**3 / (
        64.0 * math.pi**2 * material.omega_p**4 * d**6
    )


def plasmon_t_quadrature(omega_sp, d, v):
    """Plasmon-line force with its k_y integral done by quadrature over t = k_y/k_x.

    The exponent is factored as e^-x * e^{-x(sqrt(1+t^2)-1)} so the
    quadrature stays scaled near unity.
    """
    kx = 2.0 * omega_sp / v
    x = 2.0 * d * kx

    def f(t):
        return math.exp(-x * (t * t / (math.sqrt(1.0 + t * t) + 1.0)))

    t_scale = math.sqrt(2.0 / x) + 2.0 / x
    value, _ = oracles.quad_semi_infinite(f, 0.0, t_scale, ORACLE)
    return CONST.hbar * omega_sp**3 / (2.0 * math.pi * v * v) * math.exp(-x) * kx * value


def tabulated_gold(grid=None):
    """The Drude response of GOLD tabulated on a log grid, dense by default."""
    if grid is None:
        grid = np.logspace(
            math.log10(1e-5 * CONST.eV / CONST.hbar),
            math.log10(20.0 * CONST.eV / CONST.hbar),
            4000,
        )
    eps = np.array([GOLD.eps_at(float(w)) for w in grid])
    return Tabulated(omega=grid, eps=eps)


def test_force_linear_closed_form():
    v = 1e-2
    res = force_linear(GOLD, PLATE, ROOM, v)
    assert res.regime == LINEAR_FINITE_T
    assert res.force_per_area == pytest.approx(
        closed_linear(GOLD, PLATE.d, ROOM.beta, v), rel=1e-8
    )
    assert res.force_per_area == pytest.approx(3.289807662032403e-15, rel=1e-10)


def test_force_linear_trivial_and_domain():
    assert force_linear(GOLD, PLATE, ROOM, 0.0).force_per_area == 0.0
    with pytest.raises(DomainError):
        force_linear(GOLD, PLATE, COLD, 1.0)
    with pytest.raises(DomainError):
        force_linear(GOLD, PLATE, ROOM, -1.0)


def test_force_linear_vanishes_with_temperature():
    # F ~ T^2: the linear channel closes at T = 0
    forces = [
        force_linear(GOLD, PLATE, ThermalState.finite(t), 1.0).force_per_area
        for t in (300.0, 30.0, 3.0)
    ]
    assert forces[0] > forces[1] > forces[2] > 0.0
    assert forces[2] / forces[0] == pytest.approx(1e-4, rel=1e-9)


def test_force_linear_scaling_laws():
    # slope of log F vs log v over a decade, and the d^-4 gap law
    vs = np.logspace(-3, -2, 5)
    fs = [force_linear(GOLD, PLATE, ROOM, float(v)).force_per_area for v in vs]
    slope = np.polyfit(np.log(vs), np.log(fs), 1)[0]
    assert slope == pytest.approx(1.0, abs=1e-3)
    lam = 2.5
    wide = PlateConfig(d=lam * PLATE.d, rho1=PLATE.rho1, rho2=PLATE.rho2)
    assert force_linear(GOLD, wide, ROOM, 1.0).force_per_area == pytest.approx(
        force_linear(GOLD, PLATE, ROOM, 1.0).force_per_area / lam**4, rel=1e-12
    )


def test_force_linear_rho_independent():
    res = force_linear(GOLD, PLATE, ROOM, 1.0).force_per_area
    doubled = PlateConfig(d=PLATE.d, rho1=2e28, rho2=2e28)
    unequal = PlateConfig(d=PLATE.d, rho1=7e26, rho2=4e29)
    assert force_linear(GOLD, doubled, ROOM, 1.0).force_per_area == pytest.approx(res, rel=1e-14)
    assert force_linear(GOLD, unequal, ROOM, 1.0).force_per_area == pytest.approx(res, rel=1e-14)


def test_force_linear_validity_flag_hot():
    hot = ThermalState.finite(2000.0)
    res = force_linear(GOLD, PLATE, hot, 1.0)
    assert res.diagnostics.validity_flags == [
        "kT approaches hbar*omega_sp: small-m linear head is inaccurate over the thermal window"
    ]
    assert force_linear(GOLD, PLATE, ROOM, 1.0).diagnostics.validity_flags == []


def test_force_linear_flags_a_table_that_starts_inside_the_thermal_window():
    # at 300 K the thermal window of Phi_1 reaches down from k_B T / hbar = 3.9e13
    # rad/s: a grid from 1e14 rad/s misses its lower part
    res = force_linear(tabulated_gold(np.logspace(14.0, 17.0, 61)), PLATE, ROOM, 1.0)
    assert res.diagnostics.validity_flags == ["tabulated support misses part of the thermal window"]
    assert res.force_per_area > 0.0


@pytest.fixture(scope="module")
def linear_on_gold_table():
    """force_linear on the dense table, computed once: it integrates one cell per node."""
    return force_linear(tabulated_gold(), PLATE, ROOM, 1.0)


def test_force_linear_tabulated_matches_drude(linear_on_gold_table):
    # a dense tabulated grid built from the Drude response should land on
    # the closed form up to (interpolation + small-m head) corrections
    res_tab = linear_on_gold_table
    res_drude = force_linear(GOLD, PLATE, ROOM, 1.0)
    assert res_tab.force_per_area == pytest.approx(res_drude.force_per_area, rel=5e-3)


def test_force_linear_tabulated_reports_quadrature_error(linear_on_gold_table):
    # the Phi_1 quadrature's own estimate, below the target it was given
    res = linear_on_gold_table
    assert 0.0 < res.diagnostics.quadrature_rel_err < NESTED_SPEC.rel_tol


def test_force_linear_coarse_table_converges():
    # the grid nodes are kinks of the interpolated Im R: one adaptive rule
    # across the ~340 nodes inside the thermal window stopped on roundoff
    nodes = (1e9, 3e16)
    table = tabulated_gold(np.logspace(9.0, math.log10(nodes[1]), 400))
    res = force_linear(table, PLATE, ROOM, 1.0)
    im_r = lambda w: surface_response(GOLD, w).imag
    phi1, _ = phi_slope(im_r, im_r, ROOM, nodes)
    expected = 3.0 * CONST.hbar * phi1 / (64.0 * math.pi**2 * PLATE.d**4)
    assert res.force_per_area == pytest.approx(expected, rel=1e-4)
    assert 0.0 < res.diagnostics.quadrature_rel_err < 1e-6


def test_force_zero_t_pinned_value():
    v = 1.0
    res = force_zero_t(GOLD, PLATE, v)
    assert res.regime == ZERO_T_CUBIC
    assert res.force_per_area == pytest.approx(closed_cubic(GOLD, PLATE.d, v), rel=1e-12)
    assert res.force_per_area == pytest.approx(2.0257473785865193e-25, rel=1e-12)
    assert force_zero_t(GOLD, PLATE, 0.0).force_per_area == 0.0


def test_force_zero_t_scaling_and_rho():
    vs = np.logspace(-1, 0, 5)
    fs = [force_zero_t(GOLD, PLATE, float(v)).force_per_area for v in vs]
    slope = np.polyfit(np.log(vs), np.log(fs), 1)[0]
    assert slope == pytest.approx(3.0, abs=1e-3)
    lam = 2.0
    wide = PlateConfig(d=lam * PLATE.d, rho1=1e28, rho2=1e28)
    assert force_zero_t(GOLD, wide, 1.0).force_per_area == pytest.approx(
        force_zero_t(GOLD, PLATE, 1.0).force_per_area / lam**6, rel=1e-12
    )
    halved = PlateConfig(d=PLATE.d, rho1=5e27, rho2=5e27)
    assert force_zero_t(GOLD, halved, 1.0).force_per_area == pytest.approx(
        force_zero_t(GOLD, PLATE, 1.0).force_per_area, rel=1e-14
    )


def test_force_zero_t_guards():
    # the densities cancel: unequal ones give the equal-density force
    unequal = force_zero_t(GOLD, PlateConfig(d=1e-8, rho1=1e28, rho2=2e28), 1.0)
    assert unequal == force_zero_t(GOLD, PlateConfig(d=1e-8, rho1=1e28, rho2=1e28), 1.0)
    with pytest.raises(TypeError):
        force_zero_t(tabulated_gold(np.logspace(12.0, 17.0, 8)), PLATE, 1.0)
    res = force_zero_t(GOLD, PLATE, 1e7)  # omega_v leaves the linear head
    assert len(res.diagnostics.validity_flags) == 1
    assert "cubic closed form" in res.diagnostics.validity_flags[0]
    assert force_zero_t(GOLD, PLATE, 1.0).diagnostics.validity_flags == []


def test_ratio_identity_linear_over_cubic():
    rng = np.random.default_rng(7)
    coeff = 16.0 * math.pi**2 / 15.0
    for _ in range(10):
        wp = rng.uniform(2.0, 15.0) * CONST.eV / CONST.hbar
        nu = rng.uniform(0.001, 0.2) * CONST.eV / CONST.hbar
        d = rng.uniform(1.0, 100.0) * CONST.nm
        t = rng.uniform(10.0, 1000.0)
        v = rng.uniform(1e-3, 1e2)
        mat = Drude(omega_p=wp, nu=nu)
        plate = PlateConfig(d=d, rho1=1e28, rho2=1e28)
        thermal = ThermalState.finite(t)
        ratio = (
            force_linear(mat, plate, thermal, v).force_per_area
            / force_zero_t(mat, plate, v).force_per_area
        )
        expected = coeff * (d / (thermal.beta * CONST.hbar * v)) ** 2
        assert ratio == pytest.approx(expected, rel=1e-12)


def test_oracle_chains_equal_closed_forms():
    # the paper's rho-carrying chain: F = G v H0 and F = G_P H_P' v^3, with
    # H0 and H_P' = J_zero_t / (2 tau omega_v^4) from two Drude linear heads
    rho = 3e27
    plate = PlateConfig(d=PLATE.d, rho1=rho, rho2=rho)
    slope = oracles.drude_slope(GOLD, rho)
    head = lambda m: slope * m
    v = 1e-2
    g = oracles.k_moment(2, plate.d, rho, rho, ORACLE)
    h0 = oracles.h0(head, head, ROOM, ORACLE)
    assert g * v * h0 == pytest.approx(
        force_linear(GOLD, plate, ROOM, v).force_per_area, rel=1e-12
    )
    tau, wv = 1.0, 1e10
    g_p = oracles.k_moment(4, plate.d, rho, rho, ORACLE)
    h_p = oracles.j_zero_t(wv, head, head, tau, ORACLE) / (2.0 * tau * wv**4)
    v = 1.0
    assert g_p * h_p * v**3 == pytest.approx(
        force_zero_t(GOLD, plate, v).force_per_area, rel=1e-12
    )


def test_general_matches_zero_t_closed_form():
    v = 1.0
    res = dissipation_general(GOLD, GOLD, PLATE, COLD, v, FAST)
    assert res.regime == GENERAL_NUMERIC
    expected = force_zero_t(GOLD, PLATE, v).force_per_area
    assert res.force_per_area == pytest.approx(expected, rel=1e-2)
    assert res.diagnostics.quadrature_rel_err < 1e-3


def test_general_matches_linear_closed_form():
    v = 1e-2
    res = dissipation_general(GOLD, GOLD, PLATE, ROOM, v, FAST)
    expected = force_linear(GOLD, PLATE, ROOM, v).force_per_area
    assert res.force_per_area == pytest.approx(expected, rel=1e-2)


def test_general_lossless_material_dissipates_nothing():
    # a lossless plate's 0 is flagged: its nu -> 0 limit is the plasmon line
    lossless = Drude(omega_p=GOLD.omega_p, nu=0.0)
    res = dissipation_general(lossless, lossless, PLATE, COLD, 1.0, FAST)
    assert res.force_per_area == 0.0
    [flag] = res.diagnostics.validity_flags
    assert "plasmon" in flag
    for closed in (force_linear(lossless, PLATE, ROOM, 1.0), force_zero_t(lossless, PLATE, 1.0)):
        assert closed.force_per_area == 0.0
        assert closed.diagnostics.validity_flags == [flag]
    # a lossy plate, and no motion, give their 0 unflagged
    still = dissipation_general(GOLD, GOLD, PLATE, ROOM, 0.0, FAST)
    assert still.force_per_area == 0.0 and still.diagnostics.validity_flags == []
    assert dissipation_general(GOLD, GOLD, PLATE, COLD, 1.0, FAST).diagnostics.validity_flags == []


def test_general_temperature_crossover_monotone():
    v = 10.0
    cold_force = dissipation_general(GOLD, GOLD, PLATE, COLD, v, FAST).force_per_area
    forces = [
        dissipation_general(GOLD, GOLD, PLATE, ThermalState.finite(t), v, FAST).force_per_area
        for t in (300.0, 150.0, 75.0, 40.0, 20.0)
    ]
    for hotter, colder in zip(forces, forces[1:]):
        assert hotter > colder * (1.0 - 1e-6)
    assert forces[-1] == pytest.approx(cold_force, rel=0.05)
    assert forces[-1] > cold_force * (1.0 - 1e-6)


def test_general_nonconvergence_reports_level(monkeypatch):
    monkeypatch.setattr(numerics, "MAX_BISECTIONS", 1)
    tight = QuadratureSpec(rel_tol=1e-13)
    with pytest.raises(NonConvergence) as err:
        dissipation_general(GOLD, GOLD, PLATE, COLD, 1.0, tight)
    assert err.value.level in ("omega1", "k_x")


def test_kx_nonconvergence_names_kx_and_omega(monkeypatch):
    # at T = 0 this band lies far below omega_sp, where Phi is smooth: its quadrature
    # converges within one bisection at every node, so that only the k_x integral
    # runs out of bisections
    v = 3.0
    monkeypatch.setattr(numerics, "MAX_BISECTIONS", 1)
    tight = QuadratureSpec(rel_tol=1e-13)
    with pytest.raises(NonConvergence) as err:
        general_forces(GOLD, GOLD, COLD, [v], [PLATE.d], tight)
    assert err.value.level == "k_x"
    number = r"([-+0-9.e]+|inf)"
    found = re.search(rf"k_x in \[{number}, {number}\] 1/m, "
                      rf"omega = k_x v in \[{number}, {number}\] rad/s", str(err.value))
    assert found, str(err.value)
    kx_lo, kx_hi, omega_lo, omega_hi = map(float, found.groups())
    # a coordinate in 1/m, not the mapped t in [0, 1]: the kernel's scale is 1/(2d) = 5e7 1/m
    assert 0.0 <= kx_lo < kx_hi and kx_hi > 1.0
    assert (omega_lo, omega_hi) == pytest.approx((kx_lo * v, kx_hi * v))


def test_general_force_calls_both_numerics_fronts(monkeypatch):
    # the benchmark's tracer wraps these two by name at every module that binds
    # them, and its smoke run fails if one general force records no call of either;
    # a slow force at finite T is the force series, which calls neither, and at
    # T = 0 Phi below omega_sp / 2 is integrated
    calls = dict.fromkeys(("integrate_finite", "integrate_semi_infinite"), 0)
    for name in calls:
        real = getattr(numerics, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("casimir_friction") and vars(module).get(name) is real:
                monkeypatch.setattr(module, name, counting)
    dissipation_general(GOLD, GOLD, PLATE, COLD, 1.0)
    assert calls["integrate_finite"] >= 1
    assert calls["integrate_semi_infinite"] >= 1


def test_general_equal_plates_share_difference_channel(monkeypatch):
    # counts the omega nodes at which Phi's rule evaluates R, in arrays; at 3000 K
    # the small-omega series leaves Phi to the quadrature (at 300 K it takes every node)
    nodes = []

    def counting(model, omega):
        nodes.append(np.size(omega))
        return surface_response(model, omega)

    monkeypatch.setattr(response, "surface_response", counting)
    hot = ThermalState.finite(3000.0)
    shared = dissipation_general(GOLD, GOLD, PLATE, hot, 1.0, FAST)
    shared_nodes = sum(nodes)
    nodes.clear()
    twin = Drude(omega_p=GOLD.omega_p, nu=GOLD.nu)
    separate = dissipation_general(GOLD, twin, PLATE, hot, 1.0, FAST)
    assert shared.force_per_area == separate.force_per_area
    assert shared.diagnostics == separate.diagnostics
    assert 0 < shared_nodes < sum(nodes)


def served_by_series(monkeypatch):
    """The points that the force series took in each later `_series_forces` call, in a list
    that fills."""
    served = []
    real = friction._series_forces

    def recording(*args):
        taken = real(*args)
        served.append(sorted(taken))
        return taken

    monkeypatch.setattr(friction, "_series_forces", recording)
    return served


def counted_phi(monkeypatch):
    """The node counts of every later Phi call of a general force, in a list that fills."""
    calls = []
    real = friction.im_r_dissipation_integral

    def counting(*args, **kwargs):
        calls.append(np.size(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(friction, "im_r_dissipation_integral", counting)
    return calls


@pytest.mark.parametrize("rows", [9, 16])
def test_clenshaw_is_the_recurrence_bit_for_bit(rows):
    # the in-place steps of friction._clenshaw against the recurrence as one
    # expression per step: addition commutes in IEEE arithmetic; 9 rows are
    # K1's series, 16 a longer one
    rng = np.random.default_rng(rows)
    for _ in range(50):
        coeffs = rng.standard_normal((rows, 960)) * 10.0 ** rng.uniform(-8.0, 8.0, (rows, 1))
        x = np.concatenate(([-1.0, 1.0], rng.uniform(-1.0, 1.0, 958)))
        assert np.array_equal(friction._clenshaw(coeffs, x), oracles.clenshaw(coeffs, x))


#: The benchmark's pool of physical-box points, each with a reference force from
#: an independent quadrature at epsrel 1e-12 (perfbench/make_refs.py).
REFS = Path(__file__).resolve().parent.parent / "perfbench" / "refs.json"


def test_general_force_error_budget_on_the_reference_pool(monkeypatch):
    # every point of the benchmark's pool converges, is within 1e-6 of its
    # reference and reports at least the error it makes, and at most rel_tol (9
    # reported up to 1.64e-6 when a Phi table's error and the k_x rule's each took
    # rel_tol); 128, 192, 208, 280 and
    # 281 failed in the subnormal tail of the difference channel when Phi was a
    # nested adaptive quadrature, and 110 and 269 once had per-node Phi errors
    # that under-reported.  A force-series point can be nearer the true force than
    # its reference, taken at epsrel 1e-12 (point 124 by 5.4e-13, against a
    # reported 1.2e-14): its error is checked against the k_x integral at rel_tol
    # 1e-10 instead, both within the sum of their errors.  No Phi node at or above
    # POLES_FROM times omega_sp reaches the quadrature outside 1e-2 of the merge
    # Omega_1 + Omega_2 of a pair of poles: 428 did in 72 of these points when the
    # pole sum formed Phi, of order nu^2, from terms of order 1
    pool = json.loads(REFS.read_text(encoding="utf-8"))["force_box"]["pool"]
    assert len(pool) == 288
    series = served_by_series(monkeypatch)
    refused = []
    closed_form = _phi0.closed_form

    def recording(omegas, material1, material2, b, tol):
        phi, err, used = closed_form(omegas, material1, material2, b, tol)
        high = omegas >= _phi0.POLES_FROM * min(material1.omega_sp, material2.omega_sp)
        peak = _phi0._omega(material1) + _phi0._omega(material2)
        refused.extend(omegas[high & ~used & (np.abs(omegas / peak - 1.0) > 1e-2)])
        return phi, err, used

    monkeypatch.setattr(_phi0, "closed_form", recording)
    served = []
    for i, p in enumerate(pool):
        metal = Drude(omega_p=p["wp_ev"] * CONST.eV / CONST.hbar,
                      nu=p["nu_ev"] * CONST.eV / CONST.hbar)
        thermal = COLD if p["temp_k"] is None else ThermalState.finite(p["temp_k"])
        plate = PlateConfig(d=p["gap_nm"] * CONST.nm)
        result = dissipation_general(metal, metal, plate, thermal, p["v"])
        force = result.force_per_area
        dev = abs(force - p["ref"]) / max(abs(force), abs(p["ref"]))
        assert dev <= 1e-6, f"pool point {i}: {force!r} vs {p['ref']!r}"
        assert result.diagnostics.quadrature_rel_err <= NESTED_SPEC.rel_tol, f"pool point {i}"
        if series[-1]:
            served.append((i, metal, plate, thermal, p["v"], result))
        else:
            assert result.diagnostics.quadrature_rel_err >= dev, f"pool point {i} under-reports"
    assert len(served) >= 150
    assert not refused
    monkeypatch.setattr(friction, "FORCE_SERIES_FROM", math.inf)
    for i, metal, plate, thermal, v, result in served:
        kx = dissipation_general(metal, metal, plate, thermal, v, QuadratureSpec(rel_tol=1e-10))
        dev = abs(result.force_per_area / kx.force_per_area - 1.0)
        assert dev <= (result.diagnostics.quadrature_rel_err
                       + kx.diagnostics.quadrature_rel_err), f"pool point {i} under-reports"


def test_reference_pool_takes_one_phi_call_per_kx_point_below_1e7_m_s(monkeypatch):
    # the k_x pass starts on a mesh that covers the kernel's tail (cuts at x = 10 and
    # 20) and Phi's climb below omega_sp (a cut at x_sp - 1), so that a k_x point below
    # 1e7 m/s takes one bisection round, one call of Phi: 229 calls on 25,809 nodes
    # when the tail past x = 7 took a second round for most of them
    pool = json.loads(REFS.read_text(encoding="utf-8"))["force_box"]["pool"]
    series = served_by_series(monkeypatch)
    calls = counted_phi(monkeypatch)
    for i, p in enumerate(pool):
        metal = Drude(omega_p=p["wp_ev"] * EV, nu=p["nu_ev"] * EV)
        thermal = COLD if p["temp_k"] is None else ThermalState.finite(p["temp_k"])
        before = len(calls)
        dissipation_general(metal, metal, PlateConfig(d=p["gap_nm"] * CONST.nm), thermal, p["v"])
        if not series[-1] and p["v"] < 1e7:
            assert len(calls) - before == 1, f"pool point {i}"
    assert len(calls) <= 140 and sum(calls) <= 25809


def test_k1_moments_are_the_linear_and_cubic_ones_and_their_recurrence():
    # M_mu = Int_0^inf x^mu K1(x) dx: 3 pi / 2 and 45 pi / 2 weigh Phi_1 and Phi_3 in
    # the linear and the cubic force, and each order of the force series weighs
    # phi_(2i+1) by M_(2i+3)
    moments = friction.k1_moments(friction.FORCE_SERIES_ORDERS)
    assert len(moments) == friction.FORCE_SERIES_ORDERS
    assert moments[0] == 3.0 * math.pi / 2.0
    assert moments[1] == pytest.approx(45.0 * math.pi / 2.0, rel=1e-15)
    for i, moment in enumerate(moments):
        mu = 2 * i + 3
        value, _ = oracles.quad_semi_infinite(lambda x: x**mu * k1(x), 0.0, float(mu), ORACLE)
        assert moment == pytest.approx(value, rel=1e-10)


#: Plates of the force series' grid, equal and unequal: (plate 1, plate 2).  At 1000 K
#: the lines' bound, e^(-hbar omega_sp / (2 k_B T)) over the series' window, keeps
#: the series off GOLD (3e-4 of the force at the guard): these plates are stiffer.
SERIES_PLATES = {"equal": (Drude(12.0 * EV, 0.035 * EV),) * 2,
                 "unequal": (Drude(15.0 * EV, 0.035 * EV), Drude(12.0 * EV, 0.1 * EV))}
#: x_sp = 2 d omega_sp / v of the grid's points, omega_sp the smaller one: across the
#: force series' guard at 40, and far above it.
SERIES_GRID = (20.0, 35.0, 39.5, 40.5, 45.0, 80.0, 1e3, 1e6)


@pytest.mark.parametrize("plates", SERIES_PLATES)
@pytest.mark.parametrize("kelvin", [10.0, 300.0, 1000.0])
def test_force_series_agrees_with_the_kx_integral_across_its_guard(monkeypatch, plates, kelvin):
    # below the guard every point takes the k_x integral; above it the series takes
    # the points whose error it holds, with no k_x integral.  Its force and the
    # integral's (the series off, FORCE_SERIES_FROM = inf) agree within the sum of
    # their errors, and within that of an integral at rel_tol 1e-10: the series does
    # not under-report
    m1, m2 = SERIES_PLATES[plates]
    thermal = ThermalState.finite(kelvin)
    sp = min(m1.omega_sp, m2.omega_sp)
    series = served_by_series(monkeypatch)
    served = []
    for x in SERIES_GRID:
        v = 2.0 * PLATE.d * sp / x
        row = dissipation_general(m1, m2, PLATE, thermal, v)
        assert row.regime == GENERAL_NUMERIC and row.force_per_area > 0.0
        if series[-1]:
            assert x >= friction.FORCE_SERIES_FROM
            served.append((v, row))
    assert len(served) >= 4
    monkeypatch.setattr(friction, "FORCE_SERIES_FROM", math.inf)
    for v, row in served:
        for spec in (NESTED_SPEC, QuadratureSpec(rel_tol=1e-10)):
            kx = dissipation_general(m1, m2, PLATE, thermal, v, spec)
            assert not series[-1]
            dev = abs(row.force_per_area / kx.force_per_area - 1.0)
            assert dev <= row.diagnostics.quadrature_rel_err + kx.diagnostics.quadrature_rel_err
        assert row.diagnostics.quadrature_rel_err <= NESTED_SPEC.rel_tol


#: Points whose k_x integral reaches the sum resonance omega_sp1 + omega_sp2, where Phi
#: has a Lorentzian peak (nu1 + nu2) / 2 wide: (plate 1, plate 2, thermal, gap in m,
#: velocity in m/s).  The first two are the reference metal; the others are narrow
#: lines, hbar nu about 1e-3 eV, of which two T = 0 points once failed in Phi's own
#: quadrature, and the last pair is unequal.
SUM_RESONANCES = {
    "gold-7nm-room": (GOLD, None, ROOM, 7e-9, 3e7),
    "gold-10nm-cold": (GOLD, None, COLD, 1e-8, 1e8),
    "9eV-1nm-300K": (Drude(9.0 * EV, 1e-3 * EV), None, ROOM, 1e-9, 1e8),
    "15eV-5nm-1000K": (Drude(15.0 * EV, 1e-3 * EV), None, ThermalState.finite(1000.0), 5e-9, 1e8),
    "7.1eV-1nm-cold": (Drude(7.1035664975575425 * EV, 1e-3 * EV), None, COLD, 1e-9,
                       12693064.810593091),
    "4.96eV-1nm-cold": (Drude(4.9555017756573285 * EV, 0.0024151963478304737 * EV), None, COLD,
                        1.0454794467392023e-9, 67900020.93075527),
    "9eV-7eV-1nm-300K": (Drude(9.0 * EV, 1e-3 * EV), Drude(7.0 * EV, 1e-3 * EV), ROOM, 1e-9, 1e8),
}


@pytest.mark.parametrize("case", SUM_RESONANCES)
def test_kx_pass_starts_graded_toward_the_sum_resonance(monkeypatch, case):
    # cut toward the peak from the start, at x_c +- 2^k (nu1 + nu2) d / v, the k_x
    # integral meets it in one or two bisection rounds, each one call of Phi: a Phi
    # table that bisection alone refined toward it took 17 to 22 calls of 720 nodes
    m1, m2, thermal, d, v = SUM_RESONANCES[case]
    m2 = m2 or m1
    calls = counted_phi(monkeypatch)
    row = dissipation_general(m1, m2, PlateConfig(d=d), thermal, v)
    assert len(calls) <= 2 and sum(calls) <= 720
    assert 0.0 < row.diagnostics.quadrature_rel_err <= NESTED_SPEC.rel_tol
    tight = dissipation_general(m1, m2, PlateConfig(d=d), thermal, v, QuadratureSpec(rel_tol=1e-10))
    dev = abs(row.force_per_area / tight.force_per_area - 1.0)
    assert dev <= row.diagnostics.quadrature_rel_err + tight.diagnostics.quadrature_rel_err


@pytest.mark.parametrize("v, grades", [(1.0, 0), (3e7, 1)], ids=["slow", "fast"])
def test_kx_pass_grades_toward_the_sum_resonance_only_where_an_integral_reaches_it(
        monkeypatch, v, grades):
    # at 1 m/s the sum resonance lies far past x = 60 (x_c = 2 d c / v ~ 4e8), where
    # every graded point would be 0, a cut the integral drops: the pass forms none;
    # at 3e7 m/s it lies at x_c ~ 13 and the pass grades toward it once
    calls = []
    real = friction.graded_points

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(friction, "graded_points", counting)
    row = dissipation_general(GOLD, GOLD, PLATE, COLD, v)
    assert len(calls) == grades
    assert 0.0 < row.diagnostics.quadrature_rel_err <= NESTED_SPEC.rel_tol


@pytest.mark.parametrize("slow", [1e-200, 1e-295])
def test_one_kx_pass_from_far_below_one_rad_s_to_the_sum_resonance(slow):
    # one k_x pass takes a point far below 1 rad/s and one at the sum resonance; each
    # integral is refined on its own segments, so the slow point's force is linear in
    # v, as at 1 m/s, within its reported error, at 1e-200 m/s as at 1e-295 m/s
    rows = general_forces(GOLD, GOLD, ROOM, [slow, 1e8], [PLATE.d, 1e-9])
    linear = dissipation_general(GOLD, GOLD, PLATE, ROOM, 1.0)
    dev = abs(rows[0].force_per_area / slow / linear.force_per_area - 1.0)
    assert dev <= rows[0].diagnostics.quadrature_rel_err <= NESTED_SPEC.rel_tol


@pytest.mark.parametrize("thermal", [COLD, ROOM], ids=["cold", "room"])
def test_fast_forces_reach_the_float_edge_of_the_kernel_band(thermal):
    # far above the resonances, v / (2d) >> omega_sp, Phi's peak at the sum resonance
    # lies at x_c = 2 d c / v -> 0, where x^2 K1(x) ~ x: the force tends to the plasmon
    # line's hbar omega_sp^3 / (4 pi v^2 d), less the line width's first order, and
    # v^2 F holds from 1e20 m/s up to the fastest v whose kernel band stays in the
    # floats (`friction._require_points`).  A Phi table whose band stopped above the
    # peak reported a flagged 0 past about 1e67 m/s at T = 0, and 1e144 m/s at 300 K
    power = 3 if thermal.is_zero else 1
    edge = sys.float_info.max ** (1.0 / (power + 1)) / 60.0 * 2.0 * PLATE.d * (1.0 - 1e-12)
    speeds = [1e20, 1e40, 1e60, edge]
    rows = general_forces(GOLD, GOLD, thermal, speeds, [PLATE.d] * len(speeds))
    line = [force_plasmon(GOLD.omega_sp, PLATE, v).force_per_area for v in speeds]
    ratios = [row.force_per_area / f for row, f in zip(rows, line)]
    assert ratios == pytest.approx([ratios[0]] * len(speeds), rel=1e-9, abs=0.0)
    assert ratios[0] == pytest.approx(1.0 - GOLD.nu / (math.pi * GOLD.omega_sp), rel=1e-4)
    for row in rows:
        assert not row.diagnostics.validity_flags
        assert 0.0 < row.diagnostics.quadrature_rel_err <= NESTED_SPEC.rel_tol
    # the band's slow float edge at T = 0, where the cuts at omega_sp / s and c / s are
    # far past 60 and no cuts: the force is below the normal floats, and flagged
    slow = sys.float_info.min ** (1.0 / 3.0) * 1e4 * 2.0 * PLATE.d * (1.0 + 1e-12)
    [row] = general_forces(GOLD, GOLD, COLD, [slow], [PLATE.d])
    assert row.force_per_area == 0.0
    assert [flag[:10] for flag in row.diagnostics.validity_flags] == ["underflow:"]


def test_series_force_below_the_normal_floats_is_a_flagged_zero_with_no_kx_pass(monkeypatch):
    # at 10 K, 1 mm and 1e-290 m/s the force series holds its bound and its force is
    # below the normal floats: a 0 flagged by the series, with no k_x pass and so no
    # Phi evaluated
    calls = counted_phi(monkeypatch)
    [row] = general_forces(GOLD, GOLD, ThermalState.finite(10.0), [1e-290], [1e-3])
    assert row.force_per_area == 0.0 and not calls
    [flag] = row.diagnostics.validity_flags
    assert flag.startswith("underflow: force series ")
    assert "d = 0.001 m, v = 1e-290 m/s" in flag
    assert 0.0 < row.diagnostics.quadrature_rel_err <= NESTED_SPEC.rel_tol


SWEEPS = {
    # (thermal, velocities, gaps): each sweep's rows, where the force series refuses
    # them, share one k_x pass
    "velocity-cold": (COLD, np.logspace(-1.0, 5.0, 12), [PLATE.d]),
    "velocity-room": (ROOM, np.logspace(-1.0, 5.0, 12), [PLATE.d]),
    "gap-cold": (COLD, [1.0], np.logspace(np.log10(5e-9), -7.0, 9)),
    "gap-room": (ROOM, [1.0], np.logspace(np.log10(5e-9), -7.0, 9)),
    # the band crosses omega_sp and 2 omega_sp
    "plasmon-cold": (COLD, np.logspace(4.0, 8.0, 9), [PLATE.d]),
    "plasmon-room": (ROOM, np.logspace(4.0, 8.0, 9), [PLATE.d]),
}


@pytest.mark.parametrize("thermal", [COLD, ROOM, ThermalState.finite(1000.0)],
                         ids=["zero", "300K", "1000K"])
def test_batch_rows_are_the_single_point_forces(thermal):
    # a sweep hands all its rows to one general_forces call: each row, of the force series
    # or of the k_x pass, is bit for bit the force, error and flags of its point alone
    speeds = np.logspace(-1.0, 8.0, 33).tolist()
    rows = general_forces(GOLD, GOLD, thermal, speeds, [PLATE.d] * len(speeds))
    for row, v in zip(rows, speeds):
        alone = dissipation_general(GOLD, GOLD, PLATE, thermal, v)
        assert row.force_per_area == alone.force_per_area
        assert row.diagnostics == alone.diagnostics


@pytest.mark.parametrize("sweep", SWEEPS)
def test_one_pass_rows_equal_the_per_point_force(sweep):
    # every point's k_x integral is refined on its own segments, and Phi at a node
    # does not depend on the other nodes of its call: a row is bit for bit the same
    # in any order of the pass, and within its budget of the force its point has
    # alone
    thermal, speeds, gaps = SWEEPS[sweep]
    v, d = (a.ravel().tolist() for a in np.broadcast_arrays(speeds, gaps))
    assert len(v) >= 8
    rows = general_forces(GOLD, GOLD, thermal, v, d)
    assert rows == general_forces(GOLD, GOLD, thermal, v[::-1], d[::-1])[::-1]
    for row, vi, di in zip(rows, v, d):
        alone = dissipation_general(GOLD, GOLD, PlateConfig(d=di), thermal, vi)
        dev = abs(row.force_per_area / alone.force_per_area - 1.0)
        assert dev <= row.diagnostics.quadrature_rel_err + alone.diagnostics.quadrature_rel_err
        assert row.diagnostics.quadrature_rel_err <= NESTED_SPEC.rel_tol
        assert row.regime == GENERAL_NUMERIC and row.force_per_area > 0


def kx_integrand_failing_at(row):
    """`friction.integrate_semi_infinite`, but NaN in the k_x integrand of the pass's ``row``."""
    real = friction.integrate_semi_infinite

    def failing(f, spec, cuts):
        def integrand(x, which):
            return np.where((which == row)[:, None], math.nan, f(x, which))

        return real(integrand, spec, cuts)

    return failing


def test_one_pass_takes_zero_velocity_and_names_a_failing_point(monkeypatch):
    # v = 0 gives 0, as dissipation_general does, and adds no integral to the k_x
    # pass; at T = 0, where every point takes the pass (at finite T the force series
    # takes these slow points, with no k_x pass)
    zero, one = general_forces(GOLD, GOLD, COLD, [0.0, 1.0], [PLATE.d] * 2)
    assert zero.force_per_area == 0.0 and zero.diagnostics.quadrature_rel_err == 0.0
    assert [one] == general_forces(GOLD, GOLD, COLD, [1.0], [PLATE.d])
    assert general_forces(GOLD, GOLD, COLD, [], []) == []
    with pytest.raises(DomainError):
        general_forces(GOLD, GOLD, COLD, [1.0, -1.0], [PLATE.d] * 2)
    # a gap that is not finite and > 0 is named, also at v = 0
    for gap in (0.0, -PLATE.d, math.nan, math.inf):
        for speed in (1.0, 0.0):
            with pytest.raises(DomainError, match=f"gap d must be finite and > 0, got {gap!r}"):
                general_forces(GOLD, GOLD, COLD, [1.0, speed], [PLATE.d, gap])
    with pytest.raises(ValueError, match="one gap per velocity"):
        general_forces(GOLD, GOLD, COLD, [1.0, 2.0], [PLATE.d])
    # the point whose integral fails is named by its place among the points: point 2
    # is row 1 of the pass, which takes the points with v > 0
    monkeypatch.setattr(friction, "integrate_semi_infinite", kx_integrand_failing_at(1))
    with pytest.raises(NonConvergence, match="k_x integral") as err:
        general_forces(GOLD, GOLD, COLD, [0.0, 1.0, 1.0, 1.0],
                       [PLATE.d, PLATE.d, 2.0 * PLATE.d, 3.0 * PLATE.d])
    assert err.value.level == "k_x" and err.value.index == 2


SIGMA = GOLD.omega_p**2 / GOLD.nu
VELOCITY_TAKERS = {
    "force_linear": lambda v: force_linear(GOLD, PLATE, ROOM, v),
    "force_zero_t": lambda v: force_zero_t(GOLD, PLATE, v),
    "force_plasmon": lambda v: force_plasmon(GOLD.omega_sp, PLATE, v),
    "forces": lambda v: general_forces(GOLD, GOLD, ROOM, [1.0, v], [PLATE.d] * 2),
    "dissipation_general": lambda v: dissipation_general(GOLD, GOLD, PLATE, ROOM, v),
    "pendry_force": lambda v: pendry_force(SIGMA, PLATE.d, v),
}
#: (call, bad argument, message): each call raises DomainError naming the argument
OUT_OF_DOMAIN = {
    **{f"{name}-v={v}": (call, v, "velocity must be finite and >= 0")
       for name, call in VELOCITY_TAKERS.items() for v in (math.nan, math.inf, -math.inf)},
    "pendry_force-v=-1.0": (VELOCITY_TAKERS["pendry_force"], -1.0,
                            "velocity must be finite and >= 0"),
    **{f"phi-omega={w}": (lambda w: im_r_dissipation_integral(np.array([1e13, w]), GOLD, GOLD,
                                                              ROOM), w, "Phi needs a finite omega")
       for w in (math.nan, math.inf, -math.inf)},
    **{f"pendry_force-sigma={x}": (lambda x: pendry_force(x, PLATE.d, 1.0), x,
                                   "sigma/eps0 must be finite and > 0")
       for x in (math.nan, math.inf, 0.0, -SIGMA)},
    **{f"pendry_force-d={x}": (lambda x: pendry_force(SIGMA, x, 1.0), x,
                               "gap d must be finite and > 0")
       for x in (math.nan, math.inf, 0.0, -PLATE.d)},
}


@pytest.mark.parametrize("case", OUT_OF_DOMAIN)
def test_non_finite_or_negative_inputs_raise_domain_error(case):
    # a NaN velocity once gave a NaN force, an infinite one an infinite force,
    # a bare ValueError or a FloatFailure; pendry_force took any float
    call, bad, message = OUT_OF_DOMAIN[case]
    with pytest.raises(DomainError, match=re.escape(f"{message}, got {bad}")):
        call(bad)


#: The exceptions by which a public function refuses an input it cannot take.
DOCUMENTED = (DomainError, TypeError, NonConvergence, FloatFailure, SingularResponse)


def out_of_domain_or(lo_exp: float, hi_exp: float):
    """A non-finite, zero or negative float, or one from 10^lo_exp to 10^hi_exp or of any decade."""
    return st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, -1e300]),
                     decades(lo_exp, hi_exp))


def decades(lo_exp: float, hi_exp: float):
    """A float from 10^lo_exp to 10^hi_exp, or from any decade of the normal floats."""
    return st.one_of(st.floats(lo_exp, hi_exp), st.floats(-300.0, 300.0)).map(lambda e: 10.0**e)


#: Materials around the physical range, lossless, without plasma, overdamped or tabulated.
MATERIALS = st.one_of(
    st.sampled_from([Drude(omega_p=GOLD.omega_p), Drude(omega_p=0.0, nu=GOLD.nu),
                     Drude(omega_p=GOLD.omega_p, nu=20.0 * EV),
                     tabulated_gold(np.logspace(12.0, 17.0, 6))]),
    st.builds(Drude, omega_p=decades(12.0, 18.0), nu=decades(9.0, 17.0)),
)
THERMALS = st.one_of(st.just(COLD), decades(-2.0, 4.0).map(ThermalState.finite))
PLATES = decades(-10.0, -5.0).map(lambda d: PlateConfig(d=d))

def results(rs, material, velocities):
    """(force, flags, must a 0 be flagged) of results at these velocities on ``material``.

    A 0 at v > 0 must carry a flag on a Drude plate with omega_p > 0 (a
    plasmon line is one, given by its omega_sp): the flag of a lossless
    plate or of an underflow, also where a general force's Phi is below
    the normal floats (omega_p = 1e12 rad/s, nu = 1e186 rad/s at T = 0).
    """
    drude = material is None or (isinstance(material, Drude) and material.omega_p > 0)
    return [(r.force_per_area, r.diagnostics.validity_flags, drude and v > 0)
            for r, v in zip(rs, velocities)]


def report_forces(m, c, t, v):
    """The forces of a consistency report, which passes its checks whenever it returns."""
    report = consistency_report(m, c, t, v)
    assert report["all_passed"], report
    return [(f, report["validity_flags"], False) for k, f in report.items() if k.startswith("F_")]


#: Each public function, as a strategy of (a call that returns its forces as `results`
#: does, may it raise a bare ValueError).
PUBLIC_CALLS = {
    "force_linear": st.builds(
        lambda m, c, t, v: (lambda: results([force_linear(m, c, t, v)], m, [v]), False),
        MATERIALS, PLATES, THERMALS, out_of_domain_or(-1.0, 8.0)),
    "force_zero_t": st.builds(
        lambda m, c, v: (lambda: results([force_zero_t(m, c, v)], m, [v]), False),
        MATERIALS, PLATES, out_of_domain_or(-1.0, 8.0)),
    "force_plasmon": st.builds(
        lambda w, c, v: (lambda: results([force_plasmon(w, c, v)], None, [v]), False),
        out_of_domain_or(13.0, 17.0), PLATES, out_of_domain_or(-1.0, 8.0)),
    "dissipation_general": st.builds(
        lambda m, c, t, v: (lambda: results([dissipation_general(m, m, c, t, v)], m, [v]),
                            False),
        MATERIALS, PLATES, THERMALS, out_of_domain_or(-1.0, 8.0)),
    "general_forces": st.builds(
        lambda m, t, points: (lambda: results(general_forces(m, m, t, *zip(*points)), m,
                                              [v for v, _ in points]), False),
        MATERIALS, THERMALS,
        st.lists(st.tuples(out_of_domain_or(-1.0, 8.0), out_of_domain_or(-10.0, -6.0)),
                 min_size=1, max_size=3)),
    # Pendry's bare formula carries no flags: its 0 below the normal floats is documented
    "pendry_force": st.builds(lambda x, d, v: (lambda: [(pendry_force(x, d, v), [], False)], False),
                              out_of_domain_or(15.0, 19.0), out_of_domain_or(-10.0, -6.0),
                              out_of_domain_or(-1.0, 8.0)),
    # its ValueError says that the Drude mapping needs omega_p > 0 and nu > 0
    "consistency_report": st.builds(
        lambda m, c, t, v: (lambda: report_forces(m, c, t, v), True),
        MATERIALS, PLATES, THERMALS, out_of_domain_or(-1.0, 8.0)),
}


@pytest.mark.parametrize("name", PUBLIC_CALLS)
def test_public_functions_give_a_finite_force_or_a_documented_error(name):
    # a library caller that passes a non-finite, zero or negative float gets no
    # NaN, no infinity and no bare ValueError, ZeroDivisionError or OverflowError;
    # a 0 that stands for a force is flagged, and a consistency report that
    # returns passes its checks
    @settings(derandomize=True, deadline=None, max_examples=50, database=None)
    @given(case=PUBLIC_CALLS[name])
    def check(case):
        call, value_error_documented = case
        try:
            forces = call()
        except DOCUMENTED:
            return
        except ValueError as exc:
            if type(exc) is ValueError and value_error_documented:
                assert str(exc) == "Drude mapping requires omega_p > 0 and nu > 0"
                return
            raise
        assert all(math.isfinite(f) for f, _, _ in forces), forces
        assert all(f or flags or not must_flag for f, flags, must_flag in forces), forces

    check()


#: Finite arguments whose closed form once returned an infinite force or raised a
#: bare ZeroDivisionError or OverflowError: (call, the force if it is finite, else None).
EXTREME_CLOSED_FORMS = {
    "force_linear": (lambda: force_linear(Drude(omega_p=5.96e-08, nu=60.0), PlateConfig(d=5.96e-08),
                                          ThermalState.finite(1.0), 3.44e266).force_per_area, None),
    "force_zero_t": (lambda: force_zero_t(Drude(omega_p=1.4e-45, nu=1e-12), PlateConfig(d=1.4e-45),
                                          1.0).force_per_area, None),
    # x = 4 omega_sp d / v is 1e-38: F = hbar omega_sp kx^3 K1(x) / (8 pi), kx = 2 omega_sp / v = 2
    "force_plasmon": (lambda: force_plasmon(6.18e-198, PlateConfig(d=2.6e-39), 6.18e-198)
                      .force_per_area,
                      CONST.hbar * 6.18e-198 / (8.0 * math.pi) * 8.0 / (4.0 * 2.6e-39)),
    # 5 hbar v^3 / (2^8 pi^2 sigma^2 d^6) = 5 hbar / (2^8 pi^2) * 7e-114^-5 overflows
    "pendry-tiny": (lambda: pendry_force(7e-114, 7e-114, 7e-114), None),
    # ... and here is 5 hbar / (2^8 pi^2) * 6.9e254^-5, below the least float
    "pendry-huge": (lambda: pendry_force(6.9e254, 6.9e254, 6.9e254), 0.0),
}


@pytest.mark.parametrize("case", EXTREME_CLOSED_FORMS)
def test_closed_forms_at_extreme_arguments_give_their_force_or_float_failure(case):
    call, expected = EXTREME_CLOSED_FORMS[case]
    if expected is None:
        with pytest.raises(FloatFailure):
            call()
    else:
        assert call() == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("thermal", [COLD, ROOM], ids=["cold", "room"])
def test_wide_general_sweep_meets_its_tolerance_at_every_row(thermal):
    # a Phi table refined only for kernel scales a decade apart once left the rows
    # between them up to 30 times outside rel_tol (3.0e-5 at T = 0, 8.0e-6 at
    # 300 K, with omega_sp and 2 omega_sp in the band); each row's k_x integral
    # holds rel_tol with Phi's share in it
    speeds = np.logspace(-1.0, 8.0, 33).tolist()
    rows = general_forces(GOLD, GOLD, thermal, speeds, [PLATE.d] * len(speeds))
    errors = [row.diagnostics.quadrature_rel_err for row in rows]
    assert 0.0 < max(errors) <= NESTED_SPEC.rel_tol


def test_a_normal_product_never_formats_its_quantity(monkeypatch):
    # `_force` names its result only in an underflow flag or a FloatFailure, so a
    # result in the normal floats never calls its quantity, at any of the products:
    # the closed forms, both sources of the general force and `compare`'s
    from casimir_friction import compare

    def unread():
        pytest.fail("a product in the normal floats formatted its quantity")

    real = friction._force

    def strict(flags, level, quantity, *operands):
        return real(flags, level, unread, *operands)

    monkeypatch.setattr(friction, "_force", strict)
    monkeypatch.setattr(compare, "_force", strict)
    force_linear(GOLD, PLATE, ROOM, 1.0)
    force_zero_t(GOLD, PLATE, 1.0)
    force_plasmon(GOLD.omega_sp, PLATE, 1e6)
    # 1 m/s is a force-series point, 1e6 m/s a k_x point
    assert all(r.force_per_area > 0 for r in general_forces(GOLD, GOLD, ROOM, [1.0, 1e6],
                                                             [PLATE.d] * 2))
    pendry_force(SIGMA, PLATE.d, 1.0)
    compare.linear_cubic_ratio(PLATE.d, ROOM, 1.0)
    # below and past the normal floats, the quantity names the result
    flags = []
    assert real(flags, "k_x", lambda: "q", (2.0**-1000, 2.0**-100)) == 0.0
    assert flags == ["underflow: q is below the normal floats; reported as 0"]
    with pytest.raises(FloatFailure, match=r"^q is not finite$"):
        real(flags, "k_x", lambda: "q", (2.0**1000, 2.0**100))


def ky_integral(kx: float, d: float) -> float:
    """Int_0^inf exp(-2 d sqrt(kx^2 + ky^2)) dky = kx K1(2 d kx), from the general force's kernel.

    `_kernel` gives x^2 K1(x), here at x = 2 d kx as `force_plasmon` rounds it.
    """
    x = 2.0 * d * kx
    return float(_kernel(np.array([x]))[0]) / (2.0 * d * x)


@pytest.mark.parametrize("x", [1e-3, 1e-2, 0.1, 1.0, 5.0, 20.0, 50.0])
def test_ky_integral_matches_quadrature(x):
    # the kernel x^2 K1(x) by which the general force weighs Phi is the closed
    # form of the k_y integral
    d = PLATE.d
    kx = x / (2.0 * d)

    def f(ky):
        return math.exp(-2.0 * d * math.hypot(kx, ky))

    value, _ = oracles.quad_semi_infinite(f, 0.0, 0.5 / d, ORACLE)
    assert ky_integral(kx, d) == pytest.approx(value, rel=1e-10)


def test_scalar_k1e_matches_scipy():
    # the plasmon line's plain-Python K1(x) e^x, over every x its force evaluates
    for x in np.logspace(-8.0, math.log10(1500.0), 1001):
        assert _k1e(float(x)) == pytest.approx(float(k1e(x)), rel=1e-13, abs=0.0)


def test_array_k1e_matches_scipy():
    # the general force's numpy x K1(x) e^x, from far below its first panel to
    # past the kernels' reach
    x = np.logspace(-16.0, 3.0, 4001)
    np.testing.assert_allclose(_xk1e_array(x), x * k1e(x), rtol=1e-14, atol=0.0)


def test_array_k1e_matches_the_scalar_sum():
    # the two K1 of the package: the numpy fit of x K1(x) e^x and the plain-Python
    # trapezoid sum it was fitted to; the fit keeps the shape of its argument
    x = np.logspace(-8.0, math.log10(700.0), 1001)
    np.testing.assert_allclose(_xk1e_array(x), [v * _k1e(float(v)) for v in x],
                               rtol=1e-14, atol=0.0)
    assert np.array_equal(_xk1e_array(x[:1000].reshape(40, 25)),
                          _xk1e_array(x[:1000]).reshape(40, 25))


def test_ky_integral_is_zero_past_underflow():
    # e^-x underflows past x = 745: there the kernel x^2 K1(x) is exactly 0, and
    # no warning is raised (any warning fails the suite)
    x = np.array([745.2, 800.0, 1097.0, 1e4, 1e8, 1e300])
    assert np.all(_kernel(x) == 0.0)
    assert np.all(_kernel(np.array([1e-3, 1.0, 700.0])) > 0.0)


def test_plasmon_matches_the_array_ky_integral():
    # force_plasmon sums K1 in plain Python; the general force's kernel
    # (`_kernel`) takes the package's numpy K1 on arrays: the two agree
    # across the unsuppressed range
    wsp = GOLD.omega_sp
    for gap_nm in (0.1, 1.0, 10.0):
        plate = PlateConfig(d=gap_nm * CONST.nm)
        for x in np.logspace(-6.0, math.log10(699.0), 60):
            v = 4.0 * wsp * plate.d / float(x)
            kx = 2.0 * wsp / v
            expected = (CONST.hbar * wsp**3 / (2.0 * math.pi * v * v)
                        * ky_integral(kx, plate.d))
            assert force_plasmon(wsp, plate, v).force_per_area == pytest.approx(
                expected, rel=1e-13, abs=0.0)


def test_plasmon_matches_bessel_oracle():
    wsp = GOLD.omega_sp
    d = 0.1 * CONST.nm
    for v in (1e5, 3e5, 1e6):
        res = force_plasmon(wsp, PlateConfig(d=d, rho1=1e28, rho2=1e28), v)
        x = 4.0 * wsp * d / v
        oracle = plasmon_t_quadrature(wsp, d, v)
        assert res.regime == PLASMON_LINE
        assert res.force_per_area == pytest.approx(oracle, rel=1e-8)
        assert res.diagnostics.suppression_exponent == pytest.approx(x, rel=1e-14)


def test_plasmon_is_delta_line_case_of_omega_integral():
    # at T = 0, Phi = 2 x (line (x) line) = 2 weight delta(omega - support),
    # put through F = hbar/(2 pi^3 v^3) Int omega^2 K1(2 d omega / v) Phi d omega
    line = oracles.delta_lines(GOLD.omega_sp)
    weight, support = oracles.convolution(0.0, line, line)
    d = 0.1 * CONST.nm
    plate = PlateConfig(d=d, rho1=1e28, rho2=1e28)
    for v in (1e5, 1e6, 1e7):
        expected = (
            CONST.hbar / (2.0 * math.pi**3 * v**3)
            * support**2 * k1(2.0 * d * support / v) * 2.0 * weight
        )
        assert force_plasmon(GOLD.omega_sp, plate, v).force_per_area == pytest.approx(
            expected, rel=1e-14
        )


def test_plasmon_underflow_flag():
    plate = PlateConfig(d=10.0 * CONST.nm, rho1=1e28, rho2=1e28)
    res = force_plasmon(GOLD.omega_sp, plate, 1.0)  # enormous exponent
    assert res.force_per_area == 0.0
    assert any("underflow" in f for f in res.diagnostics.validity_flags)
    assert res.diagnostics.suppression_exponent > 700.0


def test_plasmon_force_above_x_700_is_its_product_of_factors():
    # the force at x = 4 omega_sp d / v > 700 is a normal float: e^-x enters its one
    # product as two factors e^(-x/2), where a cut at x = 700 reported a flagged 0
    wsp, d = GOLD.omega_sp, PLATE.d

    def at(x):
        v = 4.0 * wsp * d / x
        reference = (CONST.hbar * wsp**4 / (math.pi * v**3) * k1e(x) * math.exp(-0.5 * x)
                     * math.exp(-0.5 * x))
        return force_plasmon(wsp, PLATE, v), reference

    for x in (700.5, 720.0):
        res, reference = at(x)
        assert res.force_per_area == pytest.approx(reference, rel=1e-12)
        assert res.force_per_area >= sys.float_info.min and not res.diagnostics.validity_flags
    assert at(720.0)[0].force_per_area == pytest.approx(1.7976e-302, rel=1e-4)
    # below x = 700 the force moves only in its last digits
    res, reference = at(690.0)
    assert res.force_per_area == pytest.approx(1.7271659579675303e-289, rel=1e-14)
    assert res.force_per_area == pytest.approx(reference, rel=1e-12)


def test_plasmon_exponent_vanishes_at_large_v():
    plate = PlateConfig(d=0.1 * CONST.nm, rho1=1e28, rho2=1e28)
    wsp = GOLD.omega_sp
    res_fast = force_plasmon(wsp, plate, 1e9)
    assert res_fast.diagnostics.suppression_exponent < 1e-2
    # without the exponential cutoff the scaled force K1(x) grows as x -> 0
    scaled = [
        force_plasmon(wsp, plate, v).force_per_area * v**3
        for v in (1e7, 1e8, 1e9)
    ]
    assert scaled[0] < scaled[1] < scaled[2]


def test_general_pipeline_reaches_plasmon_line_limit():
    # at sub-nm gap and high velocity the resonance dominates: the full
    # Drude pipeline should approach the delta-line result (nu/w_sp ~ 0.6%)
    plate = PlateConfig(d=0.1 * CONST.nm, rho1=1e28, rho2=1e28)
    v = 1e6
    general = dissipation_general(GOLD, GOLD, plate, COLD, v).force_per_area
    line = force_plasmon(GOLD.omega_sp, plate, v).force_per_area
    assert general == pytest.approx(line, rel=0.02)
    # and it dwarfs the small-m extrapolation by orders of magnitude there
    assert general > 100.0 * force_zero_t(GOLD, plate, v).force_per_area


@pytest.mark.parametrize("gap_nm,v,slope", [(0.1, 1e6, -3.40e-3), (10.0, 3e7, 7.86e-2)])
def test_general_force_converges_to_plasmon_line_at_first_order_in_nu(gap_nm, v, slope):
    # general/line - 1 = slope * (nu / 0.035 eV) + O(nu^2) at T = 0: the slope moves by
    # under 1 % from one decade of nu to the next (the O(nu^2) term moves the widest
    # line's by 1.0 % at 10 nm) and settles at its limit
    plate = PlateConfig(d=gap_nm * CONST.nm)
    widths = [0.035, 3.5e-3, 3.5e-4, 3.5e-5]  # eV; by 3.5e-6 the 1e-6 rtol moves it by 3 %
    slopes = []
    for nu in widths:
        metal = Drude(omega_p=GOLD.omega_p, nu=nu * CONST.eV / CONST.hbar)
        general = dissipation_general(metal, metal, plate, COLD, v).force_per_area
        line = force_plasmon(metal.omega_sp, plate, v).force_per_area
        slopes.append((general / line - 1.0) / (nu / 0.035))
    for wide, narrow in zip(slopes, slopes[1:]):
        assert wide == pytest.approx(narrow, rel=0.01)
    assert slopes[-1] == pytest.approx(slope, rel=0.01)


def test_plasmon_order_of_magnitude_velocity():
    # v solving 4 w_sp d / v = 1 at hbar w_p = 9 eV, d = 0.1 nm
    v_star = 4.0 * GOLD.omega_sp * 0.1 * CONST.nm
    assert v_star == pytest.approx(3.867e6, rel=1e-3)
    assert 0.5 < v_star / 2.4e6 < 2.0
