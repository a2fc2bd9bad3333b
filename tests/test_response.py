import itertools
import json
import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import trapezoid
from scipy.special import digamma, zeta

from casimir_friction import _phi0, numerics, response
from casimir_friction.numerics import (
    CONST,
    DEFAULT_SPEC,
    DomainError,
    FloatFailure,
    NonConvergence,
    QuadratureSpec,
)
from casimir_friction.material import Drude, SingularResponse, Tabulated, surface_response
from casimir_friction.response import (
    ThermalState,
    im_r_dissipation_integral,
    phi_slope,
)
import oracles
from oracles import phi, response_coeffs

GOLD_LIKE = Drude(omega_p=1e16, nu=1e14)
GOLD = Drude(omega_p=9.0 * CONST.eV / CONST.hbar, nu=0.035 * CONST.eV / CONST.hbar)
RHO = 1e28
TIGHT = QuadratureSpec(rel_tol=1e-12)
ROOM = ThermalState.finite(300.0)
COLD = ThermalState.zero()


def test_thermal_state():
    assert ROOM.beta == pytest.approx(1.0 / (CONST.k_B * 300.0))
    assert COLD.is_zero and math.isinf(COLD.beta)
    with pytest.raises(ValueError):
        ThermalState.finite(0.0)


@pytest.mark.parametrize("thermal", [ROOM, COLD], ids=["300K", "T=0"])
def test_phi_refuses_a_tabulated_plate(thermal):
    # Phi needs Im R on all of (0, omega): no table reaches omega = 0
    table = Tabulated(omega=np.array([1e-30, 1e17]), eps=np.array([-1e6 - 1e5j, 0.5 - 0.1j]))
    for plates in ((table, table), (GOLD, table), (table, GOLD)):
        with pytest.raises(TypeError, match="requires Drude plates"):
            im_r_dissipation_integral(np.array([1e13, 1e15]), *plates, thermal)


def test_phi_causality_and_zero_time():
    args = (1e15, 1.3e15, 1e-30, 2e-30)
    assert phi(-1e-16, *args, ROOM) == 0.0
    assert phi(0.0, *args, ROOM) == 0.0


def test_phi_zero_t_equal_frequencies():
    w, a = 9e14, 1.5e-30
    c = response_coeffs(w, w, a, a, COLD)
    assert c.C_minus == 0.0
    assert c.C_plus == pytest.approx(0.5 * CONST.hbar * w * w * a * a, rel=1e-14)
    assert c.H == 0.0
    assert c.omega_minus == 0.0
    assert c.omega_plus == 2.0 * w


def test_response_coeffs_match_sinh_form():
    # C_pm = (H/hbar) sinh(beta hbar w_pm / 2) with
    # H = hbar^2 w1 w2 a1 a2 / (4 sinh(b1) sinh(b2)), at moderate arguments
    w1, w2, a1, a2 = 3e13, 7e13, 1e-30, 2e-30
    c = response_coeffs(w1, w2, a1, a2, ROOM)
    b1 = 0.5 * ROOM.beta * CONST.hbar * w1
    b2 = 0.5 * ROOM.beta * CONST.hbar * w2
    h = CONST.hbar**2 * w1 * w2 * a1 * a2 / (4.0 * math.sinh(b1) * math.sinh(b2))
    assert c.H == pytest.approx(h, rel=1e-12)
    assert c.C_plus == pytest.approx(h / CONST.hbar * math.sinh(b1 + b2), rel=1e-12)
    assert c.C_minus == pytest.approx(h / CONST.hbar * math.sinh(abs(b1 - b2)), rel=1e-10)
    assert c.omega_plus >= c.omega_minus >= 0.0


def test_difference_amplitude_degenerate_pair_limit():
    # the linear channel's delta coefficient: C_-/omega_- -> H*beta/2 as
    # omega_2 -> omega_1, so the pair dissipates as H pi beta tau omega_v^2
    w, a = 5e13, 1e-30
    for eps in (1e-6, 1e-8, 1e-10):
        c = response_coeffs(w, w * (1.0 + eps), a, a, ROOM)
        assert c.C_minus / c.omega_minus == pytest.approx(
            0.5 * c.H * ROOM.beta, rel=1e-5
        )


def test_phi_is_sum_of_sines():
    w1, w2, a1, a2 = 3e13, 7e13, 1e-30, 2e-30
    c = response_coeffs(w1, w2, a1, a2, ROOM)
    t = 3.3e-14
    expected = c.C_minus * math.sin(c.omega_minus * t) + c.C_plus * math.sin(c.omega_plus * t)
    assert phi(t, w1, w2, a1, a2, ROOM) == pytest.approx(expected, rel=1e-14)


def test_h0_drude_closed_form():
    # the oracle's H0 quadrature over two linear heads D m against
    # (2 pi hbar / beta^2) D^2 (pi^2/3), from Int x^2/sinh^2(x/2) dx = 4 pi^2/3
    slope = oracles.drude_slope(GOLD_LIKE, RHO)
    head = lambda m: slope * m
    h0 = oracles.h0(head, head, ROOM, TIGHT)
    expected = 2.0 * math.pi * CONST.hbar / ROOM.beta**2 * slope**2 * math.pi**2 / 3.0
    assert h0 == pytest.approx(expected, rel=1e-12)


def test_h0_quadrature_matches_trapezoid_oracle():
    # Phi_1 = beta hbar Int Im R^2 / sinh^2(beta hbar w/2) dw by `phi_slope`
    # against a dense trapezoid over the thermal window
    beta_hbar = ROOM.beta * CONST.hbar
    w0 = 2.0 / beta_hbar
    amp = 1e-3 / w0

    def im_r(w):
        return -amp * w * np.exp(-w / w0)

    value, err = phi_slope(im_r, im_r, ROOM)
    w = np.linspace(1e-9 / beta_hbar, 60.0 / beta_hbar, 200001)
    x = 0.5 * beta_hbar * w
    integrand = (amp * w * np.exp(-w / w0)) ** 2 * 4.0 * np.exp(-2 * x) / np.expm1(-2 * x) ** 2
    oracle = beta_hbar * trapezoid(integrand, w)
    assert value == pytest.approx(oracle, rel=1e-6)
    assert 0.0 < err <= 1e-9 * value


def test_h0_vanishes_at_low_temperature():
    # Phi_1 ~ T^2 for a linear head, and the linear channel closes at T = 0
    im_r = lambda w: -GOLD_LIKE.nu * w / GOLD_LIKE.omega_sp**2
    values = [
        phi_slope(im_r, im_r, ThermalState.finite(t))[0] for t in (300.0, 30.0, 3.0, 0.3)
    ]
    for a, b in zip(values, values[1:]):
        assert b < a
    assert values[-1] / values[0] == pytest.approx(1e-6, rel=1e-8)
    assert phi_slope(im_r, im_r, COLD) == (0.0, 0.0)


def test_j_linear_basics():
    # the linear J = 2 tau omega_v^2 H0 of the oscillator chain equals
    # pi tau omega_v^2 hbar Phi_1 / ((2 pi^2)^2 rho1 rho2): rho cancels,
    # also for unequal densities
    im_r = lambda w: surface_response(GOLD_LIKE, w).imag
    phi1, _ = phi_slope(im_r, im_r, ROOM, spec=TIGHT)
    tau, wv = 1.0, 1e9
    for rho1, rho2 in ((RHO, RHO), (7e26, 4e29)):
        s1 = oracles.density(GOLD_LIKE, rho1)
        s2 = oracles.density(GOLD_LIKE, rho2)
        j_lin = 2.0 * tau * wv**2 * oracles.h0(s1, s2, ROOM, TIGHT)
        j_phi = math.pi * tau * wv**2 * CONST.hbar * phi1 / (4.0 * math.pi**4 * rho1 * rho2)
        assert j_lin == pytest.approx(j_phi, rel=1e-9)


def test_j_zero_t_drude_quartic():
    # two equal linear heads: J = (pi/3) tau hbar^3 D^2 omega_v^4
    slope = oracles.drude_slope(GOLD_LIKE, RHO)
    head = lambda m: slope * m
    tau = 2.0
    wv = 0.005 * GOLD_LIKE.omega_sp
    expected = math.pi / 3.0 * tau * CONST.hbar**3 * slope**2 * wv**4
    assert oracles.j_zero_t(wv, head, head, tau) == pytest.approx(expected, rel=1e-10)
    assert oracles.j_zero_t(0.0, head, head, tau) == 0.0
    assert oracles.j_zero_t(-wv, head, head, tau) == oracles.j_zero_t(wv, head, head, tau)


def test_j_zero_t_asymmetric_riemann_oracle():
    hbar = CONST.hbar
    a, b = 2e-13, 5e-13
    m0 = 1e-20

    s1 = lambda m: a * m
    s2 = lambda m: b * m * m / (m0 + m)
    tau, wv = 1.5, 5e13
    j = oracles.j_zero_t(wv, s1, s2, tau)

    # dense midpoint-rule convolution oracle
    n = 400000
    w1 = (np.arange(n) + 0.5) * (wv / n)
    w2 = wv - w1
    vals = (a * hbar * w1) * (b * (hbar * w2) ** 2 / (m0 + hbar * w2))
    oracle = 2.0 * math.pi * tau * wv * hbar * np.sum(vals) * (wv / n)
    assert j == pytest.approx(oracle, rel=1e-6)


def test_j_zero_t_positive_for_passive_spectra():
    sd = oracles.density(GOLD_LIKE, RHO)
    for wv in np.logspace(12, 15, 7):
        assert oracles.j_zero_t(float(wv), sd, sd, 1.0) >= 0.0


def test_convolution_delta_lines():
    line = oracles.delta_lines(7e15)
    weight, support = oracles.convolution(1.5e16, line, line)
    assert support == pytest.approx(1.4e16)
    assert weight == pytest.approx((0.5 * math.pi * 7e15) ** 2, rel=1e-14)
    with pytest.raises(TypeError):
        oracles.convolution(1e15, line, lambda w: surface_response(GOLD_LIKE, w))


def test_convolution_trivial_zero_and_even():
    R = lambda w: surface_response(GOLD_LIKE, w)
    assert oracles.convolution(0.0, R, R) == 0.0
    assert oracles.convolution(-2e14, R, R) == oracles.convolution(2e14, R, R)


def test_path_equivalence_spectral_vs_response():
    # same full Drude response through the two code paths, equal media
    sd = oracles.density(GOLD_LIKE, RHO)
    R = lambda w: surface_response(GOLD_LIKE, w)
    tau = 1.0
    for wv in (1e13, 1e14, 5e14):
        j_spectral = oracles.j_zero_t(wv, sd, sd, tau)
        conv = oracles.convolution(wv, R, R)
        j_response = (
            2.0 * math.pi * tau * wv * CONST.hbar
            * (1.0 / (2.0 * math.pi**2 * RHO)) ** 2 * conv
        )
        assert j_spectral == pytest.approx(j_response, rel=1e-8)


def test_small_m_head_consistent_with_full_convolution():
    # linear-head quartic vs full-response convolution at small omega_v
    slope = oracles.drude_slope(GOLD_LIKE, RHO)
    head = lambda m: slope * m
    R = lambda w: surface_response(GOLD_LIKE, w)
    tau = 1.0
    wv = 0.01 * GOLD_LIKE.omega_sp
    j_head = oracles.j_zero_t(wv, head, head, tau)
    conv = oracles.convolution(wv, R, R)
    j_full = (
        2.0 * math.pi * tau * wv * CONST.hbar
        * (1.0 / (2.0 * math.pi**2 * RHO)) ** 2 * conv
    )
    assert j_full == pytest.approx(j_head, rel=5e-3)


def dissipation(omega_v, thermal, material=GOLD_LIKE, spec=DEFAULT_SPEC):
    """Phi of equal plates, without its error estimate."""
    return im_r_dissipation_integral(omega_v, material, material, thermal, spec)[0]


def test_im_r_dissipation_zero_t_is_doubled_convolution():
    R = lambda w: surface_response(GOLD_LIKE, w)
    wv = 2e14
    conv = oracles.convolution(wv, R, R)
    assert dissipation(wv, COLD) == pytest.approx(2.0 * conv, rel=1e-12)
    assert dissipation(0.0, ROOM) == 0.0
    assert dissipation(-wv, COLD) == pytest.approx(dissipation(wv, COLD))


def test_im_r_dissipation_small_v_limit_is_linear_channel():
    # pi tau wv hbar (1/2pi^2 rho)^2 Phi(wv) == J_linear = 2 tau wv^2 H0
    sd = oracles.density(GOLD_LIKE, RHO)
    tau = 1.0
    wv = 1e8  # deep linear regime
    spec = QuadratureSpec(rel_tol=1e-9)
    val = dissipation(wv, ROOM, spec=spec)
    j_from_phi = math.pi * tau * wv * CONST.hbar * (1.0 / (2.0 * math.pi**2 * RHO)) ** 2 * val
    j_lin = 2.0 * tau * wv**2 * oracles.h0(sd, sd, ROOM, spec)
    assert j_from_phi == pytest.approx(j_lin, rel=5e-3)


def test_phi_slope_is_small_omega_limit_at_finite_t():
    # Phi(omega)/omega -> Phi_1 = beta hbar Int Im R^2 / sinh^2(beta hbar w/2) dw
    im_r = lambda w: surface_response(GOLD, w).imag
    phi1, err = phi_slope(im_r, im_r, ROOM)
    wv = 1e6
    assert dissipation(wv, ROOM, GOLD) / wv == pytest.approx(phi1, rel=1e-10)
    assert err <= 1e-9 * phi1
    # the Drude head's closed form 4 pi^2 nu^2 / (3 beta^2 hbar^2 omega_sp^4),
    # off by the curvature of Im R over the thermal window (5.2e-4 at 300 K)
    head = 4.0 * math.pi**2 * GOLD.nu**2 / (3.0 * (ROOM.beta * CONST.hbar * GOLD.omega_sp**2) ** 2)
    assert phi1 == pytest.approx(head, rel=1e-3)


def test_phi_cubic_coefficient_is_small_omega_limit_at_zero_t():
    # Phi(omega)/omega^3 -> Phi_3 = nu^2 / (3 omega_sp^4)
    phi3 = GOLD.nu**2 / (3.0 * GOLD.omega_sp**4)
    wv = 1e10
    assert dissipation(wv, COLD, GOLD) / wv**3 == pytest.approx(phi3, rel=1e-10)


def test_im_r_dissipation_positive_and_monotone_in_t():
    wv = 5e13
    vals = [dissipation(wv, ThermalState.finite(t)) for t in (600.0, 300.0, 100.0, 30.0)]
    cold = dissipation(wv, COLD)
    assert all(v > 0 for v in vals)
    for hotter, colder in zip(vals, vals[1:]):
        assert hotter > colder
    assert vals[-1] > cold > 0


def test_phi_with_a_breakpoint_within_an_ulp_of_omega():
    # nu = omega_sp / 2 puts the sum channel's graded breakpoint
    # omega - omega_sp + 2 nu within an ulp of omega: a segment that narrow put
    # a node on u = omega, where Im R(omega - u) was asked for at 0
    m = Drude(omega_p=1e16 * math.sqrt(2.0), nu=5e15)
    omega = 2712272579332.027
    phi, err = im_r_dissipation_integral(omega, m, m, ROOM)
    assert math.isfinite(phi) and 0.0 < err <= 1e-12 * phi
    below, _ = im_r_dissipation_integral(omega * (1.0 - 1e-9), m, m, ROOM)
    above, _ = im_r_dissipation_integral(omega * (1.0 + 1e-9), m, m, ROOM)
    assert phi == pytest.approx(0.5 * (below + above), rel=1e-12)


def test_phi_over_an_array_is_phi_at_each_element():
    # one rule for all omegas at once, and the closed form at those of its window (at
    # the 1e-9 of a force's table, 1.5 and 3 omega_sp): each value and error is
    # bitwise the scalar call's
    omegas = np.array([[1e8, 3e13, 1.5 * GOLD.omega_sp],
                       [GOLD.omega_sp, 2.0 * GOLD.omega_sp + 1e12, 3.0 * GOLD.omega_sp]])
    silver = Drude(omega_p=1.4e16, nu=3e13)
    for spec, thermal, other in itertools.product((DEFAULT_SPEC, QuadratureSpec(rel_tol=1e-6)),
                                                  (ROOM, COLD), (GOLD, silver)):
        phi, err = im_r_dissipation_integral(omegas, GOLD, other, thermal, spec)
        assert phi.shape == err.shape == omegas.shape
        for w, p, e in zip(omegas.flat, phi.flat, err.flat):
            assert im_r_dissipation_integral(float(w), GOLD, other, thermal, spec) == (p, e)


def test_phi_of_unequal_plates():
    # the sum channel grades toward both resonances: at T = 0 it is twice the
    # oracle's convolution, and Phi is symmetric in the two plates
    silver = Drude(omega_p=1.4e16, nu=3e13)
    wv = 2.2e16  # omega_sp of one plate and omega_v - omega_sp of the other inside
    conv = oracles.convolution(wv, lambda w: surface_response(GOLD_LIKE, w),
                               lambda w: surface_response(silver, w))
    phi, err = im_r_dissipation_integral(wv, GOLD_LIKE, silver, COLD)
    assert phi == pytest.approx(2.0 * conv, rel=1e-9)
    assert 0.0 < err <= 1e-12 * phi
    for wv in (3e13, 2.2e16):
        forward = im_r_dissipation_integral(wv, GOLD_LIKE, silver, ROOM)[0]
        assert im_r_dissipation_integral(wv, silver, GOLD_LIKE, ROOM)[0] == pytest.approx(
            forward, rel=1e-11
        )


def test_phi_slope_failure_names_its_interval():
    # an integrand that is not finite fails the rule on Phi_1's whole interval,
    # which its message names
    nan = lambda w: np.full(np.shape(w), math.nan)
    top = 60.0 / (ROOM.beta * CONST.hbar)
    with pytest.raises(NonConvergence, match=rf"^Phi_1 is not finite on \[0\.0, {top!r}\]$"):
        phi_slope(nan, nan, ROOM)


def test_phi_and_phi_slope_take_the_rule_through_its_front(monkeypatch):
    # Phi's quadrature (an overdamped plate, hbar nu = 20 eV, which no closed form
    # takes) and Phi_1's (over a table) each call numerics.integrate_finite, bound in
    # response, once; no module but numerics sets up the rule itself
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return numerics.integrate_finite(*args, **kwargs)

    monkeypatch.setattr(response, "integrate_finite", counting)
    overdamped = Drude(omega_p=GOLD.omega_p, nu=20.0 * CONST.eV / CONST.hbar)
    omegas = overdamped.omega_sp * np.array([0.1, 1.0, 3.0])
    for thermal in (ROOM, COLD):
        phi, err = im_r_dissipation_integral(omegas, overdamped, overdamped, thermal)
        assert (phi > 0).all() and (err <= 1e-9 * phi).all()
    table = Tabulated(omega=np.array([1e13, 1e14, 1e15]),
                      eps=np.array([-50 - 5j, -20 - 2j, -5 - 0.5j]))
    im_r = lambda w: surface_response(table, w).imag
    phi_slope(im_r, im_r, ROOM, table.omega)
    assert len(calls) == 3
    assert [np.size(b) for _, b in calls] == [3, 3, 1]
    package = Path(response.__file__).parent
    for source in package.glob("*.py"):
        if source.name != "numerics.py":
            assert not re.search(r"\b_(integrate|segments)\b", source.read_text()), source.name


def _quadrature_only(omegas, *_):
    """Stands in for Phi's closed form: used nowhere."""
    return np.zeros(omegas.size), np.zeros(omegas.size), np.zeros(omegas.size, dtype=bool)


#: Phi of the plates of test_phi_closed_form_matches_the_quadrature with poles off
#: the axes, at its omegas from POLES_FROM times the smaller omega_sp up: 40-digit
#: pole sums, written by tests/phi_mpmath_refs.py, by (ratio, unequal)
POLE_REFS = {(r["ratio"], r["unequal"]): r for r in json.loads(
    Path(__file__).with_name("phi_pole_refs.json").read_text(encoding="utf-8"))}


@pytest.mark.parametrize("unequal", [False, True], ids=["equal", "unequal"])
@pytest.mark.parametrize("ratio", [1e-3, 5e-3, 3e-2, 1.0, 1.999, 2.0, 3.0])
def test_phi_closed_form_matches_the_quadrature(monkeypatch, ratio, unequal):
    # Phi with its closed form (where it holds the 1e-9 a force's Phi asks for)
    # against the quadrature alone at 1e-12, on 1e-6 .. 1e3 omega_sp, at T = 0 and
    # at finite T: within 1e-9, and never more off than it reports.  Lines up to
    # nu = 2 omega_sp (1.999: nearly critical, Omega ~ 0.03 omega_sp), the double
    # pole at nu = 2 omega_sp and an overdamped plate (3.0), whose poles are
    # imaginary: the pole sum leaves those to the quadrature
    metal = Drude(omega_p=GOLD.omega_p, nu=ratio * GOLD.omega_sp)
    other = (Drude(omega_p=1.3 * GOLD.omega_p, nu=0.6 * ratio * GOLD.omega_sp) if unequal
             else metal)
    omegas = GOLD.omega_sp * np.concatenate((np.logspace(-6, 3, 37),
                                             [0.5, 0.9, 1.0, 1.1, 1.5, 2.0, 2.3, 2.6]))
    low = omegas < _phi0.POLES_FROM * min(metal.omega_sp, other.omega_sp)
    exact = None
    if ratio < 2.0:
        # from POLES_FROM up, the grid and omegas at and next to each line and the
        # sum Omega_1 + Omega_2 of the plates' resonances, where the terms of poles in
        # opposite half-planes are 0/0: Phi there in 40 digits, since the quadrature
        # at 1e-12 is not accurate to the pole sum's bound, about 1e-14 of Phi
        refs = POLE_REFS[ratio, unequal]
        assert refs["temperatures"] == [None, 30.0, 300.0, 1000.0]
        omegas = np.concatenate((omegas[low], refs["omega"]))
        low = np.arange(omegas.size) < low.sum()
        exact = np.array(refs["phi"])
        merge = np.abs(omegas / (_phi0._omega(metal) + _phi0._omega(other)) - 1.0) <= 1e-2
    spec = QuadratureSpec(rel_tol=1e-6)
    tol = 1e-3 * spec.rel_tol
    for t, thermal in enumerate((COLD, ThermalState.finite(30.0), ROOM,
                                 ThermalState.finite(1000.0))):
        b = 0.5 * thermal.beta * CONST.hbar
        value, _, used = _phi0.closed_form(omegas, metal, other, b, tol)
        if thermal.is_zero:
            # the quadrature alone below POLES_FROM times the smaller omega_sp at T = 0
            assert not used[low].any()
        elif used[low].any():
            # and at finite T the small-omega series there
            series, _ = _phi0._series(omegas[low & used], metal, other, b)
            assert (value[low & used] == series).all()
        if ratio > 2.0:
            # overdamped: no poles off the axes, no closed form
            assert not used.any()
        elif ratio == 2.0:
            # the double pole, where Omega^2 rounds to a few ulps: no pole sum, but
            # below POLES_FROM the series, whose Taylor radius is omega_sp at any nu
            assert not used[~low].any()
        else:
            # the pole sum at every omega from POLES_FROM up, next to each line too,
            # but within 1e-2 of the merge of a pair's poles at the peak
            assert used[~low & ~merge].all()
        phi, err = im_r_dissipation_integral(omegas, metal, other, thermal, spec)
        with monkeypatch.context() as patch:
            patch.setattr(_phi0, "closed_form", _quadrature_only)
            reference, _ = im_r_dissipation_integral(omegas, metal, other, thermal, TIGHT)
        assert (np.abs(phi - reference) <= 1e-9 * reference).all()
        if exact is not None:
            reference[~low] = exact[t]
        assert (np.abs(phi - reference) <= err).all()


def test_phi_in_the_closed_form_window_integrates_nothing(monkeypatch):
    # a call whose every omega the digamma sum takes runs no quadrature
    omegas = GOLD.omega_sp * np.linspace(1.2, 5.0, 32)
    spec = QuadratureSpec(rel_tol=1e-6)  # the tolerance of a force's table
    for thermal in (ROOM, ThermalState.finite(1000.0)):
        phi, err = im_r_dissipation_integral(omegas, GOLD, GOLD, thermal, spec)

        def integrate(*_):
            raise AssertionError("the quadrature ran")

        with monkeypatch.context() as patch:
            patch.setattr(response, "integrate_finite", integrate)
            again = im_r_dissipation_integral(omegas, GOLD, GOLD, thermal, spec)
        assert (again[0] == phi).all() and (again[1] == err).all()
        assert (err <= 1e-9 * phi).all()


def test_phi_in_the_series_window_integrates_nothing(monkeypatch):
    # a 300 K call whose every omega is below omega_sp / 2 runs no quadrature: the
    # small-omega series takes them all
    omegas = GOLD.omega_sp * np.logspace(-9.0, math.log10(0.49), 32)
    spec = QuadratureSpec(rel_tol=1e-6)  # the tolerance of a force's table
    phi, err = im_r_dissipation_integral(omegas, GOLD, GOLD, ROOM, spec)

    def integrate(*_):
        raise AssertionError("the quadrature ran")

    with monkeypatch.context() as patch:
        patch.setattr(response, "integrate_finite", integrate)
        again = im_r_dissipation_integral(omegas, GOLD, GOLD, ROOM, spec)
    assert (again[0] == phi).all() and (again[1] == err).all()
    assert (err <= 1e-9 * phi).all()


@pytest.mark.parametrize("ratio, other_ratio", [
    (1e-3, None), (1e-3, 6e-4), (3e-2, None), (3e-2, 1.8e-2), (0.3, None), (0.3, 0.18),
    (3e-2, 1.2),  # the terms of the second plate's Im R change sign, the first's do not
])
def test_phi_series_matches_the_quadrature(monkeypatch, ratio, other_ratio):
    # below POLES_FROM omega_sp at finite T, Phi from its small-omega series against
    # the quadrature alone at 1e-12, for equal plates (other_ratio None) and unequal
    # ones: within 1e-9, and never more off than it reports; up to 300 K the series
    # takes every omega
    metal = Drude(omega_p=GOLD.omega_p, nu=ratio * GOLD.omega_sp)
    other = (metal if other_ratio is None
             else Drude(omega_p=1.3 * GOLD.omega_p, nu=other_ratio * GOLD.omega_sp))
    omegas = GOLD.omega_sp * np.logspace(-8.0, math.log10(0.499), 40)
    spec = QuadratureSpec(rel_tol=1e-6)
    for temperature in (1.0, 30.0, 300.0, 1000.0):
        thermal = ThermalState.finite(temperature)
        _, _, used = _phi0.closed_form(omegas, metal, other, 0.5 * thermal.beta * CONST.hbar,
                                       1e-3 * spec.rel_tol)
        assert used.all() or temperature > 300.0
        phi, err = im_r_dissipation_integral(omegas, metal, other, thermal, spec)
        with monkeypatch.context() as patch:
            patch.setattr(_phi0, "closed_form", _quadrature_only)
            reference, _ = im_r_dissipation_integral(omegas, metal, other, thermal, TIGHT)
        deviation = np.abs(phi - reference)
        assert (deviation <= 1e-9 * reference).all()
        assert (deviation <= err).all()


@pytest.mark.parametrize("temperature", [1000.0, 3000.0])
def test_phi_series_leaves_hot_nodes_to_the_quadrature(monkeypatch, temperature):
    # 5 eV plates with a 0.1 eV line at 1000 and 3000 K: the thermal weight of the line,
    # which the series misses, is past the tolerance next to POLES_FROM omega_sp, so the
    # series refuses those omegas and the quadrature takes them
    metal = Drude(omega_p=5.0 * CONST.eV / CONST.hbar, nu=0.1 * CONST.eV / CONST.hbar)
    thermal = ThermalState.finite(temperature)
    omegas = metal.omega_sp * np.array([0.3, 0.4, 0.45, 0.49])
    spec = QuadratureSpec(rel_tol=1e-6)
    _, _, used = _phi0.closed_form(omegas, metal, metal, 0.5 * thermal.beta * CONST.hbar,
                                   1e-3 * spec.rel_tol)
    assert not used.any()
    phi, err = im_r_dissipation_integral(omegas, metal, metal, thermal, spec)
    with monkeypatch.context() as patch:
        patch.setattr(_phi0, "closed_form", _quadrature_only)
        reference, _ = im_r_dissipation_integral(omegas, metal, metal, thermal, TIGHT)
    assert (np.abs(phi - reference) <= 1e-9 * reference).all()
    assert (np.abs(phi - reference) <= err).all()
    # the series itself is off there by more than the tolerance
    series, _ = _phi0._series(omegas, metal, metal, 0.5 * thermal.beta * CONST.hbar)
    assert (np.abs(series - reference) > 1e-3 * spec.rel_tol * reference).any()


@pytest.mark.parametrize("other_ratio", [None, 1.8e-2, 1.2])
def test_series_coefficients_are_their_double_sum(other_ratio):
    # phi_(2i+1) ref^(2i) of the small-omega series, term by term over j + k <= 28 in
    # Python floats: the T = 0 part 2 gamma_j gamma'_k a! c! / (a + c + 1)! at
    # a + c + 1 = 2i + 1, and the thermal part 2 gamma_j gamma'_k [C(c, 2i+1) I_(a+c-2i-1)
    # + C(a, 2i+1) I_(a+c-2i-1)], I_p = 2 p! zeta(p + 1) tau^(p + 1); at 300 K the series
    # keeps all 28 blocks, and the 1.2 plate's gamma change sign
    metal = Drude(omega_p=GOLD.omega_p, nu=3e-2 * GOLD.omega_sp)
    other = (metal if other_ratio is None
             else Drude(omega_p=1.3 * GOLD.omega_p, nu=other_ratio * GOLD.omega_sp))
    b = 0.5 * ROOM.beta * CONST.hbar
    ref, rows, _ = _phi0.series_coefficients(metal, other, b)
    g, h = _phi0._heads(metal, ref), _phi0._heads(other, ref)
    tau = 0.5 / (b * ref)
    moment = [2.0 * math.factorial(p) * float(zeta(p + 1.0)) * tau ** (p + 1) for p in range(60)]
    terms = [[] for _ in range(rows.shape[1])]
    for j in range(29):
        for k in range(29 - j):
            a, c, pair = 2 * j + 1, 2 * k + 1, g[j] * h[k]
            terms[j + k + 1].append(
                2.0 * pair * math.factorial(a) * math.factorial(c) / math.factorial(a + c + 1))
            for i in range(max(j, k) + 1):
                weight = math.comb(c, 2 * i + 1) + math.comb(a, 2 * i + 1)
                terms[i].append(2.0 * pair * weight * moment[a + c - 2 * i - 1])
    expected = np.array([math.fsum(t) for t in terms])
    size = np.array([math.fsum(abs(x) for x in t) for t in terms])
    assert (np.abs(rows[0] - expected) <= 1e-14 * size).all()


def test_phi_series_that_overflows_is_left_to_the_quadrature():
    # at 1e150 K the series' sums leave the float range: an infinite Phi with an
    # infinite bound once passed err <= tol * Phi, and Phi was inf
    metal = Drude(omega_p=1e14, nu=1e14 / math.sqrt(2.0))
    phi, err = im_r_dissipation_integral(0.1 * metal.omega_sp, metal, metal,
                                         ThermalState.finite(1e150))
    assert math.isfinite(phi) and phi > 0.0 and 0.0 <= err <= 1e-9 * phi


@pytest.mark.parametrize("temperature", [2000.0, 3000.0])
@pytest.mark.parametrize("omega", [1e-3, 1e-1])
def test_phi_series_bounds_the_lines_below_an_ulp_of_omega(monkeypatch, temperature, omega):
    # far below an ulp of the line's Omega (about 2 rad/s), Omega -+ omega round to
    # one value: the lines' weight once cancelled to 0 there, and the series was
    # taken 29 % (3000 K) or 6.5e-6 (2000 K) low with a bound of 1e-4 or 5e-9 of Phi
    b = 0.5 * CONST.hbar / (CONST.k_B * temperature)
    thermal = ThermalState.finite(temperature)
    with monkeypatch.context() as patch:
        patch.setattr(_phi0, "closed_form", _quadrature_only)
        reference, _ = im_r_dissipation_integral(omega, GOLD, GOLD, thermal, TIGHT)
    series, bound = _phi0._series(np.array([omega]), GOLD, GOLD, b)
    assert abs(series[0] - reference) <= bound[0]
    for rel_tol in (0.5, 1e-2):
        phi, err = im_r_dissipation_integral(omega, GOLD, GOLD, thermal,
                                             QuadratureSpec(rel_tol=rel_tol))
        assert abs(phi - reference) <= err


def _digamma_step_by_its_sum(z, step: float, n: int = 4000):
    """psi(z + step) - psi(z) = sum_k step / ((z + k)(z + step + k)), for 0 < |step| <= 1.

    Its first n terms, and the rest by Euler-Maclaurin: log(1 + step/(z + n))
    (by its series, step/|z + n| <= 1/n) + f(n)/2 - f'(n)/12.
    """
    k = np.arange(n)
    head = (step / ((z[:, None] + k) * (z[:, None] + (step + k)))).sum(axis=1)  # pairwise
    a, c = z + n, z + step + n
    x = step / a
    return (head + x * (1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x))) + 0.5 * step / (a * c)
            + step * (a + c) / (12.0 * (a * c) ** 2))


@pytest.mark.parametrize("real", [0.01, 0.5, 1.0, 9.5, 9.999, 10.0, 10.001, 37.0])
def test_digamma_matches_scipy(real):
    # on both sides of the recurrence's threshold Re z = 10, and up to |Im z| = 1e8,
    # psi with its imaginary part measured from sgn(Im z) pi/2; scipy's own digamma is
    # off by up to about 5e-15 next to its root near 1.46.  Its differences over real
    # steps down to 1e-12 keep their digits, against their sum over the recurrence
    imag = np.concatenate((-np.logspace(-3.0, 8.0, 23), [0.0], np.logspace(-3.0, 8.0, 23)))
    z = real + 1j * imag
    reference = digamma(z)
    for step in (0.0, 1e-12, 1e-4, 0.5, 1.0):
        psi, difference, *_ = _phi0._digamma(z, step)
        psi = psi + 0.5j * math.pi * np.where(imag < 0.0, -1.0, 1.0)
        assert (np.abs(psi - reference) <= 5e-15 * np.maximum(1.0, np.abs(reference))).all()
        if step:
            expected = _digamma_step_by_its_sum(z, step)
            assert (np.abs(difference - expected) <= 1e-14 * np.abs(expected)).all()
        else:
            assert np.all(difference == 0.0)


#: Phi at T = 0 of a plate whose line is 1e-3 omega_sp wide, with itself and with
#: a second plate, at 30 and 1000 omega_sp: 40-digit quadratures, printed by
#: tests/phi_mpmath_refs.py (mpmath is not a test dependency).
FAR_ABOVE_REFS = {
    ("equal", 30.0): 2496089255.419413,
    ("equal", 1000.0): 60912.75387999971,
    ("unequal", 30.0): 2941813856.491175,
    ("unequal", 1000.0): 70518.56527838773,
}


@pytest.mark.parametrize("plates, multiple", sorted(FAR_ABOVE_REFS))
def test_phi_far_above_the_resonance_reports_its_error(plates, multiple):
    # far above the line at the tightest tolerance, the rounding of omega - u next
    # to a line once put Phi several times its reported error off
    sp = GOLD.omega_p / math.sqrt(2.0)
    metal = Drude(omega_p=GOLD.omega_p, nu=1e-3 * sp)
    other = metal if plates == "equal" else Drude(omega_p=1.3 * GOLD.omega_p, nu=0.6e-3 * sp)
    phi, err = im_r_dissipation_integral(multiple * sp, metal, other, COLD, TIGHT)
    assert abs(phi - FAR_ABOVE_REFS[plates, multiple]) <= err


#: Phi of the plate of `force --wp-ev 9 --nu-ev 5e-8` (a line 7.9e-9 omega_sp wide)
#: with itself, at (T in K, None for T = 0; omega in rad/s) where Phi's quadrature did
#: not converge: 40-digit sums over the poles of Im R, printed by tests/phi_mpmath_refs.py.
NARROW_LINE_REFS = {
    (None, 1.1408629129840398e16): 91746266.74738775,
    (300.0, 9660150463323436.0): 1738742.305437017,
}


@pytest.mark.parametrize("temperature, omega", list(NARROW_LINE_REFS), ids=["zero", "300K"])
def test_phi_of_a_narrow_line_is_its_pole_sum(monkeypatch, temperature, omega):
    # on a line 7.9e-9 omega_sp wide Phi's quadrature did not converge within 200
    # bisections, in the sum channel at T = 0 and in the difference channel at 300 K,
    # and the force exited 3: the pole sum, each pole with its conjugate, takes both
    # omegas within its error, and no quadrature runs
    metal = Drude(omega_p=9.0 * CONST.eV / CONST.hbar, nu=5e-8 * CONST.eV / CONST.hbar)
    thermal = COLD if temperature is None else ThermalState.finite(temperature)

    def integrate(*_):
        raise AssertionError("the quadrature ran")

    monkeypatch.setattr(response, "integrate_finite", integrate)
    for spec in (DEFAULT_SPEC, TIGHT):
        phi, err = im_r_dissipation_integral(omega, metal, metal, thermal, spec)
        assert abs(phi - NARROW_LINE_REFS[temperature, omega]) <= err <= 1e-12 * phi


@pytest.mark.parametrize("ratio", [1e-9, 1e-8, 1e-5, 1e-3, 0.3, 1.99])
def test_pole_sum_takes_every_omega_from_poles_from_up(ratio):
    # at the 1e-9 a force's Phi asks for, the pole sum takes every omega from POLES_FROM
    # times the smaller omega_sp up, next to each line and far above them, at T = 0
    # and at 1 K to 1e4 K, for equal and unequal plates; it may leave to the
    # quadrature only omegas within 1e-2 of the merge Omega_1 + Omega_2 of a pair
    # of poles, where its terms are 0/0
    metal = Drude(omega_p=GOLD.omega_p, nu=ratio * GOLD.omega_sp)
    for other in (metal, Drude(omega_p=1.3 * GOLD.omega_p, nu=0.6 * ratio * GOLD.omega_sp)):
        lines = [_phi0._omega(m) for m in (metal, other)]
        peak = sum(lines)
        low = min(metal.omega_sp, other.omega_sp)
        near = np.concatenate((-np.logspace(-13.0, -1.0, 25), [0.0], np.logspace(-13.0, -1.0, 25)))
        omegas = np.concatenate([low * np.logspace(math.log10(_phi0.POLES_FROM), 4.0, 100)]
                                + [x * (1.0 + near) for x in lines + [peak]])
        omegas = omegas[(omegas >= _phi0.POLES_FROM * low) & (np.abs(omegas / peak - 1.0) > 1e-2)]
        for temperature in (0.0, 1.0, 30.0, 300.0, 1000.0, 1e4):
            b = 0.5 * CONST.hbar / (CONST.k_B * temperature) if temperature else math.inf
            assert _phi0.closed_form(omegas, metal, other, b, 1e-9)[2].all()


@pytest.mark.parametrize("temperature", [30.0, 300.0, 1000.0])
def test_phi_of_unequal_plates_matches_the_two_channel_oracle(temperature):
    # the folded integral against the sum channel and both difference terms,
    # each integrated apart by QUADPACK: within 1e-9, and never more off than
    # it reports
    silver = Drude(omega_p=1.4e16, nu=3e13)
    thermal = ThermalState.finite(temperature)
    omegas = GOLD_LIKE.omega_sp * np.logspace(-4, 1, 11)
    phi, err = im_r_dissipation_integral(omegas, GOLD_LIKE, silver, thermal)
    reference = np.array([oracles.phi_two_channels(w, GOLD_LIKE, silver, thermal)
                          for w in omegas])
    deviation = np.abs(phi - reference)
    assert (deviation <= 1e-9 * reference).all()
    assert (deviation <= err).all()


def test_phi_with_a_plate_without_loss_is_zero():
    # Im R = 0 off a lossless plate's pole, which the fold would meet at the midpoint
    # of the segment graded about the other plate's line at the same omega_sp
    lossy = Drude(omega_p=1e14, nu=1.1e13)
    for other in (Drude(omega_p=1e14, nu=0.0), Drude(omega_p=0.0, nu=1e13)):
        for thermal in (COLD, ROOM):
            assert im_r_dissipation_integral(7.2e15, lossy, other, thermal) == (0.0, 0.0)


def _drude(kind, omega_p, nu_ratio):
    """A lossy, lossless (nu = 0) or transparent (omega_p = 0) Drude plate.

    Its nu is nu_ratio times its omega_sp, or times 1e15 rad/s if omega_p = 0.
    """
    omega_p = 0.0 if kind == "transparent" else omega_p
    nu = 0.0 if kind == "lossless" else nu_ratio * (omega_p / math.sqrt(2.0) or 1e15)
    return Drude(omega_p=omega_p, nu=nu)


def _exponent(lo: float, hi: float):
    """An exponent from lo to hi, or of any decade of the normal floats."""
    return st.one_of(st.floats(lo, hi), st.floats(-300.0, 300.0))


_PLATE = st.builds(_drude, st.sampled_from(["lossy"] * 3 + ["lossless", "transparent"]),
                   _exponent(14.0, 17.0).map(lambda x: 10.0**x),
                   st.floats(-4.0, 1.0).map(lambda x: 10.0**x))


_LOSSY = st.builds(_drude, st.just("lossy"), st.floats(14.0, 17.0).map(lambda x: 10.0**x),
                   st.floats(-4.0, math.log10(1.99)).map(lambda x: 10.0**x))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(material1=_LOSSY, material2=st.one_of(st.none(), _LOSSY), t_exp=st.floats(-1.0, 4.0),
       below=st.floats(-10.0, math.log10(_phi0.POLES_FROM) - 1e-9))
def test_phi_series_property(material1, material2, t_exp, below):
    # lossy, underdamped plates, equal (None) or not, at 0.1 K to 1e4 K and omega
    # below POLES_FROM times the smaller omega_sp: where the small-omega series takes
    # Phi, the quadrature alone at 1e-12 agrees with it within the two errors
    material2 = material2 or material1
    thermal = ThermalState.finite(10.0**t_exp)
    omega = 10.0**below * min(material1.omega_sp, material2.omega_sp)
    phi, err = im_r_dissipation_integral(omega, material1, material2, thermal)
    assert math.isfinite(phi) and phi > 0.0 and math.isfinite(err) and err >= 0.0
    used = _phi0.closed_form(np.array([omega]), material1, material2,
                             0.5 * thermal.beta * CONST.hbar, 1e-12)[2][0]
    if used:
        with mock.patch.object(_phi0, "closed_form", _quadrature_only):
            reference, reference_err = im_r_dissipation_integral(omega, material1, material2,
                                                                 thermal, TIGHT)
        assert abs(phi - reference) <= err + reference_err

@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    material1=st.one_of(_PLATE, st.sampled_from([Drude(omega_p=2e154, nu=1e152),
                                                  Drude(omega_p=1.77e-252, nu=1.77e-252)])),
    material2=st.one_of(st.none(), _PLATE),
    t_exp=st.one_of(st.none(), _exponent(-1.0, 4.0)),
    omega_exp=_exponent(8.0, 18.0),
    below=st.one_of(st.none(), st.floats(-10.0, math.log10(_phi0.POLES_FROM) - 1e-9)),
)
def test_phi_property_over_drude_plates(material1, material2, t_exp, omega_exp, below):
    # lossless (nu = 0), transparent (omega_p = 0) and overdamped (nu > 2 omega_sp)
    # plates included, equal (None) or not, and plates, temperatures and omegas of
    # any decade, among them omega_p^2 past the float range and omega_sp^2 below it,
    # and omegas below POLES_FROM times the smaller omega_sp (``below``, its log10 in
    # units of that omega_sp), where the small-omega series takes Phi at finite T:
    # Phi and its error are finite and >= 0, or the call raises a documented error;
    # where the series took Phi, the quadrature alone agrees within the two errors
    material2 = material2 or material1
    thermal = COLD if t_exp is None else ThermalState.finite(10.0**t_exp)
    low = min(material1.omega_sp, material2.omega_sp)
    omega = 10.0**below * low if below is not None and low > 0.0 else 10.0**omega_exp
    try:
        phi, err = im_r_dissipation_integral(omega, material1, material2, thermal)
    except (NonConvergence, FloatFailure, SingularResponse, DomainError):
        return
    assert math.isfinite(phi) and phi >= 0.0
    assert math.isfinite(err) and err >= 0.0
    b = 0.5 * thermal.beta * CONST.hbar
    if thermal.is_zero or not omega < _phi0.POLES_FROM * low:
        return
    if not _phi0.closed_form(np.array([omega]), material1, material2, b, 1e-12)[2][0]:
        return
    with mock.patch.object(_phi0, "closed_form", _quadrature_only):
        try:
            reference, reference_err = im_r_dissipation_integral(omega, material1, material2,
                                                                 thermal, TIGHT)
        except (NonConvergence, FloatFailure, SingularResponse):
            return
    assert abs(phi - reference) <= err + reference_err
