import math

import numpy as np
import pytest
from scipy.integrate import trapezoid

from casimir_friction import _phi0
from casimir_friction.numerics import CONST, DEFAULT_SPEC, QuadratureSpec
from casimir_friction.material import Drude, Tabulated, surface_response
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
TIGHT = QuadratureSpec(rel_tol=1e-12, max_subdivisions=200)
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
    spec = QuadratureSpec(rel_tol=1e-9, max_subdivisions=400)
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
    # one rule for all omegas at once: each value and error is bitwise the scalar call's
    omegas = np.array([[1e8, 3e13], [GOLD.omega_sp, 2.0 * GOLD.omega_sp + 1e12]])
    silver = Drude(omega_p=1.4e16, nu=3e13)
    for thermal in (ROOM, COLD):
        for other in (GOLD, silver):
            phi, err = im_r_dissipation_integral(omegas, GOLD, other, thermal)
            assert phi.shape == err.shape == omegas.shape
            for w, p, e in zip(omegas.flat, phi.flat, err.flat):
                assert im_r_dissipation_integral(float(w), GOLD, other, thermal) == (p, e)


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


def _quadrature_only(omegas, *_):
    """Stands in for the closed form of the T = 0 sum channel: used nowhere."""
    zero = np.zeros(omegas.size)
    return zero, zero, zero.astype(bool)


@pytest.mark.parametrize("unequal", [False, True], ids=["equal", "unequal"])
@pytest.mark.parametrize("ratio", [1e-3, 5e-3, 3e-2])
def test_phi_closed_form_matches_the_quadrature(monkeypatch, ratio, unequal):
    # Phi with the sum channel's T = 0 part in closed form (where it holds the
    # 1e-9 a force's Phi asks for) against the coth-sum quadrature alone at 1e-12,
    # on 1e-6 .. 1e3 omega_sp: within 1e-9, and never more off than it reports
    metal = Drude(omega_p=GOLD.omega_p, nu=ratio * GOLD.omega_sp)
    other = Drude(omega_p=1.3 * GOLD.omega_p, nu=0.6 * ratio * GOLD.omega_sp) if unequal else metal
    omegas = GOLD.omega_sp * np.concatenate((np.logspace(-6, 3, 37), [1.1, 1.5, 2.0, 2.3, 2.6]))
    # next to the sum Omega_1 + Omega_2 of the plates' resonances, where the terms of
    # poles in opposite half-planes are 0/0 in their plain form
    peak = sum(math.sqrt(m.omega_sp**2 - m.nu**2 / 4.0) for m in (metal, other))
    omegas = np.append(omegas, peak * (1.0 + np.array([-1e-9, 1e-12, 1e-7])))
    # the power series below omega_sp / 2, the pole sum from 1.1 omega_sp to 10 omega_sp at least
    _, _, used = _phi0.sum_channel_zero_t(omegas, metal, other, 1e-9, True)
    assert used[(omegas <= 0.5 * metal.omega_sp)
                | ((omegas >= 1.1 * other.omega_sp) & (omegas <= 10.0 * metal.omega_sp))].all()
    spec = QuadratureSpec(rel_tol=1e-6)
    for thermal in (COLD, ROOM, ThermalState.finite(1000.0)):
        phi, err = im_r_dissipation_integral(omegas, metal, other, thermal, spec)
        with monkeypatch.context() as patch:
            patch.setattr(_phi0, "sum_channel_zero_t", _quadrature_only)
            reference, _ = im_r_dissipation_integral(omegas, metal, other, thermal, TIGHT)
        deviation = np.abs(phi - reference)
        assert (deviation <= 1e-9 * reference).all()
        assert (deviation <= err).all()
