"""The paper's oscillator-density chain, kept as oracles for the tests.

The library computes every force from the surface response alone, through
the dissipation spectrum Phi(omega) and its small-omega limits.  The paper
instead goes through the oscillator spectral density

    s(m) = m^2 alpha_I(m^2) = -Im R(m / hbar) / (2 pi^2 rho),   m = hbar omega,

its thermal moment H0 (linear regime), the zero-temperature convolution
J (cubic regime) and the in-plane k-moments G, G_P, in which rho cancels:

    F_linear = G v H0,                 G   = 3 pi / (8 d^4) rho1 rho2,
    F_cubic  = G_P H_P' v^3,           G_P = 45 pi / (32 d^6) rho^2,

with J_linear = 2 tau omega_v^2 H0 and J_zero_t = 2 tau omega_v^4 H_P' for
linear heads.  Everything here is evaluated by quadrature so that the tests
can hold the closed forms against the chain.
"""

import math

from scipy import integrate

from casimir_friction.numerics import (
    CONST,
    DEFAULT_SPEC,
    integrate_finite,
    integrate_semi_infinite,
)
from casimir_friction.material import surface_response


def density(model, rho):
    """Oscillator spectral density m -> -Im R(m / hbar) / (2 pi^2 rho), m in J."""
    norm = 1.0 / (2.0 * math.pi**2 * rho)

    def s(m):
        if m <= 0:
            return 0.0
        return -surface_response(model, m / CONST.hbar).imag * norm

    return s


def drude_slope(model, rho):
    """Linear-head slope D = hbar nu / (rho (pi hbar omega_p)^2) of a Drude density."""
    return CONST.hbar * model.nu / (rho * (math.pi * CONST.hbar * model.omega_p) ** 2)


def delta_lines(line):
    """-Im R of a PlasmonLine as ((omega_sp, weight),), weight = pi omega_sp / 2."""
    return ((line.omega_sp, 0.5 * math.pi * line.omega_sp),)


def h0(s1, s2, thermal, spec=DEFAULT_SPEC):
    """Thermal moment H0 = (pi beta hbar / 2) Int_0^inf s1 s2 / sinh^2(beta m / 2) dm."""
    beta = thermal.beta

    def f(m):
        x = beta * m  # 1/sinh^2(x/2) = 4 e^-x / (1 - e^-x)^2, overflow-safe
        return s1(m) * s2(m) * 4.0 * math.exp(-x) / math.expm1(-x) ** 2

    value, _ = integrate_semi_infinite(f, 0.0, spec.with_scale(1.0 / beta))
    return 0.5 * math.pi * beta * CONST.hbar * value


def j_zero_t(omega_v, s1, s2, tau, spec=DEFAULT_SPEC):
    """J = 2 pi tau |omega_v| hbar Int_0^|omega_v| s1(hbar w1) s2(hbar (|omega_v| - w1)) dw1."""
    w = abs(omega_v)
    value, _ = integrate_finite(
        lambda w1: s1(CONST.hbar * w1) * s2(CONST.hbar * (w - w1)), 0.0, w, spec
    )
    return 2.0 * math.pi * tau * w * CONST.hbar * value


def convolution(omega_v, r1, r2, spec=DEFAULT_SPEC):
    """Int_0^|omega_v| Im R1(w1) Im R2(|omega_v| - w1) dw1 for responses omega -> R.

    For two single delta lines from `delta_lines` the convolution is
    weight * delta(|omega_v| - support); (weight, support) is returned.
    """
    if isinstance(r1, tuple) and isinstance(r2, tuple):
        ((wa, ka),), ((wb, kb),) = r1, r2
        return ka * kb, wa + wb
    if isinstance(r1, tuple) or isinstance(r2, tuple):
        raise TypeError("mixed delta-line/continuous convolution")
    w = abs(omega_v)
    value, _ = integrate_finite(lambda w1: r1(w1).imag * r2(w - w1).imag, 0.0, w, spec)
    return value


def angular_moment(power):
    """Circle average <cos^power(phi)> = (1/2pi) Int_0^2pi cos^power(phi) dphi."""
    value, _ = integrate.quad(
        lambda p: math.cos(p) ** power, 0.0, 2.0 * math.pi, epsabs=1e-14, epsrel=1e-13, limit=200
    )
    return value / (2.0 * math.pi)


def radial_moment(n, d, spec=DEFAULT_SPEC):
    """Int_0^inf q^n exp(-2 q d) dq."""
    value, _ = integrate_semi_infinite(
        lambda q: q**n * math.exp(-2.0 * q * d), 0.0, spec.with_scale(0.5 / d)
    )
    return value


def k_moment(power, d, rho1, rho2, spec=DEFAULT_SPEC):
    """Gap moment rho1 rho2 Int d^2k k_x^power e^{-2 q d}: G for power 2, G_P for 4."""
    return rho1 * rho2 * 2.0 * math.pi * angular_moment(power) * radial_moment(power + 1, d, spec)
