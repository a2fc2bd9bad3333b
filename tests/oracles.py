"""The paper's derivation chain, kept as oracles for the tests.

The library computes every force from the surface response alone, through
the dissipation spectrum Phi(omega) and its small-omega limits, and starts
from the delta limit of the sliding loop.  The paper derives that formula
in steps, and each step lives here, evaluated by quadrature or directly so
that the tests can hold the library against it.

The closed loop.  The plate moves along q(t) (`loop_position`): velocity
v on (-tau, tau), slow return strokes at -v/alpha; `qhat_numeric`
integrates the transform of exp(i omega_v q(t)) - 1 that
`trajectory.qhat_closed_form` writes in closed form.

A single oscillator pair (`response_coeffs`, `phi`).  Frequencies
omega_1, omega_2 and polarizability volumes alpha_1, alpha_2 in thermal
equilibrium give the causal response

    phi(t) = C_- sin(omega_- t) + C_+ sin(omega_+ t),   t > 0,
    omega_+- = |omega_1 +- omega_2|,
    C_+- = (hbar omega_1 omega_2 alpha_1 alpha_2 / 4) F_+-,

with the thermal factors F_+ = coth(b_1) + coth(b_2) and
F_- = |coth(b_1) - coth(b_2)|, b_i = beta hbar omega_i / 2, computed by the
library's own `response._coth_sum` and `_coth_diff`.

The planar dipole kernels (`psi_hat`, `g_hat`, `g_hat_z_integrated`).  The
in-plane transform of the Coulomb kernel 1/r at offset z0 is
psi_hat = 2 pi exp(-q|z0|)/q.  Contracting the dipole tensor kernel with
itself gives, with i k_z following the sign of z,
-i k_j i k_j = k_x^2 + k_y^2 + q^2 = 2 q^2, so the squared kernel is
g_hat = (2 q^2)^2 psi_hat^2 (a naive k_z^2 = -q^2 contraction cancels it
to zero).  Integrated over both half-spaces (z1 > d, z2 < 0) it leaves
(2 pi)^2 exp(-2 q d), the kernel whose k_y integral `friction` takes in
closed form.

The oscillator spectral density

    s(m) = m^2 alpha_I(m^2) = -Im R(m / hbar) / (2 pi^2 rho),   m = hbar omega,

its thermal moment H0 (linear regime), the zero-temperature convolution
J (cubic regime) and the in-plane k-moments G, G_P, in which rho cancels:

    F_linear = G v H0,                 G   = 3 pi / (8 d^4) rho1 rho2,
    F_cubic  = G_P H_P' v^3,           G_P = 45 pi / (32 d^6) rho^2,

with J_linear = 2 tau omega_v^2 H0 and J_zero_t = 2 tau omega_v^4 H_P' for
linear heads.
"""

import math
from typing import NamedTuple

from scipy import integrate

from casimir_friction.numerics import (
    CONST,
    DEFAULT_SPEC,
    DomainError,
    QuadratureSpec,
    integrate_finite,
    integrate_semi_infinite,
)
from casimir_friction.material import surface_response
from casimir_friction.response import _coth_diff, _coth_sum


def loop_position(t, traj):
    """Loop coordinate q(t) (seconds); zero outside [-(alpha+1) tau, (alpha+1) tau].

    Requires finite alpha.
    """
    if math.isinf(traj.alpha):
        raise DomainError("loop_position requires finite alpha")
    tau, alpha = traj.tau, traj.alpha
    end = (alpha + 1.0) * tau
    if t <= -end or t >= end:
        return 0.0
    if t < -tau:
        return -tau - (t + tau) / alpha
    if t <= tau:
        return t
    return tau - (t - tau) / alpha


def qhat_numeric(omega, omega_v, traj):
    """Direct quadrature of Int (e^{i omega_v q(t)} - 1) e^{-i omega t} dt (finite alpha).

    Integration is split at the loop's velocity discontinuities t = +-tau.
    """
    if math.isinf(traj.alpha):
        raise DomainError("qhat_numeric requires finite alpha")
    if omega_v == 0.0:
        return 0.0 + 0.0j
    end = (traj.alpha + 1.0) * traj.tau
    # oscillatory pieces need a deep budget; values scale with the support
    spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-13 * end, max_subdivisions=4000)

    def re(t):
        return math.cos(omega_v * loop_position(t, traj) - omega * t) - math.cos(omega * t)

    def im(t):
        return math.sin(omega_v * loop_position(t, traj) - omega * t) + math.sin(omega * t)

    pieces = [(-end, -traj.tau), (-traj.tau, traj.tau), (traj.tau, end)]
    vr = sum(integrate_finite(re, a, b, spec)[0] for a, b in pieces)
    vi = sum(integrate_finite(im, a, b, spec)[0] for a, b in pieces)
    return complex(vr, vi)


class ResponseCoeffs(NamedTuple):
    omega_minus: float
    omega_plus: float
    C_minus: float
    C_plus: float
    H: float


def response_coeffs(omega1, omega2, alpha1, alpha2, thermal):
    """Amplitudes C_+- and the kernel scale H for a single oscillator pair."""
    if not (omega1 > 0 and omega2 > 0):
        raise DomainError("oscillator frequencies must be > 0")
    if not (alpha1 > 0 and alpha2 > 0):
        raise DomainError("polarizabilities must be > 0")
    base = 0.25 * CONST.hbar * omega1 * omega2 * alpha1 * alpha2
    if thermal.is_zero:
        c_minus, c_plus, h = 0.0, 2.0 * base, 0.0
    else:
        b1 = 0.5 * thermal.beta * CONST.hbar * omega1
        b2 = 0.5 * thermal.beta * CONST.hbar * omega2
        gap = 0.5 * thermal.beta * CONST.hbar * abs(omega1 - omega2)
        c_plus = base * _coth_sum(b1, b2)
        c_minus = base * _coth_diff(min(b1, b2), gap)
        # H = hbar^2 w1 w2 a1 a2 / (4 sinh(b1) sinh(b2)), underflowing cleanly to 0
        h = (
            CONST.hbar * base * 4.0 * math.exp(-(b1 + b2))
            / (-math.expm1(-2.0 * b1) * -math.expm1(-2.0 * b2))
        )
    return ResponseCoeffs(abs(omega1 - omega2), omega1 + omega2, c_minus, c_plus, h)


def phi(t, omega1, omega2, alpha1, alpha2, thermal):
    """Causal single-pair response function; zero for t < 0."""
    if t < 0:
        return 0.0
    c = response_coeffs(omega1, omega2, alpha1, alpha2, thermal)
    return c.C_minus * math.sin(c.omega_minus * t) + c.C_plus * math.sin(c.omega_plus * t)


def psi_hat(z0, q):
    """Planar Fourier transform of the Coulomb kernel: 2 pi exp(-q|z0|)/q."""
    if not q > 0:
        raise DomainError(f"q must be > 0, got {q}")
    return 2.0 * math.pi * math.exp(-q * abs(z0)) / q


def g_hat(z0, q):
    """Contracted squared dipole kernel (2 q^2)^2 psi_hat(z0, q)^2."""
    p = psi_hat(z0, q)
    return (2.0 * q * q) ** 2 * p * p


def g_hat_z_integrated(q, d):
    """g_hat integrated over z1 > d, z2 < 0: (2 pi)^2 exp(-2 q d)."""
    if not q > 0 or not d > 0:
        raise DomainError(f"q and d must be > 0, got q={q}, d={d}")
    return (2.0 * math.pi) ** 2 * math.exp(-2.0 * q * d)


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

    value, _ = integrate_semi_infinite(f, 0.0, 1.0 / beta, spec)
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
        lambda q: q**n * math.exp(-2.0 * q * d), 0.0, 0.5 / d, spec
    )
    return value


def k_moment(power, d, rho1, rho2, spec=DEFAULT_SPEC):
    """Gap moment rho1 rho2 Int d^2k k_x^power e^{-2 q d}: G for power 2, G_P for 4."""
    return rho1 * rho2 * 2.0 * math.pi * angular_moment(power) * radial_moment(power + 1, d, spec)
