"""The paper's derivation chain, kept as oracles for the tests.

The library computes every force from the surface response alone, through
the dissipation spectrum Phi(omega) and its small-omega limits, and starts
from the delta limit of the sliding loop.  The paper derives that formula
in steps, and each step lives here, evaluated by quadrature or directly so
that the tests can hold the library against it.

The closed loop (`LoopTrajectory`).  The plate moves along q(t)
(`loop_position`, seconds; position r0 + v q(t)): velocity v on
(-tau, tau), bracketed by slow return strokes of velocity -v/alpha that
bring it back to the start at t = +-(alpha+1) tau, so reversible forces do
no net work and the time integral of force * velocity is pure dissipation.
The transform of exp(i omega_v q(t)) - 1,

    qhat(omega, omega_v) = Int (e^{i omega_v q(t)} - 1) e^{-i omega t} dt,

is integrated directly by `qhat_numeric` and has the closed form
(`qhat_closed_form`, finite alpha)

    2 [ (1+1/a) w_v sin((w-w_v) tau) / ((w + w_v/a)(w - w_v))
        - (w_v/a) sin(w (1+a) tau) / ((w + w_v/a) w) ],

which vanishes for w_v = 0 and tends, for alpha -> inf, to
2 w_v sin((w-w_v) tau)/(w (w-w_v)); the loop is odd in t, so the
transform is real.  As tau -> inf the kernel (omega/4) sum_{n=+-1}
|qhat(omega, n omega_v)|^2 (`finite_tau_kernel`) concentrates into

    I(omega) = pi tau (omega_v^2/omega) [delta(omega-omega_v) + delta(omega+omega_v)],

at rate O(1/tau) (`delta_limit_convergence`).  The library starts from
that delta limit and never evaluates the loop.

A single oscillator pair (`response_coeffs`, `phi`).  Frequencies
omega_1, omega_2 and polarizability volumes alpha_1, alpha_2 in thermal
equilibrium give the causal response

    phi(t) = C_- sin(omega_- t) + C_+ sin(omega_+ t),   t > 0,
    omega_+- = |omega_1 +- omega_2|,
    C_+- = (hbar omega_1 omega_2 alpha_1 alpha_2 / 4) F_+-,

with the thermal factors F_+ = coth(b_1) + coth(b_2) and
F_- = |coth(b_1) - coth(b_2)|, b_i = beta hbar omega_i / 2, computed by the
`_coth_sum` here and by the library's own `response._coth_diff`.

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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import integrate

from casimir_friction.numerics import (
    CONST,
    DEFAULT_SPEC,
    DomainError,
    NonConvergence,
    QuadratureSpec,
    integrate_finite,
    integrate_semi_infinite,
)
from casimir_friction.material import surface_response
from casimir_friction.response import _coth_diff


def quad(f, a, b, spec=DEFAULT_SPEC):
    """Int_a^b f by scipy's QUADPACK on a scalar callback: a rule apart from the package's own.

    Returns (value, err_estimate); raises NonConvergence when QUADPACK
    stops above ``spec.rel_tol``.
    """
    if a == b:
        return 0.0, 0.0
    value, err, *rest = integrate.quad(f, a, b, epsabs=0.0, epsrel=spec.rel_tol, limit=200,
                                       full_output=1)
    if rest[1:] and err > spec.rel_tol * abs(value):
        raise NonConvergence(f"quadrature did not converge on [{a}, {b}]: "
                             f"value={value:.6e}, err={err:.3e}")
    return value, err


def on_unit_scale(f, scale):
    """s f(s x): an integrand f(q) that decays on the scale s, taken in x = q / s."""
    return lambda x: scale * f(scale * x)


def integrate_one(front, f, *limits, spec=DEFAULT_SPEC, cuts=()):
    """One integral of f(x) by ``front``, one of the package's fronts, which take many at once.

    ``limits`` are the limits a, b of `integrate_finite`, or the decay
    scale s of f over [0, inf), which `integrate_semi_infinite` takes on
    the unit scale (`on_unit_scale`, cut at ``cuts`` / s); ``cuts`` are
    the kinks of f.  Returns (value, err_estimate).
    """
    cuts = np.array([cuts], dtype=float)
    if front is integrate_semi_infinite:
        [scale] = limits
        f, limits, cuts = on_unit_scale(f, scale), (), cuts / scale
    [value], [err] = front(lambda x, _: f(x), *limits, spec, cuts)
    return float(value), float(err)


def quad_semi_infinite(f, a, scale, spec=DEFAULT_SPEC):
    """Int_a^inf f by `quad` after q = a + scale t / (1 - t), for f decaying on ``scale``."""

    def g(t):
        if t >= 1.0:
            return 0.0
        u = 1.0 - t
        return f(a + scale * t / u) * scale / (u * u)

    return quad(g, 0.0, 1.0, spec)


@dataclass(frozen=True)
class LoopTrajectory:
    """Closed-loop motion parameters: half-duration tau and return ratio alpha.

    Time is the loop's coordinate, so the fast velocity v only scales
    the sliding frequency omega_v and is not a parameter here.
    alpha = math.inf selects the limit in which the slow return strokes
    carry no dissipation.
    """

    tau: float
    alpha: float = math.inf

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")


def _sin_over(x: float, tau: float) -> float:
    """sin(x*tau)/x with the removable singularity evaluated by its limit."""
    return tau * np.sinc(x * tau / math.pi)


def qhat_closed_form(omega, omega_v: float, traj: LoopTrajectory):
    """Closed-form transform of exp(i*omega_v*q(t)) - 1 (real-valued).

    At alpha = inf, ``omega`` may be an array.

    Raises
    ------
    DomainError
        At omega = 0, and for finite alpha at omega = -omega_v/alpha
        (poles of the two-term representation).
    """
    tau = traj.tau
    if np.any(omega == 0.0):
        raise DomainError("qhat_closed_form is singular at omega = 0")
    if omega_v == 0.0:
        return 0.0
    if math.isinf(traj.alpha):
        return 2.0 * omega_v * _sin_over(omega - omega_v, tau) / omega
    alpha = traj.alpha
    shift = omega + omega_v / alpha
    if abs(shift) <= 1e-12 * max(abs(omega), abs(omega_v) / alpha):
        raise DomainError(
            f"qhat_closed_form is singular at omega = -omega_v/alpha = {-omega_v/alpha:.6e}"
        )
    term1 = (1.0 + 1.0 / alpha) * omega_v * _sin_over(omega - omega_v, tau) / shift
    term2 = (omega_v / alpha) * math.sin(omega * (1.0 + alpha) * tau) / (shift * omega)
    return 2.0 * (term1 - term2)


def finite_tau_kernel(omega, omega_v: float, traj: LoopTrajectory):
    """(omega/4) sum_{n=+-1} |qhat(omega, n*omega_v)|^2 at finite tau.

    At alpha = inf, ``omega`` may be an array.
    """
    qp = qhat_closed_form(omega, omega_v, traj)
    qm = qhat_closed_form(omega, -omega_v, traj)
    return 0.25 * omega * (qp * qp + qm * qm)


#: Width of the Gaussian test function of `delta_limit_convergence`,
#: relative to omega_v, and the quadrature that integrates against it.
GAUSSIAN_REL_WIDTH = 0.05
CONVERGENCE_SPEC = QuadratureSpec(rel_tol=1e-10)


def delta_limit_convergence(omega_v: float, taus: list[float]) -> list[dict]:
    """Convergence study of the finite-tau kernel against its delta limit.

    Integrates the finite-tau kernel against a unit-peak Gaussian test
    function centered at omega_v (width GAUSSIAN_REL_WIDTH*omega_v) and compares
    with the prediction pi*tau*omega_v, the weight of the delta limit.
    The relative error decays as O(1/tau), so each tau doubling should
    halve it.

    Returns
    -------
    list of dict
        One row per tau: {tau, integral, prediction, rel_error,
        ratio_vs_prev} with ratio_vs_prev = None on the first row.
    """
    if not omega_v > 0:
        raise DomainError(f"omega_v must be > 0, got {omega_v}")
    sigma = GAUSSIAN_REL_WIDTH * omega_v
    lo = max(omega_v - 8.0 * sigma, 1e-12 * omega_v)
    hi = omega_v + 8.0 * sigma

    rows: list[dict] = []
    prev_err = None
    for tau in taus:
        traj = LoopTrajectory(tau=tau, alpha=math.inf)

        def integrand(w):
            g = np.exp(-0.5 * ((w - omega_v) / sigma) ** 2)
            return finite_tau_kernel(w, omega_v, traj) * g

        value, _ = integrate_one(integrate_finite, integrand, lo, hi, spec=CONVERGENCE_SPEC)
        prediction = math.pi * tau * omega_v
        rel_error = abs(value - prediction) / prediction
        rows.append(
            {
                "tau": tau,
                "integral": value,
                "prediction": prediction,
                "rel_error": rel_error,
                "ratio_vs_prev": None if prev_err is None else prev_err / rel_error,
            }
        )
        prev_err = rel_error
    return rows


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

    def quad(f, a, b):
        # oscillatory pieces need a deep budget; values scale with the support,
        # so an absolute tolerance holds where a piece nearly cancels
        value, err, *rest = integrate.quad(f, a, b, epsabs=1e-13 * end, epsrel=1e-10,
                                           limit=4000, full_output=1)
        if rest[1:] and err > max(1e-13 * end, 1e-10 * abs(value)):
            raise NonConvergence(f"qhat_numeric did not converge on [{a}, {b}]: err={err:.3e}")
        return value

    def re(t):
        return math.cos(omega_v * loop_position(t, traj) - omega * t) - math.cos(omega * t)

    def im(t):
        return math.sin(omega_v * loop_position(t, traj) - omega * t) + math.sin(omega * t)

    pieces = [(-end, -traj.tau), (-traj.tau, traj.tau), (traj.tau, end)]
    vr = sum(quad(re, a, b) for a, b in pieces)
    vi = sum(quad(im, a, b) for a, b in pieces)
    return complex(vr, vi)


def _coth(x):
    """coth(x) for x > 0, overflow-safe (1.0 at x = inf)."""
    return (1.0 + np.exp(-2.0 * x)) / -np.expm1(-2.0 * x)


def _coth_sum(x, y):
    """coth(x) + coth(y) for x, y > 0 (2.0 at x = y = inf)."""
    return _coth(x) + _coth(y)


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


#: Relative tolerance of `phi_two_channels`' integrals, near the floor QUADPACK accepts.
TWO_CHANNEL_RTOL = 1e-13


def _quad_split(f, a, b, points):
    """Int_a^b f by QUADPACK, split at the points inside (a, b)."""
    inner = sorted({p for p in points if a < p < b})
    return integrate.quad(f, a, b, points=inner or None, epsabs=0.0,
                          epsrel=TWO_CHANNEL_RTOL, limit=2000)[0]


def phi_two_channels(omega, material1, material2, thermal):
    """Phi of two Drude plates at finite T, as its sum and difference channels apart.

    The sum channel Int_0^w Im R1(u) Im R2(w - u) [coth(b u) + coth(b (w - u))] du
    plus both difference terms Int_0^inf Im R_a(u) Im R_c(u + w)
    [coth(b u) - coth(b (u + w))] du, (a, c) = (1, 2) and (2, 1),
    b = beta hbar / 2, each by QUADPACK on a scalar callback, split at
    +-1, 3 and 20 line widths around each line it meets, as the
    benchmark's oracle (`perfbench/make_refs.py`) splits them.  The
    difference terms stop at b u = 80 or 40 line widths past the lines,
    where their factor is below e^-159.  Im R is the Drude formula
    written out, not `surface_response`.
    """
    b = 0.5 * thermal.beta * CONST.hbar

    def im_r(m):
        wsp2, nu = 0.5 * m.omega_p**2, m.nu
        return lambda u: -wsp2 * nu * u / ((wsp2 - u * u) ** 2 + (nu * u) ** 2)

    def around(c, width):
        return [c + k * width for k in (-20, -3, -1, 0, 1, 3, 20)]

    plates = [(im_r(m), m.omega_sp, m.nu) for m in (material1, material2)]
    (f1, sp1, nu1), (f2, sp2, nu2) = plates
    total = _quad_split(lambda u: f1(u) * f2(omega - u) * _coth_sum(b * u, b * (omega - u)),
                        0.0, omega, around(sp1, nu1) + around(omega - sp2, nu2))
    for (fa, sa, na), (fc, sc, nc) in (plates, plates[::-1]):
        def g(u, fa=fa, fc=fc):
            return fa(u) * fc(u + omega) * _coth_diff(b * u, b * omega)

        top = max(80.0 / b, sa + 40.0 * na, sc - omega + 40.0 * nc)
        total += _quad_split(g, 0.0, top, around(sa, na) + around(sc - omega, nc)
                             + [10.0 * omega, 1.0 / b, 10.0 / b])
    return float(total)


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


def delta_lines(omega_sp):
    """-Im R of the sharp plasmon line (nu -> 0 Drude) as ((omega_sp, weight),).

    The weight is pi omega_sp / 2.
    """
    return ((omega_sp, 0.5 * math.pi * omega_sp),)


def h0(s1, s2, thermal, spec=DEFAULT_SPEC):
    """Thermal moment H0 = (pi beta hbar / 2) Int_0^inf s1 s2 / sinh^2(beta m / 2) dm."""
    beta = thermal.beta

    def f(m):
        x = beta * m  # 1/sinh^2(x/2) = 4 e^-x / (1 - e^-x)^2, overflow-safe
        return s1(m) * s2(m) * 4.0 * math.exp(-x) / math.expm1(-x) ** 2

    value, _ = quad_semi_infinite(f, 0.0, 1.0 / beta, spec)
    return 0.5 * math.pi * beta * CONST.hbar * value


def j_zero_t(omega_v, s1, s2, tau, spec=DEFAULT_SPEC):
    """J = 2 pi tau |omega_v| hbar Int_0^|omega_v| s1(hbar w1) s2(hbar (|omega_v| - w1)) dw1."""
    w = abs(omega_v)
    value, _ = quad(
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
    value, _ = quad(lambda w1: r1(w1).imag * r2(w - w1).imag, 0.0, w, spec)
    return value


def angular_moment(power):
    """Circle average <cos^power(phi)> = (1/2pi) Int_0^2pi cos^power(phi) dphi."""
    value, _ = integrate.quad(
        lambda p: math.cos(p) ** power, 0.0, 2.0 * math.pi, epsabs=1e-14, epsrel=1e-13, limit=200
    )
    return value / (2.0 * math.pi)


def radial_moment(n, d, spec=DEFAULT_SPEC):
    """Int_0^inf q^n exp(-2 q d) dq."""
    value, _ = quad_semi_infinite(
        lambda q: q**n * math.exp(-2.0 * q * d), 0.0, 0.5 / d, spec
    )
    return value


def k_moment(power, d, rho1, rho2, spec=DEFAULT_SPEC):
    """Gap moment rho1 rho2 Int d^2k k_x^power e^{-2 q d}: G for power 2, G_P for 4."""
    return rho1 * rho2 * 2.0 * math.pi * angular_moment(power) * radial_moment(power + 1, d, spec)


def tabulate_phi_per_panel(phi, omega_lo, omega_hi, power, kernels, splits=(),
                           rel_tol=DEFAULT_SPEC.rel_tol):
    """`friction.tabulate_phi`, one panel at a time, with one Phi call per panel.

    The reference for the array build, which takes the same arithmetic in
    the same order and so must equal it bit for bit.  Returns the table's
    edges, coefficients (one row per panel) and errors, and its moments
    Int w omega^power (one row per panel, one column per force).
    """
    from casimir_friction.friction import _COS, _FEJER, TABLE_NODES

    transform, fejer = np.array(_COS), np.array(_FEJER)

    def panel(a, b):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        omegas = [math.exp(mid + half * x) for x in _COS[1]]
        values, errors = phi(np.array(omegas))
        h = [float(y) / w**power for y, w in zip(values, omegas)]
        c = (2.0 / TABLE_NODES * (transform * h).sum(axis=1)).tolist()
        c[0] *= 0.5
        tail = max(abs(c[-1]), abs(c[-2]))
        error = tail + max(float(e) / w**power for e, w in zip(errors, omegas))
        moments = half * fejer * np.array(omegas) ** (power + 1) * kernels(np.array(omegas))
        return [a, b, c, error, (tail * moments.sum(axis=1)).tolist(),
                (moments * np.abs(h)).sum(axis=1).tolist(), moments.sum(axis=1).tolist()]

    cuts = sorted(math.log(w) for w in splits if omega_lo < w < omega_hi)
    edges = [math.log(omega_lo), *cuts, math.log(omega_hi)]
    panels = [panel(a, b) for a, b in zip(edges, edges[1:])]
    while True:
        allowed = [rel_tol * sum(sizes) for sizes in zip(*(p[5] for p in panels))]
        short = [j for j, limit in enumerate(allowed)
                 if 0.0 < limit < sum(p[4][j] for p in panels)]
        if not short:
            break
        i = max(range(len(panels)), key=lambda k: max(panels[k][4][j] / allowed[j] for j in short))
        a, b = panels[i][:2]
        panels[i:i + 1] = [panel(a, 0.5 * (a + b)), panel(0.5 * (a + b), b)]
    return ([panels[0][0], *(p[1] for p in panels)], [p[2] for p in panels],
            [p[3] for p in panels], [p[6] for p in panels])


def clenshaw(coeffs, x):
    """sum_k coeffs[k] T_k(x) by Clenshaw's recurrence, one expression per step.

    The reference for `friction._clenshaw`, which takes each step in
    place; on floats it is a plain-Python sum.
    """
    b1 = b2 = 0.0
    x2 = 2.0 * x
    for c in coeffs[:0:-1]:
        b1, b2 = c + x2 * b1 - b2, b1
    return coeffs[0] + x * b1 - b2
