"""Oscillator response function and the dissipation spectral functions J(omega_v).

For a pair of oscillators (frequencies omega_1, omega_2, polarizability
volumes alpha_1, alpha_2) in thermal equilibrium at inverse temperature
beta, the causal response function is

    phi(t) = C_- sin(omega_- t) + C_+ sin(omega_+ t),   t > 0,
    omega_+- = |omega_1 +- omega_2|,
    C_+- = (hbar omega_1 omega_2 alpha_1 alpha_2 / 4) * F_+-,

with thermal occupation factors written stably in terms of coth,

    F_+ = coth(b_1) + coth(b_2),     F_- = |coth(b_1) - coth(b_2)|,
    b_i = beta hbar omega_i / 2.

At T = 0, F_+ -> 2 and F_- -> 0: the difference channel closes and only
co-excitation of both oscillators dissipates.

Extended to continuous oscillator spectra s(m) = m^2 alpha_I(m^2), the
dissipated "one-pair" spectral function at sliding frequency omega_v is

    linear (small v, finite T):  J = 2 tau omega_v^2 H0,
        H0 = (pi beta hbar / 2) Int s1(m) s2(m) / sinh^2(beta m / 2) dm,

    zero temperature:  J = 2 pi tau |omega_v| hbar
        Int_0^{|omega_v|} s1(hbar w1) s2(hbar (|omega_v| - w1)) dw1,

and, in full generality at finite T, both a sum channel
(omega_1 + omega_2 = |omega_v|, weight F_+) and a difference channel
(|omega_1 - omega_2| = |omega_v|, weight F_-); the difference channel
reduces exactly to the linear J as omega_v -> 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .numerics import (
    CONST,
    DEFAULT_SPEC,
    DomainError,
    QuadratureSpec,
    integrate_finite,
    integrate_semi_infinite,
)
from .material import (
    ContinuousSpectralDensity,
    DeltaLines,
    DrudeSmallM,
    SpectralDensity,
    SpectrumCutoffExceeded,
)

#: The Bose-type integral Int_0^inf x^2 e^-x/(1-e^-x)^2 dx = pi^2/3.
BOSE_INTEGRAL = math.pi**2 / 3.0


@dataclass(frozen=True)
class ThermalState:
    """Equilibrium temperature, with an explicit T = 0 mode."""

    temperature: float | None  # K; None means T = 0

    def __post_init__(self):
        t = self.temperature
        if t is not None and not (t > 0 and math.isfinite(t)):
            raise ValueError(f"temperature must be finite and > 0 K, got {t}")

    @classmethod
    def finite(cls, temperature: float) -> "ThermalState":
        return cls(temperature=float(temperature))

    @classmethod
    def zero(cls) -> "ThermalState":
        return cls(temperature=None)

    @property
    def is_zero(self) -> bool:
        return self.temperature is None

    @property
    def beta(self) -> float:
        """Inverse temperature 1/(k_B T) in 1/J; +inf at T = 0."""
        if self.temperature is None:
            return math.inf
        return 1.0 / (CONST.k_B * self.temperature)


class ResponseCoeffs(NamedTuple):
    omega_minus: float
    omega_plus: float
    C_minus: float
    C_plus: float
    H: float


def _coth_sum(x: float, y: float) -> float:
    """coth(x) + coth(y) for x, y > 0 (2.0 at x = y = inf)."""
    return (1.0 + math.exp(-2.0 * x)) / -math.expm1(-2.0 * x) + (
        1.0 + math.exp(-2.0 * y)
    ) / -math.expm1(-2.0 * y)


def _coth_diff(x: float, delta: float) -> float:
    """coth(x) - coth(x + delta) for x, delta > 0, without cancellation.

    Uses coth(x) - coth(y) = 2 (e^-2x - e^-2y) / ((1-e^-2x)(1-e^-2y))
    with the numerator factored through expm1; delta is taken exactly
    rather than as a difference of two large arguments.
    """
    if math.isinf(x):
        return 0.0
    y = x + delta
    ex = math.expm1(-2.0 * x)
    ey = math.expm1(-2.0 * y) if not math.isinf(y) else -1.0
    num = -2.0 * math.exp(-2.0 * x) * math.expm1(-2.0 * delta)
    return num / (ex * ey)


def _inv_sinh_sq(x: float) -> float:
    """1/sinh(x)^2 for x > 0, overflow-safe: 4 e^-2x / (1 - e^-2x)^2."""
    if math.isinf(x):
        return 0.0
    return 4.0 * math.exp(-2.0 * x) / math.expm1(-2.0 * x) ** 2


def response_coeffs(
    omega1: float,
    omega2: float,
    alpha1: float,
    alpha2: float,
    thermal: ThermalState,
) -> ResponseCoeffs:
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
            CONST.hbar
            * base
            * 4.0
            * math.exp(-(b1 + b2))
            / (-math.expm1(-2.0 * b1) * -math.expm1(-2.0 * b2))
        )
    return ResponseCoeffs(
        omega_minus=abs(omega1 - omega2),
        omega_plus=omega1 + omega2,
        C_minus=c_minus,
        C_plus=c_plus,
        H=h,
    )


def phi(
    t: float,
    omega1: float,
    omega2: float,
    alpha1: float,
    alpha2: float,
    thermal: ThermalState,
) -> float:
    """Causal response function; zero for t < 0."""
    if t < 0:
        return 0.0
    c = response_coeffs(omega1, omega2, alpha1, alpha2, thermal)
    return c.C_minus * math.sin(c.omega_minus * t) + c.C_plus * math.sin(c.omega_plus * t)


def _as_density(spectrum: SpectralDensity) -> Callable[[float], float]:
    if isinstance(spectrum, DeltaLines):
        raise TypeError("delta-line spectra are handled symbolically, not pointwise")
    return spectrum


def h0_linear(
    spectrum: SpectralDensity,
    thermal: ThermalState,
    spectrum2: SpectralDensity | None = None,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> float:
    """Thermal spectral moment H0 = (pi beta hbar / 2) Int s1 s2 / sinh^2(beta m/2) dm.

    For two linear-head densities the closed form
    H0 = (2 pi hbar / beta^2) D1 D2 * (pi^2/3) is used; otherwise the
    integral is evaluated with a semi-infinite transform on the thermal
    decay scale 1/beta (restricted to the densities' support).
    """
    if thermal.is_zero:
        return 0.0
    s2 = spectrum if spectrum2 is None else spectrum2
    beta = thermal.beta

    if isinstance(spectrum, DrudeSmallM) and isinstance(s2, DrudeSmallM):
        return (
            2.0 * math.pi * CONST.hbar / beta**2
            * spectrum.slope * s2.slope * BOSE_INTEGRAL
        )

    f1, f2 = _as_density(spectrum), _as_density(s2)
    lo, hi = 0.0, math.inf
    for s in (spectrum, s2):
        if isinstance(s, ContinuousSpectralDensity):
            lo = max(lo, s.omega_support[0] * CONST.hbar)
            hi = min(hi, s.omega_support[1] * CONST.hbar)

    def integrand(m: float) -> float:
        return f1(m) * f2(m) * _inv_sinh_sq(0.5 * beta * m)

    if math.isinf(hi):
        value, _ = integrate_semi_infinite(integrand, lo, spec.with_scale(1.0 / beta))
    else:
        # bounded support: never evaluate past the grid; the thermal factor
        # kills the integrand beyond m ~ 60/beta anyway
        hi_eff = min(hi, 60.0 / beta)
        if hi_eff <= lo:
            return 0.0
        value, _ = integrate_finite(integrand, lo, hi_eff, spec)
    return 0.5 * math.pi * beta * CONST.hbar * value


def j_linear(
    omega_v: float,
    spectrum: SpectralDensity,
    thermal: ThermalState,
    tau: float,
    spectrum2: SpectralDensity | None = None,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> float:
    """Linear-regime dissipation spectral function J = 2 tau omega_v^2 H0.

    Requires a finite temperature: the linear channel closes at T = 0.
    """
    if thermal.is_zero:
        raise DomainError("j_linear requires finite temperature")
    if omega_v == 0.0:
        return 0.0
    return 2.0 * tau * omega_v**2 * h0_linear(spectrum, thermal, spectrum2, spec)


def _check_cutoff(spectrum: SpectralDensity, omega_v: float) -> None:
    if isinstance(spectrum, DrudeSmallM):
        if CONST.hbar * omega_v > spectrum.m_max:
            raise SpectrumCutoffExceeded(
                f"hbar*|omega_v| = {CONST.hbar * omega_v:.4e} J exceeds the "
                f"linear-head cutoff m_max = {spectrum.m_max:.4e} J"
            )
    elif isinstance(spectrum, ContinuousSpectralDensity):
        lo, hi = spectrum.omega_support
        if lo > 0.0 or hi < omega_v:
            raise SpectrumCutoffExceeded(
                f"spectral density support ({lo:.4e}, {hi:.4e}) rad/s does not "
                f"cover the convolution range (0, {omega_v:.4e})"
            )


def j_zero_t(
    omega_v: float,
    spectrum1: SpectralDensity,
    spectrum2: SpectralDensity,
    tau: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> float:
    """Zero-temperature dissipation spectral function.

    J = 2 pi tau |omega_v| hbar Int_0^{|w_v|} s1(hbar w1) s2(hbar w2) dw1,
    w2 = |omega_v| - w1.  For two linear heads this reduces to
    (pi/3) tau hbar^3 D1 D2 omega_v^4.

    Raises
    ------
    SpectrumCutoffExceeded
        If |omega_v| probes energies beyond a density's validity range
        (onset of the larger-velocity regime).
    """
    w = abs(omega_v)
    if w == 0.0:
        return 0.0
    _check_cutoff(spectrum1, w)
    _check_cutoff(spectrum2, w)
    f1, f2 = _as_density(spectrum1), _as_density(spectrum2)

    def integrand(w1: float) -> float:
        return f1(CONST.hbar * w1) * f2(CONST.hbar * (w - w1))

    value, _ = integrate_finite(integrand, 0.0, w, spec)
    return 2.0 * math.pi * tau * w * CONST.hbar * value


class DeltaConvolution(NamedTuple):
    """Symbolic convolution of two delta-line spectra: weight * delta(|omega_v| - support)."""

    weight: float
    support: float


def j_general_convolution(
    omega_v: float,
    R1: Callable[[float], complex] | DeltaLines,
    R2: Callable[[float], complex] | DeltaLines,
    spec: QuadratureSpec = DEFAULT_SPEC,
):
    """Surface-response convolution Int_0^{|w_v|} Im R1(w1) Im R2(|w_v| - w1) dw1.

    Parameters
    ----------
    omega_v : float
        Sliding frequency (rad/s); only |omega_v| matters.
    R1, R2 : callable or DeltaLines
        Surface response functions omega -> complex R(omega), or
        delta-line spectra handled analytically.

    Returns
    -------
    float for continuous responses (non-negative for passive media);
    DeltaConvolution for a pair of delta lines, e.g. a single line at
    omega_sp gives weight (pi/2 omega_sp)^2 supported at 2 omega_sp.
    """
    w = abs(omega_v)
    if isinstance(R1, DeltaLines) and isinstance(R2, DeltaLines):
        terms = [
            (wa + wb, ka * kb)
            for wa, ka in R1.lines
            for wb, kb in R2.lines
        ]
        if len(terms) != 1:
            raise NotImplementedError("multi-line convolutions not supported")
        return DeltaConvolution(weight=terms[0][1], support=terms[0][0])
    if isinstance(R1, DeltaLines) or isinstance(R2, DeltaLines):
        raise TypeError("mixed delta-line/continuous convolution not supported")
    if w == 0.0:
        return 0.0

    def integrand(w1: float) -> float:
        return R1(w1).imag * R2(w - w1).imag

    value, _ = integrate_finite(integrand, 0.0, w, spec)
    return value


def im_r_dissipation_integral(
    omega_v: float,
    im_r1: Callable[[float], float],
    im_r2: Callable[[float], float],
    thermal: ThermalState,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> float:
    """Thermally weighted Im R (x) Im R integral over both resonance channels.

    At T = 0 this is 2 Int_0^{|w_v|} Im R1 Im R2 dw1 (sum channel only).
    At finite T the sum channel acquires the stimulated factor
    coth(b1) + coth(b2) and the difference channel opens,

        Int_0^inf Im R1(u) Im R2(u + w) [coth(b(u)) - coth(b(u+w))] du
      + Int_0^inf Im R1(u + w) Im R2(u) [coth(b(u)) - coth(b(u+w))] du,

    which carries the linear-in-v friction as omega_v -> 0.  All factors
    are evaluated in overflow-safe form; the result is >= 0 for passive
    responses (Im R <= 0).
    """
    w = abs(omega_v)
    if w == 0.0:
        return 0.0
    if thermal.is_zero:
        value, _ = integrate_finite(
            lambda w1: im_r1(w1) * im_r2(w - w1), 0.0, w, spec
        )
        return 2.0 * value

    beta = thermal.beta
    half = 0.5 * beta * CONST.hbar

    def sum_channel(w1: float) -> float:
        return im_r1(w1) * im_r2(w - w1) * _coth_sum(half * w1, half * (w - w1))

    plus, _ = integrate_finite(sum_channel, 0.0, w, spec)

    # Difference channel: the coth difference confines u to the thermal
    # window, decaying on the scale 2/(beta hbar) in omega.
    scale = 2.0 / (beta * CONST.hbar)

    gap = half * w

    def diff_channel(f_low, f_high):
        def g(u: float) -> float:
            if u <= 0.0:
                return 0.0
            return f_low(u) * f_high(u + w) * _coth_diff(half * u, gap)

        # the knee at u ~ w can sit far below the thermal scale; integrate
        # it on its own scale before transforming the tail
        split = 10.0 * w
        head, _ = integrate_finite(g, 0.0, split, spec)
        tail, _ = integrate_semi_infinite(g, split, spec.with_scale(scale))
        return head + tail

    minus = diff_channel(im_r1, im_r2)
    if im_r1 is im_r2:
        minus *= 2.0
    else:
        minus += diff_channel(im_r2, im_r1)
    return plus + minus
