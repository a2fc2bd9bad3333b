"""The thermally weighted dissipation integral Phi(omega) and its small-omega limits.

A single pair of oscillators in thermal equilibrium dissipates through
two channels, the sum frequency omega_1 + omega_2 with the thermal
factor F_+ = coth(b_1) + coth(b_2) and the difference frequency
|omega_1 - omega_2| with F_- = |coth(b_1) - coth(b_2)|, where
b_i = beta hbar omega_i / 2.  At T = 0, F_+ -> 2 and F_- -> 0: the
difference channel closes and only co-excitation of both oscillators
dissipates.  (The single-pair response function phi(t) these factors
come from is the test oracle `tests/oracles.py`.)

Summed over continuous oscillator spectra, the pair amplitudes become
the surface responses (the oscillator density -Im R/(2 pi^2 rho) enters
squared against rho^2 and cancels), and the dissipation at sliding
frequency omega is the thermally weighted integral

    Phi(omega) = Int_0^omega Im R1(w1) Im R2(omega - w1) F_+ dw1
               + (difference channel, |omega_1 - omega_2| = omega, weight F_-),

computed by `im_r_dissipation_integral`.  Its small-omega limits carry
the closed-form regimes:

    finite T:  Phi -> Phi_1 omega,
        Phi_1 = beta hbar Int_0^inf Im R1 Im R2 / sinh^2(beta hbar w / 2) dw
        (the difference channel; `phi_slope`),

    T = 0:     Phi -> Phi_3 omega^3 for linear heads Im R = -c omega,
        Phi_3 = c1 c2 / 3 (the sum channel alone).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .numerics import (
    CONST,
    DEFAULT_SPEC,
    QuadratureSpec,
    integrate_finite,
    integrate_semi_infinite,
)


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
        tail, _ = integrate_semi_infinite(g, split, scale, spec)
        return head + tail

    minus = diff_channel(im_r1, im_r2)
    if im_r1 is im_r2:
        minus *= 2.0
    else:
        minus += diff_channel(im_r2, im_r1)
    return plus + minus


def phi_slope(
    im_r1: Callable[[float], float],
    im_r2: Callable[[float], float],
    thermal: ThermalState,
    nodes: Sequence[float] = (0.0, math.inf),
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> tuple[float, float]:
    """Small-omega slope Phi_1 = lim Phi(omega)/omega of `im_r_dissipation_integral`.

    Phi_1 = beta hbar Int Im R1 Im R2 / sinh^2(beta hbar w / 2) dw over
    [nodes[0], nodes[-1]], cut at beta hbar w = 60, where the thermal
    factor has fallen below 1e-25.  Zero at T = 0, where the linear
    channel closes.  The integral is taken cell by cell between the
    increasing ``nodes``: a tabulated material passes its grid, whose
    nodes are kinks of the interpolated Im R that one adaptive rule
    across many of them cannot resolve.

    Returns
    -------
    (value, err_estimate) : tuple of float
        The error estimate is the sum of the cells' estimates.
    """
    beta_hbar = thermal.beta * CONST.hbar
    hi = min(float(nodes[-1]), 60.0 / beta_hbar)
    edges = [float(w) for w in nodes if w < hi] + [hi]
    if len(edges) < 2:
        return 0.0, 0.0

    def f(w: float) -> float:
        return im_r1(w) * im_r2(w) * _inv_sinh_sq(0.5 * beta_hbar * w)

    value = err = 0.0
    for a, b in zip(edges, edges[1:]):
        cell, cell_err = integrate_finite(f, a, b, spec)
        value += cell
        err += cell_err
    return beta_hbar * value, beta_hbar * err
