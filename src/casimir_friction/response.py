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

Each Phi value is a nested adaptive quadrature, so a force evaluates
it only at the nodes of a `PhiTable` (`tabulate_phi`):
h = Phi / omega^p (p = 1 at finite T, 3 at T = 0, so that h tends to
Phi_1 or Phi_3) as a piecewise Chebyshev series in log omega, with 16
nodes per panel.  The table is refined globally, one bisection at a
time, until the error its panels' trailing coefficients put into each
force it serves, weighed by that force's kernel, meets the tolerance;
a table that would need more than TABLE_MAX_PANELS (64) panels fails.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence

from .numerics import (
    CONST,
    DEFAULT_SPEC,
    NonConvergence,
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
    if x == math.inf:  # T = 0: the limit, without four transcendental calls
        return 2.0
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

    The sum channel Int_0^{|w_v|} Im R1 Im R2 [coth(b1) + coth(b2)] dw1
    is one integral at every temperature: at T = 0 the factor is
    exactly 2 and the difference channel is closed.  At finite T the
    difference channel opens,

        Int_0^inf Im R1(u) Im R2(u + w) [coth(b(u)) - coth(b(u+w))] du
      + Int_0^inf Im R1(u + w) Im R2(u) [coth(b(u)) - coth(b(u+w))] du,

    which carries the linear-in-v friction as omega_v -> 0.  All factors
    are evaluated in overflow-safe form; the result is >= 0 for passive
    responses (Im R <= 0).
    """
    w = abs(omega_v)
    if w == 0.0:
        return 0.0
    beta = thermal.beta
    half = 0.5 * beta * CONST.hbar

    def sum_channel(w1: float) -> float:
        return im_r1(w1) * im_r2(w - w1) * _coth_sum(half * w1, half * (w - w1))

    plus, _ = integrate_finite(sum_channel, 0.0, w, spec)
    if thermal.is_zero:
        return plus

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


#: Chebyshev nodes per panel of a `PhiTable`.
TABLE_NODES = 16
#: Panels a `PhiTable` may hold.  A table that still misses its tolerance
#: at this many fails, after at most 2 * TABLE_MAX_PANELS panels of
#: TABLE_NODES Phi evaluations each.
TABLE_MAX_PANELS = 64

# cos(pi k (j + 1/2) / n): the first-kind nodes x_j (row k = 1) and the
# transform from node values to Chebyshev coefficients
_COS = [
    [math.cos(math.pi * k * (j + 0.5) / TABLE_NODES) for j in range(TABLE_NODES)]
    for k in range(TABLE_NODES)
]
# Fejer's first rule on the same nodes: Int_-1^1 f dx ~ sum_j _FEJER[j] f(x_j)
_FEJER = [
    2.0 / TABLE_NODES * (1.0 - 2.0 * sum(
        math.cos(2.0 * k * math.pi * (j + 0.5) / TABLE_NODES) / (4.0 * k * k - 1.0)
        for k in range(1, TABLE_NODES // 2 + 1)
    ))
    for j in range(TABLE_NODES)
]


def _chebyshev_coeffs(values: Sequence[float]) -> list[float]:
    """Coefficients c_k of sum_k c_k T_k interpolating ``values`` at the first-kind nodes."""
    scale = 2.0 / TABLE_NODES
    coeffs = [scale * sum(c * f for c, f in zip(row, values)) for row in _COS]
    coeffs[0] *= 0.5
    return coeffs


def _clenshaw(coeffs: Sequence[float], x: float) -> float:
    b1 = b2 = 0.0
    for c in reversed(coeffs[1:]):
        b1, b2 = c + 2.0 * x * b1 - b2, b1
    return coeffs[0] + x * b1 - b2


@dataclass(frozen=True)
class PhiTable:
    """Phi(omega) on [omega_lo, omega_hi] as a piecewise Chebyshev series.

    Each panel [edges[i], edges[i+1]] of s = log omega holds the
    coefficients of h(s) = Phi(omega) / omega^power, and ``errors[i]``,
    the size of its two trailing coefficients, which estimates
    |h_table - h| on it.  Below omega_lo the head
    Phi = head * omega^power continues the table; above omega_hi Phi is
    taken as 0 (the Bessel kernel that weighs it is below e^-60 there).
    """

    omega_lo: float
    omega_hi: float
    edges: tuple[float, ...]
    coeffs: tuple[tuple[float, ...], ...]
    errors: tuple[float, ...]
    power: int
    head: float

    def _panel(self, s: float) -> int:
        return min(max(bisect_right(self.edges, s) - 1, 0), len(self.coeffs) - 1)

    def __call__(self, omega: float) -> float:
        if omega < self.omega_lo:
            return self.head * omega**self.power
        if omega > self.omega_hi:
            return 0.0
        s = math.log(omega)
        i = self._panel(s)
        a, b = self.edges[i], self.edges[i + 1]
        return _clenshaw(self.coeffs[i], (2.0 * s - a - b) / (b - a)) * omega**self.power

    def error(self, omega: float) -> float:
        """Estimated |Phi_table - Phi| at omega (the first panel's below omega_lo)."""
        if omega > self.omega_hi:
            return 0.0
        return self.errors[self._panel(math.log(omega))] * omega**self.power


@dataclass(frozen=True)
class _Panel:
    """A panel [a, b] of s = log omega and what it contributes to each force it serves."""

    a: float
    b: float
    coeffs: tuple[float, ...]
    tail: float
    errors: tuple[float, ...]  # per force: tail * Int kernel omega^power d omega
    sizes: tuple[float, ...]  # per force: Int kernel |Phi| d omega


def tabulate_phi(
    phi: Callable[[float], float],
    omega_lo: float,
    omega_hi: float,
    power: int,
    kernels: Sequence[Callable[[float], float]],
    splits: Sequence[float] = (),
    rel_tol: float = DEFAULT_SPEC.rel_tol,
) -> PhiTable:
    """Tabulate ``phi`` on [omega_lo, omega_hi] as a `PhiTable` for the forces it serves.

    Each of ``kernels`` is the weight w(omega) by which one force
    integrates Phi, Int w Phi d omega up to a constant factor.  The
    range is cut at the ``splits`` inside it (resonances, where h
    changes fastest), and each panel holds TABLE_NODES first-kind
    Chebyshev nodes.  A panel's tail, the larger of its two trailing
    coefficients, estimates |h_table - h| on it; for each force the
    panel adds tail * Int w omega^power to the force's error and
    Int w |Phi| to its size (Fejer's rule on the panel's nodes).
    Refinement is global: while some force's error exceeds rel_tol
    times its size, the panel that carries the largest share of such a
    force's allowance is bisected.  A force whose Phi is 0 at every
    node it weighs sets no demand.

    Raises
    ------
    NonConvergence
        With level "omega1", naming the omega interval of the panel
        that would be bisected when the table already holds
        TABLE_MAX_PANELS panels, or of a panel on which Phi is not
        finite.
    """

    def panel(a: float, b: float) -> _Panel:
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        omegas = [math.exp(mid + half * x) for x in _COS[1]]
        h = [phi(w) / w**power for w in omegas]
        c = _chebyshev_coeffs(h)
        tail = max(abs(c[-1]), abs(c[-2]))
        if not math.isfinite(tail):
            raise NonConvergence(
                f"Phi is not finite on omega in [{math.exp(a)!r}, {math.exp(b)!r}]",
                level="omega1",
            )
        # d omega = omega ds on s = mid + half x
        moments = [
            [half * q * kernel(w) * w ** (power + 1) for q, w in zip(_FEJER, omegas)]
            for kernel in kernels
        ]
        return _Panel(
            a, b, tuple(c), tail,
            tuple(tail * sum(m) for m in moments),
            tuple(sum(x * abs(y) for x, y in zip(m, h)) for m in moments),
        )

    s_lo, s_hi = math.log(omega_lo), math.log(omega_hi)
    cuts = sorted(math.log(w) for w in splits if omega_lo < w < omega_hi)
    panels = [panel(a, b) for a, b in zip([s_lo, *cuts], [*cuts, s_hi])]
    while True:
        allowed = [rel_tol * sum(p.sizes[j] for p in panels) for j in range(len(kernels))]
        short = [j for j, limit in enumerate(allowed)
                 if 0.0 < limit < sum(p.errors[j] for p in panels)]
        if not short:
            break
        i = max(range(len(panels)),
                key=lambda k: max(panels[k].errors[j] / allowed[j] for j in short))
        a, b = panels[i].a, panels[i].b
        if len(panels) == TABLE_MAX_PANELS:
            raise NonConvergence(
                f"Phi table did not reach rel_tol={rel_tol:g} on omega in "
                f"[{math.exp(a)!r}, {math.exp(b)!r}] within {TABLE_MAX_PANELS} panels",
                level="omega1",
            )
        mid = 0.5 * (a + b)
        panels[i:i + 1] = [panel(a, mid), panel(mid, b)]
    coeffs = tuple(p.coeffs for p in panels)
    return PhiTable(
        omega_lo, omega_hi, (s_lo, *(p.b for p in panels)), coeffs,
        tuple(p.tail for p in panels), power, _clenshaw(coeffs[0], -1.0),
    )
