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
squared against rho^2 and cancels).  Im R and coth are odd, so both
channels are one integral over the real line,

    Phi(omega) = Int Im R1(u) Im R2(omega - u) [coth(b u) + coth(b (omega - u))] du,

b = beta hbar / 2: u in (0, omega) is the sum channel, u < 0 and
u > omega the difference channel.  Its small-omega limits carry the
closed-form regimes:

    finite T:  Phi -> Phi_1 omega,
        Phi_1 = beta hbar Int_0^inf Im R1 Im R2 / sinh^2(beta hbar w / 2) dw
        (the difference channel; `phi_slope`),

    T = 0:     Phi -> Phi_3 omega^3 for linear heads Im R = -c omega,
        Phi_3 = c1 c2 / 3 (the sum channel alone).

`im_r_dissipation_integral` integrates Phi folded at omega/2, at an
array of omega in one call of the package's G7/K15 rule
(`numerics.integrate_finite`), each value with its error estimate and
to PHI_TOL (1e-3) of the tolerance its force asks for.  Phi takes
Drude plates only: it integrates Im R from omega = 0, below the first
node of any tabulated material, and a table is not extrapolated.
`phi_slope` uses the same rule, and integrates a tabulated material
over its own grid.

For lossy, underdamped Drude plates (omega_p > 0, 0 < nu < 2 omega_sp)
Phi needs no quadrature where a closed form holds the tolerance
(`_phi0`, loaded at the first Phi).  Im R is four simple poles at
+-Omega +- i nu/2, so Phi is a sum over the 8 poles of its integrand:
of digamma functions at finite T, by the Mittag-Leffler series of coth,
and of logarithms at T = 0, their limit.  Each pole is taken with its
conjugate, so that the sum carries the widths nu1 nu2 that Phi is of
order in off the lines.  It is used from half the smaller omega_sp up,
at every T; below, its terms cancel as omega^2 / omega_sp^2.  There, at
finite T, Phi is its small-omega series, sum_n phi_n omega^n over odd n,
from the power series of Im R inside omega_sp and the moments of the
Bose factors; it is asymptotic in k_B T / hbar omega_sp, and misses the
thermal weight of the lines, which its bound takes in.  Each form carries
a bound, calibrated against 40-digit arithmetic, and is used only where
that bound is within Phi's tolerance, and the node's error is that
bound.  At the 1e-9 of a force's table the pole sum takes every omega
from half the smaller omega_sp up, at T = 0 and at 1 K to 1e4 K, for
lines 1e-9 to 1.99 omega_sp wide; it may leave to the quadrature only
omegas within 1e-2 of Omega_1 + Omega_2, where a pair of its poles
merges and two of its terms are 0/0.  The series takes every omega below
omega_sp / 2 up to 300 K for lines 1e-3 to 0.3 omega_sp wide, and at
3000 K it leaves those near omega_sp / 2 to the quadrature.  The
quadrature takes only the omegas that remain: at T = 0, all those below
half the smaller omega_sp.

A force reads Phi from a table of it (`friction.tabulate_phi`), which
asks for the nodes of all the panels of one refinement step in one call.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

from .material import Drude, surface_response
from .numerics import (
    CONST,
    DEFAULT_SPEC,
    DomainError,
    FloatFailure,
    NonConvergence,
    QuadratureSpec,
    integrate_finite,
    np,
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


def _coth_diff(x, delta):
    """coth(x) - coth(x + delta) for x, delta > 0, without cancellation.

    Uses coth(x) - coth(y) = 2 (e^-2x - e^-2y) / ((1-e^-2x)(1-e^-2y))
    with the numerator factored through expm1; delta is taken exactly
    rather than as a difference of two large arguments.  0 at x = inf.
    """
    num = -2.0 * np.exp(-2.0 * x) * np.expm1(-2.0 * delta)
    return num / (np.expm1(-2.0 * x) * np.expm1(-2.0 * (x + delta)))


def _inv_sinh_sq(x):
    """1/sinh(x)^2 for x > 0, overflow-safe: 4 e^-2x / (1 - e^-2x)^2."""
    return 4.0 * np.exp(-2.0 * x) / np.expm1(-2.0 * x) ** 2


#: Relative tolerance of each Phi value, as a fraction of the ``rel_tol``
#: its force is asked for.  The Kronrod pair converges geometrically, so the
#: extra digits are cheap, and the error of Phi then stays out of the way of
#: the table's and the k_x integral's.
PHI_TOL = 1e-3
#: The tightest tolerance of a Phi value.  Near a resonance of relative
#: width nu/omega_sp the rounding of Im R is about eps omega_sp/nu (1e-12 for
#: a line 1e-3 eV wide), and the Kronrod-Gauss differences cannot fall below it.
_PHI_TOL_FLOOR = 1e-12


def _resonances(material: Drude):
    """The graded resonance (omega_sp, nu) of a lossy Drude metal, if it has one."""
    if material.omega_p > 0.0 and material.nu > 0.0:
        return ((material.omega_sp, material.nu),)
    return ()


def _im_r(material: Drude, omega):
    return surface_response(material, omega).imag


def require_plates(material1: Drude, material2: Drude, thermal: ThermalState) -> float:
    """b = beta hbar / 2 of Phi between these plates at this T, once Phi's checks pass.

    Raises TypeError, DomainError and FloatFailure as
    `im_r_dissipation_integral` documents, in that order.
    """
    if not (isinstance(material1, Drude) and isinstance(material2, Drude)):
        raise TypeError("Phi (the general force) requires Drude plates: it integrates Im R "
                        "from omega = 0, below the first node of a tabulated material, "
                        "which is not extrapolated")
    for m in (material1, material2):
        # omega_p^2 and omega_sp^2 = omega_p^2 / 2 are formed by surface_response
        square = m.omega_p * m.omega_p
        if m.omega_p and not (square < math.inf and 0.5 * square >= sys.float_info.min):
            raise DomainError(f"Phi needs omega_p^2 and omega_sp^2 = omega_p^2 / 2 inside the "
                              f"float range, got omega_p = {m.omega_p!r} rad/s")
    half = 0.5 * thermal.beta * CONST.hbar
    scale = 1.0 / half  # the thermal scale 2/(beta hbar); 0 at T = 0
    if not (thermal.is_zero or math.isfinite(60.0 * scale)):
        raise FloatFailure(f"thermal scale 2 k_B T / hbar = {scale!r} rad/s at "
                           f"T = {thermal.temperature!r} K is past the float range", "omega1")
    return half


def im_r_dissipation_integral(
    omega_v,
    material1: Drude,
    material2: Drude,
    thermal: ThermalState,
    spec: QuadratureSpec = DEFAULT_SPEC,
):
    """Phi at each omega_v: the thermally weighted Im R (x) Im R integral over the real line.

    Phi = Int Im R1(u) Im R2(w - u) [coth(b u) + coth(b (w - u))] du,
    b = beta hbar / 2, is symmetric about w/2 with the plates swapped,
    and is integrated folded there, over u from -60/b to w/2:

        Int [Im R1(|u|) Im R2(w - u) + Im R2(|u|) Im R1(w - u)] g(u) du,
        g(u) = coth(b |u|) - coth(b (w - u))      (u < 0),
        g(u) = 2 + 2 n(u) + 2 n(w - u)            (u > 0),

    n(u) = 1/expm1(2 b u).  Below 0 is the difference channel, which
    carries the linear-in-v friction as omega_v -> 0, and is closed at
    T = 0; at -60/b its factor has fallen below e^-120.  Above 0 is the
    sum channel, whose factor is 2 at T = 0.  For lossy, underdamped
    Drude plates Phi is taken without quadrature at each omega where a
    closed form holds the tolerance (`_phi0.closed_form`: the pole sum
    from half the smaller omega_sp up, which takes every omega there at
    the 1e-9 of a force's table, and at finite T the small-omega series
    below), and the rule integrates the others: at T = 0 the omegas below
    half the smaller omega_sp, those the series refuses, overdamped plates,
    and the omegas right next to the merge Omega_1 + Omega_2 of a pair
    of poles.  For equal plates
    (``material2 is material1``) the two products are one, doubled.  Far
    above the resonances the fold meets each line at a small |u|, not at
    a difference w - u rounded on the scale of w.

    The integral at every omega is a composite G7/K15 rule refined by
    bisection, all of them in one call of `integrate_finite`.  The
    starting segments are split at 0, so that each lies on one side
    of it, and graded toward each feature of the integrand, at
    c +- width 2^k: a Drude plate's resonance (width nu) at +-omega_sp
    and at omega - omega_sp, and at finite T the thermal scale
    2/(beta hbar) from 0.  Each value is converged to
    PHI_TOL * ``spec.rel_tol``, or 1e-12 if that is larger.  All
    factors are evaluated in overflow-safe form; the result is >= 0
    for passive responses (Im R <= 0).

    Parameters
    ----------
    omega_v : float or array of float
        Sliding frequencies; Phi is even in omega_v.

    Returns
    -------
    (Phi, err_estimate)
        Floats for a scalar omega_v, else arrays of its shape; the error
        is the sum of the segments' |K15 - G7|, or the bound of the
        closed form where Phi is taken without quadrature.

    Raises
    ------
    DomainError
        If an omega_v is not finite, or a plate's omega_p^2 or
        omega_sp^2 = omega_p^2 / 2 leaves the float range.
    TypeError
        If a plate is not a Drude metal: Phi needs Im R on all of
        (0, omega), and a tabulated material has none below its first node.
    NonConvergence
        With level "omega1", naming the omega at which the integral
        failed (`integrate_finite`) and the channel (the side of 0) of
        its failing segment.
    FloatFailure
        With level "omega1", if the thermal scale 2 k_B T / hbar overflows.
    """
    half = require_plates(material1, material2, thermal)
    with np.errstate(all="ignore"):
        omega = np.abs(np.asarray(omega_v, dtype=float))
        omegas = omega.ravel()
        if not np.isfinite(omegas).all():
            bad = np.asarray(omega_v, dtype=float).ravel()[~np.isfinite(omegas)][0]
            raise DomainError(f"Phi needs a finite omega, got {float(bad)!r}")
        scale = 1.0 / half  # the thermal scale 2/(beta hbar); 0 at T = 0
        tol = max(PHI_TOL * spec.rel_tol, _PHI_TOL_FLOOR)
        # compiled at the first Phi, not on the import of a closed-form CLI call
        from ._phi0 import closed_form

        phi, err, closed = closed_form(omegas, material1, material2, half, tol)
        rest = np.flatnonzero(~closed)
        res1, res2 = _resonances(material1), _resonances(material2)
        # nothing left to integrate: the closed form took every omega, or a
        # plate has no loss, and so Im R = 0 (off the pole of a lossless one)
        if not (rest.size and res1 and res2):
            return _shaped(phi, err, omega.shape)
        left = omegas[rest]
        lines = dict.fromkeys(res1 + res2)
        # the thermal scale has no width at T = 0, where it adds no breakpoint
        graded = [(x, w) for c, w in lines for x in (c, -c, left - c)] + [(0.0, scale)]

        def integrand(u, o):
            w = left[o][:, None]
            low, high = np.abs(u), w - u
            if material2 is material1:  # both orders are one product
                y = _im_r(material1, low) * _im_r(material1, high)
                y += y
            else:
                y = (_im_r(material1, low) * _im_r(material2, high)
                     + _im_r(material2, low) * _im_r(material1, high))
            # each segment lies on one side of 0: the difference channel below it
            below = u[:, 0] < 0.0
            y[below] *= _coth_diff(half * low[below], half * w[below])
            above = ~below
            y[above] *= (2.0 + 2.0 / np.expm1(2.0 * half * u[above])
                         + 2.0 / np.expm1(2.0 * half * high[above]))
            return y

        try:  # cut at 0, so that each segment lies on one side of it
            phi[rest], err[rest] = integrate_finite(integrand, -60.0 * scale, 0.5 * left,
                                                    QuadratureSpec(rel_tol=tol),
                                                    np.zeros((rest.size, 1)), graded)
        except NonConvergence as exc:
            side = "difference" if exc.interval[1] <= 0.0 else "sum"
            raise NonConvergence(f"Phi ({side} channel) {exc} at omega={float(left[exc.index])!r}",
                                 level="omega1") from exc
        return _shaped(phi, err, omega.shape)


def _shaped(phi, err, shape):
    """Phi and its error at the flattened omegas: floats for a scalar omega, else in its shape."""
    if not shape:
        return float(phi[0]), float(err[0])
    return phi.reshape(shape), err.reshape(shape)


def phi_slope(
    im_r1: Callable,
    im_r2: Callable,
    thermal: ThermalState,
    nodes: Sequence[float] = (0.0, math.inf),
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> tuple[float, float]:
    """Small-omega slope Phi_1 = lim Phi(omega)/omega of `im_r_dissipation_integral`.

    Phi_1 = beta hbar Int Im R1 Im R2 / sinh^2(beta hbar w / 2) dw over
    [nodes[0], nodes[-1]], cut at beta hbar w = 60, where the thermal
    factor has fallen below 1e-25.  Zero at T = 0, where the linear
    channel closes.  ``im_r1`` and ``im_r2`` take arrays of omega.  The
    integral is the composite G7/K15 rule of `im_r_dissipation_integral`,
    refined to ``spec.rel_tol``, on segments cut at the increasing
    ``nodes`` (a tabulated material passes its grid, whose nodes are
    kinks of the interpolated Im R) and graded from 0 on the thermal
    scale 2/(beta hbar).

    Returns
    -------
    (value, err_estimate) : tuple of float
        The error estimate is the sum of the segments' |K15 - G7|.

    Raises
    ------
    NonConvergence
        With level "omega1", if the integral fails (`integrate_finite`).
    """
    beta_hbar = thermal.beta * CONST.hbar
    lo, hi = float(nodes[0]), min(float(nodes[-1]), 60.0 / beta_hbar)
    if not lo < hi:
        return 0.0, 0.0

    def integrand(w, _):
        return im_r1(w) * im_r2(w) * _inv_sinh_sq(0.5 * beta_hbar * w)

    try:
        with np.errstate(all="ignore"):
            value, err = integrate_finite(integrand, lo, hi, spec, [nodes],
                                          [(0.0, 2.0 / beta_hbar)])
    except NonConvergence as exc:
        raise NonConvergence(f"Phi_1 {exc} on [{lo!r}, {hi!r}]", level="omega1") from exc
    return beta_hbar * float(value[0]), beta_hbar * float(err[0])
