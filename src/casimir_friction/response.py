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

`im_r_dissipation_integral` takes an array of omega and integrates
every channel at every omega in one numpy pass per refinement round of
the package's quadrature rule (`numerics._integrate`, composite
Gauss-Kronrod G7/K15 with bisection of every segment whose
Kronrod-Gauss difference exceeds its share of the tolerance), on
starting segments graded toward each feature of the integrand (a Drude
plate's resonance at omega_sp and at its mirror omega -+ omega_sp, the
thermal scale 2/(beta hbar), the knee of the difference channel).  Each
value comes with that error estimate, and is converged to PHI_TOL (1e-3)
of the tolerance its force asks for.  Phi takes Drude plates only: its
channels integrate Im R from omega = 0, below the first node of any
tabulated material, and a table is not extrapolated.  `phi_slope` uses
the same rule, and integrates a tabulated material over its own grid.

For lossy, underdamped Drude plates (omega_p > 0, 0 < nu < 2 omega_sp)
the sum channel splits with coth x + coth y = 2 + 2 n(u) + 2 n(omega - u),
n(u) = 1/(e^{beta hbar u} - 1).  Its T = 0 part
Phi_0 = 2 Int_0^omega Im R1 Im R2 needs no quadrature: Im R is four
simple poles at +-Omega +- i nu/2, so Phi_0 is a sum of 16 logarithm
terms, used from 1.1 times both omega_sp up; at T = 0 its power series
in omega^2 is used up to half the smaller omega_sp (`_phi0`, loaded at
the first Phi).  Each carries a
rounding bound, calibrated against 40-digit arithmetic, and is used only
where that bound is within Phi's tolerance (the pole sum from 1.1 to
about 20 omega_sp for a line 1e-3 omega_sp wide at the default 1e-9, to
about 90 omega_sp for one 3e-2 omega_sp wide).  Where
Phi_0 is used, the rule integrates only the Bose part,
Int_0^min(omega, 60/(beta hbar)) Im R_a(u) Im R_b(omega - u) 2 n(u) du
for (a, b) = (1, 2) and (2, 1), and the difference channel, and Phi's
error is their estimates plus Phi_0's bound.  Elsewhere (between the
two windows, at finite T below omega_sp, and for other plates) the
sum channel is the coth-sum quadrature.

A force evaluates Phi only at the nodes of a `PhiTable`
(`tabulate_phi`), one panel of 16 nodes per call:
h = Phi / omega^p (p = 1 at finite T, 3 at T = 0, so that h tends to
Phi_1 or Phi_3) as a piecewise Chebyshev series in log omega.  The
table is refined globally, one bisection at a time, until the error its
panels' trailing coefficients put into each force it serves, weighed by
that force's kernel, meets the tolerance; a table that would need more
than TABLE_MAX_PANELS (64) panels fails.  Each panel's error also
carries the largest error estimate of Phi at its nodes, so that a
force's error covers the table, Phi and its own k_x integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .material import Drude, surface_response
from .numerics import (
    CONST,
    DEFAULT_SPEC,
    FloatFailure,
    NonConvergence,
    QuadratureSpec,
    _integrate,
    _segments,
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


def _coth(x):
    """coth(x) for x > 0, overflow-safe (1.0 at x = inf)."""
    return (1.0 + np.exp(-2.0 * x)) / -np.expm1(-2.0 * x)


def _coth_sum(x, y):
    """coth(x) + coth(y) for x, y > 0 (2.0 at x = y = inf)."""
    return _coth(x) + _coth(y)


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


def im_r_dissipation_integral(
    omega_v,
    material1: Drude,
    material2: Drude,
    thermal: ThermalState,
    spec: QuadratureSpec = DEFAULT_SPEC,
):
    """Phi at each omega_v: the thermally weighted Im R (x) Im R integral over both channels.

    In the sum channel Int_0^{|w|} Im R1 Im R2 [coth(b1) + coth(b2)] dw1
    the factor is exactly 2 at T = 0, where the difference channel is
    closed.  For lossy, underdamped Drude plates its T = 0 part Phi_0
    is taken without quadrature where that holds the tolerance
    (`_phi0.sum_channel_zero_t`), and only the rest of its thermal factor,
    2/expm1(beta hbar u) + 2/expm1(beta hbar (w - u)), is integrated, up
    to beta hbar u = 60 (the Bose part).  At finite T the difference
    channel opens,

        Int_0^U Im R1(u) Im R2(u + w) [coth(b(u)) - coth(b(u+w))] du
      + Int_0^U Im R1(u + w) Im R2(u) [coth(b(u)) - coth(b(u+w))] du,

    which carries the linear-in-v friction as omega_v -> 0; it is cut at
    beta hbar U = 120, where the thermal factor has fallen below e^-120.
    For equal plates (``material2 is material1``) the two terms are one.

    Every integral, at every omega, is a composite G7/K15 rule refined
    by bisection (`_integrate`), all of them in one numpy pass per
    round.  The starting segments are graded toward each feature of
    the integrand, at c +- width 2^k: a Drude plate's resonance (width
    nu) at omega_sp and at omega - omega_sp (sum channel and its Bose
    part) or omega_sp - omega (difference channel); the thermal scale
    2/(beta hbar) at both ends of the sum channel and at 0 in its Bose
    part; the knee u ~ min(omega, 2/(beta hbar)) of the difference
    channel.  Each value is converged to PHI_TOL * ``spec.rel_tol``, or
    1e-12 if that is larger.  All
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
        is the sum of the segments' |K15 - G7|, plus the rounding bound
        of Phi_0 where it is taken without quadrature.

    Raises
    ------
    TypeError
        If a plate is not a Drude metal: the channels need Im R on all of
        (0, omega), and a tabulated material has none below its first node.
    NonConvergence
        With level "omega1", naming the omega at which an integral took
        more than ``spec.max_subdivisions`` bisections or was not finite.
    FloatFailure
        With level "omega1", if the thermal scale 2 k_B T / hbar overflows.
    """
    if not (isinstance(material1, Drude) and isinstance(material2, Drude)):
        raise TypeError("Phi (the general force) requires Drude plates: it integrates Im R "
                        "from omega = 0, below the first node of a tabulated material, "
                        "which is not extrapolated")
    with np.errstate(all="ignore"):
        omega = np.abs(np.asarray(omega_v, dtype=float))
        omegas = omega.ravel()
        n = omegas.size
        half = 0.5 * thermal.beta * CONST.hbar
        scale = 1.0 / half  # the thermal scale 2/(beta hbar); inf at T = 0
        if not (thermal.is_zero or math.isfinite(60.0 * scale)):
            raise FloatFailure(f"thermal scale 2 k_B T / hbar = {scale!r} rad/s at "
                               f"T = {thermal.temperature!r} K is past the float range", "omega1")
        zero = np.zeros(n)
        tol = max(PHI_TOL * spec.rel_tol, _PHI_TOL_FLOOR)
        # compiled at the first Phi, not on the import of a closed-form CLI call
        from ._phi0 import sum_channel_zero_t

        phi0, err0, closed = sum_channel_zero_t(omegas, material1, material2, tol,
                                                thermal.is_zero)
        if thermal.is_zero and closed.all():  # nothing left to integrate
            return _shaped(phi0, err0, omega.shape)
        res1, res2 = _resonances(material1), _resonances(material2)
        ends = () if thermal.is_zero else ((zero, scale), (omegas, scale))
        channels = [("sum", material1, material2, _segments(
            zero, np.where(closed, 0.0, omegas),
            [*res1, *((omegas - c, w) for c, w in res2), *ends]))]
        # the low factor at u and the high one at u + omega (difference channel)
        # or omega - u (Bose part of the sum channel); one term for equal plates
        terms = [(material1, material2)]
        if material2 is not material1:
            terms.append((material2, material1))
        if not thermal.is_zero:
            upper, knee = np.full(n, 60.0 * scale), np.minimum(omegas, scale)
            for low, high in terms:
                res_l, res_h = _resonances(low), _resonances(high)
                channels.append(("difference", low, high, _segments(
                    zero, upper, [*res_l, *((c - omegas, w) for c, w in res_h), (zero, knee)])))
            if closed.any():
                upper = np.where(closed, np.minimum(omegas, 30.0 * scale), 0.0)
                for low, high in terms:
                    res_l, res_h = _resonances(low), _resonances(high)
                    channels.append(("Bose", low, high, _segments(
                        zero, upper,
                        [*res_l, *((omegas - c, w) for c, w in res_h), (zero, scale)])))

        def integrand(x, owner):
            y = np.empty_like(x)
            bounds = np.searchsorted(owner, n * np.arange(len(channels) + 1))
            for c, (kind, low, high, _) in enumerate(channels):
                s = slice(bounds[c], bounds[c + 1])
                if s.start == s.stop:
                    continue
                u, w = x[s], omegas[owner[s] - c * n][:, None]
                if kind == "sum":
                    y[s] = _im_r(low, u) * _im_r(high, w - u) * _coth_sum(half * u, half * (w - u))
                elif kind == "difference":
                    y[s] = _im_r(low, u) * _im_r(high, u + w) * _coth_diff(half * u, half * w)
                else:
                    y[s] = _im_r(low, u) * _im_r(high, w - u) * (2.0 / np.expm1(2.0 * half * u))
            return y

        def fail(j: int, why: str, *_) -> NonConvergence:
            return NonConvergence(f"Phi ({channels[j // n][0]} channel) {why} "
                                  f"at omega={float(omegas[j % n])!r}", level="omega1")

        a = np.concatenate([seg[0] for *_, seg in channels])
        b = np.concatenate([seg[1] for *_, seg in channels])
        owner = np.concatenate([seg[2] + c * n for c, (*_, seg) in enumerate(channels)])
        value, error = _integrate(integrand, a, b, owner, len(channels) * n, tol,
                                  spec.max_subdivisions, fail)
        value, error = value.reshape(-1, n), error.reshape(-1, n)
        k = len(terms)  # equal plates: twice the one term

        def both(first: int):
            return value[first] + value[first + k - 1], error[first] + error[first + k - 1]

        phi, err = value[0], error[0]
        if not thermal.is_zero:
            diff, diff_err = both(1)
            phi, err = phi + diff, err + diff_err
        if len(channels) > 1 + k:
            bose, bose_err = both(1 + k)
            phi0, err0 = phi0 + bose, err0 + bose_err
        # 0 where the closed form is not used, which leaves the sum as it was
        phi, err = phi + phi0, err + err0
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
        If the integral takes more than ``spec.max_subdivisions``
        bisections or is not finite.
    """
    beta_hbar = thermal.beta * CONST.hbar
    lo, hi = float(nodes[0]), min(float(nodes[-1]), 60.0 / beta_hbar)
    if not lo < hi:
        return 0.0, 0.0

    def integrand(w, _):
        return im_r1(w) * im_r2(w) * _inv_sinh_sq(0.5 * beta_hbar * w)

    def fail(j: int, why: str, *_) -> NonConvergence:
        return NonConvergence(f"Phi_1 {why} on [{lo!r}, {hi!r}]")

    with np.errstate(all="ignore"):
        a, b, owner = _segments(np.array([lo]), np.array([hi]), [(0.0, 2.0 / beta_hbar)],
                                [np.asarray(nodes, dtype=float)[None, :]])
        value, err = _integrate(integrand, a, b, owner, 1, spec.rel_tol,
                                spec.max_subdivisions, fail)
    return beta_hbar * float(value[0]), beta_hbar * float(err[0])


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


def _clenshaw(coeffs, x):
    """sum_k coeffs[k] T_k(x); each coeffs[k] may be an array that broadcasts against x."""
    b1 = b2 = 0.0
    x2 = 2.0 * x
    for c in coeffs[:0:-1]:
        b1, b2 = c + x2 * b1 - b2, b1
    return coeffs[0] + x * b1 - b2


@dataclass(frozen=True, eq=False)
class PhiTable:
    """Phi(omega) on [omega_lo, omega_hi] as a piecewise Chebyshev series.

    Each panel [edges[i], edges[i+1]] of s = log omega holds the
    coefficients ``coeffs[i]`` of h(s) = Phi(omega) / omega^power, and
    ``errors[i]``, the size of its two trailing coefficients plus the
    largest error estimate of h at its nodes, which estimates
    |h_table - h| on it.  Below omega_lo the head Phi = head * omega^power
    continues the table; above omega_hi Phi is taken as 0 (the Bessel
    kernel that weighs it is below e^-60 there).  Both Phi and its error
    are evaluated elementwise on an array of omega.
    """

    omega_lo: float
    omega_hi: float
    edges: np.ndarray
    coeffs: np.ndarray  # one row of TABLE_NODES coefficients per panel
    errors: np.ndarray
    power: int
    head: float

    def _panels(self, omega):
        """The panel of each omega (clamped into the table), and s = log omega clamped so."""
        # np.minimum and np.maximum, not np.clip, whose Python wrapper costs more than the work
        s = np.log(np.minimum(np.maximum(omega, self.omega_lo), self.omega_hi))
        i = np.minimum(np.maximum(np.searchsorted(self.edges, s, side="right") - 1, 0),
                       len(self.errors) - 1)
        return i, s

    def __call__(self, omega):
        omega = np.asarray(omega, dtype=float)
        i, s = self._panels(omega)
        a, b = self.edges[i], self.edges[i + 1]
        h = np.where(omega < self.omega_lo, self.head,
                     _clenshaw(self.coeffs.T[:, i], (2.0 * s - a - b) / (b - a)))
        return np.where(omega > self.omega_hi, 0.0, h * omega**self.power)

    def error(self, omega):
        """Estimated |Phi_table - Phi| at each omega (the first panel's below omega_lo)."""
        omega = np.asarray(omega, dtype=float)
        i, _ = self._panels(omega)
        return np.where(omega > self.omega_hi, 0.0, self.errors[i] * omega**self.power)


@dataclass(frozen=True)
class _Panel:
    """A panel [a, b] of s = log omega and what it contributes to each force it serves."""

    a: float
    b: float
    coeffs: tuple[float, ...]
    error: float  # |h_table - h|: the tail, plus the largest error of Phi itself
    errors: tuple[float, ...]  # per force: tail * Int kernel omega^power d omega
    sizes: tuple[float, ...]  # per force: Int kernel |Phi| d omega


def tabulate_phi(
    phi: Callable,
    omega_lo: float,
    omega_hi: float,
    power: int,
    kernels: Callable,
    splits: Sequence[float] = (),
    rel_tol: float = DEFAULT_SPEC.rel_tol,
) -> PhiTable:
    """Tabulate ``phi`` on [omega_lo, omega_hi] as a `PhiTable` for the forces it serves.

    ``phi`` maps an array of omega to (Phi, error estimate) at each; it
    is called once per panel, with the panel's TABLE_NODES nodes.
    ``kernels`` maps an array of omega to an array of one row per force:
    the weight w(omega) by which that force integrates Phi,
    Int w Phi d omega up to a constant factor.  It is called once for
    the nodes of every panel made at once (the first panels, then the
    two halves of each bisected one).  The
    range is cut at the ``splits`` inside it (resonances, where h
    changes fastest), and each panel holds TABLE_NODES first-kind
    Chebyshev nodes.  A panel's tail, the larger of its two trailing
    coefficients, estimates |h_table - h| on it; for each force the
    panel adds tail * Int w omega^power to the force's error and
    Int w |Phi| to its size (Fejer's rule on the panel's nodes).
    Refinement is global: while some force's error exceeds rel_tol
    times its size, the panel that carries the largest share of such a
    force's allowance is bisected.  A force whose Phi is 0 at every
    node it weighs sets no demand.  Each panel's error in the table is
    its tail plus the largest error of Phi at its nodes (relative to
    omega^power); Phi's own error, which bisection does not reduce,
    sets no demand.

    Raises
    ------
    NonConvergence
        With level "omega1", naming the omega interval of the panel
        that would be bisected when the table already holds
        TABLE_MAX_PANELS panels, or of a panel on which Phi is not
        finite.
    """

    transform, fejer = np.array(_COS), np.array(_FEJER)

    def panels_between(edges: Sequence[float]) -> list[_Panel]:
        """The panels between consecutive ``edges``: Phi once per panel, the kernels once for all."""
        made, nodes = [], []
        for a, b in zip(edges, edges[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            omegas = [math.exp(mid + half * x) for x in _COS[1]]
            nodes.append(np.array(omegas))
            values, errors = phi(nodes[-1])
            h = [float(y) / w**power for y, w in zip(values, omegas)]
            # the coefficients c_k of sum_k c_k T_k interpolating h at the nodes
            c = (2.0 / TABLE_NODES * (transform * h).sum(axis=1)).tolist()
            c[0] *= 0.5
            tail = max(abs(c[-1]), abs(c[-2]))
            phi_err = max(float(e) / w**power for e, w in zip(errors, omegas))
            if not math.isfinite(tail + phi_err):
                raise NonConvergence(
                    f"Phi is not finite on omega in [{math.exp(a)!r}, {math.exp(b)!r}]",
                    level="omega1",
                )
            made.append((a, b, c, tail, phi_err, half, h))
        # one row per force, one block of TABLE_NODES columns per panel
        weights = kernels(np.concatenate(nodes)).reshape(-1, len(made), TABLE_NODES)
        out = []
        for k, (a, b, c, tail, phi_err, half, h) in enumerate(made):
            # d omega = omega ds on s = mid + half x
            moments = half * fejer * nodes[k] ** (power + 1) * weights[:, k]
            out.append(_Panel(
                a, b, tuple(c), tail + phi_err,
                tuple((tail * moments.sum(axis=1)).tolist()),
                tuple((moments * np.abs(h)).sum(axis=1).tolist()),
            ))
        return out

    s_lo, s_hi = math.log(omega_lo), math.log(omega_hi)
    cuts = sorted(math.log(w) for w in splits if omega_lo < w < omega_hi)
    panels = panels_between([s_lo, *cuts, s_hi])
    while True:
        allowed = [rel_tol * sum(sizes) for sizes in zip(*(p.sizes for p in panels))]
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
        panels[i:i + 1] = panels_between([a, 0.5 * (a + b), b])
    return PhiTable(
        omega_lo, omega_hi, np.array([s_lo, *(p.b for p in panels)]),
        np.array([p.coeffs for p in panels]), np.array([p.error for p in panels]), power,
        _clenshaw(panels[0].coeffs, -1.0),
    )
