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
every channel at every omega in one numpy pass per refinement round: a
composite Gauss-Kronrod rule (G7/K15, with QUADPACK's constants) on
starting segments graded toward each feature of the integrand (a Drude
plate's resonance at omega_sp and at its mirror omega -+ omega_sp, the
thermal scale 2/(beta hbar), the knee of the difference channel, a
tabulated plate's grid nodes), and bisection of every segment whose
Kronrod-Gauss difference exceeds its share of the tolerance.  Each value
comes with that error estimate, and is converged to PHI_TOL (1e-3) of
the tolerance its force asks for.  `phi_slope` uses the same rule.

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
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .material import MaterialModel, Tabulated, surface_response
from .numerics import CONST, DEFAULT_SPEC, FloatFailure, NonConvergence, QuadratureSpec


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


# The Gauss-Kronrod pair G7/K15 on [-1, 1], as in QUADPACK's qk15: the
# Kronrod nodes (every other one from the second, and 0, are the Gauss
# nodes), the Kronrod weights and the Gauss weights, each for x >= 0.
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245, 0.0)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
# all 15 nodes, their Kronrod weights, and Kronrod minus Gauss weights
_X = np.array([*(-x for x in _XGK[:7]), *_XGK[::-1]])
_WK = np.array([*_WGK, *_WGK[6::-1]])
_WD = _WK - np.array([0.0, _WG[0], 0.0, _WG[1], 0.0, _WG[2], 0.0, _WG[3],
                      0.0, _WG[2], 0.0, _WG[1], 0.0, _WG[0], 0.0])

#: Segments a rule evaluates in one numpy pass, so that its arrays stay
#: small: 15 nodes each.
_CHUNK = 1024

#: Relative tolerance of each Phi value, as a fraction of the ``rel_tol``
#: its force is asked for.  The Kronrod pair converges geometrically, so the
#: extra digits are cheap, and the error of Phi then stays out of the way of
#: the table's and the k_x integral's.
PHI_TOL = 1e-3
#: The tightest tolerance of a Phi value.  Near a resonance of relative
#: width nu/omega_sp the rounding of Im R is about eps omega_sp/nu (1e-12 for
#: a line 1e-3 eV wide), and the Kronrod-Gauss differences cannot fall below it.
_PHI_TOL_FLOOR = 1e-12


def _kronrod(f, a, b, owner):
    """K15 integrals of f over the segments [a, b], and |K15 - G7| on each."""
    value, error = np.empty(a.size), np.empty(a.size)
    for start in range(0, a.size, _CHUNK):
        i = slice(start, start + _CHUNK)
        half = 0.5 * (b[i] - a[i])
        y = f(0.5 * (a[i] + b[i])[:, None] + half[:, None] * _X, owner[i])
        value[i] = half * (y * _WK).sum(axis=1)
        error[i] = np.abs(half * (y * _WD).sum(axis=1))
    return value, error


def _integrate(f, a, b, owner, n, rel_tol, budget, fail):
    """n integrals, each over its own segments, by composite G7/K15 with bisection.

    Segment [a[i], b[i]] belongs to integral owner[i]; ``owner`` is
    sorted, and the segments of each integral increase.  ``f(x, o)``
    evaluates the integrands at nodes x (one row per segment) of
    segments owned by o (sorted).  An integral is done when the sum of
    its segments' |K15 - G7| is at most rel_tol times its value; until
    then, every segment whose difference exceeds its share (the
    tolerance over the integral's segment count) is bisected, all in
    one call of f per round.  Each integral's segments are summed in
    order, so an integral's value does not depend on the others.

    Returns
    -------
    (values, errors) : arrays of n floats
        The errors are the sums of |K15 - G7|.

    Raises
    ------
    NonConvergence
        ``fail(j, why)`` for the first integral j whose value is not
        finite, that needs more than ``budget`` bisections, or whose
        segment can no longer be bisected.
    """
    k, e = _kronrod(f, a, b, owner)
    bisections = np.zeros(n, dtype=int)
    while True:
        value = np.bincount(owner, k, n)
        error = np.bincount(owner, e, n)
        if not np.isfinite(value).all():
            raise fail(int(np.argmin(np.isfinite(value))), "is not finite")
        allowed = rel_tol * np.abs(value)
        short = error > allowed
        if not short.any():
            return value, error
        share = allowed / np.bincount(owner, minlength=n)
        split = np.flatnonzero(short[owner] & (e > share[owner]))
        mid = 0.5 * (a[split] + b[split])
        bisections += np.bincount(owner[split], minlength=n)
        # a segment a few ulps wide puts its nodes on its ends
        stuck = owner[split[b[split] - a[split] <= 1e3 * np.spacing(mid)]]
        if stuck.size:
            raise fail(int(stuck[0]), "cannot bisect a segment further")
        if (bisections > budget).any():
            raise fail(int(np.argmax(bisections > budget)),
                       f"did not converge within {budget} bisections")
        # each split segment becomes two, in place, so the order holds
        rep = np.ones(a.size, dtype=int)
        rep[split] = 2
        a, b, owner, k, e = (np.repeat(x, rep) for x in (a, b, owner, k, e))
        first = split + np.arange(split.size)
        b[first] = mid
        a[first + 1] = mid
        new = np.stack((first, first + 1), axis=1).ravel()
        k[new], e[new] = _kronrod(f, a[new], b[new], owner[new])


def _segments(lo, hi, graded=(), fixed=()):
    """Starting segments of n integrals, each on [lo[j], hi[j]].

    ``graded`` holds (centre, width) pairs, each an array over the n
    integrals or a float: a feature of the integrand of that width at
    that centre, graded toward by breakpoints centre +- width 2^k,
    k = 0, 1, ...  ``fixed`` holds arrays of n rows of further
    breakpoints (the kinks of a tabulated response).  Breakpoints
    outside (lo, hi) are dropped.

    Returns
    -------
    (a, b, owner) : arrays
        The segments, by owner and then increasing.
    """
    n = lo.size
    zero = np.zeros(n)
    points = [np.broadcast_to(p, (n, np.shape(p)[-1])) for p in fixed]
    if graded:
        centre = np.array([c + zero for c, _ in graded])[..., None]
        width = np.array([w + zero for _, w in graded])[..., None]
        # enough steps to reach both ends from every centre, within the float range
        reach = np.where(width > 0, np.maximum(centre - lo[:, None], hi[:, None] - centre) / width,
                         1.0)
        levels = int(min(np.log2(max(reach.max(), 1.0)), 2100.0)) + 1
        steps = width * 2.0 ** np.arange(levels + 1)
        points.append(np.concatenate((centre - steps, centre + steps), axis=2)
                      .transpose(1, 0, 2).reshape(n, -1))
    lo, hi = lo[:, None], hi[:, None]
    inner = np.sort(np.clip(np.concatenate([np.empty((n, 0)), *points], axis=1), lo, hi), axis=1)
    edges = np.concatenate((lo, inner, hi), axis=1)
    keep = edges[:, 1:] > edges[:, :-1]
    return edges[:, :-1][keep], edges[:, 1:][keep], np.nonzero(keep)[0]


def _features(material: MaterialModel):
    """The graded resonance (omega_sp, nu) of a lossy Drude metal, or a tabulated grid."""
    if isinstance(material, Tabulated):
        return (), material.omega
    if material.omega_p > 0.0 and material.nu > 0.0:
        return ((material.omega_sp, material.nu),), np.empty(0)
    return (), np.empty(0)


def _im_r(material: MaterialModel, omega):
    return surface_response(material, omega).imag


@np.errstate(all="ignore")
def im_r_dissipation_integral(
    omega_v,
    material1: MaterialModel,
    material2: MaterialModel,
    thermal: ThermalState,
    spec: QuadratureSpec = DEFAULT_SPEC,
):
    """Phi at each omega_v: the thermally weighted Im R (x) Im R integral over both channels.

    The sum channel Int_0^{|w|} Im R1 Im R2 [coth(b1) + coth(b2)] dw1
    is one integral at every temperature: at T = 0 the factor is
    exactly 2 and the difference channel is closed.  At finite T the
    difference channel opens,

        Int_0^U Im R1(u) Im R2(u + w) [coth(b(u)) - coth(b(u+w))] du
      + Int_0^U Im R1(u + w) Im R2(u) [coth(b(u)) - coth(b(u+w))] du,

    which carries the linear-in-v friction as omega_v -> 0; it is cut at
    beta hbar U = 60, where the thermal factor has fallen below e^-60.
    For equal plates (``material2 is material1``) the two terms are one.

    Every integral, at every omega, is a composite G7/K15 rule refined
    by bisection (`_integrate`), all of them in one numpy pass per
    round.  The starting segments are graded toward each feature of
    the integrand, at c +- width 2^k: a Drude plate's resonance (width
    nu) at omega_sp and at omega - omega_sp (sum channel) or
    omega_sp - omega (difference channel); the thermal scale
    2/(beta hbar) at both ends of the sum channel; the knee
    u ~ min(omega, 2/(beta hbar)) of the difference channel; and the
    grid nodes of a tabulated plate.  Each value is converged to
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
        is the sum of the segments' |K15 - G7|.

    Raises
    ------
    NonConvergence
        With level "omega1", naming the omega at which an integral took
        more than ``spec.max_subdivisions`` bisections or was not finite.
    FloatFailure
        With level "omega1", if the thermal scale 2 k_B T / hbar overflows.
    """
    omega = np.abs(np.asarray(omega_v, dtype=float))
    omegas = omega.ravel()
    n = omegas.size
    half = 0.5 * thermal.beta * CONST.hbar
    scale = 1.0 / half  # the thermal scale 2/(beta hbar); inf at T = 0
    if not (thermal.is_zero or math.isfinite(60.0 * scale)):
        raise FloatFailure(f"thermal scale 2 k_B T / hbar = {scale!r} rad/s at "
                           f"T = {thermal.temperature!r} K is past the float range", "omega1")
    zero = np.zeros(n)
    (res1, grid1), (res2, grid2) = _features(material1), _features(material2)
    ends = () if thermal.is_zero else ((zero, scale), (omegas, scale))
    channels = [("sum", material1, material2, _segments(
        zero, omegas, [*res1, *((omegas - c, w) for c, w in res2), *ends],
        [grid1, omegas[:, None] - grid2]))]
    if not thermal.is_zero:
        # the low factor at u and the high one at u + omega; one term for equal plates
        upper, knee = np.full(n, 60.0 * scale), np.minimum(omegas, scale)
        terms = [(material1, material2)]
        if material2 is not material1:
            terms.append((material2, material1))
        for low, high in terms:
            (res_l, grid_l), (res_h, grid_h) = _features(low), _features(high)
            channels.append(("difference", low, high, _segments(
                zero, upper, [*res_l, *((c - omegas, w) for c, w in res_h), (zero, knee)],
                [grid_l, grid_h - omegas[:, None]])))

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
            else:
                y[s] = _im_r(low, u) * _im_r(high, u + w) * _coth_diff(half * u, half * w)
        return y

    def fail(j: int, why: str) -> NonConvergence:
        return NonConvergence(f"Phi ({channels[j // n][0]} channel) {why} "
                              f"at omega={float(omegas[j % n])!r}", level="omega1")

    a = np.concatenate([seg[0] for *_, seg in channels])
    b = np.concatenate([seg[1] for *_, seg in channels])
    owner = np.concatenate([seg[2] + c * n for c, (*_, seg) in enumerate(channels)])
    value, error = _integrate(integrand, a, b, owner, len(channels) * n,
                              max(PHI_TOL * spec.rel_tol, _PHI_TOL_FLOOR),
                              spec.max_subdivisions, fail)
    value, error = value.reshape(-1, n), error.reshape(-1, n)
    phi, err = value[0], error[0]
    if len(channels) > 1:
        last = -1 if len(channels) == 3 else 1  # equal plates: twice the one term
        phi, err = phi + (value[1] + value[last]), err + (error[1] + error[last])
    if omega.ndim == 0:
        return float(phi[0]), float(err[0])
    return phi.reshape(omega.shape), err.reshape(omega.shape)


@np.errstate(all="ignore")
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
    a, b, owner = _segments(np.array([lo]), np.array([hi]), [(0.0, 2.0 / beta_hbar)],
                            [np.asarray(nodes, dtype=float)[None, :]])

    def integrand(w, _):
        return im_r1(w) * im_r2(w) * _inv_sinh_sq(0.5 * beta_hbar * w)

    def fail(_, why: str) -> NonConvergence:
        return NonConvergence(f"Phi_1 {why} on [{lo!r}, {hi!r}]")

    value, err = _integrate(integrand, a, b, owner, 1, spec.rel_tol, spec.max_subdivisions, fail)
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
    the size of its two trailing coefficients plus the largest error
    estimate of h at its nodes, which estimates |h_table - h| on it.
    Below omega_lo the head Phi = head * omega^power continues the
    table; above omega_hi Phi is taken as 0 (the Bessel kernel that
    weighs it is below e^-60 there).
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
    error: float  # |h_table - h|: the tail, plus the largest error of Phi itself
    errors: tuple[float, ...]  # per force: tail * Int kernel omega^power d omega
    sizes: tuple[float, ...]  # per force: Int kernel |Phi| d omega


def tabulate_phi(
    phi: Callable,
    omega_lo: float,
    omega_hi: float,
    power: int,
    kernels: Sequence[Callable[[float], float]],
    splits: Sequence[float] = (),
    rel_tol: float = DEFAULT_SPEC.rel_tol,
) -> PhiTable:
    """Tabulate ``phi`` on [omega_lo, omega_hi] as a `PhiTable` for the forces it serves.

    ``phi`` maps an array of omega to (Phi, error estimate) at each; it
    is called once per panel, with the panel's TABLE_NODES nodes.  Each
    of ``kernels`` is the weight w(omega) by which one force
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

    def panel(a: float, b: float) -> _Panel:
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        omegas = [math.exp(mid + half * x) for x in _COS[1]]
        values, errors = phi(np.array(omegas))
        h = [float(y) / w**power for y, w in zip(values, omegas)]
        c = _chebyshev_coeffs(h)
        tail = max(abs(c[-1]), abs(c[-2]))
        phi_err = max(float(e) / w**power for e, w in zip(errors, omegas))
        if not math.isfinite(tail + phi_err):
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
            a, b, tuple(c), tail + phi_err,
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
        tuple(p.error for p in panels), power, _clenshaw(coeffs[0], -1.0),
    )
