"""Friction force per unit area between sliding half-spaces, in all regimes.

A force is a magnitude per unit area; it always opposes the relative
motion.  The paper's dissipated energy per loop, Delta E/(2 tau v),
equals that magnitude.  A force takes a material (Drude or tabulated),
the gap d of a `PlateConfig`, a temperature and a velocity.

Every regime is a limit of one formula,

    F = (hbar / (8 pi^3)) Int dk_x dk_y |k_x| e^{-2 q d} Phi(k_x v)
      = (hbar / (2 pi^3)) Int_0^inf dk_x k_x^2 K1(2 d k_x) Phi(k_x v)
      = (hbar / (2 pi^3 v^3)) Int_0^inf d omega omega^2 K1(2 d omega / v) Phi(omega),

with Phi the thermally weighted Im R (x) Im R integral over the
resonance channels (`response.im_r_dissipation_integral`), the only
material quantity in the force.  The k_y integral is the closed form

    Int_0^inf e^{-2 d sqrt(k_x^2 + k_y^2)} dk_y = k_x K1(2 d k_x).

Regimes
-------
GeneralNumeric  the formula at any T and v: the k_x quadrature against a
                Phi table, or at finite T and small v its force series
LinearFiniteT   Phi = Phi_1 omega (finite T, small v), with
                Int_0^inf x^3 K1(x) dx = 3 pi/2:
                F = 3 hbar v Phi_1 / (64 pi^2 d^4)           (~ v, ~ 1/d^4)
ZeroT_Cubic     Phi = Phi_3 omega^3 (T = 0, small v), with
                Int_0^inf x^5 K1(x) dx = 45 pi/2:
                F = 45 hbar v^3 Phi_3 / (256 pi^2 d^6)       (~ v^3, ~ 1/d^6)
PlasmonLine     Phi = (pi^2 omega_sp^2 / 2) delta(omega - 2 omega_sp) for a
                sharp surface-plasmon line (the nu -> 0 Drude metal,
                omega_sp = omega_p / sqrt(2)):
                F = (hbar omega_sp^4 / (pi v^3)) K1(4 omega_sp d / v),
                suppressed by exp(-4 omega_sp d / v)

Phi is the only place the material and T enter the general force; v
and d enter only through the kernel omega^2 K1(2 d omega / v).  At
finite T between lossy, underdamped Drude plates Phi is a power series
below omega_sp / 2 (`_phi0.series_coefficients`), and each power
omega^(2i+1) meets the kernel in a moment M_mu = Int_0^inf x^mu K1(x) dx
(`k1_moments`), so that a slow force is a series in (v/(2d))^2,

    F = hbar v / (32 pi^3 d^4) sum_i phi_(2i+1) M_(2i+3) (v / (2d))^(2i),

whose first order is LinearFiniteT and whose second tends to
ZeroT_Cubic as T -> 0.  `general_forces` serves a point from it where
2 d omega_sp / v >= 40 (omega_sp the smaller one) and its error bound
holds ``spec.rel_tol``, with no table and no k_x integral
(`_series_forces`).  The other points of a call, all of them at T = 0,
share one Phi table and take one k_x quadrature each against it.  The
table spans the kernel bands of its points, 1e-4 v/(2d) .. 60 v/(2d).
It is cut at the Drude resonances omega_sp and c = omega_sp1 + omega_sp2,
and toward c, where Phi has a Lorentzian peak (nu1 + nu2)/2 wide, its first panels are
graded: cuts at c e^(+-2^k (nu1 + nu2) / (2c)), k = 0, 1, ..., the mesh
that bisection would reach one Phi call at a time.  It is then refined
by one kernel row per point, one bisection at a time, in at most
TABLE_MAX_PANELS (64) panels (`tabulate_phi`).  Each refinement step
asks `response.im_r_dissipation_integral` for the 16 nodes of each of
its new panels in one call (the first step holds all the graded
panels), each to 1e-3 of ``spec.rel_tol``
(`response.PHI_TOL`), with an error estimate per node; Phi takes Drude
plates only, so a general force on a tabulated material is a TypeError.
Phi is one integral over the real line, folded at omega/2.  For lossy,
underdamped Drude plates it is a closed form where its bound holds that
tolerance: a sum over the poles of its integrand from omega_sp / 2 up,
of digamma functions at finite T and of logarithms at T = 0 (to about
14 omega_sp for a line 1e-3 omega_sp wide), and below omega_sp / 2 at
finite T its small-omega series (for the reference metal at every omega
there up to about 1000 K).  There the node's error estimate is that
bound, and only the other nodes are integrated: at T = 0, those below
omega_sp / 2 among them.
The k_x integrals of all points take one
`numerics.integrate_semi_infinite` pass over an array integrand, the
tabulation's own kernel times the table, by the package's one G7/K15
rule.  Each runs on its own scale 1/(2d), cut at every panel edge of
the table in its band (where the piecewise series has its kinks, the
resonances among them), and is refined on its own segments, so that
it does not depend on the other points' integrals; each bisection round
takes K1 and the table once for every point.  A point's table
error, which carries Phi's own, is the panel errors weighed by the
Fejer moments of its kernel that the tabulation took; it is added to
``quadrature_rel_err``, so the error budget covers the table, Phi and
the k_x integral.  `dissipation_general` is the one point of
`general_forces`.

K1 comes from one identity, K1(x) e^x = Int_0^inf e^{-x (cosh t - 1)} cosh t dt,
summed by the trapezoid rule.  The plasmon line needs it at one point
and sums it in plain Python (`_k1e`), so the closed forms load no numpy
(`numerics` binds numpy lazily).  The general force needs it on arrays
of nodes (`_kernels`): `_k1e_array` evaluates a piecewise Chebyshev
interpolant of x K1(x) e^x in log x, built from the same sum at first
use (`_k1_fit`).  Both agree with `scipy.special.k1e` to a few ulps, and
the package imports no scipy.  The fit and the Phi table are stored
alike, as Chebyshev coefficients, and summed by one `_clenshaw`; below
its first panel each takes that panel's value at its edge.

For a Drude head Im R = -nu omega / omega_sp^2 the coefficients are
Phi_1 = 4 pi^2 nu^2 / (3 beta^2 hbar^2 omega_sp^4) and
Phi_3 = nu^2 / (3 omega_sp^4).  No result depends on the paper's
oscillator densities rho1, rho2, and no function reads them.  Every
force is one product of its factors, the coefficients' among them
(`_force`), so that no intermediate leaves the floats.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .numerics import (
    CONST,
    DEFAULT_SPEC,
    NESTED_SPEC,
    DomainError,
    FloatFailure,
    NonConvergence,
    QuadratureSpec,
    float_guard,
    integrate_semi_infinite,
    np,
)
from .material import Drude, MaterialModel, surface_response
from .geometry import PlateConfig
from .response import ThermalState, im_r_dissipation_integral, phi_slope, require_plates

LINEAR_FINITE_T = "LinearFiniteT"
ZERO_T_CUBIC = "ZeroT_Cubic"
GENERAL_NUMERIC = "GeneralNumeric"
PLASMON_LINE = "PlasmonLine"

@dataclass
class Diagnostics:
    """Quadrature quality and validity bookkeeping attached to each result.

    A closed form used near or beyond its validity window appends a
    message to ``validity_flags``; the result is the only place a flag
    is reported.
    """

    quadrature_rel_err: float = 0.0
    validity_flags: list[str] = field(default_factory=list)
    suppression_exponent: float | None = None


@dataclass
class FrictionResult:
    """Friction force per unit area (magnitude; it opposes the relative motion)."""

    force_per_area: float
    regime: str
    diagnostics: Diagnostics


def flag_lossless(diag: Diagnostics, *materials: MaterialModel) -> None:
    """Flag the 0 that a lossless Drude plate (omega_p > 0, nu = 0) gives but its line does not."""
    if any(isinstance(m, Drude) and m.omega_p > 0.0 and m.nu == 0.0 for m in materials):
        diag.validity_flags.append("nu = 0: a lossless plate gives 0 here; its force is the "
                                   "nu -> 0 limit, the plasmon line (--regime plasmon)")


def _require_velocity(v: float) -> None:
    if not (v >= 0 and math.isfinite(v)):
        raise DomainError(f"velocity must be finite and >= 0, got {v}")


def _require_point(v: float, d: float, thermal: ThermalState) -> None:
    """Refuse, with a DomainError, a point (v, d) that the general force cannot take."""
    _require_velocity(v)
    if not (d > 0 and math.isfinite(d)):
        raise DomainError(f"gap d must be finite and > 0, got {d!r}")
    power = 3 if thermal.is_zero else 1
    # where h = Phi / omega^power stays a normal float, the moments of
    # omega^(power + 1) finite (`tabulate_phi` shifts them up from below), and
    # k_x = omega / v finite
    tiny, huge = sys.float_info.min ** (1.0 / power), sys.float_info.max ** (1.0 / (power + 1))
    lo, hi = _kernel_band(v, d)
    if v and not (tiny <= lo and hi <= huge and hi / v < math.inf):
        raise DomainError(f"the kernel band [{lo}, {hi}] rad/s of v = {v!r} m/s, "
                          f"d = {d!r} m leaves the float range of the general force")


def _force(flags: list[str], level: str, quantity: str, factors, divisors=()) -> float:
    """prod(factors) / prod(divisors), with one rounding into the floats at the end.

    Each operand is split into its mantissa in [0.5, 1) and its power of 2
    (math.frexp), so that no intermediate leaves the normal floats; the
    product of the mantissas takes its power of 2 last (math.ldexp).  A
    result past the float range raises FloatFailure at ``level``; one below
    the normal floats, of nonzero operands, is reported as 0 with an
    "underflow:" flag appended to ``flags``.
    """
    mantissa, exponent = 1.0, 0
    for x in factors:
        f, k = math.frexp(x)
        mantissa, j = math.frexp(mantissa * f)
        exponent += j + k
    for x in divisors:
        f, k = math.frexp(x)
        mantissa, j = math.frexp(mantissa / f)
        exponent += j - k
    try:
        result = math.ldexp(mantissa, exponent)
    except OverflowError:
        result = math.inf
    if not math.isfinite(result):
        raise FloatFailure(f"{quantity} is not finite", level)
    if mantissa and abs(result) < sys.float_info.min:
        flags.append(f"underflow: {quantity} is below the normal floats; reported as 0")
        return 0.0
    return result


def force_linear(
    material: MaterialModel,
    config: PlateConfig,
    thermal: ThermalState,
    v: float,
    spec: QuadratureSpec = NESTED_SPEC,
) -> FrictionResult:
    """Linear-in-v friction force F = 3 hbar v Phi_1 / (64 pi^2 d^4) at finite temperature.

    Phi_1 is the small-omega slope of Phi: the closed form
    4 pi^2 nu^2 (k_B T)^2 / (3 hbar^2 omega_sp^4) of the Drude head, whose
    factors are the force's own (`_force`), or the `response.phi_slope`
    quadrature over a tabulated material's grid, cell by cell between its
    nodes, whose error estimate is reported as ``quadrature_rel_err``.  A
    force below the normal floats is 0 with an "underflow:" flag; one past
    them raises FloatFailure naming it.

    Raises
    ------
    DomainError
        At T = 0 (the linear channel closes) or v < 0.
    """
    if thermal.is_zero:
        raise DomainError("force_linear requires finite temperature")
    _require_velocity(v)
    diag = Diagnostics()
    d = config.d
    factors, divisors = [3.0 * CONST.hbar / (64.0 * math.pi**2), v], [d, d, d, d]

    if isinstance(material, Drude):
        if material.nu == 0.0 or material.omega_p == 0.0:
            factors.append(0.0)
            flag_lossless(diag, material)
        else:
            # Phi_1 = 4 pi^2 nu^2 (k_B T)^2 / (3 hbar^2 omega_sp^4)
            kt = (CONST.k_B, thermal.temperature)
            factors += [4.0 * math.pi**2 / 3.0, material.nu, material.nu, *kt, *kt]
            divisors += [CONST.hbar, CONST.hbar] + [material.omega_sp] * 4
            if CONST.k_B * thermal.temperature > 0.01 * CONST.hbar * material.omega_sp:
                diag.validity_flags.append(
                    "kT approaches hbar*omega_sp: small-m linear head is "
                    "inaccurate over the thermal window"
                )
    else:
        if CONST.hbar * material.omega[0] * thermal.beta > 0.5:
            diag.validity_flags.append("tabulated support misses part of the thermal window")

        def im_r(omega):
            return surface_response(material, omega).imag

        phi1, err = phi_slope(im_r, im_r, thermal, material.omega, spec)
        diag.quadrature_rel_err = abs(err / phi1) if phi1 else 0.0
        factors.append(phi1)

    force = _force(diag.validity_flags, LINEAR_FINITE_T,
                   f"force 3 hbar v Phi_1 / (64 pi^2 d^4) at d = {d!r} m, v = {v!r} m/s",
                   factors, divisors)
    return FrictionResult(force, LINEAR_FINITE_T, diag)


def force_zero_t(material: Drude, config: PlateConfig, v: float) -> FrictionResult:
    """Zero-temperature cubic friction force for equal Drude media.

    F = 45 hbar v^3 Phi_3 / (256 pi^2 d^6) with the Drude-head
    coefficient Phi_3 = nu^2 / (3 omega_sp^4), whose factors are the
    force's own (`_force`); both plates are the one material.  A force
    below the normal floats is 0 with an "underflow:" flag; one past them
    raises FloatFailure naming it.

    Raises
    ------
    TypeError
        If the material is not a Drude metal.
    """
    if not isinstance(material, Drude):
        raise TypeError("force_zero_t closed form requires a Drude material")
    _require_velocity(v)
    diag = Diagnostics()
    if material.nu == 0.0 or material.omega_p == 0.0:
        force = 0.0
        flag_lossless(diag, material)
    else:
        # dominant q ~ 2.5/d in the d^-6 moment; flag when hbar*omega_v
        # there leaves the linear head
        if v > 0 and 2.5 * v / config.d > 0.1 * material.omega_sp:
            diag.validity_flags.append(
                "omega_v at the dominant wavevectors exceeds the small-m "
                "cutoff; the cubic closed form underestimates spectrum curvature"
            )
        d, nu, sp = config.d, material.nu, material.omega_sp
        # 45 hbar / (256 pi^2) times the 1/3 of Phi_3 = nu^2 / (3 omega_sp^4)
        force = _force(diag.validity_flags, ZERO_T_CUBIC,
                       f"force 45 hbar v^3 Phi_3 / (256 pi^2 d^6) at d = {d!r} m, v = {v!r} m/s",
                       (15.0 * CONST.hbar / (256.0 * math.pi**2), v, v, v, nu, nu),
                       (sp, sp, sp, sp, d, d, d, d, d, d))
    return FrictionResult(force, ZERO_T_CUBIC, diag)


def _k1e(x: float) -> float:
    """K1(x) e^x for a float x > 0, in plain Python.

    The trapezoid rule on K1(x) e^x = Int_0^inf exp(-x (cosh t - 1)) cosh t dt
    with step 0.25 / sqrt(1 + x), up to the last node with
    x (cosh t - 1) = 2 x sinh(t/2)^2 <= 40.  The integrand is even and
    analytic in t, so the rule converges geometrically: it agrees with
    `scipy.special.k1e` to a few ulps on 1e-8 <= x <= 1500, in under 100
    terms.
    """
    h = 0.25 / math.sqrt(1.0 + x)
    total = 0.5
    for k in range(1, int(2.0 * math.asinh(math.sqrt(20.0 / x)) / h) + 1):
        s = math.sinh(0.5 * k * h)
        total += math.exp(-2.0 * x * s * s) * math.cosh(k * h)
    return h * total


def _clenshaw(coeffs, x):
    """sum_k coeffs[k] T_k(x) by Clenshaw's recurrence: the series of `_k1e_array` and `PhiTable`.

    Each coeffs[k] is a float or an array of x's shape.  Each step forms
    b_k = c_k + 2 x b_(k+1) - b_(k+2) in one temporary, in place; IEEE
    addition commutes, so it is that expression bit for bit.
    """
    b1 = b2 = 0.0
    x2 = 2.0 * x
    for c in coeffs[:0:-1]:
        t = x2 * b1
        t += c
        t -= b2
        b1, b2 = t, b1
    return coeffs[0] + x * b1 - b2


#: Panels of the array K1: uniform in s = log x, _K1_WIDTH wide from
#: s = _K1_START, each holding a Chebyshev series of degree _K1_DEGREE.
_K1_START, _K1_WIDTH, _K1_PANELS, _K1_DEGREE = -38.0, 0.25, 180, 8


@functools.cache
def _k1_fit():
    """Chebyshev coefficients of g(s) = x K1(x) e^x at x = e^s: one row per T_k, lowest first.

    Column j is the series in u = 2w - 1, w in [0, 1] the place across
    panel j, that interpolates g at the _K1_DEGREE + 1 Chebyshev nodes,
    where g is the trapezoid sum of `_k1e`, vectorized over the nodes of
    a block of panels at once.  A block's sums run to the largest cutoff
    of its nodes: past its own, a node's terms are below e^-40 of its
    sum and fall fast.  Blocks keep the arrays of terms small, and the
    fit takes sums of products, not a linear solve or a matrix product,
    whose first call would have BLAS allocate its buffers.
    """

    def trapezoid(x):
        h = 0.25 / np.sqrt(1.0 + x)
        t = h[:, None] * np.arange(1, int((2.0 * np.arcsinh(np.sqrt(20.0 / x)) / h).max()) + 2)
        sh = np.sinh(0.5 * t)
        return x * h * (0.5 + (np.exp(-2.0 * x[:, None] * sh * sh) * np.cosh(t)).sum(axis=1))

    n = _K1_DEGREE + 1
    k = np.arange(n)
    theta = np.pi * (k + 0.5) / n
    s = _K1_START + _K1_WIDTH * (np.arange(_K1_PANELS)[:, None] + 0.5 + 0.5 * np.cos(theta))
    g = np.concatenate([trapezoid(block.ravel()) for block in np.split(np.exp(s), 45)])
    cheb = 2.0 / n * (g.reshape(_K1_PANELS, 1, n) * np.cos(k[:, None] * theta)).sum(axis=2)
    cheb[:, 0] *= 0.5
    return cheb.T.copy()


def _k1e_array(x):
    """K1(x) e^x on an array of 0 < x <= e^7 (about 1097), in numpy.

    The panel of s = log x holding each x is found by arithmetic, and its
    Chebyshev series (`_k1_fit`) is summed by `_clenshaw`; it agrees with
    `_k1e` and with `scipy.special.k1e` to a few ulps.  Below the first
    panel (x < e^-38), where x K1(x) e^x is 1 to double precision, its
    value at its edge continues it.  Past the last, x K1(x) e^x is held at
    its value at e^7, a finite stand-in: there K1(x) is below 1e-470, and
    every K1(x) e^x e^-x is 0.
    """
    x = np.asarray(x, dtype=float)
    p = np.minimum(np.maximum(np.log(x) / _K1_WIDTH - _K1_START / _K1_WIDTH, 0.0),
                   _K1_PANELS * (1.0 - 1e-15))
    i = p.astype(np.intp)
    return _clenshaw(_k1_fit()[:, i], 2.0 * (p - i) - 1.0) / x


def _kernel_band(v, d):
    """The omega range a Phi table must cover for the point (v, d), or for arrays of them.

    Below 1e-4 v/(2d), where x = 2 d omega / v < 2e-4, Phi is its head
    (proportional to omega^p) and the kernel omega^2 K1(x) Phi holds
    about x^(2+p) < 1e-11 of the force; above 60 v/(2d), K1(x) is below
    e^-60.
    """
    scale = v / (2.0 * d)
    return 1e-4 * scale, 60.0 * scale


def _graded_cuts(centre: float, width: float, lo: float, hi: float) -> set[float]:
    """The cuts centre e^(+-2^k width/centre), k = 0, 1, ..., for a peak inside the band (lo, hi).

    A Lorentzian peak of Phi ``width`` wide at ``centre`` is resolved by
    panels of s = log omega that widen by 2 away from it, the mesh that
    bisection toward it ends with: cut there from the start, the table
    reaches it in one call of Phi.  Levels stop once 2^k width/centre
    spans log(hi/lo), as `integrate_finite`'s graded cuts stop at the
    ends: doubling a positive float gets there in at most about 1100 steps.
    The cuts are taken in s and only inside the band, so that no
    exponential leaves the floats.  No cuts for a centre outside the
    band or a width of 0.
    """
    s, s_lo, s_hi = math.log(centre), math.log(lo), math.log(hi)
    step = width / centre
    cuts = set()
    while s_lo < s < s_hi and 0.0 < step < s_hi - s_lo:
        cuts.update(math.exp(x) for x in (s - step, s + step) if s_lo < x < s_hi)
        step *= 2.0
    return cuts


def _kernels(scales: Sequence[float]) -> Callable:
    """(omega, which) -> x^2 K1(x) at x = omega / scales[which]: the weight of Phi in a force.

    Row j is the weight of Phi(omega) in the force at any (v, d) with
    v/(2d) = scales[j], up to a constant factor: k_x^2 K1(2 d k_x) at
    k_x = omega / v is (x^2 K1(x)) / (2d)^2.  ``which`` picks the rows
    (all of them by default, one per scale for each omega); K1 is taken
    once for all of them.  The weight is 0 past x = 745, where e^-x
    underflows.
    """
    column = np.array(scales, dtype=float)[:, None]

    def kernels(omega, which=slice(None)):
        x = omega / column[which]
        # x K1(x) first: x^2 alone overflows far past the underflow of e^-x
        return x * (x * _k1e_array(x) * np.exp(-x))

    return kernels


#: Chebyshev nodes per panel of a `PhiTable`.
TABLE_NODES = 16
#: Panels a `PhiTable` may hold.  A table that still misses its tolerance
#: at this many, or at more from its first cuts, fails: its bisections
#: evaluate Phi on at most 2 * TABLE_MAX_PANELS panels of TABLE_NODES nodes.
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


@dataclass(frozen=True, eq=False)
class PhiTable:
    """Phi(omega) on [omega_lo, omega_hi] as a piecewise Chebyshev series.

    Each panel [edges[i], edges[i+1]] of s = log omega holds the
    coefficients ``coeffs[:, i]`` of h(s) = Phi(omega) / omega^power, and
    ``errors[i]``, the size of its two trailing coefficients plus the
    largest error estimate of h at its nodes, which estimates
    |h_table - h| on it; `_clenshaw` sums the panel of each omega.  Below
    omega_lo the first panel's h at its edge continues the table,
    Phi = h(s_lo) omega^power; above omega_hi Phi is taken as 0 (the
    Bessel kernel that weighs it is below e^-60 there).  Phi is evaluated
    elementwise on an array of omega.
    """

    omega_lo: float
    omega_hi: float
    edges: np.ndarray
    coeffs: np.ndarray  # one column of TABLE_NODES coefficients per panel
    errors: np.ndarray
    power: int

    def __call__(self, omega):
        omega = np.asarray(omega, dtype=float)
        # np.minimum and np.maximum, not np.clip, whose Python wrapper costs more than the work
        s = np.log(np.minimum(np.maximum(omega, self.omega_lo), self.omega_hi))
        i = np.minimum(np.maximum(np.searchsorted(self.edges, s, side="right") - 1, 0),
                       len(self.errors) - 1)
        a, b = self.edges[i], self.edges[i + 1]
        h = _clenshaw(self.coeffs[:, i], (2.0 * s - a - b) / (b - a))
        return np.where(omega > self.omega_hi, 0.0, h * omega**self.power)


def tabulate_phi(
    phi: Callable,
    omega_lo: float,
    omega_hi: float,
    power: int,
    kernels: Callable,
    splits: Sequence[float] = (),
    rel_tol: float = DEFAULT_SPEC.rel_tol,
) -> tuple[PhiTable, np.ndarray, int]:
    """Tabulate ``phi`` on [omega_lo, omega_hi] as a `PhiTable` for the forces it serves.

    ``phi`` maps an array of omega to (Phi, error estimate) at each.
    ``kernels`` maps an array of omega to an array of one row per force:
    the weight w(omega) by which that force integrates Phi,
    Int w Phi d omega up to a constant factor.  Both are called once per
    refinement step, on the TABLE_NODES first-kind Chebyshev nodes of
    each panel it makes: the first step makes the panels between the
    ``splits`` inside the range (the resonances, where h changes
    fastest, and any mesh graded toward them), and each later step the
    two halves of one bisected panel.  A panel's
    tail, the larger of its two trailing coefficients, estimates
    |h_table - h| on it; for each force the panel adds
    tail * Int w omega^power to the force's error and Int w |Phi| to its
    size (Fejer's rule on the panel's nodes).  Refinement is global:
    while some force's error exceeds rel_tol times its size, the panel
    that carries the largest share of such a force's allowance is
    bisected.  A force whose Phi is 0 at every node it weighs sets no
    demand.  Each panel's error in the table is its tail plus the
    largest error of Phi at its nodes (relative to omega^power); Phi's
    own error, which bisection does not reduce, sets no demand.  The
    panels are kept as array columns, in the order of s.

    Returns the table, its moments and their shift: one row per force,
    one column per panel, Int w omega^power over the panel times
    2^shift.  The shift is 0 for omega_hi >= 1 rad/s; below, it keeps
    the moments of a band down to the least floats normal (at finite T
    they underflow below about 1.5e-154 rad/s), and the refinement,
    which compares their ratios, does not see it.
    ``ldexp(moments @ table.errors, -shift)`` is each force's
    Int w |Phi_table - Phi|, its table error.

    Raises
    ------
    NonConvergence
        With level "omega1", naming the omega interval of the panel
        that would be bisected when the table already holds
        TABLE_MAX_PANELS panels or more, or of a panel on which Phi is not
        finite.
    """
    transform, fejer = np.array(_COS), np.array(_FEJER)
    # the moments are taken of omega 2^-k, k the exponent of an omega_hi below 1 rad/s
    # (0 above): exact, and omega 2^-k < 1 at every node
    k = min(0, math.frexp(omega_hi)[1])

    def panels(edges):
        """The panels between ``edges`` as columns, from one call of Phi and one of the kernels.

        Returns their coefficients, errors and tails and, one row per force, their moments
        Int w omega^power and sizes Int w |Phi|.
        """
        a, b = edges[:-1], edges[1:]
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        # math.exp and float powers: numpy's round some nodes differently
        omegas = [math.exp(s) for s in (mid[:, None] + half[:, None] * transform[1]).flat]
        nodes = np.reshape(omegas, (-1, TABLE_NODES))
        scale = np.reshape([w**power for w in omegas], nodes.shape)
        values, errors = phi(nodes.ravel())
        h = np.reshape(values, nodes.shape) / scale
        # the coefficients c_k of sum_k c_k T_k interpolating h at the nodes
        c = (2.0 / TABLE_NODES * (transform * h[:, None, :]).sum(axis=2)).T
        c[0] *= 0.5
        tail = np.maximum(abs(c[-1]), abs(c[-2]))
        error = tail + (np.reshape(errors, nodes.shape) / scale).max(axis=1)
        bad = np.flatnonzero(~np.isfinite(error))
        if bad.size:
            raise NonConvergence(f"Phi is not finite on omega in [{math.exp(a[bad[0]])!r}, "
                                 f"{math.exp(b[bad[0]])!r}]", level="omega1")
        # d omega = omega ds on s = mid + half x
        moments = (half[:, None] * fejer * np.ldexp(nodes, -k) ** (power + 1)
                   * kernels(nodes.ravel()).reshape(-1, *nodes.shape))
        return c, error, tail, moments.sum(axis=2), (moments * np.abs(h)).sum(axis=2)

    s_lo, s_hi = math.log(omega_lo), math.log(omega_hi)
    cuts = sorted(math.log(w) for w in splits if omega_lo < w < omega_hi)
    edges = np.array([s_lo, *cuts, s_hi])
    columns = panels(edges)
    while True:
        tail, moments, sizes = columns[2:]
        force_errors = tail * moments
        # Python's sum in order of s, as the per-panel build in tests/oracles.py sums
        allowed = np.array([rel_tol * sum(row) for row in sizes.tolist()])
        short = [j for j, row in enumerate(force_errors.tolist()) if 0.0 < allowed[j] < sum(row)]
        if not short:
            break
        i = int(np.argmax((force_errors[short] / allowed[short][:, None]).max(axis=0)))
        a, b = float(edges[i]), float(edges[i + 1])
        if edges.size - 1 >= TABLE_MAX_PANELS:
            raise NonConvergence(
                f"Phi table did not reach rel_tol={rel_tol:g} on omega in "
                f"[{math.exp(a)!r}, {math.exp(b)!r}] within {TABLE_MAX_PANELS} panels",
                level="omega1",
            )
        mid = 0.5 * (a + b)
        halves = panels(np.array([a, mid, b]))
        edges = np.insert(edges, i + 1, mid)
        columns = [np.concatenate([old[..., :i], new, old[..., i + 1:]], axis=-1)
                   for old, new in zip(columns, halves)]
    coeffs, errors = columns[:2]
    return PhiTable(omega_lo, omega_hi, edges, coeffs, errors, power), moments, -k * (power + 1)


#: The force series takes a point where x_sp = 2 d omega_sp / v, the kernel's x at
#: the smaller omega_sp, is at least FORCE_SERIES_FROM.  There the moment of order
#: i + 1 is (2i + 3)(2i + 5) times that of order i, against 1 / x_sp^2 <= 1/1600
#: (0.3 at the last order), and past the window of Phi's series, omega_sp / 2,
#: K1 is below e^-20.
FORCE_SERIES_FROM = 40.0
#: Orders the force series sums at most.
FORCE_SERIES_ORDERS = 9


def k1_moments(n: int) -> list[float]:
    """M_mu = Int_0^inf x^mu K1(x) dx at mu = 3, 5, ..., 2n + 1.

    By the recurrence M_(mu+2) = mu (mu + 2) M_mu from M_3 = 3 pi / 2, so
    that M_5 = 45 pi / 2: the moments of the linear and the cubic force.
    """
    moments = [1.5 * math.pi]
    for mu in range(3, 2 * n, 2):
        moments.append(mu * (mu + 2) * moments[-1])
    return moments


def _series_forces(material1: Drude, material2: Drude, b: float, speeds, gaps, rel_tol: float):
    """The force series at each point (speeds[j], gaps[j]): (sums, errors, used), arrays.

    With Phi = omega sum_i phi_(2i+1) ref^(2i) (omega / ref)^(2i)
    (`_phi0.series_coefficients`, rows[0]; b = beta hbar / 2 < inf), each
    power of omega meets the kernel in a moment of K1 (`k1_moments`), and

        F = hbar v S / (32 pi^3 d^4),   S = sum_i rows[0, i] M_(2i+3) y^(2i),

    y = v / (2 d ref): order i = 0 is the linear force.  S sums at most
    FORCE_SERIES_ORDERS orders, and stops before the first that rises
    after the first two (the first, Phi_1's, goes as T^2 and may be the
    smaller at low T).  Its error is Phi's series bound (rows[1]) summed
    the same way, the size of the last two orders kept, the lines' weight
    (``lines``, a bound on Phi over the series' window) against
    Int x^2 K1(x) dx = 2, and 4 FORCE_SERIES_ORDERS ulps of the sum of the
    kept orders' sizes for the rounding.  A point is ``used`` where that error is at
    most rel_tol of S, and S is finite and at least the floor of Phi's
    series (below it the terms may have left the normal floats).
    """
    from ._phi0 import _SERIES_FLOOR, series_coefficients

    ref, rows, lines = series_coefficients(material1, material2, b)
    n = FORCE_SERIES_ORDERS
    y2 = (speeds / (2.0 * gaps * ref)) ** 2
    # orders[j, r, i]: rows[r, i] M_(2i+3) y^(2i) of point j, values (r = 0) and bounds
    orders = rows[:, :n] * np.array(k1_moments(n)) * y2[:, None, None] ** np.arange(n)
    sizes = np.abs(orders[:, 0])
    rising = sizes[:, 2:] > sizes[:, 1:-1]
    kept = np.where(rising.any(axis=1), 2 + rising.argmax(axis=1), n)
    keep = np.arange(n) < kept[:, None]
    sums = np.where(keep, orders[:, 0], 0.0).sum(axis=1)
    last = np.take_along_axis(sizes, kept[:, None] - np.array([1, 2]), axis=1).sum(axis=1)
    errors = (np.where(keep, orders[:, 1], 0.0).sum(axis=1) + last + 4.0 * lines * gaps / speeds
              + 4.0 * n * math.ulp(1.0) * np.where(keep, sizes, 0.0).sum(axis=1))
    used = (_SERIES_FLOOR <= sums) & (sums < math.inf) & (errors <= rel_tol * sums)
    return sums, errors, used


def _serve_by_series(results, material1, material2, b, v, d, live, rel_tol):
    """Fill the results of the points in ``live`` that the force series takes; return the others.

    The series (`_series_forces`) serves a point at finite T (b = beta hbar / 2
    < inf) between lossy, underdamped Drude plates, which have passed
    `response.require_plates`, where 2 d omega_sp / v >= FORCE_SERIES_FROM
    and its error is at most rel_tol; a force it would put outside the
    normal floats is left to the table too.
    """
    from ._phi0 import _underdamped

    if math.isinf(b) or not (_underdamped(material1) and _underdamped(material2)):
        return live
    sp = min(material1.omega_sp, material2.omega_sp)
    fast = [i for i in live if FORCE_SERIES_FROM * v[i] <= 2.0 * d[i] * sp]
    if not fast:
        return live
    speeds, gaps = np.array([v[i] for i in fast]), np.array([d[i] for i in fast])
    with np.errstate(all="ignore"):
        sums, errors, used = _series_forces(material1, material2, b, speeds, gaps, rel_tol)
    taken = set()
    for i, total, err, ok in zip(fast, sums.tolist(), errors.tolist(), used.tolist()):
        if not ok:
            continue
        flags = []
        try:
            force = _force(flags, "k_x", "force series", (CONST.hbar / (32.0 * math.pi**3),
                                                           v[i], total), (d[i],) * 4)
        except FloatFailure:
            continue
        if not flags:
            results[i].force_per_area = force
            results[i].diagnostics.quadrature_rel_err = err / total
            taken.add(i)
    return [i for i in live if i not in taken]


def general_forces(
    material1: MaterialModel,
    material2: MaterialModel,
    thermal: ThermalState,
    v: Sequence[float],
    d: Sequence[float],
    spec: QuadratureSpec = NESTED_SPEC,
) -> list[FrictionResult]:
    """The general force at each point (v[i], d[i]): its force series, or a Phi table and k_x.

    ``v`` and ``d`` are sequences of velocities and gaps (m/s, m) of one
    length.  At finite T between lossy, underdamped Drude plates, a point
    with 2 d omega_sp / v >= FORCE_SERIES_FROM (40; omega_sp the smaller
    one) is the force series (`_series_forces`) wherever its error bound
    is at most ``spec.rel_tol``: it needs no Phi table and no k_x
    integral, and ``quadrature_rel_err`` is that bound.  For the other
    points, Phi(omega) is tabulated once (`tabulate_phi`) over the
    kernel bands of those with v > 0, 1e-4 v/(2d) .. 60 v/(2d): it
    holds h = Phi/omega^p (p = 1 at finite T, 3 at T = 0, so that h
    tends to Phi_1 or Phi_3 at its low end), is cut at omega_sp and at
    the sum c of the two omega_sp of Drude plates, where Phi has its
    resonances, and is refined by one kernel row per point until each
    point's table error is at most ``spec.rel_tol`` of its size.  Where
    c lies in the band, Phi's peak there, (nu1 + nu2)/2 wide, is met by
    the first cuts already: the table starts graded toward it
    (`_graded_cuts`), so that a fast force takes a few calls of Phi,
    not one per bisection.
    Each point then takes one k_x integral of its kernel times the
    table, all in one `numerics.integrate_semi_infinite` pass, on its
    scale 1/(2d) and cut at every panel edge inside its band; the k_y
    integral is the closed form k_x K1(2 d k_x).  Each integral is
    refined on its own segments, so it does not depend on the others in
    the pass.  ``quadrature_rel_err`` adds the integral's error estimate and
    the point's table error, the panel errors weighed by the table's
    moments of its kernel: the budget covers Phi, the table and k_x.  A
    point with v = 0 has force 0; a lossless plate's 0 carries the
    `flag_lossless` flag, and a force below the normal floats is 0 with
    an "underflow:" flag, as is one whose k_x integral is 0 between lossy
    plates, where Phi is below them.

    Raises
    ------
    DomainError
        If a velocity is not finite and >= 0, a gap not finite and > 0,
        or a point's kernel band leaves the float range; or, at any
        v > 0, a plate's omega_p^2 (`response.require_plates`).
    ValueError
        If ``v`` and ``d`` differ in length.
    TypeError
        If, at any v > 0, a plate is not a Drude metal (`response.require_plates`).
    NonConvergence
        With level "omega1" and no ``index``, naming the omega at which
        Phi failed or the omega interval the table could not resolve;
        with level "k_x" and the ``index`` of the point whose integral
        failed first, naming the k_x interval (1/m) on which the rule
        failed and the matching omega = k_x v.
    FloatFailure
        With level "k_x", if a force or its k_x integral overflows; with
        level "omega1", at any v > 0, if the thermal scale 2 k_B T / hbar does.
    """
    v, d = [float(x) for x in v], [float(x) for x in d]
    if len(v) != len(d):
        raise ValueError(f"need one gap per velocity, got {len(v)} velocities "
                         f"and {len(d)} gaps")
    for vi, di in zip(v, d):
        _require_point(vi, di, thermal)
    power = 3 if thermal.is_zero else 1
    results = [FrictionResult(0.0, GENERAL_NUMERIC, Diagnostics()) for _ in v]
    live = [i for i, vi in enumerate(v) if vi]
    if not live:
        return results
    b = require_plates(material1, material2, thermal)
    live = _serve_by_series(results, material1, material2, b, v, d, live, spec.rel_tol)
    if not live:
        return results
    speeds, gaps = np.array([v[i] for i in live]), np.array([d[i] for i in live])
    lo, hi = _kernel_band(speeds, gaps)
    band = float(lo.min()), float(hi.max())
    plates = [m for m in (material1, material2) if m.omega_p > 0]
    sp = [m.omega_sp for m in plates]
    splits = {*sp, sum(sp)}
    if len(plates) == 2:
        # the Lorentzian peak of Phi at the sum resonance, (nu1 + nu2) / 2 wide
        splits |= _graded_cuts(sum(sp), 0.5 * (plates[0].nu + plates[1].nu), *band)
    kernels = _kernels(speeds / (2.0 * gaps))
    # looked up at call time, so that a rebound im_r_dissipation_integral is the one called
    table, moments, shift = tabulate_phi(
        lambda omegas: im_r_dissipation_integral(omegas, material1, material2, thermal, spec),
        *band, power, kernels, sorted(splits), spec.rel_tol,
    )
    edges = np.exp(table.edges)
    # a cut at the lower limit k_x = 0 is no cut; an edge far outside a band would
    # overflow as a k_x
    inside = (lo[:, None] < edges) & (edges < hi[:, None])
    cuts = np.divide(edges, speeds[:, None], out=np.zeros(inside.shape), where=inside)
    speed_column = speeds[:, None]

    def weighed(kx, which):
        """(2d)^2 k_x^2 K1(2 d k_x) Phi(k_x v) of the points in ``which``: kernel times table."""
        omega = kx * speed_column[which]
        return kernels(omega, which) * table(omega)

    try:
        with np.errstate(over="raise"):
            values, errors = integrate_semi_infinite(weighed, 0.5 / gaps, spec, cuts)
    except FloatingPointError as exc:
        raise FloatFailure(f"the k_x integral leaves the float range ({exc})", "k_x") from exc
    except NonConvergence as exc:
        (kx_lo, kx_hi), vj = exc.interval, float(speeds[exc.index])
        raise NonConvergence(
            f"k_x integral did not converge on k_x in [{kx_lo!r}, {kx_hi!r}] 1/m, "
            f"omega = k_x v in [{kx_lo * vj!r}, {kx_hi * vj!r}] rad/s", level="k_x",
            index=live[exc.index],
        ) from exc
    # Int w |Phi_table - Phi| d omega, and d omega = v dk_x; sums, not a matrix
    # product, whose first call would have BLAS allocate its buffers.  The sums are
    # divided by the mantissas of v, and take both powers of 2 last, so that no
    # step leaves the floats
    mantissas, exponents = np.frexp(speeds)
    table_errors = np.ldexp((moments * table.errors).sum(axis=1) / mantissas,
                            -shift - exponents).tolist()
    for i, value, err, bound in zip(live, values.tolist(), errors.tolist(), table_errors):
        result = results[i]
        if not value and all(m.omega_p > 0.0 and m.nu > 0.0 for m in (material1, material2)):
            result.diagnostics.validity_flags.append(
                "underflow: Phi is below the normal floats over the kernel band; reported as 0")
        # k_x^2 K1(2 d k_x) = x^2 K1(x) / (2d)^2
        result.force_per_area = _force(
            result.diagnostics.validity_flags, "k_x", f"force hbar Int x^2 K1(x) Phi dk_x / "
            f"(8 pi^3 d^2) at d = {d[i]!r} m, v = {v[i]!r} m/s",
            (CONST.hbar / (8.0 * math.pi**3), value), (d[i], d[i]))
        result.diagnostics.quadrature_rel_err = (abs(err) + bound) / abs(value) if value else 0.0
        flag_lossless(result.diagnostics, material1, material2)
    return results


def dissipation_general(
    material1: MaterialModel,
    material2: MaterialModel,
    config: PlateConfig,
    thermal: ThermalState,
    v: float,
    spec: QuadratureSpec = NESTED_SPEC,
) -> FrictionResult:
    """Friction force from the full k-space/spectral dissipation integral.

    Valid at any temperature and velocity, for Drude plates: the one
    point (v, config.d) of `general_forces`.  At finite T between lossy,
    underdamped Drude plates and 2 d omega_sp / v >= 40 it is the force
    series wherever its bound
    holds ``spec.rel_tol``, and ``quadrature_rel_err`` is that bound;
    otherwise a Phi table is built for it alone, and
    ``quadrature_rel_err`` covers Phi, the table and the k_x integral.

    Raises
    ------
    DomainError
        If v is not finite and >= 0, or its kernel band leaves the float
        range; or, at v > 0, a plate's omega_p^2 (`response.require_plates`).
    FloatFailure
        With level "k_x", if the force overflows; with level "omega1", at
        v > 0, if the thermal scale 2 k_B T / hbar does.
    NonConvergence
        With ``level`` identifying the failing nesting level
        ("omega1" or "k_x"); an "omega1" failure names the omega at
        which Phi failed or the omega interval its table could not
        resolve, a "k_x" failure the k_x interval (1/m) on which the
        rule failed and the matching omega = k_x v.
    TypeError
        If, at v > 0, a plate is not a Drude metal (`response.require_plates`).
    """
    return general_forces(material1, material2, thermal, [v], [config.d], spec)[0]


def force_plasmon(omega_sp: float, config: PlateConfig, v: float) -> FrictionResult:
    """Friction force for a single surface-plasmon line at omega_sp.

    The delta-line case of the omega integral, i.e. the nu -> 0 limit
    of a Drude metal with omega_sp = omega_p / sqrt(2): at T = 0 two lines
    -Im R = (pi omega_sp / 2) delta(omega - omega_sp) give
    Phi = (pi^2 omega_sp^2 / 2) delta(omega - 2 omega_sp), which pins
    k_x = 2 omega_sp / v and leaves
    (hbar omega_sp^4 / (pi v^3)) K1(4 omega_sp d / v), carrying the
    suppression factor exp(-4 omega_sp d / v).

    The force is one product (`_force`), in which e^-x enters as two
    factors e^(-x/2), x = 4 omega_sp d / v.  Where that factor is 0 (past
    x = 1490; v = 0 makes x infinite) or the force is below the normal
    floats, it is 0 with an "underflow:" flag.  A force past them, or at
    x = 0, the pole of K1, raises FloatFailure.
    """
    if not omega_sp > 0:
        raise DomainError(f"omega_sp must be > 0, got {omega_sp}")
    _require_velocity(v)
    diag = Diagnostics()
    kx = 2.0 * omega_sp / v if v else math.inf
    x = 2.0 * config.d * kx  # suppression exponent 4 omega_sp d / v
    diag.suppression_exponent = x
    half = math.exp(-0.5 * x)
    if not half:
        diag.validity_flags.append(f"underflow: e^(-x/2) is 0 at x = 4 omega_sp d / v = {x!r}; "
                                   "the force is reported as 0")
        return FrictionResult(0.0, PLASMON_LINE, diag)
    with float_guard(PLASMON_LINE, f"K1(x) e^x at x = 4 omega_sp d / v = {x!r}"):
        k1e = _k1e(x)
    force = _force(diag.validity_flags, PLASMON_LINE,
                   f"force (hbar omega_sp^4 / (pi v^3)) K1(4 omega_sp d / v) at "
                   f"d = {config.d!r} m, v = {v!r} m/s",
                   (CONST.hbar / math.pi, omega_sp, omega_sp, omega_sp, omega_sp, k1e, half, half),
                   (v, v, v))
    return FrictionResult(force, PLASMON_LINE, diag)
