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
GeneralNumeric  the formula at any T and v: one k_x quadrature, with Phi
                at its nodes, or at finite T and small v its force series
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
holds ``spec.rel_tol``, with no k_x integral (`_series_forces`).  It
sums at most FORCE_SERIES_ORDERS orders, and forms only those: the
coefficients' contraction runs over them alone, and the orders of all
the points of a call are one array.  The
other points of a call, all of them at T = 0 and at finite T those the
series refuses, take one k_x integral each (`_kx_integrals`), in
x = 2 d k_x = 2 d omega / v,

    F = (hbar / (16 pi^3 d^3)) Int_0^inf dx x^2 K1(x) Phi(x v / (2d)),

where every point weighs Phi by one kernel, x^2 K1(x) (`_kernel`),
which decays on the unit scale.  They take one
`numerics.integrate_semi_infinite` pass over an array integrand, the
kernel times Phi at the pass's own nodes, by the package's one G7/K15
rule; each bisection round takes K1 once, and Phi once
(`response.im_r_dissipation_integral`), at the new nodes of every point
where the kernel is not 0.  Each integral starts on a mesh that covers
the kernel's tail, cut at x = 10 and 20 (`_KERNEL_CUTS`) past the last
uniform segment of the mapped variable, which ends at x = 7; at the
Drude resonances omega_sp and c = omega_sp1 + omega_sp2, at
x = 2 d omega / v below 60, and one unit of x below each omega_sp's,
where Phi climbs toward the line; and toward c, where Phi has a Lorentzian peak
(nu1 + nu2)/2 wide, it starts graded: cuts at x_c +- 2^k (nu1 + nu2) d / v,
k = 0, 1, ... (`numerics.graded_points`), the mesh that bisection would
reach one round at a time.  So a force usually takes one round, and Phi
one call.  Each is refined on its own segments, so that it does not
depend on the other points' integrals.  Phi takes Drude plates
only, so a general force on a tabulated material is a TypeError.
Phi is one integral over the real line, folded at omega/2, and holds
each node to `response.phi_tolerance` of itself: 1e-3 of
``spec.rel_tol`` (`response.PHI_TOL`), or 1e-12.  For lossy,
underdamped Drude plates it is a closed form where its bound holds that
tolerance: a sum over the poles of its integrand from omega_sp / 2 up,
of digamma functions at finite T and of logarithms at T = 0, and below
omega_sp / 2 at finite T its small-omega series (for the reference
metal at every omega there up to about 1000 K).  Only the other nodes
are integrated: at T = 0, those below omega_sp / 2 among them.  Phi is
>= 0, so a point's integral is off by at most that tolerance times
itself for Phi's errors: ``quadrature_rel_err`` adds that share to the
rule's |K15 - G7|, and the rule is held to the rest of
``spec.rel_tol``, so that the budget covers Phi and the k_x integral.
`dissipation_general` is the one point of `general_forces`.

K1 comes from one identity, K1(x) e^x = Int_0^inf e^{-x (cosh t - 1)} cosh t dt,
summed by the trapezoid rule.  The plasmon line needs it at one point
and sums it in plain Python (`_k1e`), so the closed forms load no numpy
(`numerics` binds numpy lazily).  The general force needs it on arrays
of nodes (`_kernel`): `_xk1e_array` evaluates a piecewise Chebyshev
interpolant of x K1(x) e^x in log x, built from the same sum at first
use (`_k1_fit`) and summed by `_clenshaw`, which the kernel takes as it
is.  Both agree with `scipy.special.k1e` to a few ulps, and the package
imports no scipy.

For a Drude head Im R = -nu omega / omega_sp^2 the coefficients are
Phi_1 = 4 pi^2 nu^2 / (3 beta^2 hbar^2 omega_sp^4) and
Phi_3 = nu^2 / (3 omega_sp^4).  No result depends on the paper's
oscillator densities rho1, rho2, and no function reads them.  Every
force is one product of its factors, the coefficients' among them
(`_force`), so that no intermediate leaves the floats: where every
partial product is a normal float it is the plain product, with no
split into mantissas and exponents.
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Callable, Sequence

from .numerics import (
    CONST,
    NESTED_SPEC,
    DomainError,
    FloatFailure,
    NonConvergence,
    QuadratureSpec,
    _Record,
    float_guard,
    graded_points,
    integrate_semi_infinite,
    np,
)
from .material import Drude, MaterialModel, surface_response
from .geometry import PlateConfig
from .response import (ThermalState, im_r_dissipation_integral, phi_slope, phi_tolerance,
                       require_plates)

LINEAR_FINITE_T = "LinearFiniteT"
ZERO_T_CUBIC = "ZeroT_Cubic"
GENERAL_NUMERIC = "GeneralNumeric"
PLASMON_LINE = "PlasmonLine"

#: The smallest normal float: above it, a partial product of `_force` rounds as its
#: mantissa does.
_NORMAL = sys.float_info.min

class Diagnostics(_Record, frozen=False):
    """Quadrature quality and validity bookkeeping attached to each result.

    A closed form used near or beyond its validity window appends a
    message to ``validity_flags`` (a new empty list where none is given);
    the result is the only place a flag is reported.
    """

    __match_args__ = ("quadrature_rel_err", "validity_flags", "suppression_exponent")

    def __init__(self, quadrature_rel_err: float = 0.0, validity_flags: list[str] | None = None,
                 suppression_exponent: float | None = None):
        self.quadrature_rel_err = quadrature_rel_err
        self.validity_flags = [] if validity_flags is None else validity_flags
        self.suppression_exponent = suppression_exponent


class FrictionResult(_Record, frozen=False):
    """Friction force per unit area (magnitude; it opposes the relative motion)."""

    __match_args__ = ("force_per_area", "regime", "diagnostics")

    def __init__(self, force_per_area: float, regime: str, diagnostics: Diagnostics):
        self.force_per_area = force_per_area
        self.regime = regime
        self.diagnostics = diagnostics


def flag_lossless(diag: Diagnostics, *materials: MaterialModel) -> None:
    """Flag the 0 that a lossless Drude plate (omega_p > 0, nu = 0) gives but its line does not."""
    if any(isinstance(m, Drude) and m.omega_p > 0.0 and m.nu == 0.0 for m in materials):
        diag.validity_flags.append("nu = 0: a lossless plate gives 0 here; its force is the "
                                   "nu -> 0 limit, the plasmon line (--regime plasmon)")


def _require_velocity(v: float) -> None:
    if not (v >= 0 and math.isfinite(v)):
        raise DomainError(f"velocity must be finite and >= 0, got {v}")


def _require_points(v: Sequence[float], d: Sequence[float], thermal: ThermalState) -> None:
    """Refuse the first point (v[i], d[i]) that the general force cannot take.

    The DomainError names the point's index i.
    """
    power = 3 if thermal.is_zero else 1
    # the band [1e-4 s, 60 s] of omega = x s, s = v / (2d), holds all of the k_x integrand
    # but x^(2 + power) < 1e-11 of it below and e^-60 above; it must keep Phi's head
    # Phi_1 omega or Phi_3 omega^3 a normal float at its low end, and omega^(power + 1)
    # finite at its high end, so that the integrand's nodes x s out to x = 745, where
    # the kernel is 0, and Phi at them stay inside the floats; and k_x = omega / v finite
    tiny, huge = sys.float_info.min ** (1.0 / power), sys.float_info.max ** (1.0 / (power + 1))
    for i, (vi, di) in enumerate(zip(v, d)):
        if not 0.0 <= vi < math.inf:
            raise DomainError(f"velocity must be finite and >= 0, got {vi}", index=i)
        if not 0.0 < di < math.inf:
            raise DomainError(f"gap d must be finite and > 0, got {di!r}", index=i)
        scale = vi / (2.0 * di)
        lo, hi = 1e-4 * scale, 60.0 * scale
        if vi and not (tiny <= lo and hi <= huge and hi / vi < math.inf):
            raise DomainError(f"the kernel band [{lo}, {hi}] rad/s of v = {vi!r} m/s, "
                              f"d = {di!r} m leaves the float range of the general force",
                              index=i)


def _force(flags: list[str], level: str, quantity: Callable[[], str], factors,
           divisors=()) -> float:
    """prod(factors) / prod(divisors), with one rounding into the floats at the end.

    Each operand is split into its mantissa in [0.5, 1) and its power of
    2 (math.frexp), so that no intermediate leaves the normal floats; the
    product of the mantissas takes its power of 2 last (math.ldexp).
    Where every partial product of the plain product, in order, is a
    normal float, that split changes no rounding, and the plain product
    is taken as it is.  A result past the float range raises
    FloatFailure at ``level``; one below the normal floats, of nonzero
    operands, is reported as 0 with an "underflow:" flag appended to
    ``flags``.  ``quantity()`` names the result in either text, and is
    called only then.
    """
    result = 1.0
    for x in factors:
        result *= x
        if not _NORMAL < abs(result) < math.inf:
            break
    else:
        for x in divisors:
            result /= x
            if not _NORMAL < abs(result) < math.inf:
                break
        else:
            return result
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
        raise FloatFailure(f"{quantity()} is not finite", level)
    if mantissa and abs(result) < sys.float_info.min:
        flags.append(f"underflow: {quantity()} is below the normal floats; reported as 0")
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
                   lambda: f"force 3 hbar v Phi_1 / (64 pi^2 d^4) at d = {d!r} m, v = {v!r} m/s",
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
                       lambda: f"force 45 hbar v^3 Phi_3 / (256 pi^2 d^6) at d = {d!r} m, "
                               f"v = {v!r} m/s",
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
    """sum_k coeffs[k] T_k(x) by Clenshaw's recurrence: the series of `_xk1e_array`.

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


def _xk1e_array(x):
    """x K1(x) e^x on an array of 0 < x <= e^7 (about 1097), in numpy.

    The panel of s = log x holding each x is found by arithmetic, and its
    Chebyshev series (`_k1_fit`) is summed by `_clenshaw`; it agrees with
    x `_k1e`(x) and with x `scipy.special.k1e`(x) to a few ulps.  Below
    the first panel (x < e^-38), where x K1(x) e^x is 1 to double
    precision, its value at its edge continues it.  Past the last, it is
    held at its value at e^7, a finite stand-in: there K1(x) is below
    1e-470, and every x K1(x) e^x e^-x is 0.
    """
    x = np.asarray(x, dtype=float)
    p = np.minimum(np.maximum(np.log(x) / _K1_WIDTH - _K1_START / _K1_WIDTH, 0.0),
                   _K1_PANELS * (1.0 - 1e-15))
    i = p.astype(np.intp)
    return _clenshaw(_k1_fit()[:, i], 2.0 * (p - i) - 1.0)


def _kernel(x):
    """x^2 K1(x) on an array of x > 0: the weight of Phi in every force.

    In x = 2 d k_x = 2 d omega / v, the force at (v, d) is
    hbar / (16 pi^3 d^3) Int_0^inf x^2 K1(x) Phi(x v / (2d)) dx, so every
    point weighs Phi by this one function of x.  It is 0 past x = 745,
    where e^-x underflows.
    """
    # x K1(x) first: x^2 alone overflows far past the underflow of e^-x
    return x * (_xk1e_array(x) * np.exp(-x))


#: Cuts of the kernel's own, in x, in every k_x integral.  The uniform start
#: segments in t = x / (1 + x) (`numerics.integrate_semi_infinite`) leave all of
#: x > 7 to one segment, and there x^2 K1(x) Phi, about x^5 K1(x) for a slow force
#: at T = 0, holds a share that one K15 segment does not resolve: cut into three
#: from the start, it needs no second round of bisection, and Phi no second call.
_KERNEL_CUTS = (10.0, 20.0)


#: The force series takes a point where x_sp = 2 d omega_sp / v, the kernel's x at
#: the smaller omega_sp, is at least FORCE_SERIES_FROM.  There the moment of order
#: i + 1 is (2i + 3)(2i + 5) times that of order i, against 1 / x_sp^2 <= 1/1600
#: (0.3 at the last order), and past the window of Phi's series, omega_sp / 2,
#: K1 is below e^-20.
FORCE_SERIES_FROM = 40.0
#: Orders the force series sums at most.
FORCE_SERIES_ORDERS = 9
#: hbar / (32 pi^3) and hbar / (16 pi^3): the constant factors of a force of the
#: series and of a k_x integral.
_SERIES_FACTOR = CONST.hbar / (32.0 * math.pi**3)
_INTEGRAL_FACTOR = CONST.hbar / (16.0 * math.pi**3)


def k1_moments(n: int) -> list[float]:
    """M_mu = Int_0^inf x^mu K1(x) dx at mu = 3, 5, ..., 2n + 1.

    By the recurrence M_(mu+2) = mu (mu + 2) M_mu from M_3 = 3 pi / 2, so
    that M_5 = 45 pi / 2: the moments of the linear and the cubic force.
    """
    moments = [1.5 * math.pi]
    for mu in range(3, 2 * n, 2):
        moments.append(mu * (mu + 2) * moments[-1])
    return moments


def _series_forces(material1: Drude, material2: Drude, b: float, v, d, points, rel_tol: float):
    """{i: (S, error)} of the points i in ``points`` that the force series takes.

    It serves (v[i], d[i]) at finite T (b = beta hbar / 2 < inf) between
    lossy, underdamped Drude plates where 2 d omega_sp / v >=
    FORCE_SERIES_FROM (omega_sp the smaller one).  With
    Phi = omega sum_i phi_(2i+1) ref^(2i) (omega / ref)^(2i)
    (`_phi0.series_coefficients`, rows[0], formed for the
    FORCE_SERIES_ORDERS orders that S sums at most), each power of omega
    meets the kernel in a moment of K1 (`k1_moments`), and

        F = hbar v S / (32 pi^3 d^4),   S = sum_i rows[0, i] M_(2i+3) y^(2i),

    y = v / (2 d ref): order i = 0 is the linear force.  S stops before
    the first order that rises after the first two (the first, Phi_1's,
    goes as T^2 and may be the smaller at low T).  Its error is Phi's
    series bound (rows[1]) summed the same way, the size of the last two
    orders kept, the lines' weight (``lines``, a bound on Phi over the
    series' window) against Int x^2 K1(x) dx = 2, and 4 FORCE_SERIES_ORDERS
    ulps of the sum of the kept orders' sizes for the rounding.  A point is
    taken where that error is at most rel_tol of S, and S is finite and at
    least the floor of Phi's series (below it the terms may have left the
    normal floats).  The orders of all points are one array, and each
    point's sums are numpy's sums over its own row, so that a point's S
    does not depend on the others.
    """
    from ._phi0 import _SERIES_FLOOR, _underdamped, series_coefficients

    if math.isinf(b) or not (_underdamped(material1) and _underdamped(material2)):
        return {}
    sp = min(material1.omega_sp, material2.omega_sp)
    fast = [i for i in points if FORCE_SERIES_FROM * v[i] <= 2.0 * d[i] * sp]
    if not fast:
        return {}
    n = FORCE_SERIES_ORDERS
    with np.errstate(all="ignore"):
        ref, rows, lines = series_coefficients(material1, material2, b, n)
        y2 = []
        for i in fast:
            y = v[i] / (2.0 * d[i] * ref)
            y2.append(y * y)
        # orders[j, r, i]: rows[r, i] M_(2i+3) y^(2i) of point j, values (r = 0), bounds,
        # and the values' sizes; rising[j, k]: whether its order k + 2 rises, and True at
        # k = n - 2, so that its first True is where its sums stop
        terms = rows * np.array(k1_moments(n))
        terms = np.concatenate((terms, np.abs(terms[:1])))
        orders = terms * (np.array(y2)[:, None] ** np.arange(n))[:, None]
        sizes = orders[:, 2]
        rising = np.ones((len(fast), n - 1), dtype=bool)
        np.greater(sizes[:, 2:], sizes[:, 1:-1], out=rising[:, :-1])
        kept = 2 + rising.argmax(axis=1)
        sums = np.where(np.arange(n) < kept[:, None, None], orders, 0.0).sum(axis=2)
    ulps = 4.0 * n * math.ulp(1.0)
    taken = {}
    for i, k, (total, bound, size), row in zip(fast, kept.tolist(), sums.tolist(), sizes.tolist()):
        err = bound + (row[k - 1] + row[k - 2]) + 4.0 * lines * d[i] / v[i] + ulps * size
        if _SERIES_FLOOR <= total < math.inf and err <= rel_tol * total:
            taken[i] = (total, err)
    return taken


def _kx_integrals(material1, material2, thermal, v, d, points, spec):
    """{i: (I, error)} of the points i in ``points``: I = Int x^2 K1(x) Phi(x v / (2d)) dx.

    One k_x pass serves them all (`general_forces`), Phi at its own nodes;
    an error adds the rule's |K15 - G7| and Phi's share, its tolerance
    times I.  Each point's row of cuts holds the kernel's (`_KERNEL_CUTS`),
    its resonances' x below 60, x_sp - 1 below each omega_sp's, and the
    points graded toward c, so that its integral usually takes one round
    of bisection: one call of Phi.
    """
    if not points:
        return {}
    speeds, gaps = np.array([v[i] for i in points]), np.array([d[i] for i in points])
    # omega = x s at each point's s = v / (2d)
    scales = speeds / (2.0 * gaps)
    column = scales[:, None]
    plates = [m for m in (material1, material2) if m.omega_p > 0]
    sp = [m.omega_sp for m in plates]
    c, width = sum(sp), 0.5 * sum(m.nu for m in plates)
    # a resonance is a cut at x = omega / s below 60, where K1 is still above e^-60;
    # one far above would leave the floats as an x.  Below omega_sp, Phi climbs as
    # 1 / (omega_sp - omega) up to within nu of it, and a cut at x_sp - 1 holds the
    # climb's steep end on a segment of its own; the omega_sp are the first features,
    # since c is their sum, and a cut at x <= 0 is dropped
    features = np.array(sorted({*sp, c}))
    at = np.divide(features, column, out=np.zeros((len(points), features.size)),
                   where=features < 60.0 * column)
    cuts = np.concatenate((np.broadcast_to(_KERNEL_CUTS, (len(points), len(_KERNEL_CUTS))),
                           at, at[:, :len({*sp})] - 1.0), axis=1)
    reach = c < 60.0 * scales
    if len(plates) == 2 and 0.0 < width < c and reach.any():
        # the Lorentzian peak of Phi at the sum resonance c, (nu1 + nu2) / 2 wide, met
        # by cuts graded toward it in the integrals that reach it below x = 60; where
        # none does, every graded point would be 0, a cut the integrals drop
        centre, half = (np.divide(w, scales, out=np.zeros(len(points)), where=reach)
                        for w in (c, width))
        cuts = np.concatenate((cuts, graded_points(centre, half, 0.0, 60.0)), axis=1)
    tol = phi_tolerance(spec)
    # the rule leaves Phi its share of rel_tol, where Phi's floor leaves room for both
    rule = QuadratureSpec(spec.rel_tol - tol) if 2.0 * tol < spec.rel_tol else spec

    def weighed(x, which):
        """x^2 K1(x) Phi(x s) of the points in ``which``, Phi taken where the kernel is not 0."""
        kernel = _kernel(x)
        live = np.flatnonzero(kernel > 0.0)
        phi = np.zeros(x.size)
        try:
            # looked up at call time, so that a rebound im_r_dissipation_integral is the one called
            phi[live], _ = im_r_dissipation_integral((x * column[which]).ravel()[live],
                                                     material1, material2, thermal, spec)
        except NonConvergence as exc:
            # Phi's failure keeps its level and its omega, and names the point of its node
            raise NonConvergence(str(exc), level=exc.level,
                                 index=points[which[live[exc.index] // x.shape[1]]]) from exc
        return kernel * phi.reshape(x.shape)

    try:
        with np.errstate(over="raise"):
            values, errors = integrate_semi_infinite(weighed, rule, cuts)
    except FloatingPointError as exc:
        raise FloatFailure(f"the k_x integral leaves the float range ({exc})", "k_x") from exc
    except NonConvergence as exc:
        if exc.level:  # Phi's, at the omega it names
            raise
        (x_lo, x_hi), j = exc.interval, exc.index
        two_d, s = 2.0 * float(gaps[j]), float(scales[j])
        raise NonConvergence(
            f"k_x integral did not converge on k_x in [{x_lo / two_d!r}, {x_hi / two_d!r}] 1/m, "
            f"omega = k_x v in [{x_lo * s!r}, {x_hi * s!r}] rad/s", level="k_x",
            index=points[j],
        ) from exc
    return {i: (value, err + tol * abs(value)) for i, value, err
            in zip(points, values.tolist(), errors.tolist())}


def general_forces(
    material1: MaterialModel,
    material2: MaterialModel,
    thermal: ThermalState,
    v: Sequence[float],
    d: Sequence[float],
    spec: QuadratureSpec = NESTED_SPEC,
) -> list[FrictionResult]:
    """The general force at each point (v[i], d[i]): its force series, or its k_x integral.

    ``v`` and ``d`` are sequences of velocities and gaps (m/s, m) of one
    length, such as plain lists, and each point is checked once
    (`_require_points`).  At finite T between lossy, underdamped Drude
    plates, a point with 2 d omega_sp / v >= FORCE_SERIES_FROM (40;
    omega_sp the smaller one) is the force series (`_series_forces`)
    wherever its error bound is at most ``spec.rel_tol``: it needs no k_x
    integral, and ``quadrature_rel_err`` is that bound.  Each other point
    with v > 0 takes one k_x integral, in x = 2 d k_x, of the one kernel
    x^2 K1(x) (`_kernel`) times Phi(x v/(2d)) at the integral's own
    nodes, all in one `numerics.integrate_semi_infinite` pass on the unit
    scale of x (`_kx_integrals`).  Each integral is cut at the kernel's own
    x = 10 and 20 (`_KERNEL_CUTS`), which cover its tail past the start
    mesh's last segment, at x = 2 d omega / v of the resonances omega_sp
    and the sum c of the two omega_sp of Drude plates, where Phi has its
    kinks and peaks, one unit of x below each omega_sp's, where Phi climbs
    toward the line, and, where c lies below x = 60, graded toward Phi's
    peak there, (nu1 + nu2)/2 wide (`numerics.graded_points`).  So a force
    usually takes one round of bisection, and Phi one call, and a fast one
    a few, not one per halving of the distance to the peak.  The
    k_y integral is the closed form k_x K1(2 d k_x), and the force is
    hbar / (16 pi^3 d^3) times the integral.  Each integral is refined on
    its own segments, so it does not depend on the others in the pass.
    Phi holds each node to `response.phi_tolerance`, and Phi >= 0, so
    ``quadrature_rel_err`` adds that tolerance to the rule's error
    estimate, and the rule is held to the rest of ``spec.rel_tol``: the
    budget covers Phi and k_x, and stays within ``spec.rel_tol`` where
    Phi's floor (1e-12) leaves room for both.
    Every point's force is then one product (`_force`) of its series
    sum or its k_x integral, formed in one loop.  A point with v = 0 has
    force 0; a lossless plate's 0 carries the `flag_lossless` flag, and a
    force below the normal floats is 0 with an "underflow:" flag naming
    its formula, d and v, as is one whose k_x integral is 0 between
    lossy plates, where Phi is below them.  A force past the normal
    floats raises FloatFailure.  Either holds for a series point as for
    a k_x point.

    Raises
    ------
    DomainError
        If a velocity is not finite and >= 0, a gap not finite and > 0,
        or a point's kernel band leaves the float range, with the
        ``index`` of the first such point; or, at any v > 0, a plate's
        omega_p^2 (`response.require_plates`).
    ValueError
        If ``v`` and ``d`` differ in length.
    TypeError
        If, at any v > 0, a plate is not a Drude metal (`response.require_plates`).
    NonConvergence
        With the ``index`` of the point whose integral failed first: with
        level "omega1", naming the omega at which Phi failed at a node of
        that integral; with level "k_x", naming the k_x interval (1/m) on
        which the rule failed and the matching omega = k_x v.
    FloatFailure
        With level "k_x", if a force (of the series or of the k_x
        integral) or a k_x integral overflows, with the ``index`` of the
        first point whose force does; with level "omega1", at any v > 0,
        if the thermal scale 2 k_B T / hbar does.
    """
    v, d = [float(x) for x in v], [float(x) for x in d]
    if len(v) != len(d):
        raise ValueError(f"need one gap per velocity, got {len(v)} velocities "
                         f"and {len(d)} gaps")
    _require_points(v, d, thermal)
    live = [i for i, vi in enumerate(v) if vi]
    by_series = by_kx = {}
    if live:
        b = require_plates(material1, material2, thermal)
        by_series = _series_forces(material1, material2, b, v, d, live, spec.rel_tol)
        by_kx = _kx_integrals(material1, material2, thermal, v, d,
                              [i for i in live if i not in by_series], spec)
    lossy = all(m.omega_p > 0.0 and m.nu > 0.0 for m in (material1, material2))
    results = []
    for i, (vi, di) in enumerate(zip(v, d)):
        if not vi:
            results.append(FrictionResult(0.0, GENERAL_NUMERIC, Diagnostics()))
            continue
        # each force is one product (`_force`): hbar v S / (32 pi^3 d^4) of the series'
        # sum S, or hbar I / (16 pi^3 d^3) of the k_x integral I in x = 2 d k_x
        if i in by_series:
            (value, err), formula = by_series[i], "force series hbar v S / (32 pi^3 d^4)"
            factors, divisors = (_SERIES_FACTOR, vi, value), (di, di, di, di)
        else:
            (value, err), formula = by_kx[i], "force hbar Int x^2 K1(x) Phi dx / (16 pi^3 d^3)"
            factors, divisors = (_INTEGRAL_FACTOR, value), (di, di, di)
        diag = Diagnostics(err / abs(value) if value else 0.0)
        if not value and lossy:
            diag.validity_flags.append(
                "underflow: Phi is below the normal floats over the kernel band; reported as 0")
        try:
            force = _force(diag.validity_flags, "k_x",
                           lambda: f"{formula} at d = {di!r} m, v = {vi!r} m/s", factors, divisors)
        except FloatFailure as exc:
            raise FloatFailure(str(exc), exc.level, index=i) from exc
        if not lossy:
            flag_lossless(diag, material1, material2)
        results.append(FrictionResult(force, GENERAL_NUMERIC, diag))
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
    series wherever its bound holds ``spec.rel_tol``, and
    ``quadrature_rel_err`` is that bound; otherwise it is the k_x
    integral of the kernel times Phi at its nodes, and
    ``quadrature_rel_err`` covers Phi and the k_x integral.

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
        which Phi failed, a "k_x" failure the k_x interval (1/m) on
        which the rule failed and the matching omega = k_x v.
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
                   lambda: f"force (hbar omega_sp^4 / (pi v^3)) K1(4 omega_sp d / v) at "
                           f"d = {config.d!r} m, v = {v!r} m/s",
                   (CONST.hbar / math.pi, omega_sp, omega_sp, omega_sp, omega_sp, k1e, half, half),
                   (v, v, v))
    return FrictionResult(force, PLASMON_LINE, diag)
