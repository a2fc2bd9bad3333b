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
GeneralNumeric  the k_x quadrature of the formula, any T and v
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
and d enter only through the kernel omega^2 K1(2 d omega / v).  So
any number of general forces is one Phi table and one k_x quadrature
per point against it (`general_forces`).  The table spans the kernel
bands of its points, 1e-4 v/(2d) .. 60 v/(2d), is cut at the Drude
resonances omega_sp and 2 omega_sp, and is refined by one kernel row
per point, one bisection at a time, in at most TABLE_MAX_PANELS (64)
panels (`tabulate_phi`).  Each refinement step asks
`response.im_r_dissipation_integral` for the 16 nodes of each of its
new panels in one call, each to 1e-3 of ``spec.rel_tol``
(`response.PHI_TOL`), with an error estimate per node; Phi takes Drude
plates only, so a general force on a tabulated material is a TypeError.
Phi is one integral over the real line, folded at omega/2.  For lossy,
underdamped Drude plates the T = 0 part of its sum channel is a closed
form where its rounding bound holds that tolerance: a sum of 16
pole-pair logarithms from 1.1 omega_sp up (to about 20 omega_sp for a
line 1e-3 omega_sp wide), and at T = 0 a power series up to
omega_sp / 2.  There only the thermal rest of the integral is taken by
quadrature, and the node's error estimate adds that rounding bound.  So
a T = 0 force whose band lies in those windows integrates nothing but
k_x.
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
of nodes (`_kernels`): `_k1e_array` evaluates a
piecewise polynomial fit of x K1(x) e^x in log x, built from the same
sum at first use (`_k1_fit`).  Both agree with `scipy.special.k1e` to a
few ulps, and the package imports no scipy.

For a Drude head Im R = -nu omega / omega_sp^2 the coefficients are
Phi_1 = 4 pi^2 nu^2 / (3 beta^2 hbar^2 omega_sp^4) and
Phi_3 = nu^2 / (3 omega_sp^4).  No result depends on the paper's
oscillator densities rho1, rho2, and no function reads them.
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
from .response import ThermalState, im_r_dissipation_integral, phi_slope

LINEAR_FINITE_T = "LinearFiniteT"
ZERO_T_CUBIC = "ZeroT_Cubic"
GENERAL_NUMERIC = "GeneralNumeric"
PLASMON_LINE = "PlasmonLine"

#: exp(-x) underflows double precision near 745; beyond this the plasmon
#: force is reported as exactly zero with a flag.
UNDERFLOW_EXPONENT = 700.0


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


def force_linear(
    material: MaterialModel,
    config: PlateConfig,
    thermal: ThermalState,
    v: float,
    spec: QuadratureSpec = NESTED_SPEC,
) -> FrictionResult:
    """Linear-in-v friction force F = 3 hbar v Phi_1 / (64 pi^2 d^4) at finite temperature.

    Phi_1 is the small-omega slope of Phi: the closed form
    4 pi^2 nu^2 / (3 beta^2 hbar^2 omega_sp^4) of the Drude head, or the
    `response.phi_slope` quadrature over a tabulated material's grid,
    cell by cell between its nodes, whose error estimate is reported as
    ``quadrature_rel_err``.

    Raises
    ------
    DomainError
        At T = 0 (the linear channel closes) or v < 0.
    """
    if thermal.is_zero:
        raise DomainError("force_linear requires finite temperature")
    _require_velocity(v)
    diag = Diagnostics()

    if isinstance(material, Drude):
        if material.nu == 0.0 or material.omega_p == 0.0:
            phi1 = 0.0
            flag_lossless(diag, material)
        else:
            with float_guard(LINEAR_FINITE_T,
                             "Phi_1 = 4 pi^2 nu^2 / (3 (beta hbar omega_sp^2)^2)"):
                phi1 = (
                    4.0 * math.pi**2 * material.nu**2
                    / (3.0 * (thermal.beta * CONST.hbar * material.omega_sp**2) ** 2)
                )
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

    with float_guard(LINEAR_FINITE_T,
                     f"force 3 hbar v Phi_1 / (64 pi^2 d^4) at d = {config.d!r} m"):
        force = 3.0 * CONST.hbar * v * phi1 / (64.0 * math.pi**2 * config.d**4)
    return FrictionResult(
        force_per_area=force,
        regime=LINEAR_FINITE_T,
        diagnostics=diag,
    )


def force_zero_t(material: Drude, config: PlateConfig, v: float) -> FrictionResult:
    """Zero-temperature cubic friction force for equal Drude media.

    F = 45 hbar v^3 Phi_3 / (256 pi^2 d^6) with the Drude-head
    coefficient Phi_3 = nu^2 / (3 omega_sp^4); both plates are the one
    material.

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
        with float_guard(ZERO_T_CUBIC, "Phi_3 = nu^2 / (3 omega_sp^4)"):
            phi3 = material.nu**2 / (3.0 * material.omega_sp**4)
        with float_guard(ZERO_T_CUBIC,
                         f"force 45 hbar v^3 Phi_3 / (256 pi^2 d^6) at d = {config.d!r} m"):
            force = 45.0 * CONST.hbar * v**3 * phi3 / (256.0 * math.pi**2 * config.d**6)
    return FrictionResult(
        force_per_area=force,
        regime=ZERO_T_CUBIC,
        diagnostics=diag,
    )


def _k1e(x: float) -> float:
    """K1(x) e^x for a float x > 0, in plain Python.

    The trapezoid rule on K1(x) e^x = Int_0^inf exp(-x (cosh t - 1)) cosh t dt
    with step 0.25 / sqrt(1 + x), up to the last node with
    x (cosh t - 1) = 2 x sinh(t/2)^2 <= 40.  The integrand is even and
    analytic in t, so the rule converges geometrically: it agrees with
    `scipy.special.k1e` to a few ulps on 1e-8 <= x <= 700, in under 100
    terms.
    """
    h = 0.25 / math.sqrt(1.0 + x)
    total = 0.5
    for k in range(1, int(2.0 * math.asinh(math.sqrt(20.0 / x)) / h) + 1):
        s = math.sinh(0.5 * k * h)
        total += math.exp(-2.0 * x * s * s) * math.cosh(k * h)
    return h * total


#: Panels of the array K1: uniform in s = log x, _K1_WIDTH wide from
#: s = _K1_START, each holding a polynomial of degree _K1_DEGREE.
_K1_START, _K1_WIDTH, _K1_PANELS, _K1_DEGREE = -38.0, 0.25, 180, 8


@functools.cache
def _k1_fit():
    """Coefficients of g(s) = x K1(x) e^x at x = e^s: one row per power, highest first.

    Column j is the polynomial in w - 1/2, w in [0, 1] the place across
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
    # Chebyshev coefficients of g on each panel, in u = 2 (w - 1/2) on [-1, 1]
    cheb = 2.0 / n * (g.reshape(_K1_PANELS, 1, n) * np.cos(k[:, None] * theta)).sum(axis=2)
    cheb[:, 0] *= 0.5
    # T_k in powers of u, by T_k = 2 u T_(k-1) - T_(k-2)
    powers = np.zeros((n, n))
    powers[0, 0] = powers[1, 1] = 1.0
    for j in range(2, n):
        powers[j, 1:] = 2.0 * powers[j - 1, :-1]
        powers[j] -= powers[j - 2]
    coeffs = (cheb[:, :, None] * powers).sum(axis=1)
    # the power k of u is 2^k times that of w - 1/2
    return (coeffs * 2.0 ** k).T[::-1].copy()


def _k1e_array(x):
    """K1(x) e^x on an array of 0 < x <= e^7 (about 1097), in numpy.

    The panel of s = log x holding each x is found by arithmetic, and its
    polynomial (`_k1_fit`) is evaluated by Horner's rule; it agrees with
    `_k1e` and with `scipy.special.k1e` to a few ulps.  Below the first
    panel (x < e^-38) x K1(x) e^x is 1 to double precision.  Past the
    last, x K1(x) e^x is held at its value at e^7, a finite stand-in:
    there K1(x) is below 1e-470, and every K1(x) e^x e^-x is 0.
    """
    x = np.asarray(x, dtype=float)
    fit = _k1_fit()
    p = np.minimum(np.maximum(np.log(x) / _K1_WIDTH - _K1_START / _K1_WIDTH, 0.0),
                   _K1_PANELS * (1.0 - 1e-15))
    i = p.astype(np.intp)
    w = p - i
    w -= 0.5
    c = fit[:, i]
    g = c[0] * w
    g += c[1]
    for row in c[2:]:
        g *= w
        g += row
    g /= x
    return g


def _kernel_band(v, d):
    """The omega range a Phi table must cover for the point (v, d), or for arrays of them.

    Below 1e-4 v/(2d), where x = 2 d omega / v < 2e-4, Phi is its head
    (proportional to omega^p) and the kernel omega^2 K1(x) Phi holds
    about x^(2+p) < 1e-11 of the force; above 60 v/(2d), K1(x) is below
    e^-60.
    """
    scale = v / (2.0 * d)
    return 1e-4 * scale, 60.0 * scale


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
    coefficients ``coeffs[:, i]`` of h(s) = Phi(omega) / omega^power, and
    ``errors[i]``, the size of its two trailing coefficients plus the
    largest error estimate of h at its nodes, which estimates
    |h_table - h| on it.  Below omega_lo the head Phi = head * omega^power
    continues the table; above omega_hi Phi is taken as 0 (the Bessel
    kernel that weighs it is below e^-60 there).  Phi is evaluated
    elementwise on an array of omega.
    """

    omega_lo: float
    omega_hi: float
    edges: np.ndarray
    coeffs: np.ndarray  # one column of TABLE_NODES coefficients per panel
    errors: np.ndarray
    power: int
    head: float

    def __call__(self, omega):
        omega = np.asarray(omega, dtype=float)
        # np.minimum and np.maximum, not np.clip, whose Python wrapper costs more than the work
        s = np.log(np.minimum(np.maximum(omega, self.omega_lo), self.omega_hi))
        i = np.minimum(np.maximum(np.searchsorted(self.edges, s, side="right") - 1, 0),
                       len(self.errors) - 1)
        a, b = self.edges[i], self.edges[i + 1]
        h = np.where(omega < self.omega_lo, self.head,
                     _clenshaw(self.coeffs[:, i], (2.0 * s - a - b) / (b - a)))
        return np.where(omega > self.omega_hi, 0.0, h * omega**self.power)


def tabulate_phi(
    phi: Callable,
    omega_lo: float,
    omega_hi: float,
    power: int,
    kernels: Callable,
    splits: Sequence[float] = (),
    rel_tol: float = DEFAULT_SPEC.rel_tol,
) -> tuple[PhiTable, np.ndarray]:
    """Tabulate ``phi`` on [omega_lo, omega_hi] as a `PhiTable` for the forces it serves.

    ``phi`` maps an array of omega to (Phi, error estimate) at each.
    ``kernels`` maps an array of omega to an array of one row per force:
    the weight w(omega) by which that force integrates Phi,
    Int w Phi d omega up to a constant factor.  Both are called once per
    refinement step, on the TABLE_NODES first-kind Chebyshev nodes of
    each panel it makes: the first step makes the panels between the
    ``splits`` inside the range (resonances, where h changes fastest),
    and each later step the two halves of one bisected panel.  A panel's
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

    Returns the table and its moments: one row per force, one column per
    panel, Int w omega^power over the panel.  ``moments @ table.errors``
    is each force's Int w |Phi_table - Phi|, its table error.

    Raises
    ------
    NonConvergence
        With level "omega1", naming the omega interval of the panel
        that would be bisected when the table already holds
        TABLE_MAX_PANELS panels, or of a panel on which Phi is not
        finite.
    """
    transform, fejer = np.array(_COS), np.array(_FEJER)

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
        moments = (half[:, None] * fejer * nodes ** (power + 1)
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
        if edges.size - 1 == TABLE_MAX_PANELS:
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
    return PhiTable(omega_lo, omega_hi, edges, coeffs, errors, power,
                    float(_clenshaw(coeffs[:, 0], -1.0))), moments


def general_forces(
    material1: MaterialModel,
    material2: MaterialModel,
    thermal: ThermalState,
    v: Sequence[float],
    d: Sequence[float],
    spec: QuadratureSpec = NESTED_SPEC,
) -> list[FrictionResult]:
    """The general force at each point (v[i], d[i]): one Phi table, one k_x integral per point.

    ``v`` and ``d`` are sequences of velocities and gaps (m/s, m) of one
    length.  Phi(omega) is tabulated once (`tabulate_phi`) over the
    kernel bands of all points with v > 0, 1e-4 v/(2d) .. 60 v/(2d): it
    holds h = Phi/omega^p (p = 1 at finite T, 3 at T = 0, so that h
    tends to Phi_1 or Phi_3 at its low end), is cut at omega_sp and at
    the sum of the two omega_sp of Drude plates, where Phi has its
    resonances, and is refined by one kernel row per point until each
    point's table error is at most ``spec.rel_tol`` of its size.
    Each point then takes one k_x integral of its kernel times the
    table, all in one `numerics.integrate_semi_infinite` pass, on its
    scale 1/(2d) and cut at every panel edge inside its band; the k_y
    integral is the closed form k_x K1(2 d k_x).  Each integral is
    refined on its own segments, so it does not depend on the others in
    the pass.  ``quadrature_rel_err`` adds the integral's error estimate and
    the point's table error, the panel errors weighed by the table's
    moments of its kernel: the budget covers Phi, the table and k_x.  A
    point with v = 0 has force 0; a lossless plate's 0 carries the
    `flag_lossless` flag.

    Raises
    ------
    DomainError
        If a velocity is not finite and >= 0, a gap not finite and > 0,
        or a point's kernel band leaves the float range.
    ValueError
        If ``v`` and ``d`` differ in length.
    TypeError
        If a plate is not a Drude metal (`response.im_r_dissipation_integral`).
    NonConvergence
        With level "omega1" and no ``index``, naming the omega at which
        Phi failed or the omega interval the table could not resolve;
        with level "k_x" and the ``index`` of the point whose integral
        failed first, naming the k_x interval (1/m) on which the rule
        failed and the matching omega = k_x v.
    FloatFailure
        With level "k_x", if a force overflows.
    """
    v, d = [float(x) for x in v], [float(x) for x in d]
    if len(v) != len(d):
        raise ValueError(f"need one gap per velocity, got {len(v)} velocities "
                         f"and {len(d)} gaps")
    power = 3 if thermal.is_zero else 1
    # where h = Phi / omega^power and the moments of omega^(power + 1) stay
    # normal floats, and k_x = omega / v finite
    tiny, huge = sys.float_info.min ** (1.0 / power), sys.float_info.max ** (1.0 / (power + 1))
    for vi, di in zip(v, d):
        _require_velocity(vi)
        if not (di > 0 and math.isfinite(di)):
            raise DomainError(f"gap d must be finite and > 0, got {di!r}")
        lo, hi = _kernel_band(vi, di)
        if vi and not (tiny <= lo and hi <= huge and hi / vi < math.inf):
            raise DomainError(f"the kernel band [{lo}, {hi}] rad/s of v = {vi!r} m/s, "
                              f"d = {di!r} m leaves the float range of the general force")
    results = [FrictionResult(0.0, GENERAL_NUMERIC, Diagnostics()) for _ in v]
    live = [i for i, vi in enumerate(v) if vi]
    if not live:
        return results
    speeds, gaps = np.array([v[i] for i in live]), np.array([d[i] for i in live])
    lo, hi = _kernel_band(speeds, gaps)
    sp = [m.omega_sp for m in (material1, material2) if isinstance(m, Drude) and m.omega_p > 0]
    kernels = _kernels(speeds / (2.0 * gaps))
    # looked up at call time, so that a rebound im_r_dissipation_integral is the one called
    table, moments = tabulate_phi(
        lambda omegas: im_r_dissipation_integral(omegas, material1, material2, thermal, spec),
        float(lo.min()), float(hi.max()), power, kernels,
        sorted({*sp, *(a + b for a in sp for b in sp)}), spec.rel_tol,
    )
    edges = np.exp(table.edges)
    # a cut at the lower limit k_x = 0 is no cut
    cuts = np.where((lo[:, None] < edges) & (edges < hi[:, None]), edges / speeds[:, None], 0.0)
    speed_column = speeds[:, None]

    def weighed(kx, which):
        """(2d)^2 k_x^2 K1(2 d k_x) Phi(k_x v) of the points in ``which``: kernel times table."""
        omega = kx * speed_column[which]
        return kernels(omega, which) * table(omega)

    try:
        pairs = integrate_semi_infinite(weighed, 0.0, 0.5 / gaps, [spec] * len(live), cuts)
    except NonConvergence as exc:
        (kx_lo, kx_hi), vj = exc.interval, float(speeds[exc.index])
        raise NonConvergence(
            f"k_x integral did not converge on k_x in [{kx_lo!r}, {kx_hi!r}] 1/m, "
            f"omega = k_x v in [{kx_lo * vj!r}, {kx_hi * vj!r}] rad/s", level="k_x",
            index=live[exc.index],
        ) from exc
    # Int w |Phi_table - Phi| d omega, and d omega = v dk_x; sums, not a matrix
    # product, whose first call would have BLAS allocate its buffers
    table_errors = ((moments * table.errors).sum(axis=1) / speeds).tolist()
    for i, (value, err), bound in zip(live, pairs, table_errors):
        # k_x^2 K1(2 d k_x) = x^2 K1(x) / (2d)^2
        force = CONST.hbar / (8.0 * math.pi**3) * value / d[i] / d[i]
        if not math.isfinite(force):  # a float quotient overflows without raising
            raise FloatFailure(f"force hbar Int x^2 K1(x) Phi dk_x / (8 pi^3 d^2) at "
                               f"d = {d[i]!r} m, v = {v[i]!r} m/s overflows", "k_x")
        result = results[i]
        result.force_per_area = force
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
    point (v, config.d) of `general_forces`, whose Phi table is built for
    it alone, and whose ``quadrature_rel_err`` covers Phi, the table and
    the k_x integral.

    Raises
    ------
    DomainError
        If v is not finite and >= 0, or its kernel band leaves the float range.
    FloatFailure
        With level "k_x", if the force overflows.
    NonConvergence
        With ``level`` identifying the failing nesting level
        ("omega1" or "k_x"); an "omega1" failure names the omega at
        which Phi failed or the omega interval its table could not
        resolve, a "k_x" failure the k_x interval (1/m) on which the
        rule failed and the matching omega = k_x v.
    TypeError
        If a plate is not a Drude metal (`response.im_r_dissipation_integral`).
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

    When the suppression exponent exceeds ~700 (v = 0 makes it infinite)
    the force underflows double precision and is reported as exactly 0
    with a flag.
    """
    if not omega_sp > 0:
        raise DomainError(f"omega_sp must be > 0, got {omega_sp}")
    _require_velocity(v)
    diag = Diagnostics()
    kx = 2.0 * omega_sp / v if v else math.inf
    x = 2.0 * config.d * kx  # suppression exponent 4 omega_sp d / v
    diag.suppression_exponent = x
    if x > UNDERFLOW_EXPONENT:
        diag.validity_flags.append("underflow: 4*omega_sp*d/v > 700")
        return FrictionResult(0.0, PLASMON_LINE, diag)

    with float_guard(PLASMON_LINE, f"K1(x) e^x at x = 4 omega_sp d / v = {x!r}"):
        ky_integral = kx * _k1e(x) * math.exp(-x)  # kx K1(2 d kx): `_kernels`' x^2 K1(x) over 4 d^2 kx
    force = CONST.hbar * omega_sp**3 / (2.0 * math.pi * v * v) * ky_integral
    if not math.isfinite(force):  # a float product overflows without raising
        raise FloatFailure(f"force (hbar omega_sp^4 / (pi v^3)) K1(4 omega_sp d / v) at "
                           f"d = {config.d!r} m, v = {v!r} m/s overflows", PLASMON_LINE)
    return FrictionResult(
        force_per_area=force,
        regime=PLASMON_LINE,
        diagnostics=diag,
    )
