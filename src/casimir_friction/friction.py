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
every general force is one Phi table and one k_x quadrature against
it.  `phi_table` tabulates Phi once for a range of v and d, over the
band 1e-4 v_min/(2 d_max) .. 60 v_max/(2 d_min), cut at the Drude
resonances omega_sp and 2 omega_sp, and refined by the kernels of the
forces it serves, in at most `response.TABLE_MAX_PANELS` (64) panels.
It asks `response.im_r_dissipation_integral` for the 16 nodes of a
panel in one call (`_phi_closure`), each to 1e-3 of ``spec.rel_tol``
(`response.PHI_TOL`), with an error estimate per node.
`dissipation_general` reads Phi from the table it is given, or builds
one for its own (v, d), cuts its k_x quadrature at the resonances in
its band, and adds the table's kernel-weighted error, which carries
Phi's own, to ``quadrature_rel_err``: the error budget covers the
table, Phi and the k_x integral.

For a Drude head Im R = -nu omega / omega_sp^2 the coefficients are
Phi_1 = 4 pi^2 nu^2 / (3 beta^2 hbar^2 omega_sp^4) and
Phi_3 = nu^2 / (3 omega_sp^4).  No result depends on the paper's
oscillator densities rho1, rho2, and no function reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from scipy.special import k1e

from .numerics import (
    CONST,
    NESTED_SPEC,
    DomainError,
    NonConvergence,
    QuadratureSpec,
    float_guard,
    integrate_finite,
    integrate_semi_infinite,
)
from .material import Drude, MaterialModel, surface_response
from .geometry import PlateConfig
from .response import (
    PhiTable,
    ThermalState,
    im_r_dissipation_integral,
    phi_slope,
    tabulate_phi,
)

LINEAR_FINITE_T = "LinearFiniteT"
ZERO_T_CUBIC = "ZeroT_Cubic"
GENERAL_NUMERIC = "GeneralNumeric"
PLASMON_LINE = "PlasmonLine"

#: Tolerance of the integral that weighs a Phi table's error by the
#: force's kernel: an error estimate needs one digit.
ERROR_SPEC = QuadratureSpec(rel_tol=0.1)

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


def _require_velocity(v: float) -> None:
    if v < 0:
        raise DomainError(f"velocity must be >= 0, got {v}")


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


def _ky_integral(kx: float, d: float) -> float:
    """Int_0^inf exp(-2 d sqrt(kx^2 + ky^2)) dky = kx K1(2 d kx), for kx > 0."""
    x = 2.0 * d * kx
    return kx * float(k1e(x)) * math.exp(-x)


def _phi_closure(material1, material2, thermal: ThermalState, spec: QuadratureSpec):
    """omegas -> (Phi, error estimate) at each, for these plates and this temperature."""

    def phi_of(omegas):
        return im_r_dissipation_integral(omegas, material1, material2, thermal, spec)

    return phi_of


def _kernel_band(v: float, d: float) -> tuple[float, float]:
    """The omega range a Phi table must cover for one (v, d) point.

    Below 1e-4 v/(2d), where x = 2 d omega / v < 2e-4, Phi is its head
    (proportional to omega^p) and the kernel omega^2 K1(x) Phi holds
    about x^(2+p) < 1e-11 of the force; above 60 v/(2d), K1(x) is below
    e^-60.
    """
    scale = v / (2.0 * d)
    return 1e-4 * scale, 60.0 * scale


def _kernel(scale: float) -> Callable[[float], float]:
    """omega -> x^2 K1(x) at x = omega / scale.

    The weight of Phi in the force at any (v, d) with v/(2d) = scale, up
    to a constant factor: k_x^2 K1(2 d k_x) at k_x = omega / v.
    """

    def kernel(omega: float) -> float:
        x = omega / scale
        return x * x * float(k1e(x)) * math.exp(-x)

    return kernel


@dataclass(frozen=True)
class SharedPhi:
    """A `PhiTable` for every (v, d) point of a velocity and gap range.

    Built by `phi_table`; `dissipation_general` reads Phi from it for
    the materials and temperature it was built for, and cuts its k_x
    integral at the ``resonances`` of Phi that fall in a point's band.
    """

    material1: MaterialModel
    material2: MaterialModel
    thermal: ThermalState
    table: PhiTable
    resonances: tuple[float, ...]

    def covers(self, v: float, d: float) -> bool:
        lo, hi = _kernel_band(v, d)
        return self.table.omega_lo <= lo and hi <= self.table.omega_hi


def phi_table(
    material1: MaterialModel,
    material2: MaterialModel,
    thermal: ThermalState,
    v_range: tuple[float, float],
    d_range: tuple[float, float],
    spec: QuadratureSpec = NESTED_SPEC,
) -> SharedPhi:
    """Phi(omega) tabulated once for all v in v_range and d in d_range.

    The table spans 1e-4 v_min/(2 d_max) to 60 v_max/(2 d_min), holds
    h = Phi/omega^p (p = 1 at finite T, 3 at T = 0, so that h tends to
    Phi_1 or Phi_3 at its low end) and is cut at omega_sp and at the
    sum of the two omega_sp of Drude plates, where Phi has its
    resonances.  A force's kernel depends on s = v/(2d) alone, so the
    table serves the forces at the ends of the range of s and at points
    between them at most a decade apart: it is refined until each of
    them carries a table error of at most ``spec.rel_tol``
    (`tabulate_phi`), in at most `response.TABLE_MAX_PANELS` panels.

    Raises
    ------
    DomainError
        If a range is empty, not positive or not finite, or its band
        leaves the float range.
    NonConvergence
        With level "omega1", naming the omega at which Phi failed or the
        omega interval the table could not resolve.
    """
    (v_min, v_max), (d_min, d_max) = v_range, d_range
    if not (0 < v_min <= v_max < math.inf and 0 < d_min <= d_max < math.inf):
        raise DomainError(f"need finite 0 < v_min <= v_max and 0 < d_min <= d_max, "
                          f"got {v_range}, {d_range}")
    lo, hi = _kernel_band(v_min, d_max)[0], _kernel_band(v_max, d_min)[1]
    if not 0 < lo <= hi < math.inf:
        raise DomainError(f"the kernel band [{lo}, {hi}] rad/s of velocities {v_range} "
                          f"and gaps {d_range} leaves the float range")
    sp = [m.omega_sp for m in (material1, material2) if isinstance(m, Drude) and m.omega_p > 0]
    resonances = tuple(sorted({*sp, *(a + b for a in sp for b in sp)}))
    # a kernel's shape depends on s = v/(2d) alone: serve the ends of the
    # range of s and points between them at most a decade apart
    low, high = v_min / (2.0 * d_max), v_max / (2.0 * d_min)
    steps = max(math.ceil(math.log10(high / low) - 1e-9), 1)
    kernels = [_kernel(s) for s in sorted({low * (high / low) ** (k / steps)
                                           for k in range(steps + 1)})]
    phi = _phi_closure(material1, material2, thermal, spec)
    table = tabulate_phi(phi, lo, hi, 3 if thermal.is_zero else 1, kernels, resonances,
                         spec.rel_tol)
    return SharedPhi(material1, material2, thermal, table, resonances)


def dissipation_general(
    material1: MaterialModel,
    material2: MaterialModel,
    config: PlateConfig,
    thermal: ThermalState,
    v: float,
    spec: QuadratureSpec = NESTED_SPEC,
    phi: SharedPhi | None = None,
) -> FrictionResult:
    """Friction force from the full k-space/spectral dissipation integral.

    Valid at any temperature and velocity with continuous material
    responses.  Phi is read from a table: ``phi`` (from `phi_table`,
    for these materials and temperature and a range that covers v and
    d), or else one built for this (v, d) alone.  The k_x integral runs
    on the exponential scale 1/(2d), cut at the resonances of Phi
    inside the point's kernel band; the k_y integral is the closed
    form k_x K1(2 d k_x).  The table's error (its interpolation error
    and Phi's own), weighed by the same kernel, is added to
    ``quadrature_rel_err``.

    Raises
    ------
    NonConvergence
        With ``level`` identifying the failing nesting level
        ("omega1" or "k_x"); an "omega1" failure names the omega at
        which Phi failed or the omega interval its table could not
        resolve.
    ValueError
        If ``phi`` was built for other materials or temperature, or for
        a range that does not cover v and d.
    """
    _require_velocity(v)
    if v == 0.0:
        return FrictionResult(0.0, GENERAL_NUMERIC, Diagnostics())
    d = config.d
    if phi is None:
        phi = phi_table(material1, material2, thermal, (v, v), (d, d), spec)
    elif (phi.material1 is not material1 or phi.material2 is not material2
            or phi.thermal != thermal or not phi.covers(v, d)):
        raise ValueError("the Phi table was built for other materials, "
                         "temperature or (v, d) range")
    table = phi.table

    def outer(kx: float) -> float:
        if kx <= 0.0:
            return 0.0
        return kx * _ky_integral(kx, d) * table(kx * v)

    def table_err(kx: float) -> float:
        if kx <= 0.0:
            return 0.0
        return kx * _ky_integral(kx, d) * table.error(kx * v)

    lo, hi = _kernel_band(v, d)
    edges = [0.0, *(w / v for w in phi.resonances if lo < w < hi)]

    def kx_integral(f, kx_spec: QuadratureSpec) -> tuple[float, float]:
        value = err = 0.0
        for a, b in zip(edges, edges[1:]):
            piece, piece_err = integrate_finite(f, a, b, kx_spec)
            value += piece
            err += piece_err
        piece, piece_err = integrate_semi_infinite(f, edges[-1], 0.5 / d, kx_spec)
        return value + piece, err + piece_err

    try:
        value, err = kx_integral(outer, spec)
        rel_err = abs(err / value) if value else 0.0
        if value:
            bound, _ = kx_integral(table_err, ERROR_SPEC)
            rel_err += bound / abs(value)
    except NonConvergence as exc:
        raise NonConvergence(str(exc), level="k_x") from exc
    force = CONST.hbar / (2.0 * math.pi**3) * value

    return FrictionResult(
        force_per_area=force,
        regime=GENERAL_NUMERIC,
        diagnostics=Diagnostics(quadrature_rel_err=rel_err),
    )


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

    force = CONST.hbar * omega_sp**3 / (2.0 * math.pi * v * v) * _ky_integral(kx, config.d)
    return FrictionResult(
        force_per_area=force,
        regime=PLASMON_LINE,
        diagnostics=diag,
    )
