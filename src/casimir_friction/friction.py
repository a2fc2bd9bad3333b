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

For a Drude head Im R = -nu omega / omega_sp^2 the coefficients are
Phi_1 = 4 pi^2 nu^2 / (3 beta^2 hbar^2 omega_sp^4) and
Phi_3 = nu^2 / (3 omega_sp^4).  No result depends on the paper's
oscillator densities rho1, rho2, and no function reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from scipy.special import k1e

from .numerics import (
    CONST,
    NESTED_SPEC,
    DomainError,
    NonConvergence,
    QuadratureSpec,
    integrate_semi_infinite,
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
        im_r = _im_r_callable(material)
        phi1, err = phi_slope(im_r, im_r, thermal, material.omega, spec)
        diag.quadrature_rel_err = abs(err / phi1) if phi1 else 0.0

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
        phi3 = material.nu**2 / (3.0 * material.omega_sp**4)
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


def _im_r_callable(model: MaterialModel):
    def im_r(omega: float) -> float:
        if omega <= 0.0:
            return 0.0
        return surface_response(model, omega).imag

    return im_r


def dissipation_general(
    material1: MaterialModel,
    material2: MaterialModel,
    config: PlateConfig,
    thermal: ThermalState,
    v: float,
    spec: QuadratureSpec = NESTED_SPEC,
) -> FrictionResult:
    """Friction force from the full k-space/spectral dissipation integral.

    Valid at any temperature and velocity with continuous material
    responses.  Nesting order: inner spectral convolution Phi(k_x v),
    then k_x on the exponential scale 1/(2d); the k_y integral is the
    closed form k_x K1(2 d k_x).

    Raises
    ------
    NonConvergence
        With ``level`` identifying the failing nesting level
        ("omega1" or "k_x").
    """
    _require_velocity(v)
    im_r1 = _im_r_callable(material1)
    # one closure for equal plates lets Phi integrate the difference
    # channel once (its `im_r1 is im_r2` shortcut)
    im_r2 = im_r1 if material2 is material1 else _im_r_callable(material2)
    if v == 0.0:
        return FrictionResult(0.0, GENERAL_NUMERIC, Diagnostics())

    def phi_of(omega_v: float) -> float:
        try:
            return im_r_dissipation_integral(omega_v, im_r1, im_r2, thermal, spec)
        except NonConvergence as exc:
            raise NonConvergence(str(exc), level="omega1") from exc

    def outer(kx: float) -> float:
        if kx <= 0.0:
            return 0.0
        return kx * _ky_integral(kx, config.d) * phi_of(kx * v)

    try:
        value, err = integrate_semi_infinite(outer, 0.0, 0.5 / config.d, spec)
    except NonConvergence as exc:
        if exc.level is None:
            raise NonConvergence(str(exc), level="k_x") from exc
        raise
    force = CONST.hbar / (2.0 * math.pi**3) * value

    diag = Diagnostics(quadrature_rel_err=abs(err / value) if value else 0.0)
    return FrictionResult(
        force_per_area=force,
        regime=GENERAL_NUMERIC,
        diagnostics=diag,
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

    When the suppression exponent exceeds ~700 the force underflows
    double precision and is reported as exactly 0 with a flag.
    """
    if not omega_sp > 0:
        raise DomainError(f"omega_sp must be > 0, got {omega_sp}")
    _require_velocity(v)
    diag = Diagnostics()
    if v == 0.0:
        diag.suppression_exponent = math.inf
        diag.validity_flags.append("underflow: 4*omega_sp*d/v > 700")
        return FrictionResult(0.0, PLASMON_LINE, diag)

    kx = 2.0 * omega_sp / v
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
