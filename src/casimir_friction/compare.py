"""Literature closed forms and consistency ratios against this package's results.

For a metal described by eps = 1 + i sigma/(omega eps0), the
zero-temperature friction benchmarks relate as

    F_Pendry = 5 hbar v^3 / (2^8 pi^2 (sigma/eps0)^2 d^6),
    F_VP = 6 F_Pendry,            F_Barton = 12 F_Pendry,

and our cubic result coincides with Barton's: F_zeroT = 12 F_Pendry
= 2 F_VP under the Drude mapping sigma/eps0 = omega_p^2/nu.  The ratio
of the linear to the cubic channel is

    F_linear / F_zeroT = (1/12)(64 pi^2/5) (d/(beta hbar v))^2.

Small zeta-function factors (zeta(5) ~= 1.037, zeta(3) ~= 1.2) quoted in
the literature comparisons are reported as annotations only and never
multiplied into any force.

`pendry_force(sigma_over_eps0, d, v)` takes plain floats, and rejects a
conductivity or gap that is not finite and > 0 and a velocity that is
not finite and >= 0; the mapping's condition (a Drude metal with
omega_p > 0 and nu > 0) is checked once, by `consistency_report`.
"""

from __future__ import annotations

import math

from .numerics import CONST, DomainError, FloatFailure, float_guard
from .material import Drude
from .geometry import PlateConfig
from .response import ThermalState
from .friction import _force, _require_velocity, force_linear, force_zero_t

#: Exact linear/cubic ratio coefficient (1/12)(64 pi^2/5) = 16 pi^2/15.
RATIO_COEFFICIENT = 16.0 * math.pi**2 / 15.0

#: Comparison tolerance for the closed-form factor chain.
CHECK_TOL = 1e-12


def pendry_force(sigma_over_eps0: float, d: float, v: float) -> float:
    """F = 5 hbar v^3 / (2^8 pi^2 (sigma/eps0)^2 d^6).

    sigma_over_eps0 is the conductivity ratio (rad/s) of the
    eps = 1 + i sigma/(omega eps0) dielectric function, the "4 pi sigma"
    of Gaussian-unit conventions.  Stated for v < d sigma/(omega eps0),
    with the sliding frequency omega = v/d; `consistency_report` flags a
    velocity outside it.  A force below the normal floats is 0.0.
    Raises DomainError unless sigma_over_eps0 and d are finite and > 0
    and v is finite and >= 0, and FloatFailure (level "compare") if the
    force overflows.
    """
    for name, x in (("sigma/eps0", sigma_over_eps0), ("gap d", d)):
        if not (x > 0 and math.isfinite(x)):
            raise DomainError(f"{name} must be finite and > 0, got {x}")
    _require_velocity(v)
    return _force([], "compare", f"Pendry's force 5 hbar v^3 / (2^8 pi^2 (sigma/eps0)^2 d^6) "
                  f"at sigma/eps0 = {sigma_over_eps0!r} rad/s, d = {d!r} m, v = {v!r} m/s",
                  (5.0 * CONST.hbar / (256.0 * math.pi**2), v, v, v),
                  (sigma_over_eps0, sigma_over_eps0, d, d, d, d, d, d))


def linear_cubic_ratio(d: float, thermal: ThermalState, v: float) -> float:
    """The linear/cubic discriminator F_linear / F_zeroT = (16 pi^2/15) (d k_B T / (hbar v))^2.

    For a finite T, a gap d > 0 and a velocity v > 0.  A ratio below the
    normal floats is 0.0; one past them raises FloatFailure (level
    "compare") naming it.
    """
    kt = (CONST.k_B, thermal.temperature)
    return _force([], "compare", f"expected linear/cubic ratio (16 pi^2/15) "
                  f"(d k_B T / (hbar v))^2 at d = {d!r} m, T = {thermal.temperature!r} K, "
                  f"v = {v!r} m/s", (RATIO_COEFFICIENT, d, d, *kt, *kt),
                  (CONST.hbar, CONST.hbar, v, v))


def consistency_report(
    material: Drude,
    config: PlateConfig,
    thermal: ThermalState,
    v: float,
) -> dict:
    """Cross-check this package's closed forms against the literature chain.

    Returns a JSON-ready dict with the five forces, the linear/cubic
    ratio, a ``checks`` list whose entries all pass (everything here is
    density-independent), and a ``validity_flags`` list: the flags of
    the two closed-form results, then the Pendry window
    v < d sigma/(omega eps0) if v leaves it.  Raises TypeError for a
    non-Drude material, ValueError unless omega_p > 0 and nu > 0, and
    DomainError unless v is finite and > 0 (the ratios divide by v),
    before computing anything; FloatFailure if a quantity is past the
    float range, and (level "compare") if a compared force or the
    expected ratio is below the normal floats, naming it.
    """
    if not isinstance(material, Drude):
        raise TypeError("consistency_report requires a Drude material")
    if not (material.omega_p > 0 and material.nu > 0):
        raise ValueError("Drude mapping requires omega_p > 0 and nu > 0")
    if not (v > 0 and math.isfinite(v)):
        raise DomainError(f"the consistency checks need a finite velocity > 0, got {v}")
    with float_guard("compare", "sigma/eps0 = omega_p^2 / nu"):
        sigma_over_eps0 = material.omega_p**2 / material.nu
        if sigma_over_eps0 == math.inf:  # a float quotient overflows without raising
            raise OverflowError("overflows")

    flags: list[str] = []
    if thermal.is_zero:
        f_lin = 0.0
    else:
        linear = force_linear(material, config, thermal, v)
        f_lin = linear.force_per_area
        flags += linear.diagnostics.validity_flags
    cubic = force_zero_t(material, config, v)
    f_cubic = cubic.force_per_area
    flags += cubic.diagnostics.validity_flags
    f_pendry = pendry_force(sigma_over_eps0, config.d, v)
    if v >= config.d * math.sqrt(sigma_over_eps0):
        flags.append("outside the Pendry validity window v < d*sigma/(omega*eps0) (omega = v/d)")
    f_vp = 6.0 * f_pendry
    f_barton = 12.0 * f_pendry

    compared = {"F_ours_zeroT": f_cubic, "F_Pendry": f_pendry}
    if thermal.is_zero:
        ratio_expected = 0.0
    else:
        ratio_expected = linear_cubic_ratio(config.d, thermal, v)
        compared.update(F_ours_linear=f_lin, ratio_expected=ratio_expected)
    below = [name for name, x in compared.items() if not x]
    if below:
        raise FloatFailure(f"{', '.join(below)} below the normal floats at d = {config.d!r} m, "
                           f"v = {v!r} m/s; the checks cannot compare a 0 in place of a force",
                           "compare")
    ratio = f_lin / f_cubic

    def rel(a: float, b: float) -> float:
        scale = max(abs(a), abs(b))
        return abs(a - b) / scale if scale else 0.0

    checks = [
        {"name": name, "lhs": lhs, "rhs": rhs, "rel_err": err, "passed": bool(err <= CHECK_TOL),
         "tol": CHECK_TOL}
        for name, lhs, rhs, err in (
            ("zero_t_over_pendry_equals_12", f_cubic / f_pendry, 12.0,
             rel(f_cubic, 12.0 * f_pendry)),
            ("zero_t_equals_barton", f_cubic, f_barton, rel(f_cubic, f_barton)),
            ("zero_t_over_vp_equals_2", f_cubic / f_vp, 2.0, rel(f_cubic, 2.0 * f_vp)),
            ("linear_over_cubic_ratio", ratio, ratio_expected, rel(ratio, ratio_expected)),
        )
    ]

    return {
        "F_ours_linear": f_lin,
        "F_ours_zeroT": f_cubic,
        "F_Pendry": f_pendry,
        "F_VP": f_vp,
        "F_B": f_barton,
        "ratio_linear_over_cubic": ratio,
        "ratio_expected": ratio_expected,
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
        "validity_flags": flags,
        "annotations": [
            "Barton's form carries zeta(5) ~= 1.037, disregarded here (reported, never applied)",
            "the linear-regime literature comparison carries zeta(3) ~= 1.2, likewise disregarded",
            "sigma/eps0 convention: equals the 4*pi*sigma of Gaussian-unit references",
        ],
    }
