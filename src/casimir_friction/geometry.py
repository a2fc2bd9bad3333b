"""In-plane Fourier kernels of the dipole interaction and their gap moments.

The planar transform of the Coulomb kernel 1/r at perpendicular offset
z0 is psi_hat = 2 pi exp(-q|z0|)/q.  Contracting the dipole tensor
kernel with itself gives, with i k_z following the sign of z,

    -i k_j i k_j = k_x^2 + k_y^2 + q^2 = 2 q^2,

so the squared dipole kernel is g_hat = (2 q^2)^2 psi_hat^2 (a naive
k_z^2 = -q^2 contraction would cancel it to zero).  Integrating over
both half-spaces (z1 > d, z2 < 0) leaves (2 pi)^2 exp(-2 q d), and the
in-plane k moments give the gap laws

    G   = 3 pi/(8 d^4) rho1 rho2        (k_x^2 moment),
    G_P = 45 pi/(32 d^6) rho^2          (k_x^4 moment, equal densities),

using the circle averages <k_x^2> = q^2/2 and <k_x^4> = 3 q^4/8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numerics import (
    DEFAULT_SPEC,
    DomainError,
    QuadratureSpec,
    integrate_semi_infinite,
)


class UnequalDensities(ValueError):
    """An equal-density closed form was requested with rho1 != rho2."""


@dataclass(frozen=True)
class PlateConfig:
    """Gap d (m) and oscillator number densities rho1, rho2 (1/m^3)."""

    d: float
    rho1: float
    rho2: float

    def __post_init__(self):
        if not (self.d > 0 and math.isfinite(self.d)):
            raise ValueError(f"gap d must be finite and > 0, got {self.d}")
        if not all(r > 0 and math.isfinite(r) for r in (self.rho1, self.rho2)):
            raise ValueError("densities must be finite and > 0")


def psi_hat(z0: float, q: float) -> float:
    """Planar Fourier transform of the Coulomb kernel: 2 pi exp(-q|z0|)/q."""
    if not q > 0:
        raise DomainError(f"q must be > 0, got {q}")
    return 2.0 * math.pi * math.exp(-q * abs(z0)) / q


def g_hat(z0: float, q: float) -> float:
    """Contracted squared dipole kernel (2 q^2)^2 psi_hat(z0, q)^2."""
    p = psi_hat(z0, q)
    return (2.0 * q * q) ** 2 * p * p


def g_hat_z_integrated(q: float, d: float) -> float:
    """g_hat integrated over z1 > d, z2 < 0: (2 pi)^2 exp(-2 q d)."""
    if not q > 0 or not d > 0:
        raise DomainError(f"q and d must be > 0, got q={q}, d={d}")
    return (2.0 * math.pi) ** 2 * math.exp(-2.0 * q * d)


def angular_kx_moment(power: int) -> float:
    """Circle average <(k_x/q)^power> = (1/2pi) Int cos^power(phi) dphi, even power."""
    if power % 2 != 0 or power < 0:
        raise DomainError(f"power must be even and >= 0, got {power}")
    return math.gamma((power + 1) / 2.0) / (
        math.sqrt(math.pi) * math.gamma(power / 2.0 + 1.0)
    )


def radial_moment(n: int, d: float) -> float:
    """Int_0^inf q^n exp(-2 q d) dq = Gamma(n+1)/(2 d)^(n+1)."""
    return math.gamma(n + 1.0) / (2.0 * d) ** (n + 1)


def k_moment(
    power: int,
    config: PlateConfig,
    method: str = "closed",
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> float:
    """Gap moment of the z-integrated kernel weighted by <k_x^power>.

    power = 2 returns G = 3 pi/(8 d^4) rho1 rho2; power = 4 returns
    G_P = 45 pi/(32 d^6) rho^2 and requires rho1 = rho2.  The
    ``method="quadrature"`` path evaluates the radial integral
    numerically as a cross-check of the closed form.

    Raises
    ------
    UnequalDensities
        For power = 4 with rho1 != rho2.
    """
    if power not in (2, 4):
        raise DomainError(f"power must be 2 or 4, got {power}")
    if power == 4 and config.rho1 != config.rho2:
        raise UnequalDensities(
            f"power-4 moment assumes equal densities, got {config.rho1} != {config.rho2}"
        )
    d = config.d
    prefactor = config.rho1 * config.rho2 * angular_kx_moment(power) * 2.0 * math.pi
    if method == "closed":
        radial = radial_moment(power + 1, d)
    elif method == "quadrature":
        radial, _ = integrate_semi_infinite(
            lambda q: q ** (power + 1) * math.exp(-2.0 * q * d),
            0.0,
            spec.with_scale(0.5 / d),
        )
    else:
        raise ValueError(f"unknown method {method!r}")
    # rho1 rho2/(2pi)^2 * Int <kx^p> q^p (2pi)^2 e^(-2qd) 2pi q dq
    return prefactor * radial
