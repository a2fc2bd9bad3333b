"""In-plane Fourier kernels of the dipole interaction and the plate geometry.

The planar transform of the Coulomb kernel 1/r at perpendicular offset
z0 is psi_hat = 2 pi exp(-q|z0|)/q.  Contracting the dipole tensor
kernel with itself gives, with i k_z following the sign of z,

    -i k_j i k_j = k_x^2 + k_y^2 + q^2 = 2 q^2,

so the squared dipole kernel is g_hat = (2 q^2)^2 psi_hat^2 (a naive
k_z^2 = -q^2 contraction would cancel it to zero).  Integrating over
both half-spaces (z1 > d, z2 < 0) leaves (2 pi)^2 exp(-2 q d), the
kernel whose k_y integral `friction` takes in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numerics import DomainError


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
