"""The plate configuration: gap and oscillator number densities.

The densities rho1, rho2 are the paper's inputs; every force is
independent of them, and only the equal-media cubic closed form
checks them (`UnequalDensities`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


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
