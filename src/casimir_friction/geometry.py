"""The plate configuration: the gap between the two half-spaces.

No force depends on the paper's oscillator number densities rho1, rho2
(they cancel out of every result), so nothing reads them.  They remain
as fields with a default only because existing callers, such as
`perfbench/workloads.py::plate`, still build
``PlateConfig(d=..., rho1=1e28, rho2=1e28)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class PlateConfig:
    """Gap d (m); rho1, rho2 (1/m^3) are accepted and never read."""

    d: float
    rho1: float = 1e28
    rho2: float = 1e28

    def __post_init__(self):
        if not (self.d > 0 and math.isfinite(self.d)):
            raise ValueError(f"gap d must be finite and > 0, got {self.d}")
