"""The plate configuration: the gap between the two half-spaces.

No force depends on the paper's oscillator number densities rho1, rho2
(they cancel out of every result), so nothing reads them.  They remain
as fields with a default only because existing callers, such as
`perfbench/workloads.py::plate`, still build
``PlateConfig(d=..., rho1=1e28, rho2=1e28)``.
"""

from __future__ import annotations

import math

from .numerics import _Record, _set_field


class PlateConfig(_Record):
    """Gap d (m); rho1, rho2 (1/m^3) are accepted and never read."""

    __match_args__ = ("d", "rho1", "rho2")

    def __init__(self, d: float, rho1: float = 1e28, rho2: float = 1e28):
        if not (d > 0 and math.isfinite(d)):
            raise ValueError(f"gap d must be finite and > 0, got {d}")
        _set_field(self, "d", d)
        _set_field(self, "rho1", rho1)
        _set_field(self, "rho2", rho2)
