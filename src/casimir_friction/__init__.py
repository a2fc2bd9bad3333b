"""Casimir friction between parallel dielectric half-spaces in relative sliding motion.

The force per unit area is obtained from the energy dissipated along a
closed sliding loop, which separates friction cleanly from the
reversible dispersion force.  The general finite-velocity pipeline
integrates one dissipation spectrum Phi(omega) built from the surface
responses; the linear-in-v regime at finite temperature, the cubic-in-v
regime at T = 0 and the single surface-plasmon line, with its
exponential velocity suppression, are closed-form limits of it.
"""

from .numerics import (
    CONST,
    DEFAULT_SPEC,
    NESTED_SPEC,
    DomainError,
    FloatFailure,
    NonConvergence,
    PhysicalConstants,
    QuadratureSpec,
)
from .material import (
    Drude,
    SingularResponse,
    Tabulated,
    response_R,
    surface_response,
)
from .response import (
    ThermalState,
    im_r_dissipation_integral,
    phi_slope,
)
from .geometry import PlateConfig
from .friction import (
    Diagnostics,
    FrictionResult,
    dissipation_general,
    force_linear,
    force_plasmon,
    force_zero_t,
    general_forces,
)
from .compare import consistency_report, pendry_force

__version__ = "0.1.0"

__all__ = [
    "CONST",
    "DEFAULT_SPEC",
    "Diagnostics",
    "DomainError",
    "Drude",
    "FloatFailure",
    "FrictionResult",
    "NESTED_SPEC",
    "NonConvergence",
    "PhysicalConstants",
    "PlateConfig",
    "QuadratureSpec",
    "SingularResponse",
    "Tabulated",
    "ThermalState",
    "consistency_report",
    "dissipation_general",
    "force_linear",
    "force_plasmon",
    "force_zero_t",
    "general_forces",
    "im_r_dissipation_integral",
    "pendry_force",
    "phi_slope",
    "response_R",
    "surface_response",
]
