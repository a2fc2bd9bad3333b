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
    NonConvergence,
    PhysicalConstants,
    QuadratureSpec,
    integrate_finite,
    integrate_semi_infinite,
)
from .material import (
    Drude,
    PlasmonLine,
    SingularResponse,
    Tabulated,
    eps_drude,
    response_R,
    surface_response,
)
from .trajectory import (
    DeltaKernel,
    LoopTrajectory,
    delta_kernel_I,
    delta_limit_convergence,
    finite_tau_kernel,
    loop_position,
    qhat_closed_form,
    qhat_numeric,
)
from .response import (
    ResponseCoeffs,
    ThermalState,
    im_r_dissipation_integral,
    phi,
    phi_slope,
    response_coeffs,
)
from .geometry import (
    PlateConfig,
    UnequalDensities,
    g_hat,
    g_hat_z_integrated,
    psi_hat,
)
from .friction import (
    Diagnostics,
    FrictionResult,
    ValidityWarning,
    dissipation_general,
    force_linear,
    force_plasmon,
    force_zero_t,
)
from .compare import LiteratureParams, consistency_report, pendry_force

__version__ = "0.1.0"

__all__ = [
    "CONST",
    "DEFAULT_SPEC",
    "DeltaKernel",
    "Diagnostics",
    "DomainError",
    "Drude",
    "FrictionResult",
    "LiteratureParams",
    "LoopTrajectory",
    "NESTED_SPEC",
    "NonConvergence",
    "PhysicalConstants",
    "PlasmonLine",
    "PlateConfig",
    "QuadratureSpec",
    "ResponseCoeffs",
    "SingularResponse",
    "Tabulated",
    "ThermalState",
    "UnequalDensities",
    "ValidityWarning",
    "consistency_report",
    "delta_kernel_I",
    "delta_limit_convergence",
    "dissipation_general",
    "eps_drude",
    "finite_tau_kernel",
    "force_linear",
    "force_plasmon",
    "force_zero_t",
    "g_hat",
    "g_hat_z_integrated",
    "im_r_dissipation_integral",
    "integrate_finite",
    "integrate_semi_infinite",
    "loop_position",
    "pendry_force",
    "phi",
    "phi_slope",
    "psi_hat",
    "qhat_closed_form",
    "qhat_numeric",
    "response_R",
    "response_coeffs",
    "surface_response",
]
