import dataclasses
import inspect

import casimir_friction
from casimir_friction import (
    compare, friction, geometry, material, numerics, response, trajectory,
)

PUBLIC = {
    "CONST", "DEFAULT_SPEC", "NESTED_SPEC", "PhysicalConstants", "QuadratureSpec",
    "DomainError", "NonConvergence",
    "Drude", "Tabulated", "SingularResponse", "response_R", "surface_response",
    "LoopTrajectory", "qhat_closed_form", "finite_tau_kernel", "delta_limit_convergence",
    "ThermalState", "im_r_dissipation_integral", "phi_slope",
    "PlateConfig",
    "Diagnostics", "FrictionResult",
    "dissipation_general", "force_linear", "force_zero_t", "force_plasmon", "phi_table",
    "consistency_report", "pendry_force",
}

DELETED = {
    material: (
        "ContinuousSpectralDensity", "DrudeSmallM", "DeltaLines", "SpectralDensity",
        "spectral_density_from_R", "drude_small_m", "drude_small_m_slope",
        "DRUDE_SLOPE_CUTOFF_FRACTION", "SpectrumCutoffExceeded", "eps_drude",
        "PlasmonLine",
    ),
    response: (
        "h0_linear", "j_linear", "j_zero_t", "j_general_convolution",
        "DeltaConvolution", "BOSE_INTEGRAL", "_as_density", "_check_cutoff",
        "ResponseCoeffs", "response_coeffs", "phi",
    ),
    geometry: (
        "k_moment", "angular_kx_moment", "radial_moment",
        "psi_hat", "g_hat", "g_hat_z_integrated", "UnequalDensities",
    ),
    trajectory: ("DeltaKernel", "delta_kernel_I", "loop_position", "qhat_numeric"),
    friction: ("_rho_slope_product", "ValidityWarning"),
    compare: ("LiteratureParams",),
}


def test_public_names_resolve():
    for name in casimir_friction.__all__:
        assert hasattr(casimir_friction, name), name
    namespace = {}
    exec("from casimir_friction import *", namespace)
    assert set(casimir_friction.__all__) <= set(namespace)


def test_public_api_is_the_force_path():
    assert len(casimir_friction.__all__) == len(PUBLIC)
    assert set(casimir_friction.__all__) == PUBLIC


def test_density_layer_is_gone():
    for module, names in DELETED.items():
        for name in names:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
            assert name not in casimir_friction.__all__
            assert not hasattr(casimir_friction, name)


def test_unread_fields_are_gone():
    def fields(cls):
        return {f.name for f in dataclasses.fields(cls)}

    assert fields(numerics.QuadratureSpec) == {"rel_tol", "max_subdivisions"}
    assert fields(trajectory.LoopTrajectory) == {"tau", "alpha"}
    assert fields(friction.FrictionResult) == {"force_per_area", "regime", "diagnostics"}
    assert not hasattr(numerics.QuadratureSpec, "with_scale")
    assert not hasattr(trajectory.LoopTrajectory, "support")
    assert not hasattr(friction.Diagnostics, "flag")
    assert list(inspect.signature(trajectory.delta_limit_convergence).parameters) == [
        "omega_v", "taus",
    ]
    # callers pass the general force's arguments by position; the Phi table comes last
    assert list(inspect.signature(friction.dissipation_general).parameters) == [
        "material1", "material2", "config", "thermal", "v", "spec", "phi",
    ]
    # the literature closed form takes floats, not a parameter record
    assert list(inspect.signature(compare.pendry_force).parameters) == [
        "sigma_over_eps0", "d", "v",
    ]
