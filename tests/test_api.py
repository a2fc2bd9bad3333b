import casimir_friction
from casimir_friction import friction, geometry, material, response

DELETED = {
    material: (
        "ContinuousSpectralDensity", "DrudeSmallM", "DeltaLines", "SpectralDensity",
        "spectral_density_from_R", "drude_small_m", "drude_small_m_slope",
        "DRUDE_SLOPE_CUTOFF_FRACTION", "SpectrumCutoffExceeded",
    ),
    response: (
        "h0_linear", "j_linear", "j_zero_t", "j_general_convolution",
        "DeltaConvolution", "BOSE_INTEGRAL", "_as_density", "_check_cutoff",
    ),
    geometry: ("k_moment", "angular_kx_moment", "radial_moment"),
    friction: ("_rho_slope_product",),
}


def test_public_names_resolve():
    for name in casimir_friction.__all__:
        assert hasattr(casimir_friction, name), name
    namespace = {}
    exec("from casimir_friction import *", namespace)
    assert set(casimir_friction.__all__) <= set(namespace)


def test_density_layer_is_gone():
    for module, names in DELETED.items():
        for name in names:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
            assert name not in casimir_friction.__all__
            assert not hasattr(casimir_friction, name)
