import dataclasses
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import casimir_friction
from casimir_friction import compare, friction, geometry, material, numerics, response
from casimir_friction.cli import main

PUBLIC = {
    "CONST", "DEFAULT_SPEC", "NESTED_SPEC", "PhysicalConstants", "QuadratureSpec",
    "DomainError", "NonConvergence", "FloatFailure",
    "Drude", "Tabulated", "SingularResponse", "response_R", "surface_response",
    "ThermalState", "im_r_dissipation_integral", "phi_slope",
    "PlateConfig",
    "Diagnostics", "FrictionResult",
    "dissipation_general", "force_linear", "force_zero_t", "force_plasmon", "general_forces",
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
        # the Phi table lives with its one consumer, `friction`
        "PhiTable", "tabulate_phi", "_Panel", "TABLE_NODES", "TABLE_MAX_PANELS", "_clenshaw",
    ),
    geometry: (
        "k_moment", "angular_kx_moment", "radial_moment",
        "psi_hat", "g_hat", "g_hat_z_integrated", "UnequalDensities",
    ),
    friction: ("_rho_slope_product", "ValidityWarning", "SharedPhi", "_Panel",
               # one call, general_forces, tabulates Phi for its points and integrates them
               "phi_table", "ERROR_SPEC", "_ky_integral",
               # every point's force is formed in general_forces' one loop; the table's
               # graded cuts come from numerics.graded_points; the kernels take x K1 e^x;
               # every point weighs Phi by one kernel of x = 2 d k_x
               "_serve_by_series", "_graded_cuts", "_k1e_array", "_kernels",
               # the k_x pass takes Phi at its own nodes: no Phi table, its rules or limits
               "PhiTable", "tabulate_phi", "TABLE_NODES", "TABLE_MAX_PANELS", "_COS",
               "_FEJER", "_table_integrals", "_kernel_band"),
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

    assert fields(numerics.QuadratureSpec) == {"rel_tol"}
    assert fields(friction.FrictionResult) == {"force_per_area", "regime", "diagnostics"}
    assert not hasattr(numerics.QuadratureSpec, "with_scale")
    assert not hasattr(friction.Diagnostics, "flag")
    # callers pass the general force's arguments by position; many points on
    # one pair of plates go through general_forces, not through this
    assert list(inspect.signature(friction.dissipation_general).parameters) == [
        "material1", "material2", "config", "thermal", "v", "spec",
    ]
    assert list(inspect.signature(friction.general_forces).parameters) == [
        "material1", "material2", "thermal", "v", "d", "spec",
    ]
    # the literature closed form takes floats, not a parameter record
    assert list(inspect.signature(compare.pendry_force).parameters) == [
        "sigma_over_eps0", "d", "v",
    ]
    # the quadrature's front takes breakpoints only: a caller appends graded_points
    assert list(inspect.signature(numerics.integrate_finite).parameters) == [
        "f", "a", "b", "spec", "cuts",
    ]
    assert list(inspect.signature(numerics._segments).parameters) == ["lo", "hi", "cuts"]


def test_the_package_is_its_force_path(capsys):
    # the closed loop and its transform are test oracles (tests/oracles.py)
    modules = {m.name for m in pkgutil.iter_modules(casimir_friction.__path__)}
    assert modules == {
        "__main__", "_phi0", "cli", "compare", "friction", "geometry", "material", "numerics",
        "response",
    }
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("casimir_friction.trajectory")
    with pytest.raises(SystemExit) as exc:
        main(["dissipate", "--tau", "50", "--omega-v", "1.0"])
    assert exc.value.code == 2
    assert "invalid choice: 'dissipate'" in capsys.readouterr().err


def test_readme_library_block_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md (## Library)", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 6
    assert printed[0].endswith(" LinearFiniteT")
    assert printed[1].startswith("True ") and printed[2] == "True"


#: In a fresh interpreter: load the benchmark's tracer from argv[1], import the
#: CLI, and print what the tracer needs that is not there, then install it.
TRACER_PROBE = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
import casimir_friction.cli
layers = {layer for layer, _ in tracing.LAYER_FUNCTIONS}
print(json.dumps({
    "layers": sorted(layers),
    "unloaded": sorted(l for l in layers if "casimir_friction." + l not in sys.modules),
    "missing": [f"{l}.{f}" for l, f in tracing.LAYER_FUNCTIONS
                if not callable(getattr(sys.modules.get("casimir_friction." + l), f, None))],
}))
tracing.Tracer().install()
"""


def test_the_benchmark_tracer_finds_every_layer_function():
    # perfbench/tracing.py wraps each layer function where the package binds it,
    # after `import casimir_friction.cli`: every layer module must be loaded by then
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    src = str(Path(casimir_friction.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run([sys.executable, "-c", TRACER_PROBE, str(tracer)],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["layers"] == ["cli", "compare", "friction", "material", "numerics", "response"]
    assert report["unloaded"] == [] and report["missing"] == []
