import copy
import importlib
import inspect
import json
import os
import pickle
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
        return set(cls.__match_args__)

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


# each value class: the arguments of one instance, of one that differs from it
# by value, and the instance's repr
VALUE_CLASSES = [
    (numerics.QuadratureSpec, {"rel_tol": 1e-7}, {"rel_tol": 1e-8},
     "QuadratureSpec(rel_tol=1e-07)"),
    (numerics.PhysicalConstants, {}, {"nm": 2e-9},
     "PhysicalConstants(hbar=1.054571817e-34, k_B=1.380649e-23, eV=1.602176634e-19, nm=1e-09)"),
    (material.Drude, {"omega_p": 1.5e16, "nu": 5e13}, {"omega_p": 1.5e16},
     "Drude(omega_p=1.5e+16, nu=50000000000000.0)"),
    (response.ThermalState, {"temperature": 300.0}, {"temperature": None},
     "ThermalState(temperature=300.0)"),
    (geometry.PlateConfig, {"d": 1e-8}, {"d": 2e-8},
     "PlateConfig(d=1e-08, rho1=1e+28, rho2=1e+28)"),
    (friction.Diagnostics, {"quadrature_rel_err": 1e-9, "validity_flags": ["far"]}, {},
     "Diagnostics(quadrature_rel_err=1e-09, validity_flags=['far'], suppression_exponent=None)"),
    (friction.FrictionResult,
     {"force_per_area": 2.5, "regime": "LinearFiniteT", "diagnostics": friction.Diagnostics()},
     {"force_per_area": 2.5, "regime": "LinearFiniteT", "diagnostics": friction.Diagnostics(1e-9)},
     "FrictionResult(force_per_area=2.5, regime='LinearFiniteT', diagnostics="
     "Diagnostics(quadrature_rel_err=0.0, validity_flags=[], suppression_exponent=None))"),
]


@pytest.mark.parametrize("cls, args, other, text", VALUE_CLASSES,
                         ids=[case[0].__name__ for case in VALUE_CLASSES])
def test_value_classes_compare_hash_print_and_copy_by_value(cls, args, other, text):
    value = cls(**args)
    assert repr(value) == text
    assert value == cls(**args) and value is not cls(**args)
    assert value != cls(**other) and value != object()
    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(clone) is cls and clone == value and repr(clone) == text
    name = next(iter(args), "hbar")
    if cls in (friction.Diagnostics, friction.FrictionResult):
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
        setattr(value, name, None)
        assert getattr(value, name) is None and value != cls(**args)
    else:
        assert hash(value) == hash(cls(**args))
        assert {value, cls(**args), cls(**other)} == {value, cls(**other)}
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, getattr(cls(**other), name))
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
        assert repr(value) == text


def test_tabulated_copies_by_value_and_refuses_assignment():
    table = material.Tabulated(omega=[1e13, 1e14], eps=[-50 - 5j, -20 - 2j])
    assert repr(table) == ("Tabulated(omega=array([1.e+13, 1.e+14]), "
                           "eps=array([-50.-5.j, -20.-2.j]))")
    assert table == table
    with pytest.raises(TypeError, match="unhashable"):
        hash(table)
    with pytest.raises(AttributeError, match="cannot assign to field 'eps'"):
        table.eps = table.eps.conj()
    for clone in (pickle.loads(pickle.dumps(table)), copy.copy(table), copy.deepcopy(table)):
        assert type(clone) is material.Tabulated and repr(clone) == repr(table)
        assert clone.eps_at(3e13) == table.eps_at(3e13)


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
