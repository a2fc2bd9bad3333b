import math
import sys

import numpy as np
import pytest

from casimir_friction.numerics import (
    CONST,
    DEFAULT_SPEC,
    DomainError,
    NonConvergence,
    QuadratureSpec,
    integrate_finite,
    integrate_semi_infinite,
)

PI2_3 = math.pi**2 / 3.0


def test_constants_codata():
    assert CONST.hbar == 1.054571817e-34
    assert CONST.k_B == 1.380649e-23
    assert CONST.eV == 1.602176634e-19
    assert CONST.nm == 1e-9


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    # QUADPACK's floor without an absolute tolerance is 50 machine epsilons
    floor = 50 * sys.float_info.epsilon
    with pytest.raises(ValueError, match="rel_tol"):
        QuadratureSpec(rel_tol=1e-14)
    assert QuadratureSpec(rel_tol=floor).rel_tol == floor
    assert QuadratureSpec(rel_tol=1e-14, abs_tol=1e-30).rel_tol == 1e-14
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=0)


def test_polynomial_exactness():
    value, err = integrate_finite(lambda x: x * x, 0.0, 1.0)
    assert value == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert err <= 1e-9


def test_sinc_squared_converges_to_pi():
    # deficit of the truncated integral is ~1/X per the tail average
    prev = None
    for X in (100.0, 400.0, 1600.0):
        spec = QuadratureSpec(rel_tol=1e-10, abs_tol=0.0, max_subdivisions=4000)
        value, _ = integrate_finite(
            lambda x: (math.sin(x) / x) ** 2 if x != 0 else 1.0, -X, X, spec
        )
        deficit = math.pi - value
        assert deficit == pytest.approx(1.0 / X, rel=0.3)
        if prev is not None:
            assert deficit < prev
        prev = deficit


def test_bose_integral_pi2_over_3():
    spec = QuadratureSpec(rel_tol=1e-12, abs_tol=0.0, max_subdivisions=400)
    value, _ = integrate_finite(
        lambda x: x * x * math.exp(-x) / math.expm1(-x) ** 2 if x > 0 else 1.0,
        0.0,
        60.0,
        spec,
    )
    assert value == pytest.approx(PI2_3, rel=1e-11)
    assert value == pytest.approx(3.2898681, abs=5e-8)


def test_semi_infinite_monomial_examples():
    value, _ = integrate_semi_infinite(lambda q: q**3 * math.exp(-2 * q), 0.0, 0.5, DEFAULT_SPEC)
    assert value == pytest.approx(0.375, rel=1e-10)
    value, _ = integrate_semi_infinite(lambda q: q**5 * math.exp(-2 * q), 0.0, 0.5, DEFAULT_SPEC)
    assert value == pytest.approx(1.875, rel=1e-10)


def test_semi_infinite_sinh_integral():
    # Int_0^inf m^2/sinh^2(m/2) dm = 4 * (pi^2/3), by x = m in the Bose form
    spec = QuadratureSpec(rel_tol=1e-11, abs_tol=0.0, max_subdivisions=400)

    def f(m):
        if m <= 0:
            return 4.0  # limit of m^2/sinh^2(m/2)
        return 4.0 * m * m * math.exp(-m) / math.expm1(-m) ** 2

    value, _ = integrate_semi_infinite(f, 0.0, 1.0, spec)
    assert value == pytest.approx(4.0 * PI2_3, rel=1e-10)


@pytest.mark.parametrize("n", range(7))
@pytest.mark.parametrize("d", [0.5, 1.0, 3.0])
def test_gamma_monomials(n, d):
    value, err = integrate_semi_infinite(
        lambda q: q**n * math.exp(-2 * q * d), 0.0, 0.5 / d, DEFAULT_SPEC
    )
    exact = math.gamma(n + 1.0) / (2.0 * d) ** (n + 1)
    assert value == pytest.approx(exact, rel=1e-9)
    assert abs(value - exact) <= max(err, 1e-14 * exact)


def test_linearity():
    f = lambda x: math.exp(-x) * x
    g = lambda x: math.cos(x) ** 2
    a, b = 0.3, 2.7
    vf, ef = integrate_finite(f, a, b)
    vg, eg = integrate_finite(g, a, b)
    combo, ec = integrate_finite(lambda x: 2.0 * f(x) + 3.0 * g(x), a, b)
    assert abs(combo - (2 * vf + 3 * vg)) <= 2.0 * (2 * ef + 3 * eg + ec)


def test_err_estimate_bounds_error():
    cases = [
        (lambda x: x * x, 0.0, 1.0, 1.0 / 3.0),
        (lambda x: math.sin(x), 0.0, math.pi, 2.0),
        (lambda x: math.exp(-x), 0.0, 10.0, 1.0 - math.exp(-10.0)),
    ]
    for f, a, b, exact in cases:
        value, err = integrate_finite(f, a, b)
        assert abs(value - exact) <= max(err, 1e-14 * abs(exact))


def test_endpoint_singularity_integrable():
    value, _ = integrate_finite(lambda x: 1.0 / math.sqrt(x) if x > 0 else 0.0, 0.0, 1.0)
    assert value == pytest.approx(2.0, rel=1e-8)


def test_nonconvergence_raises():
    spec = QuadratureSpec(rel_tol=1e-12, abs_tol=0.0, max_subdivisions=2)
    with pytest.raises(NonConvergence):
        integrate_finite(lambda x: math.sin(50.0 / (x + 0.01)), 0.0, 1.0, spec)


def test_bad_limits_and_missing_scale():
    with pytest.raises(DomainError):
        integrate_finite(lambda x: x, 1.0, 0.0)
    for scale in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError, match="scale"):
            integrate_semi_infinite(lambda x: math.exp(-x), 0.0, scale, DEFAULT_SPEC)


def test_degenerate_interval():
    assert integrate_finite(lambda x: x, 2.0, 2.0) == (0.0, 0.0)
