import math
import sys

import numpy as np
import pytest

from casimir_friction.numerics import (
    CONST,
    DomainError,
    NonConvergence,
    QuadratureSpec,
    integrate_finite,
    integrate_semi_infinite,
)

from oracles import integrate_one

PI2_3 = math.pi**2 / 3.0


def test_constants_codata():
    assert CONST.hbar == 1.054571817e-34
    assert CONST.k_B == 1.380649e-23
    assert CONST.eV == 1.602176634e-19
    assert CONST.nm == 1e-9


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    # the floor is 50 machine epsilons: rounding keeps the rule's error estimate above it
    floor = 50 * sys.float_info.epsilon
    for bad in (1e-14, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="rel_tol"):
            QuadratureSpec(rel_tol=bad)
    assert QuadratureSpec(rel_tol=floor).rel_tol == floor
    # a budget that is not an int would leave the bisection count unbounded
    for budget in (0, -1, math.inf, math.nan, 200.0):
        with pytest.raises(ValueError, match="max_subdivisions"):
            QuadratureSpec(max_subdivisions=budget)


def test_polynomial_exactness():
    value, err = integrate_one(integrate_finite, lambda x: x * x, 0.0, 1.0)
    assert value == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert err <= 1e-9


def test_sinc_squared_converges_to_pi():
    # deficit of the truncated integral is ~1/X per the tail average
    prev = None
    for X in (100.0, 400.0, 1600.0):
        spec = QuadratureSpec(rel_tol=1e-10, max_subdivisions=4000)
        value, _ = integrate_one(integrate_finite, lambda x: np.sinc(x / math.pi) ** 2, -X, X,
                                 spec)
        deficit = math.pi - value
        assert deficit == pytest.approx(1.0 / X, rel=0.3)
        if prev is not None:
            assert deficit < prev
        prev = deficit


def test_bose_integral_pi2_over_3():
    spec = QuadratureSpec(rel_tol=1e-12, max_subdivisions=400)
    # the rule never evaluates the endpoint x = 0, where the integrand's limit is 1
    value, _ = integrate_one(
        integrate_finite,
        lambda x: x * x * np.exp(-x) / np.expm1(-x) ** 2,
        0.0,
        60.0,
        spec,
    )
    assert value == pytest.approx(PI2_3, rel=1e-11)
    assert value == pytest.approx(3.2898681, abs=5e-8)


def test_semi_infinite_monomial_examples():
    value, _ = integrate_one(integrate_semi_infinite, lambda q: q**3 * np.exp(-2 * q), 0.0, 0.5)
    assert value == pytest.approx(0.375, rel=1e-10)
    value, _ = integrate_one(integrate_semi_infinite, lambda q: q**5 * np.exp(-2 * q), 0.0, 0.5)
    assert value == pytest.approx(1.875, rel=1e-10)


def test_semi_infinite_sinh_integral():
    # Int_0^inf m^2/sinh^2(m/2) dm = 4 * (pi^2/3), by x = m in the Bose form
    spec = QuadratureSpec(rel_tol=1e-11, max_subdivisions=400)

    def f(m):
        # m > 0 at every node; the limit of m^2/sinh^2(m/2) at m = 0 is 4
        return 4.0 * m * m * np.exp(-m) / np.expm1(-m) ** 2

    value, _ = integrate_one(integrate_semi_infinite, f, 0.0, 1.0, spec)
    assert value == pytest.approx(4.0 * PI2_3, rel=1e-10)


@pytest.mark.parametrize("n", range(7))
@pytest.mark.parametrize("d", [0.5, 1.0, 3.0])
def test_gamma_monomials(n, d):
    value, err = integrate_one(
        integrate_semi_infinite, lambda q: q**n * np.exp(-2 * q * d), 0.0, 0.5 / d
    )
    exact = math.gamma(n + 1.0) / (2.0 * d) ** (n + 1)
    assert value == pytest.approx(exact, rel=1e-9)
    assert abs(value - exact) <= max(err, 1e-14 * exact)


def test_linearity():
    f = lambda x: np.exp(-x) * x
    g = lambda x: np.cos(x) ** 2
    a, b = 0.3, 2.7
    vf, ef = integrate_one(integrate_finite, f, a, b)
    vg, eg = integrate_one(integrate_finite, g, a, b)
    combo, ec = integrate_one(integrate_finite, lambda x: 2.0 * f(x) + 3.0 * g(x), a, b)
    assert abs(combo - (2 * vf + 3 * vg)) <= 2.0 * (2 * ef + 3 * eg + ec)


def test_err_estimate_bounds_error():
    cases = [
        (lambda x: x * x, 0.0, 1.0, 1.0 / 3.0),
        (lambda x: np.sin(x), 0.0, math.pi, 2.0),
        (lambda x: np.exp(-x), 0.0, 10.0, 1.0 - math.exp(-10.0)),
    ]
    for f, a, b, exact in cases:
        value, err = integrate_one(integrate_finite, f, a, b)
        assert abs(value - exact) <= max(err, 1e-14 * abs(exact))


def test_endpoint_singularity_integrable():
    value, _ = integrate_one(integrate_finite, lambda x: 1.0 / np.sqrt(x), 0.0, 1.0)
    assert value == pytest.approx(2.0, rel=1e-8)


def test_nonconvergence_raises():
    spec = QuadratureSpec(rel_tol=1e-12, max_subdivisions=2)
    with pytest.raises(NonConvergence):
        integrate_one(integrate_finite, lambda x: np.sin(50.0 / (x + 0.01)), 0.0, 1.0, spec)


def test_a_segment_too_narrow_to_bisect_raises():
    # 1/|x - 0.3| is not integrable: bisection toward 0.3 leaves a segment a few ulps
    # wide, whose nodes round onto its ends, long before the budget runs out
    spec = QuadratureSpec(rel_tol=1e-6, max_subdivisions=10000)
    with pytest.raises(NonConvergence, match="cannot bisect a segment further"):
        integrate_one(integrate_finite, lambda x: 1.0 / np.abs(x - 0.3), 0.0, 1.0, spec)


def test_bad_limits_and_missing_scale():
    with pytest.raises(DomainError):
        integrate_one(integrate_finite, lambda x: x, 1.0, 0.0)
    for scale in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError, match="scale"):
            integrate_one(integrate_semi_infinite, lambda x: np.exp(-x), 0.0, scale)


def test_degenerate_interval():
    assert integrate_one(integrate_finite, lambda x: x, 2.0, 2.0) == (0.0, 0.0)


def test_several_integrals_in_one_pass_equal_each_alone():
    # each integral keeps its own decay scale, cuts and segments, so its value and
    # error are those it has alone; the integrand is called once per round for all
    # of them
    fs = (lambda x: np.exp(-x) * np.sin(3.0 * x) ** 2, lambda x: np.exp(-x) / (0.01 + (x - 1.0) ** 2),
          lambda x: np.exp(-4.0 * x) * np.abs(x - 0.3))
    spec = QuadratureSpec(rel_tol=1e-12)
    scales = (1.0, 2.0, 0.25)
    cuts = [(0.5,), (), (0.3, 1.7, -1.0)]
    calls = []

    def each_of(fs):
        def each(x, which):
            calls.append(np.unique(which).tolist())
            y = np.empty_like(x)
            for j, f in enumerate(fs):
                y[which == j] = f(x[which == j])
            return y

        return each

    each = each_of(fs)
    # one row of cuts per integral; a cut at the lower limit is no cut
    rows = np.array([[0.5, 0.0, 0.0], [0.0, 0.0, 0.0], [0.3, 1.7, -1.0]])
    pairs = integrate_semi_infinite(each, 0.0, scales, spec, rows)
    alone = [integrate_one(integrate_semi_infinite, f, 0.0, s, spec, c)
             for f, s, c in zip(fs, scales, cuts)]
    assert pairs == alone
    assert calls[0] == [0, 1, 2] and len(calls) > 1
    alone = [integrate_one(integrate_finite, f, 0.0, 2.0, spec, c) for f, c in zip(fs, cuts)]
    assert integrate_finite(each, 0.0, 2.0, spec, rows) == alone
    assert integrate_finite(each, 1.0, 1.0, spec, rows) == [(0.0, 0.0)] * 3
    # the rows of cuts set the number of integrals, and there is one scale per row
    for bad in (1.0, scales[:2]):
        with pytest.raises(ValueError, match="one scale per integral"):
            integrate_semi_infinite(each, 0.0, bad, spec, rows)
    with pytest.raises(ValueError, match="one scale per integral"):
        integrate_semi_infinite(each, 0.0, scales, spec, rows[:2])
    with pytest.raises(ValueError, match="one row of cuts per integral"):
        integrate_semi_infinite(each, 0.0, scales, spec, rows[0])
    with pytest.raises(ValueError, match="one row of cuts per integral"):
        integrate_finite(each, 0.0, 2.0, spec, rows[0])
    # a failing integral is named, with its own segment in q, as when it is alone
    failing = (fs[0], lambda x: np.where(x > 1.3, math.nan, fs[1](x)), fs[2])
    with pytest.raises(NonConvergence) as err:
        integrate_semi_infinite(each_of(failing), 0.0, scales, spec, rows)
    with pytest.raises(NonConvergence) as err_alone:
        integrate_one(integrate_semi_infinite, failing[1], 0.0, scales[1], spec, cuts[1])
    assert err.value.index == 1 and err_alone.value.index == 0
    assert err.value.interval == err_alone.value.interval
    assert err.value.interval[1] > 1.0  # in q, not in the mapped t in [0, 1]


def test_segments_drop_a_breakpoint_too_close_to_an_end_to_bisect():
    # a segment a few ulps wide at an end would put its nodes on that end
    from casimir_friction.numerics import _segments

    points = np.array([[0.5, np.nextafter(1.0, 0.0), 1.0 - 1e-9, 1e-300]])
    a, b, owner = _segments(np.array([0.0]), np.array([1.0]), fixed=[points])
    assert list(zip(a, b)) == [(0.0, 1e-300), (1e-300, 0.5), (0.5, 1.0 - 1e-9), (1.0 - 1e-9, 1.0)]
    assert owner.tolist() == [0, 0, 0, 0]
