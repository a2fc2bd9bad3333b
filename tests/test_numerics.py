import math
import sys

import numpy as np
import pytest

from casimir_friction import numerics
from casimir_friction.numerics import (
    CONST,
    DomainError,
    NonConvergence,
    QuadratureSpec,
    integrate_finite,
    integrate_semi_infinite,
)

from oracles import integrate_one, on_unit_scale

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


def test_polynomial_exactness():
    value, err = integrate_one(integrate_finite, lambda x: x * x, 0.0, 1.0)
    assert value == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert err <= 1e-9


def test_sinc_squared_converges_to_pi(monkeypatch):
    # deficit of the truncated integral is ~1/X per the tail average; [-X, X] holds
    # 2X/pi periods of sin^2, each a bisection or more: past the default budget
    monkeypatch.setattr(numerics, "MAX_BISECTIONS", 4000)
    prev = None
    for X in (100.0, 400.0, 1600.0):
        spec = QuadratureSpec(rel_tol=1e-10)
        value, _ = integrate_one(integrate_finite, lambda x: np.sinc(x / math.pi) ** 2, -X, X,
                                 spec=spec)
        deficit = math.pi - value
        assert deficit == pytest.approx(1.0 / X, rel=0.3)
        if prev is not None:
            assert deficit < prev
        prev = deficit


def test_bose_integral_pi2_over_3():
    spec = QuadratureSpec(rel_tol=1e-12)
    # the rule never evaluates the endpoint x = 0, where the integrand's limit is 1
    value, _ = integrate_one(
        integrate_finite,
        lambda x: x * x * np.exp(-x) / np.expm1(-x) ** 2,
        0.0,
        60.0,
        spec=spec,
    )
    assert value == pytest.approx(PI2_3, rel=1e-11)
    assert value == pytest.approx(3.2898681, abs=5e-8)


def test_semi_infinite_monomial_examples():
    value, _ = integrate_one(integrate_semi_infinite, lambda q: q**3 * np.exp(-2 * q), 0.5)
    assert value == pytest.approx(0.375, rel=1e-10)
    value, _ = integrate_one(integrate_semi_infinite, lambda q: q**5 * np.exp(-2 * q), 0.5)
    assert value == pytest.approx(1.875, rel=1e-10)


def test_semi_infinite_sinh_integral():
    # Int_0^inf m^2/sinh^2(m/2) dm = 4 * (pi^2/3), by x = m in the Bose form
    spec = QuadratureSpec(rel_tol=1e-11)

    def f(m):
        # m > 0 at every node; the limit of m^2/sinh^2(m/2) at m = 0 is 4
        return 4.0 * m * m * np.exp(-m) / np.expm1(-m) ** 2

    value, _ = integrate_one(integrate_semi_infinite, f, 1.0, spec=spec)
    assert value == pytest.approx(4.0 * PI2_3, rel=1e-10)


@pytest.mark.parametrize("n", range(7))
@pytest.mark.parametrize("d", [0.5, 1.0, 3.0])
def test_gamma_monomials(n, d):
    value, err = integrate_one(
        integrate_semi_infinite, lambda q: q**n * np.exp(-2 * q * d), 0.5 / d
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


def test_nonconvergence_raises(monkeypatch):
    monkeypatch.setattr(numerics, "MAX_BISECTIONS", 2)
    spec = QuadratureSpec(rel_tol=1e-12)
    with pytest.raises(NonConvergence, match="did not converge within 2 bisections"):
        integrate_one(integrate_finite, lambda x: np.sin(50.0 / (x + 0.01)), 0.0, 1.0,
                      spec=spec)


def test_a_segment_too_narrow_to_bisect_raises():
    # 1/|x - 0.3| is not integrable: bisection toward 0.3 leaves a segment a few ulps
    # wide, whose nodes round onto its ends, long before the budget runs out
    spec = QuadratureSpec(rel_tol=1e-6)
    with pytest.raises(NonConvergence, match="cannot bisect a segment further"):
        integrate_one(integrate_finite, lambda x: 1.0 / np.abs(x - 0.3), 0.0, 1.0, spec=spec)


def test_bad_limits():
    with pytest.raises(DomainError):
        integrate_one(integrate_finite, lambda x: x, 1.0, 0.0)


def test_degenerate_interval():
    assert integrate_one(integrate_finite, lambda x: x, 2.0, 2.0) == (0.0, 0.0)


def test_several_integrals_in_one_pass_equal_each_alone():
    # each integral keeps its own cuts and segments, so its value and error are
    # those it has alone; the integrand is called once per round for all of them.
    # Over [0, inf) each is taken on the unit scale, in x = q / s, its cuts too
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
    unit = np.array(scales)[:, None]
    scaled = [on_unit_scale(f, s) for f, s in zip(fs, scales)]
    pairs = list(zip(*integrate_semi_infinite(each_of(scaled), spec, rows / unit)))
    alone = [integrate_one(integrate_semi_infinite, f, s, spec=spec, cuts=c)
             for f, s, c in zip(fs, scales, cuts)]
    assert pairs == alone
    assert calls[0] == [0, 1, 2] and len(calls) > 1
    alone = [integrate_one(integrate_finite, f, 0.0, 2.0, spec=spec, cuts=c)
             for f, c in zip(fs, cuts)]
    assert list(zip(*integrate_finite(each, 0.0, 2.0, spec, rows))) == alone
    assert list(zip(*integrate_finite(each, 1.0, 1.0, spec, rows))) == [(0.0, 0.0)] * 3
    # the rows of cuts set the number of integrals
    with pytest.raises(ValueError, match="one row of cuts per integral"):
        integrate_semi_infinite(each, spec, rows[0])
    with pytest.raises(ValueError, match="one row of cuts per integral"):
        integrate_finite(each, 0.0, 2.0, spec, rows[0])
    # a failing integral is named, with its own segment in x, as when it is alone
    failing = (fs[0], lambda x: np.where(x > 1.3, math.nan, fs[1](x)), fs[2])
    with pytest.raises(NonConvergence) as err:
        integrate_semi_infinite(each_of([on_unit_scale(f, s) for f, s in zip(failing, scales)]),
                                spec, rows / unit)
    with pytest.raises(NonConvergence) as err_alone:
        integrate_one(integrate_semi_infinite, failing[1], scales[1], spec=spec, cuts=cuts[1])
    assert err.value.index == 1 and err_alone.value.index == 0
    assert err.value.interval == err_alone.value.interval
    lo, hi = err.value.interval
    assert lo < 1.3 / scales[1] < hi  # in x, not in the mapped t


def test_segments_drop_a_breakpoint_too_close_to_an_end_to_bisect():
    # a segment a few ulps wide at an end would put its nodes on that end
    from casimir_friction.numerics import _segments

    points = np.array([[0.5, np.nextafter(1.0, 0.0), 1.0 - 1e-9, 1e-300]])
    a, b, owner = _segments(np.array([0.0]), np.array([1.0]), points)
    assert list(zip(a, b)) == [(0.0, 1e-300), (1e-300, 0.5), (0.5, 1.0 - 1e-9), (1.0 - 1e-9, 1.0)]
    assert owner.tolist() == [0, 0, 0, 0]


@pytest.mark.parametrize("width", [0.3, 1e-3, 1e-300, 0.0])
def test_graded_points_are_exact_and_reach_both_ends(width):
    # centre -+ width 2^k, k = 0, 1, ..., exact down to a width of 1e-300, with no
    # warning (any warning fails the suite): every one inside (lo, hi) up to both ends,
    # each side in order of k, and no other, the places left over holding lo; a width
    # of 0 gives the centre
    below, above = np.split(numerics.graded_points(0.25, width, 0.0, 1.0), 2)
    for sign, points in ((-1.0, below), (1.0, above)):
        every = 0.25 + sign * np.ldexp(width, np.arange(1024))
        inside = every[(every > 0.0) & (every < 1.0)]
        kept = points[points != 0.0]
        assert set(kept.tolist()) == set(inside.tolist())
        assert np.array_equal(kept, np.sort(kept)[::int(sign)])
    if not width:
        assert below.tolist() == above.tolist() == [0.25]




def test_graded_points_of_centres_outside_the_range_take_only_the_levels_that_reach_it():
    # Phi's fold at T = 0 below omega_sp / 2 runs over [0, omega / 2], and its lines
    # at omega_sp, -omega_sp and omega - omega_sp lie outside it: their points start at
    # the levels that reach it (4 of 12 on each side), not at the line width, and each
    # row holds every point inside its own range
    nu = 1e-3
    left = np.linspace(0.01, 0.49, 50)
    centre = np.stack(np.broadcast_arrays(1.0, -1.0, left - 1.0), axis=1)
    graded = numerics.graded_points(centre, nu, 0.0, 0.5 * left[:, None])
    assert graded.shape == (50, 3, 8)
    steps = np.ldexp(nu, np.arange(1024))
    for row, hi in enumerate(0.5 * left):
        for feature in range(3):
            every = centre[row, feature] + np.concatenate((-steps, steps))
            points = graded[row, feature]
            inside = every[(every > 0.0) & (every < hi)]
            assert set(points[points != 0.0].tolist()) == set(inside.tolist())
