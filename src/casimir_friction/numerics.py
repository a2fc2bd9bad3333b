"""Adaptive quadrature over finite and semi-infinite domains, plus physical constants.

All quantities are strict SI internally (m, s, K, J, N/m^2).  Unit
conversions (eV, nm) happen at the CLI boundary only.

The package has one quadrature rule: a composite Gauss-Kronrod pair
(G7/K15, with QUADPACK's constants) in numpy, refined by bisection of
every segment whose Kronrod-Gauss difference exceeds its share of the
tolerance (`_integrate`).  It runs many integrals at once, each over its
own segments, with one call of the integrand per refinement round:
`response` builds Phi(omega) with it directly.  `integrate_finite` and
`integrate_semi_infinite` are its fronts for n integrals over one range,
each with its own tolerance, its own row of cuts (the interior points
where its integrand has a kink) and, on the semi-infinite range, its own
decay scale, and with one call of their shared array integrand per
round: the k_x integrals of all the points of a general force take
one pass.
Semi-infinite integrals of exponentially decaying integrands are mapped
onto [0, 1) with

    q = a + s * t / (1 - t),    dq = s / (1 - t)^2 dt,

where ``s`` is the expected decay scale of the integrand; the transform
is exact for pure exponential tails.

numpy is bound lazily: `np` here is the module that
``importlib.util.LazyLoader`` puts in ``sys.modules``, which imports
numpy at its first attribute access and is then numpy itself, so a call
that never touches an array (the closed forms, `compare`) does not pay
numpy's import.  The package's other modules take `np` from here, and
the rule's constants are built on first use (`_rule`).
"""

from __future__ import annotations

import functools
import importlib.util
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Sequence


def _lazy(name: str):
    """Module ``name``, imported at its first attribute access (the LazyLoader recipe)."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy("numpy")


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NonConvergence(RuntimeError):
    """Adaptive quadrature exhausted its subdivision budget above tolerance.

    Attributes
    ----------
    level : str or None
        For nested integrations, names the nesting level that failed
        (e.g. "omega1", "k_x").
    interval : (float, float) or None
        From `integrate_finite` and `integrate_semi_infinite`: the
        segment of the integration variable with the largest error when
        the rule failed.
    index : int or None
        From `integrate_finite` and `integrate_semi_infinite`, the
        failing integral's place among their specs; from
        `friction.general_forces` (level "k_x"), the failing point's
        place among its points.  None from every other raiser, such as
        Phi or its table, which serves every point.
    """

    def __init__(self, message: str, level: str | None = None,
                 interval: tuple[float, float] | None = None, index: int | None = None):
        super().__init__(message)
        self.level = level
        self.interval = interval
        self.index = index


class FloatFailure(ArithmeticError):
    """A float overflow or division by zero, naming the quantity it hit.

    Attributes
    ----------
    level : str
        The closed form or nesting level whose formula failed (e.g.
        "LinearFiniteT", "omega1").
    """

    def __init__(self, message: str, level: str):
        super().__init__(message)
        self.level = level


@contextmanager
def float_guard(level: str, quantity: str):
    """Re-raise a float overflow or division by zero inside as a `FloatFailure` naming both."""
    try:
        yield
    except (OverflowError, ZeroDivisionError) as exc:
        raise FloatFailure(f"{quantity}: {exc}", level) from exc


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and budget settings for one quadrature call.

    Parameters
    ----------
    rel_tol : float
        Target relative error; at least 50 machine epsilons, since the
        rounding of a sum over many segments of 15 nodes each keeps the
        Kronrod-Gauss differences from falling much below that.
    max_subdivisions : int
        Adaptive bisection budget, >= 1.
    """

    rel_tol: float = 1e-9
    max_subdivisions: int = 200

    def __post_init__(self):
        if not self.rel_tol >= 50 * sys.float_info.epsilon:
            raise ValueError(
                f"rel_tol must be >= 50 machine epsilons "
                f"({50 * sys.float_info.epsilon:.3g}), got {self.rel_tol}"
            )
        if self.max_subdivisions < 1:
            raise ValueError(
                f"max_subdivisions must be >= 1, got {self.max_subdivisions}"
            )


#: Default for 1D integrals; closed-form cross-checks demand <= 1e-8 agreement.
DEFAULT_SPEC = QuadratureSpec(rel_tol=1e-9, max_subdivisions=200)

#: Default for each level of the nested 2D/3D force integrals.
NESTED_SPEC = QuadratureSpec(rel_tol=1e-6, max_subdivisions=200)


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA values, SI.  k_B, eV and hbar are exact by definition."""

    hbar: float = 1.054571817e-34  # J s
    k_B: float = 1.380649e-23      # J/K
    eV: float = 1.602176634e-19    # J
    nm: float = 1e-9               # m


CONST = PhysicalConstants()


# The Gauss-Kronrod pair G7/K15 on [-1, 1], as in QUADPACK's qk15: the
# Kronrod nodes (every other one from the second, and 0, are the Gauss
# nodes), the Kronrod weights and the Gauss weights, each for x >= 0.
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245, 0.0)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)


@functools.cache
def _rule():
    """All 15 nodes, their Kronrod weights, and Kronrod minus Gauss weights, as arrays."""
    nodes = np.array([*(-x for x in _XGK[:7]), *_XGK[::-1]])
    wk = np.array([*_WGK, *_WGK[6::-1]])
    wd = wk - np.array([0.0, _WG[0], 0.0, _WG[1], 0.0, _WG[2], 0.0, _WG[3],
                        0.0, _WG[2], 0.0, _WG[1], 0.0, _WG[0], 0.0])
    return nodes, wk, wd


#: Segments a rule evaluates in one numpy pass, so that its arrays stay
#: small: 15 nodes each.
_CHUNK = 1024

#: A segment at most this many ulps (of its midpoint) wide cannot be
#: bisected: its nodes round onto its ends.
_UNBISECTABLE_ULPS = 1e3

#: Uniform segments in t that start a semi-infinite integral.  Starting from
#: a few keeps the number of bisection rounds, each one call of the
#: integrand, small.
_T_SEGMENTS = 8


def _kronrod(f, a, b, owner):
    """K15 integrals of f over the segments [a, b], and |K15 - G7| on each."""
    nodes, wk, wd = _rule()
    value, error = np.empty(a.size), np.empty(a.size)
    for start in range(0, a.size, _CHUNK):
        i = slice(start, start + _CHUNK)
        half = 0.5 * (b[i] - a[i])
        y = f(0.5 * (a[i] + b[i])[:, None] + half[:, None] * nodes, owner[i])
        value[i] = half * (y * wk).sum(axis=1)
        error[i] = np.abs(half * (y * wd).sum(axis=1))
    return value, error


def _integrate(f, a, b, owner, n, rel_tol, budget, fail):
    """n integrals, each over its own segments, by composite G7/K15 with bisection.

    Segment [a[i], b[i]] belongs to integral owner[i]; ``owner`` is
    sorted, and the segments of each integral increase.  ``f(x, o)``
    evaluates the integrands at nodes x (one row per segment) of
    segments owned by o (sorted).  ``rel_tol`` and ``budget`` are
    floats, or arrays of one per integral.  An integral is done when the
    sum of its segments' |K15 - G7| is at most rel_tol times its value; until
    then, every segment whose difference exceeds its share (the
    tolerance over the integral's segment count) is bisected, all in
    one call of f per round.  Each integral's segments are summed in
    order, so an integral's value does not depend on the others.

    Returns
    -------
    (values, errors) : arrays of n floats
        The errors are the sums of |K15 - G7|.

    Raises
    ------
    NonConvergence
        ``fail(j, why, lo, hi)`` for the first integral j whose value is
        not finite, that needs more than ``budget`` bisections, or whose
        segment can no longer be bisected; [lo, hi] is that segment, or
        else j's segment with the largest (or a non-finite) error.
    """
    k, e = _kronrod(f, a, b, owner)
    bisections = np.zeros(n, dtype=int)

    def failure(j, why, segment=None):
        if segment is None:
            mine = np.flatnonzero(owner == j)
            segment = mine[np.argmax(np.where(np.isfinite(k[mine] + e[mine]), e[mine], np.inf))]
        return fail(j, why, float(a[segment]), float(b[segment]))

    while True:
        value = np.bincount(owner, k, n)
        error = np.bincount(owner, e, n)
        if not np.isfinite(value).all():
            raise failure(int(np.argmin(np.isfinite(value))), "is not finite")
        allowed = rel_tol * np.abs(value)
        short = error > allowed
        if not short.any():
            return value, error
        share = allowed / np.bincount(owner, minlength=n)
        split = np.flatnonzero(short[owner] & (e > share[owner]))
        mid = 0.5 * (a[split] + b[split])
        bisections += np.bincount(owner[split], minlength=n)
        # a segment a few ulps wide puts its nodes on its ends
        stuck = split[b[split] - a[split] <= _UNBISECTABLE_ULPS * np.spacing(mid)]
        if stuck.size:
            raise failure(int(owner[stuck[0]]), "cannot bisect a segment further", stuck[0])
        if (bisections > budget).any():
            raise failure(int(np.argmax(bisections > budget)),
                          f"did not converge within {budget} bisections")
        # each split segment becomes two, in place, so the order holds
        rep = np.ones(a.size, dtype=int)
        rep[split] = 2
        a, b, owner, k, e = (np.repeat(x, rep) for x in (a, b, owner, k, e))
        first = split + np.arange(split.size)
        b[first] = mid
        a[first + 1] = mid
        new = np.stack((first, first + 1), axis=1).ravel()
        k[new], e[new] = _kronrod(f, a[new], b[new], owner[new])


def _segments(lo, hi, graded=(), fixed=()):
    """Starting segments of n integrals, each on [lo[j], hi[j]].

    ``graded`` holds (centre, width) pairs, each an array over the n
    integrals or a float: a feature of the integrand of that width at
    that centre, graded toward by breakpoints centre +- width 2^k,
    k = 0, 1, ...  ``fixed`` holds arrays of n rows of further
    breakpoints (the kinks of a tabulated response).  Breakpoints
    outside (lo, hi) are dropped, and so are those that would leave a
    segment too narrow to bisect at an end: its nodes would round onto
    the end, where the integrand may not be defined (Im R at 0).

    Returns
    -------
    (a, b, owner) : arrays
        The segments, by owner and then increasing.
    """
    n = lo.size
    zero = np.zeros(n)
    points = list(fixed)
    if graded:
        centre = np.array([c + zero for c, _ in graded])[..., None]
        width = np.array([w + zero for _, w in graded])[..., None]
        # enough steps to reach both ends from every centre, within the float range
        reach = np.where(width > 0, np.maximum(centre - lo[:, None], hi[:, None] - centre) / width,
                         1.0)
        levels = int(min(np.log2(max(reach.max(), 1.0)), 2100.0)) + 1
        steps = width * 2.0 ** np.arange(levels + 1)
        points.append(np.concatenate((centre - steps, centre + steps), axis=2)
                      .transpose(1, 0, 2).reshape(n, -1))
    lo, hi = lo[:, None], hi[:, None]
    # np.minimum and np.maximum, not np.clip, whose Python wrapper costs more than the work
    inner = np.concatenate([np.empty((n, 0)), *points], axis=1)
    inner = np.sort(np.minimum(np.maximum(inner, lo), hi), axis=1)

    def cut(inner):
        edges = np.concatenate((lo, inner, hi), axis=1)
        keep = edges[:, 1:] > edges[:, :-1]
        return edges[:, :-1][keep], edges[:, 1:][keep], np.nonzero(keep)[0]

    a, b, owner = cut(inner)
    if (b - a <= _UNBISECTABLE_ULPS * np.spacing(b)).any():
        # rare: a breakpoint too close to an end to bisect the segment between
        # moves onto that end, leaving a segment of no width
        near_lo = lo + _UNBISECTABLE_ULPS * np.spacing(lo)
        near_hi = hi - _UNBISECTABLE_ULPS * np.spacing(hi)
        a, b, owner = cut(np.where(inner <= near_lo, lo, np.where(inner >= near_hi, hi, inner)))
    return a, b, owner


def _rows(cuts, n: int):
    """``cuts`` as a float array, checked to hold one row per integral."""
    rows = np.asarray(cuts, dtype=float)
    if rows.ndim != 2 or rows.shape[0] != n:
        raise ValueError(f"need one row of cuts per integral ({n}), got shape {rows.shape}")
    return rows


# The benchmark's tracer (perfbench/tracing.py) binds integrate_finite and
# integrate_semi_infinite by name, at every module that imports them, and its
# smoke run needs a call of each: the general force calls the semi-infinite
# front, which calls this one.
def integrate_finite(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a: float,
    b: float,
    specs: Sequence[QuadratureSpec],
    cuts: np.ndarray,
) -> list[tuple[float, float]]:
    """Integrate n integrands over [a, b] in one pass of the package's G7/K15 rule.

    Parameters
    ----------
    f : callable
        ``f(x, which)`` evaluates integrand ``which[i]`` at the nodes
        ``x[i]`` (one row of x per segment, ``which`` increasing), so
        that what the integrands share is computed once per bisection
        round.  Each is real-valued and finite on [a, b] except possibly
        for integrable endpoint singularities (the rule never evaluates
        an endpoint).
    a, b : float
        Integration limits, a <= b.
    specs : sequence of n QuadratureSpec
        Each integral's tolerance and bisection budget; it is refined on
        its own segments.
    cuts : array of n rows
        Row j: points where integrand j has a kink or a narrow feature,
        where its starting segments end.  Points outside (a, b) are
        dropped.

    Returns
    -------
    list of n (value, err_estimate) pairs of float
        Each integral and the sum of its segments' |K15 - G7|.

    Raises
    ------
    NonConvergence
        If an integral is not finite, or takes more than its
        ``max_subdivisions`` bisections to meet its ``rel_tol``; its
        ``index`` is that integral's place among the specs, and its
        ``interval`` the integral's segment with the largest error.
    """
    if a > b:
        raise DomainError(f"integration limits out of order: a={a} > b={b}")
    n = len(specs)
    cuts = _rows(cuts, n)
    if a == b:
        return [(0.0, 0.0)] * n
    seg_a, seg_b, owner = _segments(np.full(n, float(a)), np.full(n, float(b)), fixed=[cuts])

    def fail(j: int, why: str, seg_lo: float, seg_hi: float) -> NonConvergence:
        return NonConvergence(f"quadrature on [{a!r}, {b!r}] {why} on [{seg_lo!r}, {seg_hi!r}]",
                              interval=(seg_lo, seg_hi), index=j)

    value, err = _integrate(f, seg_a, seg_b, owner, n, np.array([s.rel_tol for s in specs]),
                            np.array([s.max_subdivisions for s in specs]), fail)
    return list(zip(value.tolist(), err.tolist()))


# Bound by name by the benchmark's tracer, as integrate_finite is.
def integrate_semi_infinite(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a: float,
    scales: Sequence[float],
    specs: Sequence[QuadratureSpec],
    cuts: np.ndarray,
) -> list[tuple[float, float]]:
    """Integrate n integrands over [a, +inf) via the rational decay-scale transform.

    ``scales[j]`` > 0 is the decay scale of integrand j, which must
    decay at least exponentially on that scale for the transform to
    concentrate the quadrature nodes usefully.  ``f``, ``specs``,
    ``cuts`` and the result are those of `integrate_finite`, which takes
    the mapped integrals.  Each starts from _T_SEGMENTS uniform segments
    in t, cut further at the images of its row of ``cuts`` beyond a.

    Raises
    ------
    DomainError
        If a scale is not > 0.
    NonConvergence
        From `integrate_finite`, with the ``interval`` in q rather than t.
    """
    n = len(specs)
    scales = np.array(scales, dtype=float)
    if scales.shape != (n,):
        raise ValueError(f"need one scale per integral ({n}), got {scales}")
    if not (scales > 0).all():
        raise DomainError(f"integrate_semi_infinite requires scale > 0, got {scales}")
    column = scales[:, None]

    def q(t, s):
        return a + s * t / (1.0 - t)

    def g(t, which):
        s = column[which]
        u = 1.0 - t
        return f(q(t, s), which) * s / (u * u)

    past = _rows(cuts, n) - a
    t_cuts = np.zeros((n, _T_SEGMENTS - 1 + past.shape[1]))
    t_cuts[:, :_T_SEGMENTS - 1] = np.arange(1, _T_SEGMENTS) / _T_SEGMENTS
    np.divide(past, past + column, out=t_cuts[:, _T_SEGMENTS - 1:], where=past > 0)
    try:
        return integrate_finite(g, 0.0, 1.0, specs, t_cuts)
    except NonConvergence as exc:
        s = float(scales[exc.index])
        lo, hi = (q(t, s) if t < 1.0 else math.inf for t in exc.interval)
        raise NonConvergence(f"quadrature on [{a!r}, inf) did not converge on [{lo!r}, {hi!r}]",
                             interval=(lo, hi), index=exc.index) from exc
