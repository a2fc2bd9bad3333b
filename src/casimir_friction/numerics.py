"""Adaptive quadrature over finite and semi-infinite domains, plus physical constants.

All quantities are strict SI internally (m, s, K, J, N/m^2).  Unit
conversions (eV, nm) happen at the CLI boundary only.

The package has one quadrature rule: a composite Gauss-Kronrod pair
(G7/K15, with QUADPACK's constants) in numpy, refined by bisection of
every segment whose Kronrod-Gauss difference exceeds its share of the
tolerance, within MAX_BISECTIONS bisections per integral (`_integrate`).
It runs many integrals at once, each over its own segments, with one
call of the integrand per refinement round.  Its one front is
`integrate_finite`: n integrals to one tolerance, each over its own
limits, cut at its own row of breakpoints, as Phi(omega) at all its
omegas is; a caller grades its rows toward its integrands' narrow
features with `graded_points`.  `integrate_semi_infinite` maps n
integrals over [0, inf) onto [0, 1) with

    x = t / (1 - t),    dx = dt / (1 - t)^2,

for integrands that decay exponentially on the unit scale, as the k_x
integrals of all the points of a general force do in x = 2 d k_x.

numpy is bound lazily: `np` here is the module that
``importlib.util.LazyLoader`` puts in ``sys.modules``, which imports
numpy at its first attribute access and is then numpy itself, so a call
that never touches an array (the closed forms, `compare`) does not pay
numpy's import.  The package's other modules take `np` from here, and
the rule's constants are built on first use (`_rule`).  The package's
value classes (`QuadratureSpec` and `PhysicalConstants` here, the
materials, the temperature, the plates and the results) share the small
base `_Record`, which gives them a dataclass's repr, equality and hash
without importing `dataclasses`, and with it inspect and ast, into a
cold CLI call.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import operator
import sys
from collections.abc import Callable
from contextlib import contextmanager


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
    """An argument lies outside the mathematical domain of an operation.

    Attributes
    ----------
    index : int or None
        From `friction.general_forces`, the place among its points of the
        point it refuses.  None from every other raiser.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


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
        failing integral's row of cuts; from
        `response.im_r_dissipation_integral`, the failing omega's place
        in its flattened omega_v; from `friction.general_forces` (level
        "k_x", or "omega1" for Phi at a node of its k_x pass), the
        failing point's place among its points.  None from every other
        raiser.
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
    index : int or None
        From `friction.general_forces`, when a point's force overflows,
        that point's place among its points.  None from every other
        raiser.
    """

    def __init__(self, message: str, level: str, index: int | None = None):
        super().__init__(message)
        self.level = level
        self.index = index


@contextmanager
def float_guard(level: str, quantity: str):
    """Re-raise a float overflow or division by zero inside as a `FloatFailure` naming both."""
    try:
        yield
    except (OverflowError, ZeroDivisionError) as exc:
        raise FloatFailure(f"{quantity}: {exc}", level) from exc


#: Sets a field of a frozen `_Record` in its ``__init__``, past the refusal of assignment.
_set_field = object.__setattr__


def _refuse_assignment(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


class _Record:
    """A value class: repr, equality and hash by its fields, as a dataclass has them.

    A subclass names its fields, in order, in ``__match_args__``, and sets
    and checks them in its own ``__init__``.  Two instances of one class
    are equal where their field values are, compared as one
    `operator.attrgetter` of the fields reads them, and repr shows those
    values.  A frozen subclass (the default; ``frozen=False`` in the class
    statement makes a mutable one) refuses assignment, so its ``__init__``
    sets its fields with `_set_field`, and hashes by its field values; a
    mutable one is unhashable.  Pickling and copying take an instance's
    ``__dict__``, as they do any object's.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls, frozen: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        # each class's methods close over its own key: looked up on the
        # instance at each call, it would cost a hash about a tenth more
        key = operator.attrgetter(*cls.__match_args__)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))

        cls.__eq__ = __eq__
        cls.__hash__ = __hash__ if frozen else None
        if frozen:
            cls.__setattr__, cls.__delattr__ = _refuse_assignment, _refuse_deletion

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"


class QuadratureSpec(_Record):
    """The tolerance of one quadrature call.

    Parameters
    ----------
    rel_tol : float
        Target relative error, finite and at least 50 machine epsilons,
        since the rounding of a sum over many segments of 15 nodes each
        keeps the Kronrod-Gauss differences from falling much below that.
    """

    __match_args__ = ("rel_tol",)

    def __init__(self, rel_tol: float = 1e-9):
        if not (rel_tol >= 50 * sys.float_info.epsilon and math.isfinite(rel_tol)):
            raise ValueError(
                f"rel_tol must be finite and >= 50 machine epsilons "
                f"({50 * sys.float_info.epsilon:.3g}), got {rel_tol}"
            )
        _set_field(self, "rel_tol", rel_tol)


#: Default for 1D integrals; closed-form cross-checks demand <= 1e-8 agreement.
DEFAULT_SPEC = QuadratureSpec(rel_tol=1e-9)

#: Default for each level of the nested 2D/3D force integrals.
NESTED_SPEC = QuadratureSpec(rel_tol=1e-6)

#: The bisections one integral may take before it fails to converge.
MAX_BISECTIONS = 200


class PhysicalConstants(_Record):
    """CODATA values, SI.  k_B, eV and hbar are exact by definition."""

    __match_args__ = ("hbar", "k_B", "eV", "nm")

    def __init__(self, hbar: float = 1.054571817e-34,  # J s
                 k_B: float = 1.380649e-23,            # J/K
                 eV: float = 1.602176634e-19,          # J
                 nm: float = 1e-9):                    # m
        _set_field(self, "hbar", hbar)
        _set_field(self, "k_B", k_B)
        _set_field(self, "eV", eV)
        _set_field(self, "nm", nm)


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


def _integrate(f, a, b, owner, n, rel_tol):
    """n integrals, each over its own segments, by composite G7/K15 with bisection.

    Segment [a[i], b[i]] belongs to integral owner[i]; ``owner`` is
    sorted, and the segments of each integral increase.  ``f(x, o)``
    evaluates the integrands at nodes x (one row per segment) of
    segments owned by o (sorted).  ``rel_tol`` is a float, the same for
    every integral.  An integral is done when the sum of its segments'
    |K15 - G7| is at most rel_tol times its value; until then, every
    segment whose difference exceeds its share (the tolerance over the
    integral's segment count) is bisected, all in one call of f per
    round.  Each integral's segments are summed in order, so an
    integral's value does not depend on the others; one with no
    segments is 0.

    Returns
    -------
    (values, errors) : arrays of n floats
        The errors are the sums of |K15 - G7|.

    Raises
    ------
    NonConvergence
        For the first integral j whose value is not finite, that needs
        more than MAX_BISECTIONS bisections, or whose segment can no
        longer be bisected, as its message says: its ``index`` is j, its
        ``interval`` that segment, or else j's with the largest error.
    """
    k, e = _kronrod(f, a, b, owner)
    bisections = np.zeros(n, dtype=int)

    def failure(j, why, segment=None):
        if segment is None:
            mine = np.flatnonzero(owner == j)
            segment = mine[np.argmax(np.where(np.isfinite(k[mine] + e[mine]), e[mine], np.inf))]
        return NonConvergence(why, interval=(float(a[segment]), float(b[segment])), index=j)

    while True:
        value = np.bincount(owner, k, n)
        error = np.bincount(owner, e, n)
        if not np.isfinite(value).all():
            raise failure(int(np.argmin(np.isfinite(value))), "is not finite")
        allowed = rel_tol * np.abs(value)
        short = error > allowed
        if not short.any():
            return value, error
        # an integral with no segments is 0 and done, and takes no share
        share = allowed / np.maximum(np.bincount(owner, minlength=n), 1)
        split = np.flatnonzero(short[owner] & (e > share[owner]))
        mid = 0.5 * (a[split] + b[split])
        bisections += np.bincount(owner[split], minlength=n)
        # a segment a few ulps wide puts its nodes on its ends
        stuck = split[b[split] - a[split] <= _UNBISECTABLE_ULPS * np.spacing(mid)]
        if stuck.size:
            raise failure(int(owner[stuck[0]]), "cannot bisect a segment further", stuck[0])
        if (bisections > MAX_BISECTIONS).any():
            raise failure(int(np.argmax(bisections > MAX_BISECTIONS)),
                          f"did not converge within {MAX_BISECTIONS} bisections")
        # each split segment becomes two, in place, so the order holds
        rep = np.ones(a.size, dtype=int)
        rep[split] = 2
        a, b, owner, k, e = (np.repeat(x, rep) for x in (a, b, owner, k, e))
        first = split + np.arange(split.size)
        b[first] = mid
        a[first + 1] = mid
        new = np.stack((first, first + 1), axis=1).ravel()
        k[new], e[new] = _kronrod(f, a[new], b[new], owner[new])


def graded_points(centre, width, lo, hi):
    """The points centre -+ width 2^k, k = 0, 1, ..., that lie inside (lo, hi).

    The arguments broadcast together (floats or arrays); each centre's
    points run along a new last axis, as many for every centre, and each
    point outside (lo, hi) is lo, which an integral's cuts drop.  Only
    the levels k that can reach into the range are formed: from the
    lowest at which the widest step passes the smallest distance from a
    centre to the range (0 if a centre is inside it) to the highest at
    which the narrowest step passes the widest span.  width 2^k is exact
    (inf past the float range), for k up to 1023, where 2^k stays finite:
    a width below 2^-1023 of the span stops short of the ends.  A width
    of 0 gives the centre itself.
    """
    centre, width, lo, hi = (np.asarray(x, dtype=float)[..., None] for x in (centre, width, lo, hi))
    below, above = centre - lo, hi - centre
    widths = width[width > 0]
    levels = range(1)
    if widths.size:
        # width 2^k stays below x up to k = e(x) - e(width) - 2, and passes it from
        # e(x) - e(width) + 1 on; a centre inside the range is at 0 from it
        outside = float(np.where(width > 0, np.maximum(-below, -above), np.inf).min())
        near = math.frexp(outside)[1] - math.frexp(float(widths.max()))[1] - 1 if outside > 0 else 0
        far = (math.frexp(float(np.maximum(below, above).max()))[1]
               - math.frexp(float(widths.min()))[1] + 1)
        levels = range(max(min(near, 1023), 0), max(min(far, 1023), 0) + 1)
    with np.errstate(over="ignore"):
        steps = width * np.ldexp(1.0, np.array(levels, dtype=np.intc))
    points = np.concatenate((centre - steps, centre + steps), axis=-1)
    return np.where((lo < points) & (points < hi), points, lo)


def _segments(lo, hi, cuts):
    """Starting segments of n integrals, each on [lo[j], hi[j]].

    ``cuts`` holds n rows of breakpoints (such as the kinks of a
    tabulated response, or the caller's `graded_points` toward a narrow
    feature).  Breakpoints outside (lo, hi) are dropped, and those within
    _UNBISECTABLE_ULPS of an end move onto it: the segment between would
    be too narrow to bisect, and its nodes would round onto the end,
    where the integrand may not be defined (Im R at 0).

    Returns
    -------
    (a, b, owner) : arrays
        The segments, by owner and then increasing.
    """
    lo, hi = lo[:, None], hi[:, None]
    near_lo = lo + _UNBISECTABLE_ULPS * np.spacing(lo)
    near_hi = hi - _UNBISECTABLE_ULPS * np.spacing(hi)
    # np.minimum and np.maximum, not np.clip, whose Python wrapper costs more than the work
    inner = np.sort(np.minimum(np.maximum(cuts, lo), hi), axis=1)
    inner = np.where(inner <= near_lo, lo, np.where(inner >= near_hi, hi, inner))
    # a breakpoint on an end leaves a segment of no width, which is dropped
    edges = np.concatenate((lo, inner, hi), axis=1)
    keep = edges[:, 1:] > edges[:, :-1]
    return edges[:, :-1][keep], edges[:, 1:][keep], np.nonzero(keep)[0]


def _rows(cuts):
    """``cuts`` as a float array, checked to hold rows, one per integral."""
    rows = np.asarray(cuts, dtype=float)
    if rows.ndim != 2:
        raise ValueError(f"need one row of cuts per integral, got shape {rows.shape}")
    return rows


# The benchmark's tracer (perfbench/tracing.py) binds integrate_finite and
# integrate_semi_infinite by name, at every module that imports them, and its
# smoke run needs a call of each: the general force calls the semi-infinite
# front, which calls this one, and Phi's quadrature calls this one.
def integrate_finite(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a: float | np.ndarray,
    b: float | np.ndarray,
    spec: QuadratureSpec,
    cuts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate n integrands, each over its own limits, in one pass of the package's G7/K15 rule.

    Parameters
    ----------
    f : callable
        ``f(x, which)`` evaluates integrand ``which[i]`` at the nodes
        ``x[i]`` (one row of x per segment, ``which`` increasing), so
        that what the integrands share is computed once per bisection
        round.  Each is real-valued and finite on its range except
        possibly for integrable endpoint singularities (the rule never
        evaluates an endpoint).
    a, b : float or array of n floats
        Integration limits, a <= b, one pair per integral or a float
        for all.  An integral with a == b is 0.
    spec : QuadratureSpec
        The tolerance of every integral, each refined on its own segments.
    cuts : array of n rows
        One row per integral, which sets n.  Row j: points where
        integrand j has a kink or a narrow feature, where its starting
        segments end.  Points outside (a, b) are dropped.  A caller grades
        a row toward a narrow feature by appending its `graded_points`.

    Returns
    -------
    (values, err_estimates) : arrays of n floats
        Each integral and the sum of its segments' |K15 - G7|.

    Raises
    ------
    DomainError
        If an integral's limits are out of order.
    NonConvergence
        If an integral is not finite, takes more than MAX_BISECTIONS
        bisections, or needs a segment bisected past the float
        resolution, as its message says; its ``index`` is that
        integral's row, its ``interval`` the segment that failed.
    """
    cuts = _rows(cuts)
    n = cuts.shape[0]
    lo, hi = np.full(n, a, dtype=float), np.full(n, b, dtype=float)
    if (lo > hi).any():
        raise DomainError(f"integration limits out of order: a={a} > b={b}")
    seg_a, seg_b, owner = _segments(lo, hi, cuts)
    return _integrate(f, seg_a, seg_b, owner, n, spec.rel_tol)


# Bound by name by the benchmark's tracer, as integrate_finite is.
def integrate_semi_infinite(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    spec: QuadratureSpec,
    cuts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate n integrands over [0, +inf) via x = t / (1 - t) on [0, 1).

    Each integrand must decay at least exponentially on the unit scale,
    as e^-x does, for the map to place the quadrature nodes usefully: a
    caller takes its variable in units of its integrand's decay scale.
    ``f``, ``spec``, ``cuts`` and the result are those of
    `integrate_finite`, which takes the mapped integrals.  Each starts
    from _T_SEGMENTS uniform segments in t, cut further at the images
    c / (1 + c) of its row of ``cuts`` beyond 0.

    Raises
    ------
    NonConvergence
        From `integrate_finite`, with the ``interval`` in x rather than t;
        one that ``f`` raises and that names its ``level`` passes unchanged.
    """
    cuts = _rows(cuts)

    def g(t, which):
        u = 1.0 - t
        return f(t / u, which) / (u * u)

    t_cuts = np.zeros((cuts.shape[0], _T_SEGMENTS - 1 + cuts.shape[1]))
    t_cuts[:, :_T_SEGMENTS - 1] = np.arange(1, _T_SEGMENTS) / _T_SEGMENTS
    np.divide(cuts, cuts + 1.0, out=t_cuts[:, _T_SEGMENTS - 1:], where=cuts > 0)
    try:
        return integrate_finite(g, 0.0, 1.0, spec, t_cuts)
    except NonConvergence as exc:
        if exc.level:  # the integrand's own, at its level
            raise
        lo, hi = (t / (1.0 - t) if t < 1.0 else math.inf for t in exc.interval)
        raise NonConvergence(f"quadrature on [0, inf) {exc} on [{lo!r}, {hi!r}]",
                             interval=(lo, hi), index=exc.index) from exc
