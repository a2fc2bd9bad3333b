"""Adaptive quadrature over finite and semi-infinite domains, plus physical constants.

All quantities are strict SI internally (m, s, K, J, N/m^2).  Unit
conversions (eV, nm) happen at the CLI boundary only.

The quadrature core is adaptive Gauss-Kronrod (QUADPACK) behind a small
tolerance-spec interface.  Semi-infinite integrals of exponentially
decaying integrands are mapped onto [0, 1) with

    q = a + s * t / (1 - t),    dq = s / (1 - t)^2 dt,

where ``s`` is the expected decay scale of the integrand; the transform
is exact for pure exponential tails.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

from scipy import integrate


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NonConvergence(RuntimeError):
    """Adaptive quadrature exhausted its subdivision budget above tolerance.

    Attributes
    ----------
    level : str or None
        For nested integrations, names the nesting level that failed
        (e.g. "omega1", "k_x").
    """

    def __init__(self, message: str, level: str | None = None):
        super().__init__(message)
        self.level = level


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
        Target relative error; at least 50 machine epsilons, the floor
        QUADPACK accepts without an absolute tolerance.
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


def integrate_finite(
    f: Callable[[float], float],
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> tuple[float, float]:
    """Integrate f over [a, b] adaptively.

    Parameters
    ----------
    f : callable
        Real-valued integrand, finite on [a, b] except possibly for
        integrable endpoint singularities.
    a, b : float
        Integration limits, a <= b.
    spec : QuadratureSpec
        Tolerances and subdivision budget.

    Returns
    -------
    (value, err_estimate) : tuple of float
        The integral and an estimated bound on its absolute error.

    Raises
    ------
    NonConvergence
        If the subdivision budget is exhausted before the requested
        tolerance is met.
    """
    if a > b:
        raise DomainError(f"integration limits out of order: a={a} > b={b}")
    if a == b:
        return 0.0, 0.0
    out = integrate.quad(
        f,
        a,
        b,
        epsabs=0.0,
        epsrel=spec.rel_tol,
        limit=spec.max_subdivisions,
        full_output=1,
    )
    value, err = out[0], out[1]
    if len(out) > 3 and err > spec.rel_tol * abs(value):
        raise NonConvergence(
            f"quadrature did not converge on [{a}, {b}]: "
            f"value={value:.6e}, err={err:.3e} ({out[3].splitlines()[0]})"
        )
    return value, err


def integrate_semi_infinite(
    f: Callable[[float], float],
    a: float,
    scale: float,
    spec: QuadratureSpec,
) -> tuple[float, float]:
    """Integrate f over [a, +inf) via the rational decay-scale transform.

    ``scale`` > 0 is the decay scale of f; f must decay at least
    exponentially on that scale for the transform to concentrate the
    quadrature nodes usefully.

    Returns
    -------
    (value, err_estimate) : tuple of float

    Raises
    ------
    DomainError
        If scale <= 0.
    NonConvergence
        Propagated from the underlying finite-interval rule.
    """
    if not scale > 0:
        raise DomainError(f"integrate_semi_infinite requires scale > 0, got {scale}")

    def g(t: float) -> float:
        if t >= 1.0:
            return 0.0
        u = 1.0 - t
        return f(a + scale * t / u) * scale / (u * u)

    return integrate_finite(g, 0.0, 1.0, spec)
