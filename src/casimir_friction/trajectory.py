"""Closed-loop sliding motion, its Fourier transform, and the delta-sequence limit.

The moving plate follows a closed loop q(t) (units of time; position is
r0 + v*q(t)): constant velocity v on (-tau, tau), bracketed by slow
return strokes of velocity -v/alpha that bring it back to the start at
t = +-(alpha+1)*tau.  The loop guarantees that reversible forces do no
net work, so the time integral of force * velocity is pure dissipation.

The transform of Q(t) = exp(i*omega_v*q(t)) - 1,

    qhat(omega, omega_v) = Int (e^{i omega_v q(t)} - 1) e^{-i omega t} dt,

has the closed form (finite alpha)

    2 [ (1+1/a) w_v sin((w-w_v) tau) / ((w + w_v/a)(w - w_v))
        - (w_v/a) sin(w (1+a) tau) / ((w + w_v/a) w) ],

which vanishes identically for w_v = 0 and tends, for alpha -> inf, to
2 w_v sin((w-w_v) tau)/(w (w-w_v)).  Because the loop is odd in t the
transform is real-valued.  As tau -> inf, (omega/4) sum_{n=+-1}
|qhat(omega, n*omega_v)|^2 concentrates into the delta-sequence kernel

    I(omega) = pi tau (omega_v^2/omega) [delta(omega-omega_v) + delta(omega+omega_v)],

and the finite-tau kernel converges to it at rate O(1/tau)
(`delta_limit_convergence`).  The force itself never needs the loop:
the delta limit is already taken in `friction`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (
    DomainError,
    QuadratureSpec,
    integrate_finite,
)


@dataclass(frozen=True)
class LoopTrajectory:
    """Closed-loop motion parameters: half-duration tau and return ratio alpha.

    Time is the loop's coordinate, so the fast velocity v only scales
    the sliding frequency omega_v and is not a parameter here.
    alpha = math.inf selects the limit in which the slow return strokes
    carry no dissipation.
    """

    tau: float
    alpha: float = math.inf

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")


def _sin_over(x: float, tau: float) -> float:
    """sin(x*tau)/x with the removable singularity evaluated by its limit."""
    return tau * np.sinc(x * tau / math.pi)


def qhat_closed_form(omega: float, omega_v: float, traj: LoopTrajectory) -> float:
    """Closed-form transform of exp(i*omega_v*q(t)) - 1 (real-valued).

    Raises
    ------
    DomainError
        At omega = 0, and for finite alpha at omega = -omega_v/alpha
        (poles of the two-term representation).
    """
    tau = traj.tau
    if omega == 0.0:
        raise DomainError("qhat_closed_form is singular at omega = 0")
    if omega_v == 0.0:
        return 0.0
    if math.isinf(traj.alpha):
        return 2.0 * omega_v * _sin_over(omega - omega_v, tau) / omega
    alpha = traj.alpha
    shift = omega + omega_v / alpha
    if abs(shift) <= 1e-12 * max(abs(omega), abs(omega_v) / alpha):
        raise DomainError(
            f"qhat_closed_form is singular at omega = -omega_v/alpha = {-omega_v/alpha:.6e}"
        )
    term1 = (1.0 + 1.0 / alpha) * omega_v * _sin_over(omega - omega_v, tau) / shift
    term2 = (omega_v / alpha) * math.sin(omega * (1.0 + alpha) * tau) / (shift * omega)
    return 2.0 * (term1 - term2)


def finite_tau_kernel(omega: float, omega_v: float, traj: LoopTrajectory) -> float:
    """(omega/4) sum_{n=+-1} |qhat(omega, n*omega_v)|^2 at finite tau."""
    qp = qhat_closed_form(omega, omega_v, traj)
    qm = qhat_closed_form(omega, -omega_v, traj)
    return 0.25 * omega * (qp * qp + qm * qm)


def delta_limit_convergence(
    omega_v: float,
    taus: list[float],
    rel_width: float = 0.05,
    spec: QuadratureSpec | None = None,
) -> list[dict]:
    """Convergence study of the finite-tau kernel against its delta limit.

    Integrates the finite-tau kernel against a unit-peak Gaussian test
    function centered at omega_v (width rel_width*omega_v) and compares
    with the prediction pi*tau*omega_v, the weight of the delta limit.
    The relative error decays as O(1/tau), so each tau doubling should
    halve it.

    Returns
    -------
    list of dict
        One row per tau: {tau, integral, prediction, rel_error,
        ratio_vs_prev} with ratio_vs_prev = None on the first row.
    """
    if not omega_v > 0:
        raise DomainError(f"omega_v must be > 0, got {omega_v}")
    sigma = rel_width * omega_v
    lo = max(omega_v - 8.0 * sigma, 1e-12 * omega_v)
    hi = omega_v + 8.0 * sigma
    if spec is None:
        spec = QuadratureSpec(rel_tol=1e-10, abs_tol=0.0, max_subdivisions=20000)

    rows: list[dict] = []
    prev_err = None
    for tau in taus:
        traj = LoopTrajectory(tau=tau, alpha=math.inf)

        def integrand(w: float) -> float:
            g = math.exp(-0.5 * ((w - omega_v) / sigma) ** 2)
            return finite_tau_kernel(w, omega_v, traj) * g

        value, _ = integrate_finite(integrand, lo, hi, spec)
        prediction = math.pi * tau * omega_v
        rel_error = abs(value - prediction) / prediction
        rows.append(
            {
                "tau": tau,
                "integral": value,
                "prediction": prediction,
                "rel_error": rel_error,
                "ratio_vs_prev": None if prev_err is None else prev_err / rel_error,
            }
        )
        prev_err = rel_error
    return rows
