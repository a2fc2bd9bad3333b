import math

import numpy as np
import pytest

from casimir_friction.numerics import DomainError
from casimir_friction.trajectory import (
    LoopTrajectory,
    delta_limit_convergence,
    finite_tau_kernel,
    qhat_closed_form,
)
from oracles import loop_position, qhat_numeric

TRAJ = LoopTrajectory(tau=10.0, alpha=50.0)
TRAJ_INF = LoopTrajectory(tau=10.0)


def test_loop_position_branches():
    tau, alpha = TRAJ.tau, TRAJ.alpha
    assert loop_position(0.0, TRAJ) == 0.0
    assert loop_position(-(alpha + 1) * tau, TRAJ) == 0.0
    assert loop_position((alpha + 1) * tau, TRAJ) == 0.0
    assert loop_position(2 * (alpha + 1) * tau, TRAJ) == 0.0
    # continuity at the branch joints
    eps = 1e-9 * tau
    for joint in (-tau, tau):
        left = loop_position(joint - eps, TRAJ)
        right = loop_position(joint + eps, TRAJ)
        assert abs(left - right) <= 1e-8 * tau
    assert loop_position(tau, TRAJ) == tau
    assert loop_position(-tau, TRAJ) == -tau


def test_loop_closure_integral():
    # piecewise-linear: trapezoid on a grid containing the joints is exact,
    # and Int qdot dt telescopes to q(end) - q(start) = 0
    tau, alpha = TRAJ.tau, TRAJ.alpha
    end = (alpha + 1) * tau
    knots = np.concatenate([
        np.linspace(-end, -tau, 200),
        np.linspace(-tau, tau, 200),
        np.linspace(tau, end, 200),
    ])
    q = np.array([loop_position(float(t), TRAJ) for t in knots])
    total = np.sum(np.diff(q))
    variation = np.sum(np.abs(np.diff(q)))
    assert abs(total) <= 1e-12 * variation


def test_loop_position_requires_finite_alpha():
    with pytest.raises(DomainError):
        loop_position(0.0, TRAJ_INF)


def test_qhat_zero_omega_v():
    for traj in (TRAJ, TRAJ_INF):
        for w in (0.3, 1.1, 4.0):
            assert qhat_closed_form(w, 0.0, traj) == 0.0
    assert qhat_numeric(1.1, 0.0, TRAJ) == 0.0


def test_qhat_alpha_inf_form():
    w, wv, tau = 1.3, 0.7, TRAJ_INF.tau
    expected = 2.0 * wv * math.sin((w - wv) * tau) / (w * (w - wv))
    assert qhat_closed_form(w, wv, TRAJ_INF) == pytest.approx(expected, rel=1e-14)


def test_qhat_removable_singularity_at_omega_v():
    # limit 2 omega_v tau / omega at omega = omega_v
    wv = 0.7
    val = qhat_closed_form(wv, wv, TRAJ_INF)
    assert val == pytest.approx(2.0 * TRAJ_INF.tau, rel=1e-12)
    near = qhat_closed_form(wv + 1e-13, wv, TRAJ_INF)
    assert near == pytest.approx(val, rel=1e-9)


def test_qhat_small_omega_v_leading_order():
    w, tau = 0.9, TRAJ_INF.tau
    wv = 1e-9
    lead = 2.0 * wv * math.sin(w * tau) / w**2
    assert qhat_closed_form(w, wv, TRAJ_INF) == pytest.approx(lead, rel=1e-6)


def test_qhat_pinned_against_numeric_oracle():
    # alpha=50, tau=10, omega=1.3, omega_v=0.7 (dimensionless test units)
    closed = qhat_closed_form(1.3, 0.7, TRAJ)
    numeric = qhat_numeric(1.3, 0.7, TRAJ)
    assert abs(numeric.imag) < 1e-9  # odd loop => real transform
    assert closed == pytest.approx(-0.5040685100, abs=2e-9)
    assert abs(closed - numeric) / abs(numeric) < 1e-6


def test_qhat_closed_vs_numeric_grid():
    omegas = np.linspace(0.3, 2.1, 5)
    omega_vs = np.linspace(0.1, 1.4, 5)
    for w in omegas:
        for wv in omega_vs:
            closed = qhat_closed_form(float(w), float(wv), TRAJ)
            numeric = qhat_numeric(float(w), float(wv), TRAJ)
            scale = max(abs(numeric), 1e-3)
            assert abs(closed - numeric) / scale < 1e-6


def test_qhat_resonant_limit_two_tau():
    traj = LoopTrajectory(tau=5.0, alpha=100.0)
    val = qhat_closed_form(1.0, 1.0, traj)
    assert val == pytest.approx(2.0 * traj.tau, rel=3.0 / traj.alpha)


def test_qhat_excluded_points():
    with pytest.raises(DomainError):
        qhat_closed_form(0.0, 0.7, TRAJ)
    with pytest.raises(DomainError):
        qhat_closed_form(-0.7 / TRAJ.alpha, 0.7, TRAJ)
    with pytest.raises(DomainError):
        qhat_closed_form(0.0, 0.7, TRAJ_INF)
    with pytest.raises(DomainError):
        qhat_numeric(1.0, 1.0, TRAJ_INF)


def test_qhat_conjugation_symmetry():
    # real q(t): qhat(-w, wv) = conj(qhat(w, -wv)); the transform itself is real
    for w in (0.4, 1.3):
        for wv in (0.25, 0.9):
            for traj in (TRAJ, TRAJ_INF):
                lhs = qhat_closed_form(-w, wv, traj)
                rhs = qhat_closed_form(w, -wv, traj)
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)
            num_l = qhat_numeric(-w, wv, TRAJ)
            num_r = qhat_numeric(w, -wv, TRAJ)
            assert num_l == pytest.approx(num_r.conjugate(), rel=1e-8, abs=1e-9)


def test_finite_tau_kernel_nonnegative():
    traj = LoopTrajectory(tau=30.0)
    for w in np.linspace(0.2, 2.0, 17):
        assert finite_tau_kernel(float(w), 1.0, traj) >= 0.0


def test_delta_limit_convergence_halves_error():
    rows = delta_limit_convergence(1.0, [50.0, 100.0, 200.0])
    errs = [r["rel_error"] for r in rows]
    assert errs[0] > errs[1] > errs[2]
    assert rows[1]["ratio_vs_prev"] == pytest.approx(2.0, abs=0.2)
    assert rows[2]["ratio_vs_prev"] == pytest.approx(2.0, abs=0.2)
    assert rows[0]["ratio_vs_prev"] is None
    assert rows[0]["prediction"] == pytest.approx(math.pi * 50.0)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        LoopTrajectory(tau=0.0)
    with pytest.raises(ValueError):
        LoopTrajectory(tau=1.0, alpha=0.0)
