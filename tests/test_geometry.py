import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import j0, jn_zeros

from casimir_friction.numerics import DomainError, QuadratureSpec
from casimir_friction.material import Drude
from casimir_friction.geometry import PlateConfig, UnequalDensities
from casimir_friction.friction import force_zero_t
import oracles
from oracles import g_hat, g_hat_z_integrated, psi_hat


def hankel_coulomb_oracle(q, z0, n_zeros=80):
    """2D Fourier transform of 1/r on a plane offset z0, via the radial
    Hankel integral 2 pi Int J0(q rho) rho/sqrt(rho^2+z0^2) drho with
    iterated averaging of the partial sums between Bessel zeros."""
    breaks = np.concatenate([[0.0], jn_zeros(0, n_zeros) / q])
    pieces = [
        integrate.quad(
            lambda r: r / math.sqrt(r * r + z0 * z0) * j0(q * r), a, b, limit=200
        )[0]
        for a, b in zip(breaks[:-1], breaks[1:])
    ]
    partial = np.cumsum(pieces)
    # Euler-style iterated averaging accelerates the alternating tail
    s = partial.astype(float)
    for _ in range(25):
        s = 0.5 * (s[:-1] + s[1:])
    return 2.0 * math.pi * s[-1]


def test_psi_hat_values():
    assert psi_hat(0.0, 2.5) == pytest.approx(2.0 * math.pi / 2.5, rel=1e-15)
    assert psi_hat(1.0, 1.0) == pytest.approx(2.0 * math.pi * math.exp(-1.0), rel=1e-15)
    with pytest.raises(DomainError):
        psi_hat(1.0, 0.0)
    with pytest.raises(DomainError):
        psi_hat(1.0, -2.0)


def test_psi_hat_matches_hankel_oracle():
    for q, z0 in [(1.0, 0.7), (2.0, 1.0), (0.5, 2.0)]:
        oracle = hankel_coulomb_oracle(q, z0)
        assert psi_hat(z0, q) == pytest.approx(oracle, rel=1e-4)


def test_g_hat_ratio_and_value():
    for z0 in (0.0, 0.3, 2.0):
        for q in (0.5, 1.0, 4.0):
            assert g_hat(z0, q) / psi_hat(z0, q) ** 2 == pytest.approx(4.0 * q**4, rel=1e-13)
    assert g_hat(0.0, 1.0) == pytest.approx(16.0 * math.pi**2, rel=1e-14)


def test_g_hat_sign_convention_regression():
    # a naive contraction with k_z^2 = -q^2 on both sides gives
    # (k_perp^2 - q^2)^2 = 0; the z-sign-following contraction gives 2q^2
    z0, q = 0.5, 1.3
    naive = (q * q - q * q) ** 2 * psi_hat(z0, q) ** 2
    assert naive == 0.0
    assert g_hat(z0, q) == pytest.approx((2.0 * q * q) ** 2 * psi_hat(z0, q) ** 2)
    assert g_hat(z0, q) > 0.0


def test_g_hat_nonnegative():
    for z0 in np.linspace(-3, 3, 7):
        for q in np.logspace(-2, 2, 9):
            assert g_hat(float(z0), float(q)) >= 0.0


def test_g_hat_z_integrated_values():
    assert g_hat_z_integrated(1e-12, 1.0) == pytest.approx((2 * math.pi) ** 2, rel=1e-9)
    assert g_hat_z_integrated(0.5, 1.0) == pytest.approx(
        (2 * math.pi) ** 2 * math.exp(-1.0), rel=1e-14
    )


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("d", [0.5, 1.0, 2.0])
def test_g_hat_z_integrated_nested_quadrature_oracle(q, d):
    # double z-quadrature of g_hat over z1 > d, z2 < 0 (z2 -> -z2)
    inner = lambda z1: integrate.quad(
        lambda z2: g_hat(z1 + z2, q), 0.0, 40.0 / q, epsrel=1e-11, limit=200
    )[0]
    oracle, _ = integrate.quad(inner, d, d + 40.0 / q, epsrel=1e-10, limit=200)
    assert g_hat_z_integrated(q, d) == pytest.approx(oracle, rel=1e-8)


def test_angular_moments():
    # circle averages <cos^n> = Gamma((n+1)/2) / (sqrt(pi) Gamma(n/2 + 1))
    for n in (0, 2, 4, 6):
        closed = math.gamma((n + 1) / 2.0) / (math.sqrt(math.pi) * math.gamma(n / 2.0 + 1.0))
        assert oracles.angular_moment(n) == pytest.approx(closed, abs=1e-12)
    assert oracles.angular_moment(2) == pytest.approx(0.5, abs=1e-15)
    assert oracles.angular_moment(4) == pytest.approx(3.0 / 8.0, abs=1e-15)


def test_k_moment_closed_values():
    assert oracles.k_moment(2, 1.0, 1.0, 1.0) == pytest.approx(3.0 * math.pi / 8.0, rel=1e-9)
    assert oracles.k_moment(2, 1.0, 1.0, 1.0) == pytest.approx(1.17810, rel=1e-5)
    assert oracles.k_moment(4, 1.0, 1.0, 1.0) == pytest.approx(45.0 * math.pi / 32.0, rel=1e-9)
    assert oracles.k_moment(4, 1.0, 1.0, 1.0) == pytest.approx(4.41786, rel=1e-5)


@pytest.mark.parametrize("d", [1e-9, 1e-8, 1e-6])
def test_k_moment_quadrature_matches_closed(d):
    for power, closed in ((2, 3.0 * math.pi / (8.0 * d**4)), (4, 45.0 * math.pi / (32.0 * d**6))):
        numeric = oracles.k_moment(power, d, 1e28, 1e28)
        assert numeric == pytest.approx(closed * 1e56, rel=1e-9)


def test_k_moment_scaling_laws():
    d, lam = 2e-9, 3.7
    spec = QuadratureSpec(rel_tol=1e-10, abs_tol=0.0, max_subdivisions=200)
    for power, law in ((2, 4), (4, 6)):
        base = oracles.k_moment(power, d, 1e28, 1e28, spec)
        scaled = oracles.k_moment(power, lam * d, 1e28, 1e28, spec)
        assert scaled == pytest.approx(base / lam**law, rel=1e-9)


def test_k_moment_unequal_densities():
    assert oracles.k_moment(2, 1e-9, 1e28, 2e28) == pytest.approx(
        3.0 * math.pi / 8.0 / 1e-36 * 1e28 * 2e28, rel=1e-9
    )
    # the cubic closed form is the paper's equal-media result
    gold = Drude(omega_p=1.4e16, nu=5e13)
    with pytest.raises(UnequalDensities):
        force_zero_t(gold, PlateConfig(d=1e-9, rho1=1e28, rho2=2e28), 1.0)


def test_radial_moment():
    # Int_0^inf q^n e^{-2 q d} dq = n! / (2 d)^(n+1)
    assert oracles.radial_moment(3, 1.0) == pytest.approx(6.0 / 16.0, rel=1e-9)
    assert oracles.radial_moment(5, 1.0) == pytest.approx(120.0 / 64.0, rel=1e-9)
    assert oracles.radial_moment(5, 1e-8) == pytest.approx(120.0 / (2e-8) ** 6, rel=1e-9)


def test_plate_config_validation():
    with pytest.raises(ValueError):
        PlateConfig(d=0.0, rho1=1e28, rho2=1e28)
    with pytest.raises(ValueError):
        PlateConfig(d=1e-9, rho1=-1e28, rho2=1e28)
