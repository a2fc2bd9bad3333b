import math

import numpy as np
import pytest

from casimir_friction.numerics import CONST, DomainError
from casimir_friction.material import (
    Drude,
    SingularResponse,
    Tabulated,
    response_R,
    surface_response,
)
import oracles

GOLD_LIKE = Drude(omega_p=1e16, nu=1e14)


def test_eps_drude_pinned_value():
    # independent complex-arithmetic oracle: 1 + wp^2/(i w (i w + nu))
    w = 1e15
    oracle = 1.0 + 1e16**2 / (1j * w * (1j * w + 1e14))
    assert GOLD_LIKE.eps_at(w) == pytest.approx(oracle, rel=1e-15)
    assert GOLD_LIKE.eps_at(w) == pytest.approx(-98.00990099009901 - 9.900990099009901j)


def test_eps_drude_high_frequency_transparency():
    eps = GOLD_LIKE.eps_at(1e22)
    assert abs(eps - 1.0) < 1e-11


def test_eps_drude_vacuum():
    model = Drude(omega_p=0.0, nu=1e14)
    for w in (1e12, 1e15, 1e18):
        assert model.eps_at(w) == 1.0 + 0.0j


def test_eps_drude_domain():
    with pytest.raises(DomainError):
        GOLD_LIKE.eps_at(0.0)
    with pytest.raises(DomainError):
        GOLD_LIKE.eps_at(-1e15)


def test_eps_drude_dissipative_sign():
    # xi = i*omega convention puts the loss on the negative imaginary axis
    for w in np.logspace(12, 18, 13):
        assert GOLD_LIKE.eps_at(float(w)).imag <= 0.0


def test_response_R_trivial_limits():
    assert response_R(1.0 + 0.0j) == 0.0
    assert response_R(1e12 + 0.0j) == pytest.approx(1.0, rel=1e-11)


def test_response_R_singular():
    with pytest.raises(SingularResponse):
        response_R(-1.0 + 0.0j)


def test_response_small_omega_imaginary_slope():
    # series oracle: Im R -> -2 nu w / wp^2 as w -> 0
    slope = -2.0 * GOLD_LIKE.nu / GOLD_LIKE.omega_p**2
    for w in (1e10, 1e11, 1e12):
        r = response_R(GOLD_LIKE.eps_at(w))
        assert r.imag == pytest.approx(slope * w, rel=1e-3)
    # tighter at the smallest frequency
    r = response_R(GOLD_LIKE.eps_at(1e9))
    assert r.imag == pytest.approx(slope * 1e9, rel=1e-8)


def test_surface_response_matches_definition():
    # closed Drude form against (eps-1)/(eps+1) on a wide grid
    for w in np.logspace(11, 17, 25):
        direct = response_R(GOLD_LIKE.eps_at(float(w)))
        closed = surface_response(GOLD_LIKE, float(w))
        assert closed == pytest.approx(direct, rel=1e-12)


def test_surface_response_plasmon_pole():
    lossless = Drude(omega_p=1e16, nu=0.0)
    with pytest.raises(SingularResponse):
        surface_response(lossless, lossless.omega_sp)


def test_spectral_density_drude_slope():
    # the oscillator density -Im R/(2 pi^2 rho) starts as D m
    rho = 1e28
    d_expected = CONST.hbar * GOLD_LIKE.nu / (rho * (math.pi * CONST.hbar * GOLD_LIKE.omega_p) ** 2)
    sd = oracles.density(GOLD_LIKE, rho)
    m = 1e-7 * CONST.hbar * GOLD_LIKE.omega_sp
    assert sd(m) / m == pytest.approx(d_expected, rel=1e-12)
    assert oracles.drude_slope(GOLD_LIKE, rho) == pytest.approx(d_expected, rel=1e-14)


def test_rho_invariance_doubling_halves_slope():
    rho = 3.7e27
    m = 1e-3 * CONST.hbar * GOLD_LIKE.omega_sp
    assert oracles.density(GOLD_LIKE, 2.0 * rho)(m) == oracles.density(GOLD_LIKE, rho)(m) / 2.0


def test_small_m_linear_head_within_1_percent():
    # Im R against its linear head -nu omega / omega_sp^2 below 0.01 omega_sp
    slope = -GOLD_LIKE.nu / GOLD_LIKE.omega_sp**2
    for frac in (1e-3, 3e-3, 0.01):
        w = frac * GOLD_LIKE.omega_sp
        im_r = surface_response(GOLD_LIKE, w).imag
        assert abs(im_r - slope * w) / abs(slope * w) < 0.01


def test_passivity_on_log_grid():
    for w in np.logspace(-4, 2, 61) * GOLD_LIKE.omega_p:
        assert surface_response(GOLD_LIKE, float(w)).imag <= 0.0


def test_lossless_drude_density_vanishes_off_resonance():
    lossless = Drude(omega_p=1e16, nu=0.0)
    for w in (1e13, 1e14, 3e16, 1e17):
        assert surface_response(lossless, w).imag == 0.0


def test_plasmon_delta_lines_weight():
    # the sharp line is the lossless Drude metal: R has its pole at omega_sp
    lossless = Drude(omega_p=1e16, nu=0.0)
    ((omega, weight),) = oracles.delta_lines(lossless.omega_sp)
    assert omega == lossless.omega_sp
    assert weight == pytest.approx(0.5 * math.pi * lossless.omega_sp, rel=1e-14)
    with pytest.raises(SingularResponse):
        surface_response(lossless, lossless.omega_sp)


def _write_csv(path, rows, header="omega_rad_s,eps_re,eps_im"):
    lines = [header] + [",".join(repr(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_tabulated_csv_roundtrip(tmp_path):
    grid = np.logspace(13, 17, 41)
    rows = []
    for w in grid:
        eps = GOLD_LIKE.eps_at(float(w))
        rows.append((float(w), eps.real, -eps.imag))  # file convention: Im eps >= 0
    path = tmp_path / "eps.csv"
    _write_csv(path, rows)
    tab = Tabulated.from_csv(path)
    # conjugated back into the internal convention
    for w in grid[::5]:
        assert tab.eps_at(float(w)) == pytest.approx(GOLD_LIKE.eps_at(float(w)), rel=1e-12)
    # interpolation between nodes stays within the log-linear error budget
    mid = math.sqrt(grid[10] * grid[11])
    assert tab.eps_at(mid) == pytest.approx(GOLD_LIKE.eps_at(mid), rel=2e-2)


def test_tabulated_rejects_bad_input(tmp_path):
    path = tmp_path / "bad_header.csv"
    _write_csv(path, [(1e13, 1.0, 0.0), (1e14, 1.0, 0.0)], header="omega,re,im")
    with pytest.raises(ValueError):
        Tabulated.from_csv(path)

    path = tmp_path / "not_increasing.csv"
    _write_csv(path, [(1e14, 1.0, 0.0), (1e13, 1.0, 0.0)])
    with pytest.raises(ValueError):
        Tabulated.from_csv(path)

    path = tmp_path / "active.csv"
    _write_csv(path, [(1e13, 1.0, -0.5), (1e14, 1.0, 0.0)])
    with pytest.raises(ValueError):
        Tabulated.from_csv(path)


def test_tabulated_extrapolation_forbidden(tmp_path):
    path = tmp_path / "eps.csv"
    _write_csv(path, [(1e13, 2.0, 0.1), (1e14, 1.5, 0.05), (1e15, 1.2, 0.01)])
    tab = Tabulated.from_csv(path)
    with pytest.raises(DomainError):
        tab.eps_at(9e12)
    with pytest.raises(DomainError):
        tab.eps_at(2e15)


def test_model_validation():
    with pytest.raises(ValueError):
        Drude(omega_p=-1.0)
    with pytest.raises(ValueError):
        Drude(omega_p=1e16, nu=-1.0)
