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
    lines = path.read_text(encoding="utf-8").split("\n")
    path.write_text("\n".join([*lines[:5], "", *lines[5:]]), encoding="utf-8")
    tab = Tabulated.from_csv(path)
    assert list(tab.omega) == list(grid)  # the blank row is skipped
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
    with pytest.raises(ValueError, match="passivity"):
        Tabulated.from_csv(path)

    # a row that is not three numbers names its line, past a blank one
    for row, line in (("1e14,1.5", 4), ("1e14,abc,0.05", 4), ("1e14,1.5,0.0,7", 4)):
        path = tmp_path / "malformed.csv"
        path.write_text(f"omega_rad_s,eps_re,eps_im\n1e13,2.0,0.1\n\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^line {line}: expected omega_rad_s,eps_re,eps_im, "
                                             f"got '{row}'$"):
            Tabulated.from_csv(path)

    # float() reads nan and inf, and a NaN passes Im eps < 0; an array passes the same checks
    rows = [(1e13, 2.0, 0.1), (1e14, 1.5, 0.05), (1e15, 1.2, 0.01), (1e16, 1.1, 0.001)]
    for row, column, value in ((1, 1, math.nan), (2, 2, math.inf), (3, 0, math.inf),
                               (0, 0, math.nan), (1, 2, math.nan)):
        bad = [list(r) for r in rows]
        bad[row][column] = value
        path = tmp_path / "non_finite.csv"
        _write_csv(path, bad)
        with pytest.raises(ValueError, match="finite"):
            Tabulated.from_csv(path)
        with pytest.raises(ValueError, match="finite"):
            Tabulated(omega=np.array([w for w, _, _ in bad]),
                      eps=np.array([complex(re_, -im_) for _, re_, im_ in bad]))
    with pytest.raises(ValueError, match="passivity"):
        Tabulated(omega=np.array([1e13, 1e14]), eps=np.array([1.0 + 0.5j, 1.0 + 0.0j]))
    for omega, eps, message in (([1e13], [1.0], "at least two"),
                                ([1e13, 1e14], [1.0], "same length"),
                                ([0.0, 1e14], [1.0, 1.0], "positive")):
        with pytest.raises(ValueError, match=message):
            Tabulated(omega=np.array(omega), eps=np.array(eps, dtype=complex))


def test_tabulated_extrapolation_forbidden(tmp_path):
    path = tmp_path / "eps.csv"
    _write_csv(path, [(1e13, 2.0, 0.1), (1e14, 1.5, 0.05), (1e15, 1.2, 0.01)])
    tab = Tabulated.from_csv(path)
    with pytest.raises(DomainError):
        tab.eps_at(9e12)
    with pytest.raises(DomainError):
        tab.eps_at(2e15)
    # an array is checked element by element, and named by its first bad omega
    for model in (tab, GOLD_LIKE):
        with pytest.raises(DomainError, match=r"omega must be > 0, got 0\.0"):
            surface_response(model, np.array([1e14, 0.0, -1.0]))


def test_model_validation():
    with pytest.raises(ValueError):
        Drude(omega_p=-1.0)
    with pytest.raises(ValueError):
        Drude(omega_p=1e16, nu=-1.0)
