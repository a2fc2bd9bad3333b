import math

import numpy as np
import pytest

from casimir_friction.numerics import CONST
from casimir_friction.material import Drude
from casimir_friction.geometry import PlateConfig
from casimir_friction.response import ThermalState
from casimir_friction.friction import force_zero_t
from casimir_friction.compare import (
    RATIO_COEFFICIENT,
    LiteratureParams,
    consistency_report,
    pendry_force,
)

GOLD = Drude(omega_p=9.0 * CONST.eV / CONST.hbar, nu=0.035 * CONST.eV / CONST.hbar)
PLATE = PlateConfig(d=10.0 * CONST.nm, rho1=1e28, rho2=1e28)
ROOM = ThermalState.finite(300.0)


def test_pendry_force_value_and_trivial():
    p = LiteratureParams.from_drude(GOLD, d=10.0 * CONST.nm, v=1.0)
    assert p.sigma_over_eps0 == pytest.approx(GOLD.omega_p**2 / GOLD.nu, rel=1e-15)
    expected = 5.0 * CONST.hbar / (256.0 * math.pi**2 * p.sigma_over_eps0**2 * p.d**6)
    assert pendry_force(p) == pytest.approx(expected, rel=1e-14)
    zero = LiteratureParams(sigma_over_eps0=p.sigma_over_eps0, d=p.d, v=0.0)
    assert pendry_force(zero) == 0.0


def test_pendry_validity_flag():
    # v >= d sqrt(sigma/eps0): the bare formula still answers, and the
    # report carries the window flag after the closed forms' own flags
    p = LiteratureParams(sigma_over_eps0=1e10, d=1e-9, v=1e6)
    assert pendry_force(p) > 0
    assert consistency_report(GOLD, PLATE, ROOM, v=1e-2)["validity_flags"] == []
    fast = consistency_report(GOLD, PlateConfig(d=1e-9, rho1=1e28, rho2=1e28), ROOM, v=1e8)
    flags = fast["validity_flags"]
    assert len(flags) == 2
    assert "cubic closed form" in flags[0]
    assert "Pendry validity window" in flags[1]
    assert fast["all_passed"]
    hot = consistency_report(GOLD, PLATE, ThermalState.finite(2000.0), v=1e-2)
    assert hot["validity_flags"] == [
        "kT approaches hbar*omega_sp: small-m linear head is inaccurate over the thermal window"
    ]


def test_factor_chain_1_6_12():
    rng = np.random.default_rng(11)
    for _ in range(10):
        mat = Drude(
            omega_p=rng.uniform(2.0, 15.0) * CONST.eV / CONST.hbar,
            nu=rng.uniform(0.001, 0.2) * CONST.eV / CONST.hbar,
        )
        d = rng.uniform(0.5, 200.0) * CONST.nm
        v = rng.uniform(1e-3, 1e3)
        plate = PlateConfig(d=d, rho1=1e28, rho2=1e28)
        ours = force_zero_t(mat, plate, v).force_per_area
        f_pendry = pendry_force(LiteratureParams.from_drude(mat, d, v))
        assert ours / f_pendry == pytest.approx(12.0, rel=1e-12)
        assert ours / (6.0 * f_pendry) == pytest.approx(2.0, rel=1e-12)
        assert ours == pytest.approx(12.0 * f_pendry, rel=1e-12)


def test_ratio_coefficient_value():
    assert RATIO_COEFFICIENT == pytest.approx((1.0 / 12.0) * (64.0 * math.pi**2 / 5.0), rel=1e-15)
    assert RATIO_COEFFICIENT == pytest.approx(10.5276, rel=1e-5)


def test_report_checks_all_pass():
    report = consistency_report(GOLD, PLATE, ROOM, v=1e-2)
    assert report["all_passed"]
    assert all(c["passed"] for c in report["checks"])
    assert report["F_ours_zeroT"] / report["F_Pendry"] == pytest.approx(12.0, rel=1e-12)
    assert report["F_ours_zeroT"] == pytest.approx(report["F_B"], rel=1e-12)
    assert report["F_ours_zeroT"] / report["F_VP"] == pytest.approx(2.0, rel=1e-12)
    assert report["ratio_linear_over_cubic"] == pytest.approx(
        report["ratio_expected"], rel=1e-12
    )
    assert len(report["annotations"]) == 3


def test_report_ratio_at_unit_argument():
    # choose v so that d = beta hbar v: the ratio is 16 pi^2/15
    v = PLATE.d / (ROOM.beta * CONST.hbar)
    report = consistency_report(GOLD, PLATE, ROOM, v=v)
    assert report["ratio_linear_over_cubic"] == pytest.approx(RATIO_COEFFICIENT, rel=1e-12)


def test_report_rho_independent():
    a = consistency_report(GOLD, PLATE, ROOM, v=0.1)
    b = consistency_report(
        GOLD, PlateConfig(d=PLATE.d, rho1=3e27, rho2=3e27), ROOM, v=0.1
    )
    for key in ("F_ours_linear", "F_ours_zeroT", "F_Pendry", "ratio_linear_over_cubic"):
        assert a[key] == pytest.approx(b[key], rel=1e-13)


def test_report_zero_temperature():
    report = consistency_report(GOLD, PLATE, ThermalState.zero(), v=1.0)
    assert report["F_ours_linear"] == 0.0
    assert report["ratio_linear_over_cubic"] == 0.0
    assert report["all_passed"]


def test_literature_params_validation():
    with pytest.raises(ValueError):
        LiteratureParams(sigma_over_eps0=0.0, d=1e-9, v=1.0)
    with pytest.raises(ValueError):
        LiteratureParams.from_drude(Drude(omega_p=1e16, nu=0.0), d=1e-9, v=1.0)
