"""Calibrates the bound of Phi's small-omega series against 40-digit arithmetic.

The series (`_phi0._series`) bounds its error by _SERIES_ULPS ulps of the
sum of its terms' sizes (its rounding) plus _SERIES_TAIL times the first
block it leaves out and the thermal weight of the lines it misses (its
truncation, `_phi0._line_weight`).  This script evaluates the series with
one of the two constants set to 1 and the other to 0, and compares it
with Phi in mpmath: the sum over the poles of its integrand of
tests/phi_pole_sum_calibration.py, exact at every omega, at 100 digits,
so that its cancellation at small omega still leaves more than 40.  It
covers Drude plates whose lines are 1e-4 to 1.99 omega_sp wide, equal and
unequal, at 1 K to 3000 K, and omega from 1e-20 to just below
`_phi0.POLES_FROM` times the smaller omega_sp.  Only points whose bound is
within 1e-2 of Phi count: elsewhere the bound keeps the series unused at
any tolerance.  The largest error over each part of the bound, where that
part is the larger by a factor of 100, times a margin of 5, is the least
value of its constant; the script exits 1 if `_phi0._SERIES_ULPS` or
`_phi0._SERIES_TAIL` is below it, or if any point is off by more than the
bound with the constants as they are.  Needs mpmath, which the test extra
does not install, so pytest does not collect this file; run it (a few
minutes) as

    PYTHONPATH=src python tests/phi_series_calibration.py
"""

import math
import sys
from pathlib import Path

import mpmath as mp
import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from phi_pole_sum_calibration import exact  # noqa: E402

from casimir_friction import _phi0  # noqa: E402
from casimir_friction.material import Drude  # noqa: E402
from casimir_friction.numerics import CONST  # noqa: E402

OMEGA_P = 9.0 * CONST.eV / CONST.hbar
WIDTHS = (1e-4, 1e-3, 5e-3, 3e-2, 0.3, 1.0, 1.9, 1.99)
TEMPERATURES = (1.0, 10.0, 30.0, 100.0, 300.0, 1000.0, 2000.0, 3000.0)
OMEGAS = np.concatenate((np.logspace(-20.0, -12.0, 5), np.logspace(-10.0, -1.0, 6),
                         np.linspace(0.15, 0.999 * _phi0.POLES_FROM, 7)))


def parts(w, m1: Drude, m2: Drude, b: float):
    """The series at w, and its bound with its rounding part alone, then its truncation part."""
    constants = _phi0._SERIES_ULPS, _phi0._SERIES_TAIL
    out = []
    try:
        for ulps, tail in ((1.0, 0.0), (0.0, 1.0)):
            _phi0._SERIES_ULPS, _phi0._SERIES_TAIL = ulps, tail
            _phi0.series_coefficients.cache_clear()
            with np.errstate(all="ignore"):
                out.append(_phi0._series(w, m1, m2, b))
    finally:
        _phi0._SERIES_ULPS, _phi0._SERIES_TAIL = constants
        _phi0.series_coefficients.cache_clear()
    (value, rounding), (_, truncation) = out
    return value, rounding, truncation


def main():
    mp.mp.dps = 100
    worst = {"rounding": 0.0, "truncation": 0.0}
    counted, short = 0, []
    for width in WIDTHS:
        metal = Drude(omega_p=OMEGA_P, nu=width * OMEGA_P / math.sqrt(2.0))
        other = Drude(omega_p=1.3 * OMEGA_P, nu=0.6 * width * OMEGA_P / math.sqrt(2.0))
        for m2 in (metal, other):
            w = OMEGAS * min(metal.omega_sp, m2.omega_sp)
            for temperature in TEMPERATURES:
                b = 0.5 * CONST.hbar / (CONST.k_B * temperature)
                value, rounding, truncation = parts(w, metal, m2, b)
                bound = _phi0._SERIES_ULPS * rounding + _phi0._SERIES_TAIL * truncation
                for wi, v, r, t, e in zip(w, value, rounding, truncation, bound):
                    if not e <= 1e-2 * abs(v):
                        continue
                    error = float(abs(v - exact(wi, metal, m2, b)))
                    counted += 1
                    where = (f"width {width}, {'equal' if m2 is metal else 'unequal'}, "
                             f"T = {temperature} K, omega = {wi / metal.omega_sp!r} omega_sp")
                    if error > e:
                        short.append(f"{where}: error {error:.3g} > bound {e:.3g}")
                    for part, size, rest in (("rounding", r, t), ("truncation", t, r)):
                        if size > 100.0 * rest and error / size > worst[part]:
                            worst[part] = error / size
                            print(f"{where}: error / {part} part = {worst[part]:.3g}")
    print(f"{counted} points; largest error / rounding part {worst['rounding']:.3g}, "
          f"/ truncation part {worst['truncation']:.3g}; with a margin of 5: "
          f"_SERIES_ULPS >= {5.0 * worst['rounding']:.3g}, "
          f"_SERIES_TAIL >= {5.0 * worst['truncation']:.3g}")
    failed = short[:]
    if 5.0 * worst["rounding"] > _phi0._SERIES_ULPS:
        failed.append(f"_phi0._SERIES_ULPS = {_phi0._SERIES_ULPS} is below "
                      f"{5.0 * worst['rounding']:.3g}")
    if 5.0 * worst["truncation"] > _phi0._SERIES_TAIL:
        failed.append(f"_phi0._SERIES_TAIL = {_phi0._SERIES_TAIL} is below "
                      f"{5.0 * worst['truncation']:.3g}")
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
