"""Calibrates the rounding bound of Phi's pole sum against 40-digit arithmetic.

Prints the largest ratio of the pole sum's actual error to its bound
at one ulp (`_phi0._pole_sum` divided by `_phi0._POLE_ULPS`), over
Drude plates whose lines are 1e-9 to 1.99 omega_sp wide, equal and
unequal, at T = 0 (its logarithms) and at 1 K to 1e4 K (its digamma
functions, on both sides of eta = b nu / pi = 1, where `_phi0._d_parts`
changes form), at omega from `_phi0.POLES_FROM` to 1e3 times the smaller
omega_sp, and next to omega_sp, Omega, 2 Omega and Omega_1 + Omega_2 of
each pair, where poles come near the real axis or merge.  Only points
whose bound at one ulp is within 1e-2 of Phi count: a larger bound keeps
the closed form unused at any tolerance.  With each pole grouped with its
conjugate, every point of this set counts but those next to the merge
Omega_1 + Omega_2, where two of the sum's terms are 0/0 and its bound
grows as the inverse distance.  `_POLE_ULPS` is that ratio times a
margin of 5, rounded up, and the script exits 1 if `_phi0._POLE_ULPS`
is below it, or if `_phi0.closed_form` at the tolerance of a force's Phi
at the default --rtol (1e-9) leaves a point of the set more than 1e-2
away from Omega_1 + Omega_2 to the quadrature.  The reference is the
plain sum over the poles in mpmath, with the plates' float parameters
taken exactly and omega_sp^2 = omega_p^2 / 2 rounded as
`surface_response` rounds it; it loses about 2 log10(omega_sp / nu) of
its 40 digits, 18 for the narrowest line.  `tests/test_response.py`
checks the sum against quadrature and against tests/phi_pole_refs.json.
Needs mpmath, which the test extra does not install, so pytest does not
collect this file; run it (about three minutes) as

    PYTHONPATH=src python tests/phi_pole_sum_calibration.py
"""

import math
import random
import sys

import mpmath as mp
import numpy as np

from casimir_friction import _phi0
from casimir_friction.material import Drude
from casimir_friction.numerics import CONST

mp.mp.dps = 40

OMEGA_P = 9.0 * CONST.eV / CONST.hbar
WIDTHS = (1e-9, 1e-8, 1e-6, 1e-4, 1e-3, 5e-3, 3e-2, 0.3, 1.0, 1.9, 1.99)
TEMPERATURES = (0.0, 1.0, 30.0, 300.0, 1000.0, 1e4)


def poles(m: Drude):
    wsp2, half_nu = mp.mpf(0.5 * m.omega_p**2), mp.mpf(m.nu) / 2
    big = mp.sqrt(wsp2 - half_nu**2)
    a = mp.mpc(0, 0.25) * wsp2 / big
    return ((mp.mpc(big, half_nu), a), (mp.mpc(-big, half_nu), -a),
            (mp.mpc(big, -half_nu), -a), (mp.mpc(-big, -half_nu), a))


def exact(w, m1: Drude, m2: Drude, b):
    """Phi = sum_jk a_j c_k [G(p_j) + G(q_k) - G(w - q_k) - G(w - p_j)] / (w - p_j - q_k).

    At T = 0 (b = inf), G(p) - G(w - p) = 2 log(1 - w/p).
    """
    w = mp.mpf(w)
    if b == math.inf:
        return mp.re(sum(a * c * 2 * (mp.log(1 - w / p) + mp.log(1 - w / q)) / (w - p - q)
                         for p, a in poles(m1) for q, c in poles(m2)))
    b = mp.mpf(b)

    def g(z):
        if z.imag > 0:
            return 1j * mp.pi / (b * z) - 2 * mp.digamma(1 - 1j * b * z / mp.pi)
        return -1j * mp.pi / (b * z) - 2 * mp.digamma(1 + 1j * b * z / mp.pi)

    total = 0
    for p, a in poles(m1):
        for q, c in poles(m2):
            total += a * c * (g(p) + g(q) - g(w - q) - g(w - p)) / (w - p - q)
    return mp.re(total)


def omegas(m1: Drude, m2: Drude, rng: random.Random):
    low = min(m1.omega_sp, m2.omega_sp)
    marks = []
    for m in (m1, m2):
        big = math.sqrt(0.5 * m.omega_p**2 - 0.25 * m.nu**2)
        marks += [m.omega_sp, big, 2.0 * big, 2.0 * m.omega_sp]
    marks.append(sum(math.sqrt(0.5 * m.omega_p**2 - 0.25 * m.nu**2) for m in (m1, m2)))
    near = [x * (1.0 + s * 10.0**rng.uniform(-12.0, -1.0)) for x in marks for s in (-1, 1)]
    spread = [low * 10.0**rng.uniform(math.log10(_phi0.POLES_FROM), 3.0) for _ in range(12)]
    return np.array([w for w in near + spread if w >= _phi0.POLES_FROM * low])


def main():
    rng = random.Random(1)
    worst, counted, total, refused = 0.0, 0, 0, 0
    for width in WIDTHS:
        metal = Drude(omega_p=OMEGA_P, nu=width * OMEGA_P / math.sqrt(2.0))
        other = Drude(omega_p=1.3 * OMEGA_P, nu=0.6 * width * OMEGA_P / math.sqrt(2.0))
        for m2 in (metal, other):
            for temperature in TEMPERATURES:
                b = 0.5 * CONST.hbar / (CONST.k_B * temperature) if temperature else math.inf
                w = omegas(metal, m2, rng)
                total += w.size
                merge = np.abs(w / (_phi0._omega(metal) + _phi0._omega(m2)) - 1.0) <= 1e-2
                for wi in w[~(_phi0.closed_form(w, metal, m2, b, 1e-9)[2] | merge)]:
                    refused += 1
                    print(f"width {width}, {'equal' if m2 is metal else 'unequal'}, "
                          f"T = {temperature} K, omega = {wi / metal.omega_sp!r} omega_sp: "
                          f"refused at tol 1e-9", file=sys.stderr)
                with np.errstate(divide="ignore", invalid="ignore"):
                    value, bound = _phi0._pole_sum(w, metal, m2, b)
                bound = bound / _phi0._POLE_ULPS
                for wi, v, e in zip(w, value, bound):
                    if not e <= 1e-2 * abs(v):
                        continue
                    ratio = float(abs(v - exact(wi, metal, m2, b)) / e)
                    counted += 1
                    if ratio > worst:
                        worst = ratio
                        print(f"width {width}, {'equal' if m2 is metal else 'unequal'}, "
                              f"T = {temperature} K, omega = {wi / metal.omega_sp!r} omega_sp: "
                              f"error / bound at one ulp = {ratio:.3g}")
    print(f"{counted} of {total} points; largest error / bound at one ulp {worst:.3g}; "
          f"with a margin of 5: _POLE_ULPS >= {5.0 * worst:.3g}")
    status = 0
    if 5.0 * worst > _phi0._POLE_ULPS:
        print(f"_phi0._POLE_ULPS = {_phi0._POLE_ULPS} is below {5.0 * worst:.3g}",
              file=sys.stderr)
        status = 1
    if refused:
        print(f"{refused} points outside 1e-2 of Omega_1 + Omega_2 refused at tol 1e-9",
              file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
