"""Reference values of Phi far above the resonance, in 40-digit arithmetic.

Prints the literals of `test_response.FAR_ABOVE_REFS`: Phi at T = 0,
Phi_0(omega) = 2 Int_0^omega Im R1(u) Im R2(omega - u) du, of a Drude
plate whose line is 1e-3 omega_sp wide, with itself and with a second
plate, at 30 and 1000 omega_sp.  Each value is an mpmath quadrature
split at the plates' lines and checked against the sum over the poles
of Im R, both at 40 digits.  Im R is the exact function of the plates'
float parameters, omega_sp^2 = omega_p^2 / 2 rounded as `surface_response`
rounds it.  The literals are read from tests/test_response.py's source
(`ast`), not imported, and the script exits 1 if one differs from its
40-digit value rounded to a float.  Needs mpmath, which the test extra
does not install, so pytest does not collect this file; run it as

    PYTHONPATH=src python tests/phi_mpmath_refs.py
"""

import ast
import sys
from pathlib import Path

import mpmath as mp

from casimir_friction.material import Drude
from casimir_friction.numerics import CONST

mp.mp.dps = 40

OMEGA_P = 9.0 * CONST.eV / CONST.hbar
SP = OMEGA_P / 2.0**0.5
METAL = Drude(omega_p=OMEGA_P, nu=1e-3 * SP)
OTHER = Drude(omega_p=1.3 * OMEGA_P, nu=0.6e-3 * SP)
MULTIPLES = (30.0, 1000.0)


def im_r(m: Drude):
    wsp2, nu = mp.mpf(0.5 * m.omega_p**2), mp.mpf(m.nu)
    return lambda u: -wsp2 * nu * u / ((wsp2 - u * u) ** 2 + (nu * u) ** 2)


def by_quadrature(w, m1: Drude, m2: Drude):
    f1, f2 = im_r(m1), im_r(m2)
    cuts = {mp.mpf(0), w}
    # each line, and breakpoints graded toward it at c +- width 2^k
    for c, width in ((mp.mpf(m1.omega_sp), m1.nu), (w - m2.omega_sp, m2.nu)):
        cuts.add(c)
        cuts.update(c + s * mp.mpf(width) * 2**k for s in (-1, 1) for k in range(12))
    points = sorted(x for x in cuts if 0 <= x <= w)
    return 2 * mp.quad(lambda u: f1(u) * f2(w - u), points, maxdegree=10)


def poles(m: Drude):
    wsp2, half_nu = mp.mpf(0.5 * m.omega_p**2), mp.mpf(m.nu) / 2
    big = mp.sqrt(wsp2 - half_nu**2)
    a = 0.25j * wsp2 / big
    return ((mp.mpc(big, half_nu), a), (mp.mpc(-big, half_nu), -a),
            (mp.mpc(big, -half_nu), -a), (mp.mpc(-big, -half_nu), a))


def by_poles(w, m1: Drude, m2: Drude):
    # Im R = sum_j a_j / (u - p_j); Int_0^w du / (u - p) = log(1 - w / p)
    total = 0
    for p, a in poles(m1):
        for q, b in poles(m2):
            total += a * b * (mp.log(1 - w / p) + mp.log(1 - w / q)) / (w - p - q)
    return 2 * mp.re(total)


def literals():
    """FAR_ABOVE_REFS as written in tests/test_response.py."""
    tree = ast.parse((Path(__file__).parent / "test_response.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "FAR_ABOVE_REFS"
                                                for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError("no FAR_ABOVE_REFS in tests/test_response.py")


def main():
    written = literals()
    stale = 0
    for name, other in (("equal", METAL), ("unequal", OTHER)):
        for k in MULTIPLES:
            w = mp.mpf(k * SP)
            value = by_quadrature(w, METAL, other)
            check = by_poles(w, METAL, other)
            assert abs(value - check) <= mp.mpf(10) ** -30 * abs(value), (value, check)
            print(f'    ("{name}", {k!r}): {float(value)!r},')
            if written.get((name, k)) != float(value):
                print(f"differs from the test's literal {written.get((name, k))!r}")
                stale += 1
    return 1 if stale or len(written) != 2 * len(MULTIPLES) else 0


if __name__ == "__main__":
    sys.exit(main())
