"""Reference values of Phi far above the resonance and on a very narrow line, in 40-digit arithmetic.

Prints the literals of `test_response.FAR_ABOVE_REFS`: Phi at T = 0,
Phi_0(omega) = 2 Int_0^omega Im R1(u) Im R2(omega - u) du, of a Drude
plate whose line is 1e-3 omega_sp wide, with itself and with a second
plate, at 30 and 1000 omega_sp.  Each value is an mpmath quadrature
split at the plates' lines and checked against the sum over the poles
of Im R, both at 40 digits.  Im R is the exact function of the plates'
float parameters, omega_sp^2 = omega_p^2 / 2 rounded as `surface_response`
rounds it.  Then those of `test_response.NARROW_LINE_REFS`: Phi of the
plate of `force --wp-ev 9 --nu-ev 5e-8` with itself (a line 7.9e-9
omega_sp wide), at T = 0 and at 300 K, at the two omegas where Phi's
quadrature once did not converge: the sum over the poles of Im R with
mpmath's digamma at finite T (`phi_pole_sum_calibration.exact`), which
loses about 16 of its 40 digits here, checked against the same sum at
60 digits.  The literals are read from tests/test_response.py's source
(`ast`), not imported, and the script exits 1 if one differs from its
40-digit value rounded to a float.

Then the pole sum in 40 digits at the omegas of
`test_response.test_phi_closed_form_matches_the_quadrature` from
`_phi0.POLES_FROM` times the smaller omega_sp up, for each of its
plates with poles off the axes and each of its temperatures, checked
against the same sum at 50 digits: the file tests/phi_pole_refs.json,
which that test reads, since its quadrature at rel_tol 1e-12 is not
accurate to the pole sum's bound of about 1e-14 of Phi.  The script
exits 1 if the file differs; with --write it writes the file instead.
Needs mpmath, which the test extra does not install, so pytest does not
collect this file; run it (about three minutes) as

    PYTHONPATH=src python tests/phi_mpmath_refs.py [--write]
"""

import ast
import json
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
from casimir_friction.response import ThermalState  # noqa: E402

mp.mp.dps = 40

OMEGA_P = 9.0 * CONST.eV / CONST.hbar
SP = OMEGA_P / 2.0**0.5
METAL = Drude(omega_p=OMEGA_P, nu=1e-3 * SP)
OTHER = Drude(omega_p=1.3 * OMEGA_P, nu=0.6e-3 * SP)
MULTIPLES = (30.0, 1000.0)
NARROW = Drude(omega_p=9.0 * CONST.eV / CONST.hbar, nu=5e-8 * CONST.eV / CONST.hbar)
#: (T in K, None for T = 0; omega in rad/s): the sum channel at T = 0, the
#: difference channel at 300 K
NARROW_POINTS = ((None, 1.1408629129840398e16), (300.0, 9660150463323436.0))
#: The plates of test_phi_closed_form_matches_the_quadrature with poles off the
#: axes: nu = ratio omega_sp of its gold plate, alone or with a second plate
POLE_RATIOS = (1e-3, 5e-3, 3e-2, 1.0, 1.999)
POLE_TEMPERATURES = (None, 30.0, 300.0, 1000.0)
POLE_REFS = Path(__file__).with_name("phi_pole_refs.json")


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


def pole_plates(ratio: float, unequal: bool):
    """The two plates of test_phi_closed_form_matches_the_quadrature, formed as it forms them."""
    sp = Drude(omega_p=OMEGA_P, nu=0.035 * CONST.eV / CONST.hbar).omega_sp
    metal = Drude(omega_p=OMEGA_P, nu=ratio * sp)
    return metal, (Drude(omega_p=1.3 * OMEGA_P, nu=0.6 * ratio * sp) if unequal else metal)


def pole_omegas(metal: Drude, other: Drude):
    """The test's omegas from POLES_FROM times the smaller omega_sp up.

    A grid over 1e-6 .. 1e3 omega_sp and 0.5 .. 2.6 omega_sp, and omegas at
    and next to each line and their sum Omega_1 + Omega_2.
    """
    omegas = metal.omega_sp * np.concatenate((np.logspace(-6, 3, 37),
                                              [0.5, 0.9, 1.0, 1.1, 1.5, 2.0, 2.3, 2.6]))
    lines = [math.sqrt(0.5 * m.omega_p**2 - m.nu**2 / 4.0) for m in (metal, other)]
    near = np.array([-1e-9, 0.0, 1e-12, 1e-7, 1e-4])
    omegas = np.concatenate((omegas, sum(lines) * (1.0 + near), lines[0] * (1.0 + near),
                             lines[1] * (1.0 - near)))
    return omegas[omegas >= _phi0.POLES_FROM * min(metal.omega_sp, other.omega_sp)]


def pole_refs():
    """The records of tests/phi_pole_refs.json: plates, omegas and Phi at each temperature."""
    records = []
    for ratio in POLE_RATIOS:
        for unequal in (False, True):
            metal, other = pole_plates(ratio, unequal)
            omegas = pole_omegas(metal, other)
            rows = []
            for temperature in POLE_TEMPERATURES:
                thermal = (ThermalState.zero() if temperature is None
                           else ThermalState.finite(temperature))
                b = 0.5 * thermal.beta * CONST.hbar
                row = []
                for w in omegas:
                    value = exact(w, metal, other, b)
                    with mp.workdps(50):
                        check = exact(w, metal, other, b)
                    assert abs(value - check) <= mp.mpf(10) ** -20 * abs(check), (w, value, check)
                    row.append(float(value))
                rows.append(row)
            records.append({"ratio": ratio, "unequal": unequal, "temperatures": POLE_TEMPERATURES,
                            "omega": omegas.tolist(), "phi": rows})
    return records


def literals(name: str):
    """The dict `name` as written in tests/test_response.py."""
    tree = ast.parse((Path(__file__).parent / "test_response.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name
                                                for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"no {name} in tests/test_response.py")


def main():
    written = literals("FAR_ABOVE_REFS")
    stale = 0
    print("FAR_ABOVE_REFS")
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
    narrow = literals("NARROW_LINE_REFS")
    print("NARROW_LINE_REFS")
    for temperature, w in NARROW_POINTS:
        thermal = ThermalState.zero() if temperature is None else ThermalState.finite(temperature)
        b = 0.5 * thermal.beta * CONST.hbar  # as Phi forms it: inf at T = 0
        value = exact(w, NARROW, NARROW, b)
        with mp.workdps(60):
            check = exact(w, NARROW, NARROW, b)
        assert abs(value - check) <= mp.mpf(10) ** -20 * abs(check), (value, check)
        print(f"    ({temperature!r}, {w!r}): {float(value)!r},")
        if narrow.get((temperature, w)) != float(value):
            print(f"differs from the test's literal {narrow.get((temperature, w))!r}")
            stale += 1
    records = pole_refs()
    text = "[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n"
    if "--write" in sys.argv[1:]:
        POLE_REFS.write_text(text, encoding="utf-8")
        print(f"wrote {POLE_REFS.name}: {sum(len(r['omega']) for r in records)} omegas")
    elif not POLE_REFS.exists() or POLE_REFS.read_text(encoding="utf-8") != text:
        print(f"{POLE_REFS.name} differs from the 40-digit pole sums; rewrite it with --write")
        stale += 1
    return 1 if stale or len(written) != 2 * len(MULTIPLES) or len(narrow) != 2 else 0


if __name__ == "__main__":
    sys.exit(main())
