"""Regenerate ``refs.json``: the force_box point pool and every stored reference value.

    python3 perfbench/make_refs.py

The pool holds POINTS_PER_CELL points in each (temperature class,
velocity decade) cell of the physical box.  ``status`` records whether
the package's ``dissipation_general`` converged on the point when the
pool was made.

Every reference force comes from ``oracle_force``, an evaluation of the
general force that shares no code with the package's pipeline: the k_y
integral in closed form, the Drude surface response in closed form, and
each Phi(omega) integral split at the surface-plasmon resonances before
adaptive quadrature at a relative tolerance of 1e-12.  It converges on
the points where the package fails today, so they keep a reference.
The script also prints the largest disagreement between the oracle and
the package at ``rel_tol`` 1e-9 over the points where the latter
converges.  The sweep references hold an oracle force per sweep point,
the SHA-256 of each sweep's stdout and of its layout (the document with
the force column blanked).
"""

from __future__ import annotations

import json
import math
import random
import warnings

from scipy import integrate, special

import workloads as wl

POOL_SEED = 20140325
POINTS_PER_CELL = 8
ORACLE_RTOL = 1e-12
#: CODATA 2018; k_B, eV and hbar are exact by definition.
HBAR, K_B, EV = 1.054571817e-34, 1.380649e-23, 1.602176634e-19


def _quad(f, a, b, points=()) -> float:
    inner = sorted(p for p in points if a < p < b) if math.isfinite(b) else []
    return integrate.quad(f, a, b, points=inner or None, epsabs=0.0,
                          epsrel=ORACLE_RTOL, limit=2000)[0]


def oracle_force(wp_ev: float, nu_ev: float, gap_nm: float, temp_k, v: float) -> float:
    """Friction force per unit area between two equal Drude half-spaces.

    F = hbar/(2 pi^3) Int dk_x k_x^2 K1(2 d k_x) Phi(k_x v), where
    k_x K1(2 d k_x) is the k_y integral of exp(-2 d |k|).  Phi is the sum
    channel Int_0^w Im R(u) Im R(w-u) [coth b(u) + coth b(w-u)] du plus
    twice the difference channel Int_0^inf Im R(u) Im R(u+w)
    [coth b(u) - coth b(u+w)] du, b(u) = hbar u / (2 k_B T); at T = 0 it
    is 2 Int_0^w Im R(u) Im R(w-u) du.
    """
    wsp2 = 0.5 * (wp_ev * EV / HBAR) ** 2
    wsp, nu, d = math.sqrt(wsp2), nu_ev * EV / HBAR, gap_nm * 1e-9

    def im_r(w):
        a = wsp2 - w * w
        return -wsp2 * nu * w / (a * a + nu * nu * w * w)

    def around(c):
        return [c + k * nu for k in (-20, -3, -1, 0, 1, 3, 20)]

    def coth_sum(x, y):
        return (1 + math.exp(-2 * x)) / -math.expm1(-2 * x) + (1 + math.exp(-2 * y)) / -math.expm1(-2 * y)

    def coth_diff(x, delta):
        return (-2.0 * math.exp(-2.0 * x) * math.expm1(-2.0 * delta)
                / (math.expm1(-2.0 * x) * math.expm1(-2.0 * (x + delta))))

    h = None if temp_k is None else 0.5 * HBAR / (K_B * temp_k)

    def phi(w):
        if w <= 0.0:
            return 0.0
        peaks = around(wsp) + around(w - wsp)
        if h is None:
            return 2.0 * _quad(lambda u: im_r(u) * im_r(w - u), 0.0, w, peaks)
        plus = _quad(lambda u: im_r(u) * im_r(w - u) * coth_sum(h * u, h * (w - u))
                     if 0.0 < u < w else 0.0, 0.0, w, peaks)

        def g(u):
            return im_r(u) * im_r(u + w) * coth_diff(h * u, h * w) if u > 0.0 else 0.0

        top = max(80.0 / h, wsp + 40.0 * nu) if w < wsp else 80.0 / h
        minus = _quad(g, 0.0, top, around(wsp - w) + [10.0 * w, 1.0 / h, 10.0 / h])
        minus += _quad(g, top, math.inf)
        return plus + 2.0 * minus

    # x = 2 d k_x; the outer integrand peaks where k_x v meets omega_sp and 2 omega_sp
    s = 2.0 * d

    def outer(x):
        return x * x * special.k1e(x) * math.exp(-x) * phi(x * v / s) if x > 0.0 else 0.0

    xs = [c * s / v for c in (wsp - 3 * nu, wsp, wsp + 3 * nu, 2 * wsp - 3 * nu, 2 * wsp, 2 * wsp + 3 * nu)]
    value = _quad(outer, 0.0, 60.0, xs) + _quad(outer, 60.0, math.inf)
    return HBAR / (2.0 * math.pi**3) * value / s**3


def sig(x: float) -> float:
    return float(f"{x:.6g}")


def make_pool() -> list[dict]:
    rng = random.Random(POOL_SEED)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    pool = []
    for t_class in range(wl.T_CLASSES):
        for v_decade in range(wl.V_DECADES):
            for _ in range(POINTS_PER_CELL):
                if t_class == 0:
                    temp = None
                else:
                    third = (t_class - 1) / 3.0
                    temp = sig(log_uniform(10.0 * 100.0**third, 10.0 * 100.0 ** (third + 1 / 3)))
                pool.append(dict(
                    t_class=t_class, v_decade=v_decade,
                    wp_ev=sig(rng.uniform(5.0, 15.0)), nu_ev=sig(log_uniform(0.01, 0.1)),
                    gap_nm=sig(log_uniform(5.0, 100.0)), temp_k=temp,
                    v=sig(10.0 ** (v_decade - 1 + rng.random())),
                ))
    return pool


def package_tight(cf, p: dict) -> float | None:
    """The package's own force at rel_tol 1e-9, or None where it does not converge."""
    m = wl.drude(cf, p["wp_ev"], p["nu_ev"])
    spec = cf.numerics.QuadratureSpec(rel_tol=1e-9)
    try:
        return cf.friction.dissipation_general(
            m, m, wl.plate(cf, p["gap_nm"]), wl.thermal(cf, p["temp_k"]), p["v"], spec
        ).force_per_area
    except cf.numerics.NonConvergence:
        return None


def main() -> None:
    cf = wl.import_package()
    box = wl.ForceBox(cf, {"force_box": {"pool": make_pool()}})
    disagreement = 0.0
    for i, p in enumerate(box.pool):
        out = box.run(i)
        p["status"] = "ok" if out.ok else out.failures[0]
        p["ref"] = oracle_force(p["wp_ev"], p["nu_ev"], p["gap_nm"], p["temp_k"], p["v"])
        tight = package_tight(cf, p)
        if tight is not None:
            disagreement = max(disagreement, wl.rel_dev(tight, p["ref"]))

    sweeps = {}
    for which, argv in wl.SWEEPS.items():
        code, doc = wl.cli_main(cf, argv)
        if code != 0:
            raise SystemExit(f"{which} sweep failed with exit {code}")
        values = [float(line.split(",")[1]) for line in doc.strip().split("\n")[1:]]
        forces = [oracle_force(9.0, 0.035, 10.0, 300.0, x) if which == "velocity"
                  else oracle_force(9.0, 0.035, x, 300.0, 1.0) for x in values]
        _, layout = wl.parse_sweep(doc)
        sweeps[which] = {"stdout_sha256": wl.sha256(doc),
                         "layout_sha256": wl.sha256(layout), "forces": forces}

    refs = {"force_box": {"pool_seed": POOL_SEED, "oracle_rtol": ORACLE_RTOL, "pool": box.pool},
            "sweep": sweeps}
    with open(wl.REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    ok = sum(p["status"] == "ok" for p in box.pool)
    print(f"pool: {len(box.pool)} points, {ok} converge at the production tolerance; "
          f"oracle vs package at rel_tol 1e-9: largest relative disagreement {disagreement:.3e}")


if __name__ == "__main__":
    warnings.simplefilter("ignore")
    main()
