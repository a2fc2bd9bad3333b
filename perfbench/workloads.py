"""The three benchmark workloads: inputs from a seed, one operation, correctness checks.

Every workload is closed loop: one client in one process, and each
operation starts only after the previous one has completed.  A
workload's operations are a fixed list drawn from the seed: the same
seed gives the same list, and no list depends on how fast the host is.

The package is reached only through its public module functions, looked
up on the module at call time, so that the tracer's wrappers (installed
on those module attributes) see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFS_PATH = Path(__file__).resolve().parent / "refs.json"

#: Relative tolerance of an OK general force against its stored reference
#: (see make_refs.py).  Production quadrature asks for 1e-6 per nesting level.
REF_RTOL = 1e-6
#: Relative tolerance of a T = 0, low-velocity general force against the
#: cubic closed form.  The closed form is the v -> 0 limit: the general
#: force departs from it by about 10.5 x^2, x = v/(d omega_sp) (measured
#: over the pool), which reaches 1.4e-9 at v = 600 m/s, d = 5 nm.  The
#: check therefore covers v <= 1e3 m/s only where x^2 <= ZERO_T_MAX_X2,
#: so that the physics leaves the numerics ten times the tolerance.
ZERO_T_RTOL = 1e-9
ZERO_T_VMAX = 1e3
ZERO_T_MAX_X2 = 1e-11
#: A CLI document must reproduce the in-process library call to this
#: relative tolerance (floats are printed round-trip, so it is exact).
CLI_RTOL = 1e-12

#: Reference metal of ROADMAP: hbar*omega_p = 9 eV, hbar*nu = 0.035 eV.
REFERENCE_METAL = ["--model", "drude", "--wp-ev", "9", "--nu-ev", "0.035"]
SWEEPS = {
    "velocity": ["sweep", *REFERENCE_METAL, "--gap-nm", "10", "--temp-k", "300",
                 "--regime", "general", "--param", "velocity",
                 "--from", "0.1", "--to", "1e5", "--points", "32", "--scale", "log"],
    "gap": ["sweep", *REFERENCE_METAL, "--velocity", "1", "--temp-k", "300",
            "--regime", "general", "--param", "gap-nm",
            "--from", "5", "--to", "100", "--points", "16", "--scale", "log"],
}
#: Force-box cells: four temperature classes (T = 0, then thirds of the
#: log range 10..1000 K) times nine velocity decades 0.1..1e8 m/s.
T_CLASSES = 4
V_DECADES = 9
CLI_KINDS = ("linear", "zero-t", "plasmon", "auto", "compare")


def import_package():
    """Import the package from the checkout's ``src`` directory."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import casimir_friction.cli  # noqa: F401  (loads every module on the force path)

    package = sys.modules["casimir_friction"]
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"casimir_friction resolves to {package.__file__}, not to {SRC}")
    return package


def load_refs() -> dict:
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def rel_dev(value: float, ref: float) -> float:
    scale = max(abs(value), abs(ref))
    return abs(value - ref) / scale if scale else 0.0


@dataclass
class Outcome:
    """What one operation produced; ``points`` force points were attempted."""

    points: int = 1
    ok: int = 0
    failures: list = field(default_factory=list)  # NonConvergence level or "exit <code>"
    detail: object = None  # what the workload's check reads


def drude(cf, wp_ev: float, nu_ev: float):
    c = cf.numerics.CONST
    return cf.material.Drude(omega_p=wp_ev * c.eV / c.hbar, nu=nu_ev * c.eV / c.hbar)


def plate(cf, gap_nm: float):
    return cf.geometry.PlateConfig(d=gap_nm * cf.numerics.CONST.nm, rho1=1e28, rho2=1e28)


def thermal(cf, temp_k):
    state = cf.response.ThermalState
    return state.zero() if temp_k is None else state.finite(temp_k)


# ---------------------------------------------------------------------------
# force_box: independent general forces, no Phi(omega) shared between points


class ForceBox:
    """``friction.dissipation_general`` at independent points of the physical box.

    Points come from the stored pool of ``refs.json`` (generated by
    ``make_refs.py``), which holds the same number of points in every
    (temperature class, velocity decade) cell.  Block k holds the k-th
    point of every cell, in an order drawn from the seed, and a run
    always takes the first BLOCKS blocks.  So the set of points is the
    same for every seed and on every host: the cost of one cell's points
    spans a factor of five, and their convergence differs, so drawing
    them by seed or taking as many as time allows would move ops_per_s
    and ok_frac by more than the host does.
    """

    name = "force_box"
    scale_by = "calibration"
    BLOCKS = 2

    def __init__(self, cf, refs: dict, *, smoke: bool = False, traced: bool = False):
        self.cf = cf
        self.pool = refs["force_box"]["pool"]
        self.smoke = smoke

    def ops(self, seed: int) -> list[int]:
        rng = random.Random(f"force_box/{seed}")
        cells: dict = {}
        for i, p in enumerate(self.pool):
            cells.setdefault((p["t_class"], p["v_decade"]), []).append(i)
        keys = [(0, 1), (2, 2), (3, 0)] if self.smoke else sorted(cells)
        ops = []
        for k in range(1 if self.smoke else self.BLOCKS):
            block = [cells[key][k] for key in keys]
            rng.shuffle(block)
            ops += block
        return ops

    def warm_up(self) -> None:
        m = drude(self.cf, 9.0, 0.035)
        self.cf.friction.dissipation_general(m, m, plate(self.cf, 10.0), thermal(self.cf, 300.0), 1.0)

    def run(self, index: int) -> Outcome:
        cf = self.cf
        point = self.pool[index]
        m = drude(cf, point["wp_ev"], point["nu_ev"])
        try:
            result = cf.friction.dissipation_general(
                m, m, plate(cf, point["gap_nm"]), thermal(cf, point["temp_k"]), point["v"]
            )
        except cf.numerics.NonConvergence as exc:
            return Outcome(failures=[exc.level], detail=None)
        force = result.force_per_area
        if not math.isfinite(force):
            return Outcome(failures=["non-finite"])
        return Outcome(ok=1, detail=force)

    def check(self, records) -> tuple[list[str], list[float]]:
        """Stored-reference and closed-form checks on every OK result."""
        cf = self.cf
        errors, devs = [], []
        for index, out in records:
            if not out.ok:
                continue
            p = self.pool[index]
            dev = rel_dev(out.detail, p["ref"])
            devs.append(dev)
            if dev > REF_RTOL:
                errors.append(f"pool point {index}: force {out.detail!r} vs reference "
                              f"{p['ref']!r} (rel dev {dev:.3e} > {REF_RTOL})")
            m = drude(cf, p["wp_ev"], p["nu_ev"])
            x = p["v"] / (p["gap_nm"] * cf.numerics.CONST.nm * m.omega_sp)
            if p["temp_k"] is None and p["v"] <= ZERO_T_VMAX and x * x <= ZERO_T_MAX_X2:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    cubic = cf.friction.force_zero_t(m, plate(cf, p["gap_nm"]), p["v"])
                dev0 = rel_dev(out.detail, cubic.force_per_area)
                if dev0 > ZERO_T_RTOL:
                    errors.append(f"pool point {index}: T=0 force differs from "
                                  f"force_zero_t by {dev0:.3e} > {ZERO_T_RTOL}")
        return errors, devs


# ---------------------------------------------------------------------------
# sweep: two Phi-sharing sweeps on the reference metal, through cli.main


def parse_sweep(doc: str) -> tuple[list[float], str]:
    """Forces of a sweep CSV, and the document with the force column blanked."""
    lines = doc.rstrip("\n").split("\n")
    forces, layout = [], [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        forces.append(float(cells[2]))
        cells[2] = "*"
        layout.append(",".join(cells))
    return forces, "\n".join(layout)


def cli_main(cf, argv) -> tuple[int, str]:
    """``cli.main`` in-process, returning its exit code and captured stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = cf.cli.main(argv)
    return code, out.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Sweep:
    """One operation is one sweep document; a run holds the velocity and the gap sweep.

    Every point of a document shares its material and temperature, so
    Phi(omega) is one function per document; this is the workload on
    which reusing Phi across points pays.
    """

    name = "sweep"
    scale_by = "calibration"

    def __init__(self, cf, refs: dict, *, smoke: bool = False, traced: bool = False):
        self.cf = cf
        self.refs = refs["sweep"]
        self.smoke = smoke

    def argv(self, which: str) -> list[str]:
        argv = list(SWEEPS[which])
        if self.smoke:
            argv[argv.index("--points") + 1] = "1"
        return argv

    def ops(self, seed: int) -> list[str]:
        pair = ["velocity", "gap"]
        random.Random(f"sweep/{seed}").shuffle(pair)
        return pair

    def warm_up(self) -> None:
        cli_main(self.cf, ["sweep", *REFERENCE_METAL, "--gap-nm", "10", "--temp-k", "300",
                       "--regime", "general", "--param", "velocity",
                       "--from", "1", "--to", "1", "--points", "1"])

    def run(self, which: str) -> Outcome:
        argv = self.argv(which)
        points = int(argv[argv.index("--points") + 1])
        code, doc = cli_main(self.cf, argv)
        if code != 0:
            return Outcome(points=points, failures=[f"exit {code}"] * points, detail={})
        return Outcome(points=points, ok=points, detail={which: doc})

    def check(self, records) -> tuple[list[str], list[float]]:
        errors, devs = [], []
        seen: dict[str, set] = {"velocity": set(), "gap": set()}
        for _, out in records:
            for which, doc in out.detail.items():
                seen[which].add(doc)
        for which, docs in seen.items():
            if len(docs) > 1:
                errors.append(f"{which} sweep stdout differs between repeats")
            ref = self.refs[which]
            for doc in docs:
                forces, layout = parse_sweep(doc)
                refs = ref["forces"][: len(forces)]
                if not self.smoke and sha256(layout) != ref["layout_sha256"]:
                    errors.append(f"{which} sweep layout digest differs from the stored one")
                if len(forces) != len(refs):
                    errors.append(f"{which} sweep has {len(forces)} points, expected {len(refs)}")
                for i, (f, r) in enumerate(zip(forces, refs)):
                    dev = rel_dev(f, r)
                    devs.append(dev)
                    if dev > REF_RTOL:
                        errors.append(f"{which} sweep point {i}: {f!r} vs reference {r!r} "
                                      f"(rel dev {dev:.3e} > {REF_RTOL})")
        return errors, devs

    def exact_digest_match(self, records) -> bool:
        """Whether the full stdout still hashes to the digest stored at the defining commit."""
        return all(
            sha256(doc) == self.refs[which]["stdout_sha256"]
            for _, out in records for which, doc in out.detail.items()
        ) and not self.smoke


# ---------------------------------------------------------------------------
# cli_oneshot: sequential cold CLI processes


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliOneshot:
    """Cold ``python -m casimir_friction`` runs: force in four regimes, and compare.

    A run holds ROUNDS runs of each kind, each with its own inputs, in
    seeded order; the Drude parameters, gap, temperature and velocity
    are drawn from the force_box box.  In traced mode the same argument
    lists go through ``cli.main`` in-process, since a child process
    cannot be traced from outside without touching the package.
    """

    name = "cli_oneshot"
    #: The CLI runs in fresh processes, whose speed the in-process calibration does
    #: not follow; each run is scaled by a cold-start process timed before it.
    scale_by = "cold_start"
    #: Runs of each kind: one CLI run varies by 20 % from the next, so a
    #: run needs ten of them for a steady median.
    ROUNDS = 2

    def __init__(self, cf, refs: dict, *, smoke: bool = False, traced: bool = False):
        self.cf = cf
        self.in_process = traced
        self.smoke = smoke
        self.env = cli_env()

    def ops(self, seed: int) -> list[dict]:
        rng = random.Random(f"cli_oneshot/{seed}")

        def log_uniform(lo, hi):
            return math.exp(rng.uniform(math.log(lo), math.log(hi)))

        ops = []
        for kind in CLI_KINDS * (1 if self.smoke else self.ROUNDS):
            temp = log_uniform(10.0, 1000.0)
            if kind == "zero-t" or (kind in ("auto", "compare") and rng.random() < 0.25):
                temp = None
            ops.append(dict(kind=kind, wp_ev=rng.uniform(5.0, 15.0),
                            nu_ev=log_uniform(0.01, 0.1), gap_nm=log_uniform(5.0, 100.0),
                            temp_k=temp, v=log_uniform(0.1, 1e8)))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def argv(op) -> list[str]:
        kind = op["kind"]
        argv = ["compare"] if kind == "compare" else ["force", "--regime", kind]
        return argv + ["--model", "drude", "--wp-ev", repr(op["wp_ev"]),
                       "--nu-ev", repr(op["nu_ev"]), "--gap-nm", repr(op["gap_nm"]),
                       "--temp-k", "zero" if op["temp_k"] is None else repr(op["temp_k"]),
                       "--velocity", repr(op["v"])]

    def warm_up(self) -> None:
        self.run(dict(kind="linear", wp_ev=9.0, nu_ev=0.035, gap_nm=10.0, temp_k=300.0, v=1.0))

    def run(self, op) -> Outcome:
        argv = self.argv(op)
        if self.in_process:
            code, stdout = cli_main(self.cf, argv)
        else:
            proc = subprocess.run([sys.executable, "-m", "casimir_friction", *argv],
                                  cwd=ROOT, env=self.env, capture_output=True, text=True)
            code, stdout = proc.returncode, proc.stdout
        detail = (op, code, stdout)
        if code != 0:
            return Outcome(failures=[f"exit {code}"], detail=detail)
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError:
            return Outcome(failures=["unparseable"], detail=detail)
        key = "F_ours_zeroT" if op["kind"] == "compare" else "force_per_area_N_m2"
        if not math.isfinite(doc.get(key, math.nan)):
            return Outcome(failures=["non-finite"], detail=detail)
        return Outcome(ok=1, detail=detail)

    def library(self, op, doc) -> dict:
        """The in-process library values a CLI document must reproduce."""
        cf = self.cf
        m = drude(cf, op["wp_ev"], op["nu_ev"])
        pl, th, v = plate(cf, op["gap_nm"]), thermal(cf, op["temp_k"]), op["v"]
        fr = cf.friction
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if op["kind"] == "compare":
                lin = 0.0 if th.is_zero else fr.force_linear(m, pl, th, v).force_per_area
                return {"F_ours_linear": lin,
                        "F_ours_zeroT": fr.force_zero_t(m, pl, v).force_per_area}
            regime = op["kind"]
            if regime == "auto":
                ratio = 0.0 if th.is_zero else cf.compare.RATIO_COEFFICIENT * (
                    pl.d / (th.beta * cf.numerics.CONST.hbar * v)) ** 2
                regime = "linear" if ratio >= 1.0 else "zero-t"
                if doc["inputs"].get("regime") != regime:
                    return {"regime": regime}
            if regime == "linear":
                f = fr.force_linear(m, pl, th, v)
            elif regime == "zero-t":
                f = fr.force_zero_t(m, pl, v)
            else:
                f = fr.force_plasmon(m.omega_sp, pl, v)
        return {"force_per_area_N_m2": f.force_per_area}

    def check(self, records) -> tuple[list[str], list[float]]:
        errors, devs = [], []
        for _, out in records:
            op, code, stdout = out.detail
            if code not in (0, 2, 3):
                errors.append(f"{op['kind']}: undocumented exit code {code}")
                continue
            if code != 0:
                continue
            try:
                doc = json.loads(stdout)
            except json.JSONDecodeError:
                errors.append(f"{op['kind']}: stdout is not one JSON document")
                continue
            if op["kind"] == "compare" and not doc.get("all_passed"):
                errors.append("compare: consistency checks failed with exit 0")
            for key, expected in self.library(op, doc).items():
                if key == "regime":
                    errors.append(f"auto: chose {doc['inputs'].get('regime')}, expected {expected}")
                    continue
                dev = rel_dev(doc[key], expected)
                devs.append(dev)
                if dev > CLI_RTOL:
                    errors.append(f"{op['kind']}: {key} {doc[key]!r} vs library {expected!r}")
        return errors, devs


WORKLOADS = {"cli_oneshot": CliOneshot, "force_box": ForceBox, "sweep": Sweep}

