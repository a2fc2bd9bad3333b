"""Command-line interface: force, spectrum, compare, sweep.

Conventions
-----------
- stdout carries exactly one machine-readable document (JSON or CSV)
  per invocation; all human-readable notes go to stderr.  Each validity
  flag of a result is in its JSON (`diagnostics.validity_flags`, or
  `validity_flags` for `compare`) and is echoed on stderr as one
  `validity: ...` line, once per result; a sweep point's line names its
  row and swept value as the CSV prints them
  (`validity: row 2 (velocity=10.0): ...`), and so does its
  `auto regime: ...` note.
- Physical inputs are given in laboratory units (eV, nm, K, m/s) and
  converted to SI at this boundary only (omega = E_eV * eV / hbar).
- Identical configuration produces byte-identical output; run metadata
  is attached only under `force --meta`.
- Exit codes: 0 success; 2 invalid input (a ValueError, TypeError or
  OSError: one `error: ...` line); 3 numerical failure (NonConvergence or
  any ArithmeticError, such as a float overflow at extreme finite inputs:
  one `numerical failure: ...` line, naming the quantity that failed and
  its level; for `compare`, also a compared force below the normal
  floats, at level `compare`) or a failed `compare` check.
- A tabulated material takes only `--regime linear`.  The `zero-t` and
  `plasmon` closed forms need a Drude material, and a tabulated one exits
  2 for them, also when `--regime auto` chose them; so does `general`,
  whose Phi integrates Im R from omega = 0, below any table's first node.
- A force takes a material, a gap, a temperature and a velocity, and
  nothing else: the paper's oscillator densities cancel out of every
  force, so only `spectrum` takes one (--rho1, for its density
  column).  The sharp plasmon line is `--regime plasmon` on a Drude
  metal, with omega_sp = omega_p / sqrt(2).  A material flag the chosen
  --model does not read (--wp-ev/--nu-ev with `tabulated`, --eps-csv
  with `drude`) exits 2, and so does --meta with `force --format csv`,
  whose document has no place for run metadata.
- A sweep builds the material and the temperature once, unless it
  sweeps them.  A `--regime general` sweep over `velocity` or `gap-nm`
  checks every row's velocity, gap and kernel band and takes all rows in
  one `friction.general_forces` call.  At finite T, a row with
  2 d omega_sp / v >= 40 is the force series wherever its bound holds
  --rtol, and needs no Phi; the other rows share one Phi table, refined
  by each of their kernels to --rtol, and take one k_x integral each.
  Every other general force is the series, or tabulates Phi for its
  own point, by the same rule.  A bad input or a numerical
  failure at a sweep row names the row and swept value as its
  `validity:` lines do (`error: row 0 (velocity=-1.0): ...`,
  `numerical failure: row 2 (nu_ev=1e-09): ...`); a failure of the
  shared table, which serves every row, names none.
- Each subcommand registers exactly the flags it reads, and argparse is
  the one source of configuration: defaults are stated in
  `add_argument`, except those of --nu-ev (0) and --rtol (1e-6), which
  an absent flag leaves out of the echoed `inputs`.  A JSON config file
  (--config) is read as more flags of the same subcommand, placed
  before the explicit ones: key `k` is `--k` with underscores as dashes
  (the sweep bounds are `from`/`to`), `true` is a bare flag, `false`
  and `null` are left out.  So unknown keys and bad values exit 2 like
  bad flags, and explicit flags win.  Flags and keys are spelled in
  full: a shortened one (`--vel`, `"vel"`) is unknown.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .numerics import CONST, NESTED_SPEC, FloatFailure, NonConvergence, QuadratureSpec, np
from .material import Drude, Tabulated, surface_response
from .geometry import PlateConfig
from .response import ThermalState
from .friction import (
    FrictionResult,
    _require_point,
    dissipation_general,
    force_linear,
    force_plasmon,
    force_zero_t,
    general_forces,
)
from .compare import consistency_report, linear_cubic_ratio


class CLIError(ValueError):
    """Invalid or contradictory command-line configuration (exit code 2)."""


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _note_flags(flags: list[str], where: str = "") -> None:
    for flag in flags:
        _note(f"validity: {where}{flag}")


# ---------------------------------------------------------------------------
# configuration plumbing


def _add_material(p: argparse.ArgumentParser, models: list[str]) -> None:
    p.add_argument("--model", choices=models, default="drude")
    p.add_argument("--wp-ev", type=float, help="Drude plasma energy hbar*omega_p (eV)")
    p.add_argument("--nu-ev", type=float, help="Drude damping energy hbar*nu (eV; absent: 0)")
    if "tabulated" in models:
        p.add_argument("--eps-csv", help="tabulated permittivity CSV (omega_rad_s,eps_re,eps_im)")


def _add_plates(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gap-nm", type=float, help="plate separation (nm)")
    p.add_argument("--temp-k", help="temperature in K, or 'zero'")
    p.add_argument("--velocity", type=float, help="sliding velocity (m/s)")


def _add_force(p: argparse.ArgumentParser) -> None:
    _add_material(p, ["drude", "tabulated"])
    _add_plates(p)
    p.add_argument("--rtol", type=float, help="quadrature relative tolerance (absent: 1e-6)")
    p.add_argument("--regime", choices=["auto", "linear", "zero-t", "general", "plasmon"],
                   default="auto")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process and shared: do not change it."""
    parser = argparse.ArgumentParser(
        prog="casimir-friction",
        description="Casimir friction between sliding dielectric half-spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.set_defaults(func=func)
        return p

    p = command("force", cmd_force, "friction force per unit area for one configuration")
    _add_force(p)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--meta", action="store_true", help="attach run metadata to the output")

    p = command("spectrum", cmd_spectrum, "CSV of permittivity, response and spectral density")
    _add_material(p, ["drude", "tabulated"])
    p.add_argument("--rho1", type=float, default=1e28,
                   help="oscillator number density of the density column (1/m^3)")
    p.add_argument("--omega-min-ev", type=float, help="grid lower bound hbar*omega (eV)")
    p.add_argument("--omega-max-ev", type=float, help="grid upper bound hbar*omega (eV)")
    p.add_argument("--points", type=int, default=200, help="number of log-spaced grid points")

    p = command("compare", cmd_compare, "consistency report against literature closed forms")
    _add_material(p, ["drude"])
    _add_plates(p)

    p = command("sweep", cmd_sweep, "CSV parameter sweep of the friction force")
    _add_force(p)
    p.add_argument("--param", choices=["velocity", "gap-nm", "temp-k", "wp-ev", "nu-ev"])
    p.add_argument("--from", dest="sweep_from", type=float)
    p.add_argument("--to", dest="sweep_to", type=float)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--scale", choices=["lin", "log"], default="log")

    return parser


def config_argv(path: str) -> list[str]:
    """The flags a JSON config file stands for, in its key order."""
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CLIError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise CLIError("config file must hold a JSON object")
    argv = []
    for key, value in cfg.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif value is not None and value is not False:
            argv.append(f"{flag}={value}")
    return argv


def _checked(value, flag: str, *, zero_ok: bool = False) -> float:
    """A required numeric input: finite and > 0 (>= 0 with zero_ok)."""
    if value is None:
        raise CLIError(f"missing required input: {flag}")
    value = float(value)
    if not (math.isfinite(value) and (value >= 0 if zero_ok else value > 0)):
        raise CLIError(f"{flag} must be finite and {'>=' if zero_ok else '>'} 0, got {value}")
    return value


def build_material(args: argparse.Namespace):
    if args.model == "drude":
        if getattr(args, "eps_csv", None) is not None:
            raise CLIError("--eps-csv is read only by --model tabulated")
        wp = _checked(args.wp_ev, "--wp-ev", zero_ok=True)
        nu = 0.0 if args.nu_ev is None else _checked(args.nu_ev, "--nu-ev", zero_ok=True)
        return Drude(omega_p=wp * CONST.eV / CONST.hbar, nu=nu * CONST.eV / CONST.hbar)
    if args.wp_ev is not None or args.nu_ev is not None:
        raise CLIError("--wp-ev and --nu-ev are read only by --model drude")
    if not args.eps_csv:
        raise CLIError("tabulated model needs --eps-csv")
    try:
        return Tabulated.from_csv(args.eps_csv)
    except (OSError, ValueError) as exc:
        raise CLIError(f"cannot load {args.eps_csv}: {exc}") from exc


def build_thermal(raw) -> ThermalState:
    if raw is None:
        raise CLIError("missing required input: --temp-k (K or 'zero')")
    if isinstance(raw, str) and raw.strip().lower() == "zero":
        return ThermalState.zero()
    try:
        t = float(raw)
    except ValueError as exc:
        raise CLIError(f"--temp-k must be a temperature in K or 'zero', got {raw!r}") from exc
    if not (t > 0 and math.isfinite(t)):
        raise CLIError(f"--temp-k must be finite and > 0 (or 'zero'), got {t}")
    return ThermalState.finite(t)


def build_plate(args: argparse.Namespace) -> PlateConfig:
    return PlateConfig(d=_checked(args.gap_nm, "--gap-nm") * CONST.nm)


def _inputs_block(args: argparse.Namespace, resolved_regime: str | None = None) -> dict:
    keys = (
        "model", "wp_ev", "nu_ev", "eps_csv", "gap_nm", "temp_k", "velocity", "rtol",
    )
    given = vars(args)
    block = {k: given[k] for k in keys if given.get(k) is not None}
    if resolved_regime is not None:
        block["regime"] = resolved_regime
    return block


# ---------------------------------------------------------------------------
# regime selection and the force computation shared by `force` and `sweep`


def resolve_regime(regime: str, material, thermal: ThermalState, d: float, v: float,
                   where: str = "") -> str:
    """The regime to compute; `where` prefixes the auto note (a sweep's row)."""
    if regime == "auto":
        if thermal.is_zero:
            regime = "zero-t"
        else:
            try:
                ratio = linear_cubic_ratio(d, thermal, v)
            except FloatFailure:  # past the float range, so >= 1
                ratio = math.inf
            regime = "linear" if ratio >= 1.0 else "zero-t"
            _note(f"auto regime: {where}linear/cubic discriminator = {ratio:.3e} -> {regime}")
    elif regime == "linear" and thermal.is_zero:
        raise CLIError("--regime linear contradicts --temp-k zero (linear channel closes at T=0)")
    elif regime == "zero-t" and not thermal.is_zero:
        raise CLIError("--regime zero-t contradicts a finite --temp-k")
    if regime in ("zero-t", "plasmon") and not isinstance(material, Drude):
        advice = ("no regime takes a tabulated material at T = 0" if thermal.is_zero
                  else "use --regime linear")
        raise CLIError(f"the {regime} closed form needs a drude material; {advice}")
    return regime


def compute_force(material, plate: PlateConfig, thermal: ThermalState,
                  v: float, regime: str, spec: QuadratureSpec) -> FrictionResult:
    if regime == "linear":
        return force_linear(material, plate, thermal, v, spec)
    if regime == "zero-t":
        return force_zero_t(material, plate, v)
    if regime == "general":
        return dissipation_general(material, material, plate, thermal, v, spec)
    return force_plasmon(material.omega_sp, plate, v)


def _spec(args: argparse.Namespace) -> QuadratureSpec:
    # checked once per command, before any force, row or auto note
    try:
        return NESTED_SPEC if args.rtol is None else QuadratureSpec(rel_tol=args.rtol)
    except ValueError as exc:
        raise CLIError(f"--rtol: {exc}") from exc


def _force(args: argparse.Namespace, material, thermal: ThermalState, spec: QuadratureSpec,
           where: str = "") -> tuple[FrictionResult, str]:
    """The force for one configuration, and the regime it resolved to."""
    plate = build_plate(args)
    v = _checked(args.velocity, "--velocity")
    regime = resolve_regime(args.regime, material, thermal, plate.d, v, where)
    return compute_force(material, plate, thermal, v, regime, spec), regime


def _result_doc(args: argparse.Namespace, result: FrictionResult, regime: str) -> dict:
    doc = {
        "inputs": _inputs_block(args, resolved_regime=regime),
        "force_per_area_N_m2": result.force_per_area,
        "direction": "opposes_motion",
        "regime": result.regime,
        "diagnostics": {
            "quadrature_rel_err": result.diagnostics.quadrature_rel_err,
            "validity_flags": list(result.diagnostics.validity_flags),
        },
    }
    if result.diagnostics.suppression_exponent is not None:
        doc["diagnostics"]["suppression_exponent"] = result.diagnostics.suppression_exponent
    if args.meta:
        import platform
        import time

        doc["meta"] = {"timestamp": time.time(), "python": platform.python_version()}
    return doc


def cmd_force(args: argparse.Namespace) -> int:
    if args.meta and args.format == "csv":
        raise CLIError("--meta is read only by --format json")
    spec = _spec(args)
    result, regime = _force(args, build_material(args), build_thermal(args.temp_k), spec)
    _note_flags(result.diagnostics.validity_flags)
    if args.format == "csv":
        print("force_per_area_N_m2,regime,quadrature_rel_err")
        print(f"{result.force_per_area!r},{result.regime},{result.diagnostics.quadrature_rel_err!r}")
    else:
        print(json.dumps(_result_doc(args, result, regime), sort_keys=True, indent=2))
    return 0


# ---------------------------------------------------------------------------
# spectrum


def cmd_spectrum(args: argparse.Namespace) -> int:
    material = build_material(args)
    rho1 = _checked(args.rho1, "--rho1")

    lo_ev, hi_ev = args.omega_min_ev, args.omega_max_ev
    if lo_ev is None or hi_ev is None:
        if isinstance(material, Drude) and material.omega_p > 0:
            wp_ev = material.omega_p * CONST.hbar / CONST.eV
            lo_ev = lo_ev if lo_ev is not None else 1e-4 * wp_ev
            hi_ev = hi_ev if hi_ev is not None else 1e2 * wp_ev
        elif isinstance(material, Tabulated):
            lo_ev = lo_ev if lo_ev is not None else material.omega[0] * CONST.hbar / CONST.eV
            hi_ev = hi_ev if hi_ev is not None else material.omega[-1] * CONST.hbar / CONST.eV
        else:
            raise CLIError("need --omega-min-ev/--omega-max-ev for this material")
    if not (0 < lo_ev < hi_ev and math.isfinite(hi_ev)):
        raise CLIError(f"need finite 0 < --omega-min-ev < --omega-max-ev, got {lo_ev}, {hi_ev}")
    for flag, bound in (("--omega-min-ev", lo_ev), ("--omega-max-ev", hi_ev)):
        if not math.isfinite(bound * CONST.eV / CONST.hbar):
            raise CLIError(f"{flag} {bound} eV is past the float range in rad/s")
    if args.points < 1:
        raise CLIError("--points must be >= 1")

    grid = np.logspace(np.log10(lo_ev), np.log10(hi_ev), args.points) * CONST.eV / CONST.hbar
    if isinstance(material, Tabulated):
        # a default end is the table's own node: its eV round trip can leave the table
        if args.omega_max_ev is None and args.points > 1:
            grid[-1] = material.omega[-1]
        if args.omega_min_ev is None:
            grid[0] = material.omega[0]
    norm = 1.0 / (2.0 * math.pi**2 * rho1)  # oscillator density -Im R/(2 pi^2 rho1)
    lines = ["omega_rad_s,eps_re,eps_im,im_R,spectral_density"]
    for w in grid:
        eps = material.eps_at(float(w))
        r = surface_response(material, float(w))
        lines.append(",".join(repr(x) for x in (
            float(w), eps.real, eps.imag, r.imag, -r.imag * norm
        )))
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# compare


def cmd_compare(args: argparse.Namespace) -> int:
    material = build_material(args)
    thermal = build_thermal(args.temp_k)
    plate = build_plate(args)
    v = _checked(args.velocity, "--velocity")
    report = consistency_report(material, plate, thermal, v)
    _note_flags(report["validity_flags"])
    doc = {"inputs": _inputs_block(args), **report}
    print(json.dumps(doc, sort_keys=True, indent=2))
    if not report["all_passed"]:
        _note("consistency checks FAILED")
        return 3
    return 0


# ---------------------------------------------------------------------------
# sweep


class RowFailure(Exception):
    """A numerical failure at one sweep row, prefixed with its row and swept value (exit code 3)."""

    def __init__(self, where: str, exc: Exception):
        super().__init__(f"{where}{exc}")
        self.level = getattr(exc, "level", None)


def _sweep_forces(args: argparse.Namespace, key: str, rows, material,
                  thermal: ThermalState | None, spec: QuadratureSpec):
    """Each row's force, in order; a bad input at a row names it.

    Phi depends on the material and T only, so a general sweep over v or
    d checks every row's gap, velocity and kernel band and takes all
    rows in one `general_forces` call.  Any other sweep takes one force
    per row.
    """
    if args.regime == "general" and key in ("velocity", "gap_nm"):
        gaps, speeds = [], []
        for where, point in rows:
            try:
                gaps.append(build_plate(point).d)
                speeds.append(_checked(point.velocity, "--velocity"))
                _require_point(speeds[-1], gaps[-1], thermal)
            except ValueError as exc:
                raise CLIError(f"{where}{exc}") from exc
        try:
            results = general_forces(material, material, thermal, speeds, gaps, spec)
        except NonConvergence as exc:
            if exc.index is None:  # Phi's table, which serves every row
                raise
            raise RowFailure(rows[exc.index][0], exc) from exc
        yield from results
        return
    for where, point in rows:
        try:
            result, _ = _force(
                point,
                build_material(point) if material is None else material,
                build_thermal(point.temp_k) if thermal is None else thermal,
                spec,
                where,
            )
        except (ValueError, TypeError) as exc:
            raise CLIError(f"{where}{exc}") from exc
        except (NonConvergence, ArithmeticError) as exc:
            raise RowFailure(where, exc) from exc
        yield result


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.param is None:
        raise CLIError("missing required input: --param")
    key = args.param.replace("-", "_")
    if args.sweep_from is None or args.sweep_to is None:
        raise CLIError("missing required inputs: --from and --to")
    lo, hi = args.sweep_from, args.sweep_to
    if args.points < 1:
        raise CLIError("--points must be >= 1")
    for flag, bound in (("--from", lo), ("--to", hi)):
        if args.points > 1 and not math.isfinite(bound):
            raise CLIError(f"{flag} must be finite, got {bound}")
    if args.points == 1:
        values = np.array([lo])
    elif args.scale == "log":
        if not (lo > 0 and hi > 0):
            raise CLIError("log scale requires positive bounds")
        values = np.logspace(np.log10(lo), np.log10(hi), args.points)
    else:
        values = np.linspace(lo, hi, args.points)

    # what the swept parameter does not change is built once
    material = None if key in ("wp_ev", "nu_ev") else build_material(args)
    thermal = None if key == "temp_k" else build_thermal(args.temp_k)
    swept = values.tolist()
    rows = [(f"row {i} ({key}={x!r}): ", argparse.Namespace(**{**vars(args), key: x}))
            for i, x in enumerate(swept)]
    out = [f"index,{key},force_per_area_N_m2,regime"]
    for i, result in enumerate(_sweep_forces(args, key, rows, material, thermal, _spec(args))):
        _note_flags(result.diagnostics.validity_flags, rows[i][0])
        out.append(",".join([str(i), repr(swept[i]), repr(result.force_per_area), result.regime]))
    print("\n".join(out))
    return 0


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # the top-level parser has no options, so argv[0] is the subcommand
            args = parser.parse_args([args.command, *config_argv(args.config), *argv[1:]])
        return args.func(args)
    except (ValueError, TypeError, OSError) as exc:
        _note(f"error: {exc}")
        return 2
    except (NonConvergence, ArithmeticError, RowFailure) as exc:
        # SingularResponse, float overflow and division by zero are ArithmeticErrors
        level = getattr(exc, "level", None)
        _note(f"numerical failure: {exc}" + (f" (level: {level})" if level else ""))
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
