"""Command-line interface: force, spectrum, dissipate, compare, sweep.

Conventions
-----------
- stdout carries exactly one machine-readable document (JSON or CSV)
  per invocation; all human-readable notes and warnings go to stderr.
- Physical inputs are given in laboratory units (eV, nm, K, m/s) and
  converted to SI at this boundary only (omega = E_eV * eV / hbar).
- Identical configuration produces byte-identical output; run metadata
  is attached only under --meta.
- Exit codes: 0 success, 2 invalid input, 3 numerical failure (or a
  failed consistency check in `compare`).
- A JSON config file (--config) mirrors the flags by their long names
  with dashes replaced by underscores; explicit flags take precedence.
- CASIMIR_QUAD_RTOL overrides the default quadrature relative
  tolerance when --rtol is not given.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .numerics import CONST, NonConvergence, QuadratureSpec
from .material import (
    Drude,
    PlasmonLine,
    SingularResponse,
    Tabulated,
    eps_drude,
    surface_response,
)
from .geometry import PlateConfig
from .response import ThermalState
from .friction import (
    FrictionResult,
    dissipation_general,
    force_linear,
    force_plasmon,
    force_zero_t,
)
from .compare import RATIO_COEFFICIENT, consistency_report
from .trajectory import (
    LoopTrajectory,
    delta_limit_convergence,
    qhat_closed_form,
)

ENV_RTOL = "CASIMIR_QUAD_RTOL"

DEFAULTS = {
    "model": "drude",
    "rho1": 1e28,
    "rho2": 1e28,
    "regime": "auto",
    "format": "json",
    "max_subdivisions": 200,
    "points": 200,
    "scale": "log",
    "alpha": "inf",
    "doublings": 3,
    "profile_points": 41,
}


class CLIError(ValueError):
    """Invalid or contradictory command-line configuration (exit code 2)."""


def _fmt(x) -> str:
    """Deterministic shortest round-trip formatting for CSV cells."""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _emit(doc: str) -> None:
    sys.stdout.write(doc)
    if not doc.endswith("\n"):
        sys.stdout.write("\n")


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# configuration plumbing


def _add_common(p: argparse.ArgumentParser, *, need_state: bool) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--model", choices=["drude", "plasmon", "tabulated"])
    p.add_argument("--wp-ev", type=float, help="Drude plasma energy hbar*omega_p (eV)")
    p.add_argument("--nu-ev", type=float, help="Drude damping energy hbar*nu (eV)")
    p.add_argument("--wsp-ev", type=float, help="plasmon line energy hbar*omega_sp (eV)")
    p.add_argument("--eps-csv", help="tabulated permittivity CSV (omega_rad_s,eps_re,eps_im)")
    p.add_argument("--rho1", type=float, help="number density of plate 1 (1/m^3)")
    p.add_argument("--rho2", type=float, help="number density of plate 2 (1/m^3)")
    p.add_argument("--rtol", type=float, help="quadrature relative tolerance override")
    p.add_argument("--max-subdivisions", type=int, help="quadrature subdivision budget")
    p.add_argument("--meta", action="store_true", help="attach run metadata to the output")
    if need_state:
        p.add_argument("--gap-nm", type=float, help="plate separation (nm)")
        p.add_argument("--temp-k", help="temperature in K, or 'zero'")
        p.add_argument("--velocity", type=float, help="sliding velocity (m/s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casimir-friction",
        description="Casimir friction between sliding dielectric half-spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("force", help="friction force per unit area for one configuration")
    _add_common(p, need_state=True)
    p.add_argument("--regime", choices=["auto", "linear", "zero-t", "general", "plasmon"])
    p.add_argument("--format", choices=["json", "csv"])
    p.set_defaults(func=cmd_force)

    p = sub.add_parser("spectrum", help="CSV of permittivity, response and spectral density")
    _add_common(p, need_state=False)
    p.add_argument("--omega-min-ev", type=float, help="grid lower bound hbar*omega (eV)")
    p.add_argument("--omega-max-ev", type=float, help="grid upper bound hbar*omega (eV)")
    p.add_argument("--points", type=int, help="number of log-spaced grid points")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("dissipate", help="finite-loop transform profiles and delta-limit convergence")
    _add_common(p, need_state=False)
    p.add_argument("--tau", type=float, help="loop half-duration (s)")
    p.add_argument("--alpha", help="return-stroke ratio (float or 'inf')")
    p.add_argument("--omega-v", type=float, help="sliding frequency (rad/s)")
    p.add_argument("--doublings", type=int, help="tau doublings in the convergence table")
    p.add_argument("--profile-points", type=int, help="points in the |qhat|^2 profile")
    p.set_defaults(func=cmd_dissipate)

    p = sub.add_parser("compare", help="consistency report against literature closed forms")
    _add_common(p, need_state=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="CSV parameter sweep of the friction force")
    _add_common(p, need_state=True)
    p.add_argument("--regime", choices=["auto", "linear", "zero-t", "general", "plasmon"])
    p.add_argument("--param", choices=["velocity", "gap-nm", "temp-k", "wp-ev", "nu-ev"])
    p.add_argument("--from", dest="sweep_from", type=float)
    p.add_argument("--to", dest="sweep_to", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--scale", choices=["lin", "log"])
    p.set_defaults(func=cmd_sweep)

    return parser


def merge_config(args: argparse.Namespace) -> dict:
    """Layer flag values over the config file over the defaults."""
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CLIError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise CLIError("config file must hold a JSON object")
        cfg.update(file_cfg)
    for key, value in vars(args).items():
        if key in ("func", "command", "config"):
            continue
        if value is not None and value is not False:
            cfg[key] = value
    return cfg


def _positive(cfg: dict, key: str, label: str) -> float:
    value = cfg.get(key)
    if value is None:
        raise CLIError(f"missing required input: {label}")
    value = float(value)
    if not (value > 0 and math.isfinite(value)):
        raise CLIError(f"{label} must be finite and > 0, got {value}")
    return value


def build_material(cfg: dict):
    kind = cfg.get("model", "drude")
    if kind == "drude":
        wp = cfg.get("wp_ev")
        if wp is None:
            raise CLIError("drude model needs --wp-ev")
        wp = float(wp)
        if wp < 0:
            raise CLIError(f"--wp-ev must be >= 0, got {wp}")
        nu = float(cfg.get("nu_ev") or 0.0)
        if nu < 0:
            raise CLIError(f"--nu-ev must be >= 0, got {nu}")
        return Drude(omega_p=wp * CONST.eV / CONST.hbar, nu=nu * CONST.eV / CONST.hbar)
    if kind == "plasmon":
        wsp = _positive(cfg, "wsp_ev", "--wsp-ev")
        return PlasmonLine(omega_sp=wsp * CONST.eV / CONST.hbar)
    if kind == "tabulated":
        path = cfg.get("eps_csv")
        if not path:
            raise CLIError("tabulated model needs --eps-csv")
        try:
            return Tabulated.from_csv(path)
        except (OSError, ValueError) as exc:
            raise CLIError(f"cannot load {path}: {exc}") from exc
    raise CLIError(f"unknown model {kind!r}")


def build_thermal(cfg: dict) -> ThermalState:
    raw = cfg.get("temp_k")
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


def build_plate(cfg: dict) -> PlateConfig:
    gap_nm = _positive(cfg, "gap_nm", "--gap-nm")
    rho1 = _positive(cfg, "rho1", "--rho1")
    rho2 = _positive(cfg, "rho2", "--rho2")
    return PlateConfig(d=gap_nm * CONST.nm, rho1=rho1, rho2=rho2)


def build_spec(cfg: dict, default_rtol: float) -> QuadratureSpec:
    rtol = cfg.get("rtol")
    if rtol is None:
        env = os.environ.get(ENV_RTOL)
        rtol = float(env) if env else default_rtol
    rtol = float(rtol)
    subdivisions = int(cfg.get("max_subdivisions", 200))
    if subdivisions < 1:
        raise CLIError("--max-subdivisions must be >= 1")
    return QuadratureSpec(rel_tol=rtol, abs_tol=0.0, max_subdivisions=subdivisions)


def _inputs_block(cfg: dict, resolved_regime: str | None = None) -> dict:
    keys = (
        "model", "wp_ev", "nu_ev", "wsp_ev", "eps_csv",
        "gap_nm", "temp_k", "velocity", "rho1", "rho2", "rtol",
    )
    block = {k: cfg[k] for k in keys if cfg.get(k) is not None}
    if resolved_regime is not None:
        block["regime"] = resolved_regime
    return block


# ---------------------------------------------------------------------------
# regime selection and the force computation shared by `force` and `sweep`


def resolve_regime(cfg: dict, material, thermal: ThermalState, d: float, v: float) -> str:
    regime = cfg.get("regime", "auto")
    if regime == "auto":
        if isinstance(material, PlasmonLine):
            return "plasmon"
        if thermal.is_zero:
            return "zero-t"
        ratio = RATIO_COEFFICIENT * (d / (thermal.beta * CONST.hbar * v)) ** 2
        choice = "linear" if ratio >= 1.0 else "zero-t"
        _note(f"auto regime: linear/cubic discriminator = {ratio:.3e} -> {choice}")
        return choice
    if regime == "linear" and thermal.is_zero:
        raise CLIError("--regime linear contradicts --temp-k zero (linear channel closes at T=0)")
    if regime == "zero-t" and not thermal.is_zero:
        raise CLIError("--regime zero-t contradicts a finite --temp-k")
    if regime == "plasmon" and not isinstance(material, (PlasmonLine, Drude)):
        raise CLIError("--regime plasmon needs a plasmon or drude material")
    if regime == "general" and isinstance(material, PlasmonLine):
        raise CLIError("--regime general needs a continuous material (drude or tabulated)")
    return regime


def compute_force(material, plate: PlateConfig, thermal: ThermalState,
                  v: float, regime: str, spec: QuadratureSpec) -> FrictionResult:
    if regime == "linear":
        return force_linear(material, plate, thermal, v, spec)
    if regime == "zero-t":
        return force_zero_t(material, plate, v)
    if regime == "general":
        return dissipation_general(material, material, plate, thermal, v, spec)
    if regime == "plasmon":
        return force_plasmon(material.omega_sp, plate, v)
    raise CLIError(f"unknown regime {regime!r}")


def _result_doc(cfg: dict, result: FrictionResult, regime: str) -> dict:
    doc = {
        "inputs": _inputs_block(cfg, resolved_regime=regime),
        "force_per_area_N_m2": result.force_per_area,
        "direction": result.direction,
        "regime": result.regime,
        "diagnostics": {
            "quadrature_rel_err": result.diagnostics.quadrature_rel_err,
            "validity_flags": list(result.diagnostics.validity_flags),
        },
    }
    if result.diagnostics.suppression_exponent is not None:
        doc["diagnostics"]["suppression_exponent"] = result.diagnostics.suppression_exponent
    if cfg.get("meta"):
        import platform
        import time

        doc["meta"] = {"timestamp": time.time(), "python": platform.python_version()}
    return doc


def cmd_force(args: argparse.Namespace) -> int:
    cfg = merge_config(args)
    material = build_material(cfg)
    thermal = build_thermal(cfg)
    plate = build_plate(cfg)
    v = _positive(cfg, "velocity", "--velocity")
    regime = resolve_regime(cfg, material, thermal, plate.d, v)
    spec = build_spec(cfg, default_rtol=1e-6)
    result = compute_force(material, plate, thermal, v, regime, spec)

    if cfg.get("format", "json") == "csv":
        header = "force_per_area_N_m2,regime,quadrature_rel_err"
        row = ",".join(
            [_fmt(result.force_per_area), result.regime,
             _fmt(result.diagnostics.quadrature_rel_err)]
        )
        _emit(header + "\n" + row)
    else:
        _emit(json.dumps(_result_doc(cfg, result, regime), sort_keys=True, indent=2))
    return 0


# ---------------------------------------------------------------------------
# spectrum


def cmd_spectrum(args: argparse.Namespace) -> int:
    cfg = merge_config(args)
    material = build_material(cfg)
    if isinstance(material, PlasmonLine):
        raise CLIError("spectrum needs a continuous material (drude or tabulated)")
    rho1 = _positive(cfg, "rho1", "--rho1")

    lo_ev, hi_ev = cfg.get("omega_min_ev"), cfg.get("omega_max_ev")
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
    lo_ev, hi_ev = float(lo_ev), float(hi_ev)
    if not (0 < lo_ev < hi_ev):
        raise CLIError(f"need 0 < omega-min-ev < omega-max-ev, got {lo_ev}, {hi_ev}")
    points = int(cfg.get("points", 200))
    if points < 1:
        raise CLIError("--points must be >= 1")

    grid = np.logspace(np.log10(lo_ev), np.log10(hi_ev), points) * CONST.eV / CONST.hbar
    norm = 1.0 / (2.0 * math.pi**2 * rho1)  # oscillator density -Im R/(2 pi^2 rho1)
    lines = ["omega_rad_s,eps_re,eps_im,im_R,spectral_density"]
    for w in grid:
        if isinstance(material, Drude):
            eps = eps_drude(float(w), material)
        else:
            eps = material.eps_at(float(w))
        r = surface_response(material, float(w))
        lines.append(",".join(_fmt(x) for x in (
            float(w), eps.real, eps.imag, r.imag, -r.imag * norm
        )))
    _emit("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# dissipate


def cmd_dissipate(args: argparse.Namespace) -> int:
    cfg = merge_config(args)
    tau = _positive(cfg, "tau", "--tau")
    if cfg.get("omega_v") is None:
        raise CLIError("missing required input: --omega-v")
    omega_v = float(cfg["omega_v"])
    if omega_v < 0:
        raise CLIError(f"--omega-v must be >= 0, got {omega_v}")
    raw_alpha = str(cfg.get("alpha", "inf")).strip().lower()
    alpha = math.inf if raw_alpha in ("inf", "infinite") else float(raw_alpha)
    if not alpha > 0:
        raise CLIError(f"--alpha must be > 0 or 'inf', got {alpha}")
    doublings = int(cfg.get("doublings", 3))
    profile_points = int(cfg.get("profile_points", 41))
    if doublings < 1 or profile_points < 1:
        raise CLIError("--doublings and --profile-points must be >= 1")

    traj = LoopTrajectory(v=1.0, tau=tau, alpha=alpha)
    w_ref = omega_v if omega_v > 0 else 1.0 / tau
    grid = np.linspace(0.2 * w_ref, 2.0 * w_ref, profile_points)
    profile = []
    for w in grid:
        q = qhat_closed_form(float(w), omega_v, traj) if omega_v > 0 else 0.0
        profile.append({"omega": float(w), "qhat_sq": float(q * q)})

    convergence = []
    if omega_v > 0:
        taus = [tau * 2.0**k for k in range(doublings + 1)]
        convergence = delta_limit_convergence(omega_v, taus)

    alpha_rows = []
    if omega_v > 0:
        # the finite-alpha correction oscillates inside a 1/alpha envelope,
        # so average over a dense grid and take 4x alpha steps
        dense = np.linspace(0.2 * w_ref, 2.0 * w_ref, 401)
        inf_traj = LoopTrajectory(v=1.0, tau=tau, alpha=math.inf)
        ref = np.array([qhat_closed_form(float(w), omega_v, inf_traj) for w in dense])
        scale = float(np.mean(np.abs(ref)))
        for a in (5.0, 20.0, 80.0, 320.0):
            fin = LoopTrajectory(v=1.0, tau=tau, alpha=a)
            diff = float(np.mean([
                abs(qhat_closed_form(float(w), omega_v, fin) - r)
                for w, r in zip(dense, ref)
            ]))
            alpha_rows.append({"alpha": a, "mean_rel_diff": diff / scale})

    doc = {
        "inputs": {"tau": tau, "alpha": raw_alpha, "omega_v": omega_v},
        "qhat_profile": profile,
        "delta_convergence": convergence,
        "alpha_convergence": alpha_rows,
    }
    _emit(json.dumps(doc, sort_keys=True, indent=2))
    return 0


# ---------------------------------------------------------------------------
# compare


def cmd_compare(args: argparse.Namespace) -> int:
    cfg = merge_config(args)
    material = build_material(cfg)
    if not isinstance(material, Drude) or material.nu <= 0 or material.omega_p <= 0:
        raise CLIError("compare requires a drude material with wp-ev > 0 and nu-ev > 0")
    thermal = build_thermal(cfg)
    plate = build_plate(cfg)
    v = _positive(cfg, "velocity", "--velocity")
    report = consistency_report(material, plate, thermal, v)
    doc = {"inputs": _inputs_block(cfg), **report}
    _emit(json.dumps(doc, sort_keys=True, indent=2))
    if not report["all_passed"]:
        _note("consistency checks FAILED")
        return 3
    return 0


# ---------------------------------------------------------------------------
# sweep


_SWEEP_KEYS = {
    "velocity": "velocity",
    "gap-nm": "gap_nm",
    "temp-k": "temp_k",
    "wp-ev": "wp_ev",
    "nu-ev": "nu_ev",
}


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = merge_config(args)
    param = cfg.get("param")
    if param not in _SWEEP_KEYS:
        raise CLIError(f"--param must be one of {sorted(_SWEEP_KEYS)}, got {param!r}")
    key = _SWEEP_KEYS[param]
    if cfg.get("sweep_from") is None or cfg.get("sweep_to") is None:
        raise CLIError("missing required inputs: --from and --to")
    lo, hi = float(cfg["sweep_from"]), float(cfg["sweep_to"])
    points = int(cfg.get("points", 200))
    if points < 1:
        raise CLIError("--points must be >= 1")
    scale = cfg.get("scale", "log")
    if points == 1:
        values = np.array([lo])
    elif scale == "log":
        if not (lo > 0 and hi > 0):
            raise CLIError("log scale requires positive bounds")
        values = np.logspace(np.log10(lo), np.log10(hi), points)
    else:
        values = np.linspace(lo, hi, points)

    def eval_point(value: float) -> tuple[float, str]:
        point_cfg = dict(cfg)
        point_cfg[key] = value
        material = build_material(point_cfg)
        thermal = build_thermal(point_cfg)
        plate = build_plate(point_cfg)
        v = _positive(point_cfg, "velocity", "--velocity")
        regime = resolve_regime(point_cfg, material, thermal, plate.d, v)
        spec = build_spec(point_cfg, default_rtol=1e-6)
        result = compute_force(material, plate, thermal, v, regime, spec)
        return result.force_per_area, result.regime

    rows = [eval_point(float(x)) for x in values]

    out = [f"index,{key},force_per_area_N_m2,regime"]
    for i, (x, (force, regime)) in enumerate(zip(values, rows)):
        out.append(",".join([str(i), _fmt(float(x)), _fmt(force), regime]))
    _emit("\n".join(out))
    return 0


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CLIError as exc:
        _note(f"error: {exc}")
        return 2
    except (NonConvergence, SingularResponse) as exc:
        level = getattr(exc, "level", None)
        _note(f"numerical failure: {exc}" + (f" (level: {level})" if level else ""))
        return 3
    except (ValueError, TypeError, OSError) as exc:
        _note(f"error: {exc}")
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
