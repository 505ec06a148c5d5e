"""Command-line front end: verify, eval, sample, calibrate, optimize.

All angles are radians. Reports are JSON ({config, version, results}),
curve samples are CSV; identical config and seed give byte-identical
output files. Exit codes: 0 success, 1 verification row failed, 2 config
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, curves, functionals, optimize
from .curves import CurveSpecError, from_spec
from .quadrature import NonFiniteIntegrandError, QuadratureRule, default_curve_rule, refinement_levels
from .sphere import SpherePoint
from .verify import VerifySettings, format_table, run_verification

_RULE_ALIASES = {
    "gauss": "gauss_legendre",
    "gauss_legendre": "gauss_legendre",
    "monte_carlo": "monte_carlo",
}

_CONFIG_KEYS = {"curve", "rule", "optimizer", "points", "out", "seed", "n", "bracket", "tol", "max_evals"}
_RULE_KEYS = {"rule", "n", "tol", "seed"}
_OPTIMIZER_KEYS = {"objective", "max_evals", "simplex_scale", "seed", "J"}

#: Numeric settings and whether each must be an integer.
_NUMERIC_KEYS = {"n": True, "seed": True, "max_evals": True, "J": True, "tol": False, "simplex_scale": False}


class ConfigError(ValueError):
    """A run configuration failed validation."""


def _or_default(value, default):
    """`value` unless it was not given; unlike `value or default`, a given 0 is kept."""
    return default if value is None else value


def _validated(make, *args, **kwargs):
    """make(*args, **kwargs), with a ValueError from its checks reported as a config error."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _is_number(value, integer: bool = False) -> bool:
    """True for a JSON number (an integer if asked); booleans do not count."""
    return not isinstance(value, bool) and isinstance(value, int if integer else (int, float))


def _check_numbers(settings: dict) -> None:
    """Raise ConfigError for a numeric setting given a value of the wrong type."""
    for key, integer in _NUMERIC_KEYS.items():
        value = settings.get(key)
        if value is not None and not _is_number(value, integer):
            raise ConfigError(f"{key} must be {'an integer' if integer else 'a number'}, got {value!r}")


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        cfg = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(cfg) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for section, allowed in (("rule", _RULE_KEYS), ("optimizer", _OPTIMIZER_KEYS)):
        if section in cfg:
            if not isinstance(cfg[section], dict):
                raise ConfigError(f"config section {section!r} must be an object")
            bad = set(cfg[section]) - allowed
            if bad:
                raise ConfigError(f"unknown {section} keys: {sorted(bad)}")
    return cfg


def _merge_config(args: argparse.Namespace) -> dict:
    """File config overlaid by CLI flags; flags win."""
    cfg = _load_config_file(getattr(args, "config", None))
    rule_cfg = dict(cfg.get("rule", {}))
    for key, flag in (("rule", "rule"), ("n", "n"), ("tol", "tol"), ("seed", "seed")):
        val = getattr(args, flag, None)
        if val is not None:
            rule_cfg[key] = val
    merged = {
        "curve": cfg.get("curve"),
        "rule": rule_cfg,
        "optimizer": dict(cfg.get("optimizer", {})),
        "points": cfg.get("points", []),
        "out": cfg.get("out"),
        "seed": rule_cfg.get("seed", cfg.get("seed", 42)),
        "n": rule_cfg.get("n", cfg.get("n")),
        "bracket": cfg.get("bracket"),
        "tol": rule_cfg.get("tol", cfg.get("tol")),
        "max_evals": cfg.get("max_evals"),
    }
    if getattr(args, "curve", None) is not None:
        merged["curve"] = args.curve
    if getattr(args, "out", None) is not None:
        merged["out"] = args.out
    if getattr(args, "points", None) is not None:
        merged["points"] = args.points
    if getattr(args, "bracket", None) is not None:
        merged["bracket"] = args.bracket
    if getattr(args, "max_evals", None) is not None:
        merged["max_evals"] = args.max_evals
    for key in ("objective", "simplex_scale", "J"):
        val = getattr(args, key, None)
        if val is not None:
            merged["optimizer"][key] = val
    _check_numbers(merged)
    _check_numbers(merged["optimizer"])
    if not (merged["out"] is None or isinstance(merged["out"], str)):
        raise ConfigError(f"out must be a path string, got {merged['out']!r}")
    if not isinstance(merged["points"], list):
        raise ConfigError("points must be a list of [theta0, phi0] pairs")
    if merged["max_evals"] is not None:
        merged["optimizer"].setdefault("max_evals", merged["max_evals"])
    merged["optimizer"].setdefault("seed", merged["seed"])
    return merged


def _rule_kind(cfg: dict) -> str:
    name = cfg["rule"].get("rule", "gauss_legendre")
    if not (isinstance(name, str) and name in _RULE_ALIASES):
        raise ConfigError(f"unknown rule {name!r}; expected one of {sorted(_RULE_ALIASES)}")
    return _RULE_ALIASES[name]


def _curve_from_config(cfg: dict) -> curves.SphericalCurve:
    if cfg.get("curve") is None:
        raise ConfigError("a curve spec is required (--curve or config 'curve')")
    curve = from_spec(cfg["curve"])
    cfg["curve"] = curves.to_spec(curve)  # echo the normalized spec in reports
    return curve


def _report_envelope(cfg: dict, results: list[dict]) -> dict:
    # the output path is not semantic config; dropping it keeps reports
    # byte-identical for identical runs regardless of destination
    config = {k: v for k, v in cfg.items() if v not in (None, [], {}) and k != "out"}
    return {"config": config, "version": __version__, "results": results}


def _write_json(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _row(name: str, value: float, error: float | None = None, **extra) -> dict:
    row = {"name": name, "value": float(value)}
    if error is not None:
        row["error_estimate"] = float(error)
    row.update({k: v for k, v in extra.items() if v is not None})
    return row


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    settings = _validated(
        VerifySettings,
        rule=_rule_kind(cfg),
        n=cfg["n"],
        tol=cfg["tol"],
        seed=int(cfg["seed"]),
        max_evals=int(_or_default(cfg["max_evals"], 500)),
    )
    rows, all_pass = run_verification(settings)
    print(format_table(rows))
    if cfg["out"]:
        results = []
        for r in rows:
            item = _row(r.name, r.value, r.error_estimate, paper_value=r.paper_value)
            if r.passed is not None:
                item["pass"] = bool(r.passed)
            if r.message:
                item["message"] = r.message
            results.append(item)
        _write_json(_report_envelope(cfg, results), cfg["out"])
    return 0 if all_pass else 1


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    curve = _curve_from_config(cfg)
    kind = _rule_kind(cfg)
    n, tol = cfg["n"], cfg["tol"]
    if kind == "monte_carlo":
        # --n selects the MC sample count; curve integrals stay on the default grid
        crule = _validated(default_curve_rule, tol=_or_default(tol, 1e-9))
        srule = _validated(QuadratureRule, "monte_carlo", int(_or_default(n, 20000)), 1e-9, seed=int(cfg["seed"]))
    else:
        crule = _validated(default_curve_rule, n=int(_or_default(n, 512)), tol=_or_default(tol, 1e-9))
        srule = _validated(QuadratureRule, "gauss_legendre", 128, _or_default(tol, 1e-6))
    _validated(refinement_levels, crule)

    results = []
    length = curves.arc_length(curve, crule)
    results.append(_row("arc_length", length.value, length.error_estimate))
    closed = curves.is_closed(curve)
    results.append(_row("is_closed", float(closed)))
    simple, witness = curves.is_simple(curve)
    results.append(
        _row("is_simple", float(simple), message=None if simple else f"witness pair t = {witness}")
    )
    if closed:
        m = functionals.curve_to_sphere_mean_M(curve, crule)
        results.append(_row("curve_to_sphere_mean_M", m.value, m.error_estimate))
    for pt in cfg["points"]:
        if not (isinstance(pt, (list, tuple)) and len(pt) == 2 and all(map(_is_number, pt))):
            raise ConfigError("each entry of 'points' must be [theta0, phi0]")
        p = SpherePoint(float(pt[0]), float(pt[1]))
        res = functionals.point_to_curve_mean(curve, p, crule)
        results.append(
            _row(f"point_to_curve_mean[{pt[0]:.6g},{pt[1]:.6g}]", res.value, res.error_estimate)
        )
        dmin, tmin = functionals.point_to_curve_min(curve, p)
        results.append(_row(f"point_to_curve_min[{pt[0]:.6g},{pt[1]:.6g}]", dmin, argmin_t=tmin))
    mt = functionals.sphere_to_curve_mean(curve, srule)
    results.append(_row("sphere_to_curve_mean", mt.value, mt.error_estimate))
    results.append(_row("sphere_to_curve_mean_over_4pi", mt.value / (4 * math.pi), mt.error_estimate / (4 * math.pi)))
    mm = functionals.mean_min_arc_distance(curve, n_points=10_000, seed=int(cfg["seed"]))
    results.append(_row("mean_min_arc_distance", mm.value, mm.error_estimate))
    _write_json(_report_envelope(cfg, results), cfg["out"])
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    curve = _curve_from_config(cfg)
    n = cfg["n"]
    if n is None or int(n) < 2:
        raise ConfigError("sample requires --n >= 2")
    n = int(n)
    ts = np.linspace(curve.domain.t_i, curve.domain.t_f, n)
    pts = curve.positions(ts)
    lines = ["t,x,y,z"]
    for t, (x, y, z) in zip(ts, pts):
        lines.append(f"{t:.17g},{x:.17g},{y:.17g},{z:.17g}")
    text = "\n".join(lines) + "\n"
    if cfg["out"]:
        Path(cfg["out"]).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    curve = _curve_from_config(cfg)
    family = optimize.scale_family(curve)
    bracket = _or_default(cfg["bracket"], family.scale_bracket)
    if not (
        isinstance(bracket, (list, tuple))
        and len(bracket) == 2
        and all(map(_is_number, bracket))
        and bracket[0] < bracket[1]
    ):
        raise ConfigError("bracket must be [lo, hi] with lo < hi")
    tol = _or_default(cfg["tol"], 1e-6)
    if not tol > 0:
        raise ConfigError("tol must be positive")
    family = dataclasses.replace(family, scale_bracket=(float(bracket[0]), float(bracket[1])))
    report = family.calibrate((), tol)
    results = [
        _row("calibrated_parameter", report.parameter, message=optimize.SCALES[family.tag].label),
        _row("arc_length", report.arc_length, report.residual),
        _row("residual", report.residual),
        _row("iterations", report.iterations),
        _row("bracket_lo", report.bracket[0]),
        _row("bracket_hi", report.bracket[1]),
    ]
    if report.warning:
        results.append(_row("warning_multiple_sign_changes", 1.0, message=report.warning))
    _write_json(_report_envelope(cfg, results), cfg["out"])
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    opt = cfg["optimizer"]
    config = _validated(
        optimize.OptimizerConfig,
        objective=opt.get("objective", "sup_dev_from_half_pi"),
        max_evals=int(opt.get("max_evals", 2000)),
        simplex_scale=float(opt.get("simplex_scale", 0.1)),
        seed=int(opt.get("seed", cfg["seed"])),
    )
    family = _validated(optimize.seam_seeded_family, int(opt.get("J", 3)))
    report = optimize.minimize_functional(family, config=config)
    results = [
        _row("best_value", report.best_value),
        _row("initial_value", report.initial_value),
        _row("best_scale", report.best_scale),
        _row("constraint_residual", report.constraint_residual),
        _row("max_constraint_residual", report.max_constraint_residual),
        _row("evaluations", report.evaluations),
        _row("converged", float(report.converged), message=report.warning),
    ]
    for i, v in enumerate(report.best_shape):
        results.append(_row(f"best_shape_{i}", v))
    _write_json(_report_envelope(cfg, results), cfg["out"])
    return 0


def _add_common(p: argparse.ArgumentParser, *flags: str, n_help: str | None = None) -> None:
    """--config, those of --curve, --rule, --n, --tol and --seed named in flags, and --out."""
    p.add_argument("--config", help="JSON config file; flags override its values")
    if "curve" in flags:
        p.add_argument("--curve", help="curve spec: inline JSON or a path to a JSON file")
    if "rule" in flags:
        p.add_argument("--rule", choices=sorted(_RULE_ALIASES), help="quadrature rule for surface integrals")
    if "n" in flags:
        p.add_argument("--n", type=int, help=n_help)
    if "tol" in flags:
        p.add_argument("--tol", type=float, help="absolute tolerance")
    if "seed" in flags:
        p.add_argument("--seed", type=int, help="RNG seed (default 42)")
    p.add_argument("--out", help="output path (JSON report or CSV samples); default stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arcdist",
        description="Mean arc-distance functionals of closed curves on the unit sphere. "
        "All angles and distances are radians.",
    )
    parser.add_argument("--version", action="version", version=f"arcdist {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the full claim verification table")
    _add_common(
        p, "rule", "n", "tol", "seed",
        n_help="sphere rule n_theta (default 128); with --rule monte_carlo, the sample count (default 20000)",
    )
    p.add_argument("--max-evals", dest="max_evals", type=int, help="optimizer budget (default 500)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("eval", help="evaluate all functionals on a curve")
    _add_common(
        p, "curve", "rule", "n", "tol", "seed",
        n_help="curve rule nodes (default 512); with --rule monte_carlo, the sphere sample count (default 20000)",
    )
    p.add_argument("--points", type=json.loads, help='sphere points for the mean-distance field, e.g. "[[0,1]]"')
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sample", help="emit CSV rows t,x,y,z along the curve")
    _add_common(p, "curve", "n", n_help="number of rows (>= 2)")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("calibrate", help="root the family scale parameter to arc length 4pi")
    _add_common(p, "curve", "tol")
    p.add_argument("--bracket", type=float, nargs=2, metavar=("LO", "HI"))
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("optimize", help="minimize a functional over the trig-series family")
    _add_common(p, "seed")
    p.add_argument("--objective", choices=optimize.OBJECTIVES)
    p.add_argument("--max-evals", dest="max_evals", type=int)
    p.add_argument("--simplex-scale", dest="simplex_scale", type=float)
    p.add_argument("--J", type=int, help="number of harmonics in the search family")
    p.set_defaults(func=cmd_optimize)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CurveSpecError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (
        optimize.NoBracketError,
        optimize.CalibrationFailedError,
        NonFiniteIntegrandError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
