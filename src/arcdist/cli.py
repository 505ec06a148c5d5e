"""Command-line front end: verify, eval, sample, calibrate, optimize.

All angles are radians. Reports are JSON ({config, version, environment, results}),
curve samples are CSV; identical settings give byte-identical output
files. Exit codes: 0 success, 1 verification row failed, 2 config
error, 3 numerical failure.

A run's settings are one flat dict keyed by the flags' dests: the
--config file's values overlaid by the flags given, so a flag always
wins. A key no command takes, or a value of the wrong type, exits 2
before any computation; a key only another command takes is dropped. A
command passes the settings it was given, and no others, to the library
object that owns their defaults (OptimizerConfig, seam_seeded_family,
default_curve_rule, SearchFamily.calibrate), and a report's config echoes
the settings given. Every surface integral takes its library default
rule. verify takes no setting but --out: it computes the one table.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import inspect
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__, curves, functionals, optimize
from .curves import CurveSpecError, _is_real, from_spec
from .quadrature import FunctionalResult, NonFiniteIntegrandError, default_curve_rule, refinement_levels
from .sphere import SpherePoint
from .verify import format_table, run_verification

#: eval's seed for the random points of the mean minimum distance.
EVAL_SEED = 42

#: The --out help of every command that writes a JSON report.
_JSON_OUT = "JSON report path (default stdout)"


class ConfigError(ValueError):
    """A run configuration failed validation."""


def _validated(make, *args, **kwargs):
    """make(*args, **kwargs), with a ValueError from its checks reported as a config error."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _is_pair(value) -> bool:
    """True for a list of two numbers."""
    return isinstance(value, list) and len(value) == 2 and all(map(_is_real, value))


def _is_integer(value) -> bool:
    """True for a JSON integer; booleans do not count."""
    return _is_real(value) and isinstance(value, int)


_INTEGER = (_is_integer, "an integer")

#: Every setting, keyed by its flag's dest, with the test its value must pass and what that asks for.
_SETTINGS = {
    "curve": (lambda v: isinstance(v, (str, dict)), "a curve spec"),
    "n": _INTEGER,
    "tol": (lambda v: _is_real(v) and v > 0, "a positive number"),
    "seed": (lambda v: _is_integer(v) and v >= 0, "a non-negative integer"),
    "points": (lambda v: isinstance(v, list) and all(map(_is_pair, v)), "a list of [theta0, phi0] pairs"),
    "out": (lambda v: isinstance(v, str), "a path string"),
    "bracket": (lambda v: _is_pair(v) and v[0] < v[1], "[lo, hi] with lo < hi"),
    "max_evals": _INTEGER,
    "objective": (lambda v: v in optimize.OBJECTIVES, f"one of {optimize.OBJECTIVES}"),
    "J": _INTEGER,
}


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
    unknown = set(cfg) - set(_SETTINGS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return cfg


def _settings(args: argparse.Namespace) -> dict:
    """The config file's settings overlaid by the flags given, each checked, less those the command does not take."""
    settings = _load_config_file(args.config)
    settings.update((k, v) for k, v in vars(args).items() if k in _SETTINGS and v is not None)
    for key, value in settings.items():
        check, expected = _SETTINGS[key]
        if not check(value):
            raise ConfigError(f"{key} must be {expected}, got {value!r}")
    return {k: v for k, v in settings.items() if k in vars(args)}


def _given(cfg: dict, *keys: str) -> dict:
    """The settings among keys that were given, as keyword arguments."""
    return {k: cfg[k] for k in keys if k in cfg}


def _curve_from_config(cfg: dict) -> curves.SphericalCurve:
    if "curve" not in cfg:
        raise ConfigError("a curve spec is required (--curve or config 'curve')")
    curve = from_spec(cfg["curve"])
    cfg["curve"] = curves.to_spec(curve)  # echo the normalized spec in reports
    return curve


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None where it cannot be asked."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for path in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _environment() -> dict:
    """The library versions and BLAS threads a report's numbers depend on:
    its bytes repeat only under the same BLAS and thread count."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "blas_threads": _blas_threads(),
    }


def _report_envelope(cfg: dict, results: list[dict]) -> dict:
    # the output path is not semantic config; dropping it keeps reports
    # byte-identical for identical runs regardless of destination
    config = {k: v for k, v in cfg.items() if k != "out"}
    return {"config": config, "version": __version__, "environment": _environment(), "results": results}


def _write_json(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _row(name: str, value: float | FunctionalResult, **extra) -> dict:
    """A report row: name, value and each extra field that is not None. A
    FunctionalResult value also gives its error_estimate, nodes_used and warning."""
    if isinstance(value, FunctionalResult):
        fields = {"error_estimate": value.error_estimate, "nodes_used": value.nodes_used, "warning": value.warning}
        extra, value = {**fields, **extra}, value.value
    return {"name": name, "value": float(value), **{k: v for k, v in extra.items() if v is not None}}


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _settings(args)
    rows, all_pass = run_verification()
    print(format_table(rows))
    if "out" in cfg:
        results = [
            _row(
                r.name, r.value, error_estimate=r.error_estimate, nodes_used=r.nodes_used, paper_value=r.paper_value,
                tolerance=r.tolerance, warning=r.warning, **{"pass": None if r.passed is None else bool(r.passed)},
                message=r.message or None,
            )
            for r in rows
        ]
        _write_json(_report_envelope(cfg, results), cfg["out"])
    return 0 if all_pass else 1


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _settings(args)
    curve = _curve_from_config(cfg)
    crule = _validated(default_curve_rule, **_given(cfg, "n", "tol"))
    _validated(refinement_levels, crule)
    points = [(theta0, phi0, _validated(SpherePoint, theta0, phi0)) for theta0, phi0 in cfg.get("points", [])]

    results = []
    length = curves.arc_length(curve, crule)
    results.append(_row("arc_length", length))
    closed = curves.is_closed(curve)
    results.append(_row("is_closed", float(closed)))
    simple, witness = curves.is_simple(curve)
    results.append(
        _row("is_simple", float(simple), message=None if simple else f"witness pair t = {witness}")
    )
    if closed:
        m = functionals.curve_to_sphere_mean_M(curve, crule)
        results.append(_row("curve_to_sphere_mean_M", m))
    for theta0, phi0, p in points:
        res = functionals.point_to_curve_mean(curve, p, crule)
        results.append(_row(f"point_to_curve_mean[{theta0:.6g},{phi0:.6g}]", res))
        dmin, tmin = functionals.point_to_curve_min(curve, p)
        results.append(_row(f"point_to_curve_min[{theta0:.6g},{phi0:.6g}]", dmin, argmin_t=tmin))
    mt = functionals.sphere_to_curve_mean(curve)
    over_4pi = dataclasses.replace(mt, value=mt.value / (4 * math.pi), error_estimate=mt.error_estimate / (4 * math.pi))
    results += [_row("sphere_to_curve_mean", mt), _row("sphere_to_curve_mean_over_4pi", over_4pi)]
    mm = functionals.mean_min_arc_distance(curve, n_points=10_000, seed=cfg.get("seed", EVAL_SEED))
    results.append(_row("mean_min_arc_distance", mm))
    _write_json(_report_envelope(cfg, results), cfg.get("out"))
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    cfg = _settings(args)
    curve = _curve_from_config(cfg)
    n = cfg.get("n")
    if n is None or n < 2:
        raise ConfigError("sample requires --n >= 2")
    ts = np.linspace(curve.domain.t_i, curve.domain.t_f, n)
    pts = curve.positions(ts)
    lines = ["t,x,y,z"]
    for t, (x, y, z) in zip(ts, pts):
        lines.append(f"{t:.17g},{x:.17g},{y:.17g},{z:.17g}")
    text = "\n".join(lines) + "\n"
    if "out" in cfg:
        Path(cfg["out"]).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    cfg = _settings(args)
    family = optimize.scale_family(_curve_from_config(cfg))
    if "bracket" in cfg:
        family = dataclasses.replace(family, scale_bracket=tuple(map(float, cfg["bracket"])))
    report = family.calibrate((), **_given(cfg, "tol"))
    results = [
        _row(
            "calibrated_parameter", report.parameter, message=curves._FAMILIES[family.tag].label, warning=report.warning
        ),
        _row("arc_length", report.length),
        _row("residual", report.residual),
        _row("iterations", report.iterations),
        _row("bracket_lo", report.bracket[0]),
        _row("bracket_hi", report.bracket[1]),
    ]
    _write_json(_report_envelope(cfg, results), cfg.get("out"))
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    cfg = _settings(args)
    config = _validated(optimize.OptimizerConfig, **_given(cfg, "objective", "max_evals", "seed"))
    family = _validated(optimize.seam_seeded_family, **_given(cfg, "J"))
    report = optimize.minimize_functional(family, config=config)
    results = [
        _row("best_value", report.best_value),
        _row("initial_value", report.initial_value),
        _row("best_scale", report.best_scale),
        _row("constraint_residual", report.constraint_residual),
        _row("max_constraint_residual", report.max_constraint_residual),
        _row("evaluations", report.evaluations),
        _row("converged", float(report.converged), warning=report.warning),
    ]
    for i, v in enumerate(report.best_shape):
        results.append(_row(f"best_shape_{i}", v))
    _write_json(_report_envelope(cfg, results), cfg.get("out"))
    return 0


def _default(func, name: str):
    """The default of a library function's parameter, for help strings."""
    return inspect.signature(func).parameters[name].default


def _add_common(
    p: argparse.ArgumentParser,
    *flags: str,
    out_help: str,
    n_help: str | None = None,
    tol_help: str = "absolute tolerance",
    seed_help: str | None = None,
) -> None:
    """--config, those of --curve, --n, --tol and --seed named in flags, and --out."""
    p.add_argument("--config", help="JSON object of settings keyed by the long flag names; flags override it")
    if "curve" in flags:
        p.add_argument("--curve", help="curve spec: inline JSON or a path to a JSON file")
    if "n" in flags:
        p.add_argument("--n", type=int, help=n_help)
    if "tol" in flags:
        p.add_argument("--tol", type=float, help=tol_help)
    if "seed" in flags:
        p.add_argument("--seed", type=int, help=seed_help)
    p.add_argument("--out", help=out_help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arcdist",
        description="Mean arc-distance functionals of closed curves on the unit sphere. "
        "All angles and distances are radians.",
    )
    parser.add_argument("--version", action="version", version=f"arcdist {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the full claim verification table")
    _add_common(p, out_help="also write the table as a JSON report to this path (the table is always printed)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("eval", help="evaluate all functionals on a curve")
    _add_common(
        p, "curve", "n", "tol", "seed",
        out_help=_JSON_OUT,
        n_help=f"curve rule nodes (default {_default(default_curve_rule, 'n')})",
        tol_help=f"absolute tolerance of the curve rule (default {_default(default_curve_rule, 'tol'):g})",
        seed_help=f"RNG seed of the mean minimum distance's 10,000 random points (default {EVAL_SEED})",
    )
    p.add_argument("--points", type=json.loads, help='sphere points for the mean-distance field, e.g. "[[0,1]]"')
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sample", help="emit CSV rows t,x,y,z along the curve")
    _add_common(p, "curve", "n", out_help="CSV output path (default stdout)", n_help="number of rows (>= 2)")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("calibrate", help="root the family scale parameter to arc length 4pi")
    _add_common(p, "curve", "tol", out_help=_JSON_OUT)
    p.add_argument("--bracket", type=float, nargs=2, metavar=("LO", "HI"))
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("optimize", help="minimize a functional over the trig-series family")
    opt = optimize.OptimizerConfig
    _add_common(
        p, "seed",
        out_help=_JSON_OUT,
        seed_help=f"RNG seed of the mean_min objective's 1024 Monte Carlo points (default {opt.seed}); "
        "sup_dev_from_half_pi takes no random points, so it ignores the seed",
    )
    p.add_argument("--objective", choices=optimize.OBJECTIVES, help=f"default {opt.objective}")
    p.add_argument("--max-evals", dest="max_evals", type=int, help=f"evaluation budget (default {opt.max_evals})")
    p.add_argument("--J", type=int, help=f"search harmonics (default {_default(optimize.seam_seeded_family, 'J')})")
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
