"""Arc-length calibration and derivative-free search over curve families.

The 4pi arc-length constraint is handled by nested calibration: every
candidate shape re-roots its designated scale parameter by bisection, so
the outer Nelder-Mead search stays unconstrained. Non-simple or
uncalibratable candidates receive an infinite objective.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .curves import SphericalCurve, arc_length, great_circle, is_closed, is_simple, trig_series, wavy_circle
from .functionals import mean_min_arc_distance, sup_deviation_from_half_pi
from .quadrature import QuadratureRule, default_curve_rule

FOUR_PI = 4.0 * math.pi

OBJECTIVES = ("sup_dev_from_half_pi", "mean_min")

MULTIPLE_SIGN_CHANGES = "multiple_sign_changes"
MAX_EVALUATIONS_REACHED = "max_evaluations_reached"


class NoBracketError(ValueError):
    """The pre-scan found no sign change of arc_length - target in the bracket."""


class CalibrationFailedError(RuntimeError):
    """Calibration could not reach the requested arc-length tolerance."""


@dataclass(frozen=True)
class CalibrationReport:
    """Outcome of rooting a family's scale parameter to a target arc length."""

    family: str
    parameter: float
    arc_length: float
    residual: float
    iterations: int
    bracket: tuple[float, float]
    warning: str | None = None


@dataclass(frozen=True)
class OptimizationReport:
    """Outcome of a constrained functional minimization over a curve family."""

    objective: str
    family: str
    best_shape: tuple[float, ...]
    best_scale: float
    best_value: float
    initial_value: float
    constraint_residual: float
    max_constraint_residual: float
    evaluations: int
    converged: bool
    trace: tuple[float, ...]
    warning: str | None = None


def calibrate_arc_length(
    make_curve: Callable[[float], SphericalCurve],
    bracket: tuple[float, float],
    family: str = "",
    target: float = FOUR_PI,
    tol: float = 1e-6,
    rule: QuadratureRule | None = None,
) -> CalibrationReport:
    """Bisect the scale parameter until |arc_length - target| <= tol.

    The bracket is pre-scanned at 32 points to locate a sign change of
    arc_length(p) - target; NoBracketError if there is none. With multiple
    sign changes the subinterval whose midpoint is closest to the bracket
    midpoint is used and the report is flagged (non-monotone length).
    Deterministic for fixed inputs.
    """
    rule = rule or default_curve_rule()
    lo, hi = float(bracket[0]), float(bracket[1])
    if not hi > lo:
        raise ValueError("bracket must satisfy lo < hi")

    def g(p: float) -> float:
        return arc_length(make_curve(p), rule).value - target

    scan = np.linspace(lo, hi, 32)
    gvals = np.array([g(p) for p in scan])
    exact = np.nonzero(gvals == 0.0)[0]
    if exact.size:
        p = float(scan[exact[0]])
        return CalibrationReport(family, p, target, 0.0, 0, (lo, hi))

    changes = np.nonzero(np.sign(gvals[:-1]) != np.sign(gvals[1:]))[0]
    if changes.size == 0:
        raise NoBracketError(
            f"arc_length - {target:.6g} has no sign change on [{lo}, {hi}] "
            f"(range [{gvals.min():.4g}, {gvals.max():.4g}])"
        )
    warning = None
    if changes.size > 1:
        warning = MULTIPLE_SIGN_CHANGES
        mid = 0.5 * (lo + hi)
        centers = 0.5 * (scan[changes] + scan[changes + 1])
        changes = changes[[int(np.argmin(np.abs(centers - mid)))]]

    i = int(changes[0])
    a, fa = float(scan[i]), float(gvals[i])
    b = float(scan[i + 1])
    sub_bracket = (a, b)
    iterations = 0
    while iterations < 200:
        mid = 0.5 * (a + b)
        fm = g(mid)
        iterations += 1
        if abs(fm) <= tol:
            return CalibrationReport(family, mid, fm + target, abs(fm), iterations, sub_bracket, warning)
        if math.copysign(1.0, fm) == math.copysign(1.0, fa):
            a, fa = mid, fm
        else:
            b = mid
    raise CalibrationFailedError(
        f"bisection exhausted 200 iterations without reaching |L - target| <= {tol}"
    )


@dataclass(frozen=True)
class SearchFamily:
    """A parametric curve family with one designated scale parameter.

    build(shape, scale) constructs the curve; scale is re-calibrated to the
    arc-length target at every trial shape, so shape holds only the free
    search parameters (it may be empty).
    """

    tag: str
    initial_shape: tuple[float, ...]
    build: Callable[[np.ndarray, float], SphericalCurve]
    scale_bracket: tuple[float, float]


def trig_series_family(
    J: int = 3,
    initial_shape: Sequence[float] | None = None,
    scale_bracket: tuple[float, float] = (0.05, 2.5),
) -> SearchFamily:
    """Search family over trig-series shapes with an amplitude scale.

    Shape layout: [a_1..a_J, b_1..b_J, c_1..c_J] for
    theta = pi/2 + amp * (sum a_j cos jt + b_j sin jt),
    phi = t/2 + amp * sum c_j sin jt, on [0, 4pi].
    """
    if J < 1:
        raise ValueError("J must be >= 1")
    if initial_shape is None:
        initial_shape = (0.0,) * (3 * J)
    initial_shape = tuple(float(v) for v in initial_shape)
    if len(initial_shape) != 3 * J:
        raise ValueError(f"shape vector must have length {3 * J}")

    def build(shape: np.ndarray, scale: float) -> SphericalCurve:
        shape = np.asarray(shape, dtype=float)
        return trig_series(
            theta_cos=shape[0:J],
            theta_sin=shape[J : 2 * J],
            phi_sin=shape[2 * J : 3 * J],
            amplitude=scale,
        )

    return SearchFamily("trig_series", initial_shape, build, scale_bracket)


def seam_seeded_family(J: int = 3, a: float = 0.7037) -> SearchFamily:
    """Trig-series family seeded at the tennis ball seam shape.

    The seam embeds as a_1 = -(pi/2 - a), c_2 = a with unit amplitude.
    """
    if J < 2:
        raise ValueError("the seam shape needs J >= 2")
    shape = [0.0] * (3 * J)
    shape[0] = -(0.5 * math.pi - a)
    shape[2 * J + 1] = a
    return trig_series_family(J, shape)


def wavy_scale_family(scale_bracket: tuple[float, float] = (0.01, 0.6)) -> SearchFamily:
    """Degenerate family: no free shape, scale is the wavy-circle amplitude."""
    return SearchFamily("wavy_circle", (), lambda shape, scale: wavy_circle(b=scale), scale_bracket)


def great_circle_scale_family(scale_bracket: tuple[float, float] = (0.5, 1.5)) -> SearchFamily:
    """Degenerate family: scale stretches the doubled great circle's domain."""
    return SearchFamily(
        "great_circle", (), lambda shape, scale: great_circle(domain=(0.0, 2.0 * scale)), scale_bracket
    )


@dataclass(frozen=True)
class OptimizerConfig:
    objective: str = "sup_dev_from_half_pi"
    max_evals: int = 2000
    simplex_scale: float = 0.1
    diameter_tol: float = 1e-6
    constraint_tol: float = 1e-6
    seed: int = 42
    design_size: int = 122

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}")
        if self.max_evals < 1:
            raise ValueError("max_evals must be >= 1")


def _objective_value(curve: SphericalCurve, config: OptimizerConfig) -> float:
    # Fixed quadrature settings keep each objective deterministic per config.
    if config.objective == "sup_dev_from_half_pi":
        sup, _ = sup_deviation_from_half_pi(curve, config.design_size, default_curve_rule(n=256))
        return sup
    return mean_min_arc_distance(curve, n_points=1024, seed=config.seed, n_scan=1024).value


def make_candidate_evaluator(
    family: SearchFamily, config: OptimizerConfig, rule: QuadratureRule | None = None
) -> Callable[[np.ndarray], tuple[float, float, float]]:
    """Return eval(shape) -> (objective, scale, |arc_length - 4pi|).

    Infeasible candidates (no calibration bracket, open, or non-simple)
    come back as (inf, nan, inf). Exposed so feasibility filtering can be
    exercised directly, e.g. on an injected doubled great circle.
    """
    # Trial shapes can put near-kinks into |r'(t)| (simultaneous zeros of
    # both speed terms); a looser quadrature tolerance keeps the nested
    # calibration cheap while staying far below the 1e-4 constraint check.
    rule = rule or default_curve_rule(n=256, tol=5e-7)

    def evaluate(shape: np.ndarray) -> tuple[float, float, float]:
        try:
            cal = calibrate_arc_length(
                lambda p: family.build(shape, p),
                family.scale_bracket,
                family=family.tag,
                tol=config.constraint_tol,
                rule=rule,
            )
        except (NoBracketError, CalibrationFailedError):
            return math.inf, math.nan, math.inf
        curve = family.build(shape, cal.parameter)
        if not is_closed(curve, 1e-8):
            return math.inf, cal.parameter, cal.residual
        simple, _ = is_simple(curve)
        if not simple:
            return math.inf, cal.parameter, cal.residual
        return _objective_value(curve, config), cal.parameter, cal.residual

    return evaluate


def minimize_functional(
    family: SearchFamily,
    objective: str | None = None,
    config: OptimizerConfig | None = None,
) -> OptimizationReport:
    """Nelder-Mead over the family's shape parameters under the 4pi constraint.

    Coefficients: reflection 1, expansion 2, contraction 0.5, shrink 0.5;
    initial simplex offsets simplex_scale per parameter; stops when the
    simplex diameter drops below diameter_tol or the evaluation budget is
    exhausted (best-so-far returned, flagged). The best-vertex objective
    trace is non-increasing, and every feasible iterate satisfies the
    arc-length constraint to the calibration tolerance.
    """
    if config is None:
        config = OptimizerConfig()
    if objective is not None and objective != config.objective:
        config = dataclasses.replace(config, objective=objective)

    evaluate = make_candidate_evaluator(family, config)
    trace: list[float] = []
    state = {"evals": 0, "best": math.inf, "best_shape": None, "best_scale": math.nan, "max_resid": 0.0}

    def run_eval(shape: np.ndarray) -> float:
        value, scale, resid = evaluate(shape)
        state["evals"] += 1
        if math.isfinite(value):
            state["max_resid"] = max(state["max_resid"], resid)
            if value < state["best"]:
                state["best"] = value
                state["best_shape"] = np.array(shape, dtype=float)
                state["best_scale"] = scale
        trace.append(state["best"])
        return value

    x0 = np.asarray(family.initial_shape, dtype=float)
    f0 = run_eval(x0)
    if not math.isfinite(f0):
        try:
            calibrate_arc_length(
                lambda p: family.build(x0, p),
                family.scale_bracket,
                family=family.tag,
                tol=config.constraint_tol,
            )
        except (NoBracketError, CalibrationFailedError) as exc:
            raise CalibrationFailedError(f"calibration failed at the initial point: {exc}") from exc
        raise ValueError("initial point is infeasible (curve not closed and simple)")

    k = x0.size
    if k == 0:
        return _report(family, config, state, trace, f0, converged=True, warning=None)

    simplex = [x0]
    values = [f0]
    budget_hit = False
    for i in range(k):
        if state["evals"] >= config.max_evals:
            budget_hit = True
            break
        xi = x0.copy()
        xi[i] += config.simplex_scale
        simplex.append(xi)
        values.append(run_eval(xi))

    converged = False
    if not budget_hit and len(simplex) == k + 1:
        simplex_arr = np.array(simplex)
        values_arr = np.array(values)
        while state["evals"] < config.max_evals:
            order = np.argsort(values_arr, kind="stable")
            simplex_arr = simplex_arr[order]
            values_arr = values_arr[order]
            diam = max(
                float(np.linalg.norm(simplex_arr[i] - simplex_arr[j]))
                for i in range(k + 1)
                for j in range(i + 1, k + 1)
            )
            if diam < config.diameter_tol:
                converged = True
                break

            centroid = simplex_arr[:-1].mean(axis=0)
            worst = simplex_arr[-1]
            xr = centroid + (centroid - worst)
            fr = run_eval(xr)
            if fr < values_arr[0]:
                if state["evals"] >= config.max_evals:
                    break
                xe = centroid + 2.0 * (centroid - worst)
                fe = run_eval(xe)
                if fe < fr:
                    simplex_arr[-1], values_arr[-1] = xe, fe
                else:
                    simplex_arr[-1], values_arr[-1] = xr, fr
            elif fr < values_arr[-2]:
                simplex_arr[-1], values_arr[-1] = xr, fr
            else:
                if state["evals"] >= config.max_evals:
                    break
                if fr < values_arr[-1]:
                    xc = centroid + 0.5 * (xr - centroid)
                    fc = run_eval(xc)
                    accepted = fc <= fr
                else:
                    xc = centroid + 0.5 * (worst - centroid)
                    fc = run_eval(xc)
                    accepted = fc < values_arr[-1]
                if accepted:
                    simplex_arr[-1], values_arr[-1] = xc, fc
                else:
                    for i in range(1, k + 1):
                        if state["evals"] >= config.max_evals:
                            break
                        simplex_arr[i] = simplex_arr[0] + 0.5 * (simplex_arr[i] - simplex_arr[0])
                        values_arr[i] = run_eval(simplex_arr[i])

    warning = None if converged else MAX_EVALUATIONS_REACHED
    return _report(family, config, state, trace, f0, converged, warning)


def _report(family, config, state, trace, initial_value, converged, warning) -> OptimizationReport:
    best_shape = state["best_shape"]
    return OptimizationReport(
        objective=config.objective,
        family=family.tag,
        best_shape=tuple(float(v) for v in (best_shape if best_shape is not None else ())),
        best_scale=float(state["best_scale"]),
        best_value=float(state["best"]),
        initial_value=float(initial_value),
        constraint_residual=float("nan") if best_shape is None else _best_residual(family, state, config),
        max_constraint_residual=float(state["max_resid"]),
        evaluations=int(state["evals"]),
        converged=bool(converged),
        trace=tuple(float(v) for v in trace),
        warning=warning,
    )


def _best_residual(family: SearchFamily, state: dict, config: OptimizerConfig) -> float:
    curve = family.build(np.asarray(state["best_shape"]), state["best_scale"])
    return abs(arc_length(curve, default_curve_rule()).value - FOUR_PI)
