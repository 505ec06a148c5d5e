"""Arc-length calibration and derivative-free search over curve families.

The 4pi arc-length constraint is handled by nested calibration: every
candidate shape re-roots its family's scale (curves.with_scale) to arc
length 4pi with calibrate_arc_length, so the outer Nelder-Mead search
stays unconstrained. Non-simple or uncalibratable candidates receive an
infinite objective. Each curve family's scale, with its label and its
default bracket, is the family's entry in curves._FAMILIES.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar

import numpy as np

from . import curves
from .curves import SphericalCurve, arc_length, is_closed, is_simple, trig_series
from .functionals import DESIGN_SIZE, mean_min_arc_distance, sup_deviation_from_half_pi
from .quadrature import FunctionalResult, QuadratureRule, _require_curve_rule, default_curve_rule, require_integer

FOUR_PI = 4.0 * math.pi

OBJECTIVES = ("sup_dev_from_half_pi", "mean_min")

MULTIPLE_SIGN_CHANGES = "multiple_sign_changes"
MAX_EVALUATIONS_REACHED = "max_evaluations_reached"

#: The Nelder-Mead search stops once its simplex is narrower than this.
DIAMETER_TOL = 1e-6

#: The initial simplex's offset from the start along each shape parameter.
SIMPLEX_SCALE = 0.1


class NoBracketError(ValueError):
    """The length model's L - 4pi has no root to find in the bracket: the
    pre-scan found no sign change, or the scale moves no coefficient."""


class CalibrationFailedError(RuntimeError):
    """Calibration could not reach the requested arc-length tolerance."""


@dataclass(frozen=True)
class CalibrationReport:
    """Outcome of rooting a family's scale parameter to arc length 4pi.

    length is the arc length computed at the parameter, the one that
    confirmed the root, with its own error estimate, nodes and warning;
    residual = |length.value - 4pi|. iterations counts the confirming arc
    lengths the root took (the pre-scan and Newton take none). warning is
    the calibration's own: MULTIPLE_SIGN_CHANGES when the pre-scan found
    several roots, else None. curve is the curve at the parameter, the one
    whose arc length the report gives; it takes no part in comparisons or
    the repr.
    """

    family: str
    parameter: float
    length: FunctionalResult
    residual: float
    iterations: int
    bracket: tuple[float, float]
    warning: str | None = None
    curve: SphericalCurve = field(kw_only=True, compare=False, repr=False)


@dataclass(frozen=True)
class OptimizationReport:
    """Outcome of a constrained functional minimization over a curve family.

    best_curve is the family's curve at best_shape and best_scale, the one
    constraint_residual is measured on; it takes no part in comparisons or
    the repr.
    """

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
    best_curve: SphericalCurve = field(kw_only=True, compare=False, repr=False)


#: Arc lengths a Newton root may spend confirming roots before it fails.
NEWTON_MAX_EVALUATIONS = 8

#: Default bound on |arc_length - 4pi| at which a calibration stops.
CALIBRATION_TOL = 1e-6

#: Bound on |arc_length - 4pi| to which the search calibrates each candidate.
CONSTRAINT_TOL = 1e-10

#: The search's curve rule: each candidate's calibration, and the nodes of
#: the sup-deviation objective's field. Trial shapes can put near-kinks into
#: |r'(t)| (simultaneous zeros of both speed terms); a looser quadrature
#: tolerance keeps the nested calibration cheap while staying far below the
#: 1e-4 constraint check.
SEARCH_RULE = default_curve_rule(n=256, tol=5e-7)


def calibrate_arc_length(
    make_curve: Callable[[float], SphericalCurve],
    bracket: tuple[float, float],
    family: str = "",
    tol: float = CALIBRATION_TOL,
    rule: QuadratureRule | None = None,
    start: float | None = None,
) -> CalibrationReport:
    """Root the scale parameter p until |arc_length - 4pi| <= tol.

    make_curve(p) must be its family's curve at scale p, as
    curves.with_scale defines the scale: the root is found on that
    family's length model, L_n = curves.length_model(curve, p, n) for
    curve = make_curve(p), which is the n-node periodic trapezoid sum of
    the arc length at every scale. Arc lengths only confirm a root, so a
    root of a make_curve that breaks the contract fails its confirmation
    and is never reported.

    Newton (_newton_root) steps on L_n, first at n = 2 rule.n, the level at
    which a refinement can first stop, each clipped to an interval and at
    least halving |L_n - 4pi|. Once |L_n - 4pi| <= tol, one arc_length at
    that p confirms the root. The report carries it as its length, with
    the residual |length.value - 4pi|, and its curve is the make_curve(p)
    that arc length was taken on. A confirmation that misses tol rebuilds
    L_n at the level it settled at and runs Newton again, for at most
    NEWTON_MAX_EVALUATIONS arc lengths, which the report counts as its
    iterations; CalibrationFailedError after that.

    With a start inside the bracket, Newton runs from the start inside the
    bracket, and the report carries the bracket as given. A warm start
    finds the root that Newton reaches from it and skips the sign-change
    survey below.

    Otherwise, or when the warm Newton fails, the root is cold: L_n - 4pi
    at n = 2 rule.n is pre-scanned at 32 points of the bracket to locate a
    sign change (a zero counts as positive); NoBracketError if there is
    none. With multiple sign changes the
    subinterval whose midpoint is closest to the bracket midpoint is used
    and the report is flagged (non-monotone length). Newton then runs from
    that subinterval's midpoint inside it, and the report carries it as
    its bracket. Where a step fails to halve |L_n - 4pi|, Newton bisects
    the sign change instead (_model_root), so a cold root cannot fail on
    the model; a rebuilt L_n with no sign change in the subinterval
    rescans the bracket. Both bracket ends are built, so an end outside
    the family's range raises. A scale that moves no coefficient of the
    family's series (curves._scale_rates all zero) leaves every member the
    same curve, so a cold root raises NoBracketError first, before it
    builds the high end or pre-scans. Deterministic for fixed inputs.
    """
    rule = rule or default_curve_rule()
    _require_curve_rule(rule)  # before the length model, which takes only n from it
    lo, hi = float(bracket[0]), float(bracket[1])
    if not hi > lo:
        raise ValueError("bracket must satisfy lo < hi")

    warm = start is not None and lo <= start <= hi
    report = _newton_root(make_curve, family, float(start), (lo, hi), tol, rule) if warm else None
    if report is None:
        _require_a_scaled_coefficient(make_curve(lo), rule)
        make_curve(hi)  # the scan builds only lo, and an end past the family's range must raise
        report = _newton_root(make_curve, family, lo, (lo, hi), tol, rule, cold=True)
    if report is None:
        raise CalibrationFailedError(f"no root confirmed to |L - 4pi| <= {tol} in {NEWTON_MAX_EVALUATIONS} arc lengths")
    return report


def _require_a_scaled_coefficient(curve: SphericalCurve, rule: QuadratureRule) -> None:
    """NoBracketError when curve's family scale moves no coefficient of
    its series: the length model is then one constant, and no bracket can
    hold a root of it."""
    family = curves._FAMILIES[curve.family]
    if family.scale is not None and curves._scale_rates(curve) == curves._TrigSeries():
        raise NoBracketError(
            f"the {family.label} scales no coefficient of this {curve.family} curve, so every scale "
            f"gives the same curve, of arc length {arc_length(curve, rule).value:.6g}, and none reaches "
            f"{FOUR_PI:.6g}"
        )


def _newton_root(
    make_curve: Callable[[float], SphericalCurve],
    family: str,
    p: float,
    bracket: tuple[float, float],
    tol: float,
    rule: QuadratureRule,
    cold: bool = False,
) -> CalibrationReport | None:
    """Newton on the length model from p inside the bracket, each root
    confirmed by an arc length (see calibrate_arc_length): the report of
    the first confirmed root, whose bracket is the interval Newton kept
    to, or None when no root is confirmed. A cold root
    pre-scans the model for a sign change, first and whenever a rebuilt
    model has none in it, and bisects it where Newton fails."""
    sub, warning = (None if cold else bracket), None
    curve = make_curve(p)
    n = 2 * rule.n
    for evaluations in range(1, NEWTON_MAX_EVALUATIONS + 1):
        model = curves.length_model(curve, p, n)
        p = None if sub is None else _model_root(model, p, *sub, tol, cold)
        if p is None and cold:
            sub, warning = _sign_change(model, *bracket)
            p = _model_root(model, 0.5 * (sub[0] + sub[1]), *sub, tol, cold)
        if p is None:
            return None
        curve = make_curve(p)
        length = arc_length(curve, rule)
        residual = abs(length.value - FOUR_PI)
        if residual <= tol:
            return CalibrationReport(family, p, length, residual, evaluations, sub, warning, curve=curve)
        n = length.nodes_used  # the trapezoid's levels nest: the level it settled at
    return None


def _sign_change(model: curves.LengthModel, lo: float, hi: float) -> tuple[tuple[float, float], str | None]:
    """The pre-scan: the subinterval of 32 points on [lo, hi] where
    L_n - 4pi changes sign, and MULTIPLE_SIGN_CHANGES when it does more
    than once (see calibrate_arc_length)."""
    scan = np.linspace(lo, hi, 32)
    gvals = np.array([model(p)[0] for p in scan]) - FOUR_PI
    below = gvals < 0.0
    changes = np.nonzero(below[:-1] != below[1:])[0]
    if changes.size == 0:
        raise NoBracketError(
            f"arc_length - {FOUR_PI:.6g} has no sign change on [{lo}, {hi}] "
            f"(range [{gvals.min():.4g}, {gvals.max():.4g}])"
        )
    warning = None
    if changes.size > 1:
        warning = MULTIPLE_SIGN_CHANGES
        centers = 0.5 * (scan[changes] + scan[changes + 1])
        changes = changes[[int(np.argmin(np.abs(centers - 0.5 * (lo + hi))))]]
    i = int(changes[0])
    return (float(scan[i]), float(scan[i + 1])), warning


def _model_root(model: curves.LengthModel, p: float, lo: float, hi: float, tol: float, bracketed: bool) -> float | None:
    """Newton on the model from p, each step clipped to [lo, hi], until
    |L_n - 4pi| <= tol. A step that fails to halve |L_n - 4pi| ends an
    unbracketed root with None. A bracketed one, where L_n - 4pi changes
    sign on [lo, hi], narrows [lo, hi] to the sign change at every point
    it steps from, and bisects it instead (safeguarded Newton, rtsafe in
    Numerical Recipes 9.4); it is None only where the model has no sign
    change on [lo, hi] or the sign change cannot be halved."""
    if bracketed:
        lo_below = model(lo)[0] < FOUR_PI
        if lo_below == (model(hi)[0] < FOUR_PI):
            return None
    length, slope = model(p)
    while abs(length - FOUR_PI) > tol:
        resid = length - FOUR_PI
        if bracketed:
            lo, hi = (p, hi) if (resid < 0.0) == lo_below else (lo, p)
        if slope:  # at a zero slope p stays, and the step fails the test below
            p = min(max(p - resid / slope, lo), hi)
        length, slope = model(p)
        if not abs(length - FOUR_PI) <= 0.5 * abs(resid):  # also catches a NaN step
            p = 0.5 * (lo + hi)
            if not (bracketed and lo < p < hi):
                return None
            length, slope = model(p)
    return p


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

    def calibrate(
        self,
        shape: np.ndarray,
        tol: float = CALIBRATION_TOL,
        rule: QuadratureRule | None = None,
        start: float | None = None,
    ) -> CalibrationReport:
        """Root the scale at this shape to arc length 4pi within scale_bracket,
        by Newton from start when one is given (see calibrate_arc_length)."""
        return calibrate_arc_length(
            lambda p: self.build(shape, p),
            self.scale_bracket,
            family=self.tag,
            tol=tol,
            rule=rule,
            start=start,
        )


def scale_family(curve: SphericalCurve) -> SearchFamily:
    """Degenerate family: no free shape; the scale is curve's family scale
    (curves.with_scale), within its family's default bracket."""
    bracket = curves._FAMILIES[curve.family].bracket
    return SearchFamily(curve.family, (), lambda shape, p: curves.with_scale(curve, p), bracket)


def seam_seeded_family(J: int = 3) -> SearchFamily:
    """Trig-series family over J harmonics with an amplitude scale, started
    at the tennis ball seam shape.

    Shape layout: [a_1..a_J, b_1..b_J, c_1..c_J] for
    theta = pi/2 + amp * (sum a_j cos jt + b_j sin jt),
    phi = t/2 + amp * sum c_j sin jt, on [0, 4pi]. The start is the
    harmonics of the tennis ball's series at a = curves.TENNIS_BALL_A, so
    at unit amplitude the curve is the seam, whose theta0, phi slope and
    domain are those above.
    For another start, dataclasses.replace(family, initial_shape=...).
    """
    require_integer(J, 2, "J")  # the seam shape needs two harmonics
    shape = np.zeros((3, J))
    for j, *abc in curves._FAMILIES[curves.TENNIS_BALL].series(curves.TENNIS_BALL_A).harmonics:
        shape[:, j - 1] = abc

    def build(shape: np.ndarray, scale: float) -> SphericalCurve:
        shape = np.asarray(shape, dtype=float)
        return trig_series(
            theta_cos=shape[0:J],
            theta_sin=shape[J : 2 * J],
            phi_sin=shape[2 * J : 3 * J],
            amplitude=scale,
        )

    bracket = curves._FAMILIES[curves.TRIG_SERIES].bracket
    return SearchFamily(curves.TRIG_SERIES, tuple(shape.ravel().tolist()), build, bracket)


@dataclass(frozen=True)
class OptimizerConfig:
    objective: str = "sup_dev_from_half_pi"
    max_evals: int = 2000
    seed: int = 42
    #: Points of the sup-deviation objective's design (functionals.DESIGN_SIZE).
    design_size: ClassVar[int] = DESIGN_SIZE

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}")
        require_integer(self.max_evals, 1, "max_evals")
        require_integer(self.seed, 0, "seed")


def _objective_value(curve: SphericalCurve, config: OptimizerConfig) -> float:
    # Fixed quadrature settings keep each objective deterministic per config.
    if config.objective == "sup_dev_from_half_pi":
        sup, _ = sup_deviation_from_half_pi(curve, SEARCH_RULE)
        return sup
    return mean_min_arc_distance(curve, n_points=1024, seed=config.seed, n_scan=1024).value


def make_candidate_evaluator(
    family: SearchFamily, config: OptimizerConfig
) -> Callable[[np.ndarray], tuple[float, float, float]]:
    """Return eval(shape) -> (objective, scale, |arc_length - 4pi|).

    A candidate whose calibration fails (no bracket, or no root found)
    comes back as (inf, nan, inf); an open or non-simple one as (inf,
    scale, residual) of its calibration. Exposed so feasibility filtering
    can be exercised directly, e.g. on an injected doubled great circle.

    The evaluator keeps the last calibrated scale and warm-starts the next
    calibration from it, so a candidate's scale depends, within
    CONSTRAINT_TOL, on the candidates before it. The first call, and any
    whose warm Newton steps fail, roots cold, from the bracket's pre-scan
    (see calibrate_arc_length). A fresh
    evaluator given the same shapes in the same order returns the same
    values. The candidate's curve is its calibration report's curve, on
    which the confirming arc length was taken.
    """
    last_scale = None
    # A candidate's temporaries (the 4096-sample simplicity check, the design
    # x nodes field) reach a few hundred kB. Freeing one untouched 1 MiB block
    # raises glibc malloc's mmap and trim thresholds above that, so they are
    # reused from the heap rather than mapped, or trimmed, and page-faulted
    # anew for every candidate: about 170 faults a candidate, measured in a
    # process that had freed no block that large.
    np.empty(1 << 17)

    def evaluate(shape: np.ndarray) -> tuple[float, float, float]:
        nonlocal last_scale
        try:
            cal = family.calibrate(shape, CONSTRAINT_TOL, SEARCH_RULE, start=last_scale)
        except (NoBracketError, CalibrationFailedError):
            return math.inf, math.nan, math.inf
        last_scale = cal.parameter
        curve = cal.curve
        if not is_closed(curve):
            return math.inf, cal.parameter, cal.residual
        simple, _ = is_simple(curve)
        if not simple:
            return math.inf, cal.parameter, cal.residual
        return _objective_value(curve, config), cal.parameter, cal.residual

    return evaluate


class _BudgetSpent(Exception):
    """Raised in place of an evaluation beyond the search's budget."""


def minimize_functional(
    family: SearchFamily,
    objective: str | None = None,
    config: OptimizerConfig | None = None,
) -> OptimizationReport:
    """Nelder-Mead over the family's shape parameters under the 4pi constraint.

    Coefficients: reflection 1, expansion 2, contraction 0.5, shrink 0.5;
    initial simplex offsets SIMPLEX_SCALE per parameter; stops when the
    simplex diameter drops below DIAMETER_TOL or after exactly max_evals
    evaluations (best-so-far returned, flagged). Vertices are ordered by a
    stable sort, so ties (infeasible vertices at +inf) keep their order.
    The best-vertex objective trace is non-increasing, and every feasible
    iterate satisfies the arc-length constraint to the calibration
    tolerance. A start that is not closed and simple raises ValueError,
    one that does not calibrate CalibrationFailedError.
    """
    if config is None:
        config = OptimizerConfig()
    if objective is not None and objective != config.objective:
        config = dataclasses.replace(config, objective=objective)

    evaluate = make_candidate_evaluator(family, config)
    log: list[tuple[float, np.ndarray, float, float]] = []  # (value, shape, scale, residual) per candidate

    def run_eval(shape: np.ndarray) -> float:
        if len(log) >= config.max_evals:
            raise _BudgetSpent
        value, scale, resid = evaluate(shape)
        log.append((value, np.array(shape, dtype=float), scale, resid))
        return value

    x0 = np.asarray(family.initial_shape, dtype=float)
    f0 = run_eval(x0)
    if not math.isfinite(f0):
        if math.isnan(log[0][2]):  # the evaluator's calibration failed: raise what it caught
            try:
                family.calibrate(x0, CONSTRAINT_TOL, SEARCH_RULE)
            except (NoBracketError, CalibrationFailedError) as exc:
                raise CalibrationFailedError(f"calibration failed at the initial point: {exc}") from exc
        raise ValueError("initial point is infeasible (curve not closed and simple)")

    converged = x0.size == 0  # an empty shape has nothing to search
    try:
        simplex = np.vstack([x0, x0 + SIMPLEX_SCALE * np.eye(x0.size)])
        values = np.array([f0] + [run_eval(x) for x in simplex[1:]])
        while not converged and len(log) < config.max_evals:
            order = np.argsort(values, kind="stable")
            simplex, values = simplex[order], values[order]
            if _diameter(simplex) < DIAMETER_TOL:
                converged = True
                break

            centroid = simplex[:-1].mean(axis=0)
            worst = simplex[-1]
            xr = centroid + (centroid - worst)
            fr = run_eval(xr)
            if fr < values[0]:
                xe = centroid + 2.0 * (centroid - worst)
                fe = run_eval(xe)
                simplex[-1], values[-1] = (xe, fe) if fe < fr else (xr, fr)
            elif fr < values[-2]:
                simplex[-1], values[-1] = xr, fr
            else:
                if fr < values[-1]:  # outside contraction
                    xc = centroid + 0.5 * (xr - centroid)
                    fc = run_eval(xc)
                    accepted = fc <= fr
                else:  # inside contraction
                    xc = centroid + 0.5 * (worst - centroid)
                    fc = run_eval(xc)
                    accepted = fc < values[-1]
                if accepted:
                    simplex[-1], values[-1] = xc, fc
                else:  # shrink toward the best vertex
                    for i in range(1, len(simplex)):
                        simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                        values[i] = run_eval(simplex[i])
    except _BudgetSpent:
        pass

    objectives, shapes, scales, residuals = (np.array(column) for column in zip(*log))
    feasible = np.where(np.isfinite(objectives), objectives, math.inf)
    best = int(np.argmin(feasible))  # the first of equal minima
    best_curve = family.build(shapes[best], scales[best])
    return OptimizationReport(
        objective=config.objective,
        family=family.tag,
        best_shape=tuple(float(v) for v in shapes[best]),
        best_scale=float(scales[best]),
        best_value=float(objectives[best]),
        initial_value=float(f0),
        constraint_residual=float(abs(arc_length(best_curve, default_curve_rule()).value - FOUR_PI)),
        max_constraint_residual=float(residuals[feasible < math.inf].max(initial=0.0)),
        evaluations=len(log),
        converged=converged,
        trace=tuple(float(v) for v in np.minimum.accumulate(feasible)),
        warning=None if converged else MAX_EVALUATIONS_REACHED,
        best_curve=best_curve,
    )


def _diameter(simplex: np.ndarray) -> float:
    """The largest distance between two vertices (rows) of the simplex."""
    gap = simplex[:, None, :] - simplex[None, :, :]
    return math.sqrt(float(np.einsum("ijk,ijk->ij", gap, gap).max()))
