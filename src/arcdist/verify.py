"""End-to-end verification of every headline numeric claim.

Each criterion function returns table rows {claim, paper value, computed
value, tolerance, pass/fail}; informational rows carry passed=None. Two
rows fail by design of the underlying problem, with messages explaining
why (see README "Known deviations"): the wavy-circle amplitude is not
reproduced by the arc-length constraint, and the sphere-to-curve mean is
the same constant for every curve so no strict excess exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import curves, functionals, optimize
from .quadrature import QuadratureRule, default_curve_rule
from .sphere import (
    SpherePoint,
    geodesic_distance,
    random_rotation_matrix,
    sample_sphere_angles,
    uniform_unit_vectors,
)

HALF_PI = 0.5 * math.pi
TWO_PI_SQ = 2.0 * math.pi**2
#: the seed every random draw of the table derives from.
SEED = 42
#: criterion 12's optimizer budget.
MAX_EVALS = 500


@dataclass
class ClaimRow:
    """One verification table row; passed=None marks an informational row.

    results are the FunctionalResults the row was computed from. warning is
    their first warning (TOLERANCE_NOT_REACHED when one stopped at the node
    cap) and nodes_used their total, None without results. A row of one
    result takes its error_estimate unless the row gives its own.
    """

    name: str
    value: float
    paper_value: float | None = None
    tolerance: float | None = None
    passed: bool | None = None
    error_estimate: float | None = None
    message: str = ""
    results: tuple = field(default=(), compare=False, repr=False)

    def __post_init__(self) -> None:
        self.results = tuple(self.results)
        if self.error_estimate is None and len(self.results) == 1:
            self.error_estimate = self.results[0].error_estimate

    @property
    def warning(self) -> str | None:
        return next((r.warning for r in self.results if r.warning is not None), None)

    @property
    def nodes_used(self) -> int | None:
        return sum(r.nodes_used for r in self.results) if self.results else None


class VerifyContext:
    """Caches the calibrations whose curves several criteria share."""

    @cached_property
    def seam_calibration(self) -> optimize.CalibrationReport:
        return optimize.scale_family(curves.tennis_ball_seam()).calibrate(())

    @property
    def seam(self) -> curves.SphericalCurve:
        return self.seam_calibration.curve

    @cached_property
    def wavy_calibration(self) -> optimize.CalibrationReport:
        return optimize.scale_family(curves.wavy_circle()).calibrate(())

    @property
    def wavy(self) -> curves.SphericalCurve:
        return self.wavy_calibration.curve


def _within(name: str, value: float, paper_value: float, tolerance: float, **row) -> ClaimRow:
    """The row of a claim that passes when |value - paper_value| <= tolerance."""
    return ClaimRow(name, value, paper_value, tolerance, abs(value - paper_value) <= tolerance, **row)


def _at_most(name: str, value: float, tolerance: float, **row) -> ClaimRow:
    """The row of a claim that passes when value <= tolerance."""
    return ClaimRow(name, value, tolerance=tolerance, passed=value <= tolerance, **row)


def _worst_of(name: str, functional, qs, target: float, tolerance: float) -> tuple[ClaimRow, np.ndarray]:
    """The row of the estimate farthest from target among functional(q)
    over the points qs, which passes within tolerance of target, and every estimate."""
    results = [functional(q) for q in qs]
    values = np.array([r.value for r in results])
    worst = int(np.argmax(np.abs(values - target)))
    row = _within(
        name, float(values[worst]), target, tolerance, error_estimate=results[worst].error_estimate, results=results
    )
    return row, values


def criterion_1_point_to_sphere(ctx: VerifyContext) -> list[ClaimRow]:
    """Mean distance from 100 random unit vectors to the sphere equals pi/2."""
    qs = uniform_unit_vectors(SEED + 100, 100)
    name = "1. point-to-sphere mean (worst of 100)"
    row, values = _worst_of(name, functionals.mean_point_to_sphere, qs, HALF_PI, 1e-6)
    row.message = f"max |dev| = {abs(row.value - HALF_PI):.3e}; spread = {np.ptp(values):.3e}"
    return [row]


def criterion_2_arcsin_identity(ctx: VerifyContext) -> list[ClaimRow]:
    """The arcsin surface integral vanishes for 20 random unit vectors."""
    qs = uniform_unit_vectors(SEED + 200, 20)
    name = "2. arcsin identity residual (worst of 20)"
    return [_worst_of(name, functionals.arcsin_identity_residual, qs, 0.0, 1e-6)[0]]


def criterion_3_seam_M(ctx: VerifyContext) -> list[ClaimRow]:
    """Curve-to-sphere mean of the calibrated seam equals 2 pi^2 (rel 1e-3)."""
    res = functionals.curve_to_sphere_mean_M(ctx.seam)
    return [_within("3. seam curve-to-sphere mean M", res.value, TWO_PI_SQ, 1e-3 * TWO_PI_SQ, results=(res,))]


def criterion_4_great_circle_field(ctx: VerifyContext) -> list[ClaimRow]:
    """Mean distance from 50 random points to a great circle equals pi/2."""
    gc = curves.great_circle((0.0, 2.0))
    theta, phi = sample_sphere_angles(SEED + 400, 50)
    rule = default_curve_rule(tol=1e-10)
    points = [SpherePoint(t, p) for t, p in zip(theta, phi)]
    name = "4. great-circle mean distance (worst of 50)"
    return [_worst_of(name, lambda p: functionals.point_to_curve_mean(gc, p, rule), points, HALF_PI, 1e-8)[0]]


def criterion_5_wavy_pole_value(ctx: VerifyContext) -> list[ClaimRow]:
    """Mean distance from (theta0=0, phi0=1) to the wavy circle is 3 pi/4."""
    curve = curves.wavy_circle(curves.WAVY_CIRCLE_B)
    res = functionals.point_to_curve_mean(curve, SpherePoint(0.0, 1.0), default_curve_rule(tol=1e-10))
    target = 0.75 * math.pi
    return [
        ClaimRow(
            "5. wavy-circle mean distance at pole point",
            res.value,
            paper_value=2.3562,
            tolerance=1e-4,
            passed=abs(res.value - target) <= 1e-4,
            results=(res,),
        )
    ]


def criterion_6_calibration(ctx: VerifyContext) -> list[ClaimRow]:
    """Arc-length roots vs the published amplitudes (tol 5e-4 on the parameter)."""
    cal = ctx.seam_calibration
    dev = abs(cal.parameter - curves.TENNIS_BALL_A)
    seam_row = _within(
        "6a. seam amplitude root of L - 4pi",
        cal.parameter,
        curves.TENNIS_BALL_A,
        5e-4,
        error_estimate=cal.residual,
        message=f"deviation {dev:.2e}; the 4pi constraint alone reproduces the reference value",
        results=(cal.length,),
    )
    cal = ctx.wavy_calibration
    dev = abs(cal.parameter - curves.WAVY_CIRCLE_B)
    length_at_ref = curves.arc_length(curves.wavy_circle(curves.WAVY_CIRCLE_B))
    wavy_row = _within(
        "6b. wavy amplitude root of L - 4pi",
        cal.parameter,
        curves.WAVY_CIRCLE_B,
        5e-4,
        error_estimate=cal.residual,
        message=(
            f"computed root {cal.parameter:.6f} deviates by {dev:.4f}; the reference amplitude "
            f"does not satisfy the constraint (its arc length is {length_at_ref.value:.4f}, not 4pi = "
            f"{4 * math.pi:.4f}). Open question: the constraint does not determine the published "
            "value. See README: Known deviations."
        ),
        results=(length_at_ref, cal.length),
    )
    return [seam_row, wavy_row]


def criterion_7_seam_sphere_mean(ctx: VerifyContext) -> list[ClaimRow]:
    """Sphere-to-curve mean of the seam equals 2 pi^2 (rel 5e-2), plus sup-dev."""
    res = functionals.sphere_to_curve_mean(ctx.seam)
    sup, _ = functionals.sup_deviation_from_half_pi(ctx.seam)
    return [
        _within("7. seam sphere-to-curve mean", res.value, TWO_PI_SQ, 5e-2 * TWO_PI_SQ, results=(res,)),
        ClaimRow(
            "7i. seam sup |mean distance - pi/2| (122-design)",
            sup,
            message="informational: measured spread of the seam's mean-distance field",
        ),
    ]


def criterion_8_wavy_excess(ctx: VerifyContext) -> list[ClaimRow]:
    """Claimed strict excess of the wavy circle's sphere-to-curve mean over 2 pi^2."""
    res = functionals.sphere_to_curve_mean(ctx.wavy)
    excess = res.value - TWO_PI_SQ
    # An excess counts only past three error bounds and a floor of 64 ulp of
    # 2 pi^2: the value of an integral that equals 2 pi^2 sits within its bound
    # of 2 pi^2, often a few ulp above it, which is no excess.
    tol = 3.0 * res.error_estimate + 64.0 * math.ulp(1.0) * TWO_PI_SQ
    return [
        ClaimRow(
            "8. wavy sphere-to-curve mean excess over 2pi^2",
            excess,
            paper_value=None,
            tolerance=tol,
            passed=bool(excess > tol),
            message=(
                "the surface integral of the mean-distance field equals 2 pi^2 for every curve "
                "(swap the two integrals: the inner one is the constant point-to-sphere mean), "
                "so no strict excess exists. See README: Known deviations."
            ),
            results=(res,),
        )
    ]


def criterion_9_simplicity(ctx: VerifyContext) -> list[ClaimRow]:
    """Doubled great circle is non-simple; seam and single traversal are simple."""
    rows = []
    for name, curve, expected in (
        ("9a. doubled great circle flagged non-simple", curves.great_circle((0.0, 2.0)), False),
        ("9b. seam flagged simple", ctx.seam, True),
        ("9c. single-traversal great circle flagged simple", curves.great_circle((0.0, 1.0)), True),
    ):
        simple, witness = curves.is_simple(curve)
        flagged = simple == expected
        row = ClaimRow(name, float(flagged), paper_value=1.0, tolerance=0.0, passed=flagged)
        if not expected:  # a non-simple verdict must come with its witness pair
            row.passed = flagged and witness is not None
            row.message = f"witness pair t = {witness}" if witness else "no witness found"
        rows.append(row)
    return rows


def criterion_10_el_grid(ctx: VerifyContext) -> list[ClaimRow]:
    """Distance-integrand residuals vanish on theta = m pi, phi = phi0 - (pi/2 + k pi)."""
    theta0, phi0 = sample_sphere_angles(SEED + 1001, 10)
    worst = 0.0
    for t0, p0 in zip(theta0, phi0):
        p = SpherePoint(t0, p0)
        for m in range(-2, 3):
            for k in range(-2, 3):
                res = functionals.el_residuals(m * math.pi, p0 - (HALF_PI + k * math.pi), p)
                worst = max(worst, abs(res.res_theta), abs(res.res_phi))
    return [_within("10. stationarity residuals on the discrete grid", worst, 0.0, 1e-14)]


def criterion_11_properties(ctx: VerifyContext) -> list[ClaimRow]:
    """Rotation invariance, min<=mean, MC error scaling, great-circle mean-min."""
    rows = []

    # Rotation invariance, reported as max violation ratio (dev / allowed).
    rng = np.random.default_rng(SEED + 1100)
    ratios = []
    R = random_rotation_matrix(SEED + 1101)
    us = uniform_unit_vectors(SEED + 1102, 40)
    for i in range(0, 40, 2):
        d0 = geodesic_distance(us[i], us[i + 1])
        d1 = geodesic_distance(R @ us[i], R @ us[i + 1])
        ratios.append(abs(d0 - d1) / 1e-12)
    seam_rot = ctx.seam.rotated(R)
    crule = default_curve_rule()
    pairs = [(functionals.mean_point_to_sphere(q), functionals.mean_point_to_sphere(R @ q)) for q in us[:3]]
    curve_mean = functionals.point_to_curve_mean
    for u in us[3:8]:
        pairs.append((curve_mean(ctx.seam, u, crule), curve_mean(seam_rot, R @ u, crule)))
        d0, _ = functionals.point_to_curve_min(ctx.seam, u)
        d1, _ = functionals.point_to_curve_min(seam_rot, R @ u)
        ratios.append(abs(d0 - d1) / 1e-9)
    for r0, r1 in pairs:
        ratios.append(abs(r0.value - r1.value) / (3.0 * (r0.error_estimate + r1.error_estimate) + 1e-12))
    name = "11a. rotation invariance (max violation ratio)"
    rows.append(_at_most(name, float(max(ratios)), 1.0, results=[r for pair in pairs for r in pair]))

    # min <= mean on 200 random (curve, point) pairs: 40 curves x 5 points.
    worst_gap = -math.inf
    results = []
    for i in range(40):
        kind = i % 4
        if kind == 0:
            c = curves.great_circle((0.0, 1.0 + (i % 3)))
        elif kind == 1:
            c = curves.tennis_ball_seam(0.2 + 1.2 * rng.random())
        elif kind == 2:
            c = curves.wavy_circle(0.05 + 0.65 * rng.random())
        else:
            coeffs = 0.25 * rng.standard_normal(9)
            c = curves.trig_series(coeffs[:3], coeffs[3:6], coeffs[6:], phi_slope=0.5)
        pts = uniform_unit_vectors(SEED + 1200 + i, 5)
        mins, _ = functionals._min_distance_batch(c, pts, 4096)
        for j, u in enumerate(pts):
            results.append(functionals.point_to_curve_mean(c, u, crule))
            worst_gap = max(worst_gap, float(mins[j]) - results[-1].value)
    rows.append(_at_most("11b. max(min - mean) over 200 pairs", worst_gap, 1e-9, results=results))

    # Monte Carlo sphere-to-curve mean standard error shrinks ~2x for 4x samples.
    results = [
        functionals.sphere_to_curve_mean(ctx.seam, QuadratureRule("monte_carlo", n, 1e-9, seed=SEED + 1300))
        for n in (2000, 8000)
    ]
    ratio = results[0].error_estimate / results[1].error_estimate
    rows.append(
        ClaimRow(
            "11c. MC error shrink factor for 4x samples",
            float(ratio),
            paper_value=2.0,
            tolerance=1.8,
            passed=ratio >= 1.8,
            message="pass requires shrink >= 1.8",
            results=results,
        )
    )

    # Great-circle mean minimum distance: closed form pi/2 - 1.
    res = functionals.mean_min_arc_distance(curves.great_circle((0.0, 2.0)), 100_000, seed=SEED)
    name = "11d. great-circle mean minimum distance"
    rows.append(_within(name, res.value, HALF_PI - 1.0, 3.0 * res.error_estimate, results=(res,)))
    res = functionals.mean_min_arc_distance(ctx.seam, 20_000, seed=SEED + 1)
    message = "informational: no reference value; recorded for comparison"
    rows.append(ClaimRow("11i. seam mean minimum distance", res.value, message=message, results=(res,)))
    return rows


def criterion_12_optimizer(ctx: VerifyContext) -> list[ClaimRow]:
    """Optimizer sanity: monotone trace, constraint residuals, infeasibility filter."""
    config = optimize.OptimizerConfig(max_evals=MAX_EVALS)
    report = optimize.minimize_functional(optimize.seam_seeded_family(3), "sup_dev_from_half_pi", config)
    trace = np.array(report.trace)
    max_increase = float(np.max(np.diff(trace))) if trace.size > 1 else 0.0
    rows = [
        _at_most(
            "12a. optimizer best-so-far trace non-increasing",
            max_increase,
            0.0,
            message=f"final {report.best_value:.6g} <= initial {report.initial_value:.6g}; "
            f"{report.evaluations} evaluations",
        ),
        _at_most("12b. max |arc length - 4pi| over feasible iterates", report.max_constraint_residual, 1e-4),
    ]
    evaluator = optimize.make_candidate_evaluator(optimize.scale_family(curves.great_circle()), optimize.OptimizerConfig())
    value, _, _ = evaluator(np.array([]))
    best_simple, _ = curves.is_simple(report.best_curve)
    rows.append(
        ClaimRow(
            "12c. doubled great circle rejected as infeasible",
            float(math.isinf(value)),
            paper_value=1.0,
            tolerance=0.0,
            passed=math.isinf(value) and best_simple,
            message="injected doubled-circle candidate scores +inf; best iterate is simple",
        )
    )
    return rows


CRITERIA = (
    criterion_1_point_to_sphere,
    criterion_2_arcsin_identity,
    criterion_3_seam_M,
    criterion_4_great_circle_field,
    criterion_5_wavy_pole_value,
    criterion_6_calibration,
    criterion_7_seam_sphere_mean,
    criterion_8_wavy_excess,
    criterion_9_simplicity,
    criterion_10_el_grid,
    criterion_11_properties,
    criterion_12_optimizer,
)


def run_verification() -> tuple[list[ClaimRow], bool]:
    """Run all criteria; returns (rows, all_checked_rows_passed)."""
    ctx = VerifyContext()
    rows = [row for criterion in CRITERIA for row in criterion(ctx)]
    all_pass = all(r.passed for r in rows if r.passed is not None)
    return rows, all_pass


def format_table(rows: list[ClaimRow]) -> str:
    """Fixed-width text table of the verification rows; a row's warning is printed as a note."""
    header = f"{'claim':<46} {'paper value':>13} {'computed':>13} {'tolerance':>11} {'status':>6}"
    lines = [header, "-" * len(header)]
    for r in rows:
        paper = f"{r.paper_value:.6g}" if r.paper_value is not None else "-"
        tol = f"{r.tolerance:.3g}" if r.tolerance is not None else "-"
        status = "INFO" if r.passed is None else ("PASS" if r.passed else "FAIL")
        lines.append(f"{r.name:<46} {paper:>13} {r.value:>13.6g} {tol:>11} {status:>6}")
        if r.message and (r.passed is False or r.passed is None):
            lines.append(f"    note: {r.message}")
        if r.warning is not None:
            lines.append(f"    note: {r.warning}")
    checked = [r for r in rows if r.passed is not None]
    n_pass = sum(1 for r in checked if r.passed)
    lines.append(f"{n_pass}/{len(checked)} checked rows passed")
    return "\n".join(lines)
