import dataclasses
import math

import numpy as np
import pytest

from arcdist.curves import arc_length, great_circle, is_simple, tennis_ball_seam, trig_series, wavy_circle
from arcdist.functionals import DESIGN_SIZE, sphere_to_curve_mean
from arcdist import curves
from arcdist.optimize import (
    CONSTRAINT_TOL,
    MAX_EVALUATIONS_REACHED,
    MULTIPLE_SIGN_CHANGES,
    NEWTON_MAX_EVALUATIONS,
    SEARCH_RULE,
    CalibrationFailedError,
    NoBracketError,
    OptimizerConfig,
    calibrate_arc_length,
    make_candidate_evaluator,
    minimize_functional,
    scale_family,
    seam_seeded_family,
    _diameter,
    _model_root,
)
from arcdist.quadrature import QuadratureRule, default_curve_rule
from arcdist.sphere import random_rotation_matrix

FOUR_PI = 4.0 * math.pi

# Bisection roots of arc_length - 4pi, frozen from a 16384-node trapezoid
# oracle with bisection to machine bracket width.
SEAM_ROOT = 0.7037318753004456
WAVY_ROOT = 0.2862412631051938


class TestCalibration:
    def test_seam_root_matches_reference_value(self):
        rep = calibrate_arc_length(lambda a: tennis_ball_seam(a), (0.1, 1.4), family="tennis_ball", tol=1e-6)
        assert rep.parameter == pytest.approx(SEAM_ROOT, abs=1e-5)
        assert abs(rep.parameter - 0.7037) <= 5e-4
        assert rep.residual <= 1e-6
        assert rep.warning is None

    def test_wavy_root_departs_from_published_value(self):
        rep = calibrate_arc_length(lambda b: wavy_circle(b), (0.01, 0.6), family="wavy_circle", tol=1e-6)
        assert rep.parameter == pytest.approx(WAVY_ROOT, abs=1e-5)
        # measured fact: the published 0.1856 is not the arc-length root
        assert abs(rep.parameter - 0.1856) > 0.09
        assert rep.residual <= 1e-6

    def test_great_circle_domain_scale_identity(self):
        rep = calibrate_arc_length(
            lambda s: great_circle((0.0, 2.0 * s)), (0.5, 1.5), family="great_circle", tol=1e-8
        )
        assert rep.parameter == pytest.approx(1.0, abs=1e-9)

    def test_no_bracket_raises(self):
        with pytest.raises(NoBracketError):
            calibrate_arc_length(lambda a: tennis_ball_seam(a), (0.3, 0.5), tol=1e-6)

    @pytest.mark.parametrize("start, built_first", [(None, []), (1.0, [1.0])])
    def test_a_scale_that_moves_no_coefficient_raises_before_any_scan(self, monkeypatch, start, built_first):
        # the default trig series is the equator at every amplitude: after a
        # warm start fails, the cold root builds only the bracket's low end,
        # and never pre-scans
        built = []
        monkeypatch.setattr("arcdist.optimize._sign_change", None)
        with pytest.raises(NoBracketError, match="series amplitude scales no coefficient.* arc length 6.28319"):
            calibrate_arc_length(lambda s: built.append(s) or trig_series(amplitude=s), (0.05, 2.5), start=start)
        assert built == built_first + [0.05]

    def test_multiple_sign_changes_flagged(self):
        # L - 4pi crosses zero near 0.03 and again near 0.704
        rep = calibrate_arc_length(lambda a: tennis_ball_seam(a), (0.01, 1.4), family="tennis_ball", tol=1e-6)
        assert rep.warning == MULTIPLE_SIGN_CHANGES
        # the root closest to the bracket midpoint is the canonical one
        assert rep.parameter == pytest.approx(SEAM_ROOT, abs=1e-4)

    def test_deterministic(self):
        a = calibrate_arc_length(lambda b: wavy_circle(b), (0.01, 0.6), tol=1e-6)
        b = calibrate_arc_length(lambda b: wavy_circle(b), (0.01, 0.6), tol=1e-6)
        assert a == b

    @pytest.mark.parametrize("bracket", [(1.4, 0.1), (0.7, 0.7)])
    def test_bracket_must_be_increasing(self, bracket):
        with pytest.raises(ValueError, match="lo < hi"):
            calibrate_arc_length(tennis_ball_seam, bracket)

    @pytest.mark.parametrize("start, taken", [(None, NEWTON_MAX_EVALUATIONS), (0.7, 2 * NEWTON_MAX_EVALUATIONS)])
    def test_unconfirmed_roots_fail_after_the_budget(self, monkeypatch, start, taken):
        # every arc length reads 1e-3 above the length model's, so no model
        # root is ever confirmed; a warm start spends its budget before the
        # cold root spends its own
        calls = []
        real = arc_length

        def offset(*args):
            calls.append(1)
            length = real(*args)
            return dataclasses.replace(length, value=length.value + 1e-3)

        monkeypatch.setattr("arcdist.optimize.arc_length", offset)
        with pytest.raises(CalibrationFailedError):
            calibrate_arc_length(tennis_ball_seam, (0.1, 1.4), tol=1e-6, start=start)
        assert len(calls) == taken


def _count_arc_lengths(monkeypatch):
    calls = []
    real = arc_length
    monkeypatch.setattr("arcdist.optimize.arc_length", lambda *a: calls.append(1) or real(*a))
    return calls


def _record_calibration_rules(monkeypatch):
    rules = []
    real = calibrate_arc_length

    def recorded(*args, rule=None, **kwargs):
        rules.append(rule)
        return real(*args, rule=rule, **kwargs)

    monkeypatch.setattr("arcdist.optimize.calibrate_arc_length", recorded)
    return rules


def _bisection_oracle(make_curve, bracket, tol, rule=None):
    """Reference root by real arc lengths alone: the pre-scan's 32 points
    and sign-change choice, then bisection of arc_length - 4pi in the
    chosen subinterval. Returns (root, subinterval, warning)."""
    rule = rule or default_curve_rule()
    lo, hi = bracket
    scan = np.linspace(lo, hi, 32)
    below = np.array([arc_length(make_curve(p), rule).value < FOUR_PI for p in scan])
    changes = np.nonzero(below[:-1] != below[1:])[0]
    warning = MULTIPLE_SIGN_CHANGES if changes.size > 1 else None
    centers = 0.5 * (scan[changes] + scan[changes + 1])
    i = int(changes[int(np.argmin(np.abs(centers - 0.5 * (lo + hi))))])
    a, b = float(scan[i]), float(scan[i + 1])
    for _ in range(200):
        mid = 0.5 * (a + b)
        length = arc_length(make_curve(mid), rule)
        if abs(length.value - FOUR_PI) <= tol:
            return mid, (float(scan[i]), float(scan[i + 1])), length.warning or warning
        if (length.value < FOUR_PI) == below[i]:
            a = mid
        else:
            b = mid
    raise AssertionError("bisection did not reach tol")


_SEAM_START = seam_seeded_family(3)
_ORACLE_BRACKETS = [
    (tennis_ball_seam, (0.1, 1.4)),
    (tennis_ball_seam, (0.01, 1.4)),  # two roots
    (wavy_circle, (0.01, 0.6)),
    (lambda s: great_circle((0.0, 2.0 * s)), (0.5, 1.5)),
    (lambda s: _SEAM_START.build(np.array(_SEAM_START.initial_shape), s), (0.05, 2.5)),
]
_ORACLE_IDS = ["seam", "seam_two_roots", "wavy", "great_circle", "seam_seeded_start"]


_FAMILY_CURVES = [
    (tennis_ball_seam(0.7), 0.7),
    (wavy_circle(0.28), 0.28),
    (great_circle((0.5, 1.5)), 1.3),
    (seam_seeded_family(3).build(np.array([-0.8, 0.1, 0.05, 0.02, -0.1, 0.03, 0.01, 0.7, -0.05]), 0.9), 0.9),
]
_FAMILY_IDS = ["seam", "wavy", "great_circle", "trig_series"]

# A seam_seeded_family(3) shape whose arc length under SEARCH_RULE refines to
# 1024 nodes at its root.
_DEEP_SHAPE = np.array([-0.81, -0.16, -0.12, -0.73, 0.54, 0.34, -0.1, 0.94, 0.08])


class TestNewtonCalibration:
    def test_warm_start_reaches_the_root_in_a_few_arc_lengths(self, monkeypatch):
        calls = _count_arc_lengths(monkeypatch)
        rep = calibrate_arc_length(tennis_ball_seam, (0.1, 1.4), tol=1e-12, start=0.69)
        assert rep.parameter == pytest.approx(SEAM_ROOT, abs=1e-9)
        assert rep.residual <= 1e-12
        assert rep.iterations == len(calls) <= 2
        assert rep.bracket == (0.1, 1.4) and rep.warning is None

    def test_start_at_the_root_costs_one_arc_length(self, monkeypatch):
        root = calibrate_arc_length(tennis_ball_seam, (0.1, 1.4), tol=1e-10).parameter
        calls = _count_arc_lengths(monkeypatch)
        rep = calibrate_arc_length(tennis_ball_seam, (0.1, 1.4), tol=1e-10, start=root)
        assert (rep.parameter, rep.iterations, len(calls)) == (root, 1, 1)

    def test_start_outside_the_bracket_roots_cold(self):
        cold = calibrate_arc_length(tennis_ball_seam, (0.1, 1.4), tol=1e-6)
        warm = calibrate_arc_length(tennis_ball_seam, (0.1, 1.4), tol=1e-6, start=1.45)
        assert warm == cold

    def test_cold_root_takes_one_or_two_arc_lengths(self, monkeypatch):
        family = seam_seeded_family(3)
        shape = np.array(family.initial_shape)
        make = lambda s: family.build(shape, s)  # noqa: E731
        bisected, sub, _ = _bisection_oracle(make, family.scale_bracket, 1e-12, SEARCH_RULE)
        calls = _count_arc_lengths(monkeypatch)
        cold = family.calibrate(shape, CONSTRAINT_TOL, SEARCH_RULE)
        assert 1 <= cold.iterations == len(calls) <= 2
        assert cold.residual <= CONSTRAINT_TOL
        assert cold.residual == abs(arc_length(family.build(shape, cold.parameter), SEARCH_RULE).value - FOUR_PI)
        # the model's pre-scan finds the real arc length's sign change, and
        # Newton stays inside it and lands on the root
        assert cold.bracket == sub
        assert cold.bracket[0] <= cold.parameter <= cold.bracket[1]
        assert cold.parameter == pytest.approx(bisected, abs=1e-12)

    @pytest.mark.parametrize("make_curve, bracket", _ORACLE_BRACKETS, ids=_ORACLE_IDS)
    def test_cold_root_matches_the_bisection_oracle(self, make_curve, bracket):
        root, sub, warning = _bisection_oracle(make_curve, bracket, 1e-12)
        rep = calibrate_arc_length(make_curve, bracket, tol=1e-12)
        assert (rep.bracket, rep.warning) == (sub, warning)
        assert rep.parameter == pytest.approx(root, abs=1e-9)
        assert rep.residual == abs(arc_length(make_curve(rep.parameter)).value - FOUR_PI) <= 1e-12

    def test_a_rebuilt_model_without_the_sign_change_rescans(self, monkeypatch):
        # the model at the first level, 2 rule.n = 256 nodes, is off by a
        # shift that moves its root to the next pre-scan subinterval; the
        # seam's arc length settles at 512 nodes, where the model is exact
        rule = default_curve_rule(n=128, tol=1e-10)
        length_model = curves.length_model

        def shifted(curve, a, rule, n):
            model = length_model(curve, a, rule, n)
            return (lambda s: model(s - 0.05)) if n == 256 else model

        root, sub, _ = _bisection_oracle(tennis_ball_seam, (0.1, 1.4), 1e-10, rule)
        monkeypatch.setattr(curves, "length_model", shifted)
        rep = calibrate_arc_length(tennis_ball_seam, (0.1, 1.4), tol=1e-10, rule=rule)
        assert (rep.iterations, rep.nodes_used, rep.bracket) == (2, 512, sub)
        assert rep.parameter == pytest.approx(root, abs=1e-9)
        assert rep.residual <= 1e-10

    @pytest.mark.parametrize("curve, scale", _FAMILY_CURVES, ids=_FAMILY_IDS)
    @pytest.mark.parametrize("n", [512, 2048])
    def test_model_is_the_arc_length_at_its_level(self, curve, scale, n):
        # a loose tolerance stops the doubling at its second level, n
        rule = default_curve_rule(n=n // 2, tol=1.0)
        model = curves.length_model(curves.with_scale(curve, scale), scale, rule, n)
        for s in (scale, 0.9 * scale, 1.07 * scale):
            length = arc_length(curves.with_scale(curve, s), rule)
            assert length.nodes_used == n
            assert model(s)[0] == pytest.approx(length.value, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("curve, scale", _FAMILY_CURVES, ids=_FAMILY_IDS)
    def test_model_slope_matches_central_difference(self, curve, scale):
        rule = default_curve_rule(n=2048, tol=1e-13)
        here = curves.with_scale(curve, scale)
        h = 1e-5
        slope = (
            arc_length(curves.with_scale(curve, scale + h), rule).value
            - arc_length(curves.with_scale(curve, scale - h), rule).value
        ) / (2 * h)
        assert curves.length_model(here, scale, rule, 4096)(scale)[1] == pytest.approx(slope, rel=1e-8)

    def test_a_deeper_level_rebuilds_the_model(self, monkeypatch):
        family = seam_seeded_family(3)
        cold = family.calibrate(_DEEP_SHAPE, CONSTRAINT_TOL, SEARCH_RULE)
        assert cold.nodes_used == 1024
        calls = _count_arc_lengths(monkeypatch)
        warm = family.calibrate(_DEEP_SHAPE, CONSTRAINT_TOL, SEARCH_RULE, start=1.0)
        # the model at 512 nodes misses the 1024-node arc length by more
        # than the tolerance; the model rebuilt at 1024 meets it
        assert (warm.iterations, len(calls), warm.nodes_used) == (2, 2, 1024)
        assert warm.residual <= CONSTRAINT_TOL
        assert warm.residual == abs(arc_length(family.build(_DEEP_SHAPE, warm.parameter), SEARCH_RULE).value - FOUR_PI)
        assert warm.parameter == pytest.approx(cold.parameter, abs=1e-9)

    @pytest.mark.parametrize(
        "curve",
        [
            tennis_ball_seam(domain=(0.0, 8.0 * math.pi)),
            wavy_circle(domain=(1.0, 1.0 + 4.0 * math.pi)),
            great_circle((0.25, 1.25)),
            trig_series(theta_cos=[0.3], phi_sin=[0.0, 0.2], domain=(-1.0, 4.0 * math.pi - 1.0)),
        ],
        ids=["seam", "wavy", "great_circle", "trig_series"],
    )
    def test_rebuild_keeps_the_domain(self, curve):
        # the scale at which the great circle's domain is unchanged
        scale = 1.0 if curve.family == "great_circle" else 0.2
        for given in (curve, curve.rotated(random_rotation_matrix(3))):
            for rebuilt in (curves.with_scale(given, scale), scale_family(given).build((), scale)):
                assert rebuilt.domain == given.domain
                assert np.array_equal(rebuilt.rotation, given.rotation)  # both None, or equal


def _synthetic_model(slope_of):
    """A LengthModel with L - 4pi = 2x + x^3, x = s - 0.7, whose one root is
    0.7, and its slope replaced by slope_of(dL/ds)."""

    def model(s):
        x = s - 0.7
        return FOUR_PI + 2.0 * x + x**3, slope_of(2.0 + 3.0 * x * x)

    return model


# Slopes that make a Newton step fail: too small (the step leaves the
# bracket), of the wrong sign (it moves away from the root), NaN and zero
# (a flat model, whose step would divide by zero).
_FAILING_SLOPES = [lambda d: 1e-3 * d, lambda d: -d, lambda d: math.nan, lambda d: 0.0]
_FAILING_SLOPE_IDS = ["leaves_bracket", "wrong_sign", "nan_slope", "zero_slope"]


class TestModelRoot:
    @pytest.mark.parametrize("slope_of", _FAILING_SLOPES, ids=_FAILING_SLOPE_IDS)
    def test_a_failing_step_bisects_a_cold_root_and_ends_a_warm_one(self, slope_of):
        model = _synthetic_model(slope_of)
        lo, hi = 0.62, 0.83  # the sign change, with 0.7 off its midpoint
        p = _model_root(model, 0.5 * (lo + hi), lo, hi, 1e-12, True)
        assert lo <= p <= hi
        assert abs(model(p)[0] - FOUR_PI) <= 1e-12
        assert _model_root(model, 0.5 * (lo + hi), 0.1, 1.4, 1e-12, False) is None

    def test_the_true_slope_takes_only_newton_steps(self):
        evaluated = []
        model = _synthetic_model(lambda d: d)
        p = _model_root(lambda s: evaluated.append(s) or model(s), 0.725, 0.62, 0.83, 1e-12, True)
        assert abs(model(p)[0] - FOUR_PI) <= 1e-12
        # the two ends, the start and one point per step, each nearer 0.7
        steps = np.abs(np.array(evaluated[2:]) - 0.7)
        assert np.all(np.diff(steps) < 0) and len(steps) <= 6

    def test_no_sign_change_in_a_cold_bracket_gives_none(self):
        assert _model_root(_synthetic_model(lambda d: d), 0.9, 0.8, 1.0, 1e-12, True) is None

    @pytest.mark.parametrize("slope_of", _FAILING_SLOPES, ids=_FAILING_SLOPE_IDS)
    def test_a_failing_slope_fails_warm_and_bisects_cold(self, monkeypatch, slope_of):
        length_model = curves.length_model

        def tampered(curve, a, rule, n):
            model = length_model(curve, a, rule, n)
            return lambda s: (model(s)[0], slope_of(model(s)[1]))

        monkeypatch.setattr(curves, "length_model", tampered)
        cold = calibrate_arc_length(tennis_ball_seam, (0.1, 1.4), tol=1e-12)
        # the warm Newton fails, and the cold root it falls back to does not
        assert calibrate_arc_length(tennis_ball_seam, (0.1, 1.4), tol=1e-12, start=0.69) == cold
        assert cold.parameter == pytest.approx(SEAM_ROOT, abs=1e-9)
        assert cold.iterations == 1 and cold.residual <= 1e-12


class TestSearchFamilies:
    def test_seam_embedding_calibrates_to_unit_amplitude(self):
        fam = seam_seeded_family(3)
        rep = calibrate_arc_length(
            lambda s: fam.build(np.array(fam.initial_shape), s), fam.scale_bracket, tol=1e-6
        )
        assert rep.parameter == pytest.approx(1.0, abs=5e-4)

    @pytest.mark.parametrize("J", [2, 3, 5])
    def test_start_at_unit_amplitude_is_the_seam(self, J):
        fam = seam_seeded_family(J)
        start = fam.build(np.array(fam.initial_shape), 1.0)
        seam = tennis_ball_seam()
        assert start._series == seam._series
        assert start.sample(4096)[1].tobytes() == seam.sample(4096)[1].tobytes()

    @pytest.mark.parametrize("J", [1, 2.5, True])
    def test_shape_layout_validated(self, J):
        with pytest.raises(ValueError, match="J must be an integer >= 2"):
            seam_seeded_family(J=J)


class TestMinimizeFunctional:
    def test_short_run_properties(self):
        report = minimize_functional(
            seam_seeded_family(3), "sup_dev_from_half_pi", OptimizerConfig(max_evals=40, seed=42)
        )
        trace = np.array(report.trace)
        assert report.evaluations == len(trace) == 40
        assert np.all(np.diff(trace) <= 0.0)
        assert report.best_value <= report.initial_value
        assert report.max_constraint_residual <= 1e-4
        assert report.constraint_residual <= 1e-4
        # warm-started Newton holds every feasible iterate to the default 1e-10
        assert report.max_constraint_residual <= CONSTRAINT_TOL == 1e-10

    def test_degenerate_family_single_evaluation(self):
        report = minimize_functional(scale_family(wavy_circle()), "sup_dev_from_half_pi", OptimizerConfig(seed=1))
        assert report.evaluations == 1
        assert report.converged
        assert report.best_scale == pytest.approx(WAVY_ROOT, abs=1e-5)
        # the sphere-to-curve mean is the universal constant 2 pi^2, so it cannot rank candidates
        curve = wavy_circle(WAVY_ROOT)
        value = sphere_to_curve_mean(curve, QuadratureRule("gauss_legendre", 48, 1e-4)).value
        assert value == pytest.approx(2.0 * math.pi**2, abs=1e-6)

    def test_budget_of_one_returns_initial_point_flagged(self):
        report = minimize_functional(
            seam_seeded_family(3), "sup_dev_from_half_pi", OptimizerConfig(max_evals=1, seed=42)
        )
        assert report.evaluations == 1
        assert not report.converged
        assert report.warning == MAX_EVALUATIONS_REACHED
        assert report.best_value == report.initial_value

    def test_infeasible_start_raises(self):
        # calibration of the doubled great circle succeeds but the curve is
        # never simple, so the start is rejected
        with pytest.raises(ValueError):
            minimize_functional(scale_family(great_circle()), "sup_dev_from_half_pi", OptimizerConfig(seed=2))

    def test_an_infeasible_start_is_calibrated_once_at_the_search_rule(self, monkeypatch):
        # the doubled great circle calibrates but is never simple: the
        # search's own calibration of the start is the only one
        rules = _record_calibration_rules(monkeypatch)
        with pytest.raises(ValueError, match="not closed and simple"):
            minimize_functional(scale_family(great_circle()), "sup_dev_from_half_pi", OptimizerConfig(seed=2))
        assert len(rules) == 1 and rules[0] is SEARCH_RULE

    def test_a_failed_start_calibration_is_repeated_at_the_search_rule(self, monkeypatch):
        fam = dataclasses.replace(scale_family(wavy_circle()), scale_bracket=(0.01, 0.05))  # lengths stay below 4pi
        rules = _record_calibration_rules(monkeypatch)
        message = "initial point: .* no sign change on \\[0.01, 0.05\\]"
        with pytest.raises(CalibrationFailedError, match=message) as info:
            minimize_functional(fam, "sup_dev_from_half_pi", OptimizerConfig(seed=2))
        assert isinstance(info.value.__cause__, NoBracketError)
        assert len(rules) == 2 and all(rule is SEARCH_RULE for rule in rules)

    def test_calibration_failure_at_start_raises(self):
        fam = dataclasses.replace(scale_family(wavy_circle()), scale_bracket=(0.01, 0.05))  # lengths stay below 4pi
        with pytest.raises(CalibrationFailedError):
            minimize_functional(fam, "sup_dev_from_half_pi", OptimizerConfig(seed=2))

    def test_doubled_great_circle_scores_infinity(self):
        evaluator = make_candidate_evaluator(scale_family(great_circle()), OptimizerConfig(seed=3))
        value, scale, _ = evaluator(np.array([]))
        assert math.isinf(value)
        assert scale == pytest.approx(1.0, abs=1e-6)

    def test_open_candidate_scores_infinity_at_its_calibrated_scale(self, monkeypatch):
        # rejected as open before the simplicity check runs
        monkeypatch.setattr("arcdist.optimize.is_simple", None)
        evaluator = make_candidate_evaluator(scale_family(wavy_circle(domain=(0.0, 5.0))), OptimizerConfig())
        value, scale, residual = evaluator(np.array([]))
        assert math.isinf(value)
        assert scale == pytest.approx(0.3729095, abs=1e-6)
        assert residual <= 1e-6

    def test_best_iterate_is_closed_simple_and_calibrated(self):
        fam = seam_seeded_family(3)
        report = minimize_functional(fam, "sup_dev_from_half_pi", OptimizerConfig(max_evals=30, seed=7))
        best = fam.build(np.array(report.best_shape), report.best_scale)
        simple, _ = is_simple(best)
        assert simple
        assert abs(arc_length(best).value - FOUR_PI) <= 1e-4

    def test_default_search_path_value(self):
        # pins the simplex path: any change to the order of evaluated shapes
        # moves this value. The reference is bisection calibration to
        # |L - 4pi| <= 1e-12 on the same path, so it does not depend on
        # how the scale is rooted.
        report = minimize_functional(seam_seeded_family(3), "sup_dev_from_half_pi", OptimizerConfig(max_evals=60))
        assert report.best_value == pytest.approx(0.00593823985324482, rel=1e-9)

    def test_evaluator_warm_starts_from_the_last_scale(self, monkeypatch):
        family = seam_seeded_family(3)
        evaluate = make_candidate_evaluator(family, OptimizerConfig())
        calls = _count_arc_lengths(monkeypatch)
        first = evaluate(np.array(family.initial_shape))
        cold = len(calls)
        again = evaluate(np.array(family.initial_shape))
        # the cold call pre-scans the length model and confirms a Newton
        # root; the warm one starts at the root
        assert 1 <= cold <= 2 and len(calls) - cold == 1
        assert again == first

    def test_each_warm_candidate_takes_one_confirmed_arc_length(self, monkeypatch):
        family = seam_seeded_family(3)
        calls = _count_arc_lengths(monkeypatch)
        candidates = []  # (shape, (value, scale, residual), arc lengths taken)
        make_evaluator = make_candidate_evaluator

        def recording_factory(*args):
            evaluate = make_evaluator(*args)

            def recorded(shape):
                before = len(calls)
                result = evaluate(shape)
                candidates.append((np.array(shape), result, len(calls) - before))
                return result

            return recorded

        monkeypatch.setattr("arcdist.optimize.make_candidate_evaluator", recording_factory)
        minimize_functional(family, "sup_dev_from_half_pi", OptimizerConfig(max_evals=40))
        assert len(candidates) == 40
        # the first candidate roots cold, by pre-scan and Newton in the sign change
        assert 1 <= candidates[0][2] <= 2
        assert [taken for _, _, taken in candidates[1:]] == [1] * 39
        feasible = [(shape, scale, resid) for shape, (value, scale, resid), _ in candidates if math.isfinite(value)]
        assert len(feasible) > 30
        for shape, scale, resid in feasible:
            assert resid == abs(arc_length(family.build(shape, scale), SEARCH_RULE).value - FOUR_PI) <= CONSTRAINT_TOL

    @pytest.mark.parametrize("scale", [0.0, -0.1, math.nan, math.inf, True])
    def test_simplex_scale_must_be_positive_and_finite(self, scale):
        with pytest.raises(ValueError):
            OptimizerConfig(simplex_scale=scale)

    def test_converges_on_a_quadratic(self, monkeypatch):
        # a cheap stand-in objective reaches the simplex-diameter stop well
        # inside the budget
        target = np.array([0.3, -0.2, 0.1, 0.0, 0.25, -0.1])
        monkeypatch.setattr(
            "arcdist.optimize.make_candidate_evaluator",
            lambda family, config: lambda shape: (float(np.sum((shape - target) ** 2)), 1.0, 0.0),
        )
        report = minimize_functional(seam_seeded_family(2), config=OptimizerConfig(max_evals=5000))
        assert report.converged and report.warning is None
        # pins where the diameter stop ends the search
        assert report.evaluations == len(report.trace) == 386
        assert np.all(np.diff(report.trace) <= 0.0)
        assert np.allclose(report.best_shape, target, atol=1e-5)

    def test_failed_contraction_shrinks_toward_the_best_vertex(self, monkeypatch):
        # finite values on the k + 1 initial vertices, increasing so that x0
        # stays best, and +inf after: the reflection and the inside
        # contraction both fail, so the search shrinks
        family = seam_seeded_family(2)
        x0 = np.array(family.initial_shape)
        k = x0.size
        shapes = []

        def stub(family, config):
            def evaluate(shape):
                shapes.append(np.array(shape))
                return (float(len(shapes)) if len(shapes) <= k + 1 else math.inf), 1.0, 0.0

            return evaluate

        monkeypatch.setattr("arcdist.optimize.make_candidate_evaluator", stub)
        report = minimize_functional(family, config=OptimizerConfig(max_evals=2 * k + 3))
        assert report.evaluations == len(shapes) == 2 * k + 3 == 15
        vertices = x0 + OptimizerConfig().simplex_scale * np.eye(k)
        assert np.array_equal(np.array(shapes[k + 3 :]), x0 + 0.5 * (vertices - x0))
        assert report.best_value == 1.0 and report.best_shape == family.initial_shape

    def test_report_reads_the_candidate_log(self, monkeypatch):
        # the initial simplex's 7 candidates hold two equal minima (1.0 at the
        # third and fifth) and two infeasible ones at (inf, nan, inf); the
        # rest score 5.0 with the largest feasible residual
        family = seam_seeded_family(2)
        head = [(3.0, 1e-11), (math.inf, math.inf), (1.0, 2e-11), (math.inf, math.inf), (1.0, 3e-11), (2.0, 1e-11)]
        log = []

        def stub(family, config):
            def evaluate(shape):
                value, residual = head[len(log)] if len(log) < len(head) else (5.0, 4e-11)
                scale = math.nan if math.isinf(value) else 1.0 + 0.01 * len(log)
                log.append((np.array(shape), scale))
                return value, scale, residual

            return evaluate

        monkeypatch.setattr("arcdist.optimize.make_candidate_evaluator", stub)
        report = minimize_functional(family, config=OptimizerConfig(max_evals=12))
        assert report.evaluations == len(report.trace) == len(log) == 12
        assert report.trace == (3.0, 3.0) + (1.0,) * 10
        assert (report.initial_value, report.best_value, report.best_scale) == (3.0, 1.0, 1.02)
        assert np.array_equal(report.best_shape, log[2][0])
        assert report.max_constraint_residual == 4e-11
        best = family.build(log[2][0], 1.02)
        assert report.constraint_residual == abs(arc_length(best, default_curve_rule()).value - FOUR_PI)

    @pytest.mark.parametrize("k", [1, 2, 6, 9])
    def test_diameter_is_the_largest_pairwise_distance(self, k):
        rng = np.random.default_rng(k)
        for scale in (1e-7, 1e-3, 1.0):
            simplex = scale * rng.standard_normal((k + 1, k))
            pairwise = [np.linalg.norm(simplex[i] - simplex[j]) for i in range(k + 1) for j in range(i + 1, k + 1)]
            # the two sum a vertex gap's squares in different orders
            assert _diameter(simplex) == pytest.approx(max(pairwise), rel=1e-14)

    def test_bit_reproducible_for_fixed_config(self):
        cfg = OptimizerConfig(max_evals=25, seed=11)
        a = minimize_functional(seam_seeded_family(2), "sup_dev_from_half_pi", cfg)
        b = minimize_functional(seam_seeded_family(2), "sup_dev_from_half_pi", cfg)
        assert a == b

    def test_mean_min_objective_runs(self):
        report = minimize_functional(
            seam_seeded_family(2), "mean_min", OptimizerConfig(max_evals=10, seed=13)
        )
        assert report.evaluations == 10
        assert math.isfinite(report.best_value)

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(objective="simulated_annealing")

    @pytest.mark.parametrize(
        "setting",
        [
            {"max_evals": 0},
            {"max_evals": 2.5},
            {"max_evals": "40"},
            {"max_evals": True},
            {"seed": -1},
            {"seed": -1, "objective": "mean_min"},
            {"seed": 1.0},
            {"seed": None},
            {"seed": False},
        ],
    )
    def test_bad_settings_rejected_at_construction(self, setting):
        with pytest.raises(ValueError, match=next(iter(setting))):
            OptimizerConfig(**setting)

    def test_design_size_is_the_objective_design_not_a_setting(self):
        assert OptimizerConfig().design_size == OptimizerConfig.design_size == DESIGN_SIZE == 122
        with pytest.raises(TypeError):
            OptimizerConfig(design_size=61)
