import math
import os
import signal
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from arcdist import curves, functionals, optimize, verify
from arcdist.curves import great_circle, tennis_ball_seam, trig_series, wavy_circle
from arcdist.functionals import (
    _best_samples,
    _by_cores,
    _by_rows,
    _min_distance_batch,
    arcsin_identity_residual,
    curve_to_sphere_mean_M,
    el_residuals,
    mean_distance_field,
    mean_min_arc_distance,
    mean_point_to_sphere,
    point_to_curve_mean,
    point_to_curve_min,
    sphere_to_curve_mean,
    sup_deviation_from_half_pi,
)
from arcdist.quadrature import (
    QuadratureRule,
    _product_grid,
    default_curve_rule,
    default_sphere_rule,
    integrate_1d,
    periodic_nodes,
    sphere_integrate,
)
from arcdist.sphere import SpherePoint, random_rotation_matrix, uniform_unit_vectors

HALF_PI = 0.5 * math.pi
TWO_PI_SQ = 2.0 * math.pi**2
FOUR_PI = 4.0 * math.pi


class TestMeanPointToSphere:
    def test_pole_and_axis(self):
        assert mean_point_to_sphere(np.array([0.0, 0.0, 1.0])).value == pytest.approx(HALF_PI, abs=1e-8)
        assert mean_point_to_sphere(np.array([1.0, 0.0, 0.0])).value == pytest.approx(HALF_PI, abs=1e-8)

    def test_constant_over_100_random_directions(self):
        values = np.array([mean_point_to_sphere(q).value for q in uniform_unit_vectors(31, 100)])
        assert np.max(np.abs(values - HALF_PI)) <= 1e-6
        assert values.max() - values.min() < 1e-6

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            mean_point_to_sphere(np.array([0.5, 0.0, 0.0]))


class TestArcsinIdentity:
    def test_pole_odd_symmetry(self):
        assert abs(arcsin_identity_residual(np.array([0.0, 0.0, 1.0])).value) <= 1e-10

    def test_equatorial_direction(self):
        assert abs(arcsin_identity_residual(np.array([1.0, 0.0, 0.0])).value) <= 1e-8

    def test_random_directions(self):
        for q in uniform_unit_vectors(32, 20):
            assert abs(arcsin_identity_residual(q).value) <= 1e-6

    def test_estimates_bound_verify_row_2s_residuals(self):
        # the integral is 0, so each residual is its own error; a difference
        # of two levels read below it for 14 of these 20 q
        for q in uniform_unit_vectors(verify.SEED + 200, 20):
            res = arcsin_identity_residual(q)
            assert abs(res.value) <= res.error_estimate


class TestCurveToSphereMean:
    def test_any_4pi_curve_gives_two_pi_squared(self):
        res = curve_to_sphere_mean_M(great_circle((0.0, 2.0)))
        assert res.value == pytest.approx(TWO_PI_SQ, abs=1e-8)

    def test_linear_in_length(self):
        res = curve_to_sphere_mean_M(great_circle((0.0, 1.0)))
        assert res.value == pytest.approx(math.pi**2, abs=1e-8)

    def test_seam(self):
        res = curve_to_sphere_mean_M(tennis_ball_seam(0.7037))
        assert res.value == pytest.approx(TWO_PI_SQ, abs=5e-3)

    def test_requires_closed_curve(self):
        with pytest.raises(ValueError):
            curve_to_sphere_mean_M(great_circle((0.0, 0.5)))


class TestPointToCurveMean:
    def test_great_circle_field_is_constant(self):
        gc = great_circle((0.0, 2.0))
        for q in uniform_unit_vectors(33, 50):
            res = point_to_curve_mean(gc, q, default_curve_rule(tol=1e-10))
            assert res.value == pytest.approx(HALF_PI, abs=1e-8)

    def test_wavy_value_at_displaced_pole_point(self):
        res = point_to_curve_mean(wavy_circle(0.1856), SpherePoint(0.0, 1.0), default_curve_rule(tol=1e-10))
        assert res.value == pytest.approx(0.75 * math.pi, abs=1e-4)

    def test_latitude_circle_from_pole_is_exact(self):
        lat = trig_series(theta0=1.1, phi_slope=1.0, domain=(0.0, 2.0 * math.pi))
        res = point_to_curve_mean(lat, SpherePoint(0.0, 0.0))
        assert res.value == pytest.approx(1.1, abs=1e-12)


class TestSphereToCurveMean:
    def test_constant_field_integrates_to_area_times_value(self):
        # the great-circle field is identically pi/2, so the integral is 4pi * pi/2
        res = sphere_to_curve_mean(great_circle((0.0, 2.0)))
        assert res.value == pytest.approx(FOUR_PI * HALF_PI, abs=1e-8)

    def test_seam(self):
        res = sphere_to_curve_mean(tennis_ball_seam(0.7037))
        assert res.value == pytest.approx(TWO_PI_SQ, rel=5e-2)

    def test_integral_is_curve_independent(self):
        # Fubini: swapping the parameter mean with the surface integral
        # reduces the inner integral to the constant point-to-sphere mean,
        # so the value is 2 pi^2 for EVERY curve, wavy circle included.
        for curve in (wavy_circle(0.28624), wavy_circle(0.1856), tennis_ball_seam(0.5)):
            res = sphere_to_curve_mean(curve)
            assert res.value == pytest.approx(TWO_PI_SQ, abs=1e-9)

    def test_default_rule_is_the_default_sphere_rule(self):
        # the one default surface rule, warning included
        seam = tennis_ball_seam(0.7037)
        assert sphere_to_curve_mean(seam) == sphere_to_curve_mean(seam, default_sphere_rule())

    def test_nodes_used_counts_every_level(self):
        # the balanced field takes the one level n_theta = 128, of 2 n_theta^2 product nodes
        res = sphere_to_curve_mean(tennis_ball_seam(0.7037), QuadratureRule("gauss_legendre", 128, 1e-6))
        assert res.nodes_used == 2 * 128**2

    @pytest.mark.parametrize("n_theta", [64, 128])
    def test_estimate_bounds_the_error(self, n_theta):
        # field(x) + field(-x) = pi for every curve, so the integral is 2 pi^2
        rng = np.random.default_rng(2042)
        curve_list = [
            optimize.scale_family(tennis_ball_seam()).calibrate(()).curve,
            optimize.scale_family(wavy_circle()).calibrate(()).curve,
            great_circle((0.0, 2.0)),
        ]
        for _ in range(3):
            coeffs = 0.25 * rng.standard_normal(9)
            curve_list.append(trig_series(coeffs[:3], coeffs[3:6], coeffs[6:], phi_slope=0.5))
        rule = QuadratureRule("gauss_legendre", n_theta, 1e-6)
        for curve in curve_list:
            res = sphere_to_curve_mean(curve, rule)
            assert abs(res.value - TWO_PI_SQ) <= res.error_estimate
            assert res.nodes_used == 2 * n_theta**2 and res.warning is None

    def test_monte_carlo_error_estimate_positive(self):
        res = sphere_to_curve_mean(tennis_ball_seam(0.7037), QuadratureRule("monte_carlo", 2000, 1e-9, seed=5))
        assert res.error_estimate > 0
        assert res.value == pytest.approx(TWO_PI_SQ, abs=4 * res.error_estimate)


def test_wavy_field_dips_below_half_pi_at_south_pole():
    # measured behavior: the pointwise bound "field >= pi/2 for 4pi curves"
    # fails for the calibrated wavy circle; it hugs colatitude 3pi/4, so the
    # south pole sees mean distance pi - 3pi/4 = pi/4 (the amplitude term
    # averages out)
    wv = wavy_circle(0.2862413)
    res = point_to_curve_mean(wv, SpherePoint(math.pi, 0.0))
    assert res.value == pytest.approx(math.pi / 4, abs=1e-8)


def test_field_minimum_near_half_pi_for_great_circle_and_seam():
    for c in (great_circle((0.0, 2.0)), tennis_ball_seam(0.7037)):
        sup, _ = sup_deviation_from_half_pi(c)
        assert sup <= 0.05  # field stays within 0.05 of pi/2 everywhere sampled


def test_sup_deviation_is_deterministic():
    a, pa = sup_deviation_from_half_pi(tennis_ball_seam(0.7037))
    b, pb = sup_deviation_from_half_pi(tennis_ball_seam(0.7037))
    assert a == b and np.array_equal(pa, pb)
    assert 0.0 < a < 0.05


def test_sup_deviation_design_is_built_once():
    design = functionals._design()
    assert design is functionals._design()
    assert design.shape == (functionals.DESIGN_SIZE, 3) == (122, 3)
    assert not design.flags.writeable


class TestPointToCurveMin:
    def test_point_on_curve(self):
        seam = tennis_ball_seam(0.7037)
        t_star = 3.7
        x, y, z = seam.positions([t_star])[0]
        norm = math.sqrt(x * x + y * y + z * z)
        p = np.array([x / norm, y / norm, z / norm])
        d, t = point_to_curve_min(seam, p)
        assert d <= 1e-8
        assert min(abs(t - t_star), seam.domain.period - abs(t - t_star)) <= 1e-3

    def test_great_circle_against_analytic_and_brute_force(self):
        gc = great_circle((0.0, 2.0))
        rng = np.random.default_rng(35)
        ts = 2.0 * np.arange(1_000_000) / 1_000_000
        pts = gc.positions(ts)
        for _ in range(5):
            q = rng.normal(size=3)
            q /= np.linalg.norm(q)
            d, _ = point_to_curve_min(gc, q)
            # the circle lies in the xz-plane; its poles are +-y
            analytic = abs(HALF_PI - math.acos(max(-1.0, min(1.0, q[1]))))
            assert d == pytest.approx(analytic, abs=1e-8)
            brute = float(np.arccos(np.clip(pts @ q, -1, 1)).min())
            assert d <= brute + 1e-12

    def test_wavy_minimum_from_north_pole(self):
        d, _ = point_to_curve_min(wavy_circle(0.1856), SpherePoint(0.0, 0.0))
        assert d == pytest.approx(0.75 * math.pi - 0.1856, abs=1e-6)

    @pytest.mark.parametrize("n_scan", [8, 100.5, True])
    def test_scan_count_validated(self, n_scan):
        with pytest.raises(ValueError, match="n_scan must be an integer >= 64"):
            point_to_curve_min(great_circle(), np.array([0.0, 0.0, 1.0]), n_scan=n_scan)

    def test_min_never_exceeds_mean(self):
        rng = np.random.default_rng(36)
        for i in range(10):
            c = tennis_ball_seam(0.2 + rng.random())
            q = uniform_unit_vectors(100 + i, 1)[0]
            dmin, _ = point_to_curve_min(c, q)
            assert dmin <= point_to_curve_mean(c, q).value + 1e-9


_REFINED_CURVES = pytest.mark.parametrize(
    "curve",
    [
        great_circle(),
        tennis_ball_seam(0.7037),
        wavy_circle(0.286241),
        trig_series(theta_cos=[0.3, -0.1], theta_sin=[0.0, 0.2], phi_sin=[0.4, 0.0, 0.1]),
        tennis_ball_seam(0.7037).rotated(random_rotation_matrix(11)),
    ],
    ids=["great_circle", "seam", "wavy", "trig_series", "rotated_seam"],
)


class TestNearestRefinement:
    """The Newton-bisection refinement behind _min_distance_batch."""

    @staticmethod
    def _count_passes(monkeypatch):
        """Record, per refinement call, its number of passes (second-rate series
        evaluations) and the rows those passes evaluated."""
        passes, rows = [], []
        series, refine = curves._series_angles, functionals._nearest_parameters

        def counting_series(s, ts, rates=0, grid=None):
            if rates == 2:
                passes[-1] += 1
                rows[-1] += len(ts)
            return series(s, ts, rates, grid)

        def counting_refine(*args):
            passes.append(0)
            rows.append(0)
            return refine(*args)

        monkeypatch.setattr(curves, "_series_angles", counting_series)
        monkeypatch.setattr(functionals, "_nearest_parameters", counting_refine)
        return passes, rows

    @_REFINED_CURVES
    def test_never_above_a_fine_scan(self, curve):
        pts = uniform_unit_vectors(17, 2_000)
        d, _ = _min_distance_batch(curve, pts, 4096)
        dom = curve.domain
        C = curve.positions(dom.t_i + dom.period * np.arange(1 << 16) / (1 << 16))
        best_dot = _by_rows(pts, 1 << 16, lambda P: np.max(P @ C.T, axis=1), float)
        assert np.max(d - np.arccos(np.clip(best_dot, -1.0, 1.0))) <= 1e-12

    @pytest.mark.parametrize("case", ["point_curve", "great_circle_poles"])
    def test_flat_targets_stop_in_one_pass(self, monkeypatch, case):
        # f' is 0 for every t: the point curve does not move, and the doubled
        # great circle keeps the same distance pi/2 from its poles +-y.
        if case == "point_curve":
            curve = trig_series(theta0=0.0, phi_slope=1.0, domain=(0.0, 2.0 * math.pi))
            pts = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-0.6, 0.8, 0.0]])
        else:
            curve = great_circle()
            pts = np.array([[0.0, 1.0, 0.0], [0.0, -1.0, 0.0]])
        passes, _ = self._count_passes(monkeypatch)
        d, _ = _min_distance_batch(curve, pts, 256)
        assert passes == [1]
        assert np.all(d == HALF_PI)

    def test_seam_needs_few_passes_per_block(self, monkeypatch):
        # The start, the maximum of the degree-6 polynomial through the best
        # scan sample and three neighbours each side, lies about 1e-13 from
        # the curve's at 4096 samples, so every row's first Newton step is
        # below the stopping step; from the best sample Newton takes 3 passes,
        # and bisection alone about 25 to shrink a 2-sample bracket to 1e-10.
        passes, rows = self._count_passes(monkeypatch)
        _min_distance_batch(tennis_ball_seam(0.7037), uniform_unit_vectors(29, 10_000), 4096)
        assert passes == [1] * 5 and sum(rows) == 10_000

    @pytest.mark.parametrize(
        "curve",
        [wavy_circle(0.286241), trig_series(theta_cos=[0.3, -0.1], theta_sin=[0.0, 0.2], phi_sin=[0.4, 0.0, 0.1])],
        ids=["wavy", "trig_series"],
    )
    def test_one_pass_per_block_at_4096_samples(self, monkeypatch, curve):
        passes, rows = self._count_passes(monkeypatch)
        _min_distance_batch(curve, uniform_unit_vectors(29, 10_000), 4096)
        assert passes == [1] * 5 and sum(rows) == 10_000

    @pytest.mark.parametrize(
        "curve, pts, n_scan",
        [
            (
                trig_series(theta0=0.0, phi_slope=1.0, domain=(0.0, 2.0 * math.pi)),
                np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-0.6, 0.8, 0.0]]),
                256,
            ),
            (great_circle(), np.array([[0.0, 1.0, 0.0], [0.0, -1.0, 0.0]]), 256),
            (wavy_circle(0.7), uniform_unit_vectors(31, 2_000), 4096),
            (wavy_circle(0.7), uniform_unit_vectors(31, 2_000), 64),
            (tennis_ball_seam(0.7037), uniform_unit_vectors(31, 2_000), 64),
        ],
        ids=["point_curve", "great_circle_poles", "wavy_0.7", "wavy_0.7_64", "seam_64"],
    )
    def test_every_start_lies_within_a_spacing_of_its_sample(self, monkeypatch, curve, pts, n_scan):
        starts = []
        refine = functionals._nearest_parameters

        def recording_refine(curve, targets, centers, half_width, start):
            starts.append((centers, half_width, start))
            return refine(curve, targets, centers, half_width, start)

        monkeypatch.setattr(functionals, "_nearest_parameters", recording_refine)
        _min_distance_batch(curve, pts, n_scan)
        assert sum(len(c) for c, _, _ in starts) == len(pts)
        for centers, half_width, start in starts:
            assert half_width == curve.domain.period / n_scan
            assert np.all((centers - half_width <= start) & (start <= centers + half_width))

    def test_window_peak_finds_the_maximum_of_sampled_cosines(self):
        # Columns f_k = cos(h (k - x*)), k = -3..3: the degree-6 polynomial
        # through them peaks within O(h^7) of x*; a peak beyond a spacing is
        # clipped to it, and constant columns keep the sample.
        peaks = np.array([-0.93, -0.5, -0.1, 0.0, 0.27, 0.5, 0.81, 1.0])
        k = np.arange(-3, 4)[:, None]
        for h in (0.003, 0.05):
            x = functionals._window_peak(np.cos(h * (k - peaks)))
            assert np.max(np.abs(x - peaks)) <= 1e-9
        far = functionals._window_peak(np.cos(0.05 * (k - np.array([-2.5, 1.7]))))
        assert np.array_equal(far, [-1.0, 1.0])
        assert np.array_equal(functionals._window_peak(np.full((7, 3), 0.25)), np.zeros(3))

    def test_doubled_great_circle_takes_one_pass_per_block(self, monkeypatch):
        # A point's dot product with the great circle is A cos(2 pi t - c), so
        # the start misses its maximum by under 1e-10 in t, and the first
        # Newton step is already below the stopping step.
        passes, rows = self._count_passes(monkeypatch)
        _min_distance_batch(great_circle(), uniform_unit_vectors(29, 10_000), 4096)
        assert passes == [1] * 5 and sum(rows) == 10_000

    @_REFINED_CURVES
    def test_distance_is_taken_at_the_returned_parameter(self, curve):
        # The distance comes from the refinement's last evaluated parameter,
        # within 1e-10 of the returned one, where the dot product is flat to
        # second order; compared as dot products, which arccos does not amplify.
        pts = uniform_unit_vectors(17, 2_000)
        d, t = _min_distance_batch(curve, pts, 4096)
        dots = np.einsum("ij,ij->i", pts, curve.positions(t))
        assert np.max(np.abs(np.cos(d) - dots)) <= 1e-15

    @pytest.mark.parametrize(
        "curve, recorded",
        [
            (great_circle(), 0.563891213160686),
            (tennis_ball_seam(0.7037), 0.26416509923155107),
            (wavy_circle(0.286241), 0.6384099171173666),
            (trig_series(theta_cos=[0.3, -0.1], theta_sin=[0.0, 0.2], phi_sin=[0.4, 0.0, 0.1]), 0.4687951918115723),
        ],
        ids=["great_circle", "seam", "wavy", "trig_series"],
    )
    def test_mean_matches_the_recorded_values(self, curve, recorded):
        # Recorded with the refinement started at the best sample and the
        # distance taken from one more positions() call at the refined parameter.
        assert mean_min_arc_distance(curve, 10_000, seed=3, n_scan=4096).value == pytest.approx(recorded, abs=1e-13)


class _CountedSamples(np.ndarray):
    """Curve samples that append the entry count of each matrix product formed with them to `formed`."""

    def __array_finalize__(self, obj):
        self.formed = getattr(obj, "formed", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        out = getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)
        if ufunc is np.matmul:
            self.formed.append(out.size)
        return out


class TestBestSamples:
    """The pruned scan behind _min_distance_batch finds np.argmax(P @ C.T, axis=1)."""

    @staticmethod
    def _samples(curve, n_scan):
        dom = curve.domain
        return curve.positions(dom.t_i + dom.period * np.arange(n_scan) / n_scan)

    @pytest.mark.parametrize(
        "curve, n_scan, n_points",
        [
            (great_circle((0.0, 2.0)), 4096, 1000),
            (trig_series(theta0=0.0, phi_slope=1.0, domain=(0.0, 2.0 * math.pi)), 256, 1000),
            (tennis_ball_seam(0.7037).rotated(random_rotation_matrix(11)), 4096, 10_000),
            (tennis_ball_seam(0.7037), 64, 1000),
            (great_circle((0.0, 2.0)), 100, 1000),
            (wavy_circle(0.286241), 100, 1000),
            (trig_series(theta_cos=[0.3, -0.1], theta_sin=[0.0, 0.2], phi_sin=[0.4, 0.0, 0.1]), 4097, 1000),
            (tennis_ball_seam(0.7037), 4096, 1),
        ],
        ids=[
            "doubled_great_circle",
            "point_curve",
            "rotated_seam",
            "seam_64",
            "doubled_great_circle_100",
            "wavy_100",
            "trig_series_4097",
            "one_point",
        ],
    )
    def test_same_bytes_as_the_full_argmax(self, curve, n_scan, n_points):
        C = self._samples(curve, n_scan)
        pts = uniform_unit_vectors(23, n_points)
        if n_points > 1:
            # Points within about 0.01 of the curve, whose nearest sample often
            # lies in an arc other than the nearest centre's, and the doubled
            # great circle's poles +-y, where every sample ties at dot product 0.
            near = self._samples(curve, 2000) + 0.01 * np.random.default_rng(3).standard_normal((2000, 3))
            near /= np.linalg.norm(near, axis=1)[:, None]
            pts = np.vstack([[0.0, 1.0, 0.0], [0.0, -1.0, 0.0], pts, near])
        full = _by_rows(pts, n_scan, lambda P: np.argmax(P @ C.T, axis=1), np.int64)
        best = _best_samples(C)(pts)
        assert best.tobytes() == full.tobytes()

    def test_ties_go_to_the_first_sample(self):
        poles = np.array([[0.0, 1.0, 0.0], [0.0, -1.0, 0.0]])
        assert _best_samples(self._samples(great_circle((0.0, 2.0)), 4096))(poles).tolist() == [0, 0]
        point_curve = trig_series(theta0=0.0, phi_slope=1.0, domain=(0.0, 2.0 * math.pi))
        assert not _best_samples(self._samples(point_curve, 256))(uniform_unit_vectors(23, 1000)).any()

    def test_forms_under_a_quarter_of_the_entries(self):
        # 10,000 points x 4096 samples: a full scan forms 40.96M dot products.
        C = self._samples(tennis_ball_seam(0.7037), 4096).view(_CountedSamples)
        C.formed = []
        pts = uniform_unit_vectors(29, 10_000)
        best = _best_samples(C)(pts)
        assert sum(C.formed) < 10_000 * 4096 / 4
        full = _by_rows(pts, 4096, lambda P: np.argmax(P @ np.asarray(C).T, axis=1), np.int64)
        assert best.tobytes() == full.tobytes()


class TestMeanMinArcDistance:
    def test_great_circle_closed_form(self):
        res = mean_min_arc_distance(great_circle((0.0, 2.0)), 100_000, seed=0)
        assert abs(res.value - (HALF_PI - 1.0)) <= 3.0 * res.error_estimate

    def test_degenerate_point_curve(self):
        point_curve = trig_series(theta0=0.0, phi_slope=1.0, domain=(0.0, 2.0 * math.pi))
        res = mean_min_arc_distance(point_curve, 10_000, seed=3, n_scan=256)
        assert abs(res.value - HALF_PI) <= 3.0 * res.error_estimate

    def test_seam_beats_great_circle(self):
        # recorded comparison; no reference value exists for the seam
        seam_val = mean_min_arc_distance(tennis_ball_seam(0.7037), 20_000, seed=4).value
        assert seam_val < HALF_PI - 1.0

    @pytest.mark.parametrize("n_points", [10, 150.5, True])
    def test_sample_count_validated(self, n_points):
        with pytest.raises(ValueError, match="n_points must be an integer >= 100"):
            mean_min_arc_distance(great_circle(), n_points=n_points)

    def test_scan_count_validated(self):
        with pytest.raises(ValueError, match="n_scan must be an integer >= 64"):
            mean_min_arc_distance(great_circle(), n_points=1000, n_scan=32)

    @pytest.mark.parametrize("seed", [1.5, True, -1])
    def test_seed_validated(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            mean_min_arc_distance(great_circle(), n_points=100, seed=seed)


class TestELResiduals:
    def test_zero_colatitude_solution(self):
        p = SpherePoint(0.9, 2.0)
        res = el_residuals(0.0, p.phi - HALF_PI, p)
        assert res.res_theta == pytest.approx(0.0, abs=1e-15)
        assert res.res_phi == pytest.approx(0.0, abs=1e-15)

    def test_pi_colatitude_solution(self):
        p = SpherePoint(1.2, 4.0)
        res = el_residuals(math.pi, p.phi + HALF_PI, p)
        assert abs(res.res_theta) <= 1e-14
        assert abs(res.res_phi) <= 1e-14

    def test_polar_observation_point(self):
        p = SpherePoint(0.0, 0.0)
        for theta in (0.3, 1.0, 2.2):
            for phi in (0.0, 1.0, 4.0):
                res = el_residuals(theta, phi, p)
                assert res.res_theta == pytest.approx(-math.sin(theta), abs=1e-15)
                assert res.res_phi == 0.0

    def test_discrete_solution_grid(self):
        p = SpherePoint(0.7, 5.1)
        for m in range(-2, 3):
            for k in range(-2, 3):
                res = el_residuals(m * math.pi, p.phi - (HALF_PI + k * math.pi), p)
                assert abs(res.res_theta) <= 1e-14
                assert abs(res.res_phi) <= 1e-14


def test_mean_distance_field_matches_direct_node_mean():
    # the field evaluates at the rule's stated node count without refinement
    seam = tennis_ball_seam(0.7037)
    pts = uniform_unit_vectors(37, 8)
    ts = FOUR_PI * np.arange(512) / 512
    ref = np.arccos(np.clip(pts @ seam.positions(ts).T, -1.0, 1.0)).mean(axis=1)
    assert mean_distance_field(seam, pts) == pytest.approx(ref, abs=1e-14)
    # and agrees with the refined pointwise functional to quadrature accuracy
    for v, q in zip(ref, pts):
        assert v == pytest.approx(point_to_curve_mean(seam, q).value, abs=1e-6)


class TestArcKernels:
    """Each arc-distance kernel takes its angle in place and clips only where a
    dot product leaves [-1, 1] (functionals._angles), with the bits of the
    clipped formula it replaces. Every test takes an input where no dot product
    leaves [-1, 1] (a product level, or a random point for the point-to-curve
    mean) and one where rounding pushes one past 1, so that only the clipped
    recomputation gives a finite value; it fails once that recomputation is
    removed. Warnings are errors: the in-place angle of a dot
    product past 1 must warn on no thread."""

    @pytest.fixture(autouse=True)
    def _warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @staticmethod
    def _field_reference(curve, points):
        """mean_distance_field's clipped formula, np.arccos(np.clip(P @ C.T, -1, 1)) @ w_mean,
        on the row blocks _by_rows cuts, and whether each block has a dot product past 1."""
        n = default_curve_rule().n
        C = curve.sample(n)[1]
        rows = functionals._block_rows(n)
        blocks = [points[s : s + rows] @ C.T for s in range(0, len(points), rows)]
        w_mean = np.full(n, curve.domain.period / n) / curve.domain.period
        field = [np.arccos(np.clip(A, -1.0, 1.0)) @ w_mean for A in blocks]
        return np.concatenate(field), [bool((A > 1.0).any()) for A in blocks]

    def test_field(self):
        seam = tennis_ball_seam(0.7037)
        on_nodes = seam.sample(512)[1]
        for points, past_one in ((_product_grid(64), False), (on_nodes, True)):
            ref, blocks_past_one = self._field_reference(seam, points)
            assert any(blocks_past_one) == past_one
            assert np.array_equal(mean_distance_field(seam, points), ref)

    def test_field_recomputes_a_block_on_a_worker_thread(self, monkeypatch):
        # 512 rows in four blocks of 128, over two cores: the calling thread takes
        # the first two blocks and a worker the last two, which alone hold points
        # on the curve's nodes. The worker's arccos must not warn either.
        monkeypatch.setattr(functionals, "_usable_cores", lambda: 2)
        seam = tennis_ball_seam(0.7037)
        points = np.concatenate([uniform_unit_vectors(41, 256), seam.sample(512)[1][:256]])
        ref, blocks_past_one = self._field_reference(seam, points)
        assert blocks_past_one == [False, False, True, True]
        runs, submit = [], functionals.ThreadPoolExecutor.submit

        def recording_submit(pool, fn, *rows):
            runs.append(rows)
            return submit(pool, fn, *rows)

        monkeypatch.setattr(functionals.ThreadPoolExecutor, "submit", recording_submit)
        assert np.array_equal(mean_distance_field(seam, points), ref)
        assert runs == [(256, 512)]

    @pytest.mark.parametrize(
        "kernel, angle, scale",
        [(mean_point_to_sphere, np.arccos, FOUR_PI), (arcsin_identity_residual, np.arcsin, 1.0)],
        ids=["arccos", "arcsin"],
    )
    def test_point_integrals(self, kernel, angle, scale):
        # the one level n_theta = 128; q from it, whose dot product with
        # itself rounds above 1
        rule = QuadratureRule("gauss_legendre", 128, 1e-7)
        for q, past_one in ((uniform_unit_vectors(43, 1)[0], False), (_product_grid(128)[6660], True)):
            assert (_product_grid(128) @ q > 1.0).any() == past_one
            balance = math.pi if angle is np.arccos else 0.0
            ref = sphere_integrate(lambda x: angle(np.clip(x @ q, -1.0, 1.0)), rule, antipodal_sum=balance)
            res = kernel(q, rule)
            assert ref.nodes_used == res.nodes_used == 2 * 128**2
            assert np.array_equal([res.value, res.error_estimate], [ref.value / scale, ref.error_estimate / scale])

    def test_point_to_curve_mean(self):
        seam = tennis_ball_seam(0.7037)
        dom, rule = seam.domain, default_curve_rule()
        r = seam.positions(periodic_nodes(dom.t_i, dom.t_f, rule.n))
        for p, past_one in ((uniform_unit_vectors(47, 1)[0], False), (r[6], True)):
            assert (r @ p > 1.0).any() == past_one
            ref = integrate_1d(lambda t: np.arccos(np.clip(seam.positions(t) @ p, -1.0, 1.0)), dom.t_i, dom.t_f, rule)
            assert np.array_equal(point_to_curve_mean(seam, p, rule).value, ref.value / dom.period)

    def test_nearest_distance(self, monkeypatch):
        # the distance is the clipped arccos of the refinement's last dot product
        seam = tennis_ball_seam(0.7037)
        dots, refine = [], functionals._nearest_parameters

        def recording_refine(*args):
            t, f = refine(*args)
            dots.append(f.copy())
            return t, f

        monkeypatch.setattr(functionals, "_nearest_parameters", recording_refine)
        for points, past_one in ((_product_grid(16), False), (seam.sample(4096)[1][::8], True)):
            dots.clear()
            d, _ = _min_distance_batch(seam, points, 4096)
            f = np.concatenate(dots)
            assert (f > 1.0).any() == past_one
            assert np.array_equal(d, np.arccos(np.clip(f, -1.0, 1.0)))


class TestRowBlocks:
    """The points x nodes kernel runs in row blocks of at most _CHUNK_ENTRIES entries
    (one row when a row alone holds more)."""

    @pytest.mark.parametrize("n_nodes", [1, 256, 512, 700, 4096, 1 << 17])
    def test_no_block_passes_the_cap(self, n_nodes):
        rows = []

        def reduce(P):
            rows.append(len(P))
            return np.zeros(len(P))

        _by_rows(np.zeros((20_000, 3)), n_nodes, reduce, float)
        assert sum(rows) == 20_000
        assert max(rows) <= max(1, functionals._CHUNK_ENTRIES // n_nodes)

    def test_nearest_point_arrays_are_the_same_with_one_row_blocks(self, monkeypatch):
        pts = uniform_unit_vectors(3, 600)
        for curve in (tennis_ball_seam(0.7037), wavy_circle(0.286241)):
            d0, t0 = _min_distance_batch(curve, pts, 4096)
            refine, block_rows = functionals._nearest_parameters, []

            def recording_refine(curve, targets, centers, half_width, starts):
                block_rows.append(len(targets))
                return refine(curve, targets, centers, half_width, starts)

            with monkeypatch.context() as m:
                m.setattr(functionals, "_CHUNK_ENTRIES", 1)
                m.setattr(functionals, "_nearest_parameters", recording_refine)
                d1, t1 = _min_distance_batch(curve, pts, 4096)
            # the scan and the refinement both ran one row at a time
            assert block_rows == [1] * len(pts)
            assert d0.tobytes() == d1.tobytes() and t0.tobytes() == t1.tobytes()

    @pytest.mark.parametrize(
        "rule", [default_curve_rule(), default_curve_rule(n=128)], ids=["trapezoid_512", "trapezoid_128"]
    )
    def test_field_is_the_same_under_the_earlier_block_size(self, monkeypatch, rule):
        # 2^21 entries a block spill L2 and start BLAS threads, but give the same
        # bytes: both sizes cut these power-of-two rules' rows at multiples of 128,
        # which BLAS row tiles divide, so each row is summed the same way; a
        # 700-node rule cuts at 93 and 2995 rows and can differ by a few ulp.
        pts = uniform_unit_vectors(5, 20_000)
        seam = tennis_ball_seam(0.7037)
        f0 = mean_distance_field(seam, pts, rule)
        with monkeypatch.context() as m:
            m.setattr(functionals, "_CHUNK_ENTRIES", 1 << 21)
            f1 = mean_distance_field(seam, pts, rule)
        assert f0.tobytes() == f1.tobytes()

    def test_field_with_one_row_blocks_moves_only_by_rounding(self, monkeypatch):
        # A one-row product runs through other BLAS kernels, whose rounding
        # differs; the n-term weighted sum moves by at most ~2 n eps max|value|.
        pts = uniform_unit_vectors(5, 2_000)
        seam = tennis_ball_seam(0.7037)
        f0 = mean_distance_field(seam, pts)
        with monkeypatch.context() as m:
            m.setattr(functionals, "_CHUNK_ENTRIES", 1)
            f1 = mean_distance_field(seam, pts)
        assert np.max(np.abs(f0 - f1)) <= 2 * 512 * np.finfo(float).eps * math.pi


class TestFieldOnCores:
    """A field of two row blocks or more spreads runs of whole blocks over the
    usable cores; its bytes do not depend on the core count."""

    @pytest.mark.parametrize("cores", [1, 3, 5])
    def test_runs_are_whole_blocks_in_order(self, monkeypatch, cores):
        # 1000 rows in blocks of 64 (the last of 40), whatever the core count
        blocks = []

        def reduce(P):
            blocks.append((int(P[0, 0]), len(P)))
            return P[:, 0].copy()

        monkeypatch.setattr(functionals, "_usable_cores", lambda: cores)
        pts = np.repeat(np.arange(1000.0)[:, None], 3, axis=1)
        out = _by_cores(pts, 1 << 10, reduce)
        assert out.tobytes() == np.arange(1000.0).tobytes()
        assert sorted(blocks) == [(s, min(64, 1000 - s)) for s in range(0, 1000, 64)]

    @pytest.mark.parametrize("points", ["grid_256", "monte_carlo_8000"])
    def test_field_bytes_do_not_depend_on_the_core_count(self, monkeypatch, points):
        # 131,072 x 512 and 8,000 x 512 entries: 1024 and 63 blocks. More runs
        # than cores, with a short switch interval, interleave the threads often.
        pts = _product_grid(256) if points == "grid_256" else uniform_unit_vectors(7, 8000)
        seam = tennis_ball_seam(0.7037)
        field = mean_distance_field(seam, pts).tobytes()
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            for cores in (1, 3, 5):
                monkeypatch.setattr(functionals, "_usable_cores", lambda: cores)
                assert mean_distance_field(seam, pts).tobytes() == field
        finally:
            sys.setswitchinterval(interval)

    def test_one_block_field_starts_no_thread(self, monkeypatch):
        def refuse(thread):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(functionals, "_usable_cores", lambda: 4)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        seam = tennis_ball_seam(0.7037)
        # the optimizer's design at 256 nodes: 31,232 entries, one block
        sup, _ = sup_deviation_from_half_pi(seam, default_curve_rule(n=256))
        assert math.isfinite(sup)
        # the patch does catch the thread a two-block field starts
        with pytest.raises(AssertionError, match="a thread was started"):
            mean_distance_field(seam, uniform_unit_vectors(1, 300))

    def test_nearest_point_batch_starts_no_thread(self, monkeypatch):
        # The batch's blocks stay on the calling thread at any size: eval's
        # 10,000 points (5 blocks), a single point and the optimizer's
        # mean_min objective (1024 points, 1024 samples).
        def refuse(thread):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(functionals, "_usable_cores", lambda: 4)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        seam = tennis_ball_seam(0.7037)
        d, t = _min_distance_batch(seam, uniform_unit_vectors(5, 10_000), 4096)
        assert np.isfinite(d).all() and np.isfinite(t).all()
        assert math.isfinite(point_to_curve_min(seam, SpherePoint(0.3, 1.1))[0])
        assert math.isfinite(mean_min_arc_distance(seam, n_points=1024, n_scan=1024).value)

    def test_an_exception_on_a_worker_reaches_the_caller(self, monkeypatch):
        # 1000 rows in blocks of 64 over two runs: the worker's run holds the
        # rows from 512 on, and the calling thread's run finishes first
        def reduce(P):
            if P[0, 0] >= 512:
                raise FloatingPointError(f"block at row {int(P[0, 0])}")
            return P[:, 0].copy()

        monkeypatch.setattr(functionals, "_usable_cores", lambda: 2)
        pts = np.repeat(np.arange(1000.0)[:, None], 3, axis=1)
        with pytest.raises(FloatingPointError, match="block at row 512"):
            _by_cores(pts, 1 << 10, reduce)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_field_after_fork_matches_the_parent(self, monkeypatch, tmp_path):
        # The parent's multi-block field runs threads; a child forked after it
        # must start its own and finish, with the same bytes.
        monkeypatch.setattr(functionals, "_usable_cores", lambda: 2)
        seam = tennis_ball_seam(0.7037)
        pts = uniform_unit_vectors(11, 8000)
        field = mean_distance_field(seam, pts).tobytes()
        out = tmp_path / "child.bin"
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                out.write_bytes(mean_distance_field(seam, pts).tobytes())
                code = 0
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30.0
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish its field within 30 s")
        assert os.waitstatus_to_exitcode(done[1]) == 0
        assert out.read_bytes() == field
