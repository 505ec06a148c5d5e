import gc
import math
import weakref

import numpy as np
import pytest
from scipy.special import i0

from arcdist.curves import tennis_ball_seam
from arcdist.functionals import mean_distance_field
from arcdist.optimize import calibrate_arc_length
from arcdist.quadrature import (
    NODE_CAP,
    RULE_KINDS,
    TOLERANCE_NOT_REACHED,
    FunctionalResult,
    NonFiniteIntegrandError,
    QuadratureRule,
    _cached_grid,
    _leggauss,
    _product_grid,
    default_sphere_rule,
    integrate_1d,
    refinement_levels,
    rule_nodes,
    sample_mean,
    sphere_integrate,
)
from arcdist.sphere import angles_to_xyz, random_rotation_matrix

TWO_PI = 2.0 * math.pi


def _grid_by_angles(n_theta):
    """angles_to_xyz of the product level's flattened (theta, phi) meshgrid, row i * n_phi + j at (theta_i, phi_j)."""
    theta = np.arccos(_leggauss(n_theta)[0])
    phi = TWO_PI * np.arange(2 * n_theta) / (2 * n_theta)
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    return angles_to_xyz(th.ravel(), ph.ravel())


class TestRuleValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            QuadratureRule("simpson", 16, 1e-6)

    def test_bad_counts_and_tol(self):
        with pytest.raises(ValueError):
            QuadratureRule("gauss_legendre", 1, 1e-6)
        with pytest.raises(ValueError):
            QuadratureRule("gauss_legendre", 16, 0.0)

    @pytest.mark.parametrize("kind", RULE_KINDS)
    @pytest.mark.parametrize(
        "field, value", [("n", 128.5), ("n", "16"), ("n", None), ("seed", -2), ("seed", 1.5), ("seed", "0")]
    )
    def test_counts_and_seeds_must_be_integers_in_range(self, kind, field, value):
        # refused on construction, not where a level or a draw first uses them
        with pytest.raises(ValueError, match=f"{'node count' if field == 'n' else 'seed'} must be an integer >= "):
            QuadratureRule(kind, **{"n": 16, "tol": 1e-6, field: value})

    def test_numpy_integers_are_integers(self):
        rule = QuadratureRule("monte_carlo", np.int64(100), 1e-6, seed=np.uint32(3))
        assert sphere_integrate(lambda x: np.ones(len(x)), rule).nodes_used == 100

    def test_result_must_be_finite(self):
        with pytest.raises(ValueError):
            FunctionalResult(math.nan, 0.0, 4)
        with pytest.raises(ValueError):
            FunctionalResult(1.0, -1e-3, 4)


class TestIntegrate1D:
    def test_sin_squared(self):
        res = integrate_1d(lambda t: np.sin(t) ** 2, 0.0, TWO_PI, QuadratureRule("periodic_trapezoid", 64, 1e-12))
        assert res.value == pytest.approx(math.pi, abs=1e-12)

    def test_constant_exact(self):
        res = integrate_1d(lambda t: np.ones_like(t), 0.0, TWO_PI, QuadratureRule("periodic_trapezoid", 512, 1e-12))
        assert res.value == pytest.approx(TWO_PI, abs=1e-14)
        assert res.error_estimate <= 1e-14

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            integrate_1d(np.sin, 1.0, 1.0, QuadratureRule())

    def test_non_finite_integrand_raises(self):
        with pytest.raises(NonFiniteIntegrandError):
            integrate_1d(
                lambda t: np.where(t > 1.0, np.nan, 1.0), 0.0, 2.0, QuadratureRule("periodic_trapezoid", 4, 1e-6)
            )

    def test_tolerance_not_reached_flag(self):
        res = integrate_1d(
            lambda t: np.sqrt(np.abs(np.sin(t))), 0.0, TWO_PI, QuadratureRule("periodic_trapezoid", 512, 1e-15)
        )
        assert res.warning == TOLERANCE_NOT_REACHED
        assert res.nodes_used == NODE_CAP
        # the flagged value is still the best available one
        assert res.error_estimate < 1e-6

    def test_linearity(self):
        rule = QuadratureRule("periodic_trapezoid", 128, 1e-12)
        f = lambda t: np.exp(np.sin(t))
        g = lambda t: np.cos(t) ** 2
        lhs = integrate_1d(lambda t: 2.0 * f(t) - 3.0 * g(t), 0.0, TWO_PI, rule)
        rhs = 2.0 * integrate_1d(f, 0.0, TWO_PI, rule).value - 3.0 * integrate_1d(g, 0.0, TWO_PI, rule).value
        assert lhs.value == pytest.approx(rhs, abs=1e-11)

    def test_geometric_convergence_on_smooth_periodic(self):
        exact = TWO_PI * i0(1.0)
        errs = []
        for n in (4, 8, 16):
            ts = TWO_PI * np.arange(n) / n
            errs.append(abs(TWO_PI * np.mean(np.exp(np.sin(ts))) - exact))
        assert errs[1] < errs[0] / 4.0
        assert errs[2] < errs[1] / 4.0 or errs[2] < 1e-13

    def test_integrand_of_the_wrong_shape_raises(self):
        # integrands are called on the array of nodes; a scalar-only one is not evaluated node by node
        rule = QuadratureRule("periodic_trapezoid", 8, 1e-9)
        for wrong in (lambda t: np.ones((len(t), 1)), lambda t: np.ones(2 * len(t)), lambda t: math.sin(t[0])):
            with pytest.raises(ValueError, match="one value per point"):
                integrate_1d(wrong, 0.0, TWO_PI, rule)

    @pytest.mark.parametrize("tol", [1.0, 1e-6, 1e-12])
    def test_nodes_used_names_the_level_returned(self, tol):
        # a bump integrand takes the refinements one, two and several levels deep;
        # the levels nest, so the last one holds every node evaluated
        rule = QuadratureRule("periodic_trapezoid", 8, tol)
        f = lambda t: np.exp(3.0 * np.cos(t))
        res = integrate_1d(f, 0.0, TWO_PI, rule)
        xs, ws = rule_nodes(rule, 0.0, TWO_PI, res.nodes_used)
        assert float(ws @ f(xs)) == pytest.approx(res.value, rel=1e-14)

    @pytest.mark.parametrize("kind", ["gauss_legendre", "monte_carlo"])
    @pytest.mark.parametrize("use", ["integrate_1d", "mean_distance_field", "calibrate_arc_length"])
    def test_curve_integral_under_a_sphere_rule_raises(self, kind, use):
        # curve integrals take only the periodic trapezoid, whatever reaches them
        rule = QuadratureRule(kind, 8, 1e-9)
        calls = []
        run = {
            "integrate_1d": lambda: integrate_1d(lambda t: calls.append(t) or np.cos(t), 0.0, TWO_PI, rule),
            "mean_distance_field": lambda: mean_distance_field(tennis_ball_seam(), np.eye(3), rule),
            "calibrate_arc_length": lambda: calibrate_arc_length(tennis_ball_seam, (0.1, 1.4), rule=rule),
        }[use]
        with pytest.raises(ValueError, match="periodic_trapezoid"):
            run()
        assert calls == []


class TestSphereIntegrate:
    def test_area(self):
        res = sphere_integrate(lambda x: np.ones(len(x)), default_sphere_rule(tol=1e-10))
        assert res.value == pytest.approx(4.0 * math.pi, abs=1e-10)

    def test_z_squared(self):
        res = sphere_integrate(lambda x: x[:, 2] ** 2, default_sphere_rule(tol=1e-10))
        assert res.value == pytest.approx(4.0 * math.pi / 3.0, abs=1e-10)

    def test_arccos_z(self):
        res = sphere_integrate(lambda x: np.arccos(x[:, 2]), default_sphere_rule(tol=1e-8))
        assert res.value == pytest.approx(2.0 * math.pi**2, abs=1e-8)

    def test_monte_carlo_constant_is_exact(self):
        for seed in (0, 1, 99):
            res = sphere_integrate(lambda x: np.ones(len(x)), QuadratureRule("monte_carlo", 1000, 1e-9, seed=seed))
            assert res.value == 4.0 * math.pi
            assert res.error_estimate == 0.0

    def test_rotation_invariance(self):
        R = random_rotation_matrix(17)
        w = np.array([0.6, -0.64, 0.48])

        def g(x):
            return np.exp(x @ w)

        def g_rot(x):
            return np.exp((x @ R.T) @ w)

        rule = default_sphere_rule(n=64, tol=1e-9)
        r0 = sphere_integrate(g, rule)
        r1 = sphere_integrate(g_rot, rule)
        allowed = 3.0 * (r0.error_estimate + r1.error_estimate) + 1e-12
        assert abs(r0.value - r1.value) <= allowed

    def test_product_points_match_angles_to_xyz_of_the_grid(self):
        # Levels 4 and 8, then 128 and 256: the integrand receives, byte for
        # byte, angles_to_xyz of each level's flattened (theta, phi) meshgrid.
        seen = []

        def record(x):
            seen.append(x.copy())
            return np.ones(len(x))

        for n in (4, 128):
            sphere_integrate(record, QuadratureRule("gauss_legendre", n, 1.0))
        assert [len(x) for x in seen] == [2 * n * n for n in (4, 8, 128, 256)]
        for points in seen:
            assert points.tobytes() == _grid_by_angles(math.isqrt(len(points) // 2)).tobytes()

    @pytest.mark.parametrize("n_theta", [8, 128, 256])
    def test_cached_grid_is_read_only_angles_to_xyz_of_the_grid(self, n_theta):
        points = _product_grid(n_theta)
        assert not points.flags.writeable
        assert points.tobytes() == _grid_by_angles(n_theta).tobytes()
        y_on_meridian = points[:: 2 * n_theta, 1]
        assert np.all(y_on_meridian == 0.0) and not np.any(np.signbit(y_on_meridian))

    def test_same_bits_from_a_cached_and_a_fresh_grid(self):
        w = np.array([0.6, -0.64, 0.48])
        g = lambda x: np.arccos(np.clip(x @ w, -1.0, 1.0))
        rule = QuadratureRule("gauss_legendre", 32, 1e-12)
        first = sphere_integrate(g, rule)
        assert sphere_integrate(g, rule) == first
        _cached_grid.cache_clear()
        assert sphere_integrate(g, rule) == first

    def test_an_integrand_cannot_write_into_the_shared_points(self):
        rule = QuadratureRule("gauss_legendre", 16, 1.0)
        g = lambda x: x[:, 2] ** 2
        before = sphere_integrate(g, rule)

        def writes(x):
            x[:, 2] = 0.0
            return np.ones(len(x))

        with pytest.raises(ValueError, match="read-only"):
            sphere_integrate(writes, rule)
        assert sphere_integrate(g, rule) == before

    def test_cache_holds_two_levels(self):
        # a two-level integral finds both of its levels on the next call; a third level evicts the oldest
        _cached_grid.cache_clear()
        rule = QuadratureRule("gauss_legendre", 4, 1.0)
        for _ in range(2):
            sphere_integrate(lambda x: np.ones(len(x)), rule)
        assert _cached_grid.cache_info()[:4] == (2, 2, 2, 2)  # hits, misses, maxsize, currsize
        _product_grid(16)
        _product_grid(8)
        _product_grid(4)
        assert _cached_grid.cache_info()[:4] == (3, 4, 2, 2)

    def test_cache_keeps_no_level_above_n_theta_512(self):
        # the default rule's deepest level is cached; a rule from n = 362 refines
        # to n_theta = 724 (25 MB of points), which is freed after its call
        _cached_grid.cache_clear()
        assert _product_grid(512) is _product_grid(512)
        deep = []

        def theta(x):
            if len(x) == 2 * 724**2:
                deep.append(weakref.ref(x))
            return np.arccos(x[:, 2])

        sphere_integrate(theta, QuadratureRule("gauss_legendre", 362, 1e-300))
        gc.collect()
        assert len(deep) == 1 and deep[0]() is None
        assert _cached_grid.cache_info().currsize == 2
        assert not _product_grid(724).flags.writeable

    @pytest.mark.parametrize(
        "rule", [default_sphere_rule(n=8), QuadratureRule("monte_carlo", 100, 1e-9)], ids=["product", "monte_carlo"]
    )
    def test_integrand_of_the_wrong_shape_raises(self, rule):
        for wrong in (lambda x: np.ones((len(x), 1)), lambda x: np.ones(3 * len(x)), lambda x: 1.0):
            with pytest.raises(ValueError, match="one value per point"):
                sphere_integrate(wrong, rule)


    def test_trapezoid_rule_raises(self):
        calls = []
        with pytest.raises(ValueError, match="periodic_trapezoid"):
            sphere_integrate(lambda x: calls.append(x) or np.ones(len(x)), QuadratureRule("periodic_trapezoid", 8, 1e-9))
        assert calls == []


class TestGaussNodes:
    @pytest.mark.parametrize("n", [4, 64, 512])
    def test_match_numpy_leggauss(self, n):
        nodes, weights = _leggauss(n)
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(nodes - ref_nodes)) <= 1e-15
        assert np.max(np.abs(weights - ref_weights)) <= 1e-13


class TestNodeCap:
    """Every level fits under NODE_CAP; a rule whose second level cannot fit is
    rejected before its integrand is called (counted, never run at that size)."""

    def test_levels_end_at_the_cap(self):
        assert refinement_levels(QuadratureRule("periodic_trapezoid", 2**19, 1e-9)) == [2**19, 2**20]
        assert refinement_levels(QuadratureRule("gauss_legendre", 4, 1e-9))[-1] == NODE_CAP
        assert refinement_levels(default_sphere_rule(), surface=True) == [128, 256, 512]
        # 2 n^2 nodes a level: 724 is the largest n_theta with 2 n^2 <= 2^20
        assert refinement_levels(QuadratureRule("gauss_legendre", 362, 1e-9), surface=True) == [362, 724]

    @pytest.mark.parametrize(
        "rule, surface",
        [
            (QuadratureRule("gauss_legendre", 363, 1e-9), True),
            (QuadratureRule("gauss_legendre", 1024, 1e-9), True),
            (QuadratureRule("periodic_trapezoid", 2**20, 1e-9), False),
            (QuadratureRule("gauss_legendre", 2**19 + 1, 1e-9), False),
        ],
        ids=["sphere_363", "sphere_1024", "trapezoid_2^20", "gauss_2^19+1"],
    )
    def test_rule_over_the_cap_raises_before_any_call(self, rule, surface):
        calls = []

        def record(*args):
            calls.append(np.size(args[0]))
            return np.ones_like(args[0])

        with pytest.raises(ValueError, match="above the cap"):
            refinement_levels(rule, surface)
        with pytest.raises(ValueError, match="above the cap"):
            if surface:
                sphere_integrate(record, rule)
            else:
                integrate_1d(record, 0.0, 1.0, rule)
        assert calls == []

    def test_sphere_stops_at_the_last_level_within_the_cap(self):
        calls = []

        def theta(x):
            calls.append(len(x))
            return np.arccos(x[:, 2])

        res = sphere_integrate(theta, QuadratureRule("gauss_legendre", 362, 1e-300))
        assert calls == [2 * 362**2, 2 * 724**2]
        assert res.nodes_used == sum(calls)
        assert res.warning == TOLERANCE_NOT_REACHED


class TestSampleMean:
    def test_scaled_mean_and_standard_error(self):
        values = np.array([1.0, 2.0, 4.0, 7.0])
        res = sample_mean(values, 3.0)
        assert res.value == pytest.approx(3.0 * 3.5)
        assert res.error_estimate == pytest.approx(3.0 * np.std(values, ddof=1) / 2.0)
        assert res.nodes_used == 4
        assert res.warning is None
