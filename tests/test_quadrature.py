import math

import numpy as np
import pytest
from scipy.special import i0, roots_legendre

from arcdist import functionals
from arcdist.curves import tennis_ball_seam
from arcdist.functionals import mean_distance_field, point_to_curve_mean
from arcdist.optimize import SEARCH_RULE, calibrate_arc_length
from arcdist.quadrature import (
    NODE_CAP,
    RULE_KINDS,
    SPHERE_KINDS,
    TOLERANCE_NOT_REACHED,
    FunctionalResult,
    NonFiniteIntegrandError,
    QuadratureRule,
    _leggauss,
    _product_level,
    _product_grid,
    default_sphere_rule,
    integrate_1d,
    periodic_nodes,
    refinement_levels,
    sample_mean,
    sphere_integrate,
)
from arcdist.sphere import angles_to_xyz, random_rotation_matrix, uniform_unit_vectors

TWO_PI = 2.0 * math.pi


def _level_by_level(f, a, b, rule):
    """integrate_1d's doubling with one call of f a level, on that level's new
    nodes: (value, error estimate, nodes used, warning)."""
    total, used, prev = 0.0, 0, None
    for n in refinement_levels(rule):
        xs = periodic_nodes(a, b, n)
        new = xs if n == rule.n else xs[1::2]
        total += float(np.sum(np.asarray(f(new), dtype=float)))
        used += new.size
        cur = (b - a) * total / n
        if prev is not None:
            est = abs(cur - prev)
            if est <= rule.tol:
                return cur, est, used, None
        prev = cur
    return cur, est, used, TOLERANCE_NOT_REACHED


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
        "field, value",
        [("n", 128.5), ("n", "16"), ("n", None), ("n", True), ("seed", -2), ("seed", 1.5), ("seed", "0"), ("seed", True)],
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
        xs = periodic_nodes(0.0, TWO_PI, res.nodes_used)
        assert float(np.full(xs.size, TWO_PI / xs.size) @ f(xs)) == pytest.approx(res.value, rel=1e-14)

    @pytest.mark.parametrize(
        "rule, sizes",
        [
            (QuadratureRule("periodic_trapezoid", 8, 1.0), [16]),
            (QuadratureRule("periodic_trapezoid", 8, 1e-12), [16, 16, 32]),
        ],
        ids=["second_level", "fourth_level"],
    )
    def test_the_first_two_levels_take_one_call(self, rule, sizes):
        # f runs once on the second level's nodes, then once a level on its new nodes
        calls = []

        def f(t):
            calls.append(t.size)
            return np.exp(3.0 * np.cos(t))

        assert integrate_1d(f, 0.0, TWO_PI, rule).nodes_used == sum(sizes)
        assert calls == sizes

    @pytest.mark.parametrize(
        "case",
        ["seam_search_rule", "seam_default_rule", "bump_fourth_level", "seam_to_the_cap", "point_to_curve_mean"],
    )
    def test_same_bits_as_one_call_a_level(self, case, monkeypatch):
        # one call on the second level's nodes gives the two levels' sums bit
        # for bit: the first level's nodes are its even nodes exactly, and a
        # strided sum is the same pairwise sum (in the cap case over 2^14 of
        # 2^15 values, past numpy's 8192-entry buffers)
        seam = tennis_ball_seam()
        a, b = seam.domain.t_i, seam.domain.t_f
        if case == "point_to_curve_mean":
            seen = []
            real = functionals.integrate_1d
            monkeypatch.setattr(functionals, "integrate_1d", lambda f, *args: seen.append((f, *args)) or real(f, *args))
            point_to_curve_mean(seam, [0.36, 0.48, 0.8])
            (f, a, b, rule), = seen
        else:
            f, rule = {
                "seam_search_rule": (seam.speeds, SEARCH_RULE),
                "seam_default_rule": (seam.speeds, QuadratureRule()),
                "bump_fourth_level": (lambda t: np.exp(3.0 * np.cos(t)), QuadratureRule("periodic_trapezoid", 8, 1e-12)),
                "seam_to_the_cap": (seam.speeds, QuadratureRule("periodic_trapezoid", 2**14, 1e-300)),
            }[case]
        res = integrate_1d(f, a, b, rule)
        assert (res.value, res.error_estimate, res.nodes_used, res.warning) == _level_by_level(f, a, b, rule)

    @pytest.mark.parametrize("kind", ["gauss_legendre", "monte_carlo"])
    @pytest.mark.parametrize(
        "use", ["integrate_1d", "mean_distance_field", "calibrate_arc_length", "calibrate_arc_length_without_a_root"]
    )
    def test_curve_integral_under_a_sphere_rule_raises(self, kind, use):
        # curve integrals take only the periodic trapezoid, whatever reaches them;
        # a calibration refuses the rule before its length model can find no root
        rule = QuadratureRule(kind, 8, 1e-9)
        calls = []
        run = {
            "integrate_1d": lambda: integrate_1d(lambda t: calls.append(t) or np.cos(t), 0.0, TWO_PI, rule),
            "mean_distance_field": lambda: mean_distance_field(tennis_ball_seam(), np.eye(3), rule),
            "calibrate_arc_length": lambda: calibrate_arc_length(tennis_ball_seam, (0.1, 1.4), rule=rule),
            "calibrate_arc_length_without_a_root": lambda: calibrate_arc_length(tennis_ball_seam, (0.3, 0.5), rule=rule),
        }[use]
        with pytest.raises(ValueError, match="periodic_trapezoid"):
            run()
        assert calls == []


class TestSphereIntegrate:
    def test_area(self):
        res = sphere_integrate(lambda x: np.ones(len(x)), QuadratureRule("gauss_legendre", 128, 1e-10), antipodal_sum=2.0)
        assert res.value == pytest.approx(4.0 * math.pi, abs=1e-10)

    def test_product_level_of_z_squared(self):
        # z^2 is not antipodally balanced, so sphere_integrate refuses it a
        # product rule; the level itself still integrates it
        assert _product_level(lambda x: x[:, 2] ** 2, 128)[0] == pytest.approx(4.0 * math.pi / 3.0, abs=1e-10)

    def test_arccos_z(self):
        rule = QuadratureRule("gauss_legendre", 128, 1e-8)
        res = sphere_integrate(lambda x: np.arccos(x[:, 2]), rule, antipodal_sum=math.pi)
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
            return np.arccos(np.clip(x @ w, -1.0, 1.0))

        def g_rot(x):
            return np.arccos(np.clip((x @ R.T) @ w, -1.0, 1.0))

        rule = QuadratureRule("gauss_legendre", 64, 1e-9)
        r0 = sphere_integrate(g, rule, antipodal_sum=math.pi)
        r1 = sphere_integrate(g_rot, rule, antipodal_sum=math.pi)
        assert abs(r0.value - r1.value) <= r0.error_estimate + r1.error_estimate

    def test_without_antipodal_sum_a_product_rule_raises_before_any_call(self):
        # an unbalanced integrand takes monte_carlo, whose standard error is an error bar
        calls = []
        with pytest.raises(ValueError, match="antipodal_sum.*monte_carlo"):
            sphere_integrate(lambda x: calls.append(x) or np.ones(len(x)), default_sphere_rule())
        assert calls == []

    @pytest.mark.parametrize("kind", SPHERE_KINDS)
    @pytest.mark.parametrize("c", [math.nan, math.inf, "3.14", True], ids=["nan", "inf", "str", "bool"])
    def test_malformed_antipodal_sum_raises_before_any_call(self, kind, c):
        calls = []
        with pytest.raises(ValueError, match="antipodal_sum must be a finite real number"):
            sphere_integrate(lambda x: calls.append(x) or np.ones(len(x)), QuadratureRule(kind, 8, 1e-9), antipodal_sum=c)
        assert calls == []

    def test_product_points_match_angles_to_xyz_of_the_grid(self):
        # the integrand receives, byte for byte, angles_to_xyz of each
        # level's flattened (theta, phi) meshgrid
        seen = []

        def record(x):
            seen.append(x.copy())
            return np.ones(len(x))

        for n in (4, 8, 128, 256):
            sphere_integrate(record, QuadratureRule("gauss_legendre", n, 1.0), antipodal_sum=2.0)
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
        first = sphere_integrate(g, rule, antipodal_sum=math.pi)
        assert sphere_integrate(g, rule, antipodal_sum=math.pi) == first
        _product_grid.cache_clear()
        assert sphere_integrate(g, rule, antipodal_sum=math.pi) == first

    def test_an_integrand_cannot_write_into_the_shared_points(self):
        rule = QuadratureRule("gauss_legendre", 16, 1.0)
        g = lambda x: np.arccos(x[:, 2])
        before = sphere_integrate(g, rule, antipodal_sum=math.pi)

        def writes(x):
            x[:, 2] = 0.0
            return np.ones(len(x))

        with pytest.raises(ValueError, match="read-only"):
            sphere_integrate(writes, rule, antipodal_sum=2.0)
        assert sphere_integrate(g, rule, antipodal_sum=math.pi) == before

    def test_cache_holds_one_level(self):
        # a repeated level is the same read-only array; another level evicts it
        _product_grid.cache_clear()
        first = _product_grid(16)
        assert _product_grid(16) is first and not first.flags.writeable
        assert _product_grid.cache_info()[:4] == (1, 1, 1, 1)  # hits, misses, maxsize, currsize
        _product_grid(8)
        assert _product_grid(16) is not first
        assert _product_grid.cache_info()[:4] == (1, 3, 1, 1)

    @pytest.mark.parametrize(
        "rule", [QuadratureRule("gauss_legendre", 8, 1e-7), QuadratureRule("monte_carlo", 100, 1e-9)],
        ids=["product", "monte_carlo"],
    )
    def test_integrand_of_the_wrong_shape_raises(self, rule):
        for wrong in (lambda x: np.ones((len(x), 1)), lambda x: np.ones(3 * len(x)), lambda x: 1.0):
            with pytest.raises(ValueError, match="one value per point"):
                sphere_integrate(wrong, rule, antipodal_sum=1.0)

    @pytest.mark.parametrize("c", [None, 1.0])
    def test_trapezoid_rule_raises(self, c):
        calls = []
        with pytest.raises(ValueError, match="periodic_trapezoid"):
            sphere_integrate(
                lambda x: calls.append(x) or np.ones(len(x)), QuadratureRule("periodic_trapezoid", 8, 1e-9), antipodal_sum=c
            )
        assert calls == []

    def test_antipodally_balanced_integrands_are_exact_to_rounding(self):
        # arccos(q.x) + arccos(-q.x) = pi, and the product grid is antipodally
        # symmetric, so every level integrates it to 2 pi^2 up to rounding
        for q in uniform_unit_vectors(2024, 20):
            for n in (128, 256, 512):
                rule = QuadratureRule("gauss_legendre", n, 1.0)
                res = sphere_integrate(lambda x: np.arccos(np.clip(x @ q, -1.0, 1.0)), rule, antipodal_sum=math.pi)
                assert abs(res.value - 2.0 * math.pi**2) <= 1e-13


def _arc(angle, q):
    return lambda x: angle(np.clip(x @ q, -1.0, 1.0))


class TestAntipodalSum:
    """sphere_integrate(g, rule, antipodal_sum=c) for g(x) + g(-x) = c: one
    product level, and an error bound from its mirrored pairs."""

    # angle, antipodal sum, the integral 2 pi c of any q, unit or not
    ANGLES = [(np.arccos, math.pi, 2.0 * math.pi**2), (np.arcsin, 0.0, 0.0)]

    @pytest.mark.parametrize("n_theta", [64, 128, 256])
    @pytest.mark.parametrize("angle, c, exact", ANGLES, ids=["arccos", "arcsin"])
    def test_estimate_bounds_the_error(self, angle, c, exact, n_theta):
        # 200 random q, then 200 nodes of the level and their antipodes, on
        # which the square-root kink of arccos and arcsin at +-1 sits on a node
        grid = _product_grid(n_theta)
        nodes = grid[np.random.default_rng(n_theta).choice(len(grid), 200, replace=False)]
        rule = QuadratureRule("gauss_legendre", n_theta, 1.0)
        for q in np.concatenate((uniform_unit_vectors(2042, 200), nodes, -nodes)):
            res = sphere_integrate(_arc(angle, q), rule, antipodal_sum=c)
            assert abs(res.value - exact) <= res.error_estimate, q

    @pytest.mark.parametrize("n_theta", [3, 8, 64])
    def test_value_is_the_level_and_estimate_pairs_each_node_with_its_antipode(self, n_theta):
        q = _product_grid(n_theta)[n_theta + 1]
        g = _arc(np.arccos, q)
        res = sphere_integrate(g, QuadratureRule("gauss_legendre", n_theta, 1.0), antipodal_sum=math.pi)
        assert res.value == _product_level(g, n_theta)[0]
        assert res.nodes_used == 2 * n_theta**2
        # the mirror of node (i, j) is (n_theta - 1 - i, j + n_theta), at -x up to rounding
        points = _grid_by_angles(n_theta)
        mirror = np.roll(np.arange(len(points)).reshape(n_theta, -1)[::-1], n_theta, axis=1).ravel()
        assert np.max(np.abs(points[mirror] + points)) <= 4 * np.finfo(float).eps
        w = np.repeat(_leggauss(n_theta)[1], 2 * n_theta) * (TWO_PI / (2 * n_theta))
        vals = g(points)
        depth = n_theta + math.ceil(math.log2(2 * n_theta)) + 2
        expected = (
            0.5 * math.pi * abs(w.sum() - 4.0 * math.pi)
            + 0.5 * np.sum(w * np.abs(vals + vals[mirror] - math.pi))
            + depth * np.finfo(float).eps * np.sum(w * np.abs(vals))
        )
        assert res.error_estimate == pytest.approx(expected, rel=1e-9, abs=1e-14)

    def test_tolerance_below_the_estimate_warns(self):
        g = _arc(np.arcsin, np.array([0.36, 0.48, 0.8]))
        est = sphere_integrate(g, QuadratureRule("gauss_legendre", 64, 1.0), antipodal_sum=0.0).error_estimate
        for tol, warning in ((est, None), (est / 2, TOLERANCE_NOT_REACHED), (1e-300, TOLERANCE_NOT_REACHED)):
            res = sphere_integrate(g, QuadratureRule("gauss_legendre", 64, tol), antipodal_sum=0.0)
            assert (res.error_estimate, res.nodes_used, res.warning) == (est, 2 * 64**2, warning)

    def test_monte_carlo_ignores_it(self):
        g = _arc(np.arccos, np.array([0.36, 0.48, 0.8]))
        rule = QuadratureRule("monte_carlo", 1000, 1e-9, seed=7)
        ref = sample_mean(g(uniform_unit_vectors(7, 1000)), 4.0 * math.pi)
        assert sphere_integrate(g, rule, antipodal_sum=math.pi) == sphere_integrate(g, rule) == ref


NODE_COUNTS = [2, 3, 4, 5, 63, 128, 256, 362, 512, 724]


class TestGaussNodes:
    @pytest.mark.parametrize("n", [4, 64, 512])
    def test_match_numpy_leggauss(self, n):
        nodes, weights = _leggauss(n)
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(nodes - ref_nodes)) <= 1e-15
        assert np.max(np.abs(weights - ref_weights)) <= 1e-13

    @pytest.mark.parametrize("n", NODE_COUNTS)
    def test_ascending_and_exactly_symmetric(self, n):
        nodes, weights = _leggauss(n)
        assert nodes.shape == weights.shape == (n,)
        assert np.all(np.diff(nodes) > 0) and -1 < nodes[0] and nodes[-1] < 1
        assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
        if n % 2:
            assert nodes[n // 2] == 0.0

    @pytest.mark.parametrize("n", NODE_COUNTS)
    def test_even_moments_are_exact(self, n):
        # the n-node rule integrates every polynomial of degree < 2n exactly
        nodes, weights = _leggauss(n)
        assert abs(np.sum(weights) - 2.0) <= 1e-15
        for k in range(n):
            assert abs(np.sum(weights * nodes ** (2 * k)) - 2.0 / (2 * k + 1)) <= 1e-15, k

    @pytest.mark.parametrize("n", NODE_COUNTS)
    def test_match_scipy_roots_legendre(self, n):
        # scipy's own weights are off by up to 1.2e-13 at n = 724
        nodes, weights = _leggauss(n)
        ref_nodes, ref_weights = roots_legendre(n)
        assert np.max(np.abs(nodes - ref_nodes)) <= 1e-15
        assert np.max(np.abs(weights - ref_weights)) <= 2e-13

    @pytest.mark.parametrize("n", NODE_COUNTS)
    def test_read_only(self, n):
        nodes, weights = _leggauss(n)
        for array in (nodes, weights):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0


class TestNodeCap:
    """Every level fits under NODE_CAP; a curve rule whose second level, or a
    product rule whose one level, cannot fit is rejected before its integrand
    is called (counted, never run at that size)."""

    def test_levels_end_at_the_cap(self):
        assert refinement_levels(QuadratureRule("periodic_trapezoid", 2**19, 1e-9)) == [2**19, 2**20]
        assert refinement_levels(QuadratureRule("periodic_trapezoid", 4, 1e-9))[-1] == NODE_CAP

    @pytest.mark.parametrize(
        "rule, surface",
        [
            (QuadratureRule("gauss_legendre", 725, 1e-9), True),
            (QuadratureRule("gauss_legendre", 1024, 1e-9), True),
            (QuadratureRule("periodic_trapezoid", 2**20, 1e-9), False),
            (QuadratureRule("gauss_legendre", 2**19 + 1, 1e-9), False),
            # a numpy node count is taken as a Python int, so its levels' shifts cannot wrap
            (QuadratureRule("periodic_trapezoid", np.int64(2**62), 1e-9), False),
        ],
        ids=["sphere_725", "sphere_1024", "trapezoid_2^20", "gauss_2^19+1", "trapezoid_int64_2^62"],
    )
    def test_rule_over_the_cap_raises_before_any_call(self, rule, surface):
        calls = []

        def record(*args):
            calls.append(np.size(args[0]))
            return np.ones(len(args[0]))

        if surface:
            run = lambda: sphere_integrate(record, rule, antipodal_sum=2.0)
        else:
            with pytest.raises(ValueError, match="above the cap"):
                refinement_levels(rule)
            run = lambda: integrate_1d(record, 0.0, 1.0, rule)
        with pytest.raises(ValueError, match="above the cap"):
            run()
        assert calls == []

    def test_sphere_takes_the_deepest_level_within_the_cap(self):
        # 2 n^2 nodes a level: 724 is the largest n_theta with 2 n^2 <= 2^20
        calls = []
        q = np.array([0.36, 0.48, 0.8])

        def distance_to_q(x):
            calls.append(len(x))
            return np.arccos(np.clip(x @ q, -1.0, 1.0))

        res = sphere_integrate(distance_to_q, QuadratureRule("gauss_legendre", 724, 1e-300), antipodal_sum=math.pi)
        assert calls == [res.nodes_used] == [2 * 724**2]
        assert abs(res.value - 2.0 * math.pi**2) <= res.error_estimate
        _product_grid.cache_clear()  # frees the level's 25 MB of points


class TestSampleMean:
    def test_scaled_mean_and_standard_error(self):
        values = np.array([1.0, 2.0, 4.0, 7.0])
        res = sample_mean(values, 3.0)
        assert res.value == pytest.approx(3.0 * 3.5)
        assert res.error_estimate == pytest.approx(3.0 * np.std(values, ddof=1) / 2.0)
        assert res.nodes_used == 4
        assert res.warning is None
