import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from arcdist import quadrature
from arcdist.functionals import mean_point_to_sphere
from arcdist.sphere import (
    SpherePoint,
    angles_to_xyz,
    as_unit_xyz,
    fibonacci_sphere_points,
    geodesic_distance,
    random_rotation_matrix,
    require_integer,
    sample_sphere_angles,
    uniform_unit_vectors,
)

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)


def _unit(x: float, y: float, z: float) -> np.ndarray:
    norm = math.sqrt(x * x + y * y + z * z)
    return np.array([x / norm, y / norm, z / norm])


class TestSpherePoint:
    def test_rejects_colatitude_outside_range(self):
        with pytest.raises(ValueError):
            SpherePoint(-0.1, 0.0)
        with pytest.raises(ValueError):
            SpherePoint(math.pi + 0.1, 0.0)

    @given(st.floats(min_value=0.0, max_value=math.pi), finite)
    def test_longitude_normalized(self, theta, phi):
        p = SpherePoint(theta, phi)
        assert 0.0 <= p.phi < 2.0 * math.pi

    def test_negative_epsilon_longitude(self):
        # fp mod of a tiny negative rounds up to the period; must wrap to 0
        assert SpherePoint(1.0, -1e-18).phi == 0.0


class TestConversions:
    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="expected a unit vector"):
            as_unit_xyz(np.zeros(3))

    def test_nan_vector_rejected(self):
        with pytest.raises(ValueError, match="expected a unit vector"):
            as_unit_xyz([math.nan, 0.0, 0.0])

    @pytest.mark.parametrize(
        "v", [[1.0, 0.0], [0.6, 0.0, 0.8, 0.0], [[0.0, 0.0, 1.0]]], ids=["two", "unit_four", "one_row"]
    )
    def test_anything_but_a_3_vector_rejected(self, v):
        # each norm is 1, so only the shape check refuses them
        for refuse in (as_unit_xyz, lambda v: geodesic_distance(v, [0.0, 1.0, 0.0]), mean_point_to_sphere):
            with pytest.raises(ValueError, match=r"expected a 3-vector of shape \(3,\), got shape"):
                refuse(v)

    def test_pole_is_phi_degenerate(self):
        for phi in (0.0, 1.0, 5.0):
            assert as_unit_xyz(SpherePoint(0.0, phi)) == pytest.approx([0.0, 0.0, 1.0], abs=1e-15)

    def test_axis_cases(self):
        assert as_unit_xyz(SpherePoint(math.pi / 2, 0.0)) == pytest.approx([1.0, 0.0, 0.0], abs=1e-15)
        assert as_unit_xyz(SpherePoint(math.pi / 2, math.pi / 2)) == pytest.approx([0.0, 1.0, 0.0], abs=1e-15)


def _stacked(theta, phi):
    """angles_to_xyz as three stacked columns."""
    theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi) + 0.0, np.cos(theta)], axis=-1)


_ANGLES = np.random.default_rng(5).uniform(0.0, 2.0 * math.pi, (2, 3, 1000))


class TestAnglesToXyz:
    @pytest.mark.parametrize(
        "theta, phi",
        [
            (0.7, 2.1),
            (np.float64(4.0), 0.0),
            (np.array(0.7), np.array(2.1)),
            (_ANGLES[0], _ANGLES[1]),
            (_ANGLES[0, 0], _ANGLES[1, 0]),
            (np.linspace(0.0, 2.0 * math.pi, 9), np.zeros(9)),
            (np.linspace(0.0, 2.0 * math.pi, 9), -0.0),
        ],
        ids=["scalars", "scalar_meridian", "zero_d", "two_d", "one_d", "meridian", "negative_zero_phi"],
    )
    def test_the_bytes_of_stacked_columns(self, theta, phi):
        got, want = angles_to_xyz(theta, phi), _stacked(theta, phi)
        assert (got.shape, got.dtype) == (want.shape, want.dtype)
        assert got.tobytes() == want.tobytes()
        # on the meridian y is +0.0 where sin(theta) < 0 too, never -0.0
        assert not np.signbit(got[..., 1][got[..., 1] == 0.0]).any()


class TestGeodesicDistance:
    def test_coincident_and_antipodal(self):
        u = _unit(0.3, -0.4, math.sqrt(1 - 0.25))
        assert geodesic_distance(u, u) == 0.0
        assert geodesic_distance(u, -u) == pytest.approx(math.pi, abs=1e-12)

    def test_quarter_circle(self):
        pole = _unit(0.0, 0.0, 1.0)
        for phi in np.linspace(0, 2 * math.pi, 7):
            eq = _unit(math.cos(phi), math.sin(phi), 0.0)
            assert geodesic_distance(pole, eq) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            geodesic_distance(np.array([1.0, 0.0, 0.0]), np.array([0.5, 0.0, 0.0]))

    def test_unit_check_is_shared_with_the_functionals(self):
        # one coercion serves both modules: |v|^2 may miss 1 by 2e-6, not more
        from arcdist.curves import great_circle
        from arcdist.functionals import point_to_curve_min

        near = np.array([math.sqrt(1.0 + 1.9e-6), 0.0, 0.0])
        far = np.array([math.sqrt(1.0 + 2.1e-6), 0.0, 0.0])
        assert geodesic_distance(near, np.array([0.0, 1.0, 0.0])) == pytest.approx(math.pi / 2)
        assert point_to_curve_min(great_circle(), near)[0] == pytest.approx(0.0, abs=1e-6)
        with pytest.raises(ValueError, match="expected a unit vector"):
            geodesic_distance(far, np.array([0.0, 1.0, 0.0]))
        with pytest.raises(ValueError, match="expected a unit vector"):
            point_to_curve_min(great_circle(), far)

    def test_symmetry_exact_and_triangle_inequality(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            u, v, w = (x / np.linalg.norm(x) for x in rng.normal(size=(3, 3)))
            assert geodesic_distance(u, v) == geodesic_distance(v, u)
            assert geodesic_distance(u, w) <= geodesic_distance(u, v) + geodesic_distance(v, w) + 1e-9

    def test_rotation_invariance(self):
        rng = np.random.default_rng(9)
        for k in range(10):
            R = random_rotation_matrix(k)
            u, v = (x / np.linalg.norm(x) for x in rng.normal(size=(2, 3)))
            assert geodesic_distance(R @ u, R @ v) == pytest.approx(geodesic_distance(u, v), abs=1e-12)


def test_arccos_arcsin_identity_on_grid():
    xs = np.linspace(-1.0, 1.0, 20001)
    assert np.max(np.abs(np.arccos(xs) - (math.pi / 2 - np.arcsin(xs)))) <= 1e-12


class TestUniformSample:
    def test_determinism(self):
        assert np.array_equal(uniform_unit_vectors(7, 100), uniform_unit_vectors(7, 100))

    def test_zero_points_rejected(self):
        with pytest.raises(ValueError):
            uniform_unit_vectors(1, 0)

    def test_area_uniform_moments(self):
        n = 100_000
        pts = uniform_unit_vectors(123, n)
        assert abs(pts[:, 2].mean()) <= 3.0 / math.sqrt(n)
        assert abs(np.mean(pts[:, 2] > 0) - 0.5) <= 3.0 / (2.0 * math.sqrt(n))

    def test_matches_angle_stream(self):
        pts = uniform_unit_vectors(11, 50)
        for row, theta, phi in zip(pts, *sample_sphere_angles(11, 50)):
            assert row == pytest.approx(as_unit_xyz(SpherePoint(theta, phi)), abs=1e-12)


def test_fibonacci_design_is_unit_norm_and_deterministic():
    pts = fibonacci_sphere_points(122)
    assert pts.shape == (122, 3)
    assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) <= 1e-12
    assert np.array_equal(pts, fibonacci_sphere_points(122))


def test_fibonacci_design_needs_a_point():
    with pytest.raises(ValueError, match="design size must be an integer >= 1"):
        fibonacci_sphere_points(0)


@pytest.mark.parametrize("n", [2.5, True, "3"])
def test_fibonacci_design_size_must_be_a_positive_integer(n):
    with pytest.raises(ValueError, match="design size must be an integer >= 1"):
        fibonacci_sphere_points(n)


@pytest.mark.parametrize("seed", [1.5, True, "3", -1, None])
def test_samplers_refuse_a_seed_that_is_not_a_non_negative_integer(seed):
    # True would otherwise draw seed 1's points and 1.5 end in numpy's TypeError
    for sample in (lambda: uniform_unit_vectors(seed, 3), lambda: sample_sphere_angles(seed, 3)):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            sample()
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        random_rotation_matrix(seed)


@pytest.mark.parametrize("n", [2.5, True, 0])
def test_samplers_refuse_a_count_that_is_not_a_positive_integer(n):
    with pytest.raises(ValueError, match="sample count must be an integer >= 1"):
        uniform_unit_vectors(1, n)


def test_samplers_take_numpy_integers():
    assert np.array_equal(uniform_unit_vectors(np.int64(7), np.int32(5)), uniform_unit_vectors(7, 5))
    assert np.array_equal(random_rotation_matrix(np.uint8(3)), random_rotation_matrix(3))


def test_quadrature_takes_the_same_integer_check():
    assert quadrature.require_integer is require_integer


def test_random_rotation_is_orthogonal():
    for seed in range(5):
        R = random_rotation_matrix(seed)
        assert R @ R.T == pytest.approx(np.eye(3), abs=1e-12)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)
