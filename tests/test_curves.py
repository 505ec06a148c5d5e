import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq
from scipy.special import roots_legendre

from arcdist.curves import (
    CurveDomain,
    CurveSpecError,
    arc_length,
    from_spec,
    great_circle,
    is_closed,
    _chord_candidates,
    _leaf_pairs,
    _local_chord_minima,
    _nearest_parameters,
    _segments,
    is_simple,
    tennis_ball_seam,
    to_spec,
    trig_series,
    wavy_circle,
)
from arcdist import curves
from arcdist.optimize import seam_seeded_family
from arcdist.quadrature import QuadratureRule, periodic_nodes
from arcdist.sphere import random_rotation_matrix

FOUR_PI = 4.0 * math.pi

# Arc length of the seam at the published amplitude, frozen from a
# 10^4-node Gauss-Legendre oracle over the analytic speed (see
# test_arc_length_seam_matches_high_order_oracle, which recomputes it).
SEAM_LENGTH_AT_REFERENCE = 12.566076920163503


class TestConstruction:
    def test_domain_must_be_increasing(self):
        with pytest.raises(CurveSpecError):
            CurveDomain(1.0, 1.0)

    def test_seam_amplitude_range(self):
        with pytest.raises(CurveSpecError):
            tennis_ball_seam(0.0)
        with pytest.raises(CurveSpecError):
            tennis_ball_seam(math.pi / 2)

    def test_wavy_amplitude_range(self):
        with pytest.raises(CurveSpecError):
            wavy_circle(math.pi / 4)

    def test_params_and_domain_are_required(self):
        # a family's own constructor carries its domain; no default domain stands in for it
        with pytest.raises(TypeError):
            curves.SphericalCurve(curves.TENNIS_BALL, {"a": 0.7037})

    @pytest.mark.parametrize(
        "params",
        [
            {"theta_cos": [0.1, math.nan]},
            {"theta_sin": [math.inf]},
            {"phi_sin": [0.0, -math.inf]},
            {"theta0": math.nan},
            {"phi0": math.inf},
            {"phi_slope": math.nan},
            {"amplitude": math.nan, "theta_cos": [0.1]},
        ],
        ids=["theta_cos", "theta_sin", "phi_sin", "theta0", "phi0", "phi_slope", "amplitude"],
    )
    def test_trig_series_rejects_a_non_finite_parameter(self, params):
        name = next(iter(params))
        with pytest.raises(CurveSpecError, match=f"trig_series {name} must be finite"):
            trig_series(**params)


class TestPositions:
    def test_great_circle_anchor_points(self):
        gc = great_circle((0.0, 2.0))
        assert gc.positions([0.0])[0] == pytest.approx([0.0, 0.0, 1.0], abs=1e-15)
        assert gc.positions([0.25])[0] == pytest.approx([1.0, 0.0, 0.0], abs=1e-15)

    def test_seam_start_point(self):
        seam = tennis_ball_seam(0.7037)
        expected = [math.sin(0.7037), 0.0, math.cos(0.7037)]
        assert seam.positions([0.0])[0] == pytest.approx(expected, abs=1e-12)

    @given(st.floats(min_value=-50.0, max_value=50.0))
    @settings(max_examples=60)
    def test_unit_norm_everywhere(self, t):
        for c in (great_circle(), tennis_ball_seam(0.9), wavy_circle(0.3), trig_series((0.2,), (0.1,), (0.3,))):
            p = c.positions(np.array([t]))[0]
            assert abs(p @ p - 1.0) <= 1e-12

    @given(st.floats(min_value=-20.0, max_value=20.0))
    @settings(max_examples=40)
    def test_periodic_wrap(self, t):
        for c in (great_circle((0.0, 2.0)), tennis_ball_seam(0.7), wavy_circle(0.2)):
            period = c.domain.period
            a = c.positions(np.array([t]))[0]
            b = c.positions(np.array([t + period]))[0]
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_rotation_field_rotates_positions(self):
        R = random_rotation_matrix(4)
        seam = tennis_ball_seam(0.7037)
        ts = np.linspace(0, FOUR_PI, 17)
        assert seam.rotated(R).positions(ts) == pytest.approx(seam.positions(ts) @ R.T, abs=1e-14)
        R2 = random_rotation_matrix(5)
        assert seam.rotated(R).rotated(R2).positions(ts) == pytest.approx(seam.positions(ts) @ (R2 @ R).T, abs=1e-14)

    def test_families_match_their_closed_formulas(self):
        # Each family from its own published shape functions: the one trig-series
        # evaluator reproduces them bit for bit, and the general series to rounding.
        ts = np.linspace(0.0, FOUR_PI, 10_000)

        def sphere_xyz(theta, phi):
            st = np.sin(theta)
            return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)

        gc = great_circle((0.0, FOUR_PI))
        ang = 2.0 * math.pi * ts
        assert gc.positions(ts).tobytes() == np.stack([np.sin(ang), np.zeros_like(ts), np.cos(ang)], axis=-1).tobytes()
        a = 0.7037
        seam = tennis_ball_seam(a)
        expected = sphere_xyz(0.5 * math.pi - (0.5 * math.pi - a) * np.cos(ts), 0.5 * ts + a * np.sin(2.0 * ts))
        assert seam.positions(ts).tobytes() == expected.tobytes()
        b = 0.2862
        wavy = wavy_circle(b, domain=(0.0, FOUR_PI))
        assert wavy.positions(ts).tobytes() == sphere_xyz(0.75 * math.pi + b * np.sin(10.0 * ts), ts).tobytes()

        coeffs = 0.25 * np.random.default_rng(3).standard_normal((3, 3))
        amp, theta0, phi0, slope = 1.3, 1.4, 0.2, 0.5
        series = trig_series(*coeffs, theta0=theta0, phi0=phi0, phi_slope=slope, amplitude=amp)
        js = np.arange(1, 4, dtype=float)
        theta = theta0 + amp * (np.cos(np.multiply.outer(ts, js)) @ coeffs[0])
        theta = theta + amp * (np.sin(np.multiply.outer(ts, js)) @ coeffs[1])
        phi = phi0 + slope * ts + amp * (np.sin(np.multiply.outer(ts, js)) @ coeffs[2])
        assert np.max(np.abs(series.positions(ts) - sphere_xyz(theta, phi))) <= 1e-14


GRID_CURVES = {
    "great_circle": lambda: great_circle((0.5, 2.5)),
    "seam": lambda: tennis_ball_seam(0.7037),
    "wavy_circle": lambda: wavy_circle(0.2862, domain=(1.0, 1.0 + 2.0 * math.pi)),
    "trig_series": lambda: trig_series(
        theta_cos=[0.3, -0.1], theta_sin=[0.0, 0.2], phi_sin=[0.4, 0.0, 0.1], domain=(-0.7, FOUR_PI - 0.7)
    ),
    "rotated_seam": lambda: tennis_ball_seam(0.7037, domain=(2.0, 2.0 + FOUR_PI)).rotated(random_rotation_matrix(5)),
}


class TestGridTable:
    """SphericalCurve.sample reads each harmonic's trig values from the grid's table."""

    @pytest.mark.parametrize("n", [64, 100, 4096, 4097])
    @pytest.mark.parametrize("name", list(GRID_CURVES))
    def test_sample_is_positions_bit_for_bit(self, name, n):
        curve = GRID_CURVES[name]()
        dom = curve.domain
        ts, pts = curve.sample(n)
        assert ts.tobytes() == (dom.t_i + dom.period * np.arange(n) / n).tobytes()
        assert pts.tobytes() == curve.positions(ts).tobytes()
        # a second sample reads the stored values
        assert curve.sample(n)[1].tobytes() == pts.tobytes()

    @pytest.mark.parametrize("name", list(GRID_CURVES))
    @pytest.mark.parametrize("n", [1, 2, 256, 4096])
    def test_a_divisor_sample_is_a_fresh_contiguous_copy(self, name, n):
        curve = GRID_CURVES[name]()
        dom = curve.domain
        ts, pts = curve.sample(n)
        assert ts.tobytes() == periodic_nodes(dom.t_i, dom.t_f, n).tobytes()
        assert pts.tobytes() == curve.positions(ts).tobytes()
        assert ts.flags.c_contiguous and pts.flags.c_contiguous and pts.flags.writeable
        pts[:] = 0.0  # a later sample does not read a returned array
        assert curve.sample(n)[1].tobytes() == curve.positions(ts).tobytes()

    @pytest.mark.parametrize("n", [0, -3, 2.5, True])
    def test_sample_count_must_be_a_positive_integer(self, n):
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            tennis_ball_seam().sample(n)

    @pytest.mark.parametrize("n", [64, 512, 4096])
    def test_a_cold_sample_evaluates_its_own_nodes(self, monkeypatch, n):
        sizes = []
        real = curves._series_angles
        monkeypatch.setattr(curves, "_series_angles", lambda s, ts, **k: sizes.append(ts.size) or real(s, ts, **k))
        tennis_ball_seam(0.6 + n * 1e-5).sample(n)  # a curve no earlier test sampled
        assert sizes == [n]

    @pytest.mark.parametrize("n, tol", [(64, 1e-9), (256, 1e-12)])
    @pytest.mark.parametrize("name", list(GRID_CURVES))
    def test_arc_length_evaluates_every_node_through_speeds(self, monkeypatch, name, n, tol):
        rows = []
        real = curves.SphericalCurve.speeds
        monkeypatch.setattr(curves.SphericalCurve, "speeds", lambda self, ts: rows.append(len(ts)) or real(self, ts))
        result = arc_length(GRID_CURVES[name](), QuadratureRule("periodic_trapezoid", n, tol))
        assert sum(rows) == result.nodes_used

    def test_stored_values_are_read_only(self):
        cos, sin = curves._grid_trig(0.0, FOUR_PI, 64, 3)
        with pytest.raises(ValueError):
            cos[0] = 0.0
        with pytest.raises(ValueError):
            sin[0] = 0.0

    @pytest.mark.parametrize("name", ["great_circle", "seam", "wavy_circle", "trig_series"])
    @pytest.mark.parametrize("n", [512, 1024])
    def test_length_model_unchanged_bit_for_bit(self, monkeypatch, name, n):
        curve = GRID_CURVES[name]()
        scale = {"great_circle": 1.0, "seam": 0.7037, "wavy_circle": 0.2862, "trig_series": 1.0}[name]
        scales = (scale, 0.97 * scale, 1.02 * scale)
        tabled = curves.length_model(curve, scale, n)
        values = [tabled(s) for s in scales]
        monkeypatch.setattr(curves, "_GRID_TRIG_MAX_N", 0)  # every trig value taken at the call
        plain = curves.length_model(curve, scale, n)
        assert values == [plain(s) for s in scales]

    @pytest.mark.parametrize("rates", [0, 1, 2])
    @pytest.mark.parametrize("n", [64, 4096])
    @pytest.mark.parametrize("name", list(GRID_CURVES))
    def test_series_on_a_grid_is_the_plain_series_bit_for_bit(self, name, n, rates):
        curve = GRID_CURVES[name]()
        ts = periodic_nodes(curve.domain.t_i, curve.domain.t_f, n)
        tabled = curves._series_angles(curve._series, ts, rates=rates, grid=curve.domain)
        plain = curves._series_angles(curve._series, ts, rates=rates)
        assert len(tabled) == len(plain) == 2 * (rates + 1)
        assert [v.tobytes() for v in tabled] == [v.tobytes() for v in plain]

    @pytest.mark.parametrize(
        "coeffs",
        [
            {"theta_cos": [-(0.5 * math.pi - 0.7037)], "phi_sin": [0.0, 0.7037]},  # the seam: sparse
            {"theta_cos": [0.3, -0.1], "theta_sin": [0.0, 0.2], "phi_sin": [0.4, 0.0, 0.1]},
        ],
        ids=["sparse", "dense"],
    )
    def test_speeds_and_length_model_do_not_read_phi0(self, coeffs):
        ts = np.random.default_rng(3).uniform(0.0, FOUR_PI, 1000)
        scales = (1.0, 0.97, 1.02)
        seen = []
        for phi0 in (0.0, 1.3, -2.1):
            curve = trig_series(**coeffs, phi0=phi0)
            model = curves.length_model(curve, 1.0, 512)
            seen.append((curve.speeds(ts).tobytes(), [model(s) for s in scales], curve.positions(ts).tobytes()))
        speeds, lengths, positions = zip(*seen)
        assert len(set(speeds)) == 1 and lengths[0] == lengths[1] == lengths[2]
        assert len(set(positions)) == 3  # phi0 does move the curve

    def test_stays_within_its_bound(self):
        entries = curves._GRID_TRIG_ENTRIES
        seam = tennis_ball_seam(0.7037)
        # two harmonics a grid: twice as many entries as the table keeps
        for n in range(64, 64 + entries):
            seam.sample(n)
        info = curves._grid_trig.cache_info()
        assert info.maxsize == entries and info.currsize <= entries
        # a grid finer than _GRID_TRIG_MAX_N is never stored
        seam.sample(curves._GRID_TRIG_MAX_N + 1)
        assert curves._grid_trig.cache_info().misses == info.misses


class TestVelocity:
    def test_great_circle_constant_speed(self):
        gc = great_circle((0.0, 2.0))
        for t in (0.0, 0.3, 0.77, 1.9):
            assert np.linalg.norm(gc.velocities([t])[0]) == pytest.approx(2.0 * math.pi, abs=1e-6)

    def test_latitude_circle_speed_hand_value(self):
        # theta fixed at 1.1, phi = t: speed = |dphi/dt| * sin(theta)
        lat = trig_series(theta0=1.1, phi_slope=1.0, domain=(0.0, 2.0 * math.pi))
        assert np.linalg.norm(lat.velocities([0.7])[0]) == pytest.approx(math.sin(1.1), abs=1e-6)

    def test_equator_half_speed(self):
        flat = trig_series()  # theta = pi/2, phi = t/2
        assert np.linalg.norm(flat.velocities([2.0])[0]) == pytest.approx(0.5, abs=1e-8)

    def test_seam_speed_hand_value(self):
        # |r'| = sqrt(theta'^2 + sin^2(theta) phi'^2) from the seam's shape functions
        a = 0.7037
        seam = tennis_ball_seam(a)
        ts = np.linspace(0.0, FOUR_PI, 1001)
        theta = math.pi / 2 - (math.pi / 2 - a) * np.cos(ts)
        speed = np.hypot((math.pi / 2 - a) * np.sin(ts), np.sin(theta) * (0.5 + 2 * a * np.cos(2 * ts)))
        assert seam.speeds(ts) == pytest.approx(speed, abs=1e-12)
        assert np.linalg.norm(seam.velocities(ts), axis=1) == pytest.approx(speed, abs=1e-12)

    def test_seam_speed_against_fourth_order_stencil(self):
        seam = tennis_ball_seam(0.7037)
        h = seam.domain.period * 1e-4

        def pos(t):
            return seam.positions(np.array([t]))[0]

        for t0 in (0.0, 1.3, 5.5, 11.0):
            stencil = (-pos(t0 + 2 * h) + 8 * pos(t0 + h) - 8 * pos(t0 - h) + pos(t0 - 2 * h)) / (12 * h)
            assert np.linalg.norm(seam.velocities([t0])[0]) == pytest.approx(np.linalg.norm(stencil), abs=1e-5)


class TestArcLength:
    def test_doubled_great_circle(self):
        res = arc_length(great_circle((0.0, 2.0)))
        assert res.value == pytest.approx(FOUR_PI, abs=1e-9)

    def test_single_great_circle(self):
        res = arc_length(great_circle((0.0, 1.0)))
        assert res.value == pytest.approx(2.0 * math.pi, abs=1e-9)

    def test_arc_length_seam_matches_high_order_oracle(self):
        a = 0.7037
        u, w = roots_legendre(10_000)
        t = 2.0 * math.pi * (u + 1.0)
        theta = math.pi / 2 - (math.pi / 2 - a) * np.cos(t)
        speed = np.sqrt(
            ((math.pi / 2 - a) * np.sin(t)) ** 2 + (np.sin(theta) * (0.5 + 2 * a * np.cos(2 * t))) ** 2
        )
        oracle = 2.0 * math.pi * float(w @ speed)
        assert oracle == pytest.approx(SEAM_LENGTH_AT_REFERENCE, abs=1e-9)
        res = arc_length(tennis_ball_seam(a))
        assert res.value == pytest.approx(oracle, abs=1e-10)
        assert res.value == pytest.approx(FOUR_PI, abs=2e-3)

    def test_doubling_the_domain_doubles_length(self):
        once = arc_length(tennis_ball_seam(0.7037)).value
        twice = arc_length(tennis_ball_seam(0.7037, domain=(0.0, 2.0 * FOUR_PI))).value
        assert twice == pytest.approx(2.0 * once, abs=1e-8)

    def test_parameter_shift_invariance(self):
        base = arc_length(tennis_ball_seam(0.7037)).value
        shifted = arc_length(tennis_ball_seam(0.7037, domain=(1.23, 1.23 + FOUR_PI))).value
        assert shifted == pytest.approx(base, abs=1e-9)

    def test_rotation_invariance(self):
        seam = tennis_ball_seam(0.7037)
        rotated = seam.rotated(random_rotation_matrix(21))
        assert arc_length(rotated).value == pytest.approx(arc_length(seam).value, abs=1e-9)


_TRIG_RATES_CURVE = trig_series(theta_cos=[-0.8, 0.1, 0.05], theta_sin=[0.02, -0.1, 0.03], phi_sin=[0.01, 0.7, -0.05])


class TestScaleRates:
    """_scale_rates equals, bit for bit, each family's rate series written
    out by hand: d/da of the seam's (a_1, c_2) = (-(pi/2 - a), a), d/db of
    the wavy circle's b_10 = b, and a trig series' own coefficients."""

    @pytest.mark.parametrize(
        "curve, theta_cos, theta_sin, phi_sin",
        [
            (tennis_ball_seam(0.7), [1.0], [], [0.0, 1.0]),
            (wavy_circle(0.28), [], [0.0] * 9 + [1.0], []),
            (_TRIG_RATES_CURVE, *(_TRIG_RATES_CURVE.params[k] for k in ("theta_cos", "theta_sin", "phi_sin"))),
        ],
        ids=["seam", "wavy_circle", "trig_series"],
    )
    def test_rates_are_the_declared_ones_exactly(self, curve, theta_cos, theta_sin, phi_sin):
        declared = curves._trig_series_coefficients(theta_cos, theta_sin, phi_sin, 0.0, 0.0, 0.0, 1.0)
        rates = curves._scale_rates(curve)
        # the repr also tells -0.0 from 0.0
        assert rates == declared and repr(rates) == repr(declared)


class TestClosure:
    def test_examples(self):
        assert is_closed(great_circle((0.0, 2.0)))
        assert is_closed(tennis_ball_seam(0.7037))
        assert not is_closed(great_circle((0.0, 0.5)))


class TestSimplicity:
    def test_doubled_great_circle_every_point_coincides(self):
        simple, witness = is_simple(great_circle((0.0, 2.0)))
        assert not simple
        assert witness is not None
        t1, t2 = witness
        gc = great_circle((0.0, 2.0))
        d = np.linalg.norm(gc.positions(np.array([t1]))[0] - gc.positions(np.array([t2]))[0])
        assert d < 1e-4

    def test_seam_is_simple(self):
        simple, witness = is_simple(tennis_ball_seam(0.7037))
        assert simple and witness is None

    def test_single_traversal_is_simple(self):
        simple, _ = is_simple(great_circle((0.0, 1.0)))
        assert simple

    def test_degenerate_point_curve_flagged(self):
        point_curve = trig_series(theta0=0.0, phi_slope=1.0, domain=(0.0, 2.0 * math.pi))
        simple, witness = is_simple(point_curve)
        assert not simple and witness is not None

    @staticmethod
    def _trochoid(c, d):
        """theta = pi/2 + d cos t, phi = t + c sin t on [0, 2pi]: for c > 1, phi
        runs backwards around t = pi, and the curve crosses itself exactly at
        t = pi -+ u with u = c sin u (theta and phi agree there by symmetry)."""
        curve = trig_series(theta_cos=[d], phi_sin=[c], phi_slope=1.0, domain=(0.0, 2.0 * math.pi))
        u = brentq(lambda u: u - c * math.sin(u), 1e-3, math.pi - 1e-3)
        return curve, (math.pi - u, math.pi + u)

    @pytest.mark.parametrize(
        "c, d",
        [(1.0005, 0.5), (3.0, 0.1)],
        ids=["hairpin_tiny_loop", "shallow_3_degree_crossing"],
    )
    def test_known_crossing_flagged(self, c, d):
        # the hairpin's loop spans about 71 samples and is a tiny, slow loop;
        # the shallow crossing meets at about 3 degrees, 2971 samples apart
        curve, crossing = self._trochoid(c, d)
        simple, witness = is_simple(curve)
        assert not simple
        spacing = 2.0 * math.pi / 4096
        assert sorted(witness) == pytest.approx(crossing, abs=2 * spacing)
        ends = curve.positions(np.array(witness))
        assert np.linalg.norm(ends[0] - ends[1]) < 1e-4

    # A seam-family shape with a slow stretch (minimum speed about 0.0096).
    # The float separation test once admitted a sampled pair exactly 3
    # samples apart (3.000000000000026 after rounding) and flagged it. On a
    # 400k-point scan its only pairs within 1e-4 are neighbours along that
    # stretch, at most 3.39 samples apart: no crossing or close approach.
    SLOW_STRETCH_SHAPE = [-1.0723, 0.2582, -0.1421, 0.2804, 0.4582, 0.0098, -0.3389, 0.3132, -0.0079]

    def test_slow_stretch_is_simple(self):
        curve = seam_seeded_family(3).build(np.array(self.SLOW_STRETCH_SHAPE), 1.0)
        assert is_simple(curve) == (True, None)

    def test_admitted_pairs_are_integer_separated(self):
        curve = seam_seeded_family(3).build(np.array(self.SLOW_STRETCH_SHAPE), 1.0)
        n = 4096
        period = curve.domain.period
        ts = curve.domain.t_i + period * np.arange(n) / n
        pts = curve.positions(ts)
        pairs = _chord_candidates(pts, *_segments(pts), 0.05)
        gap = pairs[:, 1] - pairs[:, 0]
        assert pairs.size and np.all(np.minimum(gap, n - gap) > 3)
        # on this sample grid, some pairs exactly 3 apart pass the float test by rounding
        i = np.arange(n - 3)
        rounded = i[ts[i + 3] - ts[i] > 3.0 * period / n]
        assert rounded.size
        # and the search reaches some of them: it admits their pairs 4 apart
        admitted = set((pairs[:, 0] * n + pairs[:, 1]).tolist())
        assert any(k * n + k + 4 in admitted for k in rounded.tolist())

    def test_slower_than_eps_stretch_is_simple(self):
        # phi' = 1 + 0.99 cos t > 0, so the curve is injective in longitude;
        # near t = pi its speed is about 0.0096, and 4 sample spacings there
        # cover less than eps. Such a pair is no local chord minimum.
        curve = trig_series(theta_cos=[0.3], phi_sin=[0.99], phi_slope=1.0, domain=(0.0, 2.0 * math.pi))
        assert is_simple(curve) == (True, None)

    @pytest.mark.parametrize(
        "shape, scale, crossing",
        [
            ([-1.297, -0.1751, 0.1661, 0.4383, 0.1548, 0.0694, -0.1246, 0.5249, -0.5705], 0.6345, (8.43200, 8.92772)),
            ([-0.8992, -0.0486, 0.168, 0.1971, 0.0155, -0.1258, 0.02, 0.7079, -0.0878], 1.0, (8.20037, 8.85802)),
        ],
        ids=["among_94_local_minima", "at_24_degrees"],
    )
    def test_crossing_flagged(self, shape, scale, crossing):
        # Each crossing is the one a 2^18-sample scan finds (chords 7.8e-6 and
        # 9.6e-6). The first curve has 94 local chord minima. At 24 degrees,
        # alternating nearest-point moves shrink the chord by only cos^2 of
        # the angle a round. This family has r(t + 2pi) = r(t) turned by pi
        # about the z axis, so each crossing has a twin 2pi earlier in t.
        curve = seam_seeded_family(3).build(np.array(shape), scale)
        simple, witness = is_simple(curve)
        assert not simple
        spacing = FOUR_PI / 4096
        pair = np.sort(witness) % (2.0 * math.pi)
        assert pair == pytest.approx(np.array(crossing) - 2.0 * math.pi, abs=2 * spacing)
        ends = curve.positions(np.array(witness))
        assert np.linalg.norm(ends[0] - ends[1]) < 1e-4

    def test_refinement_ending_on_its_box_edge_is_no_crossing(self):
        # Near a cusp (speed about 0.007, the direction turning by 136 degrees)
        # the chord falls toward the diagonal s1 = s2, and a candidate's
        # refinement slides to the edges of its box, 3 sample spacings apart
        # up to rounding and within eps. A 2^18-sample scan finds no crossing.
        shape = np.array([-0.4317, -0.0606, -0.4787, 0.1756, -0.9337, 0.0409, 0.1858, 1.0343, 0.1199])
        assert is_simple(seam_seeded_family(3).build(shape, 0.4571)) == (True, None)

    def test_witness_does_not_move_with_the_last_bits_of_the_scale(self):
        # Sweep seed 1001 at its calibrated scale (arc length 4pi to 1e-10)
        # crosses itself at several pairs whose refined chords all sit at
        # rounding level; a 1e-11 change of scale must not switch between them.
        shape = _sweep_shape(1001)
        scale = 0.979619966977667
        witnesses = [is_simple(seam_seeded_family(3).build(shape, scale * (1.0 + e))) for e in (0.0, -1e-11, 1e-11)]
        assert [simple for simple, _ in witnesses] == [False] * 3
        assert np.array([w for _, w in witnesses]) == pytest.approx(np.array([witnesses[0][1]] * 3), abs=1e-6)

    # Sweep seeds and their calibrated scales (arc length 4pi to 1e-10)
    # whose least sampled chord, already within eps, ties with its twin
    # 2pi away (r(t + 2pi) is r(t) turned by pi about z).
    @pytest.mark.parametrize(
        "seed, scale",
        [
            (1003, 0.4604792366986448),
            (1023, 0.4827120588901466),
            (1066, 0.9267659024545921),
            (1093, 0.3880255017685134),
            (1105, 0.6787460331509477),
            (1126, 0.7771004764064833),
            (1133, 0.8422958185006851),
            (1166, 0.3475114268696038),
            (1173, 0.5583204280195851),
            (1271, 0.7057571172221017),
        ],
    )
    def test_decisive_witness_does_not_move_with_the_last_bits_of_the_scale(self, seed, scale):
        shape = _sweep_shape(seed)
        witnesses = [is_simple(seam_seeded_family(3).build(shape, scale * (1.0 + e))) for e in (0.0, -1e-11, 1e-11)]
        assert [simple for simple, _ in witnesses] == [False] * 3
        assert np.array([w for _, w in witnesses]) == pytest.approx(np.array([witnesses[0][1]] * 3), abs=1e-6)


def _sweep_shape(seed: int) -> np.ndarray:
    """The shape of the is_simple verdict sweep (scripts/simple_sweep.py) at a seed from 1000."""
    x0 = np.array(seam_seeded_family(3).initial_shape)
    return x0 + 0.1 * (1 + (seed - 1000) % 6) * np.random.default_rng(seed).standard_normal(x0.size)


EQUIVALENCE_CURVES = {
    "doubled_great_circle": lambda: great_circle((0.0, 2.0)),
    "seam": lambda: tennis_ball_seam(0.7037),
    "wavy_circle": lambda: wavy_circle(),
    "slow_stretch": lambda: seam_seeded_family(3).build(np.array(TestSimplicity.SLOW_STRETCH_SHAPE), 1.0),
    "trochoid_0.99": lambda: trig_series(theta_cos=[0.3], phi_sin=[0.99], phi_slope=1.0, domain=(0.0, 2.0 * math.pi)),
    "hairpin_tiny_loop": lambda: TestSimplicity._trochoid(1.0005, 0.5)[0],
    "shallow_3_degree_crossing": lambda: TestSimplicity._trochoid(3.0, 0.1)[0],
    "among_94_local_minima": lambda: seam_seeded_family(3).build(
        np.array([-1.297, -0.1751, 0.1661, 0.4383, 0.1548, 0.0694, -0.1246, 0.5249, -0.5705]), 0.6345
    ),
    "at_24_degrees": lambda: seam_seeded_family(3).build(
        np.array([-0.8992, -0.0486, 0.168, 0.1971, 0.0155, -0.1258, 0.02, 0.7079, -0.0878]), 1.0
    ),
    "near_cusp": lambda: seam_seeded_family(3).build(
        np.array([-0.4317, -0.0606, -0.4787, 0.1756, -0.9337, 0.0409, 0.1858, 1.0343, 0.1199]), 0.4571
    ),
}


class TestChordCandidates:
    """The arc-bound candidate search keeps every discrete local chord minimum
    that a plain search over all pairs within the capture radius finds."""

    @staticmethod
    def _samples(curve, n):
        pts = curve.positions(curve.domain.t_i + curve.domain.period * np.arange(n) / n)
        adj = np.linalg.norm(np.diff(pts, axis=0, append=pts[:1]), axis=1)
        return pts, max(2.0 * float(adj.max()), 2.0e-4)

    @staticmethod
    def _reference(pts, capture):
        """All pairs within capture more than 3 apart: every pair at small n, a KD-tree beyond."""
        n = len(pts)
        if n <= 128:
            pairs = np.stack(np.triu_indices(n, 1), axis=1)
            diff = pts[pairs[:, 0]] - pts[pairs[:, 1]]
            pairs = pairs[(diff * diff).sum(axis=1) <= capture * capture]
        else:
            from scipy.spatial import cKDTree

            pairs = cKDTree(pts).query_pairs(r=capture, output_type="ndarray").reshape(-1, 2)
        gap = pairs[:, 1] - pairs[:, 0]
        pairs = pairs[np.minimum(gap, n - gap) > 3]
        return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]

    def _check(self, curve, n):
        pts, capture = self._samples(curve, n)
        reference = self._reference(pts, capture)
        found = _chord_candidates(pts, *_segments(pts), capture)
        # the candidates are pairs of the reference set, in lexicographic order ...
        codes = found[:, 0] * n + found[:, 1]
        assert np.all(np.diff(codes) > 0)
        assert np.all(np.isin(codes, reference[:, 0] * n + reference[:, 1]))
        # ... and hold all of its local chord minima
        np.testing.assert_array_equal(_local_chord_minima(pts, found), _local_chord_minima(pts, reference))
        return found, reference

    @pytest.mark.parametrize("n", [64, 100, 4096, 4097])
    @pytest.mark.parametrize("name", list(EQUIVALENCE_CURVES))
    def test_same_local_minima_as_every_pair_within_capture(self, name, n):
        self._check(EQUIVALENCE_CURVES[name](), n)

    @pytest.mark.parametrize("n", [64, 100, 4096, 4097])
    def test_same_local_minima_on_sweep_shapes(self, n):
        family = seam_seeded_family(3)
        for seed in range(1000, 1040):
            self._check(family.build(_sweep_shape(seed), 1.0), n)

    # Shapes and scales of candidates 100, 133, 199, 298 and 496 of a
    # 500-candidate seam_seeded_family(3) search, rounded to 4 decimals.
    # Such late shapes come close to themselves: each keeps 8 arc pairs
    # down to the leaf level at 4096 samples.
    LATE_SEARCH_SHAPES = {
        "candidate_100": ([-0.8608, -0.0053, 0.1959, -0.0265, 0.0288, 0.0032, -0.0177, 0.5865, 0.0998], 0.9916),
        "candidate_133": ([-0.9488, -0.0035, 0.2199, -0.0169, -0.0051, 0.0021, 0.0441, 0.6745, 0.0715], 0.8823),
        "candidate_199": ([-0.955, -0.0003, 0.2224, 0.0039, -0.0086, -0.0005, 0.0453, 0.6774, 0.07], 0.8773),
        "candidate_298": ([-0.9409, -0.0004, 0.2285, -0.0074, -0.0034, 0.0007, 0.0306, 0.68, 0.0551], 0.8713),
        "candidate_496": ([-0.9618, -0.0003, 0.236, 0.009, -0.0134, 0.0005, 0.0393, 0.6977, 0.0491], 0.8487),
    }

    @pytest.mark.parametrize("n", [4096, 4097])
    @pytest.mark.parametrize("name", list(LATE_SEARCH_SHAPES))
    def test_same_local_minima_on_late_search_shapes(self, name, n):
        shape, scale = self.LATE_SEARCH_SHAPES[name]
        found, _ = self._check(seam_seeded_family(3).build(np.array(shape), scale), n)
        assert found.size  # only the leaf pass finds pairs

    def test_seam_stretches_turning_less_than_a_right_angle_hold_no_candidate(self):
        # Within 0.05 of each other, seam samples lie at most a few dozen
        # apart along the curve, on stretches that turn by less than pi/2.
        n = 4096
        pts, _ = self._samples(tennis_ball_seam(0.7037), n)
        assert self._reference(pts, 0.05).size > 0
        assert _chord_candidates(pts, *_segments(pts), 0.05).size == 0


class TestLeafPairs:
    """The leaf pass returns each pair once, in lexicographic order."""

    def test_overlapping_arcs_give_each_pair_once(self):
        # The doubled great circle's sample k coincides with sample k + 32 of
        # 64; arcs from 0 and 1 against arcs from 32 and 33 overlap in 3 of
        # their 4 samples, so (1, 33), (2, 34) and (3, 35) are found twice.
        pts = great_circle((0.0, 2.0)).sample(64)[1]
        pairs = _leaf_pairs(pts, np.array([0, 1, 60]), np.array([32, 33, 28]), 4, 1e-6)
        expected = np.array([[0, 32], [1, 33], [2, 34], [3, 35], [4, 36], [28, 60], [29, 61], [30, 62], [31, 63]])
        np.testing.assert_array_equal(pairs, expected)

    @pytest.mark.parametrize("x, y", [([0], [32]), ([], [])], ids=["no_pair_within_capture", "no_arc"])
    def test_no_pair_is_an_empty_integer_pair_array(self, x, y):
        pts = tennis_ball_seam(0.7037).sample(64)[1]
        pairs = _leaf_pairs(pts, np.array(x, dtype=int), np.array(y, dtype=int), 4, 1e-3)
        assert pairs.shape == (0, 2) and np.issubdtype(pairs.dtype, np.integer)


class TestEmptyLevel:
    """A first level of the arc search that keeps no pair ends it: no arc
    balls or prefix sums for the levels below, no leaf pass, no
    local-minimum filter."""

    # The seam at its published amplitude, and the second candidate of the
    # default seam search (the seam shape plus 0.1 in a_1) at its
    # calibrated scale.
    CURVES = {
        "seam": lambda: tennis_ball_seam(0.7037),
        "search_candidate": lambda: seam_seeded_family(3).build(
            np.array(seam_seeded_family(3).initial_shape) + 0.1 * np.eye(9)[0], 1.002690414819381
        ),
    }

    @pytest.fixture
    def stops_after_one_level(self, monkeypatch):
        """Forbid the leaf pass, the local-minimum filter and what only the
        levels below the first build (the arc balls and every prefix sum),
        and record the arcs of each far-pair test the search runs."""
        arcs = []
        apart = curves._apart

        def counted(cx, rx, cy, ry, capture):
            arcs.append((len(cx), len(cy)))
            return apart(cx, rx, cy, ry, capture)

        def forbidden(*args):
            raise AssertionError("called after a first level that kept no pair")

        monkeypatch.setattr(curves, "_apart", counted)
        monkeypatch.setattr(curves, "_arc_balls", forbidden)
        monkeypatch.setattr(curves.np, "cumsum", forbidden)
        monkeypatch.setattr(curves, "_leaf_pairs", forbidden)
        monkeypatch.setattr(curves, "_local_chord_minima", forbidden)
        yield
        assert arcs == [(64, 64)]  # one level: the 64 top arcs paired with each other

    @pytest.mark.parametrize("name", list(CURVES))
    def test_is_simple_stops_at_the_first_level(self, stops_after_one_level, name):
        assert is_simple(self.CURVES[name]()) == (True, None)

    @pytest.mark.parametrize("name", list(CURVES))
    def test_no_candidates_are_an_empty_integer_pair_array(self, stops_after_one_level, name):
        pts = self.CURVES[name]().sample(4096)[1]
        seg, length = _segments(pts)
        found = _chord_candidates(pts, seg, length, 2.0 * float(length.max()))
        assert found.shape == (0, 2) and np.issubdtype(found.dtype, np.integer)


def _run_fresh(code: str) -> None:
    """Run code in a fresh interpreter that imports arcdist from this checkout; it must exit 0."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_import_loads_no_scipy():
    # neither the library nor the CLI, which imports verify, loads scipy or any scipy.* module
    _run_fresh(
        "import sys\n"
        "def scipy_modules(): return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "import arcdist\n"
        "assert not scipy_modules(), scipy_modules()\n"
        "import arcdist.cli\n"
        "assert not scipy_modules(), scipy_modules()\n"
    )


def test_leaf_pass_and_nearest_points_load_no_numpy_ma():
    # np.unique imports numpy.ma on its first call in a process (about 15 ms);
    # the leaf pass, which the doubled great circle reaches, sorts instead.
    _run_fresh(
        "import sys\n"
        "from arcdist import curves, functionals\n"
        "leaf, calls = curves._leaf_pairs, []\n"
        "curves._leaf_pairs = lambda *args: calls.append(1) or leaf(*args)\n"
        "assert curves.is_simple(curves.great_circle((0.0, 2.0)))[0] is False\n"
        "assert calls, 'no leaf pass'\n"
        "functionals.mean_min_arc_distance(curves.tennis_ball_seam(0.7037), 100, n_scan=256)\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )


class TestNearestParameters:
    def test_maximum_outside_the_bracket_ends_at_its_edge(self):
        # The nearest point to r(0.3) on the single great circle lies right of
        # [0.05, 0.15] and left of [0.45, 0.55].
        curve = great_circle((0.0, 1.0))
        targets = curve.positions(np.array([0.3, 0.3]))
        centers = np.array([0.1, 0.5])
        t, _ = _nearest_parameters(curve, targets, centers, 0.05, centers)
        assert t == pytest.approx([0.15, 0.45], abs=1e-10)

    def test_interior_maximum_is_the_nearest_point(self):
        seam = tennis_ball_seam(0.7037)
        ts = np.array([0.4, 2.0, 5.5, 9.1])
        t, _ = _nearest_parameters(seam, seam.positions(ts), ts + 0.002, 0.003, ts + 0.002)
        assert t == pytest.approx(ts, abs=1e-9)


class TestSpecParsing:
    def test_round_trip(self):
        seam = tennis_ball_seam(0.81)
        again = from_spec(to_spec(seam))
        assert again.family == seam.family
        assert again.params == seam.params
        assert again.domain == seam.domain

    def test_inline_json(self):
        c = from_spec('{"family": "wavy_circle", "params": {"b": 0.2}, "domain": [0, 6.283185307179586]}')
        assert c.params["b"] == 0.2

    def test_file_path(self, tmp_path):
        path = tmp_path / "curve.json"
        path.write_text(json.dumps({"family": "great_circle", "domain": [0, 1]}))
        c = from_spec(str(path))
        assert c.domain.t_f == 1.0

    def test_file_with_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "curve.json"
        path.write_text('{"family": "great_circle",')
        with pytest.raises(CurveSpecError, match="curve spec file is not valid JSON"):
            from_spec(path)

    def test_default_domains(self):
        assert from_spec({"family": "tennis_ball"}).domain.t_f == pytest.approx(FOUR_PI)
        assert from_spec({"family": "great_circle"}).domain.t_f == 2.0

    @pytest.mark.parametrize(
        "spec",
        [
            {"family": "moebius"},
            {"family": "tennis_ball", "params": {"radius": 2.0}},
            {"family": "tennis_ball", "extra": 1},
            {"family": "tennis_ball", "domain": [0.0]},
            {"family": "wavy_circle", "params": {"b": 2.0}},
            "not json {",
            '{"family": "tennis_ball"',
            [{"family": "tennis_ball"}],
            {"family": "tennis_ball", "params": [0.7]},
            {"family": "tennis_ball", "params": {"a": "wide"}},
            {"family": "trig_series", "params": {"theta_cos": 0.5}},
            '[{"family": "tennis_ball"}]',
            {"family": "tennis_ball", "params": {"a": True}},
            {"family": "trig_series", "params": {"theta_cos": [True]}, "domain": [0, True]},
            {"family": "tennis_ball", "domain": ["0", "12.566370614359172"]},
            {"family": "great_circle", "domain": [0, True]},
        ],
    )
    def test_invalid_specs_rejected(self, spec):
        with pytest.raises(CurveSpecError):
            from_spec(spec)

    @pytest.mark.parametrize("spec", ['[{"family": "tennis_ball"}]', '  [1, 2]'])
    def test_inline_json_array_is_read_as_json(self, spec):
        # not as a file path: the array is parsed and refused as no object
        with pytest.raises(CurveSpecError, match="curve spec must be a JSON object"):
            from_spec(spec)

    def test_numpy_scalars_are_numbers(self):
        c = from_spec({"family": "trig_series", "params": {"theta_cos": [np.float64(-0.8)], "amplitude": np.int64(1)}})
        assert c.params["theta_cos"] == [-0.8] and c.params["amplitude"] == 1.0

    def test_trig_series_spec(self):
        c = from_spec(
            {
                "family": "trig_series",
                "params": {"theta_cos": [-0.867], "phi_sin": [0.0, 0.7037], "amplitude": 1.0},
            }
        )
        assert c.params["phi_sin"] == [0.0, 0.7037]
