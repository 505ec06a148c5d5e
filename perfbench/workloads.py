"""The three workloads: inputs from the seed, the timed operations, the checks.

A run is a fixed number of whole rounds, set from --seconds by each
workload's measured round length, so two runs with the same seed and
length do the same operations in the same order. Only calls into arcdist
go through the Timer; generating inputs and checking outputs happen
before and after the timed phase.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import time
import traceback

import numpy as np

from arcdist import curves, functionals, optimize
from arcdist.quadrature import QuadratureRule
from hostspeed import HostSpeed

HALF_PI = 0.5 * math.pi
FOUR_PI = 4.0 * math.pi
TWO_PI_SQ = 2.0 * math.pi**2


class Timer:
    """Wall and CPU time of the timed phase, per round, and the time of each operation.

    Probes of the host's speed run before the first round, after every
    round and, with probe_ops, after operations at most every
    hostspeed.PROBE_EVERY_S; their own time is taken out of the timed phase.
    The traced run probes between rounds only: a probe inside a search
    would count as the search's self time.
    """

    def __init__(self, small_weight: float, probe_ops: bool = True) -> None:
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.op_s: list[float] = []
        self.op_at: list[float] = []  # midpoint of each operation
        self.attempted = 0
        self.failed = 0
        self.rounds: list[tuple[int, float, float, float, float]] = []  # (ops, wall s, cpu s, start, end)
        self.speed = HostSpeed(small_weight)
        self.probe_ops = probe_ops
        for _ in range(3):
            self.speed.take()
        self._mark = (0, 0.0, 0.0, time.perf_counter())

    def close_round(self) -> None:
        ops, wall, cpu, now = len(self.op_s), self.wall_s, self.cpu_s, time.perf_counter()
        m = self._mark
        self.rounds.append((ops - m[0], wall - m[1], cpu - m[2], m[3], now))
        self.speed.take()
        self._mark = (ops, wall, cpu, time.perf_counter())

    def phase(self, fn, *args):
        """Call into the program; the call's wall and CPU time join the timed phase."""
        speed = self.speed
        spent_wall, spent_cpu = speed.spent_wall, speed.spent_cpu
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.wall_s += time.perf_counter() - wall0 - (speed.spent_wall - spent_wall)
            self.cpu_s += time.process_time() - cpu0 - (speed.spent_cpu - spent_cpu)

    def op(self, fn, *args):
        """One operation; an exception counts it failed and propagates."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:
            self.failed += 1
            raise
        end = time.perf_counter()
        self.op_s.append(end - start)
        self.op_at.append(0.5 * (start + end))
        if self.probe_ops:
            self.speed.maybe_take()
        return result

    def timed_op(self, fn, *args):
        """An operation that is a whole timed interval; a failure is logged, not raised."""
        try:
            return self.phase(self.op, fn, *args)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return None


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng((seed, *stream))


def _unit_vectors(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _rotation(rng: np.random.Generator) -> np.ndarray:
    """Haar-random rotation from the QR factorization of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _calibrated(make, bracket, family):
    cal = optimize.calibrate_arc_length(make, bracket, family=family, tol=1e-6)
    return cal.parameter, make(cal.parameter)


class Workload:
    name = ""
    ops_per_round = 1
    round_s = 1.0  # measured length of one round on the reference host
    small_weight = 0.5  # weight of the small-array kernel in the host's slowdown (hostspeed.py)

    def rounds_for(self, seconds: float) -> int:
        return max(math.ceil(100 / self.ops_per_round), round(seconds / self.round_s))

    def setup(self, seed: int, rounds: int) -> None:
        raise NotImplementedError

    def run_round(self, r: int, timer: Timer) -> None:
        raise NotImplementedError

    def check(self) -> list[str]:
        """Descriptions of every check that failed; empty when the outputs are correct."""
        raise NotImplementedError


class SeamSearch(Workload):
    """Criterion 12: Nelder-Mead over seam_seeded_family(3), sup-deviation objective.

    Each round is one whole search at a fixed evaluation budget from the
    seam shape plus a seeded perturbation. One op is one candidate
    evaluation, timed at the evaluator the search builds.

    At a 60-evaluation budget about a tenth of the candidates, most of them
    past the 40th, have a small scale and need 4-10 times the usual
    integrand evaluations. The 90th percentile then sat on the edge of that
    cluster and moved with each run's share of it. At 40 evaluations the
    share is about 1%.
    """

    name = "seam_search"
    budget = 40
    perturbation = 0.002
    ops_per_round = budget
    round_s = 3.0
    small_weight = 1.0

    def setup(self, seed, rounds):
        self.family = optimize.seam_seeded_family(3)
        self.config = optimize.OptimizerConfig(max_evals=self.budget)
        x0 = np.asarray(self.family.initial_shape)
        self.starts = [x0 + self.perturbation * _rng(seed, r).standard_normal(x0.size) for r in range(rounds)]
        self.reports, self.candidates, self.aborted = [], [], []
        optimize.make_candidate_evaluator(self.family, self.config)(x0)

    def run_round(self, r, timer):
        family = dataclasses.replace(self.family, initial_shape=tuple(self.starts[r]))
        records = []
        make_evaluator = optimize.make_candidate_evaluator

        def timed_factory(*args, **kwargs):
            evaluate = make_evaluator(*args, **kwargs)

            def timed(shape):
                result = timer.op(evaluate, shape)
                records.append((np.array(shape), result))
                return result

            return timed

        optimize.make_candidate_evaluator = timed_factory
        try:
            report = timer.phase(optimize.minimize_functional, family, "sup_dev_from_half_pi", self.config)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.aborted.append(r)
            return
        finally:
            optimize.make_candidate_evaluator = make_evaluator
        self.reports.append(report)
        self.candidates.append(records)

    def check(self):
        import checks

        bad = [f"round {r}: the search raised" for r in self.aborted]
        for r, (report, records) in enumerate(zip(self.reports, self.candidates)):
            trace = np.array(report.trace)
            if trace.size != len(records) or np.any(np.diff(trace) > 0):
                bad.append(f"round {r}: best-so-far trace increases or does not match the candidates")
            if not report.best_value <= report.initial_value:
                bad.append(f"round {r}: best {report.best_value} above initial {report.initial_value}")
            for shape, (value, scale, _) in records:
                if math.isfinite(value):
                    length = checks.arc_length(checks.trig(shape, scale))
                    if abs(length - FOUR_PI) > 1e-4:
                        bad.append(f"round {r}: feasible candidate has arc length {length!r}")
            best = checks.trig(report.best_shape, report.best_scale)
            ends = best.xyz(np.array([0.0, FOUR_PI]))
            if np.linalg.norm(ends[0] - ends[1]) >= 1e-8 or checks.has_close_approach(best):
                bad.append(f"round {r}: best curve is not closed and simple")
            shape0, (value0, scale0, _) = records[0]
            # At the objective's own resolution, 256 trapezoid nodes, so only rounding separates the two.
            field = checks.mean_distance(
                checks.trig(shape0, scale0), checks.fibonacci_design(self.config.design_size), nodes=256)
            sup = float(np.max(np.abs(field - HALF_PI)))
            if abs(sup - report.initial_value) > 1e-12 or value0 != report.initial_value:
                bad.append(f"round {r}: initial objective {report.initial_value!r}, recomputed {sup!r}")
        return bad


class SphereField(Workload):
    """The verify table's surface integrals (criteria 1, 2, 7, 8, 11a, 11c) in whole passes.

    One op is one surface integral. The query points and the rotation come
    from the seed; the Monte Carlo sample seeds are 1300 + pass index, as
    the table uses seed + 1300, so its three-sigma check sees the same
    samples in every run.
    """

    name = "sphere_field"
    ops_per_round = 130
    round_s = 3.9
    point_rule = QuadratureRule("gauss_legendre", 128, 1e-7)
    curve_rule = QuadratureRule("gauss_legendre", 128, 1e-6)

    def setup(self, seed, rounds):
        _, seam = _calibrated(curves.tennis_ball_seam, (0.1, 1.4), "tennis_ball")
        _, wavy = _calibrated(curves.wavy_circle, (0.01, 0.6), "wavy_circle")
        self.passes = []
        for p in range(rounds):
            rng = _rng(seed, p)
            ops = [("point", functionals.mean_point_to_sphere, q, self.point_rule) for q in _unit_vectors(rng, 100)]
            ops += [("arcsin", functionals.arcsin_identity_residual, q, self.point_rule) for q in _unit_vectors(rng, 20)]
            ops.append(("curve", functionals.sphere_to_curve_mean, seam, self.curve_rule))
            ops.append(("curve", functionals.sphere_to_curve_mean, wavy, self.curve_rule))
            rot = _rotation(rng)
            for q in _unit_vectors(rng, 3):
                ops.append(("point", functionals.mean_point_to_sphere, q, self.point_rule))
                ops.append(("point", functionals.mean_point_to_sphere, rot @ q, self.point_rule))
            for n in (2000, 8000):
                ops.append(("mc", functionals.sphere_to_curve_mean, seam, QuadratureRule("monte_carlo", n, 1e-9, 1300 + p)))
            self.passes.append(ops)
        self.results = []
        functionals.mean_point_to_sphere(np.array([0.0, 0.0, 1.0]), self.point_rule)
        functionals.sphere_to_curve_mean(seam, QuadratureRule("monte_carlo", 200, 1e-9, 0))

    def run_round(self, r, timer):
        for kind, fn, arg, rule in self.passes[r]:
            self.results.append((kind, timer.timed_op(fn, arg, rule)))

    def check(self):
        import checks

        bad, mc = [], []
        for kind, res in self.results:
            if res is None:
                continue
            if kind == "point" and abs(res.value - HALF_PI) > 1e-6:
                bad.append(f"point-to-sphere mean {res.value!r}")
            elif kind == "arcsin" and abs(res.value) > 1e-6:
                bad.append(f"arcsin residual {res.value!r}")
            elif kind == "curve" and abs(res.value - TWO_PI_SQ) > FOUR_PI * 1e-6:
                bad.append(f"product-rule sphere-to-curve mean {res.value!r}")
            elif kind == "mc":
                mc.append(res)
        if mc and not checks.family_wise_three_sigma([abs(m.value - TWO_PI_SQ) for m in mc], [m.error_estimate for m in mc]):
            bad.append("Monte Carlo sphere-to-curve means outside family-wise three-sigma bounds")
        return bad


class NearestPoint(Workload):
    """mean_min_arc_distance at `arcdist eval`'s size, cycling through four curves.

    A round is the doubled great circle, the calibrated seam, the
    calibrated wavy circle and two trig-series shapes drawn from the seed
    as in criterion 11b. Each curve's calls form their own cluster of op
    times; with the trig-series shapes, the slowest, at two fifths of the
    ops, the median lands inside the seam's cluster and the 90th
    percentile inside theirs, never in a gap between clusters. The sample
    seed of op i is i, so the great-circle three-sigma check sees the
    same samples in every run.
    """

    name = "nearest_point"
    ops_per_round = 5
    round_s = 1.26
    n_points = 10_000
    n_scan = 4096
    subset = 8

    def setup(self, seed, rounds):
        a, seam = _calibrated(curves.tennis_ball_seam, (0.1, 1.4), "tennis_ball")
        b, wavy = _calibrated(curves.wavy_circle, (0.01, 0.6), "wavy_circle")
        self.fixed = [(curves.great_circle((0.0, 2.0)), ("great_circle",)), (seam, ("seam", a)), (wavy, ("wavy", b))]
        self.rounds = []
        for r in range(rounds):
            rng = _rng(seed, r)
            ops = list(self.fixed)
            for coeffs in 0.25 * rng.standard_normal((2, 9)):
                ops.append((curves.trig_series(coeffs[:3], coeffs[3:6], coeffs[6:], phi_slope=0.5), ("trig", coeffs)))
            subsets = [rng.choice(self.n_points, self.subset, replace=False) for _ in ops]
            first = r * self.ops_per_round
            self.rounds.append([(c, spec, first + i, idx) for i, ((c, spec), idx) in enumerate(zip(ops, subsets))])
        self.results = []
        functionals.mean_min_arc_distance(seam, 100, 0, self.n_scan)

    def run_round(self, r, timer):
        for curve, spec, sample_seed, idx in self.rounds[r]:
            res = timer.timed_op(functionals.mean_min_arc_distance, curve, self.n_points, sample_seed, self.n_scan)
            self.results.append((curve, spec, sample_seed, idx, res))

    def check(self):
        import checks

        bad, gc = [], []
        for curve, spec, sample_seed, idx, res in self.results:
            if res is None:
                continue
            if spec[0] == "great_circle":
                gc.append(res)
                ref = checks.doubled_great_circle()
            elif spec[0] == "seam":
                ref = checks.seam(spec[1])
            elif spec[0] == "wavy":
                ref = checks.wavy(spec[1])
            else:
                ref = checks.trig(spec[1])
            pts = checks.area_uniform(sample_seed, self.n_points)[idx]
            mins = np.array([functionals.point_to_curve_min(curve, p, self.n_scan)[0] for p in pts])
            brute, slack = checks.brute_min_distance(ref, pts)
            field = checks.mean_distance(ref, pts)
            if np.any(mins > brute + 1e-12) or np.any(mins < brute - slack - 1e-12):
                bad.append(f"{spec[0]}: minimum off the dense scan by {np.max(np.abs(mins - brute)):.3g}")
            if np.any(mins > field + 1e-9):
                bad.append(f"{spec[0]}: minimum above the mean distance")
        target = HALF_PI - 1.0
        if gc and not checks.family_wise_three_sigma([abs(g.value - target) for g in gc], [g.error_estimate for g in gc]):
            bad.append("great-circle mean minimum outside family-wise three-sigma bounds of pi/2 - 1")
        return bad


WORKLOADS = {w.name: w for w in (SeamSearch, SphereField, NearestPoint)}
