"""Spans and counters around the program's layer functions, for the traced run.

The tracer replaces each layer function, wherever an arcdist module has
bound it, with a wrapper that records a span (name, start, end, parent)
and the layer's work counts, then puts the originals back. Spans stay in
memory; `save` writes them out after the run. Self time is a span's
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import math
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

# A layer metric is computed from these spans. Each entry: span name,
# the module that defines the function, and its attribute name there
# ("Class.method" for methods).
LAYERS = (
    ("sphere.angles_to_xyz", "arcdist.sphere", "angles_to_xyz"),
    ("sphere.sampling", "arcdist.sphere", "sample_sphere_angles"),
    ("quadrature.integrate_1d", "arcdist.quadrature", "integrate_1d"),
    ("quadrature.sphere_integrate", "arcdist.quadrature", "sphere_integrate"),
    ("curves.positions", "arcdist.curves", "SphericalCurve.positions"),
    ("curves.speeds", "arcdist.curves", "SphericalCurve.speeds"),
    ("curves.arc_length", "arcdist.curves", "arc_length"),
    ("curves.is_simple", "arcdist.curves", "is_simple"),
    ("functionals.field", "arcdist.functionals", "mean_distance_field"),
    ("functionals.nearest", "arcdist.functionals", "_min_distance_batch"),
    ("functionals.objective", "arcdist.functionals", "sup_deviation_from_half_pi"),
    ("optimize.calibrate", "arcdist.optimize", "calibrate_arc_length"),
    ("optimize.search", "arcdist.optimize", "minimize_functional"),
    ("optimize.candidate", "arcdist.optimize", "make_candidate_evaluator"),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)  # outermost spans of each name only
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.hooks = 0  # counting calls made outside spans (integrand wrappers)
        self._depth = defaultdict(int)
        self._stack: list[list] = []  # [span index, child seconds]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def wrap(self, name: str, fn, before=None, after=None):
        """Wrap fn in a span; before(args) may replace args, after(args, result) counts."""
        sid = self._ids.setdefault(name, len(self._ids))
        if sid == len(self.names):
            self.names.append(name)
        stack, depth = self._stack, self._depth

        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            idx = len(self.span_name)  # this span's row; its children take later rows
            self.span_name.append(sid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            depth[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                depth[name] -= 1
                dur = end - start
                self.span_start[idx] = start
                self.span_end[idx] = end
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
                if depth[name] == 0:
                    self.total_s[name] += dur
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counted(self, key: str, f):
        """Wrap an integrand so every evaluation point adds one to counts[key]."""
        counts = self.counts

        def g(*args):
            self.hooks += 1
            counts[key] += np.size(args[0])
            return f(*args)

        return g

    # -- installing ------------------------------------------------------
    def install(self) -> None:
        """Replace every layer function in every arcdist module that binds it."""
        c = self.counts

        def add(key, value):
            c[key] += value

        # Calibration is never nested, so one mark serves every call.
        mark = [0]

        def mark_arc_lengths(args):
            mark[0] = self.calls["curves.arc_length"]
            return args

        def count_calibration(args, report):
            add("optimize.calibrate.arc_lengths", self.calls["curves.arc_length"] - mark[0])
            add("optimize.calibrate.iterations", report.iterations)
            add("optimize.calibrate.returned", 1)

        hooks = {
            "curves.positions": (None, lambda a, r: add("curves.positions.rows", np.size(a[1]))),
            "curves.speeds": (None, lambda a, r: add("curves.speeds.rows", np.size(a[1]))),
            "quadrature.integrate_1d": (
                lambda a: (self.counted("quadrature.integrate_1d.evals", a[0]),) + tuple(a[1:]), None),
            "quadrature.sphere_integrate": (
                lambda a: (self.counted("quadrature.sphere_integrate.evals", a[0]),) + tuple(a[1:]), None),
            "functionals.field": (None, lambda a, r: add("functionals.field.entries", _field_entries(a))),
            "functionals.nearest": (
                None, lambda a, r: add("functionals.nearest.scan_entries", np.atleast_2d(a[1]).shape[0] * a[2])),
            "optimize.calibrate": (mark_arc_lengths, count_calibration),
        }
        for name, modname, attr in LAYERS:
            owner = sys.modules[modname]
            cls_name, _, attr = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
            orig = getattr(owner, attr)
            if name == "optimize.candidate":
                wrapped = self._candidate_factory(orig)
            else:
                wrapped = self.wrap(name, orig, *hooks.get(name, (None, None)))
            targets = [owner] if cls_name else [
                m for k, m in sys.modules.items() if k.split(".")[0] == "arcdist" and getattr(m, attr, None) is orig
            ]
            for target in targets:
                setattr(target, attr, wrapped)
                self._undo.append((target, attr, orig))

    def uninstall(self) -> None:
        for target, attr, orig in reversed(self._undo):
            setattr(target, attr, orig)
        self._undo.clear()

    def _candidate_factory(self, make_evaluator):
        def factory(*args, **kwargs):
            def after(a, r):
                self.counts["optimize.candidate.attempted"] += 1
                self.counts["optimize.candidate.feasible"] += math.isfinite(r[0])

            return self.wrap("optimize.candidate", make_evaluator(*args, **kwargs), after=after)

        return factory

    # -- results ---------------------------------------------------------
    def layer_metrics(self, ops: int, timed_s: float, span_cost_s: float, hook_cost_s: float) -> dict:
        """Per-layer metrics, normalized per benchmark operation."""
        c, t = self.counts, self.total_s

        def per_op(v):
            return v / ops

        def ratio(num, den):
            return num / den if den else 0.0

        ms = {name: per_op(t[name]) * 1e3 for name, _, _ in LAYERS}
        entries = c["functionals.field.entries"]
        m = {
            "optimize.calibrate.ms_per_op": ms["optimize.calibrate"],
            "optimize.calibrate.arc_lengths_per_call": ratio(
                c["optimize.calibrate.arc_lengths"], c["optimize.calibrate.returned"]),
            "optimize.calibrate.iterations_per_call": ratio(
                c["optimize.calibrate.iterations"], c["optimize.calibrate.returned"]),
            "quadrature.integrate_1d.calls_per_op": per_op(self.calls["quadrature.integrate_1d"]),
            "quadrature.integrate_1d.evals_per_call": ratio(
                c["quadrature.integrate_1d.evals"], self.calls["quadrature.integrate_1d"]),
            "quadrature.integrate_1d.ms_per_op": ms["quadrature.integrate_1d"],
            "curves.speeds.rows_per_op": per_op(c["curves.speeds.rows"]),
            "curves.speeds.ms_per_op": ms["curves.speeds"],
            "curves.is_simple.calls_per_op": per_op(self.calls["curves.is_simple"]),
            "curves.is_simple.ms_per_op": ms["curves.is_simple"],
            "optimize.candidate.feasible_ratio": ratio(
                c["optimize.candidate.feasible"], c["optimize.candidate.attempted"]),
            "optimize.candidate.attempted": c["optimize.candidate.attempted"],
            "optimize.search.self_ms_per_op": per_op(self.self_s["optimize.search"]) * 1e3,
            "functionals.objective.ms_per_op": ms["functionals.objective"],
            "functionals.field.entries_per_op": per_op(entries),
            "functionals.field.ms_per_op": ms["functionals.field"],
            "functionals.field.ns_per_entry": ratio(t["functionals.field"] * 1e9, entries),
            "functionals.field.computed_mb_per_op": per_op(entries) * 8 / 1e6,
            "quadrature.sphere_integrate.calls_per_op": per_op(self.calls["quadrature.sphere_integrate"]),
            "quadrature.sphere_integrate.evals_per_call": ratio(
                c["quadrature.sphere_integrate.evals"], self.calls["quadrature.sphere_integrate"]),
            "quadrature.sphere_integrate.ms_per_op": ms["quadrature.sphere_integrate"],
            "sphere.angles_to_xyz.ms_per_op": ms["sphere.angles_to_xyz"],
            "functionals.nearest.scan_entries_per_op": per_op(c["functionals.nearest.scan_entries"]),
            "functionals.nearest.ms_per_op": ms["functionals.nearest"],
            "sphere.sampling.ms_per_op": ms["sphere.sampling"],
            "curves.positions.calls_per_op": per_op(self.calls["curves.positions"]),
            "curves.positions.rows_per_op": per_op(c["curves.positions.rows"]),
            "curves.positions.ms_per_op": ms["curves.positions"],
            "trace.overhead_pct": 100.0 * (len(self.span_start) * span_cost_s + self.hooks * hook_cost_s) / timed_s,
        }
        return m

    def save(self, path: Path) -> None:
        """Write every span: name index, parent span index (-1 for none), start and end seconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


def _field_entries(args) -> int:
    """Points x curve nodes of one mean_distance_field(curve, points, curve_rule) call."""
    rule = args[2] if len(args) > 2 and args[2] is not None else None
    rule = rule or sys.modules["arcdist.quadrature"].default_curve_rule()
    return np.atleast_2d(args[1]).shape[0] * rule.n


def instrument_cost(repeats: int = 20000) -> tuple[float, float]:
    """Seconds one span and one counting hook add to a call, measured on a no-op."""

    def noop(*args):
        return None

    def loop(f):
        start = time.perf_counter()
        for _ in range(repeats):
            f(1)
        return (time.perf_counter() - start) / repeats

    tracer = Tracer()
    base = min(loop(noop) for _ in range(3))
    span = min(loop(tracer.wrap("cost", noop)) for _ in range(3)) - base
    hook = min(loop(tracer.counted("cost", noop)) for _ in range(3)) - base
    return max(span, 0.0), max(hook, 0.0)
