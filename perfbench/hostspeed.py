"""The host's speed, taken by fixed reference kernels run between operations.

This host's speed drifts by tens of percent over seconds to minutes, for
the Python interpreter and numpy alike (drift.py measures it). A run
therefore takes a probe at least every PROBE_EVERY_S seconds between
operations, outside the timed phase. A probe times two kernels: many
numpy calls on small arrays, where the interpreter's speed counts, and
ufunc passes over arrays of several MB, where memory counts. Its slowdown
is the weighted geometric mean of each kernel's time over its REFERENCE_S;
each workload weights the two as its own work does. Every time metric is
divided by the slowdown at the moment it was measured, the median of the
nearest probes, and reads as the time on this host at its reference
speed. The kernels touch no arcdist code, so a change to the program
moves the corrected times and never the probes.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

# Median kernel times on the reference host (2 vCPUs, see README.md) at its
# usual speed. Fixed constants: they set the scale of the corrected times.
REFERENCE_S = {"small": 0.0075, "large": 0.0105}
PROBE_EVERY_S = 0.2
NEAREST = 5  # probes whose median gives the speed at one instant

_rng = np.random.default_rng(0)
_T = np.linspace(0.0, 4.0 * math.pi, 1025)  # a curve parameter grid, as the library evaluates
_C = _rng.standard_normal((2, 3))
_P = _rng.standard_normal((2048, 3))
_P /= np.linalg.norm(_P, axis=1, keepdims=True)


def small_arrays() -> float:
    """40 passes of small-array numpy calls on a curve grid: angles, positions, chord lengths."""
    total = 0.0
    for _ in range(40):
        th = _C[0, 0] + _C[0, 1] * np.cos(_T) + _C[0, 2] * np.sin(2.0 * _T)
        ph = 0.5 * _T + _C[1, 0] * np.sin(_T) + _C[1, 1] * np.sin(2.0 * _T)
        st = np.sin(th)
        p = np.stack([st * np.cos(ph), st * np.sin(ph), np.cos(th)], axis=1)
        total += float(np.sqrt((np.diff(p, axis=0) ** 2).sum(axis=1)).sum())
    return total


def large_arrays() -> float:
    """Arc distances of 2048 points to 256 of them, by broadcasting, and their row minima.

    Elementwise only: a BLAS call here would leave OpenBLAS threads
    spinning into the next operation.
    """
    p, q = _P[:, None, :], _P[None, :256, :]
    cos = p[..., 0] * q[..., 0] + p[..., 1] * q[..., 1] + p[..., 2] * q[..., 2]
    arc = np.arccos(np.clip(cos, -1.0, 1.0))
    return float(arc.min(axis=1).sum() + arc.mean())


class HostSpeed:
    """Probe slowdowns with the instant each was taken, and the wall and CPU time probes took.

    small_weight is the weight of the small-array kernel, in [0, 1]; a
    kernel of weight 0 is not run.
    """

    def __init__(self, small_weight: float) -> None:
        self.kernels = [(w, REFERENCE_S[name], fn) for name, w, fn in (
            ("small", small_weight, small_arrays), ("large", 1.0 - small_weight, large_arrays)) if w > 0]
        self.at: list[float] = []
        self.slowdown: list[float] = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._last = -math.inf

    def take(self) -> float:
        cpu0, start = time.process_time(), time.perf_counter()
        log_slowdown = 0.0
        for weight, reference_s, fn in self.kernels:
            t0 = time.perf_counter()
            fn()
            log_slowdown += weight * math.log((time.perf_counter() - t0) / reference_s)
        end = time.perf_counter()
        self.at.append(0.5 * (start + end))
        self.slowdown.append(math.exp(log_slowdown))
        self.spent_wall += end - start
        self.spent_cpu += time.process_time() - cpu0
        self._last = end
        return self.slowdown[-1]

    def maybe_take(self) -> None:
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.take()

    def factor_at(self, t: float) -> float:
        """Slowdown at instant t against the reference speed: >1 when the host runs slow."""
        i = bisect.bisect_left(self.at, t)
        lo, hi = max(0, i - NEAREST), min(len(self.at), i + NEAREST)
        near = sorted(range(lo, hi), key=lambda j: abs(self.at[j] - t))[:NEAREST]
        return statistics.median(self.slowdown[j] for j in near)

    def factor_between(self, t0: float, t1: float) -> float:
        """Slowdown over [t0, t1]: the median of its probes, or the nearest ones if it has few."""
        lo, hi = bisect.bisect_left(self.at, t0), bisect.bisect_right(self.at, t1)
        if hi - lo < NEAREST:
            return self.factor_at(0.5 * (t0 + t1))
        return statistics.median(self.slowdown[lo:hi])
