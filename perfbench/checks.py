"""Output checks made apart from the program.

Curve formulas, arc lengths, mean-distance fields and nearest-point scans
are recomputed here from the published shape functions with closed-form
derivatives, numpy and scipy only. Nothing here imports arcdist: a check
that reused the program's own code would share its faults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import roots_legendre
from scipy.stats import norm

HALF_PI = 0.5 * math.pi
FOUR_PI = 4.0 * math.pi
TWO_PI_SQ = 2.0 * math.pi**2


@dataclass(frozen=True)
class Curve:
    """Shape functions theta(t), phi(t) and their t-derivatives on [0, period].

    Each evaluator maps a parameter array to (theta, phi, dtheta, dphi).
    The doubled great circle is the equator traversed twice, rotated into
    the x-z plane, which is how the program defines it.
    """

    period: float
    angles: object
    xz_plane: bool = False

    def xyz(self, ts: np.ndarray) -> np.ndarray:
        th, ph, _, _ = self.angles(ts)
        st = np.sin(th)
        p = np.stack([st * np.cos(ph), st * np.sin(ph), np.cos(th)], axis=-1)
        if self.xz_plane:  # equator (x, y, 0) -> (y, 0, x)
            p = np.stack([p[..., 1], np.zeros_like(p[..., 0]), p[..., 0]], axis=-1)
        return p

    def speed(self, ts: np.ndarray) -> np.ndarray:
        th, _, dth, dph = self.angles(ts)
        return np.sqrt(dth * dth + (np.sin(th) * dph) ** 2)


def doubled_great_circle() -> Curve:
    def angles(t):
        return np.full_like(t, HALF_PI), 2 * math.pi * t, np.zeros_like(t), np.full_like(t, 2 * math.pi)

    return Curve(2.0, angles, xz_plane=True)


def seam(a: float) -> Curve:
    def angles(t):
        c = HALF_PI - a
        return (HALF_PI - c * np.cos(t), 0.5 * t + a * np.sin(2 * t),
                c * np.sin(t), 0.5 + 2 * a * np.cos(2 * t))

    return Curve(FOUR_PI, angles)


def wavy(b: float) -> Curve:
    def angles(t):
        return 0.75 * math.pi + b * np.sin(10 * t), t, 10 * b * np.cos(10 * t), np.ones_like(t)

    return Curve(2 * math.pi, angles)


def trig(shape, scale: float = 1.0) -> Curve:
    """theta = pi/2 + s sum(a_j cos jt + b_j sin jt), phi = t/2 + s sum c_j sin jt on [0, 4pi]."""
    a, b, c = np.split(np.asarray(shape, dtype=float), 3)
    j = np.arange(1, a.size + 1, dtype=float)

    def angles(t):
        jt = np.multiply.outer(t, j)
        cos, sin = np.cos(jt), np.sin(jt)
        theta = HALF_PI + scale * (cos @ a + sin @ b)
        phi = 0.5 * t + scale * (sin @ c)
        dtheta = scale * ((-sin * j) @ a + (cos * j) @ b)
        dphi = 0.5 + scale * ((cos * j) @ c)
        return theta, phi, dtheta, dphi

    return Curve(FOUR_PI, angles)


def arc_length(curve: Curve, panels: int = 128, order: int = 32) -> float:
    """Composite Gauss-Legendre integral of the closed-form speed.

    Panels keep the rule accurate near the kinks a trial shape can put
    into |r'(t)|, where a single high-order rule converges slowly.
    """
    u, w = roots_legendre(order)
    h = curve.period / panels
    left = h * np.arange(panels)
    ts = (left[:, None] + 0.5 * h * (u + 1.0)).ravel()
    return float(0.5 * h * np.sum(np.tile(w, panels) * curve.speed(ts)))


def mean_distance(curve: Curve, points: np.ndarray, nodes: int = 4096) -> np.ndarray:
    """Parameter-mean geodesic distance from each point to the curve (trapezoid rule)."""
    ts = curve.period * np.arange(nodes) / nodes
    dots = np.clip(np.atleast_2d(points) @ curve.xyz(ts).T, -1.0, 1.0)
    return np.arccos(dots).mean(axis=1)


def fibonacci_design(n: int) -> np.ndarray:
    """Golden-angle lattice: z = 1 - (2i + 1)/n, longitude i * pi(3 - sqrt 5)."""
    i = np.arange(n, dtype=float)
    z = 1.0 - (2.0 * i + 1.0) / n
    ph = i * math.pi * (3.0 - math.sqrt(5.0))
    r = np.sqrt(1.0 - z * z)
    return np.stack([r * np.cos(ph), r * np.sin(ph), z], axis=-1)


def brute_min_distance(curve: Curve, points: np.ndarray, nodes: int = 1 << 16) -> tuple[np.ndarray, float]:
    """Dense-scan minimum distance from each point, and the scan's worst-case excess.

    The true minimum lies within half a node spacing of arc from some scan
    node, so it is at most max|r'| * h / 2 below the scanned minimum.
    """
    ts = curve.period * np.arange(nodes) / nodes
    best = np.max(np.atleast_2d(points) @ curve.xyz(ts).T, axis=1)
    h = curve.period / nodes
    slack = 1.01 * float(np.max(curve.speed(ts))) * 0.5 * h
    return np.arccos(np.clip(best, -1.0, 1.0)), slack


def has_close_approach(curve: Curve, eps: float = 1e-4, samples: int = 1 << 14) -> bool:
    """True if sampled points more than 3 * period / 4096 apart in t lie within eps.

    That is the program's own definition of a non-simple curve; a sampled
    pair bounds the true closest approach from above, so a hit is decisive.
    """
    ts = curve.period * np.arange(samples) / samples
    pairs = cKDTree(curve.xyz(ts)).query_pairs(r=eps, output_type="ndarray")
    if pairs.size == 0:
        return False
    dt = np.abs(ts[pairs[:, 0]] - ts[pairs[:, 1]])
    return bool(np.any(np.minimum(dt, curve.period - dt) > 3.0 * curve.period / 4096))


def area_uniform(seed: int, n: int) -> np.ndarray:
    """The points mean_min_arc_distance draws for a sample seed, rebuilt from its documented law.

    cos(theta) is uniform on [-1, 1] and phi on [0, 2pi), drawn in that
    order from numpy's default generator.
    """
    rng = np.random.default_rng(seed)
    z = rng.uniform(-1.0, 1.0, n)
    ph = rng.uniform(0.0, 2 * math.pi, n)
    r = np.sqrt(1.0 - z * z)
    return np.stack([r * np.cos(ph), r * np.sin(ph), z], axis=-1)


def family_wise_three_sigma(devs, errs) -> bool:
    """All |dev| within z * stderr, z Bonferroni-adjusted to a 0.27% family-wise level."""
    devs, errs = np.asarray(devs, dtype=float), np.asarray(errs, dtype=float)
    z = float(norm.isf(0.00135 / devs.size))
    return bool(np.all(devs <= z * errs))
