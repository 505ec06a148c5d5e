"""Mean arc-distance functionals between sphere points and closed curves.

Conventions: distances are geodesic (radians, in [0, pi]); the mean
distance from a point to a curve is the parameter mean (dt / period), not
an arc-length-weighted mean, matching the defining integral. The sphere-
to-curve mean is the unnormalized surface integral of that field.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .curves import SphericalCurve, _arc_balls, _nearest_parameters, _segments, arc_length, is_closed
from .quadrature import (
    FunctionalResult,
    QuadratureRule,
    default_curve_rule,
    default_sphere_rule,
    integrate_1d,
    rule_nodes,
    sample_mean,
    sphere_integrate,
)
from .sphere import SpherePoint, as_unit_xyz, fibonacci_sphere_points, uniform_unit_vectors

FOUR_PI = 4.0 * math.pi
HALF_PI = 0.5 * math.pi

#: Tolerance of sphere_to_curve_mean's default sphere rule.
SPHERE_TO_CURVE_TOL = 1e-6

# Most entries in one block of points x curve nodes (_by_rows). At 2^16 a
# block matrix is 512 KiB, so the two or three a reduce makes stay in a 2 MiB
# L2 cache, and OpenBLAS runs the 3-wide product on one thread. A sweep on a
# 2-core Xeon (2 MiB L2 a core) put 2^15-2^17 within a few percent of each
# other; 2^14 and below lose to per-block Python overhead, and 2^18 and above
# to cache misses and BLAS threads (2^21: 3-4x the wall time and 7x the CPU
# time of 2^16 on the 163,840 x 512 field). A field of two blocks or more
# spreads its blocks over the usable cores (_by_cores), each core taking a run
# of whole blocks; the blocks are the same at any core count, and so are the
# field's bytes.
_CHUNK_ENTRIES = 1 << 16
# The nearest-point refinement keeps a few dozen row-length temporaries per
# pass, so _by_rows counts each of its rows as this many entries: blocks of
# 2048 rows. Refining all 10,000 rows of a call at once raised its traced
# peak from 1.3 to 4.0 MB (seam, 4096-sample scan).
_REFINE_ENTRIES_PER_ROW = 32
# The best-sample scan (_best_samples) cuts n samples into isqrt(n) // 2
# arcs of about 2 sqrt(n) samples (128 at 4096). An interleaved sweep on a
# 2-core Xeon over the seam, the wavy circle, the doubled great circle and a
# trig series put that width first at 10,000 points x 4096 samples (10-19 ms,
# against 19-28 ms at sqrt(n) samples an arc, 10-23 ms at 3 sqrt(n), 12-37 ms
# at 4 sqrt(n) and 37-49 ms for the full scan) and at 1024 x 1024 (1.09-1.48
# ms, against 1.36-1.76, 1.12-1.72 and 1.17-1.77 ms; the full scan took
# 1.23-1.32 ms): narrower arcs cost more Python per sample kept, wider ones
# keep more samples.
_SCAN_ARC_ROOTS = 2
# Distance slack of the scan's arc-ball bound. A chord taken from a dot
# product is off by up to the square root of the product's few-ulp error,
# about 5e-8 near 0, so at 1e-6 every sample of a dropped arc is farther from
# the point than the nearest centre by far more than rounding. An arc's
# radius is about 0.2 (4096 samples of a 4pi curve), so the slack keeps next
# to nothing that the bound would drop.
_SCAN_SLACK = 1e-6


@dataclass(frozen=True)
class ELResidual:
    """Stationarity residuals of the point-to-curve distance integrand.

    res_theta is the colatitude-derivative imbalance (left minus right),
    res_phi the longitude derivative; both vanish on the discrete grid
    theta = m*pi, phi = phi0 - (pi/2 + k*pi).
    """

    res_theta: float
    res_phi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.res_theta) and math.isfinite(self.res_phi)):
            raise ValueError("residuals must be finite")


def mean_point_to_sphere(q, rule: QuadratureRule | None = None) -> FunctionalResult:
    """Mean geodesic distance from a fixed unit vector to the whole sphere.

    (1/4pi) * integral over S of arccos(q . x) dS; equals pi/2 for every q
    (reduce to the 1D form: integral of gamma sin(gamma)/2 over [0, pi]).
    """
    qv = as_unit_xyz(q)
    rule = rule or default_sphere_rule()

    def g(x: np.ndarray) -> np.ndarray:
        return np.arccos(np.clip(x @ qv, -1.0, 1.0))

    res = sphere_integrate(g, rule)
    return FunctionalResult(res.value / FOUR_PI, res.error_estimate / FOUR_PI, res.nodes_used, res.warning)


def arcsin_identity_residual(q, rule: QuadratureRule | None = None) -> FunctionalResult:
    """Surface integral of arcsin(q . x) over the sphere; identically zero.

    With q = (A, B, E) and D = A cos(phi) + B sin(phi), the integrand in
    coordinates is sin(theta) * arcsin(D sin(theta) + E cos(theta)), and the
    double integral vanishes because arcsin(q . x) is odd under the antipodal
    map x -> -x. Note the vanishing holds only in aggregate: expanding
    arcsin in powers of D and E, the phi-integral of D^k is strictly
    positive for even k, so the individual terms do not vanish.
    """
    qv = as_unit_xyz(q)
    rule = rule or default_sphere_rule()

    def g(x: np.ndarray) -> np.ndarray:
        return np.arcsin(np.clip(x @ qv, -1.0, 1.0))

    return sphere_integrate(g, rule)


def curve_to_sphere_mean_M(curve: SphericalCurve, rule: QuadratureRule | None = None) -> FunctionalResult:
    """Line integral over the curve of the constant point-to-sphere mean.

    Equals (pi/2) * arc_length, so it is 2 pi^2 for every curve of
    arc-length 4 pi. Requires a closed curve.
    """
    if not is_closed(curve):
        raise ValueError("curve_to_sphere_mean_M requires a closed curve")
    length = arc_length(curve, rule)
    return FunctionalResult(
        HALF_PI * length.value, HALF_PI * length.error_estimate, length.nodes_used, length.warning
    )


def point_to_curve_mean(
    curve: SphericalCurve,
    p,
    rule: QuadratureRule | None = None,
    arc_length_weighted: bool = False,
) -> FunctionalResult:
    """Mean geodesic distance from a sphere point to the curve.

    Default is the parameter mean (1/period) * integral of dist(p, r(t)) dt.
    With arc_length_weighted=True the integrand is weighted by |r'(t)| and
    normalized by arc length instead (reparameterization-invariant variant;
    off by default because the defining functional is the dt-mean).
    """
    qv = as_unit_xyz(p)
    rule = rule or default_curve_rule()
    dom = curve.domain

    def dist(ts: np.ndarray) -> np.ndarray:
        return np.arccos(np.clip(curve.positions(ts) @ qv, -1.0, 1.0))

    if not arc_length_weighted:
        res = integrate_1d(dist, dom.t_i, dom.t_f, rule)
        period = dom.period
        return FunctionalResult(res.value / period, res.error_estimate / period, res.nodes_used, res.warning)

    def weighted(ts: np.ndarray) -> np.ndarray:
        return dist(ts) * curve.speeds(ts)

    num = integrate_1d(weighted, dom.t_i, dom.t_f, rule)
    den = arc_length(curve, rule)
    value = num.value / den.value
    err = (num.error_estimate + abs(value) * den.error_estimate) / den.value
    warning = num.warning or den.warning
    return FunctionalResult(value, err, num.nodes_used + den.nodes_used, warning)


def mean_distance_field(curve: SphericalCurve, points: np.ndarray, curve_rule: QuadratureRule | None = None) -> np.ndarray:
    """Vectorized parameter-mean distance from each row of `points` to the curve.

    Evaluates the inner integral at the rule's stated node count without
    refinement; used where many field values are needed at once. The
    rule's nodes are a sample grid (SphericalCurve.sample). The points x
    nodes matrix is formed in row blocks (_by_rows); a field of two blocks
    or more spreads them over the usable cores (_by_cores), and its bytes
    do not depend on how many cores there are.
    """
    curve_rule = curve_rule or default_curve_rule()
    _, w = rule_nodes(curve_rule, curve.domain.t_i, curve.domain.t_f)
    C = curve.sample(w.size)[1]
    w_mean = w / curve.domain.period
    return _by_cores(points, w.size, lambda P: np.arccos(np.clip(P @ C.T, -1.0, 1.0)) @ w_mean)


def _block_rows(n_nodes: int) -> int:
    """Rows of one _by_rows block: at most _CHUNK_ENTRIES entries, one row at least."""
    return max(1, _CHUNK_ENTRIES // n_nodes)


def _by_rows(points, n_nodes: int, reduce, dtype) -> np.ndarray:
    """reduce(P) over row chunks P of `points` whose P x n_nodes matrices hold at most
    _CHUNK_ENTRIES entries (a chunk has one row at least). A subarray dtype,
    such as (float, 2), takes one row of values per point."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.empty(points.shape[0], dtype)
    step = _block_rows(n_nodes)
    for s in range(0, points.shape[0], step):
        out[s : s + step] = reduce(points[s : s + step])
    return out


def _usable_cores() -> int:
    """The cores this process may run on: its affinity mask, else os.cpu_count()."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _by_cores(points, n_nodes: int, reduce) -> np.ndarray:
    """_by_rows(points, n_nodes, reduce, float) with its blocks spread over the usable cores.

    The blocks are cut into one contiguous run of whole blocks per core,
    at most one run a block. Each run goes through _by_rows on its own
    thread into its slice of the output, and the calling thread takes the
    first. Every block holds the rows it holds in the one-thread call, and
    BLAS rounds a row by its place in its block, so the values are that
    call's bits at any core count. numpy's ufuncs and BLAS release the GIL
    for a block's work, so the threads overlap. A field of one block stays
    on the calling thread. The threads live for one call: a pool kept
    across calls would hang the next call in a child made by os.fork().
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    rows = _block_rows(n_nodes)
    blocks = -(-len(points) // rows)
    runs = min(_usable_cores(), blocks)
    if runs < 2:
        return _by_rows(points, n_nodes, reduce, float)
    out = np.empty(len(points))
    cuts = [rows * (blocks * k // runs) for k in range(runs + 1)]

    def fill(a: int, b: int) -> None:
        out[a:b] = _by_rows(points[a:b], n_nodes, reduce, float)

    with ThreadPoolExecutor(runs - 1) as pool:
        rest = [pool.submit(fill, a, b) for a, b in zip(cuts[1:-1], cuts[2:])]
        fill(cuts[0], cuts[1])
    for run in rest:
        run.result()
    return out


def sphere_to_curve_mean(
    curve: SphericalCurve,
    sphere_rule: QuadratureRule | None = None,
    curve_rule: QuadratureRule | None = None,
) -> FunctionalResult:
    """Unnormalized surface integral over the sphere of the mean distance field.

    The conventional target value is area 4pi times the great-circle field
    constant pi/2, i.e. 2 pi^2. Divide by 4pi for the normalized mean. The
    error estimate reflects refinement of the outer surface integral at
    fixed inner resolution.
    """
    sphere_rule = sphere_rule or default_sphere_rule(tol=SPHERE_TO_CURVE_TOL)
    curve_rule = curve_rule or default_curve_rule()

    return sphere_integrate(lambda x: mean_distance_field(curve, x, curve_rule), sphere_rule)


def sup_deviation_from_half_pi(
    curve: SphericalCurve,
    n_design: int = 122,
    curve_rule: QuadratureRule | None = None,
) -> tuple[float, np.ndarray]:
    """Max |mean-distance - pi/2| over a fixed near-uniform sphere design.

    Deterministic by construction (golden-angle design, fixed node count),
    so it is usable as an optimization objective. Returns (sup, argmax point).
    """
    design = fibonacci_sphere_points(n_design)
    vals = mean_distance_field(curve, design, curve_rule)
    idx = int(np.argmax(np.abs(vals - HALF_PI)))
    return float(abs(vals[idx] - HALF_PI)), design[idx]


def _min_distance_batch(curve: SphericalCurve, points: np.ndarray, n_scan: int) -> tuple[np.ndarray, np.ndarray]:
    """Global minimum distance from each point to the curve, and its parameter.

    Each point's best of the n_scan >= 64 equispaced samples of
    SphericalCurve.sample (largest dot product, the same argmin as arccos
    and cheaper; ties break toward the smallest parameter) comes from a scan
    that forms the dot products with only the arcs of samples that can hold
    it (_best_samples). Newton-bisection refinement
    (curves._nearest_parameters) then finds the nearest parameter within
    one sample spacing of it, in row blocks. It starts at the vertex of the
    parabola through the dot products with the best sample and its two
    neighbours around the closed curve (Brent, Algorithms for Minimization
    without Derivatives, 1973), or at the best sample where that parabola
    is not concave. The distance is the arccos of the dot product at the
    refinement's last evaluated parameter, which is within _NEAREST_STEP of
    the returned, wrapped one.
    """
    if n_scan < 64:
        raise ValueError("n_scan must be >= 64")
    ts, C = curve.sample(n_scan)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    dt = curve.domain.period / n_scan

    def refine(B: np.ndarray) -> np.ndarray:
        # A block reads its points with their best samples' indices as a fourth column.
        P, i = B[:, :3], B[:, 3].astype(np.int64)
        f_prev, f_best, f_next = (np.einsum("ij,ij->i", P, C.take(i + k, axis=0, mode="wrap")) for k in (-1, 0, 1))
        bend = f_prev - 2.0 * f_best + f_next
        shift = np.divide(0.5 * dt * (f_prev - f_next), bend, out=np.zeros_like(bend), where=bend < 0)
        t, f = _nearest_parameters(curve, P, ts[i], dt, ts[i] + np.clip(shift, -dt, dt))
        return np.column_stack([t, f])

    t, f = _by_rows(
        np.column_stack([points, _best_samples(points, C)]), _REFINE_ENTRIES_PER_ROW, refine, (float, 2)
    ).T
    return np.arccos(np.clip(f, -1.0, 1.0)), curve._wrap(t)


def _best_samples(points: np.ndarray, C: np.ndarray) -> np.ndarray:
    """np.argmax(points @ C.T, axis=1) for the closed curve's samples C, with
    the dot products formed only where a point's best sample can lie.

    C is cut into arcs of consecutive samples, each in its ball
    (curves._arc_balls), so no sample of arc k is nearer to a point p than
    |p - centre_k| - radius_k. Arc k is dropped for p when that exceeds
    |p - c*| + _SCAN_SLACK, c* the nearest centre, which is itself a sample:
    every sample of the arc then has a smaller dot product with p than c*.
    The chords come from dot products, as in the far-pair rule of
    curves._chord_candidates. The arcs left are scanned in ascending order,
    one product each, and a point's best changes only for a strictly larger
    dot product, so ties still go to the smallest index. Row blocks are
    sized by the points x arcs bound matrix.
    """
    n = len(C)
    n_arcs = max(1, math.isqrt(n) // _SCAN_ARC_ROOTS)
    starts = np.arange(n_arcs + 1) * n // n_arcs
    centres, radii = _arc_balls(C, _segments(C)[1])(starts[:-1], np.diff(starts))
    reach = radii[:, None] + _SCAN_SLACK

    def scan(P: np.ndarray) -> np.ndarray:
        # Squared chords from the centres (rows) to the points (columns), the
        # centres' norms taken as 1: that rounding is far below the slack.
        square_gap = centres @ P.T
        square_gap *= -2.0
        square_gap += np.einsum("ij,ij->i", P, P) + 1.0
        bound = np.sqrt(np.maximum(square_gap.min(axis=0), 0.0)) + reach
        live = square_gap <= np.square(bound, out=bound)
        best = np.full(len(P), -np.inf)
        best_idx = np.zeros(len(P), np.int64)
        cols = np.arange(len(P))
        for k in np.flatnonzero(live.any(axis=1)):
            rows = live[k].nonzero()[0]
            dots = P.take(rows, axis=0) @ C[starts[k] : starts[k + 1]].T
            j = dots.argmax(axis=1)
            v = dots[cols[: rows.size], j]
            up = v > best[rows]
            rows = rows[up]
            best[rows] = v[up]
            best_idx[rows] = j[up] + starts[k]
        return best_idx

    return _by_rows(points, n_arcs, scan, np.int64)


def point_to_curve_min(curve: SphericalCurve, p, n_scan: int = 4096) -> tuple[float, float]:
    """Minimum geodesic distance from a point to the curve and its parameter.

    The best of n_scan equispaced samples, found from the dot products
    with only the arcs of samples that can hold it, is refined by
    Newton-bisection steps on the closed-form derivative of the dot product,
    from the vertex of the parabola through it and its two neighbours,
    within one sample spacing either side, to a step of 1e-10 in t; the
    distance is taken at the last evaluated parameter (see
    _min_distance_batch). n_scan must be >= 64 and dense enough to bracket
    the global basin (the default resolves 10-oscillation colatitude
    profiles with >400 samples per oscillation).
    """
    d, t = _min_distance_batch(curve, as_unit_xyz(p)[None, :], n_scan)
    return float(d[0]), float(t[0])


def mean_min_arc_distance(
    curve: SphericalCurve,
    n_points: int = 100_000,
    seed: int = 0,
    n_scan: int = 4096,
) -> FunctionalResult:
    """Monte Carlo mean of the minimum distance from the sphere to the curve.

    Arithmetic mean over an area-uniform sample of sphere points of the
    distance to the nearest curve point, with the sample standard error as
    the error estimate. Each distance comes from the best of n_scan >= 64
    samples, refined (see _min_distance_batch).
    """
    if n_points < 100:
        raise ValueError("n_points must be >= 100")
    points = uniform_unit_vectors(seed, n_points)
    return sample_mean(_min_distance_batch(curve, points, n_scan)[0])


def el_residuals(theta: float, phi: float, p: SpherePoint) -> ELResidual:
    """Stationarity residuals of the distance integrand at (theta, phi).

    res_theta = sin(theta0) cos(theta) cos(phi0 - phi) - cos(theta0) sin(theta)
    res_phi   = sin(theta0) sin(theta) sin(phi0 - phi)
    """
    st0, ct0 = math.sin(p.theta), math.cos(p.theta)
    res_theta = st0 * math.cos(theta) * math.cos(p.phi - phi) - ct0 * math.sin(theta)
    res_phi = st0 * math.sin(theta) * math.sin(p.phi - phi)
    return ELResidual(res_theta, res_phi)
