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
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .curves import SphericalCurve, _arc_balls, _nearest_parameters, _segments, arc_length, is_closed
from .quadrature import (
    FunctionalResult,
    QuadratureRule,
    _require_curve_rule,
    default_curve_rule,
    default_sphere_rule,
    integrate_1d,
    require_integer,
    sample_mean,
    sphere_integrate,
)
from .sphere import SpherePoint, as_unit_xyz, fibonacci_sphere_points, uniform_unit_vectors

FOUR_PI = 4.0 * math.pi
HALF_PI = 0.5 * math.pi

#: Points of the golden-angle design over which sup_deviation_from_half_pi takes its max.
DESIGN_SIZE = 122

# Most entries in one block of points x curve nodes (_by_rows). At 2^16 a
# block matrix is 512 KiB, so the one a reduce makes (_angles takes the arccos
# in place) stays in a 2 MiB L2 cache, and OpenBLAS runs the 3-wide product on
# one thread. A sweep on a 2-core Xeon (2 MiB L2 a core) put 2^15-2^17 within
# a few percent of each other; 2^14 and below lose to per-block Python
# overhead, and 2^18 and above to cache misses and BLAS threads (2^21: 3-4x
# the wall time and 7x the CPU time of 2^16 on a 163,840 x 512 field, five
# times sphere_to_curve_mean's default 32,768 x 512). A field of two blocks
# or more spreads its blocks over the usable cores (_by_cores), each core
# taking a run of whole blocks; the blocks are the same at any core count, and
# so are the field's bytes.
_CHUNK_ENTRIES = 1 << 16
# The nearest-point refinement keeps a few dozen row-length temporaries per
# pass, so _by_rows counts each of its rows as this many entries: blocks of
# 2048 rows, which the best-sample scan (_best_samples) shares. Refining all
# 10,000 rows of a call at once raised its traced peak from 1.3 to 4.0 MB
# (seam, 4096-sample scan).
_REFINE_ENTRIES_PER_ROW = 32
# The best-sample scan (_best_samples) cuts n samples into isqrt(n) // 2
# arcs of about 2 sqrt(n) samples (128 at 4096). An interleaved sweep on a
# 2-core Xeon over the seam, the wavy circle, the doubled great circle and a
# trig series put that width first at 10,000 points x 4096 samples (10-19 ms,
# against 19-28 ms at sqrt(n) samples an arc, 10-23 ms at 3 sqrt(n), 12-37 ms
# at 4 sqrt(n) and 37-49 ms for the full scan) and at 1024 x 1024 (1.09-1.48
# ms, against 1.36-1.76, 1.12-1.72 and 1.17-1.77 ms; the full scan took
# 1.23-1.32 ms): narrower arcs cost more Python per sample kept, wider ones
# keep more samples. It stayed first once a block's arcs took five numpy
# calls each in place of thirteen (medians over the seam, the wavy and the
# doubled great circles and two trig series: 13.5 ms against 15.4, 17.1 and
# 22.6 ms at 1.5, 3 and 1 sqrt(n) samples an arc, and 1.43 ms against
# 1.50-1.62 ms at 1024 x 1024).
_SCAN_ARC_ROOTS = 2
# Distance slack of the scan's arc-ball bound. A chord taken from a dot
# product is off by up to the square root of the product's few-ulp error,
# about 5e-8 near 0, so at 1e-6 every sample of a dropped arc is farther from
# the point than the nearest centre by far more than rounding. An arc's
# radius is about 0.2 (4096 samples of a 4pi curve), so the slack keeps next
# to nothing that the bound would drop.
_SCAN_SLACK = 1e-6
# Coefficients of p'(x) = a0 + a1 x + ... + a5 x^5, p the degree-6 polynomial
# through the dot products f_k, k = -3..3, of a point with its best sample
# (k = 0) and the samples k spacings away: a0, a2, a4 from o_j = f_j - f_-j
# and a1, a3, a5 from e_j = f_j + f_-j - 2 f_0, j = 1, 2, 3 (_window_peak).
_ODD_SLOPE = ((3 / 4, -3 / 20, 1 / 60), (-13 / 16, 1 / 2, -1 / 16), (5 / 48, -1 / 12, 1 / 48))
_EVEN_SLOPE = ((3 / 2, -3 / 20, 1 / 90), (-13 / 12, 1 / 3, -1 / 36), (1 / 8, -1 / 20, 1 / 120))


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


def _angles(dots: Callable[[], np.ndarray], angle: np.ufunc = np.arccos, reduce=lambda a: a) -> np.ndarray:
    """reduce(angle(np.clip(dots(), -1.0, 1.0))), bit for bit, with no clip pass.

    dots() returns a fresh array of dot products of unit vectors, which
    rounding pushes past +-1 only rarely (a point on a curve node, say). The
    angle is taken in place on that array, with numpy's invalid-value
    warning off (set here, so that it holds on _by_cores' worker threads as
    well). Only where the result holds a NaN are the dot products formed
    anew by dots() and clipped. reduce must keep a NaN angle as a NaN in its
    result, as a weighted row sum does; the check reads the reduced values.
    """
    d = dots()
    with np.errstate(invalid="ignore"):
        angle(d, out=d)
    out = reduce(d)
    if np.isnan(out).any():
        out = reduce(angle(np.clip(dots(), -1.0, 1.0)))
    return out


def _point_integral(angle: np.ufunc, q, rule: QuadratureRule | None, antipodal_sum: float) -> FunctionalResult:
    """Surface integral of angle(q . x) over the sphere, by rule (default
    default_sphere_rule()), where angle(t) + angle(-t) = antipodal_sum. The
    dot products are clipped to [-1, 1] only where one leaves it (_angles),
    and the shared grid x is never written."""
    qv = as_unit_xyz(q)
    return sphere_integrate(
        lambda x: _angles(lambda: x @ qv, angle), rule or default_sphere_rule(), antipodal_sum=antipodal_sum
    )


def mean_point_to_sphere(q, rule: QuadratureRule | None = None) -> FunctionalResult:
    """Mean geodesic distance from a fixed unit vector to the whole sphere.

    (1/4pi) * integral over S of arccos(q . x) dS; equals pi/2 for every q
    (reduce to the 1D form: integral of gamma sin(gamma)/2 over [0, pi]).
    """
    res = _point_integral(np.arccos, q, rule, math.pi)
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
    return _point_integral(np.arcsin, q, rule, 0.0)


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


def point_to_curve_mean(curve: SphericalCurve, p, rule: QuadratureRule | None = None) -> FunctionalResult:
    """Mean geodesic distance from a sphere point to the curve: the
    parameter mean (1/period) * integral of dist(p, r(t)) dt."""
    qv = as_unit_xyz(p)
    rule = rule or default_curve_rule()
    dom = curve.domain

    def dist(ts: np.ndarray) -> np.ndarray:
        r = curve.positions(ts)
        return _angles(lambda: r @ qv)

    res = integrate_1d(dist, dom.t_i, dom.t_f, rule)
    period = dom.period
    return FunctionalResult(res.value / period, res.error_estimate / period, res.nodes_used, res.warning)


def mean_distance_field(curve: SphericalCurve, points: np.ndarray, curve_rule: QuadratureRule | None = None) -> np.ndarray:
    """Vectorized parameter-mean distance from each row of `points` to the curve.

    Evaluates the inner integral at the rule's stated node count without
    refinement; used where many field values are needed at once. The
    rule's nodes are a sample grid (SphericalCurve.sample). The points x
    nodes matrix is formed in row blocks (_by_rows); a field of two blocks
    or more spreads them over the usable cores (_by_cores), and its bytes
    do not depend on how many cores there are. A block's arccos is taken in
    place; only a block with a dot product that rounding pushed past +-1, as
    it can for a point on a node, is formed again and clipped (_angles).
    """
    curve_rule = curve_rule or default_curve_rule()
    _require_curve_rule(curve_rule)
    n, period = curve_rule.n, curve.domain.period
    C = curve.sample(n)[1]
    w_mean = np.full(n, period / n) / period
    return _by_cores(points, n, lambda P: _angles(lambda: P @ C.T, reduce=lambda A: A @ w_mean))


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
    on the calling thread. An exception raised on a run's thread reaches
    the caller once every run has ended. The threads live for one call: a
    pool kept across calls would hang the next call in a child made by
    os.fork().
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


def sphere_to_curve_mean(curve: SphericalCurve, sphere_rule: QuadratureRule | None = None) -> FunctionalResult:
    """Unnormalized surface integral over the sphere of the mean distance field.

    The conventional target value is area 4pi times the great-circle field
    constant pi/2, i.e. 2 pi^2. Divide by 4pi for the normalized mean. The
    field at fixed inner resolution, the default curve rule, has field(x) +
    field(-x) = pi, so a product rule, default_sphere_rule() if none is
    given, takes one level and bounds the error from the grid's symmetry
    defect (sphere_integrate's antipodal_sum); its tol only sets the warning.
    """
    sphere_rule = sphere_rule or default_sphere_rule()
    return sphere_integrate(lambda x: mean_distance_field(curve, x), sphere_rule, antipodal_sum=math.pi)


def sup_deviation_from_half_pi(
    curve: SphericalCurve, curve_rule: QuadratureRule | None = None
) -> tuple[float, np.ndarray]:
    """Max |mean-distance - pi/2| over a fixed near-uniform sphere design.

    Deterministic by construction (golden-angle design of DESIGN_SIZE
    points, fixed node count), so it is usable as an optimization objective.
    The design is built once (_design). Returns (sup, argmax point).
    """
    design = _design()
    vals = mean_distance_field(curve, design, curve_rule)
    idx = int(np.argmax(np.abs(vals - HALF_PI)))
    return float(abs(vals[idx] - HALF_PI)), design[idx].copy()


@lru_cache(maxsize=1)
def _design() -> np.ndarray:
    """Read-only fibonacci_sphere_points(DESIGN_SIZE), shared by every call."""
    design = fibonacci_sphere_points(DESIGN_SIZE)
    design.setflags(write=False)
    return design


def _min_distance_batch(curve: SphericalCurve, points: np.ndarray, n_scan: int) -> tuple[np.ndarray, np.ndarray]:
    """Global minimum distance from each point to the curve, and its parameter.

    Each point's best of the n_scan >= 64 equispaced samples of
    SphericalCurve.sample (largest dot product, the same argmin as arccos
    and cheaper; ties break toward the smallest parameter) comes from a scan
    that forms the dot products with only the arcs of samples that can hold
    it (_best_samples). Newton-bisection refinement
    (curves._nearest_parameters) then finds the nearest parameter within
    one sample spacing of it. The refinement starts at the maximum of the
    degree-6 polynomial through the dot products with the best sample and
    the three samples on each side around the closed curve (_window_peak),
    which at 4096 samples lies about 1e-13 from the curve's, so a row stops
    after one evaluation of the curve. The distance is the arccos of the
    dot product at the refinement's last evaluated parameter, which is
    within _NEAREST_STEP of the returned, wrapped one.

    Each row block of 2048 points is scanned and refined in one pass, and
    a row's result does not depend on the other rows of its block. The
    blocks stay on the calling thread. Their numpy calls last microseconds,
    so two threads spend much of their time handing the GIL back and forth:
    spread over two cores (_by_cores), the benchmark's calls ran about 10%
    more a second for about 30% more CPU each with both cores free, and 13%
    fewer a second with another process on the second core (BENCH_34.json).
    """
    require_integer(n_scan, 64, "n_scan")
    ts, C = curve.sample(n_scan)
    dt = curve.domain.period / n_scan
    scan = _best_samples(C)
    # Row k of the samples padded by three at each end is sample k - 3, so
    # windows[i] holds samples i - 3 .. i + 3 around the closed curve, (3, 7).
    windows = sliding_window_view(np.concatenate([C[-3:], C, C[:3]]), 7, axis=0)

    def refine(P: np.ndarray) -> np.ndarray:
        i = scan(P)
        W = windows[i]
        f = W[:, 0] * P[:, :1] + W[:, 1] * P[:, 1:2] + W[:, 2] * P[:, 2:]
        t, f = _nearest_parameters(curve, P, ts[i], dt, ts[i] + dt * _window_peak(f.T))
        return np.column_stack([t, f])

    t, f = _by_rows(points, _REFINE_ENTRIES_PER_ROW, refine, (float, 2)).T
    return _angles(f.copy), curve._wrap(t)


def _window_peak(f: np.ndarray) -> np.ndarray:
    """Per column of f, rows f_-3 .. f_3 at x = -3 .. 3, the x in [-1, 1]
    where the degree-6 polynomial p through them peaks.

    Starts at the vertex of the parabola through f_-1, f_0, f_1 (Brent,
    Algorithms for Minimization without Derivatives, 1973), or at 0 where
    it is not concave, clipped to [-1, 1]; then takes two Newton steps on
    p' = 0, each only where p'' < 0 and clipped to [-1, 1]. p' is off the
    sampled function's derivative by O(h^6) in the sample spacing h. Every
    column is computed by the same elementwise operations, so its result
    does not depend on the other columns.
    """
    o = [f[3 + j] - f[3 - j] for j in (1, 2, 3)]
    two_f0 = 2.0 * f[3]
    e = [f[3 + j] + f[3 - j] - two_f0 for j in (1, 2, 3)]
    a0, a2, a4 = (c1 * o[0] + c2 * o[1] + c3 * o[2] for c1, c2, c3 in _ODD_SLOPE)
    a1, a3, a5 = (c1 * e[0] + c2 * e[1] + c3 * e[2] for c1, c2, c3 in _EVEN_SLOPE)
    b1, b2, b3, b4 = 2.0 * a2, 3.0 * a3, 4.0 * a4, 5.0 * a5
    x = np.divide(-0.5 * o[0], e[0], out=np.zeros_like(e[0]), where=e[0] < 0)
    np.clip(x, -1.0, 1.0, out=x)
    for _ in range(2):
        slope = a0 + x * (a1 + x * (a2 + x * (a3 + x * (a4 + x * a5))))
        bend = a1 + x * (b1 + x * (b2 + x * (b3 + x * b4)))
        concave = bend < 0
        np.divide(slope, bend, out=slope, where=concave)
        np.subtract(x, slope, out=x, where=concave)
        np.clip(x, -1.0, 1.0, out=x)
    return x


def _best_samples(C: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The scan P -> np.argmax(P @ C.T, axis=1) for the closed curve's samples
    C, with the dot products formed only where a point's best sample can lie.

    C is cut into arcs of consecutive samples, each in its ball
    (curves._arc_balls), built once for every block the scan is given, so no
    sample of arc k is nearer to a point p than |p - centre_k| - radius_k.
    Arc k is dropped for p when that exceeds |p - c*| + _SCAN_SLACK, c* the
    nearest centre, which is itself a sample: every sample of the arc then
    has a smaller dot product with p than c*. The chords come from dot
    products, as in the far-pair rule of curves._chord_candidates. Each arc
    forms one product with all of its live points, and a point's best is its
    largest dot product over its live arcs, at the smallest index that
    holds it, so ties still go to the smallest index. The scan's time goes
    mostly to numpy calls rather than to its dot products (3-8.5M on a
    10,000-point batch), so a block makes only five calls an arc.
    """
    n = len(C)
    n_arcs = max(1, math.isqrt(n) // _SCAN_ARC_ROOTS)
    starts = np.arange(n_arcs + 1) * n // n_arcs
    centres, radii = _arc_balls(C, _segments(C)[1])(starts[:-1], np.diff(starts))
    reach = radii[:, None] + _SCAN_SLACK
    minus_twice_centres = -2.0 * centres
    # Each arc's samples as a (3, m) matrix, twice: contiguous for a product
    # with two points or more, one gemm that is 1.4-1.7x faster than on the
    # transposed view at 100-400 points (2-core Xeon) and gives the same
    # bits; as that view for a single point, which numpy takes as a
    # matrix-vector product whose bits follow the layout.
    arcs = [(C[a:b].T, C[a:b].T.copy()) for a, b in zip(starts[:-1].tolist(), starts[1:].tolist())]

    def scan(P: np.ndarray) -> np.ndarray:
        # Squared chords from the centres (rows) to the points (columns), the
        # centres' norms taken as 1: that rounding is far below the slack.
        # Scaling by -2 is exact, so it may go before the product.
        square_gap = minus_twice_centres @ P.T
        square_gap += np.einsum("ij,ij->i", P, P) + 1.0
        bound = np.sqrt(np.maximum(square_gap.min(axis=0), 0.0)) + reach
        live = square_gap <= np.square(bound, out=bound)
        # The live (arc, point) pairs in ascending arc order, one run of
        # points an arc, each run scanned with one product.
        pairs = np.flatnonzero(live)
        ends = np.searchsorted(pairs, np.arange(1, n_arcs + 1) * len(P)).tolist()
        row = pairs % len(P)
        Q = P.take(row, axis=0)
        j = np.empty(row.size, np.intp)
        v = np.empty(row.size)
        cols = np.arange(len(P))
        a = 0
        for k, b in enumerate(ends):
            if b > a:
                dots = Q[a:b] @ arcs[k][b - a > 1]
                v[a:b] = dots[cols[: b - a], dots.argmax(axis=1, out=j[a:b])]
                j[a:b] += starts[k]
                a = b
        best = np.full(len(P), -np.inf)
        np.maximum.at(best, row, v)
        top = v == best[row]
        best_idx = np.full(len(P), n)  # every point keeps its nearest centre's arc, so ends below n
        np.minimum.at(best_idx, row[top], j[top])
        return best_idx

    return scan


def point_to_curve_min(curve: SphericalCurve, p, n_scan: int = 4096) -> tuple[float, float]:
    """Minimum geodesic distance from a point to the curve and its parameter.

    The best of n_scan equispaced samples, found from the dot products
    with only the arcs of samples that can hold it, is refined by
    Newton-bisection steps on the closed-form derivative of the dot product,
    from the maximum of the degree-6 polynomial through it and three
    neighbours each side (one pass at the default n_scan), within one
    sample spacing either side, to a step of 1e-10 in t; the
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
    samples, refined (see _min_distance_batch). seed, a non-negative
    integer, draws the sample.
    """
    require_integer(n_points, 100, "n_points")
    require_integer(seed, 0, "seed")
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
