"""Integration engines with doubling-based error estimates.

Curve integrals are over the period of a closed curve, so their
integrands are periodic, and they take one rule: the nested periodic
trapezoid (periodic_trapezoid). The sphere takes a product Gauss-Legendre
x trapezoid rule (gauss_legendre) or Monte Carlo (monte_carlo), the
SPHERE_KINDS. rule_nodes rejects a curve rule of a sphere kind, and
sphere_integrate a sphere rule of the curve kind.

Deterministic rules refine by doubling from n = rule.n and report I(2n)
with error estimate |I(2n) - I(n)| once that is within tol. No level may
hold more than NODE_CAP nodes (n on a line, 2n^2 on the sphere grid):
refinement stops at the last level within the cap, flagged
TOLERANCE_NOT_REACHED, and a rule whose second level would pass the cap
raises ValueError before the integrand is called. nodes_used counts the
evaluation points of every level. Monte Carlo rules report the sample
mean with the sample standard error. The arc-distance integrands here are
only C0 where their argument reaches +-1, so the doubling estimate is
mandatory rather than assuming spectral accuracy.

Surface integrands are functions of an (N, 3) array of unit vectors. A
product level builds its points as outer products of the trig values of
its two axes (sin theta times cos phi and sin phi, and cos theta), not
by evaluating trig functions at each of its nodes. It builds them once:
the points of the two levels last used, of those up to n_theta = 512, are
cached and handed, read-only, to every later integral at those levels, so
an integrand must not write into its argument (one that tries raises
ValueError). A deeper level is built, read-only, for the call that uses it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import roots_legendre

from .sphere import uniform_unit_vectors

FOUR_PI = 4.0 * math.pi
TWO_PI = 2.0 * math.pi

#: Most nodes one refinement level may hold (see the module docstring).
NODE_CAP = 2**20

#: FunctionalResult.warning value when the cap was hit before the tolerance.
TOLERANCE_NOT_REACHED = "tolerance_not_reached"

#: The rule kinds of surface integrals; curve integrals take periodic_trapezoid.
SPHERE_KINDS = ("gauss_legendre", "monte_carlo")
RULE_KINDS = ("periodic_trapezoid", *SPHERE_KINDS)

#: Sample count of a Monte Carlo sphere rule whose settings give no n: the
#: default of eval and of verify under --rule monte_carlo.
MC_SAMPLES = 20000

# Most points of a product level that _product_grid keeps: 2^19, the level
# n_theta = 512, the deepest the default sphere rule reaches (12 MiB). The
# level n_theta = 724 that a rule from n = 362 reaches is 25 MB.
_GRID_CACHE_POINTS = 1 << 19


def require_integer(value, least: int, name: str) -> None:
    """Raise ValueError unless value is an integer (operator.index) of at least `least`."""
    try:
        ok = operator.index(value) >= least
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


class NonFiniteIntegrandError(ValueError):
    """The integrand returned NaN or Inf inside the integration domain."""


@dataclass(frozen=True)
class QuadratureRule:
    """Integration scheme descriptor.

    kind: periodic_trapezoid for curve integrals, one of SPHERE_KINDS for
        surface integrals.
    n: node count, an integer >= 2 (starting level for refining rules;
        sample count for MC).
    tol: requested absolute tolerance for the doubling refinement.
    seed: RNG seed, a non-negative integer, used by monte_carlo only.
    """

    kind: str = "periodic_trapezoid"
    n: int = 512
    tol: float = 1e-9
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in RULE_KINDS:
            raise ValueError(f"unknown rule kind {self.kind!r}; expected one of {RULE_KINDS}")
        require_integer(self.n, 2, "node count")
        require_integer(self.seed, 0, "seed")
        if not self.tol > 0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class FunctionalResult:
    """Value of an evaluated functional with its error estimate."""

    value: float
    error_estimate: float
    nodes_used: int
    warning: str | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.value) or not math.isfinite(self.error_estimate):
            raise ValueError("FunctionalResult requires finite value and error estimate")
        if self.error_estimate < 0:
            raise ValueError("error estimate must be non-negative")


def default_curve_rule(n: int = 512, tol: float = 1e-9) -> QuadratureRule:
    """Default rule for curve-parameter integrals (smooth, periodic)."""
    return QuadratureRule("periodic_trapezoid", n, tol)


def default_sphere_rule(n: int = 128, tol: float = 1e-7) -> QuadratureRule:
    """Default product rule for surface integrals: Gauss-Legendre n x trapezoid 2n."""
    return QuadratureRule("gauss_legendre", n, tol)


@lru_cache(maxsize=64)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    # scipy's banded eigensolver needs O(n) memory; numpy's leggauss builds
    # a dense n x n companion matrix
    nodes, weights = roots_legendre(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def periodic_nodes(a: float, b: float, n: int) -> np.ndarray:
    """The n equispaced nodes a + (b - a) k / n, k < n, of the periodic trapezoid rule on [a, b]."""
    return a + (b - a) * np.arange(n) / n


def rule_nodes(rule: QuadratureRule, a: float, b: float, n: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the periodic trapezoid rule at n nodes (default
    rule.n) on [a, b]: equispaced from a, with b identified with a, each
    weighing (b - a) / n. A rule of a sphere kind raises ValueError."""
    if rule.kind != "periodic_trapezoid":
        raise ValueError(f"curve integrals take a periodic_trapezoid rule, not {rule.kind}")
    n = n or rule.n
    return periodic_nodes(a, b, n), np.full(n, (b - a) / n)


def refinement_levels(rule: QuadratureRule, surface: bool = False) -> list[int]:
    """Node counts n = rule.n, 2n, 4n, ... of the levels a deterministic rule may build.

    A level holds n nodes on a line and 2n^2 on the product sphere grid
    (surface=True); the list ends at the last level within NODE_CAP.
    Raises ValueError when fewer than two levels fit, since the doubling
    estimate needs two.
    """
    size = (lambda n: 2 * n * n) if surface else (lambda n: n)
    levels = [rule.n << k for k in range(NODE_CAP.bit_length()) if size(rule.n << k) <= NODE_CAP]
    if len(levels) < 2:
        raise ValueError(f"{rule.kind} n = {rule.n} needs {size(2 * rule.n)} nodes a level, above the cap {NODE_CAP}")
    return levels


def _refine(level: Callable[[int], tuple[float, int]], levels: list[int], tol: float) -> FunctionalResult:
    """Doubling refinement: level(n) -> (I(n), evaluations) over `levels` until tol."""
    prev, used = level(levels[0])
    for n in levels[1:]:
        cur, evals = level(n)
        used += evals
        est = abs(cur - prev)
        if est <= tol:
            return FunctionalResult(cur, est, used)
        prev = cur
    return FunctionalResult(cur, est, used, warning=TOLERANCE_NOT_REACHED)


def sample_mean(values: np.ndarray, scale: float = 1.0) -> FunctionalResult:
    """scale times the sample mean, with scale times the sample standard error."""
    n = values.size
    return FunctionalResult(scale * float(np.mean(values)), scale * float(np.std(values, ddof=1)) / math.sqrt(n), n)


def _eval(f: Callable, xs: np.ndarray) -> np.ndarray:
    """f(xs) as floats, one per node (per row of xs on the sphere), all finite."""
    vals = np.asarray(f(xs), dtype=float)
    if vals.shape != xs.shape[:1]:
        raise ValueError("integrand must return one value per point")
    if not np.all(np.isfinite(vals)):
        raise NonFiniteIntegrandError("integrand returned a non-finite value")
    return vals


def integrate_1d(f: Callable, a: float, b: float, rule: QuadratureRule) -> FunctionalResult:
    """Integrate the periodic f over its period [a, b] by the nested periodic trapezoid.

    f receives a 1-D array of nodes and must return one value per node.
    The nodes are equispaced with both endpoints identified, which suits
    the periodic closed-curve integrands used throughout; on an open arc
    the rule is only first order and stops at the cap flagged
    TOLERANCE_NOT_REACHED. Its levels nest, so each doubling evaluates
    only the new nodes, and nodes_used, which counts every evaluation, is
    the node count of the level whose value was returned. Refines by
    doubling under the module's cap rule. A rule of a sphere kind raises
    ValueError (rule_nodes).
    """
    if not b > a:
        raise ValueError("integration bounds must satisfy a < b")
    total = 0.0

    def level(n: int) -> tuple[float, int]:
        nonlocal total
        xs = rule_nodes(rule, a, b, n)[0]
        # levels nest: past the first, the new nodes are the odd ones
        new = xs if n == rule.n else xs[1::2]
        total += float(np.sum(_eval(f, new)))
        return (b - a) * total / n, new.size

    return _refine(level, refinement_levels(rule), rule.tol)


def sphere_integrate(g: Callable, rule: QuadratureRule) -> FunctionalResult:
    """Surface integral of g over the unit sphere.

    g receives an (N, 3) array of unit vectors, one point per row, and
    must return N values (called once per refinement level; must be
    pure). Deterministic rules use the product Gauss-Legendre in
    cos(theta) x periodic trapezoid in phi with n_phi = 2 n_theta,
    2 n_theta^2 nodes a level, doubling n_theta under the module's cap
    rule; nodes_used counts the nodes of every level. A level's points
    are products of the trig values of its two axes (n_theta + n_phi of
    them) and equal angles_to_xyz of the flattened grid bit for bit. They
    are built once and shared, read-only, by every call at that level: g
    must not write into its argument, and a write raises ValueError.
    monte_carlo returns 4pi times the sample mean over the area-uniform
    points sphere.uniform_unit_vectors(rule.seed, rule.n), with 4pi times
    the sample standard error as the estimate. A periodic_trapezoid rule
    raises ValueError.
    """
    if rule.kind == "periodic_trapezoid":
        raise ValueError("sphere_integrate takes a gauss_legendre or monte_carlo rule, not periodic_trapezoid")
    if rule.kind == "monte_carlo":
        return sample_mean(_eval(g, uniform_unit_vectors(rule.seed, rule.n)), FOUR_PI)
    return _refine(lambda n: _product_level(g, n), refinement_levels(rule, surface=True), rule.tol)


def _product_grid(n_theta: int) -> np.ndarray:
    """The read-only (2 n_theta^2, 3) points of the product level at n_theta.

    A level of at most _GRID_CACHE_POINTS points comes from _cached_grid,
    which keeps two levels, the pair one doubling step compares; a deeper
    refinement evicts the oldest rather than hold every level it built. A
    larger level is built for each call and freed with its last reference.
    """
    if 2 * n_theta * n_theta <= _GRID_CACHE_POINTS:
        return _cached_grid(n_theta)
    return _build_grid(n_theta)


def _build_grid(n_theta: int) -> np.ndarray:
    theta = np.arccos(_leggauss(n_theta)[0])
    n_phi = 2 * n_theta
    phi = TWO_PI * np.arange(n_phi) / n_phi
    # Row i * n_phi + j is (theta_i, phi_j). Each coordinate is the same product
    # of the same doubles as angles_to_xyz of the flattened grid, so the points
    # agree bit for bit, but only the axes' n_theta + n_phi trig values are taken.
    st = np.sin(theta)
    points = np.empty((n_theta, n_phi, 3))
    np.multiply.outer(st, np.cos(phi), out=points[..., 0])
    np.multiply.outer(st, np.sin(phi), out=points[..., 1])
    points[..., 1] += 0.0  # y is +0.0, never -0.0, on the meridian phi = 0
    points[..., 2] = np.cos(theta)[:, None]
    # Copied out so that the build array, as large as the level, is freed
    # once: that raises glibc malloc's mmap and trim thresholds to the level's
    # size, so the integrand's temporaries are reused from the heap rather than
    # mapped anew and page-faulted on every call (about 480 faults a call at
    # n_theta = 256 in a fresh process without the copy).
    points = points.reshape(-1, 3).copy()
    points.setflags(write=False)
    return points


_cached_grid = lru_cache(maxsize=2)(_build_grid)


def _product_level(g: Callable, n_theta: int) -> tuple[float, int]:
    w = _leggauss(n_theta)[1]
    n_phi = 2 * n_theta
    vals = _eval(g, _product_grid(n_theta)).reshape(n_theta, n_phi)
    # dS = sin(theta) dtheta dphi = du dphi after the cos(theta) substitution
    return float(np.dot(w, vals.sum(axis=1))) * (TWO_PI / n_phi), vals.size
