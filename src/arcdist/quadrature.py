"""Integration engines: doubling refinement with its error estimate for
curve integrals, a one-level bound for antipodally balanced surface
integrands, and Monte Carlo.

Curve integrals are over the period of a closed curve, so their
integrands are periodic, and they take one rule: the nested periodic
trapezoid (periodic_trapezoid). The sphere takes a product Gauss-Legendre
x trapezoid rule (gauss_legendre) or Monte Carlo (monte_carlo), the
SPHERE_KINDS. integrate_1d rejects a curve rule of a sphere kind, and
sphere_integrate a sphere rule of the curve kind.

No level may hold more than NODE_CAP nodes (n on a line, 2n^2 on the
sphere grid), and nodes_used counts the evaluation points of every level.
The curve rule refines by doubling from n = rule.n and reports I(2n) with
error estimate |I(2n) - I(n)| once that is within tol. It stops at the
last level within the cap, flagged TOLERANCE_NOT_REACHED, and a rule whose
second level would pass the cap raises ValueError before the integrand is
called. Monte Carlo rules report the sample mean with the sample standard
error. The arc-distance integrands here are only C0 where their argument
reaches +-1, so the doubling estimate is mandatory rather than assuming
spectral accuracy.

A gauss_legendre rule takes only a surface integrand with g(x) + g(-x) = c,
declared by sphere_integrate's antipodal_sum. Every product level
integrates such a g exactly, since its grid pairs each node with its
antipode at the same weight. So it takes the one level n_theta = rule.n,
refused when its 2 n_theta^2 nodes pass the cap, with an error bound from
an exact identity over those pairs in place of a second level: their
symmetry defect plus the sum's rounding (see sphere_integrate). An
unbalanced integrand takes monte_carlo, whose standard error is an honest
error bar: the difference of two product levels is not, and read 15.6x
below the error of |q.x| at n_theta = 128 -> 256.

The Gauss-Legendre nodes are found by Newton's method on the three-term
Legendre recurrence from Tricomi's estimates (_leggauss), in numpy with
O(n) memory, so importing the module loads no scipy. A product level's
other constants (the weights' sum, the step 2 pi / n_phi and the rounding
factor of its estimate) are computed once per n_theta and cached beside
them (_level_constants).

An integrand value that is NaN or infinite raises NonFiniteIntegrandError.
Each rule finds it through the sum it takes anyway, which such a value
makes non-finite: a curve level's sum, a product level's weighted row sums,
the Monte Carlo sample mean. Only a non-finite sum takes an elementwise
test, which tells a non-finite value from finite values whose sum
overflowed; those fail in FunctionalResult.

Surface integrands are functions of an (N, 3) array of unit vectors. A
product level builds its points as outer products of the trig values of
its two axes (sin theta times cos phi and sin phi, and cos theta), not
by evaluating trig functions at each of its nodes. It builds them once:
the points of the level last used are cached and handed, read-only, to
every later integral at that level, so an integrand must not write into
its argument (one that tries raises ValueError).
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .sphere import require_integer, uniform_unit_vectors

FOUR_PI = 4.0 * math.pi
TWO_PI = 2.0 * math.pi

#: Most nodes one refinement level may hold (see the module docstring).
NODE_CAP = 2**20

#: FunctionalResult.warning value when the cap was hit before the tolerance.
TOLERANCE_NOT_REACHED = "tolerance_not_reached"

#: The rule kinds of surface integrals; curve integrals take periodic_trapezoid.
SPHERE_KINDS = ("gauss_legendre", "monte_carlo")
RULE_KINDS = ("periodic_trapezoid", *SPHERE_KINDS)


class NonFiniteIntegrandError(ValueError):
    """The integrand returned NaN or Inf inside the integration domain."""


@dataclass(frozen=True)
class QuadratureRule:
    """Integration scheme descriptor.

    kind: periodic_trapezoid for curve integrals, one of SPHERE_KINDS for
        surface integrals.
    n: node count, an integer >= 2 (starting level for refining rules;
        sample count for MC), kept as a Python int so that the levels'
        shifts and the cap checks are exact for a numpy integer too.
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
        object.__setattr__(self, "n", operator.index(self.n))
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


def default_sphere_rule() -> QuadratureRule:
    """Default product rule for balanced surface integrands: one level, Gauss-Legendre 128 x trapezoid 256."""
    return QuadratureRule("gauss_legendre", 128, 1e-7)


def _legendre_newton(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Newton step P_n(x) / P_n'(x) at each x in (-1, 1), and P_n'(x), from the three-term recurrence."""
    p_prev, p = np.ones_like(x), x
    for j in range(2, n + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    # (1 - x)(1 + x) rather than 1 - x^2 keeps its relative precision near +-1
    dp = n * (p_prev - x * p) / ((1 - x) * (1 + x))
    return p / dp, dp


@lru_cache(maxsize=64)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n Gauss-Legendre nodes on [-1, 1], ascending, and their weights, both read-only.

    Newton's method on the recurrence finds the nonnegative roots of P_n from
    Tricomi's estimates, in O(n) memory (numpy's leggauss builds a dense n x n
    companion matrix). The negative half mirrors them, so the nodes and weights
    are exactly symmetric, and an odd n has the node 0.0.
    """
    # Tricomi's estimate of the k-th largest root, k = 1 .. ceil(n / 2)
    k = np.arange(1, (n + 1) // 2 + 1)
    theta = math.pi * (4 * k - 1) / (4 * n + 2)
    x = (1 - (n - 1) / (8 * n**3) - (39 - 28 / np.sin(theta) ** 2) / (384 * n**4)) * np.cos(theta)
    if n % 2:
        x[-1] = 0.0  # P_n(0) is exactly 0 for odd n, so Newton keeps it
    for _ in range(10):
        step = _legendre_newton(n, x)[0]
        x = x - step
        # convergence is quadratic, so after a step this small x is exact to rounding
        if np.max(np.abs(step)) <= 1e-11:
            break
    else:
        raise ArithmeticError(f"Gauss-Legendre nodes for n = {n} did not converge")
    dp = _legendre_newton(n, x)[1]
    w = 2 / ((1 - x) * (1 + x) * dp**2)  # 2 / ((1 - x^2) P_n'(x)^2)
    half = n // 2
    nodes = np.concatenate((-x[:half], x[::-1]))
    weights = np.concatenate((w[:half], w[::-1]))
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def periodic_nodes(a: float, b: float, n: int) -> np.ndarray:
    """The n equispaced nodes a + (b - a) k / n, k < n, of the periodic trapezoid rule on [a, b]."""
    return a + (b - a) * np.arange(n) / n


def _require_curve_rule(rule: QuadratureRule) -> None:
    if rule.kind != "periodic_trapezoid":
        raise ValueError(f"curve integrals take a periodic_trapezoid rule, not {rule.kind}")


def refinement_levels(rule: QuadratureRule) -> list[int]:
    """Node counts n = rule.n, 2n, 4n, ... of the levels a curve rule may build.

    The list ends at the last level within NODE_CAP. Raises ValueError
    when fewer than two levels fit, since the doubling estimate needs two.
    """
    levels = [rule.n << k for k in range(NODE_CAP.bit_length()) if rule.n << k <= NODE_CAP]
    if len(levels) < 2:
        raise ValueError(f"{rule.kind} n = {rule.n} needs {2 * rule.n} nodes a level, above the cap {NODE_CAP}")
    return levels


def sample_mean(values: np.ndarray, scale: float = 1.0) -> FunctionalResult:
    """scale times the sample mean, with scale times the sample standard
    error; NonFiniteIntegrandError if a value is NaN or infinite (_checked_sum)."""
    n = values.size
    with np.errstate(invalid="ignore"):
        mean = np.mean(values)
    mean = _checked_sum(mean, values)
    return FunctionalResult(scale * mean, scale * float(np.std(values, ddof=1)) / math.sqrt(n), n)


def _eval(f: Callable, xs: np.ndarray) -> np.ndarray:
    """f(xs) as floats, one per node (per row of xs on the sphere), whose
    finiteness the rule checks through the sum it takes (_checked_sum)."""
    vals = np.asarray(f(xs), dtype=float)
    if vals.shape != xs.shape[:1]:
        raise ValueError("integrand must return one value per point")
    return vals


def _checked_sum(total, vals: np.ndarray) -> float:
    """total, a sum the rule took over vals, as a float, or
    NonFiniteIntegrandError if a value of vals is not finite.

    A NaN or an infinity among the values makes their sum NaN or infinite,
    so the elementwise test runs only when the sum is not finite. There it
    tells a non-finite value from a sum of finite values that overflowed,
    which is returned and fails in FunctionalResult. The rule takes the sum
    with numpy's invalid-value warning off, as an infinity of each sign
    makes it NaN.
    """
    total = float(total)
    if not math.isfinite(total) and not np.all(np.isfinite(vals)):
        raise NonFiniteIntegrandError("integrand returned a non-finite value")
    return total


def integrate_1d(f: Callable, a: float, b: float, rule: QuadratureRule) -> FunctionalResult:
    """Integrate the periodic f over its period [a, b] by the nested periodic trapezoid.

    f receives a 1-D array of nodes and must return one value per node.
    The nodes are equispaced with both endpoints identified, which suits
    the periodic closed-curve integrands used throughout; on an open arc
    the rule is only first order and stops at the cap flagged
    TOLERANCE_NOT_REACHED. Its levels nest, so each doubling evaluates
    only the new nodes, and nodes_used, which counts every evaluation, is
    the node count of the level whose value was returned. The first two
    levels, which every refinement builds, take one call of f on the
    second level's nodes; each later level one call on its new nodes.
    Refines by doubling under the module's cap rule. A rule of a sphere
    kind raises ValueError before f is called. A NaN or infinite value of
    f raises NonFiniteIntegrandError once the sum of its level shows it
    (see the module docstring).
    """
    if not b > a:
        raise ValueError("integration bounds must satisfy a < b")
    levels = refinement_levels(rule)
    _require_curve_rule(rule)
    # Node k of a level is node 2k of the next exactly (periodic_nodes scales
    # k and n by the same power of two), so the first level is the even
    # entries of the second, whose new nodes are the odd ones. The sum of a
    # strided view runs the same pairwise sum as a copy's.
    first_two = _eval(f, periodic_nodes(a, b, levels[1]))
    total, used = 0.0, 0
    for k, n in enumerate(levels):
        new = first_two[k::2] if k < 2 else _eval(f, periodic_nodes(a, b, n)[1::2])
        with np.errstate(invalid="ignore"):
            level_sum = np.sum(new)
        total += _checked_sum(level_sum, new)
        cur = (b - a) * total / n
        used += new.size
        if k:
            est = abs(cur - prev)
            if est <= rule.tol:
                return FunctionalResult(cur, est, used)
        prev = cur
    return FunctionalResult(cur, est, used, warning=TOLERANCE_NOT_REACHED)


def sphere_integrate(g: Callable, rule: QuadratureRule, *, antipodal_sum: float | None = None) -> FunctionalResult:
    """Surface integral of g over the unit sphere.

    g receives an (N, 3) array of unit vectors, one point per row, and
    must return N values (called once per product level; must be pure).
    Deterministic rules use the product Gauss-Legendre in cos(theta) x
    periodic trapezoid in phi with n_phi = 2 n_theta, 2 n_theta^2 nodes a
    level. A level's points are products of the trig values of its two
    axes (n_theta + n_phi of them) and equal angles_to_xyz of the flattened
    grid bit for bit. They are built once and shared, read-only, by every
    call at that level: g must not write into its argument, and a write
    raises ValueError.

    A gauss_legendre rule takes only a balanced g, declared by
    antipodal_sum=c: g(x) + g(-x) = c for every x, as for arccos(q.x)
    (c = pi), arcsin(q.x) (c = 0) or the parameter-mean field (c = pi).
    Such a g integrates to 2 pi c, and the grid, whose Gauss nodes and
    weights are exactly symmetric and whose n_phi is even, pairs each node
    with its mirror (ring i with ring n_theta - 1 - i, column j with column
    j + n_phi / 2) at the same weight, so every level integrates it
    exactly. It takes the one level n_theta = rule.n, whose value is
    returned, and the identity, over the weights W and the computed pair
    sums s,

        Q - 2 pi c = (c / 2)(sum W - 4 pi) + (1/2) sum W (s - c),

    gives the estimate |c / 2| |sum W - 4 pi| + (1/2) sum W |s - c| +
    (n_theta + ceil(log2 n_phi) + 2) eps sum |W g|: the weights' defect,
    the pairs' symmetry defect, which holds g's rounding where its argument
    nears +-1 and the grid's own asymmetry, and a bound on the rounding of
    the sum. nodes_used is 2 n_theta^2, and the warning is
    TOLERANCE_NOT_REACHED when the estimate exceeds rule.tol. The rule
    raises ValueError, before g is called, without antipodal_sum or when
    its 2 n_theta^2 nodes pass NODE_CAP (n_theta > 724). The level reads
    g's values and never writes them, so g may return an array it keeps,
    and it takes its weights' defect, h = 2 pi / n_phi and the rounding
    factor from a cache kept per n_theta.

    monte_carlo returns 4pi times the sample mean over the area-uniform
    points sphere.uniform_unit_vectors(rule.seed, rule.n), with 4pi times
    the sample standard error as the estimate, with or without
    antipodal_sum; it takes an unbalanced g. A periodic_trapezoid rule, or
    an antipodal_sum that is not a finite real number (a bool is not),
    raises ValueError before g is called. A NaN or infinite value of g
    raises NonFiniteIntegrandError once the level's weighted row sums, or
    the sample mean, show it (see the module docstring).
    """
    if rule.kind == "periodic_trapezoid":
        raise ValueError("sphere_integrate takes a gauss_legendre or monte_carlo rule, not periodic_trapezoid")
    if antipodal_sum is not None and (
        isinstance(antipodal_sum, bool) or not isinstance(antipodal_sum, numbers.Real) or not math.isfinite(antipodal_sum)
    ):
        raise ValueError(f"antipodal_sum must be a finite real number, got {antipodal_sum!r}")
    if rule.kind == "monte_carlo":
        return sample_mean(_eval(g, uniform_unit_vectors(rule.seed, rule.n)), FOUR_PI)
    if antipodal_sum is None:
        raise ValueError(
            "a gauss_legendre rule takes only an integrand with g(x) + g(-x) = c, declared by antipodal_sum; "
            "integrate any other by monte_carlo"
        )
    nodes = 2 * rule.n**2
    if nodes > NODE_CAP:
        raise ValueError(f"gauss_legendre n = {rule.n} needs {nodes} nodes, above the cap {NODE_CAP}")
    return _balanced_level(g, rule.n, antipodal_sum, rule.tol)


def _balanced_level(g: Callable, n_theta: int, c: float, tol: float) -> FunctionalResult:
    """The product level at n_theta of a g with g(x) + g(-x) = c, with the
    error bound of sphere_integrate's docstring."""
    value, evals, vals, rows = _product_level(g, n_theta)
    w, h, weights_defect, rounding_step = _level_constants(n_theta)
    # The columns j < n_phi / 2 = n_theta hold one node of each mirrored
    # pair, whose mirror is in the reversed ring, n_phi / 2 columns on; both
    # weigh w_i h, so half the sum over every node is the sum over these.
    # Each pass writes only arrays it made: vals may be g's own array.
    s = vals[:, :n_theta] + vals[::-1, n_theta:]
    s -= c
    np.abs(s, out=s)
    symmetry = h * float(np.dot(w, s.sum(axis=1)))
    weights = 0.5 * abs(c) * weights_defect
    # |g| = g where no value is negative (arccos, the distance field), so the
    # value's row sums serve; else |g| takes a pass of its own. Only c > 0
    # is tested: with c <= 0, g(x) + g(-x) = c leaves a negative value
    # unless g is 0 everywhere.
    if not (c > 0 and vals.min() >= 0.0):
        rows = np.abs(vals).sum(axis=1)
    rounding = rounding_step * float(np.dot(w, rows))
    err = weights + symmetry + rounding
    return FunctionalResult(value, err, evals, None if err <= tol else TOLERANCE_NOT_REACHED)


@lru_cache(maxsize=64)
def _level_constants(n_theta: int) -> tuple[np.ndarray, float, float, float]:
    """The product level's per-n_theta constants: its Gauss weights w, its
    trapezoid step h = 2 pi / n_phi, the weights' defect |2 pi sum w - 4 pi|
    and the rounding bound's factor depth eps h, each in the arithmetic order
    of sphere_integrate's estimate."""
    w = _leggauss(n_theta)[1]
    n_phi = 2 * n_theta
    h = TWO_PI / n_phi
    # Each rounding is off by at most eps / 2, so the count bounds twice the
    # roundings it names: n_theta in the dot product, two weight products and
    # ceil(log2 n_phi) in a row sum. numpy sums a row in blocks of up to 128
    # terms, eight running sums a block, a longer chain than a pairwise sum's
    # but one within that slack at every n_theta.
    depth = n_theta + (n_phi - 1).bit_length() + 2
    return w, h, abs(TWO_PI * math.fsum(w) - FOUR_PI), depth * math.ulp(1.0) * h


def _build_grid(n_theta: int) -> np.ndarray:
    """The read-only (2 n_theta^2, 3) points of the product level at n_theta.

    _product_grid keeps the level last built, since every library caller
    takes n_theta = 128 (0.8 MB of points). At worst it holds n_theta = 724,
    the deepest level within NODE_CAP: 25 MB.
    """
    theta = np.arccos(_leggauss(n_theta)[0])
    n_phi = 2 * n_theta
    phi = periodic_nodes(0.0, TWO_PI, n_phi)
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
    # mapped anew and page-faulted on every call. In a fresh process on a
    # 2-core host, 100 mean_point_to_sphere calls at level 128, after one
    # warm-up call, took 0 minor faults with the copy and 9,600 without it
    # (38-39 ms against 41-63 ms); three sphere_to_curve_mean(seam) calls,
    # the first one building the level, took 745-781 against 810-815, in
    # about the same time.
    points = points.reshape(-1, 3).copy()
    points.setflags(write=False)
    return points


_product_grid = lru_cache(maxsize=1)(_build_grid)


def _product_level(g: Callable, n_theta: int) -> tuple[float, int, np.ndarray, np.ndarray]:
    """The product rule's value at n_theta, its node count, g on its grid,
    (n_theta, n_phi), and that array's row sums."""
    w, h = _level_constants(n_theta)[:2]
    vals = _eval(g, _product_grid(n_theta)).reshape(n_theta, 2 * n_theta)
    with np.errstate(invalid="ignore"):
        rows = vals.sum(axis=1)
        total = np.dot(w, rows)
    # dS = sin(theta) dtheta dphi = du dphi after the cos(theta) substitution
    return _checked_sum(total, vals) * h, vals.size, vals, rows
