"""Integration engines with doubling-based error estimates.

All deterministic rules report value I(2n) with error estimate |I(2n) - I(n)|
and refine by doubling until the requested tolerance or the node cap. The
arc-distance integrands handled here are only C0 where their argument reaches
+-1, so the doubling estimate is mandatory rather than assuming spectral
accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .sphere import sample_sphere_angles

FOUR_PI = 4.0 * math.pi
TWO_PI = 2.0 * math.pi

#: Refinement stops before a level would use more nodes than this.
NODE_CAP = 2**20

#: FunctionalResult.warning value when the cap was hit before the tolerance.
TOLERANCE_NOT_REACHED = "tolerance_not_reached"

RULE_KINDS = ("periodic_trapezoid", "gauss_legendre", "monte_carlo")


class NonFiniteIntegrandError(ValueError):
    """The integrand returned NaN or Inf inside the integration domain."""


@dataclass(frozen=True)
class QuadratureRule:
    """Integration scheme descriptor.

    kind: one of periodic_trapezoid, gauss_legendre, monte_carlo.
    n: node count (starting level for refining rules; sample count for MC).
    tol: requested absolute tolerance for the doubling refinement.
    seed: RNG seed, used by monte_carlo only.
    """

    kind: str = "periodic_trapezoid"
    n: int = 512
    tol: float = 1e-9
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in RULE_KINDS:
            raise ValueError(f"unknown rule kind {self.kind!r}; expected one of {RULE_KINDS}")
        if self.n < 2:
            raise ValueError("node count must be >= 2")
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
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def rule_nodes(rule: QuadratureRule, a: float, b: float, n: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Nodes on [a, b] and weights summing to b - a of the rule at n nodes (default rule.n).

    periodic_trapezoid: equispaced from a, with b identified with a;
    gauss_legendre: the Gauss-Legendre nodes; monte_carlo: uniform draws
    from the rule's seed, equally weighted.
    """
    n = n or rule.n
    span = b - a
    if rule.kind == "gauss_legendre":
        u, w = _leggauss(n)
        return 0.5 * (a + b) + 0.5 * span * u, 0.5 * span * w
    if rule.kind == "monte_carlo":
        xs = a + span * np.random.default_rng(rule.seed).random(n)
    else:
        xs = a + span * np.arange(n) / n
    return xs, np.full(n, span / n)


def _eval(f: Callable, xs: np.ndarray) -> np.ndarray:
    """Evaluate an integrand, preferring a vectorized call."""
    try:
        vals = np.asarray(f(xs), dtype=float)
        if vals.shape != xs.shape:
            raise TypeError
    except (TypeError, ValueError):
        vals = np.fromiter((float(f(x)) for x in xs), dtype=float, count=xs.size)
    if not np.all(np.isfinite(vals)):
        raise NonFiniteIntegrandError("integrand returned a non-finite value")
    return vals


def integrate_1d(f: Callable, a: float, b: float, rule: QuadratureRule) -> FunctionalResult:
    """Integrate f over [a, b] under the given rule.

    periodic_trapezoid uses equispaced nodes with both endpoints identified
    (exact for the periodic closed-curve integrands used throughout);
    gauss_legendre suits non-periodic integrands. Both refine by doubling
    until tol or the node cap, in which case the best value is returned
    flagged with TOLERANCE_NOT_REACHED. nodes_used counts the integrand
    evaluations of every level. monte_carlo draws uniform nodes and
    reports the sample standard error.
    """
    if not b > a:
        raise ValueError("integration bounds must satisfy a < b")
    span = b - a

    if rule.kind == "monte_carlo":
        vals = _eval(f, rule_nodes(rule, a, b)[0])
        value = span * float(np.mean(vals))
        stderr = span * float(np.std(vals, ddof=1)) / math.sqrt(rule.n) if rule.n > 1 else math.inf
        return FunctionalResult(value, stderr, rule.n)

    if rule.kind == "periodic_trapezoid":
        n = rule.n
        total = float(np.sum(_eval(f, rule_nodes(rule, a, b, n)[0])))
        prev = span * total / n
        while True:
            # levels nest: the new nodes are the odd ones of the doubled level
            total += float(np.sum(_eval(f, rule_nodes(rule, a, b, 2 * n)[0][1::2])))
            n *= 2
            cur = span * total / n
            est = abs(cur - prev)
            if est <= rule.tol:
                return FunctionalResult(cur, est, n)
            if 2 * n > NODE_CAP:
                return FunctionalResult(cur, est, n, warning=TOLERANCE_NOT_REACHED)
            prev = cur

    # gauss_legendre: nodes do not nest, so each level is evaluated afresh
    n = rule.n
    prev = _gauss_level(f, rule, a, b, n)
    used = n
    while True:
        n *= 2
        cur = _gauss_level(f, rule, a, b, n)
        used += n
        est = abs(cur - prev)
        if est <= rule.tol:
            return FunctionalResult(cur, est, used)
        if 2 * n > NODE_CAP:
            return FunctionalResult(cur, est, used, warning=TOLERANCE_NOT_REACHED)
        prev = cur


def _gauss_level(f: Callable, rule: QuadratureRule, a: float, b: float, n: int) -> float:
    xs, ws = rule_nodes(rule, a, b, n)
    return float(np.dot(ws, _eval(f, xs)))


def sphere_integrate(g: Callable, rule: QuadratureRule) -> FunctionalResult:
    """Surface integral of g(theta, phi) over the unit sphere.

    g receives flat coordinate arrays and must return matching values
    (called once per refinement level; must be pure). Deterministic rules
    use the product Gauss-Legendre in cos(theta) x periodic trapezoid in
    phi with n_phi = 2 n_theta, doubling both until tol or the node cap;
    nodes_used counts the nodes of every level. monte_carlo returns 4pi
    times the sample mean over an area-uniform sample, with 4pi times the
    sample standard error as the estimate.
    """
    if rule.kind == "monte_carlo":
        theta, phi = sample_sphere_angles(rule.seed, rule.n)
        vals = _eval_angles(g, theta, phi)
        value = FOUR_PI * float(np.mean(vals))
        stderr = FOUR_PI * float(np.std(vals, ddof=1)) / math.sqrt(rule.n) if rule.n > 1 else math.inf
        return FunctionalResult(value, stderr, rule.n)

    n_theta = rule.n
    prev = _product_level(g, n_theta)
    nodes = 2 * n_theta * n_theta
    while True:
        n_theta *= 2
        cur = _product_level(g, n_theta)
        est = abs(cur - prev)
        nodes += 2 * n_theta * n_theta
        if est <= rule.tol:
            return FunctionalResult(cur, est, nodes)
        if 8 * n_theta * n_theta > NODE_CAP:
            return FunctionalResult(cur, est, nodes, warning=TOLERANCE_NOT_REACHED)
        prev = cur


def _eval_angles(g: Callable, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    vals = np.asarray(g(theta, phi), dtype=float)
    if vals.shape != theta.shape:
        raise ValueError("sphere integrand must return one value per (theta, phi) pair")
    if not np.all(np.isfinite(vals)):
        raise NonFiniteIntegrandError("sphere integrand returned a non-finite value")
    return vals


def _product_level(g: Callable, n_theta: int) -> float:
    u, w = _leggauss(n_theta)
    theta = np.arccos(u)
    n_phi = 2 * n_theta
    phi = TWO_PI * np.arange(n_phi) / n_phi
    th_grid, ph_grid = np.meshgrid(theta, phi, indexing="ij")
    vals = _eval_angles(g, th_grid.ravel(), ph_grid.ravel()).reshape(n_theta, n_phi)
    # dS = sin(theta) dtheta dphi = du dphi after the cos(theta) substitution
    return float(np.dot(w, vals.sum(axis=1))) * (TWO_PI / n_phi)
