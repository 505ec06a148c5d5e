"""Closed curve families on the unit sphere.

Families: a great circle (optionally multiply traversed), the tennis ball
seam curve, a wavy latitude circle, and a general trigonometric-series
family. Each is a point of one series in colatitude and longitude,

    theta(t) = theta0 + theta_slope t + sum_j a_j cos jt + b_j sin jt
    phi(t)   = phi0 + phi_slope t + sum_j c_j sin jt,

so positions are unit vectors by construction, and velocities and speeds
have closed forms.
"""

from __future__ import annotations

import inspect
import json
import math
import numbers
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from .quadrature import FunctionalResult, QuadratureRule, default_curve_rule, integrate_1d, periodic_nodes
from .sphere import angles_to_xyz, require_integer

GREAT_CIRCLE = "great_circle"
TENNIS_BALL = "tennis_ball"
WAVY_CIRCLE = "wavy_circle"
TRIG_SERIES = "trig_series"

#: Seam amplitude reproduced by arc-length calibration (reference 0.7037).
TENNIS_BALL_A = 0.7037
#: Published wavy-circle amplitude. NOTE: arc-length calibration to 4pi
#: yields ~0.28624 instead; see CalibrationReport and the README.
WAVY_CIRCLE_B = 0.1856

_FOUR_PI = 4.0 * math.pi
_TWO_PI = 2.0 * math.pi


class CurveSpecError(ValueError):
    """A curve specification failed validation."""


@dataclass(frozen=True)
class CurveDomain:
    """Parameter interval [t_i, t_f] of a curve."""

    t_i: float
    t_f: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t_i) and math.isfinite(self.t_f)):
            raise CurveSpecError("domain bounds must be finite")
        if not self.t_f > self.t_i:
            raise CurveSpecError("domain must satisfy t_f > t_i")

    @property
    def period(self) -> float:
        return self.t_f - self.t_i


@dataclass(frozen=True)
class _TrigSeries:
    """Coefficients of the series in the module docstring; harmonics holds
    a row (j, a_j, b_j, c_j) only for each j with a nonzero coefficient."""

    theta0: float = 0.0
    theta_slope: float = 0.0
    phi0: float = 0.0
    phi_slope: float = 0.0
    harmonics: tuple[tuple[int, float, float, float], ...] = ()


#: Entries, one a grid and harmonic, that the harmonic trig table keeps ...
_GRID_TRIG_ENTRIES = 32
#: ... each on a grid of at most this many samples, so the table holds at
#: most 32 x 2 x 4096 doubles (2 MiB). A finer grid takes its trig values
#: at each call.
_GRID_TRIG_MAX_N = 4096


@lru_cache(maxsize=_GRID_TRIG_ENTRIES)
def _grid_trig(t_i: float, t_f: float, n: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only cos jt and sin jt on the grid t = periodic_nodes(t_i, t_f, n)."""
    jt = j * periodic_nodes(t_i, t_f, n)
    cos, sin = np.cos(jt), np.sin(jt)
    cos.setflags(write=False)
    sin.setflags(write=False)
    return cos, sin


def _series_angles(
    s: _TrigSeries, ts: np.ndarray, rates: int = 0, grid: CurveDomain | None = None
) -> tuple[np.ndarray, ...]:
    """(theta, phi) of the series at ts, then (theta', phi') with rates >= 1
    and (theta'', phi'') with rates == 2. Each harmonic adds every term: a
    zero coefficient adds a signed zero, and x + (+-0.0) is x for every x
    but -0.0, at which no angle starts. A grid says that ts is
    periodic_nodes(grid.t_i, grid.t_f, len(ts)); the trig values of each
    harmonic then come from its table (_grid_trig), the same bit for bit."""
    table = grid is not None and ts.size <= _GRID_TRIG_MAX_N
    theta = s.theta0 + s.theta_slope * ts
    phi = s.phi0 + s.phi_slope * ts
    if rates:
        dtheta = np.full_like(ts, s.theta_slope)
        dphi = np.full_like(ts, s.phi_slope)
    if rates > 1:
        d2theta = np.zeros_like(ts)
        d2phi = np.zeros_like(ts)
    for j, a, b, c in s.harmonics:
        if table:
            cos, sin = _grid_trig(grid.t_i, grid.t_f, ts.size, j)
        else:
            jt = j * ts
            cos, sin = np.cos(jt), np.sin(jt)
        theta += a * cos
        theta += b * sin
        phi += c * sin
        if rates:
            dtheta += j * (b * cos - a * sin)
            dphi += (j * c) * cos
        if rates > 1:
            d2theta -= (j * j) * (a * cos + b * sin)
            d2phi -= (j * j * c) * sin
    if rates > 1:
        return theta, phi, dtheta, dphi, d2theta, d2phi
    return (theta, phi, dtheta, dphi) if rates else (theta, phi)


@dataclass(frozen=True, eq=False)
class SphericalCurve:
    """A parameterized curve family instance on the unit sphere.

    The family's params map to trig-series coefficients once, at
    construction. Parameters outside the domain are wrapped periodically.
    An optional rotation (3x3 orthogonal matrix) is applied to all
    positions and velocities, which lets every functional be tested for
    rotation equivariance without re-deriving the shape functions.
    """

    family: str
    params: dict[str, Any]
    domain: CurveDomain
    rotation: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "_series", _FAMILIES[self.family].series(**self.params))

    def _wrap(self, ts: np.ndarray) -> np.ndarray:
        t_i, t_f = self.domain.t_i, self.domain.t_f
        inside = (ts >= t_i) & (ts <= t_f)
        if inside.all():
            return ts
        return np.where(inside, ts, t_i + np.mod(ts - t_i, t_f - t_i))

    def _rotate(self, xyz: np.ndarray) -> np.ndarray:
        return xyz if self.rotation is None else xyz @ np.asarray(self.rotation, dtype=float).T

    def positions(self, ts) -> np.ndarray:
        """(n, 3) unit-norm positions at the given parameters (wrapped)."""
        theta, phi = _series_angles(self._series, self._wrap(np.asarray(ts, dtype=float)))
        return self._rotate(angles_to_xyz(theta, phi))

    def sample(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The n equispaced parameters ts = periodic_nodes(t_i, t_f, n) and
        positions(ts), the same bit for bit, with the trig values of every
        harmonic read from the grid's table; n is an integer >= 1."""
        require_integer(n, 1, "n")
        ts = periodic_nodes(self.domain.t_i, self.domain.t_f, n)
        theta, phi = _series_angles(self._series, ts, grid=self.domain)
        return ts, self._rotate(angles_to_xyz(theta, phi))

    def velocities(self, ts) -> np.ndarray:
        """dr/dt = theta' e_theta + sin(theta) phi' e_phi at the given parameters (wrapped)."""
        theta, phi, dtheta, dphi = _series_angles(self._series, self._wrap(np.asarray(ts, dtype=float)), rates=1)
        st, ct, sp, cp = np.sin(theta), np.cos(theta), np.sin(phi), np.cos(phi)
        w = st * dphi
        v = np.stack([dtheta * ct * cp - w * sp, dtheta * ct * sp + w * cp, -dtheta * st], axis=-1)
        return self._rotate(v)

    def speeds(self, ts) -> np.ndarray:
        """|dr/dt| = sqrt(theta'^2 + sin^2(theta) phi'^2); rotations leave it unchanged."""
        theta, _, dtheta, dphi = _series_angles(self._series, self._wrap(np.asarray(ts, dtype=float)), rates=1)
        return _speed(np.sin(theta), dtheta, dphi)

    def rotated(self, rotation: np.ndarray) -> "SphericalCurve":
        """This curve with `rotation` applied after any rotation it already carries."""
        rotation = np.asarray(rotation, dtype=float)
        if self.rotation is not None:
            rotation = rotation @ self.rotation
        return replace(self, rotation=rotation)


def _speed(st: np.ndarray, dtheta: np.ndarray, dphi: np.ndarray) -> np.ndarray:
    """sqrt(theta'^2 + sin^2(theta) phi'^2) given st = sin(theta)."""
    return np.sqrt(dtheta * dtheta + (st * dphi) ** 2)


def great_circle(domain: tuple[float, float] = (0.0, 2.0)) -> SphericalCurve:
    """Unit-speed-in-angle great circle r(t) = (sin 2pi t, 0, cos 2pi t).

    It is the meridian theta = 2pi t, phi = 0. The default domain [0, 2]
    traverses the circle twice (arc-length 4pi, but not simple); [0, 1]
    is a single traversal.
    """
    return SphericalCurve(GREAT_CIRCLE, {}, CurveDomain(*domain))


def tennis_ball_seam(a: float = TENNIS_BALL_A, domain: tuple[float, float] = (0.0, _FOUR_PI)) -> SphericalCurve:
    """Tennis ball seam: theta = pi/2 - (pi/2 - a) cos t, phi = t/2 + a sin 2t.

    The longitude term t/2 needs 4pi of parameter for one full turn while
    the colatitude completes two oscillations, so [0, 4pi] is the unique
    domain closing the curve in a single traversal.
    """
    if not 0.0 < a < 0.5 * math.pi:
        raise CurveSpecError(f"seam amplitude must lie in (0, pi/2), got {a}")
    return SphericalCurve(TENNIS_BALL, {"a": float(a)}, CurveDomain(*domain))


def wavy_circle(b: float = WAVY_CIRCLE_B, domain: tuple[float, float] = (0.0, _TWO_PI)) -> SphericalCurve:
    """Wavy latitude circle: theta = 3pi/4 + b sin 10t, phi = t."""
    if not 0.0 < b < 0.25 * math.pi:
        raise CurveSpecError(f"wavy amplitude must lie in (0, pi/4), got {b}")
    return SphericalCurve(WAVY_CIRCLE, {"b": float(b)}, CurveDomain(*domain))


def trig_series(
    theta_cos=(), theta_sin=(), phi_sin=(),
    theta0: float = 0.5 * math.pi,
    phi0: float = 0.0,
    phi_slope: float = 0.5,
    amplitude: float = 1.0,
    domain: tuple[float, float] = (0.0, _FOUR_PI),
) -> SphericalCurve:
    """General search family.

    theta(t) = theta0 + amplitude * sum_j (a_j cos jt + b_j sin jt)
    phi(t)   = phi0 + phi_slope * t + amplitude * sum_j c_j sin jt

    With the defaults the base curve is the equator traversed once over
    [0, 4pi]. The seam shape is the point a_1 = -(pi/2 - A), c_2 = A.
    """
    params = {
        "theta_cos": [float(v) for v in theta_cos],
        "theta_sin": [float(v) for v in theta_sin],
        "phi_sin": [float(v) for v in phi_sin],
        "theta0": float(theta0),
        "phi0": float(phi0),
        "phi_slope": float(phi_slope),
        "amplitude": float(amplitude),
    }
    for name, value in params.items():
        if not all(map(math.isfinite, value if isinstance(value, list) else [value])):
            raise CurveSpecError(f"trig_series {name} must be finite, got {value}")
    return SphericalCurve(TRIG_SERIES, params, CurveDomain(*domain))


def _trig_series_coefficients(theta_cos, theta_sin, phi_sin, theta0, phi0, phi_slope, amplitude) -> _TrigSeries:
    rows = []
    for j in range(1, max(len(theta_cos), len(theta_sin), len(phi_sin)) + 1):
        abc = tuple(amplitude * v[j - 1] if j <= len(v) else 0.0 for v in (theta_cos, theta_sin, phi_sin))
        if any(abc):
            rows.append((j, *abc))
    return _TrigSeries(theta0=theta0, phi0=phi0, phi_slope=phi_slope, harmonics=tuple(rows))


class _Family(NamedTuple):
    """A JSON family tag's entry in _FAMILIES.

    make is the public constructor: its keywords other than `domain` are
    the tag's params, and its `domain` default is the tag's default domain.
    series maps the params to the trig-series coefficients. scale is the
    param that arc-length calibration roots to 4pi, and every coefficient is
    affine in it; None (the great circle) means that the scale s stretches
    the domain to [t_i, t_i + s (t_f - t_i)] instead. label names the scale
    in reports, and bracket is calibration's default bracket for it.
    """

    make: Callable[..., SphericalCurve]
    series: Callable[..., _TrigSeries]
    scale: str | None
    label: str
    bracket: tuple[float, float]


_FAMILIES = {
    GREAT_CIRCLE: _Family(great_circle, lambda: _TrigSeries(theta_slope=_TWO_PI), None, "domain scale", (0.5, 1.5)),
    TENNIS_BALL: _Family(
        tennis_ball_seam,
        lambda a: _TrigSeries(
            theta0=0.5 * math.pi, phi_slope=0.5, harmonics=((1, -(0.5 * math.pi - a), 0.0, 0.0), (2, 0.0, 0.0, a))
        ),
        "a", "seam amplitude a", (0.1, 1.4),
    ),
    WAVY_CIRCLE: _Family(
        wavy_circle,
        lambda b: _TrigSeries(theta0=0.75 * math.pi, phi_slope=1.0, harmonics=((10, 0.0, b, 0.0),)),
        "b", "wavy amplitude b", (0.01, 0.6),
    ),
    TRIG_SERIES: _Family(trig_series, _trig_series_coefficients, "amplitude", "series amplitude", (0.05, 2.5)),
}


def with_scale(curve: SphericalCurve, s: float) -> SphericalCurve:
    """The member of curve's family at scale s, on curve's domain and with
    its rotation. The scale is the seam's a, the wavy circle's b or a trig
    series' amplitude, rebuilt through the family's constructor, so a scale
    outside its range raises; the great circle's s stretches the domain to
    [t_i, t_i + s (t_f - t_i)]."""
    family = _FAMILIES[curve.family]
    params, t_i, t_f = dict(curve.params), curve.domain.t_i, curve.domain.t_f
    if family.scale is None:
        t_f = t_i + s * curve.domain.period
    else:
        params[family.scale] = s
    scaled = family.make(**params, domain=(t_i, t_f))
    return scaled if curve.rotation is None else replace(scaled, rotation=curve.rotation)


def _scale_rates(curve: SphericalCurve) -> _TrigSeries:
    """d/ds of the series of curve's family at scale s, for a family with a
    scale param: its coefficients at s = 1 less those at s = 0, matched by
    harmonic. Every coefficient map is affine in its scale, and the
    difference is exact for those of _FAMILIES."""
    family = _FAMILIES[curve.family]
    one, zero = (family.series(**{**curve.params, family.scale: s}) for s in (1.0, 0.0))
    rows = {j: (a, b, c) for j, a, b, c in one.harmonics}
    for j, a, b, c in zero.harmonics:
        a1, b1, c1 = rows.get(j, (0.0, 0.0, 0.0))
        rows[j] = (a1 - a, b1 - b, c1 - c)
    rates = {f: getattr(one, f) - getattr(zero, f) for f in ("theta0", "theta_slope", "phi0", "phi_slope")}
    return _TrigSeries(**rates, harmonics=tuple((j, *abc) for j, abc in sorted(rows.items()) if any(abc)))


def _is_real(value) -> bool:
    """True for a real number; booleans do not count."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def from_spec(spec: dict | str | Path) -> SphericalCurve:
    """Build a curve from a JSON object {"family", "params", "domain"}.

    Accepts a dict, a JSON string (one whose first non-blank character is
    { or [), or a path to a JSON file. Unknown keys and malformed values
    raise CurveSpecError: each param is a real number or a list of them,
    and the domain two real numbers.
    """
    if isinstance(spec, Path) or (isinstance(spec, str) and not spec.lstrip().startswith(("{", "["))):
        try:
            spec = json.loads(Path(spec).read_text())
        except OSError as exc:
            raise CurveSpecError(f"cannot read curve spec file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise CurveSpecError(f"curve spec file is not valid JSON: {exc}") from exc
    elif isinstance(spec, str):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise CurveSpecError(f"curve spec is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise CurveSpecError("curve spec must be a JSON object")

    unknown = set(spec) - {"family", "params", "domain"}
    if unknown:
        raise CurveSpecError(f"unknown curve spec keys: {sorted(unknown)}")
    family = spec.get("family")
    if family not in _FAMILIES:
        raise CurveSpecError(f"family must be one of {tuple(_FAMILIES)}, got {family!r}")
    make = _FAMILIES[family].make
    keywords = inspect.signature(make).parameters

    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise CurveSpecError("params must be an object")
    unknown = set(params) - (set(keywords) - {"domain"})
    if unknown:
        raise CurveSpecError(f"unknown params for {family}: {sorted(unknown)}")
    for name, value in params.items():
        if not (_is_real(value) or (isinstance(value, (list, tuple)) and all(map(_is_real, value)))):
            raise CurveSpecError(f"param {name} must be a number or a list of numbers, got {value!r}")

    domain = spec.get("domain", keywords["domain"].default)
    if not (isinstance(domain, (list, tuple)) and len(domain) == 2 and all(map(_is_real, domain))):
        raise CurveSpecError(f"domain must be two numbers [t_i, t_f], got {domain!r}")
    try:
        return make(**params, domain=(float(domain[0]), float(domain[1])))
    except (TypeError, ValueError) as exc:
        if isinstance(exc, CurveSpecError):
            raise
        raise CurveSpecError(f"invalid curve parameters: {exc}") from exc


def to_spec(curve: SphericalCurve) -> dict:
    """JSON-serializable spec for a curve (rotation is a runtime-only field)."""
    return {
        "family": curve.family,
        "params": dict(curve.params),
        "domain": [curve.domain.t_i, curve.domain.t_f],
    }


def arc_length(curve: SphericalCurve, rule: QuadratureRule | None = None) -> FunctionalResult:
    """Arc length: integral of |dr/dt| over the domain, with error estimate."""
    rule = rule or default_curve_rule()
    return integrate_1d(curve.speeds, curve.domain.t_i, curve.domain.t_f, rule)


#: model(s) -> (L_n(s), dL_n/ds), the arc length of a curve family at one
#: rule level as a function of its scale s (built by length_model).
LengthModel = Callable[[float], tuple[float, float]]


def length_model(curve: SphericalCurve, scale: float, n: int) -> LengthModel:
    """The LengthModel of the family through `curve`, its member at `scale`
    (curve is with_scale(c, scale) for a curve c of the family), on the
    n-node periodic trapezoid over the curve's domain: the nodes
    periodic_nodes(t_i, t_f, n), each weighing period / n.

    For a family with a scale param the rates are the series' derivatives
    in s (_scale_rates), d(theta)/ds and d(phi)/ds. At each node, theta,
    theta' and phi' are then their values at `scale` plus (s - scale) times
    their rates, so L_n(s) = sum w sqrt(theta'^2 + sin^2(theta) phi'^2) is
    exact in s and takes no curve evaluation; at s = scale it sums
    curve.speeds. The derivative is the closed form

        d|r'|/ds = [theta' d(theta')/ds + sin(theta) cos(theta) d(theta)/ds phi'^2
                    + sin^2(theta) phi' d(phi')/ds] / |r'|.

    For a family whose scale stretches the domain (scale None in _FAMILIES),
    s stretches the domain of the constant-speed curve to
    [t_i, t_i + (s / scale)(t_f - t_i)], so L_n(s) = (s / scale) L_n(scale).
    The nodes are a sample grid, so both series read their trig values
    from the grid's table.
    """
    ts, weights = periodic_nodes(curve.domain.t_i, curve.domain.t_f, n), np.full(n, curve.domain.period / n)
    theta0, _, dtheta0, dphi0 = _series_angles(curve._series, ts, rates=1, grid=curve.domain)
    if _FAMILIES[curve.family].scale is None:
        theta_s, dtheta_s, dphi_s = np.zeros_like(ts), dtheta0 / scale, dphi0 / scale
    else:
        theta_s, _, dtheta_s, dphi_s = _series_angles(_scale_rates(curve), ts, rates=1, grid=curve.domain)

    def model(s: float) -> tuple[float, float]:
        shift = s - scale
        theta = theta0 + shift * theta_s
        dtheta = dtheta0 + shift * dtheta_s
        dphi = dphi0 + shift * dphi_s
        st = np.sin(theta)
        speed = _speed(st, dtheta, dphi)
        rate = (dtheta * dtheta_s + st * np.cos(theta) * theta_s * dphi * dphi + st * st * dphi * dphi_s) / speed
        return float(weights @ speed), float(weights @ rate)

    return model


#: is_closed's bound on the chordal distance between a curve's endpoints.
_CLOSURE_EPS = 1e-8


def is_closed(curve: SphericalCurve) -> bool:
    """True iff the endpoints coincide within chordal distance _CLOSURE_EPS."""
    ends = curve.positions(np.array([curve.domain.t_i, curve.domain.t_f]))
    return bool(np.linalg.norm(ends[0] - ends[1]) < _CLOSURE_EPS)


#: The nearest-parameter refinement stops a row once its step is at most this.
_NEAREST_STEP = 1e-10
#: Most passes of one refinement. Bisection alone takes a bracket of a few
#: sample spacings down to _NEAREST_STEP in under 40; Newton needs 3-4 from
#: a sample, 1-2 from the vertex of the parabola through three samples and,
#: at 4096 samples, 1 from the maximum of the degree-6 polynomial through
#: seven (functionals._window_peak).
_NEAREST_MAX_PASSES = 64


def _nearest_parameters(
    curve: SphericalCurve, targets: np.ndarray, centers: np.ndarray, half_width: float, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the t in [center - half_width, center + half_width] nearest its
    target, searched from `starts` (inside the bracket), and f = q . r at the
    last parameter evaluated, which is within _NEAREST_STEP of t.

    Maximizes f(t) = q . r(t) (the same argmin as |r(t) - q|, cheaper) by
    safeguarded Newton steps on f' = 0 (rtsafe; Press et al., Numerical
    Recipes, 9.4). In the curve's own frame, with u = q_x cos phi + q_y sin phi
    and v = q_y cos phi - q_x sin phi,

        f   = sin(theta) u + q_z cos(theta)
        f'  = theta' g + sin(theta) phi' v,     g = cos(theta) u - q_z sin(theta)
        f'' = theta'' g - theta'^2 f + 2 cos(theta) theta' phi' v
              + sin(theta) phi'' v - sin(theta) phi'^2 u.

    Each pass moves a row's bracket end to t on the side f' points away
    from, then takes the Newton step if f'' < 0 and the step lands in the
    closed bracket, and bisects otherwise. A row stops once its step is at
    most _NEAREST_STEP or f' = 0 (where it keeps t); a target whose maximum
    lies outside the bracket ends at the bracket's edge. A row's result
    does not depend on the other rows in its call. Returns the parameters
    unwrapped, and f in the curve's frame (rotation included).
    """
    q = targets if curve.rotation is None else targets @ np.asarray(curve.rotation, dtype=float)
    t = np.array(starts, dtype=float)
    lo = centers - half_width
    hi = centers + half_width
    f_last = np.empty(t.size)
    rows = np.arange(t.size)
    for _ in range(_NEAREST_MAX_PASSES):
        tr, a, b = t[rows], lo[rows], hi[rows]
        qx, qy, qz = q[rows].T
        theta, phi, d1theta, d1phi, d2theta, d2phi = _series_angles(curve._series, curve._wrap(tr), rates=2)
        st, ct, sp, cp = np.sin(theta), np.cos(theta), np.sin(phi), np.cos(phi)
        u = qx * cp + qy * sp
        v = qy * cp - qx * sp
        g = ct * u - qz * st
        w = st * v
        f = st * u + qz * ct
        f_last[rows] = f
        fp = d1theta * g + d1phi * w
        fpp = d2theta * g - d1theta * d1theta * f + 2.0 * ct * d1theta * d1phi * v + d2phi * w - st * d1phi * d1phi * u
        rising = fp > 0
        a = np.where(rising, tr, a)
        b = np.where(rising, b, tr)
        concave = fpp < 0
        newton = tr - fp / np.where(concave, fpp, -1.0)
        t_next = np.where(concave & (a <= newton) & (newton <= b), newton, 0.5 * (a + b))
        flat = fp == 0
        t[rows] = np.where(flat, tr, t_next)
        lo[rows], hi[rows] = a, b
        rows = rows[~(flat | (np.abs(t_next - tr) <= _NEAREST_STEP))]
        if rows.size == 0:
            break
    return t, f_last


def _closest_parameters(
    curve: SphericalCurve, t1: np.ndarray, t2: np.ndarray, half_width: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row, a local minimum (s1, s2) of the chord |r(s1) - r(s2)| within
    half_width of (t1, t2), and whether it lies strictly inside that box
    (on its edge the chord still falls beyond it).

    Levenberg-Marquardt steps on e = r(s1) - r(s2) with the closed-form
    tangents u = r'(s1), v = r'(s2) and the damping |e|^2 (Yamashita and
    Fukushima, Computing Suppl. 15, 2001): each pass solves
    [[u.u + |e|^2, -u.v], [-u.v, v.v + |e|^2]] (d1, d2) = (-u.e, v.e) and
    clips the step to the box. At a crossing, where e vanishes, the steps
    converge quadratically at any angle; alternating nearest-point moves
    shrink the chord only by cos^2 of the angle a round. The damping keeps
    the step finite where u and v are parallel. A row stops once its step
    is at most _NEAREST_STEP, and does not depend on the other rows.
    """
    s1, s2 = np.array(t1, dtype=float), np.array(t2, dtype=float)
    lo1, hi1, lo2, hi2 = s1 - half_width, s1 + half_width, s2 - half_width, s2 + half_width
    rows = np.arange(s1.size)
    for _ in range(_NEAREST_MAX_PASSES):
        a, b = s1[rows], s2[rows]
        e = curve.positions(a) - curve.positions(b)
        u, v = curve.velocities(a), curve.velocities(b)
        ee, uv, ue, ve = (np.einsum("ij,ij->i", x, y) for x, y in ((e, e), (u, v), (u, e), (v, e)))
        uu = np.einsum("ij,ij->i", u, u) + ee
        vv = np.einsum("ij,ij->i", v, v) + ee
        # det > 0 unless e = 0 and u, v are parallel; such a row stays put
        det = uu * vv - uv * uv
        d1 = np.divide(uv * ve - vv * ue, det, out=np.zeros_like(det), where=det > 0)
        d2 = np.divide(uu * ve - uv * ue, det, out=np.zeros_like(det), where=det > 0)
        s1[rows] = np.clip(a + d1, lo1[rows], hi1[rows])
        s2[rows] = np.clip(b + d2, lo2[rows], hi2[rows])
        rows = rows[np.maximum(np.abs(s1[rows] - a), np.abs(s2[rows] - b)) > _NEAREST_STEP]
        if rows.size == 0:
            break
    return s1, s2, (lo1 < s1) & (s1 < hi1) & (lo2 < s2) & (s2 < hi2)


#: Samples in one arc at the top level of the candidate search
#: (_chord_candidates) up to 4096 samples; beyond that an arc holds about
#: sqrt(n) of them, so the top level tests O(n) arc pairs.
_ARC_SAMPLES = 64
#: Each level cuts an arc into this many sub-arcs ...
_SPLIT = 8
#: ... until an arc holds at most this many samples, whose pairs are
#: then tested one by one.
_LEAF_SAMPLES = 16
#: Sample pairs tested in one batch of leaf arc pairs.
_LEAF_ENTRIES = 1 << 16
#: Rounding slack of the arc-ball bound. It only decides which arcs get a
#: closer look, so it is far above the bound's few-ulp error and far below
#: any capture radius (>= 2 eps).
_BOUND_SLACK = 1e-9
#: A stretch is certified only if its summed turning angle is below pi/2 by
#: this margin, which covers the arccos error (about 2e-8 a vertex) ...
_TURN_MARGIN = 1e-3
#: ... and every segment in it is at least this long. Then the chord to a
#: nearer sample is shorter by at least |segment|^2 / 2 = 5e-13 in squared
#: chord, a margin far above the few-ulp error of the dot products that the
#: four-neighbour test compares, so that test sees the strict inequality.
_TIE_FREE_SEGMENT = 1e-6


#: is_simple flags two parameters within this chordal distance as a
#: self-intersection ...
SIMPLE_EPS = 1e-4
#: ... on a grid of this many equispaced samples.
SIMPLE_SAMPLES = 4096

#: Sampled chords within this of the least tie for the decisive witness.
#: Twin pairs, such as (t, t') and (t + 2pi, t' + 2pi) on a trig_series
#: curve on [0, 4pi] with phi slope 1/2, whose r(t + 2pi) is r(t) turned by
#: pi about z, have equal chords that rounding splits by a few ulp. The
#: slack is far above that and far below SIMPLE_EPS, so the
#: first tied pair does not move with the last bits of the curve. The
#: verdict still rests on the least chord.
_WITNESS_SLACK = 1e-12


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot products of the (..., 3) arrays a and b along their last
    axis, as sums of columns: for small arrays, without einsum's fixed
    cost per call. They can differ from einsum's in the last bit, so they
    serve only values compared with slack (the ball and turning bounds) and
    the longest segment, whose last bit moves the capture radius only for
    a sample pair exactly at it."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def _segments(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The segments of the closed polyline through pts, segment k from
    sample k to k + 1, and their lengths."""
    seg = np.diff(pts, axis=0, append=pts[:1])
    return seg, np.sqrt(_dots(seg, seg))


def _arc_balls(pts: np.ndarray, length: np.ndarray):
    """ball(s, width): centres and radii of balls that hold the arcs of
    `width` consecutive samples from sample s (arrays or scalars, s < n;
    an arc may wrap past the last sample) of the closed polyline through
    pts, whose segment k, from sample k to k + 1, is length[k] long.

    The centre is the arc's middle sample and the radius the longer
    polyline length from there to one of the arc's ends, which bounds the
    chord from the centre to every sample of the arc.
    """
    n = len(pts)
    # Polyline length summed from sample 0 over two turns of the curve, so
    # that an arc starting at sample s < n needs no wrap.
    walked = np.cumsum(np.concatenate([[0.0], length, length]))

    def ball(s, width) -> tuple[np.ndarray, np.ndarray]:
        mid = s + width // 2
        radius = np.maximum(walked[mid] - walked[s], walked[s + width - 1] - walked[mid])
        return np.take(pts, mid % n, axis=0), radius

    return ball


def _stretches(x: np.ndarray, y: np.ndarray, width: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For arcs of `width` samples from x and from y (broadcast against each
    other) of n samples around a closed curve: the index steps between their
    starts, and the sample `first` from which a near pair (steps <= width)
    makes one stretch of `span` samples, whose segments meet at the turns
    first .. first + span - 3."""
    ahead = (y - x) % n
    steps = np.minimum(ahead, n - ahead)
    return steps, np.where(ahead <= width, x, y), np.minimum(steps, width) + width


@lru_cache(maxsize=8)
def _top_level(n: int) -> tuple[int, int, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The arcs and arc pairs of _chord_candidates' first level on n >
    _LEAF_SAMPLES samples, which depend on n alone (read-only arrays).

    `split` arcs of `width` samples start at `starts` (neighbours may
    overlap), and arc k is paired with every arc l >= k (wanted[k, l]). For
    np.add.reduceat over two turns of the curve, `halves` holds each arc's
    start, middle sample and last sample, so that the first two sums of
    each triple run from the start to the middle and from there to the
    end, and `turns` the first and the last turn (exclusive) of each near
    pair's stretch, the pair at the flat index `near` of wanted.
    """
    split = max(4, n // max(_ARC_SAMPLES, math.isqrt(n)))
    width = -(-n // split)
    starts = np.arange(split) * n // split
    wanted = starts[:, None] <= starts
    steps, first, span = _stretches(starts[:, None], starts, width, n)
    near = np.flatnonzero(wanted & (steps <= width))
    halves = np.add.outer(starts, [0, width // 2, width - 1]).ravel()
    turns = np.stack([first.flat[near], first.flat[near] + span.flat[near] - 2], 1).ravel()
    for array in (starts, halves, wanted, near, turns):
        array.setflags(write=False)
    return split, width, starts, halves, wanted, near, turns


def _apart(cx: np.ndarray, rx: np.ndarray, cy: np.ndarray, ry: np.ndarray, capture: float) -> np.ndarray:
    """[..., k, l]: whether the ball of centre cx[..., k, :] and radius
    rx[..., k] lies farther than `capture` from that of cy[..., l, :] and
    ry[..., l], up to _BOUND_SLACK."""
    # Squared centre distances from the Gram matrix: their rounding is far
    # below what the slack adds to the squared bound.
    square_gap = (
        _dots(cx, cx)[..., :, None]
        + _dots(cy, cy)[..., None, :]
        - 2.0 * np.matmul(cx, np.swapaxes(cy, -1, -2))
    )
    return square_gap > (capture + _BOUND_SLACK + rx[..., :, None] + ry[..., None, :]) ** 2


def _chord_candidates(pts: np.ndarray, seg: np.ndarray, length: np.ndarray, capture: float) -> np.ndarray:
    """Index pairs (i < j) of closed-curve samples pts, whose segments and
    their lengths are seg and length (_segments), in lexicographic order,
    within chordal distance `capture` and more than 3 indices apart around
    the curve, among them every such pair that is a discrete local minimum
    of the chord (see _local_chord_minima).

    The search runs over pairs of arcs of consecutive samples, from a top
    level of about _ARC_SAMPLES samples an arc down to _LEAF_SAMPLES. A pair
    of arcs is dropped by one of two rules:

    - Far pair (the arcs neither overlap nor touch). Each arc lies in its
      ball (_arc_balls). If the distance of the two centres, less both
      radii, exceeds `capture`, no sample pair of the arcs is within
      `capture`.
    - Near pair (together the arcs make one stretch of consecutive samples).
      If every two segment directions in the stretch have a positive dot
      product, which a summed turning angle below pi/2 certifies, then for
      samples i before j in it the chord to j - 1 is shorter than the chord
      to j, so no pair in the stretch is a local chord minimum.

    The first level pairs each top arc with itself and every later one
    (_top_level, built once per n). It takes each arc's two ball
    half-lengths, and each near pair's summed
    turning, as sums over the index ranges that the prefix sums of the
    levels below read (np.add.reduceat over two turns of the curve), and
    tests the far pairs on the Gram matrix of the arc centres. The sums
    differ from prefix-sum differences only by rounding, far below
    _TURN_MARGIN and _BOUND_SLACK. The prefix sums are built only when the
    first level keeps a pair. A pair not dropped is cut into pairs of
    sub-arcs, and at the leaf level its sample pairs are tested one by one
    (_leaf_pairs); a level that keeps no pair ends the search with none.
    The index separation is compared in integers: a float test on
    parameter differences admits pairs exactly 3 apart whenever rounding
    lands them above the threshold.
    """
    n = len(pts)
    if n <= _LEAF_SAMPLES:  # no level: every sample pair is tested
        return _leaf_pairs(pts, np.zeros(1, dtype=int), np.zeros(1, dtype=int), n, capture)
    # Turning angle at each sample k + 1, between segments k and k + 1; a
    # short segment counts as a half turn, which no stretch can certify.
    # Segments 0 .. n, segment n being segment 0 again, so that the
    # successor of each segment is a slice.
    ring, ring_length = np.concatenate([seg, seg[:1]]), np.concatenate([length, length[:1]])
    short = ring_length < _TIE_FREE_SEGMENT
    cos = _dots(ring[:-1], ring[1:])
    cos /= np.maximum(ring_length[:-1] * ring_length[1:], _TIE_FREE_SEGMENT**2)
    turn = np.where(short[:-1] | short[1:], math.pi, np.arccos(np.clip(cos, -1.0, 1.0)))

    # The first level (_top_level). An arc's ball is centred at its middle
    # sample, with the longer of the polyline lengths from the arc's start
    # to there and from there to its end as radius, and a near pair's
    # turning is summed over its stretch. The sums run over two turns of
    # the curve, so that no range needs a wrap.
    split, width, starts, halves, wanted, near, turns = _top_level(n)
    lengths = np.add.reduceat(np.concatenate([length, length]), halves)
    centre, radius = pts[halves[1::3]], np.maximum(lengths[0::3], lengths[1::3])
    keep = wanted & ~_apart(centre, radius, centre, radius, capture)
    keep.flat[near] = ~(np.add.reduceat(np.concatenate([turn, turn]), turns)[0::2] < 0.5 * math.pi - _TURN_MARGIN)
    k, l = divmod(np.flatnonzero(keep), split)
    if k.size == 0:  # no pair left: no sample pair can be a candidate
        return np.zeros((0, 2), dtype=int)

    # Each level below cuts both arcs of every pair left into _SPLIT arcs
    # and keeps the pairs of those that no rule drops. Turning summed from
    # sample 0 over two turns of the curve, so that a stretch starting at
    # sample s < n needs no wrap.
    turned = np.cumsum(np.concatenate([[0.0], turn, turn]))
    ball = _arc_balls(pts, length)
    x, y = starts[k], starts[l]
    while width > _LEAF_SAMPLES:
        offsets = np.arange(_SPLIT) * width // _SPLIT
        width = -(-width // _SPLIT)
        # An arc paired with itself needs only the pairs of its arcs k <= l.
        wanted = (x != y)[:, None, None] | (offsets[:, None] <= offsets)
        x, y = (x[:, None] + offsets) % n, (y[:, None] + offsets) % n
        (cx, rx), (cy, ry) = ball(x, width), ball(y, width)
        x, y = x[:, :, None], y[:, None, :]
        steps, first, span = _stretches(x, y, width, n)
        certified = turned[first + span - 2] - turned[first] < 0.5 * math.pi - _TURN_MARGIN
        k, u, v = np.nonzero(wanted & np.where(steps <= width, ~certified, ~_apart(cx, rx, cy, ry, capture)))
        if k.size == 0:  # no pair left: no sample pair can be a candidate
            return np.zeros((0, 2), dtype=int)
        x, y = x[k, u, 0], y[k, 0, v]
    return _leaf_pairs(pts, x, y, width, capture)


def _leaf_pairs(pts: np.ndarray, x: np.ndarray, y: np.ndarray, width: int, capture: float) -> np.ndarray:
    """The leaf pass of _chord_candidates: index pairs (i < j), in
    lexicographic order, of the samples within chordal distance `capture`
    and more than 3 indices apart around the curve, for i in an arc of
    `width` samples from x[m] and j in one from y[m], for some m."""
    n = len(pts)
    grid = np.arange(width)
    rows_i, rows_j = (x[:, None] + grid) % n, (y[:, None] + grid) % n
    i, j = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    step = max(1, _LEAF_ENTRIES // (width * width))
    for s in range(0, x.size, step):
        a, b = rows_i[s : s + step], rows_j[s : s + step]
        diff = pts[a][:, :, None] - pts[b][:, None, :]
        k, r, c = np.nonzero((diff * diff).sum(axis=-1) <= capture * capture)
        i.append(a[k, r])
        j.append(b[k, c])
    i, j = np.concatenate(i), np.concatenate(j)
    steps = np.abs(i - j)
    keep = np.minimum(steps, n - steps) > 3
    # The sorted distinct codes, as np.unique gives them; its first call in a
    # process imports numpy.ma (about 15 ms and 1.3 MB).
    code = np.sort(np.minimum(i, j)[keep] * n + np.maximum(i, j)[keep])
    first = np.ones(code.size, dtype=bool)
    first[1:] = code[1:] != code[:-1]
    code = code[first]
    return np.stack([code // n, code % n], axis=1)


def _local_chord_minima(pts: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """The pairs (i, j) whose sampled chord is a discrete local minimum over
    the neighbours (i+-1, j) and (i, j+-1) around the closed curve."""
    # Samples padded by one at each end: sample k sits at row k + 1, so
    # rows k and k + 2 are its neighbours around the closed curve.
    padded = np.concatenate([pts[-1:], pts, pts[:1]])
    row_i, row_j = pairs[:, 0] + 1, pairs[:, 1] + 1
    at_i, at_j = padded[row_i], padded[row_j]

    # On the unit sphere the chord falls as the dot product rises, so a
    # chord minimum over the four neighbours is a dot-product maximum.
    def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.einsum("ij,ij->i", a, b)

    cos = dot(at_i, at_j)
    local_min = (
        (cos >= dot(padded[row_i - 1], at_j))
        & (cos >= dot(padded[row_i + 1], at_j))
        & (cos >= dot(at_i, padded[row_j - 1]))
        & (cos >= dot(at_i, padded[row_j + 1]))
    )
    return pairs[local_min]


def is_simple(curve: SphericalCurve) -> tuple[bool, tuple[float, float] | None]:
    """Detect self-intersections by dense sampling plus local refinement.

    Flags the curve non-simple when it finds two parameters more than 3
    sample spacings apart around the curve within chordal distance
    eps = SIMPLE_EPS, on a grid of SIMPLE_SAMPLES equispaced samples.
    Candidates are the sample pairs within the capture radius (twice the
    longest sample chord, at least 2 eps) whose integer index separation
    exceeds 3 and whose sampled chord is a discrete local minimum over the
    neighbours (i+-1, j) and (i, j+-1), taken whether or not a neighbour is
    itself such a pair. A crossing, a close approach or a tiny loop is such
    a minimum. A slow stretch of the curve, where samples a few indices
    apart fall within the capture radius, is not, since its chord falls
    toward the diagonal (j -> i). The search for them (_chord_candidates)
    runs over pairs of arcs of consecutive samples, with two rules: a pair
    of far arcs whose ball bound on the distance exceeds the capture radius
    holds no candidate, and a stretch whose segment directions have
    pairwise positive dot products (its summed turning angle is below
    pi/2) holds no local minimum. A candidate already within eps is
    decisive (the sampled chord bounds the true minimum from above), and
    the witness is the first pair, in the candidates' (i, j) order, whose
    chord is within _WITNESS_SLACK of the least: twin pairs of equal chord
    would otherwise swap with the last bits of the curve.
    Otherwise every candidate is refined, all in one batch, to a local
    minimum of the chord within 1.5 sample spacings of each of its
    parameters (_closest_parameters). A refined pair counts only if it
    lies strictly inside that box, since on its edge the chord still
    falls, toward the diagonal or another candidate, and the first such
    pair in the candidates' (i, j) order is the witness: the refined chords
    of exact crossings all sit at rounding level, so their argmin would
    change with the last bits of the curve. Returns (simple, witness
    parameter pair or None).
    """
    dom = curve.domain
    period = dom.period
    ts, pts = curve.sample(SIMPLE_SAMPLES)
    seg, length = _segments(pts)
    max_adj = float(length.max())
    # Degenerate point-like curve: every pair coincides. (Its sample chords
    # are all below SIMPLE_EPS, so the extent needs checking only then.)
    if max_adj < SIMPLE_EPS and float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0))) < SIMPLE_EPS:
        return False, (dom.t_i, dom.t_i + 0.5 * period)

    pairs = _chord_candidates(pts, seg, length, max(2.0 * max_adj, 2.0 * SIMPLE_EPS))
    if pairs.size:
        pairs = _local_chord_minima(pts, pairs)
    if pairs.size == 0:
        return True, None
    chord = np.linalg.norm(pts[pairs[:, 0]] - pts[pairs[:, 1]], axis=1)
    if chord.min() < SIMPLE_EPS:
        i, j = pairs[np.argmax(chord <= chord.min() + _WITNESS_SLACK)]
        return False, (float(ts[i]), float(ts[j]))

    t1, t2, inside = _closest_parameters(curve, ts[pairs[:, 0]], ts[pairs[:, 1]], 1.5 * period / SIMPLE_SAMPLES)
    t1 = curve._wrap(t1)
    t2 = curve._wrap(t2)
    dist = np.linalg.norm(curve.positions(t1) - curve.positions(t2), axis=1)
    dt = np.abs(t1 - t2)
    admissible = inside & (np.minimum(dt, period - dt) > 3.0 * period / SIMPLE_SAMPLES)
    hits = np.nonzero(admissible & (dist < SIMPLE_EPS))[0]
    if hits.size:
        return False, (float(t1[hits[0]]), float(t2[hits[0]]))
    return True, None
