"""Points on the unit sphere: coordinates, geodesic distance, uniform sampling."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# Norm deviation above which an input is rejected as not a unit vector.
_UNIT_NORM_ATOL = 1e-6


def require_integer(value, least: int, name: str) -> None:
    """Raise ValueError unless value is an integer (operator.index) of at least
    `least`; a bool does not count."""
    try:
        ok = not isinstance(value, bool) and operator.index(value) >= least
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class SpherePoint:
    """Colatitude/longitude pair: theta in [0, pi], phi normalized to [0, 2pi)."""

    theta: float
    phi: float

    def __post_init__(self) -> None:
        theta = float(self.theta)
        phi = float(self.phi)
        if not math.isfinite(theta) or not math.isfinite(phi):
            raise ValueError("SpherePoint coordinates must be finite")
        if not 0.0 <= theta <= math.pi:
            raise ValueError(f"colatitude must lie in [0, pi], got {theta}")
        phi = phi % TWO_PI
        if phi >= TWO_PI:  # fp mod can round up to the period
            phi = 0.0
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)


def angles_to_xyz(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Vectorized (theta, phi) -> (..., 3) Cartesian points."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    st = np.sin(theta)
    xyz = np.empty(np.broadcast_shapes(theta.shape, phi.shape) + (3,))
    # The trig functions run on contiguous arrays and only the products are
    # written into the columns, so the bits are those of stacking the columns.
    np.multiply(st, np.cos(phi), out=xyz[..., 0])
    np.multiply(st, np.sin(phi), out=xyz[..., 1])
    xyz[..., 1] += 0.0  # -0.0 becomes 0.0: on a meridian (phi = 0) y is 0.0 on both halves
    xyz[..., 2] = np.cos(theta)
    return xyz


def as_unit_xyz(v) -> np.ndarray:
    """A SpherePoint or unit 3-vector (shape (3,), norm within 1e-6, else ValueError) as an array."""
    if isinstance(v, SpherePoint):
        return angles_to_xyz(v.theta, v.phi)
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector of shape (3,), got shape {v.shape}")
    if not abs(float(v @ v) - 1.0) <= 2.0 * _UNIT_NORM_ATOL:  # also refuses NaN
        raise ValueError(f"expected a unit vector, got norm {np.linalg.norm(v)!r}")
    return v


def geodesic_distance(u, v) -> float:
    """Great-circle distance in radians, in [0, pi].

    Accepts SpherePoints or length-3 array-likes; arrays must be unit
    vectors (norm within 1e-6). The dot product is clamped to [-1, 1]
    before arccos so coincident/antipodal round-off cannot produce NaN.
    """
    return float(np.arccos(np.clip(np.dot(as_unit_xyz(u), as_unit_xyz(v)), -1.0, 1.0)))


def sample_sphere_angles(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Area-uniform (theta, phi) arrays: cos(theta) uniform on [-1, 1], phi on [0, 2pi).

    seed is a non-negative integer and n an integer >= 1 (require_integer).
    """
    require_integer(seed, 0, "seed")
    require_integer(n, 1, "sample count")
    rng = np.random.default_rng(seed)
    z = rng.uniform(-1.0, 1.0, n)
    phi = rng.uniform(0.0, TWO_PI, n)
    return np.arccos(z), phi


def uniform_unit_vectors(seed: int, n: int) -> np.ndarray:
    """The area-uniform points of sample_sphere_angles(seed, n) as an (n, 3) array."""
    theta, phi = sample_sphere_angles(seed, n)
    return angles_to_xyz(theta, phi)


def fibonacci_sphere_points(n: int) -> np.ndarray:
    """Deterministic near-uniform (n, 3) design via the golden-angle lattice; n is an integer >= 1."""
    require_integer(n, 1, "design size")
    i = np.arange(n, dtype=float)
    z = 1.0 - (2.0 * i + 1.0) / n
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=-1)


def random_rotation_matrix(seed: int) -> np.ndarray:
    """Seeded Haar-ish random rotation via a normalized random quaternion; seed is a non-negative integer."""
    require_integer(seed, 0, "seed")
    rng = np.random.default_rng(seed)
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )
