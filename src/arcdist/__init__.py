"""Mean arc-distance functionals of closed curves on the unit sphere."""

__version__ = "0.1.0"

from .curves import (
    CurveDomain,
    CurveSpecError,
    SphericalCurve,
    arc_length,
    from_spec,
    great_circle,
    is_closed,
    is_simple,
    tennis_ball_seam,
    to_spec,
    trig_series,
    wavy_circle,
)
from .functionals import (
    ELResidual,
    arcsin_identity_residual,
    curve_to_sphere_mean_M,
    el_residuals,
    mean_min_arc_distance,
    mean_point_to_sphere,
    point_to_curve_mean,
    point_to_curve_min,
    sphere_to_curve_mean,
    sup_deviation_from_half_pi,
)
from .optimize import (
    CalibrationFailedError,
    CalibrationReport,
    NoBracketError,
    OptimizationReport,
    OptimizerConfig,
    SearchFamily,
    calibrate_arc_length,
    minimize_functional,
    seam_seeded_family,
)
from .quadrature import (
    FunctionalResult,
    NonFiniteIntegrandError,
    QuadratureRule,
    default_curve_rule,
    default_sphere_rule,
    integrate_1d,
    sphere_integrate,
)
from .sphere import SpherePoint, geodesic_distance

__all__ = [name for name in dir() if not name.startswith("_")]
