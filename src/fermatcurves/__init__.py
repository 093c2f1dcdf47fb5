"""Stable evaluation and sampling of the curves x^(2N) + y^(2N) = 1.

The package covers the closed-form parameterization of the family, its
affine generalization, the square that the family converges to, arc-length
tooling, convergence diagnostics, and brute-force reference solvers for
cross-checking. See ``fermatcurves.cli`` for the command-line front end.
"""

from .core import (
    IDENTITY,
    MAX_EXPONENT,
    TWO_PI,
    AffineFrame,
    Point2,
    affine_curve_point,
    curve_point,
    curve_speed,
    curve_velocity,
    forward_affine,
    inverse_affine,
    limit_map,
    normalize_angle,
    radial_factor,
    radial_factor_limit,
    residual_log,
    square_point,
    theta_of_point,
)
from .errors import (
    InvalidAngle,
    OffCurve,
    OriginPoint,
    OutOfRange,
    QuadratureFailure,
    SingularFrame,
    TooFewSamples,
)
from .oracle import bisect_radial_factor, implicit_solve_x, oracle_polyline
from .sampling import (
    DEFAULT_TOL,
    SampledCurve,
    arc_length,
    convergence_gap,
    polyline_hausdorff,
    resample_by_arclength,
    sample_uniform_theta,
)

__version__ = "0.1.0"

__all__ = [
    "AffineFrame",
    "DEFAULT_TOL",
    "IDENTITY",
    "InvalidAngle",
    "MAX_EXPONENT",
    "OffCurve",
    "OriginPoint",
    "OutOfRange",
    "Point2",
    "QuadratureFailure",
    "SampledCurve",
    "SingularFrame",
    "TWO_PI",
    "TooFewSamples",
    "affine_curve_point",
    "arc_length",
    "bisect_radial_factor",
    "convergence_gap",
    "curve_point",
    "curve_speed",
    "curve_velocity",
    "forward_affine",
    "implicit_solve_x",
    "inverse_affine",
    "limit_map",
    "normalize_angle",
    "oracle_polyline",
    "polyline_hausdorff",
    "radial_factor",
    "radial_factor_limit",
    "resample_by_arclength",
    "residual_log",
    "sample_uniform_theta",
    "square_point",
    "theta_of_point",
    "__version__",
]
