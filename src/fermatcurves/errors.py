"""Exception types shared across the package."""

__all__ = ["InvalidAngle", "OffCurve", "OriginPoint", "OutOfRange", "QuadratureFailure", "SingularFrame", "TooFewSamples"]


class InvalidAngle(ValueError):
    """Angle input that is not a finite real number: NaN, an infinity, or a
    value such as a str, bytes or bool that is not a real number."""


class SingularFrame(ValueError):
    """Affine frame whose linear part is not safely invertible."""


class OriginPoint(ValueError):
    """Point whose forward image is the origin, so its direction is undefined."""


class TooFewSamples(ValueError):
    """Fewer samples requested than a closed polyline needs."""


class OutOfRange(ValueError):
    """Coordinate outside the solvable interval."""


class OffCurve(ValueError):
    """Sampled point whose membership residual exceeds the bound."""


class QuadratureFailure(RuntimeError):
    """Arc-length quadrature or root finding could not meet its error target within its budget."""
