"""Exception types shared across the package."""


class InvalidAngle(ValueError):
    """Angle input is NaN or infinite."""


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
