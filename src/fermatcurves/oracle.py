"""Brute-force reference solvers, independent of the closed-form radial factor.

These exist to check the rest of the package: the bisection solver finds the
radial factor numerically from the defining equation alone, and the implicit
solver recovers one coordinate from the other. Neither touches
``radial_factor``, so agreement between the two routes is a real test rather
than a tautology.
"""

from __future__ import annotations

import math

from . import core
from .core import IDENTITY, AffineFrame
from .errors import OutOfRange
from .sampling import SampledCurve, _check_count, _trusted_curve, _uniform_thetas

__all__ = ["bisect_radial_factor", "implicit_solve_x", "oracle_polyline"]

_SQRT2 = math.sqrt(2.0)


def bisect_radial_factor(theta: float, n: int) -> float:
    """Solve (t*cos(theta))^(2N) + (t*sin(theta))^(2N) = 1 for t by bisection.

    The left side grows with t and is evaluated in the log domain. The root
    lies in [1, sqrt(2)]: at t = 1 the sum is at most cos^2 + sin^2 = 1, and
    at t = sqrt(2) it is at least 2. Bisection runs until the midpoint of
    the bracket no longer lies strictly between its ends, which are then
    adjacent doubles, and returns that midpoint, rounded to one of them.
    Every pass strictly shrinks a bracket of finite doubles, so the loop
    ends, after about 51 halvings.
    """
    return _bisect(core._check_angle(theta), core._check_exponent(n))


def _bisect(theta: float, n: int) -> float:
    """bisect_radial_factor for an already-checked angle and exponent."""
    c = math.fabs(math.cos(theta))
    s = math.fabs(math.sin(theta))
    log_c = math.log(c) if c > 0.0 else -math.inf
    log_s = math.log(s) if s > 0.0 else -math.inf
    # finite: the larger of |cos| and |sin| is at least 1/sqrt(2)
    log_big, log_small = max(log_c, log_s), min(log_c, log_s)
    two_n = 2.0 * n

    lo = 1.0
    hi = _SQRT2
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        log_mid = math.log(mid)
        big = two_n * (log_mid + log_big)
        if big + math.log1p(math.exp(two_n * (log_mid + log_small) - big)) > 0.0:
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return mid


def implicit_solve_x(y: float, n: int) -> float:
    """Nonnegative x with x^(2N) + y^(2N) = 1, solved in the log domain.

    Raises TypeError when y is not a real number and OutOfRange when it is
    not finite or |y| > 1. The complement 1 - y^(2N) is formed with
    expm1 so no precision is lost when |y| is close to 1.
    """
    n = core._check_exponent(n)
    y = core._check_real(y, "y")
    if not math.isfinite(y):
        raise OutOfRange(f"y must be finite, got {y!r}")
    ay = math.fabs(y)
    if ay > 1.0:
        raise OutOfRange(f"no real solution: |y| = {ay!r} exceeds 1")
    if ay == 0.0:
        return 1.0
    u = 2.0 * n * math.log(ay)
    complement = -math.expm1(u)  # 1 - y^(2N), accurate near y = +/-1
    if complement == 0.0:
        return 0.0
    return math.exp(math.log(complement) / (2.0 * n))


def oracle_polyline(
    n: int, frame: AffineFrame = IDENTITY, count: int = 256
) -> SampledCurve:
    """Sample one full turn using only the bisection solver.

    Same uniform theta grid as ``sampling.sample_uniform_theta`` but with the
    radial factor found by ``bisect_radial_factor``, giving an independent
    polyline to compare the closed form against.
    """
    n = core._check_exponent(n)
    frame = core._check_frame(frame)
    thetas = _uniform_thetas(_check_count(count))
    points = []
    for t in thetas:
        radius = _bisect(t, n)
        x, y = radius * math.cos(t), radius * math.sin(t)
        points.append(core._solve_linear(frame, x - frame.gamma, y - frame.zeta))
    return _trusted_curve(thetas, tuple(points), True, n, frame)
