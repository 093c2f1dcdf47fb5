"""Brute-force reference solvers, independent of the closed-form radial factor.

These exist to check the rest of the package: the bisection solver finds the
radial factor numerically from the defining equation alone, and the implicit
solver recovers one coordinate from the other. Neither touches
``radial_factor``, so agreement between the two routes is a real test rather
than a tautology.

The bisection halves [1, sqrt(2)] down to adjacent doubles but evaluates the
equation only inside the bracket the equation itself gives the root,
[2^(-1/(2N))/m, 1/m] with m = max(|cos|, |sin|), widened by a relative
2^-44: elsewhere the sign of the equation is certain, and
``bisect_radial_factor`` proves that skipping those evaluations leaves every
double of the plain bisection as it was.
"""

from __future__ import annotations

import math

from . import core
from .core import IDENTITY, AffineFrame
from .errors import OutOfRange
from .sampling import SampledCurve, _check_count, _trusted_curve, _uniform_thetas

__all__ = ["bisect_radial_factor", "implicit_solve_x", "oracle_polyline"]

_SQRT2 = math.sqrt(2.0)
# Relative slack on each side of the equation's own bracket; bisect_radial_factor
# shows that it outweighs every rounding in the decisions it lets _bisect skip.
_SLACK = 2.0**-44


def bisect_radial_factor(theta: float, n: int) -> float:
    """Solve (t*cos(theta))^(2N) + (t*sin(theta))^(2N) = 1 for t by bisection.

    The left side grows with t and is evaluated in the log domain, as
    F(t) = log of the sum. The root lies in [1, sqrt(2)]: at t = 1 the sum
    is at most cos^2 + sin^2 = 1, and at t = sqrt(2) it is at least 2.
    Bisection runs until the midpoint of the bracket no longer lies strictly
    between its ends, which are then adjacent doubles, and returns that
    midpoint, rounded to one of them. Every pass strictly shrinks a bracket
    of finite doubles, so the loop ends, after about 51 halvings.

    With m = max(|cos|, |sin|) the equation brackets its root more tightly,
    in [2^(-1/(2N))/m, 1/m]: at t = 1/m the sum is at least 1, and at
    2^(-1/(2N))/m it is at most 2 * (t*m)^(2N) = 1. That bracket is about
    ln 2/(2N) wide relative to the root, so it closes in as the curve does
    on the square. A midpoint outside it, by a relative slack delta = 2^-44,
    gets its decision without evaluating F, and that decision is the one the
    evaluated F would give (u = 2^-53; logs of the doubles mid, m and
    min(|cos|, |sin|) are within an ulp, and |log(mid*m)| <= 0.35):

    - mid >= (1 + delta)/m: then mid*m >= (1 + delta)(1 - u), so
      log(mid) + log(m) stays above delta - 3u > 0 after rounding, and
      F = 2N*(log(mid) + log(m)) + log1p(exp(...)) is a positive term plus
      a nonnegative one, F > 0: mid becomes the upper end.
    - mid <= 2^(-1/(2N))*(1 - delta)/m: then mid*m is at most
      2^(-1/(2N))*(1 - delta)(1 + 4u), so the exact F is at most
      2N*(log(1 - delta) + 4u) < -2N*(2^-44 - 2^-51). The computed F is
      within 2N*2^-50 of the exact one: rounding the logs, their sums and
      the product by 2N costs a few u*2N, and log1p(exp(x)) adds its own
      rounding plus exp(x) times the error in x, which stays as small
      because exp(x)*2N*|log(min(|cos|, |sin|))| is bounded. So F < 0: mid
      becomes the lower end.

    Only the midpoints in between, where the decision could go either way,
    evaluate F, so the bracket ends, the midpoints and the result are those
    of evaluating F at every midpoint. About 25 of the 51 are evaluated, on
    average over N, and 16 at N = 2^31 - 1. The bracket comes from the
    equation alone; the closed-form radial factor is never used.
    """
    theta = core._check_angle(theta)
    return _bisect(math.cos(theta), math.sin(theta), core._check_exponent(n))


def _bisect(cos_t: float, sin_t: float, n: int) -> float:
    """bisect_radial_factor from cos(theta), sin(theta) and a checked exponent."""
    c = math.fabs(cos_t)
    s = math.fabs(sin_t)
    log_c = math.log(c) if c > 0.0 else -math.inf
    log_s = math.log(s) if s > 0.0 else -math.inf
    # finite: the larger of |cos| and |sin| is at least 1/sqrt(2)
    log_big, log_small = max(log_c, log_s), min(log_c, log_s)
    two_n = 2.0 * n
    m = max(c, s)
    above = (1.0 + _SLACK) / m
    below = 0.5 ** (1.0 / two_n) * (1.0 - _SLACK) / m

    lo = 1.0
    hi = _SQRT2
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if mid >= above:
            hi = mid
        elif mid <= below:
            lo = mid
        else:
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
        c, s = math.cos(t), math.sin(t)
        radius = _bisect(c, s, n)
        x, y = radius * c, radius * s
        points.append(core._solve_linear(frame, x - frame.gamma, y - frame.zeta))
    return _trusted_curve(thetas, tuple(points), True, n, frame)
