"""Brute-force reference solvers, independent of the closed-form radial factor.

These exist to check the rest of the package: the bisection solver finds the
radial factor numerically from the defining equation alone, and the implicit
solver recovers one coordinate from the other. Neither touches
``radial_factor``, so agreement between the two routes is a real test rather
than a tautology.

The bisection halves [1, 3/2] down to adjacent doubles. The equation is
linear in log t, so the search starts at the first node whose midpoint lies
in a narrow band around the root's place, and only such midpoints evaluate
the equation. Where the smaller of |cos| and |sin| still counts, the
equation's value at the first midpoint places the root, to a relative
2^-48. Where its term underflows at every midpoint (large N away from the
diagonals), the root is placed at the square's radius 1/max(|cos|, |sin|),
to a relative 2^-50, and each evaluation is one log and one comparison.
Elsewhere the sign is certain, and ``bisect_radial_factor`` proves that
the result is the plain bisection's double.
"""

from __future__ import annotations

import math

from . import core
from .core import IDENTITY, AffineFrame
from .errors import OutOfRange
from .sampling import SampledCurve, _check_count, _trusted_curve, _uniform_thetas

__all__ = ["bisect_radial_factor", "implicit_solve_x", "oracle_polyline"]

# Half-width, in log t, of the band around the root's place in which _radii
# still evaluates the equation; bisect_radial_factor shows that it outweighs
# every rounding in the decisions it makes outside.
_BAND = 2.0**-48
# The bracket [1, 3/2] in steps of 2^-52: every midpoint is 1 + k/_STEPS for
# an integer k in (0, 2^51), and the node centred on k has half-width k & -k.
_STEPS = 2.0**52
_LOG_T1 = math.log(1.25)
# Below this 2N*log(min/max), the small term's exp is 0.0 at every midpoint
# (the dead regime); exp(x) is 0.0 only below log(2**-1075) = -745.13...
_DEAD = -746.0
# The dead regime's band, 1/max(|cos|, |sin|) times these: a relative 2^-50
_BELOW = 1.0 - 2.0**-50
_ABOVE = 1.0 + 2.0**-50


def bisect_radial_factor(theta: float, n: int) -> float:
    """Solve (t*cos(theta))^(2N) + (t*sin(theta))^(2N) = 1 for t by bisection.

    The left side grows with t and is evaluated in the log domain, as
    F(t) = log of the sum. The root lies in [1, sqrt(2)], so in the bracket
    [1, 3/2]: at t = 1 the sum is at most cos^2 + sin^2 = 1, and at
    t = sqrt(2) it is at least 2. Bisection runs until the midpoint of the
    bracket no longer lies strictly between its ends, which are then
    adjacent doubles, and returns that midpoint, rounded to one of them. The
    bracket is dyadic, so every midpoint 0.5 * (lo + hi) is exact:
    1 + k*2^-52 for an integer k in (0, 2^51), and the node centred on k has
    half-width (k & -k)*2^-52. Plain bisection takes 51 halvings.

    For the doubles c = |cos|, s = |sin| the exact equation
    G(t) = log((t*c)^(2N) + (t*s)^(2N)) = 2N*log(t) + G(1) is linear in
    log t with slope 2N: G(t) = 2N*(log(t) - log(r)) at the root r. F is
    computed as big + log1p(exp(x)), with big = 2N*(log(t) + log_big) and
    x = 2N*(log(t) + log_small) - big for the logs of the larger and the
    smaller of c and s. On all of [1, 3/2] the computed F is within
    E = 2N*8.1u of G (u = 2^-53; log, exp and log1p within an ulp):

    - log(t) is below 0.41 (log 1.5 = 0.405) and log(max(c, s)) below 0.35
      in size, so each is within 2^-54, their sum (below 0.41 in size)
      within 1.25u and its product by 2N within 2N*1.66u.
    - The small term x, exactly 2N*log(min/max) <= 0, is within
      2N*u*(5|log(min/max)| + 3.7). log1p(exp(x)) passes that on scaled by
      at most exp(x), and exp(x)*2N*|log(min/max)| <= 1/e, so with its own
      rounding and the exp's it is within 2N*6.2u. (On the axes x = -inf
      and the term is exactly 0.)
    - The last sum rounds by at most 2N*0.23u where |F| <= 2N*0.23, as at
      t = 1.25. Elsewhere only the sign of F is used, which rounding a sum
      cannot change.

    The live regime, where the small term may count: the first midpoint
    t1 = 1.25 is evaluated, and its F1 places the root:
    |log(t1) - F1/(2N) - log(r)| <= E/(2N). From it come
    above = t1*exp(2^-48 - F1/(2N)) and below = t1*exp(-2^-48 - F1/(2N)).
    Rounding the quotient, the difference, the exp and the product moves
    their logs by at most 3.5u, so log(above) >= log(r) + 2^-48 - 8.1u -
    3.5u. Any midpoint mid >= above then has F(mid) >= G(mid) - E >=
    2N*(2^-48 - 2*8.1u - 3.5u) = 2N*12.3u > 0, and becomes the upper end,
    as evaluating F would make it. Likewise mid <= below has F(mid) < 0 and
    becomes the lower end. (2^-48 is the narrowest power of two with a
    positive margin: at 2^-49 it is 16u - 19.7u.)

    The dead regime, where the small term underflows: _radii takes it when
    the computed D = 2N*(log_small - log_big) is below _DEAD = -746, so the
    exact difference times 2N is below -746 + 746*2.1u. At a midpoint, x is
    that product before rounding. The two sums, the two products and the
    difference move it by at most 3u*|D| + 2N*1.64u, as
    |log(mid) + log_big| <= 0.41 and |log(mid) + log_small| <= |D|/(2N) +
    0.41; the first part only scales D by 1 - 3u, and with 2N < 2^32 the
    second is below 1e-6. So x < -745.99 at every
    midpoint, e^x is below 0.21 of the least subnormal 2^-1074, and exp(x)
    is exactly 0.0 (for any exp that errs there by less than 0.79 ulp, as
    glibc's does). Then log1p(exp(x)) is 0.0, F is exactly
    2N*fl(log(mid) + log_big), and its sign is that of the exact sum: F > 0
    exactly when log(mid) > -log_big. That holds at a tie too, where the sum
    is zero and F is 0.0, not positive. Each evaluation is that one log and
    comparison. (A threshold above -745.13 is unsound: there exp(x) can be
    positive, and at a tie F = log1p(exp(x)) > 0.)

    There F is within E = 2N*1.66u of G, the first bullet alone (G's own
    small term is below e^-745.99), and the band needs no evaluation: it is
    placed from the square's radius 1/c,
    c = max(|cos|, |sin|), as above = fl(fl(1/c)*(1 + 2^-50)) and below =
    fl(fl(1/c)*(1 - 2^-50)). The two roundings move log(above) by at most
    2^-52, and log(mid) and log_big are each within 2^-54. So any mid >=
    above has log(mid) + log_big >= 2^-50 - 2^-101 - 2^-52 - 2^-53 > 0 in
    the computed logs, F(mid) > 0, and it becomes the upper end, as
    evaluating F would make it. Likewise mid <= below has F(mid) < 0. (The
    margin is 5u less 2^-101.)

    So the search need not step through the midpoints outside the band.
    below - 1 and above - 1 are exact (Sterbenz: both lie in [1/2, 2]), and
    so is their scaling by 2^52. first and last are the least and greatest
    k strictly inside the band, first raised to 1 where below < 1. The band
    is more than six steps wide, reaches at least four steps above 1 (ten
    above r >= 1 in the live regime), and above < 1.42, so
    0 < first <= last < 2^51. Let m be the one k among them with the most
    trailing zeros (two with as many would have one with more between
    them). Every ancestor of m's node is centred on a k with more trailing
    zeros, so outside the band, and decides as an evaluation would: plain
    bisection passes through m's node. The loop starts there and evaluates
    F at every midpoint inside the band, so the bracket ends, the midpoints
    and the result are those of evaluating F at every midpoint of [1, 3/2].
    On the test grid's 52,922 cases the loop evaluates from 4 to 7
    midpoints in the live regime, after the first (5 to 8 in all), and from
    2 to 5 in the dead regime, with none before the loop (51 for plain
    bisection). (In the live regime, if the band holds 1.25, m's node is
    [1, 3/2] and 1.25 is evaluated twice.) Nothing here uses the closed-form
    radial factor.

    The loop is _radii, the oracle's one body, run here on one angle after
    the angle and exponent checks; oracle_polyline runs it once per curve.

    The result also equals plain bisection of [1, sqrt(2)], by evidence
    rather than proof. Both end at adjacent doubles across which the
    computed F turns positive, and those are the same whenever F changes
    sign once near the root. That held in every case checked: the same
    double on 52,922 cases of the test grid and 188,800 seeded (theta, N),
    many of them at small N and near the axes and the diagonals; and in
    60,000 of those, F changed sign once within 24 ulps of the result.
    """
    theta = core._check_angle(theta)
    n = core._check_exponent(n)
    return _radii([(math.cos(theta), math.sin(theta))], n)[0]


def _radii(pairs, n: int) -> list[float]:
    """bisect_radial_factor at each (cos(theta), sin(theta)) of pairs, for
    checked angles and a checked exponent: the one body of the bisection
    oracle.

    A pair takes the live regime or the dead one by its D = 2N*(log_small -
    log_big) against _DEAD, and the two differ only in how the band is
    placed and how a midpoint in it is evaluated; bisect_radial_factor
    proves both. Its libm functions are bound once per call, from the
    module's math at call time (so a stand-in for math sees every
    evaluation), and a curve pays one Python call instead of one per vertex.
    """
    fabs, log, log1p, exp, floor, ceil = (
        math.fabs, math.log, math.log1p, math.exp, math.floor, math.ceil
    )
    two_n = 2.0 * n
    radii = []
    for c, s in pairs:
        c = fabs(c)
        s = fabs(s)
        log_c = log(c) if c > 0.0 else -math.inf
        log_s = log(s) if s > 0.0 else -math.inf
        # finite: the larger of |cos| and |sin| is at least 1/sqrt(2)
        if log_c >= log_s:
            c_big, log_big, log_small = c, log_c, log_s
        else:
            c_big, log_big, log_small = s, log_s, log_c

        dead = two_n * (log_small - log_big) < _DEAD
        if dead:
            # F > 0 exactly where log(mid) > -log_big, whose root is 1/c_big
            radius = 1.0 / c_big
            above = radius * _ABOVE
            below = radius * _BELOW
            neg_log_big = -log_big
        else:
            # F at the first midpoint, 1.25, places the band
            big = two_n * (_LOG_T1 + log_big)
            f = big + log1p(exp(two_n * (_LOG_T1 + log_small) - big))
            above = 1.25 * exp(_BAND - f / two_n)
            below = 1.25 * exp(-_BAND - f / two_n)
        # the node centred on the integer with the most trailing zeros in the band
        first = floor((below - 1.0) * _STEPS) + 1
        if first < 1:
            first = 1
        last = ceil((above - 1.0) * _STEPS) - 1
        m = _most_trailing_zeros(first, last)
        w = m & -m
        lo = 1.0 + (m - w) / _STEPS
        hi = 1.0 + (m + w) / _STEPS
        mid = 0.5 * (lo + hi)
        while lo < mid < hi:
            if mid >= above:
                hi = mid
            elif mid <= below:
                lo = mid
            elif dead:
                if log(mid) > neg_log_big:
                    hi = mid
                else:
                    lo = mid
            else:
                log_mid = log(mid)
                big = two_n * (log_mid + log_big)
                if big + log1p(exp(two_n * (log_mid + log_small) - big)) > 0.0:
                    hi = mid
                else:
                    lo = mid
            mid = 0.5 * (lo + hi)
        radii.append(mid)
    return radii


def _most_trailing_zeros(first: int, last: int) -> int:
    """The integer in [first, last], 0 < first <= last, with the most trailing
    zeros: last with every bit below the highest bit in which first - 1 and
    last differ cleared."""
    return last & -(1 << ((first - 1) ^ last).bit_length() - 1)


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
    polyline to compare the closed form against. Each vertex's cos and sin
    are computed once: the radii come from one call of the bisection body on
    the whole grid's pairs, and each vertex scales its pair and takes the
    frame's inverse inline, as ``core._points`` does: the same doubles as
    ``inverse_affine`` of the bisected point.
    """
    n = core._check_exponent(n)
    frame = core._check_frame(frame)
    thetas = _uniform_thetas(_check_count(count))
    cos, sin = math.cos, math.sin
    pairs = [(cos(theta), sin(theta)) for theta in thetas]
    alpha, beta, gamma, delta, epsilon, zeta = frame.coefficients()
    det = frame.det
    points = []
    for (c, s), radius in zip(pairs, _radii(pairs, n)):
        u = radius * c - gamma
        v = radius * s - zeta
        points.append(((epsilon * u - beta * v) / det, (alpha * v - delta * u) / det))
    return _trusted_curve(thetas, tuple(points), True, n, frame)
