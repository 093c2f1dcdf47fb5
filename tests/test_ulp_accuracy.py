"""The two routes to the radial factor, bounded in ulps against mpmath.

The reference is rho(theta) = (|cos|^(2N) + |sin|^(2N))^(-1/(2N)) in mpmath
at 60 digits, at the exact double theta. The cases are 3,000 seeded
log-uniform exponents up to 2^31 - 1 at uniform angles, plus the axis and
diagonal angles k*pi/4 at N in {1, 2, 3, 2^31 - 1}. rho lies in [1, sqrt(2)],
so one ulp is 2^-52 throughout.

Over seeds 1-15 of this sweep (3,036 cases each) the worst errors were
1.17 ulp for ``radial_factor`` (0 to 5 cases per seed over 1 ulp) and
1.75 ulp for ``bisect_radial_factor``. The bounds below leave a margin of
about 0.3 and 0.25 ulp over those.

``residual_log`` is bounded in the form of the log-sum-exp error analysis
of Blanchard, Higham & Higham (IMA J. Numer. Anal. 2021):
|computed - exact| <= c * u * (1 + |exact|) * (1 + |hi|), with u = 2^-53
and hi = 2N * log(max(|x|, |y|)), the larger term of the sum. The cases are
the same curve points scaled by 1, 1 - 1e-12, 1 + 1e-9, 0.5 and 1.2. Over
seeds 1-30 of this sweep (15,180 points each) the worst c was 2.32; a sum
past the double range must come out as +inf, and always did.

``curve_velocity``'s components and ``curve_speed``, the arc-length
integrand, are bounded against the exact derivative in mpmath at 60 digits:

    |computed - exact| <= u * |M^-1| * (SPEED_C * |w| + LAYER_K * 2N * r^(2N-2)),

with u = 2^-53, |M^-1| the 2-norm of the inverse linear part, w the
velocity in the identity frame (|w| the identity-frame speed) and r =
min(|cos|, |sin|) / max(|cos|, |sin|) of the double theta. For the identity
frame that is 3 ulps of the speed plus the layer term: inside the diagonal
layer the slope depends on r^(2N-2), so the rounding of cos and sin alone
moves it by about 2N r^(2N-2) eps (perfbench's ``_slope_allowance`` states
the same term). The factor |M^-1| |w| is what the inverse map makes of a
rounding of w: on the kappa 8e11 frame an error of 2.2e5 ulps of the speed
was measured outside the layer, which this factor covers and a bound in
ulps of the speed alone could not. The cases are the four golden frames and
the kappa 8e11 frame, each at the axes and diagonals +-3 ulps, inside the
layer and at random. Over seeds 1-5 of a wider sweep (1,500 cases per frame
each) the worst was 3.68 for SPEED_C outside the layer and, with SPEED_C at
6, 4.74 for LAYER_K.
"""

import math
import random
import sys

import mpmath
import pytest

from fermatcurves import (
    MAX_EXPONENT,
    AffineFrame,
    bisect_radial_factor,
    curve_point,
    curve_speed,
    curve_velocity,
    radial_factor,
    residual_log,
)
from helpers import ulps_around
from test_golden import FRAMES as GOLDEN_FRAMES

RADIAL_FACTOR_ULPS = 1.5
BISECTION_ULPS = 2.0
RESIDUAL_LOG_C = 3.0
SCALES = (1.0, 1.0 - 1e-12, 1.0 + 1e-9, 0.5, 1.2)
SPEED_C = 6.0
LAYER_K = 8.0
VELOCITY_FRAMES = (*GOLDEN_FRAMES, AffineFrame(1.0, 1.0, 0.0, 1.0, 1.0 + 5e-12, 0.0))  # the last: kappa 8e11


def _cases() -> list[tuple[float, int]]:
    rng = random.Random(20261018)
    log_max = math.log(MAX_EXPONENT)
    cases = [
        (rng.uniform(0.0, 2.0 * math.pi), min(MAX_EXPONENT, max(1, round(math.exp(rng.uniform(0.0, log_max))))))
        for _ in range(3000)
    ]
    cases += [(k * math.pi / 4.0, n) for n in (1, 2, 3, MAX_EXPONENT) for k in range(9)]
    return cases


def _exact(theta: float, n: int):
    t = mpmath.mpf(theta)
    return (abs(mpmath.cos(t)) ** (2 * n) + abs(mpmath.sin(t)) ** (2 * n)) ** (-mpmath.mpf(1) / (2 * n))


@pytest.fixture(scope="module")
def reference():
    with mpmath.workdps(60):
        return [(theta, n, _exact(theta, n)) for theta, n in _cases()]


@pytest.mark.parametrize(
    "solver, bound",
    [(radial_factor, RADIAL_FACTOR_ULPS), (bisect_radial_factor, BISECTION_ULPS)],
    ids=["radial_factor", "bisect_radial_factor"],
)
def test_within_the_pinned_ulps_of_mpmath(reference, solver, bound):
    worst, at = 0.0, None
    with mpmath.workdps(60):
        for theta, n, exact in reference:
            error = float(abs(mpmath.mpf(solver(theta, n)) - exact) / math.ulp(float(exact)))
            if error > worst:
                worst, at = error, (theta, n)
    assert worst <= bound, f"{worst:.3f} ulp at (theta, N) = {at}"


def test_residual_log_within_the_log_sum_exp_bound_of_mpmath():
    worst, at = 0.0, None
    with mpmath.workdps(60):
        for theta, n in _cases():
            x0, y0 = curve_point(theta, n)
            for scale in SCALES:
                x, y = scale * x0, scale * y0
                computed = residual_log((x, y), n)
                exact = mpmath.fsum(mpmath.exp(2 * n * mpmath.log(abs(mpmath.mpf(c)))) for c in (x, y) if c) - 1
                if exact > sys.float_info.max:
                    assert computed == math.inf, (theta, n, scale)
                    continue
                hi = 2 * n * math.log(max(abs(x), abs(y)))
                c = float(abs(computed - exact) / ((1 + abs(exact)) * (1 + abs(hi)))) / 2.0**-53
                if c > worst:
                    worst, at = c, (theta, n, scale)
    assert worst <= RESIDUAL_LOG_C, f"c = {worst:.3f} at (theta, N, scale) = {at}"



def _velocity_cases() -> list[tuple[float, int]]:
    """The axes and diagonals +-3 ulps, then the diagonal layer and random
    angles at log-uniform exponents."""
    rng = random.Random(20261021)
    log_max = math.log(MAX_EXPONENT)
    cases = [
        (theta, n)
        for n in (1, 2, 10**4, MAX_EXPONENT)
        for k in range(8)
        for theta in ulps_around(k * math.pi / 4.0, 3)
        if theta >= 0.0
    ]
    for _ in range(250):
        n = min(MAX_EXPONENT, max(1, round(math.exp(rng.uniform(0.0, log_max)))))
        diagonal = (2 * rng.randrange(4) + 1) * math.pi / 4.0
        cases.append((diagonal + rng.choice((-1.0, 1.0)) * rng.uniform(0.0, 4.0 / n), n))
        n = min(MAX_EXPONENT, max(1, round(math.exp(rng.uniform(0.0, log_max)))))
        cases.append((rng.uniform(0.0, 2.0 * math.pi), n))
    return cases


def _exact_velocity(theta: float, n: int, frame: AffineFrame):
    """The exact velocity of the framed curve at the double theta, and |w|,
    the identity frame's speed there: w = d/dtheta of rho * (cos, sin) with
    rho' = S^(-1/(2N) - 1) cos sin (|cos|^(2N-2) - |sin|^(2N-2)), S =
    |cos|^(2N) + |sin|^(2N), and the velocity M^-1 w."""
    t = mpmath.mpf(theta)
    c, s = mpmath.cos(t), mpmath.sin(t)
    big = max(abs(c), abs(s))
    x, y = abs(c) / big, abs(s) / big  # S = big^(2N) (x^(2N) + y^(2N)), one of x, y is 1
    shape = x ** (2 * n) + y ** (2 * n)
    rho = shape ** (-mpmath.mpf(1) / (2 * n)) / big
    slope = shape ** (-1 - mpmath.mpf(1) / (2 * n)) * c * s / big**3 * (x ** (2 * n - 2) - y ** (2 * n - 2))
    wx, wy = slope * c - rho * s, slope * s + rho * c
    a, b, _, d, e, _ = (mpmath.mpf(coefficient) for coefficient in frame.coefficients())
    det = a * e - b * d
    return (e * wx - b * wy) / det, (a * wy - d * wx) / det, mpmath.hypot(wx, wy)


def _inverse_norm(frame: AffineFrame) -> float:
    """The 2-norm of the inverse linear part, 1 / sigma_min."""
    a, b, _, d, e, _ = frame.coefficients()
    frobenius2 = a * a + b * b + d * d + e * e
    det = a * e - b * d
    return math.sqrt((frobenius2 + math.sqrt(max(0.0, frobenius2 * frobenius2 - 4.0 * det * det))) / 2.0) / abs(det)


def _layer(theta: float, n: int) -> float:
    """2N r^(2N-2) with r from the double cos and sin of theta."""
    c, s = math.fabs(math.cos(theta)), math.fabs(math.sin(theta))
    r = min(c, s) / max(c, s)
    return 2.0 * n * (math.exp((2.0 * n - 2.0) * math.log(r)) if r > 0.0 else 0.0)


@pytest.mark.parametrize("frame", VELOCITY_FRAMES, ids=["identity", "rotation", "readme", "general", "kappa 8e11"])
def test_velocity_and_speed_within_the_pinned_bound_of_mpmath(frame):
    norm = _inverse_norm(frame)
    worst, at = 0.0, None
    with mpmath.workdps(60):
        for theta, n in _velocity_cases():
            vx, vy, w = _exact_velocity(theta, n, frame)
            speed = mpmath.hypot(vx, vy)
            allowance = 2.0**-53 * norm * (SPEED_C * float(w) + LAYER_K * _layer(theta, n))
            gx, gy = curve_velocity(theta, n, frame)
            for name, got, exact in (("vx", gx, vx), ("vy", gy, vy), ("speed", curve_speed(theta, n, frame), speed)):
                used = float(abs(mpmath.mpf(got) - exact)) / allowance
                if used > worst:
                    worst, at = used, (name, theta, n)
    assert worst <= 1.0, f"{worst:.3f} of the bound at (component, theta, N) = {at}"
