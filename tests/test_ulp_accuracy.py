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
"""

import math
import random
import sys

import mpmath
import pytest

from fermatcurves import MAX_EXPONENT, bisect_radial_factor, curve_point, radial_factor, residual_log

RADIAL_FACTOR_ULPS = 1.5
BISECTION_ULPS = 2.0
RESIDUAL_LOG_C = 3.0
SCALES = (1.0, 1.0 - 1e-12, 1.0 + 1e-9, 0.5, 1.2)


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
