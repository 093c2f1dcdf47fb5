"""Unit tests for the scalar evaluation layer.

The derived expected values (grid residual sizes, frame roundtrip bounds,
finite-difference agreement) were confirmed against the bisection oracle
and against brute-force numpy recomputations before being frozen here.
"""

import dataclasses
import math
import random
import re
import struct
from decimal import Decimal
from enum import IntEnum
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fermatcurves import (
    IDENTITY,
    MAX_EXPONENT,
    TWO_PI,
    AffineFrame,
    InvalidAngle,
    OriginPoint,
    OutOfRange,
    SampledCurve,
    SingularFrame,
    affine_curve_point,
    arc_length,
    bisect_radial_factor,
    cli,
    curve_point,
    curve_speed,
    curve_velocity,
    forward_affine,
    implicit_solve_x,
    inverse_affine,
    limit_map,
    normalize_angle,
    polyline_hausdorff,
    radial_factor,
    radial_factor_limit,
    residual_log,
    sample_uniform_theta,
    square_point,
    theta_of_point,
)
from fermatcurves import core
from fermatcurves.sampling import _uniform_thetas
from helpers import frame_family, random_frame, reference_evaluate, reference_log_sum, reference_slope, ulps_around
from test_golden import FRAMES as GOLDEN_FRAMES

EXPONENT_GRID = [1, 2, 3, 5, 10, 100, 10**4, 10**6, MAX_EXPONENT]

angles = st.floats(min_value=-1e6, max_value=1e6)
moderate_angles = st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True)


def peak_radius(n: int) -> float:
    return 2.0 ** ((n - 1) / (2.0 * n))


class TestNormalizeAngle:
    def test_fixed_points_and_wrapping(self):
        assert normalize_angle(0.0) == 0.0
        assert normalize_angle(TWO_PI) == 0.0
        assert normalize_angle(-TWO_PI) == 0.0
        assert normalize_angle(1.25) == 1.25
        assert normalize_angle(-math.pi / 2.0) == 1.5 * math.pi
        assert normalize_angle(7.0 * math.pi) == math.pi
        assert normalize_angle(-1e-18) == 0.0

    @given(theta=angles)
    def test_result_is_canonical(self, theta):
        r = normalize_angle(theta)
        assert 0.0 <= r < TWO_PI
        assert normalize_angle(r) == r

    @given(theta=angles)
    def test_congruent_modulo_full_turns(self, theta):
        r = normalize_angle(theta)
        turns = (theta - r) / TWO_PI
        assert round(turns) == pytest.approx(turns, abs=1e-9)

    def test_rejects_nonfinite(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidAngle):
                normalize_angle(bad)


class TestRadialFactor:
    def test_circle_is_exactly_unit(self):
        for k in range(360):
            assert radial_factor(TWO_PI * k / 360.0, 1) == 1.0

    def test_axis_values_are_exactly_unit(self):
        for n in EXPONENT_GRID:
            for theta in (0.0, math.pi / 2.0, math.pi, 1.5 * math.pi):
                assert radial_factor(theta, n) == 1.0

    def test_diagonal_hits_the_closed_form_peak(self):
        for n in (1, 2, 5, 100, 10**6):
            assert radial_factor(math.pi / 4.0, n) == peak_radius(n)

    def test_matches_bisection_oracle(self):
        worst = 0.0
        for n in (1, 2, 3, 10, 100):
            for k in range(64):
                theta = TWO_PI * k / 64.0
                diff = abs(radial_factor(theta, n) - bisect_radial_factor(theta, n))
                worst = max(worst, diff)
        assert worst <= 5e-13

    def test_off_axis_example_reduces_to_secant_at_large_n(self):
        # for theta where |cos| dominates, the minor term underflows and
        # rho must equal 1/cos(theta) to the last bit
        assert radial_factor(0.3, 100) == 1.0 / math.cos(0.3)

    @given(theta=st.floats(min_value=-10.0, max_value=10.0), n=st.sampled_from(EXPONENT_GRID))
    def test_always_in_the_closed_range(self, theta, n):
        rho = radial_factor(theta, n)
        assert math.isfinite(rho)
        assert 1.0 <= rho <= peak_radius(n)

    def test_extreme_exponent_near_the_diagonal(self):
        n = MAX_EXPONENT
        for offset in (0.0, 1e-12, 1e-8, 1e-4, 0.1):
            rho = radial_factor(math.pi / 4.0 + offset, n)
            assert math.isfinite(rho)
            assert 1.0 <= rho <= peak_radius(n)
        assert radial_factor(math.pi / 4.0, n) == peak_radius(n)

    def test_symmetry_under_reflections(self):
        for theta in (0.2, 0.7, 1.1):
            base = radial_factor(theta, 6)
            for mirror in (-theta, math.pi - theta, math.pi + theta, math.pi / 2.0 - theta):
                assert radial_factor(mirror, 6) == pytest.approx(base, rel=1e-12)

    def test_monotone_in_the_exponent_off_axis(self):
        # strictly increasing until it saturates at the double-precision
        # limit value, never decreasing after that
        theta = 0.5
        values = [radial_factor(theta, 2**k) for k in range(12)]
        for a, b in zip(values[:4], values[1:5]):
            assert b > a
        for a, b in zip(values, values[1:]):
            assert b >= a
        assert values[-1] == pytest.approx(radial_factor_limit(theta), rel=1e-15)

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            radial_factor(0.5, 0)
        with pytest.raises(ValueError):
            radial_factor(0.5, -3)
        with pytest.raises(ValueError):
            radial_factor(0.5, MAX_EXPONENT + 1)
        with pytest.raises(TypeError):
            radial_factor(0.5, 1.5)
        with pytest.raises(TypeError):
            radial_factor(0.5, True)


class TestLimitFactor:
    def test_equals_reciprocal_max_coordinate(self):
        for k in range(100):
            theta = TWO_PI * k / 100.0
            m = max(abs(math.cos(theta)), abs(math.sin(theta)))
            assert radial_factor_limit(theta) == pytest.approx(1.0 / m, rel=1e-15)

    def test_range_and_diagonal(self):
        assert radial_factor_limit(0.0) == 1.0
        assert radial_factor_limit(math.pi / 4.0) == pytest.approx(math.sqrt(2.0), abs=1e-15)
        for k in range(64):
            v = radial_factor_limit(TWO_PI * k / 64.0)
            assert 1.0 <= v <= math.sqrt(2.0)

    def test_finite_factor_converges_to_it(self):
        for k in range(32):
            theta = TWO_PI * k / 32.0 + 0.01
            gap = abs(radial_factor(theta, MAX_EXPONENT) - radial_factor_limit(theta))
            assert gap <= 1e-9


class TestCurveAndSquarePoints:
    def test_cardinal_points(self):
        assert curve_point(0.0, 7) == (1.0, 0.0)
        x, y = curve_point(math.pi / 2.0, 1)
        assert (x, y) == (6.123233995736766e-17, 1.0)

    def test_point_radius_matches_factor(self):
        for n in (2, 50):
            for k in range(16):
                theta = TWO_PI * k / 16.0 + 0.05
                x, y = curve_point(theta, n)
                assert math.hypot(x, y) == pytest.approx(radial_factor(theta, n), rel=1e-15)

    def test_square_point_max_coordinate_is_exactly_one(self):
        for k in range(128):
            theta = TWO_PI * k / 128.0 + 0.003
            x, y = square_point(theta)
            assert max(abs(x), abs(y)) == 1.0

    def test_square_corners(self):
        # cos and sin of the rounded pi/4 differ by one ulp, so only the
        # dominant coordinate is exact
        x, y = square_point(math.pi / 4.0)
        assert max(abs(x), abs(y)) == 1.0
        assert (x, y) == pytest.approx((1.0, 1.0), abs=1e-15)
        x, y = square_point(math.pi / 4.0 + math.pi)
        assert max(abs(x), abs(y)) == 1.0
        assert (x, y) == pytest.approx((-1.0, -1.0), abs=1e-15)

    def test_square_point_is_the_limit_direction(self):
        for theta in (0.1, 0.9, 2.2, 4.0, 5.9):
            sx, sy = square_point(theta)
            lx = radial_factor_limit(theta) * math.cos(theta)
            ly = radial_factor_limit(theta) * math.sin(theta)
            assert (sx, sy) == pytest.approx((lx, ly), abs=1e-15)


class TestResidualLog:
    def test_on_curve_points_have_tiny_residual(self):
        for n in (1, 2, 10, 100):
            for k in range(64):
                theta = TWO_PI * k / 64.0
                assert abs(residual_log(curve_point(theta, n), n)) <= 1e-12

    def test_signs_classify_inside_and_outside(self):
        assert residual_log((0.5, 0.5), 1) == pytest.approx(-0.5, abs=1e-15)
        direct = 1.1**10 - 1.0
        assert residual_log((1.1, 0.0), 5) == pytest.approx(direct, rel=1e-12)

    def test_origin_and_overflow_extremes(self):
        assert residual_log((0.0, 0.0), 3) == -1.0
        assert residual_log((2.0, 2.0), 1000) == math.inf

    @pytest.mark.parametrize(
        "frame",
        [AffineFrame(1e10, 1e10, 0.0, 2.0, 1.0, 1.0), AffineFrame(1.0, 0.0, 0.0, 1e10, 1e10, 0.0)],
        ids=["u-nan", "v-nan"],
    )
    def test_a_nan_image_gives_a_nan_residual(self, frame):
        # inf - inf makes one mapped coordinate NaN; that must not read as on the curve.
        p = (1e300, -2e300)
        assert any(math.isnan(c) for c in forward_affine(p, frame))
        assert math.isnan(residual_log(p, 3, frame))
        # Two infinite mapped coordinates tie at +inf: the sum overflows, not NaN.
        for q in BOTH_OVERFLOW:
            assert all(math.isinf(c) for c in forward_affine(q, OVERFLOW_IMAGE))
            assert residual_log(q, 3, OVERFLOW_IMAGE) == math.inf
        # A finite tie is log1p(exp(0.0)) above its larger term.
        hi = 6.0 * math.log(0.5)
        assert _packed([residual_log((0.5, -0.5), 3)]) == _packed([math.expm1(hi + math.log1p(math.exp(0.0)))])

    @given(
        theta=moderate_angles,
        n=st.sampled_from([1, 2, 5, 40]),
        scale=st.floats(min_value=0.5, max_value=0.99),
    )
    def test_scaled_points_classify_correctly(self, theta, n, scale):
        x, y = curve_point(theta, n)
        assert residual_log((scale * x, scale * y), n) < 0.0
        grow = 2.0 - scale
        assert residual_log((grow * x, grow * y), n) > 0.0


class TestAffineFrame:
    def test_identity_defaults(self):
        assert IDENTITY.coefficients() == (1.0, 0.0, 0.0, 0.0, 1.0, 0.0)
        assert IDENTITY.det == 1.0

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            IDENTITY.alpha = 2.0

    def test_singular_frame_rejected_at_construction(self):
        with pytest.raises(SingularFrame, match="singular frame"):
            AffineFrame(1.0, 2.0, 0.0, 2.0, 4.0, 0.0)

    def test_the_stored_determinant_is_the_formula_bit_for_bit(self):
        # Computed once at construction; a frame made by dataclasses.replace computes its own.
        replaced = dataclasses.replace(GOLDEN_FRAMES[2], epsilon=3.0)
        frames = (*GOLDEN_FRAMES, *frame_family(2026, 200), replaced)
        for frame in frames:
            formula = frame.alpha * frame.epsilon - frame.beta * frame.delta
            assert struct.pack("<d", frame.det) == struct.pack("<d", formula)
        assert (GOLDEN_FRAMES[2].det, replaced.det) == (3.0, 6.0)
        assert inverse_affine(forward_affine((0.3, -0.2), replaced), replaced) == pytest.approx((0.3, -0.2), rel=1e-15)

    def test_small_but_clear_determinant_is_accepted(self):
        frame = AffineFrame(1.0, 0.0, 0.0, 0.0, 1e-9, 0.0)
        assert frame.det == 1e-9

    def test_small_well_conditioned_frame_is_accepted(self):
        frame = AffineFrame(1e-7, 0.0, 0.0, 0.0, 1e-7, 0.0)
        assert inverse_affine(forward_affine((0.3, -0.2), frame), frame) == pytest.approx((0.3, -0.2), rel=1e-15)

    @pytest.mark.parametrize(
        "coefficients, accepted",
        [
            ((1.0, 0.0, 0.0, 0.0, 1.0, 0.0), True),
            ((0.8, -0.6, 0.0, 0.6, 0.8, 0.0), True),
            ((2.0, 0.5, -1.0, 0.0, 1.5, 3.0), True),
            ((1.0, 0.3, 0.2, -0.4, 0.7, -0.5), True),
            ((1.0, 1.0, 0.0, 1.0, 1.0 + 5e-12, 0.0), True),  # condition number 8e11
            ((1.0, 1.0, 0.0, 1.0, 1.0 + 2e-12, 0.0), False),  # 2e12
            ((1e6, 0.0, 0.0, 0.0, 1e-6, 0.0), True),  # 1e12, the cut
            ((1e6, 0.0, 0.0, 0.0, 0.999e-6, 0.0), False),
            ((1.0, 2.0, 0.0, 2.0, 4.0, 0.0), False),
            ((0.0, 0.0, 1.0, 0.0, 0.0, 1.0), False),
            ((1.0, 0.0, 1e12 - 1.0, 0.0, 1.0, 0.0), True),  # k = 1 * (1 + 1e12 - 1), the cut
            ((1.0, 0.0, 1e12, 0.0, 1.0, 0.0), False),
            ((1.0, 0.0, 1e20, 0.0, 1.0, 0.0), False),
            ((1e6, 0.0, 0.0, 0.0, 1e-6, 1.0), False),  # 1e12 * 2
        ],
    )
    @pytest.mark.parametrize("power", [0, -40, 40])
    def test_guard_is_on_the_frame_factor_at_every_scale(self, coefficients, accepted, power):
        # Scaling the linear part leaves k alone. The translation is measured in
        # the mapped coordinates, where the curve has unit size, so it stays put.
        scaled = [c if i in (2, 5) else math.ldexp(c, power) for i, c in enumerate(coefficients)]
        if accepted:
            AffineFrame(*scaled)
        else:
            with pytest.raises(SingularFrame, match="singular frame: condition number"):
                AffineFrame(*scaled)

    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    def test_determinant_must_be_a_normal_double(self, scale):
        # Condition number 1, but alpha*epsilon underflows or overflows, so the
        # inverse map cannot be formed.
        with pytest.raises(SingularFrame, match="must be a normal double"):
            AffineFrame(scale, 0.0, 0.0, 0.0, scale, 0.0)

    @pytest.mark.parametrize(
        "coefficients, message",
        [
            # t = 5e299: (t - 1)(t + 1) overflows, the condition number 1e300 does not
            ((1.0, 0.0, 0.0, 0.0, 1e-300, 0.0),
             "condition number 1e+300 times 1 + |(gamma, zeta)| is 1e+300 (must be <= 1e+12)"),
            ((1e-160, 0.0, 0.0, 0.0, 1e-160, 0.0), "|det| = 9.99989e-321 (must be a normal double)"),
            ((1.0, 2.0, 0.0, 2.0, 4.0, 0.0),
             "condition number inf times 1 + |(gamma, zeta)| is inf (must be <= 1e+12),"
             " |det| = 0 (must be a normal double)"),
        ],
        ids=["condition", "det", "both"],
    )
    def test_message_names_the_clauses_that_failed(self, coefficients, message):
        with pytest.raises(SingularFrame) as caught:
            AffineFrame(*coefficients)
        assert str(caught.value) == "singular frame: " + message

    def test_nonfinite_coefficients_rejected(self):
        with pytest.raises(ValueError, match=r"^frame coefficient alpha must be finite, got nan$"):
            AffineFrame(math.nan, 0.0, 0.0, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError, match=r"^frame coefficient gamma must be finite, got inf$"):
            AffineFrame(1.0, 0.0, math.inf, 0.0, 1.0, 0.0)


class TestAffineMaps:
    def test_identity_maps_are_identity(self):
        p = (0.3, -1.7)
        assert forward_affine(p) == p
        assert inverse_affine(p) == p

    def test_known_frame_by_hand(self):
        # u = 2x + 3, v = 5y - 1
        frame = AffineFrame(2.0, 0.0, 3.0, 0.0, 5.0, -1.0)
        assert forward_affine((1.0, 2.0), frame) == (5.0, 9.0)
        assert inverse_affine((5.0, 9.0), frame) == (1.0, 2.0)

    def test_roundtrip_over_seeded_family(self):
        rng = random.Random(1234)
        worst = 0.0
        for _ in range(100):
            frame = random_frame(rng, -10.0, 10.0, 0.1)
            for _ in range(5):
                p = (rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0))
                q = forward_affine(inverse_affine(p, frame), frame)
                worst = max(worst, math.hypot(q[0] - p[0], q[1] - p[1]))
        assert worst <= 1e-12

    @given(
        coeffs=st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=6, max_size=6),
        px=st.floats(min_value=-10.0, max_value=10.0),
        py=st.floats(min_value=-10.0, max_value=10.0),
    )
    def test_roundtrip_property(self, coeffs, px, py):
        det = coeffs[0] * coeffs[4] - coeffs[1] * coeffs[3]
        if abs(det) < 0.5:
            return
        frame = AffineFrame(*coeffs)
        q = inverse_affine(forward_affine((px, py), frame), frame)
        assert q == pytest.approx((px, py), abs=1e-10)

    def test_affine_curve_point_identity_matches_plain(self):
        for n in (1, 4, 1000):
            for k in range(32):
                theta = TWO_PI * k / 32.0
                assert affine_curve_point(theta, n) == curve_point(theta, n)

    def test_pushforward_lands_on_canonical_curve(self):
        for frame in frame_family(777, 40, -3.0, 3.0, 0.5):
            for theta in (0.3, 2.0, 5.5):
                p = affine_curve_point(theta, 8, frame)
                u, v = forward_affine(p, frame)
                cx, cy = curve_point(theta, 8)
                assert math.hypot(u - cx, v - cy) <= 1e-12
                assert abs(residual_log(p, 8, frame)) <= 1e-9

    def test_limit_map_sends_square_onto_framed_limit(self):
        frame = AffineFrame(1.5, -0.25, 2.0, 0.5, 2.0, -1.0)
        for theta in (0.2, 1.0, 3.3):
            corner = limit_map(square_point(theta), frame)
            back = forward_affine(corner, frame)
            assert back == pytest.approx(square_point(theta), abs=1e-13)


class TestThetaOfPoint:
    def test_recovers_the_parameter(self):
        # compare on the circle: theta 0.0 may legitimately come back as
        # an angle just below one full turn
        for frame in frame_family(42, 20, -3.0, 3.0, 0.5):
            for theta in (0.0, 0.77, 2.9, 4.6):
                p = affine_curve_point(theta, 12, frame)
                back = theta_of_point(p, frame)
                wrapped = abs(back - theta)
                assert min(wrapped, TWO_PI - wrapped) <= 1e-12

    def test_wraps_into_one_period(self):
        p = curve_point(0.5, 3)
        assert theta_of_point(p) == pytest.approx(0.5, abs=1e-15)
        assert theta_of_point((p[0], -p[1])) == pytest.approx(TWO_PI - 0.5, abs=1e-12)

    def test_origin_is_rejected(self):
        with pytest.raises(OriginPoint):
            theta_of_point((0.0, 0.0))
        frame = AffineFrame(1.0, 0.0, -2.0, 0.0, 1.0, 1.0)
        with pytest.raises(OriginPoint):
            theta_of_point(inverse_affine((0.0, 0.0), frame), frame)


class TestVelocityAndSpeed:
    def test_circle_speed_is_exactly_unit(self):
        thetas = [TWO_PI * k / 64.0 for k in range(64)]
        for theta in thetas:
            assert curve_speed(theta, 1) == 1.0
            # The circle's own velocity, with no slope term: == leaves the sign of a zero free.
            for frame in SPEED_FRAMES:
                expected = core._solve_linear(frame, -math.sin(theta), math.cos(theta))
                assert curve_velocity(theta, 1, frame) == expected, (theta, frame)
        assert core._speeds(thetas, 1, IDENTITY) == [1.0] * 64

    def test_matches_central_differences(self):
        rng = random.Random(20250819)
        h = 1e-6
        worst = 0.0
        for _ in range(64):
            theta = rng.uniform(0.0, TWO_PI)
            n = rng.randint(1, 50)
            vx, vy = curve_velocity(theta, n)
            ax, ay = affine_curve_point(theta + h, n)
            bx, by = affine_curve_point(theta - h, n)
            fx, fy = (ax - bx) / (2.0 * h), (ay - by) / (2.0 * h)
            worst = max(worst, math.hypot(vx - fx, vy - fy) / math.hypot(vx, vy))
        assert worst <= 1e-6

    def test_speed_is_velocity_magnitude(self):
        frame = AffineFrame(2.0, 1.0, 0.0, -1.0, 3.0, 2.0)
        for n in (1, 6, 300):
            for theta in (0.1, 0.8, 2.4, 5.1):
                vx, vy = curve_velocity(theta, n, frame)
                assert curve_speed(theta, n, frame) == pytest.approx(
                    math.hypot(vx, vy), rel=1e-14
                )

    def test_framed_velocity_from_fd(self):
        frame = AffineFrame(1.2, 0.3, -4.0, -0.5, 2.1, 0.7)
        h = 1e-6
        for theta in (0.4, 1.9, 3.7):
            vx, vy = curve_velocity(theta, 9, frame)
            ax, ay = affine_curve_point(theta + h, 9, frame)
            bx, by = affine_curve_point(theta - h, 9, frame)
            assert vx == pytest.approx((ax - bx) / (2.0 * h), rel=1e-6, abs=1e-9)
            assert vy == pytest.approx((ay - by) / (2.0 * h), rel=1e-6, abs=1e-9)

    def test_speed_positive_everywhere(self):
        for n in (1, 2, 1000, MAX_EXPONENT):
            for k in range(32):
                assert curve_speed(TWO_PI * k / 32.0, n) > 0.0

    def test_velocity_checks_the_angle_then_the_exponent_then_the_frame(self):
        with pytest.raises(InvalidAngle):
            curve_velocity(math.nan, 0, None)
        with pytest.raises(ValueError, match=re.escape(f"exponent must be in [1, {MAX_EXPONENT}], got 0")):
            curve_velocity(0.3, 0, None)
        with pytest.raises(TypeError) as caught:
            curve_velocity(0.3, 3, None)
        assert str(caught.value) == "frame must be an AffineFrame, got NoneType"


def _log_uniform_exponent(rng: random.Random, low: float = 1.0) -> int:
    return min(MAX_EXPONENT, max(1, round(math.exp(rng.uniform(math.log(low), math.log(MAX_EXPONENT))))))


def _angle_at(rng: random.Random, r: float) -> float:
    """An angle in a random octant whose min/max of |cos| and |sin| is about r."""
    phi = math.atan(r)
    return rng.randrange(4) * (math.pi / 2.0) + rng.choice((phi, -phi, math.pi / 2.0 - phi))


def _kernel_cases() -> dict[str, list[tuple[float, int]]]:
    rng = random.Random(20261019)
    band = []  # 2N*log(r), then (2N-2)*log(r), across the threshold where exp underflows to 0.0
    for _ in range(3000):
        n = _log_uniform_exponent(rng)
        band.append((_angle_at(rng, math.exp(rng.uniform(-747.0, -744.0) / (2.0 * n))), n))
        n = _log_uniform_exponent(rng, 2.0)
        band.append((_angle_at(rng, math.exp(rng.uniform(-747.0, -744.0) / (2.0 * n - 2.0))), n))
    special = [
        (theta, n)
        for n in (1, 2, 3, 4, 10, 1000, 10**6, MAX_EXPONENT)
        for k in range(-8, 17)
        for theta in ulps_around(k * math.pi / 4.0, 4)
    ]
    near_peak = [  # rho about 2**((N-1)/(2N)), on both sides of the clamp's 1.189 test
        (k * math.pi / 2.0 + math.pi / 4.0 + rng.choice((-1.0, 1.0)) * math.exp(rng.uniform(-40.0, -1.0)), n)
        for n in (1, 2, 3)
        for k in range(-2, 4)
        for _ in range(200)
    ]
    spread = [(rng.uniform(-10.0, 10.0), _log_uniform_exponent(rng)) for _ in range(3000)]
    return {"band": band, "axes and diagonals": special, "near the peak": near_peak, "log-spaced N": spread}


KERNEL_CASES = _kernel_cases()
SPEED_FRAMES = (
    *GOLDEN_FRAMES,
    AffineFrame(1.0, 1.0, 0.0, 1.0, 1.0 + 5e-12, 0.0),  # condition number 8e11
    AffineFrame(1.0, 0.0, 0.0, 0.0, 1e11, 0.0),
)
SPEED_FRAME_IDS = ("identity", "rotation", "readme", "general", "near-singular", "1e11")


class TestKernelSkipsOnlyKnownDoubles:
    """The scalar kernel, curve_velocity's slope and the batched _speeds skip
    the terms whose doubles are known without computing them; the loops that
    compute every term give the same doubles, sign of zero included."""

    @pytest.mark.parametrize("kind", KERNEL_CASES)
    def test_the_kernel_matches_the_full_expressions(self, kind):
        # Each skip shows in a public double: those of r^(2N) and the clamp's in
        # the radial factor and the points, the slope's in the velocity.
        for theta, n in KERNEL_CASES[kind]:
            rho, c, s, m, log_r, log1p_power = reference_evaluate(theta, n)
            slope = reference_slope(n, c, s, m, log_r, log1p_power)
            got = [radial_factor(theta, n), *curve_point(theta, n)]
            expected = [rho, rho * c, rho * s]
            for frame in SPEED_FRAMES:
                got.extend(curve_velocity(theta, n, frame))
                expected.extend(core._solve_linear(frame, slope * c - rho * s, slope * s + rho * c))
            assert struct.pack(f"<{len(got)}d", *got) == struct.pack(f"<{len(expected)}d", *expected), (theta, n)

    @pytest.mark.parametrize("frame", SPEED_FRAMES, ids=SPEED_FRAME_IDS)
    @pytest.mark.parametrize("kind", KERNEL_CASES)
    def test_the_batched_speeds_match_the_full_expressions(self, kind, frame):
        # _speeds holds its own copy of the radial factor, the slope and the
        # frame's inverse; one batch per exponent, as the quadrature calls it.
        batches = {}
        for theta, n in KERNEL_CASES[kind]:
            batches.setdefault(n, []).append(theta)
        identity = (frame.alpha, frame.beta, frame.delta, frame.epsilon) == (1.0, 0.0, 0.0, 1.0)
        for n, thetas in batches.items():
            for theta, got in zip(thetas, core._speeds(thetas, n, frame), strict=True):
                rho, c, s, m, log_r, log1p_power = reference_evaluate(theta, n)
                slope = reference_slope(n, c, s, m, log_r, log1p_power)
                if identity:
                    expected = math.hypot(rho, slope)
                else:
                    expected = math.hypot(*core._solve_linear(frame, slope * c - rho * s, slope * s + rho * c))
                assert struct.pack("<d", got) == struct.pack("<d", expected), (theta, n)

    def test_the_cases_reach_both_sides_of_every_skip(self):
        log_powers, low_logs, peaks = [], [], []
        for theta, n in KERNEL_CASES["band"]:
            log_r = reference_evaluate(theta, n)[4]
            log_powers.append(2.0 * n * log_r)
            low_logs.append((2.0 * n - 2.0) * log_r)
        for theta, n in KERNEL_CASES["near the peak"]:
            rho = reference_evaluate(theta, n)[0]
            peaks.append((n, rho > 1.189, rho == 2.0 ** ((n - 1) / (2.0 * n))))
        for values in (log_powers, low_logs):
            assert sum(v < -746.0 for v in values) > 500 and sum(v >= -746.0 for v in values) > 500
        assert {(n, above) for n, above, _ in peaks} >= {(1, False), (2, False), (2, True), (3, True)}
        assert all(any(at_peak for k, _, at_peak in peaks if k == n) for n in (1, 2, 3))


POINT_FRAMES = (
    *SPEED_FRAMES,
    AffineFrame(1.0, 0.0, -0.0, 0.0, 1.0, 0.0),
    AffineFrame(1.0, 0.0, 0.0, 0.0, -1.0, 0.0),
)
POINT_FRAME_IDS = (*SPEED_FRAME_IDS, "-0 shift", "reflection")
NAN_IMAGE = AffineFrame(1e10, 1e10, 0.0, 2.0, 1.0, 1.0)  # (1e300, -2e300) maps to (nan, ...)
OVERFLOW_IMAGE = AffineFrame(1e100, 0.0, 0.0, 0.0, 1e100, 0.0)  # condition number 1
BOTH_OVERFLOW = ((1e300, 1e300), (-1e300, 1e300))  # both map to infinities in OVERFLOW_IMAGE


def _packed(values) -> bytes:
    values = list(values)
    return struct.pack(f"<{len(values)}d", *values)


def _expm1_or_inf(log_sum: float) -> float:
    """residual_log's value for a log-sum: expm1, or +inf where it overflows."""
    try:
        return math.expm1(log_sum)
    except OverflowError:
        return math.inf


class TestBatchedLoopsMatchTheScalarOnes:
    """core._points, the body of every closed-form curve, and core._log_sums,
    the body of the membership test and the residual command, give the
    scalar functions' doubles, sign of zero included."""

    @pytest.mark.parametrize("frame", POINT_FRAMES, ids=POINT_FRAME_IDS)
    @pytest.mark.parametrize("kind", KERNEL_CASES)
    def test_the_batched_points_match_affine_curve_point(self, kind, frame):
        batches = {}
        for theta, n in KERNEL_CASES[kind]:
            batches.setdefault(n, []).append(theta)
        for n, thetas in batches.items():
            got = [c for p in core._points(thetas, n, frame) for c in p]
            expected = [c for theta in thetas for c in affine_curve_point(theta, n, frame)]
            assert _packed(got) == _packed(expected), n

    @pytest.mark.parametrize("frame", POINT_FRAMES, ids=POINT_FRAME_IDS)
    def test_uniform_turns_match_affine_curve_point(self, frame):
        for n in EXPONENT_GRID:
            curve = sample_uniform_theta(n, frame, 512)
            expected = [c for theta in curve.thetas for c in affine_curve_point(theta, n, frame)]
            assert _packed(c for p in curve.points for c in p) == _packed(expected), n

    def test_the_cases_reach_signed_zeros(self):
        # theta = 0 puts a zero coordinate into every frame's points, of either sign
        zeros = {
            math.copysign(1.0, c)
            for frame in POINT_FRAMES
            for p in core._points([0.0, math.pi / 2.0, math.pi], 3, frame)
            for c in p
            if c == 0.0
        }
        assert zeros == {1.0, -1.0}

    @pytest.mark.parametrize("frame", POINT_FRAMES + (NAN_IMAGE,), ids=POINT_FRAME_IDS + ("nan image",))
    def test_the_batched_log_sums_match_log_sum(self, frame):
        thetas = [theta for theta, _ in KERNEL_CASES["axes and diagonals"]][::7]
        for n in EXPONENT_GRID:
            points = list(core._points(thetas, n, frame))
            points += [(0.5 * x, 0.5 * y) for x, y in points[::5]] + [(2.0 * x, 2.0 * y) for x, y in points[::5]]
            points += [(0.0, 0.0), (-0.0, 0.0), (1e300, -2e300), inverse_affine((0.0, 0.0), frame)]
            expected = [reference_log_sum(p, n, frame) for p in points]
            assert _packed(core._log_sums(points, n, frame)) == _packed(expected), n
            residuals = [residual_log(p, n, frame) for p in points]
            assert _packed(residuals) == _packed(_expm1_or_inf(s) for s in expected), n

    def test_the_log_sums_reach_the_origin_a_nan_image_and_an_overflow(self):
        assert core._log_sums([(0.0, 0.0)], 3, IDENTITY) == [-math.inf]
        assert math.isnan(core._log_sums([(1e300, -2e300)], 3, NAN_IMAGE)[0])
        assert core._log_sums([(2.0, 2.0)], 1000, IDENTITY)[0] > 709.8  # expm1 overflows
        assert core._log_sums(BOTH_OVERFLOW, 3, OVERFLOW_IMAGE) == [math.inf, math.inf]
        hi = 6.0 * math.log(0.5)
        assert _packed(core._log_sums([(0.5, -0.5)], 3, IDENTITY)) == _packed([hi + math.log1p(math.exp(0.0))])

    @pytest.mark.parametrize(
        "extra, frame",
        [((0.0, 0.0), IDENTITY), ((1e300, -2e300), NAN_IMAGE), ((2.0, 2.0), IDENTITY)],
        ids=["origin", "nan image", "overflow"],
    )
    @pytest.mark.parametrize("at", [0, 37, 64])
    def test_the_residual_line_is_the_largest_scalar_residual(self, monkeypatch, capsys, extra, frame, at):
        # The residual command folds max(worst, |expm1|) over the batched log
        # sums; a vertex put into its grid shows it reads each special value
        # as residual_log does: -1 at the origin, NaN skipped, +inf on overflow.
        points = core._points

        def with_extra(thetas, n, frame):
            grid = points(thetas, n, frame)
            return (*grid[:at], extra, *grid[at:])

        monkeypatch.setattr(core, "_points", with_extra)
        frame_text = ",".join(repr(c) for c in frame.coefficients())
        assert cli.run(["residual", "--n", "1000", "--count", "64", "--frame", frame_text]) == 0
        grid = with_extra(_uniform_thetas(64), 1000, frame)
        worst = 0.0
        for p in grid:
            worst = max(worst, abs(residual_log(p, 1000, frame)))
        assert capsys.readouterr().out == cli.fmt(worst) + "\n"
        if extra == (1e300, -2e300):
            assert 0.0 < worst < 1.0  # the NaN is skipped, as max skips it
        else:
            assert worst == {(0.0, 0.0): 1.0, (2.0, 2.0): math.inf}[extra]


class _Three(IntEnum):
    THREE = 3


# Each value stands for 3; whether the exponent check (numbers.Integral) and
# the real-number check (numbers.Real) accept it. The exact int and float
# fast paths must leave every verdict as the ABC rule alone gives it.
CHECKED_INPUTS = [
    pytest.param(3, True, True, id="int"),
    pytest.param(_Three.THREE, True, True, id="IntEnum"),
    pytest.param(np.int64(3), True, True, id="numpy.int64"),
    pytest.param(True, False, False, id="bool"),
    pytest.param(3.0, False, True, id="float"),
    pytest.param(np.float64(3.0), False, True, id="numpy.float64"),
    pytest.param(Fraction(3), False, True, id="Fraction"),
    pytest.param(Decimal(3), False, False, id="Decimal"),
    pytest.param("3", False, False, id="str"),
    pytest.param(b"3", False, False, id="bytes"),
    pytest.param(None, False, False, id="None"),
]


# Every public entry that takes a point, each with the point as its only varying argument.
POINT_CALLS = {
    "residual_log": lambda p: residual_log(p, 7),
    "theta_of_point": theta_of_point,
    "forward_affine": lambda p: forward_affine(p, AffineFrame(2.0, 0.5, -1.0, 0.0, 1.5, 3.0)),
    "inverse_affine": lambda p: inverse_affine(p, AffineFrame(2.0, 0.5, -1.0, 0.0, 1.5, 3.0)),
    "polyline_hausdorff": lambda p: polyline_hausdorff([p, (0.0, 1.0), (1.0, 1.0)], [(0.0, 0.0), (1.0, 0.0)]),
}


@pytest.mark.parametrize("value, integer, real", CHECKED_INPUTS)
class TestInputChecks:
    def test_exponent(self, value, integer, real):
        if integer:
            assert radial_factor(0.3, value) == radial_factor(0.3, 3)
        else:
            with pytest.raises(TypeError, match="exponent must be an integer"):
                radial_factor(0.3, value)

    def test_tolerance(self, value, integer, real):
        if real:
            assert arc_length(2, tol=value) == arc_length(2, tol=3.0)
        else:
            with pytest.raises(TypeError, match="tol must be a real number"):
                arc_length(2, tol=value)

    def test_frame_coefficient(self, value, integer, real):
        if real:
            frame = AffineFrame(alpha=value)
            assert frame == AffineFrame(alpha=3.0)
            assert type(frame.alpha) is float
        else:
            with pytest.raises(TypeError, match="frame coefficient alpha must be a real number"):
                AffineFrame(alpha=value)

    def test_angle(self, value, integer, real):
        if real:
            assert radial_factor(value, 7) == radial_factor(3.0, 7)
        else:
            with pytest.raises(InvalidAngle, match=re.escape(f"got {value!r}")):
                radial_factor(value, 7)

    def test_point_coordinate(self, value, integer, real):
        for call in POINT_CALLS.values():
            if real:
                assert call((value, 0.5)) == call((3.0, 0.5))
                assert call((0.5, value)) == call((0.5, 3.0))
            else:
                for point in ((value, 0.5), (0.5, value)):
                    with pytest.raises(TypeError, match="point coordinate must be a real number"):
                        call(point)

    def test_implicit_solve_y(self, value, integer, real):
        if real:
            with pytest.raises(OutOfRange, match="exceeds 1"):
                implicit_solve_x(value, 3)
        else:
            with pytest.raises(TypeError, match="y must be a real number"):
                implicit_solve_x(value, 3)

    def test_sampled_curve_theta(self, value, integer, real):
        points = tuple(curve_point(t, 7) for t in (0.0, 1.0, 3.0))
        if real:
            curve = SampledCurve((0.0, 1.0, value), points, False, 7, IDENTITY)
            assert curve == SampledCurve((0.0, 1.0, 3.0), points, False, 7, IDENTITY)
            assert type(curve.thetas[2]) is float
        else:
            with pytest.raises(TypeError, match="theta must be a real number"):
                SampledCurve((0.0, 1.0, value), points, False, 7, IDENTITY)


@pytest.mark.parametrize("call", [name for name in POINT_CALLS if name != "polyline_hausdorff"] + ["SampledCurve"])
@pytest.mark.parametrize("point", [(1.0, 2.0, 3.0), (1.0,), 5, None], ids=["3-tuple", "1-tuple", "int", "None"])
def test_a_point_that_is_not_a_pair_is_a_type_error(call, point):
    # The message names the type only, never the value.
    calls = {**POINT_CALLS, "SampledCurve": lambda p: SampledCurve((0.0, 1.0, 2.0), (p,) * 3, True, 3, IDENTITY)}
    message = f"point must be an (x, y) pair of real numbers, got {type(point).__name__}"
    with pytest.raises(TypeError) as caught:
        calls[call](point)
    assert str(caught.value) == message


# Entries whose real-number check meets a value too large for a double.
BEYOND_DOUBLE_CALLS = {
    "radial_factor": lambda v: radial_factor(v, 3),
    "normalize_angle": normalize_angle,
    "AffineFrame": AffineFrame,
    "residual_log": lambda v: residual_log((v, 0.0), 3),
    "forward_affine": lambda v: forward_affine((0.0, v)),
    "implicit_solve_x": lambda v: implicit_solve_x(v, 3),
    "SampledCurve": lambda v: SampledCurve((0.0, 1.0, 2.0), ((v, 0.0),) * 3, True, 3, IDENTITY),
}


@pytest.mark.parametrize("call", ["residual_log", "forward_affine", "SampledCurve"])
def test_a_non_finite_point_is_quoted_as_checked_not_as_given(call):
    # The int 10**400 has 401 digits; the message quotes the infinity it counts as.
    point = (10**400, 0)
    calls = {
        "residual_log": lambda: residual_log(point, 3),
        "forward_affine": lambda: forward_affine(point),
        "SampledCurve": lambda: SampledCurve((0.0, 1.0, 2.0), (point,) * 3, True, 3, IDENTITY),
    }
    with pytest.raises(ValueError, match=r"^point coordinates must be finite, got \(inf, 0\.0\)$"):
        calls[call]()


@pytest.mark.parametrize("call", BEYOND_DOUBLE_CALLS)
@pytest.mark.parametrize("huge", [10**400, -(10**400), Fraction(10**400, 3), Fraction(-(10**400), 3)],
                         ids=["int", "negative-int", "Fraction", "negative-Fraction"])
def test_a_real_beyond_the_double_range_is_rejected_as_an_infinity(call, huge):
    with pytest.raises(ValueError) as infinity:
        BEYOND_DOUBLE_CALLS[call](math.inf if huge > 0 else -math.inf)
    with pytest.raises(ValueError) as beyond:
        BEYOND_DOUBLE_CALLS[call](huge)
    assert beyond.type is infinity.type
