"""Brute-force reference solvers, validated before anything that leans on them.

Every expected value in this file is hand-derivable from the defining
equation x^(2N) + y^(2N) = 1 alone: the N=1 circle has unit radius, the
axis crossings sit at distance 1 for every N, and on the diagonal the
equation collapses to 2 * (t / sqrt(2))^(2N) = 1. The closed-form radial
factor is deliberately not used here.
"""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fermatcurves import (
    IDENTITY,
    TWO_PI,
    AffineFrame,
    OutOfRange,
    bisect_radial_factor,
    implicit_solve_x,
    inverse_affine,
    oracle,
    oracle_polyline,
    residual_log,
)
from helpers import reference_bisect, ulps_around
from test_golden import FRAMES as GOLDEN_FRAMES

_MAX_N = 2**31 - 1


class _CountingMath:
    """Stands in for the math module and counts evaluations of the equation,
    one log1p call each."""

    def __init__(self):
        self.evaluations = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def log1p(self, x):
        self.evaluations += 1
        return math.log1p(x)


class TestBisectRadialFactor:
    def test_circle_has_unit_radius_everywhere(self):
        for k in range(64):
            theta = TWO_PI * k / 64.0
            assert bisect_radial_factor(theta, 1) == pytest.approx(1.0, abs=1e-13)

    def test_axis_crossings_are_one_for_every_exponent(self):
        for n in (1, 2, 3, 10, 100, 10**6):
            for theta in (0.0, math.pi / 2.0, math.pi, 1.5 * math.pi):
                assert bisect_radial_factor(theta, n) == pytest.approx(1.0, abs=1e-13)

    def test_diagonal_matches_hand_solution(self):
        # 2 * (t / sqrt(2))^(2N) = 1  =>  t = sqrt(2) * 2^(-1/(2N))
        for n in (1, 2, 3, 7, 50):
            expected = math.sqrt(2.0) * 2.0 ** (-1.0 / (2.0 * n))
            got = bisect_radial_factor(math.pi / 4.0, n)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_solutions_satisfy_the_equation(self):
        # residual_log checks membership straight from the defining equation
        for n in (1, 2, 5, 100):
            for k in range(16):
                theta = TWO_PI * k / 16.0 + 0.013
                t = bisect_radial_factor(theta, n)
                point = (t * math.cos(theta), t * math.sin(theta))
                assert abs(residual_log(point, n)) <= 1e-12

    def test_eightfold_symmetry(self):
        for n in (2, 9):
            for theta in (0.2, 0.6, 1.1):
                base = bisect_radial_factor(theta, n)
                for mirror in (
                    math.pi / 2.0 - theta,
                    math.pi - theta,
                    math.pi + theta,
                    -theta,
                ):
                    assert bisect_radial_factor(mirror, n) == pytest.approx(
                        base, rel=1e-13, abs=1e-13
                    )

    def test_radius_grows_from_axis_to_diagonal(self):
        steps = 12
        values = [
            bisect_radial_factor(math.pi / 4.0 * k / steps, 4) for k in range(steps + 1)
        ]
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-13

    def test_extreme_exponent_stays_bracketed(self):
        t = bisect_radial_factor(0.7, 2**31 - 1)
        assert math.isfinite(t)
        assert 1.0 - 1e-12 <= t <= math.sqrt(2.0) + 1e-12

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            bisect_radial_factor(math.nan, 3)
        with pytest.raises(ValueError):
            bisect_radial_factor(0.5, 0)
        with pytest.raises(TypeError):
            bisect_radial_factor(0.5, 2.5)


def _identity_cases():
    """About 53,000 (theta, N): 14 exponents, log-spaced over the whole range,
    on the grids of counts 300, 1000 and 2048 (the power-of-two grids from 256
    up nest in the 2048 one); 40 on the axes and the diagonals, each with the
    3 doubles either side (so 5e-324 too); and 5,000 seeded random pairs, N
    log-uniform."""
    grid = sorted({TWO_PI * k / count for count in (300, 1000, 2048) for k in range(count)})
    special = [t for k in range(8) for t in ulps_around(k * math.pi / 4.0, 3)]
    for exponents, thetas in ((14, grid), (40, special)):
        for j in range(exponents):
            n = round(_MAX_N ** (j / (exponents - 1)))
            for theta in thetas:
                yield theta, n
    rng = random.Random(19)
    for _ in range(5000):
        yield rng.uniform(0.0, TWO_PI), round(_MAX_N ** rng.random())


class TestBisectionSkipsOnlyCertainMidpoints:
    """The oracle evaluates the equation at its first midpoint, then only at
    midpoints within a relative 2^-48 of the root that value places, and
    still returns plain bisection's double."""

    def test_matches_plain_bisection(self):
        for theta, n in _identity_cases():
            assert bisect_radial_factor(theta, n) == reference_bisect(theta, n)[0], (theta, n)

    def test_matches_plain_bisection_of_its_own_bracket(self):
        # the proven claim: the same double as halving [1, 3/2] throughout
        for theta, n in _identity_cases():
            assert bisect_radial_factor(theta, n) == reference_bisect(theta, n, 1.5)[0], (theta, n)

    def test_at_most_eight_evaluations_per_case(self, monkeypatch):
        counting = _CountingMath()
        monkeypatch.setattr(oracle, "math", counting)
        for theta, n in _identity_cases():
            counting.evaluations = 0
            bisect_radial_factor(theta, n)
            assert counting.evaluations <= 8, (theta, n)

    def test_starts_at_the_band_integer_with_the_most_trailing_zeros(self):
        # the band's integers, in steps of 2^-52 above 1, are 1 to 2^51 - 1
        rng = random.Random(24)
        ranges = [(first, last) for first in range(1, 300) for last in range(first, first + 70)]
        ranges += [(first, first + rng.randrange(70)) for first in rng.sample(range(1, 2**51 - 70), 2000)]
        for first, last in ranges:
            want = max(range(first, last + 1), key=lambda k: (k & -k).bit_length())
            assert oracle._most_trailing_zeros(first, last) == want, (first, last)

    @pytest.mark.parametrize("n, evaluations", [(1, 5), (100, 8), (_MAX_N, 8)])
    def test_evaluations_are_pinned(self, monkeypatch, n, evaluations):
        counting = _CountingMath()
        monkeypatch.setattr(oracle, "math", counting)
        bisect_radial_factor(0.7, n)
        assert counting.evaluations == evaluations
        assert evaluations <= reference_bisect(0.7, n)[1]

    def test_a_polyline_evaluates_as_its_vertices_do(self, monkeypatch):
        # one body for both: a polyline reads oracle.math when it is called,
        # so the counter sees every evaluation, as it does for one angle
        counting = _CountingMath()
        monkeypatch.setattr(oracle, "math", counting)
        curve = oracle_polyline(100, IDENTITY, 256)
        polyline = counting.evaluations
        counting.evaluations = 0
        for theta in curve.thetas:
            bisect_radial_factor(theta, 100)
        assert polyline == counting.evaluations > 0

    @pytest.mark.parametrize("n", [1, 7, 10**4, 10**6, _MAX_N])
    def test_polyline_vertices_match_plain_bisection(self, n):
        cases = [(frame, 256) for frame in GOLDEN_FRAMES]
        if n >= 10**6:  # oracle-diff's count, in the README frame 2,0.5,-1,0,1.5,3
            cases.append((GOLDEN_FRAMES[2], 1024))
        for frame, count in cases:
            curve = oracle_polyline(n, frame, count)
            want = []
            for t in curve.thetas:
                radius = reference_bisect(t, n)[0]
                want.append(inverse_affine((radius * math.cos(t), radius * math.sin(t)), frame))
            assert curve.points == tuple(want)


class TestImplicitSolveX:
    def test_edges(self):
        assert implicit_solve_x(1.0, 5) == 0.0
        assert implicit_solve_x(-1.0, 5) == 0.0
        assert implicit_solve_x(0.0, 5) == 1.0

    def test_solution_satisfies_the_equation(self):
        for n in (1, 2, 4, 30):
            for y in (-0.97, -0.5, 0.1, 0.33, 0.8):
                x = implicit_solve_x(y, n)
                assert abs(residual_log((x, y), n)) <= 1e-12

    def test_even_in_y(self):
        for y in (0.25, 0.6, 0.93):
            assert implicit_solve_x(y, 3) == implicit_solve_x(-y, 3)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            implicit_solve_x(1.0000001, 2)
        with pytest.raises(OutOfRange):
            implicit_solve_x(-2.0, 2)
        with pytest.raises(OutOfRange):
            implicit_solve_x(math.inf, 2)

    @given(
        y=st.floats(min_value=-1.0, max_value=1.0),
        n=st.sampled_from([1, 2, 3, 5, 8, 13, 60, 400]),
    )
    def test_result_is_a_valid_coordinate(self, y, n):
        x = implicit_solve_x(y, n)
        assert 0.0 <= x <= 1.0
        assert abs(residual_log((x, y), n)) <= 1e-11


class TestCrossChecks:
    def test_bisection_against_implicit_solver(self):
        # Two independent routes to the same curve point. Angles stay below
        # pi/4 because recovering x from y amplifies the bisection error by
        # (y/x)^(2N-1), which blows up toward the pole at theta = pi/2.
        for n in (1, 3, 10):
            for theta in (0.15, 0.5, 0.75):
                t = bisect_radial_factor(theta, n)
                x, y = t * math.cos(theta), t * math.sin(theta)
                assert implicit_solve_x(y, n) == pytest.approx(abs(x), abs=1e-11)


class TestOraclePolyline:
    def test_structure_matches_request(self):
        curve = oracle_polyline(3, count=32)
        assert len(curve) == 32
        assert curve.closed
        assert curve.exponent == 3
        assert curve.thetas == tuple(TWO_PI * k / 32.0 for k in range(32))

    def test_circle_vertices_have_unit_radius(self):
        curve = oracle_polyline(1, count=48)
        for x, y in curve.points:
            assert math.hypot(x, y) == pytest.approx(1.0, abs=1e-13)

    def test_framed_vertices_satisfy_the_framed_equation(self):
        frame = AffineFrame(2.0, 0.5, -1.0, 0.0, 1.5, 3.0)
        curve = oracle_polyline(4, frame, count=24)
        assert curve.frame is frame
        for p in curve.points:
            assert abs(residual_log(p, 4, frame)) <= 1e-12

    def test_large_exponent_constructs(self):
        curve = oracle_polyline(10**4, count=16)
        assert len(curve) == 16
