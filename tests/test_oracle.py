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
    """Stands in for the math module and counts the midpoints the bisection
    loop evaluates, one log call in (1, 3/2) each, in either regime: the
    live one's log1p and the dead one's comparison both follow that log. The
    live regime's first midpoint, 1.25, reads a log taken at import and is
    not counted."""

    def __init__(self):
        self.evaluations = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def log(self, x):
        if 1.0 < x < 1.5:
            self.evaluations += 1
        return math.log(x)


def _log_ratio(theta, n):
    """2N*log(min/max) of |cos| and |sin|, as the oracle computes it: it takes
    the dead regime below oracle._DEAD."""
    c, s = math.fabs(math.cos(theta)), math.fabs(math.sin(theta))
    log_c = math.log(c) if c > 0.0 else -math.inf
    log_s = math.log(s) if s > 0.0 else -math.inf
    return 2.0 * n * (min(log_c, log_s) - max(log_c, log_s))


def _edge_cases():
    """1,600 seeded (theta, N) whose 2N*log(min/max) lies in [-800, -700],
    about the dead regime's threshold: at each of eight exponents from 1 to
    2^31 - 1, 100 drawn over that range and 100 over [-746, -745], where
    exp turns from 0.0 to the least subnormal at -745.13; in every octant
    where the angle can hold the offset (at small N only beside theta = 0)."""
    rng = random.Random(39)
    for n in (1, 2, 7, 100, 10**4, 10**6, 10**8, _MAX_N):
        for lo, hi in ((-800.0, -700.0), (-746.0, -745.0)):
            found = 0
            while found < 100:
                phi = math.atan(math.exp(rng.uniform(lo, hi) / (2.0 * n)))
                k = rng.randrange(-4, 4)
                theta = k * math.pi / 2.0 + phi if rng.random() < 0.5 else (k + 1) * math.pi / 2.0 - phi
                if lo <= _log_ratio(theta, n) <= hi:
                    found += 1
                    yield theta, n


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
    """The oracle evaluates the equation only at midpoints near the root:
    within a relative 2^-48 of the place its first midpoint's value gives
    it, or, where the small term underflows, within 2^-50 of the square's
    radius. It still returns plain bisection's double."""

    def test_matches_plain_bisection(self):
        for theta, n in _identity_cases():
            assert bisect_radial_factor(theta, n) == reference_bisect(theta, n)[0], (theta, n)

    def test_matches_plain_bisection_of_its_own_bracket(self):
        # the proven claim: the same double as halving [1, 3/2] throughout
        for theta, n in _identity_cases():
            assert bisect_radial_factor(theta, n) == reference_bisect(theta, n, 1.5)[0], (theta, n)

    def test_at_most_eight_evaluations_per_case(self, monkeypatch):
        # the live regime's 7 in the loop and its first midpoint make 8; the
        # dead regime evaluates no first midpoint and at most 5 in the loop
        counting = _CountingMath()
        monkeypatch.setattr(oracle, "math", counting)
        for theta, n in _identity_cases():
            counting.evaluations = 0
            bisect_radial_factor(theta, n)
            dead = _log_ratio(theta, n) < oracle._DEAD
            assert counting.evaluations <= (5 if dead else 7), (theta, n)

    def test_the_dead_regime_threshold_edge_matches_plain_bisection(self):
        cases = list(_edge_cases())
        dead = sum(_log_ratio(theta, n) < oracle._DEAD for theta, n in cases)
        assert 0 < dead < len(cases)
        for theta, n in cases:
            got = bisect_radial_factor(theta, n)
            assert got == reference_bisect(theta, n, 1.5)[0], (theta, n)
            assert got == reference_bisect(theta, n)[0], (theta, n)

    def test_starts_at_the_band_integer_with_the_most_trailing_zeros(self):
        # the band's integers, in steps of 2^-52 above 1, are 1 to 2^51 - 1
        rng = random.Random(24)
        ranges = [(first, last) for first in range(1, 300) for last in range(first, first + 70)]
        ranges += [(first, first + rng.randrange(70)) for first in rng.sample(range(1, 2**51 - 70), 2000)]
        for first, last in ranges:
            want = max(range(first, last + 1), key=lambda k: (k & -k).bit_length())
            assert oracle._most_trailing_zeros(first, last) == want, (first, last)

    # N = 1 and 100 are live: the loop's evaluations, one fewer than the 5
    # and 8 counted with the first midpoint. At 2^31 - 1, theta 0.7 is dead:
    # no first midpoint, and 4 in the band from 1/cos(0.7) where the band
    # that midpoint placed took 7.
    @pytest.mark.parametrize("n, evaluations", [(1, 4), (100, 7), (_MAX_N, 4)])
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
        for n in (100, 10**6):  # mostly live, mostly dead
            counting.evaluations = 0
            curve = oracle_polyline(n, IDENTITY, 256)
            polyline = counting.evaluations
            counting.evaluations = 0
            for theta in curve.thetas:
                bisect_radial_factor(theta, n)
            assert polyline == counting.evaluations > 0, n

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
