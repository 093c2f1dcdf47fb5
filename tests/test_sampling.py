"""Tests for sampling, arc length, resampling, and the distance diagnostics.

Frozen arc-length and gap values were cross-checked against a one-million
segment chordal sum computed with an independent numpy evaluation before
being pinned here.
"""

import math
import os
import random
import re
import struct

import mpmath
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
    OffCurve,
    QuadratureFailure,
    SampledCurve,
    TooFewSamples,
    affine_curve_point,
    arc_length,
    cli,
    convergence_gap,
    core,
    curve_point,
    curve_speed,
    inverse_affine,
    oracle_polyline,
    polyline_hausdorff,
    radial_factor,
    resample_by_arclength,
    sample_uniform_theta,
    sampling,
    square_point,
)
from fermatcurves.sampling import (
    _LEGENDRE,
    _WG,
    _WGK,
    _XGK,
    _XGK_DIGITS,
    _ladder,
    _newton_in_panel,
    _panels,
    _pieces,
)
from helpers import corner_arc_length, corner_deficit, corner_partial_arc_length
from test_core import SPEED_FRAME_IDS, SPEED_FRAMES
from test_golden import FRAME_TEXTS as GOLDEN_FRAME_IDS
from test_golden import FRAMES as GOLDEN_FRAMES

QUARTER = math.pi / 2.0
NEAR_SINGULAR = AffineFrame(1.0, 1.0, 0.0, 1.0, 1.0 + 5e-12, 0.0)  # condition number 8e11
# convergence_gap's relative error against mpmath's closed form, in units of
# u = 2**-53: worst 3.0 measured on LOG_SPACED + [2], in the frame of condition number 8e11.
GAP_ERROR = 4.0
LOG_SPACED = sorted({min(MAX_EXPONENT, round(MAX_EXPONENT ** (i / 20))) for i in range(21)})


def unit_square(shift=(0.0, 0.0)):
    dx, dy = shift
    return [(dx, dy), (1.0 + dx, dy), (1.0 + dx, 1.0 + dy), (dx, 1.0 + dy)]


class TestSampledCurve:
    def test_valid_construction_and_len(self):
        curve = sample_uniform_theta(2, count=8)
        assert len(curve) == 8
        assert curve.closed
        assert curve.exponent == 2
        assert curve.frame is IDENTITY

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="lengths differ"):
            SampledCurve((0.0, 1.0, 2.0), ((1.0, 0.0),), True, 1, IDENTITY)

    def test_rejects_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            SampledCurve((0.0, 1.0), (curve_point(0.0, 1), curve_point(1.0, 1)), True, 1, IDENTITY)

    def test_rejects_thetas_outside_one_period(self):
        pts = tuple(curve_point(t, 1) for t in (0.1, 0.2, 0.3))
        with pytest.raises(ValueError, match="period"):
            SampledCurve((-0.1, 0.2, 0.3), pts, True, 1, IDENTITY)
        with pytest.raises(ValueError, match="period"):
            SampledCurve((0.1, 0.2, 7.0), pts, True, 1, IDENTITY)

    def test_rejects_unsorted_thetas(self):
        pts = tuple(curve_point(t, 1) for t in (0.3, 0.2, 0.4))
        with pytest.raises(ValueError, match="strictly increasing"):
            SampledCurve((0.3, 0.2, 0.4), pts, True, 1, IDENTITY)

    @pytest.mark.parametrize(
        "thetas, message",
        [
            ((-0.1, 0.2, 0.3), "thetas must lie within one period [0, 2*pi], got thetas[0] = -0.1"),
            ((0.1, 0.2, math.nextafter(TWO_PI, 7.0)),
             f"thetas must lie within one period [0, 2*pi], got thetas[2] = {math.nextafter(TWO_PI, 7.0)!r}"),
            ((0.1, 0.2, 0.2), "thetas must be strictly increasing, got thetas[1] = 0.2 then thetas[2] = 0.2"),
            ((math.nan, 0.2, 0.3), "thetas must be strictly increasing, got thetas[0] = nan then thetas[1] = 0.2"),
            ((0.1, math.nan, 0.3), "thetas must be strictly increasing, got thetas[0] = 0.1 then thetas[1] = nan"),
            ((0.1, 0.2, math.nan), "thetas must be strictly increasing, got thetas[1] = 0.2 then thetas[2] = nan"),
        ],
        ids=["negative-first", "last-above-2pi", "tie", "nan-first", "nan-middle", "nan-last"],
    )
    def test_one_theta_rule_for_the_constructor_and_the_cli_arc(self, thetas, message):
        pts = tuple(curve_point(t, 1) for t in (0.1, 0.2, 0.3))
        with pytest.raises(ValueError) as direct:
            sampling._check_thetas(thetas)
        with pytest.raises(ValueError) as constructed:
            SampledCurve(thetas, pts, True, 1, IDENTITY)
        assert str(direct.value) == str(constructed.value) == message

    def test_rejects_points_off_the_curve(self):
        thetas = (0.1, 0.2, 0.3)
        pts = tuple(curve_point(t, 2) for t in thetas)
        bad = (pts[0], (pts[1][0] * 1.001, pts[1][1] * 1.001), pts[2])
        with pytest.raises(ValueError, match="off the curve"):
            SampledCurve(thetas, bad, False, 2, IDENTITY)

    @pytest.mark.parametrize("bad", [(math.nan, 0.0), (math.inf, 1.0)])
    def test_rejects_non_finite_points(self, bad):
        thetas = (0.1, 0.2, 0.3)
        pts = (curve_point(0.1, 2), bad, curve_point(0.3, 2))
        with pytest.raises(ValueError, match="point coordinates must be finite"):
            SampledCurve(thetas, pts, False, 2, IDENTITY)

    def test_rejects_a_point_with_a_nan_image(self):
        frame = AffineFrame(1e10, 1e10, 0.0, 2.0, 1.0, 1.0)
        pts = ((1e300, -2e300),) + tuple(affine_curve_point(t, 3, frame) for t in (0.2, 0.3))
        with pytest.raises(ValueError, match="off the curve: residual nan"):
            SampledCurve((0.1, 0.2, 0.3), pts, False, 3, frame)

    def test_off_curve_error_names_the_point_n_frame_and_bound(self):
        frame = AffineFrame(2.0, 0.5, -1.0, 0.0, 1.5, 3.0)
        thetas = (0.1, 0.2, 0.3)
        pts = [affine_curve_point(t, 7, frame) for t in thetas]
        pts[1] = (pts[1][0] + 1e-6, pts[1][1])
        pts[2] = (pts[2][0] + 1e-3, pts[2][1])
        with pytest.raises(OffCurve) as caught:
            SampledCurve(thetas, pts, False, 7, frame)
        message = str(caught.value)
        for part in (repr(pts[1]), "theta=0.2 ", "off the curve: residual ", "bound |log1p(residual)| <= 3.105e-13,", "N=7 ", repr(frame)):
            assert part in message
        assert repr(pts[2]) not in message  # the first point off the curve is the one named

    @pytest.mark.parametrize("scale", [1.0 - 1e-12, 1.0 + 1e-12])
    @pytest.mark.parametrize("frame", GOLDEN_FRAMES, ids=GOLDEN_FRAME_IDS)
    def test_a_vertex_moved_radially_by_1e_12_is_rejected_at_every_exponent(self, frame, scale):
        # In the mapped coordinates the vertex leaves the curve along its ray;
        # the bound, 32 * u * k relative, is under 2.3e-14 on these frames.
        thetas = (0.1, math.pi / 4.0, 1.0)
        for n in LOG_SPACED:
            pts = [affine_curve_point(t, n, frame) for t in thetas]
            rho = radial_factor(thetas[1], n) * scale
            pts[1] = inverse_affine((rho * math.cos(thetas[1]), rho * math.sin(thetas[1])), frame)
            with pytest.raises(OffCurve, match=f"N={n} "):
                SampledCurve(thetas, pts, False, n, frame)

    @pytest.mark.parametrize("n", [10**4, 5 * 10**6, MAX_EXPONENT])
    @pytest.mark.parametrize("radius", [0.0, 10.0])
    @pytest.mark.parametrize("frame", [NEAR_SINGULAR, AffineFrame(1.0, 0.0, 0.0, 0.0, 1e-9, 0.0)])
    def test_far_vertices_are_rejected_on_ill_conditioned_frames(self, frame, radius, n):
        # The bound in the log domain stays tight when 32 * 2N * u * k is large:
        # a relative radial distance of 32 * u * k (at most 2.8e-3 here) at any N.
        thetas = (0.1, 0.2, 0.3)
        pts = [affine_curve_point(t, n, frame) for t in thetas]
        pts[1] = inverse_affine((radius * math.cos(0.2), radius * math.sin(0.2)), frame)
        with pytest.raises(OffCurve, match=f"N={n} "):
            SampledCurve(thetas, pts, False, n, frame)

    def test_rejects_non_frame(self):
        thetas = (0.1, 0.2, 0.3)
        pts = tuple(curve_point(t, 1) for t in thetas)
        with pytest.raises(TypeError, match="AffineFrame"):
            SampledCurve(thetas, pts, True, 1, (1, 0, 0, 0, 1, 0))

    @pytest.mark.parametrize("closed", ["false", 0, 1, None])
    def test_closed_must_be_a_bool(self, closed):
        thetas = (0.1, 0.2, 0.3)
        pts = tuple(curve_point(t, 1) for t in thetas)
        with pytest.raises(TypeError, match="closed must be true or false"):
            SampledCurve(thetas, pts, closed, 1, IDENTITY)


def revalidated(curve: SampledCurve) -> SampledCurve:
    """A builder's curve rebuilt through the public constructor, which checks
    every vertex against the membership bound; the builders themselves skip it."""
    rebuilt = SampledCurve(curve.thetas, curve.points, curve.closed, curve.exponent, curve.frame)
    assert rebuilt == curve
    return rebuilt


class TestMembershipBound:
    """The bound |log1p(residual)| <= 32 * 2N * u * k accepts the package's own points."""

    @pytest.mark.parametrize(
        "frame", GOLDEN_FRAMES + (NEAR_SINGULAR,), ids=GOLDEN_FRAME_IDS + ("near-singular",)
    )
    def test_own_points_pass_at_every_exponent(self, frame):
        for n in LOG_SPACED:
            revalidated(sample_uniform_theta(n, frame, count=64))
            revalidated(oracle_polyline(n, frame, count=64))
            revalidated(resample_by_arclength(n, frame, count=16))

    def test_largest_exponent(self):
        assert len(revalidated(oracle_polyline(MAX_EXPONENT, count=256))) == 256
        assert len(revalidated(resample_by_arclength(MAX_EXPONENT, count=8))) == 8

    def test_near_singular_resampling(self):
        assert len(revalidated(resample_by_arclength(3, NEAR_SINGULAR, count=8))) == 8

    @pytest.mark.parametrize(
        "frame", GOLDEN_FRAMES + (NEAR_SINGULAR,), ids=GOLDEN_FRAME_IDS + ("near-singular",)
    )
    def test_theta_range_arcs_pass_at_every_exponent(self, capsys, frame):
        # sample --theta-range builds its arc directly, as the builders do; read
        # back through curve_from_json, the public constructor, it must pass.
        frame_text = ",".join(repr(c) for c in frame.coefficients())
        ranges = ((0.25, 2.5), (0.1, math.pi / 4.0), (math.nextafter(math.pi / 4.0, 0.0), 3.0 * math.pi / 4.0 + 1e-12),
                  (5.0 * math.pi / 4.0 - 1e-6, math.nextafter(7.0 * math.pi / 4.0, 0.0)))
        for n in LOG_SPACED:
            for lo, hi in ranges:
                argv = ["sample", "--n", str(n), "--count", "64", "--frame", frame_text,
                        "--theta-range", f"{lo!r},{hi!r}", "--format", "json"]
                assert cli.run(argv) == 0
                out = capsys.readouterr().out
                arc, = cli._sample_curves(cli._build_parser().parse_args(argv), (n,), frame)
                assert cli.curve_from_json(out) == arc


class TestSampleUniformTheta:
    def test_grid_is_the_exact_uniform_formula(self):
        curve = sample_uniform_theta(5, count=12)
        assert curve.thetas == tuple((TWO_PI * k) / 12.0 for k in range(12))

    def test_first_sample_is_the_right_crossing(self):
        for n in (1, 3, 10**6):
            curve = sample_uniform_theta(n, count=4)
            assert curve.points[0] == (1.0, 0.0)

    def test_default_count(self):
        assert len(sample_uniform_theta(1)) == 256

    def test_count_too_small(self):
        with pytest.raises(TooFewSamples):
            sample_uniform_theta(1, count=2)


SIZED_CALLS = {
    "sample_uniform_theta": lambda size: sample_uniform_theta(3, count=size),
    "oracle_polyline": lambda size: oracle_polyline(3, count=size),
}


class TestSizeArguments:
    @pytest.mark.parametrize("call", SIZED_CALLS)
    @pytest.mark.parametrize("size", [3.9, 16.0, True])
    def test_non_integers_and_bools_are_rejected(self, call, size):
        with pytest.raises(TypeError):
            SIZED_CALLS[call](size)

    @pytest.mark.parametrize("call", SIZED_CALLS)
    def test_numpy_integers_are_accepted(self, call):
        assert SIZED_CALLS[call](np.int64(16)) == SIZED_CALLS[call](16)


FRAME_CALLS = {
    "forward_affine": lambda frame: core.forward_affine((0.5, 0.5), frame),
    "inverse_affine": lambda frame: inverse_affine((0.5, 0.5), frame),
    "affine_curve_point": lambda frame: affine_curve_point(0.3, 3, frame),
    "residual_log": lambda frame: core.residual_log((1.0, 0.0), 3, frame),
    "theta_of_point": lambda frame: core.theta_of_point((1.0, 0.0), frame),
    "curve_velocity": lambda frame: core.curve_velocity(0.3, 3, frame),
    "curve_speed": lambda frame: curve_speed(0.3, 3, frame),
    "sample_uniform_theta": lambda frame: sample_uniform_theta(3, frame, 8),
    "arc_length": lambda frame: arc_length(3, frame),
    "resample_by_arclength": lambda frame: resample_by_arclength(3, frame, 8),
    "convergence_gap": lambda frame: convergence_gap(3, frame),
    "oracle_polyline": lambda frame: oracle_polyline(3, frame, 8),
    "SampledCurve": lambda frame: SampledCurve((0.0, 1.0, 2.0), ((1.0, 0.0),) * 3, True, 3, frame),
}


class TestFrameArguments:
    @pytest.mark.parametrize("call", FRAME_CALLS)
    @pytest.mark.parametrize("frame", [None, (1, 0, 0, 0, 1, 0)], ids=["None", "tuple"])
    def test_a_frame_that_is_not_an_affine_frame_is_a_type_error(self, call, frame):
        name = type(frame).__name__
        with pytest.raises(TypeError, match=f"^frame must be an AffineFrame, got {name}$"):
            FRAME_CALLS[call](frame)


def _checks_made(monkeypatch, call) -> dict[str, int]:
    """Calls of each core input check, and of the membership test's _log_sums, made by call()."""
    names = ("_check_exponent", "_check_angle", "_check_point", "_log_sums")
    counts = dict.fromkeys(names, 0)

    def counted(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    with monkeypatch.context() as patch:
        for name in counts:
            patch.setattr(core, name, counted(name, getattr(core, name)))
        call()
    return counts


VALIDATING_CALLS = {
    "sample_uniform_theta": (lambda count: lambda: sample_uniform_theta(7, count=count), (16, 4096)),
    "oracle_polyline": (lambda count: lambda: oracle_polyline(7, count=count), (16, 512)),
    "resample_by_arclength": (lambda count: lambda: resample_by_arclength(3, count=count, tol=1e-6), (8, 16)),
    # the quadrature's node count grows with N: 60 kernel evaluations at N = 3, 120 at 2^31 - 1
    "arc_length": (lambda n: lambda: arc_length(n), (3, MAX_EXPONENT)),
    # the closed form reads no grid: the same checks at every N
    "convergence_gap": (lambda n: lambda: convergence_gap(n), (3, MAX_EXPONENT)),
}


@pytest.mark.parametrize("name", VALIDATING_CALLS)
def test_validation_does_not_scale_with_the_vertex_count(monkeypatch, name):
    make, (small, large) = VALIDATING_CALLS[name]
    checks = [_checks_made(monkeypatch, make(count)) for count in (small, large)]
    assert checks[0] == checks[1]
    assert all(0 <= calls <= 2 for calls in checks[0].values()), checks[0]
    assert checks[0]["_log_sums"] == 0  # the builders' own vertices skip the membership test


BUILDERS = {
    "sample_uniform_theta": lambda: sample_uniform_theta(7, GOLDEN_FRAMES[-1], count=64),
    "oracle_polyline": lambda: oracle_polyline(7, GOLDEN_FRAMES[-1], count=64),
    "resample_by_arclength": lambda: resample_by_arclength(7, GOLDEN_FRAMES[-1], count=64),
}


@pytest.mark.parametrize("name", BUILDERS)
def test_a_curve_from_outside_is_checked_once_per_value(monkeypatch, name):
    curve = BUILDERS[name]()
    counts = {"theta": 0, "_check_point": 0}
    check_real, check_point, log_sums = core._check_real, core._check_point, core._log_sums
    batches = []

    def counted_real(value, what):
        if what == "theta":
            counts["theta"] += 1
        return check_real(value, what)

    def counted_point(p):
        counts["_check_point"] += 1
        return check_point(p)

    def counted_log_sums(points, n, frame):
        batches.append(len(points))
        return log_sums(points, n, frame)

    monkeypatch.setattr(core, "_check_real", counted_real)
    monkeypatch.setattr(core, "_check_point", counted_point)
    monkeypatch.setattr(core, "_log_sums", counted_log_sums)
    revalidated(curve)
    assert counts == dict.fromkeys(counts, len(curve))
    assert batches == [len(curve)]  # one batched membership loop over every point


def _run_ok(*argv: str) -> None:
    assert cli.run([*argv, "--output", os.devnull]) == 0


CURVE_CALLS = {  # a call and the curves it builds
    "sample_uniform_theta": (lambda: sample_uniform_theta(7, GOLDEN_FRAMES[3], 64), 1),
    "resample_by_arclength": (lambda: resample_by_arclength(7, GOLDEN_FRAMES[3], 64), 1),
    "theta-range arc": (lambda: _run_ok("sample", "--n", "7", "--theta-range", "0.5,2"), 1),
    "arclength arc": (lambda: _run_ok("sample", "--n", "7", "--theta-range", "0.5,2", "--resample", "arclength"), 1),
    "residual": (lambda: _run_ok("residual", "--n", "7", "--count", "100"), 1),
    "svg family": (lambda: _run_ok("svg", "--n", "5", "--count", "32"), 5),
    "oracle-diff": (lambda: _run_ok("oracle-diff", "--n", "7", "--count", "64"), 1),
    "convergence_gap": (lambda: convergence_gap(7, GOLDEN_FRAMES[3]), 0),
}


@pytest.mark.parametrize("name", CURVE_CALLS)
def test_one_batched_point_loop_per_curve(monkeypatch, name):
    call, curves = CURVE_CALLS[name]
    calls = {"_points": 0, "_evaluate": 0}
    points, evaluate = core._points, core._evaluate

    def counted_points(thetas, n, frame):
        calls["_points"] += 1
        return points(thetas, n, frame)

    def counted_evaluate(theta, n):
        calls["_evaluate"] += 1
        return evaluate(theta, n)

    monkeypatch.setattr(core, "_points", counted_points)
    monkeypatch.setattr(core, "_evaluate", counted_evaluate)
    call()
    assert calls == {"_points": curves, "_evaluate": 0}


class TestArcLength:
    def test_circle_full_turn_is_exactly_two_pi(self):
        assert arc_length(1) == TWO_PI

    def test_circle_quarter_is_exactly_half_pi(self):
        assert arc_length(1, theta_a=0.0, theta_b=QUARTER) == QUARTER

    def test_additive_over_subdivision(self):
        n = 7
        mid = 2.3
        whole = arc_length(n, theta_a=0.0, theta_b=5.0)
        parts = arc_length(n, theta_a=0.0, theta_b=mid) + arc_length(n, theta_a=mid, theta_b=5.0)
        assert parts == pytest.approx(whole, abs=1e-12)

    def test_four_quadrants_are_congruent(self):
        n = 9
        quadrants = [
            arc_length(n, theta_a=k * QUARTER, theta_b=(k + 1) * QUARTER) for k in range(4)
        ]
        for q in quadrants[1:]:
            assert q == pytest.approx(quadrants[0], abs=1e-13)

    def test_offset_full_turn_matches_the_closed_circuit(self):
        start = 1.234
        assert arc_length(1, theta_a=start, theta_b=start + TWO_PI) == TWO_PI

    @pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-14])
    @pytest.mark.parametrize("n", [1, 7, 1000, 10**6, MAX_EXPONENT])
    @pytest.mark.parametrize(
        "frame", GOLDEN_FRAMES + (NEAR_SINGULAR,), ids=GOLDEN_FRAME_IDS + ("near-singular",)
    )
    def test_every_full_turn_has_one_value(self, rng, frame, n, tol):
        # The speed is pi-periodic in every frame, so the length of a closed
        # circuit belongs to the curve, not to its start: every full turn,
        # one that ends in the span's slack too, is the turn from 0 to the bit.
        # Up to 10**6, a + TWO_PI rounds by up to half an ulp of a either way:
        # a span that overshoots is the full turn, one that falls short is
        # integrated as given, and misses the turn by at most the shortfall
        # times the largest speed, which is under half the turn.
        turn = arc_length(n, frame, tol=tol)
        starts = [rng.uniform(-10.0, 10.0) for _ in range(8)]
        for a in starts:
            assert (a + TWO_PI) - a == TWO_PI
            assert arc_length(n, frame, a, a + TWO_PI, tol) == turn, a
        large = [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(1.0, 6.0) for _ in range(12)]
        spans = [(a + TWO_PI) - a for a in large]
        assert min(spans) < TWO_PI < max(spans)
        for a, span in zip(large, spans):
            got = arc_length(n, frame, a, a + TWO_PI, tol)
            if span >= TWO_PI:
                assert got == turn, a
            else:
                assert abs(got - turn) <= tol * max(1.0, turn) + (TWO_PI - span) * turn, a
        a = starts[0]
        b = math.nextafter(a + TWO_PI, math.inf)
        assert TWO_PI < b - a <= TWO_PI + sampling._SPAN_SLACK
        assert arc_length(n, frame, a, b, tol) == turn

    def test_a_full_turn_failure_names_the_turn_it_integrates(self, monkeypatch):
        monkeypatch.setattr(core, "_octant_speeds", lambda phis, n, frame: ([1.0 / x for x in phis],) * 4)
        with pytest.raises(QuadratureFailure) as caught:
            arc_length(1, IDENTITY, 1.0, 1.0 + TWO_PI)
        assert "on [0.0, 6.283185307179586]" in str(caught.value)

    def test_monotone_in_the_exponent_and_bounded_by_square(self):
        lengths = [arc_length(2**k) for k in range(13)]
        for a, b in zip(lengths, lengths[1:]):
            assert b > a
        for value in lengths:
            assert value < 8.0

    def test_large_exponent_frozen_value(self):
        assert arc_length(10**4) == pytest.approx(7.99977868373251, abs=1e-9)

    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    @pytest.mark.parametrize("n", [1, 7, 1000, 135968861, 2**31 - 1])
    @pytest.mark.parametrize("frame", GOLDEN_FRAMES, ids=GOLDEN_FRAME_IDS)
    def test_twice_the_half_turn_is_the_full_turn(self, n, frame, tol):
        # Every affine image is centrally symmetric: the two halves of a turn
        # have the same length, and twice the half agrees within tol with the
        # full turn, which is the span [0, 2*pi] panel for panel, to the bit.
        full = sampling._length(_panels(n, frame, 0.0, TWO_PI, tol))
        first, second = arc_length(n, frame, 0.0, math.pi, tol), arc_length(n, frame, math.pi, TWO_PI, tol)
        assert abs(first - second) <= tol * max(1.0, full)
        assert abs(2.0 * first - full) <= tol * max(1.0, full)
        assert arc_length(n, frame, tol=tol) == full

    def test_a_large_exponent_in_a_skew_frame_against_mpmath(self):
        # mpmath's quad at 30 digits on the graded starting panels of the full
        # turn, which takes about 9 s, gives 9.0256410886236258599. Tanh-sinh
        # on the bare kink pieces misses the boundary layers at this N by
        # 1.2e-9.
        n, frame = 199965042, GOLDEN_FRAMES[3]
        reference = 9.0256410886236258599
        length = arc_length(n, frame, tol=1e-12)
        assert cli.fmt(length) == "9.025641088623626"
        assert abs(length - reference) <= 1e-12 * reference

    def test_the_corner_deficit_of_the_square(self):
        # On the identity frame each pair of corners loses C / N, C = 1.10660659944103143474.
        with mpmath.workdps(30):
            deficit = corner_deficit((mpmath.mpf(1), mpmath.mpf(0)), (mpmath.mpf(0), mpmath.mpf(1)))
            assert abs(deficit - mpmath.mpf("1.10660659944103143474")) < mpmath.mpf("1e-20")

    @pytest.mark.parametrize(
        "frame", GOLDEN_FRAMES + (NEAR_SINGULAR,), ids=GOLDEN_FRAME_IDS + ("near-singular",)
    )
    def test_large_exponents_against_the_corner_asymptotics(self, frame):
        # An independent witness: the O(N^-2) remainder is about 0.06 L / N^2 on these frames.
        # Besides full turns, spans that hold 0, 1, 2, 2 and 4 diagonals, each end at least
        # 0.07 rad from one, far outside the corner layers; worst gap measured 8.3e-16 L, at N = 10^7.
        spans = {(0.3, 0.6): 0, (0.3, 2.1): 1, (1.0, 4.0): 2, (3.5, 6.0): 2, (0.2, 6.1): 4}
        diagonals = [math.pi / 4.0 + k * math.pi / 2.0 for k in range(4)]
        for (lo, hi), crossed in spans.items():
            assert sum(lo < d < hi for d in diagonals) == crossed
            assert min(abs(t - d) for t in (lo, hi) for d in diagonals) >= 0.07
        for n in (10**7, 199965042, MAX_EXPONENT):
            reference = corner_arc_length(n, frame)
            for tol in (1e-12, 1e-14):
                length = arc_length(n, frame, tol=tol)
                assert abs(length - reference) <= tol * reference + 0.1 * reference / n**2, (n, tol, length, reference)
            # The partial helper's full turn sums the perimeter in another order: equal up to its rounding.
            assert abs(corner_partial_arc_length(n, frame, 0.0, TWO_PI) - reference) <= math.ulp(reference), n
            for lo, hi in spans:
                reference = corner_partial_arc_length(n, frame, lo, hi)
                length = arc_length(n, frame, lo, hi, tol=1e-14)
                assert abs(length - reference) <= 1e-14 * reference + 0.1 * reference / n**2, (n, lo, hi, length)

    def test_longer_than_inscribed_polyline(self):
        curve = sample_uniform_theta(3, count=1024)
        chord = 0.0
        pts = curve.points + (curve.points[0],)
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            chord += math.hypot(x1 - x0, y1 - y0)
        assert arc_length(3) > chord

    def test_zero_span(self):
        # Exactly +0.0 by the general path: the empty span covers no base panel.
        assert arc_length(5, theta_a=1.3, theta_b=1.3) == 0.0
        for frame in (*GOLDEN_FRAMES, NEAR_SINGULAR):
            for n in (1, 7, MAX_EXPONENT):
                for t in (0.0, math.pi / 4.0, 1.3, TWO_PI, 1e300):
                    assert struct.pack("<d", arc_length(n, frame, t, t)) == struct.pack("<d", 0.0), (frame, n, t)

    def test_rejects_bad_spans(self):
        with pytest.raises(ValueError, match="span"):
            arc_length(2, theta_a=1.0, theta_b=0.5)
        with pytest.raises(ValueError, match="span"):
            arc_length(2, theta_a=0.0, theta_b=7.0)
        with pytest.raises(InvalidAngle):
            arc_length(2, theta_a=math.nan, theta_b=1.0)

    def test_span_barely_over_a_turn_is_clamped(self):
        b = math.nextafter(TWO_PI, 7.0)
        assert arc_length(1, theta_a=0.0, theta_b=b) == TWO_PI

    def test_span_short_of_a_turn_is_the_span_given(self):
        # On the circle the length is the span, however near 2*pi it falls
        # and however large the start: 1e16 + TWO_PI rounds to 1e16 + 6.0.
        b = TWO_PI - math.ulp(TWO_PI)
        assert arc_length(1, theta_a=0.0, theta_b=b) == b
        assert 1e16 + TWO_PI == 1e16 + 6.0
        assert arc_length(1, IDENTITY, 1e16, 1e16 + 6.0) == 6.0

    def test_span_over_a_turn_is_rejected_beyond_the_rounded_sum(self):
        # Far from 0 only the exact sum a + TWO_PI may overshoot the fixed slack.
        with pytest.raises(ValueError, match="span"):
            arc_length(1, IDENTITY, 1e16, 1e16 + 8.0)
        a = 2.0**54
        assert (a + TWO_PI) - a == 8.0
        assert arc_length(1, IDENTITY, a, a + TWO_PI) == TWO_PI
        with pytest.raises(ValueError, match="span"):
            arc_length(1, IDENTITY, 64.0, math.nextafter(64.0 + TWO_PI, math.inf))

    @pytest.mark.parametrize("tol", ["1e-6", True, None, 1e-6j])
    @pytest.mark.parametrize("call", [arc_length, resample_by_arclength])
    def test_tol_must_be_a_real_number(self, call, tol):
        with pytest.raises(TypeError, match="tol must be a real number"):
            call(3, tol=tol)

    def test_rejects_sub_precision_tolerance(self):
        with pytest.raises(ValueError, match="tol"):
            arc_length(3, tol=1e-16)
        with pytest.raises(ValueError, match="tol"):
            arc_length(3, tol=0.0)

    @pytest.mark.parametrize("tol", [math.inf, 10**400, math.nan], ids=["inf", "int-beyond-double", "nan"])
    @pytest.mark.parametrize("call", [arc_length, resample_by_arclength])
    def test_rejects_a_tolerance_that_is_not_finite(self, call, tol):
        # An infinite tol accepts the starting panels' estimate with no error bound behind it.
        with pytest.raises(ValueError, match=r"^tol must be finite and at least 1e-14, got (inf|nan)$"):
            call(3, tol=tol)

    def test_quadrature_failure_on_a_singular_integrand(self, monkeypatch):
        # Every image is 1/phi, singular at the base octant's start phi = 0: on
        # [0, 1] that is theta = 0 alone, on [0.5, 2] theta = pi/2 from both
        # sides, octant 1 folding back onto it and octant 2 forward.
        calls = [0]

        def singular(phis, n, frame):
            calls[0] += len(phis)
            return ([1.0 / x if x > 0.0 else math.inf for x in phis],) * 4

        monkeypatch.setattr(core, "_octant_speeds", singular)
        for a, b, images in (
            (0.0, 1.0, lambda x1: [(0.0, x1)]),
            (0.5, 2.0, lambda x1: [(QUARTER - x1, QUARTER), (QUARTER, QUARTER + x1)]),
        ):
            calls[0] = 0
            with pytest.raises(QuadratureFailure) as caught:
                _panels(1, IDENTITY, a, b, 1e-10)
            assert calls[0] <= sampling._EVAL_BUDGET
            message = str(caught.value)
            for part in ("N=1 ", repr(IDENTITY), f"[{a!r}, {b!r}]", f"{calls[0]} spent"):
                assert part in message
            x0, x1 = map(float, re.search(r"base panel \[(\S+), (\S+)\] still open", message).groups())
            assert x0 == 0.0 < x1 < 1e-100
            at = ", ".join(f"[{t0!r}, {t1!r}]" for t0, t1 in images(x1))
            assert message.endswith(f"still open, at theta {at}"), message

    @pytest.mark.parametrize("n", [1, 16, 81, 82, 1000, 10**6, MAX_EXPONENT])
    def test_split_at_kinks_covers_the_span(self, n):
        quarter = math.pi / 4.0
        # The base ladder: up to N = 81 the whole graded ladder below one
        # diagonal; past it, the rungs from 16/N up to pi/8, exclusive, are gone.
        edges = _ladder(n)
        assert edges[0] == 0.0
        assert edges[-1] == quarter
        assert edges == sorted(set(edges))
        ladder = _graded_ladder(0.0, quarter, n)
        if n <= 81:
            assert edges == [x for x, _ in ladder]
        assert edges == [x for x, d in ladder if not 16.0 / n <= d < math.pi / 8.0]
        # the widths halve toward the diagonal from the first rung below 16/N,
        # down to the last rung, at most 1/(2N)
        rungs = [quarter - x for x in edges[1:-1]]
        assert rungs[-1] <= 1.0 / (2 * n) < [quarter, *rungs][-2]
        assert all(d < 16.0 / n for d in rungs[1:])
        # The octant pieces of every span shape arc_length sends, unfolded into
        # theta, cover the span in order, end to end, and cut it where the
        # graded ladder of the span, less the same rungs, does.
        spans = (
            (0.1, 3.0),
            (0.0, math.pi),
            (0.0, TWO_PI),
            (5.9, 5.9 + 0.45 * TWO_PI),
            (0.3, 0.3 + 0.9 * TWO_PI),
            (quarter, 3.0 * quarter),
            (1.3, 1.3),
            (quarter, quarter),
        )
        for a, b in spans:
            pieces = _pieces(a, b)
            assert [k for k, _, _ in pieces] == list(range(math.floor(a / quarter), math.ceil(b / quarter)))
            assert all(0.0 <= phi0 <= phi1 <= quarter for _, phi0, phi1 in pieces)
            images = [sampling._theta_image(*piece) for piece in pieces]
            if a == b:
                assert all(t0 == t1 for t0, t1 in images)
                assert _panels(n, IDENTITY, a, b, 1e-10) == []
                continue
            assert images[0][0] == a
            assert images[-1][1] == b
            for (k, _, _), (_, t1), (t0, _) in zip(pieces, images, images[1:]):
                assert t1 == pytest.approx((k + 1) * quarter, abs=math.ulp(b)) == t0
            cut = [x for x, d in _graded_ladder(a, b, n) if not 16.0 / n <= d < math.pi / 8.0]
            assert _theta_edges(a, b, n) == pytest.approx(cut, abs=2 * math.ulp(b)), (a, b)


def _theta_edges(a: float, b: float, n: int) -> list[float]:
    """The starting edges of [a, b] in theta: in each octant piece, its ends
    and the base ladder between them, unfolded through the piece."""
    edges = []
    for k, phi0, phi1 in _pieces(a, b):
        cut = [sampling._theta_image(k, x, x)[0] for x in sorted({phi0, phi1, *_ladder(n)}) if phi0 <= x <= phi1]
        edges += (cut[::-1] if k % 2 else cut)[1 if edges else 0 :]
    return edges


def _graded_ladder(a: float, b: float, n: int) -> list[tuple[float, float]]:
    """The whole graded ladder of starting edges on [a, b], each with its
    distance from the nearest diagonal: a, b, the multiples of pi/4 between
    them (at pi/4) and the rungs pi/8, pi/16, ..., pi/2**(levels + 1) on
    both sides of each diagonal, levels = ceil(log2(pi*N))."""
    quarter = math.pi / 4.0
    levels = math.ceil(math.log2(math.pi * n))
    cuts = {}
    for k in range(math.floor(a / quarter), math.ceil(b / quarter) + 1):
        cuts[k * quarter] = quarter
        if k % 2:
            for j in range(3, levels + 2):
                cuts[k * quarter - math.pi / 2.0**j] = cuts[k * quarter + math.pi / 2.0**j] = math.pi / 2.0**j
    return [(a, quarter), *sorted((x, d) for x, d in cuts.items() if a < x < b), (b, quarter)]


def _count_speed(monkeypatch) -> list[int]:
    """Count the kernel evaluations of core._octant_speeds, the arc-length integrand, from now on:
    one per base-octant node, which gives the speed at up to four image nodes."""
    calls = [0]
    original = core._octant_speeds

    def counted(phis, n, frame):
        calls[0] += len(phis)
        return original(phis, n, frame)

    monkeypatch.setattr(core, "_octant_speeds", counted)
    return calls


def _mp_speed(t, n: int, frame: AffineFrame):
    """curve_speed in mpmath arithmetic, from the unfactored power sum."""
    c, s = mpmath.cos(t), mpmath.sin(t)
    power = abs(c) ** (2 * n) + abs(s) ** (2 * n)
    rho = power ** (-mpmath.mpf(1) / (2 * n))
    drho = rho / power * c * s * (abs(c) ** (2 * n - 2) - abs(s) ** (2 * n - 2))
    wu, wv = drho * c - rho * s, drho * s + rho * c
    a, b, _, d, e, _ = (mpmath.mpf(x) for x in frame.coefficients())
    det = a * e - b * d
    return mpmath.hypot((e * wu - b * wv) / det, (a * wv - d * wu) / det)


def _packed(*rows) -> bytes:
    """The doubles of the rows as bytes, so 0.0 and -0.0 differ."""
    flat = [v for row in rows for v in row]
    return struct.pack(f"<{len(flat)}d", *flat)


def _mp_legendre_inverse(half):
    """The inverse of V[i][k] = P_k(x_i), x_i the nodes -half, 0, reversed
    half in increasing order, at 50 digits, rounded to doubles; the entries
    that vanish by symmetry are 0.0."""
    with mpmath.workdps(50):
        half = [mpmath.mpf(d) for d in half]
        nodes = [-x for x in half] + [mpmath.mpf(0)] + half[::-1]
        size = len(nodes)
        inverse = mpmath.matrix([[mpmath.legendre(k, x) for k in range(size)] for x in nodes]) ** -1
        return tuple(
            tuple(float(inverse[k, i]) if abs(inverse[k, i]) > 1e-20 else 0.0 for i in range(size))
            for k in range(size)
        )


def test_legendre_table_against_mpmath():
    # The Kronrod nodes from QUADPACK's qk15 to 33 digits; the Gauss nodes
    # are every second one. Every derived table matches mpmath's inverse on
    # its nodes byte for byte, signed zeros included.
    digits = (
        "0.991455371120812639206854697526329", "0.949107912342758524526189684047851",
        "0.864864423359769072789712788640926", "0.741531185599394439863864773280788",
        "0.586087235467691130294144845693013", "0.405845151377397166906606412076961",
        "0.207784955007898467600689403773245",
    )
    assert _XGK_DIGITS == digits
    assert _packed(_XGK) == _packed(tuple(float(d) for d in digits))
    kronrod, gauss = _mp_legendre_inverse(digits), _mp_legendre_inverse(digits[1::2])
    assert _packed(*_LEGENDRE) == _packed(*kronrod)
    assert _packed(_WGK) == _packed(tuple(2.0 * w for w in kronrod[0][:8]))
    assert _packed(_WG) == _packed(tuple(2.0 * w for w in gauss[0][:4]))
    # Added in _gauss_kronrod's order, the centre and then the node pairs
    # from the ends inward, both rules' weights sum to exactly 2.0.
    k15, g7 = _WGK[7], _WG[3]
    for j in range(7):
        k15 += _WGK[j] * 2.0
        if j % 2:
            g7 += _WG[j // 2] * 2.0
    assert (k15, g7) == (2.0, 2.0)


class TestArcLengthMeetsTol:
    """arc_length is within tol * max(1, arc length) of a reference."""

    @pytest.mark.parametrize(
        "n, frame_text, lo, hi, tol",
        [
            (372, GOLDEN_FRAME_IDS[1], 0.0, TWO_PI, 1e-6),
            (3, GOLDEN_FRAME_IDS[2], 0.0, TWO_PI, 1e-6),
            (50, GOLDEN_FRAME_IDS[2], 0.0, TWO_PI, 1e-12),
            (10**4, GOLDEN_FRAME_IDS[0], 0.0, TWO_PI, 1e-10),
            (7, GOLDEN_FRAME_IDS[3], 0.3, 2.1, 1e-12),
            (1000, GOLDEN_FRAME_IDS[1], 4.0, 4.9, 1e-6),
            (1, GOLDEN_FRAME_IDS[3], 1.0, 1.0 + TWO_PI, 1e-14),
            (100, GOLDEN_FRAME_IDS[1], 0.0, TWO_PI, 1e-10),
            (10**3, GOLDEN_FRAME_IDS[2], 0.3, 2.1, 1e-12),
            (10**4, GOLDEN_FRAME_IDS[3], 0.2, 0.786, 1e-12),  # ends 6e-4 past pi/4, inside 16/N
            (10**5, GOLDEN_FRAME_IDS[0], 1.0, 2.3561, 1e-12),  # ends 9e-5 short of 3*pi/4
            (10**5, GOLDEN_FRAME_IDS[2], 3.927, 5.4, 1e-6),  # starts 9e-6 past 5*pi/4
            # The shapes the octant fold makes: spans that cover 0, 1, 2, 3 and
            # 4 whole octants, the one of 3 past 2*pi; ends on k*pi/4; a span
            # over pi, which folds two pieces of one image onto one base
            # interval; ends within 1/N of a diagonal.
            (5000, GOLDEN_FRAME_IDS[3], 0.1, 0.7, 1e-10),
            (300, GOLDEN_FRAME_IDS[1], 0.5, 1.7, 1e-12),
            (40, GOLDEN_FRAME_IDS[2], 2.0, 4.2, 1e-8),
            (2000, GOLDEN_FRAME_IDS[3], 4.5, 7.5, 1e-10),
            (100, GOLDEN_FRAME_IDS[1], 1.0, 5.0, 1e-10),
            (500, GOLDEN_FRAME_IDS[2], math.pi / 4.0, 5.0 * math.pi / 4.0, 1e-12),
            (50, GOLDEN_FRAME_IDS[3], math.pi / 2.0, 7.0 * math.pi / 4.0, 1e-10),
            (1000, GOLDEN_FRAME_IDS[1], 0.3, 0.3 + 0.9 * TWO_PI, 1e-10),
            (10**5, GOLDEN_FRAME_IDS[3], 0.5, math.pi / 4.0 + 3e-6, 1e-12),
            (10**6, GOLDEN_FRAME_IDS[2], 3.0 * math.pi / 4.0 - 4e-7, 3.5, 1e-10),
        ],
    )
    def test_against_mpmath_on_the_whole_graded_ladder(self, n, frame_text, lo, hi, tol):
        # Tanh-sinh on every rung of the whole graded ladder resolves the
        # 1/(4N) diagonal layer at these N, where the bare kink pieces miss
        # it at large N. The last five cases sit where the starting mesh,
        # which grades only across the layer, differs from the whole ladder.
        frame = GOLDEN_FRAMES[GOLDEN_FRAME_IDS.index(frame_text)]
        with mpmath.workdps(20):
            cuts = [x for x, _ in _graded_ladder(lo, hi, n)]
            reference = float(mpmath.quad(lambda t: _mp_speed(t, n, frame), cuts))
        assert abs(arc_length(n, frame, lo, hi, tol) - reference) <= tol * max(1.0, reference)

    @pytest.mark.parametrize("n", [10**5, 50803, 10**6, 1270433919, 2**31 - 1])
    @pytest.mark.parametrize("frame", GOLDEN_FRAMES, ids=GOLDEN_FRAME_IDS)
    def test_against_a_tight_tol_above_ten_thousand(self, n, frame):
        reference = arc_length(n, frame, tol=1e-13)
        for tol in (1e-6, 1e-10, 1e-12):
            assert abs(arc_length(n, frame, tol=tol) - reference) <= tol * max(1.0, reference)


@pytest.mark.parametrize("n", [10**6, 2**31 - 1])
@pytest.mark.parametrize("frame", GOLDEN_FRAMES, ids=GOLDEN_FRAME_IDS)
def test_a_turn_costs_the_same_at_every_large_exponent(monkeypatch, n, frame):
    # The eight octants of a turn fold onto the base octant, two onto each
    # image, so a turn is 15 kernel nodes, each giving four image speeds, on
    # each of the base ladder's 8 panels: one from the kink to pi/8 from the
    # diagonal, one on to the first rung below 16/N, and six that halve
    # across the diagonal layer. Only tol 1e-14 bisects the panel from pi/8
    # to the first rung, once; the rounding floor keeps it from bisecting
    # into the speed's rounding noise. Integrated octant by octant over a
    # half turn, the same panels cost four times as many nodes, 480 and 600,
    # and the whole graded ladder 15 nodes on each of ceil(log2(pi*N))
    # panels per octant at every tol.
    calls = _count_speed(monkeypatch)
    for tol, count in ((1e-6, 120), (1e-8, 120), (1e-10, 120), (1e-12, 120), (1e-14, 150)):
        calls[0] = 0
        arc_length(n, frame, tol=tol)
        assert calls[0] == count
        assert count <= 15 * math.ceil(math.log2(math.pi * n))


@pytest.mark.parametrize(
    "n, frame",
    [
        (3, AffineFrame(1.0, 1.0, 0.0, 1.0, 1.0 + 5e-12, 0.0)),
        (50803, AffineFrame(1.0, 1.0, 0.0, 1.0, 1.000000000005, 0.0)),
    ],
    ids=["3", "50803"],
)
def test_near_singular_frames_end_within_the_budget(monkeypatch, n, frame):
    calls = _count_speed(monkeypatch)
    try:
        length = arc_length(n, frame)
    except QuadratureFailure as exc:
        for part in (f"N={n} ", repr(frame), f"{calls[0]} spent"):
            assert part in str(exc)
    else:
        assert math.isfinite(length)
        if n == 3:
            assert length == pytest.approx(2015873513040.19448, rel=1e-15)  # mpmath, 30 digits
    assert calls[0] <= sampling._EVAL_BUDGET


def _arclength_arc(capsys, n: int, frame_text: str, lo: float, hi: float, count: int) -> SampledCurve:
    """The curve that sample --resample arclength prints as JSON for the arc [lo, hi], read back."""
    argv = ["sample", "--n", str(n), "--frame", frame_text, "--count", str(count), "--resample", "arclength",
            "--theta-range", f"{lo!r},{hi!r}", "--format", "json"]
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, ""), argv
    return cli.curve_from_json(captured.out)


class TestResampleByArclength:
    def test_circle_comes_back_uniform(self):
        curve = resample_by_arclength(1, count=4)
        assert curve.thetas == pytest.approx(
            (0.0, QUARTER, math.pi, 1.5 * math.pi), abs=2e-10
        )
        assert curve.closed
        assert curve.thetas[0] == 0.0

    def test_equal_arc_gaps_at_large_exponent(self):
        count = 64
        curve = resample_by_arclength(100, count=count)
        gaps = []
        for i in range(count):
            t0 = curve.thetas[i]
            t1 = curve.thetas[i + 1] if i < count - 1 else TWO_PI
            gaps.append(arc_length(100, theta_a=t0, theta_b=t1))
        assert max(gaps) / min(gaps) - 1.0 <= 1e-6

    def test_thirds_split_the_total(self):
        curve = resample_by_arclength(2, count=3)
        total = arc_length(2)
        for i in range(3):
            t0 = curve.thetas[i]
            t1 = curve.thetas[i + 1] if i < 2 else TWO_PI
            assert arc_length(2, theta_a=t0, theta_b=t1) == pytest.approx(
                total / 3.0, abs=5e-9
            )

    def test_deterministic(self):
        a = resample_by_arclength(4, count=16)
        b = resample_by_arclength(4, count=16)
        assert a.thetas == b.thetas
        assert a.points == b.points

    @pytest.mark.parametrize("n", [1, 100, 10**6])
    @pytest.mark.parametrize("frame", GOLDEN_FRAMES, ids=GOLDEN_FRAME_IDS)
    def test_equal_arc_gaps_on_the_golden_frames(self, n, frame):
        count = 16
        curve = resample_by_arclength(n, frame, count)
        assert curve.thetas[0] == 0.0
        bounds = (*curve.thetas, TWO_PI)
        assert all(a < b for a, b in zip(bounds, bounds[1:]))
        step = arc_length(n, frame) / count
        for a, b in zip(bounds, bounds[1:]):
            assert abs(arc_length(n, frame, a, b) - step) <= 2e-10

    @pytest.mark.parametrize("count", [64, 256])
    def test_equal_arc_gaps_on_a_long_curve(self, count):
        # The total arc length is about 7.3e5, so one ulp of a late target is
        # 1.2e-10: the Newton stop must scale with the target, not sit at a
        # fixed absolute distance below that.
        frame = AffineFrame(1.1e-5, 0.0, 0.0, 0.0, 1.1e-5, 0.0)
        curve = resample_by_arclength(1000, frame, count)
        bounds = (*curve.thetas, TWO_PI)
        total = arc_length(1000, frame)
        assert total > 2.0**19
        step = total / count
        for a, b in zip(bounds, bounds[1:]):
            assert abs(arc_length(1000, frame, a, b) - step) <= 2e-10 * max(1.0, total)

    def test_equal_arc_gaps_on_seeded_arcs(self, capsys):
        # sample --resample arclength --theta-range: count samples from exactly
        # LO to exactly HI, count - 1 equal arc-length steps apart, as an open
        # curve that the public constructor accepts (curve_from_json).
        rng = random.Random(42)
        for j in range(60):
            frame_text = GOLDEN_FRAME_IDS[j % 4]
            frame = GOLDEN_FRAMES[j % 4]
            n = min(MAX_EXPONENT, round(MAX_EXPONENT ** rng.random()))
            count = (3, 8, 33)[j % 3]
            lo, hi = sorted(rng.uniform(0.0, TWO_PI) for _ in range(2))
            curve = _arclength_arc(capsys, n, frame_text, lo, hi, count)
            assert (curve.thetas[0], curve.thetas[-1], curve.closed, len(curve)) == (lo, hi, False, count)
            total = arc_length(n, frame, lo, hi)
            step = total / (count - 1)
            for a, b in zip(curve.thetas, curve.thetas[1:]):
                assert abs(arc_length(n, frame, a, b) - step) <= 2e-10 * max(1.0, total), (n, frame_text, lo, hi)

    @pytest.mark.parametrize(
        "n, frame_text, lo, hi",
        [
            (7, GOLDEN_FRAME_IDS[0], 0.3, 2.1),
            (372, GOLDEN_FRAME_IDS[1], 1.0, 5.0),
            (10**4, GOLDEN_FRAME_IDS[2], 4.5, TWO_PI),
            (10**5, GOLDEN_FRAME_IDS[3], math.pi / 4.0, 3.0),
        ],
    )
    def test_equal_arc_gaps_on_arcs_against_mpmath(self, capsys, n, frame_text, lo, hi):
        # Each gap integrated by tanh-sinh on every rung of the whole graded
        # ladder, which resolves the 1/(4N) diagonal layer at these N.
        count = 8
        frame = GOLDEN_FRAMES[GOLDEN_FRAME_IDS.index(frame_text)]
        curve = _arclength_arc(capsys, n, frame_text, lo, hi, count)
        assert (curve.thetas[0], curve.thetas[-1], curve.closed) == (lo, hi, False)
        with mpmath.workdps(20):
            gaps = [
                mpmath.quad(lambda t: _mp_speed(t, n, frame), [x for x, _ in _graded_ladder(a, b, n)])
                for a, b in zip(curve.thetas, curve.thetas[1:])
            ]
            total = float(mpmath.fsum(gaps))
            step = total / (count - 1)
            for gap in gaps:
                assert abs(float(gap) - step) <= 2e-10 * max(1.0, total)
        assert abs(arc_length(n, frame, lo, hi) - total) <= 1e-10 * max(1.0, total)

    @pytest.mark.parametrize("n", [1, 2])
    def test_resampled_eighths_against_mpmath(self, n):
        # A rotation of a D4-symmetric curve: the eighths of arc length lie at k*pi/4.
        thetas = resample_by_arclength(n, GOLDEN_FRAMES[1], 8).thetas
        with mpmath.workdps(30):
            for k, theta in enumerate(thetas):
                assert abs(theta - float(k * mpmath.pi / 4)) <= math.ulp(theta)

    @pytest.mark.parametrize("count", [1024, 4096])
    def test_a_flattened_frame_at_the_largest_exponent(self, count):
        # kappa 1e11: next to the diagonal the speed runs from about 1e-11 on
        # the flattened side to about 1, so one ulp of theta there moves the
        # arc length by more than 50 eps of an early target. The samples stop
        # within that ulp's arc and pass the public constructor's checks.
        frame = AffineFrame(1.0, 0.0, 0.0, 0.0, 1e11, 0.0)
        curve = resample_by_arclength(MAX_EXPONENT, frame, count)
        assert len(SampledCurve(curve.thetas, curve.points, True, MAX_EXPONENT, frame)) == count

    def test_a_root_not_found_raises_after_the_step_cap(self):
        panel = (0.0, 1.0, 1.0, (math.nan,) * 15)
        with pytest.raises(QuadratureFailure, match=r"N=3 .* in panel \[0.0, 1.0\] .* after 60 Newton steps"):
            _newton_in_panel(3, IDENTITY, panel, 0.0, 0.5)

    def test_a_newton_step_out_of_the_bracket_bisects(self):
        # One node value 1000 times the rest makes the interpolant swing, so
        # Newton steps leave [lo, hi]; those steps bisect, and the search
        # stops by its rule. Over [0, 1] the series integrates to c[0].
        _, _, _, coefficients = sampling._series((0.0, 1.0, None, (1000.0,) + (1.0,) * 14))
        panel = (0.0, 1.0, coefficients[0], coefficients)
        target = 0.75 * coefficients[0]
        theta = _newton_in_panel(1, IDENTITY, panel, 0.0, target)
        assert theta == pytest.approx(0.0095796, rel=1e-5)
        arc, speed = sampling._legendre_integral(coefficients, 0.0, 1.0, theta)
        assert abs(arc - target) <= sampling._ROUNDING * target + abs(speed) * math.ulp(theta)

    def test_the_step_cap_error_names_n_frame_target_panel_and_steps(self, monkeypatch):
        frame = GOLDEN_FRAMES[3]
        panel = sampling._series(sampling._unfold(_panels(7, frame, 0.0, math.pi, 1e-10), _pieces(0.0, math.pi))[0])
        target = 0.5 * panel[2]
        assert _newton_in_panel(7, frame, panel, 0.0, target) > 0.0
        monkeypatch.setattr(sampling, "_ROOT_STEPS", 1)
        with pytest.raises(QuadratureFailure) as caught:
            _newton_in_panel(7, frame, panel, 0.0, target)
        message = str(caught.value)
        for part in ("N=7 ", repr(frame), f"arc length {target!r}", f"[{panel[0]!r}, {panel[1]!r}]", "after 1 Newton steps"):
            assert part in message
        assert "speed evaluations" not in message

    def test_costs_fewer_speed_evaluations_than_the_bisection_table(self, monkeypatch):
        # 136,804 is what a 4,096-cell table of adaptive Simpson integrals
        # plus bisection inside each cell took for this call.
        calls = _count_speed(monkeypatch)
        resample_by_arclength(1000, count=1024)
        assert calls[0] < 136_804

    @pytest.mark.parametrize("n, count", [(1000, 1024), (7, 10), (2**31 - 1, 64)])
    def test_evaluates_the_speed_only_in_the_quadrature(self, monkeypatch, n, count):
        frame = GOLDEN_FRAMES[2]
        calls = _count_speed(monkeypatch)
        arc_length(n, frame)
        quadrature = calls[0]
        calls[0] = 0
        resample_by_arclength(n, frame, count)
        assert calls[0] == quadrature

    @pytest.mark.parametrize("n", [1, 7, 1000, 2**31 - 1])
    @pytest.mark.parametrize("frame", GOLDEN_FRAMES, ids=GOLDEN_FRAME_IDS)
    def test_samples_half_a_turn_apart_are_pi_apart(self, n, frame):
        # Newton stops each sample within 50 eps of its target in arc length;
        # two such misses, divided by the speed, bound the difference in
        # theta. The worst measured was 0.41 of this bound.
        count = 10
        thetas = resample_by_arclength(n, frame, count).thetas
        floor = 2 * sampling._ROUNDING * arc_length(n, frame)
        for j in range(count // 2):
            bound = floor / curve_speed(thetas[j], n, frame) + 2 * math.ulp(TWO_PI)
            assert abs(thetas[j + count // 2] - thetas[j] - math.pi) <= bound


class TestConvergenceGap:
    def test_circle_gap_is_sqrt2_minus_one(self):
        assert convergence_gap(1) == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-12)

    def test_nonincreasing_in_the_exponent(self):
        gaps = [convergence_gap(2**k) for k in range(11)]
        for a, b in zip(gaps, gaps[1:]):
            assert b <= a + 1e-15

    @pytest.mark.parametrize("frame", SPEED_FRAMES, ids=SPEED_FRAME_IDS)
    def test_error_is_a_few_u_against_mpmath(self, frame):
        # -expm1(-ln 2 / (2N)) * max(|M(1, 1)|, |M(1, -1)|), M the inverse linear part
        worst = 0.0
        with mpmath.workdps(40):
            a, b, _, d, e, _ = (mpmath.mpf(c) for c in frame.coefficients())
            corner = max(mpmath.hypot(e * u - b * v, a * v - d * u) for u, v in ((1, 1), (1, -1))) / abs(a * e - b * d)
            for n in LOG_SPACED + [2]:
                exact = -mpmath.expm1(-mpmath.log(2) / (2 * n)) * corner
                error = abs(convergence_gap(n, frame) - exact) / exact
                worst = max(worst, float(error) / 2.0**-53)
        assert worst <= GAP_ERROR

    @pytest.mark.parametrize("frame", GOLDEN_FRAMES, ids=GOLDEN_FRAME_IDS)
    def test_no_dense_grid_exceeds_the_closed_form(self, frame):
        # The distance from affine_curve_point to limit_map(square_point) on a 2^16
        # grid, which holds the diagonals, reaches the closed form within the
        # rounding of the two points' difference: the most it exceeded it by was 1.3 u * scale.
        thetas = [TWO_PI * k / 2**16 for k in range(2**16)]
        squares = [inverse_affine(square_point(t), frame) for t in thetas]
        scale = max(abs(x) + abs(y) for x, y in squares)
        for n in (1, 3, 100, 10**6):
            gap = convergence_gap(n, frame)
            grid = max(
                math.hypot(px - qx, py - qy)
                for (px, py), (qx, qy) in zip(sample_uniform_theta(n, frame, 2**16).points, squares)
            )
            assert grid <= gap + 4.0 * 2.0**-53 * scale, n
            assert grid == pytest.approx(gap, rel=1e-6), n

    @pytest.mark.parametrize("frame", [IDENTITY, GOLDEN_FRAMES[3]], ids=["identity", GOLDEN_FRAME_IDS[3]])
    @pytest.mark.parametrize("count", [17, 1001, 4095])
    @pytest.mark.parametrize("n", [100, 10**6])
    def test_a_grid_that_misses_the_diagonals_reads_the_closed_form(self, capsys, n, count, frame):
        # Measured on such a grid, gap --n 1000000 --count 4095 once printed
        # 1.57e-16, where the gap is 4.9e-7.
        closed = convergence_gap(n, frame)
        if frame is IDENTITY:
            assert closed == pytest.approx(math.sqrt(2.0) * -math.expm1(-math.log(2.0) / (2 * n)), rel=1e-15)
        frame_text = ",".join(cli.fmt(c) for c in frame.coefficients())
        assert cli.run(["gap", "--n", str(n), "--count", str(count), "--frame", frame_text]) == 0
        assert capsys.readouterr().out == cli.fmt(closed) + "\n"

    def test_matches_the_diagonal_bound(self):
        # the farthest point from the limit square sits on the diagonal,
        # where the distance is sqrt(2) * (1 - 2^(-1/(2N)))
        for n in (10, 1000):
            bound = math.sqrt(2.0) * (1.0 - 2.0 ** (-1.0 / (2.0 * n)))
            gap = convergence_gap(n)
            assert gap <= bound + 1e-12
            assert gap == pytest.approx(bound, rel=1e-6)
        assert convergence_gap(1000) <= 1e-3

    def test_translation_invariant(self):
        frame = AffineFrame(1.0, 0.0, 2.5, 0.0, 1.0, -4.0)
        assert convergence_gap(8, frame) == convergence_gap(8)

    @pytest.mark.parametrize(
        "call",
        [lambda: convergence_gap(3, IDENTITY, 4096), lambda: convergence_gap(3, resolution=16)],
        ids=["positional", "keyword"],
    )
    def test_the_resolution_option_is_gone(self, call):
        with pytest.raises(TypeError):
            call()
        assert not hasattr(sampling, "_MIN_RESOLUTION")


class TestPolylineHausdorff:
    def test_identical_curves_are_at_distance_zero(self):
        curve = sample_uniform_theta(3, count=64)
        assert polyline_hausdorff(curve, curve) == 0.0

    def test_shifted_unit_squares(self):
        a = unit_square()
        b = unit_square(shift=(0.1, 0.0))
        assert polyline_hausdorff(a, b) == pytest.approx(0.1, abs=1e-12)

    def test_square_against_the_circle(self):
        # corner-to-arc distance of the enclosing square is sqrt(2) - 1
        square = [(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)]
        circle = sample_uniform_theta(1, count=2048)
        got = polyline_hausdorff(square, circle)
        assert got == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-4)

    def test_translated_circles_and_triangle_inequality(self):
        base = sample_uniform_theta(1, count=512)
        shifted = {}
        for name, (dx, dy) in {"a": (0.0, 0.0), "b": (3.0, 0.0), "c": (0.0, 4.0)}.items():
            shifted[name] = [(x + dx, y + dy) for x, y in base.points]
        ab = polyline_hausdorff(shifted["a"], shifted["b"])
        ac = polyline_hausdorff(shifted["a"], shifted["c"])
        bc = polyline_hausdorff(shifted["b"], shifted["c"])
        assert ab == pytest.approx(3.0, abs=1e-9)
        assert ac == pytest.approx(4.0, abs=1e-9)
        assert bc == pytest.approx(5.0, abs=1e-9)
        assert ac <= ab + bc + 1e-12

    def test_huge_coordinates_do_not_overflow(self):
        assert polyline_hausdorff([(1e160, 0.0), (0.0, 0.0)], [(0.0, 0.0), (1.0, 1.0)]) == pytest.approx(
            1e160, rel=1e-15
        )
        assert polyline_hausdorff([(1e300, 0.0), (-1e300, 0.0)], [(1e300, 1e300), (-1e300, 1e300)]) == 1e300

    @pytest.mark.parametrize("swapped", [False, True], ids=["a-b", "b-a"])
    @pytest.mark.parametrize("x, expected", [(1e308, math.inf), (8e307, 1.6e308)], ids=["past", "within"])
    def test_a_distance_past_the_double_range_reads_inf(self, x, expected, swapped):
        a, b = [(x, 0.0), (x, 1.0)], [(-x, 0.0), (-x, 1.0)]
        if swapped:
            a, b = b, a
        assert polyline_hausdorff(a, b) == expected

    @pytest.mark.parametrize("unordered", [set, frozenset, dict.fromkeys], ids=["set", "frozenset", "dict"])
    def test_unordered_vertices_are_refused(self, unordered):
        # A set iterates this square in hash order, as a bowtie 0.3535533905932738 from b.
        square = [(0, 0), (1, 0), (1, 1), (0, 1)]
        b = square + [(0, 0.5)]
        assert polyline_hausdorff(square, b) == 0.0
        name = type(unordered(square)).__name__
        for args in ((unordered(square), b), (b, unordered(square))):
            with pytest.raises(ValueError, match=f"must be ordered, got a {name}$"):
                polyline_hausdorff(*args)

    def test_closed_form_against_oracle(self):
        closed_form = sample_uniform_theta(100, count=2048)
        reference = oracle_polyline(100, count=2048)
        assert polyline_hausdorff(closed_form, reference) <= 1e-12

    @given(
        pts=st.lists(
            st.tuples(
                st.floats(min_value=-5.0, max_value=5.0),
                st.floats(min_value=-5.0, max_value=5.0),
            ),
            min_size=2,
            max_size=8,
        ),
        qts=st.lists(
            st.tuples(
                st.floats(min_value=-5.0, max_value=5.0),
                st.floats(min_value=-5.0, max_value=5.0),
            ),
            min_size=2,
            max_size=8,
        ),
    )
    def test_symmetric_and_nonnegative(self, pts, qts):
        d = polyline_hausdorff(pts, qts)
        assert d >= 0.0
        assert d == polyline_hausdorff(qts, pts)
        assert polyline_hausdorff(pts, pts) == 0.0

    @pytest.mark.parametrize(
        "bad, error, message",
        [
            ([(0.0, 0.0)], ValueError, "at least two"),
            ([], ValueError, "at least two"),
            (5, ValueError, "at least two"),
            ([1.0, 2.0], ValueError, "at least two"),
            ([(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)], ValueError, "at least two"),
            ([(0, 0), (1,)], ValueError, None),
            ("abc", ValueError, None),
            ([("a", "b"), (1.0, 2.0)], TypeError, "point coordinate must be a real number"),
            ([(0.0, 0.0), (math.nan, 1.0)], ValueError, "must be finite"),
            ([(0.0, 0.0), (1.0, math.inf)], ValueError, "must be finite"),
        ],
        ids=["one-vertex", "empty", "bare-number", "flat", "three-columns", "ragged",
             "string", "non-numeric", "nan", "inf"],
    )
    def test_rejects_degenerate_input(self, bad, error, message):
        good = [(1.0, 0.0), (2.0, 0.0)]
        for args in ((bad, good), (good, bad)):
            with pytest.raises(error, match=message):
                polyline_hausdorff(*args)


def _all_pairs_directed(pts: np.ndarray, poly: np.ndarray, poly_closed: bool) -> float:
    """Every vertex of pts against every segment of poly, in numpy chunks: the
    reference whose double polyline_hausdorff must match bit for bit."""
    if poly_closed:
        starts = poly
        ends = np.roll(poly, -1, axis=0)
    else:
        starts = poly[:-1]
        ends = poly[1:]
    d = ends - starts
    seg_len2 = np.einsum("ij,ij->i", d, d)
    safe_len2 = np.where(seg_len2 > 0.0, seg_len2, 1.0)

    worst = 0.0
    for lo in range(0, pts.shape[0], 256):
        chunk = pts[lo : lo + 256]
        w = chunk[:, None, :] - starts[None, :, :]
        t = np.einsum("pij,ij->pi", w, d) / safe_len2
        np.clip(t, 0.0, 1.0, out=t)
        diff = w - t[:, :, None] * d[None, :, :]
        dist2 = np.einsum("pij,pij->pi", diff, diff).min(axis=1)
        worst = max(worst, float(dist2.max()))
    return math.sqrt(worst)


def _all_pairs_hausdorff(a, a_closed: bool, b, b_closed: bool) -> float:
    pa = np.asarray(a, dtype=float)
    pb = np.asarray(b, dtype=float)
    return max(_all_pairs_directed(pa, pb, b_closed), _all_pairs_directed(pb, pa, a_closed))


def _random_polyline(rng, size: int, scale: float) -> list[tuple[float, float]]:
    pts = [(rng.uniform(-scale, scale), rng.uniform(-scale, scale)) for _ in range(size)]
    for _ in range(rng.randint(0, 3)):  # repeated vertices make zero-length segments
        k = rng.randrange(len(pts))
        pts.insert(k, pts[k])
    return pts


def _random_walk(rng, size: int, scale: float) -> list[tuple[float, float]]:
    """A wandering polyline of short steps, so that its blocks of segments
    have small bounding boxes."""
    x = y = heading = 0.0
    pts = []
    for _ in range(size):
        heading += rng.gauss(0.0, 0.5)
        x += 0.01 * scale * math.cos(heading)
        y += 0.01 * scale * math.sin(heading)
        pts.append((x, y))
    return pts


def _spokes(rng) -> list[tuple[float, float]]:
    """3 to 12 spokes in the first quadrant, their inner ends at one radius r
    in [0.1, 0.3] and their outer ends 1.5 to 3 r out, joined end to end and
    reversed half the time. Each inner end is the point nearest the origin on
    two segments, one that starts there and one that ends there, and the two
    computed distances from the origin round apart."""
    pts = []
    inner = rng.uniform(0.1, 0.3)
    for _ in range(rng.randint(3, 12)):
        angle = rng.uniform(0.05, QUARTER - 0.05)
        outer = inner * rng.uniform(1.5, 3.0)
        pts += [(inner * math.cos(angle), inner * math.sin(angle)),
                (outer * math.cos(angle), outer * math.sin(angle))]
    return pts[::-1] if rng.random() < 0.5 else pts


def _scaled(*polylines):
    """polyline_hausdorff's exponent e and the polylines scaled by 2^-e, all
    coordinates then below 1 in magnitude."""
    exponent = math.frexp(max(abs(c) for p in polylines for point in p for c in point))[1]
    return exponent, [[(math.ldexp(x, -exponent), math.ldexp(y, -exponent)) for x, y in p] for p in polylines]


def _directed(pts, poly, closed: bool) -> float:
    """The directed distance of sampling._directed_hausdorff, which takes
    flat coordinate lists below 1 in magnitude, on the polylines scaled and
    the result scaled back, which is exact at these tests' scales."""
    exponent, (pts, poly) = _scaled(pts, poly)
    return math.ldexp(math.sqrt(sampling._directed_hausdorff(*zip(*pts), *zip(*poly), closed)), exponent)


def _random_arc(rng, n: int, frame: AffineFrame) -> SampledCurve:
    thetas = sorted({rng.uniform(0.0, TWO_PI) for _ in range(rng.randint(3, 40))})
    points = tuple(affine_curve_point(t, n, frame) for t in thetas)
    return SampledCurve(tuple(thetas), points, rng.random() < 0.5, n, frame)


class TestHausdorffMatchesTheAllPairsScan:
    """polyline_hausdorff returns the all-pairs scan's double, compared with ==."""

    def test_seeded_random_closed_pairs(self):
        rng = random.Random(4)
        for _ in range(400):
            scale = 10.0 ** rng.uniform(-6.0, 3.0)
            a = _random_polyline(rng, rng.randint(2, 40), scale)
            b = _random_polyline(rng, rng.randint(2, 40), scale)
            assert polyline_hausdorff(a, b) == _all_pairs_hausdorff(a, True, b, True)

    def test_seeded_random_open_scans(self):
        # Plain sequences are always closed, so the open case is checked one
        # direction at a time, and through open SampledCurve arcs below.
        rng = random.Random(5)
        for _ in range(400):
            scale = 10.0 ** rng.uniform(-6.0, 3.0)
            a = _random_polyline(rng, rng.randint(2, 40), scale)
            b = _random_polyline(rng, rng.randint(2, 40), scale)
            closed = rng.random() < 0.5
            assert _directed(a, b, closed) == _all_pairs_directed(np.asarray(a), np.asarray(b), closed)

    def test_seeded_open_and_closed_arcs(self):
        rng = random.Random(6)
        for frame in GOLDEN_FRAMES:
            for n in (1, 3, 50):
                a, b = _random_arc(rng, n, frame), _random_arc(rng, n + 1, frame)
                want = _all_pairs_hausdorff(a.points, a.closed, b.points, b.closed)
                assert polyline_hausdorff(a, b) == want

    def test_repeated_vertices(self):
        square = [(0.0, 0.0), (0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        dot = [(0.5, 2.0), (0.5, 2.0)]
        for a, b in ((square, dot), (dot, square), (dot, dot), (square, square[::-1])):
            assert polyline_hausdorff(a, b) == _all_pairs_hausdorff(a, True, b, True)

    def test_numpy_array_input(self):
        rng = random.Random(7)
        a = np.asarray(_random_polyline(rng, 30, 2.0))
        b = np.asarray(_random_polyline(rng, 17, 2.0))
        assert polyline_hausdorff(a, b) == _all_pairs_hausdorff(a, True, b, True)
        assert polyline_hausdorff(a, b.tolist()) == polyline_hausdorff(a.tolist(), b)

    def test_long_polylines_reach_the_blocks(self):
        # At 1,000 segments and more the scan skips whole blocks by their boxes.
        rng = random.Random(8)
        for _ in range(6):
            scale = 10.0 ** rng.uniform(-6.0, 3.0)
            for poly in (_random_walk(rng, rng.randint(1000, 1500), scale),
                         _random_polyline(rng, 1000, scale)):
                near = [(x + rng.gauss(0.0, 1e-3 * scale), y + rng.gauss(0.0, 1e-3 * scale))
                        for x, y in rng.sample(poly, 300)]
                pts = near + _random_walk(rng, 60, scale)
                for closed in (False, True):
                    got = _directed(pts, poly, closed)
                    assert got == _all_pairs_directed(np.asarray(pts), np.asarray(poly), closed)

    @pytest.mark.parametrize("scale", [1e-6, 0.3, 1e3])
    def test_ties_across_blocks_and_a_box_at_the_nearest_distance(self, scale):
        # Two runs of 500 segments at y = h and y = -h, both left to right and
        # in blocks far apart: a vertex on y = 0 is the same double from a
        # segment of each, and the box of the block it meets second lies
        # exactly sqrt(nearest) away. The rest of the polyline keeps off y = 0.
        xs = [scale * (k / 250.0 - 1.0) for k in range(501)]
        h = scale / 8.0
        s = scale
        poly = ([(x, h) for x in xs] + [(3 * s, h), (3 * s, -3 * s), (-3 * s, -3 * s)]
                + [(x, -h) for x in xs] + [(5 * s, -h), (5 * s, 5 * s), (-5 * s, 5 * s), (-5 * s, h)])
        pts = [(x, 0.0) for x in xs[::7]] + [(0.5 * (a + b), 0.0) for a, b in zip(xs[::9], xs[1::9])]
        pts += [(x, 0.25 * h) for x in xs[3::11]]
        for closed in (False, True):
            got = _directed(pts, poly, closed)
            assert got == _all_pairs_directed(np.asarray(pts), np.asarray(poly), closed)

    def test_spokes_whose_inner_ends_round_two_ways(self):
        # The inner ends' computed distances from the origin tie within an
        # ulp. A block whose box corner is an inner end v can lie farther
        # than the nearest so far, from another inner end, and still hold
        # the segment ending at v, which computes an ulp nearer: without the
        # box padding the scan skips that block and returns an ulp more.
        rng = random.Random(1)
        for _ in range(5000):
            poly = _spokes(rng)
            want = _all_pairs_hausdorff([(0.0, 0.0)] + poly, True, poly, True)
            assert polyline_hausdorff([(0.0, 0.0)] + poly, poly) == want

    @pytest.mark.parametrize("scale", [1e-310, 1e-300, 1e-160, 1e150, 1e300, "tiny against unit"])
    def test_extreme_scales(self, scale):
        # Unscaled, the reference's squares underflow or overflow, so it
        # runs on both polylines scaled by polyline_hausdorff's power of two.
        rng = random.Random(repr(scale))
        for _ in range(200):
            if scale == "tiny against unit":
                tiny = rng.choice([1e-310, 1e-300, 1e-160, 1e-20])
                a = _random_polyline(rng, rng.randint(2, 40), tiny)
                b = _random_polyline(rng, rng.randint(2, 40), 1.0)
                a, b = (b, a) if rng.random() < 0.5 else (a, b)
            else:
                a = _random_polyline(rng, rng.randint(2, 40), scale)
                b = _random_polyline(rng, rng.randint(2, 40), scale)
            exponent, (scaled_a, scaled_b) = _scaled(a, b)
            want = math.ldexp(_all_pairs_hausdorff(scaled_a, True, scaled_b, True), exponent)
            assert polyline_hausdorff(a, b) == want

    @pytest.mark.parametrize("frame", GOLDEN_FRAMES, ids=GOLDEN_FRAME_IDS)
    @pytest.mark.parametrize("n", [1, 2, 7, 100, 10**4, 10**6, MAX_EXPONENT])
    def test_closed_form_against_the_oracle(self, n, frame, monkeypatch):
        # At count 1024, as oracle-diff sends it, a record vertex scans whole
        # blocks of 32 segments.
        scanned = set()
        scan = sampling._scan

        def recording_scan(px, py, qx, qy, lo, hi, worst, nearest):
            scanned.add(hi - lo)
            return scan(px, py, qx, qy, lo, hi, worst, nearest)

        monkeypatch.setattr(sampling, "_scan", recording_scan)
        for count in (16, 97, 256, 1024) if n >= 10**6 else (16, 97, 256):
            closed_form = sample_uniform_theta(n, frame, count)
            reference = oracle_polyline(n, frame, count)
            want = _all_pairs_hausdorff(closed_form.points, True, reference.points, True)
            assert polyline_hausdorff(closed_form, reference) == want
        if n >= 10**6:
            assert 32 in scanned


class TestRadialNesting:
    def test_doubling_never_shrinks_anywhere(self):
        pairs = [(2**k, 2**(k + 1)) for k in range(8)]
        for small, big in pairs:
            for k in range(256):
                theta = TWO_PI * k / 256.0
                assert radial_factor(theta, big) >= radial_factor(theta, small) - 1e-15

    def test_strict_growth_on_the_diagonal(self):
        for small, big in [(1, 2), (4, 8), (64, 128)]:
            assert radial_factor(math.pi / 4.0, big) > radial_factor(math.pi / 4.0, small)
