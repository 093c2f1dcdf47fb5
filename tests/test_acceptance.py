"""Acceptance suite: one test per shipping criterion, one verdict line each.

Every test prints exactly one line of the form

    ACCEPTANCE <k> <name>: PASS|FAIL

before asserting, so the verdicts are visible in the pytest report. The
tolerances are the shipping contract and must not be loosened; derived
expected values were confirmed against the bisection oracle and against an
independent chordal arc-length recomputation before being pinned.
"""

import math
import os
import random
import subprocess
import sys
import time
import xml.etree.ElementTree as ET

import numpy as np

import fermatcurves
from fermatcurves import (
    TWO_PI,
    AffineFrame,
    affine_curve_point,
    arc_length,
    bisect_radial_factor,
    convergence_gap,
    curve_point,
    curve_velocity,
    forward_affine,
    oracle_polyline,
    polyline_hausdorff,
    radial_factor,
    residual_log,
    sample_uniform_theta,
)
from fermatcurves.cli import curve_from_json, emit_json
from helpers import random_frame


def _verdict(index: int, name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {index} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {index} ({name}) failed: {detail}"


def _cli(*argv: str) -> subprocess.CompletedProcess:
    # The child imports the same package as this process, installed or not.
    src = os.path.dirname(os.path.dirname(fermatcurves.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    cmd = [sys.executable, "-m", "fermatcurves.cli", *argv]
    return subprocess.run(
        cmd, capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path}
    )


def test_criterion_1_stable_residuals_on_a_dense_grid():
    exponents = list(range(1, 11)) + [100, 10**4, 10**6]
    started = time.perf_counter()
    worst = 0.0
    for n in exponents:
        for k in range(1024):
            theta = (TWO_PI * k) / 1024.0
            worst = max(worst, abs(residual_log(curve_point(theta, n), n)))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 1.0
    _verdict(1, "grid residuals below 1e-9 in under a second", ok,
             f"worst residual {worst:.3e}, elapsed {elapsed:.3f}s")


def test_criterion_2_diagonal_matches_the_closed_form():
    worst = 0.0
    for n in (1, 2, 5, 100, 10**6):
        expected = 2.0 ** ((n - 1) / (2.0 * n))
        worst = max(worst, abs(radial_factor(math.pi / 4.0, n) - expected))
    _verdict(2, "diagonal radius within 1e-13 of 2^((N-1)/(2N))", worst <= 1e-13,
             f"worst deviation {worst:.3e}")


def test_criterion_3_curves_nest_as_the_exponent_grows():
    ok = True
    detail = ""
    for k in range(10):
        small, big = 2**k, 2 ** (k + 1)
        for j in range(512):
            theta = (TWO_PI * j) / 512.0
            lo = radial_factor(theta, small)
            hi = radial_factor(theta, big)
            if hi < lo - 1e-15:
                ok = False
                detail = f"rho({theta!r}, {big}) < rho({theta!r}, {small})"
        if not radial_factor(math.pi / 4.0, big) > radial_factor(math.pi / 4.0, small):
            ok = False
            detail = f"no strict growth on the diagonal at N={small}->{big}"
    _verdict(3, "radial nesting, nondecreasing with strict diagonal growth", ok, detail)


def test_criterion_4_closed_form_agrees_with_the_bisection_oracle():
    worst_rho = 0.0
    for n in list(range(1, 11)) + [100]:
        for k in range(256):
            theta = (TWO_PI * k) / 256.0
            worst_rho = max(
                worst_rho, abs(radial_factor(theta, n) - bisect_radial_factor(theta, n))
            )
    worst_h = 0.0
    for n in (1, 5, 100):
        closed_form = sample_uniform_theta(n, count=2048)
        reference = oracle_polyline(n, count=2048)
        worst_h = max(worst_h, polyline_hausdorff(closed_form, reference))
    ok = worst_rho <= 1e-12 and worst_h <= 1e-9
    _verdict(4, "bisection oracle equivalence", ok,
             f"worst radius gap {worst_rho:.3e}, worst Hausdorff {worst_h:.3e}")


def _chordal_reference_length(n: int, segments: int) -> float:
    theta = np.arange(segments + 1) * (TWO_PI / segments)
    c = np.abs(np.cos(theta))
    s = np.abs(np.sin(theta))
    m = np.maximum(c, s)
    r = np.minimum(c, s) / m
    with np.errstate(divide="ignore"):
        logr = np.log(r)
    power = np.exp(2.0 * n * logr)
    rho = np.exp(-np.log1p(power) / (2.0 * n)) / m
    x = rho * np.cos(theta)
    y = rho * np.sin(theta)
    return float(np.hypot(np.diff(x), np.diff(y)).sum())


def test_criterion_5_arc_lengths_grow_toward_the_square_perimeter():
    circumference = arc_length(1)
    lengths = [circumference] + [arc_length(2**k) for k in range(1, 13)]
    monotone = all(b > a for a, b in zip(lengths, lengths[1:]))
    bounded = all(value < 8.0 for value in lengths)
    big = arc_length(10**4)
    reference = _chordal_reference_length(10**4, 10**6)
    ok = (
        abs(circumference - TWO_PI) <= 1e-8
        and monotone
        and bounded
        and big >= 7.99
        and abs(big - reference) <= 1e-5
    )
    _verdict(5, "arc length 2*pi at N=1, increasing, bounded by 8", ok,
             f"L(1)={circumference!r}, L(1e4)={big!r}, chordal={reference!r}")


def test_criterion_6_affine_frames_preserve_the_parameterization():
    rng = random.Random(777)
    frames = [random_frame(rng, -3.0, 3.0, 0.5) for _ in range(100)]
    worst_push = 0.0
    worst_res = 0.0
    for frame in frames:
        theta = rng.uniform(0.0, TWO_PI)
        n = rng.choice([1, 2, 3, 5, 7, 10, 100, 1000, 10000])
        canonical = curve_point(theta, n)
        p = affine_curve_point(theta, n, frame)
        u, v = forward_affine(p, frame)
        worst_push = max(worst_push, math.hypot(u - canonical[0], v - canonical[1]))
        worst_res = max(worst_res, abs(residual_log(p, n, frame)))
    ok = worst_push <= 1e-12 and worst_res <= 1e-9
    _verdict(6, "100 seeded frames: pushforward 1e-12, residual 1e-9", ok,
             f"worst pushforward {worst_push:.3e}, worst residual {worst_res:.3e}")


def test_criterion_7_convergence_gap_to_the_square():
    gap_one = convergence_gap(1)
    gaps = [gap_one] + [convergence_gap(2**k) for k in range(1, 11)]
    nonincreasing = all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))
    ok = (
        abs(gap_one - (math.sqrt(2.0) - 1.0)) <= 1e-6
        and nonincreasing
        and convergence_gap(1000) <= 1e-3
    )
    _verdict(7, "gap sqrt(2)-1 at N=1, shrinking, below 1e-3 by N=1000", ok,
             f"gap(1)={gap_one!r}, gap(1000)={convergence_gap(1000)!r}")


def test_criterion_8_velocity_matches_central_differences():
    rng = random.Random(20250819)
    h = 1e-6
    worst = 0.0
    for _ in range(64):
        theta = rng.uniform(0.0, TWO_PI)
        n = rng.randint(1, 50)
        vx, vy = curve_velocity(theta, n)
        ax, ay = curve_point(theta + h, n)
        bx, by = curve_point(theta - h, n)
        fx, fy = (ax - bx) / (2.0 * h), (ay - by) / (2.0 * h)
        worst = max(worst, math.hypot(vx - fx, vy - fy) / math.hypot(vx, vy))
    _verdict(8, "analytic velocity within 1e-6 of finite differences", worst <= 1e-6,
             f"worst relative error {worst:.3e}")


def test_criterion_9_cli_contract():
    checks = []

    sample = _cli("sample", "--n", "1", "--count", "4", "--format", "csv")
    rows = sample.stdout.splitlines()
    checks.append(sample.returncode == 0)
    checks.append(rows[0] == "theta,x,y")
    checks.append(rows[1] == "0,1,0")
    checks.append(rows[2] == "1.5707963267948966,6.123233995736766e-17,1")

    length = _cli("arclength", "--n", "1")
    checks.append(length.returncode == 0)
    checks.append(length.stdout == "6.283185307179586\n")

    singular = _cli("sample", "--n", "2", "--frame", "1,2,0,2,4,0")
    checks.append(singular.returncode == 2)
    checks.append("singular frame" in singular.stderr)

    again = _cli("sample", "--n", "1", "--count", "4", "--format", "csv")
    checks.append(again.stdout == sample.stdout)

    as_json = _cli("sample", "--n", "3", "--count", "16", "--format", "json")
    rebuilt = emit_json(curve_from_json(as_json.stdout)).decode("ascii")
    checks.append(rebuilt == as_json.stdout)

    family = _cli("svg", "--n", "5", "--count", "64")
    root = ET.fromstring(family.stdout)
    paths = [child for child in root if child.tag.endswith("path")]
    checks.append(family.returncode == 0)
    checks.append(len(paths) == 5)

    _verdict(9, "CLI byte contract, round trips, and exit codes", all(checks),
             f"subchecks {checks}")
