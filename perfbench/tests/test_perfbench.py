"""Tests of the benchmark itself: request generation, metric names, the
failure classifier and the references the output checks rest on.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import math
import signal
import sys
from collections import Counter
from itertools import islice
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402


def _cycles(workload: str, seed: int, k: int = 2):
    return [list(c) for c in islice(wl.Generator(workload, seed).cycles(), k)]


def _kinds(cycles) -> Counter:
    return Counter(getattr(r, "func", None) or r.params["kind"] for c in cycles for r in c)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_gives_same_requests(workload):
    assert _cycles(workload, 7) == _cycles(workload, 7)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_other_seed_gives_other_requests_with_the_same_mix(workload):
    a, b = _cycles(workload, 7), _cycles(workload, 8)
    assert a != b
    assert _kinds(a) == _kinds(b)


def test_exponents_cover_the_whole_range_in_every_band():
    n = [r.n for r in next(wl.Generator("point-query", 1).cycles())]
    assert min(n) >= 1 and max(n) <= wl.MAX_EXPONENT
    bands = Counter(min(3, int(4 * math.log(k) / math.log(wl.MAX_EXPONENT))) for k in n)
    # Truncating exp(u) to an integer may move a draw across a band edge.
    assert sorted(bands) == [0, 1, 2, 3] and max(bands.values()) - min(bands.values()) <= 4


def _benchmark_names():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in bench["end_to_end"]}, {m["name"] for m in bench["per_layer"]}


def _fake_result(trace: bool) -> dict:
    result = {
        "attempted": 10, "successes": 8, "work": 80, "work_unit": "points", "timed_s": 1.0,
        "outcomes": {"ok": 8, "exit_nonzero": 1, "deadline": 1},
        "latency_s": {"p50": 0.01, "p90": 0.02}, "setup_s": 0.3, "setup_samples": 5,
        "peak_rss_mb": 40.0, "nondeterministic": 0,
        "speed": {"loop_median_s": 0.002, "loop_samples": 3, "nominal_s": 0.002}, "unexplained": 0, "errors": [],
        "env": {"python": "3", "numpy": "2", "nproc": 2, "cpu": "cpu"},
    }
    if trace:
        result["layers"] = {k: list(v) for k, v in tracer.Tracer({}).metrics().items()}
        result["overhead_ratio"] = 1.5
    return result


@pytest.mark.parametrize("trace", [0, 1])
def test_every_printed_metric_is_declared(trace, capsys):
    args = SimpleNamespace(seed=1, seconds=1.0, trace=trace)
    line = run.report("bulk-sample", args, _fake_result(bool(trace)))
    e2e, layers = _benchmark_names()
    assert set(line["metrics"]) == (layers if trace else e2e)
    printed = {tok for row in capsys.readouterr().out.splitlines() for tok in row.split()[1:2]}
    assert printed - {"workload"} <= e2e | layers
    assert line["failed"] == 2 and line["attempted"] == 10 and line["correct"] is True


def test_classifier_on_tiny_cases():
    never = lambda: pytest.fail("no output check for a request that did not exit 0")  # noqa: E731
    assert worker.classify(wl.EXPECT_INVALID, 2, never) == (worker.REJECTED, "")
    assert worker.classify(wl.EXPECT_INVALID, 0, never)[0] == "wrong_exit"
    assert worker.classify(wl.EXPECT_OK, 2, never)[0] == "exit_nonzero"
    assert worker.classify(wl.EXPECT_OK, 0, lambda: "bad vertex")[0] == "wrong_output"
    assert worker.classify(wl.EXPECT_OK, 0, lambda: "") == (worker.OK, "")
    assert worker.classify(wl.EXPECT_ANY, 3, never) == (worker.REJECTED, "")
    assert worker.classify(wl.EXPECT_OK, None, never)[0] == "deadline"


def test_invalid_exponent_expects_exit_2_and_gets_it():
    mods = worker.import_program()
    req = next(r for r in _cycles("bulk-sample", 3, 1)[0] if r.params["kind"] == "invalid/exponent")
    code, out, _, _ = worker.run_cli(mods["cli"], req.argv, 5.0)
    assert (code, out) == (2, b"")
    assert worker.classify(req.expect, code, None) == (worker.REJECTED, "")


def test_a_runaway_request_counts_as_deadline():
    def spin(argv):
        while True:
            pass

    old = signal.signal(signal.SIGALRM, worker._on_alarm)
    try:
        code, _, _, elapsed = worker.run_cli(SimpleNamespace(run=spin), ["x"], 0.05)
    finally:
        signal.signal(signal.SIGALRM, old)
    assert code is None and 0.04 <= elapsed < 1.0
    assert worker.classify(wl.EXPECT_OK, code, None)[0] == "deadline"


def test_the_evaluation_budget_stops_the_same_request_every_time():
    mods = worker.import_program()
    cli, core = mods["cli"], mods["core"]
    argv = ["arclength", "--n", "3", "--tol", "1e-10"]
    budget = worker.EvalBudget(core, 10**6)
    try:
        code, out, _, _ = worker.run_cli(cli, argv, 5.0, budget)
        used = budget.limit - budget.left
        assert code == 0 and out and used > 100
        budget.limit = used
        assert worker.run_cli(cli, argv, 5.0, budget)[:2] == (code, out)
        budget.limit = used - 1
        for _ in range(2):
            assert worker.run_cli(cli, argv, 5.0, budget)[0] is None
    finally:
        budget.uninstall()
    assert core.curve_speed is mods["fermatcurves"].curve_speed


def test_float64_arc_reference_matches_mpmath_and_the_ellipse():
    readme = wl.parse_frame(wl.FRAMES[2])
    for n, lo, hi in ((3, 0.0, wl.TWO_PI), (10**9, 0.3, 2.0)):
        assert checks.arc_ref(n, readme, lo, hi) == pytest.approx(checks.mp_arc(n, readme, lo, hi), rel=1e-14)
    assert checks.arc_ref(1, readme, 0.0, wl.TWO_PI) == pytest.approx(checks.ellipse_perimeter(readme), rel=1e-14)


def test_vertex_check_catches_a_perturbed_vertex():
    mods = worker.import_program()
    lib = SimpleNamespace(curve_from_json=mods["cli"].curve_from_json,
                          affine_curve_point=mods["core"].affine_curve_point,
                          AffineFrame=mods["core"].AffineFrame)
    req = wl.Request(1, ("sample", "--n", "50", "--frame", wl.FRAMES[3], "--count", "64"), wl.EXPECT_OK, 64,
                     {"command": "sample", "n": 50, "frame": wl.FRAMES[3], "count": 64, "fmt": "csv"})
    code, out, _, _ = worker.run_cli(mods["cli"], req.argv, 5.0)
    assert code == 0
    checks.check_cli(req, out, lib)
    lines = out.decode().split("\n")
    theta, x, y = lines[5].split(",")
    lines[5] = f"{theta},{checks.fmt(float(x) + 1e-12)},{y}"
    with pytest.raises(checks.CheckFailed):
        checks.check_cli(req, "\n".join(lines).encode(), lib)


def test_an_arc_length_tolerance_miss_is_a_known_defect():
    mods = worker.import_program()
    frame = "0.8,-0.6,0,0.6,0.8,0"
    req = wl.Request(1, ("arclength", "--n", "372", "--frame", frame, "--tol", "1e-6"), wl.EXPECT_OK, 1,
                     {"command": "arclength", "n": 372, "frame": frame, "tol": 1e-6, "lo": 0.0, "hi": wl.TWO_PI})
    code, out, _, _ = worker.run_cli(mods["cli"], req.argv, 5.0)
    assert code == 0
    with pytest.raises(checks.CheckFailed) as caught:
        checks.check_cli(req, out, None)
    assert caught.value.known == "arc_length misses tol"
    with pytest.raises(checks.CheckFailed) as caught:
        checks.check_cli(req, b"7.9\n", None)
    assert caught.value.known is None


def test_speed_samples_the_reference_loop_only_when_due():
    sp = speed.Speed(every=0.1)
    assert len(sp.samples) == 3
    sp.factor()
    sp.spent(0.05)
    sp.factor()
    assert len(sp.samples) == 3
    sp.spent(0.06)
    scale = sp.factor()
    assert len(sp.samples) == 4
    assert scale == pytest.approx(speed.NOMINAL_S / sorted(sp.samples[-3:])[1])
