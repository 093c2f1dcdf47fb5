"""Runs one workload in a fresh process and prints its measurements as JSON.

Started by ``run.py``; not meant to be run by hand. It imports the program
from the checkout's ``src/``, makes one warm-up call, prints ``READY`` (the
parent times set-up up to that line), then drives the workload in a closed
loop with one request outstanding for a fixed number of whole request cycles,
about ``--seconds`` of CPU time, and until at least 100 requests have
succeeded. The last line of its standard output is one JSON object.

Requests are timed in CPU time of this single-threaded process
(``time.process_time``), not in wall time: on a shared virtual machine the
wall clock also counts the time other tenants hold the CPU, which comes in
bursts that moved runs by 20-35%. Scalar calls of ``point-query`` are
a few microseconds each, too short for a burst to land in more than a few of
them, so their latencies use ``perf_counter``; their throughput uses CPU time.
Every timed interval is then scaled to a fixed reference speed of the host
(``speed.py``), which takes out the host's swings in speed.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import signal
import sys
import traceback
from array import array
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, process_time
from types import SimpleNamespace

import workloads as wl
from speed import Speed

ROOT = Path(__file__).resolve().parent.parent
MIN_SUCCESSES = 100
LOOP_CAP_S = 75.0  # the timed loop ends here even if the floors are not met
# A run is a fixed number of whole cycles, not a fixed time, so that a seed
# sends the same requests on every run and every commit, and its failures
# repeat exactly. The count is --seconds over these CPU seconds per cycle,
# rounded up: what one cycle took on the 2-vCPU Xeon host of README.md.
CYCLE_CPU_S = {"bulk-sample": 1.0, "arclength": 25.0, "oracle-diff": 13.0, "point-query": 0.024}
RERUN_EVERY = 8  # every 8th success is run again to check identical bytes
# Per-request deadlines in wall seconds, far above the slowest request that
# completes. On arclength, where request cost runs on smoothly from
# milliseconds to minutes with N, the deadline is a budget of curve_speed
# evaluations (about 0.4 s of work), which stops the same requests on
# every run; the wall-clock deadline there is only a backstop that a request
# within its budget never reaches. The clock deadline uses ITIMER_REAL: a
# CPU-time timer would make the process CPU clock tick-grained while armed.
DEADLINE_S = {"bulk-sample": 2.0, "arclength": 10.0, "oracle-diff": 5.0, "point-query": 1.0}
# Nearly all requests that complete need under 30,000 evaluations; the
# count is the same on every run, so a request near the budget cannot flip.
EVAL_BUDGET = {"arclength": 35_000}
REPLAY_DEADLINE_FACTOR = 20.0  # traced replays of completed requests get this much more
WORK_UNIT = {"bulk-sample": "points", "arclength": "requests", "oracle-diff": "vertices",
             "point-query": "calls"}
WARM_UP = ["sample", "--n", "3", "--count", "16"]

OK, REJECTED = "ok", "rejected"


class DeadlineExceeded(BaseException):
    """Raised inside a request that ran past its deadline or its evaluation budget."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded


class EvalBudget:
    """Counts ``core.curve_speed`` calls and stops a request that makes too many.

    The wrapper replaces the module attribute that ``sampling`` looks up, so
    every arc-length integrand evaluation counts. Unlike a clock, the count is
    the same on every run, so the requests it stops are too.
    """

    def __init__(self, core, limit: int):
        self.limit = limit
        self.left = limit
        self._core = core
        self._original = core.curve_speed
        original, budget = self._original, self

        def curve_speed(*args, **kwargs):
            budget.left -= 1
            if budget.left < 0:
                raise DeadlineExceeded
            return original(*args, **kwargs)

        core.curve_speed = curve_speed

    def reset(self) -> None:
        self.left = self.limit

    def uninstall(self) -> None:
        self._core.curve_speed = self._original


def import_program():
    """Import fermatcurves from the checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "fermatcurves" / "__init__.py").is_file():
        sys.exit(f"error: no program to measure: {src / 'fermatcurves'} is missing")
    sys.path.insert(0, str(src))
    import fermatcurves
    from fermatcurves import cli, core, oracle, sampling

    if Path(fermatcurves.__file__).resolve().parent != (src / "fermatcurves").resolve():
        sys.exit(f"error: imported fermatcurves from {fermatcurves.__file__}, not from {src}")
    return {"fermatcurves": fermatcurves, "core": core, "sampling": sampling,
            "oracle": oracle, "cli": cli}


def run_cli(cli, argv, deadline: float, budget: EvalBudget | None = None):
    """One in-process CLI invocation with captured streams, a wall-clock
    deadline and, if given, an evaluation budget.

    Returns (exit code or None on deadline, stdout bytes, stderr text, CPU seconds).
    """
    out, err = io.StringIO(), io.StringIO()
    code = None
    if budget is not None:
        budget.reset()
    t0 = process_time()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            t0 = process_time()
            signal.setitimer(signal.ITIMER_REAL, deadline)
            try:
                code = cli.run(list(argv))
            except Exception:  # an uncaught exception ends the real process with exit 1
                traceback.print_exc()
                code = 1
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        signal.setitimer(signal.ITIMER_REAL, 0)
        code = None
    elapsed = process_time() - t0
    return code, out.getvalue().encode("ascii", "replace"), err.getvalue(), elapsed


def classify(expect: str, code, check) -> tuple[str, str]:
    """Outcome of one request: ok, rejected (an expected refusal) or a failure kind.

    ``check`` is called for an exit-0 valid request and returns an error
    message, or "" when the output is right.
    """
    if code is None:
        return "deadline", "deadline exceeded"
    if expect == wl.EXPECT_INVALID:
        return (REJECTED, "") if code == 2 else ("wrong_exit", f"invalid request exited {code}")
    if expect == wl.EXPECT_ANY:
        if code == 0:
            return OK, ""
        return (REJECTED, "") if code in (2, 3) else ("wrong_exit", f"exited {code}")
    if code != 0:
        return "exit_nonzero", f"valid request exited {code}"
    message = check()
    return (OK, "") if not message else ("wrong_output", message)


class Thinned:
    """Latency samples in bounded memory: a systematic subsample of the stream."""

    CAP = 1 << 17

    def __init__(self):
        self.values = array("d")
        self.stride = 1
        self.seen = 0

    def extend(self, values) -> None:
        if self.stride == 1 and len(self.values) + len(values) < self.CAP:
            self.values.extend(values)
            self.seen += len(values)
            return
        for v in values:
            if self.seen % self.stride == 0:
                self.values.append(v)
            self.seen += 1
            if len(self.values) >= self.CAP:
                self.values = self.values[::2]
                self.stride *= 2


class Stats:
    def __init__(self):
        self.outcomes: Counter = Counter()
        self.work = 0
        self.timed_s = 0.0  # scaled to the reference speed
        self.latency = Thinned()
        self.nondeterministic = 0
        self.unexplained = 0  # wrong exits and outputs that no known defect explains
        self.first_errors: list[str] = []

    @property
    def attempted(self) -> int:
        return sum(self.outcomes.values())

    def note(self, outcome: str, message: str, what: str) -> None:
        self.outcomes[outcome] += 1
        if message and outcome != REJECTED and self.outcomes[outcome] <= 2:
            self.first_errors.append(f"{outcome}: {what}: {message}")


def _digest(code, out: bytes) -> bytes:
    return hashlib.sha256(repr(code).encode() + b"\0" + out).digest()


class Runner:
    def __init__(self, workload: str, seed: int, seconds: float, modules, trace: bool = False):
        self.workload = workload
        self.trace = trace
        self.seed = seed
        self.cycles = max(1, math.ceil(seconds / CYCLE_CPU_S[workload]))
        self.mods = modules
        self.deadline = DEADLINE_S[workload]
        self.budget = None  # an EvalBudget while the CLI workloads run
        self.speed = Speed()
        self.stats = Stats()
        self.log = []  # (request, digest, seconds or None on deadline), for the traced replay

    def _done(self, cycles_run: int, loop_start: float) -> bool:
        floors = cycles_run >= self.cycles and self.stats.latency.seen >= MIN_SUCCESSES
        return floors or perf_counter() - loop_start > LOOP_CAP_S

    # ------------------------------------------------------------ CLI workloads

    def run_requests(self) -> None:
        import checks

        cli = self.mods["cli"]
        lib = self.mods["fermatcurves"]
        lib_ns = SimpleNamespace(curve_from_json=cli.curve_from_json,
                                 affine_curve_point=lib.affine_curve_point, AffineFrame=lib.AffineFrame)
        stats = self.stats
        loop_start = perf_counter()
        for cycles_run, cycle in enumerate(wl.Generator(self.workload, self.seed).cycles(), 1):
            for req in cycle:
                scale = self.speed.factor()
                code, out, err, raw = run_cli(cli, req.argv, self.deadline, self.budget)
                self.speed.spent(raw)
                dt = raw * scale
                stats.timed_s += dt

                def check():
                    try:
                        checks.check_cli(req, out, lib_ns)
                    except checks.CheckFailed as exc:
                        if exc.known:
                            return f"{exc} [known defect: {exc.known}]"
                        stats.unexplained += 1
                        return str(exc)
                    return ""

                outcome, message = classify(req.expect, code, check)
                if outcome == REJECTED and out:
                    outcome, message = "wrong_output", "a refused request wrote to stdout"
                    stats.unexplained += 1
                elif outcome == "wrong_exit":
                    stats.unexplained += 1
                stats.note(outcome, message or err.strip()[-200:], " ".join(req.argv))
                self.log.append((req, _digest(code, out), None if code is None else dt))
                if outcome == OK:
                    stats.work += req.work
                    stats.latency.extend((dt,))
                    if stats.latency.seen % RERUN_EVERY == 0:
                        again = run_cli(cli, req.argv, self.deadline * REPLAY_DEADLINE_FACTOR, self.budget)
                        if again[0] != code or again[1] != out:
                            stats.nondeterministic += 1
                            stats.first_errors.append("nondeterministic: " + " ".join(req.argv))
            if self._done(cycles_run, loop_start):
                break

    def replay_requests(self, tracer) -> float:
        """Run the logged requests again under the tracer; returns traced seconds
        over untraced seconds for the requests that completed both times."""
        cli = self.mods["cli"]
        traced = untraced = 0.0
        for req, digest, dt in self.log:
            tracer.request = req.rid
            deadline = self.deadline if dt is None else self.deadline * REPLAY_DEADLINE_FACTOR
            scale = self.speed.factor()
            code, out, _, raw = run_cli(cli, req.argv, deadline, self.budget)
            self.speed.spent(raw)
            dt2 = raw * scale
            if _digest(code, out) != digest:
                self.stats.nondeterministic += 1
                self.stats.first_errors.append("traced output differs: " + " ".join(req.argv))
            if dt is not None and code is not None:
                traced += dt2
                untraced += dt
        return traced / untraced if untraced else 1.0

    # ------------------------------------------------------------ point-query

    def _prepare(self, calls, frames):
        core = self.mods["core"]
        fns = {name: getattr(core, name) for name in wl.POINT_FUNCS}
        prepared = []
        for c in calls:
            frame = frames[c.frame]
            if c.func in ("radial_factor", "curve_point"):
                args = (c.theta, c.n)
            elif c.func == "residual_log":
                args = (c.point, c.n, frame)
            elif c.func == "theta_of_point":
                args = (c.point, frame)
            else:
                args = (c.theta, c.n, frame)
            prepared.append((fns[c.func], args))
        return prepared

    def _run_pass(self, prepared):
        """Time every call of one pass: each call in wall time, the pass in CPU
        time. A periodic timer enforces the per-call deadline."""
        results = [None] * len(prepared)
        lat = array("d", bytes(8 * len(prepared)))
        started = [perf_counter()]
        deadline = self.deadline

        def on_tick(signum, frame):
            if perf_counter() - started[0] > deadline:
                raise DeadlineExceeded

        signal.signal(signal.SIGALRM, on_tick)
        signal.setitimer(signal.ITIMER_REAL, 0.25, 0.25)
        c_pass = process_time()
        try:
            for k, (fn, args) in enumerate(prepared):
                t0 = started[0] = perf_counter()
                try:
                    results[k] = fn(*args)
                except DeadlineExceeded as exc:
                    results[k] = exc
                except Exception as exc:
                    results[k] = exc
                lat[k] = perf_counter() - t0
            cpu = process_time() - c_pass
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, _on_alarm)
        return results, lat, cpu

    def _frames(self):
        lib = self.mods["fermatcurves"]
        coeffs = [wl.parse_frame(f) for f in wl.FRAMES]
        return coeffs, [lib.AffineFrame(*c) for c in coeffs]

    def run_calls(self) -> None:
        import numpy

        import checks

        coeffs, frames = self._frames()
        stats = self.stats
        loop_start = perf_counter()
        for cycles_run, calls in enumerate(wl.Generator(self.workload, self.seed).cycles(), 1):
            scale = self.speed.factor()
            results, lat, raw = self._run_pass(self._prepare(calls, frames))
            self.speed.spent(raw)
            cpu = raw * scale
            stats.timed_s += cpu
            bad, reason = checks.check_calls(calls, results, coeffs)
            failed = [k for k, res in enumerate(results) if isinstance(res, BaseException)]
            for k in failed:
                res = results[k]
                outcome = "deadline" if isinstance(res, DeadlineExceeded) else "exit_nonzero"
                stats.note(outcome, repr(res), f"{calls[k].func}{calls[k][2:5]}")
            for k in numpy.flatnonzero(bad):
                stats.unexplained += 1
                stats.note("wrong_output", reason, f"{calls[k].func}{calls[k][2:5]}")
            ok = ~bad
            ok[failed] = False
            ok_lat = numpy.frombuffer(lat, dtype=float)[ok] * scale
            stats.outcomes[OK] += len(ok_lat)
            stats.work += len(ok_lat)
            stats.latency.extend(array("d", ok_lat.tobytes()))
            self.log.append((len(calls), _digest(None, repr(results).encode()) if self.trace else b"", cpu))
            if self._done(cycles_run, loop_start):
                break

    def replay_calls(self, tracer) -> float:
        coeffs, frames = self._frames()
        gen = wl.Generator(self.workload, self.seed).cycles()
        traced = untraced = 0.0
        for _, digest, cpu in self.log:
            calls = next(gen)
            tracer.request = calls[0].rid
            scale = self.speed.factor()
            results, _, raw = self._run_pass(self._prepare(calls, frames))
            self.speed.spent(raw)
            cpu2 = raw * scale
            if _digest(None, repr(results).encode()) != digest:
                self.stats.nondeterministic += 1
                self.stats.first_errors.append(f"traced results differ in pass from call {calls[0].rid}")
            traced += cpu2
            untraced += cpu
        return traced / untraced if untraced else 1.0


def _percentiles(values) -> dict[str, float]:
    import numpy

    if not len(values):
        return {}
    p50, p90 = numpy.percentile(numpy.frombuffer(values, dtype=float), [50.0, 90.0])
    return {"p50": float(p50), "p90": float(p90)}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    modules = import_program()
    signal.signal(signal.SIGALRM, _on_alarm)
    code, _, err, _ = run_cli(modules["cli"], WARM_UP, 10.0)
    if code != 0:
        sys.exit(f"error: warm-up call failed with exit {code}: {err}")
    print("READY", flush=True)
    if args.setup_only:
        return 0

    import numpy

    runner = Runner(args.workload, args.seed, args.seconds, modules, bool(args.trace))
    if args.workload in EVAL_BUDGET:
        runner.budget = EvalBudget(modules["core"], EVAL_BUDGET[args.workload])
    calls = args.workload == "point-query"
    (runner.run_calls if calls else runner.run_requests)()
    stats = runner.stats
    result = {
        "attempted": stats.attempted,
        "outcomes": dict(stats.outcomes),
        "work": stats.work,
        "work_unit": WORK_UNIT[args.workload],
        "timed_s": stats.timed_s,
        "latency_s": _percentiles(stats.latency.values),
        "successes": stats.latency.seen,
        "nondeterministic": stats.nondeterministic,
        "unexplained": stats.unexplained,
        "errors": stats.first_errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "speed": runner.speed.summary(),
        "env": {"python": platform.python_version(), "numpy": numpy.__version__,
                "nproc": os.cpu_count(), "cpu": _cpu_model()},
    }
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(modules)
        tracer.install()
        try:
            ratio = (runner.replay_calls if calls else runner.replay_requests)(tracer)
        finally:
            tracer.uninstall()
        out_dir = Path(__file__).resolve().parent / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.tsv")
        result["layers"] = {k: list(v) for k, v in tracer.metrics().items()}
        result["overhead_ratio"] = ratio
        result["nondeterministic"] = stats.nondeterministic
        result["errors"] = stats.first_errors
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
