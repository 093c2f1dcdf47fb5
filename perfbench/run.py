"""fermatcurves benchmark: seeded workloads, checked outputs, per-layer tracing.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload arclength --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Each workload runs in a fresh worker process (``worker.py``) that imports the
program from ``src/``. With ``--trace 0`` the last line of standard output is
a JSON object with the end-to-end metrics; with ``--trace 1`` the same
requests are replayed under spans and the per-layer metrics are printed
instead. ``--workload all`` runs every workload in turn, in an order that
alternates with the seed, and prints one table. See README.md here.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from speed import Speed  # noqa: E402
from workloads import FAILURES, WORKLOADS  # noqa: E402

SETUP_RUNS = 9  # fresh processes timed for setup_s, the worker's own start included
WORKER_TIMEOUT_S = 170.0
UNITS = {"work_per_s": "work/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
         "setup_s": "s", "peak_rss_mb": "MB"}


def _worker_cmd(args, *extra) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def _start(cmd) -> tuple[subprocess.Popen, float]:
    """Start a worker and return it with its set-up time: start to its READY line."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not start (exit {proc.returncode})")
    return proc, setup


def measure(args) -> dict:
    """Run one workload in fresh processes and return the worker's result plus set-up times.

    Each set-up time is scaled to the reference speed (speed.py) by a sample
    of the reference loop taken in this process just before the start."""
    setups = []
    speed = Speed(every=0.0)
    for _ in range(SETUP_RUNS - 1):
        scale = speed.factor()
        proc, setup = _start(_worker_cmd(args, "--setup-only"))
        proc.communicate(timeout=30)
        setups.append(setup * scale)
    scale = speed.factor()
    proc, setup = _start(_worker_cmd(args))
    setups.append(setup * scale)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker ran past its timeout") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed with exit {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = statistics.median(setups)
    result["setup_samples"] = len(setups)
    return result


def end_to_end(result: dict) -> dict[str, float]:
    lat = result["latency_s"]
    return {
        "work_per_s": result["work"] / result["timed_s"],
        "latency_p50_ms": 1e3 * lat["p50"],
        "latency_p90_ms": 1e3 * lat["p90"],
        "setup_s": result["setup_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def failure_counts(result: dict) -> dict[str, int]:
    outcomes = result["outcomes"]
    return {f"fail.{k}": outcomes.get(k, 0) for k in FAILURES}


def per_layer(result: dict) -> dict[str, tuple[float, str]]:
    layers = {k: (v[0], v[1]) for k, v in result["layers"].items()}
    for name, count in failure_counts(result).items():
        layers[name] = (count, "count")
    failed = sum(failure_counts(result).values())
    layers["failed_ratio"] = (failed / result["attempted"], "ratio")
    layers["trace.overhead_ratio"] = (result["overhead_ratio"], "ratio")
    return layers


def report(name: str, args, result: dict) -> dict:
    """Print the human-readable lines for one workload; return the contract JSON."""
    env = result["env"]
    ref = result["speed"]
    print(f"# workload {name}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}; "
          f"python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, cpu {env['cpu']}; "
          f"times scaled to the reference speed: reference loop {1e3 * ref['loop_median_s']:.3f} ms "
          f"(median of {ref['loop_samples']}), scaled to {1e3 * ref['nominal_s']:g} ms")
    attempted, successes = result["attempted"], result["successes"]
    failures = failure_counts(result)
    failed = sum(failures.values())
    correct = result["nondeterministic"] == 0 and result["unexplained"] == 0
    for message in result["errors"]:
        print(f"#   {message}")
    if args.trace:
        metrics = per_layer(result)
    else:
        values = end_to_end(result)
        metrics = {k: (v, UNITS[k]) for k, v in values.items()}
        counts = {
            "work_per_s": f"{result['work']} {result['work_unit']} in {result['timed_s']:.3f} CPU s timed",
            "latency_p50_ms": f"n={successes} successful requests",
            "latency_p90_ms": f"n={successes} successful requests",
            "setup_s": f"median of n={result['setup_samples']} fresh processes",
            "peak_rss_mb": "n=1 worker process",
        }
        for key, (value, unit) in metrics.items():
            print(f"#   {key:<15} {value:14.6g} {unit:<7} ({counts[key]})")
    print(f"#   {'failed_ratio':<15} {failed / attempted:14.6g} {'ratio':<7} "
          f"(n={attempted} attempted; " + ", ".join(f"{k} {v}" for k, v in failures.items()) + ")")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fermatcurves" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.workload == "all" and args.seed % 2:
        names.reverse()
    lines = {}
    for name in names:
        args.workload = name
        try:
            result = measure(args)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1
        lines[name] = report(name, args, result)
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
