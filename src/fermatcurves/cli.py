"""Command-line front end and the CSV/JSON/SVG emitters it shares with tests.

Subcommands:

    sample       sample one curve and emit it as CSV, JSON, or SVG
    arclength    print the arc length between two parameter angles
    gap          print the largest distance between a curve and its limit shape
    residual     print the worst membership residual over a sample grid
    svg          emit the nested family for exponents 1..N as one SVG drawing
    oracle-diff  print the Hausdorff distance between the closed form and the
                 bisection reference polyline

Exit codes: 0 on success, 2 for argument or domain errors (including a
singular frame), 3 for numeric failures inside the quadrature. Diagnostics
go to stderr, one line each; payload bytes go to stdout or to --output, and
identical invocations produce identical bytes.

All numbers are printed with the shortest decimal representation that parses
back to the exact same double, so emitted files round-trip bit-for-bit.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence

from .core import IDENTITY, TWO_PI, AffineFrame, affine_curve_point, residual_log
from .errors import QuadratureFailure
from .oracle import oracle_polyline
from .sampling import (
    DEFAULT_TOL,
    SampledCurve,
    _check_count,
    _uniform_thetas,
    arc_length,
    convergence_gap,
    polyline_hausdorff,
    resample_by_arclength,
    sample_uniform_theta,
)

__all__ = ["curve_from_json", "emit_csv", "emit_json", "emit_svg", "fmt", "main", "run"]


def fmt(value: float) -> str:
    """Shortest decimal text that parses back to the exact same double."""
    text = repr(float(value))
    if text.endswith(".0"):
        text = text[:-2]
    return text


def emit_csv(curve: SampledCurve) -> bytes:
    """CSV with header theta,x,y, LF line endings, no trailing blank line."""
    lines = ["theta,x,y"]
    for t, (x, y) in zip(curve.thetas, curve.points):
        lines.append(f"{fmt(t)},{fmt(x)},{fmt(y)}")
    return ("\n".join(lines) + "\n").encode("ascii")


def emit_json(curve: SampledCurve) -> bytes:
    """One JSON object with keys n, frame, closed, samples, in that order."""
    frame_txt = ",".join(fmt(c) for c in curve.frame.coefficients())
    samples = ",".join(
        f'{{"theta":{fmt(t)},"x":{fmt(x)},"y":{fmt(y)}}}'
        for t, (x, y) in zip(curve.thetas, curve.points)
    )
    closed = "true" if curve.closed else "false"
    text = f'{{"n":{curve.exponent},"frame":[{frame_txt}],"closed":{closed},"samples":[{samples}]}}'
    return (text + "\n").encode("ascii")


def curve_from_json(data: bytes | str) -> SampledCurve:
    """Rebuild a SampledCurve from emit_json output."""
    obj = json.loads(data)
    frame = AffineFrame(*(float(c) for c in obj["frame"]))
    thetas = tuple(float(s["theta"]) for s in obj["samples"])
    points = tuple((float(s["x"]), float(s["y"])) for s in obj["samples"])
    return SampledCurve(thetas, points, bool(obj["closed"]), int(obj["n"]), frame)


def emit_svg(curves: Sequence[SampledCurve]) -> bytes:
    """Standalone SVG: one path per curve, in input order.

    The viewBox is the joint bounding box padded by 5 percent per axis;
    strokes are 0.01 curve units wide with no fill. Coordinates are emitted
    in the curve's own units, so the y axis follows SVG screen convention
    (increasing downward) rather than the mathematical one.
    """
    curves = list(curves)
    if not curves:
        raise ValueError("need at least one curve to draw")
    xs = [x for curve in curves for x, _ in curve.points]
    ys = [y for curve in curves for _, y in curve.points]
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    pad_x = 0.05 * (max_x - min_x) or 0.05
    pad_y = 0.05 * (max_y - min_y) or 0.05
    view = (
        f"{fmt(min_x - pad_x)} {fmt(min_y - pad_y)} "
        f"{fmt((max_x - min_x) + 2.0 * pad_x)} {fmt((max_y - min_y) + 2.0 * pad_y)}"
    )
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{view}">',
    ]
    for curve in curves:
        moves = [f"M {fmt(curve.points[0][0])} {fmt(curve.points[0][1])}"]
        moves.extend(f"L {fmt(x)} {fmt(y)}" for x, y in curve.points[1:])
        if curve.closed:
            moves.append("Z")
        path = " ".join(moves)
        lines.append(f'<path d="{path}" fill="none" stroke="black" stroke-width="0.01"/>')
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode("ascii")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="fermat-curves", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, required=True, help="half-degree N of the curve x^(2N) + y^(2N) = 1")
    common.add_argument(
        "--frame",
        default="1,0,0,0,1,0",
        help="six comma-separated coefficients alpha,beta,gamma,delta,epsilon,zeta (default: identity)",
    )
    common.add_argument("--count", type=int, default=256, help="sample count or grid resolution (default 256)")
    common.add_argument("--tol", type=float, default=DEFAULT_TOL, help="quadrature error target (default 1e-10)")
    common.add_argument("--format", choices=("csv", "json", "svg"), default="csv", help="output format for sample")
    common.add_argument(
        "--resample",
        choices=("uniform", "arclength"),
        default="uniform",
        help="theta spacing: uniform angles or equal arc-length steps",
    )
    common.add_argument("--theta-range", default=None, metavar="LO,HI", help="parameter range in radians (default: full turn)")
    common.add_argument("--output", default=None, metavar="PATH", help="write payload to PATH instead of stdout")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("sample", parents=[common], help="sample one curve")
    sub.add_parser("arclength", parents=[common], help="arc length over a theta range")
    sub.add_parser("gap", parents=[common], help="largest distance to the limit shape")
    sub.add_parser("residual", parents=[common], help="worst membership residual over a grid")
    sub.add_parser("svg", parents=[common], help="nested family drawing for exponents 1..N")
    sub.add_parser("oracle-diff", parents=[common], help="Hausdorff distance to the bisection reference")
    return parser


def _parse_frame(text: str) -> AffineFrame:
    parts = text.split(",")
    if len(parts) != 6:
        raise ValueError(
            f"--frame needs six comma-separated numbers alpha,beta,gamma,delta,epsilon,zeta, got {text!r}"
        )
    try:
        values = [float(part) for part in parts]
    except ValueError:
        raise ValueError(f"--frame has a non-numeric entry: {text!r}") from None
    return AffineFrame(*values)


def _parse_range(text: str | None) -> tuple[float, float]:
    if text is None:
        return 0.0, TWO_PI
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"--theta-range needs two comma-separated radians LO,HI, got {text!r}")
    try:
        lo, hi = (float(part) for part in parts)
    except ValueError:
        raise ValueError(f"--theta-range has a non-numeric entry: {text!r}") from None
    return lo, hi


def _full_turn(lo: float, hi: float) -> bool:
    return lo == 0.0 and hi == TWO_PI


def _sample_curve(ns, n: int, frame: AffineFrame) -> SampledCurve:
    lo, hi = _parse_range(ns.theta_range)
    if ns.resample == "arclength":
        if not _full_turn(lo, hi):
            raise ValueError("arc-length resampling supports only the full default theta range")
        return resample_by_arclength(n, frame, ns.count, ns.tol)
    if _full_turn(lo, hi):
        return sample_uniform_theta(n, frame, ns.count)
    return _sample_partial(n, frame, ns.count, lo, hi)


def _sample_partial(n: int, frame: AffineFrame, count: int, lo: float, hi: float) -> SampledCurve:
    if not 0.0 <= lo < hi <= TWO_PI:
        raise ValueError(
            f"--theta-range must satisfy 0 <= LO < HI <= 2*pi for sampling, got {lo!r},{hi!r}"
        )
    count = _check_count(count)
    span = hi - lo
    thetas = [lo + (span * k) / (count - 1) for k in range(count)]
    thetas[-1] = min(thetas[-1], hi)
    points = tuple(affine_curve_point(t, n, frame) for t in thetas)
    return SampledCurve(tuple(thetas), points, False, n, frame)


def _scalar(value: float) -> bytes:
    return (fmt(value) + "\n").encode("ascii")


def _cmd_sample(ns) -> bytes:
    frame = _parse_frame(ns.frame)
    curve = _sample_curve(ns, ns.n, frame)
    if ns.format == "json":
        return emit_json(curve)
    if ns.format == "svg":
        return emit_svg([curve])
    return emit_csv(curve)


def _cmd_arclength(ns) -> bytes:
    frame = _parse_frame(ns.frame)
    lo, hi = _parse_range(ns.theta_range)
    return _scalar(arc_length(ns.n, frame, lo, hi, ns.tol))


def _cmd_gap(ns) -> bytes:
    frame = _parse_frame(ns.frame)
    return _scalar(convergence_gap(ns.n, frame, resolution=ns.count))


def _cmd_residual(ns) -> bytes:
    frame = _parse_frame(ns.frame)
    if ns.count < 1:
        raise ValueError(f"--count must be positive, got {ns.count}")
    worst = 0.0
    for theta in _uniform_thetas(ns.count):
        point = affine_curve_point(theta, ns.n, frame)
        worst = max(worst, abs(residual_log(point, ns.n, frame)))
    return _scalar(worst)


def _cmd_svg(ns) -> bytes:
    frame = _parse_frame(ns.frame)
    # innermost first, so later curves draw outward
    return emit_svg([_sample_curve(ns, k, frame) for k in range(1, ns.n + 1)])


def _cmd_oracle_diff(ns) -> bytes:
    frame = _parse_frame(ns.frame)
    closed_form = sample_uniform_theta(ns.n, frame, ns.count)
    reference = oracle_polyline(ns.n, frame, ns.count)
    return _scalar(polyline_hausdorff(closed_form, reference))


_COMMANDS = {
    "sample": _cmd_sample,
    "arclength": _cmd_arclength,
    "gap": _cmd_gap,
    "residual": _cmd_residual,
    "svg": _cmd_svg,
    "oracle-diff": _cmd_oracle_diff,
}


def _write(payload: bytes, path: str | None) -> None:
    if path in (None, "-"):
        sys.stdout.write(payload.decode("ascii"))
        sys.stdout.flush()
    else:
        with open(path, "wb") as handle:
            handle.write(payload)


def run(argv: Sequence[str] | None = None) -> int:
    """Parse arguments, execute one subcommand, and return the exit code."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        payload = _COMMANDS[ns.command](ns)
    except QuadratureFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write(payload, ns.output)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
