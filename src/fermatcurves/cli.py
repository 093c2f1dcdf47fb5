"""Command-line front end and the CSV/JSON/SVG emitters it shares with tests.

Subcommands (listed with their help by ``fermat-curves --help``): sample,
arclength, gap, residual, svg and oracle-diff; each reads only its own flags.

Exit codes: 0 on success, 2 for argument, domain (a singular frame) or I/O
errors (an --output that cannot be written), 3 for numeric failures inside
the quadrature. Diagnostics go to stderr, one line each; payload bytes go to
stdout or to --output, and identical invocations produce identical bytes.

All numbers are printed with the shortest decimal representation that parses
back to the exact same double, so emitted files round-trip bit-for-bit; a
-0.0 is printed -0, which curve_from_json reads back as -0.0.

sample and svg check each request's flags once, --tol, --theta-range, N and
--count in that order, svg after N and its caps of 256 curves and of 2**20
vertices in all. A uniform request, full turn or --theta-range arc,
builds all its curves on one theta grid; an arc-length one builds each
curve on its own equal-arc grid. An arc is open and runs from exactly LO to
exactly HI, and its grid, uniform or equal-arc, is held to the theta rule.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from collections.abc import Sequence

from . import core
from .core import TWO_PI, AffineFrame, _check_exponent
from .errors import QuadratureFailure
from .oracle import oracle_polyline
from .sampling import (
    _MAX_COUNT,
    DEFAULT_TOL,
    SampledCurve,
    _arclength_thetas,
    _check_count,
    _check_size,
    _check_thetas,
    _check_tol,
    _polyline,
    _uniform_thetas,
    arc_length,
    convergence_gap,
    polyline_hausdorff,
)

__all__ = ["SVG_MAX_CURVES", "curve_from_json", "emit_csv", "emit_json", "emit_svg", "fmt", "main", "run"]

# fmt's rule, which also serves a whole payload of floats at once: after repr
# of every number, drop the ".0" of each integral value, found before the
# delimiter that ends a number (or the end of the text or an SVG path). repr
# writes ".0" nowhere else: no trailing zeros, and no point in an exponent
# form such as 1e+16.
_INTEGRAL_POINT = re.compile(r"\.0(?=[ ,}\n]|\Z)")

# svg draws one curve per exponent 1..N and holds them all before writing,
# so N is capped to keep its time and memory bounded, and so is N x count,
# by the library's cap on one curve's count (2**20).
SVG_MAX_CURVES = 256
# gap's least --count: its closed form reads no grid, but the flag keeps its range
_GAP_MIN_COUNT = 16


def fmt(value: float) -> str:
    """Shortest decimal text that parses back to the exact same double."""
    return _INTEGRAL_POINT.sub("", repr(float(value)))


def emit_csv(curve: SampledCurve) -> bytes:
    """CSV with header theta,x,y, LF line endings, no trailing blank line."""
    rows = "".join(f"{t!r},{x!r},{y!r}\n" for t, (x, y) in zip(curve.thetas, curve.points))
    return ("theta,x,y\n" + _INTEGRAL_POINT.sub("", rows)).encode("ascii")


def emit_json(curve: SampledCurve) -> bytes:
    """One JSON object with keys n, frame, closed, samples, in that order."""
    frame_txt = ",".join(fmt(c) for c in curve.frame.coefficients())
    samples = _INTEGRAL_POINT.sub("", ",".join(
        f'{{"theta":{t!r},"x":{x!r},"y":{y!r}}}' for t, (x, y) in zip(curve.thetas, curve.points)
    ))
    closed = "true" if curve.closed else "false"
    text = f'{{"n":{curve.exponent},"frame":[{frame_txt}],"closed":{closed},"samples":[{samples}]}}'
    return (text + "\n").encode("ascii")


def curve_from_json(data: bytes | str) -> SampledCurve:
    """Rebuild a SampledCurve from emit_json output.

    A document of another shape raises ValueError naming what is missing or
    wrong; the values are then checked as SampledCurve and AffineFrame check them.
    """
    try:
        # emit_json writes -0.0 as -0, which json reads as the int 0
        obj = json.loads(data, parse_int=lambda text: -0.0 if text == "-0" else int(text))
    except RecursionError:
        raise ValueError("curve JSON nests arrays or objects too deeply to read") from None
    try:
        samples, frame, closed, n = obj["samples"], obj["frame"], obj["closed"], obj["n"]
        thetas = tuple(s["theta"] for s in samples)
        points = tuple((s["x"], s["y"]) for s in samples)
    except KeyError as exc:
        raise ValueError(f"curve JSON has no {exc} key") from None
    except TypeError:
        raise ValueError("curve JSON must be an object whose samples are an array of objects") from None
    if not (isinstance(frame, list) and len(frame) == 6):
        raise ValueError(f"curve JSON frame must be an array of six coefficients, got {frame!r}")
    return SampledCurve(thetas, points, closed, n, AffineFrame(*frame))


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
        path = "M " + " L ".join(f"{x!r} {y!r}" for x, y in curve.points) + (" Z" if curve.closed else "")
        path = _INTEGRAL_POINT.sub("", path)
        lines.append(f'<path d="{path}" fill="none" stroke="black" stroke-width="0.01"/>')
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode("ascii")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A minus then a digit, inf or nan starts a value, such as -1,0,0,0,1,0, not a flag.
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        raise ValueError(message)


_FLAGS = {
    "--n": dict(type=int, required=True, help="half-degree N of the curve x^(2N) + y^(2N) = 1"),
    "--frame": dict(
        default="1,0,0,0,1,0", help="six comma-separated coefficients alpha,beta,gamma,delta,epsilon,zeta (default: identity)"
    ),
    "--count": dict(type=int, default=256, help="sample count or grid resolution (default 256)"),
    "--tol": dict(type=float, default=DEFAULT_TOL, help="quadrature error target (default 1e-10)"),
    "--format": dict(choices=("csv", "json", "svg"), default="csv", help="output format for sample"),
    "--resample": dict(
        choices=("uniform", "arclength"), default="uniform", help="theta spacing: uniform angles or equal arc-length steps"
    ),
    "--theta-range": dict(default=f"0,{TWO_PI!r}", metavar="LO,HI", help="parameter range in radians (default: full turn)"),
    "--output": dict(default="-", metavar="PATH", help="write payload to PATH instead of stdout"),
}


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of the process, built on the first run() call."""
    parser = _Parser(prog="fermat-curves", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=text)
        for flag in ("--n", "--frame", *flags, "--output"):
            command.add_argument(flag, **_FLAGS[flag])
    return parser


def _parse_numbers(text: str, flag: str, count: int, wanted: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != count:
        raise ValueError(f"{flag} needs {wanted}, got {text!r}")
    try:
        return [float(part) for part in parts]
    except ValueError:
        raise ValueError(f"{flag} has a non-numeric entry: {text!r}") from None


def _parse_range(text: str) -> list[float]:
    return _parse_numbers(text, "--theta-range", 2, "two comma-separated radians LO,HI")


def _sample_curves(ns, exponents, frame: AffineFrame) -> list[SampledCurve]:
    """sample's and svg's curves, one per exponent, with the request's flags checked once."""
    tol = _check_tol(ns.tol)
    lo, hi = _parse_range(ns.theta_range)
    full_turn = lo == 0.0 and hi == TWO_PI
    if not 0.0 <= lo < hi <= TWO_PI:
        raise ValueError(
            f"--theta-range must satisfy 0 <= LO < HI <= 2*pi for sampling, got {lo!r},{hi!r}"
        )
    exponents = [_check_exponent(n) for n in exponents]
    count = _check_count(ns.count)
    if ns.resample == "arclength":
        return [
            _polyline(_arclength_thetas(n, frame, count, tol, lo, hi, full_turn), n, frame, full_turn) for n in exponents
        ]
    if full_turn:
        thetas = _uniform_thetas(count)
    else:
        # the last node is HI itself: the grid's last step can round to either side of it
        thetas = (*(lo + ((hi - lo) * k) / (count - 1) for k in range(count - 1)), hi)
        _check_thetas(thetas)  # a grid across a range a few ulps wide ties
    return [_polyline(thetas, n, frame, full_turn) for n in exponents]


def _scalar(value: float) -> bytes:
    return (fmt(value) + "\n").encode("ascii")


def _cmd_sample(ns, frame: AffineFrame) -> bytes:
    curve = _sample_curves(ns, (ns.n,), frame)[0]
    # the emitter is looked up when called, so a wrapper on the module attribute (perfbench's tracer) sees the call
    return emit_svg([curve]) if ns.format == "svg" else (emit_csv if ns.format == "csv" else emit_json)(curve)


def _cmd_arclength(ns, frame: AffineFrame) -> bytes:
    lo, hi = _parse_range(ns.theta_range)
    return _scalar(arc_length(ns.n, frame, lo, hi, ns.tol))


def _cmd_gap(ns, frame: AffineFrame) -> bytes:
    _check_size(ns.count, "--count", _GAP_MIN_COUNT)
    return _scalar(convergence_gap(ns.n, frame))


def _cmd_residual(ns, frame: AffineFrame) -> bytes:
    count = _check_size(ns.count, "--count", 1)
    n = _check_exponent(ns.n)
    worst = 0.0
    for log_sum in core._log_sums(core._points(_uniform_thetas(count), n, frame), n, frame):
        try:
            worst = max(worst, abs(math.expm1(log_sum)))
        except OverflowError:  # the sum overflows the double range: residual_log's +inf
            worst = math.inf
    return _scalar(worst)


def _cmd_svg(ns, frame: AffineFrame) -> bytes:
    if _check_exponent(ns.n) > SVG_MAX_CURVES:
        raise ValueError(f"svg draws at most {SVG_MAX_CURVES} curves, one per exponent 1..N; got N={ns.n}")
    if ns.n * ns.count > _MAX_COUNT:
        raise ValueError(f"svg draws at most {_MAX_COUNT} vertices in all, N x count; got N={ns.n}, count={ns.count}")
    # innermost first, so later curves draw outward
    return emit_svg(_sample_curves(ns, range(1, ns.n + 1), frame))


def _cmd_oracle_diff(ns, frame: AffineFrame) -> bytes:
    reference = oracle_polyline(ns.n, frame, ns.count)
    closed_form = _polyline(reference.thetas, reference.exponent, frame, True)
    return _scalar(polyline_hausdorff(closed_form, reference))


# Each subcommand's function, help line, and flags read besides --n, --frame and --output.
_COMMANDS = {
    "sample": (_cmd_sample, "sample one curve", ("--count", "--tol", "--format", "--resample", "--theta-range")),
    "arclength": (_cmd_arclength, "arc length over a theta range", ("--tol", "--theta-range")),
    "gap": (_cmd_gap, "largest distance to the limit shape", ("--count",)),
    "residual": (_cmd_residual, "worst membership residual over a grid", ("--count",)),
    "svg": (_cmd_svg, f"nested family drawing for exponents 1..N, N <= {SVG_MAX_CURVES}", ("--count", "--tol", "--resample", "--theta-range")),
    "oracle-diff": (_cmd_oracle_diff, "Hausdorff distance to the bisection reference", ("--count",)),
}


def _write(payload: bytes, path: str) -> None:
    if path == "-":
        sys.stdout.write(payload.decode("ascii"))
        sys.stdout.flush()
    else:
        with open(path, "wb") as handle:
            handle.write(payload)


def run(argv: Sequence[str] | None = None) -> int:
    """Parse arguments, execute one subcommand and return its exit code: 0, 2 or 3.

    Nothing raises or exits; a failed run writes no --output file, as the
    payload is complete before the file is opened. Any number of calls in one
    process share one parser, which holds no state between them.
    """
    try:
        ns = _build_parser().parse_args(argv)
        wanted = "six comma-separated numbers alpha,beta,gamma,delta,epsilon,zeta"
        frame = AffineFrame(*_parse_numbers(ns.frame, "--frame", 6, wanted))
        _write(_COMMANDS[ns.command][0](ns, frame), ns.output)
    except (ValueError, TypeError, OSError, QuadratureFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, QuadratureFailure) else 2
    except SystemExit as exc:  # --help, after argparse has printed it
        return exc.code
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
