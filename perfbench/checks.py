"""Output checks against references that share no code with the program.

Two references are used. A float64 numpy evaluation of the closed form checks
every emitted value. An mpmath evaluation at 40 digits checks a seeded subset
of values more tightly, and the arc lengths of a few requests per run. The
library's own ``residual_log`` is never used: residuals are recomputed here.
All checks run outside the timed region.
"""

from __future__ import annotations

import json
import math
import random
import re

import mpmath
import numpy as np

from workloads import TWO_PI, parse_frame

EPS = 2.0**-52
ORACLE_BOUND = 1e-9  # acceptance criterion 4 of the program's test suite
RADIAL_ULPS = 2.0
ARC_KNOWN_MISS = 1e-2  # relative arc-length misses up to this are the known quadrature defect
_QUARTER_PI = math.pi / 4.0
_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)

mpmath.mp.dps = 40


class CheckFailed(Exception):
    """An output does not match its reference.

    ``known`` names the known defect of the program that explains the miss,
    or is None for a miss nothing explains.
    """

    def __init__(self, message: str, known: str | None = None):
        super().__init__(message)
        self.known = known


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------- float64 reference


def _frame_arrays(frames):
    """Frame coefficients as six arrays (or scalars) alpha..zeta."""
    arr = np.asarray(frames, dtype=float)
    return tuple(arr[..., i] for i in range(6))


def rho_ref(theta, n):
    """Radial factor by the factored log-domain form, vectorized."""
    c = np.abs(np.cos(theta))
    s = np.abs(np.sin(theta))
    m = np.maximum(c, s)
    r = np.minimum(c, s) / m
    two_n = 2.0 * np.asarray(n, dtype=float)
    with np.errstate(divide="ignore", under="ignore"):
        power = np.exp(two_n * np.log(r))
    return np.exp(-np.log1p(power) / two_n) / m


def drho_ref(theta, n):
    """d rho / d theta = cos sin (cos^(2N-2) - sin^(2N-2)) S^(-1/(2N) - 1), factored through m and r."""
    c = np.cos(theta)
    s = np.sin(theta)
    ca, sa = np.abs(c), np.abs(s)
    m = np.maximum(ca, sa)
    r = np.minimum(ca, sa) / m
    n = np.asarray(n, dtype=float)
    with np.errstate(divide="ignore", under="ignore", invalid="ignore"):
        lr = np.log(r)
        low = np.where(n > 1.0, np.exp((2.0 * n - 2.0) * lr), 1.0)
        high = np.exp(2.0 * n * lr)
    value = c * s / (m * m * m) * (1.0 - low) * np.exp(-(1.0 + 0.5 / n) * np.log1p(high))
    return np.where(ca >= sa, value, -value)


def _inverse(u, v, frame):
    a, b, g, d, e, z = frame
    du, dv = u - g, v - z
    det = a * e - b * d
    return (e * du - b * dv) / det, (a * dv - d * du) / det


def _vertex_tol(tu, tv, frame, ulps):
    """Rounding allowance of the inverse affine map applied to (tu, tv)."""
    a, b, g, d, e, z = (np.abs(c) for c in frame)
    det = np.abs(frame[0] * frame[4] - frame[1] * frame[3])
    su, sv = np.abs(tu) + g, np.abs(tv) + z
    return ulps * EPS * (e * su + b * sv) / det, ulps * EPS * (a * sv + d * su) / det


def points_ref(theta, n, frame):
    rho = rho_ref(theta, n)
    tu, tv = rho * np.cos(theta), rho * np.sin(theta)
    x, y = _inverse(tu, tv, frame)
    return x, y, _vertex_tol(tu, tv, frame, 16.0)


def velocity_ref(theta, n, frame):
    rho, drho = rho_ref(theta, n), drho_ref(theta, n)
    c, s = np.cos(theta), np.sin(theta)
    wu, wv = drho * c - rho * s, drho * s + rho * c
    a, b, _, d, e, _ = frame
    det = a * e - b * d
    return (e * wu - b * wv) / det, (a * wv - d * wu) / det


def residual_ref(x, y, n, frame):
    """u^(2N) + v^(2N) - 1 in the log domain, and its rounding allowance."""
    a, b, g, d, e, z = frame
    u = a * x + b * y + g
    v = d * x + e * y + z
    two_n = 2.0 * np.asarray(n, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        la = two_n * np.log(np.abs(u))
        lb = two_n * np.log(np.abs(v))
        hi, lo = np.maximum(la, lb), np.minimum(la, lb)
        res = np.expm1(hi + np.log1p(np.exp(lo - hi)))
    tol = 16.0 * EPS * (1.0 + np.abs(res)) * (1.0 + np.abs(hi))
    return res, tol


def _split_at_kinks(lo: float, hi: float):
    cuts = [lo]
    k = math.floor(lo / _QUARTER_PI) + 1
    while k * _QUARTER_PI < hi:
        cuts.append(k * _QUARTER_PI)
        k += 1
    cuts.append(hi)
    return list(zip(cuts, cuts[1:]))


def _layer_offsets(n: int) -> np.ndarray:
    """Distances from a diagonal, graded through its boundary layer of width 1/(4N)."""
    layer = 1.0 / (4.0 * n)
    offs = [layer * 2.0**j for j in range(-6, 3)]
    offs += [layer * (4.0 + 2.0 * i) for i in range(1, 23)]
    x = 48.0 * layer
    while x < _QUARTER_PI:
        x *= 2.0
        offs.append(x)
    return np.array(offs)


def arc_ref(n: int, frame, lo: float, hi: float) -> float:
    """Arc length by 20-point Gauss-Legendre panels graded toward the diagonals."""
    offs = _layer_offsets(n)
    edges = []
    for x0, x1 in _split_at_kinks(lo, hi):
        k = math.floor(0.5 * (x0 + x1) / _QUARTER_PI)
        diag = k * _QUARTER_PI if k % 2 else (k + 1) * _QUARTER_PI
        pts = diag - offs if diag > 0.5 * (x0 + x1) else diag + offs
        inner = pts[(pts > x0) & (pts < x1)]
        cuts = np.concatenate(([x0], np.sort(inner), [x1]))
        edges.append(np.stack([cuts[:-1], cuts[1:]], axis=1))
    panels = np.concatenate(edges)
    mid = 0.5 * (panels[:, 0] + panels[:, 1])
    half = 0.5 * (panels[:, 1] - panels[:, 0])
    nodes = (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel()
    vx, vy = velocity_ref(nodes, n, frame)
    speed = np.hypot(vx, vy).reshape(panels.shape[0], -1)
    return float(np.sum(half * (speed @ _GL_W)))


# ---------------------------------------------------------------- mpmath reference


def mp_rho(theta: float, n: int):
    t = mpmath.mpf(theta)
    c, s = abs(mpmath.cos(t)), abs(mpmath.sin(t))
    return (c ** (2 * n) + s ** (2 * n)) ** (-mpmath.mpf(1) / (2 * n))


def mp_point(theta: float, n: int, frame):
    rho = mp_rho(theta, n)
    t = mpmath.mpf(theta)
    a, b, g, d, e, z = (mpmath.mpf(c) for c in frame)
    du, dv = rho * mpmath.cos(t) - g, rho * mpmath.sin(t) - z
    det = a * e - b * d
    return (e * du - b * dv) / det, (a * dv - d * du) / det


def mp_speed(t, n: int, frame):
    c, s = mpmath.cos(t), mpmath.sin(t)
    ca, sa = abs(c), abs(s)
    big = ca ** (2 * n) + sa ** (2 * n)
    rho = big ** (-mpmath.mpf(1) / (2 * n))
    drho = big ** (-mpmath.mpf(1) / (2 * n) - 1) * c * s * (ca ** (2 * n - 2) - sa ** (2 * n - 2))
    wu, wv = drho * c - rho * s, drho * s + rho * c
    a, b, _, d, e, _ = (mpmath.mpf(x) for x in frame)
    det = a * e - b * d
    return mpmath.hypot((e * wu - b * wv) / det, (a * wv - d * wu) / det)


def mp_arc(n: int, frame, lo: float, hi: float) -> float:
    """Arc length by tanh-sinh quadrature on each kink piece, 20 digits."""
    with mpmath.workdps(20):
        total = mpmath.mpf(0)
        for x0, x1 in _split_at_kinks(lo, hi):
            total += mpmath.quad(lambda t: mp_speed(t, n, frame), [x0, x1])
        return float(total)


def ellipse_perimeter(frame) -> float:
    """Closed-form perimeter of the N = 1 curve, the image of the unit circle under A^-1."""
    a, b, _, d, e, _ = (mpmath.mpf(x) for x in frame)
    det = a * e - b * d
    inv = mpmath.matrix([[e / det, -b / det], [-d / det, a / det]])
    gram = inv.T * inv
    tr, dt = gram[0, 0] + gram[1, 1], gram[0, 0] * gram[1, 1] - gram[0, 1] * gram[1, 0]
    root = mpmath.sqrt(tr * tr / 4 - dt)
    big, small = tr / 2 + root, tr / 2 - root
    return float(4 * mpmath.sqrt(big) * mpmath.ellipe(1 - small / big))


def _slope_allowance(theta: float, n: int, frame) -> float:
    """Error of a float64 speed that the rounding of cos and sin alone causes.

    Near a diagonal the slope depends on r^(2N-2), with r = min/max of
    |cos| and |sin|, so a relative rounding of r by eps moves it by about
    2N r^(2N-2) eps; the inverse frame map scales that by at most its norm.
    """
    c, s = abs(math.cos(theta)), abs(math.sin(theta))
    r = min(c, s) / max(c, s)
    power = math.exp((2.0 * n - 2.0) * math.log(r)) if r > 0.0 else 0.0
    a, b, _, d, e, _ = frame
    norm = (abs(a) + abs(b) + abs(d) + abs(e)) / abs(a * e - b * d)
    return 16.0 * EPS * 2.0 * n * power * norm


def ulps_off(value: float, reference) -> float:
    ref = float(reference)
    return abs(mpmath.mpf(value) - reference) / math.ulp(ref)


# ---------------------------------------------------------------- output parsing


def fmt(value: float) -> str:
    text = repr(float(value))
    return text[:-2] if text.endswith(".0") else text


def _number(token: str) -> float:
    value = float(token)
    _require(fmt(value) == token, f"{token!r} is not the shortest round-trip text of its value")
    return value


def _lines(out: bytes) -> list[str]:
    text = out.decode("ascii")
    _require(text.endswith("\n") and not text.endswith("\n\n"), "output must end in exactly one LF")
    return text[:-1].split("\n")


def _scalar(out: bytes) -> float:
    lines = _lines(out)
    _require(len(lines) == 1, "scalar output must be one line")
    return _number(lines[0])


def parse_csv(out: bytes):
    lines = _lines(out)
    _require(lines[0] == "theta,x,y", "bad CSV header")
    rows = [[_number(tok) for tok in line.split(",")] for line in lines[1:]]
    _require(all(len(row) == 3 for row in rows), "CSV rows need three fields")
    return np.array(rows, dtype=float).reshape(-1, 3)


_PATH = re.compile(r'<path d="([^"]*)" fill="none" stroke="black" stroke-width="0.01"/>')


def parse_svg(out: bytes) -> list[np.ndarray]:
    text = out.decode("ascii")
    _require(text.startswith('<?xml version="1.0" encoding="UTF-8"?>\n<svg ')
             and text.endswith("</svg>\n"), "bad SVG frame")
    curves = []
    for d in _PATH.findall(text):
        toks = d.split(" ")
        _require(toks[0] == "M" and toks[-1] == "Z", "SVG path must be M ... Z")
        body = toks[:-1]
        _require(len(body) % 3 == 0 and all(t == "L" for t in body[3::3]), "bad SVG path")
        xs = [_number(t) for t in body[1::3]]
        ys = [_number(t) for t in body[2::3]]
        curves.append(np.column_stack([xs, ys]))
    return curves


# ---------------------------------------------------------------- checks


def _check_vertices(thetas, xy, n: int, frame, rng: random.Random) -> None:
    x, y, (tx, ty) = points_ref(thetas, n, frame)
    bad = (np.abs(xy[:, 0] - x) > tx) | (np.abs(xy[:, 1] - y) > ty)
    _require(not bad.any(), f"{int(bad.sum())} vertices off the float64 reference, first at "
             f"theta={thetas[np.argmax(bad)]!r}")
    for i in rng.sample(range(len(thetas)), min(4, len(thetas))):
        theta = float(thetas[i])
        px, py = mp_point(theta, n, frame)
        rho = rho_ref(theta, n)
        tu, tv = rho * math.cos(theta), rho * math.sin(theta)
        ax, ay = _vertex_tol(tu, tv, frame, 8.0)
        _require(abs(xy[i, 0] - px) <= ax and abs(xy[i, 1] - py) <= ay,
                 f"vertex at theta={theta!r} off the mpmath reference")


def _uniform_grid(count: int) -> np.ndarray:
    return np.array([(TWO_PI * k) / count for k in range(count)])


def _check_resampled(thetas, n: int, frame, count: int) -> None:
    _require(thetas[0] == 0.0 and np.all(np.diff(thetas) > 0.0) and thetas[-1] < TWO_PI,
             "resampled thetas must rise from 0 within one turn")
    bounds = list(thetas) + [TWO_PI]
    pieces = np.array([arc_ref(n, frame, a, b) for a, b in zip(bounds, bounds[1:])])
    step = pieces.sum() / count
    # Each sample is refined to 1e-10 of its target (the library's root
    # tolerance), so neighbouring pieces may differ from the step by twice that.
    worst = float(np.max(np.abs(pieces - step)))
    _require(worst <= 2e-10 + 1e-10 * max(1.0, pieces.sum()),
             f"arc-length spacing off by {worst:.3e}")


def check_cli(req, out: bytes, lib) -> None:
    """Raise CheckFailed unless ``out`` is the right output for ``req``."""
    p = req.params
    cmd = p["command"]
    n = p["n"]
    frame = parse_frame(p["frame"])
    rng = random.Random(req.rid)
    if cmd == "sample":
        count = p["count"]
        if p["fmt"] == "svg":
            curves = parse_svg(out)
            _require(len(curves) == 1 and len(curves[0]) == count, "SVG must hold one curve of count vertices")
            thetas, xy = _uniform_grid(count), curves[0]
        elif p["fmt"] == "json":
            obj = json.loads(out)
            _require(list(obj) == ["n", "frame", "closed", "samples"], "bad JSON keys")
            _require(obj["n"] == n and obj["closed"] is True, "bad JSON n or closed")
            _require(tuple(obj["frame"]) == frame, "JSON frame differs from the request")
            _require(len(obj["samples"]) == count, "JSON sample count differs from --count")
            thetas = np.array([s["theta"] for s in obj["samples"]], dtype=float)
            xy = np.array([[s["x"], s["y"]] for s in obj["samples"]], dtype=float)
            back = lib.curve_from_json(out)
            _require(back.thetas == tuple(thetas) and back.points == tuple(map(tuple, xy)),
                     "JSON does not round-trip through curve_from_json")
        else:
            rows = parse_csv(out)
            _require(len(rows) == count, "CSV row count differs from --count")
            thetas, xy = rows[:, 0], rows[:, 1:]
        if p.get("resample"):
            _check_resampled(thetas, n, frame, count)
        else:
            _require(np.array_equal(thetas, _uniform_grid(count)), "thetas are not the uniform grid")
        _check_vertices(thetas, xy, n, frame, rng)
    elif cmd == "svg":
        curves = parse_svg(out)
        _require(len(curves) == n, "svg family must hold one curve per exponent")
        grid = _uniform_grid(p["count"])
        for k, xy in enumerate(curves, start=1):
            _require(len(xy) == p["count"], "svg family curve has the wrong vertex count")
            _check_vertices(grid, xy, k, frame, rng)
    elif cmd == "residual":
        value = _scalar(out)
        grid = _uniform_grid(p["count"])
        pts = np.array([lib.affine_curve_point(float(t), n, lib.AffineFrame(*frame)) for t in grid])
        res, tol = residual_ref(pts[:, 0], pts[:, 1], n, frame)
        worst = np.max(np.abs(res))
        _require(abs(value - worst) <= np.max(tol), f"residual {value!r} differs from {worst!r}")
    elif cmd == "gap":
        value = _scalar(out)
        grid = _uniform_grid(p["count"])
        x, y, _ = points_ref(grid, n, frame)
        c, s = np.cos(grid), np.sin(grid)
        m = np.maximum(np.abs(c), np.abs(s))
        qx, qy = _inverse(c / m, s / m, frame)
        ref = float(np.max(np.hypot(x - qx, y - qy)))
        scale = float(np.max(np.abs(x) + np.abs(y) + np.abs(qx) + np.abs(qy)))
        _require(abs(value - ref) <= 64.0 * EPS * max(1.0, scale), f"gap {value!r} differs from {ref!r}")
    elif cmd == "arclength":
        value = _scalar(out)
        tol = p["tol"]
        lo, hi = p["lo"], p["hi"]
        full = lo == 0.0 and hi == TWO_PI
        if n == 1 and full:
            ref = ellipse_perimeter(frame)
        elif rng.random() < 1.0 / 16.0:
            ref = mp_arc(n, frame, lo, hi)
        else:
            ref = arc_ref(n, frame, lo, hi)
        err = abs(value - ref)
        if err > tol * max(1.0, ref) + 1e-13 * ref:
            # Known defect: at coarse tol the adaptive Simpson can accept
            # panels whose samples straddle the diagonal boundary layer.
            known = "arc_length misses tol" if err <= ARC_KNOWN_MISS * ref else None
            raise CheckFailed(f"arc length {value!r} misses reference {ref!r} by {err:.3e}, "
                              f"more than tol {tol:g}", known)
    elif cmd == "oracle-diff":
        value = _scalar(out)
        _require(0.0 <= value <= ORACLE_BOUND, f"oracle-diff {value!r} exceeds {ORACLE_BOUND:g}")
    else:
        raise CheckFailed(f"no check for command {cmd!r}")


def check_calls(calls, results, frames) -> tuple[np.ndarray, str]:
    """Check one pass of scalar calls, vectorized per function.

    Returns a mask of the calls whose value is wrong, and the first reason.
    Calls that raised (results that are exceptions) are not checked here.
    """
    bad = np.zeros(len(calls), dtype=bool)
    reasons = []
    by_func: dict[str, list[int]] = {}
    for i, call in enumerate(calls):
        if not isinstance(results[i], BaseException):
            by_func.setdefault(call.func, []).append(i)

    def flag(idx, ok, message):
        ok = np.asarray(ok, dtype=bool)
        if not ok.all():
            bad[np.asarray(idx)[~ok]] = True
            reasons.append(message)

    identity = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0)
    for func, idx in by_func.items():
        sel = [calls[i] for i in idx]
        theta = np.array([c.theta for c in sel])
        n = np.array([c.n for c in sel], dtype=float)
        used = [identity if func == "curve_point" else frames[c.frame] for c in sel]
        fr = _frame_arrays(used)
        if sel[0].point is not None:
            px, py = np.array([c.point for c in sel]).T
        got = np.array([results[i] for i in idx], dtype=float)
        if func == "radial_factor":
            ref = rho_ref(theta, n)
            ulp = np.array([math.ulp(v) for v in ref])
            flag(idx, np.abs(got - ref) <= 4.0 * ulp, "radial_factor off the float64 reference")
        elif func in ("curve_point", "affine_curve_point"):
            x, y, (tx, ty) = points_ref(theta, n, fr)
            flag(idx, (np.abs(got[:, 0] - x) <= tx) & (np.abs(got[:, 1] - y) <= ty),
                 f"{func} off the float64 reference")
        elif func == "residual_log":
            ref, tol = residual_ref(px, py, n, fr)
            flag(idx, np.abs(got - ref) <= tol, "residual_log off the float64 reference")
        elif func == "theta_of_point":
            a, b, g, d, e, z = fr
            ref = np.mod(np.arctan2(d * px + e * py + z, a * px + b * py + g), TWO_PI)
            diff = np.abs(got - ref)
            diff = np.minimum(diff, TWO_PI - diff)
            flag(idx, (diff <= 16.0 * EPS * TWO_PI) & (got >= 0.0) & (got < TWO_PI),
                 "theta_of_point off the float64 reference")
        elif func == "curve_speed":
            vx, vy = velocity_ref(theta, n, fr)
            speed = np.hypot(vx, vy)
            flag(idx, np.abs(got - speed) <= 1e-13 * speed, "curve_speed off the float64 reference")
        elif func == "curve_velocity":
            vx, vy = velocity_ref(theta, n, fr)
            err = np.hypot(got[:, 0] - vx, got[:, 1] - vy)
            flag(idx, err <= 1e-13 * np.hypot(vx, vy), "curve_velocity off the float64 reference")
    # Tight mpmath checks on a seeded subset of each function.
    rng = random.Random(calls[0].rid)
    for func, idx in by_func.items():
        for i in rng.sample(idx, min(3, len(idx))):
            call, got = calls[i], results[i]
            frame = identity if func == "curve_point" else frames[call.frame]
            if func == "radial_factor":
                ok = ulps_off(got, mp_rho(call.theta, call.n)) <= RADIAL_ULPS
            elif func in ("curve_point", "affine_curve_point"):
                px, py = mp_point(call.theta, call.n, frame)
                rho = float(mp_rho(call.theta, call.n))
                ax, ay = _vertex_tol(rho * math.cos(call.theta), rho * math.sin(call.theta), frame, 8.0)
                ok = abs(got[0] - px) <= ax and abs(got[1] - py) <= ay
            elif func == "curve_speed":
                ref = mp_speed(mpmath.mpf(call.theta), call.n, frame)
                ok = abs(got - ref) <= 1e-13 * ref + _slope_allowance(call.theta, call.n, frame)
            else:
                continue
            flag([i], [ok], f"{func} off the mpmath reference at theta={call.theta!r}, n={call.n}")
    return bad, (reasons[0] if reasons else "")
