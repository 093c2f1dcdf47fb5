"""Shared helpers for the test suite: seeded random affine frames, the
corner-layer asymptotics of the arc length, and the plain loops that the
package's faster ones must match double for double and byte for byte: the
bisection behind the oracle, the evaluation kernel and the membership
log-sum with every term computed, and the emitters that format one number
at a time, by their own copy of cli.fmt's rule."""

from __future__ import annotations

import functools
import math
import random

import mpmath

from fermatcurves import AffineFrame, square_point


def random_frame(
    rng: random.Random,
    lo: float = -10.0,
    hi: float = 10.0,
    min_det: float = 0.1,
) -> AffineFrame:
    """Draw frame coefficients uniformly until the determinant clears min_det."""
    while True:
        vals = [rng.uniform(lo, hi) for _ in range(6)]
        if abs(vals[0] * vals[4] - vals[1] * vals[3]) >= min_det:
            return AffineFrame(*vals)


def frame_family(
    seed: int,
    count: int,
    lo: float = -10.0,
    hi: float = 10.0,
    min_det: float = 0.1,
) -> list[AffineFrame]:
    rng = random.Random(seed)
    return [random_frame(rng, lo, hi, min_det) for _ in range(count)]


def corner_deficit(u, v) -> mpmath.mpf:
    """D for one pair of opposite corners of the limit parallelogram, which
    together cut D / N from its perimeter.

    u and v are the images, under the inverse linear part, of the directions
    in which the square's boundary runs into the corner and out of it. Near
    the corner, x = 1 - a/(2N) and y = 1 - b/(2N) tend to e^-a + e^-b = 1,
    and D integrates the edges' length less the curve's over [0, inf) as
    2 beta (|u||v| - u.v) / (|u| + beta |v| + |u + beta v|), beta = 1 / expm1(t).
    """
    norm_u, norm_v = mpmath.hypot(*u), mpmath.hypot(*v)
    dot = u[0] * v[0] + u[1] * v[1]

    def integrand(t):
        beta = 1 / mpmath.expm1(t)
        chord = mpmath.hypot(u[0] + beta * v[0], u[1] + beta * v[1])
        return 2 * beta * (norm_u * norm_v - dot) / (norm_u + beta * norm_v + chord)

    # |u + beta v| is least at beta = -u.v / |v|^2, where a sharp corner's integrand
    # peaks in a layer too narrow for the quadrature to find unaided.
    peak = mpmath.log1p(norm_v**2 / -dot) if dot < 0 else 1
    return mpmath.quad(integrand, [0, peak, mpmath.inf])


def _inverse_columns(frame: AffineFrame):
    """M e1 and M e2 at the working precision, M the frame's inverse linear part."""
    a, b, _, d, e, _ = (mpmath.mpf(c) for c in frame.coefficients())
    det = a * e - b * d
    return (e / det, -d / det), (-b / det, a / det)


@functools.lru_cache(maxsize=None)
def _corner_deficits(frame: AffineFrame) -> tuple[mpmath.mpf, mpmath.mpf]:
    """The corner_deficit of the pair (1, 1), (-1, -1) and of the pair
    (-1, 1), (1, -1), at 30 digits, the boundary running counterclockwise:
    into (1, 1) along e2 and out along -e1, into (1, -1) along e1 and out
    along e2. Cached, so each frame's quadratures run once per process."""
    with mpmath.workdps(30):
        m1, m2 = _inverse_columns(frame)
        return corner_deficit(m2, (-m1[0], -m1[1])), corner_deficit(m1, m2)


def corner_arc_length(n: int, frame: AffineFrame) -> float:
    """Full-turn arc length from the corner-layer asymptotics, 30 digits:
    L_N = 4(|M e1| + |M e2|) - (D+ + D-) / N + O(N^-2), M the inverse linear
    part, D+ and D- the corner_deficit of the two pairs of opposite corners.
    """
    with mpmath.workdps(30):
        m1, m2 = _inverse_columns(frame)
        return float(4 * (mpmath.hypot(*m1) + mpmath.hypot(*m2)) - sum(_corner_deficits(frame)) / n)


def corner_partial_arc_length(n: int, frame: AffineFrame, theta_a: float, theta_b: float) -> float:
    """Arc length over [theta_a, theta_b] from the corner-layer asymptotics,
    30 digits: the limit parallelogram's path from M square_point(theta_a)
    to M square_point(theta_b), less D / (2N) for each diagonal strictly
    inside the span, D the corner_deficit of that corner's pair. The ends
    must lie well outside the corner layers, which are about 1/N wide.
    """
    with mpmath.workdps(30):
        m1, m2 = _inverse_columns(frame)
        deficits = _corner_deficits(frame)
        vertices, cut = [square_point(theta_a)], 0
        for k in range(8):  # the diagonals pi/4 + k*pi/2 in (0, 4*pi), for a span that starts in [0, 2*pi]
            diagonal = mpmath.pi / 4 + k * mpmath.pi / 2
            if theta_a < diagonal < theta_b:
                vertices.append(((1, 1), (-1, 1), (-1, -1), (1, -1))[k % 4])
                cut += deficits[k % 2]
        vertices.append(square_point(theta_b))
        path = sum(
            mpmath.hypot(m1[0] * (x1 - x0) + m2[0] * (y1 - y0), m1[1] * (x1 - x0) + m2[1] * (y1 - y0))
            for (x0, y0), (x1, y1) in zip(vertices, vertices[1:])
        )
        return float(path - cut / (2 * n))


def ulps_around(x: float, count: int) -> list[float]:
    """x and the count doubles on each side of it."""
    out = [x]
    lo = hi = x
    for _ in range(count):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


def reference_bisect(theta: float, n: int, hi: float = math.sqrt(2.0)) -> tuple[float, int]:
    """The radial factor by plain bisection, and how many times it evaluated
    the equation.

    Halves [1, hi] until the ends are adjacent doubles, evaluating
    F(t) = log((t*cos)^(2N) + (t*sin)^(2N)) at every midpoint. With hi = 3/2
    this is the loop that bisect_radial_factor proves it reproduces double for
    double; with the default sqrt(2), the tighter bracket it is checked
    against.
    """
    c = math.fabs(math.cos(theta))
    s = math.fabs(math.sin(theta))
    log_c = math.log(c) if c > 0.0 else -math.inf
    log_s = math.log(s) if s > 0.0 else -math.inf
    log_big, log_small = max(log_c, log_s), min(log_c, log_s)
    two_n = 2.0 * n
    lo = 1.0
    mid = 0.5 * (lo + hi)
    evaluations = 0
    while lo < mid < hi:
        evaluations += 1
        log_mid = math.log(mid)
        big = two_n * (log_mid + log_big)
        if big + math.log1p(math.exp(two_n * (log_mid + log_small) - big)) > 0.0:
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return mid, evaluations


_LN2 = math.log(2.0)


def reference_evaluate(theta: float, n: int) -> tuple[float, float, float, float, float, float]:
    """(rho, cos, sin, m, log(r), log1p(r**(2*N))) as the core kernels
    compute them, with every term computed: log1p and both exps at every
    angle off the axes, and the clamp's upper end at every call."""
    c = math.cos(theta)
    s = math.sin(theta)
    ca = math.fabs(c)
    sa = math.fabs(s)
    if ca >= sa:
        m, r = ca, sa / ca
    else:
        m, r = sa, ca / sa
    two_n = 2.0 * n
    if r == 0.0:
        log_r = -math.inf
        log1p_power = 0.0
        rho = 1.0 / m
    else:
        log_r = math.log(r)
        log1p_power = math.log1p(math.exp(two_n * log_r))
        rho = math.exp(-log1p_power / two_n) / m
    peak = math.exp(_LN2 * (n - 1) / two_n)
    if rho < 1.0:
        rho = 1.0
    elif rho > peak:
        rho = peak
    return rho, c, s, m, log_r, log1p_power


def reference_slope(n: int, c: float, s: float, m: float, log_r: float, log1p_power: float) -> float:
    """curve_velocity's slope drho/dtheta from reference_evaluate's pieces,
    with both exps computed at every angle off the axes."""
    if n == 1 or log_r == -math.inf:
        return 0.0
    low_power = math.exp((2.0 * n - 2.0) * log_r)
    shape = math.exp(-(1.0 + 0.5 / n) * log1p_power)
    slope = (c * s) / (m * m * m) * (1.0 - low_power) * shape
    return slope if math.fabs(c) >= math.fabs(s) else -slope


def reference_log_sum(p, n: int, frame: AffineFrame) -> float:
    """log(u^(2N) + v^(2N)) for (u, v) the frame's image of p, with
    log1p(exp(lo - hi)) computed at every point but two: -inf at the origin
    and +inf where both mapped coordinates overflow."""
    x, y = p
    au = math.fabs(frame.alpha * x + frame.beta * y + frame.gamma)
    av = math.fabs(frame.delta * x + frame.epsilon * y + frame.zeta)
    if au == 0.0 and av == 0.0:
        return -math.inf
    if au == math.inf and av == math.inf:
        return math.inf
    two_n = 2.0 * n
    a = two_n * math.log(au) if au != 0.0 else -math.inf
    b = two_n * math.log(av) if av != 0.0 else -math.inf
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def reference_fmt(value: float) -> str:
    """cli.fmt's rule, stated apart from the package: repr, then drop a trailing ".0"."""
    text = repr(float(value))
    return text[:-2] if text.endswith(".0") else text


def reference_emit_csv(curve) -> bytes:
    """cli.emit_csv with reference_fmt called once per number."""
    lines = ["theta,x,y"]
    for t, (x, y) in zip(curve.thetas, curve.points):
        lines.append(f"{reference_fmt(t)},{reference_fmt(x)},{reference_fmt(y)}")
    return ("\n".join(lines) + "\n").encode("ascii")


def reference_emit_json(curve) -> bytes:
    """cli.emit_json with reference_fmt called once per number."""
    frame_txt = ",".join(reference_fmt(c) for c in curve.frame.coefficients())
    samples = ",".join(
        f'{{"theta":{reference_fmt(t)},"x":{reference_fmt(x)},"y":{reference_fmt(y)}}}'
        for t, (x, y) in zip(curve.thetas, curve.points)
    )
    closed = "true" if curve.closed else "false"
    text = f'{{"n":{curve.exponent},"frame":[{frame_txt}],"closed":{closed},"samples":[{samples}]}}'
    return (text + "\n").encode("ascii")


def reference_emit_svg(curves) -> bytes:
    """cli.emit_svg with reference_fmt called once per number."""
    curves = list(curves)
    xs = [x for curve in curves for x, _ in curve.points]
    ys = [y for curve in curves for _, y in curve.points]
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    pad_x = 0.05 * (max_x - min_x) or 0.05
    pad_y = 0.05 * (max_y - min_y) or 0.05
    view = (
        f"{reference_fmt(min_x - pad_x)} {reference_fmt(min_y - pad_y)} "
        f"{reference_fmt((max_x - min_x) + 2.0 * pad_x)} {reference_fmt((max_y - min_y) + 2.0 * pad_y)}"
    )
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{view}">',
    ]
    for curve in curves:
        moves = [f"M {reference_fmt(curve.points[0][0])} {reference_fmt(curve.points[0][1])}"]
        moves.extend(f"L {reference_fmt(x)} {reference_fmt(y)}" for x, y in curve.points[1:])
        if curve.closed:
            moves.append("Z")
        path = " ".join(moves)
        lines.append(f'<path d="{path}" fill="none" stroke="black" stroke-width="0.01"/>')
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode("ascii")
