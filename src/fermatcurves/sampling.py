"""Sampling, arc length, and convergence diagnostics for the curve family.

Arc length is computed with adaptive Simpson quadrature. The integrand (the
parameterization speed) is analytic away from the axis and diagonal angles
theta = k*pi/4; at large N it develops near-kinks on the diagonals, so every
integral is split at those angles first and the adaptive recursion only ever
sees smooth pieces.
"""

from __future__ import annotations

import bisect as _bisect
import math
from dataclasses import dataclass

from . import core
from .core import IDENTITY, TWO_PI, AffineFrame, Point2
from .errors import QuadratureFailure, TooFewSamples

__all__ = [
    "ARC_ROOT_TOL",
    "DEFAULT_TOL",
    "RESIDUAL_TOL",
    "SampledCurve",
    "arc_length",
    "convergence_gap",
    "polyline_hausdorff",
    "resample_by_arclength",
    "sample_uniform_theta",
]

DEFAULT_TOL = 1e-10
RESIDUAL_TOL = 1e-9
ARC_ROOT_TOL = 1e-10

_MAX_DEPTH = 60
_MIN_RESOLUTION = 16
_MIN_TOL = 1e-14
_RESAMPLE_BASE = 4096
_QUARTER_PI = math.pi / 4.0
_SPAN_SLACK = 4.0 * math.ulp(TWO_PI)
_GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class SampledCurve:
    """Ordered polyline approximation of one curve, tagged with its parameters.

    ``thetas`` and ``points`` are parallel tuples; ``closed`` says whether the
    last sample connects back to the first. Construction validates the
    invariants: at least three samples, strictly increasing thetas within one
    period, and every point on the curve to within a membership residual of
    1e-9.
    """

    thetas: tuple[float, ...]
    points: tuple[Point2, ...]
    closed: bool
    exponent: int
    frame: AffineFrame

    def __post_init__(self):
        object.__setattr__(self, "thetas", tuple(float(t) for t in self.thetas))
        object.__setattr__(
            self, "points", tuple((float(x), float(y)) for x, y in self.points)
        )
        object.__setattr__(self, "closed", bool(self.closed))
        object.__setattr__(self, "exponent", core._check_exponent(self.exponent))
        if not isinstance(self.frame, AffineFrame):
            raise TypeError("frame must be an AffineFrame")
        if len(self.thetas) != len(self.points):
            raise ValueError(
                f"thetas and points lengths differ: {len(self.thetas)} != {len(self.points)}"
            )
        if len(self.thetas) < 3:
            raise TooFewSamples(f"need at least 3 samples, got {len(self.thetas)}")
        if self.thetas[0] < 0.0 or self.thetas[-1] > TWO_PI:
            raise ValueError("thetas must lie within one period [0, 2*pi)")
        for a, b in zip(self.thetas, self.thetas[1:]):
            if not a < b:
                raise ValueError("thetas must be strictly increasing")
        for t, p in zip(self.thetas, self.points):
            res = core._residual(p, self.exponent, self.frame)
            if not abs(res) <= RESIDUAL_TOL:
                core._check_point(p)  # a non-finite point fails too: report it as residual_log does
                raise ValueError(
                    f"point {p!r} at theta={t!r} is off the curve: residual {res:.3e}"
                )

    def __len__(self) -> int:
        return len(self.points)


def sample_uniform_theta(
    n: int, frame: AffineFrame = IDENTITY, count: int = 256
) -> SampledCurve:
    """Sample one full turn of the curve on the uniform theta grid 2*pi*k/count."""
    n = core._check_exponent(n)
    return _polyline(_uniform_thetas(_check_count(count)), n, frame, True)


def _polyline(thetas, n: int, frame: AffineFrame, closed: bool) -> SampledCurve:
    """The SampledCurve through the curve points at checked angles and exponent."""
    points = tuple(core._affine_point(t, n, frame) for t in thetas)
    return SampledCurve(tuple(thetas), points, closed, n, frame)


def _uniform_thetas(count: int) -> tuple[float, ...]:
    """The uniform grid 2*pi*k/count, k = 0 .. count-1, of a checked count."""
    return tuple((TWO_PI * k) / count for k in range(count))


def _check_count(count) -> int:
    count = core._check_integer(count, "count")
    if count < 3:
        raise TooFewSamples(f"need at least 3 samples, got {count}")
    return count


def _check_tol(tol) -> float:
    # Below ~1e-14 relative error the Simpson estimate is plain rounding
    # noise and the recursion subdivides forever instead of failing fast.
    tol = float(tol)
    if not tol >= _MIN_TOL:
        raise ValueError(f"tol must be at least {_MIN_TOL:g}, got {tol!r}")
    return tol


def arc_length(
    n: int,
    frame: AffineFrame = IDENTITY,
    theta_a: float = 0.0,
    theta_b: float = TWO_PI,
    tol: float = DEFAULT_TOL,
) -> float:
    """Arc length of the curve between parameter angles theta_a and theta_b.

    The span theta_b - theta_a must lie in [0, 2*pi]; a zero span returns
    exactly 0.0 and the full span covers one closed circuit. Raises
    QuadratureFailure if the tolerance cannot be met within the recursion
    depth limit.
    """
    n = core._check_exponent(n)
    theta_a = core._check_angle(theta_a)
    theta_b = core._check_angle(theta_b)
    tol = _check_tol(tol)
    span = theta_b - theta_a
    if span < 0.0 or span > TWO_PI + _SPAN_SLACK:
        raise ValueError(
            f"theta span must lie in [0, 2*pi], got {span!r} from ({theta_a!r}, {theta_b!r})"
        )
    return _arc_length(n, frame, core._normalize(theta_a), min(span, TWO_PI), tol)


def _arc_length(n: int, frame: AffineFrame, a: float, span: float, tol: float) -> float:
    """arc_length over [a, a + span] for checked arguments, 0 <= a < 2*pi, 0 <= span <= 2*pi."""
    if span == 0.0:
        return 0.0

    def speed(t: float) -> float:
        return core.curve_speed(t, n, frame)

    total = 0.0
    for lo, hi in _split_at_kinks(a, a + span):
        total += _adaptive_simpson(speed, lo, hi, tol)
    return total


def _split_at_kinks(a: float, b: float) -> list[tuple[float, float]]:
    """Cut [a, b] at every multiple of pi/4 strictly inside it."""
    cuts = [a]
    k = math.floor(a / _QUARTER_PI) + 1
    while True:
        x = k * _QUARTER_PI
        if x >= b:
            break
        if x > a:
            cuts.append(x)
        k += 1
    cuts.append(b)
    return list(zip(cuts, cuts[1:]))


def _adaptive_simpson(f, a: float, b: float, tol: float) -> float:
    fa = f(a)
    fm = f(0.5 * (a + b))
    fb = f(b)
    whole = (b - a) * ((fa + 4.0 * fm + fb) / 6.0)
    return _refine(f, a, b, fa, fm, fb, whole, tol, 0)


def _refine(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = (m - a) * ((fa + 4.0 * flm + fm) / 6.0)
    right = (b - m) * ((fm + 4.0 * frm + fb) / 6.0)
    refined = left + right
    err = (refined - whole) / 15.0
    if abs(err) <= tol * (1.0 + abs(refined)):
        return refined + err
    if depth >= _MAX_DEPTH:
        raise QuadratureFailure(
            f"error target not met on [{a!r}, {b!r}] after depth {_MAX_DEPTH}"
        )
    half = 0.5 * tol
    return _refine(f, a, m, fa, flm, fm, left, half, depth + 1) + _refine(
        f, m, b, fm, frm, fb, right, half, depth + 1
    )


def resample_by_arclength(
    n: int,
    frame: AffineFrame = IDENTITY,
    count: int = 256,
    tol: float = DEFAULT_TOL,
) -> SampledCurve:
    """Sample one full turn at ``count`` equal arc-length steps.

    A cumulative arc-length table on a 4096-node theta grid brackets each
    target; bracketed bisection then refines every sample until its
    cumulative arc length is within 1e-10 of the target.
    """
    n = core._check_exponent(n)
    count = _check_count(count)
    tol = _check_tol(tol)

    grid = (*_uniform_thetas(_RESAMPLE_BASE), TWO_PI)
    cum = [0.0] * (_RESAMPLE_BASE + 1)
    for k in range(1, _RESAMPLE_BASE + 1):
        cum[k] = cum[k - 1] + _arc_length(n, frame, grid[k - 1], grid[k] - grid[k - 1], tol)
    total = cum[-1]

    thetas = [0.0]
    step = total / count
    for j in range(1, count):
        target = step * j
        i = _bisect.bisect_right(cum, target) - 1
        i = min(max(i, 0), _RESAMPLE_BASE - 1)
        thetas.append(_invert_arclength(n, frame, grid[i], cum[i], grid[i + 1], target, tol))
    return _polyline(thetas, n, frame, True)


def _invert_arclength(n, frame, cell_start, cell_cum, cell_end, target, tol):
    """Bisect inside one table cell for the theta whose cumulative arc is target."""
    lo, hi = cell_start, cell_end
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gap = cell_cum + _arc_length(n, frame, cell_start, mid - cell_start, tol) - target
        if abs(gap) <= ARC_ROOT_TOL or hi - lo <= math.ulp(hi):
            return mid
        if gap > 0.0:
            hi = mid
        else:
            lo = mid
    return mid


def convergence_gap(
    n: int, frame: AffineFrame = IDENTITY, resolution: int = 4096
) -> float:
    """Largest distance between the degree-2N curve and its limit shape.

    Measured over a uniform theta grid between affine_curve_point and the
    limit-mapped square point of the same angle. For the identity frame this
    is the largest radial gap to the square.
    """
    n = core._check_exponent(n)
    resolution = core._check_integer(resolution, "resolution")
    if resolution < _MIN_RESOLUTION:
        raise ValueError(f"resolution must be at least {_MIN_RESOLUTION}, got {resolution}")
    worst = 0.0
    for t in _uniform_thetas(resolution):
        px, py = core._affine_point(t, n, frame)
        qx, qy = core.limit_map(core._square(t)[:2], frame)
        worst = max(worst, math.hypot(px - qx, py - qy))
    return worst


def polyline_hausdorff(a, b) -> float:
    """Symmetric Hausdorff distance between two polylines.

    Each direction measures every vertex of one polyline against the segments
    of the other; closed polylines include the wrap-around segment. Accepts
    SampledCurve instances or plain sequences of (x, y) pairs (plain
    sequences are treated as closed).
    """
    pa, ca = _as_polyline(a)
    pb, cb = _as_polyline(b)
    return math.sqrt(max(_directed_hausdorff(pa, pb, cb), _directed_hausdorff(pb, pa, ca)))


def _as_polyline(curve):
    if isinstance(curve, SampledCurve):
        return curve.points, curve.closed
    try:
        pts = [(float(x), float(y)) for x, y in curve]
    except (TypeError, ValueError):
        pts = []
    if len(pts) < 2:
        raise ValueError("polyline needs at least two (x, y) vertices")
    if not all(math.isfinite(x) and math.isfinite(y) for x, y in pts):
        raise ValueError("polyline vertices must be finite")
    return pts, True


def _directed_hausdorff(pts, poly, poly_closed: bool) -> float:
    """Largest squared distance from a vertex of pts to the polyline poly.

    The exact early-break scan of Taha & Hanbury (IEEE TPAMI 2015): a vertex's
    scan stops at the first segment within the running maximum, which that
    vertex cannot raise. Vertices are visited with a stride near len(pts)/phi,
    coprime to it, so large distances turn up early; each scan starts at the
    proportional segment, where the nearest one usually is.
    """
    ends = poly[1:] + poly[:1] if poly_closed else poly[1:]
    segments = []
    for (sx, sy), (ex, ey) in zip(poly, ends):
        dx, dy = ex - sx, ey - sy
        segments.append((sx, sy, dx, dy, dx * dx + dy * dy or 1.0))  # 1.0: zero length
    n, m = len(pts), len(segments)
    stride = round(n / _GOLDEN_RATIO)
    while math.gcd(stride, n) != 1:
        stride += 1
    worst = 0.0
    for k in range(n):
        i = k * stride % n
        px, py = pts[i]
        nearest = math.inf
        for j in range(i * m // n - m, i * m // n):  # a negative index wraps around
            sx, sy, dx, dy, len2 = segments[j]
            wx, wy = px - sx, py - sy
            t = (wx * dx + wy * dy) / len2
            t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t
            ex, ey = wx - t * dx, wy - t * dy
            d2 = ex * ex + ey * ey
            if d2 <= worst:
                break
            if d2 < nearest:
                nearest = d2
        else:
            worst = nearest
    return worst
