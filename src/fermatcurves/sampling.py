"""Sampling, arc length, and convergence diagnostics for the curve family.

Arc length is integrated with Gauss-Kronrod 7/15 panels. The integrand (the
parameterization speed) is analytic away from the axis and diagonal angles
theta = k*pi/4, and at large N it has a boundary layer about 1/(4N) wide on
each diagonal. The radial factor keeps the square's symmetries, so every
octant between two such angles is a reflection or a turn of the base octant
[0, pi/4], and in any frame the speed on it is one of four linear images of
the base octant's velocity. So every integral is split at those angles
into octant pieces, each folded onto a sub-interval of the base octant,
and is integrated there: one call of the kernel core._octant_speeds
evaluates a panel's 15 nodes once and gives the speed at the matching
nodes of all four images, and pieces that fold onto the same sub-interval
share those calls. The base octant starts from panels that halve in width
toward its diagonal across the layer only, from below 16/N: at a distance
d beyond 8/N the layer's term, about e^(-4Nd), is under e^(-32), below the
least tol. Bisection only refines what the error estimate still flags.
Every affine image of the curve is centrally symmetric, so the speed is
pi-periodic in theta: a full turn, in any frame and from any start, is the
span [0, 2*pi], whose octants k and k + 4 fold onto the same image at
weight 2, and resampling carries the period by the mirror below.
The nodes lie inside a span checked once at the public call, so they take
no input check. In the same way every closed-form curve takes its points
from one core._points call, and SampledCurve checks membership through one
core._log_sums call.

The gap to the limit square has a closed form, at a diagonal in every frame
(convergence_gap), so it reads no grid.

Resampling by arc length takes the accepted panels of its span, unfolded
into theta order through the span's octant pieces, as its cumulative table.
A full turn unfolds its panels through the pieces of [0, pi] only, and a
sample past the half length is the one found for the same arc length in the
first half, moved on by pi.
Inside its panel a sample is found by Newton's method on the integral of the
panel's own degree-14 interpolant of the speed, a Legendre series through
the 15 Kronrod node values, computed once per panel, so resampling evaluates
the speed only at the quadrature nodes.
"""

from __future__ import annotations

import bisect as _bisect
import decimal
import itertools
import math
import operator
from collections.abc import Mapping, Set
from dataclasses import dataclass

from . import core
from .core import IDENTITY, TWO_PI, AffineFrame, Point2
from .errors import OffCurve, QuadratureFailure, TooFewSamples

__all__ = [
    "DEFAULT_TOL",
    "SampledCurve",
    "arc_length",
    "convergence_gap",
    "polyline_hausdorff",
    "resample_by_arclength",
    "sample_uniform_theta",
]

DEFAULT_TOL = 1e-10
_MEMBERSHIP = 32.0  # SampledCurve's bound in 2N * u * k; the package's own points reach 4.7

# The most samples or grid points one call takes. A curve holds all its
# points at once, so a larger count is refused before anything is made.
_MAX_COUNT = 2**20
_MIN_TOL = 1e-14
_QUARTER_PI = math.pi / 4.0
_SPAN_SLACK = 4.0 * math.ulp(TWO_PI)
_GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0
# how far _directed_hausdorff pads each block's box, per axis
_PAD = 2.0**-38

# The Gauss-Kronrod 7/15 rule on [-1, 1], as in QUADPACK's qk15 (Piessens
# et al., 1983): the Kronrod nodes +-_XGK[j] and the centre; the Gauss nodes
# are +-_XGK[1], +-_XGK[3], +-_XGK[5] and the centre. QUADPACK's 33-digit
# node values are the rule's only data; every other table is derived from
# them at import by _legendre_inverse.
_XGK_DIGITS = (
    "0.991455371120812639206854697526329",
    "0.949107912342758524526189684047851",
    "0.864864423359769072789712788640926",
    "0.741531185599394439863864773280788",
    "0.586087235467691130294144845693013",
    "0.405845151377397166906606412076961",
    "0.207784955007898467600689403773245",
)
_XGK = tuple(map(float, _XGK_DIGITS))


def _legendre_inverse(half: tuple[str, ...]) -> tuple[tuple[float, ...], ...]:
    """The inverse of the matrix P_k(x_i), x_i the nodes -half, 0, reversed
    half in increasing order, by Gauss-Jordan elimination at 50 digits in a
    local decimal context, each entry rounded to a double. The entries below
    1e-20 vanish by symmetry (P_k has the parity of k) and are written 0.0.
    """
    with decimal.localcontext() as context:
        context.prec = 50
        positive = [decimal.Decimal(x) for x in half]
        nodes = [x.copy_negate() for x in positive] + [decimal.Decimal(0)] + positive[::-1]
        size = len(nodes)
        rows = []
        for i, x in enumerate(nodes):
            p = [decimal.Decimal(1), x]
            for k in range(1, size - 1):
                p.append(((2 * k + 1) * x * p[k] - k * p[k - 1]) / (k + 1))
            rows.append(p + [decimal.Decimal(int(i == j)) for j in range(size)])
        for col in range(size):
            pivot = max(range(col, size), key=lambda r: abs(rows[r][col]))
            rows[col], rows[pivot] = rows[pivot], rows[col]
            rows[col] = [v / rows[col][col] for v in rows[col]]
            for r, row in enumerate(rows):
                if r != col:
                    factor = row[col]
                    rows[r] = [v - factor * w for v, w in zip(row, rows[col])]
        inverse = [[float(v) for v in row[size:]] for row in rows]
    return tuple(tuple(0.0 if abs(v) < 1e-20 else v for v in row) for row in inverse)


# The Legendre coefficients of the degree-14 interpolant through values f[i]
# at the 15 Kronrod nodes in increasing order: c[k] = sum(_LEGENDRE[k][i] *
# f[i]). Both rules are interpolatory: each integrates its nodes'
# interpolant exactly, and over [-1, 1] P_0 integrates to 2 and every other
# P_k to 0, so a rule's weights are twice row 0 of the inverse on its own
# nodes: _WGK, up to the centre, on the Kronrod nodes and _WG on every
# second one, the Gauss nodes. Added in the order _gauss_kronrod uses, _WGK
# sums to exactly 2.0 in binary64, so the circle's constant speed 1.0
# integrates to the exact panel width.
_LEGENDRE = _legendre_inverse(_XGK_DIGITS)
_WGK = tuple(2.0 * w for w in _LEGENDRE[0][:8])
_WG = tuple(2.0 * w for w in _legendre_inverse(_XGK_DIGITS[1::2])[0][:4])
_NODES = 15
# QUADPACK's floor on the error test: the rounding of a 15-term sum.
_ROUNDING = 50.0 * math.ulp(1.0)
# Kernel evaluations per quadrature, each one base-octant node and its four
# image speeds: over 13x the most any exponent, frame, span and tol were
# measured to take (1,215, and 1,170 on a full turn, in a sweep of 88
# exponents up to 2^31 - 1, 11 frames up to kappa 8e11, two full turns and
# one partial span, and tol 1e-6 to 1e-14), so a call that cannot meet its
# tol ends in bounded time.
_EVAL_BUDGET = 2**14
_ROOT_STEPS = 60


@dataclass(frozen=True)
class SampledCurve:
    """Ordered polyline approximation of one curve, tagged with its parameters.

    ``thetas`` and ``points`` are parallel tuples of real numbers, stored as
    floats (else TypeError); ``closed``, a bool (else TypeError), says whether
    the last sample connects back to the first. Construction checks each value
    once: three or more samples, thetas strictly rising in [0, 2*pi], and every
    point finite and on the curve to within rounding, |log1p(residual_log)| <=
    32 * 2N * u * k with u = 2**-53 and k the frame guard's factor, else
    OffCurve. The package's builders construct directly (_trusted_curve).
    """

    thetas: tuple[float, ...]
    points: tuple[Point2, ...]
    closed: bool
    exponent: int
    frame: AffineFrame

    def __post_init__(self):
        thetas = tuple(core._check_real(t, "theta") for t in self.thetas)
        points = tuple(core._check_point(p) for p in self.points)
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "points", points)
        if not isinstance(self.closed, bool):
            raise TypeError(f"closed must be true or false, got {self.closed!r}")
        object.__setattr__(self, "exponent", core._check_exponent(self.exponent))
        core._check_frame(self.frame)
        if len(self.thetas) != len(self.points):
            raise ValueError(
                f"thetas and points lengths differ: {len(self.thetas)} != {len(self.points)}"
            )
        if len(self.thetas) < 3:
            raise TooFewSamples(f"need at least 3 samples, got {len(self.thetas)}")
        _check_thetas(self.thetas)
        bound = _MEMBERSHIP * 2.0 * self.exponent * 2.0**-53 * self.frame._factor
        log_sums = core._log_sums(self.points, self.exponent, self.frame)
        for t, p, log_sum in zip(self.thetas, self.points, log_sums):
            if not abs(log_sum) <= bound:
                raise OffCurve(
                    f"point {p!r} at theta={t!r} is off the curve:"
                    f" residual {core.residual_log(p, self.exponent, self.frame):.3e},"
                    f" bound |log1p(residual)| <= {bound:.3e}, for N={self.exponent} in {self.frame!r}"
                )

    def __len__(self) -> int:
        return len(self.points)


def _check_thetas(thetas) -> None:
    """Raise ValueError unless the real thetas lie within [0, 2*pi] and rise strictly."""
    if thetas[0] < 0.0 or thetas[-1] > TWO_PI:
        i = 0 if thetas[0] < 0.0 else len(thetas) - 1
        raise ValueError(f"thetas must lie within one period [0, 2*pi], got thetas[{i}] = {thetas[i]!r}")
    if not all(map(operator.lt, thetas, thetas[1:])):
        i = next(i for i in range(len(thetas) - 1) if not thetas[i] < thetas[i + 1])
        raise ValueError(
            f"thetas must be strictly increasing,"
            f" got thetas[{i}] = {thetas[i]!r} then thetas[{i + 1}] = {thetas[i + 1]!r}"
        )


def _trusted_curve(thetas, points, closed: bool, n: int, frame: AffineFrame) -> SampledCurve:
    """SampledCurve(...) without its checks, for builders that make every field valid."""
    curve = object.__new__(SampledCurve)
    vars(curve).update(thetas=thetas, points=points, closed=closed, exponent=n, frame=frame)
    return curve


def sample_uniform_theta(
    n: int, frame: AffineFrame = IDENTITY, count: int = 256
) -> SampledCurve:
    """Sample one full turn of the curve on the uniform theta grid 2*pi*k/count.

    Every builder takes a count in [3, 2**20]: TooFewSamples below, ValueError above.
    """
    n = core._check_exponent(n)
    return _polyline(_uniform_thetas(_check_count(count)), n, core._check_frame(frame), True)


def _polyline(thetas, n: int, frame: AffineFrame, closed: bool) -> SampledCurve:
    """The open or closed curve through the closed-form points at trusted thetas rising in [0, 2*pi]."""
    return _trusted_curve(thetas, core._points(thetas, n, frame), closed, n, frame)


def _uniform_thetas(count: int) -> tuple[float, ...]:
    """The uniform grid 2*pi*k/count, k = 0 .. count-1, of a checked count."""
    return tuple((TWO_PI * k) / count for k in range(count))


def _check_count(count) -> int:
    count = core._check_integer(count, "count")
    if count < 3:
        raise TooFewSamples(f"need at least 3 samples, got {count}")
    return _check_size(count, "count", 3)


def _check_size(value: int, name: str, least: int) -> int:
    """An integer count or grid size named name, if it lies in [least, 2**20], else ValueError."""
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    if value > _MAX_COUNT:
        raise ValueError(f"{name} must be at most {_MAX_COUNT}, got {value}")
    return value


def _check_tol(tol) -> float:
    # Below ~1e-14 relative error the target is under the rounding of the
    # result itself, which no refinement can meet.
    tol = core._check_real(tol, "tol")
    if not _MIN_TOL <= tol < math.inf:
        raise ValueError(f"tol must be finite and at least {_MIN_TOL:g}, got {tol!r}")
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
    exactly 0.0 and a full span, from any theta_a, is one closed circuit,
    integrated as the turn [0, 2*pi]. A span over 2*pi is full only within
    a few ulps of 2*pi, or where theta_b is exactly theta_a + 2*pi as
    rounded, which may overshoot by half an ulp of theta_b; a span under
    2*pi is integrated as given. The error is at most about
    tol * max(1, arc length), on every span alike. Raises QuadratureFailure
    if the tolerance cannot be met within the evaluation budget.
    """
    n = core._check_exponent(n)
    frame = core._check_frame(frame)
    theta_a = core._check_angle(theta_a)
    theta_b = core._check_angle(theta_b)
    tol = _check_tol(tol)
    span = theta_b - theta_a
    # theta_a + TWO_PI rounds to the nearest double, which far from 0 may lie
    # past the fixed slack; that exact sum is a full turn from any start.
    if span < 0.0 or (span > TWO_PI + _SPAN_SLACK and theta_b != theta_a + TWO_PI):
        raise ValueError(
            f"theta span must lie in [0, 2*pi], got {span!r} from ({theta_a!r}, {theta_b!r})"
        )
    # A full span, from any start, is the turn [0, 2*pi]. fsum: the panel
    # widths telescope exactly, so a constant speed of 1.0 (the circle) sums
    # to the exact span, eight times fl(pi/4), which is exactly TWO_PI.
    a = core._normalize(theta_a) if span < TWO_PI else 0.0
    return _length(_panels(n, frame, a, a + min(span, TWO_PI), tol))


def _length(panels) -> float:
    """The arc length of accepted base panels: each image's integral as many times as pieces cover it."""
    return math.fsum(w * integral for panel in panels for w, integral in zip(panel[2], panel[3]))


def _panels(n: int, frame: AffineFrame, a: float, b: float, tol: float):
    """Accepted Gauss-Kronrod panels (x0, x1, weights, integrals, images) of
    the base octant [0, pi/4] that integrate [a, b], 0 <= a <= b, in order.

    [a, b] splits into octant pieces (_pieces), each the image of a
    sub-interval of the base octant. The starting panels are those of the
    base ladder (_ladder) cut at the pieces' ends, and a panel's weights
    count the pieces of each image that cover it; a panel no piece covers is
    left out. integrals and images are each image's K15 integral over the
    panel and its speed at the 15 Kronrod nodes (core._octant_speeds), so
    the arc length is the weighted sum of the integrals, and resampling
    reads the speeds. On a full turn [0, 2*pi] every weight is 2. The error
    target tol * max(1, L), with L the starting panels' estimate of the arc
    length, is shared equally among them, and a bisected panel passes half
    its share to each half. A panel is accepted once sum(w * |K15 - G7|)
    over its images is within its share or within the rounding floor of its
    15-term sums; images cannot cancel each other's errors. Raises
    QuadratureFailure when a bisection would take the kernel evaluations
    past the budget.
    """
    pieces = _pieces(a, b)
    edges = sorted({*_ladder(n), *(end for _, phi0, phi1 in pieces for end in (phi0, phi1))})
    estimates = []
    for x0, x1 in zip(edges, edges[1:]):
        weights = [0, 0, 0, 0]
        for k, phi0, phi1 in pieces:
            if phi0 <= x0 and x1 <= phi1:
                weights[k % 4] += 1
        if any(weights):
            estimates.append((x0, x1, weights, *_gauss_kronrod(n, frame, x0, x1, weights)))
    if not estimates:
        return []
    spent = _NODES * len(estimates)
    share = tol * max(1.0, _length(estimates)) / len(estimates)
    stack = [(*estimate, share) for estimate in reversed(estimates)]
    panels = []
    while stack:
        x0, x1, weights, integrals, error, images, share = stack.pop()
        if error <= max(share, _ROUNDING * sum(map(operator.mul, weights, integrals))):
            panels.append((x0, x1, weights, integrals, images))
            continue
        if spent + 2 * _NODES > _EVAL_BUDGET:
            at = ", ".join(
                "[{!r}, {!r}]".format(*_theta_image(k, x0, x1)) for k, phi0, phi1 in pieces if phi0 <= x0 and x1 <= phi1
            )
            raise QuadratureFailure(
                f"arc length of N={n} in {frame!r} on [{a!r}, {b!r}] did not meet"
                f" tol {tol:g} within {_EVAL_BUDGET} kernel evaluations:"
                f" {spent} spent, base panel [{x0!r}, {x1!r}] still open, at theta {at}"
            )
        spent += 2 * _NODES
        mid = 0.5 * (x0 + x1)
        stack.append((mid, x1, weights, *_gauss_kronrod(n, frame, mid, x1, weights), 0.5 * share))
        stack.append((x0, mid, weights, *_gauss_kronrod(n, frame, x0, mid, weights), 0.5 * share))
    return panels


def _pieces(a: float, b: float) -> list[tuple[int, float, float]]:
    """The octant pieces of [a, b], 0 <= a <= b: (k, phi0, phi1) for each
    octant [k*pi/4, (k + 1)*pi/4] that [a, b] overlaps in more than a point,
    with [phi0, phi1] the sub-interval of the base octant [0, pi/4] that the
    overlap folds onto, theta = k*pi/4 + phi for even k and
    (k + 1)*pi/4 - phi for odd k. The speed at theta is image k % 4 of
    core._octant_speeds at phi.

    The octant edges are the doubles k * fl(pi/4), as the base ladder's
    diagonal is fl(pi/4). An end on an octant edge folds onto 0.0 or pi/4
    exactly, and an end inside one folds by one exact subtraction, clamped
    to pi/4 where the octant's rounded width exceeds it.
    """
    k = math.floor(a / _QUARTER_PI)
    k += (a >= (k + 1) * _QUARTER_PI) - (a < k * _QUARTER_PI)  # the quotient's rounding
    pieces = []
    lo = k * _QUARTER_PI
    while lo < b:
        hi = (k + 1) * _QUARTER_PI
        if k % 2:
            phi0 = min(hi - b, _QUARTER_PI) if b < hi else 0.0
            phi1 = min(hi - a, _QUARTER_PI) if a > lo else _QUARTER_PI
        else:
            phi0 = min(a - lo, _QUARTER_PI) if a > lo else 0.0
            phi1 = min(b - lo, _QUARTER_PI) if b < hi else _QUARTER_PI
        pieces.append((k, phi0, phi1))
        k += 1
        lo = hi
    return pieces


def _theta_image(k: int, x0: float, x1: float) -> tuple[float, float]:
    """The interval of octant k that the base interval [x0, x1] folds from, as in _pieces."""
    if k % 2:
        hi = (k + 1) * _QUARTER_PI
        return hi - x1, hi - x0
    lo = k * _QUARTER_PI
    return lo + x0, lo + x1


def _ladder(n: int) -> list[float]:
    """The base ladder, the starting panel edges on the base octant [0, pi/4]
    for the exponent n: 0, pi/4 and every point that lies pi/8 short of the
    diagonal pi/4, or pi/16, pi/32, ... short of it and closer than 16/n,
    down to the first such offset at most 1/(2n).

    Every octant folds onto this one, so its ends stand for the kinks
    k*pi/4 of the speed and its upper end for every diagonal
    theta = (2k + 1)*pi/4, where the speed has a boundary layer about
    1/(4N) wide: at a distance d from the diagonal the curve differs from
    the limit parallelogram's side by a term of order e^(-4Nd). So the
    panels halve in width toward the diagonal only across the layer: the
    offsets from 16/n up to pi/8 are left out (none up to n = 81). The next
    offset kept is then at least 8/n, where that term is under e^(-32),
    about 1.3e-14 and below the least tol; beyond it the speed is the
    parallelogram's smooth speed, and bisection splits a wide panel only if
    tol asks.
    """
    offsets = [_QUARTER_PI / 2.0**j for j in range(1, math.ceil(math.log2(math.pi * n)))]
    offsets = offsets[:1] + [d for d in offsets[1:] if d < 16.0 / n]
    return [0.0, *(_QUARTER_PI - d for d in offsets), _QUARTER_PI]


def _gauss_kronrod(n: int, frame: AffineFrame, x0: float, x1: float, weights):
    """The 15-point Kronrod integral of each image's speed over the base
    panel [x0, x1], the sum of weight * |K15 - G7| over the images with the
    7-point Gauss integral G7, and each image's speed at the 15 Kronrod nodes
    in increasing order.

    One core._octant_speeds call evaluates all 15 nodes, with no input
    check: they lie inside the base octant. An image of weight 0 is not
    summed; its integral reads 0.0. The K15 and G7 sums add their terms in
    the order that makes _WGK sum to exactly 2.0."""
    center = 0.5 * (x0 + x1)
    half = 0.5 * (x1 - x0)
    nodes = [center - half * x for x in _XGK]
    nodes += [center, *(center + half * x for x in reversed(_XGK))]
    images = core._octant_speeds(nodes, n, frame)
    k0, k1, k2, k3, k4, k5, k6, k7 = _WGK
    g0, g1, g2, g3 = _WG
    integrals = []
    error = 0.0
    for weight, speeds in zip(weights, images):
        if not weight:
            integrals.append(0.0)
            continue
        f0, f1, f2, f3, f4, f5, f6, f7, f8, f9, f10, f11, f12, f13, f14 = speeds
        p1, p3, p5 = f1 + f13, f3 + f11, f5 + f9  # the Gauss nodes' pairs
        kronrod = (
            k7 * f7 + k0 * (f0 + f14) + k1 * p1 + k2 * (f2 + f12) + k3 * p3 + k4 * (f4 + f10) + k5 * p5 + k6 * (f6 + f8)
        )
        gauss = g3 * f7 + g0 * p1 + g1 * p3 + g2 * p5
        integrals.append(half * kronrod)
        error += weight * abs(half * kronrod - half * gauss)
    return integrals, error, images


def _unfold(panels, pieces) -> list[tuple[float, float, float, list[float]]]:
    """The accepted base panels of a span (_panels) as panels (t0, t1,
    integral, speeds) of the span in theta order: per octant piece
    (_pieces), octant k's image of each panel it covers, with the panel
    order and the node speeds reversed where octant k runs backwards in phi
    (odd k). The Kronrod nodes are symmetric, so a reversed panel's speeds
    are its nodes' in increasing theta."""
    table = []
    for k, phi0, phi1 in pieces:
        for x0, x1, _, integrals, images in reversed(panels) if k % 2 else panels:
            if phi0 <= x0 and x1 <= phi1:
                speeds = images[k % 4]
                table.append((*_theta_image(k, x0, x1), integrals[k % 4], speeds[::-1] if k % 2 else speeds))
    return table


def resample_by_arclength(
    n: int,
    frame: AffineFrame = IDENTITY,
    count: int = 256,
    tol: float = DEFAULT_TOL,
) -> SampledCurve:
    """Sample one full turn at ``count`` equal arc-length steps.

    The accepted quadrature panels of the full turn [0, 2*pi], the ones
    arc_length sums, unfolded from the base octant into theta order over
    the half turn [0, pi], form a cumulative arc-length table that
    brackets each target; a target past the half length is
    placed pi on from the same arc length in the first half, and one that
    lands on it exactly is pi. Inside the bracketing panel the arc length
    is the antiderivative of the panel's own interpolant of the speed, so
    no speed evaluation is made outside the quadrature. Newton's method on
    it, with bisection as the safeguard, refines every sample until its
    cumulative arc length is within the panels' rounding floor, 50 eps
    relative, of the target, or within the arc that one ulp of theta spans.
    Raises QuadratureFailure if a sample misses that after a fixed number
    of steps.
    """
    n = core._check_exponent(n)
    frame = core._check_frame(frame)
    count = _check_count(count)
    return _polyline(_arclength_thetas(n, frame, count, _check_tol(tol)), n, frame, True)


def _arclength_thetas(
    n: int, frame: AffineFrame, count: int, tol: float, lo: float = 0.0, hi: float = TWO_PI, full_turn: bool = True
) -> tuple[float, ...]:
    """count thetas at equal arc-length steps, for checked arguments, on the
    panels of the span at tol (_panels): a full turn from 0 on the panels of
    [0, 2*pi] unfolded over [0, pi], a target past that half's length placed
    pi on from the same arc length in the first half; or the arc [lo, hi],
    with no mirror, from exactly lo to exactly hi, its grid held to the theta
    rule (_check_thetas).
    """
    a, b = lo + 0.0, hi  # + 0.0: from lo = -0.0 the span starts at 0.0; a full turn is (0.0, TWO_PI)
    panels = _unfold(_panels(n, frame, a, b, tol), _pieces(a, math.pi if full_turn else b))
    cum = list(itertools.accumulate((panel[2] for panel in panels), initial=0.0))
    length = math.fsum(panel[2] for panel in panels)
    step = 2.0 * length / count if full_turn else length / (count - 1)
    series = {}
    thetas = [a]
    for j in range(1, count if full_turn else count - 1):
        target = step * j
        if target in (0.0, length):  # the full turn's mirror point, or an arc of no length
            thetas.append(math.pi if full_turn else a)
            continue
        shift, offset = (math.pi, length) if target > length else (0.0, 0.0)
        i = min(_bisect.bisect_right(cum, target - offset) - 1, len(panels) - 1)
        if i not in series:
            series[i] = _series(panels[i])
        thetas.append(shift + _newton_in_panel(n, frame, series[i], cum[i] + offset, target))
    if not full_turn:
        thetas.append(hi)
        _check_thetas(thetas)  # a few ulps wide, or of no length, an arc's samples tie
    return tuple(thetas)


def _series(panel):
    """The panel (x0, x1, integral, speeds) with its speeds replaced by the
    Legendre coefficients of their degree-14 interpolant."""
    x0, x1, value, speeds = panel
    return x0, x1, value, [sum(map(operator.mul, row, speeds)) for row in _LEGENDRE]


def _newton_in_panel(n: int, frame: AffineFrame, panel, cum: float, target: float) -> float:
    """The theta in panel (x0, x1, integral, coefficients), whose start lies
    at arc length cum, where the arc length reaches target.

    The arc length inside the panel is the integral of the Legendre series
    with those coefficients, the degree-14 interpolant of the speed through
    the panel's Kronrod node values (_series). K15 is interpolatory, so over
    the whole panel it integrates to the panel's own integral, and the
    cumulative table stays consistent. The search stops once the gap is
    within the rounding floor of the target or within the arc that one
    rounding of theta spans: where the speed is large against the target,
    no double theta may come closer.
    """
    x0, x1, value, coefficients = panel
    lo, hi = x0, x1
    theta = x0 + (x1 - x0) * ((target - cum) / value)
    for _ in range(_ROOT_STEPS):
        arc, speed = _legendre_integral(coefficients, x0, x1, theta)
        gap = cum + arc - target
        if abs(gap) <= _ROUNDING * target + abs(speed) * math.ulp(theta):
            return theta
        if gap > 0.0:
            hi = theta
        else:
            lo = theta
        theta -= gap / speed
        if not lo < theta < hi:
            theta = 0.5 * (lo + hi)
    raise QuadratureFailure(
        f"arc-length resampling of N={n} in {frame!r}: theta for arc length {target!r}"
        f" in panel [{x0!r}, {x1!r}] still {gap:.3e} off after {_ROOT_STEPS} Newton steps"
    )


def _legendre_integral(c, x0: float, x1: float, theta: float) -> tuple[float, float]:
    """The integral from x0 to theta of the Legendre series c on [x0, x1], and
    the series itself at theta.

    With x the panel coordinate in [-1, 1], the integral of P_k from -1 to x
    is (P_{k+1} - P_{k-1}) / (2k + 1) = (x^2 - 1) P_k'(x) / (k(k + 1)). P_k
    comes from the three-term recurrence and P_k' from the first rule
    differentiated, P_{k+1}' = P_{k-1}' + (2k + 1) P_k. The second form
    factors the integral as (x + 1) * (c[0] + (x - 1) * tail), with x + 1
    and x - 1 taken from theta directly, so it keeps its relative accuracy
    near the panel start, where the differences of the first would cancel.
    """
    half = 0.5 * (x1 - x0)
    x = (theta - x0) / half - 1.0
    p0, p1, d0, d1 = 1.0, x, 0.0, 1.0  # P_{k-1}, P_k, P_{k-1}', P_k' at k = 1
    series = c[0] + c[1] * x
    tail = 0.5 * c[1]
    for k in range(1, _NODES - 1):
        p0, p1, d0, d1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1), d1, d0 + (2 * k + 1) * p1
        series += c[k + 1] * p1
        tail += c[k + 1] * d1 / ((k + 1) * (k + 2))
    return (theta - x0) * (c[0] + (theta - x1) / half * tail), series


def convergence_gap(n: int, frame: AffineFrame = IDENTITY) -> float:
    """Largest distance between the degree-2N curve and its limit shape,
    over every angle: sup |affine_curve_point - limit_map(square_point)|.

    At each theta the two points lie on one ray of the mapped coordinates,
    so with M the frame's inverse linear part, m and r as in core and
    q = (cos, sin) / m on the square's boundary, the distance is
    (1 - rho*m) * |M q|. The first factor, 1 - (1 + r**(2N))**(-1/(2N)),
    depends only on r and is largest at r = 1, the four corners, where it
    is 1 - 2**(-1/(2N)). |M q| is convex along each edge of the square,
    so it too is largest at a corner. Both peak at a diagonal, so the gap is
    -expm1(-ln 2 / (2N)) * max(|M(1, 1)|, |M(1, -1)|), in every frame and
    at every N; it does not depend on the translation. For the identity
    frame it is the largest radial gap to the square.
    """
    n = core._check_exponent(n)
    frame = core._check_frame(frame)
    corners = (core._solve_linear(frame, 1.0, 1.0), core._solve_linear(frame, 1.0, -1.0))
    return -math.expm1(-core._LN2 / (2.0 * n)) * max(math.hypot(*corner) for corner in corners)


def polyline_hausdorff(a, b) -> float:
    """Symmetric Hausdorff distance between two polylines.

    Each direction measures every vertex of one polyline against the segments
    of the other; closed polylines include the wrap-around segment. Accepts
    SampledCurve instances or plain ordered sequences of (x, y) pairs (plain
    sequences are treated as closed); a set or a mapping, whose order is not
    the polyline's, raises ValueError. A distance past the double range is
    +inf. Each polyline is scanned as flat x and y lists, scaled by one power
    of two with ldexp.
    """
    pa, ca = _as_polyline(a)
    pb, cb = _as_polyline(b)
    (ax, ay), (bx, by) = zip(*pa), zip(*pb)
    # Squared distances overflow past about 1.3e154. Scaling every
    # coordinate below 1 by a power of two keeps them in range and fixes
    # _directed_hausdorff's box padding; the scale is exact for every
    # coordinate it leaves a normal double, so the result is the unscaled scan's.
    # ldexp, not a product with 2^-exponent, which overflows where every
    # coordinate is subnormal.
    exponent = math.frexp(max(max(map(abs, c)) for c in (ax, ay, bx, by)))[1]
    ax, ay, bx, by = (list(map(math.ldexp, c, itertools.repeat(-exponent))) for c in (ax, ay, bx, by))
    worst = max(_directed_hausdorff(ax, ay, bx, by, cb), _directed_hausdorff(bx, by, ax, ay, ca))
    try:
        return math.ldexp(math.sqrt(worst), exponent)
    except OverflowError:
        return math.inf


def _as_polyline(curve):
    if isinstance(curve, SampledCurve):
        return curve.points, curve.closed
    if isinstance(curve, (Set, Mapping)):
        raise ValueError(f"polyline vertices must be ordered, got a {type(curve).__name__}")
    try:
        pts = [(x, y) for x, y in curve]
    except (TypeError, ValueError):
        pts = []
    if len(pts) < 2:
        raise ValueError("polyline needs at least two (x, y) vertices")
    return [core._check_point(p) for p in pts], True


def _directed_hausdorff(xs, ys, qx, qy, poly_closed: bool) -> float:
    """Largest squared distance from a vertex (xs[i], ys[i]) to the polyline
    through the vertices (qx[j], qy[j]).

    The exact early-break scan of Taha & Hanbury (IEEE TPAMI 2015): a vertex's
    scan stops at the first segment within the running maximum, which that
    vertex cannot raise. Vertices are visited with a stride near len(xs)/phi,
    coprime to it, so large distances turn up early; each scan starts at the
    two segments that meet at the proportional vertex, the likeliest nearest,
    and a vertex that is no new record mostly stops at the first. Segment j
    runs from vertex j to vertex j + 1 and is read from the coordinate lists
    by index, its squared length computed at each test.

    Past those two the scan goes by blocks of about sqrt(m) contiguous
    segments, from the proportional one's block on, and skips a block whose
    box, padded by _PAD = 2^-38 per axis, lies farther than sqrt(nearest),
    nearest being the least squared distance the vertex has met. This needs
    every coordinate below 1 in magnitude, as polyline_hausdorff's scale
    makes them: a segment's computed distance is then within about 2^-50 of
    the distance to a point on it, which lies in the box, and the padded box
    lies farther than sqrt(nearest) only where the box lies farther than
    sqrt(nearest) + 2^-38. So every segment of a skipped block has a computed
    squared distance above nearest, and above the running maximum. Skipping
    it changes neither the vertex's minimum nor where its scan breaks off,
    so the maximum is the full scan's, double for double.
    A record vertex tests about sqrt(m) boxes and one or two blocks of
    segments instead of all m segments.
    """
    if poly_closed:  # the wrap-around segment
        qx, qy = [*qx, qx[0]], [*qy, qy[0]]
    n, m = len(xs), len(qx) - 1
    size = math.isqrt(m)
    blocks = []  # each block's padded box and its segments' range
    for lo in range(0, m, size):
        hi = min(lo + size, m)
        span_x, span_y = qx[lo : hi + 1], qy[lo : hi + 1]
        blocks.append((min(span_x) - _PAD, max(span_x) + _PAD, min(span_y) - _PAD, max(span_y) + _PAD, lo, hi))
    stride = round(n / _GOLDEN_RATIO)
    while math.gcd(stride, n) != 1:
        stride += 1
    worst = 0.0
    for k in range(n):
        i = k * stride % n
        px, py = xs[i], ys[i]
        start = (i * m // n - 1) % m
        sx, sy = qx[start], qy[start]  # _scan's test, inline: most vertices stop here
        dx, dy = qx[start + 1] - sx, qy[start + 1] - sy
        wx, wy = px - sx, py - sy
        t = (wx * dx + wy * dy) / (dx * dx + dy * dy or 1.0)  # 1.0: zero length
        t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t
        ex, ey = wx - t * dx, wy - t * dy
        nearest = ex * ex + ey * ey
        if nearest <= worst:
            continue
        other = start + 1 if start + 1 < m else 0  # the vertex's other segment
        nearest = _scan(px, py, qx, qy, other, other + 1, worst, nearest)
        if nearest <= worst:
            continue
        first = start // size
        for b in range(first - len(blocks), first):  # a negative index wraps around
            x0, x1, y0, y1, lo, hi = blocks[b]
            bx = x0 - px if px < x0 else px - x1 if px > x1 else 0.0
            by = y0 - py if py < y0 else py - y1 if py > y1 else 0.0
            if bx * bx + by * by > nearest:
                continue
            nearest = _scan(px, py, qx, qy, lo, hi, worst, nearest)
            if nearest <= worst:
                break
        else:
            worst = nearest
    return worst


def _scan(px: float, py: float, qx, qy, lo: int, hi: int, worst: float, nearest: float) -> float:
    """The least of nearest and the squared distances from (px, py) to the
    segments lo to hi - 1, or the first of those distances within worst."""
    for j in range(lo, hi):
        sx, sy = qx[j], qy[j]
        dx, dy = qx[j + 1] - sx, qy[j + 1] - sy
        wx, wy = px - sx, py - sy
        t = (wx * dx + wy * dy) / (dx * dx + dy * dy or 1.0)
        t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t
        ex, ey = wx - t * dx, wy - t * dy
        d2 = ex * ex + ey * ey
        if d2 <= worst:
            return d2
        if d2 < nearest:
            nearest = d2
    return nearest
