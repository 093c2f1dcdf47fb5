"""Closed-form geometry of the even-power curves x^(2N) + y^(2N) = 1.

The family interpolates between the unit circle (N = 1) and the boundary of
the square [-1, 1]^2 as N grows. Every member is star-shaped about the
origin, so a direction angle theta picks out exactly one curve point: the
unit direction vector scaled by the radial factor

    rho_N(theta) = (cos(theta)**(2*N) + sin(theta)**(2*N)) ** (-1 / (2*N)).

Summing the powers directly underflows once N is a few hundred, so all
routines here use the factored form

    rho = (1 / m) * (1 + r**(2*N)) ** (-1 / (2*N)),
    m = max(|cos|, |sin|),  r = min(|cos|, |sin|) / m,

with r**(2*N) evaluated as exp(2*N*log(r)). An underflow of that term to
zero is harmless (the factor it feeds is then exactly 1), which keeps the
evaluation stable for every exponent up to 2**31 - 1.

Where a term's double is known without computing it, the kernel skips it
and returns that double. Below a log of -746, exp is exactly 0.0, so away
from the diagonals at large N (2*N*log(r) < -746) log1p(r**(2*N)) is 0.0
and rho is exactly 1.0 / m, and in the slope r**(2*N-2) is 0.0 past the same
threshold and the shape factor is exp(-0.0) = 1.0. The clamp's upper end
2**((N-1)/(2*N)) is at least 2**(1/4) for N >= 2, so ``_evaluate`` alone
takes its exp lazily, for N = 1 or a rho above ``_PEAK_FLOOR``; the batched
bodies take it once per call.

One private scalar kernel, ``_evaluate``, does this work for every
one-angle evaluator: it takes cos, sin, m, r, log(r) and log1p(r**(2*N))
once per angle and returns them with the clamped radial factor. The radial
factor, the curve points, the square point and the limit factor are thin
wrappers over it, and ``_slope`` adds the slope drho/dtheta from its
pieces: the one body of ``curve_velocity`` and ``curve_speed``. The square
point and the limit factor read only (cos, sin, m), which do not depend on
N, at MAX_EXPONENT: there the log1p and exp of r**(2*N) are skipped except
within about 8.7e-8 rad of a diagonal.
The arc-length integrand has one batched body, ``_octant_speeds``: the
radial factor keeps the square's symmetries, so it evaluates one radial
factor and slope at an angle of the base octant [0, pi/4] and returns the
speeds of the four octants of a half turn that fold onto it. The
quadrature calls it once per panel for all 15 nodes.
Curve points in bulk have the same kind of body, ``_points``, which every
closed-form curve calls once; ``affine_curve_point`` stays on
``_evaluate``, as a batch of one costs more per call. Every copy,
``_evaluate`` with ``_slope``, ``_octant_speeds`` and ``_points``, skips
the same terms and gives the full expressions' doubles. Likewise
``_log_sums`` is the batched log-sum of ``residual_log``, for the
membership test and the residual command.
Each public function validates its arguments once and calls a private body
that trusts them, as the package's own loops over checked values do; the
quadrature's nodes, inside a span already checked, take no check.

The checks are cheap enough to run on every public call: a value whose
type is exactly int (an exponent or a count) or exactly float (an angle, a
point coordinate, a tolerance, a frame coefficient) is accepted by one type
comparison. Any other value takes the numbers.Integral or numbers.Real
test, which admits subclasses and numpy scalars and rejects bool, str,
bytes and None, so the fast path changes what a check costs, never what it
accepts; an int or Fraction beyond the double range becomes an infinity of
its sign and is then treated as one. Every point a caller passes,
to forward_affine and inverse_affine too, takes the same check. A frame
must be an AffineFrame, else TypeError.

An affine change of coordinates (u, v) = (alpha*x + beta*y + gamma,
delta*x + epsilon*y + zeta) generalizes the family to curves satisfying
u**(2*N) + v**(2*N) = 1 in the mapped coordinates; the same radial factor
parameterizes those curves through the inverse affine map, and the inverse
map alone carries the square boundary onto the large-N limit shape.

All functions are pure: identical inputs produce bit-identical outputs, no
global state is touched, and everything is safe to call from several
threads at once.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import InvalidAngle, OriginPoint, SingularFrame

__all__ = [
    "AffineFrame",
    "IDENTITY",
    "MAX_EXPONENT",
    "Point2",
    "TWO_PI",
    "affine_curve_point",
    "curve_point",
    "curve_speed",
    "curve_velocity",
    "forward_affine",
    "inverse_affine",
    "limit_map",
    "normalize_angle",
    "radial_factor",
    "radial_factor_limit",
    "residual_log",
    "square_point",
    "theta_of_point",
]

TWO_PI = 2.0 * math.pi
MAX_EXPONENT = 2**31 - 1

_LN2 = math.log(2.0)
_MAX_FACTOR = 1e12  # frame guard on k; for a unit-scale frame it sits where a 1e-12 determinant did
_FRAME_FIELDS = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta")
# exp(x) rounds to 0.0 for every x below log(2**-1075) = -745.13...
_EXP_ZERO = -746.0
# For N >= 2 the clamp's upper end 2**((N-1)/(2*N)) is at least 2**(1/4) = 1.18920..., above any rho up to
# this one: _evaluate alone takes its exp lazily, for N = 1 or a rho above it; the batched bodies once per call.
_PEAK_FLOOR = 1.189
# the libm functions the batched bodies bind to locals, in one unpacking per call
_LIBM = (math.cos, math.sin, math.fabs, math.hypot, math.log, math.log1p, math.exp)

Point2 = tuple[float, float]


def _check_angle(theta) -> float:
    try:
        value = _check_real(theta, "angle")
    except TypeError:
        raise InvalidAngle(f"angle must be a real number, got {theta!r}") from None
    if not math.isfinite(value):
        raise InvalidAngle(f"angle must be finite, got {value!r}")
    return value


def _check_integer(value, name: str) -> int:
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    return int(value)


def _check_real(value, name: str) -> float:
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:  # an int or Fraction beyond the double range counts as an infinity
        return math.inf if value > 0 else -math.inf


def _check_exponent(n) -> int:
    n = _check_integer(n, "exponent")
    if not 1 <= n <= MAX_EXPONENT:
        raise ValueError(f"exponent must be in [1, {MAX_EXPONENT}], got {n}")
    return n


def _check_point(p) -> Point2:
    try:
        x, y = p
    except (TypeError, ValueError):
        raise TypeError(f"point must be an (x, y) pair of real numbers, got {type(p).__name__}") from None
    x = _check_real(x, "point coordinate")
    y = _check_real(y, "point coordinate")
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"point coordinates must be finite, got ({x!r}, {y!r})")
    return x, y


def _check_frame(frame) -> AffineFrame:
    if not isinstance(frame, AffineFrame):
        raise TypeError(f"frame must be an AffineFrame, got {type(frame).__name__}")
    return frame


@dataclass(frozen=True)
class AffineFrame:
    """Coefficients of the affine map (x, y) -> (alpha*x + beta*y + gamma,
    delta*x + epsilon*y + zeta).

    The defaults give the identity map. Construction stores the linear part's
    determinant alpha*epsilon - beta*delta as ``det`` and rejects frames whose
    linear part is too near singular for the inverse map to be trusted, else
    SingularFrame: the linear part's condition number (scale-free) times
    1 + |(gamma, zeta)| must be at most 1e12, and det a normal double.
    """

    alpha: float = 1.0
    beta: float = 0.0
    gamma: float = 0.0
    delta: float = 0.0
    epsilon: float = 1.0
    zeta: float = 0.0

    def __post_init__(self):
        for name in _FRAME_FIELDS:
            value = _check_real(getattr(self, name), f"frame coefficient {name}")
            if not math.isfinite(value):
                raise ValueError(f"frame coefficient {name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "det", self.alpha * self.epsilon - self.beta * self.delta)
        # k bounds how much the frame magnifies rounding in a curve point; kappa = sigma_max / sigma_min
        # from sigma_max * sigma_min = |det|, sigma_max**2 + sigma_min**2 = ||A||_F**2 on entries <= 1.
        scale = max(abs(self.alpha), abs(self.beta), abs(self.delta), abs(self.epsilon)) or 1.0
        a, b, d, e = (c / scale for c in (self.alpha, self.beta, self.delta, self.epsilon))
        det = abs(a * e - b * d)
        t = (a * a + b * b + d * d + e * e) / (2.0 * det) if det else math.inf
        # the square root of each factor apart: their product overflows past t ~ 1.3e154
        kappa = t + math.sqrt(max(0.0, t - 1.0)) * math.sqrt(t + 1.0)
        k = kappa * (1.0 + math.hypot(self.gamma, self.zeta))
        failed = []
        if not k <= _MAX_FACTOR:
            failed.append(
                f"condition number {kappa:.6g} times 1 + |(gamma, zeta)| is {k:.6g} (must be <= {_MAX_FACTOR:g})"
            )
        if not 2.0**-1022 <= abs(self.det) < math.inf:
            failed.append(f"|det| = {abs(self.det):.6g} (must be a normal double)")
        if failed:
            raise SingularFrame("singular frame: " + ", ".join(failed))
        object.__setattr__(self, "_factor", k)

    def coefficients(self) -> tuple[float, float, float, float, float, float]:
        """The six coefficients in (alpha, beta, gamma, delta, epsilon, zeta) order."""
        return (self.alpha, self.beta, self.gamma, self.delta, self.epsilon, self.zeta)


IDENTITY = AffineFrame()


def normalize_angle(theta: float) -> float:
    """Map an angle in radians to the canonical range [0, 2*pi).

    The result is congruent to ``theta`` modulo 2*pi. NaN and infinities
    raise InvalidAngle.
    """
    return _normalize(_check_angle(theta))


def _normalize(theta: float) -> float:
    """normalize_angle for an already-checked angle."""
    r = math.fmod(theta, TWO_PI)
    if r < 0.0:
        r += TWO_PI
    if r >= TWO_PI:
        # Adding 2*pi to a tiny negative remainder can round up to 2*pi itself.
        r = 0.0
    return r


def _evaluate(theta: float, n: int) -> tuple[float, float, float, float, float, float]:
    """The scalar kernel behind every one-angle evaluator, for a checked angle and exponent.

    Returns (rho, cos, sin, m, log(r), log1p(r**(2*N))) with rho the clamped
    radial factor and m, r as in the module docstring; the last three are
    the pieces ``_slope`` reuses. r is 0, and log(r) -inf,
    only at theta = +-0.0. Where 2*N*log(r) < -746, theta = +-0.0 included,
    r**(2*N) = exp(2*N*log(r)) is exactly 0.0, so log1p of it is 0.0 and
    rho is exp(-0.0) / m = 1.0 / m: those are returned without the calls.
    The clamp's exp is taken only where rho could exceed its upper end.
    """
    c = math.cos(theta)
    s = math.sin(theta)
    ca = math.fabs(c)
    sa = math.fabs(s)
    # Comparisons, not max()/min(): on this hot path each builtin call costs
    # about as much as a libm call. Both forms give the same doubles.
    if ca >= sa:
        m, r = ca, sa / ca
    else:
        m, r = sa, ca / sa
    two_n = 2.0 * n
    log_r = math.log(r) if r > 0.0 else -math.inf
    log_power = two_n * log_r
    if log_power < _EXP_ZERO:
        log1p_power = 0.0
        rho = 1.0 / m
    else:
        log1p_power = math.log1p(math.exp(log_power))
        rho = math.exp(-log1p_power / two_n) / m
    # Without the clamp to the exact range [1, 2**((N-1)/(2*N))], rounding
    # can stick out of it by about one ulp.
    if rho < 1.0:
        rho = 1.0
    elif n == 1 or rho > _PEAK_FLOOR:
        peak = math.exp(_LN2 * (n - 1) / two_n)
        if rho > peak:
            rho = peak
    return rho, c, s, m, log_r, log1p_power


def radial_factor(theta: float, n: int) -> float:
    """Distance from the origin to the curve x^(2N) + y^(2N) = 1 along theta.

    Uses the factored log-domain form described in the module docstring, so
    the value is accurate for every admissible exponent; direct power
    summation would underflow around N = 500. The result is clamped to the
    exact mathematical range [1, 2**((N-1)/(2*N))], whose upper end is the
    value on the diagonals.
    """
    return _evaluate(_check_angle(theta), _check_exponent(n))[0]


def radial_factor_limit(theta: float) -> float:
    """Large-N limit of radial_factor: distance to the unit-square boundary."""
    return 1.0 / _evaluate(_check_angle(theta), MAX_EXPONENT)[3]


def curve_point(theta: float, n: int) -> Point2:
    """Point of x^(2N) + y^(2N) = 1 in direction theta."""
    rho, c, s = _evaluate(_check_angle(theta), _check_exponent(n))[:3]
    return (rho * c, rho * s)


def square_point(theta: float) -> Point2:
    """Radial projection of direction theta onto the boundary of [-1, 1]^2.

    Dividing both coordinates by the larger magnitude makes the larger
    output coordinate exactly +/-1.
    """
    c, s, m = _evaluate(_check_angle(theta), MAX_EXPONENT)[1:4]
    return (c / m, s / m)


def forward_affine(p: Point2, frame: AffineFrame = IDENTITY) -> Point2:
    """Apply the frame's map to a point."""
    return _forward(_check_point(p), _check_frame(frame))


def _forward(p: Point2, frame: AffineFrame) -> Point2:
    """forward_affine for an already-checked frame."""
    x, y = p
    return (
        frame.alpha * x + frame.beta * y + frame.gamma,
        frame.delta * x + frame.epsilon * y + frame.zeta,
    )


def inverse_affine(p: Point2, frame: AffineFrame = IDENTITY) -> Point2:
    """Apply the inverse of the frame's map to a point.

    As ``limit_map`` it carries the square [-1, 1]^2 boundary onto the large-N
    limit shape, which is the inverse affine image of that boundary.
    """
    u, v = _check_point(p)
    frame = _check_frame(frame)
    return _solve_linear(frame, u - frame.gamma, v - frame.zeta)


def _solve_linear(frame: AffineFrame, u: float, v: float) -> Point2:
    """Apply the inverse of the frame's linear part (no translation)."""
    det = frame.det
    return (
        (frame.epsilon * u - frame.beta * v) / det,
        (frame.alpha * v - frame.delta * u) / det,
    )


limit_map = inverse_affine


def affine_curve_point(theta: float, n: int, frame: AffineFrame = IDENTITY) -> Point2:
    """Point of the generalized curve whose forward image lies along theta.

    With the identity frame this reduces bit-for-bit to ``curve_point``.
    """
    theta, n, frame = _check_angle(theta), _check_exponent(n), _check_frame(frame)
    rho, c, s = _evaluate(theta, n)[:3]
    return _solve_linear(frame, rho * c - frame.gamma, rho * s - frame.zeta)


def _points(thetas, n: int, frame: AffineFrame) -> tuple[Point2, ...]:
    """affine_curve_point at each of the checked angles thetas, for a checked
    exponent and frame: the one body of every closed-form curve.

    One loop with _evaluate's radial factor (the same skips and the same
    clamp) and _solve_linear's inverse inline, and their libm functions,
    the clamp's upper end and the frame's coefficients bound once, so a
    curve pays one Python call instead of three per vertex. Every double is
    the one affine_curve_point gives, sign of zero included.
    """
    cos, sin, fabs, _, log, log1p, exp = _LIBM
    two_n = 2.0 * n
    peak = exp(_LN2 * (n - 1) / two_n)
    alpha, beta, gamma, delta, epsilon, zeta = frame.coefficients()
    det = frame.det
    points = []
    for theta in thetas:
        c = cos(theta)
        s = sin(theta)
        ca = fabs(c)
        sa = fabs(s)
        if ca >= sa:
            m, r = ca, sa / ca
        else:
            m, r = sa, ca / sa
        log_power = two_n * log(r) if r > 0.0 else -math.inf
        if log_power < _EXP_ZERO:
            rho = 1.0 / m
        else:
            rho = exp(-log1p(exp(log_power)) / two_n) / m
        if rho < 1.0:
            rho = 1.0
        elif rho > peak:
            rho = peak
        u = rho * c - gamma
        v = rho * s - zeta
        points.append(((epsilon * u - beta * v) / det, (alpha * v - delta * u) / det))
    return tuple(points)


def residual_log(p: Point2, n: int, frame: AffineFrame = IDENTITY) -> float:
    """Membership residual u^(2N) + v^(2N) - 1 for (u, v) = forward_affine(p).

    The power sum is evaluated in the log domain, so the residual stays
    meaningful at exponents where the powers themselves would underflow or
    overflow. Returns +inf when the sum overflows the double range, as when
    both mapped coordinates do, and exactly -1.0 when both are zero.
    """
    n = _check_exponent(n)
    x, y = _check_point(p)
    frame = _check_frame(frame)
    au = math.fabs(frame.alpha * x + frame.beta * y + frame.gamma)
    av = math.fabs(frame.delta * x + frame.epsilon * y + frame.zeta)
    two_n = 2.0 * n
    # != and >=, not > and max()/min(): a NaN image must give a NaN residual.
    a = two_n * math.log(au) if au != 0.0 else -math.inf
    b = two_n * math.log(av) if av != 0.0 else -math.inf
    if a == b:  # log1p(exp(0.0)) is log(2); the origin's -infs and two +infs stay as they are
        log_sum = a + _LN2
    else:
        hi, lo = (a, b) if a >= b else (b, a)
        log_sum = hi + math.log1p(math.exp(lo - hi))
    try:
        return math.expm1(log_sum)
    except OverflowError:
        return math.inf


def _log_sums(points, n: int, frame: AffineFrame) -> list[float]:
    """log(u^(2N) + v^(2N)) = log1p(residual_log) at each of the checked
    points, for a checked exponent and frame: residual_log's log-sum in one
    loop, with its libm functions and the frame's coefficients bound once."""
    fabs, log, log1p, exp = math.fabs, math.log, math.log1p, math.exp
    neg_inf = -math.inf
    two_n = 2.0 * n
    alpha, beta, gamma, delta, epsilon, zeta = frame.coefficients()
    sums = []
    for x, y in points:
        au = fabs(alpha * x + beta * y + gamma)
        av = fabs(delta * x + epsilon * y + zeta)
        a = two_n * log(au) if au != 0.0 else neg_inf
        b = two_n * log(av) if av != 0.0 else neg_inf
        if a == b:
            sums.append(a + _LN2)
        else:
            hi, lo = (a, b) if a >= b else (b, a)
            sums.append(hi + log1p(exp(lo - hi)))
    return sums


def theta_of_point(p: Point2, frame: AffineFrame = IDENTITY) -> float:
    """Parameter angle of a curve point: the direction of its forward image.

    Raises OriginPoint when the forward image is (0, 0).
    """
    u, v = _forward(_check_point(p), _check_frame(frame))
    if u == 0.0 and v == 0.0:
        raise OriginPoint("forward image is the origin, direction undefined")
    return _normalize(math.atan2(v, u))


def _slope(theta: float, n: int) -> tuple[float, float, float, float]:
    """(rho, cos, sin, drho) for a checked angle and exponent: ``_evaluate``
    and the slope drho/dtheta, the one body of the velocity and the speed.

    With S = cos^(2N) + sin^(2N) and rho = S^(-1/(2N)),

        drho/dtheta = S^(-1/(2N) - 1) * cos(theta) * sin(theta)
                      * (cos^(2N-2) - sin^(2N-2)),

    which factors through m and r into bounded terms; the shape factor
    S'^(-1 - 1/(2N)) with S' = 1 + r^(2N) reuses log1p(r^(2N)). drho is
    +-0.0 at N = 1 and theta = +-0.0, but -6.1e-17 at fl(pi/2) and 1.3e-16 at
    fl(pi/4) for N = 2. Two exps are skipped where their doubles are known:
    r^(2N-2) is 0.0 when its log is below -746 or NaN (theta = +-0.0, N = 1),
    and the shape factor is exp(+-0.0) = 1.0 exactly when log1p(r^(2N)) is 0.0.
    """
    rho, c, s, m, log_r, log1p_power = _evaluate(theta, n)
    log_low = (2.0 * n - 2.0) * log_r
    low_power = math.exp(log_low) if log_low >= _EXP_ZERO else 0.0  # r^(2N-2)
    shape = math.exp(-(1.0 + 0.5 / n) * log1p_power) if log1p_power else 1.0
    drho = (c * s) / (m * m * m) * (1.0 - low_power) * shape
    if math.fabs(c) < math.fabs(s):
        drho = -drho
    return rho, c, s, drho


def curve_velocity(theta: float, n: int, frame: AffineFrame = IDENTITY) -> Point2:
    """Derivative of affine_curve_point with respect to theta.

    The frame's inverse linear part applied to (drho*cos - rho*sin,
    drho*sin + rho*cos), with drho/dtheta as in ``_slope``.
    """
    theta, n, frame = _check_angle(theta), _check_exponent(n), _check_frame(frame)
    rho, c, s, drho = _slope(theta, n)
    return _solve_linear(frame, drho * c - rho * s, drho * s + rho * c)


def curve_speed(theta: float, n: int, frame: AffineFrame = IDENTITY) -> float:
    """Magnitude of curve_velocity, the arc-length integrand.

    The hypot of curve_velocity's double pair. For an identity linear part
    |velocity|^2 equals rho^2 + drho^2 exactly, so hypot(rho, drho) is used
    there, whatever the translation; it avoids the sin^2 + cos^2 rounding
    noise and makes the N = 1 speed exactly 1.0 everywhere.
    """
    theta, n, frame = _check_angle(theta), _check_exponent(n), _check_frame(frame)
    rho, c, s, drho = _slope(theta, n)
    if frame.alpha == 1.0 and frame.beta == 0.0 and frame.delta == 0.0 and frame.epsilon == 1.0:
        return math.hypot(rho, drho)
    return math.hypot(*_solve_linear(frame, drho * c - rho * s, drho * s + rho * c))


def _octant_speeds(phis, n: int, frame: AffineFrame) -> tuple[list[float], list[float], list[float], list[float]]:
    """The speeds of the four octant images of each checked angle phi of the
    base octant [0, pi/4], for a checked exponent and frame: the arc-length
    quadrature's kernel.

    The radial factor keeps the square's symmetries, so with (u, v) the
    identity-frame velocity at phi, the velocities at pi/2 - phi, pi/2 + phi
    and pi - phi are (-v, -u), (-v, u) and (u, -v). Image k, k = 0 .. 3, is
    the speed at the angle of octant k of a half turn that folds onto phi:
    the hypot of _solve_linear of that velocity, the frame's inverse applied
    to each permuted velocity from one radial factor and slope per phi.
    These are _evaluate's and _slope's expressions with cos >= sin >= 0,
    which hold on the base octant, so without the branch on the larger of
    |cos| and |sin| and without the slope's sign flip; image 0 is
    curve_speed at phi, double for double. The identity keeps
    hypot(rho, slope), as curve_speed does, one list for all four.
    """
    cos, sin, _, hypot, log, log1p, exp = _LIBM
    two_n = 2.0 * n
    low_n = 2.0 * n - 2.0
    shape_n = -(1.0 + 0.5 / n)
    alpha, beta, delta, epsilon, det = frame.alpha, frame.beta, frame.delta, frame.epsilon, frame.det
    identity = alpha == 1.0 and beta == 0.0 and delta == 0.0 and epsilon == 1.0
    peak = exp(_LN2 * (n - 1) / two_n)
    image0, image1, image2, image3 = [], [], [], []
    for phi in phis:
        c = cos(phi)
        s = sin(phi)
        r = s / c
        log_r = log(r) if r > 0.0 else -math.inf
        log_power = two_n * log_r
        if log_power < _EXP_ZERO:
            rho = 1.0 / c
            shape = 1.0
        else:
            log1p_power = log1p(exp(log_power))
            rho = exp(-log1p_power / two_n) / c
            shape = exp(shape_n * log1p_power)
        if rho < 1.0:
            rho = 1.0
        elif rho > peak:
            rho = peak
        log_low = low_n * log_r
        low_power = exp(log_low) if log_low >= _EXP_ZERO else 0.0
        slope = (c * s) / (c * c * c) * (1.0 - low_power) * shape
        if identity:
            image0.append(hypot(rho, slope))
            continue
        u = slope * c - rho * s
        v = slope * s + rho * c
        eu, ev, bu, bv = epsilon * u, epsilon * v, beta * u, beta * v
        au, av, du, dv = alpha * u, alpha * v, delta * u, delta * v
        # each inverse up to the sign of both coordinates, which hypot drops
        image0.append(hypot((eu - bv) / det, (av - du) / det))
        image1.append(hypot((ev - bu) / det, (au - dv) / det))
        image2.append(hypot((ev + bu) / det, (au + dv) / det))
        image3.append(hypot((eu + bv) / det, (av + du) / det))
    if identity:
        return image0, image0, image0, image0
    return image0, image1, image2, image3
