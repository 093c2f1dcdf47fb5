"""Seeded request generation for the four benchmark workloads.

Pure standard library: this module never imports the program under test, so
the requests depend on the seed alone. Every workload is a stream of cycles.
A cycle holds a fixed mix of request kinds; the seed only draws the exponent,
the angles and the order inside the cycle. For each kind, a cycle's m
exponents are a systematic log-uniform sample of [1, 2^31 - 1]: one random
phase, then one draw in each of m equal log bands. Frames rotate through the
fixed set, shifted by one each cycle. So two seeds send the same mix with the
same spread of exponents, and the run-to-run noise from the inputs stays
small.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import NamedTuple

MAX_EXPONENT = 2**31 - 1
TWO_PI = 2.0 * math.pi

# The fixed frame set: identity, a rotation, the README frame, a general frame.
FRAMES = (
    "1,0,0,0,1,0",
    "0.8,-0.6,0,0.6,0.8,0",
    "2,0.5,-1,0,1.5,3",
    "1,0.3,0.2,-0.4,0.7,-0.5",
)
# Passes the determinant guard with a condition number near 1e12.
NEAR_SINGULAR = "1,1,0,1,1.000000000005,0"
SINGULAR = "1,2,0,2,4,0"
ARC_TOLS = ("1e-6", "1e-10", "1e-12")
ARC_DRAWS = 33  # per arclength kind and cycle
# Partial spans: band j of the exponents gets start band 7j and length band
# 5j (mod ARC_DRAWS); both steps are coprime to it, so each is a permutation.
ARC_START_STEP, ARC_LENGTH_STEP = 7, 5
BAD_EXPONENTS = (0, -7, 2**31, 10**12)

WORKLOADS = ("bulk-sample", "arclength", "oracle-diff", "point-query")

POINT_FUNCS = (
    "radial_factor",
    "curve_point",
    "affine_curve_point",
    "residual_log",
    "theta_of_point",
    "curve_speed",
    "curve_velocity",
)
POINT_CALLS_PER_FUNC = 512

# Expected outcomes: "ok" must exit 0 and pass its output check, "invalid"
# must exit 2, "any" must exit 0, 2 or 3 (the near-singular frame).
EXPECT_OK = "ok"
EXPECT_INVALID = "invalid"
EXPECT_ANY = "any"
# Ways a request can miss its expectation, as counted in fail.<kind>.
FAILURES = ("exit_nonzero", "wrong_exit", "wrong_output", "deadline")


@dataclass(frozen=True)
class Request:
    """One CLI invocation, what it must do, and the work it is worth."""

    rid: int
    argv: tuple[str, ...]
    expect: str
    work: int
    params: dict = field(compare=False, hash=False)


class Call(NamedTuple):
    """One scalar library call of the point-query workload."""

    rid: int
    func: str
    theta: float
    n: int
    frame: int
    point: tuple[float, float] | None  # input of residual_log and theta_of_point


def parse_frame(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


def exponent_at(u: float) -> int:
    """The exponent at fraction u of the log range of [1, 2^31 - 1]."""
    return min(MAX_EXPONENT, max(1, int(math.exp(u * math.log(MAX_EXPONENT)))))


class Generator:
    """Endless stream of request cycles for one workload, fixed by the seed."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
        self._rng = random.Random(f"{workload}:{seed}")
        self._shift: dict[str, int] = {}
        self._rid = 0
        self._cycle = getattr(self, "_cycle_" + workload.replace("-", "_"))

    def cycles(self):
        while True:
            items = self._cycle()
            self._rng.shuffle(items)
            yield items

    def _draws(self, kind: str, m: int) -> list[tuple[int, str]]:
        """m (exponent, frame) pairs for one request kind in one cycle."""
        phase = self._rng.random()
        shift = self._shift.setdefault(kind, self._rng.randrange(len(FRAMES)))
        self._shift[kind] = shift + 1
        return [(exponent_at((j + phase) / m), FRAMES[(j + shift) % len(FRAMES)]) for j in range(m)]

    def _req(self, argv, expect, work, **params) -> Request:
        self._rid += 1
        return Request(self._rid, tuple(str(a) for a in argv), expect, work, params)

    def _grid(self, kind, m, command, count, extra=(), work=None, **params) -> list[Request]:
        return [
            self._req([command, "--n", n, "--frame", frame, "--count", count, *extra], EXPECT_OK,
                      count if work is None else work, kind=kind, command=command, n=n,
                      frame=frame, count=count, **params)
            for n, frame in self._draws(kind, m)
        ]

    def _cycle_bulk_sample(self) -> list[Request]:
        rng = self._rng
        out = []
        for command, fmt in (("sample", "csv"), ("sample", "json"), ("sample", "svg"),
                             ("residual", None), ("gap", None)):
            extra = ("--format", fmt) if fmt else ()
            for count in (256, 1024, 4096):
                out += self._grid(f"{command}/{fmt or 'scalar'}/{count}", 4, command, count, extra, fmt=fmt)
        for _, frame in self._draws("svg-family", 2):
            k = rng.randint(2, 16)
            count = rng.choice((64, 128, 256))
            argv = ["svg", "--n", k, "--frame", frame, "--count", count]
            out.append(self._req(argv, EXPECT_OK, k * count, kind="svg-family",
                                 command="svg", n=k, frame=frame, count=count))
        out += self._invalid()
        return out

    def _invalid(self) -> list[Request]:
        """One of each invalid case: exactly singular frame, exponent out of range, count < 3."""
        rng = self._rng
        n = exponent_at(rng.random())
        singular = [rng.choice(("sample", "residual", "gap")), "--n", n, "--frame", SINGULAR, "--count", 256]
        bad_n = [rng.choice(("sample", "residual", "gap")), f"--n={rng.choice(BAD_EXPONENTS)}",
                 "--frame", rng.choice(FRAMES), "--count", 256]
        # count < 3 is a polyline error; residual and gap read --count as a grid size.
        bad_count = ["sample", "--n", n, "--count", rng.choice((0, 1, 2)),
                     "--format", rng.choice(("csv", "json", "svg"))]
        return [self._req(argv, EXPECT_INVALID, 0, command=argv[0], kind=f"invalid/{kind}")
                for kind, argv in (("singular", singular), ("exponent", bad_n), ("count", bad_count))]

    def _cycle_arclength(self) -> list[Request]:
        # One cycle is a whole run: 33 draws per kind keep the count of
        # requests beyond the cost cliff, and so the run time, nearly fixed.
        # A partial span's cost depends on its length and on how many
        # diagonals it crosses, so starts and lengths are systematic samples
        # too, each with its own random phase, tied to the exponent bands by
        # fixed permutations: the seed moves every span a little, never the mix.
        m = ARC_DRAWS
        out = []
        for tol in ARC_TOLS:
            for partial in (False, True):
                kind = f"arclength/{tol}/{'partial' if partial else 'full'}"
                start, length = self._rng.random(), self._rng.random()
                for j, (n, frame) in enumerate(self._draws(kind, m)):
                    lo, hi = 0.0, TWO_PI
                    argv = ["arclength", "--n", n, "--frame", frame, "--tol", tol]
                    if partial:
                        lo = TWO_PI * ((ARC_START_STEP * j) % m + start) / m
                        hi = lo + TWO_PI * (0.05 + 0.45 * ((ARC_LENGTH_STEP * j) % m + length) / m)
                        argv += ["--theta-range", f"{lo!r},{hi!r}"]
                    out.append(self._req(argv, EXPECT_OK, 1, kind=kind, command="arclength", n=n,
                                         frame=frame, tol=float(tol), lo=lo, hi=hi))
        for count in (8, 16, 32):
            out += self._grid(f"resample/{count}", 3, "sample", count, ("--resample", "arclength"),
                              work=1, fmt="csv", resample=True)
        for n, _ in self._draws("near-singular", 2):
            out.append(self._req(["arclength", "--n", n, "--frame", NEAR_SINGULAR], EXPECT_ANY, 1,
                                 kind="near-singular", command="arclength", n=n, frame=NEAR_SINGULAR))
        return out

    def _cycle_oracle_diff(self) -> list[Request]:
        # Small counts dominate by number so a run reaches 100 successes,
        # and the median falls well inside the count-512 band rather than
        # near an edge between bands. Count 2048 is where Hausdorff dominates time
        # and memory. One cycle is a whole run (about 13 CPU s here), so each
        # kind's exponents are one systematic sample and the share of them
        # past the large-N failure, and so the mix of successes, barely
        # moves with the seed.
        out = []
        for count, m in ((256, 60), (512, 100), (1024, 20), (2048, 10)):
            out += self._grid(f"oracle/{count}", m, "oracle-diff", count)
        return out

    def _cycle_point_query(self) -> list[Call]:
        """One pass: 512 calls of each function."""
        rng = self._rng
        coeffs = {f: parse_frame(f) for f in FRAMES}
        calls = []
        for func in POINT_FUNCS:
            needs_point = func in ("residual_log", "theta_of_point")
            for n, frame in self._draws(func, POINT_CALLS_PER_FUNC):
                theta = rng.uniform(0.0, TWO_PI)
                point = approx_point(theta, n, coeffs[frame]) if needs_point else None
                self._rid += 1
                calls.append(Call(self._rid, func, theta, n, FRAMES.index(frame), point))
        return calls


def approx_point(theta: float, n: int, frame: tuple[float, ...]) -> tuple[float, float]:
    """A point near the curve, from the benchmark's own formula, as input for
    residual_log and theta_of_point."""
    alpha, beta, gamma, delta, epsilon, zeta = frame
    c, s = math.cos(theta), math.sin(theta)
    m = max(abs(c), abs(s))
    r = min(abs(c), abs(s)) / m
    power = math.exp(2.0 * n * math.log(r)) if r > 0.0 else 0.0
    rho = math.exp(-math.log1p(power) / (2.0 * n)) / m
    du, dv = rho * c - gamma, rho * s - zeta
    det = alpha * epsilon - beta * delta
    return ((epsilon * du - beta * dv) / det, (alpha * dv - delta * du) / det)
