"""Golden digests of the public doubles and of the CLI output bytes.

Each digest is the SHA-256 of the little-endian packed doubles (or of the
exit code and stdout bytes) over a fixed, seeded sweep, so any change in
the last bit of any value, the sign of zero included, changes it. The
sweep covers the whole exponent range up to 2**31 - 1, the axis and
diagonal angles, and four frames. The digests assume a libm whose cos,
sin, exp, log and log1p round as glibc's do; another libm may differ in
the last bit and then legitimately fails this file alone.

The speed takes math.hypot, which CPython rounds in two families: an exact
halfway case goes up on 3.10 and 3.11 and down on 3.12 and 3.13. The
digests of speed-derived values, the curve_speed doubles and the top-N
arc-length resampling, are kept once per family, and a probe of one such
tie picks the family; a probe value in neither family fails those tests
and names it. Every other digest is the same in both families.
"""

import hashlib
import math
import random
import struct

import pytest

from fermatcurves import (
    MAX_EXPONENT,
    AffineFrame,
    affine_curve_point,
    cli,
    curve_point,
    curve_speed,
    curve_velocity,
    radial_factor,
    radial_factor_limit,
    square_point,
)

FRAME_TEXTS = (
    "1,0,0,0,1,0",
    "0.8,-0.6,0,0.6,0.8,0",
    "2,0.5,-1,0,1.5,3",
    "1,0.3,0.2,-0.4,0.7,-0.5",
)
FRAMES = tuple(AffineFrame(*(float(c) for c in text.split(","))) for text in FRAME_TEXTS)


def _sweep() -> list[tuple[float, int]]:
    rng = random.Random(20261018)
    special = [k * math.pi / 4.0 for k in range(-8, 17)] + [0.0, -0.0, 1e-300, -1e-300]
    cases = [(t, n) for n in (1, 2, 3, MAX_EXPONENT) for t in special]
    log_max = math.log(MAX_EXPONENT)
    for _ in range(2500):
        n = min(MAX_EXPONENT, max(1, round(math.exp(rng.uniform(0.0, log_max)))))
        t = rng.uniform(-10.0, 10.0)
        cases.append((t, n))
    for n in (1, 2, 3):
        cases.extend((rng.uniform(-10.0, 10.0), n) for _ in range(100))
    return cases


# hypot of these two doubles is a tie between the neighbours 0x1.4c05d2d105ac4p+0 and ...ac5p+0
HYPOT_UP, HYPOT_DOWN = "0x1.4c05d2d105ac5p+0", "0x1.4c05d2d105ac4p+0"
HYPOT_TIE = math.hypot(float.fromhex("-0x1.8e6d63613a01fp-1"), float.fromhex("-0x1.099e4240d156ap+0")).hex()


def _expected(digest) -> str:
    """The digest, or of a per-family digest the one that HYPOT_TIE picks."""
    if isinstance(digest, str):
        return digest
    if HYPOT_TIE not in digest:
        pytest.fail(f"math.hypot rounds the probe tie to {HYPOT_TIE}, in neither family {sorted(digest)}")
    return digest[HYPOT_TIE]


def _digest(values) -> str:
    h = hashlib.sha256()
    for value in values:
        if isinstance(value, tuple):
            h.update(struct.pack("<2d", *value))
        else:
            h.update(struct.pack("<d", value))
    return h.hexdigest()


CORE_DIGESTS = {
    "radial_factor": "8a2806595c64ad018156aaea5e3e5937c5e70ee0f025aef2d13a504b0cdd83fd",
    "curve_point": "e44ba8b1baf0f98086305be58e254e1da085f3f5c56d0db0d4fded20e2260e02",
    "affine_curve_point": "287c44529d00500731fa5e396eb4684447908454d61a5f5ec1aea5841d398439",
    "curve_velocity": "b3022b5ae6f8470879cba12827afcf014a6707ba402baae7ed50a32a4039450e",
    "curve_speed": {
        HYPOT_UP: "b1fee24629cf1b54c7466b9bef88f58b5b94461a6a7eb1d09438bd5113e021f7",
        HYPOT_DOWN: "9e1d205d228474736f1be8ed1260c4430b0666b7e54cc8dbbff79203d37209b8",
    },
    "radial_factor_limit": "51ee47846819824d706d05818908c8602f5a3aa2f4c8781095afe0384ad40e6a",
    "square_point": "e505215c15afaedf095faaa330b2aca072d095634d93128f191ca96db9708c08",
}


def _core_values(name: str):
    cases = _sweep()
    if name == "radial_factor":
        return [radial_factor(t, n) for t, n in cases]
    if name == "curve_point":
        return [curve_point(t, n) for t, n in cases]
    if name in ("radial_factor_limit", "square_point"):
        limit = radial_factor_limit if name == "radial_factor_limit" else square_point
        return [limit(t) for t, _ in cases]
    fn = {
        "affine_curve_point": affine_curve_point,
        "curve_velocity": curve_velocity,
        "curve_speed": curve_speed,
    }[name]
    return [fn(t, n, frame) for frame in FRAMES for t, n in cases]


@pytest.mark.parametrize("name", sorted(CORE_DIGESTS))
def test_core_doubles_match_the_golden_digest(name):
    assert _digest(_core_values(name)) == _expected(CORE_DIGESTS[name])


# Each entry is an argv and the SHA-256 of its stdout. The last five are the
# extreme requests that once ran only as CI shell steps: the top exponent
# through oracle-diff, the arc length and arc-length resampling; the largest
# Hausdorff scan (N = 1, 4096 vertices each side); and the skew frame's
# arc length, checked against mpmath by
# test_a_large_exponent_in_a_skew_frame_against_mpmath.
CLI_DIGESTS = {
    ("sample", "--n", "1", "--count", "64", "--frame", FRAME_TEXTS[1]):
        "a2f88825ffa35e2750a138b8de192a660f276481cdef09fb467db0e13b18e340",
    ("sample", "--n", "37", "--count", "64", "--frame", FRAME_TEXTS[2], "--format", "json"):
        "2a3e6be50ff68b747bbee34dc6484ffd6506d1d801066f5436c296778426dc28",
    ("sample", "--n", "37", "--count", "64", "--frame", FRAME_TEXTS[3]):
        "01714d78a32c0243ccaf400a17713bd4c6bacde853d3eb0574443a8ee3c56012",
    ("sample", "--n", "1000000", "--count", "64", "--frame", FRAME_TEXTS[1]):
        "88736785968c08bd0defaf252d11df7163720ae2873fa480ab1a2b33659425fd",
    ("sample", "--n", "1000000", "--count", "64", "--frame", FRAME_TEXTS[1], "--format", "json"):
        "2b8d6c917405e1fc8992a5d817663d18c04e2efc16931f33497f294c4bf8168e",
    ("sample", "--n", "37", "--count", "9", "--theta-range", "0.25,2.5", "--frame", FRAME_TEXTS[2]):
        "995cdc03cb2a0a19814c484eeb5255841b9882a738374ddb152b3afa67b519e2",
    ("svg", "--n", "3", "--count", "32", "--frame", FRAME_TEXTS[3]):
        "4878d140e49bc98a1a7d5c7e075b84d1c184d0e769a571ad489b8ebcee885ef1",
    # The eighths of arc length of these D4-symmetric curves lie at k*pi/4; the
    # thetas match the doubles nearest mpmath's k*pi/4, except N = 2 at
    # k = 1, 2, 3, one ulp above (see test_resampled_eighths_against_mpmath).
    ("svg", "--n", "2", "--count", "8", "--resample", "arclength", "--frame", FRAME_TEXTS[1]):
        "34a3b6670793561d739898890bf7f9fc119dfa4b325902a548c7612dcf5ca898",
    # 2.2823413457859207e-10, the closed form; mpmath gives 2.28234134578592036e-10,
    # 1 ulp away. The 4096-point grid printed 2.2823413511787894e-10, 2.4e-9 relative off.
    ("gap", "--n", "2147483647"):
        "83fcaff91a1658efb3468e17716eb87852a95c3b2a6339f03d09bd146c511870",
    ("residual", "--n", "1000000", "--frame", FRAME_TEXTS[2]):
        "625e8aac4ac54478fafac5f3f7ea6f1e013d82606459454c503f934cbd4042f3",
    ("arclength", "--n", "50", "--frame", FRAME_TEXTS[2]):
        "827a461365eb5c815c8b636fd872cc29fcbaa45fe983dda4b2fe2986d7017bf7",
    ("oracle-diff", "--n", "37", "--count", "64", "--frame", FRAME_TEXTS[3]):
        "31115d0707cd3a0e8bc0fec9d1dc311d7b0a79809644daef90f6990eae9a2d70",
    # 3.3308497693360055e-16
    ("oracle-diff", "--n", "2147483647", "--count", "256"):
        "ac0fab9bc460af614f51ce1e64b46443585e1917d0fba163b145a8a40f71d692",
    # 0
    ("oracle-diff", "--n", "1", "--count", "4096"):
        "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    # 7.9999999989693915, 0.88 ulp below mpmath's 7.99999999896939229235 (30 digits,
    # 8 times the base octant's integral on its whole graded ladder). Integrated
    # octant by octant the turn printed 7.999999998969392, 0.12 ulp above it.
    ("arclength", "--n", "2147483647", "--tol", "1e-14"):
        "5dccd752b802e92a07782f928a1a7dd1f1fad22f0f27dbe0f44be4e46d0fbb41",
    # 9.025641088623626
    ("arclength", "--n", "199965042", "--frame", FRAME_TEXTS[3], "--tol", "1e-12"):
        "b310c7ec75ab023d874be870b1f3c1b50d7cc0602da9e4dcad7a4988ceaef759",
    # Between the hypot families three of its rows differ: each theta by one ulp, and its point with it.
    # Against mpmath's thetas at the 32 equal arc-length steps (30 digits), both families are
    # at most 51.8 ulp off, the Newton stop's 50 eps of arc, as they were when each octant
    # was integrated apart; the eight multiples of pi/4 are now each the double nearest
    # k*pi/4, where three were one ulp off.
    ("sample", "--n", "2147483647", "--count", "32", "--resample", "arclength"): {
        HYPOT_UP: "dc2037307c2585836a8562eb2f4ab13f9cae4ec2f0fb2379c533a16f385f73e1",
        HYPOT_DOWN: "1b14a1c3a6280ac275fe4cf79758662221dff8a45380d47ac5ffd4183d6bf514",
    },
}


@pytest.mark.parametrize("argv", list(CLI_DIGESTS), ids=" ".join)
def test_cli_stdout_matches_the_golden_digest(capsys, argv):
    code = cli.run(list(argv))
    out = capsys.readouterr().out.encode("ascii")
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == _expected(CLI_DIGESTS[argv])
