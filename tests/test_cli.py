"""End-to-end tests for the command-line interface and its emitters."""

import hashlib
import io
import json
import math
import os
import random
import struct
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermatcurves import (
    IDENTITY,
    QuadratureFailure,
    SampledCurve,
    TooFewSamples,
    oracle_polyline,
    resample_by_arclength,
    sample_uniform_theta,
)
from fermatcurves import cli, core, oracle, sampling
from fermatcurves.sampling import _trusted_curve
from helpers import reference_emit_csv, reference_emit_json, reference_emit_svg, reference_fmt
from test_golden import FRAMES as GOLDEN_FRAMES
from test_golden import FRAME_TEXTS as GOLDEN_FRAME_TEXTS


CAP = sampling._MAX_COUNT


def invoke(capsys, *argv):
    """(exit code, stdout, stderr) of one run(argv); run returns for every argv, --help included."""
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _refuse_checks(curve):
    """A stand-in for SampledCurve.__post_init__ that fails if the checks run."""
    raise AssertionError("SampledCurve's checks ran")


class TestFloatFormatting:
    def test_integral_values_drop_the_point(self):
        assert cli.fmt(1.0) == "1"
        assert cli.fmt(0.0) == "0"
        assert cli.fmt(-2.0) == "-2"

    def test_non_integral_values_keep_full_precision(self):
        assert cli.fmt(2.0 * math.pi) == "6.283185307179586"
        assert cli.fmt(6.123233995736766e-17) == "6.123233995736766e-17"

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_round_trips_exactly(self, value):
        assert float(cli.fmt(value)) == value
        assert cli.fmt(value) == reference_fmt(value)


class TestSampleCommand:
    def test_circle_header_and_first_row(self, capsys):
        code, out, err = invoke(capsys, "sample", "--n", "1", "--count", "4", "--format", "csv")
        lines = out.splitlines()
        assert code == 0
        assert err == ""
        assert lines[0] == "theta,x,y"
        assert lines[1] == "0,1,0"

    def test_frozen_quarter_turn_row(self, capsys):
        code, out, err = invoke(capsys, "sample", "--n", "1", "--count", "4")
        lines = out.splitlines()
        assert lines[2] == "1.5707963267948966,6.123233995736766e-17,1"

    def test_row_count_matches_request(self, capsys):
        code, out, err = invoke(capsys, "sample", "--n", "3", "--count", "17")
        assert code == 0
        assert len(out.splitlines()) == 18

    @pytest.mark.parametrize("frame", GOLDEN_FRAME_TEXTS)
    def test_large_exponent_passes_membership(self, capsys, frame):
        code, out, err = invoke(capsys, "sample", "--n", "1270433919", "--count", "8", "--frame", frame)
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 9
        # sample builds its curve without the membership check; curve_from_json applies it.
        code, out, err = invoke(
            capsys, "sample", "--n", "1270433919", "--count", "8", "--frame", frame, "--format", "json"
        )
        assert len(cli.curve_from_json(out)) == 8

    def test_deterministic_bytes(self, capsys):
        args = ("sample", "--n", "4", "--count", "64", "--frame", "2,0.5,-1,0,1.5,3")
        _, first, _ = invoke(capsys, *args)
        _, second, _ = invoke(capsys, *args)
        assert first == second

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "curve.csv"
        code, out, err = invoke(
            capsys, "sample", "--n", "2", "--count", "32", "--output", str(target)
        )
        assert code == 0
        assert out == ""
        _, direct, _ = invoke(capsys, "sample", "--n", "2", "--count", "32")
        assert target.read_bytes().decode("ascii") == direct

    def test_csv_round_trip_is_bit_exact(self, capsys):
        code, out, err = invoke(capsys, "sample", "--n", "5", "--count", "64")
        lines = out.splitlines()
        thetas, points = [], []
        for line in lines[1:]:
            t, x, y = (float(v) for v in line.split(","))
            thetas.append(t)
            points.append((x, y))
        rebuilt = SampledCurve(tuple(thetas), tuple(points), True, 5, IDENTITY)
        assert cli.emit_csv(rebuilt).decode("ascii") == out

    @pytest.mark.parametrize("n", [1, 3, 2**31 - 1])
    @pytest.mark.parametrize("frame", ["1.5,0,2,0,1.5,-1", "1,0,0,0,1,0", "1,0,0,0,-1,0", "1,0,-0,0,1,0"])
    def test_json_round_trip_is_bit_exact(self, capsys, frame, n):
        # emit_json writes a -0.0 as -0: the reflection's y at theta = 0, and the last frame's gamma.
        code, out, err = invoke(
            capsys, "sample", "--n", str(n), "--count", "16", "--format", "json", f"--frame={frame}"
        )
        assert code == 0
        curve = cli.curve_from_json(out)
        assert cli.emit_json(curve).decode("ascii") == out
        assert curve.exponent == n
        assert curve.closed

    @pytest.mark.parametrize("n, text", [(3, "3.7"), (1, "true")])
    def test_json_exponent_must_be_an_integer(self, n, text):
        # The points lie on the N = n curve, so only the exponent check can object.
        data = cli.emit_json(sample_uniform_theta(n, count=8)).decode("ascii")
        with pytest.raises(TypeError, match="exponent must be an integer"):
            cli.curve_from_json(data.replace(f'"n":{n},', f'"n":{text},'))

    def test_json_closed_must_be_a_bool(self):
        data = cli.emit_json(sample_uniform_theta(3, count=8)).decode("ascii")
        with pytest.raises(TypeError, match="closed must be true or false"):
            cli.curve_from_json(data.replace('"closed":true', '"closed":"false"'))

    def test_json_frame_entries_must_be_numbers(self):
        # Coerced with float(), these booleans would read as the identity frame.
        data = cli.emit_json(sample_uniform_theta(3, count=8)).decode("ascii")
        with pytest.raises(TypeError, match="frame coefficient alpha must be a real number"):
            cli.curve_from_json(data.replace('"frame":[1,0,0,0,1,0]', '"frame":[true,false,0,false,true,0]'))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: [doc], "must be an object"),
            (lambda doc: {k: v for k, v in doc.items() if k != "samples"}, "no 'samples' key"),
            (lambda doc: {**doc, "samples": [{"theta": 0.0, "y": 0.0}]}, "no 'x' key"),
            (lambda doc: {**doc, "samples": 3}, "samples are an array of objects"),
            (lambda doc: {**doc, "samples": [[0.0, 1.0, 0.0]]}, "samples are an array of objects"),
            (lambda doc: {**doc, "frame": [1, 0, 0, 0, 1]}, "array of six coefficients"),
            (lambda doc: "[" * 100000, "nests arrays or objects too deeply"),
            (lambda doc: '{"n":' * 100000, "nests arrays or objects too deeply"),
        ],
        ids=[
            "top-level-array", "no-samples", "no-x", "samples-number", "sample-array", "five-coefficients",
            "deep-arrays", "deep-objects",
        ],
    )
    def test_json_of_another_shape_is_a_value_error(self, edit, message):
        doc = json.loads(cli.emit_json(sample_uniform_theta(3, count=8)))
        edited = edit(doc)
        with pytest.raises(ValueError, match=message):
            cli.curve_from_json(edited if isinstance(edited, str) else json.dumps(edited))

    def test_partial_theta_range_keeps_both_endpoints(self, capsys):
        hi = math.pi / 2.0
        code, out, err = invoke(
            capsys, "sample", "--n", "2", "--count", "5", "--theta-range", f"0,{hi!r}"
        )
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 6
        assert lines[1] == "0,1,0"
        assert lines[-1].startswith("1.5707963267948966,")

    def test_arclength_resampling_flag(self, capsys):
        code, out, err = invoke(
            capsys, "sample", "--n", "1", "--count", "4", "--resample", "arclength"
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        thetas = [float(r[0]) for r in rows]
        assert thetas == pytest.approx(
            [0.0, math.pi / 2.0, math.pi, 1.5 * math.pi], abs=2e-10
        )

    def test_arclength_resampling_in_a_flattened_frame_at_the_largest_exponent(self, capsys):
        code, out, err = invoke(
            capsys, "sample", "--n", "2147483647", "--frame", "1,0,0,0,1e11,0",
            "--resample", "arclength", "--count", "4096", "--format", "json",
        )
        assert (code, err) == (0, "")
        assert len(cli.curve_from_json(out)) == 4096

    def test_svg_format_for_a_single_curve(self, capsys):
        code, out, err = invoke(capsys, "sample", "--n", "1", "--count", "8", "--format", "svg")
        assert code == 0
        root = ET.fromstring(out)
        assert root.tag.endswith("svg")
        assert sum(1 for child in root if child.tag.endswith("path")) == 1


class TestScalarCommands:
    def test_circle_circumference_prints_two_pi(self, capsys):
        code, out, err = invoke(capsys, "arclength", "--n", "1")
        assert code == 0
        assert out == "6.283185307179586\n"

    def test_arclength_respects_theta_range(self, capsys):
        code, out, err = invoke(
            capsys, "arclength", "--n", "1", "--theta-range", "0,1.5707963267948966"
        )
        assert out == "1.5707963267948966\n"

    def test_gap_of_the_circle(self, capsys):
        code, out, err = invoke(capsys, "gap", "--n", "1", "--count", "4096")
        assert code == 0
        assert float(out) == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-6)

    def test_residual_stays_tiny(self, capsys):
        code, out, err = invoke(capsys, "residual", "--n", "100", "--count", "512")
        assert code == 0
        assert 0.0 <= float(out) <= 1e-9

    def test_oracle_diff_confirms_the_closed_form(self, capsys):
        code, out, err = invoke(capsys, "oracle-diff", "--n", "5", "--count", "128")
        assert code == 0
        assert 0.0 <= float(out) <= 1e-9


class TestSvgCommand:
    def test_family_has_one_path_per_exponent(self, capsys):
        code, out, err = invoke(capsys, "svg", "--n", "5", "--count", "64")
        assert code == 0
        root = ET.fromstring(out)
        paths = [child for child in root if child.tag.endswith("path")]
        assert len(paths) == 5
        assert root.get("viewBox") == "-1.1 -1.1 2.2 2.2"
        for path in paths:
            assert path.get("fill") == "none"
            assert path.get("stroke-width") == "0.01"
            assert path.get("d").endswith("Z")

    def test_theta_range_draws_open_arcs(self, capsys):
        code, out, err = invoke(capsys, "svg", "--n", "3", "--count", "5", "--theta-range", "0,1")
        assert code == 0
        paths = [child for child in ET.fromstring(out) if child.tag.endswith("path")]
        assert len(paths) == 3
        for path in paths:
            assert not path.get("d").endswith("Z")
            assert path.get("d").count("L") == 4

    def test_paths_are_ordered_innermost_first(self, capsys):
        code, out, err = invoke(capsys, "svg", "--n", "5", "--count", "64")
        root = ET.fromstring(out)
        diagonal_radii = []
        for child in root:
            if not child.tag.endswith("path"):
                continue
            vertices = child.get("d").replace("M ", "").replace("Z", "").split(" L ")
            x, y = (float(v) for v in vertices[8].split())  # theta = pi/4 node
            diagonal_radii.append(math.hypot(x, y))
        assert diagonal_radii == sorted(diagonal_radii)
        assert len(diagonal_radii) == 5

    def test_draws_up_to_the_cap(self, capsys):
        code, out, err = invoke(capsys, "svg", "--n", str(cli.SVG_MAX_CURVES), "--count", "3")
        assert code == 0
        assert out.count("<path ") == cli.SVG_MAX_CURVES

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_an_exponent_below_one_is_reported_as_out_of_range(self, capsys, n):
        code, out, err = invoke(capsys, "svg", "--n", n, "--count", "8")
        assert code == 2
        assert out == ""
        assert "exponent must be in [1, 2147483647]" in err
        assert "need at least one curve" not in err

    def test_n_past_the_cap_exits_two_without_drawing(self, capsys, monkeypatch):
        drawn = []
        monkeypatch.setattr(cli, "_sample_curves", lambda *args: drawn.append(args))
        n = cli.SVG_MAX_CURVES + 1
        code, out, err = invoke(capsys, "svg", "--n", str(n), "--count", "3")
        assert code == 2
        assert out == ""
        assert drawn == []
        assert f"at most {cli.SVG_MAX_CURVES} curves" in err
        assert f"N={n}" in err

    @pytest.mark.parametrize(
        "argv, paths, exponents",
        [
            (("svg", "--n", "8", "--count", "64"), 8, [8, *range(1, 9)]),
            (("svg", "--n", "8", "--count", "64", "--theta-range", "0.25,2.5"), 8, [8, *range(1, 9)]),
            (("oracle-diff", "--n", "7", "--count", "64"), 0, [7]),
        ],
        ids=["full-turn", "arc", "oracle-diff"],
    )
    def test_a_grid_is_built_and_checked_once_for_all_exponents(self, capsys, monkeypatch, argv, paths, exponents):
        # One count check and one grid per request, wherever they are made: a
        # uniform grid, or an arc's grid held to the theta rule. svg checks N
        # against its cap, then each exponent once; oracle-diff's closed form
        # takes the oracle's checked exponent and grid.
        calls = {"count": [], "grid": [], "exponent": []}

        def counted(kind, function):
            def wrapper(value):
                calls[kind].append(value)
                return function(value)

            return wrapper

        check_count, uniform_thetas = sampling._check_count, sampling._uniform_thetas
        check_thetas, check_exponent = sampling._check_thetas, core._check_exponent
        for module in (cli, sampling, oracle):
            monkeypatch.setattr(module, "_check_count", counted("count", check_count))
            monkeypatch.setattr(module, "_uniform_thetas", counted("grid", uniform_thetas))
        for module in (cli, sampling):
            monkeypatch.setattr(module, "_check_thetas", counted("grid", check_thetas))
        for module in (cli, core):
            monkeypatch.setattr(module, "_check_exponent", counted("exponent", check_exponent))
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.count("<path ") == paths
        assert calls["count"] == [64]
        assert len(calls["grid"]) == 1
        assert calls["exponent"] == exponents


# The flags each subcommand does not read; every other pairing of the six
# subcommands and eight flags is read by the subcommand.
IGNORED_FLAGS = {
    "arclength": ("--count", "--format", "--resample"),
    "gap": ("--tol", "--format", "--resample", "--theta-range"),
    "residual": ("--tol", "--format", "--resample", "--theta-range"),
    "svg": ("--format",),
    "oracle-diff": ("--tol", "--format", "--resample", "--theta-range"),
}
FLAG_VALUES = {"--count": "64", "--tol": "1e-3", "--format": "json", "--resample": "uniform", "--theta-range": "0,1"}


# Values per flag for the argv fuzz: ones every check accepts, then edge
# values, which a check refuses or which sit at a limit. Counts stay small,
# or go past the cap; --output writes to stdout, or fails to open.
FUZZ_VALUES = {
    "--n": (("1", "2", "3", "7", "1000", "2147483647"), ("0", "-1", "2147483648", "1000000000000", "1.5", "nan", "")),
    "--frame": (
        (*GOLDEN_FRAME_TEXTS, "1,1,0,1,1.000000000005,0", "-1,0,0,0,1,0", "-0.8,0.6,0,0.6,0.8,0"),
        ("1,2,0,2,4,0", "-0,0,0,0,1,0", "nan,0,0,0,1,0", "inf,0,0,0,1,0", "-inf,0,0,0,1,0", "1e400,0,0,0,1,0",
         "5e-324,0,0,0,5e-324,0", "0,0,0,0,0,0", "1,0,0,0,1", "a,0,0,0,1,0"),
    ),
    "--count": (("3", "4", "16", "17", "64"), ("-1", "0", "1", "2", str(CAP + 1), "1000000000000", "x")),
    "--tol": (("1e-6", "1e-10", "1e-14"), ("1e-16", "0", "-1", "nan", "inf", "1e400", "5e-324")),
    "--format": (("csv", "json", "svg"), ("xml",)),
    "--resample": (("uniform", "arclength"), ("none",)),
    "--theta-range": (
        ("0,6.283185307179586", "0.1,2.5", "5e-324,1"),
        ("1,0.5", "0,0", "nan,1", "-1,1", "-0.5,1", "0,1e400", "0,1,2", "0,7"),
    ),
    "--output": (("-",), (".", os.devnull + "/x")),
}


@st.composite
def fuzz_argv(draw):
    def value(flag):
        accepted, edge = FUZZ_VALUES[flag]
        return draw(st.sampled_from(edge if draw(st.integers(0, 4)) == 0 else accepted))

    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    argv = [command, "--n", value("--n")]
    for flag in ("--frame", *cli._COMMANDS[command][2], "--output"):
        if draw(st.booleans()):
            argv += [flag, value(flag)]
    if draw(st.integers(0, 9)) == 0:  # now and then a flag the command does not read
        flag = draw(st.sampled_from(sorted(FUZZ_VALUES)))
        argv += [flag, value(flag)]
    return argv


@settings(max_examples=300, derandomize=True)
@given(fuzz_argv())
def test_every_argv_exits_zero_two_or_three_in_bounded_time(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    assert time.perf_counter() - start < 5.0, argv
    assert code in (0, 2, 3), argv
    if code:
        assert out.getvalue() == "", argv
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv
    else:
        assert err.getvalue() == "", argv


class TestFailureModes:
    def test_singular_frame_exits_two(self, capsys):
        code, out, err = invoke(capsys, "sample", "--n", "2", "--frame", "1,2,0,2,4,0")
        assert code == 2
        assert out == ""
        assert "singular frame" in err
        assert err.count("\n") == 1

    def test_missing_required_flag(self, capsys):
        code, out, err = invoke(capsys, "sample")
        assert code == 2
        assert "--n" in err

    def test_unknown_flag(self, capsys):
        code, out, err = invoke(capsys, "sample", "--n", "1", "--bogus")
        assert code == 2
        assert "unrecognized" in err

    def test_unknown_command(self, capsys):
        code, out, err = invoke(capsys, "frobnicate", "--n", "1")
        assert code == 2

    def test_bad_exponent_value(self, capsys):
        code, out, err = invoke(capsys, "sample", "--n", "0")
        assert code == 2
        assert "exponent" in err

    def test_bad_frame_arity(self, capsys):
        code, out, err = invoke(capsys, "sample", "--n", "1", "--frame", "1,2,3")
        assert code == 2
        assert "--frame" in err

    def test_bad_frame_entry(self, capsys):
        code, out, err = invoke(capsys, "sample", "--n", "1", "--frame", "1,0,0,0,x,0")
        assert code == 2
        assert "--frame" in err

    def test_too_few_samples(self, capsys):
        code, out, err = invoke(capsys, "sample", "--n", "1", "--count", "2")
        assert code == 2
        assert "samples" in err

    @pytest.mark.parametrize("count", ["1", "2"])
    def test_too_few_samples_on_a_partial_range(self, capsys, count):
        code, out, err = invoke(
            capsys, "sample", "--n", "2", "--theta-range", "0,1", "--count", count
        )
        assert code == 2
        assert out == ""
        assert f"need at least 3 samples, got {count}" in err

    @pytest.mark.parametrize(
        "extra",
        [(), ("--theta-range", "5.1516686345346425,5.441085925337452"), ("--resample", "arclength")],
        ids=["full-turn", "arc", "arclength"],
    )
    def test_a_bad_exponent_is_named_before_a_bad_count(self, capsys, extra):
        code, out, err = invoke(capsys, "sample", "--n", "0", "--count", "1", *extra, "--format", "json")
        assert (code, out, err) == (2, "", "error: exponent must be in [1, 2147483647], got 0\n")

    def test_a_theta_range_whose_grid_ties_is_rejected(self, capsys, monkeypatch):
        # The one grid that comes from user input is held to the constructor's
        # theta rule (_check_thetas), though the constructor itself never runs.
        monkeypatch.setattr(SampledCurve, "__post_init__", _refuse_checks)
        code, out, err = invoke(
            capsys, "sample", "--n", "3", "--theta-range", "1,1.0000000000000002", "--count", "100"
        )
        assert code == 2
        assert out == ""
        assert err == "error: thetas must be strictly increasing, got thetas[0] = 1.0 then thetas[1] = 1.0\n"

    def test_theta_range_arcs_run_from_exactly_lo_to_exactly_hi(self, capsys):
        # The grid's last step, lo + (hi - lo) * (count - 1) / (count - 1), can round below HI.
        rng = random.Random(21)
        cases = [(0.011906288189572916, 1.2893713854549245, 8)]
        for _ in range(2000):
            lo, hi = sorted(rng.uniform(0.0, 2.0 * math.pi) for _ in range(2))
            cases.append((lo, hi, rng.choice((8, 64, 256))))
        for lo, hi, count in cases:
            code, out, err = invoke(
                capsys, "sample", "--n", "3", "--count", str(count), "--theta-range", f"{lo!r},{hi!r}"
            )
            rows = out.splitlines()
            assert (code, err, len(rows)) == (0, "", count + 1)
            assert (float(rows[1].split(",")[0]), float(rows[-1].split(",")[0])) == (lo, hi)

    # sha256 of stdout; the first is the golden digest's --theta-range case.
    THETA_RANGE_DIGESTS = {
        ("sample", "--n", "37", "--count", "9", "--theta-range", "0.25,2.5", "--frame", GOLDEN_FRAME_TEXTS[2]):
            "995cdc03cb2a0a19814c484eeb5255841b9882a738374ddb152b3afa67b519e2",
        ("sample", "--n", "2147483647", "--count", "33", "--theta-range", f"{math.pi / 4.0!r},2.5", "--format", "json",
         "--frame", GOLDEN_FRAME_TEXTS[3]):
            "b1fa5c6c5331a666a999f8ea68be6b4f623ec0c98252c16394ab990a9c224647",
        ("sample", "--n", "1000", "--count", "100", "--theta-range", "0,1", "--format", "svg", "--frame", "1,0,0,0,1e11,0"):
            "fcc8fdc6c72bab35027284caf6b7fad87af128564e684bde23432c2d82b510e6",
        ("svg", "--n", "4", "--count", "17", "--theta-range", "1,5", "--frame", GOLDEN_FRAME_TEXTS[1]):
            "9bc78cd9bc48c1e40d821022dcba3588252ca276f13aebba30c16710974a8d81",
    }

    @pytest.mark.parametrize("argv", list(THETA_RANGE_DIGESTS), ids=" ".join)
    def test_theta_range_arcs_skip_the_public_constructor(self, capsys, monkeypatch, argv):
        # The arc is built once, directly; its grid alone is checked (_check_thetas).
        monkeypatch.setattr(SampledCurve, "__post_init__", _refuse_checks)
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == self.THETA_RANGE_DIGESTS[argv]

    def test_reversed_theta_range(self, capsys):
        code, out, err = invoke(capsys, "sample", "--n", "2", "--theta-range", "1,0.5")
        assert code == 2
        assert "theta-range" in err

    def test_partial_range_with_arclength_resampling(self, capsys):
        code, out, err = invoke(
            capsys, "sample", "--n", "2", "--resample", "arclength", "--theta-range", "0,1"
        )
        assert code == 2
        assert "arc-length" in err

    def test_gap_grid_minimum_names_the_count_flag(self, capsys):
        code, out, err = invoke(capsys, "gap", "--n", "3", "--count", "8")
        assert code == 2
        assert out == ""
        assert err == "error: --count must be at least 16, got 8\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("sample", "--count", str(CAP + 1)),
            ("sample", "--count", str(CAP + 1), "--format", "json"),
            ("sample", "--count", str(CAP + 1), "--resample", "arclength"),
            ("sample", "--count", str(CAP + 1), "--theta-range", "0.1,0.2"),
            ("gap", "--count", str(CAP + 1)),
            ("residual", "--count", str(CAP + 1)),
            ("oracle-diff", "--count", str(CAP + 1)),
            ("svg", "--count", str(CAP // 2 + 1), "--n", "2"),
            ("svg", "--count", str(CAP // 256 + 1), "--n", "256"),
            ("gap", "--count", "1000000000000"),
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_a_count_past_the_cap_exits_two_at_once(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = invoke(capsys, *argv, *(() if "--n" in argv else ("--n", "3")))
        assert time.perf_counter() - start < 0.25
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "at most" in err

    def test_the_cap_is_the_library_check(self, capsys):
        # One check, sampling._check_size, holds both bounds of every count and grid size.
        assert CAP == 2**20
        assert sampling._check_count(CAP) == CAP
        for build in (sample_uniform_theta, resample_by_arclength, oracle_polyline):
            with pytest.raises(TooFewSamples) as caught:
                build(3, count=2)
            assert str(caught.value) == "need at least 3 samples, got 2"
            with pytest.raises(ValueError) as caught:
                build(3, count=CAP + 1)
            assert str(caught.value) == f"count must be at most {CAP}, got {CAP + 1}"
        for command, least in (("gap", 16), ("residual", 1)):
            for count, bound in ((least - 1, f"at least {least}"), (CAP + 1, f"at most {CAP}")):
                code, out, err = invoke(capsys, command, "--n", "3", "--count", str(count))
                assert (code, out, err) == (2, "", f"error: --count must be {bound}, got {count}\n")
            assert invoke(capsys, command, "--n", "3", "--count", str(least))[0] == 0
        assert invoke(capsys, "residual", "--n", "3", "--count", "0")[2] == "error: --count must be at least 1, got 0\n"

    def test_the_entry_point_refuses_a_huge_count_without_allocating(self):
        # Before the cap this ran until memory ran out, then died with MemoryError.
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        done = subprocess.run(
            [sys.executable, "-m", "fermatcurves.cli", "gap", "--n", "3", "--count", "1000000000000"],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == f"error: --count must be at most {CAP}, got 1000000000000\n"

    @pytest.mark.parametrize("command", ["sample", "residual"])
    def test_far_translated_frame_is_rejected(self, capsys, command):
        # Condition number 1, but the translation 1e300 would leave the curve's
        # points no digits of their own (the inverse even overflows).
        code, out, err = invoke(capsys, command, "--n", "3", "--count", "8", "--frame", "1e154,0,1e300,0,1e154,0")
        assert code == 2
        assert out == ""
        assert "singular frame: condition number 1 times 1 + |(gamma, zeta)| is 1e+300" in err

    @pytest.mark.parametrize(
        "command, flag",
        [(command, flag) for command, flags in IGNORED_FLAGS.items() for flag in flags],
    )
    def test_flags_a_command_does_not_read_are_rejected(self, capsys, command, flag):
        code, out, err = invoke(capsys, command, "--n", "3", flag, FLAG_VALUES[flag])
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err

    def test_sub_precision_tolerance(self, capsys):
        code, out, err = invoke(capsys, "arclength", "--n", "3", "--tol", "1e-16")
        assert code == 2
        assert "tol" in err

    @pytest.mark.parametrize("tol", ["inf", "nan", "1e400"])
    def test_a_tolerance_that_is_not_finite_exits_two(self, capsys, tol):
        code, out, err = invoke(capsys, "arclength", "--n", "3", "--tol", tol)
        assert code == 2
        assert out == ""
        assert "tol must be finite" in err

    @pytest.mark.parametrize("resample", ["uniform", "arclength"])
    @pytest.mark.parametrize("command", ["sample", "svg"])
    @pytest.mark.parametrize("tol, shown", [("nan", "nan"), ("0", "0.0"), ("-1", "-1.0"), ("1e-20", "1e-20"), ("inf", "inf")])
    def test_sample_and_svg_check_the_tolerance_on_every_path(self, capsys, command, resample, tol, shown):
        code, out, err = invoke(capsys, command, "--n", "2", "--count", "4", "--resample", resample, "--tol", tol)
        assert (code, out, err) == (2, "", f"error: tol must be finite and at least 1e-14, got {shown}\n")

    def test_quadrature_failure_exits_three(self, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise QuadratureFailure("error target not met")

        monkeypatch.setattr(cli, "arc_length", explode)
        code, out, err = invoke(capsys, "arclength", "--n", "1")
        assert code == 3
        assert "error target not met" in err

    @pytest.mark.parametrize("target", ["{tmp}", "{tmp}/file/x", os.devnull + "/x"])
    def test_an_output_that_cannot_be_written_exits_two(self, capsys, tmp_path, target):
        (tmp_path / "file").write_bytes(b"")
        code, out, err = invoke(capsys, "sample", "--n", "3", "--count", "4", "--output", target.format(tmp=tmp_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: [Errno ") and err.count("\n") == 1

    def test_a_run_that_fails_before_writing_leaves_no_file(self, capsys, tmp_path):
        target = tmp_path / "x"
        code, out, err = invoke(capsys, "sample", "--n", "3", "--frame", "1,2,0,2,4,0", "--output", str(target))
        assert code == 2
        assert "singular frame" in err
        assert not target.exists()


class TestArgumentForms:
    @pytest.mark.parametrize("argv", [(), *((command,) for command in cli._COMMANDS)], ids=lambda argv: " ".join(argv) or "top")
    def test_help_returns_zero(self, capsys, argv):
        code, out, err = invoke(capsys, *argv, "--help")
        assert code == 0
        assert out.startswith(f"usage: {' '.join(('fermat-curves', *argv))} ")
        assert err == ""

    def test_output_dash_is_stdout(self, capsys):
        printed = invoke(capsys, "sample", "--n", "3", "--count", "4")
        assert invoke(capsys, "sample", "--n", "3", "--count", "4", "--output", "-") == printed

    @pytest.mark.parametrize("flag, value", [
        ("--frame", "-1,0,0,0,1,0"), ("--frame", "-0.8,0.6,0,0.6,0.8,0"), ("--frame", "-.5,0,0,0,1,0"),
        ("--theta-range", "-0.5,1"),
    ])
    def test_a_value_may_start_with_a_minus_in_either_form(self, capsys, flag, value):
        apart = invoke(capsys, "arclength", "--n", "3", flag, value)
        joined = invoke(capsys, "arclength", "--n", "3", f"{flag}={value}")
        assert apart == joined
        assert apart[0] == 0 and apart[2] == ""

    @pytest.mark.parametrize("flag, value", [
        ("--frame", "-inf,0,0,0,1,0"), ("--frame", "-nan,0,0,0,1,0"), ("--frame", "-Infinity,0,0,0,1,0"),
        ("--theta-range", "-inf,1"),
    ])
    def test_a_refused_value_may_start_with_a_minus_and_a_letter(self, capsys, flag, value):
        apart = invoke(capsys, "arclength", "--n", "3", flag, value)
        joined = invoke(capsys, "arclength", "--n", "3", f"{flag}={value}")
        assert apart == joined
        code, out, err = apart
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "expected one argument" not in err

    @pytest.mark.parametrize("follower", [("--tol", "1e-6"), ("-h",)])
    def test_a_flag_after_a_flag_is_still_a_flag(self, capsys, follower):
        code, out, err = invoke(capsys, "arclength", "--n", "3", "--frame", *follower)
        assert (code, out, err) == (2, "", "error: argument --frame: expected one argument\n")


class TestEmittersDirectly:
    def test_emit_svg_rejects_empty_input(self):
        with pytest.raises(ValueError):
            cli.emit_svg([])

    def test_emit_csv_open_curves_have_no_close_marker(self):
        curve = sample_uniform_theta(2, count=8)
        assert b"Z" in cli.emit_svg([curve])
        text = cli.emit_csv(curve).decode("ascii")
        assert text.endswith("\n")
        assert not text.endswith("\n\n")

    def test_main_exits_with_run_status(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["fermat-curves", "arclength", "--n", "1"])
        with pytest.raises(SystemExit) as excinfo:
            cli.main()
        assert excinfo.value.code == 0
        assert capsys.readouterr().out == "6.283185307179586\n"


# Doubles whose text is easy to get wrong: signed zeros, integral values up to
# 2^53 and the exponent forms past 1e16 (no ".0" to strip), subnormals, and
# decimals whose digits include ".0" or end in 0.
AWKWARD = (
    0.0, -0.0, 1.0, -1.0, 10.0, 100.0, -100.0, 1.05, 10.05, 0.05, 1.5, 2.0**52, 2.0**53 - 1.0,
    2.0**53, -(2.0**53), 1e15, 1e16, -1e16, 1e22, 1e-5, 1e-7, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
    2.225073858507201e-308, 1.7976931348623157e308, 0.1, 123456789.0, 120.0, 1e300, 3.0e-4,
)


def _random_double(rng: random.Random) -> float:
    """An awkward value, an integral one of any size, or a finite double drawn by its bits."""
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice(AWKWARD)
    if kind == 1:
        return float(rng.choice((-1, 1)) * rng.randrange(2 ** rng.randrange(1, 60)))
    if kind == 2:
        return rng.uniform(-2.0, 2.0)
    while True:
        value = struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0]
        if math.isfinite(value):
            return value


def _curve(thetas, xs, ys, closed: bool, frame=GOLDEN_FRAMES[0]):
    return _trusted_curve(tuple(thetas), tuple(zip(xs, ys)), closed, 3, frame)


def _assert_emitters_match(curves):
    for curve in curves:
        assert cli.emit_csv(curve) == reference_emit_csv(curve)
        assert cli.emit_json(curve) == reference_emit_json(curve)
    assert cli.emit_svg(curves) == reference_emit_svg(curves)
    assert cli.emit_svg(curves[:1]) == reference_emit_svg(curves[:1])


class TestEmittersFormatLikeFmt:
    """The emitters format a payload's numbers in one pass; each number's
    text is still fmt's, byte for byte."""

    def test_fmt_is_the_reference_rule(self):
        rng = random.Random(20261020)
        for value in (*AWKWARD, *(_random_double(rng) for _ in range(5000))):
            assert cli.fmt(value) == reference_fmt(value)

    def test_awkward_values_in_every_column(self):
        values = list(AWKWARD)
        rotated = values[7:] + values[:7]
        reverse = values[::-1]
        curves = [
            _curve(values, rotated, reverse, True, GOLDEN_FRAMES[2]),
            _curve(reverse, values, rotated, False, GOLDEN_FRAMES[3]),
            _curve(rotated, reverse, values, True),
        ]
        _assert_emitters_match(curves)

    def test_seeded_curves(self):
        rng = random.Random(20261020)
        for _ in range(60):
            curves = []
            for _ in range(rng.randint(1, 4)):
                count = rng.randint(1, 40)
                columns = [[_random_double(rng) for _ in range(count)] for _ in range(3)]
                curves.append(_curve(*columns, rng.random() < 0.5, rng.choice(GOLDEN_FRAMES)))
            _assert_emitters_match(curves)

    def test_sampled_curves(self):
        curves = [sample_uniform_theta(n, frame, 64) for n, frame in zip((1, 2, 1000, 2**31 - 1), GOLDEN_FRAMES)]
        _assert_emitters_match(curves)

    @given(st.lists(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3), min_size=2), st.booleans())
    def test_any_finite_doubles(self, rows, closed):
        thetas, xs, ys = zip(*rows)
        middle = len(rows) // 2
        _assert_emitters_match([
            _curve(thetas, xs, ys, closed),
            _curve(thetas[:middle], xs[:middle], ys[:middle], not closed),
            _curve(thetas[middle:], xs[middle:], ys[middle:], closed),
        ])


# Flags set in one call, then left out of the next; a usage error; help texts.
REUSE_SEQUENCE = (
    ("sample", "--n", "3", "--count", "4", "--format", "json"),
    ("sample", "--n", "3", "--count", "4"),
    ("arclength", "--n", "5", "--theta-range", "0.1,0.2"),
    ("arclength", "--n", "5"),
    ("arclength", "--n", "5", "--count", "4"),
    ("sample", "--n", "3", "--count", "4", "--format", "json"),
    ("--help",),
    ("sample", "--help"),
)


class TestParserReuse:
    def test_every_call_shares_one_parser(self, capsys):
        invoke(capsys, "arclength", "--n", "1")
        parser = cli._build_parser()
        invoke(capsys, "gap", "--n", "2")
        assert cli._build_parser() is parser

    def test_earlier_calls_leave_no_state_in_later_ones(self, capsys):
        fresh = []
        for argv in REUSE_SEQUENCE:
            cli._build_parser.cache_clear()
            fresh.append(invoke(capsys, *argv))
        cli._build_parser.cache_clear()
        shared = [invoke(capsys, *argv) for argv in REUSE_SEQUENCE]
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 0, 0, 0, 2, 0, 0, 0]

    def test_importing_the_cli_builds_no_parser(self):
        # The parser is built by the first run(), so an import costs no more than before.
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        script = "from fermatcurves import cli; print(cli._build_parser.cache_info().currsize)"
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
        )
        assert (done.returncode, done.stdout) == (0, "0\n"), done.stderr
