"""End-to-end tests for the command-line interface and its emitters."""

import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fermatcurves import QuadratureFailure, SampledCurve, sample_uniform_theta
from fermatcurves import cli
from test_golden import FRAME_TEXTS as GOLDEN_FRAME_TEXTS


def invoke(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        rebuilt = SampledCurve(tuple(thetas), tuple(points), True, 5, cli.IDENTITY)
        assert cli.emit_csv(rebuilt).decode("ascii") == out

    def test_json_round_trip_is_bit_exact(self, capsys):
        code, out, err = invoke(
            capsys, "sample", "--n", "3", "--count", "16", "--format", "json",
            "--frame", "1.5,0,2,0,1.5,-1",
        )
        assert code == 0
        curve = cli.curve_from_json(out)
        assert cli.emit_json(curve).decode("ascii") == out
        assert curve.exponent == 3
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
        ],
        ids=["top-level-array", "no-samples", "no-x", "samples-number", "sample-array", "five-coefficients"],
    )
    def test_json_of_another_shape_is_a_value_error(self, edit, message):
        doc = json.loads(cli.emit_json(sample_uniform_theta(3, count=8)))
        with pytest.raises(ValueError, match=message):
            cli.curve_from_json(json.dumps(edit(doc)))

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
        monkeypatch.setattr(cli, "_sample_curve", lambda *args: drawn.append(args))
        n = cli.SVG_MAX_CURVES + 1
        code, out, err = invoke(capsys, "svg", "--n", str(n), "--count", "3")
        assert code == 2
        assert out == ""
        assert drawn == []
        assert f"at most {cli.SVG_MAX_CURVES} curves" in err
        assert f"N={n}" in err


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

    def test_a_theta_range_whose_grid_ties_is_rejected(self, capsys):
        # The one grid that comes from user input keeps the public constructor's checks.
        code, out, err = invoke(
            capsys, "sample", "--n", "3", "--theta-range", "1,1.0000000000000002", "--count", "100"
        )
        assert code == 2
        assert out == ""
        assert "thetas must be strictly increasing" in err

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

    def test_quadrature_failure_exits_three(self, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise QuadratureFailure("error target not met")

        monkeypatch.setattr(cli, "arc_length", explode)
        code, out, err = invoke(capsys, "arclength", "--n", "1")
        assert code == 3
        assert "error target not met" in err


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


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of one run(argv), --help included."""
    try:
        code = cli.run(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
            fresh.append(outcome(capsys, argv))
        cli._build_parser.cache_clear()
        shared = [outcome(capsys, argv) for argv in REUSE_SEQUENCE]
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
