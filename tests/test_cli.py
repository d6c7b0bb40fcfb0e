import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import discbraid.loops as loops
from discbraid.cli import main
from discbraid.estimator import default_base
from discbraid.flows import flow_to_json, make_flow
from discbraid.profiles import (
    polynomial_bump,
    profile_from_json,
    profile_to_json,
    rotation_profile,
    zero_profile,
)


@pytest.fixture
def bump_flow_file(tmp_path):
    flow = make_flow([(polynomial_bump(Fraction(1, 4), Fraction(3, 4), 96), 1)])
    path = tmp_path / "bump.json"
    path.write_text(flow_to_json(flow))
    return str(path)


@pytest.fixture
def rotation_flow_file(tmp_path):
    flow = make_flow([(rotation_profile(1), 2 * math.pi)], validate=False)
    doc = json.loads(flow_to_json(flow))
    doc["unchecked"] = True
    path = tmp_path / "rot.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def payload_of(out: str) -> dict:
    body = "\n".join(line for line in out.splitlines() if not line.startswith("#"))
    return json.loads(body)


class TestInvariant:
    def test_signature_example(self, capsys):
        code, out, _ = run_cli(capsys, "invariant", "signature", "--word", "1 1", "--strands", "2")
        assert code == 0
        assert payload_of(out)["value"] == -1

    def test_linking(self, capsys):
        code, out, _ = run_cli(capsys, "invariant", "lk", "--word", "1 1 1 1", "--strands", "2")
        assert code == 0
        assert payload_of(out)["value"] == 2

    def test_homogenized_signature(self, capsys):
        code, out, _ = run_cli(
            capsys, "invariant", "homogenized", "--phi", "signature",
            "--word", "1 1", "--strands", "2", "--k-max", "256",
        )
        assert code == 0
        doc = payload_of(out)
        assert doc["value_exact"] == [-2, 1]

    def test_domain_error_exit_one(self, capsys):
        code, _out, err = run_cli(capsys, "invariant", "lk", "--word", "1", "--strands", "2")
        assert code == 1
        assert "error" in err

    def test_usage_error_exit_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["no-such-command"])
        assert info.value.code == 2

    def test_bad_letter_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "invariant", "signature", "--word", "1 x", "--strands", "2")
        assert code == 1
        assert json.loads(err)["error"] == "InputError"
        assert "Traceback" not in err

    def test_homogenized_single_slope_has_unknown_bound(self, capsys):
        code, out, _ = run_cli(
            capsys, "invariant", "homogenized", "--phi", "signature",
            "--word", "1 1 2", "--strands", "3", "--k-max", "2",
        )
        assert code == 0
        doc = payload_of(out)
        assert doc["value_exact"] == [-3, 1]
        assert doc["error_bound"] is None
        assert "null" in out


class TestEstimate:
    def test_rotation_matches_pi_squared(self, capsys, rotation_flow_file):
        code, out, _ = run_cli(
            capsys, "estimate", "--phi", "lk", "--n", "2",
            "--flow", rotation_flow_file, "--samples", "400", "--seed", "7",
        )
        assert code == 0
        doc = payload_of(out)
        assert doc["value"] == pytest.approx(math.pi**2, abs=1e-9)
        assert doc["std_error"] == 0.0

    def test_threads_do_not_change_numbers(self, capsys, bump_flow_file):
        strip = lambda s: [l for l in s.splitlines() if not l.startswith("#")]
        for phi_args in (
            ["--phi", "lk", "--n", "2", "--samples", "1200"],
            # two chunks of the signature route, so two threads start workers
            ["--phi", "signature", "--n", "3", "--samples", "600", "--k-schedule", "1,2"],
        ):
            argv = ["estimate", *phi_args, "--flow", bump_flow_file, "--seed", "5"]
            _, out1, _ = run_cli(capsys, *argv, "--threads", "1")
            _, out2, _ = run_cli(capsys, *argv, "--threads", "2")
            assert strip(out1) == strip(out2)

    def test_repeat_identical_bytes(self, capsys, bump_flow_file):
        argv = ["estimate", "--phi", "lk", "--n", "2", "--flow", bump_flow_file,
                "--samples", "600", "--seed", "3"]
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2


class TestBraidExtract:
    def test_generate_and_ingest_roundtrip(self, capsys, rotation_flow_file, tmp_path):
        traj = tmp_path / "traj.csv"
        code, out1, _ = run_cli(
            capsys, "braid-extract", "--flow", rotation_flow_file,
            "--start", "0.5,0;-0.5,0", "--emit-trajectory", str(traj),
        )
        assert code == 0
        word_lines1 = [l for l in out1.splitlines() if not l.startswith("#")]
        code, out2, _ = run_cli(capsys, "braid-extract", "--trajectory", str(traj))
        assert code == 0
        word_lines2 = [l for l in out2.splitlines() if not l.startswith("#")]
        assert word_lines1 == word_lines2
        assert word_lines1[0] == "2"

    def test_point_lists_starting_with_a_minus(self, capsys, bump_flow_file):
        points = {"--start": "-0.44,-0.24;0.44,0.24", "--base": "-0.5,0.1;0.5,-0.1", "--direction": "-1,0.3"}
        joined = [f"{flag}={value}" for flag, value in points.items()]
        separate = [token for item in points.items() for token in item]
        outs = [run_cli(capsys, "braid-extract", "--flow", bump_flow_file, *argv) for argv in (joined, separate)]
        assert outs[0][0] == 0 and outs[0] == outs[1]
        code, out, _ = run_cli(capsys, "flow-apply", "--flow", bump_flow_file, "--point", "-0.5,-0.25")
        assert code == 0 and payload_of(out)["point"] == [-0.5, -0.25]

    @pytest.mark.parametrize("samples", [[], ["--samples-per-segment", "33"]], ids=["default", "33"])
    def test_strands_passing_through_each_other_rejected(self, capsys, bump_flow_file, samples):
        # the swapped default base sends the pair's legs through each other;
        # the loop has no braid, whatever the sample count reads off it
        start = ";".join(f"{float(x)!r},{float(y)!r}" for x, y in default_base(2)[::-1])
        code, out, err = run_cli(capsys, "braid-extract", "--flow", bump_flow_file, f"--start={start}", *samples)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "InputError"

    DEGENERATE_TRAJECTORIES = {
        # a non-loop: the strands swap through the origin between two samples
        "swap": ("2,2", ["0.0,0,-0.5,0.0", "0.0,1,0.5,0.0", "1.0,0,0.5,0.0", "1.0,1,-0.5,0.0"],
                 "DegenerateConfigurationError", "crossing with coincident strands"),
        # a loop: out through each other and back
        "swap-loop": ("2,3", ["0.0,0,-0.5,0.0", "0.0,1,0.5,0.0", "0.5,0,0.5,0.0", "0.5,1,-0.5,0.0",
                              "1.0,0,-0.5,0.0", "1.0,1,0.5,0.0"],
                      "DegenerateConfigurationError", "crossing with coincident strands"),
        # the strands meet at a sample
        "touch": ("2,2", ["0.0,0,0.5,0.0", "0.0,1,-0.5,0.0", "1.0,0,0.0,0.0", "1.0,1,0.0,0.0"],
                  "DegenerateConfigurationError", "strands pass within coincidence threshold"),
        "one-strand": ("1,2", ["0.0,0,0.5,0.0", "1.0,0,0.5,0.0"], "InputError", "need at least 2 strands, got 1"),
    }

    @pytest.mark.parametrize("name", list(DEGENERATE_TRAJECTORIES))
    def test_degenerate_trajectory_error_bytes(self, capsys, tmp_path, name):
        header, rows, error, message = self.DEGENERATE_TRAJECTORIES[name]
        traj = tmp_path / "traj.csv"
        traj.write_text("\n".join([header, "time,strand,x,y", *rows]) + "\n")
        code, out, err = run_cli(capsys, "braid-extract", "--trajectory", str(traj))
        assert (code, out) == (1, "")
        assert err == f'{{"error": "{error}", "message": "{message}"}}\n'

    def test_written_swap_loop_is_coincident(self, capsys, tmp_path):
        # the legs of this loop pass through each other at the origin; written
        # out, rounding leaves a gap of about 6e-17 across the direction there
        base = default_base(2)
        traj = tmp_path / "swap.csv"
        traj.write_text(loops.write_trajectory_csv(loops.gg_loop(base, base[::-1], make_flow([(zero_profile(), 1)]))))
        code, out, err = run_cli(capsys, "braid-extract", "--trajectory", str(traj))
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "DegenerateConfigurationError", "message": "crossing with coincident strands"}

    def test_wide_trajectory_memory_is_bounded(self, capsys, tmp_path, monkeypatch):
        # the end strands pass their neighbours, so the step's changed slots
        # span all 300 strands: 44850 slot pairs, screened 4096 at a time
        monkeypatch.setattr(loops, "PAIR_BUDGET", 2**12)
        n, h = 300, 1.8 / 299
        x = [-0.9 + h * i for i in range(n)]
        ends = [(x[1] + 0.3 * h, 0.1), *((xi, 0.0) for xi in x[1:-1]), (x[-2] - 0.6 * h, -0.1)]
        starts = [(x[0], 0.1), *((xi, 0.0) for xi in x[1:-1]), (x[-1], -0.1)]
        rows = [f"{t!r},{i},{px!r},{py!r}" for t, points in ((0.0, starts), (1.0, ends)) for i, (px, py) in enumerate(points)]
        traj = tmp_path / "traj.csv"
        traj.write_text("\n".join([f"{n},2", "time,strand,x,y", *rows]) + "\n")
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "braid-extract", "--trajectory", str(traj))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, err) == (0, "")
        assert [l for l in out.splitlines() if not l.startswith("#")] == ["300", f"-{n - 1} -1"]
        assert peak < 2**20  # one unscreened row of 44850 slot pairs needs over 2 MiB

    @pytest.mark.parametrize("command", ["braid-extract", "lp-length"])
    @pytest.mark.parametrize("row", ["0.0,-1,-0.5,0", "0.0,5,-0.5,0", "0.5,1,-0.5,0", "0.0,1,nan,0"])
    def test_malformed_trajectory_is_input_error(self, capsys, tmp_path, command, row):
        traj = tmp_path / "traj.csv"
        traj.write_text(f"2,2\ntime,strand,x,y\n0.0,0,0.5,0\n{row}\n1.0,0,0.5,0\n1.0,1,-0.5,0\n")
        code, out, err = run_cli(capsys, command, "--trajectory", str(traj))
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "InputError"


class TestMalformedNumbers:
    @pytest.mark.parametrize(
        "argv",
        [
            ["flow-apply", "--point", "a,0"],
            ["flow-apply", "--point", "nan,0"],
            ["braid-extract", "--start", "0.5,0;b,0"],
            ["braid-extract", "--start", "0.5,0;-0.5,0", "--base", "0.5,0;x,y"],
            ["braid-extract", "--start", "0.5,0;-0.5,0", "--direction", "1,z"],
            ["estimate", "--phi", "lk", "--n", "2", "--samples", "8", "--k-schedule", "1,x"],
        ],
        ids=["point", "point-nan", "start", "base", "direction", "k-schedule"],
    )
    def test_bad_number_is_input_error(self, capsys, rotation_flow_file, argv):
        code, out, err = run_cli(capsys, *argv, "--flow", rotation_flow_file)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "InputError"
        assert "Traceback" not in err


class TestConfigAfterValidation:
    """An input error leaves stdout empty: no '# config' line before it."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "--phi", "lk", "--n", "2", "--samples", "8", "--k-schedule", "2,1"],
            ["estimate", "--phi", "lk", "--n", "2", "--samples", "8", "--k-schedule", "0,1"],
            ["estimate", "--phi", "lk", "--n", "1", "--samples", "8"],
            ["estimate", "--phi", "lk", "--n", "2", "--samples", "0"],
            ["lp-length", "--mode", "sampled", "--space-samples", "0"],
            ["lp-length", "--mode", "sampled", "--time-steps", "1"],
            ["lp-length", "--mode", "sampled", "--p", "0.5"],
            ["lp-length", "--p", "0.5"],
            ["flow-apply", "--point", "2,0"],
            ["estimate", "--phi", "lk", "--n", "3", "--i", "1", "--j", "4"],
            ["estimate", "--phi", "lk", "--n", "3", "--i", "2", "--j", "2"],
            ["estimate", "--phi", "lk", "--n", "3", "--i", "0", "--j", "1"],
        ],
        ids=[
            "k-schedule-decreasing", "k-schedule-zero", "n-1", "samples-0",
            "space-samples-0", "time-steps-1", "sampled-p-half", "analytic-p-half",
            "point-outside-disc", "lk-strand-above-n", "lk-same-strand", "lk-strand-0",
        ],
    )
    def test_flow_command(self, capsys, rotation_flow_file, argv):
        code, out, err = run_cli(capsys, *argv, "--flow", rotation_flow_file)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "InputError"
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["invariant", "lk", "--word", "1", "--strands", "2", "--j", "5"],
            ["invariant", "homogenized", "--word", "1", "--strands", "2", "--k-max", "0"],
            ["make-hs", "--s", "1/2"],
            ["verify", "--checks", "hs-family,no-such-check"],
        ],
        ids=["lk-strand", "k-max-0", "hs-out-of-range", "unknown-check"],
    )
    def test_other_command(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "InputError"


class TestLpLength:
    def test_analytic(self, capsys, bump_flow_file):
        code, out, _ = run_cli(capsys, "lp-length", "--flow", bump_flow_file, "--p", "2")
        assert code == 0
        assert payload_of(out)["upper_bound"] is True

    @pytest.mark.parametrize("mode", ["analytic", "sampled"])
    @pytest.mark.parametrize("p", ["nan", "inf", "-inf", "0.5"])
    def test_p_must_be_finite_and_at_least_one(self, capsys, bump_flow_file, mode, p):
        code, out, err = run_cli(
            capsys, "lp-length", "--flow", bump_flow_file, f"--p={p}",
            "--mode", mode, "--space-samples", "100",
        )
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "InputError"
        assert "Traceback" not in err

    def test_trajectory_p_must_be_finite(self, capsys, tmp_path):
        traj = tmp_path / "traj.csv"
        traj.write_text("2,2\ntime,strand,x,y\n0.0,0,0.5,0\n0.0,1,-0.5,0\n1.0,0,0.5,0\n1.0,1,-0.5,0\n")
        code, out, err = run_cli(capsys, "lp-length", "--trajectory", str(traj), "--p", "nan")
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "InputError"

    @pytest.mark.filterwarnings("error")
    def test_overflowing_analytic_length_refused(self, capsys, tmp_path):
        profile = tmp_path / "hs.json"
        assert run_cli(capsys, "make-hs", "--s", "7/24", "--out", str(profile))[0] == 0
        code, out, err = run_cli(capsys, "lp-length", "--profile", str(profile), "--time", "1e308", "--p", "1")
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "InputError"

    @pytest.mark.filterwarnings("error")
    def test_high_p_analytic_length(self, capsys, tmp_path):
        # y^150 |rate|^300 is below 1e-330 everywhere: a float sum of it is 0
        profile = tmp_path / "bump2.json"
        profile.write_text(profile_to_json(polynomial_bump(Fraction(1, 4), Fraction(3, 4), 2)))
        code, out, err = run_cli(capsys, "lp-length", "--profile", str(profile), "--time", "1", "--p", "300")
        assert code == 0 and err == ""
        assert payload_of(out)["value"] == pytest.approx(0.0765523077430963, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_high_p_analytic_length_is_finite(self, capsys, tmp_path):
        # |rate|^2000 overflows a float, the length is about 2.957
        profile = tmp_path / "hs.json"
        assert run_cli(capsys, "make-hs", "--s", "1/4", "--out", str(profile))[0] == 0
        code, out, err = run_cli(capsys, "lp-length", "--profile", str(profile), "--time", "1", "--p", "2000")
        assert code == 0 and err == ""
        assert payload_of(out)["value"] == pytest.approx(2.9568, rel=1e-4)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_trajectory_length_refused(self, capsys, tmp_path):
        # a strand moves by 1 in a subnormal time step: its speed overflows
        traj = tmp_path / "traj.csv"
        traj.write_text("2,2\ntime,strand,x,y\n0.0,0,0.1,0\n0.0,1,-0.5,0\n1e-320,0,0.1,1\n1e-320,1,-0.5,0\n")
        code, out, err = run_cli(capsys, "lp-length", "--trajectory", str(traj), "--p", "2")
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "InputError"

    @pytest.mark.filterwarnings("error")
    def test_high_p_sampled_length_is_finite(self, capsys, tmp_path):
        # speed**400 overflows a float, speed/max(speed) to the 400 does not
        profile = tmp_path / "hs.json"
        assert run_cli(capsys, "make-hs", "--s", "7/24", "--out", str(profile))[0] == 0
        code, out, _ = run_cli(
            capsys, "lp-length", "--profile", str(profile), "--time", "1000", "--p", "400",
            "--mode", "sampled", "--space-samples", "1000",
        )
        assert code == 0
        payload = json.loads(out.split("\n", 1)[1], parse_constant=lambda c: pytest.fail(f"non-strict JSON: {c}"))
        assert math.isfinite(payload["value"]) and payload["value"] > 0
        assert math.isfinite(payload["std_error"])

    @pytest.mark.filterwarnings("error")
    def test_non_finite_sampled_length_refused(self, capsys, tmp_path):
        # the angular rate overflows to inf, so every moved point is NaN
        profile = tmp_path / "hs.json"
        assert run_cli(capsys, "make-hs", "--s", "7/24", "--out", str(profile))[0] == 0
        code, out, err = run_cli(
            capsys, "lp-length", "--profile", str(profile), "--time", "1e308", "--p", "2",
            "--mode", "sampled", "--space-samples", "100",
        )
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "InputError"

    def test_high_p_trajectory_length_is_finite(self, capsys, tmp_path):
        # one of two strands moves by 10 in unit time: (pi * 10**400 / 2)**(1/400)
        traj = tmp_path / "fast.csv"
        traj.write_text("2,2\n0.0,0,0.0,0.0\n0.0,1,0.5,0.5\n1.0,0,10.0,0.0\n1.0,1,0.5,0.5\n")
        code, out, _ = run_cli(capsys, "lp-length", "--trajectory", str(traj), "--p", "400")
        assert code == 0
        assert payload_of(out)["value"] == pytest.approx(10 * (math.pi / 2) ** (1 / 400), rel=1e-12)

    def test_sampled_close_to_analytic(self, capsys, bump_flow_file):
        _, out_a, _ = run_cli(capsys, "lp-length", "--flow", bump_flow_file, "--p", "2")
        analytic = payload_of(out_a)["value"]
        code, out_s, _ = run_cli(
            capsys, "lp-length", "--flow", bump_flow_file, "--p", "2",
            "--mode", "sampled", "--space-samples", "20000",
        )
        assert code == 0
        assert payload_of(out_s)["value"] == pytest.approx(analytic, rel=0.02)


class TestMalformedFractions:
    @pytest.fixture
    def profile_file(self, tmp_path):
        path = tmp_path / "bump.json"
        path.write_text(profile_to_json(polynomial_bump(Fraction(1, 4), Fraction(3, 4), 96)))
        return str(path)

    @pytest.mark.parametrize("text", ["abc", "1/0", "nan", "1e400"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["flow-apply", "--point", "0.5,0"],
            ["estimate", "--phi", "lk", "--n", "2", "--samples", "8"],
        ],
        ids=["flow-apply", "estimate"],
    )
    def test_bad_time_is_input_error(self, capsys, profile_file, argv, text):
        code, out, err = run_cli(capsys, *argv, "--profile", profile_file, "--time", text)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "InputError"

    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "--phi", "lk", "--n", "2", "--samples", "20", "--time", "1e30"],
            ["estimate", "--phi", "signature", "--n", "3", "--samples", "20", "--time", "1e30"],
            ["estimate", "--phi", "lk", "--n", "2", "--samples", "20", "--k-schedule", "1," + "9" * 401],
            ["braid-extract", "--start", "0.5,0;-0.5,0", "--time", "1e30"],
        ],
        ids=["estimate-lk", "estimate-signature", "k-schedule", "braid-extract"],
    )
    def test_unresolvable_turns_are_input_error(self, capsys, profile_file, argv):
        code, out, err = run_cli(capsys, *argv, "--profile", profile_file)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "InputError"

    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "--phi", "signature", "--n", "3", "--samples", "20", "--time", "1e6"],
            ["braid-extract", "--start", "0.5,0;-0.5,0", "--samples-per-segment", "1000000000"],
        ],
        ids=["estimate-signature", "braid-extract"],
    )
    def test_oversized_loop_is_input_error(self, capsys, profile_file, argv):
        code, out, err = run_cli(capsys, *argv, "--profile", profile_file)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "InputError"
        assert "positions" in json.loads(err)["message"]

    @pytest.mark.parametrize("text", ["abc", "1/0", "nan"])
    def test_bad_hs_parameter_is_input_error(self, capsys, text):
        code, out, err = run_cli(capsys, "make-hs", "--s", text)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "InputError"


class TestFlowFileTimes:
    @pytest.mark.parametrize(
        "time_text", ["1e400", "NaN", "-Infinity", "[1" + "0" * 400 + ", 1]"],
        ids=["1e400", "NaN", "-Infinity", "10**400-fraction"],
    )
    @pytest.mark.parametrize(
        "argv",
        [["flow-apply", "--point", "0.5,0"], ["lp-length", "--p", "2"]],
        ids=["flow-apply", "lp-length"],
    )
    def test_non_finite_time_is_input_error(self, capsys, bump_flow_file, argv, time_text):
        with open(bump_flow_file) as fh:
            doc = json.load(fh)
        doc["terms"][0]["time"] = "TIME"
        with open(bump_flow_file, "w") as fh:
            fh.write(json.dumps(doc).replace('"TIME"', time_text))
        code, out, err = run_cli(capsys, *argv, "--flow", bump_flow_file)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "InputError"


class TestThreadsEnvironment:
    def test_bad_default_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("DISCBRAID_THREADS", "abc")
        with pytest.raises(SystemExit) as exc:
            main(["make-hs", "--s", "7/24"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_default_is_read(self, capsys, monkeypatch):
        monkeypatch.setenv("DISCBRAID_THREADS", "2")
        code, out, _ = run_cli(capsys, "make-hs", "--s", "7/24")
        assert code == 0
        config = json.loads(out.splitlines()[0][len("# config "):])
        assert config["threads"] == 2


class TestMakeHs:
    def test_emits_valid_profile(self, capsys):
        code, out, _ = run_cli(capsys, "make-hs", "--s", "7/24")
        assert code == 0
        body = "\n".join(l for l in out.splitlines() if not l.startswith("#"))
        profile = profile_from_json(body)
        assert profile.moment(0) == 0

    def test_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "make-hs", "--s", "1/2")
        assert code == 1 and "error" in err


class TestVerify:
    def test_fast_checks_pass_and_report(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "verify", "--checks",
            "crossing-bound,word-length,hs-family,bilipschitz",
            "--trials", "20", "--report", str(report),
        )
        assert code == 0
        assert out.count("PASS") == 4
        doc = json.loads(report.read_text())
        assert len(doc) == 4 and all(entry["passed"] for entry in doc)

    def test_huge_trial_count_rejected_before_any_work(self):
        # in a subprocess, so a regression times out instead of hanging the suite
        root = Path(__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-m", "discbraid.cli", "verify", "--checks", "hs-family", "--trials", str(10**30)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(root / "src")), timeout=60,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert json.loads(proc.stderr)["error"] == "InputError"

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "csv", "invariant", "signature",
            "--word", "1 1 1", "--strands", "2",
        )
        assert code == 0
        assert "value,-2" in out
