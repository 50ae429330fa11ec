import argparse
import contextlib
import hashlib
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phototherm.calibrate as calibrate_module
from phototherm import fileio
from phototherm.cli import _build_parser, cli_main
from phototherm.fileio import preset_path
from conftest import TAU_SINGLE_S


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_report(out):
    report = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition("=")
        report[key] = value
    return report


class TestSteady:
    def test_single_preset_value(self, capsys):
        code, out, _ = run_cli(capsys, "steady", "--preset", "table1_single")
        assert code == 0
        report = parse_report(out)
        assert float(report["theta_s_K"]) == pytest.approx(308.625, abs=1e-3)
        assert float(report["theta_s_C"]) == pytest.approx(35.475, abs=1e-3)

    def test_bilayer_preset_both_channels(self, capsys):
        code, out, _ = run_cli(capsys, "steady", "--preset", "table1_bilayer")
        assert code == 0
        report = parse_report(out)
        assert float(report["theta_s_K"]) == pytest.approx(329.030, abs=1e-2)
        assert float(report["theta_L_K"]) == pytest.approx(329.323, abs=1e-2)

    def test_scale_option(self, capsys):
        code, out, _ = run_cli(capsys, "steady", "--preset", "table1_single",
                               "--scale", "0")
        assert code == 0
        assert float(parse_report(out)["theta_s_K"]) == 298.0

    @pytest.mark.parametrize("preset, scale, message", [
        ("table1_bilayer", "inf", "scale must be finite and >= 0, got inf"),
        ("table1_single", "1e308", "the steady state under a 0.075 W flux at scale 1e+308 "
                                   "overflows a float; lower the power or the scale")])
    def test_scale_beyond_the_float_range_exits_2(self, capsys, preset, scale, message):
        code, out, err = run_cli(capsys, "steady", "--preset", preset, "--scale", scale)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"


class TestSimulateAndMetrics:
    def test_paper_flow_bilayer(self, capsys, tmp_path):
        out_csv = tmp_path / "run.csv"
        code, _, _ = run_cli(capsys, "simulate", "--preset", "table1_bilayer",
                             "--duration", "300", "--dt", "0.01",
                             "--out", str(out_csv))
        assert code == 0
        code, out, _ = run_cli(capsys, "metrics", str(out_csv),
                               "--convention", "window-final", "--window", "300")
        assert code == 0
        report = parse_report(out)
        assert float(report["t63_s"]) == pytest.approx(54.9, abs=3.0)

    @pytest.mark.parametrize("preset", ("table1_single", "table1_bilayer"))
    def test_stdout_csv(self, capsys, tmp_path, preset):
        argv = ("simulate", "--preset", preset, "--duration", "1", "--record-stride", "50")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t_s,theta_s_K,theta_L_K"
        assert len(lines) == 4  # header + t = 0, 0.5, 1.0
        # stdout and --out go through the same writer: identical bytes
        out_csv = tmp_path / "run.csv"
        code, _, _ = run_cli(capsys, *argv, "--out", str(out_csv))
        assert code == 0
        assert out.encode("utf-8") == out_csv.read_bytes()

    def test_schedule_override_and_cooling_tail(self, capsys, tmp_path):
        out_csv = tmp_path / "onoff.csv"
        code, _, _ = run_cli(capsys, "simulate", "--preset", "table1_single",
                             "--duration", "400", "--record-stride", "100",
                             "--schedule", "0:200:1", "--out", str(out_csv))
        assert code == 0
        code, out, _ = run_cli(capsys, "metrics", str(out_csv),
                               "--window", "200", "--ambient", "298")
        assert code == 0
        report = parse_report(out)
        assert "cooling_tau_s" in report
        assert float(report["cooling_tau_s"]) == pytest.approx(113.75, abs=1.0)
        assert float(report["cooling_r2"]) > 0.9999

    @given(ambient=st.floats(270.0, 330.0))
    @settings(max_examples=12, deadline=None)
    def test_cooling_fit_ambient_defaults_to_the_first_value(self, tmp_path_factory, ambient):
        # a CLI run starts at ambient, so its first value is the ambient
        directory = tmp_path_factory.mktemp("cooling")
        config = preset_copy(directory, "ambient_temperature = 298.0",
                             f"ambient_temperature = {ambient!r}", preset="table1_single")
        out_csv = directory / "run.csv"
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli_main(["simulate", "--config", config, "--schedule", "0:150:1",
                             "--duration", "600", "--record-stride", "10",
                             "--out", str(out_csv)]) == 0
            assert cli_main(["metrics", str(out_csv), "--window", "600"]) == 0
        report = parse_report(out.getvalue())
        assert float(report["cooling_tau_s"]) == pytest.approx(TAU_SINGLE_S, rel=1e-3)
        assert float(report["cooling_r2"]) > 0.9999

    def test_explicit_ambient_wins(self, capsys, tmp_path):
        config = preset_copy(tmp_path, "ambient_temperature = 298.0",
                             "ambient_temperature = 310.0", preset="table1_single")
        out_csv = tmp_path / "run.csv"
        run_cli(capsys, "simulate", "--config", config, "--schedule", "0:150:1",
                "--duration", "600", "--record-stride", "10", "--out", str(out_csv))
        code, out, _ = run_cli(capsys, "metrics", str(out_csv), "--window", "600",
                               "--ambient", "298")
        assert code == 0
        report = parse_report(out)
        # the fit a 298 K ambient gave for every series before it defaulted
        # to the first value
        assert (report["cooling_tau_s"], report["cooling_r2"]) == ("1062.825160", "0.849313")

    @pytest.mark.parametrize("ambient", ("nan", "inf", "-inf"))
    def test_non_finite_ambient_is_bad_input(self, capsys, tmp_path, ambient):
        # checked before the file is read: no such file is needed to fail
        code, out, err = run_cli(capsys, "metrics", str(tmp_path / "missing.csv"),
                                 "--window", "200", f"--ambient={ambient}")
        assert (code, out, err) == (2, "", f"error: ambient must be finite, got {ambient}\n")

    @pytest.mark.parametrize("ambient", ("298.0", "330.0", "1e300"))
    def test_ambient_at_or_above_the_tail_drops_the_cooling_lines(self, capsys, tmp_path,
                                                                  ambient):
        # the single-layer run starts at 298 K, so its whole tail sits above
        # 298 K and below 330 K
        out_csv = tmp_path / "run.csv"
        run_cli(capsys, "simulate", "--preset", "table1_single", "--duration", "400",
                "--record-stride", "100", "--schedule", "0:200:1", "--out", str(out_csv))
        code, out, err = run_cli(capsys, "metrics", str(out_csv), "--window", "200",
                                 "--ambient", ambient)
        assert (code, err) == (0, "")
        report = parse_report(out)
        assert ("cooling_tau_s" in report) == (ambient == "298.0")
        assert ("cooling_r2" in report) == (ambient == "298.0")

    @pytest.mark.parametrize("flags, message", [
        (("--plateau-threshold", "1e-9", "--plateau-window", "20"),
         "no 20 s window stays within 1e-09"),
        (("--convention", "supplied", "--final", "310", "--plateau-threshold", "1e-9",
          "--plateau-window", "20"), "no 20 s window stays within 1e-09"),
        (("--convention", "plateau", "--plateau-threshold", "1e-9", "--plateau-window", "20"),
         "no 20 s window stays within 1e-09"),
        (("--convention", "supplied",), "supplied convention requires a final value"),
        (("--window", "0", "--plateau-threshold", "0.5", "--plateau-window", "20"),
         "window must be finite and > 0, got 0.0"),
    ], ids=["window_final_plateau", "supplied_plateau", "plateau_convention",
            "supplied_without_final", "bad_window"])
    def test_failing_metrics_prints_nothing(self, capsys, tmp_path, flags, message):
        out_csv = tmp_path / "run.csv"
        run_cli(capsys, "simulate", "--preset", "table1_single", "--duration", "600",
                "--record-stride", "10", "--schedule", "0:150:1", "--out", str(out_csv))
        code, out, err = run_cli(capsys, "metrics", str(out_csv), *flags)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_metrics_of_an_angle_series_has_no_temperature_keys(self, capsys, tmp_path):
        series = tmp_path / "bending.csv"
        series.write_text("# unit: deg\ntime_s,value\n"
                          + "".join(f"{t},{min(t, 50) / 2}\n" for t in range(200)),
                          encoding="utf-8")
        assert run_cli(capsys, "metrics", str(series), "--window", "100") == (
            0, "baseline=0.000000\nfinal=25.000000\nfinal_convention=window_final\n"
               "t63_s=31.600000\npeak=25.000000\npeak_time_s=50.000000\n", "")

    def test_metrics_plateau_keys(self, capsys, tmp_path):
        out_csv = tmp_path / "run.csv"
        run_cli(capsys, "simulate", "--preset", "table1_single",
                "--duration", "900", "--record-stride", "100",
                "--schedule", "0:inf:1", "--out", str(out_csv))
        code, out, _ = run_cli(capsys, "metrics", str(out_csv),
                               "--window", "300",
                               "--plateau-threshold", "0.5",
                               "--plateau-window", "30")
        assert code == 0
        report = parse_report(out)
        assert "plateau_K" in report and "plateau_reach_s" in report

    def test_plateau_convention_reads_the_plateau_window(self, capsys, tmp_path):
        # the 0.5 K band holds over 20 s windows but over no 300 s one, the
        # default --window of the window-final convention
        out_csv = tmp_path / "run.csv"
        run_cli(capsys, "simulate", "--preset", "table1_single",
                "--duration", "400", "--record-stride", "100",
                "--schedule", "0:inf:1", "--out", str(out_csv))
        argv = ("metrics", str(out_csv), "--convention", "plateau",
                "--plateau-threshold", "0.5")
        code, out, err = run_cli(capsys, *argv, "--plateau-window", "20")
        assert (code, err) == (0, "")
        report = parse_report(out)
        assert report["final_convention"] == "plateau"
        assert report["final_K"] == report["plateau_K"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: plateau convention requires window and plateau_threshold\n"

    @pytest.mark.parametrize("flags, message", [
        (("--window", "0"), "window must be finite and > 0, got 0.0"),
        (("--window", "-5"), "window must be finite and > 0, got -5.0"),
        (("--window", "nan"), "window must be finite and > 0, got nan"),
        (("--convention", "supplied", "--final", "nan"), "final must be finite, got nan")])
    def test_bad_window_or_final_is_named(self, capsys, tmp_path, flags, message):
        # 0 and -5 once ended in "final equals baseline", nan in a nan level
        out_csv = tmp_path / "run.csv"
        run_cli(capsys, "simulate", "--preset", "table1_single",
                "--duration", "100", "--record-stride", "100", "--out", str(out_csv))
        code, out, err = run_cli(capsys, "metrics", str(out_csv), *flags)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("flags, message", [
        (("--convention", "supplied", "--final", "310", "--window", "-4"),
         "--window applies only to --convention window-final"),
        (("--convention", "supplied", "--final", "310", "--window", "300"),
         "--window applies only to --convention window-final"),
        (("--convention", "plateau", "--plateau-threshold", "0.5", "--plateau-window", "20",
          "--window", "300"), "--window applies only to --convention window-final"),
        (("--convention", "window-final", "--final", "310"),
         "--final applies only to --convention supplied"),
        (("--final", "310",), "--final applies only to --convention supplied"),
        (("--convention", "plateau", "--plateau-threshold", "0.5", "--plateau-window", "20",
          "--final", "310"), "--final applies only to --convention supplied")])
    def test_flag_of_another_convention_is_usage_error(self, capsys, tmp_path, flags,
                                                       message):
        # each once exited 0, the flag dropped without a word
        out_csv = tmp_path / "run.csv"
        run_cli(capsys, "simulate", "--preset", "table1_single", "--duration", "400",
                "--record-stride", "100", "--schedule", "0:inf:1", "--out", str(out_csv))
        code, out, err = run_cli(capsys, "metrics", str(out_csv), *flags)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("flags, message", [
        (("--window", "100", "--plateau-threshold", "0.5"),
         "--plateau-threshold needs --plateau-window"),
        (("--plateau-window", "20",), "--plateau-window needs --plateau-threshold"),
        (("--convention", "supplied", "--final", "310", "--plateau-threshold", "0.5"),
         "--plateau-threshold needs --plateau-window")],
        ids=["threshold", "window", "supplied_threshold"])
    def test_lone_plateau_flag_is_usage_error(self, capsys, tmp_path, flags, message):
        # each once exited 0 and printed no plateau line; the file is not read
        missing = tmp_path / "missing.csv"
        code, out, err = run_cli(capsys, "metrics", str(missing), *flags)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_window_final_defaults_to_300_s(self, capsys, tmp_path):
        out_csv = tmp_path / "run.csv"
        run_cli(capsys, "simulate", "--preset", "table1_single", "--duration", "400",
                "--record-stride", "100", "--schedule", "0:inf:1", "--out", str(out_csv))
        code, default, _ = run_cli(capsys, "metrics", str(out_csv))
        assert code == 0
        assert run_cli(capsys, "metrics", str(out_csv), "--window", "300") == (0, default, "")
        assert run_cli(capsys, "metrics", str(out_csv), "--window", "200")[1] != default

    def test_each_command_scans_the_plateau_once(self, capsys, tmp_path, monkeypatch):
        import phototherm.cli
        import phototherm.metrics

        calls = []
        scan = phototherm.metrics.plateau_value

        def counting(*args, **kwargs):
            calls.append(args)
            return scan(*args, **kwargs)

        monkeypatch.setattr(phototherm.metrics, "plateau_value", counting)
        monkeypatch.setattr(phototherm.cli, "plateau_value", counting)
        out_csv = tmp_path / "run.csv"
        run_cli(capsys, "simulate", "--preset", "table1_single",
                "--duration", "400", "--record-stride", "100",
                "--schedule", "0:inf:1", "--out", str(out_csv))
        plateau = ("--plateau-threshold", "0.5", "--plateau-window", "20")
        for argv in (("metrics", str(out_csv), "--convention", "plateau", *plateau),
                     ("metrics", str(out_csv), *plateau),
                     ("analyze-bending", str(out_csv), *plateau)):
            calls.clear()
            code, _, err = run_cli(capsys, *argv)
            assert (code, err) == (0, "")
            assert len(calls) == 1


class TestByteIdentity:
    """sha256 of CSVs as per-cell "%.6f" formatting and a window-by-window
    plateau scan write them; any change to a byte of the output fails here."""

    # (trajectory, analyze-bending --out) for each preset and record stride
    PINNED = {
        ("table1_single", 1): (
            "3dd5e9aed0c7c9fecca20652a382643830453a8daac0170d4cd69738013c12bb",
            "ddfad8a2648e1013545e010a33520faeef2ca760d23a6a478df5517212db3a10"),
        ("table1_single", 7): (
            "5f557486a245d808ade845b53c72c73cfcac74ef558dd043133e596aca83dbda",
            "270bc0870f76c3507e9b090d36a6d718c6dc1345428ebfc43f6caac4ed581911"),
        ("table1_bilayer", 1): (
            "abec9ffac8ca3d0aef71e8836f0e5a2a3cf79e53e62a64ece532699ab56a705d",
            "c0477016888c819cd8d7df8f3a5033ca91324c64fb91d328134861260cdee818"),
        ("table1_bilayer", 7): (
            "e908bf586f64b0d8ff1b386f2f73d3a7c485b2bf978d12618688cd664120013d",
            "255aabf4633d661452149cf6e4674685dbdfb486d3248fd7c55032862b147c38"),
    }

    @pytest.mark.parametrize("preset, stride", sorted(PINNED))
    def test_csv_sha256(self, capsys, tmp_path, preset, stride):
        trajectory_sha, series_sha = self.PINNED[(preset, stride)]
        argv = ("simulate", "--preset", preset, "--schedule", "0:150:1",
                "--duration", "300", "--dt", "0.01", "--record-stride", str(stride))
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == trajectory_sha
        trajectory = tmp_path / "run.csv"
        code, _, _ = run_cli(capsys, *argv, "--out", str(trajectory))
        assert code == 0
        assert hashlib.sha256(trajectory.read_bytes()).hexdigest() == trajectory_sha
        normalized = tmp_path / "normalized.csv"
        code, _, _ = run_cli(capsys, "analyze-bending", str(trajectory),
                             "--plateau-threshold", "1.0", "--plateau-window", "20",
                             "--out", str(normalized))
        assert code == 0
        assert hashlib.sha256(normalized.read_bytes()).hexdigest() == series_sha


class TestCalibrateCommand:
    def test_recovers_scale(self, capsys, tmp_path):
        out_csv = tmp_path / "target.csv"
        code, _, _ = run_cli(capsys, "simulate", "--preset", "table1_bilayer",
                             "--duration", "120", "--record-stride", "100",
                             "--schedule", "0:inf:0.8", "--out", str(out_csv))
        assert code == 0
        code, out, _ = run_cli(capsys, "calibrate", "--preset", "table1_bilayer",
                               "--target", str(out_csv),
                               "--param", "scale:0.1:2.0:1.0")
        assert code == 0
        report = parse_report(out)
        assert float(report["scale"]) == pytest.approx(0.8, rel=1e-3)
        assert report["converged"] == "true"
        assert float(report["rmse_K"]) < 0.01

    def test_warning_is_one_line_without_a_source_path(self, capsys, tmp_path):
        # the fit ends on alpha_L's upper bound, where the absorptances sum
        # above 1: stderr carries the message alone, with no checkout path
        target = tmp_path / "t.csv"
        target.write_text("time_s,value\n0,298.0\n50,318.0\n100,327.0\n150,331.0\n",
                          encoding="utf-8")
        code, out, err = run_cli(capsys, "calibrate", "--preset", "table1_bilayer",
                                 "--target", str(target), "--param", "h_Le:5:40:18",
                                 "--param", "alpha_L:0.5:0.95:0.7", "--channel", "theta_s")
        assert code == 0
        assert parse_report(out)["alpha_L"] == "0.950000"
        assert err == ("warning: layer absorptances sum to 1.1200 > 1; "
                       "more power absorbed than supplied is unphysical\n")

    @pytest.mark.parametrize("source", [
        "mode = constant_flux\npower = 0.075",
        "mode = radiative_body\nsource_temperature = 373.0\nsource_emissivity = 0.9",
    ], ids=["constant_flux", "radiative"])
    def test_run_over_the_step_cap_is_bad_input(self, capsys, tmp_path, source):
        # 2e301 steps: simulate refuses the run, and calibrate once fitted
        # it under a constant-flux source
        config = tmp_path / "fine.ini"
        config.write_text(
            preset_path("table1_single").read_text(encoding="utf-8")
            .replace("mode = constant_flux\npower = 0.075", source)
            .replace("dt = 0.01", "dt = 1e-300").replace("duration = 300.0", "duration = 20"),
            encoding="utf-8")
        target = tmp_path / "t.csv"
        target.write_text("time_s,value\n0,298\n10,300\n20,301\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "calibrate", "--config", str(config),
                                 "--target", str(target), "--param", "alpha_s:0.1:0.5:0.2")
        assert (code, out) == (2, "")
        assert err == ("error: dt=1e-300 s would take 2e+301 steps, more than the 1e+09 "
                       "a run may take; raise dt\n")
        assert run_cli(capsys, "simulate", "--config", str(config))[0] == 2

    def test_target_before_the_run_start_is_bad_input(self, capsys, tmp_path):
        # its rows before t = 0 would be compared with the value at t = 0
        target = tmp_path / "t.csv"
        target.write_text("time_s,value\n-30,298.0\n0,298.0\n50,318.0\n100,327.0\n",
                          encoding="utf-8")
        code, out, err = run_cli(capsys, "calibrate", "--preset", "table1_single",
                                 "--target", str(target), "--param", "h_se:2:12:4")
        assert (code, out) == (2, "")
        assert err == "error: the target starts at t=-30 s, before the run starts at t=0 s\n"

    @pytest.mark.parametrize("spec, message", [
        ("alpha_L:0.9:0.5:0.7", "alpha_L: lower bound must be below upper bound"),
        ("h_se:1:2", "--param must be NAME:LO:HI:INIT, got 'h_se:1:2'"),
        ("h_se:1:two:1.5", "--param bounds must be numbers, got 'h_se:1:two:1.5'")],
        ids=["inverted_box", "three_fields", "non_numeric"])
    def test_bad_param_spec_is_bad_input(self, capsys, tmp_path, spec, message):
        target = tmp_path / "t.csv"
        target.write_text("time_s,value\n0,298\n1,299\n", encoding="utf-8")
        assert run_cli(capsys, "calibrate", "--preset", "table1_bilayer", "--target",
                       str(target), "--param", spec) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("field", ["lower", "upper", "initial"])
    @pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
    def test_non_finite_param_field_names_the_rule(self, capsys, tmp_path, field, x):
        # a nan or inf bound once read "lower bound must be below upper bound"
        target = tmp_path / "t.csv"
        target.write_text("time_s,value\n0,298\n1,299\n", encoding="utf-8")
        spec = {"lower": "0.1", "upper": "0.5", "initial": "0.2", field: x}
        rule = "initial guess must be finite" if field == "initial" else "bounds must be finite"
        assert run_cli(capsys, "calibrate", "--preset", "table1_single", "--target",
                       str(target), "--param", "alpha_s:{lower}:{upper}:{initial}".format(
                           **spec)) == (2, "", f"error: alpha_s: {rule}\n")

    def test_target_out_of_reach_is_bad_input(self, capsys, tmp_path):
        # every squared error overflows, so every candidate scored inf; the
        # fit once ran to its iteration cap and printed sse_K2=inf with exit 0
        target = tmp_path / "t.csv"
        target.write_text("time_s,value\n0,298\n10,1e200\n20,300\n", encoding="utf-8")
        assert run_cli(capsys, "calibrate", "--preset", "table1_single", "--target",
                       str(target), "--param", "alpha_s:0.1:0.5:0.2") == (
            2, "", "error: the squared errors of the best fit overflow a float: the target "
                   "lies too far from every simulated temperature\n")

    def test_zero_convection_bound_is_bad_input_naming_the_parameter(self, capsys, tmp_path):
        target = tmp_path / "t.csv"
        target.write_text("time_s,value\n0,298\n1,299\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "calibrate", "--preset", "table1_single",
                                 "--target", str(target), "--param", "h_se:0:12:0")
        assert code == 2
        assert out == ""
        assert "h_se: lower bound must be > 0" in err

    def test_unstable_box_is_bad_input_naming_the_largest_stable_bound(self, capsys,
                                                                        tmp_path):
        # the fit used to start and exit 3 once the simplex reached h_Le = 5018
        target = tmp_path / "t.csv"
        target.write_text("time_s,value\n0,298\n1,299\n2,300\n3,300.5\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "calibrate", "--preset", "table1_bilayer",
                                 "--target", str(target), "--param", "h_Le:5:1e5:18")
        assert code == 2
        assert out == ""
        assert err.startswith("error: h_Le: dt=0.01 s exceeds the stability limit")
        assert err.rstrip().endswith("the largest stable upper bound is 2599.9999999999995")

    @pytest.mark.parametrize("source, free, limit", [
        ("mode = constant_flux\npower = 0.075", ("--param", "alpha_L:0.5:0.95:0.7"), "0.12844"),
        ("mode = radiative_body\nsource_temperature = 373.0\nsource_emissivity = 0.9",
         (), "0.122745"),
    ], ids=["constant_flux", "radiative"])
    def test_box_with_no_stable_point_is_a_numerical_failure(self, capsys, tmp_path, source,
                                                             free, limit):
        # at dt = 0.2 s even the box's lower corner breaks the guard; a
        # radiative source reads no absorptance, so it frees h_Le alone
        preset = preset_path("table1_bilayer").read_text(encoding="utf-8")
        text = (preset.replace("dt = 0.01", "dt = 0.2")
                .replace("mode = constant_flux\npower = 0.075", source))
        assert "dt = 0.2" in text and source in text
        config = tmp_path / "coarse.ini"
        config.write_text(text, encoding="utf-8")
        target = tmp_path / "t.csv"
        target.write_text("time_s,value\n0,298\n1,299\n2,300\n3,300.5\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "calibrate", "--config", str(config),
                                 "--target", str(target), "--param", "h_Le:5:40:18",
                                 *free)
        assert code == 3
        assert out == ""
        assert err == (f"error: dt=0.2 s exceeds the stability limit {limit} s "
                       "set by the lig layer\n")

    @pytest.mark.parametrize("preset", ["table1_single", "table1_bilayer"])
    @pytest.mark.filterwarnings("always::RuntimeWarning")
    def test_flux_beyond_the_float_range_is_a_numerical_failure(self, capsys, tmp_path,
                                                                 preset):
        # the closed form's temperatures overflow at the initial point: the
        # typed error is the only line, with no numpy warning on the way
        target = tmp_path / "t.csv"
        target.write_text("time_s,value\n0,298.0\n50,318.0\n100,327.0\n150,331.0\n",
                          encoding="utf-8")
        code, out, err = run_cli(capsys, "calibrate", "--preset", preset,
                                 "--target", str(target), "--param", "Q_h:1:1e308:1e308")
        assert code == 3
        assert out == ""
        assert err == "error: temperature became non-finite or non-positive\n"

    def test_absorptance_under_a_radiative_source_is_bad_input(self, capsys, tmp_path):
        # a radiative source reads no absorptance: the fit would print its
        # initial guess as converged
        preset = preset_path("table1_single").read_text(encoding="utf-8")
        text = preset.replace("mode = constant_flux\npower = 0.075",
                              "mode = radiative_body\nsource_temperature = 373.0\n"
                              "source_emissivity = 0.9")
        assert "radiative_body" in text
        config = tmp_path / "radiative.ini"
        config.write_text(text, encoding="utf-8")
        target = tmp_path / "t.csv"
        target.write_text("time_s,value\n0,298\n10,299\n20,300\n30,300.5\n",
                          encoding="utf-8")
        code, out, err = run_cli(capsys, "calibrate", "--config", str(config),
                                 "--target", str(target), "--param", "alpha_s:0.05:0.5:0.4")
        assert (code, out, err) == (2, "", "error: alpha_s applies to constant-flux "
                                           "sources only\n")

    def test_absorptance_and_power_read_only_as_a_product_is_bad_input(self, capsys,
                                                                       tmp_path):
        # the single-layer model reads alpha_s * Q_h * scale: the fit once
        # printed alpha_s=0.319397 and Q_h=0.039925 as converged, where the
        # truth is 0.17 and 0.075
        target = tmp_path / "s.csv"
        assert run_cli(capsys, "simulate", "--preset", "table1_single", "--duration", "60",
                       "--dt", "0.05", "--out", str(target))[0] == 0
        code, out, err = run_cli(capsys, "calibrate", "--preset", "table1_single",
                                 "--target", str(target), "--param", "alpha_s:0.05:0.5:0.4",
                                 "--param", "Q_h:0.01:0.2:0.05")
        assert (code, out, err) == (2, "", "error: alpha_s and Q_h enter the model only as "
                                           "the product alpha_s * Q_h * scale, so no target "
                                           "can tell them apart; free at most one of them\n")

    def test_scale_box_whose_drive_underflows_is_bad_input(self, capsys, tmp_path,
                                                           monkeypatch):
        # a positive lower bound of 1e-300 puts scale times the per-step
        # drive coefficient below the smallest normal float: the box is
        # rejected with run's message before the first evaluation, where
        # the fit once ran its evaluations and then exited 2
        config = preset_copy(tmp_path, "mode = constant_flux\npower = 0.075",
                             "mode = radiative_body\nsource_temperature = 373.0\n"
                             "source_emissivity = 0.9")
        target = tmp_path / "t.csv"
        target.write_text("time_s,value\n0,298\n10,299\n20,300\n30,300.5\n",
                          encoding="utf-8")
        integrated = []
        monkeypatch.setattr(calibrate_module, "_integrate",
                            lambda *args: integrated.append(args))
        code, out, err = run_cli(capsys, "calibrate", "--config", config, "--target",
                                 str(target), "--param", "scale:1e-300:2:1")
        assert (code, out, integrated) == (2, "", [])
        assert err == ("error: drive scale 1e-300 times the silicone layer's per-step drive "
                       "coefficient 3.56962e-13 1/K^3 is below the smallest normal float; "
                       "raise the scale or set it to 0\n")
        assert run_cli(capsys, "simulate", "--config", config, "--schedule",
                       "0:inf:1e-300")[2] == err

    def test_zero_convection_sweep_point_still_fails_its_row(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--preset", "table1_single",
                                 "--param", "h_se", "--values", "0,6",
                                 "--outputs", "steady")
        assert code == 4
        assert [line.split(",")[4] for line in out.strip().splitlines()[1:]] \
            == ["failed", "ok"]
        assert err == ("index=0 value=0 error=ValidationError "
                       "message=conv_coeff must be strictly positive, got 0.0\n"
                       "1 of 2 sweep points failed\n")


class TestSweepCommand:
    def test_distance_sweep_csv(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, "sweep", "--preset", "table1_bilayer",
                             "--param", "distance",
                             "--distances", "0.05,0.075,0.1",
                             "--d-ref", "0.05", "--outputs", "steady",
                             "--out", str(out_csv))
        assert code == 0
        lines = out_csv.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 4
        steady = [float(line.split(",")[5]) for line in lines[1:]]
        assert steady[0] > steady[1] > steady[2]

    @pytest.mark.parametrize("geometry", (
        ("--distances", "0.05,0.1", "--d-ref", "0.05", "--exponent", "nan"),
        ("--distances", "0.05,0.1", "--d-ref", "inf"),
        ("--distances", "0.05,inf", "--d-ref", "0.05"),
    ), ids=("nan_exponent", "inf_d_ref", "inf_distance"))
    def test_non_finite_geometry_is_bad_input(self, capsys, geometry):
        code, out, err = run_cli(capsys, "sweep", "--preset", "table1_bilayer",
                                 "--param", "distance", *geometry, "--outputs", "steady")
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_overflowing_scale_is_a_failed_point(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        code, _, err = run_cli(capsys, "sweep", "--preset", "table1_bilayer",
                               "--param", "distance", "--distances", "0.001,0.05",
                               "--d-ref", "0.05", "--exponent", "1000",
                               "--outputs", "steady", "--out", str(out_csv))
        assert code == 4
        assert err == ("index=0 value=0.001 error=ValidationError message=illuminance scale "
                       "(0.05 / 0.001) ** 1000 overflows a float\n1 of 2 sweep points failed\n")
        rows = out_csv.read_text(encoding="utf-8").strip().splitlines()[1:]
        assert [row.split(",")[4] for row in rows] == ["failed", "ok"]

    def test_parameter_the_scenario_lacks_is_bad_input(self, capsys, tmp_path):
        # it fails every point, so the sweep fails before its first one
        preset = preset_path("table1_single").read_text(encoding="utf-8")
        text = preset.replace("mode = constant_flux\npower = 0.075",
                              "mode = radiative_body\nsource_temperature = 373.0\n"
                              "source_emissivity = 0.9")
        assert "radiative_body" in text
        radiative = tmp_path / "radiative.ini"
        radiative.write_text(text, encoding="utf-8")
        for scenario, param, message in (
                (("--preset", "table1_single"), "alpha_L", "alpha_L needs a bilayer assembly"),
                (("--config", str(radiative)), "Q_h",
                 "Q_h applies to constant-flux sources only"),
                # a radiative source reads no absorptance: every row would match
                (("--config", str(radiative)), "alpha_s",
                 "alpha_s applies to constant-flux sources only")):
            code, out, err = run_cli(capsys, "sweep", *scenario, "--param", param,
                                     "--values", "0.5,0.6")
            assert (code, out, err) == (2, "", f"error: {message}\n")
        code, out, err = run_cli(capsys, "sweep", "--config", str(radiative), "--param",
                                 "alpha_s", "--values", "0.1,0.5", "--outputs", "steady")
        assert (code, out, err) == (2, "", "error: alpha_s applies to constant-flux "
                                           "sources only\n")

    def test_point_failing_its_metrics_names_the_error_class(self, capsys):
        # at scale 0 the wall never leaves ambient, so t63 has nothing to time
        code, out, err = run_cli(capsys, "sweep", "--preset", "table1_bilayer",
                                 "--param", "scale", "--values", "0,1", "--outputs", "t63")
        assert code == 4
        assert [line.split(",")[4] for line in out.splitlines()[1:]] == ["failed", "ok"]
        assert err == ("index=0 value=0 error=ValidationError "
                       "message=final equals baseline: no response to time\n"
                       "1 of 2 sweep points failed\n")

    def test_scale_whose_radiative_drive_underflows(self, capsys, tmp_path):
        # run takes scale times the per-step drive coefficient dt sigma A /
        # (R C) once per segment: at 1e-300 that float is subnormal, so the
        # point fails and simulate exits 2
        config = preset_copy(tmp_path, "mode = constant_flux\npower = 0.075",
                             "mode = radiative_body\nsource_temperature = 373.0\n"
                             "source_emissivity = 0.9")
        message = ("drive scale 1e-300 times the silicone layer's per-step drive coefficient "
                   "3.56962e-13 1/K^3 is below the smallest normal float; raise the scale "
                   "or set it to 0")
        code, out, err = run_cli(capsys, "sweep", "--config", config, "--param", "scale",
                                 "--values", "1e-300,1")
        assert code == 4
        assert [line.split(",")[4] for line in out.splitlines()[1:]] == ["failed", "ok"]
        assert err == (f"index=0 value=1e-300 error=ValidationError message={message}\n"
                       "1 of 2 sweep points failed\n")
        code, out, err = run_cli(capsys, "simulate", "--config", config,
                                 "--schedule", "0:inf:1e-300")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("outputs", ["t63", "peak", "plateau", "steady,peak", "steady"])
    def test_channel_the_wall_lacks_is_bad_input(self, capsys, tmp_path, outputs):
        preset = preset_path("table1_single").read_text(encoding="utf-8")
        text = preset.replace("[sim]", "[metrics]\nchannel = theta_L\nplateau_threshold = 0.5\n"
                                       "plateau_window = 20\n\n[sim]")
        assert "channel = theta_L" in text
        config = tmp_path / "lig_channel.ini"
        config.write_text(text, encoding="utf-8")
        # the config is rejected when it is loaded, whatever the sweep reads
        line = text.splitlines().index("channel = theta_L") + 1
        argv = ("sweep", "--config", str(config), "--param", "h_se", "--values", "5,6")
        code, out, err = run_cli(capsys, *argv, "--outputs", outputs)
        assert (code, out, err) == (2, "", f"error: {config}:{line}: [metrics] channel "
                                           "theta_L is not valid for a single-layer assembly\n")

    @pytest.mark.parametrize("key, raw, rule", [
        ("plateau_threshold", "-1", "must be > 0, got -1.0"),
        ("plateau_threshold", "nan", "must be > 0, got nan"),
        ("plateau_window", "nan", "must be finite and > 0, got nan"),
    ])
    def test_bad_plateau_setting_is_bad_input(self, capsys, tmp_path, key, raw, rule):
        # it once loaded, and then every plateau point failed with exit 4
        settings = {"plateau_threshold": "0.5", "plateau_window": "20", key: raw}
        text = preset_path("table1_single").read_text(encoding="utf-8").replace(
            "[sim]", "[metrics]\n" + "".join(f"{k} = {v}\n" for k, v in settings.items())
            + "\n[sim]")
        config = tmp_path / "plateau.ini"
        config.write_text(text, encoding="utf-8")
        line = text.splitlines().index(f"{key} = {raw}") + 1
        code, out, err = run_cli(capsys, "sweep", "--config", str(config), "--param",
                                 "scale", "--values", "0.5,1", "--outputs", "plateau")
        assert (code, out) == (2, "")
        assert err == f"error: {config}:{line}: [metrics] {key} {rule}\n"

    @pytest.mark.parametrize("old, new, outputs, key", [
        ("metric_window = 300.0", "metric_window = 1e9", "t63,steady", "[sim] metric_window"),
        ("[sim]", "[metrics]\nplateau_threshold = 0.5\nplateau_window = 1e9\n\n[sim]",
         "plateau", "[metrics] plateau_window")])
    def test_window_longer_than_the_run_is_bad_input(self, capsys, tmp_path, old, new,
                                                     outputs, key):
        # it once failed every row, the steady columns too, and exited 4
        config = preset_copy(tmp_path, old, new, preset="table1_single")
        code, out, err = run_cli(capsys, "sweep", "--config", config, "--param", "scale",
                                 "--values", "0.5,1", "--outputs", outputs)
        assert (code, out) == (2, "")
        assert err == (f"error: {key} 1000000000.0 s exceeds the last recorded time "
                       "300 s of the run\n")

    @pytest.mark.parametrize("param, points, message", [
        ("scale", ("--values", "1,0.5", "--d-ref", "0.05", "--exponent", "7"),
         "d_ref and exponent apply only to distance sweeps"),
        ("h_se", ("--values", "5", "--exponent", "2"),
         "d_ref and exponent apply only to distance sweeps"),
        ("scale", ("--values", "1", "--distances", "0.1"),
         "scale sweeps need values, not distances"),
        ("distance", ("--distances", "0.1", "--values", "1", "--d-ref", "0.05"),
         "distance sweeps need distances, not values"),
        ("scale", ("--values", ""), "need at least one sweep point"),
        ("scale", ("--values", " , "), "need at least one sweep point"),
        ("distance", ("--d-ref", "0.05"), "need at least one sweep point"),
    ], ids=["d_ref_on_scale", "exponent_on_h_se", "distances_on_scale",
            "values_on_distance", "empty_values", "blank_values", "no_distances"])
    def test_bad_sweep_points_are_bad_input(self, capsys, param, points, message):
        # the first two once exited 0 with both settings dropped, and the
        # empty value lists once read "scale sweeps need values, not distances"
        code, out, err = run_cli(capsys, "sweep", "--preset", "table1_single",
                                 "--param", param, *points, "--outputs", "steady")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_repeated_output_is_bad_input(self, capsys):
        # it would write its column twice
        code, out, err = run_cli(capsys, "sweep", "--preset", "table1_single",
                                 "--param", "scale", "--values", "0.5,1",
                                 "--outputs", "t63,t63,steady")
        assert (code, out) == (2, "")
        assert err == "error: repeated sweep outputs ['t63']; name each once\n"

    def test_warnings_come_before_the_failure_lines(self, capsys, monkeypatch):
        # a point's model is built before any point runs, in input order, in
        # one process or with the points run in forked workers
        expected = "".join(
            f"warning: layer absorptances sum to {total} > 1; more power absorbed than "
            "supplied is unphysical\n" for total in ("1.1200", "1.1400")) + (
            "index=2 value=2 error=ValidationError message=absorptance must lie in [0, 1], "
            "got 2.0\n1 of 5 sweep points failed\n")
        results = []
        for steps in (math.inf, 0):
            monkeypatch.setattr(fileio, "_PARALLEL_STEPS", steps, raising=False)
            results.append(run_cli(capsys, "sweep", "--preset", "table1_bilayer",
                                   "--param", "alpha_L", "--values", "0.5,0.95,2.0,0.97,0.7",
                                   "--outputs", "peak,steady"))
        assert results[0] == results[1]
        code, out, err = results[0]
        assert (code, err) == (4, expected)
        assert [line.split(",")[4] for line in out.splitlines()[1:]] == [
            "ok", "ok", "failed", "ok", "ok"]

    def test_partial_failure_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--preset", "table1_bilayer",
                                 "--param", "alpha_L", "--values", "0.5,2.0",
                                 "--outputs", "steady")
        assert code == 4
        assert "failed" in out
        assert "1 of 2" in err


class TestAnalyzeBending:
    @staticmethod
    def bending_file(tmp_path, n_cycles=3):
        peaks = [51.7, 51.6, 50.7][:n_cycles]
        times, values = [], []
        t0 = 0.0
        for peak in peaks:
            on = np.arange(0.0, 120.0, 0.5)
            off = np.arange(0.0, 120.0, 0.5)
            rise = peak * (1 - np.exp(-on / 20.0))
            fall = rise[-1] * np.exp(-off / 10.0)
            times.extend(t0 + on)
            values.extend(rise)
            times.extend(t0 + 120.0 + off)
            values.extend(fall)
            t0 += 240.0
        path = tmp_path / "bend.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("# unit: deg\ntime_s,value\n")
            for t, v in zip(times, values):
                fh.write(f"{t:.6f},{v:.6f}\n")
        return path

    def test_multi_cycle_analysis(self, capsys, tmp_path):
        path = self.bending_file(tmp_path)
        normalized = tmp_path / "norm.csv"
        code, out, _ = run_cli(capsys, "analyze-bending", str(path),
                               "--plateau-threshold", "1.0",
                               "--plateau-window", "20",
                               "--out", str(normalized))
        assert code == 0
        report = parse_report(out)
        assert "plateau" in report and "t63_s" in report
        ratios = [float(r) for r in report["cycle_ratios"].split(",")]
        assert ratios[0] == 1.0
        assert ratios[1] == pytest.approx(51.6 / 51.7, abs=1e-3)
        assert ratios[2] == pytest.approx(50.7 / 51.7, abs=1e-3)
        assert normalized.is_file()
        from phototherm import read_series
        norm = read_series(normalized)
        assert norm.values[0] == 0.0

    @pytest.mark.parametrize("flags, message", [
        (("--plateau-threshold", "1e-9", "--plateau-window", "20"),
         "no 20 s window stays within 1e-09"),
        (("--plateau-threshold", "1", "--plateau-window", "20", "--peaks", "51.7,abc"),
         "--peaks must be comma-separated numbers, got '51.7,abc'"),
        (("--plateau-threshold", "1", "--plateau-window", "20", "--peaks", "0,51.7"),
         "first peak must be > 0, got 0.0"),
        (("--plateau-threshold", "1", "--plateau-window", "20", "--peaks", "1,nan,inf"),
         "peaks must be finite, got nan"),
        (("--plateau-threshold", "1", "--plateau-window", "20", "--peaks", "inf,1"),
         "peaks must be finite, got inf"),
    ], ids=["plateau", "peaks_not_numbers", "first_peak_zero", "nan_peak", "inf_first_peak"])
    def test_failing_command_writes_nothing(self, capsys, tmp_path, flags, message):
        path = self.bending_file(tmp_path)
        normalized = tmp_path / "norm.csv"
        code, out, err = run_cli(capsys, "analyze-bending", str(path), *flags,
                                 "--out", str(normalized))
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not normalized.exists()

    def test_flat_record_writes_nothing(self, capsys, tmp_path):
        path = tmp_path / "flat.csv"
        path.write_text("# unit: deg\ntime_s,value\n" + "".join(
            f"{t:.6f},5.000000\n" for t in range(60)), encoding="utf-8")
        normalized = tmp_path / "norm.csv"
        code, out, err = run_cli(capsys, "analyze-bending", str(path),
                                 "--plateau-threshold", "1", "--plateau-window", "20",
                                 "--out", str(normalized))
        assert (code, out) == (2, "")
        assert err == "error: plateau equals the initial value: normalization degenerate\n"
        assert not normalized.exists()

    def test_explicit_peaks_override(self, capsys, tmp_path):
        path = self.bending_file(tmp_path, n_cycles=1)
        code, out, _ = run_cli(capsys, "analyze-bending", str(path),
                               "--plateau-threshold", "1.0",
                               "--plateau-window", "20",
                               "--peaks", "51.7,51.6,50.7,46.74")
        assert code == 0
        ratios = [float(r) for r in parse_report(out)["cycle_ratios"].split(",")]
        assert ratios[3] == pytest.approx(0.904, abs=5e-4)

    def test_recovery_series_analyzed_without_cycles(self, capsys, tmp_path):
        # falling (light-off) record: no rise above the start, so no cycle
        # ratios, but plateau and response time must still come out
        t = np.arange(0.0, 120.0, 0.5)
        values = 51.7 * np.exp(-t / 15.0)
        path = tmp_path / "recovery.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("# unit: deg\ntime_s,value\n")
            for ti, vi in zip(t, values):
                fh.write(f"{ti:.6f},{vi:.6f}\n")
        code, out, _ = run_cli(capsys, "analyze-bending", str(path),
                               "--plateau-threshold", "1.0",
                               "--plateau-window", "20")
        assert code == 0
        report = parse_report(out)
        assert "t63_s" in report and "plateau" in report
        assert "cycle_ratios" not in report
        # 63% of the drop toward the detected plateau: near tau ln(...) of the decay
        assert float(report["t63_s"]) == pytest.approx(15.0, abs=2.0)


def preset_copy(tmp_path, old, new, preset="table1_bilayer"):
    """Path of a copy of a bundled preset with one line replaced."""
    text = preset_path(preset).read_text(encoding="utf-8")
    assert old in text
    path = tmp_path / "scenario.ini"
    path.write_text(text.replace(old, new), encoding="utf-8")
    return str(path)


class TestHugeFiniteSchedule:
    """A finite schedule bound far beyond the step grid acts like an
    infinite one instead of overflowing the step index."""

    @pytest.mark.parametrize("huge, same", [("0:1e308:1", "0:inf:1"), ("1e308:inf:1", "")])
    def test_simulate_matches_unbounded_schedule(self, capsys, huge, same):
        argv = ("simulate", "--preset", "table1_bilayer", "--duration", "5",
                "--record-stride", "10")
        code, out, _ = run_cli(capsys, *argv, "--schedule", huge)
        assert code == 0
        assert out == run_cli(capsys, *argv, "--schedule", same)[1]

    def test_sweep_matches_unbounded_schedule(self, capsys, tmp_path):
        rows = []
        for intervals in ("0:1e308:1", "0:inf:1"):
            config = preset_copy(tmp_path, "intervals = 0:inf:1", f"intervals = {intervals}")
            code, out, _ = run_cli(capsys, "sweep", "--config", config, "--param", "scale",
                                   "--values", "0.5", "--outputs", "t63,peak")
            assert code == 0
            rows.append(out)
        assert rows[0] == rows[1]
        assert rows[0].splitlines()[1].split(",")[4] == "ok"

    def test_calibrate_matches_unbounded_schedule(self, capsys, tmp_path):
        target = tmp_path / "target.csv"
        code, _, _ = run_cli(capsys, "simulate", "--preset", "table1_bilayer",
                             "--duration", "120", "--record-stride", "100",
                             "--schedule", "0:inf:0.8", "--out", str(target))
        assert code == 0
        reports = []
        for intervals in ("0:1e308:1", "0:inf:1"):
            config = preset_copy(tmp_path, "intervals = 0:inf:1", f"intervals = {intervals}")
            code, out, _ = run_cli(capsys, "calibrate", "--config", config,
                                   "--target", str(target), "--param", "scale:0.1:2.0:1.0")
            assert code == 0
            reports.append(out)
        assert reports[0] == reports[1]
        assert float(parse_report(reports[0])["scale"]) == pytest.approx(0.8, rel=1e-3)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A heating-and-cooling run, a calibration target and a bending series
    for the flag tables, by name."""
    directory = tmp_path_factory.mktemp("flag_inputs")
    paths = {name: str(directory / f"{name}.csv") for name in ("run", "target", "bend")}
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(["simulate", "--preset", "table1_single", "--duration", "400",
                         "--record-stride", "100", "--schedule", "0:200:1",
                         "--out", paths["run"]]) == 0
        assert cli_main(["simulate", "--preset", "table1_single", "--duration", "100",
                         "--record-stride", "100", "--schedule", "0:inf:0.8",
                         "--out", paths["target"]]) == 0
    t = np.arange(0.0, 200.0)
    bend = np.where(t < 100.0, 50.0 * (1.0 - np.exp(-t / 10.0)),
                    50.0 * np.exp(-(t - 100.0) / 10.0))
    with open(paths["bend"], "w", encoding="utf-8", newline="") as fh:
        fh.write("# unit: deg\ntime_s,value\n")
        fh.writelines(f"{ti:.6f},{vi:.6f}\n" for ti, vi in zip(t, bend))
    return paths


class TestNonFiniteFlags:
    """No command prints nan or inf. Given nan, every float-valued flag and
    every number list but sweep's --values fails with one error line and
    nothing on stdout or in an --out file; given +-inf it fails the same way
    or prints only finite numbers. A bad sweep value fails its own row and
    exits 4 instead."""

    PRESET = ("--preset", "table1_single")
    CASES = [
        ("simulate", *PRESET, "--duration={x}", "--out={out}"),
        ("simulate", *PRESET, "--dt={x}", "--out={out}"),
        ("steady", *PRESET, "--scale={x}"),
        ("metrics", "{run}", "--window={x}"),
        ("metrics", "{run}", "--convention", "supplied", "--final={x}"),
        ("metrics", "{run}", "--plateau-threshold={x}", "--plateau-window", "20"),
        ("metrics", "{run}", "--plateau-threshold", "0.5", "--plateau-window={x}"),
        ("metrics", "{run}", "--convention", "plateau", "--plateau-threshold={x}",
         "--plateau-window", "20"),
        ("metrics", "{run}", "--window", "200", "--ambient={x}"),
        ("calibrate", *PRESET, "--target", "{target}", "--param=alpha_s:{x}:1:0.5"),
        ("calibrate", *PRESET, "--target", "{target}", "--param=alpha_s:0.1:{x}:0.5"),
        ("calibrate", *PRESET, "--target", "{target}", "--param=alpha_s:0.1:1:{x}"),
        ("sweep", *PRESET, "--param", "distance", "--distances", "0.05,0.1", "--d-ref={x}",
         "--outputs", "steady", "--out={out}"),
        ("sweep", *PRESET, "--param", "distance", "--distances", "0.05,0.1", "--d-ref", "0.05",
         "--exponent={x}", "--outputs", "steady", "--out={out}"),
        ("sweep", *PRESET, "--param", "distance", "--distances=0.05,{x}", "--d-ref", "0.05",
         "--outputs", "steady", "--out={out}"),
        ("analyze-bending", "{bend}", "--plateau-threshold={x}", "--plateau-window", "20",
         "--out={out}"),
        ("analyze-bending", "{bend}", "--plateau-threshold", "0.5", "--plateau-window={x}",
         "--out={out}"),
        ("analyze-bending", "{bend}", "--plateau-threshold", "0.5", "--plateau-window", "20",
         "--peaks=1,{x}", "--out={out}"),
        ("analyze-bending", "{bend}", "--plateau-threshold", "0.5", "--plateau-window", "20",
         "--peaks={x},1", "--out={out}"),
    ]

    def test_table_covers_every_float_flag(self):
        subparsers = next(action for action in _build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        float_flags = {(command, action.option_strings[-1])
                       for command, parser in subparsers.choices.items()
                       for action in parser._actions if action.type is float}
        covered = {(case[0], arg.partition("=")[0])
                   for case in self.CASES for arg in case if "{x}" in arg}
        assert float_flags <= covered

    @pytest.mark.parametrize("value", ("nan", "inf", "-inf"))
    @pytest.mark.parametrize("case", CASES, ids=lambda case: "-".join(
        [case[0]] + [arg.partition("=")[0] for arg in case if "{x}" in arg]))
    def test_never_prints_a_non_finite_number(self, capsys, tmp_path, inputs, case, value):
        out_path = tmp_path / "out.csv"
        code, out, err = run_cli(capsys, *(arg.format(x=value, out=out_path, **inputs)
                                           for arg in case))
        if value == "nan" or code != 0:
            assert code != 0 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert not out_path.exists()
            return
        for line in out.splitlines():
            for word in line.partition("=")[2].split(","):
                try:
                    number = float(word)
                except ValueError:
                    continue
                assert math.isfinite(number), line


class TestNegativeFlagValues:
    """A negative value reads the same after a space as after "=": -1e308,
    -1,0 and -inf were once taken for unknown options (exit 1, "expected
    one argument"), while argparse read -2 as a number. Each case is a
    command, the flag given the value, and the other arguments it needs."""

    SCENARIO = ("--preset", "table1_single")
    CALIBRATE = ("--target", "{target}", "--param", "alpha_s:0.1:0.5:0.2")
    SWEEP = ("--param", "scale", "--values", "0.5,1", "--outputs", "steady")
    DISTANCE = ("--param", "distance", "--outputs", "steady")
    BEND = ("{bend}", "--plateau-threshold", "0.5", "--plateau-window", "20")
    CASES = [
        ("simulate", "--preset"), ("simulate", "--config"),
        ("simulate", "--dt", *SCENARIO, "--duration", "20"),
        ("simulate", "--record-stride", *SCENARIO, "--duration", "20"),
        ("simulate", "--schedule", *SCENARIO, "--duration", "20"),
        ("simulate", "--out", *SCENARIO, "--duration", "20"),
        ("simulate", "--duration", *SCENARIO),
        ("steady", "--preset"), ("steady", "--config"), ("steady", "--scale", *SCENARIO),
        ("metrics", "--channel", "{run}"), ("metrics", "--convention", "{run}"),
        ("metrics", "--window", "{run}"),
        ("metrics", "--final", "{run}", "--convention", "supplied"),
        ("metrics", "--plateau-threshold", "{run}", "--plateau-window", "20"),
        ("metrics", "--plateau-window", "{run}", "--plateau-threshold", "0.5"),
        ("metrics", "--ambient", "{run}", "--window", "200"),
        ("calibrate", "--preset", *CALIBRATE), ("calibrate", "--config", *CALIBRATE),
        ("calibrate", "--target", *SCENARIO, "--param", "alpha_s:0.1:0.5:0.2"),
        ("calibrate", "--param", *SCENARIO, "--target", "{target}"),
        ("calibrate", "--channel", *SCENARIO, *CALIBRATE),
        ("sweep", "--preset", *SWEEP), ("sweep", "--config", *SWEEP),
        ("sweep", "--param", *SCENARIO, "--values", "0.5,1", "--outputs", "steady"),
        ("sweep", "--values", *SCENARIO, "--param", "scale", "--outputs", "steady"),
        ("sweep", "--outputs", *SCENARIO, "--param", "scale", "--values", "0.5,1"),
        ("sweep", "--out", *SCENARIO, *SWEEP),
        ("sweep", "--distances", *SCENARIO, *DISTANCE, "--d-ref", "0.05"),
        ("sweep", "--d-ref", *SCENARIO, *DISTANCE, "--distances", "0.05,0.1"),
        ("sweep", "--exponent", *SCENARIO, *DISTANCE, "--distances", "0.05,0.1",
         "--d-ref", "0.05"),
        ("analyze-bending", "--plateau-threshold", "{bend}", "--plateau-window", "20"),
        ("analyze-bending", "--plateau-window", "{bend}", "--plateau-threshold", "0.5"),
        ("analyze-bending", "--out", *BEND), ("analyze-bending", "--peaks", *BEND),
    ]

    def test_table_covers_every_value_taking_flag(self):
        subparsers = next(action for action in _build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        flags = {(command, action.option_strings[-1])
                 for command, parser in subparsers.choices.items()
                 for action in parser._actions
                 if action.option_strings and action.nargs is None}
        assert flags == {case[:2] for case in self.CASES}

    @pytest.mark.parametrize("value", ["-2", "-0.5", "-1e308", "-1,0", "-inf", "-nan"])
    @pytest.mark.parametrize("case", CASES, ids=lambda case: "".join(case[:2]))
    def test_both_spellings_agree(self, capsys, monkeypatch, tmp_path, inputs, case, value):
        monkeypatch.chdir(tmp_path)  # an --out value names a file here
        command, flag, *rest = case
        rest = [arg.format(**inputs) for arg in rest]
        spaced = run_cli(capsys, command, *rest, flag, value)
        joined = run_cli(capsys, command, *rest, f"{flag}={value}")
        assert spaced == joined
        assert "expected one argument" not in spaced[2]


class TestOverflowingCells:
    """Finite series cells whose swing or excess overflows a float: the
    command fails with one error line, or leaves out the figure they spoil,
    but prints no nan, inf or numpy warning."""

    B = "time_s,value\n0,-1e308\n10,325\n20,327\n30,327.5\n40,327.8\n50,327.9\n60,298\n"
    CROSSING = ("error: the 63.2% crossing between -1e+308 at t=0 s and 325 at t=10 s "
                "overflows a float\n")

    def test_metrics_t63_that_overflows_exits_2(self, capsys, tmp_path):
        # it printed t63_s=inf and exited 0
        path = tmp_path / "b.csv"
        path.write_text(self.B, encoding="utf-8")
        assert run_cli(capsys, "metrics", str(path), "--window", "50") == (
            2, "", self.CROSSING)

    def test_analyze_bending_t63_that_overflows_exits_2(self, capsys, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("# unit: deg\n" + self.B, encoding="utf-8")
        assert run_cli(capsys, "analyze-bending", str(path), "--plateau-threshold", "1",
                       "--plateau-window", "20") == (2, "", self.CROSSING)

    def test_metrics_leaves_out_a_cooling_fit_that_overflows(self, capsys, tmp_path):
        # it printed two numpy warnings, cooling_tau_s=nan and cooling_r2=nan
        path = tmp_path / "e.csv"
        path.write_text("time_s,value\n0,298\n10,1e308\n20,400\n30,350\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "metrics", str(path), "--window", "20",
                                 "--ambient=-1e308")
        assert (code, err) == (0, "")
        report = parse_report(out)
        assert "t63_s" in report and not [key for key in report if key.startswith("cooling_")]
        del report["final_convention"]
        assert all(math.isfinite(float(value)) for value in report.values())

    @pytest.mark.parametrize("unit, cell, kelvin", [("K", "-5", "-5"), ("C", "-300", "-26.85"),
                                                    ("C", "-273.15", "0")])
    def test_calibration_target_at_or_below_zero_kelvin_exits_2(self, capsys, tmp_path,
                                                                 unit, cell, kelvin):
        # -5 K fitted to sse_K2=92129.025390 and exited 0
        path = tmp_path / "k.csv"
        path.write_text(f"# unit: {unit}\ntime_s,value\n0,25\n10,{cell}\n20,27\n",
                        encoding="utf-8")
        assert run_cli(capsys, "calibrate", "--preset", "table1_single", "--target", str(path),
                       "--param", "alpha_s:0.1:0.5:0.2") == (
            2, "", f"error: the target holds {kelvin} K at t=10 s; a calibration target "
                   "must be above 0 K\n")


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "explode")
        assert code == 1
        assert "usage" in err.lower()

    def test_no_arguments_is_usage_error(self, capsys):
        assert run_cli(capsys, )[0] == 1

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "simulate" in out

    def test_missing_file_is_bad_input(self, capsys):
        code, _, err = run_cli(capsys, "metrics", "/nonexistent/file.csv")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("schedule, message", [
        ("0:10", "interval must be start:end:scale, got '0:10'"),
        ("0:ten:1", "non-numeric interval '0:ten:1'")])
    def test_malformed_schedule_is_bad_input(self, capsys, schedule, message):
        assert run_cli(capsys, "simulate", "--preset", "table1_single", "--schedule",
                       schedule) == (2, "", f"error: --schedule: {message}\n")

    @pytest.mark.parametrize("fault", ["bad_kind", "missing_key", "directory", "latin_1"])
    def test_bad_config_is_bad_input(self, capsys, tmp_path, fault):
        text = preset_path("table1_bilayer").read_text(encoding="utf-8")
        path = tmp_path / "scenario.ini"
        if fault == "bad_kind":
            path.write_text("[assembly]\nkind = pyramid\n", encoding="utf-8")
            message = (f"{path}:2: [assembly] kind must be 'single_layer' or 'bilayer', "
                       "got 'pyramid'")
        elif fault == "missing_key":
            path.write_text(text.replace("ambient_temperature = 298.0\n", ""),
                            encoding="utf-8")
            line = text.splitlines().index("[environment]") + 1
            message = f"{path}:{line}: [environment] missing key 'ambient_temperature'"
        elif fault == "directory":
            path.mkdir()
            message = f"{path}: cannot read config: "  # then the OS's own reason
        else:
            path.write_bytes(("# é\n" + text).encode("latin-1"))
            message = (f"{path}: config must be UTF-8: 'utf-8' codec can't decode byte 0xe9 "
                       "in position 2: invalid continuation byte")
        code, out, err = run_cli(capsys, "steady", "--config", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert fault == "directory" or err == f"error: {message}\n"

    def test_bilayer_without_convection_is_numerical_failure(self, capsys, tmp_path):
        config = preset_copy(tmp_path, "conv_faces = 1", "conv_faces = 0")
        assert run_cli(capsys, "steady", "--config", config) == (
            3, "", "error: no loss path: steady state undefined under drive\n")

    def test_zero_emissivity_under_radiative_source_is_bad_input(self, capsys, tmp_path):
        preset = preset_path("table1_single").read_text(encoding="utf-8")
        text = (preset.replace("emissivity = 0.95", "emissivity = 0.0")
                .replace("mode = constant_flux\npower = 0.075",
                         "mode = radiative_body\nsource_temperature = 373.0\n"
                         "source_emissivity = 0.9"))
        assert "emissivity = 0.0" in text and "radiative_body" in text
        config = tmp_path / "dark.ini"
        config.write_text(text, encoding="utf-8")
        code, _, err = run_cli(capsys, "simulate", "--config", str(config),
                               "--duration", "1")
        assert code == 2
        assert "emissivity" in err

    @pytest.mark.parametrize("command", ["steady", "simulate"])
    @pytest.mark.parametrize("preset", ["table1_single", "table1_bilayer"])
    @pytest.mark.parametrize("field", ["power", "source_temperature"])
    def test_infinite_source_is_bad_input(self, capsys, tmp_path, command, preset,
                                          field):
        source = {"power": "mode = constant_flux\npower = inf",
                  "source_temperature": "mode = radiative_body\n"
                                        "source_temperature = inf\n"
                                        "source_emissivity = 0.9"}[field]
        text = preset_path(preset).read_text(encoding="utf-8").replace(
            "mode = constant_flux\npower = 0.075", source)
        assert source in text
        config = tmp_path / "inf.ini"
        config.write_text(text, encoding="utf-8")
        code, _, err = run_cli(capsys, command, "--config", str(config))
        assert code == 2
        assert field in err

    @pytest.mark.parametrize("command", ["steady", "simulate"])
    def test_overflowing_source_temperature_is_bad_input(self, capsys, tmp_path, command):
        # finite, but its fourth power is beyond the float range
        text = preset_path("table1_bilayer").read_text(encoding="utf-8").replace(
            "mode = constant_flux\npower = 0.075",
            "mode = radiative_body\nsource_temperature = 1e100\nsource_emissivity = 0.9")
        assert "1e100" in text
        config = tmp_path / "overflow.ini"
        config.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, command, "--config", str(config))
        assert code == 2
        assert out == ""
        assert "source temperature" in err

    def test_overflowing_ambient_is_bad_input(self, capsys, tmp_path):
        # a traceback and exit 1 once, from the ambient's fourth power
        text = (preset_path("table1_bilayer").read_text(encoding="utf-8")
                .replace("mode = constant_flux\npower = 0.075",
                         "mode = radiative_body\nsource_temperature = 373.0\n"
                         "source_emissivity = 0.9")
                .replace("ambient_temperature = 298.0", "ambient_temperature = 1e308"))
        assert "radiative_body" in text and "1e308" in text
        config = tmp_path / "hot_ambient.ini"
        config.write_text(text, encoding="utf-8")
        message = "ambient temperature 1e+308 K is too high: its fourth power overflows a float"
        assert run_cli(capsys, "steady", "--config", str(config)) \
            == (2, "", f"error: {message}\n")
        assert run_cli(capsys, "sweep", "--config", str(config), "--param", "scale",
                       "--values", "1", "--outputs", "steady") == (
            4, "index,param,value,scale,status,steady_theta_s_K,steady_theta_L_K\n"
               "0,scale,1,,failed,,\n",
            f"index=0 value=1 error=ValidationError message={message}\n"
            "1 of 1 sweep points failed\n")

    @pytest.mark.parametrize("source", ["options", "config"])
    def test_overflowing_step_count_is_bad_input(self, capsys, tmp_path, source):
        if source == "options":
            argv = ("--preset", "table1_bilayer", "--duration", "1e300", "--dt", "1e-10")
        else:
            argv = ("--config", preset_copy(tmp_path, "dt = 0.01\nduration = 300.0",
                                            "dt = 1e-10\nduration = 1e300"))
        code, out, err = run_cli(capsys, "simulate", *argv)
        assert code == 2
        assert out == ""
        assert "duration / dt must be finite, got 1e+300 / 1e-10" in err

    def test_unrecordable_step_count_is_bad_input(self, capsys):
        # 3e302 steps pass SimConfig; run refuses them before stepping
        code, out, err = run_cli(capsys, "simulate", "--preset", "table1_single",
                                 "--dt", "1e-300")
        assert code == 2
        assert out == ""
        assert "would record 3e+302 samples" in err
        assert err.rstrip().endswith("raise dt or record_stride")

    def test_uncapped_step_count_is_bad_input(self, capsys):
        # 3e302 steps recorded every 1e300th: 300 samples pass the recording
        # budget, and run refuses the steps before stepping
        code, out, err = run_cli(capsys, "simulate", "--preset", "table1_single",
                                 "--dt", "1e-300", "--record-stride", str(10 ** 300))
        assert code == 2
        assert out == ""
        assert "dt=1e-300 s would take 3e+302 steps, more than the 1e+09" in err
        assert err.rstrip().endswith("raise dt")

    def test_unstable_step_is_numerical_failure(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--preset", "table1_bilayer",
                               "--dt", "0.5", "--duration", "10")
        assert code == 3
        assert "lig" in err

    def test_hot_radiative_step_is_numerical_failure(self, capsys, tmp_path):
        text = preset_path("table1_bilayer").read_text(encoding="utf-8").replace(
            "mode = constant_flux\npower = 0.075",
            "mode = radiative_body\nsource_temperature = 1500.0\nsource_emissivity = 0.9")
        assert "1500.0" in text
        config = tmp_path / "hot.ini"
        config.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "simulate", "--config", str(config),
                                 "--dt", "0.1", "--duration", "10")
        assert code == 3
        assert out == ""
        assert "lig" in err

    def test_unknown_preset_is_bad_input(self, capsys):
        code, _, _ = run_cli(capsys, "steady", "--preset", "unknown")
        assert code == 2
