import concurrent.futures
import dataclasses
import io
import math
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phototherm import (
    ConfigError,
    Environment,
    HeatSource,
    KindMismatchError,
    LightSchedule,
    MeasurementSeries,
    SeriesFormatError,
    SimConfig,
    ThermalLayer,
    Trajectory,
    ValidationError,
    WallAssembly,
    available_presets,
    illuminance_scale,
    load_config,
    preset_path,
    read_series,
    response_time_63,
    run,
    run_sweep,
    series_from_trajectory,
    write_series,
    write_trajectory,
)
import phototherm.fileio as fileio_module
from phototherm.decimals import read_decimals
from phototherm.fileio import (RunConfig, _bulk_rows, _csv_body, _parse_rows,
                               _read_ini, _write_csv, parse_config)
from conftest import LIG, POWER_W, SILICONE, traced_peak
from reference_ini import reference_read_ini


class TestIlluminanceScale:
    def test_reference_distance_is_unity(self):
        assert illuminance_scale(0.05, 0.05) == 1.0

    def test_doubling_distance_halves_at_unit_exponent(self):
        # consistent with 15 klx at 100 mm against 30 klx at 50 mm
        assert illuminance_scale(0.100, 0.050, 1.0) == pytest.approx(0.5)

    def test_inverse_square(self):
        assert illuminance_scale(0.2, 0.1, 2.0) == pytest.approx(0.25)

    def test_strictly_decreasing_in_distance(self):
        scales = [illuminance_scale(d, 0.05) for d in (0.05, 0.075, 0.1, 0.2)]
        assert all(b < a for a, b in zip(scales, scales[1:]))

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValidationError):
            illuminance_scale(0.0, 0.05)
        with pytest.raises(ValidationError):
            illuminance_scale(0.05, -1.0)

    @pytest.mark.parametrize("d, d_ref, p", ((float("inf"), 0.05, 1.0), (0.1, float("inf"), 1.0),
                                             (0.1, 0.05, float("nan"))))
    def test_rejects_non_finite_geometry(self, d, d_ref, p):
        with pytest.raises(ValidationError, match="finite"):
            illuminance_scale(d, d_ref, p)

    def test_overflowing_scale_is_bad_input(self):
        with pytest.raises(ValidationError, match="overflows"):
            illuminance_scale(0.001, 0.05, 1000.0)


class TestPresets:
    def test_both_presets_listed(self):
        names = available_presets()
        assert "table1_single" in names
        assert "table1_bilayer" in names

    def test_bilayer_preset_values(self):
        cfg = load_config(preset_path("table1_bilayer"))
        assert cfg.assembly.lig is not None
        assert cfg.assembly.silicone.absorptance == 0.17
        assert cfg.assembly.lig.absorptance == 0.83
        assert cfg.assembly.silicone.conv_faces == 1
        assert cfg.assembly.lig.conv_faces == 1
        assert cfg.source.source_temperature is None
        assert cfg.source.power == 0.075
        assert cfg.env.ambient_temperature == 298.0
        assert cfg.sim.dt == 0.01
        assert cfg.schedule.intervals == ((0.0, math.inf, 1.0),)

    def test_single_preset_values(self):
        cfg = load_config(preset_path("table1_single"))
        assert cfg.assembly.silicone.conv_faces == 2
        assert cfg.assembly.lig is None

    def test_unknown_preset_reports_choices(self):
        with pytest.raises(ConfigError, match="table1_bilayer"):
            preset_path("missing_preset")

    def test_env_var_overrides_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PHOTOTHERM_PRESETS", str(tmp_path))
        assert available_presets() == []
        with pytest.raises(ConfigError):
            preset_path("table1_single")


def minimal_single_config(old=None, new=None):
    text = """
[assembly]
kind = single_layer

[silicone]
specific_heat = 1300.0
density = 1050.0
thickness = 1.0e-3
area = 1.0e-4
emissivity = 0.95
absorptance = 0.17
conductivity = 0.2
conv_coeff = 6.0

[source]
mode = constant_flux
power = 0.075

[environment]
ambient_temperature = 298.0

[schedule]
intervals = 0:inf:1

[sim]
duration = 10.0
"""
    if old is not None:
        assert old in text
        text = text.replace(old, new)
    return text


class TestConfigParsing:
    def test_minimal_config_defaults(self):
        cfg = parse_config(minimal_single_config())
        assert cfg.sim.dt == 0.01
        assert cfg.sim.record_stride == 1
        assert cfg.sim.metric_window == 300.0
        assert cfg.assembly.silicone.conv_faces == 2  # single-layer default
        assert cfg.channel == "auto"
        assert cfg.plateau_window is None

    def test_empty_file_is_a_parse_error(self):
        with pytest.raises(ConfigError):
            parse_config("")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown section \[extras\]"):
            parse_config(minimal_single_config() + "\n[extras]\nfoo = 1\n")

    def test_unknown_key_rejected_with_line(self):
        text = minimal_single_config("conv_coeff = 6.0", "conv_coeff = 6.0\nwobble = 3")
        with pytest.raises(ConfigError, match=r":\d+: unknown key 'wobble'"):
            parse_config(text)

    def test_invalid_emissivity_names_key_and_line(self):
        text = minimal_single_config("emissivity = 0.95", "emissivity = 1.3")
        with pytest.raises(ConfigError, match=r":\d+: \[silicone\] emissivity"):
            parse_config(text)

    def test_non_numeric_value_reports_key(self):
        text = minimal_single_config("power = 0.075", "power = lots")
        with pytest.raises(ConfigError, match="power"):
            parse_config(text)

    @pytest.mark.parametrize("old, new, message", [
        ("power = 0.075", "power = lots", "power: not a number: 'lots'"),
        ("conv_coeff = 6.0", "conv_coeff = 6.0\nconv_faces = 1.5",
         "conv_faces: not an integer: '1.5'"),
        ("duration = 10.0", "duration = 10.0\nrecord_stride = two",
         "record_stride: not an integer: 'two'"),
    ])
    def test_bad_number_names_expected_type(self, old, new, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(minimal_single_config(old, new))

    @pytest.mark.parametrize("old, new, message", [
        ("power = 0.075", "power = abc", "<config>:17: [source] power: not a number: 'abc'"),
        ("ambient_temperature = 298.0", "ambient_temperature = warm",
         "<config>:20: [environment] ambient_temperature: not a number: 'warm'"),
        ("duration = 10.0", "duration = long",
         "<config>:26: [sim] duration: not a number: 'long'"),
        ("conv_coeff = 6.0", "conv_coeff = 6.0\nconv_faces = two",
         "<config>:14: [silicone] conv_faces: not an integer: 'two'"),
        ("power = 0.075", "power = 0.075\nsource_temperature = 600.0",
         "<config>:18: [source] source_temperature is not valid in constant_flux mode"),
        ("kind = single_layer", "kind = trilayer",
         "<config>:3: [assembly] kind must be 'single_layer' or 'bilayer', got 'trilayer'"),
        ("mode = constant_flux", "mode = laser",
         "<config>:16: [source] mode must be 'constant_flux' or 'radiative_body', "
         "got 'laser'"),
        ("duration = 10.0", "duration = 10.0\ndt = -1",
         "<config>:27: [sim] dt must be finite and > 0, got -1.0"),
        ("duration = 10.0", "duration = 1e300\ndt = 1e-10",
         "<config>:26: [sim] duration / dt must be finite, got 1e+300 / 1e-10"),
        ("emissivity = 0.95", "emissivity = 1.3",
         "<config>:10: [silicone] emissivity must lie in [0, 1], got 1.3"),
    ])
    def test_error_names_location_once(self, old, new, message):
        with pytest.raises(ConfigError) as info:
            parse_config(minimal_single_config(old, new))
        assert str(info.value) == message

    @pytest.mark.parametrize("text, message", [
        (minimal_single_config("power = 0.075", "power = 0.075\npower = 0.1"),
         "<config>:18: [source] option 'power' already exists"),
        (minimal_single_config("duration = 10.0", "duration = 10.0\n\n[source]\npower = 0.1"),
         "<config>:28: section 'source' already exists"),
        ("x = 1\n" + minimal_single_config(),
         "<config>:1: line before the first [section] header: 'x = 1'"),
        (minimal_single_config("duration = 10.0", "duration = 10.0\njunk"),
         "<config>:27: expected a [section] header or a key = value line"),
    ])
    def test_parse_error_names_location_once(self, text, message):
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value) == message

    def test_parse_error_names_the_file_once(self, tmp_path):
        path = tmp_path / "f.ini"
        path.write_text(minimal_single_config("power = 0.075", "power = 0.075\npower = 0.1"))
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == f"{path}:18: [source] option 'power' already exists"

    def test_vanishing_coupling_reported_at_silicone(self):
        text = minimal_single_config(
            "kind = single_layer\n", "kind = bilayer\n[lig]\n" + "".join(
                f"{k} = {v}\n" for k, v in LIG.items()))
        for old, new in (("conductivity = 0.2", "conductivity = 1e-300"),
                         ("area = 1.0e-4", "area = 1e-300")):
            assert old in text
            text = text.replace(old, new)
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value) == (
            "<config>:14: [silicone] interlayer coupling conductance must be strictly positive")

    def test_missing_section_reported(self):
        text = minimal_single_config().replace("[environment]\nambient_temperature = 298.0", "")
        with pytest.raises(ConfigError, match=r"missing section \[environment\]"):
            parse_config(text)

    def test_radiative_source_keys(self):
        text = minimal_single_config(
            "mode = constant_flux\npower = 0.075",
            "mode = radiative_body\nsource_temperature = 600.0\nsource_emissivity = 0.9")
        cfg = parse_config(text)
        assert cfg.source.power is None
        assert cfg.source.source_temperature == 600.0

    def test_flux_mode_rejects_radiative_keys(self):
        text = minimal_single_config("power = 0.075",
                                     "power = 0.075\nsource_temperature = 600.0")
        with pytest.raises(ConfigError, match="source_temperature"):
            parse_config(text)

    def test_single_layer_rejects_lig_section(self):
        text = minimal_single_config() + "\n[lig]\n" + "\n".join(
            f"{k} = {v}" for k, v in LIG.items())
        with pytest.raises(ConfigError, match=r"\[lig\]"):
            parse_config(text)

    def test_overlapping_intervals_rejected(self):
        text = minimal_single_config("intervals = 0:inf:1",
                                     "intervals = 0:10:1, 5:20:0.5")
        with pytest.raises(ConfigError, match="overlap"):
            parse_config(text)

    def test_missing_schedule_means_light_off(self):
        text = minimal_single_config("[schedule]\nintervals = 0:inf:1", "")
        cfg = parse_config(text)
        assert cfg.schedule.intervals == ()

    def test_metrics_section(self):
        text = minimal_single_config() + (
            "\n[metrics]\nplateau_window = 20.0\nplateau_threshold = 1.0\n"
            "channel = theta_s\n")
        cfg = parse_config(text)
        assert cfg.plateau_window == 20.0
        assert cfg.plateau_threshold == 1.0
        assert cfg.channel == "theta_s"

    @pytest.mark.parametrize("key, raw, rule", [
        ("plateau_threshold", "-1", "must be > 0, got -1.0"),
        ("plateau_threshold", "0", "must be > 0, got 0.0"),
        ("plateau_threshold", "nan", "must be > 0, got nan"),
        ("plateau_window", "0", "must be finite and > 0, got 0.0"),
        ("plateau_window", "-5", "must be finite and > 0, got -5.0"),
        ("plateau_window", "nan", "must be finite and > 0, got nan"),
        ("plateau_window", "inf", "must be finite and > 0, got inf"),
    ])
    def test_bad_plateau_setting_rejected_with_its_line(self, key, raw, rule):
        # plateau_value would reject it at every sweep point
        text = minimal_single_config() + f"\n[metrics]\n{key} = {raw}\n"
        line = text.splitlines().index(f"{key} = {raw}") + 1
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value) == f"<config>:{line}: [metrics] {key} {rule}"

    def test_lig_channel_on_a_single_layer_rejected_with_its_line(self):
        text = minimal_single_config() + "\n[metrics]\nchannel = theta_L\n"
        line = text.splitlines().index("channel = theta_L") + 1
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value) == (f"<config>:{line}: [metrics] channel theta_L is not "
                                   "valid for a single-layer assembly")

    def test_a_key_is_located_at_its_own_line_whatever_its_case(self):
        text = minimal_single_config("power = 0.075", "Power = lots")
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value) == "<config>:17: [source] power: not a number: 'lots'"

    def test_default_section_is_an_unknown_section(self):
        with pytest.raises(ConfigError) as info:
            parse_config("[DEFAULT]\nkind = bilayer\n" + minimal_single_config())
        assert str(info.value) == "<config>:1: unknown section [DEFAULT]"

    def test_continuation_lines_join_the_value(self):
        text = minimal_single_config("intervals = 0:inf:1",
                                     "intervals = 0:10:1,\n  # off\n\n  20:inf:0.5\n\n")
        assert parse_config(text).schedule.intervals == ((0.0, 10.0, 1.0), (20.0, math.inf, 0.5))

    def test_readme_example_is_the_bilayer_preset(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        preset = load_config(preset_path("table1_bilayer"))
        readme_config = parse_config(example, origin="README.md")
        assert readme_config == RunConfig(**{**vars(preset), "plateau_window": 20.0,
                                             "plateau_threshold": 1.0})

    def test_importing_the_cli_does_not_load_configparser(self):
        src = Path(__file__).parent.parent / "src"
        code = "import sys, phototherm.cli; print('configparser' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": str(src)}).stdout
        assert out == "False\n"


_INDENTS = st.sampled_from(["", " ", "  ", "\t", "    ", "\u00a0"])
_NAMES = st.sampled_from(["a", "b", "A", "Key", "sim", "x y"])
_INI_LINES = st.one_of(
    # headers, well-formed or not
    st.builds("{}[{}]{}".format, _INDENTS, st.sampled_from(["a", "b", "A", " x ", "a] tail",
                                                            "a]", "sim"]),
              st.sampled_from(["", " tail", " ", "]"])),
    st.builds("{}[]".format, _INDENTS),
    # key = value lines, with mixed case and spacing
    st.builds("{}{}{}={}{}{}".format, _INDENTS, _NAMES, st.sampled_from(["", " ", "\t"]),
              st.sampled_from(["", " ", "  "]),
              st.sampled_from(["1", "", "0:inf:1", "x = y", "[c]", "# not a comment"]),
              st.sampled_from(["", " ", "\r"])),
    st.builds("{}= {}".format, _INDENTS, st.sampled_from(["1", ""])),
    # continuation-shaped and blank lines
    st.builds("{}{}".format, _INDENTS, st.sampled_from(["more", "a = 2", "[a]", "2:3:1"])),
    st.sampled_from(["", " ", "\t", "\r"]),
    # comments and junk
    st.builds("{}{}".format, _INDENTS, st.sampled_from(["# note", "; note", "#", ";a = 1"])),
    st.builds("{}{}".format, _INDENTS, st.sampled_from(["junk", "a : 1", "[a"])),
)
# a key line and the indented, blank and comment lines that may follow it
_INI_VALUES = st.builds(
    "{} = {}\n{}".format, _NAMES, st.sampled_from(["1", "", "0:10:1,"]),
    st.lists(st.one_of(st.builds("{}{}".format, _INDENTS.filter(bool),
                                 st.sampled_from(["20:inf:1", "b = 2", "[b]", "# note"])),
                       st.sampled_from(["", " ", "; note"])),
             min_size=1, max_size=4).map("\n".join))


class TestIniReaderMatchesConfigparser:
    """_read_ini against configparser, the oracle in tests/reference_ini.py:
    the same texts accepted, the same sections and values, the same error
    at the same line. [DEFAULT], which configparser holds as every
    section's defaults, is never generated."""

    @staticmethod
    def outcome(read, text):
        try:
            return read(text, "<t>")
        except ConfigError as exc:
            return str(exc)

    @given(st.lists(st.one_of(_INI_LINES, _INI_VALUES), max_size=12),
           st.sampled_from(["", "\n"]), st.booleans())
    @settings(max_examples=600, deadline=None)
    def test_same_result_on_generated_texts(self, body, end, headed):
        lines = (["[a]"] if headed else []) + body
        text = "\n".join(lines) + end
        got, want = self.outcome(_read_ini, text), self.outcome(reference_read_ini, text)
        if isinstance(want, str):
            assert got == want
            return
        sections, located = got
        assert sections == want
        # every section and key is located at the line that names it
        raw = text.split("\n")
        for (section, key), lineno in located.items():
            line = raw[lineno - 1].strip()
            if key is None:
                assert line[0] == "[" and line[1:line.rindex("]")] == section
            else:
                assert line.partition("=")[0].rstrip().lower() == key
                assert key in sections[section]


class TestSeriesIO:
    def test_two_point_file(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("time_s,value\n0,298\n1,298.09\n", encoding="utf-8")
        series = read_series(path)
        assert series.times.tolist() == [0.0, 1.0]
        assert series.values.tolist() == [298.0, 298.09]
        assert series.unit == "K"

    def test_celsius_converted_on_ingest(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("# unit: C\ntime_s,value\n0,25.0\n1,26.0\n", encoding="utf-8")
        series = read_series(path)
        assert series.unit == "K"
        assert series.values[0] == pytest.approx(298.15)

    def test_degrees_kept(self, tmp_path):
        path = tmp_path / "deg.csv"
        path.write_text("# unit: deg\ntime_s,value\n0,0\n1,51.7\n", encoding="utf-8")
        assert read_series(path).unit == "deg"

    def test_duplicate_time_rejected_with_row(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("time_s,value\n0,1\n1,2\n1,3\n", encoding="utf-8")
        with pytest.raises(SeriesFormatError, match=":4:"):
            read_series(path)

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("time_s,value\n0,1\n1,nan\n", encoding="utf-8")
        with pytest.raises(SeriesFormatError, match="NaN"):
            read_series(path)

    def test_short_file_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("time_s,value\n0,1\n", encoding="utf-8")
        with pytest.raises(SeriesFormatError, match="at least 2"):
            read_series(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SeriesFormatError):
            read_series(tmp_path / "nope.csv")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(SeriesFormatError, match="empty"):
            read_series(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "head.csv"
        path.write_text("t,v\n0,1\n1,2\n", encoding="utf-8")
        with pytest.raises(SeriesFormatError, match="header"):
            read_series(path)

    def test_trajectory_column_on_plain_series_rejected(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("time_s,value\n0,1\n1,2\n", encoding="utf-8")
        with pytest.raises(SeriesFormatError, match="theta_L"):
            read_series(path, column="theta_L")

    def test_series_round_trip(self, tmp_path):
        series = MeasurementSeries((0.0, 0.5, 1.25), (10.0, 20.5, 30.25), unit="deg")
        path = tmp_path / "roundtrip.csv"
        write_series(series, path)
        back = read_series(path)
        assert back.unit == "deg"
        assert back.times.tolist() == series.times.tolist()
        assert back.values.tolist() == series.values.tolist()


class TestTrajectoryIO:
    @pytest.fixture
    def bilayer_run(self, bilayer_wall, flux_source, environment):
        return run(bilayer_wall, flux_source, LightSchedule.always_on(),
                   environment, SimConfig(duration=2.0, dt=0.01, record_stride=10))

    @pytest.fixture
    def single_run(self, single_wall, flux_source, environment):
        return run(single_wall, flux_source, LightSchedule.always_on(),
                   environment, SimConfig(duration=2.0, dt=0.01, record_stride=10))

    def test_header_and_row_count(self, tmp_path, single_run):
        path = tmp_path / "single.csv"
        write_trajectory(single_run, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "t_s,theta_s_K,theta_L_K"
        assert len(lines) == 1 + len(single_run.times)
        assert lines[1].endswith(",")  # empty lig column

    def test_bilayer_columns_populated(self, tmp_path, bilayer_run):
        path = tmp_path / "bilayer.csv"
        write_trajectory(bilayer_run, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert all(len(line.split(",")) == 3 and line.split(",")[2]
                   for line in lines[1:])

    def test_lf_line_endings(self, tmp_path, bilayer_run):
        path = tmp_path / "lf.csv"
        write_trajectory(bilayer_run, path)
        raw = path.read_bytes()
        assert b"\r" not in raw

    def test_round_trip_theta_s_to_micro_kelvin(self, tmp_path, bilayer_run):
        path = tmp_path / "rt.csv"
        write_trajectory(bilayer_run, path)
        back = read_series(path, column="theta_s")
        for parsed, original in zip(back.values, bilayer_run.silicone):
            assert abs(parsed - original) <= 5e-7

    def test_auto_column_prefers_liquid_contact(self, tmp_path, bilayer_run, single_run):
        path = tmp_path / "auto.csv"
        write_trajectory(bilayer_run, path)
        assert read_series(path).values[-1] == pytest.approx(
            bilayer_run.lig[-1], abs=5e-7)
        write_trajectory(single_run, path)
        assert read_series(path).values[-1] == pytest.approx(
            single_run.silicone[-1], abs=5e-7)

    def test_theta_l_of_single_layer_rejected(self, tmp_path, single_run):
        path = tmp_path / "single.csv"
        write_trajectory(single_run, path)
        with pytest.raises(SeriesFormatError, match="theta_L"):
            read_series(path, column="theta_L")


CELLS = st.one_of(
    st.floats(-2e9, 2e9),
    st.floats(-1e16, 1e16),  # past the bulk path's 1e9 limit
    st.floats(-1.0, 1.0),
    # dyadic values: x * 10**6 can be an exact half
    st.builds(lambda k, e: k / 2.0 ** e, st.integers(-2 ** 40, 2 ** 40), st.integers(0, 40)),
    # within rounding of a half in the sixth decimal
    st.builds(lambda k: (k + 0.5) / 1e6, st.integers(-10 ** 15, 10 ** 15)),
    st.sampled_from([0.0, -0.0, 999999999.9999995, -5e-7, 9.9999995]),
)


def percent_rows(columns, trailing):
    row_format = ",".join(["%.6f"] * len(columns)) + trailing + "\n"
    return "".join(row_format % row for row in zip(*columns))


class TestCsvBody:
    @given(data=st.data(), n_cols=st.integers(1, 3), rows=st.integers(1, 20),
           trailing=st.sampled_from(["", ","]))
    @settings(max_examples=300, deadline=None)
    def test_matches_percent_format(self, data, n_cols, rows, trailing):
        # one kind of cell per example, so the bulk path is not always skipped
        # for the sake of one huge or non-finite cell
        cells = data.draw(st.sampled_from([CELLS, st.floats()]))
        columns = [tuple(data.draw(st.lists(cells, min_size=rows, max_size=rows)))
                   for _ in range(n_cols)]
        assert _csv_body(*columns, trailing=trailing) == percent_rows(columns, trailing).encode()


class _CountingPieces(np.ndarray):
    """A piece table that counts its reads: the bulk formatter reads
    _DIGITS_END once per block, the %-format fallback never."""

    reads = 0

    def __getitem__(self, key):
        type(self).reads += 1
        return np.asarray(self)[key]


class TestBlockWriter:
    """The writers format _BLOCK_ROWS rows at a time; the text is the
    per-cell %-format whatever the block boundaries."""

    @pytest.fixture(scope="class")
    def columns(self):
        config = load_config(preset_path("table1_bilayer"))
        trajectory = run(config.assembly, config.source, LightSchedule(((0.0, 200.0, 1.0),)),
                         config.env, SimConfig(duration=420.0, dt=0.1))
        return trajectory.times, trajectory.silicone, trajectory.lig

    @pytest.mark.parametrize("rows", (1, 2047, 2048, 2049, 4097))
    @pytest.mark.parametrize("kind", ("single", "bilayer", "series"))
    def test_matches_percent_format_at_block_boundaries(self, tmp_path, columns, rows, kind):
        times, silicone, lig = (c[:max(rows, 2 * (kind == "series"))] for c in columns)
        stream = io.StringIO()
        path = tmp_path / "out.csv"
        if kind == "series":  # a series holds at least 2 points
            series = MeasurementSeries(times, silicone)
            expected = ("# unit: K\ntime_s,value\n"
                        + percent_rows((series.times, series.values), ""))
            write_series(series, path)
            write_series(series, stream)
        else:
            trajectory = Trajectory(times, silicone, lig if kind == "bilayer" else None)
            expected = "t_s,theta_s_K,theta_L_K\n" + percent_rows(
                (times, silicone) + ((lig,) if kind == "bilayer" else ()),
                "" if kind == "bilayer" else ",")
            write_trajectory(trajectory, path)
            write_trajectory(trajectory, stream)
        assert path.read_bytes() == expected.encode()
        assert stream.getvalue() == expected

    @given(data=st.data(), n_cols=st.integers(1, 3), rows=st.integers(1, 13),
           trailing=st.sampled_from(["", ","]),
           odd=st.sampled_from([math.inf, -math.inf, math.nan, 1e16, -0.0, 0.0078125,
                                -0.0078125, None]))  # 0.0078125 * 1e6 is a half
    @settings(max_examples=300, deadline=None)
    def test_three_row_blocks(self, data, n_cols, rows, trailing, odd):
        import phototherm.fileio

        columns = [data.draw(st.lists(CELLS, min_size=rows, max_size=rows))
                   for _ in range(n_cols)]
        if data.draw(st.booleans()):  # one block of cells the bulk path takes
            columns = [[math.fmod(x, 1e8) if math.isfinite(x) else 0.0 for x in column]
                       for column in columns]
        if odd is not None:
            columns[data.draw(st.integers(0, n_cols - 1))][
                data.draw(st.integers(0, rows - 1))] = odd
        calls = []
        body = phototherm.fileio._csv_body

        def spy(*block, trailing):
            reads = _CountingPieces.reads
            text = body(*block, trailing=trailing)
            calls.append((block, text, _CountingPieces.reads > reads))
            return text

        stream = io.StringIO()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(phototherm.fileio, "_BLOCK_ROWS", 3)
            patch.setattr(phototherm.fileio, "_DIGITS_END",
                          phototherm.fileio._DIGITS_END.view(_CountingPieces))
            patch.setattr(phototherm.fileio, "_csv_body", spy)
            _write_csv(stream, "head\n", columns, trailing)
        assert stream.getvalue() == "head\n" + percent_rows(columns, trailing)
        assert [len(block[0]) for block, _, _ in calls] == [
            min(3, rows - start) for start in range(0, rows, 3)]
        for block, text, bulk in calls:
            assert text == percent_rows(block, trailing).encode()
            # only a block with a cell past 1e9, inf or nan takes the fallback
            cells = np.array(block)
            assert bulk == bool((np.abs(cells) < 1e9).all())

    def test_traced_peak_of_the_forward_write(self, tmp_path):
        # formatted whole, the 40 001-row bilayer file had a traced peak of
        # 9 241 602 bytes (Python 3.11.7, numpy 2.4.6); in blocks it needs
        # well under 1 MiB
        config = load_config(preset_path("table1_bilayer"))
        trajectory = run(config.assembly, config.source, LightSchedule(((0.0, 275.5, 1.0),)),
                         config.env, SimConfig(duration=400.0, dt=0.01))
        path = tmp_path / "run.csv"
        write_trajectory(trajectory, path)
        tracemalloc.start()
        try:
            write_trajectory(trajectory, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(trajectory.times) == 40001
        assert peak <= 2 ** 20


# cells that look like the writers' output, or nearly do
ODD_CELL = st.one_of(
    st.floats(-2e9, 2e9).map("%.6f".__mod__),
    st.text(alphabet="0123456789.-e+, _", max_size=12),
    st.sampled_from(["", "-0.000000", "-.500000", "1.5000000", "01.000000", "--1.000000",
                     "1.-00000", "0x1.000000", "1e3", " 1.000000", "1_0.000000"]),
)


# spellings of a float that float() and np.loadtxt both read
NUMBER_FORM = st.sampled_from([
    "%.6f".__mod__, repr, "%.17g".__mod__, "%.3e".__mod__, "%+.6f".__mod__,
    lambda x: "%d" % x, lambda x: " %r\t" % x,
])


class TestBulkRows:
    @given(data=st.data(), trajectory=st.booleans(), single=st.booleans(),
           rows=st.integers(0, 6),
           unit_line=st.sampled_from(["", "# unit: K\n", "# unit: C\n", "# unit: F\n"]),
           column=st.sampled_from(["auto", "value", "theta_s", "theta_L"]),
           ending=st.sampled_from(["\n", ""]))
    @settings(max_examples=400, deadline=None)
    def test_same_result_as_row_parser(self, data, trajectory, single, rows, unit_line,
                                       column, ending):
        n_cols = 3 if trajectory else 2
        lines = [unit_line + ("t_s,theta_s_K,theta_L_K" if trajectory else "time_s,value")]
        t = 0.0
        for _ in range(rows):
            t += data.draw(st.floats(1e-6, 100.0))
            cells = [data.draw(NUMBER_FORM)(x) for x in
                     [t] + [data.draw(st.floats(-1e3, 1e3)) for _ in range(n_cols - 1)]]
            if trajectory and single:  # a single-layer trajectory's empty theta_L
                cells[2] = ""
            if data.draw(st.booleans()):  # spoil one cell, or the cell count
                k = data.draw(st.integers(0, n_cols))
                cells[k:k + 1] = [data.draw(ODD_CELL)] * data.draw(st.integers(0, 2))
            lines.append(",".join(cells))
        text = "\n".join(lines) + ending
        bulk = _bulk_rows(text.encode(), column)
        if bulk is None:
            return
        times, values, unit = _parse_rows(Path("case.csv"), text, column)
        assert repr((bulk[0].tolist(), bulk[1].tolist(), bulk[2])) == repr(
            (times, values, unit))

    @pytest.mark.parametrize("kind", ("single", "bilayer"))
    def test_writer_output_takes_fast_path(self, kind, single_wall, bilayer_wall,
                                           flux_source, environment):
        wall = single_wall if kind == "single" else bilayer_wall
        trajectory = run(wall, flux_source, LightSchedule.always_on(), environment,
                         SimConfig(duration=2.0, dt=0.01, record_stride=10))
        stream = io.StringIO()
        write_trajectory(trajectory, stream)
        text = stream.getvalue()
        for column in ("auto", "theta_s"):
            bulk = _bulk_rows(text.encode(), column)
            assert bulk is not None
            times, values, unit = _parse_rows(Path("case.csv"), text, column)
            assert repr((bulk[0].tolist(), bulk[1].tolist(), bulk[2])) == repr(
                (times, values, unit))

    @pytest.mark.parametrize("text", ("time_s,value\n", "# unit: C\ntime_s,value\n",
                                      "t_s,theta_s_K,theta_L_K\n"))
    def test_header_only_file_rejected_without_warning(self, tmp_path, text):
        path = tmp_path / "header.csv"
        path.write_text(text, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SeriesFormatError, match="got 0"):
                read_series(path)


PLAIN = re.compile(r"-?[0-9]+(\.[0-9]+)?")


@st.composite
def plain_decimal(draw, decimals=None):
    """-?d+(.d+)? with leading zeros, 1-17 integer digits, 0-22 decimals."""
    sign = draw(st.sampled_from(["", "-"]))
    whole = draw(st.one_of(st.text("0123456789", min_size=1, max_size=4),
                           st.text("0123456789", min_size=1, max_size=17),
                           st.integers(0, 10 ** 17).map(str)))
    if decimals is None:
        decimals = draw(st.one_of(st.integers(0, 6), st.integers(0, 22)))
    return sign + whole + ("." * (decimals > 0)
                           + draw(st.text("0123456789", min_size=decimals, max_size=decimals)))


PLAIN_CELL = st.sampled_from([
    "0", "-0", "-0.000000", "00.5", "-007.250", "298.000934", "9007199254740991",
    "9007199254740992", "9007199254740993", "900719925474099.3", "123456789012345",
    "1234567890123456", "12345678901234567", "-999999999.999999", "0.0000000000000000000001",
    "0.00000000000000000000001", "1.0000000000000000000000"])
# spellings float() may read that the fast lane leaves to the row parser
FALLBACK_CELL = st.sampled_from([
    "1.", ".5", "+1", "1e3", "1_0", "1.2.3", "--1", "1-2", "-", "", "inf", "nan", "1E5",
    "٢", "0x10", "1,5"])


def parse_bits(cells) -> bytes:
    return np.array([float(c) for c in cells]).tobytes()


def fits_the_fast_lane(cells) -> bool:
    """Plain cells of at most 24 bytes whose digits, read as one integer,
    stay below 2**53."""
    return all(PLAIN.fullmatch(c) and len(c) <= 24
               and int(c.lstrip("-").replace(".", "")) < 2 ** 53 for c in cells)


class TestDecimalCells:
    """The fast lane's values equal float(cell) bit for bit; any other
    cell sends the whole column to the row parser."""

    @given(data=st.data(), rows=st.integers(1, 8), same_decimals=st.booleans())
    @settings(max_examples=600, deadline=None)
    def test_value_is_float_of_the_cell(self, data, rows, same_decimals):
        cell = plain_decimal(data.draw(st.integers(0, 22))) if same_decimals else plain_decimal()
        cells = data.draw(st.lists(st.one_of(cell, PLAIN_CELL), min_size=rows, max_size=rows))
        if data.draw(st.booleans()):
            cells[data.draw(st.integers(0, rows - 1))] = data.draw(FALLBACK_CELL)
        raw = np.frombuffer(("\n" + "".join(c + "\n" for c in cells)).encode(), dtype=np.uint8)
        ends = np.cumsum([len(c.encode()) + 1 for c in cells])
        starts = ends - [len(c.encode()) for c in cells]
        got = read_decimals(raw, starts, ends)
        # read_series passes int32 offsets for files below 2 GiB
        got32 = read_decimals(raw, starts.astype(np.int32), ends.astype(np.int32))
        assert repr(got32) == repr(got) and (got is None or got32.tobytes() == got.tobytes())
        if not all(PLAIN.fullmatch(c) for c in cells):
            assert got is None
        elif fits_the_fast_lane(cells):
            assert got is not None
        if got is not None:
            assert got.tobytes() == parse_bits(cells)

    @pytest.mark.parametrize("cells", [
        ("1.000000", ".500000"), ("1.000000", "-.500000"), ("2.50", "1."), ("1.5", "1.2.3"),
        ("10", "1.5.")])
    def test_a_point_needs_a_digit_on_each_side(self, cells):
        raw = np.frombuffer(("\n" + "".join(c + "\n" for c in cells)).encode(), dtype=np.uint8)
        ends = np.cumsum([len(c) + 1 for c in cells])
        assert read_decimals(raw, ends - [len(c) for c in cells], ends) is None

    def test_negative_zero_keeps_its_sign(self):
        text = "time_s,value\n0.000000,-0.000000\n1.000000,-0\n"
        times, values, _ = _bulk_rows(text.encode(), "auto")
        assert [math.copysign(1.0, v) for v in values] == [-1.0, -1.0]

    @given(data=st.data(), rows=st.integers(2, 12), trajectory=st.booleans(),
           same_decimals=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_plain_files_take_the_fast_lane(self, data, rows, trajectory, same_decimals):
        cell = plain_decimal(data.draw(st.integers(0, 8)) if same_decimals else None)
        times = ["%.*f" % (data.draw(st.integers(0, 6)) if not same_decimals else 3, k)
                 for k in range(rows)]
        lines = ["t_s,theta_s_K,theta_L_K" if trajectory else "time_s,value"]
        for t in times:
            values = data.draw(st.lists(cell, min_size=2 if trajectory else 1,
                                        max_size=2 if trajectory else 1))
            lines.append(",".join([t] + values))
        text = "\n".join(lines) + "\n"
        column = data.draw(st.sampled_from(["auto", "theta_s", "theta_L"] if trajectory
                                           else ["auto", "value"]))
        index = 2 if trajectory and column != "theta_s" else 1  # every theta_L is filled
        read = [cell for line in lines[1:] for cell in line.split(",")[::index]]
        bulk = _bulk_rows(text.encode(), column)
        if fits_the_fast_lane(read):
            assert bulk is not None
        if bulk is not None:
            assert repr((bulk[0].tolist(), bulk[1].tolist(), bulk[2])) == repr(
                _parse_rows(Path("case.csv"), text, column))


@pytest.fixture(scope="module")
def long_trajectories(tmp_path_factory):
    """The forward benchmark's shape: 40 001 rows of 400 s at dt = 0.01 s,
    the light on for the first 275.5 s; one file per wall."""
    directory = tmp_path_factory.mktemp("long")
    paths = {}
    for preset in ("table1_bilayer", "table1_single"):
        config = load_config(preset_path(preset))
        trajectory = run(config.assembly, config.source, LightSchedule(((0.0, 275.5, 1.0),)),
                         config.env, SimConfig(duration=400.0, dt=0.01))
        paths[preset] = directory / f"{preset}.csv"
        write_trajectory(trajectory, paths[preset])
    return paths


class TestFastLaneGuards:
    @pytest.mark.parametrize("preset", ("table1_bilayer", "table1_single"))
    @pytest.mark.parametrize("column", ("auto", "theta_s"))
    def test_writer_output_never_reaches_the_row_parser(self, monkeypatch, long_trajectories,
                                                        preset, column):
        import phototherm.fileio

        path = long_trajectories[preset]
        times, values, _ = _parse_rows(path, path.read_text(encoding="utf-8"), column)

        def refuse(*args):
            raise AssertionError("the row parser read a writer's file")

        monkeypatch.setattr(phototherm.fileio, "_parse_rows", refuse)
        series = read_series(path, column=column)
        assert len(series.times) == 40001
        assert series.times.tobytes() == np.array(times).tobytes()
        assert series.values.tobytes() == np.array(values).tobytes()

    def test_traced_peak_of_the_forward_read(self, long_trajectories):
        # np.loadtxt read this 1.31 MB file with a traced peak of 6 546 148
        # bytes (Python 3.11.7, numpy 2.4.6), and the parser with int64 cell
        # offsets with 5 392 260 B; its int32 offsets need less
        path = long_trajectories["table1_bilayer"]
        assert traced_peak(lambda: read_series(path)) <= 4_600_000


class TestNonUtf8Series:
    @pytest.mark.parametrize("data, position", [
        (b"# unit: \xff\ntime_s,value\n0,1\n1,2\n", "byte 0xff in position 8: invalid start byte"),
        (b"time_s,va\xfflue\n0,1\n1,2\n", "byte 0xff in position 9: invalid start byte"),
        (b"time_s,value\n0,1\n1,\xff2\n", "byte 0xff in position 19: invalid start byte"),
        # in a cell the reader never parses, and in the middle of a sequence
        (b"t_s,theta_s_K,theta_L_K\n0.000000,29\xc3.000000,298.000000\n"
         b"1.000000,298.000000,298.500000\n",
         "byte 0xc3 in position 35: invalid continuation byte"),
    ], ids=["unit_line", "header", "data_row", "unread_cell"])
    def test_bad_byte_is_a_series_format_error(self, tmp_path, capsys, data, position):
        from phototherm.cli import cli_main

        path = tmp_path / "series.csv"
        path.write_bytes(data)
        message = f"{path}: series must be UTF-8: 'utf-8' codec can't decode {position}"
        with pytest.raises(SeriesFormatError) as info:
            read_series(path)
        assert str(info.value) == message
        assert cli_main(["metrics", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


# (id, file text, column, expected): a (times, values, unit) triple, or the
# SeriesFormatError message with {path} for the file path. The expectations
# were recorded from the row-by-row parser alone, before the bulk path.
READ_CASES = [
    ('underscore', 'time_s,value\n0,1_0\n1,2\n', 'auto',
     ((0.0, 1.0), (10.0, 2.0), 'K')),
    ('plus_inf_value', 'time_s,value\n0,1\n1,+inf\n', 'auto',
     '{path}: series values must be finite (no NaN)'),
    ('infinity_time_last', 'time_s,value\n0,1\ninfinity,2\n', 'auto',
     '{path}: series times must be finite'),
    ('infinity_time_mid', 'time_s,value\n0,1\ninfinity,2\n3,4\n', 'auto',
     '{path}:4: time stamps must be strictly increasing'),
    ('hex', 'time_s,value\n0,1\n0x1p3,2\n', 'auto',
     '{path}:3: non-numeric row'),
    ('d_exponent', 'time_s,value\n0,1\n1,1d5\n', 'auto',
     '{path}:3: non-numeric row'),
    ('inner_space', 'time_s,value\n0,1\n1,1 2\n', 'auto',
     '{path}:3: non-numeric row'),
    ('trailing_comma_series', 'time_s,value\n0,1\n1,2,\n', 'auto',
     '{path}:3: expected 2 columns, got 3'),
    ('trailing_comma_trajectory', 't_s,theta_s_K,theta_L_K\n0,1,2\n1,2,3,\n', 'auto',
     '{path}:3: expected 3 columns, got 4'),
    ('crlf_bilayer', 't_s,theta_s_K,theta_L_K\r\n0,300,301\r\n1,302,303\r\n', 'auto',
     ((0.0, 1.0), (301.0, 303.0), 'K')),
    ('crlf_single', 't_s,theta_s_K,theta_L_K\r\n0,300,\r\n1,302,\r\n', 'auto',
     ((0.0, 1.0), (300.0, 302.0), 'K')),
    ('crlf_celsius', '# unit: C\r\ntime_s,value\r\n0,25\r\n1,26\r\n', 'auto',
     ((0.0, 1.0), (298.15, 299.15), 'K')),
    ('blank_and_comment_mid', 'time_s,value\n0,1\n\n# note\n1,2\n   \n2,3\n', 'auto',
     ((0.0, 1.0, 2.0), (1.0, 2.0, 3.0), 'K')),
    ('unit_comment_mid', 'time_s,value\n0,1\n# unit: C\n1,2\n', 'auto',
     ((0.0, 1.0), (274.15, 275.15), 'K')),
    ('blank_then_duplicate_time', 'time_s,value\n0,1\n\n0,2\n', 'auto',
     '{path}:4: time stamps must be strictly increasing'),
    ('empty_theta_l_cell', 't_s,theta_s_K,theta_L_K\n0,300,301\n1,302,\n2,303,304\n', 'auto',
     '{path}:3: non-numeric row'),
    ('empty_theta_l_cell_theta_s', 't_s,theta_s_K,theta_L_K\n0,300,301\n1,302,\n2,303,304\n', 'theta_s',
     ((0.0, 1.0, 2.0), (300.0, 302.0, 303.0), 'K')),
    ('single_theta_l', 't_s,theta_s_K,theta_L_K\n0,300,\n1,302,\n', 'theta_L',
     '{path}: trajectory has no theta_L data'),
    ('single_auto', 't_s,theta_s_K,theta_L_K\n0,300,\n1,302,\n', 'auto',
     ((0.0, 1.0), (300.0, 302.0), 'K')),
    ('bilayer_theta_l', 't_s,theta_s_K,theta_L_K\n0,300,301\n1,302,303.5\n', 'theta_L',
     ((0.0, 1.0), (301.0, 303.5), 'K')),
    ('padded_cells', 'time_s,value\n 0 , 1 \n 1 ,\t2\n', 'auto',
     ((0.0, 1.0), (1.0, 2.0), 'K')),
    ('no_final_newline', 'time_s,value\n0,1\n1,2', 'auto',
     ((0.0, 1.0), (1.0, 2.0), 'K')),
    ('nan_value', 'time_s,value\n0,1\n1,nan\n', 'auto',
     '{path}:3: NaN is not allowed'),
    ('decreasing_time', 'time_s,value\n0,1\n2,2\n1,3\n', 'auto',
     '{path}:4: time stamps must be strictly increasing'),
    ('header_only', 'time_s,value\n', 'auto',
     '{path}: need at least 2 data rows, got 0'),
    ('one_row', 'time_s,value\n0,1\n', 'auto',
     '{path}: need at least 2 data rows, got 1'),
    ('trajectory_unit_comment_ignored', '# unit: C\nt_s,theta_s_K,theta_L_K\n0,300,301\n1,302,303\n', 'auto',
     ((0.0, 1.0), (301.0, 303.0), 'K')),
    ('deg_unit', '# unit: deg\ntime_s,value\n0,10\n1,20\n', 'auto',
     ((0.0, 1.0), (10.0, 20.0), 'deg')),
    ('bad_unit', '# unit: F\ntime_s,value\n0,10\n1,20\n', 'auto',
     "{path}: unit must be K, C or deg, got 'F'"),
    ('unicode_digit', 'time_s,value\n0,1\n1,٢\n', 'auto',
     ((0.0, 1.0), (1.0, 2.0), 'K')),
    ('series_value_column_theta_l', 'time_s,value\n0,1\n1,2\n', 'theta_L',
     "{path}: plain series files have no 'theta_L' column"),
    ('short_row_trajectory', 't_s,theta_s_K,theta_L_K\n0,300,301\n1,302\n', 'theta_s',
     '{path}:3: expected 3 columns, got 2'),
    ('comma_moved_between_rows_series', 'time_s,value\n0,1,2\n3\n', 'auto',
     '{path}:2: expected 2 columns, got 3'),
    ('comma_moved_between_rows_trajectory', 't_s,theta_s_K,theta_L_K\n0,300,301,302\n1,303\n', 'auto',
     '{path}:2: expected 3 columns, got 4'),
    ('comma_moved_fixed_format', 'time_s,value\n0.000000,1.000000,2.000000\n3.000000\n', 'auto',
     '{path}:2: expected 2 columns, got 3'),
    ('stray_minus_fixed_format', 'time_s,value\n0.000000,1-2.000000\n1.000000,2.000000\n', 'auto',
     '{path}:2: non-numeric row'),
    ('negative_fixed_format', 'time_s,value\n0.000000,-1.500000\n1.000000,-0.000000\n', 'auto',
     ((0.0, 1.0), (-1.5, -0.0), 'K')),
    ('eighteen_digits_fixed_format', 'time_s,value\n0.000000,940964324912.066172\n1.000000,2.000000\n', 'auto',
     ((0.0, 1.0), (940964324912.0662, 2.0), 'K')),
]


class TestReadSeriesCases:
    @pytest.mark.parametrize("name, text, column, expected", READ_CASES,
                             ids=[case[0] for case in READ_CASES])
    def test_same_outcome_as_row_parser(self, tmp_path, name, text, column, expected):
        path = tmp_path / "case.csv"
        path.write_bytes(text.encode("utf-8"))
        if isinstance(expected, str):
            with pytest.raises(SeriesFormatError) as info:
                read_series(path, column=column)
            assert str(info.value) == expected.format(path=path)
        else:
            series = read_series(path, column=column)
            times, values, unit = expected
            assert repr((series.times.tolist(), series.values.tolist(), series.unit)) == repr(
                (list(times), list(values), unit))


def _never_reached(*args):
    raise AssertionError("a sweep point ran before the sweep's inputs were checked")


class TestSweepChecks:
    """run_sweep checks every input before its first point and names the
    first fault in a fixed order: the point list; the distances, d_ref and
    exponent of a distance sweep, or the name of any other parameter, and
    then that it sets no d_ref or exponent; the outputs; the scenario."""

    @pytest.fixture(autouse=True)
    def no_point_runs(self, monkeypatch):
        for name in ("run", "steady_state", "illuminance_scale", "apply_named_parameter"):
            monkeypatch.setattr(fileio_module, name, _never_reached)

    @pytest.mark.parametrize("param, points, options, message", [
        ("distance", (), {"outputs": ("vibes",)}, "need at least one sweep point"),
        ("voltage", [], {"d_ref": 0.05}, "need at least one sweep point"),
        ("distance", (0.05, 0.0), {"outputs": ()},
         "distances must be finite and strictly positive"),
        ("distance", (0.05, math.inf), {"d_ref": 0.05},
         "distances must be finite and strictly positive"),
        ("distance", (0.05, 0.1), {"exponent": math.nan},
         "distance sweeps need a finite positive d_ref"),
        ("distance", (0.05,), {"d_ref": math.inf}, "distance sweeps need a finite positive d_ref"),
        ("distance", (0.05,), {"d_ref": 0.05, "exponent": math.nan, "outputs": ("vibes",)},
         "illuminance exponent must be finite, got nan"),
        ("voltage", (1.0, 2.0), {"d_ref": 0.05, "outputs": ()},
         "unknown sweep parameter 'voltage'; choose from "
         "['Q_h', 'alpha_L', 'alpha_s', 'h_Le', 'h_se', 'scale', 'distance']"),
        ("scale", (1.0, 0.5), {"d_ref": 0.05, "outputs": ("vibes",)},
         "d_ref and exponent apply only to distance sweeps"),
        ("scale", (1.0,), {"exponent": 7.0}, "d_ref and exponent apply only to distance sweeps"),
        ("alpha_L", (0.5,), {"exponent": math.nan, "outputs": ()},
         "d_ref and exponent apply only to distance sweeps"),
        ("scale", (1.0,), {"outputs": ("t63", "vibes", "t63")},
         "unknown sweep outputs ['vibes']; choose from ('t63', 'peak', 'steady', 'plateau')"),
        ("alpha_L", (0.5,), {"outputs": ()}, "need at least one requested output"),
        # a repeated output would repeat its column in the sweep CSV
        ("alpha_L", (0.5,), {"outputs": ["t63", "t63", "steady"]},
         "repeated sweep outputs ['t63']; name each once"),
    ], ids=["empty_distances", "empty_values", "zero_distance", "inf_distance", "no_d_ref",
            "inf_d_ref", "nan_exponent", "unknown_param", "d_ref_on_scale",
            "exponent_on_scale", "nan_exponent_on_alpha_L", "unknown_output", "no_output",
            "repeated_output"])
    def test_sweep_inputs(self, param, points, options, message):
        # alpha_L does not apply to the single-layer wall, which is checked last
        config = load_config(preset_path("table1_single"))
        with pytest.raises(ValidationError) as info:
            run_sweep(config, param, points, **options)
        assert str(info.value) == message

    def test_scenario_checks_keep_their_order(self):
        # a single-layer wall read through theta_L, with a window past the
        # run and no plateau settings: each fault is named once the earlier
        # ones are mended
        cfg = load_config(preset_path("table1_single"))
        config = dataclasses.replace(cfg, channel="theta_L",
                                     sim=dataclasses.replace(cfg.sim, metric_window=1e9))
        faults = [
            ({}, ConfigError, "plateau output needs plateau_threshold and plateau_window "
                              "in the [metrics] config section"),
            ({"plateau_threshold": 0.5, "plateau_window": 20.0}, ConfigError,
             "[sim] metric_window 1000000000.0 s exceeds the last recorded time 300 s "
             "of the run"),
            ({"sim": cfg.sim}, ValidationError, "alpha_L needs a bilayer assembly"),
        ]
        for mend, error, message in faults:
            config = dataclasses.replace(config, **mend)
            with pytest.raises(error) as info:
                run_sweep(config, "alpha_L", (0.5,), ("t63", "plateau"))
            assert str(info.value) == message
        with pytest.raises(KindMismatchError, match="^single-layer trajectory has no lig "
                                                    "channel$"):
            run_sweep(config, "alpha_s", (0.5,), ("t63", "plateau"))


class TestRunSweep:
    @pytest.fixture
    def config(self):
        cfg = load_config(preset_path("table1_bilayer"))
        sim = SimConfig(duration=120.0, dt=0.01, record_stride=10,
                        metric_window=120.0)
        return RunConfig(assembly=cfg.assembly, source=cfg.source, env=cfg.env,
                         schedule=cfg.schedule, sim=sim,
                         plateau_window=cfg.plateau_window,
                         plateau_threshold=cfg.plateau_threshold,
                         channel=cfg.channel)

    def test_distance_sweep_steady_strictly_decreasing(self, config):
        result = run_sweep(config, "distance", (0.05, 0.075, 0.1), ("t63", "steady"),
                           d_ref=0.05)
        assert result.failures == 0
        steadies = [row["steady_theta_s_K"] for row in result.rows]
        assert all(b < a for a, b in zip(steadies, steadies[1:]))
        # the constant-flux model is linear, so t63 is invariant under the
        # drive scale; all three distances must report the same response time
        t63s = [row["t63_s"] for row in result.rows]
        assert max(t63s) - min(t63s) < 0.1
        scales = [row["scale"] for row in result.rows]
        assert scales == pytest.approx([1.0, 2 / 3, 0.5])

    @given(data=st.data(), preset=st.sampled_from(["table1_single", "table1_bilayer"]),
           radiative=st.booleans(), value=st.floats(0.0, 2.0),
           duration=st.floats(1.0, 600.0))
    @settings(max_examples=60, deadline=None)
    def test_peak_never_passes_steady(self, data, preset, radiative, value, duration):
        # the steady column is the fixed point of the hottest drive the run
        # sees, which a run from ambient never passes; it once ignored the
        # schedule's own interval scales. A radiative steady state is a
        # bisection to adjacent floats, whose end with the smaller residual
        # lies within one ulp of the root.
        bounds = sorted(set(data.draw(st.lists(st.floats(0.0, 800.0), max_size=6))))
        if data.draw(st.booleans()):
            bounds.append(math.inf)
        intervals = [(start, end, data.draw(st.floats(0.0, 3.0)))
                     for start, end in zip(bounds[::2], bounds[1::2])]
        cfg = load_config(preset_path(preset))
        source = HeatSource.radiative(373.0, 0.9) if radiative else cfg.source
        config = RunConfig(assembly=cfg.assembly, source=source, env=cfg.env,
                           schedule=LightSchedule(tuple(intervals)),
                           sim=SimConfig(duration=duration, dt=0.05, record_stride=7))
        row, = run_sweep(config, "scale", (value,), ("peak", "steady")).rows
        assert row["status"] == "ok"
        steady = row["steady_theta_L_K" if preset == "table1_bilayer" else "steady_theta_s_K"]
        assert row["peak_K"] <= steady + 4 * math.ulp(steady)

    def test_steady_of_a_schedule_never_on_is_ambient(self, config):
        config = dataclasses.replace(config, schedule=LightSchedule(((500.0, 600.0, 2.0),)))
        row, = run_sweep(config, "scale", (1.0,), ("steady",)).rows
        assert (row["steady_theta_s_K"], row["steady_theta_L_K"]) == (298.0, 298.0)

    def test_rows_keep_input_order(self, config):
        result = run_sweep(config, "scale", (1.0, 0.25, 0.75), ("steady",))
        assert [row["value"] for row in result.rows] == [1.0, 0.25, 0.75]
        assert [row["index"] for row in result.rows] == [0, 1, 2]

    def test_single_point_matches_direct_pipeline(self, config):
        row = run_sweep(config, "scale", (1.0,), ("t63", "peak")).rows[0]
        trajectory = run(config.assembly, config.source, config.schedule,
                         config.env, config.sim)
        series = series_from_trajectory(trajectory, config.channel)
        report = response_time_63(series, window=config.sim.metric_window)
        assert row["t63_s"] == report.t63
        assert row["peak_K"] == report.peak_value

    def test_repeated_point_gives_identical_rows(self, config):
        first, second = run_sweep(config, "scale", (1.0, 1.0), ("t63", "steady")).rows
        assert {k: v for k, v in first.items() if k != "index"} \
            == {k: v for k, v in second.items() if k != "index"}

    def test_failed_point_marked_and_sweep_continues(self, config):
        # absorptance 2.0 violates the layer invariant at that point only
        result = run_sweep(config, "alpha_L", (0.5, 2.0, 0.7), ("steady",))
        assert result.failures == 1
        assert [row["status"] for row in result.rows] == ["ok", "failed", "ok"]
        assert result.rows[1].get("steady_theta_s_K") is None
        assert (result.rows[1]["error"], result.rows[1]["message"]) == (
            "ValidationError", "absorptance must lie in [0, 1], got 2.0")

    def test_failed_point_keeps_the_stability_error(self, config):
        # a film convection of 1e9 W/m2K puts the lig's time constant far
        # below dt; the CSV still shows only the status
        result = run_sweep(config, "h_Le", (18.0, 1e9), ("peak",))
        assert [row["status"] for row in result.rows] == ["ok", "failed"]
        assert result.rows[1]["error"] == "StabilityError"
        assert re.fullmatch(r"dt=0\.01 s exceeds the stability limit \S+ s set by the lig layer",
                            result.rows[1]["message"])
        assert result.to_csv().splitlines()[2] == "1,h_Le,1e+09,,failed,,"

    def test_plateau_output_needs_config_choices(self, config):
        with pytest.raises(ConfigError, match="plateau"):
            run_sweep(config, "scale", (1.0,), ("plateau",))

    @pytest.mark.parametrize("duration", [120.0, 120.05])
    @pytest.mark.parametrize("outputs, key", [(("t63", "steady"), "[sim] metric_window"),
                                              (("plateau",), "[metrics] plateau_window")])
    def test_window_past_the_last_stamp_fails_before_the_first_point(
            self, config, duration, outputs, key):
        # 120.05 s records up to 120 s only, at stride 10 x 0.01 s; a window
        # past that would fail every point, and with it the steady columns
        for window in (1e9, 120.0 + 1e-6):
            sim = SimConfig(duration=duration, dt=0.01, record_stride=10,
                            metric_window=window)
            cfg = dataclasses.replace(config, sim=sim, plateau_window=window,
                                      plateau_threshold=0.5)
            with pytest.raises(ConfigError) as info:
                run_sweep(cfg, "scale", (1.0, 0.5), outputs)
            assert str(info.value) == (f"{key} {window!r} s exceeds the last recorded "
                                       "time 120 s of the run")

    @pytest.mark.parametrize("duration", [120.0, 120.05])
    def test_window_equal_to_the_span_still_runs(self, config, duration):
        sim = SimConfig(duration=duration, dt=0.01, record_stride=10, metric_window=120.0)
        cfg = dataclasses.replace(config, sim=sim, plateau_window=120.0,
                                  plateau_threshold=1e3)
        result = run_sweep(cfg, "scale", (1.0, 0.5), ("t63", "plateau"))
        assert result.failures == 0
        assert all(row["plateau_reach_s"] == 0.0 for row in result.rows)

    def test_csv_shape(self, config):
        text = run_sweep(config, "scale", (1.0, 0.5), ("steady",)).to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "index,param,value,scale,status,steady_theta_s_K,steady_theta_L_K"
        assert len(lines) == 3


class TestParallelSweep:
    """A sweep with enough steps runs its points in forked worker processes.
    Its result is the serial one: rows, failures and CSV."""

    @pytest.fixture
    def config(self):
        cfg = load_config(preset_path("table1_bilayer"))
        sim = SimConfig(duration=20.0, dt=0.01, record_stride=10, metric_window=20.0)
        return dataclasses.replace(cfg, sim=sim)

    @pytest.fixture
    def pools(self, monkeypatch):
        """The pools run_sweep opens, counted; every sweep is large enough."""
        opened = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                opened.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(fileio_module, "_PARALLEL_STEPS", 0)
        return opened

    @staticmethod
    def serial(monkeypatch, *args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(fileio_module, "_PARALLEL_STEPS", math.inf)
            return run_sweep(*args, **kwargs)

    @pytest.mark.parametrize("radiative, param, points, outputs, d_ref, failed", [
        (True, "distance", (0.05, 0.07, 0.11, 0.15), ("t63", "peak", "steady"), 0.05, []),
        (False, "alpha_L", (0.5, 2.0, 0.7), ("t63", "steady"), None, ["ValidationError"]),
        (False, "h_Le", (18.0, 1e9), ("peak",), None, ["StabilityError"]),
    ], ids=["radiative_distance", "failing_alpha_L", "unstable_h_Le"])
    def test_forked_rows_equal_the_serial_rows(self, config, pools, monkeypatch, radiative,
                                               param, points, outputs, d_ref, failed):
        if radiative:
            config = dataclasses.replace(config, source=HeatSource.radiative(373.0, 0.9))
        args = (config, param, points, outputs, d_ref)
        forked = run_sweep(*args)
        assert len(pools) == 1
        assert multiprocessing.active_children() == []
        serial = self.serial(monkeypatch, *args)
        assert forked.columns == serial.columns
        assert repr(forked.rows) == repr(serial.rows)
        assert forked.failures == serial.failures == len(failed)
        assert forked.to_csv() == serial.to_csv()
        assert [row["error"] for row in forked.rows if row["status"] == "failed"] == failed

    def test_big_sweeps_in_a_row_each_fork(self, config, pools):
        for _ in range(2):
            run_sweep(config, "scale", (1.0, 0.5), ("peak",))
            assert multiprocessing.active_children() == []
        assert len(pools) == 2

    def test_one_cpu_stays_serial(self, config, pools, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        result = run_sweep(config, "scale", (1.0, 0.5), ("peak",))
        assert (pools, result.failures) == ([], 0)

    def test_a_threaded_caller_stays_serial(self, config, pools):
        # forking a process that runs other threads can deadlock in the child
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            result = run_sweep(config, "scale", (1.0, 0.5), ("peak",))
        finally:
            release.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert (pools, result.failures) == ([], 0)

    def test_small_or_runless_sweeps_stay_serial(self, config, pools, monkeypatch):
        run_sweep(config, "scale", (1.0, 0.5), ("steady",))
        run_sweep(config, "scale", (1.0,), ("peak",))
        monkeypatch.setattr(fileio_module, "_PARALLEL_STEPS", 2 * config.sim.n_steps + 1)
        run_sweep(config, "scale", (1.0, 0.5), ("peak",))
        assert pools == []

