"""Contract fuzz over config values and CSV cells.

Each example edits one to three numeric keys of a bundled preset, picks the
source mode and writes a series file, each with values from a pool of
hostile floats, and runs all six commands through `cli_main`. Each command
must either exit 0 with only finite numbers on stdout, or exit 1-4 with one
`error:` line on stderr and no traceback. A sweep's exit 4 prints one line
per failed point and then the count of failed points instead. No numpy
warning may reach stderr; the package's own absorptance-sum warning may.
"""

import configparser
import contextlib
import csv
import io
import math
import re
import warnings

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from phototherm.cli import cli_main
from phototherm.fileio import preset_path

HOSTILE = ("0", "-1", "5e-324", "1e-300", "1e300", "1e308", "-1e308", "nan", "inf", "-inf")
FINITE = tuple(v for v in HOSTILE if math.isfinite(float(v)))

# a shorter run than the presets' 300 s, and a plateau for sweep's plateau output
BASE = {"sim": {"duration": "20", "dt": "0.05", "metric_window": "10"},
        "metrics": {"plateau_window": "5", "plateau_threshold": "0.5"}}
TEXT_KEYS = {("assembly", "kind"), ("source", "mode"), ("schedule", "intervals")}

# 41 samples over 20 s of a wall heated for 12 s, then cooling
TIMES = np.linspace(0.0, 20.0, 41)
RISE = 30.0 * (1.0 - np.exp(-np.minimum(TIMES, 12.0) / 3.0))
CURVE = RISE * np.exp(-np.maximum(TIMES - 12.0, 0.0) / 4.0)
SERIES = {"K": 298.0 + CURVE, "C": 24.85 + CURVE, "deg": CURVE}

PACKAGE_WARNING = re.compile(r"warning: layer absorptances sum to \S+ > 1; "
                             "more power absorbed than supplied is unphysical")
FAILED_COUNT = re.compile(r"\d+ of \d+ sweep points failed")


def base_config(preset, radiative):
    """The preset, with BASE and, if radiative, a 373 K / 0.9 source."""
    config = configparser.ConfigParser(interpolation=None)
    config.read_string(preset_path(preset).read_text(encoding="utf-8"))
    config.read_dict(BASE)
    if radiative:
        del config["source"]["power"]
        config["source"].update(mode="radiative_body", source_temperature="373",
                                source_emissivity="0.9")
    return config


def config_text(config):
    text = io.StringIO()
    config.write(text)
    return text.getvalue()


@st.composite
def scenarios(draw):
    """(config text, series text, metrics ambient or None, sweep param, sweep values)."""
    config = base_config(draw(st.sampled_from(("table1_single", "table1_bilayer"))),
                         draw(st.booleans()))
    keys = [(section, key) for section in config.sections() for key in config[section]
            if (section, key) not in TEXT_KEYS]
    for section, key in draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3,
                                      unique=True)):
        config[section][key] = draw(st.sampled_from(HOSTILE))

    unit = draw(st.sampled_from(sorted(SERIES)))
    cells = [[repr(t), repr(v)] for t, v in zip(TIMES.tolist(), SERIES[unit].tolist())]
    edits = st.tuples(st.integers(0, len(cells) - 1), st.integers(0, 1))
    for row, column in draw(st.lists(edits, min_size=1, max_size=3, unique=True)):
        cells[row][column] = draw(st.sampled_from(HOSTILE))
    series = f"# unit: {unit}\ntime_s,value\n" + "".join(f"{t},{v}\n" for t, v in cells)

    ambient = draw(st.none() | st.sampled_from(HOSTILE))
    param = draw(st.sampled_from(("scale", "alpha_s")))
    values = draw(st.lists(st.sampled_from(FINITE + ("0.5", "1", "2")), min_size=1,
                           max_size=3))
    return config_text(config), series, ambient, param, ",".join(values)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("always")  # every numpy warning shows, not only the first
        code = cli_main([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


def assert_finite(fields, where):
    for field in fields:
        try:
            value = float(field)
        except ValueError:
            continue
        assert math.isfinite(value), f"{where}: {field!r} on stdout"


def check(command, code, out, err):
    assert "Traceback" not in err, f"{command}: {err}"
    lines = [line for line in err.splitlines() if not PACKAGE_WARNING.fullmatch(line)]
    if code == 0:
        assert lines == [], f"{command}: {lines}"
    elif code == 4 and command == "sweep":
        assert lines and FAILED_COUNT.fullmatch(lines[-1]), f"{command}: {lines}"
        assert all(line.startswith("index=") for line in lines[:-1]), f"{command}: {lines}"
    else:
        assert code in (1, 2, 3), f"{command}: exit {code}"
        assert len(lines) == 1 and lines[0].startswith("error: "), f"{command}: {lines}"
        return
    if command == "sweep":
        rows = list(csv.DictReader(io.StringIO(out)))
        for row in rows:
            if row["status"] == "ok":
                assert_finite(row.values(), command)
    else:
        for line in out.splitlines():
            assert_finite(re.split("[=,]", line), command)


PLAIN = config_text(base_config("table1_single", radiative=False))


@given(scenario=scenarios())
# the first cell's swing overflows the interpolated crossing: t63 was inf
@example(scenario=(PLAIN, "time_s,value\n0,-1e308\n10,325\n20,327\n30,327.5\n40,327.8\n"
                          "50,327.9\n60,298\n", None, "scale", "1"))
# 1e308 less an ambient of -1e308 overflows: the cooling fit was nan, with warnings
@example(scenario=(PLAIN, "time_s,value\n0,298\n5,1e308\n10,400\n15,350\n", "-1e308",
                   "scale", "1"))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_commands_end_in_a_finite_report_or_one_error(tmp_path, scenario):
    config_text, series_text, ambient, param, values = scenario
    config, series = tmp_path / "scenario.ini", tmp_path / "series.csv"
    config.write_text(config_text, encoding="utf-8")
    series.write_text(series_text, encoding="utf-8")
    plateau = ("--plateau-threshold", "0.5", "--plateau-window", "5")
    ambient = () if ambient is None else (f"--ambient={ambient}",)
    commands = {
        "simulate": ("--config", config),
        "steady": ("--config", config),
        "metrics": (series, "--window", "10", *plateau, *ambient),
        "calibrate": ("--config", config, "--target", series,
                      "--param", "alpha_s:0.1:0.5:0.2"),
        "sweep": ("--config", config, "--param", param, f"--values={values}",
                  "--outputs", "t63,peak,steady,plateau"),
        "analyze-bending": (series, *plateau),
    }
    for command, argv in commands.items():
        check(command, *run_cli(command, *argv))
