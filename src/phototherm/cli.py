"""Command-line entry point.

Subcommands: simulate, steady, metrics, calibrate, sweep, analyze-bending.
Exit codes: 0 success, 1 usage error, 2 bad input data, 3 numerical
failure, 4 partial sweep failure.
"""

import argparse
import dataclasses
import functools
import sys
import warnings

import numpy as np

from . import calibrate as _calibrate
from . import fileio
from .errors import (
    MetricError,
    NumericalError,
    PhotothermError,
    StabilityError,
    ValidationError,
)
from .metrics import (
    MeasurementSeries,
    cooling_fit,
    cycle_degradation,
    cycle_peaks,
    normalize_curve,
    plateau_value,
    response_time_63,
)
from .model import KELVIN_OFFSET, steady_state
from .simulate import run

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BAD_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_PARTIAL = 4

def _emit(key: str, value) -> None:
    if isinstance(value, float):
        print(f"{key}={value:.6f}")
    else:
        print(f"{key}={value}")


def _emit_temperature(key: str, kelvin: float) -> None:
    _emit(f"{key}_K", kelvin)
    _emit(f"{key}_C", kelvin - KELVIN_OFFSET)


def _load_scenario(args) -> fileio.RunConfig:
    if args.preset:
        return fileio.load_config(fileio.preset_path(args.preset))
    return fileio.load_config(args.config)


def _add_scenario_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", help="bundled preset name (see README)")
    group.add_argument("--config", help="path to a scenario config file")


@functools.cache  # one parser per process: each build leaves reference cycles
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phototherm",
        description="Lumped photothermal heating simulator for soft-actuator walls")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate a scenario and write a trajectory CSV")
    _add_scenario_options(p)
    p.add_argument("--duration", type=float, help="override simulated span, s")
    p.add_argument("--dt", type=float, help="override time step, s")
    p.add_argument("--record-stride", type=int, help="keep every Nth step")
    p.add_argument("--schedule", help="override light schedule, 'start:end:scale,...'")
    p.add_argument("--out", help="output CSV path (default: stdout)")

    p = sub.add_parser("steady", help="print steady-state temperatures")
    _add_scenario_options(p)
    p.add_argument("--scale", type=float, default=1.0, help="drive scale (default 1)")

    p = sub.add_parser("metrics", help="response metrics of a series or trajectory CSV")
    p.add_argument("file", help="series or trajectory CSV")
    p.add_argument("--channel", default="auto",
                   choices=["auto", "theta_s", "theta_L", "value"])
    p.add_argument("--convention", default="window-final",
                   choices=["plateau", "supplied", "window-final"])
    p.add_argument("--window", type=float,
                   help="final-value window for window-final, s (default 300)")
    p.add_argument("--final", type=float, help="final value for the supplied convention")
    p.add_argument("--plateau-threshold", type=float, help="plateau value range bound")
    p.add_argument("--plateau-window", type=float, help="plateau window length, s")
    p.add_argument("--ambient", type=float,
                   help="ambient for the cooling fit, K (default: the first value)")

    p = sub.add_parser("calibrate", help="fit model parameters to a measured series")
    _add_scenario_options(p)
    p.add_argument("--target", required=True, help="measured temperature CSV")
    p.add_argument("--param", action="append", required=True, metavar="NAME:LO:HI:INIT",
                   help="free parameter spec; repeatable")
    p.add_argument("--channel", default=None,
                   help="trajectory channel compared against the target")

    p = sub.add_parser("sweep", help="evaluate outputs over a parameter sweep")
    _add_scenario_options(p)
    p.add_argument("--param", required=True,
                   help="parameter to sweep (alpha_s, alpha_L, h_se, h_Le, Q_h, "
                        "scale, distance)")
    p.add_argument("--values", help="comma-separated parameter values")
    p.add_argument("--distances", help="comma-separated working distances, m")
    p.add_argument("--d-ref", type=float, help="reference distance, m")
    p.add_argument("--exponent", type=float, default=1.0,
                   help="illuminance falloff exponent (default 1)")
    p.add_argument("--outputs", default="t63",
                   help="comma-separated subset of t63,peak,steady,plateau")
    p.add_argument("--out", help="output CSV path (default: stdout)")

    p = sub.add_parser("analyze-bending", help="normalize and describe a bending series")
    p.add_argument("file", help="bending-angle series CSV")
    p.add_argument("--plateau-threshold", type=float, required=True)
    p.add_argument("--plateau-window", type=float, required=True)
    p.add_argument("--out", help="write the normalized curve CSV here")
    p.add_argument("--peaks", help="comma-separated per-cycle peak values; "
                                   "autodetected from the series when omitted")
    return parser


def _parse_floats(text: str, what: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValidationError(f"{what} must be comma-separated numbers, got {text!r}") from None


def _cmd_simulate(args) -> int:
    cfg = _load_scenario(args)
    overrides = {"duration": args.duration, "dt": args.dt, "record_stride": args.record_stride}
    sim = dataclasses.replace(cfg.sim, **{k: v for k, v in overrides.items() if v is not None})
    schedule = cfg.schedule
    if args.schedule is not None:
        schedule = fileio.parse_intervals(args.schedule, "--schedule")
    trajectory = run(cfg.assembly, cfg.source, schedule, cfg.env, sim)
    fileio.write_trajectory(trajectory, args.out or sys.stdout)
    return EXIT_OK


def _cmd_steady(args) -> int:
    cfg = _load_scenario(args)
    state = steady_state(cfg.assembly, cfg.source, cfg.env, args.scale)
    _emit_temperature("theta_s", state.silicone_temperature)
    if state.lig_temperature is not None:
        _emit_temperature("theta_L", state.lig_temperature)
    return EXIT_OK


def _cmd_metrics(args) -> int:
    """Every figure is computed before the first line is printed, so a
    failing command prints nothing."""
    for flag, value, convention in (("--window", args.window, "window-final"),
                                    ("--final", args.final, "supplied")):
        if value is not None and args.convention != convention:
            print(f"error: {flag} applies only to --convention {convention}", file=sys.stderr)
            return EXIT_USAGE
    series = fileio.read_series(args.file, column=args.channel)
    wants_plateau = args.plateau_threshold is not None and args.plateau_window is not None
    plateau = None
    if args.convention == "plateau":
        if not wants_plateau:
            raise ValidationError("plateau convention requires window and plateau_threshold")
        plateau = plateau_value(series, args.plateau_threshold, args.plateau_window)
        report = response_time_63(series, final=plateau[0])
    elif args.convention == "supplied":
        if args.final is None:
            raise ValidationError("supplied convention requires a final value")
        report = response_time_63(series, final=args.final)
    else:
        report = response_time_63(series, window=300.0 if args.window is None else args.window)
    if wants_plateau and plateau is None:
        plateau = plateau_value(series, args.plateau_threshold, args.plateau_window)
    is_kelvin = series.unit == "K"

    cooling = None
    if is_kelvin:
        # cooling fit on the decaying tail after the peak, when there is one
        peak_idx = int(np.argmax(series.values))
        tail_t = series.times[peak_idx:]
        tail_v = series.values[peak_idx:]
        if len(tail_t) >= 2 and tail_v[-1] < tail_v[0]:
            ambient = report.baseline if args.ambient is None else args.ambient
            try:
                cooling = cooling_fit(MeasurementSeries(tail_t, tail_v, unit="K"), ambient)
            except (ValidationError, MetricError):
                pass

    def emit_value(key, value):
        if is_kelvin:
            _emit_temperature(key, value)
        else:
            _emit(key, value)

    emit_value("baseline", report.baseline)
    emit_value("final", report.final)
    _emit("final_convention", args.convention.replace("-", "_"))
    _emit("t63_s", report.t63)
    emit_value("peak", report.peak_value)
    _emit("peak_time_s", report.peak_time)
    if plateau is not None:
        emit_value("plateau", plateau[0])
        _emit("plateau_reach_s", plateau[1])
    if cooling is not None:
        _emit("cooling_tau_s", cooling[0])
        _emit("cooling_r2", cooling[1])
    return EXIT_OK


def _parse_param_spec(text: str) -> _calibrate.ParamSpec:
    bits = text.split(":")
    if len(bits) != 4:
        raise ValidationError(f"--param must be NAME:LO:HI:INIT, got {text!r}")
    name = bits[0].strip()
    try:
        lo, hi, init = (float(b) for b in bits[1:])
    except ValueError:
        raise ValidationError(f"--param bounds must be numbers, got {text!r}") from None
    return _calibrate.ParamSpec(name=name, lower=lo, upper=hi, initial=init)


def _cmd_calibrate(args) -> int:
    cfg = _load_scenario(args)
    target = fileio.read_series(args.target)
    specs = tuple(_parse_param_spec(text) for text in args.param)
    problem = _calibrate.CalibrationProblem(
        target=target, free=specs, assembly=cfg.assembly, source=cfg.source,
        env=cfg.env, schedule=cfg.schedule, config=cfg.sim,
        channel=args.channel if args.channel is not None else cfg.channel)
    result = _calibrate.fit(problem)
    for name, value in result.values.items():
        _emit(name, value)
    _emit("sse_K2", result.sse)
    _emit("rmse_K", result.rmse)
    _emit("iterations", result.iterations)
    _emit("converged", "true" if result.converged else "false")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _load_scenario(args)
    outputs = tuple(o.strip() for o in args.outputs.split(",") if o.strip())
    values = _parse_floats(args.values, "--values") if args.values else None
    distances = _parse_floats(args.distances, "--distances") if args.distances else None
    spec = fileio.SweepSpec(param=args.param, values=values, distances=distances,
                            d_ref=args.d_ref, exponent=args.exponent, outputs=outputs)
    result = fileio.run_sweep(cfg, spec)
    csv_text = result.to_csv()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    if result.failures:
        for row in result.rows:
            if row["status"] == "failed":
                print(f"index={row['index']} value={row['value']:g} error={row['error']} "
                      f"message={row['message']}", file=sys.stderr)
        print(f"{result.failures} of {len(result.rows)} sweep points failed",
              file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def _cmd_analyze_bending(args) -> int:
    """Every figure is computed before the --out file is written and the
    first line is printed, so a failing command writes nothing."""
    series = fileio.read_series(args.file)
    plateau, reach = plateau_value(series, args.plateau_threshold, args.plateau_window)
    normalized = normalize_curve(series, plateau)
    report = response_time_63(series, final=plateau)
    if args.peaks:
        peaks = list(_parse_floats(args.peaks, "--peaks"))
    else:
        try:
            peaks = cycle_peaks(series)
        except ValidationError:
            peaks = []  # recovery-only records never rise above the start
        if len(peaks) < 2:
            peaks = []
    ratios = cycle_degradation(peaks) if peaks else []

    if args.out:
        fileio.write_series(normalized, args.out)
    _emit("baseline", report.baseline)
    _emit("plateau", plateau)
    _emit("plateau_reach_s", reach)
    _emit("t63_s", report.t63)
    _emit("peak", report.peak_value)
    _emit("peak_time_s", report.peak_time)
    if peaks:
        _emit("cycle_peaks", ",".join(f"{p:.4f}" for p in peaks))
        _emit("cycle_ratios", ",".join(f"{r:.4f}" for r in ratios))
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "steady": _cmd_steady,
    "metrics": _cmd_metrics,
    "calibrate": _cmd_calibrate,
    "sweep": _cmd_sweep,
    "analyze-bending": _cmd_analyze_bending,
}


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """A warning as one "warning: <message>" line on stderr, without the
    source path and line Python would print, so that stderr is the same in
    every checkout."""
    print(f"warning: {message}", file=sys.stderr)


def cli_main(argv) -> int:
    """Run one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return _COMMANDS[args.command](args)
        except (StabilityError, NumericalError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        except (PhotothermError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_BAD_INPUT


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
