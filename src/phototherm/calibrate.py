"""Least-squares calibration of model parameters against a measured series.

The forward model is cheap and the drive is piecewise constant, so the
minimizer is a derivative-free Nelder-Mead simplex with box bounds enforced
by clamping plus a quadratic penalty. The initial simplex is built
deterministically from the initial guess, so identical problems always
yield identical results.
"""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .metrics import MeasurementSeries, series_from_trajectory
from .model import Environment, HeatSource, SourceMode, WallAssembly, WallKind
from .simulate import LightSchedule, SimConfig, _constant_flux_at, run

#: tunable parameter names and the hard physical range each must stay inside
PARAM_RANGES = {
    "alpha_s": (0.0, 1.0),
    "alpha_L": (0.0, 1.0),
    "h_se": (0.0, math.inf),
    "h_Le": (0.0, math.inf),
    "Q_h": (0.0, math.inf),
    "scale": (0.0, math.inf),
}

_MAX_ITERATIONS = 500
_REL_SPREAD_TOL = 1e-8
_PENALTY_WEIGHT = 1e6


@dataclass(frozen=True)
class ParamSpec:
    """One free parameter: bounds and a starting point."""

    name: str
    lower: float
    upper: float
    initial: float

    def __post_init__(self):
        if self.name not in PARAM_RANGES:
            raise ValidationError(
                f"unknown parameter {self.name!r}; choose from {sorted(PARAM_RANGES)}")
        if not self.lower < self.upper:
            raise ValidationError(f"{self.name}: lower bound must be below upper bound")
        if not self.lower <= self.initial <= self.upper:
            raise ValidationError(f"{self.name}: initial guess must lie within the bounds")
        lo, hi = PARAM_RANGES[self.name]
        if self.lower < lo or self.upper > hi:
            raise ValidationError(
                f"{self.name}: bounds must stay within the physical range [{lo}, {hi}]")


@dataclass(frozen=True)
class CalibrationProblem:
    """A measured temperature series plus the fixed scenario it came from."""

    target: MeasurementSeries
    free: tuple[ParamSpec, ...]
    assembly: WallAssembly
    source: HeatSource
    env: Environment
    schedule: LightSchedule
    config: SimConfig
    channel: str = "auto"

    def __post_init__(self):
        object.__setattr__(self, "free", tuple(self.free))
        if not self.free:
            raise ValidationError("at least one free parameter is required")
        names = [p.name for p in self.free]
        if len(set(names)) != len(names):
            raise ValidationError("free parameter names must be unique")
        if self.target.unit != "K":
            raise ValidationError("calibration target must be a temperature series in K")
        if self.target.times[-1] > self.config.duration + 1e-9:
            raise ValidationError("target span must not exceed the simulated duration")
        for name in names:
            _check_applicable(name, self.assembly, self.source)
        # interpolation error must stay bounded by the integration step
        if self.config.record_stride != 1:
            object.__setattr__(self, "config", replace(self.config, record_stride=1))


@dataclass(frozen=True)
class CalibrationResult:
    values: dict  # fitted value per parameter name
    sse: float  # K^2
    rmse: float  # K
    iterations: int
    converged: bool


def _check_applicable(name: str, assembly: WallAssembly, source: HeatSource) -> None:
    """Reject unknown names, alpha_L/h_Le without a bilayer and Q_h without
    a constant-flux source."""
    if name not in PARAM_RANGES:
        raise ValidationError(
            f"unknown parameter {name!r}; choose from {sorted(PARAM_RANGES)}")
    if name in ("alpha_L", "h_Le") and assembly.kind is not WallKind.BILAYER:
        raise ValidationError(f"{name} needs a bilayer assembly")
    if name == "Q_h" and source.mode is not SourceMode.CONSTANT_FLUX:
        raise ValidationError("Q_h applies to constant-flux sources only")


def apply_named_parameter(assembly: WallAssembly, source: HeatSource,
                          schedule: LightSchedule, name: str, value: float
                          ) -> tuple[WallAssembly, HeatSource, LightSchedule]:
    """Copies of the model pieces with one named parameter replaced."""
    value = float(value)
    _check_applicable(name, assembly, source)
    sil, lig = assembly.silicone, assembly.lig
    if name == "alpha_s":
        sil = replace(sil, absorptance=value)
    elif name == "alpha_L":
        lig = replace(lig, absorptance=value)
    elif name == "h_se":
        sil = replace(sil, conv_coeff=value)
    elif name == "h_Le":
        lig = replace(lig, conv_coeff=value)
    elif name == "Q_h":
        source = replace(source, power=value)
    elif name == "scale":
        schedule = schedule.scaled(value)
    return WallAssembly(kind=assembly.kind, silicone=sil, lig=lig), source, schedule


def _apply(problem: CalibrationProblem, candidate) -> tuple[WallAssembly, HeatSource, LightSchedule]:
    assembly, source, schedule = problem.assembly, problem.source, problem.schedule
    for spec, value in zip(problem.free, candidate):
        assembly, source, schedule = apply_named_parameter(
            assembly, source, schedule, spec.name, value)
    return assembly, source, schedule


def objective(problem: CalibrationProblem, candidate) -> float:
    """Sum of squared sim-minus-measured temperature errors, in K^2.

    The trajectory is sampled at the target time stamps by linear
    interpolation. Constant-flux problems evaluate the Euler iterates in
    closed form at those stamps only; radiative ones step the whole run.
    """
    candidate = [float(v) for v in candidate]
    if len(candidate) != len(problem.free):
        raise ValidationError("candidate length must match the free parameter list")
    for spec, value in zip(problem.free, candidate):
        if not spec.lower <= value <= spec.upper:
            raise ValidationError(f"{spec.name}={value!r} is outside its bounds")
    assembly, source, schedule = _apply(problem, candidate)
    if source.mode is SourceMode.CONSTANT_FLUX:
        simulated = _constant_flux_at(assembly, source, schedule, problem.env,
                                      problem.config, problem.target.times,
                                      problem.channel)
    else:
        trajectory = run(assembly, source, schedule, problem.env, problem.config)
        series = series_from_trajectory(trajectory, problem.channel)
        simulated = np.interp(problem.target.times, series.times, series.values)
    diff = simulated - np.asarray(problem.target.values)
    return float(diff @ diff)


def _initial_simplex(specs, x0: np.ndarray) -> list[np.ndarray]:
    """x0 plus one vertex per axis offset by 5% of the box width, stepping
    down instead of up when up would leave the box."""
    simplex = [x0.copy()]
    for i, spec in enumerate(specs):
        step = 0.05 * (spec.upper - spec.lower)
        vertex = x0.copy()
        vertex[i] = x0[i] + step if x0[i] + step <= spec.upper else x0[i] - step
        simplex.append(vertex)
    return simplex


def fit(problem: CalibrationProblem) -> CalibrationResult:
    """Minimize the objective by Nelder-Mead within the declared bounds.

    Stops when the simplex objective spread falls below 1e-8 relative to the
    best value (floored at 1 for near-zero minima) or after 500 iterations;
    hitting the cap is reported through converged=False, not an error.
    """
    specs = problem.free
    lower = np.array([s.lower for s in specs])
    upper = np.array([s.upper for s in specs])
    width = upper - lower
    x0 = np.array([s.initial for s in specs])

    def penalized(x: np.ndarray) -> float:
        clamped = np.clip(x, lower, upper)
        excess = (x - clamped) / width
        # transient simplex candidates may be unphysical on purpose; only the
        # final fitted point (evaluated below, unsuppressed) should warn
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            sse = objective(problem, clamped)
        return sse + _PENALTY_WEIGHT * float(excess @ excess)

    simplex = _initial_simplex(specs, x0)
    fvals = [penalized(v) for v in simplex]

    iterations = 0
    converged = False
    while iterations < _MAX_ITERATIONS:
        iterations += 1
        order = sorted(range(len(simplex)), key=fvals.__getitem__)
        simplex = [simplex[i] for i in order]
        fvals = [fvals[i] for i in order]
        if fvals[-1] - fvals[0] <= _REL_SPREAD_TOL * max(1.0, abs(fvals[0])):
            converged = True
            break

        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]
        reflected = centroid + (centroid - worst)
        f_reflected = penalized(reflected)
        if f_reflected < fvals[0]:
            expanded = centroid + 2.0 * (centroid - worst)
            f_expanded = penalized(expanded)
            if f_expanded < f_reflected:
                simplex[-1], fvals[-1] = expanded, f_expanded
            else:
                simplex[-1], fvals[-1] = reflected, f_reflected
        elif f_reflected < fvals[-2]:
            simplex[-1], fvals[-1] = reflected, f_reflected
        else:
            if f_reflected < fvals[-1]:
                contracted = centroid + 0.5 * (reflected - centroid)
            else:
                contracted = centroid - 0.5 * (centroid - worst)
            f_contracted = penalized(contracted)
            if f_contracted < min(f_reflected, fvals[-1]):
                simplex[-1], fvals[-1] = contracted, f_contracted
            else:
                best = simplex[0]
                simplex = [best] + [best + 0.5 * (v - best) for v in simplex[1:]]
                fvals = [fvals[0]] + [penalized(v) for v in simplex[1:]]

    best_idx = min(range(len(simplex)), key=fvals.__getitem__)
    fitted = np.clip(simplex[best_idx], lower, upper)
    sse = objective(problem, fitted)
    rmse = math.sqrt(sse / len(problem.target.times))
    return CalibrationResult(
        values={spec.name: float(v) for spec, v in zip(specs, fitted)},
        sse=sse, rmse=rmse, iterations=iterations, converged=converged)
