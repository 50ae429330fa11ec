"""Least-squares calibration of model parameters against a measured series.

The forward model is cheap and the drive is piecewise constant, so the
minimizer is a derivative-free Nelder-Mead simplex with box bounds enforced
by clamping plus a quadratic penalty. The initial simplex is built
deterministically from the initial guess, so identical problems always
yield identical results.
"""

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .errors import ValidationError
from .metrics import MeasurementSeries, series_from_trajectory
from .model import (Environment, HeatSource, SourceMode, WallAssembly, WallKind, _absorbed,
                    _coefficients, _Coefficients, _convective, _warn_absorptance_sum)
from .simulate import (LightSchedule, SimConfig, _check_step, _constant_flux_on, _flux_grid,
                       _FluxGrid, _resolve_channel, _time_constant, run)

#: tunable parameter names and the hard physical range each must stay inside
PARAM_RANGES = {
    "alpha_s": (0.0, 1.0),
    "alpha_L": (0.0, 1.0),
    "h_se": (0.0, math.inf),
    "h_Le": (0.0, math.inf),
    "Q_h": (0.0, math.inf),
    "scale": (0.0, math.inf),
}

#: the fields of the wall's constants (model._Coefficients) that each
#: parameter sets; "scales" are the run scales
_SETS = {
    "alpha_s": ("q_s",),
    "alpha_L": ("q_l",),
    "h_se": ("g_s",),
    "h_Le": ("g_l",),
    "Q_h": ("q_s", "q_l"),
    "scale": ("scales",),
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
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValidationError(f"{self.name}: bounds must be finite")
        lo, hi = PARAM_RANGES[self.name]
        if self.lower < lo or self.upper > hi:
            raise ValidationError(
                f"{self.name}: bounds must stay within the physical range [{lo}, {hi}]")
        if self.name in ("h_se", "h_Le") and not self.lower > 0.0:
            raise ValidationError(f"{self.name}: lower bound must be > 0, "
                                  "a convection coefficient must be strictly positive")


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
    # computed once per problem, the same for every candidate: the target
    # grid and run scales, the wall's constants, the parameter values, the
    # fields of the constants that the free parameters set, whether every
    # candidate passes the stability guard, and the run config of a
    # radiative objective
    _grid: _FluxGrid = field(init=False, repr=False, compare=False)
    _coef: _Coefficients = field(init=False, repr=False, compare=False)
    _values: dict = field(init=False, repr=False, compare=False)
    _fields: tuple = field(init=False, repr=False, compare=False)
    _stable: bool = field(init=False, repr=False, compare=False)
    _run_config: SimConfig = field(init=False, repr=False, compare=False)

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
        for spec in self.free:  # a rescaled interval must stay finite
            if spec.name == "scale":
                self.schedule.scaled(spec.upper)
        set_field = partial(object.__setattr__, self)
        sil, lig = self.assembly.silicone, self.assembly.lig
        values = {"alpha_s": sil.absorptance, "h_se": sil.conv_coeff,
                  "Q_h": self.source.power, "scale": 1.0}
        if lig is not None:
            values.update(alpha_L=lig.absorptance, h_Le=lig.conv_coeff)
        coef = _coefficients(self.assembly, self.source)
        set_field("_grid", _flux_grid(self.schedule, self.config, self.target.times))
        set_field("_coef", coef)
        set_field("_values", values)
        # a field the wall or the source lacks (None) stays unset
        set_field("_fields", tuple(dict.fromkeys(
            f for name in names for f in _SETS[name]
            if f == "scales" or getattr(coef, f) is not None)))
        set_field("_stable", _box_is_stable(self))
        # a radiative run need not go past the last target: stop one step
        # after its upper bracketing step, a margin for the rounding of
        # t / dt against the recorded stamps step * dt. A box with no
        # stable point runs in full, so that run's guard raises as before.
        set_field("_run_config", self.config)
        steps = math.floor(self.target.times[-1] / self.config.dt) + 2
        if self._stable and steps < self.config.n_steps:
            short = replace(self.config, duration=steps * self.config.dt)
            if short.n_steps == steps:
                set_field("_run_config", short)


@dataclass(frozen=True)
class CalibrationResult:
    values: dict  # fitted value per parameter name
    sse: float  # K^2
    rmse: float  # K
    iterations: int
    converged: bool
    evaluations: int  # objective calls, the final unpenalized one included


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


def _coefficients_at(problem: CalibrationProblem, values: dict
                     ) -> tuple[_Coefficients, np.ndarray]:
    """The wall's constants and the run scales at these parameter values.
    Only the fields the free parameters set are recomputed, each from the
    final values with the expression of model._coefficients, so the order
    in which the parameters are applied does not matter."""
    sil, lig = problem.assembly.silicone, problem.assembly.lig
    scales, fields = problem._grid.scales, {}
    for name in problem._fields:
        if name == "q_s":
            fields[name] = _absorbed(values["alpha_s"], values["Q_h"])
        elif name == "q_l":
            fields[name] = _absorbed(values["alpha_L"], values["Q_h"])
        elif name == "g_s":
            fields[name] = _convective(sil.conv_faces, values["h_se"], sil.area)
        elif name == "g_l":
            fields[name] = _convective(lig.conv_faces, values["h_Le"], lig.area)
        else:  # the floats of LightSchedule.scaled
            scales = scales * values["scale"]
    return problem._coef._replace(**fields), scales


def _box_is_stable(problem: CalibrationProblem) -> bool:
    """Whether every candidate in the box passes the stability guard.

    The guard's loss conductances grow with h_se and h_Le and, under a
    radiative source, with the drive scale; the absorptances and Q_h do not
    enter them. So, in those parameters, the box's upper corner is its
    least stable point and its lower corner its most stable one. The box
    is stable when its upper corner is. When its lower corner is not,
    no candidate is, and objective raises the guard's StabilityError.
    Every other box is rejected with a ValidationError that names a
    parameter and the largest stable upper bound for it.
    """
    radiative = problem.source.mode is SourceMode.RADIATIVE_BODY
    guarded = [s for s in problem.free
               if s.name in ("h_se", "h_Le") or (radiative and s.name == "scale")]
    dt = problem.config.dt

    def limit(**at) -> tuple[float, str]:
        c, scales = _coefficients_at(problem, {**problem._values, **at})
        return _time_constant(c, problem.env.ambient_temperature, float(scales.max()))

    top = {s.name: s.upper for s in guarded}
    tau, layer = limit(**top)
    if dt <= tau:
        return True
    if dt > limit(**{s.name: s.lower for s in guarded})[0]:
        return False
    unstable = (f"dt={dt:g} s exceeds the stability limit {tau:.6g} s set by the {layer} "
                "layer at the upper bound")
    for s in guarded:
        if dt > limit(**{**top, s.name: s.lower})[0]:
            continue  # lowering this bound alone does not help
        lo, hi = s.lower, s.upper  # lo is stable, hi is not
        while lo < (mid := lo + 0.5 * (hi - lo)) < hi:
            lo, hi = (mid, hi) if dt <= limit(**{**top, s.name: mid})[0] else (lo, mid)
        raise ValidationError(f"{s.name}: {unstable} {s.upper:g}; "
                              f"the largest stable upper bound is {lo!r}")
    raise ValidationError(f"{', '.join(top)}: {unstable}s together; lower them")


def objective(problem: CalibrationProblem, candidate) -> float:
    """Sum of squared sim-minus-measured temperature errors, in K^2.

    The trajectory is sampled at the target time stamps by linear
    interpolation. Constant-flux problems evaluate the Euler iterates in
    closed form at those stamps only, from the problem's wall constants
    with the fields the candidate sets recomputed. Radiative ones step the
    run up to the last target.
    """
    candidate = [float(v) for v in candidate]
    if len(candidate) != len(problem.free):
        raise ValidationError("candidate length must match the free parameter list")
    for spec, value in zip(problem.free, candidate):
        if not spec.lower <= value <= spec.upper:
            raise ValidationError(f"{spec.name}={value!r} is outside its bounds")
    if problem.source.mode is SourceMode.CONSTANT_FLUX:
        # the box's bounds already hold every check the model's constructors
        # would make at the candidate, but the absorptance sum's warning
        values = {**problem._values, **{s.name: v for s, v in zip(problem.free, candidate)}}
        if problem.assembly.kind is WallKind.BILAYER:
            _warn_absorptance_sum(values["alpha_s"], values["alpha_L"])
        c, scales = _coefficients_at(problem, values)
        theta_e, dt = problem.env.ambient_temperature, problem.config.dt
        if not problem._stable:  # a stable box needs no check (see _box_is_stable)
            _check_step(c, dt, theta_e, 1.0)
        channel = _resolve_channel(problem.assembly.kind, problem.channel)
        simulated = _constant_flux_on(problem._grid, c, scales, theta_e, dt, channel)
    else:
        assembly, source, schedule = _apply(problem, candidate)
        trajectory = run(assembly, source, schedule, problem.env, problem._run_config)
        series = series_from_trajectory(trajectory, problem.channel)
        simulated = np.interp(problem.target.times, series.times, series.values)
    diff = simulated - problem.target.values
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

    evaluations = 0

    def penalized(x: np.ndarray) -> float:
        nonlocal evaluations
        evaluations += 1
        clamped = np.clip(x, lower, upper)
        excess = (x - clamped) / width
        return objective(problem, clamped) + _PENALTY_WEIGHT * float(excess @ excess)

    # transient simplex candidates may be unphysical on purpose; only the
    # final fitted point (evaluated below, unsuppressed) should warn
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
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
        sse=sse, rmse=rmse, iterations=iterations, converged=converged,
        evaluations=evaluations + 1)
