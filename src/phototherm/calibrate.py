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
from .metrics import MeasurementSeries
from .model import (Environment, HeatSource, SourceMode, WallAssembly, WallKind, _absorbed,
                    _coefficients, _Coefficients, _convective, _warn_absorptance_sum)
from .simulate import (LightSchedule, SimConfig, _check_step, _constant_flux_on, _flux_grid,
                       _FluxGrid, _integrate, _resolve_channel, _segments, _time_constant)

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
    # resolved channel and the number of steps a radiative objective takes
    _grid: _FluxGrid = field(init=False, repr=False, compare=False)
    _coef: _Coefficients = field(init=False, repr=False, compare=False)
    _values: dict = field(init=False, repr=False, compare=False)
    _channel: str = field(init=False, repr=False, compare=False)
    _steps: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "free", tuple(self.free))
        if not self.free:
            raise ValidationError("at least one free parameter is required")
        names = [p.name for p in self.free]
        if len(set(names)) != len(names):
            raise ValidationError("free parameter names must be unique")
        if self.target.unit != "K":
            raise ValidationError("calibration target must be a temperature series in K")
        # a run ends at its last step, n_steps * dt, which may fall short of
        # the duration; past it both objective modes would read its value
        dt, n_steps, last = self.config.dt, self.config.n_steps, self.target.times[-1]
        if last / dt > n_steps + 1e-9:
            raise ValidationError(
                f"the target ends at t={last:g} s, after the last step of the run at "
                f"t={n_steps * dt:g} s ({n_steps} steps of dt={dt:g} s)")
        for name in names:
            _check_applicable(name, self.assembly, self.source)
        for spec in self.free:  # a rescaled interval must stay finite
            if spec.name == "scale":
                self.schedule.scaled(spec.upper)
        set_field = partial(object.__setattr__, self)
        sil, lig = self.assembly.silicone, self.assembly.lig
        values = {"alpha_s": sil.absorptance, "h_se": sil.conv_coeff,
                  "Q_h": self.source.power, "scale": 1.0}
        if lig is not None:
            values.update(alpha_L=lig.absorptance, h_Le=lig.conv_coeff)
        set_field("_grid", _flux_grid(self.schedule, self.config, self.target.times))
        set_field("_coef", _coefficients(self.assembly, self.source))
        set_field("_values", values)
        _check_box(self)
        set_field("_channel", _resolve_channel(self.assembly.kind, self.channel))
        # a radiative run need not go past the last target: stop one step
        # after its upper bracketing step, a margin for the rounding of
        # t / dt against the recorded stamps step * dt
        set_field("_steps", min(math.floor(last / dt) + 2, n_steps))


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


def _coefficients_at(problem: CalibrationProblem, values: dict
                     ) -> tuple[_Coefficients, tuple[float, ...]]:
    """The wall's constants and the run scales at these parameter values.
    Every field a parameter can set and the wall and source carry (g_s,
    g_l, q_s, q_l) and the scales are recomputed from the final values,
    each with the expression of model._coefficients and
    LightSchedule.scaled. A parameter at its problem value gives back the
    same float, and the order in which parameters are set does not matter."""
    c, sil, lig = problem._coef, problem.assembly.silicone, problem.assembly.lig
    fields = {"g_s": _convective(sil.conv_faces, values["h_se"], sil.area)}
    if lig is not None:
        fields["g_l"] = _convective(lig.conv_faces, values["h_Le"], lig.area)
    if c.q_s is not None:  # a constant flux
        fields["q_s"] = _absorbed(values["alpha_s"], values["Q_h"])
        if lig is not None:
            fields["q_l"] = _absorbed(values["alpha_L"], values["Q_h"])
    scale = values["scale"]
    return c._replace(**fields), tuple(s * scale for s in problem._grid.scales)


def _check_box(problem: CalibrationProblem) -> None:
    """Reject a box in which some candidate breaks the stability guard.

    The guard's loss conductances grow with h_se and h_Le and, under a
    radiative source, with the drive scale; the absorptances and Q_h do not
    enter them. So, in those parameters, the box's upper corner is its
    least stable point and its lower corner its most stable one. The box
    is stable when its upper corner is. When its lower corner is not, no
    candidate is, and this raises the guard's StabilityError at the initial
    point. Every other box is rejected with a ValidationError that names a
    parameter and the largest stable upper bound for it.
    """
    radiative = problem.source.mode is SourceMode.RADIATIVE_BODY
    guarded = [s for s in problem.free
               if s.name in ("h_se", "h_Le") or (radiative and s.name == "scale")]
    dt, theta_e = problem.config.dt, problem.env.ambient_temperature

    def limit(**at) -> tuple[float, str]:
        c, scales = _coefficients_at(problem, {**problem._values, **at})
        return _time_constant(c, theta_e, max(scales))

    top = {s.name: s.upper for s in guarded}
    tau, layer = limit(**top)
    if dt <= tau:
        return
    if dt > limit(**{s.name: s.lower for s in guarded})[0]:
        c, scales = _coefficients_at(
            problem, {**problem._values, **{s.name: s.initial for s in problem.free}})
        _check_step(c, dt, theta_e, max(scales))  # raises: see above
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
    interpolation. Both source modes take the wall constants at the
    candidate from `_coefficients_at`. Constant-flux problems evaluate the
    Euler iterates in closed form at those stamps only. Radiative ones step
    those constants up to the last target.
    """
    candidate = [float(v) for v in candidate]
    if len(candidate) != len(problem.free):
        raise ValidationError("candidate length must match the free parameter list")
    for spec, value in zip(problem.free, candidate):
        if not spec.lower <= value <= spec.upper:
            raise ValidationError(f"{spec.name}={value!r} is outside its bounds")
    # the box's bounds already hold every check the model's constructors
    # would make at the candidate, but the absorptance sum's warning
    values = {**problem._values, **{s.name: v for s, v in zip(problem.free, candidate)}}
    if problem.assembly.kind is WallKind.BILAYER:
        _warn_absorptance_sum(values["alpha_s"], values["alpha_L"])
    c, scales = _coefficients_at(problem, values)
    theta_e, dt = problem.env.ambient_temperature, problem.config.dt
    if problem.source.mode is SourceMode.CONSTANT_FLUX:
        simulated = _constant_flux_on(problem._grid, c, scales, theta_e, dt, problem._channel)
    else:
        # the runs of the shortened grid are the first runs of the full one,
        # the last one cut at _steps; the guard is _integrate's
        runs = [(i0, i1, scale) for (i0, i1, _), scale
                in zip(_segments(problem.schedule, problem._steps, dt), scales)]
        trajectory = _integrate(c, runs, theta_e, theta_e, theta_e, dt, problem._steps, 1)
        column = trajectory.lig if problem._channel == "theta_L" else trajectory.silicone
        simulated = np.interp(problem.target.times, trajectory.times, column)
    diff = simulated - problem.target.values
    return float(diff @ diff)


def fit(problem: CalibrationProblem) -> CalibrationResult:
    """Minimize the objective by Nelder-Mead within the declared bounds.

    Stops when the simplex objective spread falls below 1e-8 relative to the
    best value (floored at 1 for near-zero minima) or after 500 iterations;
    hitting the cap is reported through converged=False, not an error.

    The simplex starts at the initial guess plus one vertex per axis offset
    by 5% of the box width, stepping down instead of up when up would leave
    the box. Vertices are lists of Python floats: each coordinate takes the
    same float operations, in the same order, as numpy vectors would, and
    the fit matches the numpy version in tests/reference_fit.py bit for bit.
    """
    specs = problem.free
    lower = [s.lower for s in specs]
    upper = [s.upper for s in specs]
    width = [hi - lo for lo, hi in zip(lower, upper)]

    def clip(x: list) -> list:
        # np.clip's choices for numbers: the bound unless x lies strictly
        # inside it, so that 0.0 clamps -0.0
        return [min(hi, max(lo, v)) for v, lo, hi in zip(x, lower, upper)]

    evaluations = 0

    def penalized(x: list) -> float:
        nonlocal evaluations
        evaluations += 1
        clamped = clip(x)
        sse = objective(problem, clamped)
        if clamped == x:  # inside the box, the penalty is 0
            return sse
        # numpy's dot: its summation (fused on some BLAS builds) is not a
        # Python sum's
        excess = np.array([(v - c) / w for v, c, w in zip(x, clamped, width)])
        return sse + _PENALTY_WEIGHT * float(excess @ excess)

    # transient simplex candidates may be unphysical on purpose; only the
    # final fitted point (evaluated below, unsuppressed) should warn
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        x0 = [s.initial for s in specs]
        simplex = [x0]
        for i, spec in enumerate(specs):
            step = 0.05 * width[i]
            vertex = list(x0)
            vertex[i] = x0[i] + step if x0[i] + step <= spec.upper else x0[i] - step
            simplex.append(vertex)
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

            # np.mean over the vertices: a running sum, then one division
            centroid = list(simplex[0])
            for vertex in simplex[1:-1]:
                centroid = [c + v for c, v in zip(centroid, vertex)]
            centroid = [c / (len(simplex) - 1) for c in centroid]
            worst = simplex[-1]
            reflected = [c + (c - v) for c, v in zip(centroid, worst)]
            f_reflected = penalized(reflected)
            if f_reflected < fvals[0]:
                expanded = [c + 2.0 * (c - v) for c, v in zip(centroid, worst)]
                f_expanded = penalized(expanded)
                if f_expanded < f_reflected:
                    simplex[-1], fvals[-1] = expanded, f_expanded
                else:
                    simplex[-1], fvals[-1] = reflected, f_reflected
            elif f_reflected < fvals[-2]:
                simplex[-1], fvals[-1] = reflected, f_reflected
            else:
                if f_reflected < fvals[-1]:
                    contracted = [c + 0.5 * (r - c) for c, r in zip(centroid, reflected)]
                else:
                    contracted = [c - 0.5 * (c - v) for c, v in zip(centroid, worst)]
                f_contracted = penalized(contracted)
                if f_contracted < min(f_reflected, fvals[-1]):
                    simplex[-1], fvals[-1] = contracted, f_contracted
                else:
                    best = simplex[0]
                    simplex = [best] + [[b + 0.5 * (v - b) for b, v in zip(best, vertex)]
                                        for vertex in simplex[1:]]
                    fvals = [fvals[0]] + [penalized(v) for v in simplex[1:]]

    best_idx = min(range(len(simplex)), key=fvals.__getitem__)
    fitted = clip(simplex[best_idx])
    sse = objective(problem, fitted)
    rmse = math.sqrt(sse / len(problem.target.times))
    return CalibrationResult(
        values={spec.name: v for spec, v in zip(specs, fitted)},
        sse=sse, rmse=rmse, iterations=iterations, converged=converged,
        evaluations=evaluations + 1)
