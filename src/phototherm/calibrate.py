"""Least-squares calibration of model parameters against a measured series.

The forward model is cheap and the drive is piecewise constant, so the
minimizer is a derivative-free Nelder-Mead simplex with box bounds enforced
by clamping plus a quadratic penalty. The initial simplex is built
deterministically from the initial guess, so identical problems always
yield identical results.
"""

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .errors import NumericalError, ValidationError
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

#: the order in which a problem's evaluator holds the parameter values
_SLOTS = ("h_se", "h_Le", "alpha_s", "alpha_L", "Q_h", "scale")

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
    # resolved channel, the number of steps a radiative objective takes and
    # the evaluator objective calls (see _evaluator)
    _grid: _FluxGrid = field(init=False, repr=False, compare=False)
    _coef: _Coefficients = field(init=False, repr=False, compare=False)
    _values: dict = field(init=False, repr=False, compare=False)
    _channel: str = field(init=False, repr=False, compare=False)
    _steps: int = field(init=False, repr=False, compare=False)
    _evaluate: Callable[[list], float] = field(init=False, repr=False, compare=False)

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
        set_field("_evaluate", _evaluator(self))

    def __reduce__(self):
        # the evaluator is a closure, which pickle cannot save: a copy is
        # built again from the fields
        return type(self), (self.target, self.free, self.assembly, self.source,
                            self.env, self.schedule, self.config, self.channel)


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


def _guard_at(problem: CalibrationProblem, values: dict) -> tuple[_Coefficients, float]:
    """What the stability guard reads at these parameter values: the wall's
    constants with the convective conductances at h_se and h_Le, and the
    largest run scale at scale."""
    c, sil, lig = problem._coef, problem.assembly.silicone, problem.assembly.lig
    c = c._replace(g_s=_convective(sil.conv_faces, values["h_se"], sil.area))
    if lig is not None:
        c = c._replace(g_l=_convective(lig.conv_faces, values["h_Le"], lig.area))
    return c, max(s * values["scale"] for s in problem._grid.scales)


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
        c, scale = _guard_at(problem, {**problem._values, **at})
        return _time_constant(c, theta_e, scale)

    top = {s.name: s.upper for s in guarded}
    tau, layer = limit(**top)
    if dt <= tau:
        return
    if dt > limit(**{s.name: s.lower for s in guarded})[0]:
        c, scale = _guard_at(
            problem, {**problem._values, **{s.name: s.initial for s in problem.free}})
        _check_step(c, dt, theta_e, scale)  # raises: see above
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


def _evaluator(problem: CalibrationProblem) -> Callable[[list], float]:
    """The SSE at a candidate, a list of Python floats in the order of
    problem.free that lies inside the box: objective's work after its checks.

    Built once per problem, it is specialised on source mode, wall kind and
    channel, and takes once what no candidate changes: each layer's face
    count and area, the run bounds and base scales, the target values, and
    the closed form's constants (see _constant_flux_on) or, under a
    radiative source, the runs of the grid cut at _steps. Per candidate it
    computes g_s, g_l, q_s, q_l and the run scales from the final parameter
    values, with model._convective, model._absorbed and the expression of
    LightSchedule.scaled: a parameter at its problem value gives back the
    problem's float, and the order in which parameters are set does not
    matter. A bilayer candidate first has its absorptance sum checked; the
    warning points at objective's caller.
    """
    sil, lig, c = problem.assembly.silicone, problem.assembly.lig, problem._coef
    slots = [_SLOTS.index(spec.name) for spec in problem.free]
    base = [problem._values.get(name) for name in _SLOTS]
    base_scales = problem._grid.scales
    faces_s, area_s = sil.conv_faces, sil.area
    bilayer = lig is not None
    faces_l, area_l = (lig.conv_faces, lig.area) if bilayer else (None, None)
    theta_e, dt = problem.env.ambient_temperature, problem.config.dt
    times, measured = problem.target.times, problem.target.values
    radiative = problem.source.mode is SourceMode.RADIATIVE_BODY
    if radiative:
        # the runs of the shortened grid are the first runs of the full one,
        # the last one cut at _steps; the guard is _integrate's
        steps = problem._steps
        bounds = [(i0, i1) for i0, i1, _ in _segments(problem.schedule, steps, dt)]
        lig_channel = problem._channel == "theta_L"
    else:
        flux = _constant_flux_on(problem._grid, c, theta_e, dt, problem._channel)
    inf = math.inf

    def evaluate(candidate: list) -> float:
        values = base.copy()
        for slot, value in zip(slots, candidate):
            values[slot] = value
        h_se, h_le, alpha_s, alpha_l, q_h, scale = values
        g_s, g_l = _convective(faces_s, h_se, area_s), None
        if bilayer:
            _warn_absorptance_sum(alpha_s, alpha_l, stacklevel=4)
            g_l = _convective(faces_l, h_le, area_l)
        if radiative:
            runs = [(i0, i1, s * scale) for (i0, i1), s in zip(bounds, base_scales)]
            # c's fields in order, with this candidate's g_s and g_l
            at = _Coefficients(c.cap_s, c.cap_l, g_s, g_l, *c[4:])
            trajectory = _integrate(at, runs, theta_e, theta_e, theta_e, dt, steps, 1)
            column = trajectory.lig if lig_channel else trajectory.silicone
            diff = np.interp(times, trajectory.times, column) - measured
            return float(np.add.reduce(diff * diff))
        simulated = flux(g_s, g_l, _absorbed(alpha_s, q_h),
                         _absorbed(alpha_l, q_h) if bilayer else None,
                         [s * scale for s in base_scales])
        diff = simulated - measured
        # numpy's pairwise sum takes the same additions on every machine,
        # where a BLAS dot may fuse its multiply-adds on one and not another
        sse = float(np.add.reduce(diff * diff))
        # a NaN or infinite temperature makes the SSE NaN or inf, so a finite
        # SSE leaves only the sign to test. Finite temperatures whose squared
        # errors overflow make it inf too: the full test tells them apart,
        # and they give inf
        if not (sse < inf and simulated.min() > 0.0):
            if not (simulated.min() > 0.0 and simulated.max() < inf):
                raise NumericalError("temperature became non-finite or non-positive")
        return sse

    return evaluate


def objective(problem: CalibrationProblem, candidate) -> float:
    """Sum of squared sim-minus-measured temperature errors, in K^2.

    The trajectory is sampled at the target time stamps by linear
    interpolation. After checking the candidate's length and bounds, it
    calls the problem's evaluator (see _evaluator). Constant-flux problems
    evaluate the Euler iterates in closed form at those stamps only.
    Radiative ones step the wall's constants at the candidate up to the
    last target.
    """
    candidate = [float(v) for v in candidate]
    if len(candidate) != len(problem.free):
        raise ValidationError("candidate length must match the free parameter list")
    for spec, value in zip(problem.free, candidate):
        if not spec.lower <= value <= spec.upper:
            raise ValidationError(f"{spec.name}={value!r} is outside its bounds")
    # the box's bounds already hold every check the model's constructors
    # would make at the candidate, but the absorptance sum's warning, which
    # the evaluator gives
    return problem._evaluate(candidate)


# a candidate's temperatures that leave the float range raise NumericalError
# in the evaluator: numpy's warnings on the way would only repeat it
@np.errstate(over="ignore", invalid="ignore")
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
    A clamped candidate the fit has evaluated before reuses its SSE, so
    evaluations counts the distinct ones, plus the final call.
    """
    specs = problem.free
    lower = [s.lower for s in specs]
    upper = [s.upper for s in specs]
    width = [hi - lo for lo, hi in zip(lower, upper)]

    def clip(x: list) -> list:
        # np.clip's choices for numbers: the bound unless x lies strictly
        # inside it, so that 0.0 clamps -0.0
        return [min(hi, max(lo, v)) for v, lo, hi in zip(x, lower, upper)]

    sse_at: dict = {}  # the objective at each clamped candidate evaluated

    def penalized(x: list) -> float:
        clamped = clip(x)
        key = tuple(clamped)
        sse = sse_at.get(key)
        if sse is None:
            sse = sse_at[key] = objective(problem, clamped)
        if clamped == x:  # inside the box, the penalty is 0
            return sse
        # the squared excess summed in Python floats, axis by axis: a BLAS
        # dot may fuse its multiply-adds on one machine and not on another
        penalty = 0.0
        for v, c, w in zip(x, clamped, width):
            excess = (v - c) / w
            penalty += excess * excess
        return sse + _PENALTY_WEIGHT * penalty

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
        evaluations=len(sse_at) + 1)
