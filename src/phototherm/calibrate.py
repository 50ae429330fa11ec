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

import numpy as np

from .errors import NumericalError, ValidationError
from .metrics import MeasurementSeries
from .model import (Environment, HeatSource, WallAssembly, _absorbed, _coefficients,
                    _Coefficients, _convective, _warn_absorptance_sum)
from .simulate import (LightSchedule, SimConfig, _check_step, _check_step_count,
                       _integrate, _resolve_channel, _segments, _time_constant)

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
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValidationError(f"{self.name}: bounds must be finite")
        if not math.isfinite(self.initial):
            raise ValidationError(f"{self.name}: initial guess must be finite")
        if not self.lower < self.upper:
            raise ValidationError(f"{self.name}: lower bound must be below upper bound")
        if not self.lower <= self.initial <= self.upper:
            raise ValidationError(f"{self.name}: initial guess must lie within the bounds")
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
    # the function objective calls, built once per problem (see _evaluator)
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
        # every model temperature is above 0 K, so a target at or below it is no data
        times, values = self.target.times, self.target.values
        i = int(np.argmax(values <= 0.0))
        if values[i] <= 0.0:
            raise ValidationError(f"the target holds {values[i]:g} K at t={times[i]:g} s; "
                                  "a calibration target must be above 0 K")
        # a run covers [0, n_steps * dt], and n_steps * dt may fall short of
        # the duration; outside it both objective modes would read the value
        # at its nearer end
        dt, n_steps = self.config.dt, self.config.n_steps
        _check_step_count(dt, n_steps)  # the closed form would never meet run's cap
        first, last = self.target.times[[0, -1]].tolist()  # floats: no numpy warning
        if first / dt < -1e-9:
            raise ValidationError(
                f"the target starts at t={first:g} s, before the run starts at t=0 s")
        if last / dt > n_steps + 1e-9:
            raise ValidationError(
                f"the target ends at t={last:g} s, after the last step of the run at "
                f"t={n_steps * dt:g} s ({n_steps} steps of dt={dt:g} s)")
        for name in names:
            _check_applicable(name, self.assembly, self.source)
        for spec in self.free:  # a rescaled interval must stay finite
            if spec.name == "scale":
                self.schedule.scaled(spec.upper)
        sil, lig = self.assembly.silicone, self.assembly.lig
        values = {"alpha_s": sil.absorptance, "h_se": sil.conv_coeff,
                  "Q_h": self.source.power, "scale": 1.0}
        if lig is not None:
            values.update(alpha_L=lig.absorptance, h_Le=lig.conv_coeff)
        c = _coefficients(self.assembly, self.source)
        segments = _segments(self.schedule, n_steps, dt)
        _check_box(self, c, values, segments)
        channel = _resolve_channel(self.assembly.lig is not None, self.channel)
        object.__setattr__(self, "_evaluate", _evaluator(self, c, values, segments, channel))

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
    if name in ("alpha_L", "h_Le") and assembly.lig is None:
        raise ValidationError(f"{name} needs a bilayer assembly")
    if name == "Q_h" and source.power is None:
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
    return WallAssembly(sil, lig), source, schedule


def _guard_at(problem: CalibrationProblem, c: _Coefficients, values: dict,
              segments) -> tuple[_Coefficients, float]:
    """What the stability guard reads at these parameter values: the wall's
    constants c with the convective conductances at h_se and h_Le, and the
    largest scale of the runs at scale."""
    sil, lig = problem.assembly.silicone, problem.assembly.lig
    c = c._replace(g_s=_convective(sil.conv_faces, values["h_se"], sil.area))
    if lig is not None:
        c = c._replace(g_l=_convective(lig.conv_faces, values["h_Le"], lig.area))
    return c, max(s * values["scale"] for *_, s in segments)


def _check_box(problem: CalibrationProblem, c: _Coefficients, values: dict,
               segments) -> None:
    """Reject a box in which some candidate breaks the stability guard.

    The guard's loss conductances grow with h_se and h_Le and, under a
    radiative source, with the drive scale; the absorptances and Q_h do not
    enter them. So, in those parameters, the box's upper corner is its
    least stable point and its lower corner its most stable one. The box
    is stable when its upper corner is. When its lower corner is not, no
    candidate is, and this raises the guard's StabilityError at the initial
    point. Every other box is rejected with a ValidationError that names a
    parameter and the largest stable upper bound for it. c, values and
    segments are the problem's wall constants, parameter values and runs.
    """
    radiative = problem.source.power is None
    guarded = [s for s in problem.free
               if s.name in ("h_se", "h_Le") or (radiative and s.name == "scale")]
    dt, theta_e = problem.config.dt, problem.env.ambient_temperature

    def limit(**at) -> tuple[float, str]:
        wall, scale = _guard_at(problem, c, {**values, **at}, segments)
        return _time_constant(wall, theta_e, scale)

    top = {s.name: s.upper for s in guarded}
    tau, layer = limit(**top)
    if dt <= tau:
        return
    if dt > limit(**{s.name: s.lower for s in guarded})[0]:
        initial = {s.name: s.initial for s in problem.free}
        wall, scale = _guard_at(problem, c, {**values, **initial}, segments)
        _check_step(wall, dt, theta_e, scale)  # raises: see above
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


def _grow(h: float, m, expm1):
    """The growth factor of m steps of a mode with mu = 1 + h: mu^m - 1, as
    expm1(m log1p(h)) where mu > 0 and as a power where mu <= 0, or m where
    h = 0, the ramp of a mode with no loss path. m is an int with expm1 =
    math.expm1, or an array with np.expm1."""
    if h == 0.0:
        return m
    if h > -1.0:
        return expm1(m * math.log1p(h))
    return (1.0 + h) ** m - 1.0


def _constant_flux_on(segments, times, c: _Coefficients, theta_e: float, dt: float,
                      channel: str):
    """The closed form of a resolved channel of what `run` records from
    ambient under a constant flux over the `_segments` runs, at the target
    times, interpolated like np.interp. It takes once what no calibration
    parameter changes: the heat capacities and coupling of c, their square
    roots, the channel's readout, the run lengths and each target's
    bracketing steps. It returns values(g_s, g_l, q_s, q_l, scales), the
    channel for a wall with these convective conductances and absorbed
    powers at drive scale 1 (a single layer reads no g_l or q_l), under a
    schedule with the runs' bounds and these run scales (Python floats).

    In excess temperatures x = theta - theta_e one Euler step is the affine
    map x -> M x + dt f with M = I + dt A. A is similar to the symmetric
    S = D^{1/2} A D^{-1/2}, D = diag(C). In the modes w = Q^T D^{1/2} x of
    S = Q diag(lam) Q^T a step is w -> mu w + dt b with mu = 1 + dt lam, so
    m steps from w0 under a drive scale s give exactly
        w_m = w0 + (mu^m - 1) (w0 + s b / lam),
    or w0 + m dt s b where dt lam = 0 (no loss path) or is too small to
    matter over the run. mu^m - 1 is taken as expm1(m log1p(dt lam)), never
    from a rounded mu: where dt |lam| is small, (1 - mu^m) / (1 - mu) would
    multiply the rounding of mu by about eps / (dt |lam|). Only where mu <=
    0, which the guard allows a fast mode, is it a power. Only the grid
    steps bracketing each target are evaluated, so the cost is O(segments +
    targets), not O(steps). The values match the Euler iterates to a few
    ulp of the excess; against an 80-bit Euler run the tests hold every
    target to 1e-9 K, at weak loss too.

    The caller has checked dt against the stability guard. run's per-step
    NumericalError cannot fire here: under the guard M >= 0 entrywise, the
    drive is >= 0 and the start is ambient, so every iterate stays >=
    theta_e. Only overflow remains, and values does not test for it: the
    caller checks what it returns.
    """
    cap_s, cap_l, k = c.cap_s, c.cap_l, c.k
    if k is None:
        def modes(g_s, g_l, q_s, q_l):  # (lam, b, readout) per mode
            return ((-g_s / cap_s, q_s / cap_s, 1.0),)
    else:
        cap_sl = cap_s * cap_l
        off = k / math.sqrt(cap_sl)
        root_s, root_l = math.sqrt(cap_s), math.sqrt(cap_l)
        lig = channel == "theta_L"
        root = root_l if lig else root_s

        def modes(g_s, g_l, q_s, q_l):
            # S = [[a, c], [c, d]]; its eigenpairs in closed form
            a, d = -(g_s + k) / cap_s, -(g_l + k) / cap_l
            lam_fast = 0.5 * (a + d) - math.hypot(0.5 * (a - d), off)
            # det S from the conductances avoids the cancellation in a*d - c*c
            lam_slow = (g_s * g_l + k * (g_s + g_l)) / cap_sl / lam_fast
            # Q = [[cos, -sin], [sin, cos]], columns ordered (slow, fast)
            phi = 0.5 * math.atan2(2.0 * off, a - d)
            cos, sin = math.cos(phi), math.sin(phi)
            f_s, f_l = q_s / root_s, q_l / root_l  # D^{1/2} f
            r_slow, r_fast = (sin, cos) if lig else (cos, -sin)
            return ((lam_slow, cos * f_s + sin * f_l, r_slow / root),
                    (lam_fast, cos * f_l - sin * f_s, r_fast / root))

    # run r covers steps (start, end], the last one ending at n_steps
    lengths = [i1 - i0 for i0, i1, _ in segments]
    starts, ends, _ = np.array(segments, dtype=float).T  # ints past int64: no objects
    n_steps = segments[-1][1]
    # bracketing grid steps (lower, lower + 1) and the weight of the upper one
    t = np.asarray(times, dtype=float) / dt
    lower = np.minimum(np.maximum(np.floor(t), 0.0), n_steps - 1)
    weight = np.minimum(np.maximum(t - lower, 0.0), 1.0)
    steps = np.concatenate((lower, lower + 1.0))
    r = np.searchsorted(ends, steps)
    into, targets = steps - starts[r], weight.size
    # per column, where each bracketing step finds its value in the flat
    # table below: a run start, then one pull per mode, per run
    width = 2 if k is None else 3
    gather = r * width + np.arange(width)[:, None]

    def values(g_s, g_l, q_s, q_l, scales) -> np.ndarray:
        # per mode: h = dt lam, (keep, g) such that m steps from w0 under a
        # drive scale s reach w0 + _grow(h, m) (keep w0 + s g), and the
        # readout. A mode with m |h| below the rounding of 1 for every m of
        # the run ramps by dt s b per step, to rounding, as with no loss
        # path; there b / lam could overflow
        terms = []
        for lam, b, readout in modes(g_s, g_l, q_s, q_l):
            h = dt * lam
            if abs(h) * n_steps < 2.0 ** -53:
                terms.append((0.0, 0.0, dt * b, readout))
            else:
                terms.append((h, 1.0, b / lam, readout))

        # per run, in Python floats: the channel's excess at the run start,
        # then per mode readout (keep w0 + s g), one run after another. Each
        # run starts from the previous run's end state, and step 0 is
        # ambient: w = 0
        table = []
        w = [0.0] * len(terms)
        for length, scale in zip(lengths, scales):
            start, pulls, ends = 0.0, [], []
            for (h, keep, g, readout), w0 in zip(terms, w):
                pull = keep * w0 + scale * g
                start += readout * w0
                pulls.append(readout * pull)
                ends.append(w0 + _grow(h, length, math.expm1) * pull)
            table += [start, *pulls]
            w = ends

        # per column of the table, its value at each bracketing step
        columns = np.array(table).take(gather)
        excess = columns[0]
        for (h, *_), column in zip(terms, columns[1:]):
            excess = excess + _grow(h, into, np.expm1) * column
        below, above = excess[:targets], excess[targets:]
        return theta_e + (below + weight * (above - below))

    return values


def _evaluator(problem: CalibrationProblem, c: _Coefficients, values: dict, segments,
               channel: str) -> Callable[[list], float]:
    """The SSE at a candidate, a list of Python floats in the order of
    problem.free that lies inside the box: objective's work after its checks.

    Built once per problem from its wall constants c, parameter values,
    runs and resolved channel, it is specialised on source mode, wall kind
    and channel, and takes once what no candidate changes: each layer's face
    count and area, the run bounds and base scales, the target values, and
    the closed form's constants (see _constant_flux_on) or, under a
    radiative source, the runs cut after the last target. Per candidate it
    computes g_s, g_l, q_s, q_l and the run scales from the final parameter
    values, with model._convective, model._absorbed and the expression of
    LightSchedule.scaled: a parameter at its problem value gives back the
    problem's float, and the order in which parameters are set does not
    matter. A bilayer candidate first has its absorptance sum checked; the
    warning points at objective's caller.
    """
    sil, lig = problem.assembly.silicone, problem.assembly.lig
    slots = [_SLOTS.index(spec.name) for spec in problem.free]
    base = [values.get(name) for name in _SLOTS]
    base_scales = [s for *_, s in segments]
    faces_s, area_s = sil.conv_faces, sil.area
    bilayer = lig is not None
    faces_l, area_l = (lig.conv_faces, lig.area) if bilayer else (None, None)
    theta_e, dt = problem.env.ambient_temperature, problem.config.dt
    times, measured = problem.target.times, problem.target.values
    radiative = problem.source.power is None
    if radiative:
        # the run need not go past the last target: it stops one step after
        # its upper bracketing step, a margin for the rounding of t / dt
        # against the recorded stamps step * dt. The runs of that shorter
        # grid are the first runs of the full one, the last one cut; the
        # guard is _integrate's
        steps = min(math.floor(times[-1] / dt) + 2, problem.config.n_steps)
        bounds = [(i0, i1) for i0, i1, _ in _segments(problem.schedule, steps, dt)]
        lig_channel = channel == "theta_L"
    else:
        flux = _constant_flux_on(segments, times, c, theta_e, dt, channel)
    inf = math.inf

    def evaluate(candidate: list) -> float:
        point = base.copy()
        for slot, value in zip(slots, candidate):
            point[slot] = value
        h_se, h_le, alpha_s, alpha_l, q_h, scale = point
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
    hitting the cap is reported through converged=False, not an error. A
    best SSE that overflows to inf is a ValidationError.

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
    if not math.isfinite(sse):
        raise ValidationError("the squared errors of the best fit overflow a float: "
                              "the target lies too far from every simulated temperature")
    rmse = math.sqrt(sse / len(problem.target.times))
    return CalibrationResult(
        values={spec.name: v for spec, v in zip(specs, fitted)},
        sse=sse, rmse=rmse, iterations=iterations, converged=converged,
        evaluations=len(sse_at) + 1)
