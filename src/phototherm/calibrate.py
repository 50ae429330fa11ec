"""Least-squares calibration of model parameters against a measured series.

The minimizer is a bounded Levenberg-Marquardt fit on the residuals at the
target stamps, with forward-difference Jacobians and an active set for the
box bounds. Its arithmetic takes the same float operations on every machine,
so identical problems always yield identical results.
"""

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericalError, ValidationError
from .metrics import MeasurementSeries
from .model import (Environment, HeatSource, WallAssembly, _coefficients, _Coefficients,
                    _convective, _warn_absorptance_sum)
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
# an accepted step that lowers the SSE by at most this, relative to the SSE
# floored at 1, ends the fit
_REL_DECREASE_TOL = 1e-8
# the forward-difference step, relative to the box width
_DIFF_STEP = 1e-6
# the damping starts at _DAMPING, falls tenfold after an accepted step, to no
# less than _MIN_DAMPING, and rises tenfold after a rejected one; past
# _MAX_DAMPING no step lowers the SSE
_DAMPING, _MIN_DAMPING, _MAX_DAMPING = 1e-3, 1e-12, 1e16


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
        # Python floats: the fit hands them to the evaluator unconverted, and
        # a numpy scalar there would slow every radiative step (_integrate)
        for bound in ("lower", "upper", "initial"):
            object.__setattr__(self, bound, float(getattr(self, bound)))
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
    # the function objective and fit call, built once per problem (see _evaluator)
    _evaluate: Callable[[list], tuple[float, np.ndarray]] = field(
        init=False, repr=False, compare=False)

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
    """What fit found: the values at the lowest SSE it reached, and how it
    got there (see fit for the stop rule and the counts)."""

    values: dict  # fitted value per parameter name
    sse: float  # K^2
    rmse: float  # K
    iterations: int  # Levenberg-Marquardt iterations, one Jacobian each
    converged: bool  # False only when the fit stopped at _MAX_ITERATIONS
    evaluations: int  # residual evaluations, the final objective call included


def _check_applicable(name: str, assembly: WallAssembly, source: HeatSource) -> None:
    """Reject unknown names, alpha_L/h_Le without a bilayer, and Q_h and the
    absorptances without a constant-flux source: a radiative source heats
    the wall by the emissivities and reads no absorptance."""
    if name not in PARAM_RANGES:
        raise ValidationError(
            f"unknown parameter {name!r}; choose from {sorted(PARAM_RANGES)}")
    if name in ("alpha_L", "h_Le") and assembly.lig is None:
        raise ValidationError(f"{name} needs a bilayer assembly")
    if name in ("alpha_s", "alpha_L", "Q_h") and source.power is None:
        raise ValidationError(f"{name} applies to constant-flux sources only")


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


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    # numpy's pairwise sum takes the same additions on every machine, where
    # a BLAS dot may fuse its multiply-adds on one and not another
    return float(np.add.reduce(a * b))


def _evaluator(problem: CalibrationProblem, c: _Coefficients, values: dict, segments,
               channel: str) -> Callable[[list], tuple[float, np.ndarray]]:
    """The SSE and the residuals, simulated minus measured at the target
    stamps, at a candidate, a list of Python floats in the order of
    problem.free that lies inside the box: objective's and fit's work after
    objective's checks.

    Built once per problem from its wall constants c, parameter values,
    runs and resolved channel, it is specialised on source mode, wall kind
    and channel, and takes once what no candidate changes: each layer's face
    count and area, the run bounds and base scales, the target values, and
    the closed form's constants (see _constant_flux_on) or, under a
    radiative source, the runs cut after the last target. Per candidate it
    computes g_s, g_l, q_s, q_l and the run scales from the final parameter
    values, with model._convective and the expressions of _coefficients'
    absorbed powers and of LightSchedule.scaled: a parameter at its problem
    value gives back the problem's float, and the order in which parameters
    are set does not matter. A bilayer candidate first has its absorptance
    sum checked; the warning points at objective's caller, and fit
    suppresses it.
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

    def evaluate(candidate: list) -> tuple[float, np.ndarray]:
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
            return _dot(diff, diff), diff
        simulated = flux(g_s, g_l, alpha_s * q_h, alpha_l * q_h if bilayer else None,
                         [s * scale for s in base_scales])
        diff = simulated - measured
        sse = _dot(diff, diff)
        # a NaN or infinite temperature makes the SSE NaN or inf, so a finite
        # SSE leaves only the sign to test. Finite temperatures whose squared
        # errors overflow make it inf too: the full test tells them apart,
        # and they give inf
        if not (sse < inf and simulated.min() > 0.0):
            if not (simulated.min() > 0.0 and simulated.max() < inf):
                raise NumericalError("temperature became non-finite or non-positive")
        return sse, diff

    return evaluate


def objective(problem: CalibrationProblem, candidate) -> float:
    """Sum of squared sim-minus-measured temperature errors, in K^2.

    The trajectory is sampled at the target time stamps by linear
    interpolation. After checking the candidate's length and bounds, it
    calls the problem's evaluator (see _evaluator) and returns its SSE.
    Constant-flux problems evaluate the Euler iterates in closed form at
    those stamps only. Radiative ones step the wall's constants at the
    candidate up to the last target. fit's search calls the evaluator
    directly, for the residuals too, and calls objective once, at the
    fitted point.
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
    return problem._evaluate(candidate)[0]


def _solve(normal: list, rhs: list, damping: float) -> list:
    """d with (N + damping diag(N)) d = rhs for a symmetric positive
    semi-definite N with a positive diagonal, in Python floats. It solves
    the system scaled to a unit diagonal, whose other entries are at most 1
    in size, by Gaussian elimination: there damping > 0 keeps every pivot
    positive, also where N is singular but for rounding or its entries are
    subnormal."""
    n = len(rhs)
    scale = [math.sqrt(row[i]) for i, row in enumerate(normal)]
    a = [[1.0 + damping if i == j else v / scale[i] / scale[j] for j, v in enumerate(row)]
         for i, row in enumerate(normal)]
    b = [v / s for v, s in zip(rhs, scale)]
    for k in range(n):
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
            b[i] -= f * b[k]
    d = [0.0] * n
    for i in reversed(range(n)):
        v = b[i]
        for j in range(i + 1, n):
            v -= a[i][j] * d[j]
        d[i] = v / a[i][i]
    return [v / s for v, s in zip(d, scale)]


# a candidate's temperatures that leave the float range raise NumericalError
# in the evaluator: numpy's warnings on the way would only repeat it
@np.errstate(over="ignore", invalid="ignore")
def fit(problem: CalibrationProblem) -> CalibrationResult:
    """Minimize the objective by bounded Levenberg-Marquardt on the residuals.

    Each iteration takes a forward-difference Jacobian at the current point,
    one residual evaluation per parameter, stepping by _DIFF_STEP times the
    box width: up, or down from near the upper bound. A parameter sits out
    of the iteration when its column is zero or when it is at a bound and
    the gradient of the SSE points out of the box. The others take the
    damped Gauss-Newton step (J^T J + damping diag(J^T J)) d = -J^T r,
    clipped into the box. A step that does not lower the SSE is retried
    with ten times the damping; one that does is accepted. Sums are numpy's
    pairwise np.add.reduce and the solve is in Python floats, so every
    machine takes the same path.

    The fit is converged when an accepted step lowers the SSE by at most
    _REL_DECREASE_TOL relative to the new SSE floored at 1, when no
    parameter is left free, or when no damping up to _MAX_DAMPING lowers
    the SSE. It stops unconverged only after _MAX_ITERATIONS iterations;
    that is reported through converged=False, not an error. evaluations
    counts the residual evaluations and the final objective call at the
    fitted point, the one call whose absorptance-sum warning is not
    suppressed. A best SSE that overflows to inf is a ValidationError.
    """
    specs = problem.free
    lower = [s.lower for s in specs]
    upper = [s.upper for s in specs]
    evaluations = 0

    def residuals(x: list) -> tuple[float, np.ndarray]:
        nonlocal evaluations
        evaluations += 1
        return problem._evaluate(x)

    # the absorptance-sum warning is given once, at the fitted point below
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        x = [s.initial for s in specs]
        sse, r = residuals(x)
        damping = _DAMPING
        iterations = 0
        converged = False
        while not converged and iterations < _MAX_ITERATIONS:
            iterations += 1
            columns = []
            for i, (v, lo, hi) in enumerate(zip(x, lower, upper)):
                h = _DIFF_STEP * (hi - lo)
                moved = x.copy()
                moved[i] = v + h if v + h <= hi else v - h
                # a step below the rounding of v measures no effect
                columns.append((residuals(moved)[1] - r) / (moved[i] - v)
                               if moved[i] != v else np.zeros_like(r))
            gradient = [_dot(column, r) for column in columns]
            free = [i for i, (g, v) in enumerate(zip(gradient, x))
                    if _dot(columns[i], columns[i]) > 0.0
                    and not (v == lower[i] and g > 0.0 or v == upper[i] and g < 0.0)]
            normal = [[_dot(columns[i], columns[j]) for j in free] for i in free]
            converged = True  # unless an accepted step lowers the SSE by more
            while free and damping <= _MAX_DAMPING:
                step = _solve(normal, [-gradient[i] for i in free], damping)
                trial = x.copy()
                for i, d in zip(free, step):
                    trial[i] = min(upper[i], max(lower[i], x[i] + d))
                if trial != x:
                    trial_sse, trial_r = residuals(trial)
                    if trial_sse < sse:
                        converged = sse - trial_sse <= _REL_DECREASE_TOL * max(1.0, trial_sse)
                        x, sse, r = trial, trial_sse, trial_r
                        damping = max(_MIN_DAMPING, 0.1 * damping)
                        break
                elif all(x[i] + d == x[i] for i, d in zip(free, step)):
                    break  # below the rounding of x, as is every more damped step
                damping *= 10.0

    sse = objective(problem, x)
    if not math.isfinite(sse):
        raise ValidationError("the squared errors of the best fit overflow a float: "
                              "the target lies too far from every simulated temperature")
    rmse = math.sqrt(sse / len(problem.target.times))
    return CalibrationResult(
        values={spec.name: v for spec, v in zip(specs, x)},
        sse=sse, rmse=rmse, iterations=iterations, converged=converged,
        evaluations=evaluations + 1)
