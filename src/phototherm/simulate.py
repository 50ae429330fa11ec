"""Explicit time integration of the wall model under a light schedule.

The integrator is plain forward Euler, T(t + dt) = T(t) + dt * rate(T(t)),
with a hard stability guard: the step must not exceed the smallest lumped
time constant of the assembly (the thin absorber film is by far the
stiffest node). Schedule interval boundaries are snapped to the nearest
step; within a step the drive scale is the value at the step start.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import KindMismatchError, NumericalError, StabilityError, ValidationError
from .model import (
    STEFAN_BOLTZMANN,
    Environment,
    HeatSource,
    SourceMode,
    ThermalLayer,
    ThermalState,
    WallAssembly,
    WallKind,
    _grey_body,
    absorbed_power,
    convective_conductance,
    coupling_conductance,
    heat_capacity,
    rhs_bilayer,
    rhs_single,
)


@dataclass(frozen=True)
class LightSchedule:
    """Piecewise-constant drive schedule.

    intervals is a sorted, non-overlapping list of (start_s, end_s, scale)
    with scale >= 0 multiplying the source power. Gaps between intervals
    mean the light is off (scale 0); an empty schedule keeps it off for the
    whole run. The last interval may end at infinity.
    """

    intervals: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self):
        cleaned = tuple((float(s), float(e), float(sc)) for s, e, sc in self.intervals)
        object.__setattr__(self, "intervals", cleaned)
        prev_end = 0.0
        for start, end, scale in cleaned:
            if not (start >= 0.0 and math.isfinite(start)):
                raise ValidationError(f"interval start must be finite and >= 0, got {start!r}")
            if not end > start:
                raise ValidationError(f"interval ({start}, {end}) must have start < end")
            if math.isnan(end):
                raise ValidationError("interval end must not be NaN")
            if start < prev_end:
                raise ValidationError("intervals must be sorted and non-overlapping")
            if not (scale >= 0.0 and math.isfinite(scale)):
                raise ValidationError(f"interval scale must be finite and >= 0, got {scale!r}")
            prev_end = end

    @classmethod
    def always_on(cls, scale: float = 1.0) -> "LightSchedule":
        return cls(intervals=((0.0, math.inf, scale),))

    @classmethod
    def off(cls) -> "LightSchedule":
        return cls(intervals=())

    def scale_at(self, t: float) -> float:
        """Drive scale at time t under the continuous-time rule: intervals
        are half-open [start, end).

        `run` does not call this. It snaps each interval boundary to the
        nearest step of the grid and holds the scale of the step start for
        the whole step, so near a boundary that falls between steps the
        stepped drive can differ from this lookup.
        """
        for start, end, scale in self.intervals:
            if start <= t < end:
                return scale
        return 0.0

    def scaled(self, factor: float) -> "LightSchedule":
        """New schedule with every interval scale multiplied by factor."""
        if not (factor >= 0.0 and math.isfinite(factor)):
            raise ValidationError(f"scale factor must be finite and >= 0, got {factor!r}")
        return LightSchedule(tuple((s, e, sc * factor) for s, e, sc in self.intervals))


@dataclass(frozen=True)
class SimConfig:
    """Integration settings."""

    duration: float  # s
    dt: float = 0.01  # s
    record_stride: int = 1  # keep every Nth step
    metric_window: float = 300.0  # s, "final value" window used downstream

    def __post_init__(self):
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValidationError(f"dt must be finite and > 0, got {self.dt!r}")
        if not (self.duration > 0.0 and math.isfinite(self.duration)):
            raise ValidationError(f"duration must be finite and > 0, got {self.duration!r}")
        if self.duration < self.dt:
            raise ValidationError("duration must be at least dt")
        if not math.isfinite(self.duration / self.dt):
            raise ValidationError(
                f"duration / dt must be finite, got {self.duration!r} / {self.dt!r}")
        if not (isinstance(self.record_stride, int) and self.record_stride >= 1):
            raise ValidationError(f"record_stride must be an integer >= 1, got {self.record_stride!r}")
        if not (self.metric_window > 0.0 and math.isfinite(self.metric_window)):
            raise ValidationError(f"metric_window must be finite and > 0, got {self.metric_window!r}")

    @property
    def n_steps(self) -> int:
        """Number of steps of length dt within duration."""
        return int(math.floor(self.duration / self.dt + 1e-9))


def _column(values) -> np.ndarray:
    """values as a new read-only float64 array, so that later changes to
    the caller's list or array do not reach it."""
    column = np.array(values, dtype=np.float64)
    column.flags.writeable = False
    return column


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded temperature samples, uniformly spaced dt * record_stride, as
    three read-only float64 columns: time stamps, silicone and lig
    temperatures. lig is None for a single-layer wall."""

    times: np.ndarray
    silicone: np.ndarray
    lig: np.ndarray | None = None

    def __post_init__(self):
        times = _column(self.times)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "silicone", _column(self.silicone))
        if self.lig is not None:
            object.__setattr__(self, "lig", _column(self.lig))
        if not len(times):
            raise ValidationError("trajectory must hold at least one sample")
        if len(self.silicone) != len(times) or (
                self.lig is not None and len(self.lig) != len(times)):
            raise ValidationError("trajectory columns must have equal lengths")
        if not (times[1:] > times[:-1]).all():
            raise ValidationError("trajectory time stamps must be strictly increasing")

    @property
    def kind(self) -> WallKind:
        return WallKind.SINGLE_LAYER if self.lig is None else WallKind.BILAYER

    @property
    def samples(self) -> tuple[ThermalState, ...]:
        lig = (None,) * len(self.times) if self.lig is None else self.lig.tolist()
        return tuple(map(ThermalState, self.times.tolist(), self.silicone.tolist(), lig))

    @property
    def final(self) -> ThermalState:
        lig = None if self.lig is None else float(self.lig[-1])
        return ThermalState(float(self.times[-1]), float(self.silicone[-1]), lig)


def _resolve_channel(kind: WallKind, channel: str) -> str:
    """Channel name as "theta_s" or "theta_L". "auto" picks the liquid-contact
    surface: the absorber film when present, otherwise the silicone wall."""
    if channel == "auto":
        return "theta_L" if kind is WallKind.BILAYER else "theta_s"
    if channel not in ("theta_s", "theta_L"):
        raise KindMismatchError(f"unknown trajectory channel {channel!r}")
    if channel == "theta_L" and kind is not WallKind.BILAYER:
        raise KindMismatchError("single-layer trajectory has no lig channel")
    return channel


def _stability_detail(assembly: WallAssembly, source: HeatSource, start_max: float,
                      scale: float) -> tuple[float, str]:
    """Smallest lumped time constant and the layer that sets it, for a run
    that starts at or below start_max and drives at scales up to scale.

    A layer's time constant is its heat capacity over its loss conductance:
    convection, interlayer coupling and, under a radiative source, the
    largest slope of the drive, scale * 4 sigma T^3 A / (1/eps_src +
    1/eps_layer - 1) at T = max(start_max, source temperature). Within the
    limit every entry of the step's Jacobian M = I + dt A is >= 0, so each
    step is a monotone map and the temperatures stay between the coldest
    and hottest of ambient, start and source. In the linear case
    Gershgorin puts every eigenvalue of A within k/C of -(g + k)/C, so
    dt |lambda| <= (g + 2k)/(g + k) < 2.
    """
    def loss(layer: ThermalLayer) -> float:
        g = convective_conductance(layer)
        if source.mode is SourceMode.CONSTANT_FLUX:
            return g
        _, area, resistance = _grey_body(source.source_temperature, source.source_emissivity,
                                         layer.emissivity, layer.area)
        if not scale:
            return g
        hottest = max(start_max, source.source_temperature)
        try:
            cube = hottest ** 3
        except OverflowError:  # a conductance beyond any float: no step is stable
            cube = math.inf
        return g + scale * (4.0 * STEFAN_BOLTZMANN * cube * area / resistance)

    sil = assembly.silicone
    if assembly.kind is WallKind.SINGLE_LAYER:
        g = loss(sil)
        if g <= 0.0:
            return math.inf, "silicone"
        return heat_capacity(sil) / g, "silicone"
    k = coupling_conductance(sil)
    tau_s = heat_capacity(sil) / (loss(sil) + k)
    tau_l = heat_capacity(assembly.lig) / (loss(assembly.lig) + k)
    if tau_l <= tau_s:
        return tau_l, "lig"
    return tau_s, "silicone"


def stability_limit(assembly: WallAssembly, source: HeatSource, env: Environment) -> float:
    """Largest safe explicit step, in s, for a run from ambient at drive
    scale 1: the smallest lumped time constant (see _stability_detail)."""
    return _stability_detail(assembly, source, env.ambient_temperature, 1.0)[0]


def _check_step(assembly: WallAssembly, source: HeatSource, dt: float,
                start_max: float, scale: float) -> None:
    """Raise StabilityError, naming the limiting layer, when dt exceeds the
    stability limit."""
    limit, limiting = _stability_detail(assembly, source, start_max, scale)
    if dt > limit:
        raise StabilityError(
            f"dt={dt:g} s exceeds the stability limit {limit:.6g} s "
            f"set by the {limiting} layer", limit, limiting)


def euler_step(state: ThermalState, assembly: WallAssembly, source: HeatSource,
               env: Environment, scale: float, dt: float) -> ThermalState:
    """One forward-Euler step of length dt."""
    if not dt > 0.0:
        raise ValidationError(f"dt must be > 0, got {dt!r}")
    if assembly.kind is WallKind.SINGLE_LAYER:
        rate = rhs_single(state, assembly, source, env, scale)
        return ThermalState(state.time + dt,
                            state.silicone_temperature + dt * rate)
    d_s, d_l = rhs_bilayer(state, assembly, source, env, scale)
    return ThermalState(state.time + dt,
                        state.silicone_temperature + dt * d_s,
                        state.lig_temperature + dt * d_l)


def _segments(schedule: LightSchedule, n_steps: int, dt: float):
    """Schedule as contiguous (start_step, end_step, scale) runs over [0, n)."""
    runs = []
    cursor = 0
    for start, end, scale in schedule.intervals:
        # clamp to the grid before rounding: a finite end such as 1e308 s
        # over a small dt is an infinite step index
        i0 = max(round(min(start / dt, n_steps)), cursor)
        i1 = round(min(end / dt, n_steps))
        if i1 <= i0:
            continue
        if i0 > cursor:
            runs.append((cursor, i0, 0.0))
        runs.append((i0, i1, scale))
        cursor = i1
        if cursor >= n_steps:
            break
    if cursor < n_steps:
        runs.append((cursor, n_steps, 0.0))
    return runs


def _diverged(step: int, dt: float) -> NumericalError:
    return NumericalError(
        f"temperature became non-finite or non-positive at t={step * dt:g} s")


def run(assembly: WallAssembly, source: HeatSource, schedule: LightSchedule,
        env: Environment, config: SimConfig,
        initial: ThermalState | None = None) -> Trajectory:
    """Integrate the wall temperatures over [0, duration].

    Starts from ambient temperature unless an explicit initial state is
    given (its time stamp is ignored; integration always starts at t = 0).
    Recording keeps every record_stride-th step, first sample at t = 0.
    Rejects dt above the stability limit of this start and schedule,
    naming the limiting layer, and raises NumericalError at the first step
    whose temperatures are not finite and positive or whose radiative drive
    overflows a float. Identical inputs produce bit-identical trajectories,
    equal to a chain of euler_step calls: a radiative drive takes its
    grey-body constants once per run but evaluates the floats of
    radiative_exchange.
    """
    bilayer = assembly.kind is WallKind.BILAYER
    theta_e = env.ambient_temperature
    if initial is None:
        ts = tl = theta_e
    else:
        if bilayer and initial.lig_temperature is None:
            raise KindMismatchError("bilayer run needs an initial lig_temperature")
        ts = initial.silicone_temperature
        tl = initial.lig_temperature if bilayer else theta_e

    dt, n_steps = config.dt, config.n_steps
    segments = _segments(schedule, n_steps, dt)
    _check_step(assembly, source, dt, max(theta_e, ts, tl),
                max(scale for _, _, scale in segments))

    sil = assembly.silicone
    cap_s = heat_capacity(sil)
    g_s = convective_conductance(sil)
    if bilayer:
        lig = assembly.lig
        cap_l = heat_capacity(lig)
        g_l = convective_conductance(lig)
        k = coupling_conductance(sil)

    stride = config.record_stride
    radiative = source.mode is SourceMode.RADIATIVE_BODY
    if radiative:
        th4, a_s, r_s = _grey_body(source.source_temperature, source.source_emissivity,
                                   sil.emissivity, sil.area)
        if bilayer:
            _, a_l, r_l = _grey_body(source.source_temperature, source.source_emissivity,
                                     lig.emissivity, lig.area)

    # one straight-line loop body per wall kind and source mode: the float
    # operations of rhs_single/rhs_bilayer and radiative_exchange, in order
    sigma, inf = STEFAN_BOLTZMANN, math.inf
    sil_temps, lig_temps = [ts], [tl]
    keep_s, keep_l = sil_temps.append, lig_temps.append
    try:
        for i0, i1, scale in segments:
            steps = range(i0 + 1, i1 + 1)  # index of the state each update makes
            if not bilayer:
                if not radiative:
                    q_s = absorbed_power(source, sil, scale)
                for step in steps:
                    if radiative:
                        q_s = scale * (sigma * (th4 - ts ** 4) * a_s / r_s)
                    ts = ts + dt * ((q_s - g_s * (ts - theta_e)) / cap_s)
                    if not 0.0 < ts < inf:
                        raise _diverged(step, dt)
                    if step % stride == 0:
                        keep_s(ts)
            elif radiative:
                for step in steps:
                    q_ls = k * (tl - ts)
                    ts = ts + dt * ((scale * (sigma * (th4 - ts ** 4) * a_s / r_s)
                                     - g_s * (ts - theta_e) + q_ls) / cap_s)
                    tl = tl + dt * ((scale * (sigma * (th4 - tl ** 4) * a_l / r_l)
                                     - g_l * (tl - theta_e) - q_ls) / cap_l)
                    if not (0.0 < ts < inf and 0.0 < tl < inf):
                        raise _diverged(step, dt)
                    if step % stride == 0:
                        keep_s(ts)
                        keep_l(tl)
            else:
                q_s = absorbed_power(source, sil, scale)
                q_l = absorbed_power(source, lig, scale)
                for step in steps:
                    q_ls = k * (tl - ts)
                    ts = ts + dt * ((q_s - g_s * (ts - theta_e) + q_ls) / cap_s)
                    tl = tl + dt * ((q_l - g_l * (tl - theta_e) - q_ls) / cap_l)
                    if not (0.0 < ts < inf and 0.0 < tl < inf):
                        raise _diverged(step, dt)
                    if step % stride == 0:
                        keep_s(ts)
                        keep_l(tl)
    except OverflowError:  # T ** 4 of a temperature beyond the float range
        raise _diverged(step, dt) from None

    # the recorded steps are 0, stride, 2 stride, ...: the same floats as step * dt
    times = np.arange(0, n_steps + 1, stride) * dt
    return Trajectory(times, sil_temps, lig_temps if bilayer else None)


def _constant_flux_at(assembly: WallAssembly, source: HeatSource,
                      schedule: LightSchedule, env: Environment,
                      config: SimConfig, times, channel: str) -> np.ndarray:
    """One channel of the trajectory `run` would record from ambient under a
    constant-flux source, linearly interpolated at the strictly increasing
    times (clamped to the recorded span, like np.interp), without stepping.

    In excess temperatures x = theta - theta_e one Euler step is the affine
    map x -> M x + dt f with M = I + dt A. A is similar to the symmetric
    S = D^{1/2} A D^{-1/2}, D = diag(C). In the modes w = Q^T D^{1/2} x of
    S = Q diag(lam) Q^T a step is w -> mu w + dt b with mu = 1 + dt lam, so
    m steps from w0 give exactly
        w_m = mu^m w0 + dt b (1 - mu^m) / (1 - mu),
    with the geometric factor read as m where mu = 1 (no loss path). Only
    the grid steps bracketing each target are evaluated: the cost is
    O(segments + targets), not O(steps), and the values match stepping to
    rounding (the tests hold every target to 1e-9 K).

    run's per-step NumericalError cannot fire here: under the stability
    guard M >= 0 entrywise, the drive is >= 0 and the start is ambient, so
    every iterate stays >= theta_e. The closing check catches overflow only.
    """
    dt = config.dt
    _check_step(assembly, source, dt, env.ambient_temperature, 1.0)
    channel = _resolve_channel(assembly.kind, channel)
    n_steps = config.n_steps

    sil = assembly.silicone
    cap_s, g_s = heat_capacity(sil), convective_conductance(sil)
    q_s = absorbed_power(source, sil)
    if assembly.kind is WallKind.SINGLE_LAYER:
        lam = np.array([-g_s / cap_s])
        drive = np.array([q_s / cap_s])
        readout = np.array([1.0])
    else:
        lig = assembly.lig
        cap_l, g_l = heat_capacity(lig), convective_conductance(lig)
        k = coupling_conductance(sil)
        q_l = absorbed_power(source, lig)
        # S = [[a, c], [c, d]]; its eigenpairs in closed form
        a, d = -(g_s + k) / cap_s, -(g_l + k) / cap_l
        c = k / math.sqrt(cap_s * cap_l)
        lam_fast = 0.5 * (a + d) - math.hypot(0.5 * (a - d), c)
        # det S from the conductances avoids the cancellation in a*d - c*c
        lam_slow = (g_s * g_l + k * (g_s + g_l)) / (cap_s * cap_l) / lam_fast
        # Q = [[cos, -sin], [sin, cos]], columns ordered (slow, fast)
        phi = 0.5 * math.atan2(2.0 * c, a - d)
        cos, sin = math.cos(phi), math.sin(phi)
        f_s, f_l = q_s / math.sqrt(cap_s), q_l / math.sqrt(cap_l)  # D^{1/2} f
        lam = np.array([lam_slow, lam_fast])
        drive = np.array([cos * f_s + sin * f_l, cos * f_l - sin * f_s])
        if channel == "theta_s":
            readout = np.array([cos, -sin]) / math.sqrt(cap_s)
        else:
            readout = np.array([sin, cos]) / math.sqrt(cap_l)
    mu = 1.0 + dt * lam
    # dt b (1 - mu^m) / (1 - mu) = (1 - mu^m) gain + m ramp: where mu = 1 (no
    # loss path) the first term is 0 and the second is the limit m dt b
    flat = mu == 1.0
    gain = dt * drive / (1.0 - mu + flat)
    ramp = dt * drive * flat

    def advance(w0, m, scale):
        """Mode states m steps on from w0 under a constant drive scale."""
        power = mu ** m
        return power * w0 + scale * ((1.0 - power) * gain + m * ramp)

    # run r covers steps (start, end]; its start state is the previous run's end
    runs = np.array(_segments(schedule, n_steps, dt))
    starts, ends, scales = runs.T
    w_start = np.zeros((len(runs), lam.size))  # step 0 is ambient: w = 0
    for r in range(1, len(runs)):
        w_start[r] = advance(w_start[r - 1], ends[r - 1] - starts[r - 1], scales[r - 1])

    # bracketing grid steps (lower, lower + 1) and the weight of the upper one
    t = np.asarray(times, dtype=float) / dt
    lower = np.minimum(np.maximum(np.floor(t), 0.0), n_steps - 1)
    weight = np.minimum(np.maximum(t - lower, 0.0), 1.0)
    steps = np.concatenate((lower, lower + 1.0))
    r = np.searchsorted(ends, steps)
    w = advance(w_start[r], (steps - starts[r])[:, None], scales[r, None])

    excess = w @ readout
    below, above = excess[:lower.size], excess[lower.size:]
    values = env.ambient_temperature + (below + weight * (above - below))
    if not (np.isfinite(values).all() and (values > 0.0).all()):
        raise NumericalError("temperature became non-finite or non-positive")
    return values
