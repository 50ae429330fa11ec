"""Explicit time integration of the wall model under a light schedule.

The integrator is plain forward Euler, T(t + dt) = T(t) + dt * rate(T(t)),
with a hard stability guard: the step must not exceed the smallest lumped
time constant of the assembly (the thin absorber film is by far the
stiffest node). Schedule interval boundaries are snapped to the nearest
step; within a step the drive scale is the value at the step start.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import KindMismatchError, NumericalError, StabilityError, ValidationError
from .model import (
    STEFAN_BOLTZMANN,
    Environment,
    HeatSource,
    SourceMode,
    ThermalState,
    WallAssembly,
    WallKind,
    _bilayer_rates,
    _grey_body,
    _single_rate,
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
        if not (isinstance(self.record_stride, int) and self.record_stride >= 1):
            raise ValidationError(f"record_stride must be an integer >= 1, got {self.record_stride!r}")
        if not (self.metric_window > 0.0 and math.isfinite(self.metric_window)):
            raise ValidationError(f"metric_window must be finite and > 0, got {self.metric_window!r}")


@dataclass(frozen=True)
class Trajectory:
    """Recorded temperature samples, uniformly spaced dt * record_stride, as
    three columns: time stamps, silicone and lig temperatures. lig is None
    for a single-layer wall."""

    times: tuple[float, ...]
    silicone: tuple[float, ...]
    lig: tuple[float, ...] | None = None

    def __post_init__(self):
        if not self.times:
            raise ValidationError("trajectory must hold at least one sample")
        if len(self.silicone) != len(self.times) or (
                self.lig is not None and len(self.lig) != len(self.times)):
            raise ValidationError("trajectory columns must have equal lengths")
        if not all(map(operator.lt, self.times, self.times[1:])):
            raise ValidationError("trajectory time stamps must be strictly increasing")

    @property
    def kind(self) -> WallKind:
        return WallKind.SINGLE_LAYER if self.lig is None else WallKind.BILAYER

    @property
    def samples(self) -> tuple[ThermalState, ...]:
        lig = (None,) * len(self.times) if self.lig is None else self.lig
        return tuple(map(ThermalState, self.times, self.silicone, lig))

    @property
    def final(self) -> ThermalState:
        lig = None if self.lig is None else self.lig[-1]
        return ThermalState(self.times[-1], self.silicone[-1], lig)


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


def _stability_detail(assembly: WallAssembly) -> tuple[float, str]:
    sil = assembly.silicone
    if assembly.kind is WallKind.SINGLE_LAYER:
        g = convective_conductance(sil)
        if g <= 0.0:
            return math.inf, "silicone"
        return heat_capacity(sil) / g, "silicone"
    k = coupling_conductance(sil)
    tau_s = heat_capacity(sil) / (convective_conductance(sil) + k)
    tau_l = heat_capacity(assembly.lig) / (convective_conductance(assembly.lig) + k)
    if tau_l <= tau_s:
        return tau_l, "lig"
    return tau_s, "silicone"


def stability_limit(assembly: WallAssembly, env: Environment) -> float:
    """Largest safe explicit step: the smallest lumped time constant, in s.

    Each layer's time constant is its heat capacity over the total linear
    loss conductance acting on it (convection plus interlayer coupling).
    """
    return _stability_detail(assembly)[0]


def _check_step(assembly: WallAssembly, dt: float) -> None:
    """Raise StabilityError, naming the limiting layer, when dt exceeds the
    stability limit."""
    limit, limiting = _stability_detail(assembly)
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
        i0 = int(round(start / dt))
        i1 = n_steps if math.isinf(end) else int(round(end / dt))
        i0, i1 = max(i0, cursor), min(i1, n_steps)
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


def run(assembly: WallAssembly, source: HeatSource, schedule: LightSchedule,
        env: Environment, config: SimConfig,
        initial: ThermalState | None = None) -> Trajectory:
    """Integrate the wall temperatures over [0, duration].

    Starts from ambient temperature unless an explicit initial state is
    given (its time stamp is ignored; integration always starts at t = 0).
    Recording keeps every record_stride-th step, first sample at t = 0.
    Rejects dt above the stability limit, naming the limiting layer, and
    raises NumericalError at the first step whose temperatures are not
    finite and positive. Identical inputs produce bit-identical trajectories,
    equal to a chain of euler_step calls: a radiative drive takes its
    grey-body constants once per run but evaluates the floats of
    radiative_exchange.
    """
    dt = config.dt
    _check_step(assembly, dt)

    bilayer = assembly.kind is WallKind.BILAYER
    theta_e = env.ambient_temperature
    if initial is None:
        ts = tl = theta_e
    else:
        if bilayer and initial.lig_temperature is None:
            raise KindMismatchError("bilayer run needs an initial lig_temperature")
        ts = initial.silicone_temperature
        tl = initial.lig_temperature if bilayer else theta_e

    sil = assembly.silicone
    cap_s = heat_capacity(sil)
    g_s = convective_conductance(sil)
    if bilayer:
        lig = assembly.lig
        cap_l = heat_capacity(lig)
        g_l = convective_conductance(lig)
        k = coupling_conductance(sil)

    n_steps = int(math.floor(config.duration / dt + 1e-9))
    stride = config.record_stride
    constant_flux = source.mode is SourceMode.CONSTANT_FLUX
    if not constant_flux:
        th4, a_s, r_s = _grey_body(source.source_temperature, source.source_emissivity,
                                   sil.emissivity, sil.area)
        if bilayer:
            _, a_l, r_l = _grey_body(source.source_temperature, source.source_emissivity,
                                     lig.emissivity, lig.area)

    inf = math.inf
    times, sil_temps, lig_temps = [0.0], [ts], [tl]
    for i0, i1, scale in _segments(schedule, n_steps, dt):
        if constant_flux:
            q_s = absorbed_power(source, sil, scale)
            if bilayer:
                q_l = absorbed_power(source, lig, scale)
        for step in range(i0 + 1, i1 + 1):  # index of the state this update makes
            if not constant_flux:
                q_s = scale * (STEFAN_BOLTZMANN * (th4 - ts ** 4) * a_s / r_s)
                if bilayer:
                    q_l = scale * (STEFAN_BOLTZMANN * (th4 - tl ** 4) * a_l / r_l)
            if bilayer:
                d_s, d_l = _bilayer_rates(ts, tl, theta_e, q_s, q_l,
                                          g_s, g_l, k, cap_s, cap_l)
                ts = ts + dt * d_s
                tl = tl + dt * d_l
            else:
                ts = ts + dt * _single_rate(ts, theta_e, q_s, g_s, cap_s)
            if not (0.0 < ts < inf and 0.0 < tl < inf):
                raise NumericalError(
                    f"temperature became non-finite or non-positive at t={step * dt:g} s")
            if step % stride == 0:
                times.append(step * dt)
                sil_temps.append(ts)
                lig_temps.append(tl)

    return Trajectory(tuple(times), tuple(sil_temps), tuple(lig_temps) if bilayer else None)


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
    _check_step(assembly, dt)
    channel = _resolve_channel(assembly.kind, channel)
    n_steps = int(math.floor(config.duration / dt + 1e-9))

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
