"""Explicit time integration of the wall model under a light schedule.

The integrator is plain forward Euler, T(t + dt) = T(t) + dt * rate(T(t)),
with a hard stability guard: the step must not exceed the smallest lumped
time constant of the assembly (the thin absorber film is by far the
stiffest node). Schedule interval boundaries are snapped to the nearest
step; within a step the drive scale is the value at the step start.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, StabilityError, ValidationError
from .model import (
    STEFAN_BOLTZMANN,
    Environment,
    HeatSource,
    WallAssembly,
    _coefficients,
    _Coefficients,
    _require,
)

# run holds 8 B per recorded sample and column, plus at most 2 * _BLOCK
# Python floats per column in its kept lists. The cap allows 100 B per
# sample of a 1 GiB budget: which runs it rejects is part of run's contract
_RECORD_BUDGET_BYTES = 2 ** 30
_MAX_SAMPLES = _RECORD_BUDGET_BYTES // 100
# at the 80-430 ns per step measured on a 2-vCPU VM (the radiative bilayer
# body is the slowest), about 1.5-7 minutes of stepping
_MAX_STEPS = 10 ** 9
# run tests for divergence once per block of this many steps, while its
# a-priori temperature bounds lie less than this factor apart (_block_size)
_BLOCK = 1024
_BOUND_RATIO = 2.0 ** 12


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
            if start < prev_end:
                raise ValidationError("intervals must be sorted and non-overlapping")
            if not (scale >= 0.0 and math.isfinite(scale)):
                raise ValidationError(f"interval scale must be finite and >= 0, got {scale!r}")
            prev_end = end

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


def _resolve_channel(bilayer: bool, channel: str) -> str:
    """Channel name as "theta_s" or "theta_L". "auto" picks the liquid-contact
    surface: the absorber film when present, otherwise the silicone wall."""
    if channel == "auto":
        return "theta_L" if bilayer else "theta_s"
    if channel not in ("theta_s", "theta_L"):
        raise ValidationError(f"unknown trajectory channel {channel!r}")
    if channel == "theta_L" and not bilayer:
        raise ValidationError("single-layer trajectory has no lig channel")
    return channel


def _time_constant(c: _Coefficients, start_max: float, scale: float) -> tuple[float, str]:
    """Smallest lumped time constant of a wall with the constants c, and
    the layer that sets it, for a run that starts at or below start_max and
    drives at scales up to scale.

    A layer's time constant is its heat capacity over its loss conductance:
    convection, interlayer coupling and, under a radiative source, the
    largest slope of the drive, scale * 4 sigma T^3 A / (1/eps_src +
    1/eps_layer - 1) at T = max(start_max, source temperature). Within the
    limit every entry of the step's Jacobian M = I + dt A is >= 0, so each
    step is a monotone map and, up to rounding, the temperatures stay
    between the coldest and hottest of ambient, start and source (see
    _block_size for what rounding can do). In the linear case
    Gershgorin puts every eigenvalue of A within k/C of -(g + k)/C, so
    dt |lambda| <= (g + 2k)/(g + k) < 2.
    """
    def loss(g: float, area: float | None, resistance: float | None) -> float:
        if c.th4 is None or not scale:  # a constant flux, or the light off
            return g
        hottest = max(start_max, c.theta_h)
        try:
            cube = hottest ** 3
        except OverflowError:  # a conductance beyond any float: no step is stable
            cube = math.inf
        return g + scale * (4.0 * STEFAN_BOLTZMANN * cube * area / resistance)

    if c.k is None:
        g = loss(c.g_s, c.a_s, c.r_s)
        if g <= 0.0:
            return math.inf, "silicone"
        return c.cap_s / g, "silicone"
    tau_s = c.cap_s / (loss(c.g_s, c.a_s, c.r_s) + c.k)
    tau_l = c.cap_l / (loss(c.g_l, c.a_l, c.r_l) + c.k)
    if tau_l <= tau_s:
        return tau_l, "lig"
    return tau_s, "silicone"


def stability_limit(assembly: WallAssembly, source: HeatSource, env: Environment) -> float:
    """Largest safe explicit step, in s, for a run from ambient at drive
    scale 1: the smallest lumped time constant (see _time_constant)."""
    return _time_constant(_coefficients(assembly, source), env.ambient_temperature, 1.0)[0]


def _check_step(c: _Coefficients, dt: float, start_max: float, scale: float) -> None:
    """Raise StabilityError, naming the limiting layer, when dt exceeds the
    stability limit of a wall with these constants."""
    limit, limiting = _time_constant(c, start_max, scale)
    if dt > limit:
        raise StabilityError(
            f"dt={dt:g} s exceeds the stability limit {limit:.6g} s "
            f"set by the {limiting} layer", limit, limiting)


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


def _block_size(c: _Coefficients, theta_e: float, ts: float, tl: float, scale: float,
                duration: float) -> int:
    """_BLOCK, or 1 when run must test every step for divergence.

    Under the guard each step is a monotone map whose matrix is >= 0 with
    row sums <= 1, so no iterate leaves a-priori bounds. The coldest is the
    coldest of ambient, start and a radiative source. The hottest is the
    hottest of those three under a radiative source. Under a constant flux
    it is the hottest of ambient and start plus the rise the drive allows:
    a node gains at most dt * scale * q / C per step, and with every g > 0
    no node passes its loss balance scale * q / g. A step rounds by a few
    ulp of the hottest bound, so over at most _MAX_STEPS < 2**30 steps the
    rounding stays far below the coldest bound while the two lie less than
    _BOUND_RATIO = 2**52 / 2**40 apart. Farther apart, a node can round to
    <= 0 K and recover within a block, so the block test would miss it. A
    NaN bound also picks 1.
    """
    coldest, hottest = min(theta_e, ts, tl), max(theta_e, ts, tl)
    if c.th4 is not None:
        coldest, hottest = min(coldest, c.theta_h), max(hottest, c.theta_h)
    else:
        nodes = [(c.q_s, c.cap_s, c.g_s)]
        if c.k is not None:
            nodes.append((c.q_l, c.cap_l, c.g_l))
        rise = duration * scale * max(q / cap for q, cap, _ in nodes)
        if all(g > 0.0 for _, _, g in nodes):
            rise = min(rise, scale * max(q / g for q, _, g in nodes))
        hottest += rise
    return _BLOCK if hottest < _BOUND_RATIO * coldest else 1


def _normal(value: float, what: str, advice: str) -> float:
    """value, once it is a normal float; otherwise a ValidationError naming
    what it is."""
    if not sys.float_info.min <= value < math.inf:
        raise ValidationError(f"{what} = {value:g} is not a normal float; {advice}")
    return value


def _per_step(c: _Coefficients, dt: float, lowest: float) -> list[tuple[float, float, float]]:
    """Per layer, silicone first, the per-step coefficients (drive, loss,
    coupling) of a radiative run with the constants c and the step dt: the
    layer's grey-body constant sigma A / R, its convective conductance g
    and the coupling k (0 on a single layer), each times the layer's step
    factor dt / C. A step adds rad (th4 - T^4) - loss (T - theta_e) +-
    coupling (T_lig - T_sil) to a node, with rad = scale * drive taken once
    per segment.

    A product of normal floats is rounded once, and is exact to half an
    ulp, only while it is a normal float too: below the smallest one it
    loses digits or is 0. So sigma A / R, dt / C or a drive that is not a
    normal float, a positive g or k whose coefficient is not, and a drive
    whose product with lowest, the smallest positive scale, is below the
    smallest normal float, are each a ValidationError. A g of 0 (no
    convecting face) gives a loss of exactly 0.
    """
    layers = [("silicone", c.a_s, c.r_s, c.cap_s, c.g_s)]
    if c.k is not None:
        layers.append(("lig", c.a_l, c.r_l, c.cap_l, c.g_l))
    folded = []
    for layer, area, resistance, cap, g in layers:
        the = f"the {layer} layer's"
        unit = _normal(STEFAN_BOLTZMANN * area / resistance,
                       f"{the} grey-body constant sigma * area / resistance (W/K^4)",
                       "raise its area or the emissivities")
        step = _normal(dt / cap, f"{the} step factor dt / C (s K/J)",
                       "change dt or its heat capacity")
        drive = _normal(unit * step, f"{the} per-step drive coefficient dt sigma A / (R C) "
                        "(1/K^3)", "raise dt, its area or the emissivities")
        if lowest * drive < sys.float_info.min:
            raise ValidationError(
                f"drive scale {lowest:g} times {the} per-step drive coefficient "
                f"{drive:g} 1/K^3 is below the smallest normal float; raise the scale "
                "or set it to 0")
        loss, coupling = g * step, (c.k or 0.0) * step
        if g:
            _normal(loss, f"{the} per-step loss coefficient dt g / C",
                    "raise dt or its convection coefficient, or set its conv_faces to 0")
        if c.k:
            _normal(coupling, f"{the} per-step coupling coefficient dt k / C",
                    "raise dt or the silicone conductivity")
        folded.append((drive, loss, coupling))
    return folded


def _diverged(step: int, dt: float) -> NumericalError:
    return NumericalError(
        f"temperature became non-finite or non-positive at t={step * dt:g} s")


def run(assembly: WallAssembly, source: HeatSource, schedule: LightSchedule,
        env: Environment, config: SimConfig,
        start: tuple[float, float | None] | None = None) -> Trajectory:
    """Integrate the wall temperatures over the config's n_steps whole
    steps of dt, so up to t = n_steps * dt, which may fall short of duration.

    Starts at t = 0 from ambient temperature, or from start = (ts, tl) in K:
    each finite and > 0, tl None on a single layer and given on a bilayer.
    Recording keeps every record_stride-th step, first sample at t = 0.
    Before it steps or records, it rejects a run that would record more
    than _MAX_SAMPLES samples (a 1 GiB budget) or take more than _MAX_STEPS
    steps. It rejects dt above the stability limit of this start and
    schedule, naming the limiting layer, and a radiative run whose per-step
    coefficients are not normal floats (_per_step). It raises
    NumericalError at the first step whose temperatures are not finite and
    positive or whose radiative drive overflows a float. Identical inputs
    produce bit-identical trajectories; tests/reference_stepper.py steps
    the same floats one forward-Euler step at a time.
    """
    theta_e = env.ambient_temperature
    ts = tl = theta_e
    if start is not None:
        ts, lig_start = start
        _require(math.isfinite(ts) and ts > 0.0, "silicone_temperature must be strictly positive")
        _require(lig_start is None or math.isfinite(lig_start) and lig_start > 0.0,
                 "lig_temperature must be strictly positive")
        if assembly.lig is None:
            _require(lig_start is None, "single-layer run takes no initial lig_temperature")
        else:
            _require(lig_start is not None, "bilayer run needs an initial lig_temperature")
            tl = lig_start
    dt, n_steps = config.dt, config.n_steps
    return _integrate(_coefficients(assembly, source), _segments(schedule, n_steps, dt),
                      theta_e, ts, tl, dt, n_steps, config.record_stride)


def _check_step_count(dt: float, n_steps: int) -> None:
    if n_steps > _MAX_STEPS:
        raise ValidationError(
            f"dt={dt:g} s would take {n_steps:.4g} steps, more than the {_MAX_STEPS:.0e} "
            "a run may take; raise dt")


def _integrate(c: _Coefficients, segments, theta_e: float, ts: float, tl: float,
               dt: float, n_steps: int, stride: int) -> Trajectory:
    """`run` for a wall with the constants c, from silicone and lig start
    temperatures ts and tl (tl is ambient on a single layer), over the
    (start_step, end_step, scale) runs of `_segments` that cover [0,
    n_steps). The wall kind and source mode are those of c. It makes every
    check `run` lists. Each scale must be a Python float: a numpy float64
    in the loop bodies makes every step several times slower."""
    samples = n_steps // stride + 1
    if samples > _MAX_SAMPLES:
        raise ValidationError(
            f"dt={dt:g} s and record_stride={stride} would record {samples:.4g} samples, "
            f"more than the {_MAX_SAMPLES} that fit the {_RECORD_BUDGET_BYTES // 2 ** 20} MiB "
            "recording budget; raise dt or record_stride")
    _check_step_count(dt, n_steps)
    max_scale = max(scale for _, _, scale in segments)
    _check_step(c, dt, max(theta_e, ts, tl), max_scale)
    first_block = _block_size(c, theta_e, ts, tl, max_scale, n_steps * dt)
    cap_s, cap_l, g_s, g_l, k, th4 = c.cap_s, c.cap_l, c.g_s, c.g_l, c.k, c.th4
    bilayer, radiative = k is not None, th4 is not None
    if radiative:
        lowest = min((scale for _, _, scale in segments if scale), default=1.0)
        folded = _per_step(c, dt, lowest)
        drive_s, loss_s, cpl_s = folded[0]
        if bilayer:
            drive_l, loss_l, cpl_l = folded[1]

    # one straight-line loop body per wall kind and source mode. Under a
    # constant flux each node gains dt * (q - g (T - theta_e) +- k (T_lig -
    # T_sil)) / C. Under a radiative source the step factor dt / C is folded
    # into per-run coefficients (_per_step), and a node gains rad (th4 -
    # T^4) - loss (T - theta_e) +- coupling d, with d = T_lig - T_sil taken
    # once per step and rad = scale * drive once per segment: no division
    # in the step. The three differences stay, so a wall at ambient with
    # the light off gains exactly 0, whatever the ambient.
    # T ** 4.0 is the float T ** 4 would give (an int exponent becomes 4.0
    # for the same libm pow, with the same OverflowError), minus the
    # conversion on every step. A body steps a block of up to _BLOCK steps
    # and appends the steps its flags mark, the multiples of stride, to the
    # kept lists. Once a block passes its divergence test and the lists
    # hold _BLOCK samples, or the run is done, they are copied into the
    # columns at `recorded` and emptied. A copy after every block would
    # double the cost of a step where _block_size gives 1
    inf = math.inf
    sil = np.empty(samples)
    lig = np.empty(samples) if bilayer else None
    kept_s, kept_l = [ts], [tl]
    keep_s, keep_l = kept_s.append, kept_l.append
    recorded = 0
    for i0, i1, scale in segments:
        if radiative:
            rad_s = scale * drive_s
            if bilayer:
                rad_l = scale * drive_l
        else:
            q_s = c.q_s * scale
            if bilayer:
                q_l = c.q_l * scale
        done, block = i0, first_block
        while done < i1:
            n = min(block, i1 - done)
            start = ts, tl
            flags = [False] * n
            first = stride - 1 - done % stride  # flag of the first multiple of stride
            flags[first::stride] = (True,) * len(range(first, n, stride))
            mark = len(kept_s)
            try:
                if not bilayer:
                    for keep in flags:
                        if radiative:
                            ts = ts + (rad_s * (th4 - ts ** 4.0) - loss_s * (ts - theta_e))
                        else:
                            ts = ts + dt * ((q_s - g_s * (ts - theta_e)) / cap_s)
                        if keep:
                            keep_s(ts)
                elif radiative:
                    for keep in flags:
                        d = tl - ts
                        ts = ts + (rad_s * (th4 - ts ** 4.0) - loss_s * (ts - theta_e)
                                   + cpl_s * d)
                        tl = tl + (rad_l * (th4 - tl ** 4.0) - loss_l * (tl - theta_e)
                                   - cpl_l * d)
                        if keep:
                            keep_s(ts)
                            keep_l(tl)
                else:
                    for keep in flags:
                        q_ls = k * (tl - ts)
                        ts = ts + dt * ((q_s - g_s * (ts - theta_e) + q_ls) / cap_s)
                        tl = tl + dt * ((q_l - g_l * (tl - theta_e) - q_ls) / cap_l)
                        if keep:
                            keep_s(ts)
                            keep_l(tl)
                # in a block of more than one step no rounding can carry an
                # iterate to <= 0 K and back (_block_size), so a failed test
                # means an overflow, and it lasts to the block's end: +-inf
                # turns NaN on the next step, and NaN is absorbing
                failed = not (0.0 < ts < inf and 0.0 < tl < inf)
            except OverflowError:  # T ** 4 of a temperature beyond the float range
                failed = True
            if not failed:
                done += n
                if len(kept_s) >= _BLOCK or done == n_steps:
                    after = recorded + len(kept_s)
                    sil[recorded:after] = kept_s
                    if bilayer:
                        lig[recorded:after] = kept_l
                    recorded = after
                    kept_s.clear()
                    kept_l.clear()
            elif block > 1:
                # replay the block one checked step at a time: it recomputes
                # the same floats, so it fails at the first failing step
                del kept_s[mark:], kept_l[mark:]
                ts, tl = start
                block = 1
            else:
                raise _diverged(done + 1, dt)

    # the recorded steps are 0, stride, 2 stride, ...: the same floats as step * dt
    times = np.arange(0, n_steps + 1, stride) * dt
    return Trajectory(times, sil, lig)

