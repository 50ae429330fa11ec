"""Closed-form constant-flux propagation against the stepped integrator.

The calibration objective evaluates constant-flux Euler iterates in closed
form at the target time stamps instead of stepping the whole run. These
tests hold it, target by target, to `run` followed by np.interp and to an
extended-precision Euler run of the same scenario.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phototherm import (
    CalibrationProblem,
    Environment,
    HeatSource,
    LightSchedule,
    MeasurementSeries,
    ParamSpec,
    SimConfig,
    ThermalLayer,
    WallAssembly,
    apply_named_parameter,
    load_config,
    objective,
    preset_path,
    run,
    series_from_trajectory,
    stability_limit,
)
from phototherm.model import _coefficients
from phototherm.calibrate import _constant_flux_on
from phototherm.simulate import _check_step, _resolve_channel, _segments
from conftest import AMBIENT_K, LIG, POWER_W, SILICONE

TARGET_TOL_K = 1e-9
SSE_TOL_K2 = 1e-9


def constant_flux_at(assembly, source, schedule, env, config, times, channel):
    """The closed form from a fresh model: one channel of the trajectory
    `run` would record from ambient under a constant-flux source, at the
    strictly increasing times. It checks dt against the stability guard and
    resolves the channel, then evaluates `_constant_flux_on` over the
    schedule's runs at these times."""
    c = _coefficients(assembly, source)
    _check_step(c, config.dt, env.ambient_temperature, 1.0)
    channel = _resolve_channel(assembly.lig is not None, channel)
    segments = _segments(schedule, config.n_steps, config.dt)
    values = _constant_flux_on(segments, times, c, env.ambient_temperature, config.dt, channel)
    return values(c.g_s, c.g_l, c.q_s, c.q_l, [scale for *_, scale in segments])


def stepped_at(assembly, source, schedule, env, config, times, channel):
    trajectory = run(assembly, source, schedule, env, config)
    series = series_from_trajectory(trajectory, channel)
    return np.interp(times, series.times, series.values)


@st.composite
def walls(draw):
    faces = st.sampled_from([None, 0, 1, 2])
    silicone = ThermalLayer(**dict(
        SILICONE,
        conv_coeff=draw(st.floats(0.5, 40.0)),
        conductivity=draw(st.floats(0.05, 1.0)),
        thickness=draw(st.floats(0.3e-3, 3e-3)),
        absorptance=draw(st.floats(0.0, 0.5)),
        conv_faces=draw(faces)))
    if draw(st.booleans()):
        return WallAssembly.single(silicone)
    lig = ThermalLayer(**dict(
        LIG,
        conv_coeff=draw(st.floats(0.5, 40.0)),
        thickness=draw(st.floats(0.3e-4, 3e-4)),
        absorptance=draw(st.floats(0.0, 1.0 - silicone.absorptance)),
        conv_faces=draw(faces)))
    return WallAssembly.bilayer(silicone, lig)


@st.composite
def schedules(draw, duration):
    """Up to three on-intervals with gaps between them, scale-0 ones
    included, sometimes reaching past the run or ending at infinity."""
    edges = sorted(draw(st.lists(st.floats(0.0, 1.2 * duration), min_size=0,
                                 max_size=6, unique=True)))
    scale = st.one_of(st.just(0.0), st.floats(0.0, 2.0))
    intervals = [(s, e, draw(scale)) for s, e in zip(edges[::2], edges[1::2])]
    if intervals and draw(st.booleans()):
        start, _, sc = intervals[-1]
        intervals[-1] = (start, math.inf, sc)
    return LightSchedule(tuple(intervals))


@st.composite
def scenarios(draw):
    assembly = draw(walls())
    source = HeatSource.constant_flux(draw(st.floats(0.0, 0.2)))
    limit = stability_limit(assembly, source, Environment(AMBIENT_K))
    if math.isinf(limit):  # a single layer with no loss path
        limit = 100.0
    # up to and including the limit, where a diagonal entry of M is 0
    dt = limit * draw(st.one_of(st.just(1.0), st.floats(0.05, 1.0)))
    n_steps = draw(st.integers(1, 1500))
    # duration off the step grid: the last targets lie past the last step
    duration = dt * (n_steps + draw(st.floats(0.0, 0.999)))
    config = SimConfig(duration=duration, dt=dt)
    schedule = draw(schedules(duration))
    name = draw(st.sampled_from([None, "scale", "Q_h"]))
    if name is not None:
        assembly, source, schedule = apply_named_parameter(
            assembly, source, schedule, name, draw(st.floats(0.0, 2.0)))
    channels = ["auto", "theta_s"]
    if assembly.lig is not None:
        channels.append("theta_L")
    channel = draw(st.sampled_from(channels))
    fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=40, unique=True))
    times = np.unique(np.append(np.array(fractions) * duration, duration))
    return assembly, source, schedule, config, times, channel


def free_bounds(name, assembly):
    """A box for a free parameter that keeps the drawn step stable: the
    convection coefficients may only fall, which only raises the limit."""
    if name == "h_se":
        return 0.5 * assembly.silicone.conv_coeff, assembly.silicone.conv_coeff
    if name == "h_Le":
        return 0.5 * assembly.lig.conv_coeff, assembly.lig.conv_coeff
    return {"alpha_s": (0.0, 0.5), "alpha_L": (0.0, 0.5),
            "Q_h": (0.0, 0.2), "scale": (0.0, 2.0)}[name]


@st.composite
def fit_problems(draw):
    """A calibration problem on a drawn scenario, gapped schedules included,
    with up to three free parameters, and a candidate within their bounds."""
    assembly, source, schedule, config, times, channel = draw(scenarios())
    # a problem takes no target past the run's last step
    times = np.unique(times * (config.n_steps * config.dt / config.duration))
    if draw(st.booleans()):  # two pulses with a gap, one of them dimmed
        d = config.duration
        schedule = LightSchedule(((0.1 * d, 0.4 * d, 1.0), (0.6 * d, 0.9 * d, 0.7)))
    names = ["alpha_s", "h_se", "Q_h", "scale"]
    if assembly.lig is not None:
        names += ["alpha_L", "h_Le"]
    free = []
    for name in draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True)):
        lower, upper = free_bounds(name, assembly)
        free.append(ParamSpec(name, lower, upper, lower))
    candidate = [draw(st.floats(p.lower, p.upper)) for p in free]
    values = AMBIENT_K + np.array(draw(st.lists(st.floats(0.0, 30.0), min_size=times.size,
                                                max_size=times.size)))
    problem = CalibrationProblem(
        target=MeasurementSeries(times, values), free=tuple(free), assembly=assembly,
        source=source, env=Environment(AMBIENT_K), schedule=schedule, config=config,
        channel=channel)
    return problem, candidate


def longdouble_euler(c, theta_e, dt, segments, channel):
    """One channel of the constant-flux Euler iterates from ambient on
    either wall, over the (start_step, end_step, scale) runs of `_segments`,
    stepped in numpy's longdouble from the float64 constants c, in excess
    temperatures. channel is resolved: theta_s or theta_L."""
    ld = np.longdouble
    dt, cap_s, g_s, q_s, zero = map(ld, (dt, c.cap_s, c.g_s, c.q_s, 0.0))
    bilayer = c.k is not None
    if bilayer:
        cap_l, g_l, q_l, k = map(ld, (c.cap_l, c.g_l, c.q_l, c.k))
    xs = xl = zero
    out = [zero]
    for start, end, scale in segments:
        scale = ld(scale)
        for _ in range(end - start):
            if bilayer:
                q_ls = k * (xl - xs)
                xs, xl = (xs + dt * ((scale * q_s - g_s * xs + q_ls) / cap_s),
                          xl + dt * ((scale * q_l - g_l * xl - q_ls) / cap_l))
            else:
                xs = xs + dt * ((scale * q_s - g_s * xs) / cap_s)
            out.append(xl if channel == "theta_L" else xs)
    return np.array([float(ld(theta_e) + x) for x in out])


LONGDOUBLE_IS_WIDER = np.finfo(np.longdouble).nmant > np.finfo(np.float64).nmant
NOT_WIDER = ("numpy's longdouble is float64 here, so its Euler run is no more exact than "
             "the closed form it would check")


def extended_at(assembly, source, schedule, env, config, times, channel):
    """longdouble_euler on a fresh model, interpolated at times."""
    segments = _segments(schedule, config.n_steps, config.dt)
    reference = longdouble_euler(_coefficients(assembly, source), env.ambient_temperature,
                                 config.dt, segments,
                                 _resolve_channel(assembly.lig is not None, channel))
    return np.interp(times, np.arange(config.n_steps + 1) * config.dt, reference)


def no_loss_path_scenario():
    """A single layer with no loss path, at the strategy's thinnest wall,
    strongest flux and drive scale and most steps: 1 500 steps of 100 s
    up to 7.3e5 K. `run`'s own rounding of its 1 500 additions there is
    8.0e-9 K."""
    wall = WallAssembly.single(ThermalLayer(**dict(
        SILICONE, conv_faces=0, absorptance=0.5, thickness=0.3e-3)))
    config = SimConfig(duration=150000.0, dt=100.0)
    return (wall, HeatSource.constant_flux(0.2), LightSchedule(((0.0, math.inf, 2.0),)),
            config, np.linspace(0.0, config.duration, 40), "auto")


class TestAgainstStepping:
    @pytest.mark.skipif(not LONGDOUBLE_IS_WIDER, reason=NOT_WIDER)
    @given(scenarios())
    @example(no_loss_path_scenario())
    @settings(max_examples=80, deadline=None)
    def test_matches_an_extended_precision_run_at_every_target(self, scenario):
        # float64 stepping has its own rounding, which an absolute bound does
        # not allow for at high temperatures: an 80-bit run of the same
        # steps is the reference
        assembly, source, schedule, config, times, channel = scenario
        env = Environment(AMBIENT_K)
        closed = constant_flux_at(assembly, source, schedule, env, config,
                                  tuple(times), channel)
        reference = extended_at(assembly, source, schedule, env, config, times, channel)
        assert np.all(np.abs(closed - reference) <= TARGET_TOL_K)

    def test_float64_run_rounds_beyond_the_bound_at_high_temperature(self):
        # why the property above steps in 80 bits: on the pinned example
        # `run` itself is further than TARGET_TOL_K from the exact iterates
        assembly, source, schedule, config, times, channel = no_loss_path_scenario()
        env = Environment(AMBIENT_K)
        closed = constant_flux_at(assembly, source, schedule, env, config,
                                  tuple(times), channel)
        stepped = stepped_at(assembly, source, schedule, env, config, times, channel)
        assert np.abs(closed - stepped).max() > TARGET_TOL_K

    def test_no_loss_path_ramps_without_nan(self):
        # conv_faces = 0 on both layers leaves a zero eigenvalue: mu = 1, and
        # that mode must grow by the drive every step instead of reading 0/0
        sil = ThermalLayer(**dict(SILICONE, conv_faces=0))
        lig = ThermalLayer(**dict(LIG, conv_faces=0))
        env, source = Environment(AMBIENT_K), HeatSource.constant_flux(POWER_W)
        schedule = LightSchedule(((0.0, 2.0, 1.0),))
        config = SimConfig(duration=5.0, dt=0.01)
        times = np.linspace(0.0, 5.0, 51)
        for assembly in (WallAssembly.single(sil), WallAssembly.bilayer(sil, lig)):
            closed = constant_flux_at(assembly, source, schedule, env, config,
                                      tuple(times), "auto")
            stepped = stepped_at(assembly, source, schedule, env, config, times, "auto")
            assert np.all(np.isfinite(closed))
            assert np.all(np.abs(closed - stepped) <= TARGET_TOL_K)

    @pytest.mark.parametrize("h", [1e-300, 1e-306, 1e-310])
    def test_negligible_loss_ramps_without_overflow(self, h):
        # with dt lam near or below the smallest normal float, drive / lam
        # overflows: such a mode must ramp as if it had no loss path
        sil = ThermalLayer(**dict(SILICONE, conv_coeff=h))
        lig = ThermalLayer(**dict(LIG, conv_coeff=h))
        env, source = Environment(AMBIENT_K), HeatSource.constant_flux(POWER_W)
        schedule = LightSchedule(((0.0, 10.0, 1.0),))
        config = SimConfig(duration=20.0, dt=0.01)
        times = np.linspace(0.0, 20.0, 21)
        for assembly in (WallAssembly.single(sil), WallAssembly.bilayer(sil, lig)):
            closed = constant_flux_at(assembly, source, schedule, env, config,
                                      tuple(times), "auto")
            stepped = stepped_at(assembly, source, schedule, env, config, times, "auto")
            assert np.all(np.abs(closed - stepped) <= TARGET_TOL_K)


class TestWeakLoss:
    # dt |lam| of the slow mode falls with the convection coefficients: to
    # 1e-6 at h = 1e-5 and 1e-8 at h = 1e-7 W/m^2K. A closed form built on
    # a rounded mu = 1 + dt lam was off by 2.8e-9 and 2.6e-7 K there
    @pytest.mark.skipif(not LONGDOUBLE_IS_WIDER, reason=NOT_WIDER)
    @pytest.mark.parametrize("h", [10.0, 1e-5, 1e-7])
    def test_matches_an_extended_precision_euler_run(self, h):
        cfg = load_config(preset_path("table1_bilayer"))
        sil, lig = cfg.assembly.silicone, cfg.assembly.lig
        assembly = WallAssembly.bilayer(replace(sil, conv_coeff=h), replace(lig, conv_coeff=h))
        schedule = LightSchedule(((0.0, 150.0, 1.0),))
        config = SimConfig(duration=300.0, dt=0.01)
        times = np.linspace(0.0, 300.0, 301)
        closed = constant_flux_at(assembly, cfg.source, schedule, cfg.env, config,
                                  times, "theta_L")
        reference = extended_at(assembly, cfg.source, schedule, cfg.env, config, times,
                                "theta_L")
        assert np.abs(closed - reference).max() <= TARGET_TOL_K


class TestObjectiveOnPresets:
    # the targets are the presets' own curves plus 0.05 K noise; candidates
    # at and next to the preset values keep the residuals at noise level
    @pytest.mark.parametrize("preset, specs, candidates", [
        ("table1_single", (ParamSpec("h_se", 2.0, 12.0, 6.0),), ([6.0], [6.02])),
        ("table1_bilayer",
         (ParamSpec("alpha_L", 0.5, 0.95, 0.83), ParamSpec("h_Le", 5.0, 40.0, 18.0)),
         ([0.83, 18.0], [0.829, 18.05])),
        ("table1_bilayer",
         (ParamSpec("scale", 0.1, 2.0, 1.0), ParamSpec("Q_h", 0.01, 0.2, 0.075)),
         ([1.0, 0.075], [1.001, 0.0749])),
    ])
    def test_sse_matches_stepping_at_noise_level(self, preset, specs, candidates):
        cfg = load_config(preset_path(preset))
        schedule = LightSchedule(((0.0, 90.0, 1.0),))
        config = SimConfig(duration=150.0, dt=0.01)
        clean = stepped_at(cfg.assembly, cfg.source, schedule, cfg.env, config,
                           np.arange(0.0, 150.5, 1.0), "auto")
        noise = np.random.default_rng(11).normal(0.0, 0.05, clean.size)
        target = MeasurementSeries(np.arange(0.0, 150.5, 1.0), clean + noise)
        problem = CalibrationProblem(target=target, free=specs, assembly=cfg.assembly,
                                     source=cfg.source, env=cfg.env,
                                     schedule=schedule, config=config)
        for candidate in candidates:
            assembly, source, sched = cfg.assembly, cfg.source, schedule
            for spec, value in zip(specs, candidate):
                assembly, source, sched = apply_named_parameter(
                    assembly, source, sched, spec.name, value)
            diff = stepped_at(assembly, source, sched, cfg.env, config,
                              target.times, "auto") - target.values
            assert abs(objective(problem, candidate) - diff @ diff) <= SSE_TOL_K2


class TestObjectiveIsClosedForm:
    # a free absorptance may push the layer sum above 1, which only warns
    @pytest.mark.filterwarnings("ignore:layer absorptances sum:UserWarning")
    @given(fit_problems())
    @settings(max_examples=150, deadline=None)
    def test_equals_a_fresh_closed_form_evaluation(self, drawn):
        # the objective reuses the target grid it built with the problem;
        # a grid built afresh for the candidate must give the same float
        problem, candidate = drawn
        assembly, source, schedule = problem.assembly, problem.source, problem.schedule
        for spec, value in zip(problem.free, candidate):
            assembly, source, schedule = apply_named_parameter(
                assembly, source, schedule, spec.name, value)
        diff = constant_flux_at(assembly, source, schedule, problem.env, problem.config,
                                problem.target.times, problem.channel) - problem.target.values
        assert objective(problem, candidate) == float(np.add.reduce(diff * diff))


@st.composite
def flux_and_absorptance_problems(draw):
    """fit_problems with Q_h free together with one or both absorptances, in
    a drawn order: each absorbed power depends on the final Q_h and the
    final absorptance, whichever is applied first."""
    problem, _ = draw(fit_problems())
    names = ["alpha_s", "Q_h"]
    if problem.assembly.lig is not None:
        names += draw(st.sampled_from([["alpha_L"], []]))
    free = tuple(ParamSpec(name, *free_bounds(name, problem.assembly),
                           free_bounds(name, problem.assembly)[0])
                 for name in draw(st.permutations(names)))
    candidate = [draw(st.floats(p.lower, p.upper)) for p in free]
    return replace(problem, free=free), candidate


class TestObjectiveAppliesFinalValues:
    @pytest.mark.filterwarnings("ignore:layer absorptances sum:UserWarning")
    @given(flux_and_absorptance_problems())
    @settings(max_examples=100, deadline=None)
    def test_flux_with_absorptances_equals_a_fresh_evaluation(self, drawn):
        problem, candidate = drawn
        assembly, source, schedule = problem.assembly, problem.source, problem.schedule
        for spec, value in zip(problem.free, candidate):
            assembly, source, schedule = apply_named_parameter(
                assembly, source, schedule, spec.name, value)
        diff = constant_flux_at(assembly, source, schedule, problem.env, problem.config,
                                problem.target.times, problem.channel) - problem.target.values
        assert objective(problem, candidate) == float(np.add.reduce(diff * diff))
