import inspect
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from phototherm import (
    Environment,
    HeatSource,
    LightSchedule,
    NumericalError,
    STEFAN_BOLTZMANN,
    SimConfig,
    StabilityError,
    ThermalLayer,
    Trajectory,
    ValidationError,
    WallAssembly,
    run,
    series_from_trajectory,
    stability_limit,
    steady_state,
)
import phototherm.simulate as simulate_module
from phototherm.model import _coefficients
from phototherm.simulate import _segments, _time_constant
from conftest import (AMBIENT_K, LIG, POWER_W, SILICONE, TAU_SINGLE_S, forward_trajectory,
                      traced_peak)
from linear_oracle import exact_bilayer_grid
from reference_stepper import State, euler_step, samples, scale_at

ALWAYS_ON = LightSchedule(((0.0, math.inf, 1.0),))


class TestLightSchedule:
    def test_rejects_overlap(self):
        with pytest.raises(ValidationError):
            LightSchedule(((0.0, 10.0, 1.0), (5.0, 20.0, 1.0)))

    def test_rejects_unsorted(self):
        with pytest.raises(ValidationError):
            LightSchedule(((10.0, 20.0, 1.0), (0.0, 5.0, 1.0)))

    def test_rejects_negative_start_and_bad_span(self):
        with pytest.raises(ValidationError):
            LightSchedule(((-1.0, 5.0, 1.0),))
        with pytest.raises(ValidationError):
            LightSchedule(((5.0, 5.0, 1.0),))

    def test_nan_end_fails_the_span_check(self):
        with pytest.raises(ValidationError,
                           match=r"^interval \(0\.0, nan\) must have start < end$"):
            LightSchedule(((0.0, math.nan, 1.0),))

    def test_rejects_negative_scale(self):
        with pytest.raises(ValidationError):
            LightSchedule(((0.0, 5.0, -0.1),))

    def test_scale_at_half_open_lookup(self):
        # the reference stepper's continuous-time lookup
        sched = LightSchedule(((0.0, 10.0, 1.0), (20.0, 30.0, 0.5)))
        assert scale_at(sched, 0.0) == 1.0
        assert scale_at(sched, 9.999) == 1.0
        assert scale_at(sched, 10.0) == 0.0  # end is exclusive
        assert scale_at(sched, 15.0) == 0.0  # gap means off
        assert scale_at(sched, 20.0) == 0.5
        assert scale_at(sched, 31.0) == 0.0

    def test_infinite_tail_allowed(self):
        sched = LightSchedule(((0.0, math.inf, 0.7),))
        assert sched.intervals == ((0.0, math.inf, 0.7),)
        assert scale_at(sched, 1e12) == 0.7

    def test_scaled_multiplies(self):
        sched = LightSchedule(((0.0, 10.0, 1.0),)).scaled(0.25)
        assert sched.intervals == ((0.0, 10.0, 0.25),)
        with pytest.raises(ValidationError):
            sched.scaled(-1.0)

    def test_empty_schedule_is_off(self):
        assert LightSchedule().intervals == ()
        assert scale_at(LightSchedule(), 3.0) == 0.0


class TestSimConfig:
    def test_rejects_bad_dt_and_duration(self):
        with pytest.raises(ValidationError):
            SimConfig(duration=10.0, dt=0.0)
        with pytest.raises(ValidationError):
            SimConfig(duration=0.0)
        with pytest.raises(ValidationError):
            SimConfig(duration=0.005, dt=0.01)

    def test_rejects_bad_stride(self):
        with pytest.raises(ValidationError):
            SimConfig(duration=10.0, record_stride=0)

    def test_rejects_overflowing_step_count(self):
        with pytest.raises(ValidationError, match="duration / dt must be finite"):
            SimConfig(duration=1e300, dt=1e-10)

    @pytest.mark.parametrize("window", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_metric_window(self, window):
        with pytest.raises(ValidationError,
                           match=rf"^metric_window must be finite and > 0, got {window!r}$"):
            SimConfig(duration=10.0, metric_window=window)

    @pytest.mark.parametrize("duration, dt, n_steps", [
        (300.0, 0.01, 30000), (0.3, 0.1, 3), (0.35, 0.1, 3)])
    def test_step_count(self, duration, dt, n_steps):
        assert SimConfig(duration=duration, dt=dt).n_steps == n_steps


class TestStabilityLimit:
    def test_bilayer_limited_by_lig(self, bilayer_wall, flux_source, environment):
        # C_L W_L / (h_Le A + k) with the bundled constants
        assert stability_limit(bilayer_wall, flux_source, environment) == pytest.approx(
            2.8e-3 / (1.8e-3 + 0.02), rel=1e-12)

    def test_single_layer_value(self, single_wall, flux_source, environment):
        assert stability_limit(single_wall, flux_source, environment) == pytest.approx(
            113.75, rel=1e-12)

    def test_doubling_conductances_halves_limit_exactly(self, flux_source, environment):
        base = WallAssembly(ThermalLayer(**SILICONE), ThermalLayer(**LIG))
        doubled = WallAssembly(
            ThermalLayer(**dict(SILICONE, conv_coeff=2 * SILICONE["conv_coeff"],
                                conductivity=2 * SILICONE["conductivity"])),
            ThermalLayer(**dict(LIG, conv_coeff=2 * LIG["conv_coeff"])))
        assert stability_limit(doubled, flux_source, environment) == 0.5 * stability_limit(
            base, flux_source, environment)

    def test_run_rejects_oversized_step_naming_layer(self, bilayer_wall, flux_source,
                                                     environment):
        with pytest.raises(StabilityError, match="lig") as excinfo:
            run(bilayer_wall, flux_source, ALWAYS_ON, environment,
                SimConfig(duration=10.0, dt=0.2))
        assert excinfo.value.limiting_layer == "lig"
        assert excinfo.value.limit == pytest.approx(0.12844, abs=1e-5)

    def test_hot_radiative_source_limited_by_lig(self, bilayer_wall, environment):
        # the linear limit of 0.128 s would let dt = 0.1 s settle into a
        # 68 K / 1889 K period-2 cycle
        source = HeatSource(source_temperature=1500.0, source_emissivity=0.9)
        assert stability_limit(bilayer_wall, source, environment) == pytest.approx(
            0.03197, abs=1e-5)
        with pytest.raises(StabilityError, match="lig") as excinfo:
            run(bilayer_wall, source, ALWAYS_ON, environment,
                SimConfig(duration=10.0, dt=0.1))
        assert excinfo.value.limiting_layer == "lig"

    def test_light_scale_and_initial_state_tighten_radiative_limit(self, single_wall,
                                                                   environment):
        source = HeatSource(source_temperature=373.0, source_emissivity=0.9)
        limit = stability_limit(single_wall, source, environment)
        config = SimConfig(duration=10 * limit, dt=limit)
        run(single_wall, source, ALWAYS_ON, environment, config)
        with pytest.raises(StabilityError):
            run(single_wall, source, LightSchedule(((0.0, math.inf, 1.5),)), environment, config)
        with pytest.raises(StabilityError):
            run(single_wall, source, ALWAYS_ON, environment, config,
                start=(400.0, None))


@st.composite
def radiative_scenarios(draw):
    """A radiative run from ambient, its light on at a drawn scale for part
    of the run, with dt up to the limit the guard sets for that scale."""
    emissivity = st.floats(0.05, 1.0)
    silicone = ThermalLayer(**dict(SILICONE, emissivity=draw(emissivity),
                                   conv_coeff=draw(st.floats(0.5, 40.0))))
    if draw(st.booleans()):
        wall = WallAssembly(silicone)
    else:
        wall = WallAssembly(silicone, ThermalLayer(**dict(
            LIG, emissivity=draw(emissivity), conv_coeff=draw(st.floats(0.5, 40.0)))))
    source = HeatSource(source_temperature=draw(st.floats(150.0, 3000.0)),
                        source_emissivity=draw(emissivity))
    env = Environment(draw(st.floats(250.0, 350.0)))
    scale = draw(st.floats(0.0, 3.0))
    limit = _time_constant(_coefficients(wall, source), env.ambient_temperature, scale)[0]
    dt = limit * draw(st.one_of(st.just(1.0), st.floats(0.05, 1.0)))
    duration = dt * draw(st.integers(1, 400))
    schedule = LightSchedule(((0.0, duration * draw(st.floats(0.1, 1.0)), scale),))
    return wall, source, schedule, env, SimConfig(duration=duration, dt=dt)


class TestRadiativeGuard:
    @given(scenario=radiative_scenarios())
    @settings(max_examples=150, deadline=None)
    def test_accepted_runs_stay_between_ambient_and_source(self, scenario):
        # under the guard each step is a monotone map: no overshoot, no
        # period-2 cycle, whatever the source and the scale
        wall, source, schedule, env, config = scenario
        trajectory = run(wall, source, schedule, env, config)
        lo = min(env.ambient_temperature, source.source_temperature)
        hi = max(env.ambient_temperature, source.source_temperature)
        for column in (trajectory.silicone, trajectory.lig):
            if column is not None:
                assert lo <= column.min() and column.max() <= hi


class TestEulerStep:
    # the reference stepper's single step
    def test_single_step_from_ambient(self, single_wall, flux_source, environment):
        state = State(0.0, 298.0)
        after = euler_step(state, single_wall, flux_source, environment,
                           scale=1.0, dt=1.0)
        assert after.time == 1.0
        assert after.silicone_temperature == pytest.approx(
            298.0 + 0.01275 / 0.13650, rel=1e-12)
        assert after.silicone_temperature == pytest.approx(298.0934, abs=1e-4)

    def test_equilibrium_is_fixed_point(self, single_wall, flux_source, environment):
        state = State(0.0, AMBIENT_K)
        after = euler_step(state, single_wall, flux_source, environment,
                           scale=0.0, dt=5.0)
        assert after.silicone_temperature == AMBIENT_K
        assert after.time == 5.0

    def test_local_error_is_second_order(self, single_wall, flux_source, environment):
        state = State(0.0, 298.0)
        dt = 0.01
        one = euler_step(state, single_wall, flux_source, environment, 1.0, dt)
        half = euler_step(state, single_wall, flux_source, environment, 1.0, dt / 2)
        two = euler_step(half, single_wall, flux_source, environment, 1.0, dt / 2)
        assert abs(two.silicone_temperature - one.silicone_temperature) < 1e-4


def segments_with_round_first(schedule, n_steps, dt):
    """_segments as it was before its step indices were clamped to the grid
    ahead of rounding; it overflows on bounds far beyond the grid."""
    runs, cursor = [], 0
    for start, end, scale in schedule.intervals:
        i0 = int(round(start / dt))
        i1 = n_steps if end == np.inf else int(round(end / dt))
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


class TestSegments:
    @settings(max_examples=300, deadline=None)
    @given(bounds=st.lists(st.one_of(st.floats(0.0, 1e4), st.sampled_from([1e300, 1e308])),
                           max_size=8, unique=True).map(sorted),
           open_end=st.booleans(), scale=st.floats(0.0, 10.0),
           n_steps=st.integers(1, 10**6), dt=st.floats(1e-3, 10.0))
    def test_same_runs_as_rounding_first(self, bounds, open_end, scale, n_steps, dt):
        if open_end and len(bounds) % 2:
            bounds.append(np.inf)
        pairs = list(zip(bounds[::2], bounds[1::2]))
        schedule = LightSchedule(tuple((a, b, scale) for a, b in pairs))
        runs = _segments(schedule, n_steps, dt)
        assert runs[0][0] == 0 and runs[-1][1] == n_steps
        assert all(a[1] == b[0] for a, b in zip(runs, runs[1:]))
        try:
            expected = segments_with_round_first(schedule, n_steps, dt)
        except OverflowError:
            return
        assert runs == expected


class TestRun:
    def test_single_layer_matches_closed_form(self, single_wall, flux_source,
                                              environment):
        config = SimConfig(duration=300.0, dt=0.01, record_stride=100)
        traj = run(single_wall, flux_source, ALWAYS_ON, environment, config)
        times = np.array(traj.times)
        temps = np.array(traj.silicone)
        exact = AMBIENT_K + 10.625 * (1.0 - np.exp(-times / TAU_SINGLE_S))
        assert np.abs(temps - exact).max() < 5e-4
        assert traj.silicone[-1] == pytest.approx(307.86, abs=0.05)

    def test_single_layer_window_final_response_time(self, single_wall, flux_source,
                                                     environment):
        from phototherm import response_time_63, series_from_trajectory

        traj = run(single_wall, flux_source, ALWAYS_ON, environment,
                   SimConfig(duration=300.0, dt=0.01))
        report = response_time_63(series_from_trajectory(traj), window=300.0)
        assert report.t63 == pytest.approx(100.4, abs=1.0)

    def test_empty_schedule_stays_at_ambient(self, bilayer_wall, flux_source,
                                             environment):
        traj = run(bilayer_wall, flux_source, LightSchedule(), environment,
                   SimConfig(duration=5.0, dt=0.05))
        assert all(s.silicone_temperature == AMBIENT_K for s in samples(traj))
        assert all(s.lig_temperature == AMBIENT_K for s in samples(traj))

    @pytest.mark.parametrize("wall, source, record_stride", [
        pytest.param(f"{kind}_wall", source, stride,
                     id=f"{kind}-{mode}" + ("" if stride == 1 else f"-stride{stride}"))
        for kind in ("single", "bilayer")
        for mode, source in (("flux", HeatSource(power=30.0)),
                             ("radiative", HeatSource(source_temperature=1500.0,
                                                      source_emissivity=0.9)))
        for stride in (1, 3)])
    def test_matches_manual_euler_stepping_bitwise(self, request, wall, source,
                                                   environment, record_stride):
        # each (wall kind, source mode) loop body of run must agree exactly
        # with the reference stepper; a radiative run takes its grey-body
        # constants once per run, while the stepper evaluates the whole
        # radiative exchange on every step. The hot source, the 30 W flux
        # (about the power the 1500 K source delivers) and the 20 s of drive
        # make a rounding change in an inlined rate (such as T*T*T*T for T**4)
        # reach the recorded temperatures. The schedule switches at steps
        # 1000, 1200 and 2000; at stride 3, 1000 and 2000 fall between
        # recorded steps
        wall = request.getfixturevalue(wall)
        schedule = LightSchedule(((0.0, 10.0, 1.0), (12.0, 20.0, 0.37)))
        config = SimConfig(duration=21.0, dt=0.01, record_stride=record_stride)
        traj = run(wall, source, schedule, environment, config)

        bilayer = wall.lig is not None
        state = State(0.0, AMBIENT_K, AMBIENT_K if bilayer else None)
        silicone = traj.silicone.tolist()
        lig = traj.lig.tolist() if bilayer else [None] * len(silicone)
        assert len(silicone) == 2100 // record_stride + 1
        for step in range(1, 2101):
            scale = scale_at(schedule, (step - 1) * config.dt)  # scale at step start
            state = euler_step(state, wall, source, environment, scale, config.dt)
            if step % record_stride == 0:
                assert silicone[step // record_stride] == state.silicone_temperature
                assert lig[step // record_stride] == state.lig_temperature
        assert traj.silicone[-1] > AMBIENT_K  # the drive acted

    def test_deterministic_bit_identical(self, bilayer_wall, flux_source, environment):
        config = SimConfig(duration=30.0, dt=0.01, record_stride=10)
        first = run(bilayer_wall, flux_source, ALWAYS_ON, environment, config)
        second = run(bilayer_wall, flux_source, ALWAYS_ON, environment, config)
        for name in ("times", "silicone", "lig"):
            # bytes, unlike float ==, tell -0.0 from 0.0
            assert getattr(first, name).tobytes() == getattr(second, name).tobytes()

    def test_record_stride_spacing(self, single_wall, flux_source, environment):
        config = SimConfig(duration=1.0, dt=0.01, record_stride=25)
        traj = run(single_wall, flux_source, ALWAYS_ON, environment, config)
        times = traj.times
        assert times[0] == 0.0
        assert len(times) == 5  # t = 0, 0.25, 0.5, 0.75, 1.0
        spacings = np.diff(times)
        assert np.allclose(spacings, 0.25, rtol=0, atol=1e-12)

    def test_lig_leads_silicone_under_drive(self, bilayer_wall, flux_source,
                                            environment):
        traj = run(bilayer_wall, flux_source, ALWAYS_ON, environment,
                   SimConfig(duration=60.0, dt=0.01, record_stride=10))
        sil = np.array(traj.silicone)
        lig = np.array(traj.lig)
        assert np.all(lig >= sil)

    def test_monotone_rise_then_monotone_decay(self, bilayer_wall, flux_source,
                                               environment):
        schedule = LightSchedule(((0.0, 30.0, 1.0),))
        traj = run(bilayer_wall, flux_source, schedule, environment,
                   SimConfig(duration=60.0, dt=0.01, record_stride=10))
        temps = np.array(traj.silicone)
        times = np.array(traj.times)
        rising = temps[times <= 30.0]
        falling = temps[times >= 30.0 + 0.01]
        assert np.all(np.diff(rising) >= 0)
        assert np.all(np.diff(falling) <= 0)
        assert np.all(temps >= AMBIENT_K)

    def test_initial_state_override(self, single_wall, flux_source, environment):
        traj = run(single_wall, flux_source, LightSchedule(), environment,
                   SimConfig(duration=10.0, dt=0.01), start=(308.625, None))
        assert traj.silicone[0] == 308.625
        assert traj.silicone[-1] < 308.625

    def test_bilayer_start_needs_a_lig_temperature(self, bilayer_wall, flux_source,
                                                   environment):
        with pytest.raises(ValidationError,
                           match="^bilayer run needs an initial lig_temperature$"):
            run(bilayer_wall, flux_source, ALWAYS_ON, environment,
                SimConfig(duration=1.0, dt=0.1), start=(300.0, None))

    def test_schedule_boundary_snapped_to_step(self, single_wall, flux_source,
                                               environment):
        # an interval ending mid-step acts until the nearest step boundary
        schedule = LightSchedule(((0.0, 0.999, 1.0),))
        config = SimConfig(duration=2.0, dt=0.5)
        traj = run(single_wall, flux_source, schedule, environment, config)
        manual = State(0.0, AMBIENT_K)
        for scale in (1.0, 1.0, 0.0, 0.0):  # 0.999 snaps to step 2 (t=1.0)
            manual = euler_step(manual, single_wall, flux_source, environment,
                                scale, 0.5)
        assert traj.silicone[-1] == manual.silicone_temperature

    @pytest.mark.parametrize("kind, record_stride", [
        pytest.param(kind, stride, id=("" if kind == "single" else f"{kind}-") + str(stride))
        for kind in ("single", "bilayer") for stride in (1, 3)])
    def test_divergence_raises_numerical_error(self, environment, kind, record_stride):
        # a drive so large that the second step overflows must be reported by
        # either loop body, also when that step is not recorded. The thick
        # film keeps dt = 1 s inside the bilayer's stability limit
        silicone = ThermalLayer(**SILICONE)
        wall = (WallAssembly(silicone) if kind == "single" else
                WallAssembly(silicone, ThermalLayer(**{**LIG, "thickness": 2e-2})))
        with pytest.raises(NumericalError, match="t=2 s"):
            run(wall, HeatSource(power=1e308), ALWAYS_ON, environment,
                SimConfig(duration=10.0, dt=1.0, record_stride=record_stride))

    @pytest.mark.parametrize("kind", ("single", "bilayer"))
    def test_radiative_overflow_in_the_loop_raises_numerical_error(self, environment, kind):
        # with the light off the guard counts no radiative conductance, but
        # the loop still evaluates T ** 4, which overflows a float at 1e120 K
        silicone = ThermalLayer(**SILICONE)
        wall, lig = ((WallAssembly(silicone), None) if kind == "single" else
                     (WallAssembly(silicone, ThermalLayer(**LIG)), 1e120))
        with pytest.raises(NumericalError, match="t=0.01 s"):
            run(wall, HeatSource(source_temperature=373.0, source_emissivity=0.9), LightSchedule(),
                environment, SimConfig(duration=1.0, dt=0.01), start=(1e120, lig))

    def test_radiative_overflow_in_the_guard_raises_stability_error(self, single_wall,
                                                                    environment):
        # the linearised radiative conductance at 1e120 K is beyond any
        # float, so no positive step is stable
        source = HeatSource(source_temperature=373.0, source_emissivity=0.9)
        with pytest.raises(StabilityError, match="silicone") as info:
            run(single_wall, source, ALWAYS_ON, environment,
                SimConfig(duration=1.0, dt=0.01), start=(1e120, None))
        assert info.value.limit == 0.0
        # with no drive the radiative term drops out, not as 0 * inf = nan
        assert _time_constant(_coefficients(single_wall, source), 1e120, 0.0) == (
            TAU_SINGLE_S, "silicone")

    @pytest.mark.parametrize("entry", ("run", "stability_limit", "steady_state"))
    def test_source_whose_fourth_power_overflows_is_bad_input(self, single_wall,
                                                              environment, entry):
        # 1e80 K is a finite, valid source temperature, but sigma T^4 is not
        # a float: each entry point that takes the grey-body constants
        # reports a bad input, not an OverflowError
        source = HeatSource(source_temperature=1e80, source_emissivity=0.9)
        calls = {
            "run": lambda: run(single_wall, source, ALWAYS_ON, environment,
                               SimConfig(duration=1.0, dt=0.01)),
            "stability_limit": lambda: stability_limit(single_wall, source, environment),
            "steady_state": lambda: steady_state(single_wall, source, environment),
        }
        with pytest.raises(ValidationError,
                           match=r"^source temperature 1e\+80 K is too high: its fourth power"):
            calls[entry]()

    def test_radiative_stiffness_is_part_of_the_guard(self, environment):
        # a hot source on a thin film: the linear limit alone would pass
        # dt = 1 s and the run would diverge
        layer = ThermalLayer(specific_heat=700.0, density=400.0, thickness=1e-4,
                             area=1e-4, emissivity=1.0, absorptance=0.5,
                             conductivity=1.0, conv_coeff=0.5)
        wall = WallAssembly(layer)
        source = HeatSource(source_temperature=3000.0, source_emissivity=1.0)
        assert stability_limit(wall, HeatSource(power=1.0), environment) > 1.0
        limit = stability_limit(wall, source, environment)
        assert limit == pytest.approx(2.8e-3 / (1e-4 + 4 * STEFAN_BOLTZMANN * 3000.0 ** 3
                                                * 1e-4), rel=1e-12)
        with pytest.raises(StabilityError, match="silicone"):
            run(wall, source, ALWAYS_ON, environment, SimConfig(duration=10.0, dt=1.0))

    @pytest.mark.parametrize("schedule", (ALWAYS_ON, LightSchedule()), ids=("on", "off"))
    @pytest.mark.parametrize("kind, dark", (("single", "silicone"), ("bilayer", "silicone"),
                                            ("bilayer", "lig")))
    def test_radiative_run_rejects_zero_emissivity(self, environment, kind, dark, schedule):
        # the grey-body resistance divides by each emissivity: run checks
        # them once before stepping and reports a bad input, not a
        # ZeroDivisionError, also when the light is never on
        layers = {"silicone": ThermalLayer(**SILICONE), "lig": ThermalLayer(**LIG)}
        layers[dark] = replace(layers[dark], emissivity=0.0)
        wall = (WallAssembly(layers["silicone"]) if kind == "single"
                else WallAssembly(layers["silicone"], layers["lig"]))
        with pytest.raises(ValidationError, match="emissivity"):
            run(wall, HeatSource(source_temperature=373.0, source_emissivity=0.9), schedule,
                environment, SimConfig(duration=1.0, dt=0.01))

    def test_radiative_run_approaches_its_steady_state(self, single_wall, environment):
        source = HeatSource(source_temperature=500.0, source_emissivity=0.9)
        target, _ = steady_state(single_wall, source, environment)
        traj = run(single_wall, source, ALWAYS_ON, environment,
                   SimConfig(duration=600.0, dt=0.05, record_stride=200))
        assert traj.silicone[-1] == pytest.approx(target, abs=0.05)


class TestRunStart:
    """run's checks of a start pair (ts, tl), made before it steps."""

    CONFIG = SimConfig(duration=1.0, dt=0.1)

    @pytest.mark.parametrize("ts", [-1.0, 0.0, math.nan, math.inf])
    @pytest.mark.parametrize("wall", ["single_wall", "bilayer_wall"])
    def test_rejects_a_silicone_start_not_finite_and_positive(self, request, flux_source,
                                                               environment, wall, ts):
        with pytest.raises(ValidationError,
                           match="^silicone_temperature must be strictly positive$"):
            run(request.getfixturevalue(wall), flux_source, ALWAYS_ON, environment,
                self.CONFIG, start=(ts, 300.0 if wall == "bilayer_wall" else None))

    @pytest.mark.parametrize("tl", [-1.0, 0.0, math.nan, -math.inf])
    def test_rejects_a_lig_start_not_finite_and_positive(self, bilayer_wall, flux_source,
                                                         environment, tl):
        with pytest.raises(ValidationError,
                           match="^lig_temperature must be strictly positive$"):
            run(bilayer_wall, flux_source, ALWAYS_ON, environment, self.CONFIG,
                start=(300.0, tl))

    def test_single_layer_takes_no_lig_start(self, single_wall, flux_source, environment):
        # a lig start on a single layer is an error, not a value to drop
        with pytest.raises(ValidationError,
                           match="^single-layer run takes no initial lig_temperature$"):
            run(single_wall, flux_source, ALWAYS_ON, environment, self.CONFIG,
                start=(300.0, 310.0))


class TestRecordingBudget:
    def test_rejected_before_anything_is_allocated(self, bilayer_wall, flux_source,
                                                   environment):
        # 1e12 recorded steps: the check must come before the loop and its lists
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=(
                    r"^dt=1e-06 s and record_stride=1 would record 1e\+12 samples, more than "
                    r"the 10737418 that fit the 1024 MiB recording budget; "
                    r"raise dt or record_stride$")):
                run(bilayer_wall, flux_source, ALWAYS_ON, environment,
                    SimConfig(duration=1e6, dt=1e-6))
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()

    def test_counts_recorded_samples_not_steps(self, monkeypatch, single_wall, flux_source,
                                               environment):
        monkeypatch.setattr(simulate_module, "_MAX_SAMPLES", 100)
        for duration, stride in ((0.99, 1), (1.99, 2)):  # 99 and 199 steps
            config = SimConfig(duration=duration, dt=0.01, record_stride=stride)
            assert len(run(single_wall, flux_source, ALWAYS_ON, environment, config).times) == 100
        for duration, stride in ((1.0, 1), (2.0, 2)):
            with pytest.raises(ValidationError, match=f"record_stride={stride} would record 101 "):
                run(single_wall, flux_source, ALWAYS_ON, environment,
                    SimConfig(duration=duration, dt=0.01, record_stride=stride))

    def test_forward_run_records_without_whole_run_lists(self):
        # run copies its kept samples, about 1024 at a time, into columns
        # allocated once. Two lists of 40 001 Python floats, converted at the
        # end, peaked at 3 943 509 B here
        assert traced_peak(forward_trajectory) <= 2.5 * 2 ** 20


class TestStepCap:
    def test_counts_steps_not_recorded_samples(self, monkeypatch, single_wall, flux_source,
                                               environment):
        monkeypatch.setattr(simulate_module, "_MAX_STEPS", 100)
        config = SimConfig(duration=1.0, dt=0.01, record_stride=50)  # 100 steps, 3 samples
        assert len(run(single_wall, flux_source, ALWAYS_ON, environment, config).times) == 3
        with pytest.raises(ValidationError, match=(
                r"^dt=0\.01 s would take 101 steps, more than the 1e\+02 a run may take; "
                r"raise dt$")):
            run(single_wall, flux_source, ALWAYS_ON, environment,
                SimConfig(duration=1.01, dt=0.01, record_stride=1000))


def checked_euler_chain(wall, source, schedule, env, config, start=None):
    """The silicone and lig columns run should record, from a chain of
    reference euler_step calls checked at every step, under run's
    grid-snapped schedule. Raises the NumericalError run should raise,
    naming the first step whose state is not finite and > 0 (the reference
    check rejects it) or whose radiative drive overflows a float."""
    dt, stride = config.dt, config.record_stride
    theta_e = env.ambient_temperature
    bilayer = wall.lig is not None
    state = State(0.0, *(start or (theta_e, theta_e if bilayer else None)))
    silicone, lig = [state.silicone_temperature], [state.lig_temperature]
    for i0, i1, scale in _segments(schedule, config.n_steps, dt):
        for step in range(i0 + 1, i1 + 1):
            try:
                state = euler_step(state, wall, source, env, scale, dt)
            except (ValidationError, OverflowError):
                raise NumericalError(f"temperature became non-finite or non-positive "
                                     f"at t={step * dt:g} s") from None
            if step % stride == 0:
                silicone.append(state.silicone_temperature)
                lig.append(state.lig_temperature)
    return silicone, lig if bilayer else None


def assert_run_matches_checked_chain(wall, source, schedule, env, config, start=None):
    try:
        silicone, lig = checked_euler_chain(wall, source, schedule, env, config, start)
    except NumericalError as error:
        with pytest.raises(NumericalError, match=f"^{re.escape(str(error))}$"):
            run(wall, source, schedule, env, config, start)
        return str(error)
    traj = run(wall, source, schedule, env, config, start)
    assert traj.silicone.tolist() == silicone
    assert (traj.lig is None if lig is None else traj.lig.tolist() == lig)
    return None


class TestBlockCheck:
    """run tests for divergence once per block of _BLOCK steps and replays a
    failed block one checked step at a time; the error must name the step
    that a check after every step names."""

    N_STEPS = 2500  # blocks end at steps 1024, 2048 and 2500

    @staticmethod
    def wall(kind):
        # the thick film keeps dt = 5 s inside the bilayer's linear limit
        silicone = ThermalLayer(**SILICONE)
        return (WallAssembly(silicone) if kind == "single" else
                WallAssembly(silicone, ThermalLayer(**{**LIG, "thickness": 2e-2})))

    @pytest.mark.parametrize("failing", (1, 1023, 1024, 1025, 2048, 2300))
    @pytest.mark.parametrize("stride", (1, 3, 10, 1023, 1024, 1025, N_STEPS))
    @pytest.mark.parametrize("kind, mode", (("single", "flux"), ("bilayer", "flux"),
                                            ("bilayer", "radiative")))
    def test_first_failing_step_matches_checked_chain(self, monkeypatch, environment, kind,
                                                      mode, stride, failing):
        # the light turns on at step failing - 1 and its first step overflows
        # to inf. A flux that large would make run test every step, so full
        # blocks are forced to reach the block replay. Under the guard a
        # radiative iterate stays between ambient, start and source, so only
        # a start whose fourth power overflows diverges, at step 1: the guard
        # is switched off to reach that body at any step, with a drive scale
        # that overflows
        dt = 5.0
        if mode == "flux":
            monkeypatch.setattr(simulate_module, "_block_size",
                                lambda *args: simulate_module._BLOCK)
            source, scale = HeatSource(power=1e308), 1.0
        else:
            monkeypatch.setattr(simulate_module, "_check_step", lambda *args: None)
            source, scale = HeatSource(source_temperature=1500.0, source_emissivity=0.9), 1e308
        schedule = LightSchedule((((failing - 1) * dt, math.inf, scale),))
        config = SimConfig(duration=self.N_STEPS * dt, dt=dt, record_stride=stride)
        error = assert_run_matches_checked_chain(self.wall(kind), source, schedule,
                                                 environment, config)
        assert error is not None and error.endswith(f"at t={failing * dt:g} s")

    def test_fourth_power_overflow_in_mid_block(self, monkeypatch, environment):
        # the light drives the state at step 1500 far past any source, and
        # step 1501, neither recorded at stride 3 nor at a block edge,
        # overflows in ts ** 4 (guard switched off, as above)
        monkeypatch.setattr(simulate_module, "_check_step", lambda *args: None)
        wall, dt = self.wall("bilayer"), 5.0
        source = HeatSource(source_temperature=1500.0, source_emissivity=0.9)
        schedule = LightSchedule(((1499 * dt, 1500 * dt, 1e97),))
        reached = float(run(wall, source, schedule, environment,
                            SimConfig(duration=1500 * dt, dt=dt, record_stride=3)).silicone[-1])
        assert 0.0 < reached < math.inf
        with pytest.raises(OverflowError):
            reached ** 4
        config = SimConfig(duration=self.N_STEPS * dt, dt=dt, record_stride=3)
        assert assert_run_matches_checked_chain(wall, source, schedule, environment,
                                                config).endswith("at t=7505 s")

    @pytest.mark.parametrize("stride", (1, 3))
    @pytest.mark.parametrize("case, failing", (("bilayer-pulse", 2), ("single-pulse", 502),
                                               ("bilayer-hot-start", 1)))
    def test_node_rounded_below_zero_k_within_a_block(self, environment, case, failing,
                                                      stride):
        # at dt equal to the limit a diagonal entry of the step matrix is
        # about 0, so a step rounds by about eps times the hottest node. With
        # that node ~1e16 times the coldest bound, another node can round to
        # <= 0 K and recover before the block ends, where a block-end test
        # misses it: run must test every step of such a run
        silicone, lig = ThermalLayer(**SILICONE), ThermalLayer(**LIG)
        source, start = HeatSource(power=1e300), None
        if case == "bilayer-pulse":  # the lig film alone takes a 1-step pulse at step 1
            wall, on, n_steps = WallAssembly(replace(silicone, absorptance=0.0), lig), 0, 8
        elif case == "single-pulse":  # a 1-step pulse; the block starts and ends at 298 K
            wall, on, n_steps = WallAssembly(silicone), 500, 1024
        else:  # an example test_matches_checked_chain found: no drive, a 1e70 K lig start
            wall, on, n_steps = WallAssembly(silicone, lig), None, 5
            source, start = HeatSource(power=0.0), (250.0, 1e70)
        dt = stability_limit(wall, source, environment)
        schedule = (LightSchedule() if on is None
                    else LightSchedule(((on * dt, (on + 1) * dt, 1.0),)))
        config = SimConfig(duration=n_steps * dt, dt=dt, record_stride=stride)
        error = assert_run_matches_checked_chain(wall, source, schedule, environment,
                                                 config, start)
        assert error is not None and error.endswith(f"at t={failing * dt:g} s")

    @given(data=st.data(), bilayer=st.booleans(), radiative=st.booleans(),
           stride=st.one_of(st.integers(1, 12), st.sampled_from((1023, 1024, 1025, None))),
           n_steps=st.integers(1, 3200),
           fraction=st.floats(0.05, 1.0), on=st.integers(0, 3200),
           length=st.integers(1, 3200), scale=st.floats(0.0, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_matches_checked_chain(self, data, bilayer, radiative, stride, n_steps, fraction,
                                   on, length, scale):
        # drives and starts include divergent ones: a flux that overflows,
        # and a radiative start whose fourth power overflows. Strides next
        # to the block length and the whole run (None) move where each
        # block's kept samples land in the columns
        stride = stride or n_steps
        temperature = st.one_of(st.floats(250.0, 600.0), st.floats(1e70, 1e100))
        env = Environment(AMBIENT_K)
        silicone = ThermalLayer(**SILICONE)
        wall = (WallAssembly(silicone, ThermalLayer(**LIG)) if bilayer
                else WallAssembly(silicone))
        if radiative:
            source = HeatSource(source_temperature=data.draw(st.floats(250.0, 2000.0)),
                                source_emissivity=0.9)
        else:
            source = HeatSource(
                power=data.draw(st.one_of(st.floats(0.0, 1.0), st.floats(1e300, 1e308))))
        start = (data.draw(temperature), data.draw(temperature) if bilayer else None)
        start_max = max(AMBIENT_K, start[0], start[1] or 0.0)
        limit = _time_constant(_coefficients(wall, source), start_max, scale)[0]
        assume(limit > 0.0)
        dt = fraction * min(limit, 10.0)
        schedule = LightSchedule(((on * dt, (on + length) * dt, scale),))
        config = SimConfig(duration=n_steps * dt, dt=dt, record_stride=stride)
        assert_run_matches_checked_chain(wall, source, schedule, env, config, start)


class TestTrajectory:
    def test_rejects_empty_columns(self):
        with pytest.raises(ValidationError):
            Trajectory((), ())
        with pytest.raises(ValidationError):
            Trajectory((), (), ())

    def test_rejects_unequal_column_lengths(self):
        with pytest.raises(ValidationError):
            Trajectory((0.0, 1.0), (298.0,))
        with pytest.raises(ValidationError):
            Trajectory((0.0, 1.0), (298.0, 299.0), (298.0,))

    @pytest.mark.parametrize("times", ((0.0, 0.0), (1.0, 0.5)))
    def test_rejects_non_increasing_times(self, times):
        with pytest.raises(ValidationError):
            Trajectory(times, (298.0, 299.0))

    def test_single_layer_run_has_no_lig_column(self, single_wall, flux_source,
                                                environment):
        traj = run(single_wall, flux_source, ALWAYS_ON, environment,
                   SimConfig(duration=1.0, dt=0.1))
        assert traj.lig is None
        with pytest.raises(ValidationError, match="^single-layer trajectory has no lig "
                                                  "channel$"):
            series_from_trajectory(traj, "theta_L")

    def test_has_no_final_state(self):
        # a run's end is its columns' last values; its start is run's start pair
        assert not hasattr(Trajectory, "final")
        assert list(inspect.signature(run).parameters) == [
            "assembly", "source", "schedule", "env", "config", "start"]

    @pytest.mark.parametrize("wall", ("single_wall", "bilayer_wall"))
    def test_samples_rebuild_states_from_columns(self, wall, flux_source, environment,
                                                 request):
        assembly = request.getfixturevalue(wall)
        traj = run(assembly, flux_source, ALWAYS_ON, environment,
                   SimConfig(duration=1.0, dt=0.1, record_stride=3))
        assert (traj.lig is None) == (assembly.lig is None)
        states = samples(traj)
        assert len(states) == len(traj.times) == 4  # steps 0, 3, 6, 9
        for i, state in enumerate(states):
            lig = None if traj.lig is None else traj.lig[i]
            assert state == State(traj.times[i], traj.silicone[i], lig)
            assert all(type(value) is float for value in state if value is not None)


class TestAccuracy:
    def test_against_matrix_exponential_oracle(self, bilayer_wall, flux_source,
                                               environment):
        # worst Euler error sits in the fast absorber transient near t = 0.1 s
        dt, n = 0.01, 6000
        traj = run(bilayer_wall, flux_source, ALWAYS_ON, environment,
                   SimConfig(duration=n * dt, dt=dt))
        exact = exact_bilayer_grid(bilayer_wall, flux_source, environment,
                                   1.0, dt, n)
        euler = np.column_stack([traj.silicone, traj.lig])
        assert np.abs(euler - exact).max() < 0.05

    def test_first_order_convergence(self, bilayer_wall, flux_source, environment):
        # successive halvings shrink the sampled temperatures by less each time
        results = {}
        for dt, stride in ((0.04, 25), (0.02, 50), (0.01, 100)):
            traj = run(bilayer_wall, flux_source, ALWAYS_ON, environment,
                       SimConfig(duration=60.0, dt=dt, record_stride=stride))
            results[dt] = np.column_stack([traj.silicone, traj.lig])
        coarse = np.abs(results[0.02] - results[0.04]).max()
        fine = np.abs(results[0.01] - results[0.02]).max()
        assert fine < coarse

    @given(scale=st.floats(0.1, 2.0))
    @settings(max_examples=10, deadline=None)
    def test_tracks_oracle_at_any_scale(self, scale):
        wall = WallAssembly(ThermalLayer(**SILICONE), ThermalLayer(**LIG))
        source = HeatSource(power=POWER_W)
        env = Environment(AMBIENT_K)
        dt, n = 0.01, 1500
        traj = run(wall, source, LightSchedule(((0.0, math.inf, scale),)), env,
                   SimConfig(duration=n * dt, dt=dt, record_stride=50))
        exact = exact_bilayer_grid(wall, source, env, scale, dt * 50, n // 50)
        euler = np.column_stack([traj.silicone, traj.lig])
        assert np.abs(euler - exact).max() < 0.05 * max(scale, 1.0)
