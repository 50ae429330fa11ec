import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phototherm.calibrate as calibrate_module
from phototherm import (
    CalibrationProblem,
    Environment,
    HeatSource,
    KindMismatchError,
    LightSchedule,
    MeasurementSeries,
    ParamSpec,
    SimConfig,
    StabilityError,
    ThermalLayer,
    ValidationError,
    WallAssembly,
    apply_named_parameter,
    fit,
    objective,
    run,
    series_from_trajectory,
)
from phototherm.model import _coefficients
from phototherm.simulate import _check_step, _segments
from conftest import AMBIENT_K, LIG, POWER_W, SILICONE

SCHEDULE = LightSchedule.always_on()
CONFIG = SimConfig(duration=150.0, dt=0.01)


def make_bilayer(**lig_overrides):
    return WallAssembly.bilayer(ThermalLayer(**SILICONE),
                                ThermalLayer(**dict(LIG, **lig_overrides)))


def synthetic_target(assembly, sample_every=100, config=CONFIG):
    """Simulate the given wall and sample its liquid-contact channel."""
    source = HeatSource.constant_flux(POWER_W)
    env = Environment(AMBIENT_K)
    traj = run(assembly, source, SCHEDULE, env, config)
    series = series_from_trajectory(traj)
    keep = slice(0, len(series.times), sample_every)
    return MeasurementSeries(series.times[keep], series.values[keep])


def make_problem(target, *specs, assembly=None, config=CONFIG):
    return CalibrationProblem(
        target=target, free=tuple(specs),
        assembly=assembly if assembly is not None else make_bilayer(),
        source=HeatSource.constant_flux(POWER_W), env=Environment(AMBIENT_K),
        schedule=SCHEDULE, config=config)


class TestParamSpec:
    def test_unknown_name_rejected(self):
        with pytest.raises(ValidationError):
            ParamSpec("emissivity", 0.0, 1.0, 0.5)

    def test_bounds_ordering(self):
        with pytest.raises(ValidationError):
            ParamSpec("alpha_L", 0.9, 0.5, 0.7)

    def test_initial_inside_bounds(self):
        with pytest.raises(ValidationError):
            ParamSpec("alpha_L", 0.5, 0.9, 0.95)

    def test_physical_range_enforced(self):
        with pytest.raises(ValidationError):
            ParamSpec("alpha_L", 0.5, 1.5, 0.7)
        with pytest.raises(ValidationError):
            ParamSpec("h_Le", -5.0, 40.0, 18.0)

    @pytest.mark.parametrize("lower, upper", [(0.5, math.inf), (-math.inf, 0.9)])
    def test_infinite_bound_rejected(self, lower, upper):
        # a candidate at an infinite bound is no valid model input
        with pytest.raises(ValidationError, match="^alpha_L: bounds must be finite$"):
            ParamSpec("alpha_L", lower, upper, 0.7)
        with pytest.raises(ValidationError, match="^scale: bounds must be finite$"):
            ParamSpec("scale", 0.0, math.inf, 1.0)

    @pytest.mark.parametrize("name", ["h_se", "h_Le"])
    def test_convection_lower_bound_must_be_positive(self, name):
        # the layer needs conv_coeff > 0, so a clamped candidate at 0 would
        # abort the fit with an error that does not name the parameter
        for initial in (0.0, 6.0):
            with pytest.raises(ValidationError, match=f"^{name}: lower bound must be > 0"):
                ParamSpec(name, 0.0, 12.0, initial)
        assert ParamSpec(name, 1e-3, 12.0, 6.0).lower == 1e-3


class TestProblemValidation:
    def test_needs_a_free_parameter(self):
        target = synthetic_target(make_bilayer())
        with pytest.raises(ValidationError):
            make_problem(target)

    def test_rejects_duplicate_names(self):
        target = synthetic_target(make_bilayer())
        with pytest.raises(ValidationError):
            make_problem(target, ParamSpec("alpha_L", 0.5, 0.95, 0.7),
                         ParamSpec("alpha_L", 0.5, 0.95, 0.8))

    def test_bilayer_parameters_need_bilayer(self):
        target = synthetic_target(make_bilayer())
        single = WallAssembly.single(ThermalLayer(**SILICONE))
        with pytest.raises(ValidationError):
            make_problem(target, ParamSpec("alpha_L", 0.5, 0.95, 0.7),
                         assembly=single)

    def test_target_longer_than_duration_rejected(self):
        target = synthetic_target(make_bilayer())
        short = SimConfig(duration=100.0, dt=0.01)
        with pytest.raises(ValidationError):
            make_problem(target, ParamSpec("alpha_L", 0.5, 0.95, 0.7), config=short)

    def test_record_stride_forced_to_one(self):
        target = synthetic_target(make_bilayer())
        problem = make_problem(target, ParamSpec("alpha_L", 0.5, 0.95, 0.7),
                               config=SimConfig(duration=150.0, dt=0.01,
                                                record_stride=50))
        assert problem.config.record_stride == 1


class TestObjective:
    def test_self_consistency_is_zero(self):
        target = synthetic_target(make_bilayer(absorptance=0.70))
        problem = make_problem(target, ParamSpec("alpha_L", 0.5, 0.95, 0.83))
        assert objective(problem, [0.70]) < 1e-10

    def test_uniform_offset_gives_point_count(self):
        target = synthetic_target(make_bilayer())
        shifted = MeasurementSeries(target.times,
                                    tuple(v + 1.0 for v in target.values))
        problem = make_problem(shifted, ParamSpec("alpha_L", 0.5, 0.95, 0.83))
        sse = objective(problem, [0.83])
        assert sse == pytest.approx(len(target.times), abs=1e-9)

    def test_wrong_model_is_strictly_positive(self):
        single = WallAssembly.single(ThermalLayer(**SILICONE))
        source = HeatSource.constant_flux(POWER_W)
        env = Environment(AMBIENT_K)
        traj = run(single, source, SCHEDULE, env, CONFIG)
        series = series_from_trajectory(traj)
        keep = slice(0, len(series.times), 100)
        target = MeasurementSeries(series.times[keep], series.values[keep])
        problem = make_problem(target, ParamSpec("alpha_L", 0.5, 0.95, 0.83))
        assert objective(problem, [0.83]) > 1.0

    def test_out_of_bounds_candidate_rejected(self):
        target = synthetic_target(make_bilayer())
        problem = make_problem(target, ParamSpec("alpha_L", 0.5, 0.95, 0.83))
        with pytest.raises(ValidationError):
            objective(problem, [0.49])

    def test_step_above_stability_limit_raises(self):
        # the bilayer preset's film limits the step to 0.128 s
        target = synthetic_target(make_bilayer())
        problem = make_problem(target, ParamSpec("alpha_L", 0.5, 0.95, 0.83),
                               config=SimConfig(duration=150.0, dt=0.2))
        with pytest.raises(StabilityError, match="set by the lig layer") as info:
            objective(problem, [0.83])
        assert info.value.limiting_layer == "lig"
        assert info.value.limit == pytest.approx(0.12844, abs=1e-5)

    def test_lig_channel_on_single_layer_raises(self):
        single = WallAssembly.single(ThermalLayer(**SILICONE))
        target = synthetic_target(single)
        problem = CalibrationProblem(
            target=target, free=(ParamSpec("h_se", 2.0, 12.0, 6.0),),
            assembly=single, source=HeatSource.constant_flux(POWER_W),
            env=Environment(AMBIENT_K), schedule=SCHEDULE, config=CONFIG,
            channel="theta_L")
        with pytest.raises(KindMismatchError):
            objective(problem, [6.0])

    def test_radiative_source_steps_the_run(self):
        # radiative drive is nonlinear, so the objective must fall back to
        # stepping; computed here the same way, the value is bit-identical
        wall, env = make_bilayer(), Environment(AMBIENT_K)
        source = HeatSource.radiative(373.0, 0.9)
        config = SimConfig(duration=20.0, dt=0.01)
        times = tuple(float(t) for t in range(21))
        target = MeasurementSeries(times, tuple(AMBIENT_K + 0.5 * t for t in times))
        problem = CalibrationProblem(
            target=target, free=(ParamSpec("scale", 0.1, 2.0, 1.0),),
            assembly=wall, source=source, env=env, schedule=SCHEDULE, config=config)
        _, _, schedule = apply_named_parameter(wall, source, SCHEDULE, "scale", 0.7)
        series = series_from_trajectory(run(wall, source, schedule, env, config))
        diff = np.interp(times, series.times, series.values) - np.asarray(target.values)
        assert objective(problem, [0.7]) == float(diff @ diff)


class TestFit:
    def test_recovers_single_perturbed_absorptance(self):
        target = synthetic_target(make_bilayer(absorptance=0.70))
        problem = make_problem(target, ParamSpec("alpha_L", 0.5, 0.95, 0.83))
        result = fit(problem)
        assert result.converged
        assert result.values["alpha_L"] == pytest.approx(0.70, rel=0.01)
        assert result.rmse < 0.01

    def test_recovers_joint_pair(self):
        target = synthetic_target(make_bilayer(absorptance=0.70))
        problem = make_problem(target, ParamSpec("alpha_L", 0.5, 0.95, 0.83),
                               ParamSpec("h_Le", 5.0, 40.0, 24.0))
        result = fit(problem)
        assert result.converged
        assert result.values["alpha_L"] == pytest.approx(0.70, rel=0.02)
        assert result.values["h_Le"] == pytest.approx(18.0, rel=0.02)

    def test_optimal_start_converges_immediately(self):
        target = synthetic_target(make_bilayer())
        problem = make_problem(target, ParamSpec("alpha_L", 0.5, 0.95, 0.83))
        result = fit(problem)
        assert result.converged
        assert result.iterations <= 50
        assert result.values["alpha_L"] == pytest.approx(0.83, abs=1e-4)

    def test_fitted_values_respect_bounds(self):
        # true value 0.70 sits below the allowed box; the fit must stop at it
        target = synthetic_target(make_bilayer(absorptance=0.70))
        problem = make_problem(target, ParamSpec("alpha_L", 0.78, 0.95, 0.85))
        result = fit(problem)
        assert 0.78 <= result.values["alpha_L"] <= 0.95
        assert result.values["alpha_L"] == pytest.approx(0.78, abs=1e-3)

    def test_monotone_improvement(self):
        target = synthetic_target(make_bilayer(absorptance=0.70))
        problem = make_problem(target, ParamSpec("alpha_L", 0.5, 0.95, 0.83))
        result = fit(problem)
        initial = objective(problem, [0.83])
        fitted = objective(problem, [result.values["alpha_L"]])
        assert fitted <= initial

    def joint_problem(self, config=CONFIG):
        target = synthetic_target(make_bilayer(absorptance=0.70))
        return make_problem(target, ParamSpec("alpha_L", 0.5, 0.95, 0.83),
                            ParamSpec("h_Le", 5.0, 40.0, 24.0), config=config)

    def test_evaluations_count_every_objective_call(self, monkeypatch):
        calls = []

        def counting(problem, candidate):
            calls.append(candidate)
            return objective(problem, candidate)

        monkeypatch.setattr(calibrate_module, "objective", counting)
        result = fit(self.joint_problem())
        assert result.evaluations == len(calls)
        assert np.array_equal(calls[-1], list(result.values.values()))

    def test_fit_path_is_pinned(self):
        # recorded before the objective reused one target grid per problem:
        # every objective value, and so every simplex move, must stay
        # bit-identical. At dt = 0.03 s the whole-second targets fall between
        # grid steps, so the interpolation weights count too.
        result = fit(self.joint_problem(SimConfig(duration=150.0, dt=0.03)))
        assert repr(result.values) == "{'alpha_L': 0.6998785388084754, 'h_Le': 17.996957615523865}"
        assert repr(result.sse) == "1.284167543086048e-06"
        assert result.iterations == 45
        assert result.evaluations == 87

    def test_deterministic_bit_for_bit(self):
        target = synthetic_target(make_bilayer(absorptance=0.75))
        problem = make_problem(target, ParamSpec("alpha_L", 0.5, 0.95, 0.83),
                               ParamSpec("h_Le", 5.0, 40.0, 20.0))
        first = fit(problem)
        second = fit(problem)
        assert first == second

    def test_pure_scale_fit_tracks_target_amplitude(self):
        # for the linear constant-flux model, shrinking the target deviations
        # by c moves the optimal drive scale to c times the generating one
        base = make_bilayer()
        source = HeatSource.constant_flux(POWER_W)
        env = Environment(AMBIENT_K)
        traj = run(base, source, LightSchedule.always_on(0.8), env, CONFIG)
        series = series_from_trajectory(traj)
        keep = slice(0, len(series.times), 100)
        target = MeasurementSeries(series.times[keep], series.values[keep])
        problem = make_problem(target, ParamSpec("scale", 0.05, 2.0, 1.0))
        assert fit(problem).values["scale"] == pytest.approx(0.8, rel=1e-3)

        c = 0.5
        squeezed = MeasurementSeries(
            target.times, tuple(AMBIENT_K + c * (v - AMBIENT_K) for v in target.values))
        problem_c = make_problem(squeezed, ParamSpec("scale", 0.05, 2.0, 1.0))
        assert fit(problem_c).values["scale"] == pytest.approx(c * 0.8, rel=1e-3)


class TestApplyNamedParameter:
    def test_each_parameter_lands_on_its_field(self):
        wall = make_bilayer()
        source = HeatSource.constant_flux(POWER_W)
        sched = LightSchedule.always_on()
        with pytest.warns(UserWarning, match="absorptances"):
            wall2, _, _ = apply_named_parameter(wall, source, sched, "alpha_s", 0.3)
        assert wall2.silicone.absorptance == 0.3
        wall2, _, _ = apply_named_parameter(wall, source, sched, "h_se", 9.0)
        assert wall2.silicone.conv_coeff == 9.0
        wall2, _, _ = apply_named_parameter(wall, source, sched, "h_Le", 25.0)
        assert wall2.lig.conv_coeff == 25.0
        _, source2, _ = apply_named_parameter(wall, source, sched, "Q_h", 0.1)
        assert source2.power == 0.1
        _, _, sched2 = apply_named_parameter(wall, source, sched, "scale", 0.5)
        assert sched2.intervals[0][2] == 0.5

    def test_unknown_name_rejected(self):
        wall = make_bilayer()
        with pytest.raises(ValidationError):
            apply_named_parameter(wall, HeatSource.constant_flux(POWER_W),
                                  SCHEDULE, "tau", 1.0)


class TestStableBox:
    def test_unstable_upper_bound_names_the_largest_stable_one(self):
        # the lig film's limit falls below dt = 0.01 s once h_Le passes 2600
        target = synthetic_target(make_bilayer())
        with pytest.raises(ValidationError) as info:
            make_problem(target, ParamSpec("h_Le", 5.0, 1e5, 18.0))
        message = str(info.value)
        assert message.startswith("h_Le: dt=0.01 s exceeds the stability limit 0.000279441 s "
                                  "set by the lig layer at the upper bound 100000;")
        bound = float(re.search(r"largest stable upper bound is (\S+)$", message)[1])
        assert bound == 2599.9999999999995
        make_problem(target, ParamSpec("h_Le", 5.0, bound, 18.0))
        with pytest.raises(ValidationError, match="^h_Le: "):
            make_problem(target, ParamSpec("h_Le", 5.0, math.nextafter(bound, math.inf), 18.0))

    def test_overflowing_scale_bound_rejected(self):
        target = synthetic_target(make_bilayer())
        huge = LightSchedule(((0.0, math.inf, 1e300),))
        with pytest.raises(ValidationError, match="interval scale must be finite"):
            CalibrationProblem(
                target=target, free=(ParamSpec("scale", 0.5, 1e10, 1.0),),
                assembly=make_bilayer(), source=HeatSource.constant_flux(POWER_W),
                env=Environment(AMBIENT_K), schedule=huge, config=CONFIG)

    @pytest.mark.filterwarnings("ignore:layer absorptances sum:UserWarning")
    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_box_is_rejected_or_every_corner_agrees(self, data):
        # the guard's loss grows with h_se, h_Le and, under a radiative
        # source, the scale: a problem that is built has every corner of
        # its box stable, or none (then objective raises the guard's error)
        draw = data.draw
        radiative, bilayer = draw(st.booleans()), draw(st.booleans())
        wall = make_bilayer() if bilayer else WallAssembly.single(ThermalLayer(**SILICONE))
        source = (HeatSource.radiative(draw(st.floats(300.0, 1500.0)), 0.9) if radiative
                  else HeatSource.constant_flux(POWER_W))
        guarded = ["h_se"] + ["h_Le"] * bilayer + ["scale"] * radiative
        names = draw(st.lists(st.sampled_from(guarded), min_size=1, unique=True))
        specs = [ParamSpec("alpha_s", 0.0, 0.3, 0.1)] * draw(st.booleans())
        for name in names:
            lower = draw(st.floats(0.1, 50.0))
            specs.append(ParamSpec(name, lower, lower * draw(st.floats(1.01, 1e4)), lower))
        dt = draw(st.floats(1e-4, 0.5))
        schedule = LightSchedule(((0.0, 2.0, 1.0),))
        config = SimConfig(duration=3.0, dt=dt)
        target = MeasurementSeries((0.0, 1.0, 2.0, 3.0), (AMBIENT_K,) * 4)

        def build(specs):
            return CalibrationProblem(target=target, free=tuple(specs), assembly=wall,
                                      source=source, env=Environment(AMBIENT_K),
                                      schedule=schedule, config=config)

        try:
            problem = build(specs)
        except ValidationError as exc:
            # the named bound makes the box stable, the next float up does not
            found = re.search(r"^(\w+): .*largest stable upper bound is (\S+)$", str(exc))
            if found is None:
                assert ", ".join(names) in str(exc) and str(exc).endswith("lower them")
                return
            i = [s.name for s in specs].index(found[1])
            bound = float(found[2])
            lowered = list(specs)
            lowered[i] = ParamSpec(found[1], specs[i].lower, bound, specs[i].lower)
            build(lowered)
            lowered[i] = ParamSpec(found[1], specs[i].lower, math.nextafter(bound, math.inf),
                                   specs[i].lower)
            with pytest.raises(ValidationError):
                build(lowered)
            return

        stable = set()
        for corner in itertools.product(*((s.lower, s.upper) for s in specs)):
            assembly, src, sched = wall, source, schedule
            for spec, value in zip(specs, corner):
                assembly, src, sched = apply_named_parameter(assembly, src, sched,
                                                             spec.name, value)
            scale = max(sc for _, _, sc in _segments(sched, config.n_steps, dt))
            try:
                _check_step(_coefficients(assembly, src), dt, AMBIENT_K, scale)
                stable.add(True)
            except StabilityError:
                stable.add(False)
        assert len(stable) == 1
        if stable == {False}:
            with pytest.raises(StabilityError):
                objective(problem, [s.upper for s in specs])


class TestCandidateChecks:
    def test_out_of_box_candidate_names_the_parameter_and_value(self):
        target = synthetic_target(make_bilayer())
        problem = make_problem(target, ParamSpec("alpha_L", 0.5, 0.95, 0.83),
                               ParamSpec("h_Le", 5.0, 40.0, 18.0))
        for candidate, message in (([0.49, 18.0], "alpha_L=0.49 is outside its bounds"),
                                   ([0.83, 40.5], "h_Le=40.5 is outside its bounds"),
                                   ([0.83, math.nan], "h_Le=nan is outside its bounds")):
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                objective(problem, candidate)

    def test_absorptance_sum_above_one_warns_once_per_call(self):
        # both absorptances free: the warning looks at their final values,
        # once, whatever the order they are applied in
        target = synthetic_target(make_bilayer())
        problem = make_problem(target, ParamSpec("alpha_L", 0.5, 0.95, 0.83),
                               ParamSpec("alpha_s", 0.0, 0.5, 0.17))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            objective(problem, [0.9, 0.3])
        assert [str(w.message) for w in caught] == [
            "layer absorptances sum to 1.2000 > 1; "
            "more power absorbed than supplied is unphysical"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            objective(problem, [0.8, 0.1])  # sums to 0.9

    @pytest.mark.filterwarnings("ignore:layer absorptances sum:UserWarning")
    def test_fit_warns_at_the_fitted_point_only(self):
        # every point of this box sums to more than 1; only the final,
        # unsuppressed objective call may warn
        target = synthetic_target(make_bilayer(absorptance=0.90))
        problem = make_problem(target, ParamSpec("alpha_L", 0.86, 0.95, 0.93))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fit(problem)
        assert result.evaluations > 10
        assert len(caught) == 1
        assert str(caught[0].message).startswith("layer absorptances sum to 1.07")


class TestRadiativeObjective:
    @pytest.mark.parametrize("bilayer", [True, False], ids=["bilayer", "single"])
    @pytest.mark.parametrize("last", [23.0, 23.004, 59.999, 60.0])
    def test_stops_after_the_last_target_with_the_same_value(self, bilayer, last):
        # the run stops one step after the last target's upper bracketing
        # step; the value equals interpolating the full-duration run
        wall = make_bilayer() if bilayer else WallAssembly.single(ThermalLayer(**SILICONE))
        source, env = HeatSource.radiative(373.0, 0.9), Environment(AMBIENT_K)
        schedule = LightSchedule(((0.0, 15.0, 1.0), (20.0, math.inf, 0.5)))
        config = SimConfig(duration=60.0, dt=0.01)
        times = np.linspace(0.0, last, 40)
        values = AMBIENT_K + 0.3 * times
        free = (ParamSpec("scale", 0.1, 2.0, 1.0), ParamSpec("h_se", 2.0, 12.0, 6.0))
        problem = CalibrationProblem(
            target=MeasurementSeries(times, values), free=free, assembly=wall,
            source=source, env=env, schedule=schedule, config=config)
        assert problem._run_config.n_steps == min(6000, math.floor(last / 0.01) + 2)
        for candidate in ([0.7, 6.0], [1.9, 11.5], [0.1, 2.0]):
            assembly, src, sched = wall, source, schedule
            for spec, value in zip(free, candidate):
                assembly, src, sched = apply_named_parameter(assembly, src, sched,
                                                             spec.name, value)
            series = series_from_trajectory(run(assembly, src, sched, env, config))
            diff = np.interp(times, series.times, series.values) - values
            assert objective(problem, candidate) == float(diff @ diff)
