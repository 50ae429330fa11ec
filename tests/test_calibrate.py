import numpy as np
import pytest

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
