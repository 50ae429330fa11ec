import copy
import itertools
import math
import pickle
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phototherm.calibrate as calibrate_module
import phototherm.simulate as simulate_module
from phototherm import (
    CalibrationProblem,
    Environment,
    HeatSource,
    LightSchedule,
    MeasurementSeries,
    NumericalError,
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
from reference_fit import reference_fit

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


def integrated_steps(monkeypatch):
    """Record in the returned list the n_steps of every run the radiative
    evaluator integrates."""
    steps, integrate = [], calibrate_module._integrate

    def recording(*args):
        steps.append(args[6])
        return integrate(*args)

    monkeypatch.setattr(calibrate_module, "_integrate", recording)
    return steps


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

    @pytest.mark.parametrize("number", [int, np.float64, np.float32, np.int64],
                             ids=["int", "float64", "float32", "int64"])
    def test_numbers_are_stored_as_python_floats(self, number):
        # fit hands the fields to the evaluator as they are, and a numpy
        # scalar there would slow every radiative step
        spec = ParamSpec("h_se", number(2), number(12), number(6))
        assert [type(v) for v in (spec.lower, spec.upper, spec.initial)] == [float] * 3
        assert (spec.lower, spec.upper, spec.initial) == (2.0, 12.0, 6.0)
        wall = WallAssembly.single(ThermalLayer(**SILICONE))
        target = synthetic_target(wall)
        assert fit(make_problem(target, spec, assembly=wall)) == fit(
            make_problem(target, ParamSpec("h_se", 2.0, 12.0, 6.0), assembly=wall))


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

    @pytest.mark.parametrize("value, named", [(0.0, "0"), (-5.0, "-5"), (-1e308, "-1e+308")])
    def test_target_at_or_below_zero_kelvin_rejected(self, value, named):
        # every model temperature is above 0 K; -5 K once fitted to sse 92129 K^2
        target = MeasurementSeries((0.0, 10.0, 20.0, 30.0), (298.0, value, 300.0, value))
        with pytest.raises(ValidationError, match=re.escape(
                f"the target holds {named} K at t=10 s; a calibration target must be "
                "above 0 K")):
            make_problem(target, ParamSpec("alpha_s", 0.1, 0.5, 0.2))
        # the smallest positive temperature is a target like any other
        make_problem(MeasurementSeries((0.0, 10.0), (298.0, 5e-324)),
                     ParamSpec("alpha_s", 0.1, 0.5, 0.2))

    def test_step_count_past_int64_is_evaluated_in_floats(self, monkeypatch):
        # 2e19 steps of 1e-18 s: the closed form's run bounds, held as numpy
        # objects, once raised a TypeError. Such a problem is over run's
        # step cap, which is lifted here so that the closed form sees it
        monkeypatch.setattr(simulate_module, "_MAX_STEPS", 10 ** 20)
        target = MeasurementSeries((0.0, 10.0, 20.0), (298.0, 305.0, 310.0))
        spec = ParamSpec("h_se", 2.0, 12.0, 6.0)
        fine = make_problem(target, spec, config=SimConfig(duration=20.0, dt=1e-18))
        coarse = make_problem(target, spec, config=SimConfig(duration=20.0, dt=1e-4))
        assert objective(fine, [8.0]) == pytest.approx(objective(coarse, [8.0]), rel=1e-4)

    @pytest.mark.parametrize("radiative", [False, True], ids=["flux", "radiative"])
    def test_run_over_the_step_cap_rejected_with_runs_message(self, radiative):
        # the closed form reads only the steps around each target, so a
        # constant-flux problem once fitted a run that simulate refuses; a
        # stride this long keeps run from the recording budget's message
        config = SimConfig(duration=20.0, dt=1e-300, record_stride=10 ** 302)
        wall = WallAssembly.single(ThermalLayer(**SILICONE))
        source = HeatSource.radiative(373.0, 0.9) if radiative else HeatSource.constant_flux(
            POWER_W)
        with pytest.raises(ValidationError) as expected:
            run(wall, source, SCHEDULE, Environment(AMBIENT_K), config)
        with pytest.raises(ValidationError) as raised:
            CalibrationProblem(
                target=MeasurementSeries((0.0, 10.0, 20.0), (AMBIENT_K, 300.0, 301.0)),
                free=(ParamSpec("alpha_s", 0.1, 0.5, 0.2),), assembly=wall, source=source,
                env=Environment(AMBIENT_K), schedule=SCHEDULE, config=config)
        assert str(raised.value) == str(expected.value) == (
            "dt=1e-300 s would take 2e+301 steps, more than the 1e+09 a run may take; raise dt")

    @pytest.mark.parametrize("radiative", [False, True], ids=["flux", "radiative"])
    def test_target_before_the_run_start_rejected(self, radiative):
        # before t = 0 both objective modes would read the value at t = 0
        source = HeatSource.radiative(373.0, 0.9) if radiative else HeatSource.constant_flux(
            POWER_W)

        def build(first):
            target = MeasurementSeries((first, 5.0, 10.0), (AMBIENT_K,) * 3)
            return CalibrationProblem(
                target=target, free=(ParamSpec("h_se", 2.0, 12.0, 6.0),),
                assembly=WallAssembly.single(ThermalLayer(**SILICONE)), source=source,
                env=Environment(AMBIENT_K), schedule=SCHEDULE, config=CONFIG)

        with pytest.raises(ValidationError, match=re.escape(
                "the target starts at t=-30 s, before the run starts at t=0 s")):
            build(-30.0)
        # a start within the rounding of t / dt of 0 reads the value at 0
        assert objective(build(-1e-13), [6.0]) == objective(build(0.0), [6.0])

    @pytest.mark.parametrize("radiative", [False, True], ids=["flux", "radiative"])
    def test_target_past_the_last_step_rejected(self, monkeypatch, radiative):
        # 10 s is not a whole number of 0.3 s steps: the run ends at 9.9 s
        config = SimConfig(duration=10.0, dt=0.3)
        source = HeatSource.radiative(373.0, 0.9) if radiative else HeatSource.constant_flux(
            POWER_W)

        def build(last):
            target = MeasurementSeries((0.0, 5.0, last), (AMBIENT_K,) * 3)
            return CalibrationProblem(
                target=target, free=(ParamSpec("h_se", 2.0, 12.0, 6.0),),
                assembly=WallAssembly.single(ThermalLayer(**SILICONE)), source=source,
                env=Environment(AMBIENT_K), schedule=SCHEDULE, config=config)

        with pytest.raises(ValidationError, match=re.escape(
                "the target ends at t=10 s, after the last step of the run at t=9.9 s "
                "(33 steps of dt=0.3 s)")):
            build(10.0)
        steps = integrated_steps(monkeypatch)
        objective(build(33 * 0.3), [6.0])
        assert steps == ([33] if radiative else [])

    @pytest.mark.parametrize("radiative", [False, True], ids=["flux", "radiative"])
    def test_record_stride_leaves_the_objective_bit_identical(self, radiative):
        # the objective reads the step grid, not the samples a run records,
        # and the problem keeps the caller's config
        target = synthetic_target(make_bilayer(absorptance=0.70))

        def build(stride):
            config = SimConfig(duration=150.0, dt=0.01, record_stride=stride)
            if radiative:
                return radiative_problem(config=config)
            return make_problem(target, ParamSpec("scale", 0.1, 2.0, 1.0),
                                ParamSpec("h_se", 2.0, 12.0, 6.0), config=config)

        strided, every = build(50), build(1)
        assert strided.config.record_stride == 50
        for candidate in ([0.7, 6.0], [1.9, 11.5], [0.1, 2.0]):
            assert repr(objective(strided, candidate)) == repr(objective(every, candidate))

    @pytest.mark.parametrize("radiative", [False, True], ids=["flux", "radiative"])
    def test_problem_pickles_and_copies(self, radiative):
        # a copy builds its own evaluator and gives the same values
        problem = make_problem(synthetic_target(make_bilayer()),
                               ParamSpec("alpha_L", 0.5, 0.95, 0.83),
                               ParamSpec("h_Le", 5.0, 40.0, 18.0))
        if radiative:
            problem = replace(problem, source=HeatSource.radiative(373.0, 0.9))
        for copied in (pickle.loads(pickle.dumps(problem)), copy.deepcopy(problem)):
            assert copied._evaluate is not problem._evaluate
            assert objective(copied, [0.7, 20.0]) == objective(problem, [0.7, 20.0])


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
        # the bilayer preset's film limits the step to 0.128 s for every
        # candidate, so building the problem raises the guard's error
        target = synthetic_target(make_bilayer())
        with pytest.raises(StabilityError, match="set by the lig layer") as info:
            make_problem(target, ParamSpec("alpha_L", 0.5, 0.95, 0.83),
                         config=SimConfig(duration=150.0, dt=0.2))
        assert info.value.limiting_layer == "lig"
        assert info.value.limit == pytest.approx(0.12844, abs=1e-5)

    def test_lig_channel_on_single_layer_raises(self):
        # the channel is resolved when the problem is built
        single = WallAssembly.single(ThermalLayer(**SILICONE))
        target = synthetic_target(single)
        for channel, message in (("theta_L", "single-layer trajectory has no lig channel"),
                                 ("bogus", "unknown trajectory channel 'bogus'")):
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                CalibrationProblem(
                    target=target, free=(ParamSpec("h_se", 2.0, 12.0, 6.0),),
                    assembly=single, source=HeatSource.constant_flux(POWER_W),
                    env=Environment(AMBIENT_K), schedule=SCHEDULE, config=CONFIG,
                    channel=channel)

    def test_closed_form_is_built_once_per_problem(self, monkeypatch):
        # a candidate recomputes only what it changes: the closed form's
        # constants are taken when the problem is built
        built, flux_on = [], calibrate_module._constant_flux_on

        def counting(*args):
            built.append(args)
            return flux_on(*args)

        monkeypatch.setattr(calibrate_module, "_constant_flux_on", counting)
        problem = make_problem(synthetic_target(make_bilayer()),
                               ParamSpec("alpha_L", 0.5, 0.95, 0.83),
                               ParamSpec("h_Le", 5.0, 40.0, 18.0))
        values = [objective(problem, [0.6 + 0.05 * i, 10.0 + i]) for i in range(5)]
        assert len(built) == 1
        assert len(set(values)) == 5

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
        assert objective(problem, [0.7]) == float(np.add.reduce(diff * diff))

    @pytest.mark.parametrize("radiative", [False, True], ids=["flux", "radiative"])
    def test_sse_is_numpys_pairwise_sum(self, monkeypatch, radiative):
        # the squared errors are summed by np.add.reduce, whose additions are
        # numpy's own on every machine, where a BLAS dot may fuse them
        simulated = []
        if radiative:
            def integrate(*args):
                trajectory = simulate_module._integrate(*args)
                simulated.append(np.interp(times, trajectory.times, trajectory.lig))
                return trajectory

            monkeypatch.setattr(calibrate_module, "_integrate", integrate)
            problem = radiative_problem()
        else:
            constant_flux_on = calibrate_module._constant_flux_on

            def flux_on(*args):
                flux = constant_flux_on(*args)

                def recording(*at):
                    simulated.append(flux(*at))
                    return simulated[-1]

                return recording

            monkeypatch.setattr(calibrate_module, "_constant_flux_on", flux_on)
            problem = make_problem(synthetic_target(make_bilayer()),
                                   ParamSpec("h_se", 2.0, 12.0, 6.0))
        times, measured = problem.target.times, problem.target.values
        for candidate in ([0.9, 7.0], [1.7, 3.0]) if radiative else ([7.0], [3.0]):
            sse = objective(problem, candidate)
            diff = simulated.pop() - measured
            assert sse == float(np.add.reduce(diff * diff))


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
        assert result.iterations == 1
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
        # every residual evaluation of the search and the final objective
        # call, which is at the fitted point, go through the evaluator
        problem = self.joint_problem()
        evaluated, evaluate = [], problem._evaluate
        objective_calls = []

        def counting(candidate):
            evaluated.append(list(candidate))
            return evaluate(candidate)

        def recording(problem, candidate):
            objective_calls.append(list(candidate))
            return objective(problem, candidate)

        object.__setattr__(problem, "_evaluate", counting)
        monkeypatch.setattr(calibrate_module, "objective", recording)
        result = fit(problem)
        assert result.evaluations == len(evaluated)
        assert objective_calls == evaluated[-1:] == [list(result.values.values())]

    def test_fit_path_is_pinned(self):
        # every step must stay bit-identical. At dt = 0.03 s the whole-second
        # targets fall between grid steps, so the interpolation weights count
        # too. Re-recorded when the Nelder-Mead search gave way to
        # Levenberg-Marquardt on the residuals: the simplex ended at
        # {'alpha_L': 0.6998785388084754, 'h_Le': 17.996957615523865} with
        # an SSE of 1.2841675428867526e-06 after 45 iterations and 87
        # evaluations. Its SSE had been re-recorded twice before: when the
        # closed form moved to expm1(m log1p(dt lam)), and when the squared
        # errors came to be summed by np.add.reduce instead of a BLAS dot.
        result = fit(self.joint_problem(SimConfig(duration=150.0, dt=0.03)))
        assert repr(result.values) == "{'alpha_L': 0.6998770999300368, 'h_Le': 17.996902529325403}"
        assert repr(result.sse) == "1.276052632846408e-06"
        assert result.iterations == 4
        assert result.evaluations == 14

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

    @pytest.mark.parametrize("size", [1.0, 1e-320], ids=["normal", "subnormal"])
    def test_damped_solve_of_a_singular_system(self, size):
        # two parameters with one effect: J^T J is singular, and may be
        # subnormal. At the smallest damping the fit uses, every pivot
        # stays positive, and the step solves the damped system to the
        # rounding its pivot of about 2 damping allows
        damping = calibrate_module._MIN_DAMPING
        normal = [[size, size], [size, size]]
        step = calibrate_module._solve(normal, [1e-300, 1e-300], damping)
        assert step == pytest.approx([1e-300 / (size * (2.0 + damping))] * 2, rel=1e-3)

    def test_a_parameter_with_no_effect_stays_at_its_initial_guess(self):
        # a radiative source reads no absorptance: the Jacobian column of
        # alpha_s is zero, and the fit must neither divide by it nor move it
        free = (ParamSpec("alpha_s", 0.0, 0.15, 0.1), ParamSpec("h_se", 2.0, 12.0, 6.0))
        alone = fit(radiative_problem(free=free[:1]))
        assert alone.values == {"alpha_s": 0.1}
        assert (alone.converged, alone.iterations, alone.evaluations) == (True, 1, 3)
        problem = radiative_problem(free=free)
        both = fit(problem)
        assert both.converged and both.values["alpha_s"] == 0.1
        assert both.sse < objective(problem, [0.1, 6.0])


@st.composite
def small_fit_problems(draw):
    """A 1- or 2-parameter problem on either wall under either source, with
    a synthetic heating curve as target: a few hundred steps, so that a
    radiative fit stays cheap. The curve's amplitude is drawn freely, so
    many fits end on a bound."""
    bilayer = draw(st.booleans())
    wall = make_bilayer() if bilayer else WallAssembly.single(ThermalLayer(**SILICONE))
    radiative = draw(st.booleans())
    source = (HeatSource.radiative(draw(st.floats(320.0, 600.0)), 0.9) if radiative
              else HeatSource.constant_flux(POWER_W))
    names = ["alpha_s", "h_se", "scale"] + ["alpha_L", "h_Le"] * bilayer \
        + ["Q_h"] * (not radiative)
    boxes = {"alpha_s": (0.0, 0.5), "alpha_L": (0.3, 1.0), "h_se": (1.0, 30.0),
             "h_Le": (1.0, 30.0), "scale": (0.1, 2.0), "Q_h": (0.01, 0.2)}
    free = []
    for name in draw(st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True)):
        lo, hi = boxes[name]
        lower = draw(st.floats(lo, lo + 0.4 * (hi - lo)))
        upper = draw(st.floats(lower + 0.1 * (hi - lo), hi))
        free.append(ParamSpec(name, lower, upper, draw(st.floats(lower, upper))))
    dt = draw(st.sampled_from([0.01, 0.02, 0.05]))
    duration = draw(st.floats(2.0, 6.0))
    times = np.linspace(0.0, dt * math.floor(duration / dt), draw(st.integers(3, 30)))
    rise, tau = draw(st.floats(0.0, 5.0)), draw(st.floats(0.5, 10.0))
    target = MeasurementSeries(times, AMBIENT_K + rise * -np.expm1(-times / tau))
    return CalibrationProblem(
        target=target, free=tuple(free), assembly=wall, source=source,
        env=Environment(AMBIENT_K), schedule=LightSchedule(((0.0, 0.6 * duration, 1.0),)),
        config=SimConfig(duration=duration, dt=dt))


class TestFitAgainstNumpyReference:
    """reference_fit is the Nelder-Mead fit the package used before: fit
    must converge to an SSE no larger than the reference's, but for the
    rounding of the last steps."""

    @staticmethod
    def assert_meets_reference(problem):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            got, want = fit(problem), reference_fit(problem)
        assert got.converged
        assert got.sse <= want.sse * (1.0 + 1e-9) + 1e-12
        return got

    @given(small_fit_problems())
    @settings(max_examples=100, deadline=None)
    def test_sse_is_at_most_the_references(self, problem):
        self.assert_meets_reference(problem)

    def test_a_non_identifiable_pair_meets_the_reference(self):
        # on a single layer under a constant flux only alpha_s * Q_h enters
        # the model: the normal equations are singular but for rounding
        wall = WallAssembly.single(ThermalLayer(**SILICONE))
        problem = make_problem(synthetic_target(wall), ParamSpec("alpha_s", 0.05, 0.5, 0.4),
                               ParamSpec("Q_h", 0.01, 0.2, 0.05), assembly=wall)
        got = self.assert_meets_reference(problem)
        product = got.values["alpha_s"] * got.values["Q_h"]
        assert product == pytest.approx(SILICONE["absorptance"] * POWER_W, rel=1e-6)

    def test_a_fit_whose_optimum_lies_past_the_box_corner_ends_on_both_bounds(self):
        # the preset's alpha_L = 0.83 and h_Le = 18 lie beyond the box's
        # corner (0.8, 20): both parameters end on a bound, and sit out of
        # the steps once there
        problem = make_problem(synthetic_target(make_bilayer()),
                               ParamSpec("alpha_L", 0.5, 0.8, 0.7),
                               ParamSpec("h_Le", 20.0, 40.0, 30.0))
        assert self.assert_meets_reference(problem).values == {"alpha_L": 0.8, "h_Le": 20.0}


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
        # its box stable; one with no stable corner raises the guard's
        # error at the initial point when it is built
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
            upper = lower * draw(st.floats(1.01, 1e4))
            specs.append(ParamSpec(name, lower, upper, draw(st.floats(lower, upper))))
        dt = draw(st.floats(1e-4, 0.5))
        schedule = LightSchedule(((0.0, 2.0, 1.0),))
        config = SimConfig(duration=3.0, dt=dt)
        # the last target at the run's last step, at or before 3 s
        target = MeasurementSeries((0.0, 1.0, 2.0, config.n_steps * dt), (AMBIENT_K,) * 4)

        def build(specs):
            return CalibrationProblem(target=target, free=tuple(specs), assembly=wall,
                                      source=source, env=Environment(AMBIENT_K),
                                      schedule=schedule, config=config)

        def guard(values):
            assembly, src, sched = wall, source, schedule
            for spec, value in zip(specs, values):
                assembly, src, sched = apply_named_parameter(assembly, src, sched,
                                                             spec.name, value)
            scale = max(sc for _, _, sc in _segments(sched, config.n_steps, dt))
            _check_step(_coefficients(assembly, src), dt, AMBIENT_K, scale)

        try:
            build(specs)
            built = True
        except StabilityError as exc:
            with pytest.raises(StabilityError) as initial:
                guard([s.initial for s in specs])
            assert (str(exc), exc.limit, exc.limiting_layer) \
                == (str(initial.value), initial.value.limit, initial.value.limiting_layer)
            built = False
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
            try:
                guard(corner)
                stable.add(True)
            except StabilityError:
                stable.add(False)
        assert stable == {built}


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
        # once, whatever the order they are applied in, under either source
        target = synthetic_target(make_bilayer())
        flux = make_problem(target, ParamSpec("alpha_L", 0.5, 0.95, 0.83),
                            ParamSpec("alpha_s", 0.0, 0.5, 0.17))
        for problem in (flux, replace(flux, source=HeatSource.radiative(373.0, 0.9))):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                objective(problem, [0.9, 0.3])
            assert [str(w.message) for w in caught] == [
                "layer absorptances sum to 1.2000 > 1; "
                "more power absorbed than supplied is unphysical"]
            assert caught[0].filename == __file__  # the caller's, not the package's
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                objective(problem, [0.8, 0.1])  # sums to 0.9

    @pytest.mark.filterwarnings("ignore:layer absorptances sum:UserWarning")
    def test_fit_warns_at_the_fitted_point_only(self):
        # every point of this box sums to more than 1; only the final,
        # unsuppressed objective call may warn. The start, a corner away
        # from the optimum, takes more than 10 evaluations
        target = synthetic_target(make_bilayer(absorptance=0.90))
        problem = make_problem(target, ParamSpec("alpha_L", 0.86, 0.95, 0.95),
                               ParamSpec("h_Le", 5.0, 40.0, 5.0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fit(problem)
        assert result.evaluations > 10
        assert len(caught) == 1
        assert str(caught[0].message).startswith("layer absorptances sum to 1.07")


class TestOverflow:
    """A constant flux beyond the float range: the closed form's values
    leave the float range, and objective and fit raise NumericalError."""

    @pytest.mark.parametrize("bilayer", [False, True], ids=["single", "bilayer"])
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_temperature_raises(self, bilayer):
        wall = make_bilayer() if bilayer else WallAssembly.single(ThermalLayer(**SILICONE))
        problem = make_problem(synthetic_target(wall), ParamSpec("Q_h", 1.0, 1e308, 1e308),
                               assembly=wall)
        message = "^temperature became non-finite or non-positive$"
        with pytest.raises(NumericalError, match=message):
            objective(problem, [1e308])
        with pytest.raises(NumericalError, match=message):
            fit(problem)

    @pytest.mark.parametrize("bilayer", [False, True], ids=["single", "bilayer"])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_finite_temperatures_whose_sse_overflows_give_inf(self, bilayer):
        # every temperature is finite and positive, about 1e162 K, but their
        # squared errors are not: the objective is inf, not an error
        wall = make_bilayer() if bilayer else WallAssembly.single(ThermalLayer(**SILICONE))
        problem = make_problem(synthetic_target(wall), ParamSpec("Q_h", 1.0, 1e308, 1.0),
                               assembly=wall)
        assert objective(problem, [1e160]) == math.inf


def radiative_problem(bilayer=True, last=60.0, free=(ParamSpec("scale", 0.1, 2.0, 1.0),
                                                     ParamSpec("h_se", 2.0, 12.0, 6.0)),
                      channel="auto", config=SimConfig(duration=60.0, dt=0.01)):
    """A radiative problem with 40 targets up to last, on a schedule whose
    second interval is on until the end."""
    wall = make_bilayer() if bilayer else WallAssembly.single(ThermalLayer(**SILICONE))
    times = np.linspace(0.0, last, 40)
    return CalibrationProblem(
        target=MeasurementSeries(times, AMBIENT_K + 0.3 * times), free=free, assembly=wall,
        source=HeatSource.radiative(373.0, 0.9), env=Environment(AMBIENT_K),
        schedule=LightSchedule(((0.0, 15.0, 1.0), (20.0, math.inf, 0.5))), config=config,
        channel=channel)


class TestRadiativeObjective:
    @pytest.mark.parametrize("bilayer, free_h, channel", [
        (True, "h_se", "auto"), (False, "h_se", "auto"), (True, "h_Le", "auto"),
        (True, "h_se", "theta_s")], ids=["bilayer", "single", "bilayer-h_Le", "bilayer-theta_s"])
    @pytest.mark.parametrize("last", [17.0, 23.0, 23.004, 59.999, 60.0])
    def test_stops_after_the_last_target_with_the_same_value(self, monkeypatch, bilayer,
                                                             free_h, channel, last):
        # the run stops one step after the last target's upper bracketing
        # step, before the second interval at 17 s; the value equals
        # interpolating the full-duration run
        free = (ParamSpec("scale", 0.1, 2.0, 1.0), ParamSpec(free_h, 2.0, 12.0, 6.0))
        problem = radiative_problem(bilayer, last, free, channel)
        steps = integrated_steps(monkeypatch)
        times, values = problem.target.times, problem.target.values
        for candidate in ([0.7, 6.0], [1.9, 11.5], [0.1, 2.0]):
            assembly, src, sched = problem.assembly, problem.source, problem.schedule
            for spec, value in zip(free, candidate):
                assembly, src, sched = apply_named_parameter(assembly, src, sched,
                                                             spec.name, value)
            trajectory = run(assembly, src, sched, problem.env, problem.config)
            series = series_from_trajectory(trajectory, channel)
            diff = np.interp(times, series.times, series.values) - values
            assert objective(problem, candidate) == float(np.add.reduce(diff * diff))
        assert steps == [min(6000, math.floor(last / 0.01) + 2)] * 3

    @pytest.mark.parametrize("limit", ["_MAX_SAMPLES", "_MAX_STEPS"])
    def test_run_over_its_limits_raises_runs_error(self, monkeypatch, limit):
        # the run, shortened to 2302 steps, is over either limit at 2000.
        # The problem checks its full 6000 steps against the step cap, so
        # the limits are lowered once it exists
        problem = radiative_problem(last=23.0)
        monkeypatch.setattr(simulate_module, limit, 2000)
        steps = integrated_steps(monkeypatch)
        short = SimConfig(duration=23.02, dt=0.01)
        with pytest.raises(ValidationError) as expected:
            run(problem.assembly, problem.source, problem.schedule, problem.env, short)
        with pytest.raises(ValidationError) as raised:
            objective(problem, [1.0, 6.0])
        assert str(raised.value) == str(expected.value)
        assert steps == [2302]
