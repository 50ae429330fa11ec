import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phototherm import (
    Environment,
    HeatSource,
    LightSchedule,
    NumericalError,
    STEFAN_BOLTZMANN,
    SimConfig,
    SourceMode,
    ThermalLayer,
    ThermalState,
    ValidationError,
    WallAssembly,
    WallKind,
    convective_conductance,
    coupling_conductance,
    heat_capacity,
    run,
    steady_state,
)
from conftest import AMBIENT_K, CAP_LIG, CAP_SILICONE, LIG, POWER_W, SILICONE
from reference_stepper import (
    absorbed_power,
    conduction_flow,
    radiative_exchange,
    rhs_bilayer,
    rhs_single,
)

# immutable shared instances for hypothesis-driven tests (fixtures are
# function-scoped, which hypothesis rejects inside @given)
BILAYER = WallAssembly.bilayer(ThermalLayer(**SILICONE), ThermalLayer(**LIG))
FLUX = HeatSource.constant_flux(POWER_W)
ENV = Environment(AMBIENT_K)


class TestThermalLayer:
    @pytest.mark.parametrize("field", ["specific_heat", "density", "thickness",
                                       "area", "conductivity", "conv_coeff"])
    def test_positive_fields_enforced(self, field):
        bad = dict(SILICONE, **{field: 0.0})
        with pytest.raises(ValidationError, match=field):
            ThermalLayer(**bad)

    @pytest.mark.parametrize("field,value", [("emissivity", 1.3), ("emissivity", -0.1),
                                             ("absorptance", 1.01), ("absorptance", -1e-9)])
    def test_unit_interval_fields_enforced(self, field, value):
        with pytest.raises(ValidationError, match=field):
            ThermalLayer(**dict(SILICONE, **{field: value}))

    def test_conv_faces_range(self):
        with pytest.raises(ValidationError, match="conv_faces"):
            ThermalLayer(**SILICONE, conv_faces=3)
        for faces in (0, 1, 2, None):
            assert ThermalLayer(**SILICONE, conv_faces=faces).conv_faces == faces


class TestAssembly:
    def test_single_defaults_two_faces(self, silicone_layer):
        assert WallAssembly.single(silicone_layer).silicone.conv_faces == 2

    def test_bilayer_defaults_one_face_each(self, silicone_layer, lig_layer):
        wall = WallAssembly.bilayer(silicone_layer, lig_layer)
        assert wall.silicone.conv_faces == 1
        assert wall.lig.conv_faces == 1

    def test_explicit_faces_kept(self):
        layer = ThermalLayer(**SILICONE, conv_faces=1)
        assert WallAssembly.single(layer).silicone.conv_faces == 1

    def test_bilayer_requires_lig(self, silicone_layer):
        with pytest.raises(ValidationError):
            WallAssembly(kind=WallKind.BILAYER, silicone=silicone_layer)

    def test_single_rejects_lig(self, silicone_layer, lig_layer):
        with pytest.raises(ValidationError):
            WallAssembly(kind=WallKind.SINGLE_LAYER, silicone=silicone_layer,
                         lig=lig_layer)

    def test_absorptance_sum_above_one_warns(self, silicone_layer):
        greedy = ThermalLayer(**dict(LIG, absorptance=0.9))
        with pytest.warns(UserWarning, match="absorptances"):
            WallAssembly.bilayer(silicone_layer, greedy)

    def test_table_values_do_not_warn(self, recwarn, silicone_layer, lig_layer):
        WallAssembly.bilayer(silicone_layer, lig_layer)  # 0.17 + 0.83 == 1.0
        assert not [w for w in recwarn if issubclass(w.category, UserWarning)]


class TestThermalState:
    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValidationError):
            ThermalState(0.0, -1.0)
        with pytest.raises(ValidationError):
            ThermalState(0.0, 300.0, 0.0)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            ThermalState(0.0, float("nan"))


class TestHeatCapacity:
    def test_silicone_value(self, silicone_layer):
        assert heat_capacity(silicone_layer) == pytest.approx(0.13650, rel=1e-12)

    def test_lig_value(self, lig_layer):
        assert heat_capacity(lig_layer) == pytest.approx(2.80e-3, rel=1e-12)

    def test_linear_in_thickness(self, silicone_layer):
        doubled = ThermalLayer(**dict(SILICONE, thickness=2 * SILICONE["thickness"]))
        assert heat_capacity(doubled) == 2 * heat_capacity(silicone_layer)


class TestRadiativeExchange:
    # the reference stepper's grey-body exchange
    def test_equal_temperatures_exchange_nothing(self):
        assert radiative_exchange(350.0, 0.9, 350.0, 0.8, 1e-4) == 0.0

    def test_black_surfaces_value(self):
        # direct evaluation with unit emissivities: sigma (Th^4 - Tc^4) A
        expected = STEFAN_BOLTZMANN * (400.0 ** 4 - 300.0 ** 4) * 1e-4
        got = radiative_exchange(400.0, 1.0, 300.0, 1.0, 1e-4)
        assert got == pytest.approx(expected, rel=1e-15)
        assert got == pytest.approx(0.09923, abs=5e-6)

    @given(th=st.floats(200.0, 2000.0), tc=st.floats(200.0, 2000.0),
           eh=st.floats(0.05, 1.0), ec=st.floats(0.05, 1.0),
           area=st.floats(1e-6, 1e-2))
    def test_antisymmetric_exactly(self, th, tc, eh, ec, area):
        forward = radiative_exchange(th, eh, tc, ec, area)
        backward = radiative_exchange(tc, ec, th, eh, area)
        assert forward == -backward


class TestAbsorbedPower:
    # the reference stepper's constant-flux drive
    def test_silicone_share(self, flux_source, silicone_layer):
        assert absorbed_power(flux_source, silicone_layer) == pytest.approx(0.01275, rel=1e-12)

    def test_lig_share(self, flux_source, lig_layer):
        assert absorbed_power(flux_source, lig_layer) == pytest.approx(0.06225, rel=1e-12)

    def test_scale_zero_means_off(self, flux_source, lig_layer):
        assert absorbed_power(flux_source, lig_layer, scale=0.0) == 0.0


class TestConduction:
    # the reference stepper's interlayer conduction
    def test_no_gradient_no_flow(self, silicone_layer):
        assert conduction_flow(310.0, 310.0, silicone_layer) == 0.0

    def test_unit_gradient(self, silicone_layer):
        assert conduction_flow(300.0, 299.0, silicone_layer) == pytest.approx(0.02, rel=1e-12)

    def test_doubling_thickness_halves_flow(self, silicone_layer):
        thick = ThermalLayer(**dict(SILICONE, thickness=2 * SILICONE["thickness"]))
        assert conduction_flow(300.0, 299.0, thick) == pytest.approx(
            0.5 * conduction_flow(300.0, 299.0, silicone_layer), rel=1e-15)

    def test_sign_follows_gradient(self, silicone_layer):
        assert conduction_flow(320.0, 300.0, silicone_layer) > 0
        assert conduction_flow(300.0, 320.0, silicone_layer) < 0


class TestRhsSingle:
    # the reference stepper's single-layer rate
    def test_initial_rate(self, single_wall, flux_source, environment):
        state = ThermalState(0.0, AMBIENT_K)
        rate = rhs_single(state, single_wall, flux_source, environment)
        assert rate == pytest.approx(0.01275 / 0.13650, rel=1e-12)

    def test_no_drive_at_ambient_is_zero(self, single_wall, flux_source, environment):
        state = ThermalState(0.0, AMBIENT_K)
        assert rhs_single(state, single_wall, flux_source, environment, scale=0.0) == 0.0

    def test_zero_at_steady_state(self, single_wall, flux_source, environment):
        steady = steady_state(single_wall, flux_source, environment)
        rate = rhs_single(steady, single_wall, flux_source, environment)
        assert abs(rate) < 1e-9


class TestRhsBilayer:
    # the reference stepper's bilayer rates
    def test_initial_rates(self, bilayer_wall, flux_source, environment):
        state = ThermalState(0.0, AMBIENT_K, AMBIENT_K)
        d_s, d_l = rhs_bilayer(state, bilayer_wall, flux_source, environment)
        assert d_l == pytest.approx(0.06225 / 2.80e-3, rel=1e-12)
        assert d_s == pytest.approx(0.01275 / 0.13650, rel=1e-12)

    def test_equilibrium_without_drive(self, bilayer_wall, flux_source, environment):
        state = ThermalState(0.0, AMBIENT_K, AMBIENT_K)
        assert rhs_bilayer(state, bilayer_wall, flux_source, environment, scale=0.0) == (0.0, 0.0)


class TestOneStepEnergy:
    @given(ts=st.floats(250.0, 400.0), tl=st.floats(250.0, 400.0),
           scale=st.floats(0.0, 3.0))
    @settings(max_examples=100, deadline=None)
    @example(ts=253.171875, tl=313.0, scale=0.0)  # convective losses nearly cancel
    def test_energy_bookkeeping(self, ts, tl, scale):
        # over one step of run, the stored-energy rate plus the convective
        # losses must equal the absorbed power. The conduction term cancels
        # between the two balances, but each balance rounds it, and the step
        # rounds each C T / dt, so both belong in the reference magnitude
        dt = 0.1
        traj = run(BILAYER, FLUX, LightSchedule.always_on(scale), ENV,
                   SimConfig(duration=dt, dt=dt), initial=ThermalState(0.0, ts, tl))
        stored = (CAP_SILICONE * (traj.silicone[1] - ts) + CAP_LIG * (traj.lig[1] - tl)) / dt
        conv = (convective_conductance(BILAYER.silicone) * (ts - AMBIENT_K)
                + convective_conductance(BILAYER.lig) * (tl - AMBIENT_K))
        absorbed = (BILAYER.silicone.absorptance
                    + BILAYER.lig.absorptance) * POWER_W * scale
        residual = stored + conv - absorbed
        conduction = coupling_conductance(BILAYER.silicone) * (tl - ts)
        stepped = (CAP_SILICONE * ts + CAP_LIG * tl) / dt
        reference = max(abs(absorbed), abs(conv), abs(stored), abs(conduction), stepped)
        assert abs(residual) <= 1e-12 * reference


class TestSteadyState:
    def test_single_closed_form(self, single_wall, flux_source, environment):
        steady = steady_state(single_wall, flux_source, environment)
        assert steady.silicone_temperature == pytest.approx(308.625, abs=1e-9)
        assert steady.lig_temperature is None

    def test_bilayer_matches_dense_solve(self, bilayer_wall, flux_source, environment):
        # independent oracle: numpy linear solve of the zeroed balances
        g_s = convective_conductance(bilayer_wall.silicone)
        g_l = convective_conductance(bilayer_wall.lig)
        k = coupling_conductance(bilayer_wall.silicone)
        matrix = np.array([[g_s + k, -k], [-k, g_l + k]])
        rhs = np.array([0.17 * POWER_W, 0.83 * POWER_W])
        v, u = np.linalg.solve(matrix, rhs)
        steady = steady_state(bilayer_wall, flux_source, environment)
        assert steady.silicone_temperature == pytest.approx(AMBIENT_K + v, rel=1e-12)
        assert steady.lig_temperature == pytest.approx(AMBIENT_K + u, rel=1e-12)
        # frozen values from the same solve
        assert steady.silicone_temperature == pytest.approx(329.030, abs=5e-3)
        assert steady.lig_temperature == pytest.approx(329.323, abs=5e-3)

    def test_scale_zero_is_ambient_exactly(self, bilayer_wall, single_wall,
                                           flux_source, environment):
        both = steady_state(bilayer_wall, flux_source, environment, scale=0.0)
        assert both.silicone_temperature == AMBIENT_K
        assert both.lig_temperature == AMBIENT_K
        lone = steady_state(single_wall, flux_source, environment, scale=0.0)
        assert lone.silicone_temperature == AMBIENT_K

    @pytest.mark.parametrize("scale", [math.inf, math.nan, -1.0])
    @pytest.mark.parametrize("source", [FLUX, HeatSource.radiative(373.0, 0.9)],
                             ids=["flux", "radiative"])
    def test_rejects_scale_not_finite_and_non_negative(self, bilayer_wall, environment,
                                                       source, scale):
        with pytest.raises(ValidationError,
                           match=rf"^scale must be finite and >= 0, got {scale!r}$"):
            steady_state(bilayer_wall, source, environment, scale=scale)

    @pytest.mark.parametrize("power, scale", [(1e308, 1.0), (POWER_W, 1e308)])
    @pytest.mark.parametrize("wall", ["single_wall", "bilayer_wall"])
    def test_flux_beyond_the_float_range_is_bad_input(self, request, environment, wall,
                                                      power, scale):
        message = (f"the steady state under a {power:g} W flux at scale {scale:g} "
                   "overflows a float; lower the power or the scale")
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            steady_state(request.getfixturevalue(wall), HeatSource.constant_flux(power),
                         environment, scale=scale)

    @given(st.floats(0.01, 5.0), st.floats(0.01, 5.0))
    @settings(max_examples=50)
    @example(a=0.010000000000000002, b=0.01)  # scales 1 ulp apart
    def test_monotone_in_scale(self, a, b):
        lo, hi = sorted((a, b))
        if hi < lo * (1 + 1e-9):
            hi = lo * (1 + 1e-9)
        cold = steady_state(BILAYER, FLUX, ENV, scale=lo)
        hot = steady_state(BILAYER, FLUX, ENV, scale=hi)
        assert hot.silicone_temperature > cold.silicone_temperature
        assert hot.lig_temperature > cold.lig_temperature

    def test_monotone_in_power(self, bilayer_wall, environment):
        temps = [steady_state(bilayer_wall, HeatSource.constant_flux(p),
                              environment).silicone_temperature
                 for p in (0.01, 0.075, 0.2, 1.0)]
        assert all(b > a for a, b in zip(temps, temps[1:]))

    def test_rhs_vanishes_at_steady(self, bilayer_wall, flux_source, environment):
        steady = steady_state(bilayer_wall, flux_source, environment)
        d_s, d_l = rhs_bilayer(steady, bilayer_wall, flux_source, environment)
        assert abs(d_s) < 1e-9
        assert abs(d_l) < 1e-9

    def test_radiative_single_against_brentq(self, environment):
        from scipy.optimize import brentq

        layer = ThermalLayer(**SILICONE)
        wall = WallAssembly.single(layer)
        source = HeatSource.radiative(500.0, 0.9)
        steady = steady_state(wall, source, environment)

        g = convective_conductance(wall.silicone)

        def residual(theta):
            return radiative_exchange(500.0, 0.9, theta, layer.emissivity,
                                      layer.area) - g * (theta - AMBIENT_K)

        oracle = brentq(residual, AMBIENT_K, 500.0, xtol=1e-10)
        assert steady.silicone_temperature == pytest.approx(oracle, abs=1e-6)

    @given(bilayer=st.booleans(),
           theta_h=st.floats(150.0, 1500.0),
           eps_h=st.floats(0.05, 1.0, exclude_min=True),
           eps_s=st.floats(0.05, 1.0, exclude_min=True),
           eps_l=st.floats(0.05, 1.0, exclude_min=True),
           scale=st.floats(0.01, 3.0))
    @settings(max_examples=60, deadline=None)
    @example(bilayer=True, theta_h=700.0, eps_h=0.85, eps_s=0.95, eps_l=0.95,
             scale=1.0)  # the preset wall under a 700 K source
    @example(bilayer=True, theta_h=1197.0, eps_h=1.0, eps_s=1.0, eps_l=1.0,
             scale=3.0)  # theta_s - p / k is far below 0 K at ambient
    def test_radiative_rates_vanish(self, bilayer, theta_h, eps_h, eps_s, eps_l,
                                    scale):
        from scipy.optimize import fsolve

        sil = ThermalLayer(**{**SILICONE, "emissivity": eps_s})
        lig = ThermalLayer(**{**LIG, "emissivity": eps_l})
        wall = WallAssembly.bilayer(sil, lig) if bilayer else WallAssembly.single(sil)
        source = HeatSource.radiative(theta_h, eps_h)
        steady = steady_state(wall, source, ENV, scale)
        if bilayer:
            rates = rhs_bilayer(steady, wall, source, ENV, scale)
            temps = (steady.silicone_temperature, steady.lig_temperature)
        else:
            rates = (rhs_single(steady, wall, source, ENV, scale),)
            temps = (steady.silicone_temperature,)
        assert all(abs(rate) < 1e-6 for rate in rates)
        lo, hi = sorted((AMBIENT_K, theta_h))
        assert all(lo <= t <= hi for t in temps)
        if not bilayer:
            return

        g_s, g_l = convective_conductance(wall.silicone), convective_conductance(wall.lig)
        k = coupling_conductance(sil)

        def balances(x):
            ts, tl = x
            return (scale * radiative_exchange(theta_h, eps_h, ts, eps_s, sil.area)
                    - g_s * (ts - AMBIENT_K) + k * (tl - ts),
                    scale * radiative_exchange(theta_h, eps_h, tl, eps_l, lig.area)
                    - g_l * (tl - AMBIENT_K) - k * (tl - ts))

        start = 0.5 * (AMBIENT_K + theta_h)
        oracle = fsolve(balances, [start, start], xtol=1e-10)
        assert temps == pytest.approx(tuple(oracle), abs=1e-6)

    @given(bilayer=st.booleans(),
           theta_h=st.floats(1500.0, 10_000.0),
           eps_h=st.floats(0.05, 1.0, exclude_min=True),
           eps_s=st.floats(0.05, 1.0, exclude_min=True),
           eps_l=st.floats(0.05, 1.0, exclude_min=True),
           scale=st.floats(0.01, 3.0))
    @settings(max_examples=60, deadline=None)
    @example(bilayer=True, theta_h=4631.0, eps_h=1.0, eps_s=0.95, eps_l=0.95,
             scale=3.0)  # the preset wall: one ulp of theta moves the residual past tol
    def test_hot_radiative_rates_within_float_resolution(self, bilayer, theta_h, eps_h,
                                                         eps_s, eps_l, scale):
        """A hot source solves, with rates bounded by what one ulp of
        temperature can move.

        The bisection in theta_s stops at a residual of exactly 0, or when
        lo and hi are adjacent floats, returning the endpoint with the
        smaller |residual|. Then the root lies within ulp(theta_s) of the
        result, so |residual| <= ulp(theta_s) * S, where S bounds the
        residual's slope d(net power)/d(theta_s). With a = 4 sigma theta_h^3
        scale A / R, the largest slope of a layer's grey-body drive on
        [theta_e, theta_h], a single layer has S = a_s + g_s. On a bilayer
        the residual p + q_L(theta_L) - g_L (theta_L - theta_e) runs through
        theta_L = theta_s - p / k, whose slope is at most 1 + (a_s + g_s) / k,
        so S = (a_s + g_s) + (a_L + g_L)(1 + (a_s + g_s) / k). A node's rate
        is its power balance over its capacity C: the silicone balance is
        zero up to rounding by the choice of theta_L, and the lig balance is
        the residual minus it. Rounding in each flux is a few eps times the
        flux, below ulp(theta) times its slope, which the factor 2 covers;
        ulp(theta_h) >= ulp(theta_s) since theta_s <= theta_h. So each
        |rate| <= 2 ulp(theta_h) S / C.
        """
        sil = ThermalLayer(**{**SILICONE, "emissivity": eps_s})
        lig = ThermalLayer(**{**LIG, "emissivity": eps_l})
        wall = WallAssembly.bilayer(sil, lig) if bilayer else WallAssembly.single(sil)
        source = HeatSource.radiative(theta_h, eps_h)
        steady = steady_state(wall, source, ENV, scale)

        def drive_slope(layer):
            resistance = 1.0 / eps_h + 1.0 / layer.emissivity - 1.0
            return 4.0 * STEFAN_BOLTZMANN * theta_h ** 3 * scale * layer.area / resistance

        s_sil = drive_slope(sil) + convective_conductance(sil)
        if bilayer:
            s_lig = drive_slope(lig) + convective_conductance(lig)
            slope = s_sil + s_lig * (1.0 + s_sil / coupling_conductance(sil))
            rates = rhs_bilayer(steady, wall, source, ENV, scale)
            temps = (steady.silicone_temperature, steady.lig_temperature)
            capacities = (CAP_SILICONE, CAP_LIG)
        else:
            slope = s_sil
            rates = (rhs_single(steady, wall, source, ENV, scale),)
            temps = (steady.silicone_temperature,)
            capacities = (CAP_SILICONE,)
        for rate, capacity in zip(rates, capacities):
            assert abs(rate) <= 2.0 * math.ulp(theta_h) * slope / capacity
        assert all(AMBIENT_K <= t <= theta_h for t in temps)

    @given(bilayer=st.booleans(), scale=st.floats(1e-12, 1e-6))
    @settings(max_examples=60, deadline=None)
    @example(bilayer=False, scale=2e-12)
    @example(bilayer=True, scale=1e-9)
    def test_small_radiative_drive_keeps_its_excess(self, bilayer, scale):
        # a small drive lifts the wall by an excess linear in its scale:
        # 9.3e-11 K on the single layer at 2e-12. A bisection that stopped
        # at a residual below 1e-9 W returned ambient itself there, and at
        # 1e-9 (4.7e-8 K). Each solve lands within an ulp or two of its root
        silicone = ThermalLayer(**SILICONE)
        wall = (WallAssembly.bilayer(silicone, ThermalLayer(**LIG)) if bilayer
                else WallAssembly.single(silicone))
        source = HeatSource.radiative(373.0, 0.9)
        one, two = (steady_state(wall, source, ENV, s) for s in (scale, 2.0 * scale))
        for key in ("silicone_temperature", "lig_temperature")[:1 + bilayer]:
            excess, doubled = getattr(one, key) - AMBIENT_K, getattr(two, key) - AMBIENT_K
            assert excess > 0.0
            assert abs(doubled - 2.0 * excess) <= 8.0 * math.ulp(AMBIENT_K) + 1e-5 * doubled

    def test_root_next_to_a_subnormal_ambient_closes_its_bracket(self):
        # from 1e10 K down to a root near 2e-292 K the bracket halves about
        # 1050 times before its ends are adjacent floats
        steady = steady_state(BILAYER, HeatSource.radiative(1e10, 0.9), Environment(5e-324),
                              5e-324)
        assert 1e-293 < steady.lig_temperature < steady.silicone_temperature < 1e-291

    def test_radiative_scale_zero_is_ambient(self, bilayer_wall, environment):
        source = HeatSource.radiative(700.0, 0.85)
        steady = steady_state(bilayer_wall, source, environment, scale=0.0)
        assert steady.silicone_temperature == AMBIENT_K
        assert steady.lig_temperature == AMBIENT_K

    def test_driven_wall_without_losses_has_no_steady_state(self, flux_source,
                                                            environment):
        sealed = ThermalLayer(**SILICONE, conv_faces=0)
        wall = WallAssembly.single(sealed)
        with pytest.raises(NumericalError):
            steady_state(wall, flux_source, environment)


class TestHeatSourceValidation:
    def test_radiative_requires_temperature_and_emissivity(self):
        with pytest.raises(ValidationError):
            HeatSource(mode=SourceMode.RADIATIVE_BODY)

    def test_flux_requires_power(self):
        with pytest.raises(ValidationError):
            HeatSource.constant_flux(-1.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_flux_rejects_non_finite_power(self, value):
        with pytest.raises(ValidationError, match="finite power"):
            HeatSource.constant_flux(value)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_radiative_rejects_non_finite_temperature(self, value):
        with pytest.raises(ValidationError, match="finite source_temperature"):
            HeatSource.radiative(value, 0.9)

    @pytest.mark.parametrize("value", [0.0, -300.0])
    def test_radiative_rejects_nonpositive_temperature(self, value):
        with pytest.raises(ValidationError, match="source_temperature > 0"):
            HeatSource.radiative(value, 0.9)

    @pytest.mark.parametrize("value", [0.0, -0.2, 1.5, math.nan])
    def test_radiative_rejects_emissivity_outside_unit_interval(self, value):
        # the grey-body resistance divides by the source emissivity too
        with pytest.raises(ValidationError, match=r"source_emissivity in \(0, 1\]"):
            HeatSource.radiative(400.0, value)

    def test_environment_positive(self):
        with pytest.raises(ValidationError):
            Environment(0.0)
