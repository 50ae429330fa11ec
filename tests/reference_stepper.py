"""Independent reference stepper: forward Euler one step at a time.

This is the oracle that `phototherm.run` must match bit for bit. It works
from the raw layer and source fields (no package helpers), one function per
physical term, and evaluates every float operation in the order `run`'s
inlined loop bodies do. The drive scale of a step is looked up from the
schedule in continuous time (`scale_at`), not from `run`'s grid-snapped
segments, so the two agree wherever no interval bound falls between steps.
"""

import math
from typing import NamedTuple

from phototherm import STEFAN_BOLTZMANN, ValidationError


class State(NamedTuple):
    """Temperatures of the wall at one instant."""

    time: float  # s
    silicone_temperature: float  # K
    lig_temperature: float | None = None  # K, bilayer only


def checked(state):
    """state, once its time is finite and each of its temperatures finite
    and > 0; ValidationError otherwise."""
    if not math.isfinite(state.time):
        raise ValidationError("time must be finite")
    ts, tl = state.silicone_temperature, state.lig_temperature
    if not (math.isfinite(ts) and ts > 0.0):
        raise ValidationError("silicone_temperature must be strictly positive")
    if tl is not None and not (math.isfinite(tl) and tl > 0.0):
        raise ValidationError("lig_temperature must be strictly positive")
    return state


def samples(trajectory):
    """The trajectory's recorded samples as checked States of Python
    floats, built from its columns."""
    lig = trajectory.lig
    lig = (None,) * len(trajectory.times) if lig is None else lig.tolist()
    return tuple(checked(State(*sample)) for sample in zip(
        trajectory.times.tolist(), trajectory.silicone.tolist(), lig))


def scale_at(schedule, t):
    """Drive scale of schedule at time t; intervals are half-open
    [start, end) and gaps are off."""
    for start, end, scale in schedule.intervals:
        if start <= t < end:
            return scale
    return 0.0


def grey_body_resistance(eps_hot, eps_cold):
    """The dimensionless grey-body resistance 1/eps_h + 1/eps_c - 1."""
    return 1.0 / eps_hot + 1.0 / eps_cold - 1.0


def radiative_exchange(theta_hot, eps_hot, theta_cold, eps_cold, area):
    """Net grey-body power from the hot surface to the cold one, in W:
    sigma (Th^4 - Tc^4) A / (1/eps_h + 1/eps_c - 1). A temperature whose
    fourth power is beyond the float range raises OverflowError."""
    th4 = theta_hot ** 4
    resistance = grey_body_resistance(eps_hot, eps_cold)
    return STEFAN_BOLTZMANN * (th4 - theta_cold ** 4) * area / resistance


def absorbed_power(source, layer, scale=1.0):
    """Power a layer takes from a constant-flux source, in W."""
    return layer.absorptance * source.power * scale


def _coupling(silicone):
    return silicone.conductivity * silicone.area / silicone.thickness


def conduction_flow(theta_lig, theta_silicone, silicone):
    """Conductive power from the LIG film into the silicone, in W."""
    return _coupling(silicone) * (theta_lig - theta_silicone)


def source_input(source, layer, scale, layer_temperature):
    """Drive of one layer under the source, in W: absorbed_power, or scale
    times the radiative_exchange to the layer. A fourth power beyond the
    float range raises OverflowError."""
    if source.power is not None:
        return absorbed_power(source, layer, scale)
    resistance = grey_body_resistance(source.source_emissivity, layer.emissivity)
    return ((scale * (STEFAN_BOLTZMANN * layer.area / resistance))
            * (source.source_temperature ** 4 - layer_temperature ** 4))


def _capacity(layer):
    return layer.specific_heat * layer.density * layer.area * layer.thickness


def _convective(layer):
    return layer.conv_faces * layer.conv_coeff * layer.area


def drive_coefficient(source, layer, dt):
    """A layer's per-step drive coefficient under a radiative source, in
    1/K^3: its grey-body constant sigma A / (1/eps_src + 1/eps - 1) times
    its step factor dt / C."""
    resistance = grey_body_resistance(source.source_emissivity, layer.emissivity)
    return STEFAN_BOLTZMANN * layer.area / resistance * (dt / _capacity(layer))


def radiative_gain(source, layer, scale, dt, layer_temperature):
    """What a radiative source adds to a layer's temperature over a step dt,
    in K, in run's float order (scale drive_coefficient) (Th^4 - T^4). A
    fourth power beyond the float range raises OverflowError."""
    return ((scale * drive_coefficient(source, layer, dt))
            * (source.source_temperature ** 4 - layer_temperature ** 4))


def rhs_single(state, assembly, source, env, scale=1.0):
    """dT/dt of the lone silicone wall, in K/s."""
    layer, theta_s = assembly.silicone, state.silicone_temperature
    q_in = source_input(source, layer, scale, theta_s)
    return (q_in - _convective(layer) * (theta_s - env.ambient_temperature)) / _capacity(layer)


def rhs_bilayer(state, assembly, source, env, scale=1.0):
    """(dTs/dt, dTl/dt) of the bilayer wall, in K/s. The conduction term
    enters the two balances with opposite signs."""
    sil, lig = assembly.silicone, assembly.lig
    theta_s, theta_l = state.silicone_temperature, state.lig_temperature
    theta_e = env.ambient_temperature
    q_s = source_input(source, sil, scale, theta_s)
    q_l = source_input(source, lig, scale, theta_l)
    q_ls = conduction_flow(theta_l, theta_s, sil)
    d_s = (q_s - _convective(sil) * (theta_s - theta_e) + q_ls) / _capacity(sil)
    d_l = (q_l - _convective(lig) * (theta_l - theta_e) - q_ls) / _capacity(lig)
    return d_s, d_l


def radiative_increments(state, assembly, source, env, scale, dt):
    """The temperature changes (silicone, lig) of one forward-Euler step of
    length dt under a radiative source, lig None on a single layer, in
    run's float order: each layer's step factor dt / C times its
    convective and coupling conductances, then a layer gains
    radiative_gain - loss (T - theta_e) +- coupling (T_lig - T_sil)."""
    sil, lig = assembly.silicone, assembly.lig
    theta_s, theta_e = state.silicone_temperature, env.ambient_temperature
    step_s = dt / _capacity(sil)
    gain_s = (radiative_gain(source, sil, scale, dt, theta_s)
              - _convective(sil) * step_s * (theta_s - theta_e))
    if lig is None:
        return gain_s, None
    theta_l = state.lig_temperature
    step_l = dt / _capacity(lig)
    d = theta_l - theta_s
    return (gain_s + _coupling(sil) * step_s * d,
            radiative_gain(source, lig, scale, dt, theta_l)
            - _convective(lig) * step_l * (theta_l - theta_e) - _coupling(sil) * step_l * d)


def euler_step(state, assembly, source, env, scale, dt):
    """One forward-Euler step of length dt: T + dt * rate of rhs_single or
    rhs_bilayer under a constant flux, T + radiative_increments under a
    radiative source. The new State is checked: a temperature that is not
    finite and > 0 raises ValidationError."""
    ts, tl = state.silicone_temperature, state.lig_temperature
    if source.power is None:
        d_s, d_l = radiative_increments(state, assembly, source, env, scale, dt)
        return checked(State(state.time + dt, ts + d_s, None if tl is None else tl + d_l))
    if assembly.lig is None:
        rate = rhs_single(state, assembly, source, env, scale)
        return checked(State(state.time + dt, ts + dt * rate))
    d_s, d_l = rhs_bilayer(state, assembly, source, env, scale)
    return checked(State(state.time + dt, ts + dt * d_s, tl + dt * d_l))
