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


def radiative_exchange(theta_hot, eps_hot, theta_cold, eps_cold, area):
    """Net grey-body power from the hot surface to the cold one, in W:
    sigma (Th^4 - Tc^4) A / (1/eps_h + 1/eps_c - 1). A temperature whose
    fourth power is beyond the float range raises OverflowError."""
    th4 = theta_hot ** 4
    resistance = 1.0 / eps_hot + 1.0 / eps_cold - 1.0
    return STEFAN_BOLTZMANN * (th4 - theta_cold ** 4) * area / resistance


def absorbed_power(source, layer, scale=1.0):
    """Power a layer takes from a constant-flux source, in W."""
    return layer.absorptance * source.power * scale


def conduction_flow(theta_lig, theta_silicone, silicone):
    """Conductive power from the LIG film into the silicone, in W."""
    return silicone.conductivity * silicone.area / silicone.thickness * (
        theta_lig - theta_silicone)


def source_input(source, layer, scale, layer_temperature):
    """Drive of one layer under the source, in W."""
    if source.power is not None:
        return absorbed_power(source, layer, scale)
    return scale * radiative_exchange(source.source_temperature, source.source_emissivity,
                                      layer_temperature, layer.emissivity, layer.area)


def _capacity(layer):
    return layer.specific_heat * layer.density * layer.area * layer.thickness


def _convective(layer):
    return layer.conv_faces * layer.conv_coeff * layer.area


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


def euler_step(state, assembly, source, env, scale, dt):
    """One forward-Euler step of length dt. The new State is checked: a
    temperature that is not finite and > 0 raises ValidationError."""
    if assembly.lig is None:
        rate = rhs_single(state, assembly, source, env, scale)
        return checked(State(state.time + dt, state.silicone_temperature + dt * rate))
    d_s, d_l = rhs_bilayer(state, assembly, source, env, scale)
    return checked(State(state.time + dt, state.silicone_temperature + dt * d_s,
                         state.lig_temperature + dt * d_l))
