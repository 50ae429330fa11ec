"""Lumped-capacitance thermal model of a light-heated actuator wall.

The wall is either a bare silicone membrane or a silicone membrane backed by
a thin laser-induced-graphene (LIG) absorber film. Each layer is a single
temperature node (no internal gradients). Energy enters from the light
source, either as blackbody radiative exchange or as a constant absorbed
flux split between the layers by their absorptances, and leaves by
convection to the environment. In the bilayer the LIG film feeds the
silicone through a conduction coupling set by the silicone conductivity
and thickness.

All quantities are SI: kelvin, seconds, watts, metres. Celsius appears only
at I/O boundaries.
"""

import math
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

from .errors import NumericalError, ValidationError

STEFAN_BOLTZMANN = 5.67037442e-8  # W m^-2 K^-4
KELVIN_OFFSET = 273.15

# iteration cap for radiative steady-state solves. The bracket halves each
# step, and its ends are adjacent once it is as narrow as the float spacing
# at the root, at least 2**-1074. Below a finite source's theta_h < 1.2e77 K
# (th4 must be finite) that takes under log2(1.2e77 * 2**1074) < 1331
# steps; from a room-temperature ambient, about 300
_STEADY_MAX_ITER = 1400


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValidationError(message)


@dataclass(frozen=True)
class ThermalLayer:
    """Material and geometric properties of one wall layer."""

    specific_heat: float  # J/(kg K)
    density: float  # kg/m^3
    thickness: float  # m
    area: float  # m^2, heat-transfer area
    emissivity: float  # dimensionless, in [0, 1]
    absorptance: float  # dimensionless, in [0, 1]; constant-flux power fraction
    conductivity: float  # W/(m K); only the silicone value enters the coupling
    conv_coeff: float  # W/(m^2 K), convection to the environment
    conv_faces: int | None = None  # faces exchanging with the environment (0..2)

    def __post_init__(self):
        for name in ("specific_heat", "density", "thickness", "area",
                     "conductivity", "conv_coeff"):
            value = getattr(self, name)
            _require(math.isfinite(value) and value > 0.0,
                     f"{name} must be strictly positive, got {value!r}")
        for name in ("emissivity", "absorptance"):
            value = getattr(self, name)
            _require(math.isfinite(value) and 0.0 <= value <= 1.0,
                     f"{name} must lie in [0, 1], got {value!r}")
        if self.conv_faces is not None:
            _require(self.conv_faces in (0, 1, 2),
                     f"conv_faces must be 0, 1 or 2, got {self.conv_faces!r}")
        # each rate divides by it
        _require(heat_capacity(self) > 0.0, "heat capacity specific_heat * density * area "
                 "* thickness underflows to 0 J/K")


@dataclass(frozen=True)
class HeatSource:
    """Light source, either a radiating blackbody or a constant absorbed flux.

    A source with a power is a constant flux, split between the layers by
    absorptance; one without is a radiating blackbody at source_temperature
    with source_emissivity.
    """

    source_temperature: float | None = None  # K
    source_emissivity: float | None = None  # dimensionless, in (0, 1]
    power: float | None = None  # W

    def __post_init__(self):
        if self.power is None:
            _require(self.source_temperature is not None
                     and math.isfinite(self.source_temperature)
                     and self.source_temperature > 0.0,
                     "radiative source needs a finite source_temperature > 0")
            _require(self.source_emissivity is not None
                     and 0.0 < self.source_emissivity <= 1.0,
                     "radiative source needs source_emissivity in (0, 1]")
        else:
            _require(math.isfinite(self.power) and self.power >= 0.0,
                     "constant-flux source needs a finite power >= 0")
            _require(self.source_temperature is None and self.source_emissivity is None,
                     "source_temperature/source_emissivity are radiative fields")


@dataclass(frozen=True)
class Environment:
    """Ambient conditions."""

    ambient_temperature: float  # K

    def __post_init__(self):
        _require(math.isfinite(self.ambient_temperature)
                 and self.ambient_temperature > 0.0,
                 "ambient_temperature must be strictly positive")


@dataclass(frozen=True)
class WallAssembly:
    """Single-layer wall, or a bilayer one when it has a lig layer.

    conv_faces left as None on a layer is resolved here: 2 for the lone
    silicone wall (both faces exposed), 1 per layer in the bilayer (each
    layer has one exposed face). Explicit values are kept as given.
    """

    silicone: ThermalLayer
    lig: ThermalLayer | None = None

    def __post_init__(self):
        if self.silicone.conv_faces is None:
            faces = 2 if self.lig is None else 1
            object.__setattr__(self, "silicone", replace(self.silicone, conv_faces=faces))
        if self.lig is None:
            return
        if self.lig.conv_faces is None:
            object.__setattr__(self, "lig", replace(self.lig, conv_faces=1))
        _require(coupling_conductance(self.silicone) > 0.0,
                 "interlayer coupling conductance must be strictly positive")
        _warn_absorptance_sum(self.silicone.absorptance, self.lig.absorptance)


def _warn_absorptance_sum(alpha_s: float, alpha_l: float, stacklevel: int = 3) -> None:
    """Warn when a bilayer's layer absorptances sum to more than 1. stacklevel
    goes to warnings.warn, where 2 names this function's caller; the default
    names the caller's caller."""
    alpha_sum = alpha_s + alpha_l
    if alpha_sum > 1.0 + 1e-12:
        warnings.warn(
            f"layer absorptances sum to {alpha_sum:.4f} > 1; "
            "more power absorbed than supplied is unphysical",
            UserWarning, stacklevel=stacklevel)


def heat_capacity(layer: ThermalLayer) -> float:
    """Lumped heat capacity of a layer in J/K: specific heat times mass."""
    return layer.specific_heat * layer.density * layer.area * layer.thickness


def coupling_conductance(silicone: ThermalLayer) -> float:
    """Interlayer conduction conductance in W/K, from the silicone layer."""
    return silicone.conductivity * silicone.area / silicone.thickness


def convective_conductance(layer: ThermalLayer) -> float:
    """Linear convective loss conductance in W/K for one layer."""
    return _convective(layer.conv_faces, layer.conv_coeff, layer.area)


def _convective(faces: int | None, conv_coeff: float, area: float) -> float:
    """convective_conductance from the layer's face count (None reads as 2),
    convection coefficient and area."""
    return (2 if faces is None else faces) * conv_coeff * area


def _grey_body(theta_hot: float, eps_hot: float, eps_cold: float,
               area: float) -> tuple[float, float, float]:
    """Validated constants (theta_hot^4, area, grey-body resistance) of the
    net power a hot grey surface radiates to a cold one,
    sigma (theta_hot^4 - Tc^4) area / (1/eps_hot + 1/eps_cold - 1). Callers
    hold the hot side fixed, take them once and evaluate
    sigma * (th4 - Tc^4) * area / resistance per cold temperature Tc.
    HeatSource and ThermalLayer check every input but a layer emissivity of 0."""
    _require(0.0 < eps_cold <= 1.0, f"emissivity must lie in (0, 1], got {eps_cold!r}")
    try:
        th4 = theta_hot ** 4
    except OverflowError:
        raise ValidationError(
            f"source temperature {theta_hot:g} K is too high: its fourth power "
            "overflows a float") from None
    return th4, area, 1.0 / eps_hot + 1.0 / eps_cold - 1.0


class _Coefficients(NamedTuple):
    """The float constants of a wall under a source, as `_coefficients`
    computes them. The lig fields (cap_l, g_l, k, q_l, a_l, r_l) are None on
    a single-layer wall; q_s and q_l are None under a radiative source, and
    theta_h, th4 and the grey-body fields under a constant flux."""

    cap_s: float  # heat capacities, J/K
    cap_l: float | None
    g_s: float  # convective conductances, W/K
    g_l: float | None
    k: float | None  # interlayer coupling conductance, W/K
    q_s: float | None  # absorbed constant-flux power at drive scale 1, W
    q_l: float | None
    theta_h: float | None  # source temperature, K, and its fourth power
    th4: float | None
    a_s: float | None  # grey-body area and resistance of each layer
    r_s: float | None
    a_l: float | None
    r_l: float | None


def _coefficients(assembly: WallAssembly, source: HeatSource) -> _Coefficients:
    """The wall's constants under this source, each with the expression of
    heat_capacity, convective_conductance, coupling_conductance and
    _grey_body, and absorptance * power for an absorbed flux, so the floats
    are the same wherever they are read.
    `run`, its stability guard, the closed-form calibration and
    `steady_state` all read them from here. A radiative source has its
    emissivities and its fourth power checked here."""
    sil, lig = assembly.silicone, assembly.lig
    cap_l = g_l = k = q_s = q_l = theta_h = th4 = a_s = r_s = a_l = r_l = None
    if lig is not None:
        cap_l, g_l, k = heat_capacity(lig), convective_conductance(lig), coupling_conductance(sil)
    if source.power is not None:
        q_s = sil.absorptance * source.power
        if lig is not None:
            q_l = lig.absorptance * source.power
    else:
        theta_h = source.source_temperature
        th4, a_s, r_s = _grey_body(theta_h, source.source_emissivity, sil.emissivity, sil.area)
        if lig is not None:
            _, a_l, r_l = _grey_body(theta_h, source.source_emissivity, lig.emissivity, lig.area)
    return _Coefficients(heat_capacity(sil), cap_l, convective_conductance(sil), g_l, k,
                         q_s, q_l, theta_h, th4, a_s, r_s, a_l, r_l)


def _bisect(residual, lo: float, hi: float) -> float:
    """Root of a continuous residual bracketed by [lo, hi], to the float.

    It halves the bracket until a residual is exactly 0 or lo and hi are
    adjacent floats, and then returns the end with the smaller |residual|:
    the best float there is. A fixed residual tolerance in W would stop a
    small drive's solve at its first point, whatever that point's relative
    error in the excess over ambient.
    """
    r_lo = residual(lo)
    if r_lo == 0.0:
        return lo
    r_hi = residual(hi)
    if r_hi == 0.0:
        return hi
    # signs, not a product, which tiny residuals can underflow to 0
    if (r_lo > 0.0) == (r_hi > 0.0):
        raise NumericalError("steady-state residual does not change sign over bracket")
    for _ in range(_STEADY_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo if abs(r_lo) <= abs(r_hi) else hi
        r_mid = residual(mid)
        if r_mid == 0.0:
            return mid
        if (r_mid > 0.0) == (r_lo > 0.0):
            lo, r_lo = mid, r_mid
        else:
            hi, r_hi = mid, r_mid
    raise NumericalError(
        f"steady-state bisection did not close its bracket in {_STEADY_MAX_ITER} steps")


def steady_state(assembly: WallAssembly, source: HeatSource, env: Environment,
                 scale: float = 1.0) -> tuple[float, float | None]:
    """Silicone and lig temperatures (theta_s, theta_L), in K, at which all
    rates vanish; theta_L is None on a single layer.

    Constant-flux sources solve in closed form (the balances are linear).

    Radiative sources are solved by one bisection in the silicone
    temperature theta_s over the bracket [min(theta_e, theta_h),
    max(theta_e, theta_h)], until a residual is exactly 0 or the bracket's
    ends are adjacent floats, of which it returns the one with the smaller
    |residual|. So a tiny drive keeps its small excess over ambient to
    float resolution. With p = q_s(theta_s) - g_s (theta_s - theta_e), the
    silicone balance p + k (theta_L - theta_s) = 0 is linear in theta_L, so
    a bilayer's theta_L = theta_s - p / k follows from theta_s; it is
    clipped to the bracket. The residual is the net power into the wall,
    p + q_L(theta_L) - g_L (theta_L - theta_e), or p alone on one layer.
    The drive q falls as temperature rises, so p is strictly decreasing,
    the clipped theta_L is non-decreasing in theta_s, and the residual is
    strictly decreasing. At the ambient end it has the sign of
    theta_h - theta_e and at the source end the opposite sign or zero, so
    the root is unique. The clip is inactive at the root, since where it
    binds p and the lig's net gain have the same nonzero sign; without it
    a silicone drive much larger than k can put theta_L below 0 K near
    ambient, where the residual has the wrong sign. A constant-flux steady
    state beyond the float range is a ValidationError, and so is a
    radiative one whose ambient's fourth power is.
    """
    _require(scale >= 0.0 and math.isfinite(scale),
             f"scale must be finite and >= 0, got {scale!r}")
    theta_e = env.ambient_temperature
    bilayer = assembly.lig is not None

    if source.power is not None:
        c = _coefficients(assembly, source)
        q_s = c.q_s * scale
        if not bilayer:
            if q_s == 0.0:
                return theta_e, None
            if c.g_s <= 0.0:
                raise NumericalError("no loss path: steady state undefined under drive")
            theta_s, theta_l = theta_e + q_s / c.g_s, None
        else:
            g_s, g_l, k, q_l = c.g_s, c.g_l, c.k, c.q_l * scale
            if q_s == 0.0 and q_l == 0.0:
                return theta_e, theta_e
            # zeroed balances in excess temperatures (v, u) = (Ts - Te, Tl - Te):
            #   (g_s + k) v - k u = q_s
            #   -k v + (g_l + k) u = q_l
            det = (g_s + k) * (g_l + k) - k * k
            if det <= 0.0:
                raise NumericalError("no loss path: steady state undefined under drive")
            v = (q_s * (g_l + k) + k * q_l) / det
            u = ((g_s + k) * q_l + k * q_s) / det
            theta_s, theta_l = theta_e + v, theta_e + u
        # the drive is >= 0, so only an overflow leaves the float range
        _require(math.isfinite(theta_s) and (theta_l is None or math.isfinite(theta_l)),
                 f"the steady state under a {source.power:g} W flux at scale {scale:g} "
                 "overflows a float; lower the power or the scale")
        return theta_s, theta_l

    # radiative source: one bisection in theta_s on the net power into the wall
    theta_h = source.source_temperature
    if scale == 0.0 or theta_h == theta_e:
        return theta_e, theta_e if bilayer else None
    c = _coefficients(assembly, source)
    th4 = c.th4
    try:  # with the source's, this bounds every fourth power in the bracket
        theta_e ** 4
    except OverflowError:
        raise ValidationError(f"ambient temperature {theta_e:g} K is too high: its "
                              "fourth power overflows a float") from None

    def drive(area: float, resistance: float):
        # scale last: run's (scale sigma A / R) (th4 - T^4) puts a tiny scale
        # into a subnormal or zero constant, where this order keeps the drive.
        # ** 4.0 is the float ** 4 gives, without the int conversion
        return lambda theta: scale * (STEFAN_BOLTZMANN * (th4 - theta ** 4.0)
                                      * area / resistance)

    q_s, g_s = drive(c.a_s, c.r_s), c.g_s
    if bilayer:
        q_l, g_l, k = drive(c.a_l, c.r_l), c.g_l, c.k

    lo, hi = min(theta_e, theta_h), max(theta_e, theta_h)

    def balance(theta_s: float) -> tuple[float, float | None]:
        # net power into the wall, and the lig temperature that zeroes the
        # silicone balance p + k (theta_l - theta_s) = 0
        p = q_s(theta_s) - g_s * (theta_s - theta_e)
        if not bilayer:
            return p, None
        theta_l = min(max(theta_s - p / k, lo), hi)
        return p + q_l(theta_l) - g_l * (theta_l - theta_e), theta_l

    theta_s = _bisect(lambda theta: balance(theta)[0], lo, hi)
    return theta_s, balance(theta_s)[1]
