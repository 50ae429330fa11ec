"""Independent reference for the benchmark's output checks.

Under a constant-flux source the wall balances are linear, so one forward
Euler step is the affine map v -> M v + c on the excess temperatures
v = theta - theta_e, with M = I + dt A and c = dt b. Its n-th iterate is
exactly v* + M^n (v0 - v*) with v* = -A^{-1} b. This module builds A and b
from the raw INI fields (no package code) and evaluates that closed form at
any step index, segment by segment, so a whole trajectory can be checked
without stepping it.
"""

import configparser
import math

import numpy as np

LAYER_KEYS = ("specific_heat", "density", "thickness", "area", "emissivity",
              "absorptance", "conductivity", "conv_coeff", "conv_faces")


def read_ini(path) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    with open(path, encoding="utf-8") as fh:
        cp.read_file(fh)
    return cp


def write_ini(cp: configparser.ConfigParser, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        cp.write(fh)


def wall_params(cp: configparser.ConfigParser) -> dict:
    """Raw numbers of the wall and drive: kind, per-layer fields, power,
    ambient temperature."""
    params = {"kind": cp.get("assembly", "kind").strip(),
              "ambient": cp.getfloat("environment", "ambient_temperature")}
    for section in ("silicone", "lig"):
        if cp.has_section(section):
            params[section] = {key: cp.getfloat(section, key) for key in LAYER_KEYS}
    if cp.has_option("source", "power"):
        params["power"] = cp.getfloat("source", "power")
    return params


def with_free(params: dict, free: dict) -> dict:
    """Copy of params with calibration names (h_se, h_Le, alpha_s, alpha_L)
    replaced."""
    out = {**params, "silicone": dict(params["silicone"])}
    if "lig" in params:
        out["lig"] = dict(params["lig"])
    fields = {"h_se": ("silicone", "conv_coeff"), "h_Le": ("lig", "conv_coeff"),
              "alpha_s": ("silicone", "absorptance"), "alpha_L": ("lig", "absorptance")}
    for name, value in free.items():
        section, key = fields[name]
        out[section][key] = float(value)
    return out


def _capacity(layer: dict) -> float:
    return layer["specific_heat"] * layer["density"] * layer["area"] * layer["thickness"]


def _loss(layer: dict) -> float:
    return layer["conv_faces"] * layer["conv_coeff"] * layer["area"]


def linear_system(params: dict) -> tuple[np.ndarray, np.ndarray]:
    """(A, b): dv/dt = A v + scale * b for the constant-flux wall."""
    sil = params["silicone"]
    power = params["power"]
    cap_s = _capacity(sil)
    if params["kind"] == "single_layer":
        return (np.array([[-_loss(sil) / cap_s]]),
                np.array([sil["absorptance"] * power / cap_s]))
    lig = params["lig"]
    cap_l = _capacity(lig)
    k = sil["conductivity"] * sil["area"] / sil["thickness"]
    a = np.array([[-(_loss(sil) + k) / cap_s, k / cap_s],
                  [k / cap_l, -(_loss(lig) + k) / cap_l]])
    b = np.array([sil["absorptance"] * power / cap_s,
                  lig["absorptance"] * power / cap_l])
    return a, b


def n_steps(duration: float, dt: float) -> int:
    return int(math.floor(duration / dt + 1e-9))


def segments(intervals, total: int, dt: float) -> list[tuple[int, int, float]]:
    """(first_step, end_step, scale) runs covering [0, total); interval ends
    snap to the nearest step and gaps are dark."""
    runs, cursor = [], 0
    for start, end, scale in intervals:
        i0 = max(int(round(start / dt)), cursor)
        i1 = min(total if math.isinf(end) else int(round(end / dt)), total)
        if i1 <= i0:
            continue
        if i0 > cursor:
            runs.append((cursor, i0, 0.0))
        runs.append((i0, i1, scale))
        cursor = i1
    if cursor < total:
        runs.append((cursor, total, 0.0))
    return runs


def euler_closed_form(params: dict, intervals, dt: float, duration: float,
                      steps) -> np.ndarray:
    """Euler iterates at the given step indices as absolute temperatures,
    shape (len(steps), n_layers), started from ambient."""
    a, b = linear_system(params)
    m = np.eye(len(b)) + dt * a
    # A is similar to a symmetric matrix, so M has real eigenvalues
    lam, vec = np.linalg.eig(m)
    lam, vec = lam.real, vec.real
    vec_inv = np.linalg.inv(vec)
    steps = np.asarray(steps, dtype=np.int64)
    out = np.empty((len(steps), len(b)))
    v0 = np.zeros(len(b))
    for i0, i1, scale in segments(intervals, n_steps(duration, dt), dt):
        fixed = -np.linalg.solve(a, scale * b)
        mask = (steps >= i0) & (steps <= i1)
        powers = lam[None, :] ** (steps[mask] - i0)[:, None]
        out[mask] = fixed + ((powers * (vec_inv @ (v0 - fixed))[None, :]) @ vec.T)
        v0 = fixed + vec @ (lam ** (i1 - i0) * (vec_inv @ (v0 - fixed)))
    return params["ambient"] + out
