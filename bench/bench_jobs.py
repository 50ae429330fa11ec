"""Workload inputs, CLI jobs and output checks.

Every job is a list of CLI invocations plus a checker. The inputs of a job
come from a numpy Generator seeded by (run seed, job index); the program
sees only the generated INI, CSV and argv. Each checker recomputes the
expected outputs on its own (closed-form Euler iterates from bench_model,
numpy re-derivations of the metrics) and returns one (name, ok, detail)
tuple per check.
"""

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import bench_model as bm

KELVIN_OFFSET = 273.15
RESPONSE_FRACTION = 0.632
TIME_EPS = 1e-9
# CSV and key=value outputs carry 6 decimals
PRINT_TOL = 2e-6

NOISE_K = 0.05  # sigma of the synthetic calibration targets
FIT_SIGMAS = 5.0  # fitted values must land within this many standard errors
RMSE_RANGE = (0.5 * NOISE_K, 1.5 * NOISE_K)
PEAK_TOL_K = 1e-3

# Full size is what the benchmark measures; smoke size runs the same code
# path in well under a second per job.
SIZES = {
    "full": {"forward_dt": 0.01, "calibrate_dt": 0.05, "sweep_dt": 0.01,
             "sweep_points": 20, "sweep_stride": 10},
    "smoke": {"forward_dt": 0.1, "calibrate_dt": 0.1, "sweep_dt": 0.05,
              "sweep_points": 4, "sweep_stride": 2},
}


@dataclass
class Job:
    commands: list  # (label, argv) in execution order
    check: Callable  # {label: (exit_code, stdout)} -> [(name, ok, detail)]
    sweep_out: Path | None = None  # sweep CSV; each of its points is an operation
    points: int = 0
    info: dict = field(default_factory=dict)  # seeded truth, for tests


def parse_report(stdout: str) -> dict:
    report = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            report[key.strip()] = value.strip()
    return report


def _close(got, want, tol) -> bool:
    return got is not None and math.isfinite(got) and abs(got - want) <= tol


def _float(report: dict, key: str):
    try:
        return float(report[key])
    except (KeyError, ValueError):
        return None


# --- numpy re-derivations of the metrics -----------------------------------

def t63_window_final(t: np.ndarray, v: np.ndarray, window: float) -> float:
    end = min(t[0] + window, t[-1])
    final = float(np.interp(end, t, v))
    level = v[0] + RESPONSE_FRACTION * (final - v[0])
    crossed = v[1:] >= level if final > v[0] else v[1:] <= level
    i = int(np.argmax(crossed)) + 1
    if not crossed[i - 1]:
        return math.nan
    return float(t[i - 1] + (level - v[i - 1]) * (t[i] - t[i - 1]) / (v[i] - v[i - 1]))


def _range_table(v: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """max - min of v[lo:hi] for every pair, by a sparse table of
    power-of-two block extrema."""
    mins, maxs = [v], [v]
    width = 1
    while 2 * width <= len(v):
        mins.append(np.minimum(mins[-1][:-width], mins[-1][width:]))
        maxs.append(np.maximum(maxs[-1][:-width], maxs[-1][width:]))
        width *= 2
    length = hi - lo
    level = np.floor(np.log2(length)).astype(np.int64)
    out = np.empty(len(lo))
    for k in np.unique(level):
        sel = level == k
        a, b = lo[sel], hi[sel] - (1 << k)
        out[sel] = (np.maximum(maxs[k][a], maxs[k][b])
                    - np.minimum(mins[k][a], mins[k][b]))
    return out


def plateau(t: np.ndarray, v: np.ndarray, threshold: float, window: float):
    """(mean, start) of the earliest window [t_i, t_i + window] whose value
    range is below threshold, or None."""
    anchors = np.flatnonzero(t <= t[-1] - window + TIME_EPS)
    ends = np.searchsorted(t, t[anchors] + window + TIME_EPS, side="right")
    ok = np.flatnonzero(_range_table(v, anchors, ends) < threshold)
    if not len(ok):
        return None
    i, j = anchors[ok[0]], ends[ok[0]]
    return float(v[i:j].mean()), float(t[i])


def cooling_tau(t: np.ndarray, v: np.ndarray, ambient: float):
    """Newton-cooling time constant of the tail after the first maximum,
    from the closed-form least-squares slope of log(v - ambient)."""
    peak = int(np.argmax(v))
    tt, y = t[peak:], v[peak:]
    if len(tt) < 2 or not y[-1] < y[0] or not np.all(y > ambient):
        return None
    y = np.log(y - ambient)
    slope = float(((tt - tt.mean()) * (y - y.mean())).sum() / ((tt - tt.mean()) ** 2).sum())
    return -1.0 / slope


# --- forward: simulate -> metrics -------------------------------------------

class Forward:
    """Bilayer preset, light on for a seeded T_on in [250, 300] s of a
    400 s run at record stride 1, then the metrics command on that CSV."""

    name = "forward"
    PRESET = "table1_bilayer"
    DURATION = 400.0
    PLATEAU_THRESHOLD = 0.5
    PLATEAU_WINDOW = 20.0
    AMBIENT = 298.0

    def __init__(self, root: Path, workdir: Path, size: dict):
        self.preset_file = root / "src" / "phototherm" / "presets" / f"{self.PRESET}.ini"
        self.params = bm.wall_params(bm.read_ini(self.preset_file))
        self.dt = size["forward_dt"]
        self.workdir = workdir
        self.scenarios = [self.preset_file]

    def make_job(self, rng: np.random.Generator, index: int) -> Job:
        t_on = round(float(rng.uniform(250.0, 300.0)), 2)
        out = self.workdir / f"run{index}.csv"
        simulate = ["simulate", "--preset", self.PRESET, "--duration", f"{self.DURATION:g}",
                    "--dt", f"{self.dt:g}", "--schedule", f"0:{t_on:.2f}:1", "--out", str(out)]
        metrics = ["metrics", str(out), "--window", f"{t_on:.2f}",
                   "--plateau-threshold", f"{self.PLATEAU_THRESHOLD:g}",
                   "--plateau-window", f"{self.PLATEAU_WINDOW:g}"]
        return Job(commands=[("simulate", simulate), ("metrics", metrics)],
                   check=lambda results: self.check(results, out, t_on))

    def check(self, results: dict, out: Path, t_on: float) -> list:
        checks = []
        try:
            data = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        except (OSError, ValueError) as exc:
            return [("forward.trajectory", False, f"unreadable trajectory: {exc}")]
        steps = np.arange(bm.n_steps(self.DURATION, self.dt) + 1)
        expect = bm.euler_closed_form(self.params, [(0.0, t_on, 1.0)], self.dt,
                                      self.DURATION, steps)
        if data.shape != (len(steps), 3):
            checks.append(("forward.trajectory", False,
                           f"shape {data.shape}, expected {(len(steps), 3)}"))
            return checks
        err = max(float(np.abs(data[:, 0] - steps * self.dt).max()),
                  float(np.abs(data[:, 1:] - expect).max()))
        checks.append(("forward.trajectory", err <= PRINT_TOL,
                       f"max deviation from closed-form Euler {err:.2e}"))

        t, v = data[:, 0], data[:, 2]
        report = parse_report(results["metrics"][1])
        want = t63_window_final(t, v, t_on)
        got = _float(report, "t63_s")
        checks.append(("forward.t63", _close(got, want, 1e-5),
                       f"t63 {got} vs {want:.6f}"))
        want = plateau(t, v, self.PLATEAU_THRESHOLD, self.PLATEAU_WINDOW)
        got = (_float(report, "plateau_K"), _float(report, "plateau_reach_s"))
        ok = want is not None and _close(got[0], want[0], 1e-5) and _close(got[1], want[1], 1e-5)
        checks.append(("forward.plateau", ok, f"plateau {got} vs {want}"))
        want = cooling_tau(t, v, self.AMBIENT)
        got = _float(report, "cooling_tau_s")
        ok = want is not None and _close(got, want, 1e-6 * abs(want) + 1e-5)
        checks.append(("forward.cooling_tau", ok, f"tau {got} vs {want}"))
        return checks


# --- calibrate: 1-parameter single-layer fit, 2-parameter bilayer fit ------

class Calibrate:
    """Heat-then-cool scenarios (150 s, light on 0-90 s) from both presets;
    noisy targets generated from seeded true parameters."""

    name = "calibrate"
    DURATION = 150.0
    INTERVALS = [(0.0, 90.0, 1.0)]
    FITS = (
        ("calibrate_single", "table1_single",
         (("h_se", 2.0, 12.0, 4.0),), {"h_se": (4.0, 10.0)}),
        ("calibrate_bilayer", "table1_bilayer",
         (("alpha_L", 0.5, 0.95, 0.7), ("h_Le", 5.0, 40.0, 12.0)),
         {"alpha_L": (0.6, 0.83), "h_Le": (8.0, 32.0)}),
    )

    def __init__(self, root: Path, workdir: Path, size: dict):
        self.dt = size["calibrate_dt"]
        self.workdir = workdir
        self.scenarios, self.params = [], {}
        for label, preset, _, _ in self.FITS:
            cp = bm.read_ini(root / "src" / "phototherm" / "presets" / f"{preset}.ini")
            cp.set("sim", "duration", f"{self.DURATION:g}")
            cp.set("sim", "dt", f"{self.dt:g}")
            cp.set("schedule", "intervals", "0:90:1")
            path = workdir / f"{label}.ini"
            bm.write_ini(cp, path)
            self.scenarios.append(path)
            self.params[label] = bm.wall_params(cp)

    def _curve(self, label: str, free: dict, times: np.ndarray) -> np.ndarray:
        params = bm.with_free(self.params[label], free)
        states = bm.euler_closed_form(params, self.INTERVALS, self.dt, self.DURATION,
                                      np.rint(times / self.dt).astype(np.int64))
        return states[:, -1]  # the channel calibrate compares: theta_L, else theta_s

    def standard_errors(self, label: str, truth: dict, times: np.ndarray) -> dict:
        """Standard errors of the least-squares estimates under NOISE_K noise,
        from the Jacobian of the closed-form curve at the truth."""
        names = list(truth)
        cols = []
        for name in names:
            h = 1e-5 * abs(truth[name])
            up = self._curve(label, {**truth, name: truth[name] + h}, times)
            down = self._curve(label, {**truth, name: truth[name] - h}, times)
            cols.append((up - down) / (2 * h))
        jac = np.stack(cols, axis=1)
        cov = NOISE_K ** 2 * np.linalg.inv(jac.T @ jac)
        return {name: float(math.sqrt(cov[i, i])) for i, name in enumerate(names)}

    def make_job(self, rng: np.random.Generator, index: int) -> Job:
        commands, expected = [], {}
        times = np.arange(0.0, self.DURATION + 0.5, 1.0)
        for (label, _, specs, truth_ranges), scenario in zip(self.FITS, self.scenarios):
            truth = {name: float(rng.uniform(lo, hi)) for name, (lo, hi) in truth_ranges.items()}
            values = self._curve(label, truth, times) + rng.normal(0.0, NOISE_K, len(times))
            target = self.workdir / f"{label}{index}.csv"
            with open(target, "w", encoding="utf-8", newline="") as fh:
                fh.write("# unit: C\ntime_s,value\n")
                for t, v in zip(times, values):
                    fh.write(f"{t:.6f},{v - KELVIN_OFFSET:.6f}\n")
            argv = ["calibrate", "--config", str(scenario), "--target", str(target)]
            for name, lo, hi, init in specs:
                argv += ["--param", f"{name}:{lo:g}:{hi:g}:{init:g}"]
            commands.append((label, argv))
            expected[label] = (truth, self.standard_errors(label, truth, times))
        return Job(commands=commands, check=lambda results: self.check(results, expected),
                   info={"truth": {k: v[0] for k, v in expected.items()}})

    @staticmethod
    def check(results: dict, expected: dict) -> list:
        checks = []
        for label, (truth, stderr) in expected.items():
            report = parse_report(results[label][1])
            checks.append((f"{label}.converged", report.get("converged") == "true",
                           f"converged={report.get('converged')}"))
            for name, value in truth.items():
                got = _float(report, name)
                tol = FIT_SIGMAS * stderr[name]
                checks.append((f"{label}.{name}", _close(got, value, tol),
                               f"{name} {got} vs truth {value:.6f} +- {tol:.2e}"))
            rmse = _float(report, "rmse_K")
            ok = rmse is not None and RMSE_RANGE[0] <= rmse <= RMSE_RANGE[1]
            checks.append((f"{label}.rmse", ok, f"rmse_K {rmse} for noise {NOISE_K}"))
        return checks


# --- sweep: radiative working-distance sweep --------------------------------

class Sweep:
    """Bilayer wall under a 373 K grey-body source; seeded working distances
    in [0.05, 0.15] m, one per equal-width stratum, in shuffled order."""

    name = "sweep"
    D_REF = 0.05
    D_RANGE = (0.05, 0.15)

    def __init__(self, root: Path, workdir: Path, size: dict):
        cp = bm.read_ini(root / "src" / "phototherm" / "presets" / "table1_bilayer.ini")
        cp.set("source", "mode", "radiative_body")
        cp.remove_option("source", "power")
        cp.set("source", "source_temperature", "373.0")
        cp.set("source", "source_emissivity", "0.9")
        cp.set("sim", "dt", f"{size['sweep_dt']:g}")
        cp.set("sim", "duration", "300.0")
        cp.set("sim", "record_stride", str(size["sweep_stride"]))
        cp.set("sim", "metric_window", "300.0")
        self.points = size["sweep_points"]
        self.workdir = workdir
        self.scenario = workdir / "sweep.ini"
        bm.write_ini(cp, self.scenario)
        self.scenarios = [self.scenario]

    def make_job(self, rng: np.random.Generator, index: int) -> Job:
        edges = np.linspace(*self.D_RANGE, self.points + 1)
        distances = np.round(rng.uniform(edges[:-1], edges[1:]), 5)
        rng.shuffle(distances)
        out = self.workdir / f"sweep{index}.csv"
        argv = ["sweep", "--config", str(self.scenario), "--param", "distance",
                "--distances", ",".join(f"{d:.5f}" for d in distances),
                "--d-ref", f"{self.D_REF:g}", "--outputs", "t63,peak,steady",
                "--out", str(out)]
        return Job(commands=[("sweep", argv)], sweep_out=out, points=len(distances),
                   check=lambda results: self.check(out, distances))

    @staticmethod
    def read_rows(path: Path) -> list:
        try:
            with open(path, encoding="utf-8", newline="") as fh:
                return list(csv.DictReader(fh))
        except OSError:
            return []

    @classmethod
    def check(cls, out: Path, distances: np.ndarray) -> list:
        rows = cls.read_rows(out)
        got = [float(r["value"]) for r in rows]
        ok = len(rows) == len(distances) and np.allclose(got, distances, rtol=0, atol=1e-9)
        checks = [("sweep.points", ok, f"{len(rows)} rows for {len(distances)} distances")]
        good = [r for r in rows if r.get("status") == "ok"]
        if not ok or len(good) != len(rows):
            return checks + [("sweep.monotone", False, "rows missing or failed")]
        order = np.argsort(got)
        col = {key: np.array([float(rows[i][key]) for i in order])
               for key in ("t63_s", "peak_K", "steady_theta_s_K", "steady_theta_L_K")}
        falls = min(float(np.diff(col["steady_theta_s_K"]).max()),
                    float(np.diff(col["steady_theta_L_K"]).max())) if len(rows) > 1 else 0.0
        rises = float(np.diff(col["t63_s"]).min()) if len(rows) > 1 else 0.0
        excess = float((col["peak_K"] - col["steady_theta_L_K"]).max())
        checks.append(("sweep.steady_falls", falls <= PRINT_TOL,
                       f"largest steady increase with distance {falls:.2e} K"))
        checks.append(("sweep.t63_rises", rises >= -PRINT_TOL,
                       f"largest t63 decrease with distance {-rises:.2e} s"))
        checks.append(("sweep.peak_below_steady", excess <= PEAK_TOL_K,
                       f"max peak - steady {excess:.2e} K"))
        return checks


WORKLOADS = {cls.name: cls for cls in (Forward, Calibrate, Sweep)}


def sweep_point_failures(job: Job) -> int:
    """Sweep points of a finished job that are missing or not ok."""
    if job.sweep_out is None:
        return 0
    rows = Sweep.read_rows(job.sweep_out)
    return job.points - sum(1 for r in rows if r.get("status") == "ok")
