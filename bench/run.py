"""phototherm benchmark: forward, calibrate and sweep workloads through the CLI.

    python3 bench/run.py --workload forward --seed 1 --seconds 30 --trace 0

Runs one workload in-process through `phototherm.cli.cli_main(argv)`, as a
closed loop with one client: each job starts when the previous one has
finished, until --seconds have passed. Every job's outputs are checked. The
last stdout line is a JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics of a
traced run with --trace 1. The lines before it repeat every figure by name,
with its unit and the sample count behind it, plus the run metadata.

--size smoke runs one reduced job through the same code path, for tests.
"""

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from bench_jobs import SIZES, WORKLOADS, sweep_point_failures
from bench_trace import TRACED, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 7
REFERENCE_STEPS = 3000
REFERENCE_REPS = 3
WARMUP_STREAM = 1 << 30  # job-seed stream of the untimed warm-up job

# Imports the package and parses the workload's scenarios in a fresh
# interpreter; prints the seconds that took.
SETUP_CODE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import phototherm, phototherm.cli
from phototherm import fileio
for path in sys.argv[2:]:
    fileio.load_config(path)
print(time.perf_counter() - start)
"""


class Ops:
    """Attempted and failed operations: CLI calls, sweep points, checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{name}: {detail}")

    def points(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.failures) < 20:
            self.failures.append(f"{failed} of {attempted} sweep points failed")


def load_cli():
    """The CLI module of the checkout's own src/ tree, never an installed copy."""
    package = SRC / "phototherm"
    if not (package / "cli.py").is_file():
        sys.exit(f"error: {package} not found; run from a phototherm checkout")
    sys.path.insert(0, str(SRC))
    import phototherm.cli
    if Path(phototherm.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported phototherm from {phototherm.__file__}, not {package}")
    return phototherm.cli


def _reference_rates(ts, tl, te, q_s, q_l, g_s, g_l, k, cap_s, cap_l):
    q_ls = k * (tl - ts)
    return (q_s - g_s * (ts - te) + q_ls) / cap_s, (q_l - g_l * (tl - te) - q_ls) / cap_l


def reference_seconds() -> float:
    """Median time of REFERENCE_REPS runs of a fixed scalar Euler loop shaped
    like the program's own. Job latencies are divided by it, taken right
    before and after each command, to cancel the host's speed drift."""
    samples = []
    for _ in range(REFERENCE_REPS):
        ts = tl = 298.0
        start = time.perf_counter()
        for _ in range(REFERENCE_STEPS):
            d_s, d_l = _reference_rates(ts, tl, 298.0, 0.01275, 0.06225,
                                        6e-4, 1.8e-3, 0.02, 0.1365, 2.8e-3)
            ts += 0.01 * d_s
            tl += 0.01 * d_l
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def run_job(cli, job, ops: Ops) -> dict:
    """Run a job's commands in order, then its checks. Returns, per command,
    its latency in seconds and in reference-loop units."""
    results, times = {}, {}
    ref_before = reference_seconds()
    for label, argv in job.commands:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            code = cli.cli_main(argv)
            seconds = time.perf_counter() - start
        ref_after = reference_seconds()
        times[label] = (seconds, 2.0 * seconds / (ref_before + ref_after))
        ref_before = ref_after
        results[label] = (code, out.getvalue())
        ops.record(f"{label}.exit", code == 0, f"exit {code}: {err.getvalue().strip()[-300:]}")
    if job.points:
        ops.points(job.points, sweep_point_failures(job))
    for name, ok, detail in job.check(results):
        ops.record(name, ok, detail)
    return times


def measure_setup(scenarios, repeats: int) -> list[float]:
    samples = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *map(str, scenarios)],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def tail(samples: list[float]):
    """(percentile, value): the highest whole percentile with at least ten
    samples above it (nearest rank), or None below 11 samples."""
    n = len(samples)
    if n < 11:
        return None
    pct = (100 * (n - 10)) // n
    rank = -(-pct * n // 100)
    return pct, sorted(samples)[rank - 1]


def commit_id() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def metadata(args) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "size": args.size, "commit": commit_id(),
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "platform": platform.platform()}


def untraced(cli, workload, args, ops: Ops, lines: list) -> dict:
    smoke = args.size == "smoke"
    latencies = defaultdict(list)
    job_s, job_ref = [], []
    deadline = time.perf_counter() + args.seconds
    while not job_s or (not smoke and time.perf_counter() < deadline):
        index = len(job_s)
        job = workload.make_job(np.random.default_rng([args.seed, index]), index)
        times = run_job(cli, job, ops)
        for label, (seconds, _) in times.items():
            latencies[label].append(seconds)
        job_s.append(sum(seconds for seconds, _ in times.values()))
        job_ref.append(sum(ref for _, ref in times.values()))

    n = len(job_s)
    lines.append(f"job_ref = {statistics.median(job_ref):.6f} ref "
                 f"(median of n={n} jobs; latency / reference-loop time)")
    lines.append(f"job_s = {statistics.median(job_s):.6f} s (median of n={n} jobs)")
    for label, samples in latencies.items():
        high = tail(samples)
        if high is None:
            lines.append(f"{label}_s = {statistics.median(samples):.6f} s "
                         f"(median, n={n}; a tail needs >= 11 samples)")
        else:
            lines.append(f"{label}_s.p50 = {statistics.median(samples):.6f} s (n={n})")
            lines.append(f"{label}_s.tail = {high[1]:.6f} s (p{high[0]}, n={n})")
    return {"job_ref": {"value": statistics.median(job_ref), "unit": "ref"}}


def traced(cli, workload, args, ops: Ops, lines: list) -> dict:
    """Alternate untraced and traced runs of job 0 until --seconds pass.
    Every traced job has the same inputs, so its work counts repeat."""
    smoke = args.size == "smoke"
    tracer = Tracer()
    plain, spanned, summaries = [], [], []
    deadline = time.perf_counter() + args.seconds
    while not plain or (not smoke and time.perf_counter() < deadline):
        job = workload.make_job(np.random.default_rng([args.seed, 0]), 0)
        plain.append(sum(seconds for seconds, _ in run_job(cli, job, ops).values()))
        job = workload.make_job(np.random.default_rng([args.seed, 0]), 0)
        tracer.start_job()
        with tracer.installed():
            spanned.append(sum(seconds for seconds, _ in run_job(cli, job, ops).values()))
        summaries.append(tracer.job_summary(tracer.jobs[-1]))

    def per_job(key: str) -> float:
        return statistics.median(s.get(key, 0) for s in summaries)

    metrics = {}

    def put(name, value, unit, note=""):
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{name} = {value:.9g} {unit}{note}")

    n = len(summaries)
    note = f" (per job, median of n={n} traced jobs)"
    job_s = statistics.median(spanned)
    for module, attr in TRACED:
        name = f"{module}.{attr}"
        self_s = per_job(f"{name}.self_s")
        put(f"{name}.calls", per_job(f"{name}.calls"), "count", note)
        put(f"{name}.self_share", self_s / job_s, "ratio",
            f" (self time {self_s:.6f} s of {job_s:.6f} s per traced job, median of n={n})")
    steps, run_s = per_job("simulate.run.steps"), per_job("simulate.run.self_s")
    put("simulate.run.steps", steps, "count", note)
    put("simulate.run.samples", per_job("simulate.run.samples"), "count", note)
    put("simulate.run.ns_per_step", 1e9 * run_s / steps if steps else 0.0, "ns",
        " (run self time / steps)")
    put("fileio.write_trajectory.bytes", per_job("fileio.write_trajectory.bytes"), "bytes", note)
    put("fileio.read_series.rows", per_job("fileio.read_series.rows"), "count", note)
    put("fileio.run_sweep.points", per_job("fileio.run_sweep.points"), "count", note)
    put("fileio.run_sweep.failed", per_job("fileio.run_sweep.failed"), "count", note)
    put("metrics.plateau_value.samples", per_job("metrics.plateau_value.samples"), "count", note)
    iterations = per_job("calibrate.fit.iterations")
    evaluations = per_job("calibrate.objective.calls")
    put("calibrate.fit.iterations", iterations, "count", note)
    put("calibrate.objective.per_iteration", evaluations / iterations if iterations else 0.0,
        "ratio", f" ({evaluations:g} objective calls / {iterations:g} iterations)")
    put("trace.overhead", sum(spanned) / sum(plain), "ratio",
        f" ({sum(spanned):.4f} s traced / {sum(plain):.4f} s untraced, {n} pairs)")
    covered = sum(s.get("cli.cli_main.total_s", 0.0) for s in summaries)
    put("trace.cli_coverage", covered / sum(spanned), "ratio",
        f" ({covered:.4f} s in cli.cli_main spans / {sum(spanned):.4f} s traced job time)")
    return metrics


def measure(cli, args, workdir: Path, lines: list) -> dict:
    workload = WORKLOADS[args.workload](ROOT, workdir, SIZES[args.size])
    smoke = args.size == "smoke"
    ops = Ops()
    if not smoke:
        # warm lazy imports and allocator pools on the same code path, untimed
        warm_dir = workdir / "warm"
        warm_dir.mkdir()
        warm = WORKLOADS[args.workload](ROOT, warm_dir, SIZES["smoke"])
        run_job(cli, warm.make_job(np.random.default_rng([args.seed, WARMUP_STREAM]), 0), ops)

    if args.trace:
        metrics = traced(cli, workload, args, ops, lines)
    else:
        metrics = untraced(cli, workload, args, ops, lines)
        setup = measure_setup(workload.scenarios, 1 if smoke else SETUP_REPEATS)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
        lines.append(f"setup_s = {statistics.median(setup):.6f} s "
                     f"(median of {len(setup)} fresh interpreters)")
        lines.append(f"peak_rss_mb = {rss_mb:.3f} MB (benchmark process)")
    lines.append(f"failed_ops = {ops.failed}/{ops.attempted} "
                 f"(CLI calls, sweep points and output checks)")
    lines.extend(f"FAILED {failure}" for failure in ops.failures)
    return {"correct": ops.failed == 0, "attempted": ops.attempted, "failed": ops.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)

    cli = load_cli()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    lines = [f"# meta {json.dumps(metadata(args))}"]
    try:
        result = measure(cli, args, workdir, lines)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
