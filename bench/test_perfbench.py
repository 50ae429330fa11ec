"""Smoke runs and negative controls for the benchmark; no timing assertions.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_jobs as bj  # noqa: E402
import run as bench  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
COUNTS = ("simulate.run.steps", "simulate.run.samples", "fileio.write_trajectory.bytes",
          "fileio.read_series.rows", "calibrate.objective.calls", "calibrate.fit.iterations",
          "fileio.run_sweep.points")


def smoke(capsys, workload, trace, seed=5):
    code = bench.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                       "--trace", str(trace), "--size", "smoke"])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(bj.WORKLOADS))
def test_smoke_end_to_end(capsys, workload):
    result = smoke(capsys, workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0


@pytest.mark.parametrize("workload", sorted(bj.WORKLOADS))
def test_smoke_traced_counts_repeat(capsys, workload):
    first = smoke(capsys, workload, trace=1)
    second = smoke(capsys, workload, trace=1)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name]
    assert first["metrics"]["cli.cli_main.calls"]["value"] >= 1
    assert 0.9 < first["metrics"]["trace.cli_coverage"]["value"] <= 1.0


def test_tail_keeps_ten_samples_beyond():
    assert bench.tail(list(range(10))) is None
    assert bench.tail([float(i) for i in range(20)]) == (50, 9.0)
    pct, value = bench.tail([float(i) for i in range(100)])
    assert pct == 90 and sum(1 for i in range(100) if i > value) >= 10


def failed_checks(job, results):
    return {name for name, ok, _ in job.check(results) if not ok}


def test_forward_checker_rejects_wrong_outputs(tmp_path, capsys):
    cli = bench.load_cli()
    load = bj.Forward(bench.ROOT, tmp_path, bj.SIZES["smoke"])
    job = load.make_job(np.random.default_rng([7, 0]), 0)
    results = {}
    for label, argv in job.commands:
        assert cli.cli_main(argv) == 0
        results[label] = (0, capsys.readouterr().out)
    assert failed_checks(job, results) == set()

    report = results["metrics"][1]
    for key, check in (("t63_s", "forward.t63"), ("plateau_K", "forward.plateau"),
                       ("cooling_tau_s", "forward.cooling_tau")):
        value = bj.parse_report(report)[key]
        wrong = report.replace(f"{key}={value}", f"{key}={float(value) + 0.01:.6f}")
        assert failed_checks(job, {**results, "metrics": (0, wrong)}) == {check}

    csv_path = Path(job.commands[0][1][job.commands[0][1].index("--out") + 1])
    lines = csv_path.read_text().splitlines()
    t, ts, tl = lines[100].split(",")
    lines[100] = f"{t},{ts},{float(tl) + 1e-4:.6f}"
    csv_path.write_text("\n".join(lines) + "\n")
    assert "forward.trajectory" in failed_checks(job, results)


def test_calibrate_checker_rejects_off_truth_fits(tmp_path):
    load = bj.Calibrate(bench.ROOT, tmp_path, bj.SIZES["smoke"])
    job = load.make_job(np.random.default_rng([7, 0]), 0)
    truth = job.info["truth"]

    def reports(shift=0.0, converged="true", rmse=bj.NOISE_K):
        out = {}
        for label, values in truth.items():
            lines = [f"{name}={value + shift:.6f}" for name, value in values.items()]
            lines += [f"rmse_K={rmse:.6f}", f"converged={converged}"]
            out[label] = (0, "\n".join(lines))
        return out

    assert failed_checks(job, reports()) == set()
    assert failed_checks(job, reports(shift=0.5)) == {
        "calibrate_single.h_se", "calibrate_bilayer.alpha_L", "calibrate_bilayer.h_Le"}
    assert failed_checks(job, reports(converged="false")) == {
        "calibrate_single.converged", "calibrate_bilayer.converged"}
    assert failed_checks(job, reports(rmse=10 * bj.NOISE_K)) == {
        "calibrate_single.rmse", "calibrate_bilayer.rmse"}


def test_sweep_checker_rejects_wrong_rows(tmp_path):
    cli = bench.load_cli()
    load = bj.Sweep(bench.ROOT, tmp_path, bj.SIZES["smoke"])
    job = load.make_job(np.random.default_rng([7, 0]), 0)
    assert cli.cli_main(job.commands[0][1]) == 0
    assert failed_checks(job, {}) == set() and bj.sweep_point_failures(job) == 0
    good = job.sweep_out.read_text()
    header, *rows = good.splitlines()
    cols = header.split(",")
    cells = [row.split(",") for row in rows]
    by_distance = sorted(range(len(cells)), key=lambda i: float(cells[i][cols.index("value")]))

    def rewrite(mutate):
        new = [list(c) for c in cells]
        mutate(new)
        job.sweep_out.write_text("\n".join([header] + [",".join(c) for c in new]) + "\n")
        return failed_checks(job, {})

    t63 = cols.index("t63_s")
    near, far = by_distance[0], by_distance[-1]

    def swap_t63(rows):
        rows[near][t63], rows[far][t63] = rows[far][t63], rows[near][t63]

    assert rewrite(swap_t63) == {"sweep.t63_rises"}

    def hot_peak(rows):
        rows[near][cols.index("peak_K")] = f"{float(rows[near][cols.index('steady_theta_L_K')]) + 0.1:.6f}"

    assert rewrite(hot_peak) == {"sweep.peak_below_steady"}

    def fail_point(rows):
        rows[near] = rows[near][:cols.index("status")] + ["failed"] + [""] * (
            len(cols) - cols.index("status") - 1)

    assert "sweep.monotone" in rewrite(fail_point)
    assert bj.sweep_point_failures(job) == 1


def test_failed_command_counts(tmp_path, capsys):
    cli = bench.load_cli()
    load = bj.Forward(bench.ROOT, tmp_path, bj.SIZES["smoke"])
    job = load.make_job(np.random.default_rng([7, 0]), 0)
    label, argv = job.commands[0]
    job.commands[0] = (label, argv[:argv.index("--dt") + 1] + ["1.0"] + argv[argv.index("--dt") + 2:])
    ops = bench.Ops()
    bench.run_job(cli, job, ops)
    assert ops.failed >= 1 and any(f.startswith("simulate.exit") for f in ops.failures)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "forward",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert not proc.stdout.strip()
