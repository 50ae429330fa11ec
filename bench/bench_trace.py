"""Spans around the package's public functions, recorded from outside.

`installed()` rebinds every module attribute of the phototherm package that
refers to a traced function (the defining module's own name and every
`from .x import f` copy), so calls between modules pass through a wrapper
that records a span. Nothing under src/ changes; the original functions are
put back on exit. Work counts come from the arguments and results of the
traced calls, never from program internals.
"""

import math
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

TRACED = (
    ("cli", "cli_main"),
    ("fileio", "load_config"),
    ("fileio", "read_series"),
    ("fileio", "write_trajectory"),
    ("fileio", "run_sweep"),
    ("simulate", "run"),
    ("metrics", "series_from_trajectory"),
    ("metrics", "response_time_63"),
    ("metrics", "plateau_value"),
    ("metrics", "cooling_fit"),
    ("calibrate", "fit"),
    ("calibrate", "objective"),
    ("model", "steady_state"),
)


def _arg(args, kwargs, position, name):
    return kwargs[name] if name in kwargs else args[position]


def _count_run(args, kwargs, result):
    config = _arg(args, kwargs, 4, "config")
    return {"steps": math.floor(config.duration / config.dt + 1e-9),
            "samples": len(result.times)}


def _count_write(args, kwargs, result):
    target = _arg(args, kwargs, 1, "path")
    size = target.tell() if hasattr(target, "tell") else os.path.getsize(target)
    return {"bytes": size}


COUNTERS = {
    "simulate.run": _count_run,
    "fileio.write_trajectory": _count_write,
    "fileio.read_series": lambda a, k, r: {"rows": len(r.times)},
    "fileio.run_sweep": lambda a, k, r: {"points": len(r.rows), "failed": r.failures},
    "metrics.plateau_value": lambda a, k, r: {"samples": len(_arg(a, k, 0, "series").times)},
    "calibrate.fit": lambda a, k, r: {"iterations": r.iterations},
}


class Tracer:
    """In-memory span recorder. A span is [name, start, end, parent]; spans
    and counts are kept per job so per-job figures can be compared."""

    def __init__(self):
        self.jobs: list[dict] = []
        self._stack: list[int] = []

    def start_job(self) -> None:
        self.jobs.append({"spans": [], "counts": defaultdict(int)})

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            job = self.jobs[-1]
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            job["spans"].append(span)
            self._stack.append(len(job["spans"]) - 1)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    job["counts"][f"{name}.{key}"] += value
            return result

        return traced

    @contextmanager
    def installed(self, package: str = "phototherm"):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        patches = []
        for module_name, attr in TRACED:
            original = getattr(sys.modules[f"{package}.{module_name}"], attr)
            wrapper = self.wrap(f"{module_name}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, key, original))
                        setattr(module, key, wrapper)
        try:
            yield
        finally:
            for module, key, original in reversed(patches):
                setattr(module, key, original)

    def job_summary(self, job: dict) -> dict:
        """Per-function calls, total and self seconds, plus work counts."""
        spans = job["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, _), covered in zip(spans, child):
            out[f"{name}.calls"] += 1
            out[f"{name}.total_s"] += end - start
            out[f"{name}.self_s"] += end - start - covered
        out.update(job["counts"])
        return dict(out)
