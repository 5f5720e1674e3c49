"""Metric assembly, environment record and the result line."""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

import numpy as np

import tracer as tracing

IMPORT_REPEATS = 5
_IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import rftraffic.cli; "
                 "print(time.perf_counter() - t0)")


def child_import_times(src: str) -> list[float]:
    """Seconds to import the program in fresh interpreters, one per repeat."""
    env = dict(os.environ, PYTHONPATH=src)
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=src,
                              capture_output=True, text=True, check=True, timeout=60)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def openblas_threads() -> int | str:
    """Thread count reported by the OpenBLAS numpy loaded, else the setting."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return f"env {os.environ.get('OPENBLAS_NUM_THREADS')}"


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_threads": openblas_threads(),
        "machine": platform.machine(),
    }


def end_to_end(outcome, import_s: list[float]) -> dict[str, tuple[float, str]]:
    # medians throughout: a burst of load from the shared host moves a few
    # samples, not the metric
    wall_s = statistics.median(outcome.round_s)
    if outcome.latencies_s:
        per_vehicle_ms = [1000.0 * s for s in outcome.latencies_s]
        cuts = statistics.quantiles(per_vehicle_ms, n=100)
        p50, p99 = statistics.median(per_vehicle_ms), cuts[98]
    else:
        # a batch job handles no vehicle on its own, and a handful of rounds
        # has no tail: both read the median round's time shared over its vehicles
        p50 = p99 = 1000.0 * wall_s / outcome.vehicles_per_round
    return {
        "setup_s": (statistics.median(outcome.setup_s) + statistics.median(import_s), "s"),
        "wall_s": (wall_s, "s"),
        "vehicles_per_s": (outcome.vehicles_per_round / wall_s, "1/s"),
        "vehicle_ms_p50": (p50, "ms"),
        "vehicle_ms_p99": (p99, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "acc_svm": (outcome.acc_svm, "fraction"),
        "acc_rf": (outcome.acc_rf, "fraction"),
    }


def finish(args, outcome, import_s, tracer, out_dir: str) -> int:
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        metrics = tracing.layer_metrics(tracer)
        metrics["trace.wall_s"] = (statistics.median(outcome.round_s), "s")
        tracer.dump(stem + "-spans.json")
    else:
        metrics = end_to_end(outcome, import_s)
    problems = {name: found for name, found in outcome.checks.items() if found}
    correct = not problems
    env = environment()
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "correct": correct,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "checks": outcome.checks, "setup_s": outcome.setup_s, "import_s": import_s,
        "round_s": outcome.round_s, "metrics": metrics, **outcome.extra,
    }
    with open(stem + "-result.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, default=str)

    print(f"perfbench {args.workload} seed={args.seed} rounds={len(outcome.round_s)} "
          + " ".join(f"{k}={v}" for k, v in env.items()), file=sys.stderr)
    for key, value in outcome.extra.items():
        print(f"{key} {value}", file=sys.stderr)
    for name, found in problems.items():
        for problem in found[:5]:
            print(f"CHECK FAILED {name}: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1
