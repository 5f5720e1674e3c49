"""Benchmark entry point: one workload, one fresh process, one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload roadside --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, measured without tracing.
``--trace 1`` runs the same workload with span-recording wrappers installed
around the program's public functions and prints the per-layer metrics.  The
last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; details (every round time, each check, the environment) go to
``.perfbench_out/`` and a summary to standard error.  Exit status is 0 when
every output check passed, 1 when one failed and 2 when the program cannot be
imported from ``src/`` of this checkout.
"""

from __future__ import annotations

import argparse
import os
import sys

# one BLAS thread: a single caller on a small machine, and thread start-up
# jitter on small matrices would only add noise; set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("roadside", "reproduce"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def import_program():
    """Import rftraffic from this checkout's src/, and from nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "rftraffic", "__init__.py")):
        raise ImportError(f"no rftraffic package under {SRC}")
    sys.path.insert(0, SRC)
    import rftraffic

    if os.path.dirname(os.path.dirname(os.path.abspath(rftraffic.__file__))) != SRC:
        raise ImportError(f"rftraffic was imported from {rftraffic.__file__}, not {SRC}")
    return rftraffic


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2

    import report
    import tracer as tracing
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    if args.trace:
        tracer.install()
    import_s = [] if args.trace else report.child_import_times(SRC)
    outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds, OUT_DIR, tracer)
    return report.finish(args, outcome, import_s, tracer, OUT_DIR)


if __name__ == "__main__":
    sys.exit(main())
