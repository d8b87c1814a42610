"""One benchmark process: set up a workload, then (optionally traced) run its ops.

    python3 perfbench/child.py --workload NAME --seed N --phase setup|run
        [--trace 0|1] [--seconds S | --ops K] --workdir DIR

`--phase setup` imports qavar, generates and validates the first op's
inputs, prints `ready` and exits: the parent times it as the workload's
set-up.  `--phase run` does the same set-up, one warm-up op, then timed ops
until `--seconds` would be exceeded (or exactly `--ops` ops); each later
op's inputs are made, untimed, just before it.  It prints one JSON line with
per-op results, peak RSS, the machine record and, when traced, the per-layer
table.  The parent starts it with the source tree on PYTHONPATH; BLAS and
OpenMP are pinned to one thread below, before anything imports numpy.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported, here or by qavar

import argparse
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--phase", choices=("setup", "run"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    limit = ap.add_mutually_exclusive_group()
    limit.add_argument("--seconds", type=float)
    limit.add_argument("--ops", type=int)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()
    if args.phase == "run" and args.seconds is None and args.ops is None:
        ap.error("--phase run needs --seconds or --ops")

    from workloads import WORKLOADS

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    first = workload.prepare(0)
    if args.phase == "setup":
        print("ready", flush=True)
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    workload.warmup()
    if tracer is not None:
        tracer.reset()

    ops = []
    t_start = time.perf_counter()
    while args.ops is None or len(ops) < args.ops:
        if args.seconds is not None and ops:
            typical = statistics.median(op["wall_s"] for op in ops)
            if time.perf_counter() - t_start + typical > args.seconds:
                break
        inp = workload.prepare(len(ops)) if ops else first
        t0, c0 = time.perf_counter(), time.process_time()
        wall = cpu = None
        try:
            out = workload.op(inp)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            outcome = workload.check(inp, out)
        except Exception:  # a failed op is counted, the run goes on
            if wall is None:
                wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            outcome = {"ok": False, "problems": [traceback.format_exc()],
                       "fingerprint": "", "figures": {}}
        ops.append({"wall_s": wall, "cpu_s": cpu, **outcome})

    result = {
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine(),
    }
    if tracer is not None:
        tracer.uninstall()
        result["span_violations"] = tracer.check_spans()
        result["layers"] = tracer.metrics(len(ops))
        result["table"] = tracer.table(len(ops))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
