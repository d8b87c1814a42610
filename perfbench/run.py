"""qavar benchmark: one workload per call, each in fresh child processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qavar source tree (it imports `src/qavar`).  With
`--trace 0` it times set-up in several fresh processes, then runs the
workload's ops for S seconds untraced and reports the end-to-end metrics.
With `--trace 1` it runs the ops untraced for S/2 seconds, then the same ops
in a traced process, checks that both give identical outputs and well-nested
spans, and reports the per-layer metrics.  Human-readable lines come first;
the last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Workloads and metrics are described in
perfbench/README.md and BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("bound-large", "optimize-small", "clock-ensemble")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 120


class ChildFailed(RuntimeError):
    pass


def _env() -> dict:
    """The children import qavar from this tree; they pin BLAS threads themselves."""
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _child_argv(workload: str, seed: int, phase: str, workdir: Path, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), "--workload", workload,
            "--seed", str(seed), "--phase", phase, "--workdir", str(workdir), *extra]


def time_setup(workload: str, seed: int, workdir: Path) -> float:
    """Seconds from starting a fresh process until its set-up reports ready."""
    t0 = time.perf_counter()
    with subprocess.Popen(_child_argv(workload, seed, "setup", workdir), env=_env(),
                          stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise ChildFailed(f"set-up of {workload} failed (exit {proc.returncode})")
    return elapsed


def run_ops(workload: str, seed: int, workdir: Path, trace: int, limit: list[str]) -> dict:
    """Run one child in phase `run`; `limit` is `["--seconds", S]` or `["--ops", K]`."""
    argv = _child_argv(workload, seed, "run", workdir, "--trace", str(trace), *limit)
    try:
        proc = subprocess.run(argv, env=_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload} run exceeded {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload} run failed (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _report(lines: list[tuple[str, float, str]]) -> None:
    for name, value, unit in lines:
        print(f"  {name:<42} {value:>14.6g} {unit}")


def _problems(ops: list[dict]) -> None:
    for i, op in enumerate(ops):
        for problem in op["problems"]:
            print(f"# op {i} FAILED: {problem}")


def end_to_end(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    setups = [time_setup(workload, seed, workdir) for _ in range(SETUP_SAMPLES)]
    res = run_ops(workload, seed, workdir, 0, ["--seconds", str(seconds)])
    ops = res["ops"]
    failed = sum(not op["ok"] for op in ops)
    # The mean, not the median: the host's contention comes in phases of seconds
    # to a minute, and the mean averages over them where the median picks one.
    wall = statistics.fmean(op["wall_s"] for op in ops)
    metrics = {
        "setup_s": (_median(setups), "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "c_fit": (_median(op["figures"]["c"] for op in ops if "c" in op["figures"]), "1"),
    }
    print(f"# machine {json.dumps(res['machine'], sort_keys=True)} seed={seed}")
    walls = " ".join(f"{op['wall_s']:.3f}" for op in ops)
    print(f"# {workload}: {len(ops)} ops, median op wall "
          f"{_median(op['wall_s'] for op in ops):.4f} s, op walls (s) {walls}; "
          f"setup samples (s) {' '.join(f'{t:.3f}' for t in setups)}")
    extra = [("error_rate", failed / len(ops), "ratio"),
             ("cpu_s", statistics.fmean(op["cpu_s"] for op in ops), "s")]
    if workload == "clock-ensemble":
        steps = ops[0]["figures"]["sim_steps"]
        extra += [
            ("sim_steps_per_s", steps / wall, "1/s"),
            ("avar_over_bound", _median(op["figures"]["avar_over_bound"] for op in ops), "ratio"),
        ]
    _report([(k, v, u) for k, (v, u) in metrics.items()] + extra)
    _problems(ops)
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def per_layer(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    units = {m["name"]: m["unit"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    plain = run_ops(workload, seed, workdir / "plain", 0, ["--seconds", str(seconds / 2)])
    n = len(plain["ops"])
    traced = run_ops(workload, seed, workdir / "traced", 1, ["--ops", str(n)])
    mismatched = [i for i, (a, b) in enumerate(zip(plain["ops"], traced["ops"]))
                  if a["fingerprint"] != b["fingerprint"]]
    for i in mismatched:
        traced["ops"][i]["ok"] = False
        traced["ops"][i]["problems"].append("traced output differs from untraced output")
    ops = plain["ops"] + traced["ops"]
    failed = sum(not op["ok"] for op in ops)

    # Means, like the per-op layer times, so that self shares add up to <= 1.
    plain_wall = statistics.fmean(op["wall_s"] for op in plain["ops"])
    traced_wall = statistics.fmean(op["wall_s"] for op in traced["ops"])
    values = dict(traced["layers"])
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - plain_wall
    values["clock.avar_over_bound"] = _median(
        op["figures"].get("avar_over_bound", 0.0) for op in plain["ops"])

    table_path = workdir / "layers.json"
    table_path.write_text(json.dumps({"workload": workload, "seed": seed, "ops": n,
                                      "metrics": values, "spans": traced["table"]}, indent=1))
    print(f"# machine {json.dumps(traced['machine'], sort_keys=True)} seed={seed}")
    print(f"# {workload}: {n} ops untraced then traced; mean op wall "
          f"{plain_wall:.4f} s untraced, {traced_wall:.4f} s traced; "
          f"{traced['span_violations']} span violations; table in {table_path}")
    print("# per op: span, calls, total s, self s, self share of traced op wall")
    for name, row in sorted(traced["table"].items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:<36} {row['calls']:>10.1f} {row['total_s']:>10.4f} "
              f"{row['self_s']:>10.4f} {row['self_s'] / traced_wall:>7.1%}")
    _report([(name, values[name], units[name]) for name in units])
    _problems(ops)
    return {
        "correct": failed == 0 and traced["span_violations"] == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "qavar" / "__init__.py").is_file():
        print(f"no qavar source tree at {ROOT / 'src'}; run from a qavar checkout",
              file=sys.stderr)
        return 2

    # On SIGTERM, unwind so that the running child is killed and reaped too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    measure = per_layer if args.trace else end_to_end
    try:
        result = measure(args.workload, args.seed, args.seconds, workdir)
    except ChildFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
