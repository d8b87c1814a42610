"""Per-layer spans for the traced benchmark run, recorded from outside qavar.

`Tracer.install()` rebinds module attributes to timing wrappers: the public
functions of qavar's modules (`noise`, `hilbert`, `core`, `optimize`,
`clock`, `cli`), `BoundWorkspace.__init__` and `BoundWorkspace.evaluate`,
the LAPACK boundary `scipy.linalg.eigh`, and scipy's `minimize` as
`qavar.optimize` calls it.  Every qavar module attribute bound to a wrapped
object is rebound too, so names imported with `from .x import f` are
covered.  No library file changes; `uninstall()` restores every binding.

Each call records one span (name, parent, start, end, self time).  A span's
self time is its duration minus the durations of its direct children.
Spans stay in memory until `metrics()` reduces them to the per-layer table.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np
import scipy.linalg
import scipy.optimize

MODULES = ("noise", "hilbert", "core", "optimize", "clock", "cli")

# Evaluations at this dimension or above run under tracemalloc, which gives
# their peak allocation; smaller ones would mostly measure fixed overhead.
PEAK_MIN_DIM = 243

# Layers whose self time and call count the per-layer table reports.
SELF_TIMED = (
    "lapack.eigh",
    "core.evaluate",
    "core.dephasing_weights",
    "core.derivative_factors",
    "core.qavar",
    "hilbert.eigh",
    "noise.kernel_set",
    "optimize.optimize_product_state",
    "optimize.minimize",
    "optimize.cost_operator",
    "clock.simulate_clock",
    "clock.avar_estimate",
    "cli.run",
)
# Layers reported by total time (their children included) and call count.
TOTAL_TIMED = {
    "core.BoundWorkspace": "core.BoundWorkspace.init_s",
    "cli.validate": "cli.validate.s",
}
# (path, dimension) pairs whose per-call percentiles the table reports.
EVAL_PERCENTILES = (
    ("real", 2187, (50,)),
    ("real", 243, (50, 90)),
    ("complex_sld", 243, (50,)),
)
OPTIMIZERS = ("optimize.optimize_product_state", "optimize.optimize_joint_state")


class _Frame:
    __slots__ = ("index", "name", "parent", "start", "child_s", "evals", "improving", "best")

    def __init__(self, index, name, parent, start):
        self.index = index
        self.name = name
        self.parent = parent
        self.start = start
        self.child_s = 0.0
        self.evals = 0
        self.improving = 0
        self.best = float("inf")


class Tracer:
    """Span recorder; single-threaded, like the workloads it traces."""

    def __init__(self) -> None:
        self._stack: list[_Frame] = []
        self._restore: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Drop everything recorded so far (the bindings stay installed)."""
        if self._stack:
            raise RuntimeError("reset inside an open span")
        self.spans: list = []  # (name, parent index or -1, start, end, self_s)
        self.eval_times: dict = defaultdict(list)  # (path, dim) -> seconds
        self.peak_bytes: dict = {}  # dim -> largest peak of one evaluation
        self.nm_runs: list = []  # (nfev, success, maxfev) per Nelder-Mead run
        self.optima: list = []  # (evaluations, improving ones) per product optimum
        self.seesaw_iterations: list = []
        self.sim_steps = 0

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> _Frame:
        parent = self._stack[-1] if self._stack else None
        frame = _Frame(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(None)
        self._stack.append(frame)
        return frame

    def _close(self, frame: _Frame) -> float:
        end = time.perf_counter()
        if self._stack.pop() is not frame:
            raise RuntimeError(f"span {frame.name} closed out of order")
        dur = end - frame.start
        parent = frame.parent
        if parent is not None:
            parent.child_s += dur
        self.spans[frame.index] = (
            frame.name, -1 if parent is None else parent.index,
            frame.start, end, dur - frame.child_s,
        )
        if frame.name == "optimize.optimize_product_state":
            self.optima.append((frame.evals, frame.improving))
        elif frame.name == "optimize.optimize_joint_state":
            self.seesaw_iterations.append(frame.evals)
        return dur

    def _wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _wrap_evaluate(self, fn):
        @functools.wraps(fn)
        def evaluate(ws, rho_in, want_sld=False):
            rho = np.asarray(rho_in)
            real = not np.iscomplexobj(rho) or not np.any(rho.imag)
            path = ("real" if real else "complex") + ("_sld" if want_sld else "")
            watch = ws.dim >= PEAK_MIN_DIM and not tracemalloc.is_tracing()
            if watch:
                tracemalloc.start()
            frame = self._open("core.evaluate")
            try:
                result = fn(ws, rho_in, want_sld)
            finally:
                dur = self._close(frame)
                if watch:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peak_bytes[ws.dim] = max(self.peak_bytes.get(ws.dim, 0), peak)
            self.eval_times[(path, ws.dim)].append(dur)
            owner = next((f for f in reversed(self._stack) if f.name in OPTIMIZERS), None)
            if owner is not None:
                owner.evals += 1
                if result.sigma2_q < owner.best:
                    owner.best = result.sigma2_q
                    owner.improving += 1
            return result

        return evaluate

    # -- installation ------------------------------------------------------

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _rebind_everywhere(self, orig, wrapper, modules) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._rebind(mod, attr, wrapper)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        mods = {m: importlib.import_module(f"qavar.{m}") for m in MODULES}
        everywhere = [sys.modules["qavar"], *mods.values()]

        def after_minimize(args, kwargs, res):
            maxfev = (kwargs.get("options") or {}).get("maxfev")
            self.nm_runs.append((int(res.nfev), bool(res.success), maxfev))

        def after_simulate(args, kwargs, trace):
            self.sim_steps += int(trace.y.size)

        after = {
            "optimize.minimize": after_minimize,
            "clock.simulate_clock": after_simulate,
        }
        for short, mod in mods.items():
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if isinstance(obj, type) or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                self._rebind_everywhere(obj, self._wrap(name, obj, after.get(name)), everywhere)

        ws_cls = mods["core"].BoundWorkspace
        self._rebind(ws_cls, "__init__", self._wrap("core.BoundWorkspace", ws_cls.__init__))
        self._rebind(ws_cls, "evaluate", self._wrap_evaluate(ws_cls.evaluate))

        for owner, attr, name in (
            (scipy.linalg, "eigh", "lapack.eigh"),
            (scipy.optimize, "minimize", "optimize.minimize"),
        ):
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig, after.get(name))
            self._rebind(owner, attr, wrapper)
            self._rebind_everywhere(orig, wrapper, everywhere)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    # -- reduction ---------------------------------------------------------

    def check_spans(self) -> int:
        """Number of spans with negative self time or outside their parent."""
        bad = 0
        for name, parent, start, end, self_s in self.spans:
            if self_s < -1e-9 or end < start:
                bad += 1
            elif parent >= 0:
                _, _, p_start, p_end, _ = self.spans[parent]
                if start < p_start or end > p_end:
                    bad += 1
        return bad

    def table(self, n_ops: int) -> dict:
        """Per-op calls, total and self seconds of every recorded span name."""
        rows: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for name, _, start, end, self_s in self.spans:
            row = rows[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += self_s
        return {
            name: {key: value / n_ops for key, value in row.items()}
            for name, row in sorted(rows.items())
        }

    def _eigh_share_of_evaluate(self) -> float:
        spans = self.spans
        eval_s = sum(end - start for name, _, start, end, _ in spans if name == "core.evaluate")
        inside = 0.0
        for name, parent, start, end, _ in spans:
            if name != "lapack.eigh":
                continue
            while parent >= 0 and spans[parent][0] != "core.evaluate":
                parent = spans[parent][1]
            if parent >= 0:
                inside += end - start
        return inside / eval_s if eval_s > 0 else 0.0

    def metrics(self, n_ops: int) -> dict:
        """The per-layer metrics; 0 stands for a layer the workload never ran."""
        table = self.table(n_ops)
        zero = {"calls": 0.0, "total_s": 0.0, "self_s": 0.0}
        out = {}
        for name in SELF_TIMED:
            row = table.get(name, zero)
            out[f"{name}.self_s"] = row["self_s"]
            out[f"{name}.calls"] = row["calls"]
        for name, key in TOTAL_TIMED.items():
            row = table.get(name, zero)
            out[key] = row["total_s"]
            out[f"{name}.calls"] = row["calls"]
        out["lapack.eigh.share_of_evaluate"] = self._eigh_share_of_evaluate()
        for path, dim, pcts in EVAL_PERCENTILES:
            times = self.eval_times.get((path, dim), [])
            for p in pcts:
                out[f"core.evaluate.{path}.d{dim}.p{p}_s"] = _percentile(times, p)
        if self.peak_bytes:
            dim = max(self.peak_bytes)
            out["core.evaluate.peak_bytes_per_d2"] = self.peak_bytes[dim] / dim**2
        else:
            out["core.evaluate.peak_bytes_per_d2"] = 0.0
        evals = sum(e for e, _ in self.optima)
        out["optimize.evals_per_optimum"] = evals / len(self.optima) if self.optima else 0.0
        out["optimize.improving_eval_ratio"] = (
            sum(i for _, i in self.optima) / evals if evals else 0.0
        )
        runs = self.nm_runs
        out["optimize.nm_success_ratio"] = (
            sum(ok for _, ok, _ in runs) / len(runs) if runs else 0.0
        )
        out["optimize.maxfev_hit_ratio"] = (
            sum(m is not None and n >= m for n, _, m in runs) / len(runs) if runs else 0.0
        )
        its = self.seesaw_iterations
        out["optimize.seesaw.iterations"] = statistics.fmean(its) if its else 0.0
        sim_s = table.get("clock.simulate_clock", zero)["total_s"] * n_ops
        out["clock.simulate_clock.us_per_step"] = (
            1e6 * sim_s / self.sim_steps if self.sim_steps else 0.0
        )
        return out


def _percentile(values: list, p: int) -> float:
    """Nearest-rank percentile; 0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-p * len(ordered) // 100))
    return ordered[rank - 1]
