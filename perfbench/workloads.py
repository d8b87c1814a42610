"""The benchmark's workloads: seeded inputs, one timed op each, and its checks.

Every op's inputs depend only on (seed, op index), so a traced and an
untraced process given the same seed run the same ops.  Library calls go
through module attributes (`cli.main`, `optimize.bound_curve`, ...) so that
the tracer's rebindings are the ones called.  Why each workload exists is
in README.md.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from pathlib import Path

import numpy as np

from qavar import cli, core, hilbert, noise, optimize

REF = {"alpha": 2.0, "beta": 0.4, "gamma": 0.5, "omega0": 3.25e15}
REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())


def _jitter(rng: np.random.Generator, values, rel: float) -> list[float]:
    """Values scaled by independent factors drawn from 1 +- rel."""
    values = np.asarray(values, dtype=float)
    return [float(v) for v in values * (1.0 + rng.uniform(-rel, rel, values.size))]


class CliWorkload:
    """An op is one in-process `qavar.cli.main` call on a generated config."""

    mode = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def config(self, i: int, rng: np.random.Generator) -> dict:
        raise NotImplementedError

    def warmup_config(self) -> dict:
        raise NotImplementedError

    def _write(self, name: str, doc: dict) -> list[str]:
        path = self.workdir / f"{name}.json"
        path.write_text(json.dumps(doc))
        cli.validate(doc)
        return [self.mode, "--config", str(path), "--out", str(self.workdir / f"{name}.csv")]

    def prepare(self, i: int) -> dict:
        doc = self.config(i, np.random.default_rng([self.seed, i]))
        return {"i": i, "doc": doc, "argv": self._write(f"op{i}", doc)}

    def warmup(self) -> None:
        self.op({"argv": self._write("warmup", self.warmup_config())})

    def op(self, inp: dict) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(inp["argv"])

    def check(self, inp: dict, code: int) -> dict:
        """Outcome of one op: ok, problems, fingerprint, figures."""
        if code != 0:
            return {"ok": False, "problems": [f"exit code {code}"], "fingerprint": "", "figures": {}}
        data = Path(inp["argv"][-1]).read_bytes()
        rows = list(csv.DictReader(line for line in data.decode().splitlines()
                                   if not line.startswith("#")))
        problems, figures = self.check_rows(inp, rows)
        return {
            "ok": not problems,
            "problems": problems,
            "fingerprint": hashlib.sha256(data).hexdigest(),
            "figures": figures,
        }

    def check_rows(self, inp: dict, rows: list[dict]) -> tuple[list[str], dict]:
        raise NotImplementedError


class BoundLarge(CliWorkload):
    """`bound` mode, N=2, k_max=4 (D up to 2187), one tau per op.

    Even ops use the |+> probe, odd ops a seed-drawn real probe.
    """

    mode = "bound"

    def config(self, i, rng):
        tau = _jitter(rng, [2.5], 0.01)
        amps = np.array([0.5, np.sqrt(0.5), 0.5]) + 0.15 * rng.standard_normal(3)
        amps /= np.linalg.norm(amps)
        probe = ({"kind": "plus"} if i % 2 == 0 else
                 {"kind": "amplitudes", "amplitudes": [[float(a), 0.0] for a in amps]})
        return {"mode": "bound", "noise": REF, "atoms": 2, "k_max": 4, "tau": tau,
                "probe": probe}

    def warmup_config(self):
        return {"mode": "bound", "noise": REF, "atoms": 2, "k_max": 2, "tau": [1.0],
                "probe": {"kind": "plus"}}

    def check_rows(self, inp, rows):
        problems = []
        (row,) = rows
        s2q, s2lo = float(row["sigma2_q"]), float(row["sigma2_lo"])
        if not 0.0 <= s2q <= s2lo:
            problems.append(f"sigma2_q={s2q!r} outside [0, sigma2_lo={s2lo!r}]")
        stored = REFERENCE["bound-large"]["sigma2_q"].get(str(self.seed), [])
        if inp["i"] < len(stored):
            ref = stored[inp["i"]]
            if abs(s2q - ref) > 1e-9 * abs(ref):
                problems.append(f"sigma2_q={s2q!r} differs from stored {ref!r} beyond rtol 1e-9")
        figures = {"sigma2_q": s2q}
        if inp["doc"]["probe"]["kind"] == "plus":
            figures["c"] = float(row["c_running"])
        return problems, figures


class ClockEnsemble(CliWorkload):
    """`bound-check` mode, N=2, T=0.5 s, tau <= 1.5 s, integrator servo."""

    mode = "bound-check"
    N_RUNS = 30
    N_STEPS = 20_000

    def config(self, i, rng):
        return {"mode": "bound-check", "noise": REF, "atoms": 2, "probe": {"kind": "plus"},
                "servo": {"gain": 0.3, "estimator": "linear"},
                "sim": {"T": 0.5, "n_steps": self.N_STEPS, "n_runs": self.N_RUNS},
                "tau": [0.5, 1.0, 1.5], "seeds": [int(rng.integers(2**31))]}

    def warmup_config(self):
        return {"mode": "bound-check", "noise": REF, "atoms": 2, "probe": {"kind": "plus"},
                "sim": {"T": 0.5, "n_steps": 1000, "n_runs": 2}, "tau": [0.5], "seeds": [0]}

    def check_rows(self, inp, rows):
        problems = [f"violation at tau={r['tau']}" for r in rows if r["violation"] != "false"]
        last = max(rows, key=lambda r: float(r["tau"]))
        s2q, tau = float(last["sigma2_q"]), float(last["tau"])
        return problems, {
            "c": s2q * REF["omega0"] ** 2 * tau,
            "avar_over_bound": float(last["avar"]) / s2q,
            "sim_steps": self.N_RUNS * self.N_STEPS,
        }


class OptimizeSmall:
    """Check-5 pipeline at N=2, k_max=3 (D <= 243), then a see-saw at k=3.

    The pipeline uses check 5's settings for the symmetric family
    (n_starts=1, no phase polish, maxfev=60).  The see-saw tau sits where
    the iteration count varies slowly with tau (about 31-35 sweeps), so the
    seed jitter moves it little.  It starts from |+> with a per-step phase
    twist: sigma2_q and the sweep count are invariant under that twist, but
    the iterates are complex, so the see-saw runs the complex evaluation
    path (from a real start every iterate stays real).
    """

    TAUS = (1.5, 2.0, 2.5, 3.0)
    SEESAW_TAU = 2.15
    SEESAW_AZIMUTH = np.pi / 3

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.noise = noise.NoiseParams(**REF)

    def prepare(self, i):
        rng = np.random.default_rng([self.seed, i])
        return {
            "i": i,
            "taus": _jitter(rng, self.TAUS, 0.01),
            "seesaw_tau": _jitter(rng, [self.SEESAW_TAU], 0.01)[0],
            "seed": int(rng.integers(2**31)),
        }

    def warmup(self):
        self.op({"taus": [1.5, 2.0], "seesaw_tau": 1.5, "seed": 0}, k_max=2)

    def op(self, inp, k_max=3):
        scans = optimize.bound_curve(
            self.noise, 2, inp["taus"], k_max=k_max, probe="optimize-product",
            seed=inp["seed"], family="symmetric", n_starts=1, polish_phases=False,
            maxfev=60,
        )
        fit = optimize.extrapolate_long_term(
            [s.tau for s in scans], [s.sigma2_q for s in scans], self.noise.omega0,
            m=len(scans),
        )
        scen = core.Scenario(
            noise=self.noise, n_atoms=2, k=k_max, T=inp["seesaw_tau"] / k_max,
            probe=core.ProductProbe(
                hilbert.coherent_step_state(2, np.pi / 2, self.SEESAW_AZIMUTH)),
        )
        seesaw = optimize.optimize_joint_state(scen, seed=inp["seed"])
        return fit, seesaw, scen.tau

    def check(self, inp, out):
        fit, seesaw, tau = out
        problems = []
        history = np.asarray(seesaw.history)
        tol = 1e-10 * noise.free_lo_avar(self.noise, tau)
        if np.any(np.diff(history) > tol):
            problems.append("see-saw history increases")
        ref = REFERENCE["optimize-small"]["c_fit"]
        if abs(fit.c / ref - 1.0) > 0.15:
            problems.append(f"c_fit={fit.c!r} outside +-15% of stored {ref!r}")
        return {
            "ok": not problems,
            "problems": problems,
            "fingerprint": f"{fit.c!r} {seesaw.sigma2_q!r}",
            "figures": {"c": fit.c},
        }


WORKLOADS = {
    "bound-large": BoundLarge,
    "optimize-small": OptimizeSmall,
    "clock-ensemble": ClockEnsemble,
}
