"""Tests of the benchmark itself: the tracer must not change what it measures.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import qavar  # noqa: E402
from qavar import cli, clock, core, hilbert, optimize  # noqa: E402
from tracer import Tracer  # noqa: E402

REF = qavar.NoiseParams(alpha=2.0, beta=0.4, gamma=0.5, omega0=3.25e15)


def traced(fn):
    """Run fn under a fresh tracer; return (result, tracer), bindings restored."""
    tracer = Tracer()
    tracer.install()
    try:
        return fn(), tracer
    finally:
        tracer.uninstall()


def test_rebinds_every_import_and_restores():
    originals = (cli.simulate_clock, core.kernel_set, optimize.minimize, core.BoundWorkspace.evaluate)
    tracer = Tracer()
    tracer.install()
    try:
        assert clock.simulate_clock is cli.simulate_clock is not originals[0]
        assert core.kernel_set is qavar.noise.kernel_set is not originals[1]
        assert optimize.minimize is not originals[2]
        assert core.BoundWorkspace.evaluate is not originals[3]
    finally:
        tracer.uninstall()
    assert (cli.simulate_clock, core.kernel_set, optimize.minimize,
            core.BoundWorkspace.evaluate) == originals
    assert clock.simulate_clock is originals[0]


def test_traced_cli_output_is_byte_identical(tmp_path):
    doc = {"mode": "bound", "noise": {"alpha": 2.0, "beta": 0.4, "gamma": 0.5, "omega0": 3.25e15},
           "atoms": 2, "k_max": 3, "tau": [1.0, 2.0],
           "probe": {"kind": "amplitudes", "amplitudes": [[0.6, 0.0], [0.64, 0.0], [0.48, 0.0]]}}
    config = tmp_path / "c.json"
    config.write_text(json.dumps(doc))

    def run(name):
        out = tmp_path / name
        assert cli.main(["bound", "--config", str(config), "--out", str(out)]) == 0
        return out.read_bytes()

    plain = run("plain.csv")
    data, tracer = traced(lambda: run("traced.csv"))
    assert data == plain
    assert tracer.check_spans() == 0
    assert all(span[4] >= -1e-9 for span in tracer.spans)
    metrics = tracer.metrics(1)
    assert metrics["cli.run.calls"] == 1
    assert metrics["lapack.eigh.calls"] == metrics["core.evaluate.calls"] == 6
    assert 0.0 < metrics["lapack.eigh.share_of_evaluate"] < 1.0
    assert metrics["core.evaluate.real.d243.p50_s"] > 0.0
    assert metrics["core.evaluate.peak_bytes_per_d2"] > 0.0


def test_nelder_mead_runs_are_counted_from_outside():
    scen = core.Scenario(noise=REF, n_atoms=2, k=2, T=0.5,
                         probe=core.ProductProbe(hilbert.plus_step_state(2)))
    report, tracer = traced(lambda: optimize.optimize_product_state(
        scen, n_starts=2, seed=3, polish_phases=False, maxfev=8))
    assert report.converged  # what the library claims, whatever happened
    assert [(m, ok) for _, ok, m in tracer.nm_runs] == [(8, False), (8, False)]
    metrics = tracer.metrics(1)
    assert metrics["optimize.maxfev_hit_ratio"] == 1.0
    assert metrics["optimize.nm_success_ratio"] == 0.0
    assert metrics["optimize.evals_per_optimum"] == report.n_evals
    assert 0.0 < metrics["optimize.improving_eval_ratio"] <= 1.0


def test_traced_seesaw_matches_untraced():
    scen = core.Scenario(noise=REF, n_atoms=1, k=2, T=0.6,
                         probe=core.ProductProbe(hilbert.coherent_step_state(1, np.pi / 2, 1.0)))
    plain = optimize.optimize_joint_state(scen, seed=0)
    report, tracer = traced(lambda: optimize.optimize_joint_state(scen, seed=0))
    assert report.history == plain.history
    assert tracer.seesaw_iterations == [len(plain.history)]
    metrics = tracer.metrics(1)
    assert metrics["optimize.cost_operator.calls"] == len(plain.history) - 1
    # one eigensolve per complex evaluation, one per cost operator
    assert metrics["hilbert.eigh.calls"] == 2 * len(plain.history) - 1


def test_refuses_a_tree_without_qavar_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bound-large",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
