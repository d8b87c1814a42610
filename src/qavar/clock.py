"""Stochastic Ramsey clock with an integrator servo, and its Allan estimator.

Each step of length T accumulates the LO phase theta_i, drawn exactly by
`noise.lo_phases`.  The atoms acquire
phi_i = theta_i - c_i T relative to the current correction c_i, a mid-fringe
Ramsey measurement returns m ~ Binomial(N, (1 + sin phi)/2), and the servo
integrates the phase estimate:

    c_{i+1} = c_i + gain * phi_hat_i / T .

The stream layout is part of the output contract: `simulate_clock` draws,
from default_rng(seed), the n x 3 normals of `lo_phases` and its one start
normal (when alpha > 0), then n x N uniforms u_ij in row-major order.  The
outcome of step i is m_i = #{j : u_ij < p_i}, the number of atoms whose
uniform falls below the excitation probability p_i = (1 + sin phi_i)/2, an
exact Binomial(N, p_i) draw.  A trace is a fixed function of (config,
seed), and so are the CLI's CSVs.  The servo loop runs on Python floats,
since an operation on a numpy scalar costs 0.2-0.6 us: each step does the
same IEEE operations, in the same order, as the textbook loop on numpy
scalars, so the record is the same to the bit.

The corrected fractional frequency record y_i = theta_i / T - c_i feeds the
overlapping Allan variance estimator, which averages every run of k
consecutive steps and halves the mean squared difference of block means k
steps apart.

`ensemble_avar` is the one n-run ensemble: it runs each clock from its own
child of SeedSequence(seed) and reduces the traces to the mean overlapping
Allan variance and its standard error per tau.  `bound_check` lays those
rows against sigma2_q.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .core import ProductProbe, Scenario, layout_k, qavar
from .hilbert import SymmetricState, plus_step_state
from .noise import _CHUNK, NoiseParams, lo_phases

# Most uniforms one servo chunk draws (512 KB): above N = 64 atoms a chunk
# holds _UNIFORMS // N steps, at least one, instead of _CHUNK.
_UNIFORMS = 64 * _CHUNK

__all__ = [
    "ServoConfig",
    "SimConfig",
    "FrequencyTrace",
    "AvarEstimate",
    "EnsembleAvar",
    "BoundCheckRow",
    "simulate_clock",
    "avar_series",
    "ensemble_avar",
    "bound_check",
]


@dataclass(frozen=True)
class ServoConfig:
    """Integrator servo settings.

    estimator "linear" uses phi_hat = 2m/N - 1 (the small-angle estimate);
    "arcsine" applies arcsin to it (2m/N - 1 lies in [-1, 1]).
    """

    gain: float = 0.5
    estimator: str = "linear"

    def __post_init__(self) -> None:
        if isinstance(self.gain, (bool, np.bool_)):
            raise ValueError(f"gain must be a number, got {self.gain!r}")
        if not (0.0 < self.gain <= 2.0):
            raise ValueError(f"gain must be in (0, 2], got {self.gain}")
        if self.estimator not in ("linear", "arcsine"):
            raise ValueError(f"unknown estimator {self.estimator!r}")


@dataclass(frozen=True)
class SimConfig:
    """A clock run: noise model, ensemble size N, step length T, step count."""

    noise: NoiseParams
    n_atoms: int
    T: float
    n_steps: int
    servo: ServoConfig = field(default_factory=ServoConfig)

    def __post_init__(self) -> None:
        for name in ("n_atoms", "n_steps"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_atoms < 1:
            raise ValueError(f"n_atoms must be >= 1, got {self.n_atoms}")
        if isinstance(self.T, (bool, np.bool_)):
            raise ValueError(f"T must be a number, got {self.T!r}")
        if not 0.0 < self.T < np.inf:
            raise ValueError(f"T must be > 0 and finite, got {self.T}")
        if self.n_steps < 2:
            raise ValueError(f"n_steps must be >= 2, got {self.n_steps}")


@dataclass(frozen=True)
class FrequencyTrace:
    """Per-step record of a simulated run (angular units, rad/s)."""

    T: float
    omega0: float
    y: np.ndarray
    corrections: np.ndarray


@dataclass(frozen=True)
class AvarEstimate:
    avar: float
    n_pairs: int


@dataclass(frozen=True)
class EnsembleAvar:
    """Mean overlapping Allan variance of an ensemble at tau = k T; n_pairs
    counts the block pairs over all runs."""

    tau: float
    k: int
    avar: float
    stderr: float
    n_pairs: int


@dataclass(frozen=True)
class BoundCheckRow(EnsembleAvar):
    """An ensemble row laid against the bound at the same layout."""

    sigma2_q: float
    violation: bool


def simulate_clock(config: SimConfig, seed: int) -> FrequencyTrace:
    """Run the servo loop for n_steps and return the corrected record.

    The stream layout is part of the output contract: the LO phases come
    from `lo_phases` on default_rng(seed), and the same stream then gives
    n x N uniforms, row i for step i; the outcome m_i counts the entries of
    row i below (1 + sin phi_i) / 2.

    The loop runs on Python floats, a chunk of steps at a time, because an
    operation on a numpy scalar costs 0.2-0.6 us.  Each chunk's uniforms
    are drawn and their rows sorted in one numpy call each, so a step's
    count is one `bisect_left` over its sorted row: O(log N) Python work
    per step on top of O(N) in C.  A chunk holds at most _UNIFORMS
    uniforms (one row where N is larger); successive draws continue one
    stream, so the chunk size changes no output.  Since m is in [0, N],
    the estimate 2m/N - 1 lies in [-1, 1] exactly, so the correction step
    gain / T * phi_hat is a table over m, computed once.
    """
    p = config.noise
    T = config.T
    n = config.n_steps
    N = config.n_atoms
    servo = config.servo
    rng = np.random.default_rng(seed)
    theta = lo_phases(p, T, n, rng)

    phi_hat = 2.0 * np.arange(N + 1) / N - 1.0
    if servo.estimator == "arcsine":
        phi_hat = np.arcsin(phi_hat)
    step = (servo.gain / T * phi_hat).tolist()
    sin = math.sin
    corrections = np.empty(n)
    corr = 0.0
    chunk = max(1, min(_CHUNK, _UNIFORMS // N))
    for lo in range(0, n, chunk):
        ths = theta[lo:lo + chunk].tolist()
        u = rng.random((len(ths), N))
        u.sort(axis=1)
        rows = memoryview(u.reshape(-1))
        cs = []
        for th, row in zip(ths, range(0, len(ths) * N, N)):
            m = bisect_left(rows, 0.5 * (1.0 + sin(th - corr * T)), row, row + N) - row
            cs.append(corr)
            corr += step[m]
        corrections[lo:lo + len(cs)] = cs
    return FrequencyTrace(T=T, omega0=p.omega0, y=theta / T - corrections,
                          corrections=corrections)


def avar_series(y: np.ndarray, T: float, k: int, omega0: float) -> AvarEstimate:
    """Overlapping fractional Allan variance of a stepwise frequency record.

    Block means over k consecutive steps, the window sliding by one step;
    the estimator is the halved mean squared difference of block means k
    steps apart, divided by omega0^2, at tau = k T.  n samples give
    n - 2k + 1 pairs.
    """
    y = np.asarray(y, dtype=float)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = y.size
    if n < 2 * k:
        raise ValueError(f"need at least 2k = {2 * k} samples, got {n}")
    csum = np.concatenate([[0.0], np.cumsum(y)])
    block = (csum[k:] - csum[:-k]) / k
    diffs = block[k:] - block[:-k]
    avar = float(np.mean(diffs**2) / (2.0 * omega0**2))
    return AvarEstimate(avar=avar, n_pairs=int(diffs.size))


def ensemble_avar(
    config: SimConfig, taus: Sequence[float], n_runs: int, seed: int
) -> tuple[EnsembleAvar, ...]:
    """Overlapping Allan variance of n_runs independent clocks, per tau.

    Run r draws its noise from child r of SeedSequence(seed); each tau must
    be an integer multiple k of config.T with 2k <= config.n_steps, which is
    checked before any run.  A row holds the mean over runs and its standard
    error, std(ddof=1) / sqrt(n_runs).
    """
    if n_runs < 2:
        raise ValueError(f"n_runs must be >= 2, got {n_runs}")
    if len(taus) == 0:
        return ()
    ks = [layout_k(tau, config.T) for tau in taus]
    for tau, k in zip(taus, ks):
        if 2 * k > config.n_steps:
            raise ValueError(f"tau={tau} needs 2k = {2 * k} steps, more than "
                             f"n_steps={config.n_steps}")
    per_run = np.empty((len(ks), n_runs))
    n_pairs = [0] * len(ks)
    for r, child in enumerate(np.random.SeedSequence(seed).spawn(n_runs)):
        trace = simulate_clock(config, int(child.generate_state(1)[0]))
        for j, k in enumerate(ks):
            est = avar_series(trace.y, trace.T, k, trace.omega0)
            per_run[j, r] = est.avar
            n_pairs[j] += est.n_pairs
    return tuple(
        EnsembleAvar(tau=float(tau), k=k, avar=float(vals.mean()),
                     stderr=float(vals.std(ddof=1) / np.sqrt(n_runs)), n_pairs=pairs)
        for tau, k, vals, pairs in zip(taus, ks, per_run, n_pairs)
    )


def bound_check(
    config: SimConfig,
    probe: SymmetricState | None,
    taus: Sequence[float],
    n_runs: int,
    seed: int,
) -> tuple[BoundCheckRow, ...]:
    """Ensemble comparison of simulated Allan variance against the bound.

    Takes the `ensemble_avar` rows at each tau, computes sigma2_q for the
    matching scenario with the given per-step probe (default: all atoms in
    |+>), and flags any tau where

        avar_mean + 3 * stderr < sigma2_q ,

    i.e. a statistically significant violation of the bound.
    """
    if probe is None:
        probe = plus_step_state(config.n_atoms)
    elif probe.n_atoms != config.n_atoms:
        raise ValueError(f"probe has {probe.n_atoms} atoms, n_atoms={config.n_atoms}")
    probe = ProductProbe(probe)
    rows = []
    for est in ensemble_avar(config, taus, n_runs, seed):
        scen = Scenario(noise=config.noise, n_atoms=config.n_atoms, k=est.k,
                        T=config.T, probe=probe)
        s2q = qavar(scen).sigma2_q
        rows.append(BoundCheckRow(
            **asdict(est), sigma2_q=s2q, violation=bool(est.avar + 3.0 * est.stderr < s2q),
        ))
    return tuple(rows)
