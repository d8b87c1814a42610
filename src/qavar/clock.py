"""Stochastic Ramsey clock with an integrator servo, and Allan estimators.

Each step of length T accumulates the LO phase theta_i (exact sampling: the
OU integral and endpoint are jointly Gaussian given the previous endpoint,
the white part adds an independent N(0, beta T)).  The atoms acquire
phi_i = theta_i - c_i T relative to the current correction c_i, a mid-fringe
Ramsey measurement returns m ~ Binomial(N, (1 + sin phi)/2), and the servo
integrates the phase estimate:

    c_{i+1} = c_i + gain * phi_hat_i / T .

The corrected fractional frequency record y_i = theta_i / T - c_i feeds the
Allan variance estimators, which average k-step blocks and halve the mean
squared difference of adjacent block means.

`ensemble_avar` is the one n-run ensemble: it runs each clock from its own
child of SeedSequence(seed) and reduces the traces to the mean overlapping
Allan variance and its standard error per tau.  `bound_check` lays those
rows against sigma2_q.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .core import ProductProbe, Scenario, joint_dim, layout_k, qavar
from .hilbert import SymmetricState, plus_step_state
from .noise import NoiseParams

__all__ = [
    "ServoConfig",
    "SimConfig",
    "FrequencyTrace",
    "AvarEstimate",
    "EnsembleAvar",
    "BoundCheckRow",
    "simulate_clock",
    "avar_series",
    "avar_estimate",
    "ensemble_avar",
    "bound_check",
]


@dataclass(frozen=True)
class ServoConfig:
    """Integrator servo settings.

    estimator "linear" uses phi_hat = 2m/N - 1 (the small-angle estimate);
    "arcsine" applies arcsin to the clamped excitation imbalance.
    """

    gain: float = 0.5
    estimator: str = "linear"

    def __post_init__(self) -> None:
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
        if self.n_atoms < 1:
            raise ValueError(f"n_atoms must be >= 1, got {self.n_atoms}")
        if self.T <= 0:
            raise ValueError(f"T must be > 0, got {self.T}")
        if self.n_steps < 2:
            raise ValueError(f"n_steps must be >= 2, got {self.n_steps}")


@dataclass(frozen=True)
class FrequencyTrace:
    """Per-step record of a simulated run (angular units, rad/s)."""

    T: float
    omega0: float
    y: np.ndarray
    corrections: np.ndarray
    outcomes: np.ndarray


@dataclass(frozen=True)
class AvarEstimate:
    tau: float
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


def _ou_step_moments(alpha: float, gamma: float, T: float):
    """Conditional (I, x_end) | x_start moments for one OU window.

    I = int_0^T x dt.  Returns the linear coefficients on x_start and the
    2x2 conditional covariance factored for sampling.
    """
    e = np.exp(-gamma * T)
    coef_i = (1.0 - e) / gamma
    coef_x = e
    if alpha == 0.0:
        return coef_i, coef_x, 0.0, 0.0, 0.0
    var_i = (2.0 * alpha / gamma) * (
        T - 2.0 * (1.0 - e) / gamma + (1.0 - e * e) / (2.0 * gamma)
    )
    var_x = alpha * (1.0 - e * e)
    cov = (alpha / gamma) * (1.0 - e) ** 2
    a = np.sqrt(max(var_i, 0.0))
    b = cov / a if a > 0.0 else 0.0
    c = np.sqrt(max(var_x - b * b, 0.0))
    return coef_i, coef_x, a, b, c


def simulate_clock(config: SimConfig, seed: int) -> FrequencyTrace:
    """Run the servo loop for n_steps and return the corrected record.

    Noise sampling is exact (no time discretization): per step the OU phase
    integral and OU endpoint are drawn from their joint conditional normal,
    and the white contribution adds N(0, beta T) to the phase.
    """
    p = config.noise
    T = config.T
    n = config.n_steps
    N = config.n_atoms
    servo = config.servo
    rng = np.random.default_rng(seed)

    coef_i, coef_x, a, b, c = _ou_step_moments(p.alpha, p.gamma, T)
    white_sd = np.sqrt(p.beta * T)
    z = rng.standard_normal((n, 3))
    x = np.sqrt(p.alpha) * rng.standard_normal() if p.alpha > 0.0 else 0.0

    arcsine = servo.estimator == "arcsine"
    gain_over_t = servo.gain / T
    y = np.empty(n)
    corrections = np.empty(n)
    outcomes = np.empty(n, dtype=np.int64)
    corr = 0.0
    for i in range(n):
        theta = coef_i * x + a * z[i, 0] + white_sd * z[i, 2]
        x = coef_x * x + b * z[i, 0] + c * z[i, 1]
        phi = theta - corr * T
        prob = 0.5 * (1.0 + np.sin(phi))
        m = rng.binomial(N, prob)
        est = 2.0 * m / N - 1.0
        if arcsine:
            est = np.arcsin(min(1.0, max(-1.0, est)))
        corrections[i] = corr
        outcomes[i] = m
        y[i] = theta / T - corr
        corr += gain_over_t * est
    return FrequencyTrace(
        T=T, omega0=p.omega0, y=y, corrections=corrections, outcomes=outcomes
    )


def avar_series(
    y: np.ndarray,
    T: float,
    k: int,
    omega0: float,
    overlapping: bool = False,
) -> AvarEstimate:
    """Fractional Allan variance of a stepwise frequency record at tau = k T.

    Block means over k consecutive steps; the estimator is the halved mean
    squared difference of adjacent block means, divided by omega0^2.  The
    overlapping variant slides the window by one step instead of one block.
    """
    y = np.asarray(y, dtype=float)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = y.size
    if n < 2 * k:
        raise ValueError(f"need at least 2k = {2 * k} samples, got {n}")
    if overlapping:
        csum = np.concatenate([[0.0], np.cumsum(y)])
        block = (csum[k:] - csum[:-k]) / k
        diffs = block[k:] - block[:-k]
    else:
        nwin = n // k
        block = y[: nwin * k].reshape(nwin, k).mean(axis=1)
        diffs = np.diff(block)
    avar = float(np.mean(diffs**2) / (2.0 * omega0**2))
    return AvarEstimate(tau=k * T, avar=avar, n_pairs=int(diffs.size))


def avar_estimate(
    trace: FrequencyTrace,
    k: int,
    overlapping: bool = False,
) -> AvarEstimate:
    """Allan variance of a simulated trace at tau = k T."""
    return avar_series(trace.y, trace.T, k, trace.omega0, overlapping=overlapping)


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
            est = avar_estimate(trace, k, overlapping=True)
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
    dim_cap: int = 20_000,
) -> tuple[BoundCheckRow, ...]:
    """Ensemble comparison of simulated Allan variance against the bound.

    Takes the `ensemble_avar` rows at each tau, computes sigma2_q for the
    matching scenario with the given per-step probe (default: all atoms in
    |+>), and flags any tau where

        avar_mean + 3 * stderr < sigma2_q ,

    i.e. a statistically significant violation of the bound.  A tau whose
    layout exceeds dim_cap raises DimensionCapError before any simulation.
    """
    for tau in taus:
        joint_dim(config.n_atoms, layout_k(tau, config.T), dim_cap)
    probe = ProductProbe(probe if probe is not None else plus_step_state(config.n_atoms))
    rows = []
    for est in ensemble_avar(config, taus, n_runs, seed):
        scen = Scenario(noise=config.noise, n_atoms=config.n_atoms, k=est.k,
                        T=config.T, probe=probe)
        s2q = qavar(scen).sigma2_q
        rows.append(BoundCheckRow(
            **asdict(est), sigma2_q=s2q, violation=bool(est.avar + 3.0 * est.stderr < s2q),
        ))
    return tuple(rows)
