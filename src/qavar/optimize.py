"""Probe-state and interrogation-layout optimization of the bound.

Two state optimizers:

* `optimize_joint_state`: see-saw over arbitrary joint inputs.  Alternates
  the closed-form L solve with replacing the state by the ground eigenvector
  of the cost operator A_L; each half-step minimizes the same jointly convex
  functional, so the sigma2_q history is non-increasing.
* `optimize_product_state`: Nelder-Mead over per-step pure states (input
  rho0^(x)K).  `family` picks the chart: "symmetric" spans the
  (N+1)-dimensional symmetric subspace by N real angles, "coherent"
  restricts to atom-level product states (spin-coherent, one polar
  parameter).

Every excitation-basis phase of a pure input leaves sigma2_q invariant: with
v = Z |v|, Z diagonal unitary, rho_bar = Z (W o |v| |v|^T) Z^dag and Z
commutes with the generator U.  So a product probe's bound depends only on
|a_n|: the coherent family fixes its azimuth at 0, and the optional phase
polish of the symmetric family searches exactly flat directions.  The
polish and its `polish_phases` keyword stay only while callers (acceptance
check 5, the perfbench optimize-small workload) still pass it; ROADMAP.md
plans its removal.

`optimize_interrogation` sweeps k at fixed tau, `bound_curve` chains scans
over a tau grid with warm starts, and `extrapolate_long_term` reads off the
1/tau coefficient from the plateau of c(tau) = sigma2_q * omega0^2 * tau.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np
from scipy.optimize import minimize

from .core import (
    BoundWorkspace,
    ProductProbe,
    Scenario,
    joint_dim,
    qavar,
)
from .hilbert import (
    SymmetricState,
    coherent_step_state,
    eigh,
    plus_step_state,
    product_pure,
)
from .noise import NoiseParams, free_lo_avar

__all__ = [
    "OptimizeReport",
    "KEvaluation",
    "InterrogationScan",
    "PlateauFit",
    "cost_operator",
    "optimize_joint_state",
    "optimize_product_state",
    "optimize_interrogation",
    "bound_curve",
    "extrapolate_long_term",
]

SEESAW_TOL = 1e-10  # see-saw stop: sigma2_q change per sweep, relative to sigma2_lo
SEESAW_MAX_ITER = 300
FLAT_TOL = 0.05  # largest relative spread of a c(tau) tail still called flat
# Up to this joint dimension the k-sweep's product search runs every start and
# the phase polish; beyond it, two starts and no polish.  At D = 2187 (N = 2,
# k = 4, one BLAS thread) a product evaluation costs ~0.25 s in four spin-flip
# x reversal blocks (|+>, GHZ, any state with a_n = +-a_(N-n) bit for bit) and
# ~0.87 s in two reversal blocks (every other product state, so almost every
# Nelder-Mead iterate), against ~2.3 and ~4.7 ms at D = 243.  Below
# core.BLOCK_MIN_DIM, and for SLD requests and joint inputs at any D, an
# evaluation is one (D, D) solve (~2.6 s at 2187).
FULL_SEARCH_MAX_DIM = 512


@dataclass
class OptimizeReport:
    """Result of a state optimization run."""

    sigma2_q: float
    state: np.ndarray
    kind: str
    history: list[float]
    converged: bool
    n_evals: int


@dataclass(frozen=True)
class KEvaluation:
    k: int
    T: float
    dim: int
    sigma2_q: float
    report: Optional[OptimizeReport] = None


@dataclass(frozen=True)
class InterrogationScan:
    tau: float
    k_opt: int
    T_opt: float
    sigma2_q: float
    sigma2_lo: float
    evaluations: tuple[KEvaluation, ...]


@dataclass(frozen=True)
class PlateauFit:
    """c(tau) plateau readout; `flat` is the convergence diagnostic."""

    c: float
    flat: bool
    spread: float
    taus: np.ndarray
    c_values: np.ndarray
    n_used: int


def cost_operator(L: np.ndarray, workspace: BoundWorkspace) -> np.ndarray:
    """A_L with Tr(rho_in A_L) = cost(rho_in, L) - sigma2_lo.

    cost(rho_in, L) = sigma2_lo - Tr(L rho_bar')/omega0^2
    + Tr(L^2 rho_bar)/(2 omega0^2) is jointly convex and equals sigma2_q at
    the SLD.  With W the dephasing weights and U = diag(u), u_a = a^T H:

        A_L = W o ( L^2 / (2 omega0^2) + i [L, U] / omega0^2 )

    A_L is Hermitian to roundoff; `hilbert.eigh` checks and symmetrizes it.
    The SLD of a real input is L = iK with K real antisymmetric; then
    L^2 = -K^2 and i [L, U] = -[K, U], so A_L is formed in real arithmetic
    (a quarter of the complex product's flops).
    """
    w0sq = workspace.noise.omega0**2
    W = workspace.weights
    u = workspace.u
    if not np.any(L.real):
        K = L.imag
        A = K @ K
        A *= 0.5
        A += K * u[None, :]
        A -= u[:, None] * K
        A *= W
        A /= -w0sq
        return A
    return W * (L @ L) / (2.0 * w0sq) + W * (1j * (L * u[None, :] - u[:, None] * L)) / w0sq


def optimize_joint_state(scenario: Scenario, seed: int = 0) -> OptimizeReport:
    """See-saw minimization over arbitrary joint input states.

    The scenario's checked joint input seeds the iteration; a density probe
    gives no pure state, so it starts from a random one drawn from `seed`.
    Convergence is declared when sigma2_q changes by less than
    SEESAW_TOL * sigma2_lo between sweeps, within SEESAW_MAX_ITER sweeps.

    The see-saw runs in its start's phase gauge.  A start psi0 with a
    nonzero imaginary part is split as psi0 = Z |psi0|, Z = diag(z) with
    z = psi0 / |psi0| (1 where psi0 = 0).  Then rho_bar(psi0) =
    Z rho_bar(|psi0|) Z^dag, and Z commutes with the diagonal generator U,
    so the SLD, A_L and A_L's ground state of every iterate transform by Z
    alike.  The iteration therefore runs from |psi0| with every iterate
    real (the real LAPACK path and the real cost operator), and the
    returned state is z * psi, the optimum in the start's gauge.  Each
    sweep computes only the lowest eigenpair of A_L.
    """
    psi = scenario.joint_input()
    if psi.ndim == 2:
        rng = np.random.default_rng(seed)
        psi = rng.standard_normal(scenario.dim) + 1j * rng.standard_normal(scenario.dim)
        psi = psi / np.linalg.norm(psi)
    gauge = None
    if np.iscomplexobj(psi) and np.any(psi.imag):
        mag = np.abs(psi)
        gauge = np.ones(psi.shape, dtype=complex)
        np.divide(psi, mag, out=gauge, where=mag > 0.0)
        psi = mag
    ws = BoundWorkspace(scenario.noise, scenario.n_atoms, scenario.k, scenario.T)
    history: list[float] = []
    converged = False
    stop = SEESAW_TOL * max(ws.kernels.sigma2_lo, 1e-300)
    for _ in range(SEESAW_MAX_ITER):
        res = ws.evaluate(psi, want_sld=True)
        history.append(res.sigma2_q)
        if len(history) >= 2 and abs(history[-2] - history[-1]) <= stop:
            converged = True
            break
        A = cost_operator(res.sld, ws)
        _, V = eigh(A, lowest=1)
        psi = np.ascontiguousarray(V[:, 0])
    return OptimizeReport(
        sigma2_q=history[-1],
        state=psi if gauge is None else gauge * psi,
        kind="joint",
        history=history,
        converged=converged,
        n_evals=len(history),
    )


def _amps_from_chart(x: np.ndarray, n_atoms: int, with_phases: bool) -> np.ndarray:
    """Hyperspherical chart: N angles (+ N phases) -> N+1 unit amplitudes."""
    N = n_atoms
    angles = x[:N]
    amps = np.empty(N + 1, dtype=complex)
    rolling = 1.0
    for j in range(N):
        amps[j] = rolling * np.cos(angles[j])
        rolling = rolling * np.sin(angles[j])
    amps[N] = rolling
    if with_phases:
        amps[1:] = amps[1:] * np.exp(1j * x[N:])
    return amps


def _chart_from_amps(amps: np.ndarray, n_atoms: int) -> np.ndarray:
    """Inverse of _amps_from_chart (angles then phases, 2N entries)."""
    N = n_atoms
    mags = np.abs(amps)
    angles = np.empty(N)
    rolling = 1.0
    for j in range(N):
        c = np.clip(mags[j] / rolling if rolling > 1e-14 else 1.0, -1.0, 1.0)
        angles[j] = np.arccos(c)
        rolling = max(rolling * np.sin(angles[j]), 0.0)
    phases = np.angle(amps[1:])
    return np.concatenate([angles, phases])


def optimize_product_state(
    scenario: Scenario,
    n_starts: int = 8,
    seed: int = 0,
    family: str = "symmetric",
    polish_phases: bool = True,
    maxfev: Optional[int] = None,
) -> OptimizeReport:
    """Optimize an identical per-step pure probe (input rho0^(x)K).

    family "symmetric": any per-step symmetric-subspace state; the search
    runs over real amplitude charts (the fast LAPACK path) and, when
    polish_phases is true and N >= 2, again over the 2N-parameter chart with
    phases.  The phases leave sigma2_q invariant (see the module docstring),
    so the polish adds only flat directions to the real search; at N = 1 it
    is skipped.
    family "coherent": atom-level product states, a single polar parameter.

    The scenario's probe, when it is a ProductProbe, seeds the first
    symmetric start (warm starting across a tau or k sweep).  History
    records the best sigma2_q seen after each cost evaluation.  `converged`
    is true only when every Nelder-Mead run ended on its tolerances, none on
    maxfev.
    """
    N = scenario.n_atoms
    if family == "coherent":
        chart = lambda x: np.asarray(coherent_step_state(N, float(x[0]), 0.0).amplitudes)
        starts, n_params, default_fev = [np.array([np.pi / 2.0])], 1, 60
    elif family == "symmetric":
        chart = lambda x: _amps_from_chart(x, N, with_phases=False)
        starts, n_params, default_fev = [], N, 80 * N
        if isinstance(scenario.probe, ProductProbe) and scenario.probe.state.n_atoms == N:
            starts.append(_chart_from_amps(np.asarray(scenario.probe.state.amplitudes), N)[:N])
        starts.append(_chart_from_amps(np.asarray(plus_step_state(N).amplitudes), N)[:N])
    else:
        raise ValueError(f"unknown family {family!r}")
    ws = BoundWorkspace(scenario.noise, scenario.n_atoms, scenario.k, scenario.T)
    rng = np.random.default_rng(seed)
    while len(starts) < n_starts:
        starts.append(rng.uniform(0.05, np.pi - 0.05, size=n_params))
    fev = maxfev if maxfev is not None else default_fev
    w0sq_tau = scenario.noise.omega0**2 * scenario.tau
    history: list[float] = []
    best = {"f": np.inf, "amps": None}
    runs_ok: list[bool] = []

    def eval_amps(amps: np.ndarray) -> float:
        state = SymmetricState(n_atoms=N, amplitudes=amps / np.linalg.norm(amps))
        s2q = ws.evaluate(product_pure(state, ws.n_steps)).sigma2_q
        if s2q < best["f"]:
            best["f"] = s2q
            best["amps"] = state.amplitudes
        history.append(best["f"])
        return s2q * w0sq_tau  # scaled to O(1) so simplex tolerances bite

    def nelder_mead(chart, x0: np.ndarray) -> None:
        res = minimize(lambda x: eval_amps(chart(x)), x0, method="Nelder-Mead",
                       options=dict(xatol=1e-6, fatol=1e-10, maxfev=fev))
        runs_ok.append(bool(res.success))

    for x0 in starts[: max(1, n_starts)]:
        nelder_mead(chart, x0)
    if family == "symmetric" and polish_phases and N >= 2:
        nelder_mead(lambda x: _amps_from_chart(x, N, with_phases=True),
                    _chart_from_amps(best["amps"], N))
    return OptimizeReport(
        sigma2_q=best["f"], state=best["amps"], kind=f"product-{family}",
        history=history, converged=all(runs_ok), n_evals=len(history),
    )


ProbeSpec = Union[SymmetricState, str]  # "optimize-product" or "optimize-joint"


def optimize_interrogation(
    noise: NoiseParams,
    n_atoms: int,
    tau: float,
    k_max: int,
    probe: ProbeSpec = "optimize-product",
    seed: int = 0,
    family: str = "symmetric",
    n_starts: int = 8,
    polish_phases: bool = True,
    warm_state: Optional[SymmetricState] = None,
    maxfev: Optional[int] = None,
) -> InterrogationScan:
    """Sweep k = 1..k_max at fixed tau (T = tau/k) and pick the best layout.

    probe is a fixed per-step SymmetricState or one of the optimizer modes
    "optimize-product" / "optimize-joint"; anything else is rejected before
    any evaluation.  Every k is evaluated, at joint dimension (N+1)^(2k-1),
    so a caller with a resource limit passes the largest k it admits.  The
    product optimizer starts each k from the previous k's optimum.
    """
    if tau <= 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if not isinstance(probe, SymmetricState) and probe not in ("optimize-product",
                                                                "optimize-joint"):
        raise ValueError("probe must be a per-step SymmetricState, 'optimize-product' or "
                         f"'optimize-joint', got {probe!r}")

    evaluations: list[KEvaluation] = []
    start = probe if isinstance(probe, SymmetricState) else (
        warm_state if probe == "optimize-product" else None)
    for k, child in enumerate(np.random.SeedSequence(seed).spawn(k_max), start=1):
        dim, T = joint_dim(n_atoms, k), tau / k
        init = start if start is not None else plus_step_state(n_atoms)
        scen = Scenario(noise=noise, n_atoms=n_atoms, k=k, T=T, probe=ProductProbe(init))
        k_seed = int(child.generate_state(1)[0])
        report = None
        if probe == "optimize-product":
            full = dim <= FULL_SEARCH_MAX_DIM
            report = optimize_product_state(
                scen,
                n_starts=n_starts if full else min(n_starts, 2),
                seed=k_seed,
                family=family,
                polish_phases=polish_phases and full,
                maxfev=maxfev,
            )
            start = SymmetricState(n_atoms=n_atoms, amplitudes=report.state)
        elif probe == "optimize-joint":
            report = optimize_joint_state(scen, seed=k_seed)
        s2q = report.sigma2_q if report is not None else qavar(scen).sigma2_q
        evaluations.append(KEvaluation(k=k, T=T, dim=dim, sigma2_q=s2q, report=report))
    best = min(evaluations, key=lambda e: e.sigma2_q)
    return InterrogationScan(
        tau=tau,
        k_opt=best.k,
        T_opt=best.T,
        sigma2_q=best.sigma2_q,
        sigma2_lo=float(free_lo_avar(noise, tau)),
        evaluations=tuple(evaluations),
    )


def bound_curve(
    noise: NoiseParams,
    n_atoms: int,
    taus: Sequence[float],
    k_max: int,
    probe: ProbeSpec = "optimize-product",
    seed: int = 0,
    family: str = "symmetric",
    n_starts: int = 8,
    polish_phases: bool = True,
    maxfev: Optional[int] = None,
) -> list[InterrogationScan]:
    """Interrogation scans over a tau grid, warm-starting the per-step probe
    across consecutive tau values (the optimum moves slowly along the grid)."""
    scans: list[InterrogationScan] = []
    warm = None
    for i, tau in enumerate(sorted(taus)):
        scan = optimize_interrogation(
            noise, n_atoms, float(tau), k_max,
            probe=probe, seed=seed + i,
            family=family, n_starts=n_starts, polish_phases=polish_phases,
            warm_state=warm, maxfev=maxfev,
        )
        scans.append(scan)
        if probe == "optimize-product":
            best_report = scan.evaluations[scan.k_opt - 1].report
            warm = SymmetricState(n_atoms=n_atoms, amplitudes=best_report.state)
    return scans


def extrapolate_long_term(
    taus: Sequence[float],
    sigma2_qs: Sequence[float],
    omega0: float,
    m: int = 5,
) -> PlateauFit:
    """Read the long-term coefficient c from sigma2_q(tau) ~ c / (omega0^2 tau).

    Takes the last m points of c(tau) = sigma2_q * omega0^2 * tau on the
    sorted grid; `flat` reports whether their spread (max - min, relative to
    the mean) is within FLAT_TOL.  A non-flat tail means the grid has not
    reached the 1/tau regime and the returned c is not trustworthy.
    """
    taus = np.asarray(taus, dtype=float)
    s2 = np.asarray(sigma2_qs, dtype=float)
    if taus.shape != s2.shape or taus.ndim != 1 or taus.size == 0:
        raise ValueError("taus and sigma2_qs must be equal-length 1-D sequences")
    order = np.argsort(taus)
    taus = taus[order]
    c_values = s2[order] * omega0**2 * taus
    n_used = min(m, taus.size)
    tail = c_values[-n_used:]
    mean = float(np.mean(tail))
    spread = float((tail.max() - tail.min()) / abs(mean)) if mean != 0.0 else np.inf
    flat = bool(spread <= FLAT_TOL and n_used >= m)
    return PlateauFit(
        c=mean, flat=flat, spread=spread, taus=taus, c_values=c_values,
        n_used=n_used,
    )
