"""Probe-state and interrogation-layout optimization of the bound.

Two state optimizers:

* `optimize_joint_state`: see-saw over arbitrary pure joint inputs.
  Alternates the closed-form L solve with replacing the state by the
  ground eigenvector of the cost operator A_L.  Both half-steps minimize
  the same functional, so the sigma2_q history is non-increasing.  That
  functional is affine in rho_in and convex in L but not jointly convex,
  so a converged see-saw is a local optimum.
* `optimize_product_state`: one Nelder-Mead run over per-step pure states
  (input rho0^(x)K).  `family` picks the chart: "symmetric" spans the real
  unit vectors of the (N+1)-dimensional symmetric subspace by N angles and
  starts from the scenario's probe (|+> unless warm-started), "coherent"
  restricts to atom-level product states (spin-coherent, one polar
  parameter) and starts at the equator.  Nothing is drawn at random: at
  N <= 3, k <= 2 that one run matches the best of eight random-start runs
  to 2e-13 relative (a reference kept in tests/test_optimize.py).

Every excitation-basis phase of a pure input leaves sigma2_q invariant: with
v = Z |v|, Z diagonal unitary, rho_bar = Z (W o |v| |v|^T) Z^dag and Z
commutes with the generator U.  So a product probe's bound depends only on
|a_n|, and both families search real amplitudes only: the symmetric chart
carries no phases and the coherent family fixes its azimuth at 0.

`bound_curve` is the one tau x k sweep: at each tau it picks the best layout
(k steps of T = tau/k), warm-starting the product search along both axes.
`extrapolate_long_term` reads off the 1/tau coefficient from the plateau of
c(tau) = sigma2_q * omega0^2 * tau.
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
    _phase_gauge,
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
    "bound_curve",
    "extrapolate_long_term",
]

SEESAW_TOL = 1e-10  # see-saw stop: sigma2_q change per sweep, relative to sigma2_lo
SEESAW_MAX_ITER = 300
FLAT_TOL = 0.05  # largest relative spread of a c(tau) tail still called flat


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
    """A_L with Tr(rho_in A_L) = cost(rho_in, L) - sigma2_lo, for L = iK.

    cost(rho_in, L) = sigma2_lo - Tr(L rho_bar')/omega0^2
    + Tr(L^2 rho_bar)/(2 omega0^2) is affine in rho_in and convex in L (not
    jointly convex) and equals sigma2_q at the SLD.  With W the dephasing
    weights and U = diag(u), u_a = a^T H:

        A_L = W o ( L^2 / (2 omega0^2) + i [L, U] / omega0^2 )

    There is one formula, the real one.  The SLD of a real input is L = iK
    with K real antisymmetric, and the see-saw, which runs in its start's
    phase gauge, feeds only real inputs.  Then L^2 = -K^2 and
    i [L, U] = -[K, U], so A_L = -W o (K^2 / 2 + [K, U]) / omega0^2 is real
    symmetric and is formed in real arithmetic (a quarter of the complex
    product's flops).  An L with a nonzero real part raises ValueError.
    """
    if np.any(L.real):
        raise ValueError("cost_operator needs a purely imaginary L = iK, the SLD of a real input")
    K = L.imag
    A = K @ K
    A *= 0.5
    A += K * workspace.u[None, :]
    A -= workspace.u[:, None] * K
    A *= workspace.weights
    A /= -workspace.noise.omega0**2
    return A


def optimize_joint_state(scenario: Scenario, seed: int = 0) -> OptimizeReport:
    """See-saw minimization over arbitrary pure joint input states.

    The scenario's checked joint input starts the iteration.  `seed` is kept
    for old callers and is unused: the see-saw draws nothing at random.
    Convergence is declared when sigma2_q changes by less than
    SEESAW_TOL * sigma2_lo between sweeps, within SEESAW_MAX_ITER sweeps.

    The see-saw runs in its start's phase gauge.  The start is split as
    psi0 = Z |psi0|, Z = diag(_phase_gauge(psi0)).  Then rho_bar(psi0) =
    Z rho_bar(|psi0|) Z^dag, and Z commutes with the diagonal generator U,
    so the SLD, A_L and A_L's ground state of every iterate transform by Z
    alike.  The iteration therefore runs from |psi0| with every iterate
    real (the real cost operator), and the returned state is Z psi, the
    optimum in the start's gauge.  Each sweep computes only the lowest
    eigenpair of A_L.
    """
    start = scenario.joint_input()
    gauge = _phase_gauge(start)
    psi = np.abs(start)
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
        state=gauge * psi,
        kind="joint",
        history=history,
        converged=converged,
        n_evals=len(history),
    )


def _amps_from_chart(x: np.ndarray, n_atoms: int) -> np.ndarray:
    """Hyperspherical chart: N angles -> N+1 real unit amplitudes.

    Complex-typed, like `SymmetricState.amplitudes` and the coherent
    chart's output, so both charts share `eval_amps`' arithmetic.
    """
    amps = np.empty(n_atoms + 1, dtype=complex)
    rolling = 1.0
    for j in range(n_atoms):
        amps[j] = rolling * np.cos(x[j])
        rolling = rolling * np.sin(x[j])
    amps[n_atoms] = rolling
    return amps


def _chart_from_amps(amps: np.ndarray, n_atoms: int) -> np.ndarray:
    """Inverse of _amps_from_chart on |amps|: the N angles."""
    mags = np.abs(amps)
    angles = np.empty(n_atoms)
    rolling = 1.0
    for j in range(n_atoms):
        c = np.clip(mags[j] / rolling if rolling > 1e-14 else 1.0, -1.0, 1.0)
        angles[j] = np.arccos(c)
        rolling = max(rolling * np.sin(angles[j]), 0.0)
    return angles


def optimize_product_state(
    scenario: Scenario,
    family: str = "symmetric",
    maxfev: Optional[int] = None,
) -> OptimizeReport:
    """Optimize an identical per-step pure probe (input rho0^(x)K).

    family "symmetric": any per-step symmetric-subspace state, searched over
    the N-angle chart of real unit amplitudes (the real LAPACK path).  The
    phases leave sigma2_q invariant (see the module docstring), so the real
    search covers every value the complex states reach.  The run starts from
    the scenario's probe when it is a ProductProbe (warm starting across a
    tau or k sweep), else from |+>.  A probe that does not fit the scenario
    raises qavar's ValueError before any evaluation.
    family "coherent": atom-level product states, a single polar parameter,
    started at the equator.

    One Nelder-Mead run.  History records the best sigma2_q seen after each
    cost evaluation.  `converged` is the run's own `success`: false when it
    stopped on maxfev.
    """
    N = scenario.n_atoms
    if family == "coherent":
        chart = lambda x: np.asarray(coherent_step_state(N, float(x[0]), 0.0).amplitudes)
        x0, default_fev = np.array([np.pi / 2.0]), 60
    elif family == "symmetric":
        chart = lambda x: _amps_from_chart(x, N)
        probe = scenario.probe
        start = probe.state if isinstance(probe, ProductProbe) else plus_step_state(N)
        x0, default_fev = _chart_from_amps(start.amplitudes, N), 80 * N
    else:
        raise ValueError(f"unknown family {family!r}")
    scenario.joint_input()  # rejects a probe that does not fit, as qavar does
    ws = BoundWorkspace(scenario.noise, scenario.n_atoms, scenario.k, scenario.T)
    w0sq_tau = scenario.noise.omega0**2 * scenario.tau
    history: list[float] = []
    best = {"f": np.inf, "amps": None}

    def eval_amps(amps: np.ndarray) -> float:
        state = SymmetricState(n_atoms=N, amplitudes=amps / np.linalg.norm(amps))
        s2q = ws.evaluate(product_pure(state, ws.n_steps)).sigma2_q
        if s2q < best["f"]:
            best["f"] = s2q
            best["amps"] = state.amplitudes
        history.append(best["f"])
        return s2q * w0sq_tau  # scaled to O(1) so simplex tolerances bite

    res = minimize(lambda x: eval_amps(chart(x)), x0, method="Nelder-Mead",
                   options=dict(xatol=1e-6, fatol=1e-10,
                                maxfev=maxfev if maxfev is not None else default_fev))
    return OptimizeReport(
        sigma2_q=best["f"], state=best["amps"], kind=f"product-{family}",
        history=history, converged=bool(res.success), n_evals=len(history),
    )


ProbeSpec = Union[SymmetricState, str]  # "optimize-product" or "optimize-joint"


def bound_curve(
    noise: NoiseParams,
    n_atoms: int,
    taus: Sequence[float],
    k_max: int,
    probe: ProbeSpec = "optimize-product",
    family: str = "symmetric",
    maxfev: Optional[int] = None,
    *,
    seed: int = 0,
    n_starts: int = 1,
    polish_phases: bool = False,
) -> list[InterrogationScan]:
    """The tau x k sweep: one InterrogationScan per tau, in sorted tau order.

    At each tau every k = 1..k_max is evaluated (T = tau/k, joint dimension
    (N+1)^(2k-1)), so a caller with a resource limit passes the largest k it
    admits, and the scan keeps the best layout.  probe is a fixed per-step
    SymmetricState or one of the optimizer modes "optimize-product" /
    "optimize-joint".

    Warm starts, "optimize-product" only (the optimum moves slowly along
    both axes): each k starts from the optimum at k - 1, each tau's k = 1
    from the previous tau's best state, and the first tau from |+>.  A
    scan can therefore differ in its last digits from a run of its tau
    alone.  The see-saw of "optimize-joint" starts every k from |+>, and it
    is a local method (see the module docstring), so its sigma2_q is
    guaranteed only to be at most that of |+> at the same (tau, k), not at
    most the product optimum.

    The keyword-only `seed`, `n_starts` and `polish_phases` are kept for old
    callers and carry no choice: the search draws nothing at random, so
    `seed` is unused; it makes one run, so `n_starts` must be 1; and it has
    no phase polish, because excitation-basis phases are a gauge of the
    bound (see the module docstring), so `polish_phases` must be False.
    Any other value, a bad probe, k_max < 1 or a tau <= 0 raises ValueError
    before any evaluation.
    """
    if not isinstance(probe, SymmetricState) and probe not in ("optimize-product",
                                                                "optimize-joint"):
        raise ValueError("probe must be a per-step SymmetricState, 'optimize-product' or "
                         f"'optimize-joint', got {probe!r}")
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    taus = sorted(float(t) for t in taus)
    if taus and taus[0] <= 0:
        raise ValueError(f"tau must be > 0, got {taus[0]}")
    if n_starts != 1:
        raise ValueError(f"n_starts must be 1: the product search makes one run, got {n_starts}")
    if polish_phases:
        raise ValueError("polish_phases must be False: phases are a gauge of the bound")

    scans: list[InterrogationScan] = []
    start = probe if isinstance(probe, SymmetricState) else plus_step_state(n_atoms)
    for tau in taus:
        evaluations: list[KEvaluation] = []
        for k in range(1, k_max + 1):
            T = tau / k
            scen = Scenario(noise=noise, n_atoms=n_atoms, k=k, T=T, probe=ProductProbe(start))
            report = None
            if probe == "optimize-product":
                report = optimize_product_state(scen, family=family, maxfev=maxfev)
                start = SymmetricState(n_atoms=n_atoms, amplitudes=report.state)
            elif probe == "optimize-joint":
                report = optimize_joint_state(scen)
            s2q = report.sigma2_q if report is not None else qavar(scen).sigma2_q
            evaluations.append(KEvaluation(k=k, T=T, dim=joint_dim(n_atoms, k),
                                           sigma2_q=s2q, report=report))
        best = min(evaluations, key=lambda e: e.sigma2_q)
        if probe == "optimize-product":
            start = SymmetricState(n_atoms=n_atoms, amplitudes=best.report.state)
        scans.append(InterrogationScan(
            tau=tau, k_opt=best.k, T_opt=best.T, sigma2_q=best.sigma2_q,
            sigma2_lo=float(free_lo_avar(noise, tau)), evaluations=tuple(evaluations),
        ))
    return scans


def extrapolate_long_term(
    taus: Sequence[float],
    sigma2_qs: Sequence[float],
    omega0: float,
    m: int = 5,
) -> PlateauFit:
    """Read the long-term coefficient c from sigma2_q(tau) ~ c / (omega0^2 tau).

    Takes the last m >= 1 points of c(tau) = sigma2_q * omega0^2 * tau on
    the sorted grid; `flat` reports whether their spread (max - min, relative to
    the mean) is within FLAT_TOL.  A non-flat tail means the grid has not
    reached the 1/tau regime and the returned c is not trustworthy.
    """
    taus = np.asarray(taus, dtype=float)
    s2 = np.asarray(sigma2_qs, dtype=float)
    if taus.shape != s2.shape or taus.ndim != 1 or taus.size == 0:
        raise ValueError("taus and sigma2_qs must be equal-length 1-D sequences")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
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
