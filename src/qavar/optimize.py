"""Probe-state and interrogation-layout optimization of the bound.

Two state optimizers:

* `optimize_joint_state`: see-saw over arbitrary pure joint inputs.
  Alternates the closed-form L solve with replacing the state by the
  ground eigenvector of the cost operator A_L.  Both half-steps minimize
  the same functional, so the sigma2_q history is non-increasing.  That
  functional is affine in rho_in and convex in L but not jointly convex,
  so a converged see-saw is a local optimum.
* `optimize_product_state`: identical per-step pure states (input
  rho0^(x)K), searched only among the flip-symmetric ones, a_n = a_(N-n),
  over the N//2 angles of a mirrored chart: one bounded Brent run when
  there is one angle (N = 2, 3), one Nelder-Mead run when there are more.
  Such states are stationary by symmetry, and every optimum of the
  unrestricted search was one; a curvature certificate checks that each is
  a minimum.  The best spin-coherent probe, |+> (the only flip-symmetric
  one), needs no search.  At N <= 4, k <= 2 the run (and |+>) match the
  best of eight random-start runs over all real (all spin-coherent) states
  to 1e-9 relative (a reference kept in tests/test_optimize.py).

Every excitation-basis phase of a pure input leaves sigma2_q invariant: with
v = Z |v|, Z diagonal unitary, rho_bar = Z (W o |v| |v|^T) Z^dag and Z
commutes with the generator U.  So a product probe's bound depends only on
|a_n|, and the search runs on real amplitudes.  Signs are phases too, so the
odd states a_n = -a_(N-n) need no search of their own: their |a| is an even
state with a_(N/2) = 0.

`bound_curve` is the one tau x k sweep: at each tau it picks the best layout
(k steps of T = tau/k), warm-starting the product search along both axes
(a start matters only to the Nelder-Mead run, N >= 4).
`extrapolate_long_term` reads off the 1/tau coefficient from the plateau of
c(tau) = sigma2_q * omega0^2 * tau.

scipy is loaded by two searches alone, at first use: the Nelder-Mead
product search (N >= 4) imports scipy.optimize, and the see-saw's subset
eigensolve (`hilbert.eigh` with `lowest`) imports scipy.linalg.  The
one-angle search (N = 2, 3) runs `_bounded_brent`, scipy's bounded Brent
method repeated here step for step.  Importing this module, a sweep of a
fixed probe or a product search at N <= 3 loads neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .core import (
    BoundWorkspace,
    ProductProbe,
    Scenario,
    _phase_gauge,
    qavar,
)
from .hilbert import (
    SymmetricState,
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
CERT_STEP = 1e-3  # product-search certificate: step off the optimum per flip-odd direction


@dataclass
class OptimizeReport:
    """Result of a state optimization run."""

    sigma2_q: float
    state: np.ndarray
    history: list[float]
    converged: bool
    n_evals: int


@dataclass(frozen=True)
class KEvaluation:
    k: int
    T: float
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


def cost_operator(L: np.ndarray, workspace: BoundWorkspace) -> np.ndarray:
    """A_L with Tr(rho_in A_L) = cost(rho_in, L) - sigma2_lo, for L = iK.

    cost(rho_in, L) = sigma2_lo - Tr(L rho_bar')/omega0^2
    + Tr(L^2 rho_bar)/(2 omega0^2) is affine in rho_in and convex in L (not
    jointly convex) and equals sigma2_q at the SLD.  With W the dephasing
    weights (the trivial group's one block) and U = diag(u), u_a = a^T H:

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
        history=history,
        converged=converged,
        n_evals=len(history),
    )


def _amps_from_chart(x: np.ndarray, n_atoms: int) -> np.ndarray:
    """Mirrored hyperspherical chart: N//2 angles -> N+1 real unit amplitudes.

    The angles give a unit vector b over the magnitudes n <= N/2, and a_n =
    b_n / sqrt(2) where n < N - n (a pair), a_(N/2) = b_(N/2), so sum a_n^2 =
    |b|^2 = 1.  The upper half is a copy, so a_n == a_(N-n) bit for bit.
    """
    b = np.append(np.cos(x), 1.0) * np.cumprod(np.append(1.0, np.sin(x)))
    b /= np.sqrt(np.where(2 * np.arange(b.size) < n_atoms, 2.0, 1.0))
    return np.concatenate([b, b[n_atoms - b.size::-1]])


def _chart_from_amps(amps: np.ndarray, n_atoms: int) -> np.ndarray:
    """Inverse of _amps_from_chart on the flip-averaged magnitudes (|a_n| + |a_(N-n)|) / 2."""
    half = n_atoms // 2
    mags = np.abs(amps)
    pair = np.sqrt(np.where(2 * np.arange(half + 1) < n_atoms, 2.0, 1.0))
    b = (mags + mags[::-1])[:half + 1] * pair  # any positive scale: arctan2 takes ratios
    return np.array([np.arctan2(np.linalg.norm(b[j + 1:]), b[j]) for j in range(half)])


def _bounded_brent(f, a: float, b: float, xatol: float, maxfev: int) -> bool:
    """Minimize f over [a, b] by Brent's bounded method; True if it converged.

    Operation for operation scipy 1.17.1's `_minimize_scalar_bounded`
    (`minimize_scalar(method="bounded")`, `maxiter` = maxfev): the same
    golden-section and parabolic steps and tol1/tol2 updates, so f sees the
    same x bit for bit.  Only the cap moved: it is checked before each
    evaluation, so the run makes at most maxfev calls (scipy makes two at
    maxiter = 1).  False when the cap stopped the run, or x or f(x) was NaN.
    """
    sqrt_eps, golden_mean = np.sqrt(2.2e-16), 0.5 * (3.0 - np.sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = f(xf)
    num, fu = 1, np.inf
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while num < maxfev and np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if np.abs(e) > tol1:  # try a parabolic fit
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat
            if (np.abs(p) < np.abs(0.5 * q * r)) and (p > q * (a - xf)) and (p < q * (b - xf)):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    rat = tol1 * (np.sign(xm - xf) + ((xm - xf) == 0))
            else:
                golden = True
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        x = xf + (np.sign(rat) + (rat == 0)) * np.maximum(np.abs(rat), tol1)
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
    return bool(num < maxfev and not (np.isnan(xf) or np.isnan(fx) or np.isnan(fu)))


def optimize_product_state(scenario: Scenario, maxfev: Optional[int] = None) -> OptimizeReport:
    """Optimize an identical flip-symmetric per-step pure probe (input rho0^(x)K).

    The search runs over the mirrored chart's N//2 angles.  With no angle
    (N = 1) it is one evaluation of |+>.  With one angle (N = 2, 3) it is
    one bounded Brent run (`_bounded_brent`) over x in [0, pi/2], which
    spans every non-negative flip-symmetric state (signs are a gauge), so it
    needs no start; `maxfev` caps its evaluations (500, scipy's default, when
    None), and the run checks it before each one, so maxfev = 1 evaluates
    its first, golden-section point alone.  With more angles it is one
    Nelder-Mead run, capped by `maxfev` (scipy's 200 per angle when None)
    and started from the flip-averaged scenario probe if it is a
    ProductProbe (the warm start of a tau or k sweep), else from |+>.
    Every search point is exactly P- and F-symmetric, so it takes
    `evaluate`'s four blocks.  A probe that does not fit the scenario
    raises qavar's ValueError first.

    The certificate: sigma2_q is even in each flip-odd direction, so it
    evaluates the optimum a* stepped by CERT_STEP along each, a* +
    CERT_STEP (e_n - e_(N-n)) for n < N - n.  History records the best
    sigma2_q after each evaluation, certificate points included, and the
    report holds the best point of all.  `converged`: the run succeeded and
    no certificate point fell below the optimum.  A `maxfev` < 1 raises
    ValueError: the run would evaluate nothing.
    """
    if maxfev is not None and maxfev < 1:
        raise ValueError(f"maxfev must be >= 1 or None, got {maxfev}")
    N = scenario.n_atoms
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
        return s2q * w0sq_tau  # scaled to O(1) so Nelder-Mead's fatol bites

    def eval_chart(x) -> float:
        return eval_amps(_amps_from_chart(np.atleast_1d(x), N))

    n_angles, success = N // 2, True
    if n_angles == 0:
        eval_amps(plus_step_state(N).amplitudes)
    elif n_angles == 1:
        success = _bounded_brent(eval_chart, 0.0, np.pi / 2, 1e-6, maxfev or 500)
    else:
        from scipy.optimize import minimize  # loaded by the first Nelder-Mead search only

        probe = scenario.probe
        start = probe.state if isinstance(probe, ProductProbe) else plus_step_state(N)
        success = minimize(eval_chart, _chart_from_amps(start.amplitudes, N),
                           method="Nelder-Mead",
                           options=dict(xatol=1e-6, fatol=1e-10, maxfev=maxfev)).success
    optimum, a_opt, e = best["f"], best["amps"].real, np.eye(N + 1)
    for n in range((N + 1) // 2):
        eval_amps(a_opt + CERT_STEP * (e[n] - e[N - n]))
    return OptimizeReport(
        sigma2_q=best["f"], state=best["amps"], history=history,
        converged=bool(success) and best["f"] == optimum, n_evals=len(history),
    )


ProbeSpec = Union[SymmetricState, str]  # "optimize-product" or "optimize-joint"


def bound_curve(
    noise: NoiseParams,
    n_atoms: int,
    taus: Sequence[float],
    k_max: int,
    probe: ProbeSpec = "optimize-product",
    maxfev: Optional[int] = None,
    *,
    family: str = "symmetric",
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

    Warm starts, "optimize-product" at N >= 4 only (the optimum moves
    slowly along both axes): each k starts from the optimum at k - 1, each
    tau's k = 1 from the previous tau's best state, and the first tau from
    |+>.  Such a scan can therefore differ in its last digits from a run of
    its tau alone.  At N <= 3 the search needs no start, so a scan's
    sigma2_q does not depend on its other taus.  The see-saw of
    "optimize-joint" starts every k from |+>, and it is a local method (see
    the module docstring), so its sigma2_q is guaranteed only to be at most
    that of |+> at the same (tau, k), not at most the product optimum.

    The keyword-only `family`, `seed`, `n_starts` and `polish_phases` are
    kept for old callers and carry no choice: the search has one family, so
    `family` must be "symmetric"; it draws nothing at random, so `seed` is
    unused; it makes one run, so `n_starts` must be 1; and it has no phase
    polish, because excitation-basis phases are a gauge of the bound (see
    the module docstring), so `polish_phases` must be False.
    Any other value, a bad probe, k_max < 1 or a tau that is not > 0 and
    finite raises ValueError before any evaluation.
    """
    if not isinstance(probe, SymmetricState) and probe not in ("optimize-product",
                                                                "optimize-joint"):
        raise ValueError("probe must be a per-step SymmetricState, 'optimize-product' or "
                         f"'optimize-joint', got {probe!r}")
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    taus = sorted(float(t) for t in taus)
    bad = [t for t in taus if not 0.0 < t < np.inf]
    if bad:
        raise ValueError(f"tau must be > 0 and finite, got {bad[0]}")
    if family != "symmetric":
        raise ValueError(f"family must be 'symmetric': the search has one, got {family!r}")
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
                report = optimize_product_state(scen, maxfev=maxfev)
                start = SymmetricState(n_atoms=n_atoms, amplitudes=report.state)
            elif probe == "optimize-joint":
                report = optimize_joint_state(scen)
            s2q = report.sigma2_q if report is not None else qavar(scen).sigma2_q
            evaluations.append(KEvaluation(k=k, T=T, sigma2_q=s2q, report=report))
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
    tail = (s2[order] * omega0**2 * taus[order])[-m:]
    mean = float(np.mean(tail))
    spread = float((tail.max() - tail.min()) / abs(mean)) if mean != 0.0 else np.inf
    return PlateauFit(c=mean, flat=bool(spread <= FLAT_TOL and tail.size >= m), spread=spread)
