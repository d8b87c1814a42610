"""End-to-end acceptance battery.

Ten numbered checks, one printed PASS/FAIL line each (the prints bypass
pytest capture so the run reads as a checklist).  The long-term coefficient
reproduction (number 5) is the slowest: it runs three k-sweep +
extrapolate pipelines at k_max = 4, two with the fixed |+> probe and one
with the product search, and the N = 2, k = 4 layouts (D = 2187) take most
of that.  The servo comparison (number 7) simulates 200 clock runs.
"""

import time
from itertools import product

import numpy as np
import pytest
from scipy.integrate import dblquad

from bound_reference import dephasing_weights, rho_bar, rho_prime, support_projector
from mc_reference import mc_oracle
from qavar import (
    BoundWorkspace,
    JointProbe,
    NoiseParams,
    ProductProbe,
    Scenario,
    ServoConfig,
    SimConfig,
    SymmetricState,
    avar_series,
    block_kernel,
    bound_curve,
    extrapolate_long_term,
    free_lo_avar,
    ghz_step_state,
    kernel_set,
    optimize_joint_state,
    plus_step_state,
    product_pure,
    qavar,
    simulate_clock,
)

# Reference LO model used throughout (OU + white frequency noise).
REF = NoiseParams(alpha=2.0, beta=0.4, gamma=0.5, omega0=3.25e15)
W0SQ = REF.omega0**2


def _line(capsys, num, label, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    msg = f"[{num:>2}] {label}: {tag}" + (f"  ({detail})" if detail else "")
    with capsys.disabled():
        print("\n" + msg, flush=True)
    return msg


def _quad_block_cov(par: NoiseParams, T: float, m: int) -> float:
    """Covariance of two phase-block integrals m windows apart, by quadrature."""
    a, g = par.alpha, par.gamma
    if m == 0:
        # split at the |t-s| kink; the two triangles are equal
        val, _ = dblquad(
            lambda s, t: a * np.exp(-g * (t - s)), 0.0, T, 0.0, lambda t: t,
            epsabs=1e-14, epsrel=1e-12,
        )
        return 2.0 * val + par.beta * T
    lo = m * T
    val, _ = dblquad(
        lambda s, t: a * np.exp(-g * (t - s)), lo, lo + T, 0.0, T,
        epsabs=1e-14, epsrel=1e-12,
    )
    return val


def test_01_kernels_match_quadrature(capsys):
    K = 7
    worst = 0.0
    for alpha, gamma, T in product((0.5, 2.0, 5.0), (0.2, 0.5, 1.5), (0.3, 0.5, 1.0)):
        for beta in (0.0, 0.4):
            par = NoiseParams(alpha=alpha, beta=beta, gamma=gamma, omega0=REF.omega0)
            q = np.array([_quad_block_cov(par, T, m) for m in range(K)])
            G = block_kernel(par, T, K)
            worst = max(worst, float(np.max(np.abs(G[0] - q) / np.abs(q))))
            # signed window sums for k = 2, assembled from the same quadratures
            k = 2
            tau = k * T
            H_quad = np.array([
                sum(q[abs(i - j)] for j in range(k + 1, 2 * k + 1))
                - sum(q[abs(i - j)] for j in range(1, k + 1))
                for i in range(1, 2 * k)
            ]) / tau
            H = kernel_set(par, T, k).H
            worst = max(worst, float(np.max(np.abs(H - H_quad) / np.abs(H_quad))))
    ok = worst <= 1e-9
    msg = _line(capsys, 1, "kernel closed forms vs 2D quadrature", ok,
                f"worst rel err {worst:.2e}, grid 3x3x3 x beta in {{0, 0.4}}, K={K}")
    assert ok, msg


@pytest.fixture(scope="module")
def oracle_cases():
    """Dephasing construction vs Monte-Carlo, 1e6 samples per case."""
    rng = np.random.default_rng(20260819)
    cases = []
    for N in (1, 2):
        for k in (1, 2):
            amps = rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1)
            probes = {
                "plus": plus_step_state(N),
                "ghz": ghz_step_state(N),
                "random": SymmetricState(n_atoms=N,
                                         amplitudes=amps / np.linalg.norm(amps)),
            }
            for name, st in probes.items():
                scen = Scenario(noise=REF, n_atoms=N, k=k, T=0.8,
                                probe=ProductProbe(st))
                mc = mc_oracle(scen, n_samples=1_000_000, seed=int(rng.integers(2**32)))
                # the quantities BoundWorkspace.evaluate works from:
                # rho_in o W and rho_bar' = i [rho_bar, diag(u)]
                ws = BoundWorkspace(REF, N, k, 0.8)
                v = product_pure(st, scen.n_steps)
                rb = np.outer(v, v.conj()) * ws._blocks(()).block(0)
                rp = 1j * (rb * ws.u[None, :] - ws.u[:, None] * rb)
                cases.append((f"N={N} k={k} {name}", scen, rb, rp, mc))
    return cases


def test_02_dephasing_matches_mc_oracle(capsys, oracle_cases):
    worst_z = 0.0
    t0 = time.time()
    for label, _, rb, rp, mc in oracle_cases:
        for exact, est, se in ((rb, mc.rho_bar, mc.rho_bar_se),
                               (rp, mc.rho_prime, mc.rho_prime_se)):
            d = est - exact
            # Entries fixed by Hermiticity (diagonal imaginary parts) carry
            # only float roundoff on both sides, with SE below double
            # precision; the additive floor keeps those from dominating.
            z_re = np.abs(d.real) / (se.real + 1e-12)
            z_im = np.abs(d.imag) / (se.imag + 1e-12)
            worst_z = max(worst_z, float(z_re.max()), float(z_im.max()))
    ok = worst_z <= 5.0
    msg = _line(capsys, 2, "cumulant dephasing vs MC oracle", ok,
                f"{len(oracle_cases)} cases x 1e6 samples, worst |z| = {worst_z:.2f}")
    assert ok, msg


@pytest.fixture(scope="module")
def random_suite():
    """Randomized scenarios shared by the ordering and residual checks."""
    rng = np.random.default_rng(31415)
    rows = []
    for i in range(100):
        N = int(rng.integers(1, 3))
        k = int(rng.integers(1, 4))
        T = float(rng.uniform(0.2, 1.2))
        par = NoiseParams(
            alpha=float(rng.uniform(0.05, 5.0)),
            beta=float(rng.uniform(0.0, 1.0)),
            gamma=float(rng.uniform(0.1, 2.0)),
            omega0=REF.omega0,
        )
        dim = (N + 1) ** (2 * k - 1)
        kind = i % 3
        if kind == 0:
            amps = rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1)
            probe = ProductProbe(SymmetricState(n_atoms=N,
                                                amplitudes=amps / np.linalg.norm(amps)))
        elif kind == 1:
            v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            probe = JointProbe(vector=v / np.linalg.norm(v))
        else:
            # a signed real vector: its SLD takes evaluate's sign rotation
            v = rng.normal(size=dim)
            probe = JointProbe(vector=v / np.linalg.norm(v))
        scen = Scenario(noise=par, n_atoms=N, k=k, T=T, probe=probe)
        rows.append((scen, qavar(scen)))
    return rows


def test_03_sld_residual_on_support(capsys, random_suite, oracle_cases):
    worst = 0.0
    scens = [s for s, _ in random_suite] + [s for _, s, *_ in oracle_cases]
    for scen in scens:
        rb = rho_bar(scen)
        rp = rho_prime(scen, rb)
        L = qavar(scen, want_sld=True).sld
        P = support_projector(rb)
        R = P @ (rp - 0.5 * (rb @ L + L @ rb)) @ P
        nrm = np.linalg.norm(rp)
        if nrm > 0:
            worst = max(worst, float(np.linalg.norm(R) / nrm))
    ok = worst <= 1e-8
    msg = _line(capsys, 3, "SLD residual on the support", ok,
                f"{len(scens)} scenarios, worst residual {worst:.2e} of ||rho_bar'||")
    assert ok, msg


def test_04_single_step_closed_form(capsys):
    worst = 0.0
    sets = [REF,
            NoiseParams(alpha=1.0, beta=0.0, gamma=1.0, omega0=REF.omega0),
            NoiseParams(alpha=0.5, beta=0.9, gamma=0.3, omega0=REF.omega0)]
    for par in sets:
        for T in (0.5, 1.3):
            scen = Scenario(noise=par, n_atoms=1, k=1, T=T,
                            probe=ProductProbe(plus_step_state(1)))
            got = qavar(scen).sigma2_q
            g11 = block_kernel(par, T, 1)[0, 0]
            h1 = kernel_set(par, T, 1).H[0]
            want = free_lo_avar(par, T) - np.exp(-g11) * h1**2 / (2 * par.omega0**2)
            worst = max(worst, abs(got - want) / abs(want))
    ok = worst <= 1e-10
    msg = _line(capsys, 4, "closed-form single-window case", ok,
                f"6 parameter sets, worst rel err {worst:.2e}")
    assert ok, msg


@pytest.mark.slow
def test_05_long_term_coefficients(capsys):
    # Frozen grids: each tau window sits where the k_max = 4 sweep is near
    # its plateau, before the capped-k lift takes over.
    # |+> is the best atom-level product probe (see test_optimize.py); the
    # flip-symmetric search adds per-step entanglement.
    jobs = [
        ("N=1", 1, plus_step_state(1), [2.25, 2.5, 2.75, 3.0, 3.25], 1.33),
        ("N=2 product", 2, plus_step_state(2), [1.5, 2.0, 2.5, 3.0], 0.78),
        ("N=2 entangled", 2, "optimize-product", [1.5, 2.0, 2.5, 3.0], 0.73),
    ]
    t0 = time.time()
    results = []
    ok = True
    for label, N, probe, taus, target in jobs:
        scans = bound_curve(REF, N, taus, k_max=4, probe=probe, maxfev=60)
        fit = extrapolate_long_term([s.tau for s in scans],
                                    [s.sigma2_q for s in scans],
                                    REF.omega0, m=len(taus))
        dev = fit.c / target - 1.0
        ok = ok and abs(dev) <= 0.15
        results.append(f"{label}: c = {fit.c:.3f} vs {target} ({100 * dev:+.1f}%)")
    msg = _line(capsys, 5, "long-term coefficients from the full pipeline", ok,
                "; ".join(results) + f"; {time.time() - t0:.0f}s")
    assert ok, msg


def test_06_bound_ordering(capsys, random_suite):
    bad = 0
    for scen, res in random_suite:
        lo = res.sigma2_lo
        if not (-1e-12 * lo <= res.sigma2_q <= lo * (1 + 1e-10)):
            bad += 1
    ok = bad == 0
    msg = _line(capsys, 6, "0 <= sigma2_q <= sigma2_lo on random scenarios", ok,
                f"{len(random_suite)} scenarios, {bad} violations")
    assert ok, msg


@pytest.mark.slow
def test_07_servo_simulation_vs_bound(capsys):
    T = 0.5
    taus = (0.5, 1.0, 2.0)
    n_runs = 100
    t0 = time.time()
    lower_ok = True
    details = []
    ratio_largest = None
    for N in (1, 2):
        cfg = SimConfig(noise=REF, n_atoms=N, T=T, n_steps=10_000,
                        servo=ServoConfig(gain=0.3, estimator="linear"))
        seeds = np.random.SeedSequence(20260819 + N).spawn(n_runs)
        traces = [simulate_clock(cfg, int(s.generate_state(1)[0])) for s in seeds]
        for tau in taus:
            k = int(round(tau / T))
            vals = np.array([avar_series(tr.y, k, REF.omega0) for tr in traces])
            mean = float(vals.mean())
            se = float(vals.std(ddof=1) / np.sqrt(n_runs))
            scen = Scenario(noise=REF, n_atoms=N, k=k, T=T,
                            probe=ProductProbe(plus_step_state(N)))
            bound = qavar(scen).sigma2_q
            lower_ok = lower_ok and (mean >= bound - 3 * se)
            if N == 2 and tau == max(taus):
                ratio_largest = mean / bound
    factor_ok = ratio_largest is not None and ratio_largest <= 2.0
    ok = lower_ok and factor_ok
    detail = (f"AVAR >= bound - 3SE at all tau for N in {{1,2}}: "
              f"{'yes' if lower_ok else 'NO'}; N=2 tau=2.0 AVAR/bound = "
              f"{ratio_largest:.2f} (deviation ratio {np.sqrt(ratio_largest):.2f}); "
              f"a mid-fringe Ramsey integrator cannot go below ~2.3 here: the "
              f"free LO alone is 2.28x the bound at tau=2.0 and projection "
              f"noise only adds; {time.time() - t0:.0f}s")
    msg = _line(capsys, 7, "servo simulation against the bound", ok, detail)
    assert ok, msg


def test_08_white_noise_free_running_avar(capsys):
    par = NoiseParams(alpha=0.0, beta=0.4, gamma=0.5, omega0=REF.omega0)
    T = 0.5
    y = np.sqrt(par.beta / T) * np.random.default_rng(7).standard_normal(400_000)
    worst = 0.0
    for k in (1, 2, 5, 10):
        est = avar_series(y, k, par.omega0)
        want = par.beta / (W0SQ * k * T)
        worst = max(worst, abs(est / want - 1.0))
    ok = worst <= 0.10
    msg = _line(capsys, 8, "white-only free-running AVAR vs beta/(w0^2 tau)", ok,
                f"tau in [0.5, 5.0], worst dev {100 * worst:.1f}%")
    assert ok, msg


def test_09_see_saw_monotone(capsys):
    bad = 0
    runs = 0
    for N, k in ((1, 1), (1, 2), (2, 1), (2, 2)):
        for seed in (0, 1):
            scen = Scenario(noise=REF, n_atoms=N, k=k, T=0.6,
                            probe=ProductProbe(plus_step_state(N)))
            rep = optimize_joint_state(scen, seed=seed)
            h = np.asarray(rep.history)
            tol = 1e-10 * free_lo_avar(REF, scen.tau)
            runs += 1
            if np.any(np.diff(h) > tol):
                bad += 1
    ok = bad == 0
    msg = _line(capsys, 9, "see-saw iterate history non-increasing", ok,
                f"{runs} runs, {bad} with an increasing step")
    assert ok, msg


def test_10_window_merge_isomorphism(capsys):
    rng = np.random.default_rng(99)
    a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
    nrm = np.sqrt(abs(a) ** 2 + abs(b) ** 2)
    a, b = a / nrm, b / nrm
    worst = 0.0
    for par, T in ((REF, 0.5), (REF, 1.1),
                   (NoiseParams(alpha=1.3, beta=0.2, gamma=0.8, omega0=REF.omega0), 0.7)):
        # one atom entangled across two adjacent windows, no readout between
        v2 = np.array([a, 0.0, 0.0, b])
        W2 = dephasing_weights(block_kernel(par, T, 2), 1)
        rho2 = np.outer(v2, v2.conj()) * W2
        sub = rho2[np.ix_([0, 3], [0, 3])]
        # the same atom over a single window of twice the length
        v1 = np.array([a, b])
        W1 = dephasing_weights(block_kernel(par, 2 * T, 1), 1)
        rho1 = np.outer(v1, v1.conj()) * W1
        worst = max(worst, float(np.max(np.abs(sub - rho1))))
    ok = worst <= 1e-12
    msg = _line(capsys, 10, "two-window merge equals one doubled window", ok,
                f"worst entry diff {worst:.2e}")
    assert ok, msg
