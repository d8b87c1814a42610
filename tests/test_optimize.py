"""Optimizer tests: cost operator, see-saw, product search, k sweep, plateau."""

import numpy as np
import pytest
from scipy.optimize import minimize

from bound_reference import cost_functional
from qavar import optimize
from qavar.core import BoundWorkspace, JointProbe, ProductProbe, Scenario, qavar
from qavar.hilbert import SymmetricState, coherent_step_state, plus_step_state, product_pure
from qavar.noise import NoiseParams, free_lo_avar
from qavar.optimize import (
    _amps_from_chart,
    bound_curve,
    cost_operator,
    extrapolate_long_term,
    optimize_joint_state,
    optimize_product_state,
)

PAR = NoiseParams(alpha=2.0, beta=0.4, gamma=0.5, omega0=3.25e15)
QUIET = NoiseParams(alpha=0.0, beta=0.0, gamma=0.5, omega0=3.25e15)


def plus_scenario(n_atoms=1, k=1, T=1.0, noise=PAR):
    return Scenario(noise=noise, n_atoms=n_atoms, k=k, T=T,
                    probe=ProductProbe(plus_step_state(n_atoms)))


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return m + m.conj().T


def random_sld(dim, seed):
    """L = iK with K real antisymmetric: the form of a real input's SLD."""
    m = np.random.default_rng(seed).normal(size=(dim, dim))
    return 1j * (m - m.T)


def complex_formula(L, ws):
    """A_L = W o (L^2 / (2 omega0^2) + i [L, U] / omega0^2) in complex arithmetic."""
    w0sq, W, u = ws.noise.omega0**2, ws.weights, ws.u
    return W * (L @ L) / (2.0 * w0sq) + W * (1j * (L * u[None, :] - u[:, None] * L)) / w0sq


class TestCostOperator:
    def test_zero_noise_reduces_to_squared(self):
        ws = BoundWorkspace(QUIET, 1, 2, 0.5)
        L = random_sld(ws.dim, 0)
        A = cost_operator(L, ws)
        assert np.allclose(A, (L @ L).real / (2.0 * QUIET.omega0**2),
                           atol=1e-12 / QUIET.omega0**2)

    def test_trace_identity_vs_cost_functional(self):
        # Tr(rho_in A_L) + sigma2_lo == cost_functional(rho_in, L)
        sc = plus_scenario(k=2, T=0.5)
        ws = BoundWorkspace(PAR, 1, 2, 0.5)
        for seed in range(3):
            L = random_sld(ws.dim, seed) / PAR.omega0
            rng = np.random.default_rng(100 + seed)
            v = rng.normal(size=ws.dim) + 1j * rng.normal(size=ws.dim)
            v /= np.linalg.norm(v)
            rho_in = np.outer(v, v.conj())
            lhs = np.trace(rho_in @ cost_operator(L, ws)).real + ws.kernels.sigma2_lo
            rhs = cost_functional(rho_in, L, sc)
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_hermitian_output(self):
        ws = BoundWorkspace(PAR, 2, 2, 1.0)
        L = random_sld(ws.dim, 5)
        A = cost_operator(L, ws)
        assert A.dtype == np.float64
        # relative: the entries are ~1/omega0^2, far below allclose's atol
        assert np.abs(A - A.T).max() <= 1e-12 * np.abs(A).max()
        full = complex_formula(L, ws)
        assert np.abs(A - full).max() <= 1e-14 * np.abs(full).max()

    def test_general_hermitian_rejected(self):
        ws = BoundWorkspace(PAR, 2, 1, 1.0)
        with pytest.raises(ValueError, match="purely imaginary"):
            cost_operator(random_hermitian(ws.dim, 5), ws)

    def test_real_input_sld_takes_real_branch(self):
        # a real input's SLD is iK with K real antisymmetric; A_L is then real
        ws = BoundWorkspace(PAR, 2, 3, 0.7)
        v = product_pure(plus_step_state(2), ws.n_steps).real
        L = ws.evaluate(v, want_sld=True).sld
        assert not np.any(L.real)
        A = cost_operator(L, ws)
        assert A.dtype == np.float64
        full = complex_formula(L, ws)
        assert np.abs(A - full).max() <= 1e-14 * np.abs(full).max()


class TestSeeSaw:
    def test_history_non_increasing(self):
        rep = optimize_joint_state(plus_scenario(k=2, T=0.5), seed=0)
        h = np.asarray(rep.history)
        slack = 1e-10 * max(free_lo_avar(PAR, 1.0), 0.0)
        assert np.all(np.diff(h) <= slack)
        assert rep.converged
        assert rep.kind == "joint"

    def test_beats_or_matches_initial_probe(self):
        sc = plus_scenario(n_atoms=2, k=1, T=1.0)
        fixed = qavar(sc).sigma2_q
        rep = optimize_joint_state(sc, seed=1)
        assert rep.sigma2_q <= fixed + 1e-12 * fixed

    def test_zero_noise_converges_to_zero(self):
        rep = optimize_joint_state(plus_scenario(noise=QUIET, k=1), seed=0)
        assert rep.sigma2_q == pytest.approx(0.0, abs=1e-45)
        assert rep.converged

    def test_state_normalized(self):
        rep = optimize_joint_state(plus_scenario(k=2, T=0.5), seed=2)
        assert np.linalg.norm(rep.state) == pytest.approx(1.0, rel=1e-12)
        # reported value reproduces when re-evaluated
        re_eval = qavar(Scenario(noise=PAR, n_atoms=1, k=2, T=0.5,
                                 probe=JointProbe(vector=rep.state)))
        assert re_eval.sigma2_q == pytest.approx(rep.sigma2_q, rel=1e-10)

    def test_real_start_stays_real(self, monkeypatch):
        seen = []
        evaluate = BoundWorkspace.evaluate

        def spy(ws, rho_in, want_sld=False):
            seen.append(rho_in.dtype)
            return evaluate(ws, rho_in, want_sld)

        monkeypatch.setattr(BoundWorkspace, "evaluate", spy)
        plus = product_pure(plus_step_state(2), 3).real
        rep = optimize_joint_state(Scenario(noise=PAR, n_atoms=2, k=2, T=1.0,
                                            probe=JointProbe(vector=plus)))
        assert len(seen) == rep.n_evals >= 2
        assert set(seen) == {np.dtype(np.float64)}
        assert rep.state.dtype == np.float64

    def test_real_and_complex_starts_agree(self):
        # a per-step phase twist leaves sigma2_q invariant; both starts must
        # reach the same optimum alike, each returned in its own phase gauge
        real = optimize_joint_state(plus_scenario(n_atoms=2, k=2, T=1.0))
        twisted = optimize_joint_state(Scenario(
            noise=PAR, n_atoms=2, k=2, T=1.0,
            probe=ProductProbe(coherent_step_state(2, np.pi / 2, np.pi / 3))))
        assert np.iscomplexobj(twisted.state) and not np.iscomplexobj(real.state)
        assert twisted.sigma2_q == pytest.approx(real.sigma2_q, rel=1e-10)
        assert twisted.n_evals == real.n_evals

    @pytest.mark.parametrize("start", ["twisted", "signed"])
    def test_complex_start_runs_real_in_its_gauge(self, monkeypatch, start):
        # psi0 = z |psi0|: the sweeps run on real inputs, match the |psi0|
        # run, and the state comes back in the start's gauge.  A signed
        # real start's z is a sign pattern.
        if start == "twisted":
            probe = ProductProbe(coherent_step_state(2, np.pi / 2, np.pi / 3))
            psi0 = product_pure(probe.state, 3)
        else:
            psi0 = np.random.default_rng(4).standard_normal(27)
            psi0 /= np.linalg.norm(psi0)
            probe = JointProbe(vector=psi0)
        z = psi0 / np.abs(psi0)
        seen = []
        evaluate = BoundWorkspace.evaluate

        def spy(ws, rho_in, want_sld=False):
            seen.append(rho_in.dtype)
            return evaluate(ws, rho_in, want_sld)

        monkeypatch.setattr(BoundWorkspace, "evaluate", spy)
        rep = optimize_joint_state(Scenario(noise=PAR, n_atoms=2, k=2, T=1.0, probe=probe))
        assert len(seen) == rep.n_evals >= 2
        assert set(seen) == {np.dtype(np.float64)}
        assert np.iscomplexobj(rep.state) == (start == "twisted")
        monkeypatch.undo()
        h = np.asarray(rep.history)
        assert np.all(np.diff(h) <= 1e-10 * free_lo_avar(PAR, 2.0))
        plain = optimize_joint_state(Scenario(noise=PAR, n_atoms=2, k=2, T=1.0,
                                              probe=JointProbe(vector=np.abs(psi0))))
        assert plain.n_evals == rep.n_evals
        assert np.abs(h - plain.history).max() <= 1e-12 * np.abs(h).max()
        back = rep.state * z.conj()
        assert np.abs(back.imag).max() <= 1e-14 * np.abs(back).max()

    @pytest.mark.parametrize("vector, message", [
        (np.full(26, 1 / np.sqrt(26)), "joint vector length 26, expected 27"),
        (np.full(27, 0.2), "joint vector not normalized"),
        (None, "probe has 1 atoms, scenario 2"),
    ])
    def test_bad_joint_vector_rejected_before_any_sweep(self, monkeypatch, vector, message):
        # vector None: a one-atom product probe in a two-atom scenario
        probe = ProductProbe(plus_step_state(1)) if vector is None else JointProbe(vector=vector)
        sc = Scenario(noise=PAR, n_atoms=2, k=2, T=1.0, probe=probe)
        with pytest.raises(ValueError, match=message) as from_qavar:
            qavar(sc)
        monkeypatch.setattr(BoundWorkspace, "evaluate", lambda *a, **kw: pytest.fail("swept"))
        for optimizer in (optimize_joint_state, optimize_product_state):
            with pytest.raises(ValueError) as raised:
                optimizer(sc)
            assert str(raised.value) == str(from_qavar.value)


class TestProductSearch:
    def test_single_atom_prefers_equatorial(self):
        rep = optimize_product_state(plus_scenario())
        mags = np.abs(rep.state)
        assert mags[0] == pytest.approx(np.sqrt(0.5), abs=5e-3)
        assert rep.sigma2_q <= qavar(plus_scenario()).sigma2_q * (1 + 1e-12)

    def test_history_is_running_minimum(self):
        rep = optimize_product_state(plus_scenario(k=2, T=0.5))
        h = np.asarray(rep.history)
        assert np.all(np.diff(h) <= 0.0 + 1e-300)
        assert rep.n_evals == len(h)

    def test_coherent_family_single_parameter(self):
        sc = plus_scenario(n_atoms=2, k=1, T=1.0)
        rep = optimize_product_state(sc, family="coherent")
        assert rep.kind == "product-coherent"
        # plus state is inside the family, so the search can only improve on it
        assert rep.sigma2_q <= qavar(sc).sigma2_q * (1 + 1e-12)

    def test_coherent_subset_of_symmetric(self):
        sc = plus_scenario(n_atoms=2, k=1, T=1.0)
        coh = optimize_product_state(sc, family="coherent")
        sym = optimize_product_state(sc, family="symmetric")
        assert sym.sigma2_q <= coh.sigma2_q * (1 + 1e-9)

    def test_maxfev_bounds_the_evaluations(self):
        # Nelder-Mead checks maxfev once per iteration; a shrink step can
        # overshoot by at most the simplex's N + 1 vertices
        sc = plus_scenario(n_atoms=2, k=2, T=0.5)
        rep = optimize_product_state(sc, maxfev=7)
        assert np.isfinite(rep.sigma2_q)
        assert 7 <= rep.n_evals <= 7 + 3
        assert not rep.converged

    @pytest.mark.parametrize("family", ["symmetric", "coherent"])
    def test_converged_is_false_when_maxfev_stops_a_run(self, family):
        sc = plus_scenario(k=2, T=0.5)
        free = optimize_product_state(sc, family=family)
        capped = optimize_product_state(sc, family=family, maxfev=5)
        assert free.converged
        assert not capped.converged

    @pytest.mark.parametrize("family", ["symmetric", "coherent"])
    @pytest.mark.parametrize("maxfev", [None, 5])
    def test_one_nelder_mead_run_per_search(self, monkeypatch, family, maxfev):
        runs = []

        def counted(*args, **kwargs):
            runs.append(minimize(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(optimize, "minimize", counted)
        rep = optimize_product_state(plus_scenario(n_atoms=2, k=2, T=0.5), family=family,
                                     maxfev=maxfev)
        assert len(runs) == 1
        assert rep.converged == bool(runs[0].success)
        assert rep.n_evals == runs[0].nfev

    def test_symmetric_search_starts_from_the_probe(self, monkeypatch):
        starts = []
        monkeypatch.setattr(optimize, "minimize",
                            lambda f, x0, **kw: starts.append(x0) or minimize(f, x0, **kw))
        warm = SymmetricState(2, np.array([0.6, 0.0, 0.8], dtype=complex))
        for probe in (warm, plus_step_state(2)):
            optimize_product_state(Scenario(noise=PAR, n_atoms=2, k=1, T=1.0,
                                            probe=ProductProbe(probe)), maxfev=5)
            assert np.allclose(_amps_from_chart(starts[-1], 2), probe.amplitudes, atol=1e-12)
        optimize_product_state(Scenario(noise=PAR, n_atoms=2, k=1, T=1.0,
                                        probe=JointProbe(vector=np.eye(3)[0])), maxfev=5)
        assert np.allclose(_amps_from_chart(starts[-1], 2), plus_step_state(2).amplitudes,
                           atol=1e-12)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="family"):
            optimize_product_state(plus_scenario(), family="bogus")


def multistart_reference(scenario, family, n_starts=8, seed=0):
    """Best sigma2_q of n_starts Nelder-Mead runs from random chart points.

    The product search once ran this way; a single run from its fixed start
    must not do worse.
    """
    N = scenario.n_atoms
    ws = BoundWorkspace(scenario.noise, N, scenario.k, scenario.T)
    if family == "coherent":
        chart, n_params = lambda x: coherent_step_state(N, float(x[0]), 0.0).amplitudes, 1
    else:
        chart, n_params = lambda x: _amps_from_chart(x, N), N
    scale = scenario.noise.omega0**2 * scenario.tau

    def cost(x):
        amps = np.asarray(chart(x))
        state = SymmetricState(N, amps / np.linalg.norm(amps))
        return ws.evaluate(product_pure(state, ws.n_steps)).sigma2_q * scale

    rng = np.random.default_rng(seed)
    runs = [minimize(cost, rng.uniform(0.05, np.pi - 0.05, n_params), method="Nelder-Mead",
                     options=dict(xatol=1e-6, fatol=1e-10, maxfev=200 * n_params))
            for _ in range(n_starts)]
    return min(r.fun for r in runs) / scale


@pytest.mark.parametrize("family", ["symmetric", "coherent"])
@pytest.mark.parametrize("n_atoms, k", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)])
@pytest.mark.parametrize("tau", [1.0, 3.0])
def test_one_run_matches_multistart_reference(family, n_atoms, k, tau):
    sc = plus_scenario(n_atoms=n_atoms, k=k, T=tau / k)
    rep = optimize_product_state(sc, family=family)
    assert rep.sigma2_q <= multistart_reference(sc, family) * (1 + 1e-9)


class TestOrderingSandwich:
    def test_joint_beats_product_beats_fixed(self):
        sc = plus_scenario(k=2, T=0.5)
        fixed = qavar(sc).sigma2_q
        product = optimize_product_state(sc)
        joint = optimize_joint_state(
            Scenario(noise=PAR, n_atoms=1, k=2, T=0.5,
                     probe=ProductProbe(SymmetricState(1, product.state))),
        )
        slack = 1e-10 * fixed
        assert product.sigma2_q <= fixed + slack
        assert joint.sigma2_q <= product.sigma2_q + slack


class TestInterrogationScan:
    """One tau's scan, out of bound_curve."""

    def test_fixed_probe_sweep(self):
        scan = bound_curve(PAR, 1, [2.0], 3, probe=plus_step_state(1))[0]
        assert len(scan.evaluations) == 3
        assert scan.sigma2_q == min(e.sigma2_q for e in scan.evaluations)
        assert scan.k_opt * scan.T_opt == pytest.approx(2.0, rel=1e-12)
        assert scan.sigma2_lo == pytest.approx(float(free_lo_avar(PAR, 2.0)), rel=1e-14)
        for e in scan.evaluations:
            assert e.dim == 2 ** (2 * e.k - 1)

    def test_optimized_beats_fixed_plus(self):
        fixed = bound_curve(PAR, 1, [1.0], 2, probe=plus_step_state(1))[0]
        opt = bound_curve(PAR, 1, [1.0], 2, probe="optimize-product")[0]
        assert opt.sigma2_q <= fixed.sigma2_q * (1 + 1e-10)
        best = min(opt.evaluations, key=lambda e: e.sigma2_q)
        assert best.report is not None

    def test_each_tau_starts_from_the_previous_optimum(self, monkeypatch):
        starts = []
        monkeypatch.setattr(optimize, "minimize",
                            lambda f, x0, **kw: starts.append(x0) or minimize(f, x0, **kw))
        first, chained = bound_curve(PAR, 2, [1.5, 1.0], 2)
        alone = bound_curve(PAR, 2, [1.5], 2)[0]
        assert chained.sigma2_q <= alone.sigma2_q * (1 + 1e-9)
        # searches in call order: tau 1.0 at k = 1, 2, tau 1.5 at k = 1, 2, then
        # tau 1.5 alone at k = 1, 2; each k > 1 starts from the optimum at k - 1
        plus = plus_step_state(2).amplitudes
        want = [plus, first.evaluations[0].report.state,
                first.evaluations[first.k_opt - 1].report.state,
                chained.evaluations[0].report.state,
                plus, alone.evaluations[0].report.state]
        assert len(starts) == len(want)
        for x0, amps in zip(starts, want):
            assert np.allclose(_amps_from_chart(x0, 2), np.abs(amps), atol=1e-12)

    def test_bad_args(self, monkeypatch):
        monkeypatch.setattr(BoundWorkspace, "evaluate", lambda *a, **kw: pytest.fail("ran"))
        for taus in ([1.0, -1.0], [0.0]):
            with pytest.raises(ValueError, match="tau must be > 0"):
                bound_curve(PAR, 1, taus, 2)
        with pytest.raises(ValueError, match="k_max must be >= 1"):
            bound_curve(PAR, 1, [1.0], 0)
        with pytest.raises(ValueError, match="probe"):
            bound_curve(PAR, 1, [1.0], 1, probe="bogus")
        with pytest.raises(ValueError, match="probe"):
            bound_curve(PAR, 1, [1.0], 1, probe="plus")

    def test_joint_probe_rejected_before_any_evaluation(self, monkeypatch):
        # a JointProbe fixes k through its dimension, so it cannot sweep k
        calls = []
        monkeypatch.setattr("qavar.optimize.qavar", lambda *a: calls.append(a))
        probe = JointProbe(vector=np.array([1.0, 1.0]) / np.sqrt(2.0))
        with pytest.raises(ValueError, match="SymmetricState, 'optimize-product' or "
                                             "'optimize-joint'"):
            bound_curve(PAR, 1, [2.0], 2, probe=probe)
        assert calls == []


class TestBoundCurve:
    def test_grid_scan_shapes(self):
        scans = bound_curve(PAR, 1, [2.0, 1.0], 2, probe="optimize-product")
        assert [s.tau for s in scans] == [1.0, 2.0]
        for s in scans:
            assert 0.0 < s.sigma2_q <= s.sigma2_lo

    def test_phase_polish_rejected_before_any_evaluation(self, monkeypatch):
        monkeypatch.setattr(BoundWorkspace, "evaluate", lambda *a, **kw: pytest.fail("ran"))
        with pytest.raises(ValueError, match="polish_phases must be False"):
            bound_curve(PAR, 1, [1.0], 1, polish_phases=True)
        with pytest.raises(ValueError, match="n_starts must be 1"):
            bound_curve(PAR, 1, [1.0], 1, n_starts=2)

    def test_seed_does_not_move_the_scan(self):
        a, b = (bound_curve(PAR, 2, [1.0, 1.5], 2, seed=seed) for seed in (3, 4))
        assert [s.sigma2_q for s in a] == [s.sigma2_q for s in b]
        for scan_a, scan_b in zip(a, b):
            for ev_a, ev_b in zip(scan_a.evaluations, scan_b.evaluations, strict=True):
                assert ev_a.report.history == ev_b.report.history
                assert np.array_equal(ev_a.report.state, ev_b.report.state)


class TestExtrapolation:
    def test_exact_plateau(self):
        taus = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        c_true = 1.5
        s2 = c_true / (PAR.omega0**2 * taus)
        fit = extrapolate_long_term(taus, s2, PAR.omega0, m=5)
        assert fit.flat
        assert fit.c == pytest.approx(c_true, rel=1e-12)
        assert fit.spread == pytest.approx(0.0, abs=1e-12)

    def test_unsorted_input_handled(self):
        taus = [4.0, 1.0, 16.0, 2.0, 8.0]
        s2 = [0.7 / (PAR.omega0**2 * t) for t in taus]
        fit = extrapolate_long_term(taus, s2, PAR.omega0, m=5)
        assert fit.flat and fit.c == pytest.approx(0.7, rel=1e-12)
        assert np.all(np.diff(fit.taus) > 0)

    def test_non_flat_tail_flagged(self):
        taus = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        s2 = 1.0 / (PAR.omega0**2 * np.sqrt(taus))  # not yet 1/tau
        fit = extrapolate_long_term(taus, s2, PAR.omega0, m=5)
        assert not fit.flat

    def test_short_grid_not_flat(self):
        taus = [1.0, 2.0]
        s2 = [0.5 / (PAR.omega0**2 * t) for t in taus]
        fit = extrapolate_long_term(taus, s2, PAR.omega0, m=5)
        assert not fit.flat
        assert fit.n_used == 2

    def test_input_validation(self):
        with pytest.raises(ValueError):
            extrapolate_long_term([1.0, 2.0], [1.0], PAR.omega0)
        for m in (0, -1):
            with pytest.raises(ValueError, match="m must be >= 1"):
                extrapolate_long_term([1.0, 2.0, 4.0], [1.0, 0.5, 0.25], 1.0, m=m)
