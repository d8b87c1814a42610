"""Optimizer tests: cost operator, see-saw, product search, k sweep, plateau."""

import numpy as np
import pytest

from bound_reference import cost_functional
from qavar.core import BoundWorkspace, JointProbe, ProductProbe, Scenario, qavar
from qavar.hilbert import SymmetricState, coherent_step_state, plus_step_state, product_pure
from qavar.noise import NoiseParams, free_lo_avar
from qavar.optimize import (
    bound_curve,
    cost_operator,
    extrapolate_long_term,
    optimize_interrogation,
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


class TestCostOperator:
    def test_zero_noise_reduces_to_squared(self):
        ws = BoundWorkspace(QUIET, 1, 2, 0.5)
        L = random_hermitian(ws.dim, 0)
        A = cost_operator(L, ws)
        assert np.allclose(A, L @ L / (2.0 * QUIET.omega0**2), atol=1e-12 / QUIET.omega0**2)

    def test_trace_identity_vs_cost_functional(self):
        # Tr(rho_in A_L) + sigma2_lo == cost_functional(rho_in, L)
        sc = plus_scenario(k=2, T=0.5)
        ws = BoundWorkspace(PAR, 1, 2, 0.5)
        for seed in range(3):
            L = random_hermitian(ws.dim, seed) / PAR.omega0
            rng = np.random.default_rng(100 + seed)
            v = rng.normal(size=ws.dim) + 1j * rng.normal(size=ws.dim)
            v /= np.linalg.norm(v)
            rho_in = np.outer(v, v.conj())
            lhs = np.trace(rho_in @ cost_operator(L, ws)).real + ws.kernels.sigma2_lo
            rhs = cost_functional(rho_in, L, sc)
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_hermitian_output(self):
        ws = BoundWorkspace(PAR, 2, 1, 1.0)
        A = cost_operator(random_hermitian(ws.dim, 5), ws)
        # a general Hermitian L takes the complex branch
        assert A.dtype == np.complex128
        # relative: the entries are ~1/omega0^2, far below allclose's atol
        assert np.abs(A - A.conj().T).max() <= 1e-12 * np.abs(A).max()

    def test_real_input_sld_takes_real_branch(self):
        # a real input's SLD is iK with K real antisymmetric; A_L is then real
        ws = BoundWorkspace(PAR, 2, 3, 0.7)
        v = product_pure(plus_step_state(2), ws.n_steps).real
        L = ws.evaluate(v, want_sld=True).sld
        assert not np.any(L.real)
        A = cost_operator(L, ws)
        assert A.dtype == np.float64
        w0sq, W, u = PAR.omega0**2, ws.weights, ws.u
        full = W * (L @ L) / (2.0 * w0sq) + W * (1j * (L * u[None, :] - u[:, None] * L)) / w0sq
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
        # a per-step phase twist leaves sigma2_q invariant but makes every
        # iterate complex; both starts must reach the same optimum alike
        real = optimize_joint_state(plus_scenario(n_atoms=2, k=2, T=1.0))
        twisted = optimize_joint_state(Scenario(
            noise=PAR, n_atoms=2, k=2, T=1.0,
            probe=ProductProbe(coherent_step_state(2, np.pi / 2, np.pi / 3))))
        assert np.iscomplexobj(twisted.state) and not np.iscomplexobj(real.state)
        assert twisted.sigma2_q == pytest.approx(real.sigma2_q, rel=1e-10)
        assert twisted.n_evals == real.n_evals

    @pytest.mark.parametrize("start", ["twisted", "density"])
    def test_complex_start_runs_real_in_its_gauge(self, monkeypatch, start):
        # psi0 = z |psi0|: the sweeps run from |psi0| on real inputs, match
        # the |psi0| run, and the state comes back in the start's gauge
        seed = 4
        if start == "twisted":
            probe = ProductProbe(coherent_step_state(2, np.pi / 2, np.pi / 3))
            psi0 = product_pure(probe.state, 3)
        else:
            probe = JointProbe(density=np.eye(27) / 27)
            rng = np.random.default_rng(seed)
            psi0 = rng.standard_normal(27) + 1j * rng.standard_normal(27)
            psi0 /= np.linalg.norm(psi0)
        z = psi0 / np.abs(psi0)
        seen = []
        evaluate = BoundWorkspace.evaluate

        def spy(ws, rho_in, want_sld=False):
            seen.append(rho_in.dtype)
            return evaluate(ws, rho_in, want_sld)

        monkeypatch.setattr(BoundWorkspace, "evaluate", spy)
        rep = optimize_joint_state(Scenario(noise=PAR, n_atoms=2, k=2, T=1.0, probe=probe),
                                   seed=seed)
        assert len(seen) == rep.n_evals >= 2
        assert set(seen) == {np.dtype(np.float64)}
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
    ])
    def test_bad_joint_vector_rejected_before_any_sweep(self, monkeypatch, vector, message):
        sc = Scenario(noise=PAR, n_atoms=2, k=2, T=1.0, probe=JointProbe(vector=vector))
        with pytest.raises(ValueError, match=message) as from_qavar:
            qavar(sc)
        monkeypatch.setattr(BoundWorkspace, "evaluate", lambda *a, **kw: pytest.fail("swept"))
        with pytest.raises(ValueError) as from_seesaw:
            optimize_joint_state(sc)
        assert str(from_seesaw.value) == str(from_qavar.value)


class TestProductSearch:
    def test_single_atom_prefers_equatorial(self):
        rep = optimize_product_state(plus_scenario(), n_starts=4, seed=0)
        mags = np.abs(rep.state)
        assert mags[0] == pytest.approx(np.sqrt(0.5), abs=5e-3)
        assert rep.sigma2_q <= qavar(plus_scenario()).sigma2_q * (1 + 1e-12)

    def test_history_is_running_minimum(self):
        rep = optimize_product_state(plus_scenario(k=2, T=0.5), n_starts=3, seed=1)
        h = np.asarray(rep.history)
        assert np.all(np.diff(h) <= 0.0 + 1e-300)
        assert rep.n_evals == len(h)

    def test_phase_polish_cannot_beat_real_chart(self):
        # the phases leave sigma2_q invariant; the full-chart polish must
        # agree with the real-chart optimum to optimizer precision
        sc = plus_scenario(n_atoms=2, k=1, T=1.0)
        plain = optimize_product_state(sc, n_starts=4, seed=3, polish_phases=False)
        polished = optimize_product_state(sc, n_starts=4, seed=3, polish_phases=True)
        scale = qavar(sc).sigma2_lo
        assert abs(polished.sigma2_q - plain.sigma2_q) <= 1e-8 * scale

    def test_coherent_family_single_parameter(self):
        sc = plus_scenario(n_atoms=2, k=1, T=1.0)
        rep = optimize_product_state(sc, n_starts=3, seed=0, family="coherent")
        assert rep.kind == "product-coherent"
        # plus state is inside the family, so the search can only improve on it
        assert rep.sigma2_q <= qavar(sc).sigma2_q * (1 + 1e-12)

    def test_coherent_subset_of_symmetric(self):
        sc = plus_scenario(n_atoms=2, k=1, T=1.0)
        coh = optimize_product_state(sc, n_starts=3, seed=0, family="coherent")
        sym = optimize_product_state(sc, n_starts=6, seed=0, family="symmetric")
        assert sym.sigma2_q <= coh.sigma2_q * (1 + 1e-9)

    def test_single_start_honored(self):
        rep = optimize_product_state(plus_scenario(k=1), n_starts=1, seed=0,
                                     polish_phases=False, maxfev=40)
        assert np.isfinite(rep.sigma2_q)
        assert rep.n_evals <= 45

    @pytest.mark.parametrize("k", [1, 2])
    def test_no_phase_polish_at_one_atom(self, k):
        # at N = 1 the only phase is the per-step twist, a gauge of the bound
        sc = plus_scenario(k=k, T=1.5 / k)
        plain = optimize_product_state(sc, n_starts=2, seed=1, polish_phases=False)
        polished = optimize_product_state(sc, n_starts=2, seed=1, polish_phases=True)
        assert (polished.sigma2_q, polished.n_evals, polished.converged) == (
            plain.sigma2_q, plain.n_evals, plain.converged)

    @pytest.mark.parametrize("family", ["symmetric", "coherent"])
    def test_converged_is_false_when_maxfev_stops_a_run(self, family):
        sc = plus_scenario(k=2, T=0.5)
        free = optimize_product_state(sc, n_starts=2, seed=0, family=family,
                                      polish_phases=False)
        capped = optimize_product_state(sc, n_starts=2, seed=0, family=family,
                                        polish_phases=False, maxfev=5)
        assert free.converged
        assert not capped.converged

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="family"):
            optimize_product_state(plus_scenario(), family="bogus")


class TestOrderingSandwich:
    def test_joint_beats_product_beats_fixed(self):
        sc = plus_scenario(k=2, T=0.5)
        fixed = qavar(sc).sigma2_q
        product = optimize_product_state(sc, n_starts=4, seed=0)
        joint = optimize_joint_state(
            Scenario(noise=PAR, n_atoms=1, k=2, T=0.5,
                     probe=ProductProbe(SymmetricState(1, product.state))),
            seed=0,
        )
        slack = 1e-10 * fixed
        assert product.sigma2_q <= fixed + slack
        assert joint.sigma2_q <= product.sigma2_q + slack


class TestInterrogationScan:
    def test_fixed_probe_sweep(self):
        scan = optimize_interrogation(PAR, 1, 2.0, 3, probe=plus_step_state(1))
        assert len(scan.evaluations) == 3
        assert scan.sigma2_q == min(e.sigma2_q for e in scan.evaluations)
        assert scan.k_opt * scan.T_opt == pytest.approx(2.0, rel=1e-12)
        assert scan.sigma2_lo == pytest.approx(float(free_lo_avar(PAR, 2.0)), rel=1e-14)
        for e in scan.evaluations:
            assert e.dim == 2 ** (2 * e.k - 1)

    def test_optimized_beats_fixed_plus(self):
        fixed = optimize_interrogation(PAR, 1, 1.0, 2, probe=plus_step_state(1))
        opt = optimize_interrogation(PAR, 1, 1.0, 2, probe="optimize-product",
                                     n_starts=2, polish_phases=False)
        assert opt.sigma2_q <= fixed.sigma2_q * (1 + 1e-10)
        best = min(opt.evaluations, key=lambda e: e.sigma2_q)
        assert best.report is not None

    def test_warm_state_does_not_hurt(self):
        base = optimize_interrogation(PAR, 1, 1.0, 2, probe="optimize-product",
                                      n_starts=2, polish_phases=False, seed=0)
        best = min(base.evaluations, key=lambda e: e.sigma2_q)
        warm = optimize_interrogation(
            PAR, 1, 1.0, 2, probe="optimize-product", n_starts=2,
            polish_phases=False, seed=0,
            warm_state=SymmetricState(1, best.report.state),
        )
        assert warm.sigma2_q <= base.sigma2_q * (1 + 1e-9)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            optimize_interrogation(PAR, 1, -1.0, 2)
        with pytest.raises(ValueError):
            optimize_interrogation(PAR, 1, 1.0, 0)
        with pytest.raises(ValueError, match="probe"):
            optimize_interrogation(PAR, 1, 1.0, 1, probe="bogus")
        with pytest.raises(ValueError, match="probe"):
            optimize_interrogation(PAR, 1, 1.0, 1, probe="plus")

    def test_joint_probe_rejected_before_any_evaluation(self, monkeypatch):
        # a JointProbe fixes k through its dimension, so it cannot sweep k
        calls = []
        monkeypatch.setattr("qavar.optimize.qavar", lambda *a: calls.append(a))
        probe = JointProbe(vector=np.array([1.0, 1.0]) / np.sqrt(2.0))
        with pytest.raises(ValueError, match="SymmetricState, 'optimize-product' or "
                                             "'optimize-joint'"):
            optimize_interrogation(PAR, 1, 2.0, 2, probe=probe)
        assert calls == []


class TestBoundCurve:
    def test_grid_scan_shapes(self):
        scans = bound_curve(PAR, 1, [2.0, 1.0], 2, probe="optimize-product",
                            n_starts=2, polish_phases=False, seed=0)
        assert [s.tau for s in scans] == [1.0, 2.0]
        for s in scans:
            assert 0.0 < s.sigma2_q <= s.sigma2_lo


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
