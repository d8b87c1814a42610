"""Optimizer tests: cost operator, see-saw, product search, k sweep, plateau."""

import dataclasses

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import minimize, minimize_scalar

from bound_reference import cost_functional, rho_bar, rho_prime, support_projector
from qavar import core, optimize
from qavar.core import (
    BLOCK_MIN_DIM, BoundWorkspace, JointProbe, ProductProbe, Scenario, joint_dim, qavar,
)
from qavar.hilbert import (
    SymmetricState, coherent_step_state, eigh, plus_step_state, product_pure,
)
from qavar.noise import NoiseParams, free_lo_avar
from qavar.optimize import (
    CERT_STEP,
    _amps_from_chart,
    _bounded_brent,
    _chart_from_amps,
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
    w0sq, W, u = ws.noise.omega0**2, ws._blocks(()).block(0), ws.u
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

    def test_workspace_keeps_no_d2_array(self):
        # D = 243: after an SLD evaluation and cost_operator, no array the
        # workspace holds (its attributes and its groups' bookkeeping) has
        # D^2 entries; W is built per call, off the difference table
        ws = BoundWorkspace(PAR, 2, 3, 0.7)
        v = product_pure(plus_step_state(2), ws.n_steps)
        cost_operator(ws.evaluate(v, want_sld=True).sld, ws)
        held, todo, seen = [], [ws], set()
        while todo:
            obj = todo.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if isinstance(obj, np.ndarray):
                held.append(obj.size)
            elif isinstance(obj, dict):
                todo += obj.values()
            elif isinstance(obj, (list, tuple)):
                todo += obj
            elif hasattr(obj, "__dict__"):
                todo += vars(obj).values()
        assert len(ws._groups) == 1 and len(held) > 10
        assert max(held) < ws.dim**2

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


def flip_isometries(ws):
    """Q_+ (D, (D+1)//2) and Q_- (D, D//2): the {1, F} orbit bases, |r> +- |Fr> over sqrt(2)."""
    flip = ws._gens["F"]
    Q = []
    for sign, n in ((1.0, (ws.dim + 1) // 2), (-1.0, ws.dim // 2)):
        Qi = np.zeros((ws.dim, n))
        r = np.arange(n)
        Qi[r, r] = np.where(flip[r] == r, 1.0, 2**-0.5)
        Qi[flip[r[flip[r] != r]], r[flip[r] != r]] = sign * 2**-0.5
        Q.append(Qi)
    return Q


def flip_sld(ws, K_eo):
    """K (L = iK) from its one block between the {1, F} orbit bases: Q_+ K_eo Q_-^T - (.)^T."""
    Q_even, Q_odd = flip_isometries(ws)
    part = Q_even @ K_eo @ Q_odd.T
    return part - part.T


class TestFlipSweep:
    @pytest.mark.parametrize("n_atoms, k, T", [(4, 2, 0.7), (2, 3, 2.15 / 3)])
    def test_sld_block_is_the_sld_in_the_flip_bases(self, n_atoms, k, T):
        # D = 125 and 243: |+>'s SLD block from the two {1, F} blocks, lifted
        # through Q_+-, is the trivial group's L within 1e-12 in the Frobenius
        # norm (the SLD's roundoff is eps times rho_bar's condition number,
        # 1e4 here) and passes check 3's residual gate
        sc = plus_scenario(n_atoms=n_atoms, k=k, T=T)
        ws = BoundWorkspace(PAR, n_atoms, k, T)
        x = np.abs(sc.joint_input())
        total, (K_eo,) = ws._blocks(("F",)).pair_sum(x, want_sld=True)
        full_total, (K_full,) = ws._blocks(()).pair_sum(x, want_sld=True)
        assert total == pytest.approx(full_total, rel=1e-13)
        K = flip_sld(ws, K_eo)
        assert np.linalg.norm(K - K_full) <= 1e-12 * np.linalg.norm(K_full)
        rb = rho_bar(sc)
        rp = rho_prime(sc, rb)
        P = support_projector(rb)
        L = 1j * K
        resid = P @ (rp - 0.5 * (rb @ L + L @ rb)) @ P
        assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(rp)

    @pytest.mark.parametrize("n_atoms, k, T", [(4, 2, 0.7), (2, 3, 2.15 / 3), (1, 4, 0.5)])
    def test_blocks_are_the_cost_operator_in_the_flip_bases(self, n_atoms, k, T):
        # D = 125, 243 (a fixed point) and 128 (none): the blocked A_L of
        # |+>'s SLD block is Q_i^T A_L Q_i of cost_operator on the lifted L
        ws = BoundWorkspace(PAR, n_atoms, k, T)
        x = np.abs(product_pure(plus_step_state(n_atoms), ws.n_steps))
        group = ws._blocks(("F",))
        _, (K_eo,) = group.pair_sum(x, want_sld=True)
        A = cost_operator(1j * flip_sld(ws, K_eo), ws)
        blocks = core._cost_blocks(K_eo, group, PAR.omega0)
        for Ai, Qi in zip(blocks, flip_isometries(ws)):
            assert np.array_equal(Ai, Ai.T)  # eigh takes it as it is
            assert np.abs(Ai - Qi.T @ A @ Qi).max() <= 1e-13 * np.abs(A).max()

    @pytest.mark.parametrize("n_atoms, k", [(2, 2), (1, 3)])
    @pytest.mark.parametrize("lower", ["even", "odd"])
    def test_ground_state_is_the_lower_block_lifted_exactly(self, n_atoms, k, lower):
        # D = 27 (a fixed point) and 32 (none), with random symmetric blocks
        # shifted so the named one holds the lowest eigenvalue: the lift is
        # unit, exactly F-symmetric (even) or F-antisymmetric (odd), and the
        # lowest eigenvector of the whole A = sum_i Q_i A_i Q_i^T
        ws = BoundWorkspace(PAR, n_atoms, k, 0.7)
        group = ws._blocks(("F",))
        rng = np.random.default_rng(6)
        blocks = []
        for i, idx in enumerate(group.index):
            m = rng.normal(size=(idx.size, idx.size))
            shift = 0.0 if ("even", "odd")[i] == lower else 20.0
            blocks.append(m + m.T + shift * np.eye(idx.size))
        psi = core._ground_state(blocks, group)
        sign = 1.0 if lower == "even" else -1.0
        assert np.array_equal(psi[::-1], sign * psi)
        assert np.linalg.norm(psi) == pytest.approx(1.0, rel=1e-14)
        A = sum(Q @ Ai @ Q.T for Q, Ai in zip(flip_isometries(ws), blocks))
        _, V = np.linalg.eigh(A)
        assert abs(psi @ V[:, 0]) == pytest.approx(1.0, rel=1e-12)

    def test_trivial_group_is_the_one_block_case(self):
        # cost_operator is _cost_blocks' trivial case, and the trivial
        # group's _ground_state is eigh(A, lowest=1)'s vector, bit for bit
        ws = BoundWorkspace(PAR, 2, 2, 0.7)
        L = random_sld(ws.dim, 3)
        group = ws._blocks(())
        A = cost_operator(L, ws)
        assert np.array_equal(A, core._cost_blocks(L.imag, group, PAR.omega0)[0])
        _, V = eigh(A, lowest=1)
        assert np.array_equal(core._ground_state([A], group), V[:, 0])

    def test_sweep_runs_only_on_f_exact_inputs_at_the_floor(self, monkeypatch):
        # D = 243, |+> with random signs (F-exact in magnitude only):
        # flip_sweep gives evaluate's bound without the SLD, and its step is
        # the full sweep's ground state up to a global sign, with v's signs
        # (A_L(z x) = Z A_L(x) Z).  An input off F symmetry by one ulp, or the
        # same v below the floor, gets None
        sc = plus_scenario(n_atoms=2, k=3, T=0.7)
        ws = BoundWorkspace(PAR, 2, 3, 0.7)
        signs = np.random.default_rng(4).choice([-1.0, 1.0], size=ws.dim)
        v = signs * np.abs(sc.joint_input())
        res, step = ws.flip_sweep(v)
        full, full_step = optimize._full_sweep(ws, v)
        assert res.sld is None
        assert res.sigma2_q == pytest.approx(full.sigma2_q, rel=1e-13)
        psi, psi_full = step(), full_step()
        x = np.abs(psi)
        assert np.array_equal(x[ws._gens["F"]], x)
        assert abs(psi @ psi_full) == pytest.approx(1.0, rel=1e-12)
        w = np.abs(v)
        w[0] = np.nextafter(w[0], 1.0)
        assert ws.flip_sweep(w) is None
        monkeypatch.setattr(core, "BLOCK_MIN_DIM", ws.dim + 1)
        assert ws.flip_sweep(v) is None


def spy_eigensolve_sizes(monkeypatch):
    """Record the size of every `hilbert.eigh` call, all of which core makes."""
    sizes = []

    def recording_eigh(a, *args, _solve=core.eigh, **kwargs):
        sizes.append(a.shape[0])
        return _solve(a, *args, **kwargs)

    monkeypatch.setattr(core, "eigh", recording_eigh)
    return sizes


class TestSeeSaw:
    def test_history_non_increasing(self):
        rep = optimize_joint_state(plus_scenario(k=2, T=0.5), seed=0)
        h = np.asarray(rep.history)
        slack = 1e-10 * max(free_lo_avar(PAR, 1.0), 0.0)
        assert np.all(np.diff(h) <= slack)
        assert rep.converged

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

    def test_cap_stops_at_the_last_evaluation(self, monkeypatch):
        # a run the sweep cap stops reports the state it last evaluated
        monkeypatch.setattr(optimize, "SEESAW_MAX_ITER", 3)
        sc = plus_scenario(n_atoms=2, k=2, T=1.0)
        rep = optimize_joint_state(sc)
        assert not rep.converged and rep.n_evals == 3
        re_eval = qavar(Scenario(noise=PAR, n_atoms=2, k=2, T=1.0,
                                 probe=JointProbe(vector=rep.state)))
        assert re_eval.sigma2_q == pytest.approx(rep.sigma2_q, rel=1e-12)

    @pytest.mark.parametrize("n_atoms, k, tau, start", [
        (2, 3, 2.15, "plus"), (2, 3, 2.15, "twisted"), (2, 3, 1.5, "plus"), (1, 4, 2.0, "plus"),
    ])
    def test_flip_blocks_run_the_same_see_saw(self, monkeypatch, n_atoms, k, tau, start):
        # from an F-symmetric start (the twisted |+> to roundoff) every
        # sweep runs in the two {1, F} blocks; the full (D, D) see-saw,
        # forced by raising the floor, takes as many sweeps to the same history
        state = (plus_step_state(n_atoms) if start == "plus"
                 else coherent_step_state(n_atoms, np.pi / 2, np.pi / 3))
        sc = Scenario(noise=PAR, n_atoms=n_atoms, k=k, T=tau / k, probe=ProductProbe(state))
        sizes = spy_eigensolve_sizes(monkeypatch)
        blocks = optimize_joint_state(sc)
        halves = {(sc.dim + 1) // 2, sc.dim // 2}
        assert sizes and set(sizes) == halves
        sizes.clear()
        monkeypatch.setattr(core, "BLOCK_MIN_DIM", sc.dim + 1)
        full = optimize_joint_state(sc)
        assert set(sizes) == {sc.dim}
        assert blocks.n_evals == full.n_evals
        s2lo = free_lo_avar(PAR, sc.tau)
        assert np.abs(np.subtract(blocks.history, full.history)).max() <= 1e-12 * s2lo
        x = np.abs(blocks.state)
        if start == "plus":
            assert np.array_equal(x, x[::-1])
        else:  # |gauge| is 1 only to roundoff
            assert np.abs(x - x[::-1]).max() <= 4 * np.finfo(float).eps * x.max()

    def test_start_rule_counts_the_step_states_rounding(self, monkeypatch):
        # N = 8, k = 2 (D = 729): the twisted |+> is F-symmetric only to a
        # few ulp, more than K eps max x but within (N + 1) K eps max x, so
        # every solve is half-size; the full see-saw, forced by raising the
        # floor, gives the same history
        monkeypatch.setattr(optimize, "SEESAW_MAX_ITER", 2)
        sc = Scenario(noise=PAR, n_atoms=8, k=2, T=1.0,
                      probe=ProductProbe(coherent_step_state(8, np.pi / 2, np.pi / 3)))
        x = np.abs(sc.joint_input())
        assert np.abs(x - x[::-1]).max() > sc.n_steps * np.finfo(float).eps * x.max()
        sizes = spy_eigensolve_sizes(monkeypatch)
        blocks = optimize_joint_state(sc)
        assert sizes and set(sizes) == {(sc.dim + 1) // 2, sc.dim // 2}
        sizes.clear()
        monkeypatch.setattr(core, "BLOCK_MIN_DIM", sc.dim + 1)
        full = optimize_joint_state(sc)
        assert set(sizes) == {sc.dim}
        assert blocks.n_evals == full.n_evals == 2
        s2lo = free_lo_avar(PAR, sc.tau)
        assert np.abs(np.subtract(blocks.history, full.history)).max() <= 1e-12 * s2lo

    @pytest.mark.parametrize("n_atoms, k", [(2, 2), (1, 3), (3, 2)])
    def test_start_kept_below_the_floor(self, monkeypatch, n_atoms, k):
        # D = 27, 32, 64: below BLOCK_MIN_DIM every sweep takes the trivial
        # path, so a start F-symmetric only to roundoff (the twisted |+>,
        # 1.4-1.8 ulp off) is not averaged: the first sweep's sigma2_q is
        # qavar's of the start, bit for bit
        monkeypatch.setattr(optimize, "SEESAW_MAX_ITER", 1)
        sc = Scenario(noise=PAR, n_atoms=n_atoms, k=k, T=0.7,
                      probe=ProductProbe(coherent_step_state(n_atoms, np.pi / 2, np.pi / 3)))
        assert optimize_joint_state(sc).history == [qavar(sc).sigma2_q]

    @pytest.mark.parametrize("start", ["random", "perturbed"])
    def test_asymmetric_start_keeps_the_full_see_saw(self, monkeypatch, start):
        # a random real joint vector at D = 243, and |+> plus an F-odd 1e-9
        # perturbation (far above the start rule's roundoff): every sweep
        # takes the (D, D) solves
        monkeypatch.setattr(optimize, "SEESAW_MAX_ITER", 3)
        sc = plus_scenario(n_atoms=2, k=3, T=0.7)
        if start == "random":
            v = np.random.default_rng(8).standard_normal(sc.dim)
        else:
            e = np.zeros(sc.dim)
            e[0], e[-1] = 1e-9, -1e-9
            v = sc.joint_input() + e
        sc = dataclasses.replace(sc, probe=JointProbe(vector=v / np.linalg.norm(v)))
        sizes = spy_eigensolve_sizes(monkeypatch)
        rep = optimize_joint_state(sc)
        assert rep.n_evals == 3
        assert sizes == [sc.dim] * 5  # three evaluations, two cost operators

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

    def test_coherent_subset_of_symmetric(self):
        # |+>, the best spin-coherent probe, is a point of the flip-symmetric search
        sc = plus_scenario(n_atoms=2, k=1, T=1.0)
        assert optimize_product_state(sc).sigma2_q <= qavar(sc).sigma2_q * (1 + 1e-9)

    def test_maxfev_bounds_the_evaluations(self):
        # the Brent run checks the cap before each evaluation, so it makes
        # exactly 7; the certificate adds its one point at N = 2
        sc = plus_scenario(n_atoms=2, k=2, T=0.5)
        rep = optimize_product_state(sc, maxfev=7)
        assert np.isfinite(rep.sigma2_q)
        assert rep.n_evals == 7 + 1
        assert not rep.converged

    def test_converged_is_false_when_maxfev_stops_a_run(self):
        sc = plus_scenario(n_atoms=2, k=2, T=0.5)
        assert optimize_product_state(sc).converged
        assert not optimize_product_state(sc, maxfev=5).converged

    def test_no_angle_no_run_and_maxfev_caps_nothing(self, monkeypatch):
        # N = 1 has no free angle: one evaluation of |+>, then the certificate
        monkeypatch.setattr(scipy.optimize, "minimize", lambda *a, **kw: pytest.fail("ran"))
        monkeypatch.setattr(optimize, "_bounded_brent", lambda *a, **kw: pytest.fail("ran"))
        sc = plus_scenario(n_atoms=1, k=2, T=0.5)
        for maxfev in (None, 1):
            rep = optimize_product_state(sc, maxfev=maxfev)
            assert rep.converged
            assert rep.n_evals == 2
            assert rep.sigma2_q == qavar(sc).sigma2_q
            assert np.array_equal(rep.state, plus_step_state(1).amplitudes)

    @pytest.mark.parametrize("n_atoms", [1, 2])
    @pytest.mark.parametrize("maxfev", [0, -1])
    def test_maxfev_below_one_is_rejected_before_any_evaluation(self, monkeypatch, n_atoms, maxfev):
        calls = []
        monkeypatch.setattr(BoundWorkspace, "evaluate", lambda *a, **kw: calls.append(a))
        with pytest.raises(ValueError, match="maxfev must be >= 1"):
            optimize_product_state(plus_scenario(n_atoms=n_atoms, k=2, T=0.5), maxfev=maxfev)
        assert calls == []

    @pytest.mark.parametrize("maxfev", [None, 5])
    def test_one_nelder_mead_run_per_search(self, monkeypatch, maxfev):
        # two angles (N = 4, D = 125 at k = 2): Nelder-Mead
        runs = []

        def counted(*args, **kwargs):
            runs.append(minimize(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(scipy.optimize, "minimize", counted)
        monkeypatch.setattr(optimize, "_bounded_brent", lambda *a, **kw: pytest.fail("ran"))
        rep = optimize_product_state(plus_scenario(n_atoms=4, k=2, T=0.5), maxfev=maxfev)
        assert len(runs) == 1
        assert runs[0].x.shape == (2,)  # N//2 angles
        assert rep.converged == bool(runs[0].success)
        assert rep.n_evals == runs[0].nfev + 2  # two certificate points at N = 4

    @pytest.mark.parametrize("n_atoms", [2, 3])
    @pytest.mark.parametrize("maxfev", [None, 5])
    def test_one_bounded_brent_run_per_search(self, monkeypatch, n_atoms, maxfev):
        # one angle (N = 2, 3): one bounded run over [0, pi/2], no Nelder-Mead
        runs, evals = [], []

        def counted(f, a, b, xatol, cap):
            runs.append(((a, b), cap, _bounded_brent(lambda x: evals.append(x) or f(x),
                                                     a, b, xatol, cap)))
            return runs[-1][2]

        monkeypatch.setattr(optimize, "_bounded_brent", counted)
        monkeypatch.setattr(scipy.optimize, "minimize", lambda *a, **kw: pytest.fail("ran"))
        rep = optimize_product_state(plus_scenario(n_atoms=n_atoms, k=2, T=0.5), maxfev=maxfev)
        assert len(runs) == 1
        bounds, cap, success = runs[0]
        assert bounds == (0.0, np.pi / 2)
        assert cap == (maxfev or 500)
        assert rep.converged == success == (maxfev is None)
        assert rep.n_evals == len(evals) + (n_atoms + 1) // 2

    @pytest.mark.parametrize("n_atoms", [2, 3])
    @pytest.mark.parametrize("maxfev", [1, 2, 5])
    def test_maxfev_caps_the_one_angle_search(self, monkeypatch, n_atoms, maxfev):
        # at most maxfev search points, and they are the first maxfev of the
        # uncapped run's (maxfev = 1 included, where scipy's run makes two)
        evaluate, seen = BoundWorkspace.evaluate, []

        def spy(ws, v, want_sld=False):
            seen.append(v)
            return evaluate(ws, v, want_sld)

        monkeypatch.setattr(BoundWorkspace, "evaluate", spy)
        sc = plus_scenario(n_atoms=n_atoms, k=2, T=0.5)
        full = optimize_product_state(sc)
        uncapped, seen[:] = list(seen), []
        rep = optimize_product_state(sc, maxfev=maxfev)
        n_cert = (n_atoms + 1) // 2
        assert full.converged
        assert full.n_evals > maxfev + n_cert
        assert rep.n_evals == maxfev + n_cert
        assert not rep.converged
        assert len(seen) == rep.n_evals
        for got, want in zip(seen[:maxfev], uncapped[:maxfev], strict=True):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n_atoms, k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
    @pytest.mark.parametrize("tau", [0.5, 2.0, 5.0])
    def test_one_angle_search_reaches_the_grid_minimum(self, n_atoms, k, tau):
        # a 121-point grid over the one angle never beats the search
        sc = plus_scenario(n_atoms=n_atoms, k=k, T=tau / k)
        ws = BoundWorkspace(PAR, n_atoms, k, tau / k)
        grid = min(
            ws.evaluate(product_pure(SymmetricState(n_atoms, _amps_from_chart(np.array([x]),
                                                                              n_atoms)),
                                     ws.n_steps)).sigma2_q
            for x in np.linspace(0.0, np.pi / 2, 121))
        rep = optimize_product_state(sc)
        assert rep.converged
        assert rep.sigma2_q <= grid * (1 + 1e-12)

    @pytest.mark.parametrize("n_atoms", range(1, 8))
    def test_mirrored_chart(self, n_atoms):
        x = np.random.default_rng(n_atoms).uniform(0.0, np.pi / 2, n_atoms // 2)
        amps = _amps_from_chart(x, n_atoms)
        assert np.array_equal(amps, amps[::-1])
        assert np.linalg.norm(amps) == pytest.approx(1.0, rel=1e-15)
        assert np.allclose(_chart_from_amps(amps, n_atoms), x, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_atoms, k, maxfev", [(2, 3, 5), (4, 2, 8)])
    def test_search_points_take_four_blocks_and_certificate_points_two(
            self, monkeypatch, n_atoms, k, maxfev):
        calls, per_eval = [], []
        eigh, evaluate = core.eigh, BoundWorkspace.evaluate

        def counted_eigh(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        def spy(ws, v, want_sld=False):
            before = len(calls)
            result = evaluate(ws, v, want_sld)
            per_eval.append(len(calls) - before)
            return result

        monkeypatch.setattr(core, "eigh", counted_eigh)
        monkeypatch.setattr(BoundWorkspace, "evaluate", spy)
        sc = plus_scenario(n_atoms=n_atoms, k=k, T=2.0 / k)
        assert sc.dim >= BLOCK_MIN_DIM
        rep = optimize_product_state(sc, maxfev=maxfev)
        n_cert = (n_atoms + 1) // 2
        assert per_eval == [4] * (rep.n_evals - n_cert) + [2] * n_cert
        assert rep.n_evals == maxfev + n_cert

    def test_certificate_reports_a_lower_point_off_the_flip_symmetric_set(self, monkeypatch):
        # an evaluate that lowers sigma2_q wherever |v| is not spin-flip symmetric
        evaluate, lowered = BoundWorkspace.evaluate, []

        def tilted(ws, v, want_sld=False):
            result = evaluate(ws, v, want_sld)
            x = np.abs(v)
            if np.array_equal(x, x[::-1]):  # the flip maps index a to D - 1 - a
                return result
            lowered.append(result.sigma2_q * (1.0 - 1e-3))
            return dataclasses.replace(result, sigma2_q=lowered[-1])

        monkeypatch.setattr(BoundWorkspace, "evaluate", tilted)
        sc = plus_scenario(n_atoms=2, k=2, T=1.0)
        rep = optimize_product_state(sc)
        assert len(lowered) == 1
        assert not rep.converged
        assert rep.sigma2_q == lowered[0] == rep.history[-1] < rep.history[-2]
        # the certificate point: a* + h (e_0 - e_2)
        mags = np.abs(rep.state)
        assert abs(mags[0] - mags[2]) == pytest.approx(2.0 * CERT_STEP, rel=1e-3)

    def test_symmetric_search_starts_from_the_probe(self, monkeypatch):
        # two angles (N = 4): the start is the probe's flip-averaged
        # magnitudes, renormalized
        starts = []
        monkeypatch.setattr(scipy.optimize, "minimize",
                            lambda f, x0, **kw: starts.append(x0) or minimize(f, x0, **kw))
        warm = SymmetricState(4, np.array([0.6, 0.0, 0.0, 0.0, 0.8], dtype=complex))
        for probe, want in ((warm, np.array([1.0, 0.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)),
                            (plus_step_state(4), plus_step_state(4).amplitudes)):
            optimize_product_state(Scenario(noise=PAR, n_atoms=4, k=1, T=1.0,
                                            probe=ProductProbe(probe)), maxfev=5)
            assert np.allclose(_amps_from_chart(starts[-1], 4), want, atol=1e-12)
        optimize_product_state(Scenario(noise=PAR, n_atoms=4, k=1, T=1.0,
                                        probe=JointProbe(vector=np.eye(5)[0])), maxfev=5)
        assert np.allclose(_amps_from_chart(starts[-1], 4), plus_step_state(4).amplitudes,
                           atol=1e-12)

    @pytest.mark.parametrize("n_atoms", [2, 3])
    def test_one_angle_search_ignores_the_probe(self, n_atoms):
        amps = np.zeros(n_atoms + 1, dtype=complex)
        amps[[0, -1]] = 0.6, 0.8
        reports = [
            optimize_product_state(Scenario(noise=PAR, n_atoms=n_atoms, k=2, T=0.5,
                                            probe=probe))
            for probe in (ProductProbe(plus_step_state(n_atoms)),
                          ProductProbe(SymmetricState(n_atoms, amps)),
                          JointProbe(vector=np.eye((n_atoms + 1) ** 3)[0]))]
        for rep in reports[1:]:
            assert rep.history == reports[0].history
            assert np.array_equal(rep.state, reports[0].state)

    def test_unknown_family_rejected(self):
        # one family, so not even the old default is a keyword
        with pytest.raises(TypeError, match="family"):
            optimize_product_state(plus_scenario(), family="symmetric")


def chart_objective(n_atoms=2, k=2, T=0.5):
    """The product search's one-angle objective at a real layout, scaled as it scales it."""
    ws = BoundWorkspace(PAR, n_atoms, k, T)

    def f(x):
        state = SymmetricState(n_atoms, _amps_from_chart(np.atleast_1d(x), n_atoms))
        return ws.evaluate(product_pure(state, ws.n_steps)).sigma2_q * PAR.omega0**2 * k * T
    return f


def nan_at(calls):
    """(x - 0.7)^2, but NaN at each call number in `calls` (counted from 1)."""
    count = [0]

    def f(x):
        count[0] += 1
        return np.nan if count[0] in calls else (x - 0.7) ** 2
    return f


BRENT_OBJECTIVES = {
    "interior": lambda: lambda x: (x - 0.7) ** 2,
    "lower_bound": lambda: lambda x: x,
    "upper_bound": lambda: lambda x: -x,
    "constant": lambda: lambda x: 1.0,
    "kink_at_midpoint": lambda: lambda x: abs(x - np.pi / 4),  # ties reach the rarer point updates
    "nan_at_third_call": lambda: nan_at({3}),
    "nan_from_third_call": lambda: nan_at(range(3, 10**6)),
    "chart_n2_k2": chart_objective,
}


def recorded(f):
    xs = []
    return (lambda x: xs.append(x) or f(x)), xs


class TestBoundedBrent:
    """`_bounded_brent` against scipy's bounded `minimize_scalar` on [0, pi/2]."""

    @pytest.mark.parametrize("name", BRENT_OBJECTIVES)
    @pytest.mark.parametrize("maxfev", [2, 5, 500])
    def test_same_points_bit_for_bit_as_scipy(self, name, maxfev):
        ours, ours_x = recorded(BRENT_OBJECTIVES[name]())
        theirs, theirs_x = recorded(BRENT_OBJECTIVES[name]())
        success = _bounded_brent(ours, 0.0, np.pi / 2, 1e-6, maxfev)
        res = minimize_scalar(theirs, bounds=(0.0, np.pi / 2), method="bounded",
                              options=dict(xatol=1e-6, maxiter=maxfev))
        assert np.asarray(ours_x, dtype=float).tobytes() == \
            np.asarray(theirs_x, dtype=float).tobytes()
        assert success == bool(res.success)
        assert len(ours_x) == res.nfev

    @pytest.mark.parametrize("name", BRENT_OBJECTIVES)
    def test_a_cap_of_one_makes_one_evaluation(self, name):
        # scipy checks its cap after each step's evaluation, so it makes two
        ours, ours_x = recorded(BRENT_OBJECTIVES[name]())
        theirs, theirs_x = recorded(BRENT_OBJECTIVES[name]())
        assert not _bounded_brent(ours, 0.0, np.pi / 2, 1e-6, 1)
        res = minimize_scalar(theirs, bounds=(0.0, np.pi / 2), method="bounded",
                              options=dict(xatol=1e-6, maxiter=1))
        assert not res.success and res.nfev == len(theirs_x) == 2
        assert ours_x == theirs_x[:1]


def full_chart(x, n_atoms):
    """Hyperspherical chart: N angles -> N+1 real unit amplitudes, no symmetry imposed."""
    amps = np.empty(n_atoms + 1)
    rolling = 1.0
    for j in range(n_atoms):
        amps[j] = rolling * np.cos(x[j])
        rolling = rolling * np.sin(x[j])
    amps[n_atoms] = rolling
    return amps


def multistart_reference(scenario, optimum, n_starts=8, seed=0):
    """Best sigma2_q of n_starts Nelder-Mead runs from random chart points.

    The product search once ran this way, over every real step state (N
    angles) or every polar angle.  The "symmetric" optimum must not do worse
    than the first, and the "coherent" one, |+>, than the second.
    """
    N = scenario.n_atoms
    ws = BoundWorkspace(scenario.noise, N, scenario.k, scenario.T)
    if optimum == "coherent":
        chart, n_params = lambda x: coherent_step_state(N, float(x[0]), 0.0).amplitudes, 1
    else:
        chart, n_params = lambda x: full_chart(x, N), N
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


@pytest.mark.parametrize("optimum", ["symmetric", "coherent"])
@pytest.mark.parametrize("n_atoms, k", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2),
                                        (4, 1), (4, 2)])
@pytest.mark.parametrize("tau", [1.0, 3.0])
def test_one_run_matches_multistart_reference(optimum, n_atoms, k, tau):
    # "symmetric": the one search against every real step state; "coherent":
    # the fixed |+>, with no search at all, against every polar angle
    sc = plus_scenario(n_atoms=n_atoms, k=k, T=tau / k)
    if optimum == "symmetric":
        rep = optimize_product_state(sc)
        assert rep.converged
        s2q = rep.sigma2_q
    else:
        s2q = qavar(sc).sigma2_q
    assert s2q <= multistart_reference(sc, optimum) * (1 + 1e-9)


def test_plus_is_a_polar_minimum_at_check_5_layout():
    # N = 2, k = 4, tau = 2: tilting |+> off the equator raises the bound (the
    # spin flip maps the polar angle theta to pi - theta, so one side suffices)
    sc = plus_scenario(n_atoms=2, k=4, T=0.5)
    tilted = dataclasses.replace(
        sc, probe=ProductProbe(coherent_step_state(2, np.pi / 2 + CERT_STEP, 0.0)))
    assert qavar(tilted).sigma2_q > qavar(sc).sigma2_q


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
        assert [e.k for e in scan.evaluations] == [1, 2, 3]
        for e in scan.evaluations:
            assert e.T == pytest.approx(2.0 / e.k, rel=1e-12)
            assert joint_dim(1, e.k) == 2 ** (2 * e.k - 1)

    def test_optimized_beats_fixed_plus(self):
        fixed = bound_curve(PAR, 1, [1.0], 2, probe=plus_step_state(1))[0]
        opt = bound_curve(PAR, 1, [1.0], 2, probe="optimize-product")[0]
        assert opt.sigma2_q <= fixed.sigma2_q * (1 + 1e-10)
        best = min(opt.evaluations, key=lambda e: e.sigma2_q)
        assert best.report is not None

    def test_each_tau_starts_from_the_previous_optimum(self, monkeypatch):
        # two angles (N = 4) take warm starts
        starts = []
        monkeypatch.setattr(scipy.optimize, "minimize",
                            lambda f, x0, **kw: starts.append(x0) or minimize(f, x0, **kw))
        first, chained = bound_curve(PAR, 4, [1.5, 1.0], 2)
        alone = bound_curve(PAR, 4, [1.5], 2)[0]
        assert chained.sigma2_q <= alone.sigma2_q * (1 + 1e-9)
        # searches in call order: tau 1.0 at k = 1, 2, tau 1.5 at k = 1, 2, then
        # tau 1.5 alone at k = 1, 2; each k > 1 starts from the optimum at k - 1
        plus = plus_step_state(4).amplitudes
        want = [plus, first.evaluations[0].report.state,
                first.evaluations[first.k_opt - 1].report.state,
                chained.evaluations[0].report.state,
                plus, alone.evaluations[0].report.state]
        assert len(starts) == len(want)
        for x0, amps in zip(starts, want):
            assert np.allclose(_amps_from_chart(x0, 4), np.abs(amps), atol=1e-12)

    def test_one_angle_scan_is_its_taus_alone(self, monkeypatch):
        # no start at N = 2, so a chained scan equals each tau run alone, bit for bit
        monkeypatch.setattr(scipy.optimize, "minimize", lambda *a, **kw: pytest.fail("ran"))
        chained = bound_curve(PAR, 2, [1.5, 1.0], 2)
        for scan in chained:
            alone = bound_curve(PAR, 2, [scan.tau], 2)[0]
            assert scan.sigma2_q == alone.sigma2_q
            for ev, ev_alone in zip(scan.evaluations, alone.evaluations, strict=True):
                assert ev.report.history == ev_alone.report.history

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
        with pytest.raises(ValueError, match="family must be 'symmetric'"):
            bound_curve(PAR, 1, [1.0], 1, family="coherent")

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
        # only on the sorted grid are the last three points the plateau at tau >= 4
        s2 = [(0.7 if t >= 4.0 else 2.0) / (PAR.omega0**2 * t) for t in taus]
        fit = extrapolate_long_term(taus, s2, PAR.omega0, m=3)
        assert fit.flat and fit.c == pytest.approx(0.7, rel=1e-12)
        assert fit.spread == pytest.approx(0.0, abs=1e-12)

    def test_non_flat_tail_flagged(self):
        taus = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        s2 = 1.0 / (PAR.omega0**2 * np.sqrt(taus))  # not yet 1/tau
        fit = extrapolate_long_term(taus, s2, PAR.omega0, m=5)
        assert not fit.flat

    def test_short_grid_not_flat(self):
        taus = [1.0, 2.0]
        s2 = [0.5 / (PAR.omega0**2 * t) for t in taus]
        fit = extrapolate_long_term(taus, s2, PAR.omega0, m=5)
        # both points are on the plateau: only the grid's length fails the fit
        assert not fit.flat
        assert fit.c == pytest.approx(0.5, rel=1e-12)
        assert fit.spread == pytest.approx(0.0, abs=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            extrapolate_long_term([1.0, 2.0], [1.0], PAR.omega0)
        for m in (0, -1):
            with pytest.raises(ValueError, match="m must be >= 1"):
                extrapolate_long_term([1.0, 2.0, 4.0], [1.0, 0.5, 0.25], 1.0, m=m)
