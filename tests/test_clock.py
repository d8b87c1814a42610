"""Clock simulator and Allan estimators."""

import numpy as np
import pytest

from qavar.clock import (
    ServoConfig,
    SimConfig,
    avar_estimate,
    avar_series,
    bound_check,
    ensemble_avar,
    simulate_clock,
)
from qavar.core import ProductProbe, Scenario, qavar
from qavar.hilbert import ghz_step_state, plus_step_state
from qavar.noise import NoiseParams, free_lo_avar, kernel_set

PAR = NoiseParams(alpha=2.0, beta=0.4, gamma=0.5, omega0=3.25e15)
QUIET = NoiseParams(alpha=0.0, beta=0.0, gamma=0.5, omega0=3.25e15)


class TestAvarSeries:
    def test_constant_record_is_zero(self):
        est = avar_series(np.full(100, 3.7), T=0.5, k=4, omega0=2.0)
        assert est.avar == 0.0
        assert est.tau == 2.0

    def test_alternating_record_known_value(self):
        v = 1.5
        y = v * np.array([1.0, -1.0] * 8)
        est = avar_series(y, T=1.0, k=1, omega0=2.0)
        # adjacent diffs all +-2v: mean square 4 v^2, halved, / omega0^2
        assert est.avar == pytest.approx(2.0 * v**2 / 4.0, rel=1e-14)
        assert est.n_pairs == 15
        # averaging an odd signal over k=2 blocks kills it
        est2 = avar_series(y, T=1.0, k=2, omega0=2.0)
        assert est2.avar == pytest.approx(0.0, abs=1e-30)

    def test_overlapping_uses_more_pairs(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=256)
        plain = avar_series(y, 1.0, 8, 1.0)
        over = avar_series(y, 1.0, 8, 1.0, overlapping=True)
        assert over.n_pairs > plain.n_pairs
        assert over.n_pairs == 256 - 16 + 1
        assert plain.n_pairs == 256 // 8 - 1

    def test_estimators_agree_on_white_noise(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=200_000)
        a = avar_series(y, 1.0, 10, 1.0).avar
        b = avar_series(y, 1.0, 10, 1.0, overlapping=True).avar
        # same estimand; overlapping has lower variance
        assert a == pytest.approx(b, rel=0.1)
        assert a == pytest.approx(0.1, rel=0.1)  # Var/k for unit white

    def test_too_short_raises(self):
        with pytest.raises(ValueError, match="2k"):
            avar_series(np.ones(5), 1.0, 3, 1.0)
        with pytest.raises(ValueError):
            avar_series(np.ones(5), 1.0, 0, 1.0)


class TestSimulateClock:
    def test_deterministic(self):
        cfg = SimConfig(noise=PAR, n_atoms=2, T=0.5, n_steps=500)
        a = simulate_clock(cfg, seed=3)
        b = simulate_clock(cfg, seed=3)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.outcomes, b.outcomes)
        c = simulate_clock(cfg, seed=4)
        assert not np.array_equal(a.y, c.y)

    def test_shapes_and_outcome_range(self):
        cfg = SimConfig(noise=PAR, n_atoms=3, T=0.5, n_steps=200)
        tr = simulate_clock(cfg, seed=0)
        assert tr.y.shape == tr.corrections.shape == tr.outcomes.shape == (200,)
        assert tr.outcomes.min() >= 0 and tr.outcomes.max() <= 3
        assert tr.T == 0.5 and tr.omega0 == PAR.omega0

    def test_raw_phase_statistics_match_kernels(self):
        # theta_i = T*(y_i + corr_i) recovers the raw LO phases; their
        # stationary covariance must match the analytic block kernels
        cfg = SimConfig(noise=PAR, n_atoms=1, T=0.7, n_steps=200_000)
        tr = simulate_clock(cfg, seed=8)
        theta = (tr.y + tr.corrections) * cfg.T
        ks = kernel_set(PAR, 0.7, 1)
        assert np.var(theta) == pytest.approx(ks.G[0, 0], rel=0.03)
        lag1 = np.mean(theta[1:] * theta[:-1]) - theta.mean() ** 2
        g1 = PAR.alpha / PAR.gamma**2 * (1 - np.exp(-PAR.gamma * 0.7)) ** 2
        assert lag1 == pytest.approx(g1, rel=0.05)

    def test_zero_noise_servo_unbiased(self):
        cfg = SimConfig(noise=QUIET, n_atoms=4, T=1.0, n_steps=50_000,
                        servo=ServoConfig(estimator="arcsine"))
        tr = simulate_clock(cfg, seed=1)
        # only projection noise acts; the integrator must not drift
        se = tr.y.std() / np.sqrt(tr.y.size)
        assert abs(tr.y.mean()) < 6.0 * se + 1e-12
        assert np.abs(tr.corrections).max() < 5.0  # rad/s, stays bounded

    def test_linear_and_arcsine_both_run(self):
        for estimator in ("linear", "arcsine"):
            cfg = SimConfig(noise=PAR, n_atoms=2, T=0.5, n_steps=300,
                            servo=ServoConfig(estimator=estimator))
            tr = simulate_clock(cfg, seed=2)
            assert np.all(np.isfinite(tr.y))

    def test_servo_tracks_ou_noise(self):
        # with the servo on, long-term AVAR must sit far below free-running
        cfg = SimConfig(noise=PAR, n_atoms=2, T=0.5, n_steps=40_000)
        tr = simulate_clock(cfg, seed=5)
        k = 40  # tau = 20 s
        got = avar_estimate(tr, k, overlapping=True).avar
        free = float(free_lo_avar(PAR, 20.0))
        assert got < 0.5 * free

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServoConfig(gain=0.0)
        with pytest.raises(ValueError):
            ServoConfig(gain=2.5)
        with pytest.raises(ValueError, match="estimator"):
            ServoConfig(estimator="median")
        with pytest.raises(ValueError):
            SimConfig(noise=PAR, n_atoms=0, T=0.5, n_steps=10)
        with pytest.raises(ValueError):
            SimConfig(noise=PAR, n_atoms=1, T=0.5, n_steps=1)


class TestWhiteNoiseCalibration:
    def test_simulated_avar_matches_closed_form_over_decade(self):
        # free-running white LO: avar = beta/(omega0^2 tau)
        white = NoiseParams(alpha=0.0, beta=0.4, gamma=0.5, omega0=3.25e15)
        rng = np.random.default_rng(12)
        T = 0.5
        n = 400_000
        y = rng.normal(0.0, np.sqrt(white.beta / T), size=n)
        for k in (1, 2, 4, 10):
            est = avar_series(y, T, k, white.omega0, overlapping=True)
            want = white.beta / (white.omega0**2 * est.tau)
            assert est.avar == pytest.approx(want, rel=0.1), k


class TestEnsembleAvar:
    def test_matches_hand_rolled_loop_bit_for_bit(self):
        # the pattern acceptance check 7 writes out inline
        cfg = SimConfig(noise=PAR, n_atoms=2, T=0.5, n_steps=600,
                        servo=ServoConfig(gain=0.3))
        taus, n_runs = (0.5, 1.5, 1.0), 5
        seeds = np.random.SeedSequence(11).spawn(n_runs)
        traces = [simulate_clock(cfg, int(s.generate_state(1)[0])) for s in seeds]
        rows = ensemble_avar(cfg, taus, n_runs, seed=11)
        assert [(r.tau, r.k) for r in rows] == [(0.5, 1), (1.5, 3), (1.0, 2)]
        for row in rows:
            ests = [avar_estimate(tr, row.k, overlapping=True) for tr in traces]
            vals = np.array([e.avar for e in ests])
            assert row.avar == float(vals.mean())
            assert row.stderr == float(vals.std(ddof=1) / np.sqrt(n_runs))
            assert row.n_pairs == sum(e.n_pairs for e in ests) == n_runs * (600 - 2 * row.k + 1)

    def test_needs_two_runs(self):
        cfg = SimConfig(noise=PAR, n_atoms=1, T=0.5, n_steps=100)
        with pytest.raises(ValueError, match="n_runs"):
            ensemble_avar(cfg, [0.5], n_runs=1, seed=0)

    def test_non_commensurate_tau_rejected(self):
        cfg = SimConfig(noise=PAR, n_atoms=1, T=0.5, n_steps=100)
        with pytest.raises(ValueError, match="multiple"):
            ensemble_avar(cfg, [0.5, 0.7], n_runs=2, seed=0)

    def test_tau_longer_than_half_the_run_rejected_before_any_run(self, monkeypatch):
        calls = []
        monkeypatch.setattr("qavar.clock.simulate_clock", lambda *a: calls.append(a))
        cfg = SimConfig(noise=PAR, n_atoms=1, T=0.5, n_steps=100)
        with pytest.raises(ValueError, match="tau=30.0 needs 2k = 120 steps"):
            ensemble_avar(cfg, [0.5, 30.0], n_runs=2, seed=0)
        assert calls == []

    def test_no_tau_simulates_no_run(self, monkeypatch):
        calls = []
        monkeypatch.setattr("qavar.clock.simulate_clock", lambda *a: calls.append(a))
        cfg = SimConfig(noise=PAR, n_atoms=1, T=0.5, n_steps=100)
        assert ensemble_avar(cfg, [], n_runs=5, seed=1) == ()
        assert calls == []

    def test_tau_of_half_the_run_accepted(self):
        cfg = SimConfig(noise=PAR, n_atoms=1, T=0.5, n_steps=100)
        (row,) = ensemble_avar(cfg, [25.0], n_runs=2, seed=0)
        assert (row.k, row.n_pairs) == (50, 2)


class TestBoundCheck:
    def test_no_violation_in_small_config(self):
        cfg = SimConfig(noise=PAR, n_atoms=1, T=0.5, n_steps=3000)
        rows = bound_check(cfg, None, taus=[0.5, 1.0], n_runs=6, seed=0)
        assert isinstance(rows, tuple)
        assert not any(row.violation for row in rows)
        for row, est, k in zip(rows, ensemble_avar(cfg, [0.5, 1.0], 6, seed=0), (1, 2)):
            assert row.k == k
            assert (row.tau, row.avar, row.stderr) == (est.tau, est.avar, est.stderr)
            assert row.stderr > 0
            assert row.avar > row.sigma2_q  # servo noise sits above the bound

    def test_bound_values_match_qavar(self):
        cfg = SimConfig(noise=PAR, n_atoms=2, T=0.5, n_steps=500)
        (row,) = bound_check(cfg, ghz_step_state(2), taus=[1.0], n_runs=2, seed=1)
        scen = Scenario(noise=PAR, n_atoms=2, k=2, T=0.5,
                        probe=ProductProbe(ghz_step_state(2)))
        assert row.sigma2_q == pytest.approx(qavar(scen).sigma2_q, rel=1e-12)

    def test_non_commensurate_tau_rejected(self):
        cfg = SimConfig(noise=PAR, n_atoms=1, T=0.5, n_steps=100)
        with pytest.raises(ValueError, match="multiple"):
            bound_check(cfg, None, taus=[0.7], n_runs=2, seed=0)

    def test_dim_cap_enforced(self):
        cfg = SimConfig(noise=PAR, n_atoms=2, T=0.5, n_steps=100)
        with pytest.raises(ValueError, match="cap"):
            bound_check(cfg, None, taus=[2.0], n_runs=2, seed=0, dim_cap=100)

    def test_needs_two_runs(self):
        cfg = SimConfig(noise=PAR, n_atoms=1, T=0.5, n_steps=100)
        with pytest.raises(ValueError, match="n_runs"):
            bound_check(cfg, None, taus=[0.5], n_runs=1, seed=0)
