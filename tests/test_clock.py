"""Clock simulator and Allan estimators."""

import numpy as np
import pytest

from qavar.clock import (
    ServoConfig,
    SimConfig,
    avar_series,
    bound_check,
    ensemble_avar,
    simulate_clock,
)
from qavar.core import ProductProbe, Scenario, qavar
from qavar.hilbert import ghz_step_state, plus_step_state
from qavar.noise import NoiseParams, free_lo_avar, kernel_set, lo_phases

PAR = NoiseParams(alpha=2.0, beta=0.4, gamma=0.5, omega0=3.25e15)
QUIET = NoiseParams(alpha=0.0, beta=0.0, gamma=0.5, omega0=3.25e15)


def _non_overlapping_avar(y, k, omega0):
    """Reference estimator: disjoint k-step blocks, adjacent pairs only.

    Returns the Allan variance and the number of block pairs, n // k - 1.
    """
    blocks = y[: y.size // k * k].reshape(-1, k).mean(axis=1)
    return np.mean(np.diff(blocks) ** 2) / (2.0 * omega0**2), blocks.size - 1


class TestAvarSeries:
    def test_constant_record_is_zero(self):
        n, c, omega0 = 100, 3.7, 2.0
        est = avar_series(np.full(n, c), T=0.5, k=4, omega0=omega0)
        # the running-sum block means carry roundoff of order n eps |c|
        assert 0.0 <= est.avar <= (n * np.finfo(float).eps * c) ** 2 / (2.0 * omega0**2)
        assert est.tau == 2.0

    def test_alternating_record_known_value(self):
        v = 1.5
        y = v * np.array([1.0, -1.0] * 8)
        est = avar_series(y, T=1.0, k=1, omega0=2.0)
        # adjacent diffs all +-2v: mean square 4 v^2, halved, / omega0^2
        assert est.avar == pytest.approx(2.0 * v**2 / 4.0, rel=1e-14)
        assert est.n_pairs == 16 - 2 + 1
        # averaging an odd signal over k=2 blocks kills it; the window
        # slides by one step, so n samples give n - 2k + 1 pairs
        est2 = avar_series(y, T=1.0, k=2, omega0=2.0)
        assert est2.avar == pytest.approx(0.0, abs=1e-30)
        assert est2.n_pairs == 16 - 4 + 1

    def test_overlapping_uses_more_pairs(self):
        records = np.random.default_rng(0).normal(size=(200, 256))
        over = [avar_series(y, 1.0, 8, 1.0) for y in records]
        plain = [_non_overlapping_avar(y, 8, 1.0) for y in records]
        assert over[0].n_pairs == 256 - 16 + 1
        assert plain[0][1] == 256 // 8 - 1
        # the extra, overlapping pairs lower the scatter over realizations
        assert np.std([e.avar for e in over]) < 0.85 * np.std([a for a, _ in plain])

    def test_estimators_agree_on_white_noise(self):
        y = np.random.default_rng(1).normal(size=200_000)
        over = avar_series(y, 1.0, 10, 1.0).avar
        plain, _ = _non_overlapping_avar(y, 10, 1.0)
        # same estimand, Var/k for unit white noise
        assert over == pytest.approx(plain, rel=0.1)
        assert over == pytest.approx(0.1, rel=0.1)

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

    def test_phases_are_lo_phases_of_the_seed_stream(self):
        # the LO phases are the first draws of default_rng(seed); the
        # binomial outcomes follow on the same stream
        cfg = SimConfig(noise=PAR, n_atoms=2, T=0.5, n_steps=400)
        tr = simulate_clock(cfg, seed=6)
        want = lo_phases(PAR, cfg.T, cfg.n_steps, np.random.default_rng(6))
        np.testing.assert_allclose((tr.y + tr.corrections) * cfg.T, want, rtol=1e-12)

    @pytest.mark.parametrize("estimator", ["linear", "arcsine"])
    @pytest.mark.parametrize("n_atoms", [1, 2, 100])
    def test_outcomes_are_binomials_of_the_seed_stream(self, n_atoms, estimator):
        # replay default_rng(seed) step by step on numpy: lo_phases, then an
        # (n, N) block of uniforms; step i's outcome counts row i's entries
        # below (1 + sin(theta - c T)) / 2
        servo = ServoConfig(gain=0.7, estimator=estimator)
        cfg = SimConfig(noise=PAR, n_atoms=n_atoms, T=0.5, n_steps=2500, servo=servo)
        tr = simulate_clock(cfg, seed=9)
        rng = np.random.default_rng(9)
        theta = lo_phases(PAR, cfg.T, cfg.n_steps, rng)
        u = rng.random((cfg.n_steps, n_atoms))
        outcomes, corrections, corr = [], [], 0.0
        for th, row in zip(theta, u):
            m = np.count_nonzero(row < 0.5 * (1.0 + np.sin(th - corr * cfg.T)))
            est = 2.0 * m / n_atoms - 1.0
            if estimator == "arcsine":
                est = np.arcsin(est)
            outcomes.append(m)
            corrections.append(corr)
            corr += servo.gain / cfg.T * est
        assert np.array_equal(tr.outcomes, outcomes)
        assert np.array_equal(tr.corrections, corrections)
        assert np.array_equal(tr.y, theta / cfg.T - tr.corrections)

    @pytest.mark.parametrize("chunk", [7, 1024])
    def test_chunk_size_changes_no_output(self, monkeypatch, chunk):
        # 2500 steps span whole chunks and a partial last one at both sizes
        cfg = SimConfig(noise=PAR, n_atoms=3, T=0.5, n_steps=2500,
                        servo=ServoConfig(estimator="arcsine"))
        want = simulate_clock(cfg, seed=4)
        monkeypatch.setattr("qavar.noise._CHUNK", chunk)
        monkeypatch.setattr("qavar.clock._CHUNK", chunk)
        got = simulate_clock(cfg, seed=4)
        for name in ("y", "corrections", "outcomes"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    @pytest.mark.parametrize("cap", [299, 5 * 300])
    def test_uniform_cap_changes_no_output(self, monkeypatch, cap):
        # N = 300 draws 218 steps of uniforms at a time by default; a cap of
        # one row or of five rows must give the same trace
        cfg = SimConfig(noise=PAR, n_atoms=300, T=0.5, n_steps=500)
        want = simulate_clock(cfg, seed=6)
        monkeypatch.setattr("qavar.clock._UNIFORMS", cap)
        got = simulate_clock(cfg, seed=6)
        for name in ("y", "corrections", "outcomes"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    @pytest.mark.parametrize("n_atoms", [2, 100])
    def test_outcome_law_read_off_the_trace(self, n_atoms):
        # p_i from the trace alone, theta_i = (y_i + c_i) T; then
        # E m_i = N p_i and E (m_i - N p_i)^2 = N p_i (1 - p_i) given the past
        cfg = SimConfig(noise=PAR, n_atoms=n_atoms, T=0.5, n_steps=4000)
        tr = simulate_clock(cfg, seed=13)
        theta = (tr.y + tr.corrections) * cfg.T
        p = 0.5 * (1.0 + np.sin(theta - tr.corrections * cfg.T))
        dev = tr.outcomes - n_atoms * p
        var = n_atoms * p * (1.0 - p)
        # sum dev is a martingale with variance sum var; sum (dev^2 - var)
        # one with variance sum N p (1-p) (1 + (2N - 6) p (1-p)), the
        # binomial's fourth central moment minus var^2
        assert abs(dev.sum()) < 5.0 * np.sqrt(var.sum())
        fourth = var * (1.0 + (3 * n_atoms - 6) * p * (1.0 - p))
        assert abs((dev**2 - var).sum()) < 5.0 * np.sqrt((fourth - var**2).sum())

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
        got = avar_series(tr.y, tr.T, k, tr.omega0).avar
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

    @pytest.mark.parametrize("field, value", [
        ("n_atoms", 2.5), ("n_atoms", 2.0), ("n_atoms", True), ("n_atoms", np.float64(2.0)),
        ("n_steps", 10.5), ("n_steps", 10.0), ("n_steps", True), ("n_steps", "10"),
    ])
    def test_non_integral_counts_rejected(self, field, value):
        kwargs = dict(noise=PAR, n_atoms=2, T=0.5, n_steps=10)
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SimConfig(**{**kwargs, field: value})
        # numpy integers are integers
        cfg = SimConfig(**{**kwargs, field: np.int64(kwargs[field])})
        assert simulate_clock(cfg, seed=0).y.shape == (cfg.n_steps,)


    @pytest.mark.parametrize("value", [True, False, np.True_])
    def test_bool_gain_rejected(self, value):
        # gain=True would run the servo at gain 1
        with pytest.raises(ValueError, match="gain must be a number, got"):
            ServoConfig(gain=value)

    @pytest.mark.parametrize("value", [True, False, np.True_])
    def test_bool_T_rejected(self, value):
        with pytest.raises(ValueError, match="T must be a number, got"):
            SimConfig(noise=PAR, n_atoms=2, T=value, n_steps=10)


class TestWhiteNoiseCalibration:
    def test_simulated_avar_matches_closed_form_over_decade(self):
        # free-running white LO: avar = beta/(omega0^2 tau)
        white = NoiseParams(alpha=0.0, beta=0.4, gamma=0.5, omega0=3.25e15)
        rng = np.random.default_rng(12)
        T = 0.5
        n = 400_000
        y = rng.normal(0.0, np.sqrt(white.beta / T), size=n)
        for k in (1, 2, 4, 10):
            est = avar_series(y, T, k, white.omega0)
            # Var(y) / (k omega0^2) for white samples of variance beta / T
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
            ests = [avar_series(tr.y, tr.T, row.k, tr.omega0) for tr in traces]
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

    def test_needs_two_runs(self):
        cfg = SimConfig(noise=PAR, n_atoms=1, T=0.5, n_steps=100)
        with pytest.raises(ValueError, match="n_runs"):
            bound_check(cfg, None, taus=[0.5], n_runs=1, seed=0)

    def test_probe_of_wrong_size_rejected_before_any_run(self, monkeypatch):
        calls = []
        monkeypatch.setattr("qavar.clock.simulate_clock", lambda *a: calls.append(a))
        cfg = SimConfig(noise=PAR, n_atoms=2, T=0.5, n_steps=200)
        with pytest.raises(ValueError, match="probe has 3 atoms, n_atoms=2"):
            bound_check(cfg, ghz_step_state(3), taus=[0.5], n_runs=3, seed=0)
        assert calls == []
