"""Kernel and noise-model tests.

The frozen reference numbers were produced by an independent quadrature
oracle (scipy.integrate over the exponential autocorrelation, with the
integration domain split at the |t1 - t2| kink); the white-noise part is
added analytically.  See the quadrature helpers below, which are kept in
the test so the frozen values stay reproducible.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad

from mc_reference import sample_joint
from qavar import ProductProbe, Scenario, SimConfig, bound_curve, plus_step_state
from qavar.noise import (
    NoiseParams,
    _ou_step_moments,
    block_kernel,
    free_lo_avar,
    kernel_set,
    lo_phases,
)

PAR = NoiseParams(alpha=2.0, beta=0.4, gamma=0.5, omega0=3.25e15)


def quad_block_cov(params: NoiseParams, T: float, i: int, j: int) -> float:
    """Covariance of the phase accumulated over steps i and j, by quadrature.

    Splitting the inner range at t2 = t1 keeps dblquad's error estimate
    honest across the kink of exp(-gamma |t1 - t2|).
    """
    a, b = i * T, (i + 1) * T
    c, d = j * T, (j + 1) * T

    def f(t2, t1):
        return params.alpha * np.exp(-params.gamma * abs(t1 - t2))

    if i == j:
        lo, _ = dblquad(f, a, b, lambda t1: c, lambda t1: t1)
        hi, _ = dblquad(f, a, b, lambda t1: t1, lambda t1: d)
        ou = lo + hi
    else:
        ou, _ = dblquad(f, a, b, c, d)
    return ou + (params.beta * T if i == j else 0.0)


def quad_cross_kernel(params: NoiseParams, T: float, k: int, i: int) -> float:
    """H_i by quadrature: Cov(theta_i, w), w the 2k-block average difference.

    The probe stores only i = 1..2k-1 (the windows whose measurement can
    still feed back within (0, 2 tau)), but w itself runs over all 2k blocks.
    """
    tau = k * T
    total = 0.0
    for j in range(1, 2 * k + 1):
        sign = 1.0 if j > k else -1.0
        total += sign * quad_block_cov(params, T, i - 1, j - 1)
    return total / tau


class TestBlockKernel:
    def test_frozen_diagonal(self):
        # quadrature oracle, alpha=2 beta=0.4 gamma=0.5 T=1
        G = block_kernel(PAR, 1.0, 1)
        assert G[0, 0] == pytest.approx(2.104490555402134, rel=1e-13)

    def test_frozen_offdiagonal(self):
        G = block_kernel(PAR, 1.0, 3)
        assert G[0, 2] == pytest.approx(0.7512155001454289, rel=1e-13)

    def test_matches_quadrature(self):
        T, K = 0.7, 3
        G = block_kernel(PAR, T, K)
        for i in range(K):
            for j in range(K):
                assert G[i, j] == pytest.approx(
                    quad_block_cov(PAR, T, i, j), rel=1e-9
                ), (i, j)

    def test_white_only_diagonal(self):
        white = NoiseParams(alpha=0.0, beta=0.4, gamma=0.5, omega0=1.0)
        G = block_kernel(white, 2.0, 3)
        assert np.allclose(G, np.eye(3) * 0.8)

    def test_toeplitz_and_psd(self):
        G = block_kernel(PAR, 0.5, 6)
        assert np.allclose(G, G.T)
        for m in range(1, 6):
            col = np.diag(G, m)
            assert np.allclose(col, col[0])
        assert np.linalg.eigvalsh(G)[0] > 0

    def test_small_gamma_T_stable(self):
        # series branch of the kernel primitives
        stiff = NoiseParams(alpha=1.0, beta=0.0, gamma=1e-6, omega0=1.0)
        G = block_kernel(stiff, 1e-4, 2)
        # gamma*T -> 0 limit: Cov -> alpha * T^2 for all blocks
        assert G[0, 0] == pytest.approx(1e-8, rel=1e-6)
        assert G[0, 1] == pytest.approx(1e-8, rel=1e-4)


class TestCrossKernel:
    def test_length_is_2k_minus_1(self):
        for k in (1, 2, 5):
            assert kernel_set(PAR, 0.5, k).H.shape == (2 * k - 1,)

    def test_matches_quadrature(self):
        T, k = 0.8, 2
        H = kernel_set(PAR, T, k).H
        for i in range(1, 2 * k):
            assert H[i - 1] == pytest.approx(
                quad_cross_kernel(PAR, T, k, i), rel=1e-9, abs=1e-12
            ), i

    def test_white_only_examples(self):
        white = NoiseParams(alpha=0.0, beta=0.4, gamma=1.0, omega0=1.0)
        H1 = kernel_set(white, 1.0, 1).H
        assert np.allclose(H1, [-0.4])
        H2 = kernel_set(white, 1.0, 2).H
        assert np.allclose(H2, [-0.2, -0.2, 0.2])

    def test_inner_reflection_antisymmetry(self):
        # time reversal of the 2k-block layout flips w; the stored vector
        # drops window 2k, so the antisymmetry survives on entries 2..2k-1
        for k in (2, 3, 4):
            H = kernel_set(PAR, 0.6, k).H
            inner = H[1:]
            assert np.allclose(inner, -inner[::-1], atol=1e-18)

    def test_k1_identity_with_lo_avar(self):
        # Var(w) at k=1: w = (theta_2 - theta_1)/T, and H_1 = Cov(theta_1, w)
        for T in (0.3, 1.0, 2.5):
            H = kernel_set(PAR, T, 1).H
            lo = free_lo_avar(PAR, T)
            assert -H[0] == pytest.approx(lo * PAR.omega0**2 * T, rel=1e-12)


class TestFreeLoAvar:
    def test_white_only_closed_form(self):
        white = NoiseParams(alpha=0.0, beta=0.7, gamma=1.0, omega0=2.0)
        taus = np.array([0.5, 1.0, 4.0])
        assert np.allclose(free_lo_avar(white, taus), 0.7 / (4.0 * taus))

    def test_consistent_with_kernel_variance(self):
        # sigma2_lo must equal Var(w)/(2 omega0^2), with w built from the
        # full 2k-block phase covariance (the probe kernels store 2k-1)
        for T, k in ((0.5, 1), (0.5, 3), (1.2, 2), (0.7, 4)):
            ks = kernel_set(PAR, T, k)
            G_full = block_kernel(PAR, T, 2 * k)
            signs = np.r_[-np.ones(k), np.ones(k)] / (k * T)
            var_w = signs @ G_full @ signs
            assert 2.0 * PAR.omega0**2 * ks.sigma2_lo == pytest.approx(var_w, rel=1e-10)
            assert free_lo_avar(PAR, k * T) == pytest.approx(
                var_w / (2 * PAR.omega0**2), rel=1e-10
            )
            # H_i = Cov(theta_i, w) column consistency on the stored windows
            assert np.allclose(ks.H, (G_full @ signs)[: 2 * k - 1], rtol=1e-10)
            assert np.allclose(ks.G, G_full[: 2 * k - 1, : 2 * k - 1])

    def test_large_tau_tends_to_white_floor(self):
        tau = 1e4
        got = free_lo_avar(PAR, tau)
        want = (2 * PAR.alpha / PAR.gamma + PAR.beta) / (PAR.omega0**2 * tau)
        assert got == pytest.approx(want, rel=1e-3)

    def test_array_matches_scalar(self):
        taus = np.array([0.25, 1.0, 3.0])
        arr = free_lo_avar(PAR, taus)
        assert arr.shape == (3,)
        for t, v in zip(taus, arr):
            assert v == free_lo_avar(PAR, float(t))


@settings(max_examples=25, deadline=None)
@given(
    T=st.floats(0.05, 3.0),
    k=st.integers(1, 4),
    alpha=st.floats(0.0, 5.0),
    beta=st.floats(0.0, 2.0),
    gamma=st.floats(0.05, 4.0),
)
def test_joint_kernel_psd_property(T, k, alpha, beta, gamma):
    """The bordered covariance [[G, H], [H^T, Var(w)]] must stay PSD."""
    params = NoiseParams(alpha=alpha, beta=beta, gamma=gamma, omega0=1.0)
    ks = kernel_set(params, T, k)
    K = 2 * k - 1
    M = np.zeros((K + 1, K + 1))
    M[:K, :K] = ks.G
    M[:K, -1] = ks.H
    M[-1, :K] = ks.H
    M[-1, -1] = 2.0 * params.omega0**2 * ks.sigma2_lo
    evals = np.linalg.eigvalsh(M)
    assert evals[0] >= -1e-10 * max(evals[-1], 1.0)


class TestSampleJoint:
    def test_deterministic_given_seed(self):
        t1, w1 = sample_joint(PAR, 0.5, 2, 100, seed=9)
        t2, w2 = sample_joint(PAR, 0.5, 2, 100, seed=9)
        assert np.array_equal(t1, t2) and np.array_equal(w1, w2)

    def test_shapes(self):
        theta, w = sample_joint(PAR, 0.5, 3, 50, seed=0)
        assert theta.shape == (50, 5) and w.shape == (50,)

    def test_empirical_covariance(self):
        n = 200_000
        T, k = 0.8, 2
        theta, w = sample_joint(PAR, T, k, n, seed=3)
        ks = kernel_set(PAR, T, k)
        K = 2 * k - 1
        emp_G = np.cov(theta.T)
        emp_H = np.array([np.cov(theta[:, i], w)[0, 1] for i in range(K)])
        # 5 sigma with SE ~ sqrt(2/n) * scale
        se = 5 * np.sqrt(2.0 / n)
        w_var = 2.0 * PAR.omega0**2 * ks.sigma2_lo
        assert np.all(np.abs(emp_G - ks.G) < se * (np.abs(ks.G) + ks.G.max()))
        assert np.all(np.abs(emp_H - ks.H) < se * (np.abs(ks.H).max() + np.sqrt(w_var * ks.G.max())))
        assert np.var(w) == pytest.approx(w_var, rel=0.05)


class TestLoPhases:
    def test_white_only_is_the_white_draw(self):
        # at alpha = 0 the OU part is zero and draws nothing: theta is the
        # white column of the same n x 3 draw, and the stream ends there
        white = NoiseParams(alpha=0.0, beta=0.4, gamma=0.5, omega0=3.25e15)
        rng, ref = np.random.default_rng(12), np.random.default_rng(12)
        theta = lo_phases(white, 0.5, 1000, rng)
        z = ref.standard_normal((1000, 3))
        assert theta.tobytes() == (np.sqrt(0.4 * 0.5) * z[:, 2]).tobytes()
        assert rng.standard_normal() == ref.standard_normal()

    @pytest.mark.parametrize("params", [PAR, replace(PAR, alpha=50.0, beta=0.0, gamma=3.0)])
    def test_ou_recursion_replayed_on_numpy_scalars(self, params):
        # the same stream by hand: n x 3 normals, one stationary start, then
        # x' = coef_x x + b z0 + c z1 per window; 2500 windows span chunks
        T, n = 0.5, 2500
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        theta = lo_phases(params, T, n, rng)
        coef_i, coef_x, a, b, c = _ou_step_moments(params, T)
        z = ref.standard_normal((n, 3))
        x = np.sqrt(params.alpha) * ref.standard_normal()
        starts = np.empty(n)
        for i in range(n):
            starts[i] = x
            x = coef_x * x + b * z[i, 0] + c * z[i, 1]
        want = coef_i * starts + a * z[:, 0] + np.sqrt(params.beta * T) * z[:, 2]
        assert theta.tobytes() == want.tobytes()
        assert rng.standard_normal() == ref.standard_normal()

    @pytest.mark.parametrize("gamma_T",[5e-13, 5e-9, 5e-7, 5e-6, 5e-5, 5e-4, 0.25, 5.0])
    def test_step_moments_imply_block_kernel(self, gamma_T):
        # one window of the sampler: theta = coef_i x + a z0, x' = coef_x x
        # + b z0 + c z1 with x stationary, so the phases it draws have
        # covariance lags 0..2 of C's OU part and x' keeps Var x = alpha
        T = 0.5
        p = replace(PAR, gamma=gamma_T / T)
        coef_i, coef_x, a, b, c = _ou_step_moments(p, T)
        lag1 = coef_i * (coef_i * coef_x * p.alpha + a * b)
        implied = [coef_i**2 * p.alpha + a**2, lag1, coef_x * lag1]
        want = block_kernel(replace(p, beta=0.0), T, 3)[0]
        np.testing.assert_allclose(implied, want, rtol=1e-12, atol=0.0)
        assert coef_x**2 * p.alpha + b**2 + c**2 == pytest.approx(p.alpha, rel=1e-12)


class TestValidation:
    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            NoiseParams(alpha=-1.0, beta=0.4, gamma=0.5, omega0=1.0)
        with pytest.raises(ValueError):
            NoiseParams(alpha=1.0, beta=0.4, gamma=0.0, omega0=1.0)
        with pytest.raises(ValueError):
            NoiseParams(alpha=1.0, beta=0.4, gamma=0.5, omega0=-2.0)

    @pytest.mark.parametrize("field", ["alpha", "beta", "gamma", "omega0"])
    def test_infinite_params_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be .* and finite, got inf"):
            replace(PAR, **{field: float("inf")})

    @pytest.mark.parametrize("field", ["alpha", "beta", "gamma", "omega0"])
    @pytest.mark.parametrize("value", [True, False, np.True_])
    def test_bool_params_rejected(self, field, value):
        # True would pass as 1.0 and False as 0.0, a valid alpha or beta
        with pytest.raises(ValueError, match=f"{field} must be a number, got"):
            replace(PAR, **{field: value})

    def test_kernel_set_bad_args(self):
        with pytest.raises(ValueError):
            kernel_set(PAR, -1.0, 2)
        for k in (0, -1):
            with pytest.raises(ValueError, match=f"^k must be >= 1, got {k}$"):
                kernel_set(PAR, 1.0, k)

    @pytest.mark.parametrize("entry", [
        lambda p: block_kernel(p, 1.0, 2),
        lambda p: kernel_set(p, 1.0, 1),
        lambda p: free_lo_avar(p, 1.0),
    ], ids=["block_kernel", "kernel_set", "free_lo_avar"])
    def test_ou_scale_overflow_raises(self, entry):
        # gamma^2 = 1e-320 is subnormal, so alpha / gamma^2 is inf: every
        # function built on it raises the same error instead of returning NaN
        with pytest.raises(OverflowError, match="alpha / gamma\\^2 overflows"):
            entry(NoiseParams(alpha=2.0, beta=0.4, gamma=1e-160, omega0=1.0))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("entry", [
        lambda x: Scenario(noise=PAR, n_atoms=1, k=1, T=x,
                           probe=ProductProbe(plus_step_state(1))),
        lambda x: SimConfig(noise=PAR, n_atoms=1, T=x, n_steps=10),
        lambda x: block_kernel(PAR, x, 2),
        lambda x: kernel_set(PAR, x, 2),
        lambda x: free_lo_avar(PAR, x),
        lambda x: bound_curve(PAR, 1, [x], 1),
    ], ids=["Scenario", "SimConfig", "block_kernel", "kernel_set", "free_lo_avar",
            "bound_curve"])
    def test_non_finite_T_or_tau_rejected(self, entry, value):
        with pytest.raises(ValueError, match="must be > 0 and finite"):
            entry(value)
