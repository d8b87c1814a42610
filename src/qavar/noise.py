"""Gaussian local-oscillator noise model and its second-order statistics.

The LO frequency fluctuation is a stationary zero-mean Gaussian process with
autocovariance

    R(t) = alpha * exp(-gamma |t|) + beta * delta(t)

(Ornstein-Uhlenbeck plus white frequency noise, angular units).  Everything
downstream needs only block integrals of R.  One matrix holds them: the
covariance ``C`` of the Ramsey phases ``theta_i = int ω dt`` over 2k
consecutive interrogation windows of length T (``block_kernel``), which
tile two adjacent averaging windows of length ``tau = k T``.
``kernel_set`` reads the bound's kernels off it:

* ``G = C[:K, :K]``  the covariance of the K = 2k - 1 probe phases,
* ``H[i]``  the covariance of ``theta_i`` with the normalized two-window
  frequency difference ``w = (sum_(j > k) theta_j - sum_(j <= k)
  theta_j) / tau``, whose variance defines the Allan variance at averaging
  time tau: the signed sum of row i of C, divided by tau.

``free_lo_avar`` gives that variance in closed form, the fractional Allan
variance ``sigma2_lo(tau)`` of the free-running LO.  The delta part of R is
never discretized; it enters each closed form exactly (``beta * T`` on C's
diagonal, hence ``±beta/k`` in H).  ``lo_phases`` samples the Ramsey phases
themselves, exactly, for the clock simulator, from moments read off C's OU part.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import toeplitz

__all__ = [
    "NoiseParams",
    "KernelSet",
    "block_kernel",
    "free_lo_avar",
    "kernel_set",
    "lo_phases",
]


@dataclass(frozen=True)
class NoiseParams:
    """LO noise parameters.

    alpha : OU variance, (rad/s)^2
    beta  : white-noise intensity, (rad/s)^2 * s
    gamma : OU decay rate, 1/s
    omega0: carrier angular frequency, rad/s
    """

    alpha: float
    beta: float
    gamma: float
    omega0: float

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma", "omega0"):
            value = getattr(self, name)
            if isinstance(value, (bool, np.bool_)):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if not 0.0 <= self.alpha < np.inf:
            raise ValueError(f"alpha must be >= 0 and finite, got {self.alpha}")
        if not 0.0 <= self.beta < np.inf:
            raise ValueError(f"beta must be >= 0 and finite, got {self.beta}")
        if not 0.0 < self.gamma < np.inf:
            raise ValueError(f"gamma must be > 0 and finite, got {self.gamma}")
        if not 0.0 < self.omega0 < np.inf:
            raise ValueError(f"omega0 must be > 0 and finite, got {self.omega0}")


@dataclass(frozen=True)
class KernelSet:
    """Precomputed second-order statistics for k steps of length T.

    G is (K, K) with K = 2k - 1, H has length K and sigma2_lo is the
    fractional free-LO Allan variance at tau = k T (2 omega0^2 sigma2_lo is
    the variance of the two-window frequency difference w).
    """

    K: int
    G: np.ndarray
    H: np.ndarray
    sigma2_lo: float


# Steps per chunk of the per-step loops that run on Python floats
# (`lo_phases` here, the servo in `clock.simulate_clock`, which takes fewer
# above N = 64 to cap its uniforms): each chunk goes to a list with
# `.tolist()` and back in one slice, so the lists stay this short whatever
# the step count.  The value changes no output.
_CHUNK = 1024


def _phi2(x: np.ndarray) -> np.ndarray:
    """Stable ``x - 1 + exp(-x)`` for x >= 0.

    Direct evaluation loses all digits for small x; below the switch point a
    truncated series keeps full relative precision.
    """
    x = np.asarray(x, dtype=float)
    small = x < 1e-2
    xs = np.where(small, x, 1.0)
    series = (
        xs**2 / 2.0 - xs**3 / 6.0 + xs**4 / 24.0 - xs**5 / 120.0
        + xs**6 / 720.0 - xs**7 / 5040.0
    )
    direct = np.expm1(-np.where(small, 1.0, x)) + np.where(small, 1.0, x)
    return np.where(small, series, direct)


def _ou_scale(params: NoiseParams) -> float:
    """alpha / gamma^2, the OU part's scale; OverflowError where it overflows."""
    s = params.alpha / params.gamma**2  # ZeroDivisionError where gamma^2 underflows to 0
    if s == np.inf:
        raise OverflowError(f"alpha / gamma^2 overflows ({params})")
    return s


def block_kernel(params: NoiseParams, T: float, K: int) -> np.ndarray:
    """Covariance matrix of the K consecutive Ramsey phases theta_1..theta_K.

    The symmetric Toeplitz matrix of g[m] = Cov(theta_i, theta_{i+m}):

        g[0] = (2 alpha / gamma^2)(gamma T - 1 + e^{-gamma T}) + beta T
        g[m] = (alpha / gamma^2) e^{-gamma (m-1) T} (1 - e^{-gamma T})^2,  m >= 1

    The white term appears only at lag 0 (disjoint windows meet on a set of
    measure zero).  T (s) must be > 0 and finite, K >= 1; the result is a
    (K, K) positive-semidefinite array, units rad^2.
    """
    if not 0.0 < T < np.inf:
        raise ValueError(f"T must be > 0 and finite, got {T}")
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    b, g, s = params.beta, params.gamma, _ou_scale(params)
    seq = np.empty(K)
    seq[0] = 2.0 * s * _phi2(g * T) + b * T
    m = np.arange(1, K)
    seq[1:] = s * np.exp(-g * (m - 1) * T) * (-np.expm1(-g * T)) ** 2
    return toeplitz(seq)


def free_lo_avar(params: NoiseParams, tau: float | np.ndarray) -> float | np.ndarray:
    """Fractional Allan variance of the free-running (uncorrected) LO.

    sigma2_lo(tau) = [ alpha (2 gamma tau - 3 + 4 e^{-gamma tau}
                       - e^{-2 gamma tau}) / gamma^2 + beta tau ]
                     / (omega0^2 tau^2)

    which is the two-window variance identity evaluated in closed form.
    Accepts scalar or array tau (> 0 and finite).
    """
    tau_arr = np.asarray(tau, dtype=float)
    if not np.all((0.0 < tau_arr) & (tau_arr < np.inf)):
        raise ValueError("tau must be > 0 and finite")
    # 2*phi2(x) - (1-e^{-x})^2 rewritten for stability at small gamma*tau
    x = params.gamma * tau_arr
    ou = _ou_scale(params) * (2.0 * _phi2(x) - np.expm1(-x) ** 2)
    out = (ou + params.beta * tau_arr) / (params.omega0**2 * tau_arr**2)
    return out if out.ndim else float(out)


def kernel_set(params: NoiseParams, T: float, k: int) -> KernelSet:
    """G, H and sigma2_lo for a (T, k) interrogation layout.

    G and H are blocks of C = block_kernel(params, T, 2k), the covariance of
    the 2k windows that tile the two averaging windows of length tau = k T.
    G = C[:K, :K] with K = 2k - 1, and since w = (1/tau) (int_tau^2tau ω dt -
    int_0^tau ω dt) = (1/tau) (sum_(j > k) theta_j - sum_(j <= k) theta_j),

        H_i = Cov(theta_i, w) = (sum_(j > k) C[i, j] - sum_(j <= k) C[i, j]) / tau,

    an exact signed sum of block covariances, with no numerical integration.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    C = block_kernel(params, T, 2 * k)
    K = 2 * k - 1
    H = (C[:K, k:].sum(axis=1) - C[:K, :k].sum(axis=1)) / (k * T)
    return KernelSet(K=K, G=C[:K, :K], H=H, sigma2_lo=float(free_lo_avar(params, k * T)))


def _ou_step_moments(params: NoiseParams, T: float):
    """Moments of one OU window's (I, x_end) given x_start, I = int_0^T x dt.

    With g0, g1 lags 0 and 1 of C's OU part (block_kernel at beta = 0) and
    e = exp(-gamma T), Cov(I, x_start) = alpha (1 - e) / gamma gives
    g1 = Cov(I, x_start)^2 / alpha (x is stationary, Var x = alpha), so

        E[I | x_start] = (1 - e) / gamma x_start,  E[x_end | x_start] = e x_start,
        Var(I | x_start) = g0 - g1,  Cov(I, x_end | x_start) = gamma g1,
        Var(x_end | x_start) = alpha (1 - e^2).

    Returns the mean coefficients and the Cholesky factor [[a, 0], [b, c]].
    """
    g0, g1 = block_kernel(replace(params, beta=0.0), T, 2)[0]
    gamma = params.gamma
    a = np.sqrt(max(g0 - g1, 0.0))
    b = gamma * g1 / a if a > 0.0 else 0.0
    c = np.sqrt(max(-params.alpha * np.expm1(-2.0 * gamma * T) - b * b, 0.0))
    return -np.expm1(-gamma * T) / gamma, np.exp(-gamma * T), a, b, c


def lo_phases(
    params: NoiseParams, T: float, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Ramsey phases theta_1..theta_n of n consecutive windows of length T.

    theta_i / T is the LO frequency averaged over window i.  Sampling is
    exact (no time discretization): per window the OU phase integral and
    OU endpoint are drawn from their joint conditional normal given the
    previous endpoint, the white contribution adds N(0, beta T) to the
    phase, and the OU part starts stationary.

    rng is the caller's stream; this draws n x 3 standard normals from it,
    then one more for the stationary start when alpha > 0.
    """
    coef_i, coef_x, a, b, c = _ou_step_moments(params, T)
    z = rng.standard_normal((n, 3))
    starts = np.zeros(n)
    if params.alpha > 0.0:
        coef_x, b, c = float(coef_x), float(b), float(c)
        x = float(np.sqrt(params.alpha) * rng.standard_normal())
        for lo in range(0, n, _CHUNK):
            chunk = []
            for z0, z1 in zip(z[lo:lo + _CHUNK, 0].tolist(), z[lo:lo + _CHUNK, 1].tolist()):
                chunk.append(x)
                x = coef_x * x + b * z0 + c * z1
            starts[lo:lo + len(chunk)] = chunk
    return coef_i * starts + a * z[:, 0] + np.sqrt(params.beta * T) * z[:, 2]
