"""Gaussian local-oscillator noise model and its second-order statistics.

The LO frequency fluctuation is a stationary zero-mean Gaussian process with
autocovariance

    R(t) = alpha * exp(-gamma |t|) + beta * delta(t)

(Ornstein-Uhlenbeck plus white frequency noise, angular units).  Everything
downstream needs only block integrals of R:

* ``G[i, j]``  covariance of the Ramsey phases ``theta_i = int ω dt`` over
  consecutive interrogation windows of length T,
* ``H[i]``     covariance of ``theta_i`` with the normalized two-window
  frequency difference ``w`` whose variance defines the Allan variance at
  averaging time ``tau = k T``,
* ``sigma2_lo(tau)``  the fractional Allan variance of the free-running LO.

The delta part of R is never discretized; it enters each closed form exactly
(``beta * T`` on G's diagonal, ``±beta/k`` in H).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import toeplitz

__all__ = [
    "NoiseParams",
    "KernelSet",
    "block_kernel",
    "cross_kernel",
    "free_lo_avar",
    "kernel_set",
    "gen_trace",
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
        if not (self.alpha >= 0.0):
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if not (self.beta >= 0.0):
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if not (self.gamma > 0.0):
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if not (self.omega0 > 0.0):
            raise ValueError(f"omega0 must be > 0, got {self.omega0}")


@dataclass(frozen=True)
class KernelSet:
    """Precomputed second-order statistics for k steps of length T.

    G is (K, K) with K = 2k - 1, H has length K, sigma2_lo is the fractional
    free-LO Allan variance at tau = k T and w_var = 2 omega0^2 sigma2_lo is
    the variance of the two-window frequency difference w.
    """

    K: int
    G: np.ndarray
    H: np.ndarray
    sigma2_lo: float
    w_var: float


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


def _block_cov_sequence(params: NoiseParams, T: float, m_max: int) -> np.ndarray:
    """Return g[m] = Cov(theta_i, theta_{i+m}) for m = 0 .. m_max.

    g[0] = (2 alpha / gamma^2)(gamma T - 1 + e^{-gamma T}) + beta T
    g[m] = (alpha / gamma^2) e^{-gamma (m-1) T} (1 - e^{-gamma T})^2,  m >= 1

    The white term appears only at lag 0 (disjoint windows meet on a set of
    measure zero).
    """
    a, b, g = params.alpha, params.beta, params.gamma
    out = np.empty(m_max + 1)
    out[0] = 2.0 * a / g**2 * _phi2(g * T) + b * T
    if m_max >= 1:
        m = np.arange(1, m_max + 1)
        one_minus_e = -np.expm1(-g * T)
        out[1:] = a / g**2 * np.exp(-g * (m - 1) * T) * one_minus_e**2
    return out


def block_kernel(params: NoiseParams, T: float, K: int) -> np.ndarray:
    """Covariance matrix of the K consecutive Ramsey phases theta_1..theta_K.

    Parameters
    ----------
    params : NoiseParams
    T : interrogation window length, s (> 0)
    K : number of windows (>= 1)

    Returns
    -------
    (K, K) symmetric Toeplitz positive-semidefinite array, units rad^2.
    """
    if T <= 0:
        raise ValueError(f"T must be > 0, got {T}")
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    g = _block_cov_sequence(params, T, K - 1)
    return toeplitz(g)


def cross_kernel(params: NoiseParams, T: float, k: int) -> np.ndarray:
    """Covariances H_i = Cov(theta_i, w) for the K = 2k - 1 probe windows.

    w = (1/tau) * (int_tau^2tau ω dt - int_0^tau ω dt) with tau = k T is the
    normalized frequency difference between the two adjacent averaging
    windows.  Both windows tile into k blocks of length T, so each H_i is an
    exact signed sum of block covariances; no numerical integration is
    involved.
    """
    if T <= 0:
        raise ValueError(f"T must be > 0, got {T}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    tau = k * T
    g = _block_cov_sequence(params, T, 2 * k - 1)
    K = 2 * k - 1
    H = np.empty(K)
    for i in range(1, K + 1):
        plus = sum(g[abs(i - j)] for j in range(k + 1, 2 * k + 1))
        minus = sum(g[abs(i - j)] for j in range(1, k + 1))
        H[i - 1] = (plus - minus) / tau
    return H


def free_lo_avar(params: NoiseParams, tau: float | np.ndarray) -> float | np.ndarray:
    """Fractional Allan variance of the free-running (uncorrected) LO.

    sigma2_lo(tau) = [ alpha (2 gamma tau - 3 + 4 e^{-gamma tau}
                       - e^{-2 gamma tau}) / gamma^2 + beta tau ]
                     / (omega0^2 tau^2)

    which is the two-window variance identity evaluated in closed form.
    Accepts scalar or array tau (> 0).
    """
    tau_arr = np.asarray(tau, dtype=float)
    if np.any(tau_arr <= 0):
        raise ValueError("tau must be > 0")
    a, b, g, w0 = params.alpha, params.beta, params.gamma, params.omega0
    # 2*phi2(x) - (1-e^{-x})^2 rewritten for stability at small gamma*tau
    x = g * tau_arr
    ou = a / g**2 * (2.0 * _phi2(x) - np.expm1(-x) ** 2)
    out = (ou + b * tau_arr) / (w0**2 * tau_arr**2)
    return out if out.ndim else float(out)


def kernel_set(params: NoiseParams, T: float, k: int) -> KernelSet:
    """Bundle G, H, sigma2_lo and w_var for a (T, k) interrogation layout."""
    G = block_kernel(params, T, 2 * k - 1)
    H = cross_kernel(params, T, k)
    tau = k * T
    s2 = float(free_lo_avar(params, tau))
    return KernelSet(
        K=2 * k - 1, G=G, H=H, sigma2_lo=s2, w_var=2.0 * params.omega0**2 * s2,
    )


def gen_trace(
    kind: str,
    params: NoiseParams,
    dt: float,
    n: int,
    seed: int,
) -> np.ndarray:
    """Generate a discrete LO frequency-noise trace (rad/s), simulator use only.

    kind
        "white" : intensity params.beta; sample i is the bin average over
                  [i dt, (i+1) dt], ~ N(0, beta/dt), exact at any dt.
        "ou"    : params.alpha/params.gamma; sample i is the OU value at
                  time i dt (a point sample, variance alpha), drawn by the
                  exact stationary AR(1) chain with lag-1 factor exp(-gamma dt).
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    if kind == "white":
        sd = np.sqrt(params.beta / dt)
        return sd * rng.standard_normal(n)
    if kind == "ou":
        if params.alpha == 0.0:
            return np.zeros(n)
        a = np.exp(-params.gamma * dt)
        innov_sd = np.sqrt(params.alpha * (1.0 - a * a))
        x = np.empty(n)
        x[0] = np.sqrt(params.alpha) * rng.standard_normal()
        shocks = innov_sd * rng.standard_normal(n - 1)
        for i in range(1, n):
            x[i] = a * x[i - 1] + shocks[i - 1]
        return x
    raise ValueError(f"unknown trace kind {kind!r}")
