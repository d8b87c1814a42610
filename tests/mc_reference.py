"""Monte-Carlo reference for the Gaussian dephasing averages.

The library computes rho_bar and rho_bar' from closed-form kernels.  These
helpers check them by sampling instead: `sample_joint` draws the Ramsey
phases and the normalized frequency difference from their exact joint
normal, and `mc_oracle` averages the dephased input over those draws.  No
library code calls them; check 2 and the unit tests do.
"""

from dataclasses import dataclass

import numpy as np

from bound_reference import joint_density
from qavar.core import Scenario
from qavar.hilbert import multi_index_table
from qavar.noise import NoiseParams, kernel_set


def sample_joint(
    params: NoiseParams, T: float, k: int, n_samples: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n_samples exact joint samples of (theta_1..theta_K, w).

    Uses the eigendecomposition of the bordered covariance
    [[G, H], [H^T, w_var]]; a minimum eigenvalue below -1e-10 relative to the
    largest signals an inconsistent kernel implementation and raises.

    Returns
    -------
    theta : (n_samples, K) array, w : (n_samples,) array.
    """
    n = n_samples
    if n < 1:
        raise ValueError(f"n_samples must be >= 1, got {n}")
    kernels = kernel_set(params, T, k)
    K = kernels.K
    cov = np.empty((K + 1, K + 1))
    cov[:K, :K] = kernels.G
    cov[:K, K] = kernels.H
    cov[K, :K] = kernels.H
    cov[K, K] = kernels.w_var
    evals, evecs = np.linalg.eigh(cov)
    scale = max(evals[-1], 0.0)
    if evals[0] < -1e-10 * max(scale, 1.0):
        raise ValueError(
            f"joint covariance not PSD (min eigenvalue {evals[0]:.3e}); "
            "kernel implementation inconsistent"
        )
    factor = evecs * np.sqrt(np.clip(evals, 0.0, None))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, K + 1))
    samples = z @ factor.T
    return samples[:, :K], samples[:, K]


@dataclass(frozen=True)
class McOracleResult:
    """Monte-Carlo dephasing averages with per-entry standard errors.

    Standard errors are packed as se_re + 1j * se_im, entrywise.
    """

    rho_bar: np.ndarray
    rho_prime: np.ndarray
    rho_bar_se: np.ndarray
    rho_prime_se: np.ndarray
    n_samples: int


def mc_oracle(
    scenario: Scenario,
    n_samples: int,
    seed: int,
    chunk: int = 100_000,
) -> McOracleResult:
    """Monte-Carlo check of the Gaussian dephasing averages.

    Draws (theta, w) from the exact joint normal and averages
    D(theta) rho_in D(theta)^dag and its w-weighted version, where D(theta)
    is diagonal with entries exp(-i sum_i n_i theta_i).  Standard errors come
    from exact trigonometric second moments, so they are deterministic given
    the seed and independent of the chunk size.
    """
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    rho_in = joint_density(scenario)
    A = multi_index_table(scenario.n_atoms, scenario.n_steps).astype(float)
    dim = scenario.dim

    M1 = np.zeros((dim, dim), dtype=complex)
    M1w = np.zeros((dim, dim), dtype=complex)
    M2 = np.zeros((dim, dim), dtype=complex)
    M2w2 = np.zeros((dim, dim), dtype=complex)
    sum_w2 = 0.0

    theta, w = sample_joint(scenario.noise, scenario.T, scenario.k, n_samples, seed)
    for lo in range(0, n_samples, chunk):
        hi = min(lo + chunk, n_samples)
        E = np.exp(-1j * (A @ theta[lo:hi].T))
        wc = w[lo:hi]
        Ec = E.conj()
        M1 += E @ Ec.T
        M1w += (E * wc) @ Ec.T
        E2 = E * E
        E2c = E2.conj()
        M2 += E2 @ E2c.T
        M2w2 += (E2 * wc**2) @ E2c.T
        sum_w2 += float(np.sum(wc**2))

    n = float(n_samples)

    def _moments(first: np.ndarray, second: np.ndarray, norm2: float):
        """Mean and (se_re, se_im) of mean(q * exp(-iP)) given Gram sums."""
        mean = first / n
        e_cos2 = 0.5 * (norm2 / n + second.real / n)
        e_sin2 = 0.5 * (norm2 / n - second.real / n)
        e_cossin = -0.5 * second.imag / n
        # sample components: X = q cos P (real part), Y = -q sin P (imag part)
        var_x = np.clip(e_cos2 - mean.real**2, 0.0, None)
        var_y = np.clip(e_sin2 - mean.imag**2, 0.0, None)
        cov_xy = -(e_cossin - mean.real * (-mean.imag))
        return mean, var_x / n, var_y / n, cov_xy / n

    zb, vxb, vyb, cxyb = _moments(M1, M2, n)
    zp, vxp, vyp, cxyp = _moments(M1w, M2w2, sum_w2)

    def _propagate(z, vx, vy, cxy):
        re, im = rho_in.real, rho_in.imag
        var_re = re**2 * vx + im**2 * vy - 2.0 * re * im * cxy
        var_im = im**2 * vx + re**2 * vy + 2.0 * re * im * cxy
        se = np.sqrt(np.clip(var_re, 0.0, None)) + 1j * np.sqrt(np.clip(var_im, 0.0, None))
        return rho_in * z, se

    rb_mc, rb_se = _propagate(zb, vxb, vyb, cxyb)
    rp_mc, rp_se = _propagate(zp, vxp, vyp, cxyp)
    return McOracleResult(
        rho_bar=rb_mc,
        rho_prime=rp_mc,
        rho_bar_se=rb_se,
        rho_prime_se=rp_se,
        n_samples=n_samples,
    )
