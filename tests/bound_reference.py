"""The paper's definitions of the bound's ingredients, as test references.

The library computes the bound in one place, `BoundWorkspace.evaluate`, as
a quantum Fisher information.  These helpers follow the definitions instead
and no library code calls them:

    W[a, b]        = exp(-1/2 (a-b)^T G (a-b)), over all D^2 pairs
    rho_bar[a, b]  = rho_in[a, b] * W[a, b]
    rho_bar'[a, b] = rho_bar[a, b] * i (b - a)^T H
    rho_bar' = (L rho_bar + rho_bar L) / 2, solved in the rho_bar eigenbasis
    cost(rho_in, L) = sigma2_lo - Tr(L rho_bar')/omega0^2
                      + Tr(L^2 rho_bar)/(2 omega0^2)
"""

import numpy as np

from qavar.core import ProductProbe, Scenario
from qavar.hilbert import multi_index_table, product_pure
from qavar.noise import kernel_set

SUPPORT_TOL = 1e-12


def dephasing_weights(G: np.ndarray, n_atoms: int) -> np.ndarray:
    """Entrywise Gaussian dephasing factors exp(-1/2 (a-b)^T G (a-b)).

    G is the (K, K) phase covariance; works for any K, not only 2k - 1.
    """
    A = multi_index_table(n_atoms, G.shape[0]).astype(float)
    M = A @ G
    s = np.einsum("dk,dk->d", A, M)
    return np.exp(-0.5 * (s[:, None] + s[None, :] - 2.0 * (M @ A.T)))


def joint_density(scenario: Scenario) -> np.ndarray:
    """The scenario's pure joint input v as the (D, D) density matrix v v^dag."""
    probe = scenario.probe
    if isinstance(probe, ProductProbe):
        v = product_pure(probe.state, scenario.n_steps)
    else:
        v = np.asarray(probe.vector, dtype=complex)
    return np.outer(v, v.conj())


def rho_bar(scenario: Scenario) -> np.ndarray:
    """Dephasing-averaged joint state, entrywise."""
    G = kernel_set(scenario.noise, scenario.T, scenario.k).G
    return joint_density(scenario) * dephasing_weights(G, scenario.n_atoms)


def rho_prime(scenario: Scenario, rb: np.ndarray = None) -> np.ndarray:
    """Noise-probe correlation operator: rho_bar[a, b] * i (b - a)^T H."""
    if rb is None:
        rb = rho_bar(scenario)
    H = kernel_set(scenario.noise, scenario.T, scenario.k).H
    u = multi_index_table(scenario.n_atoms, scenario.n_steps).astype(float) @ H
    return rb * (1j * (u[None, :] - u[:, None]))


def _support_pairs(rb: np.ndarray, rp: np.ndarray, support_tol: float = SUPPORT_TOL):
    """Eigenbasis (V, P = V^dag rho_bar' V, lam_r + lam_s, support mask)."""
    lam, V = np.linalg.eigh(rb)
    P = V.conj().T @ rp @ V
    denom = lam[:, None] + lam[None, :]
    return V, P, denom, denom > support_tol * max(float(lam[-1]), 0.0)


def solve_sld(rb: np.ndarray, rp: np.ndarray) -> np.ndarray:
    """L_rs = 2 rho_bar'_rs / (lam_r + lam_s) on the support, 0 elsewhere."""
    V, P, denom, mask = _support_pairs(rb, rp)
    Lt = np.zeros_like(P, dtype=complex)
    Lt[mask] = 2.0 * P[mask] / denom[mask]
    return V @ Lt @ V.conj().T


def eigen_sum(rb: np.ndarray, rp: np.ndarray, omega0: float,
              support_tol: float = SUPPORT_TOL) -> float:
    """Correction Tr(rho_bar L^2)/(2 omega0^2) = sum |rho_bar'_rs|^2 / (lam_r + lam_s).

    Pairs with lam_r + lam_s <= support_tol * lam_max are left out; each is
    worth at most (lam_r + lam_s) |U~_rs|^2 / omega0^2.  So the default cut
    biases the sum low where rho_bar is nearly pure: the pairs it drops are
    worth up to 4e-12 sigma2_lo at N = 3, k = 3, T = 0.2.  A draw widened
    into that regime needs a smaller support_tol, not a looser tolerance.
    """
    _, P, denom, mask = _support_pairs(rb, rp, support_tol)
    return float(np.sum(np.abs(P[mask]) ** 2 / denom[mask])) / omega0**2


def cost_functional(rho_in: np.ndarray, L: np.ndarray, scenario: Scenario) -> float:
    """Certificate: sigma2_q(rho_in) at the SLD, above it elsewhere.

    Affine in rho_in and convex in L, but not jointly convex.
    """
    rho_in = np.asarray(rho_in)
    if rho_in.ndim == 1:
        rho_in = np.outer(rho_in, rho_in.conj())
    ks = kernel_set(scenario.noise, scenario.T, scenario.k)
    rb = rho_in * dephasing_weights(ks.G, scenario.n_atoms)
    rp = rho_prime(scenario, rb)
    w0sq = scenario.noise.omega0**2
    t1 = np.trace(L @ rp).real / w0sq
    t2 = np.trace(L @ L @ rb).real / (2.0 * w0sq)
    return float(ks.sigma2_lo - t1 + t2)


def support_projector(rb: np.ndarray) -> np.ndarray:
    """Projector onto the eigenvectors of rho_bar above SUPPORT_TOL * lam_max."""
    lam, V = np.linalg.eigh(rb)
    keep = lam > SUPPORT_TOL * lam[-1]
    return V[:, keep] @ V[:, keep].conj().T
