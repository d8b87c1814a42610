"""Quantum Allan variance of an LO-limited atomic clock.

For Gaussian LO noise the minimum achievable Allan variance at averaging
time tau = k T, over all measurement and feedback strategies acting on K =
2k - 1 probe steps, is

    sigma2_q = sigma2_lo - Tr(rho_bar L^2) / (2 omega0^2)

where rho_bar is the dephasing-averaged joint probe state and L is the
symmetric logarithmic derivative solving rho_bar' = (L rho_bar + rho_bar L)/2
for the noise-probe correlation operator rho_bar'.  Gaussianity makes both
averages exact entrywise in the excitation basis:

    rho_bar[a, b]  = rho_in[a, b] * exp(-1/2 (a-b)^T G (a-b))
    rho_bar'[a, b] = rho_bar[a, b] * i (b - a)^T H

with multi-indices a (row) and b (column) and the kernels G, H of
:mod:`qavar.noise`.  With u_a = a^T H and U = diag(u) the second line reads
rho_bar' = i [rho_bar, U], so the correction is the quantum Fisher
information of rho_bar under the generator U (Braunstein & Caves, PRL 72,
3439 (1994)):

    Tr(rho_bar L^2) / (2 omega0^2) = F_Q[rho_bar; U] / (2 omega0^2)
        = sum_rs (lam_r - lam_s)^2 / (lam_r + lam_s) |<r|U|s>|^2 / omega0^2

in the eigenbasis rho_bar = sum_r lam_r |r><r|, with lam >= 0 and 0/0 = 0.
`BoundWorkspace.evaluate` is the one place this sum is computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .hilbert import SymmetricState, eigh, multi_index_table, product_pure
from .noise import KernelSet, NoiseParams, kernel_set

__all__ = [
    "ProductProbe",
    "JointProbe",
    "Scenario",
    "QavarResult",
    "BoundWorkspace",
    "joint_dim",
    "layout_k",
    "dephasing_weights",
    "qavar",
]


def joint_dim(n_atoms: int, k: int) -> int:
    """Joint dimension (N+1)^(2k-1) of a k-step layout."""
    return (n_atoms + 1) ** (2 * k - 1)


def layout_k(tau: float, T: float) -> int:
    """The k with tau = k T; raises ValueError unless k is a positive integer."""
    ratio = tau / T
    k = int(round(ratio))
    if k < 1 or abs(ratio - k) > 1e-9 * max(1.0, ratio):
        raise ValueError(f"tau={tau} is not a positive integer multiple of T={T}")
    return k


@dataclass(frozen=True)
class ProductProbe:
    """Identical per-step probe, joint input rho0^(x)K."""

    state: SymmetricState


@dataclass(frozen=True)
class JointProbe:
    """Arbitrary joint input over all K steps (entangled across steps).

    Exactly one of `vector` (pure) or `density` must be given.
    """

    vector: Optional[np.ndarray] = None
    density: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if (self.vector is None) == (self.density is None):
            raise ValueError("JointProbe needs exactly one of vector or density")


Probe = Union[ProductProbe, JointProbe]


@dataclass(frozen=True)
class Scenario:
    """A fully specified bound computation.

    k interrogation steps of length T per averaging window, tau = k T,
    K = 2k - 1 probe steps, N atoms, and an input probe.
    """

    noise: NoiseParams
    n_atoms: int
    k: int
    T: float
    probe: Probe

    def __post_init__(self) -> None:
        if self.n_atoms < 1:
            raise ValueError(f"n_atoms must be >= 1, got {self.n_atoms}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.T <= 0:
            raise ValueError(f"T must be > 0, got {self.T}")

    @property
    def tau(self) -> float:
        return self.k * self.T

    @property
    def n_steps(self) -> int:
        return 2 * self.k - 1

    @property
    def dim(self) -> int:
        return joint_dim(self.n_atoms, self.k)

    def joint_input(self) -> np.ndarray:
        """The checked joint input: a pure vector (D,) or a density (D, D)."""
        dim = self.dim
        probe = self.probe
        if isinstance(probe, ProductProbe):
            if probe.state.n_atoms != self.n_atoms:
                raise ValueError(
                    f"probe has {probe.state.n_atoms} atoms, scenario {self.n_atoms}"
                )
            return product_pure(probe.state, self.n_steps)
        if probe.vector is not None:
            v = np.asarray(probe.vector).reshape(-1)
            if v.shape != (dim,):
                raise ValueError(f"joint vector length {v.shape[0]}, expected {dim}")
            nrm = np.linalg.norm(v)
            if abs(nrm - 1.0) > 1e-10:
                raise ValueError(f"joint vector not normalized (|.| = {nrm!r})")
            return v
        m = np.asarray(probe.density)
        if m.shape != (dim, dim):
            raise ValueError(f"joint density shape {m.shape}, expected {(dim, dim)}")
        scale = max(1.0, float(np.abs(m).max()))
        if np.abs(m - m.conj().T).max() > 1e-12 * scale:
            raise ValueError("joint density is not Hermitian")
        if abs(np.trace(m).real - 1.0) > 1e-10:
            raise ValueError(f"joint density trace {np.trace(m).real!r}, expected 1")
        return m


@dataclass(frozen=True)
class QavarResult:
    """Bound output: sigma2_q = sigma2_lo - correction, all fractional."""

    tau: float
    sigma2_lo: float
    correction: float
    sigma2_q: float
    sld: Optional[np.ndarray]


def dephasing_weights(G: np.ndarray, n_atoms: int) -> np.ndarray:
    """Entrywise Gaussian dephasing factors exp(-1/2 (a-b)^T G (a-b)).

    G is the (K, K) phase covariance; works for any K, not only 2k - 1.
    """
    K = G.shape[0]
    A = multi_index_table(n_atoms, K).astype(float)
    M = A @ G
    s = np.einsum("dk,dk->d", A, M)
    quad = s[:, None] + s[None, :] - 2.0 * (M @ A.T)
    return np.exp(-0.5 * quad)


class BoundWorkspace:
    """Amortized bound evaluator for a fixed (noise, N, k, T) layout.

    Precomputes the kernels, the (D, D) dephasing weights and the generator
    diagonal u = A H (u_a = a^T H) once; each `evaluate` call then costs one
    Hermitian eigensolve of rho_bar plus a few (D, D) products.
    """

    def __init__(self, noise: NoiseParams, n_atoms: int, k: int, T: float) -> None:
        self.noise = noise
        self.n_atoms = n_atoms
        self.k = k
        self.T = T
        self.kernels: KernelSet = kernel_set(noise, T, k)
        self.n_steps = self.kernels.K
        self.dim = joint_dim(n_atoms, k)
        self.weights = dephasing_weights(self.kernels.G, n_atoms)
        self.u = multi_index_table(n_atoms, self.n_steps).astype(float) @ self.kernels.H

    def evaluate(
        self,
        rho_in: np.ndarray,
        want_sld: bool = False,
    ) -> QavarResult:
        """Bound for a joint input matrix (D, D) or pure vector (D,).

        The correction is the eigenbasis quantum Fisher information
        F_Q[rho_bar; U] / (2 omega0^2) (Braunstein & Caves, PRL 72, 3439
        (1994)).  With rho_bar = V diag(lam) V^dag and U~ = V^dag diag(u) V,

            correction = sum_rs (lam_r - lam_s)^2 / (lam_r + lam_s) |U~_rs|^2 / omega0^2
            L          = V (2i (lam_r - lam_s) / (lam_r + lam_s) U~_rs) V^dag

        Eigenvalues are clamped to lam >= 0 (rho_bar is PSD; the eigensolver
        returns kernel eigenvalues of either sign at roundoff level) and the
        pairs with lam_r + lam_s = 0 contribute 0.  Each weight is bounded by
        lam_r + lam_s and each SLD entry by 2 |U~_rs|, so no cut-off is needed.
        The correction's roundoff is absolute, of order eps * sigma2_lo, so
        sigma2_q is exact to roundoff even where the correction is tiny.
        A complex input whose imaginary part is all zero is taken as real,
        before the outer product, so real inputs stay on the real LAPACK path.
        """
        rho_in = np.asarray(rho_in)
        if np.iscomplexobj(rho_in) and not np.any(rho_in.imag):
            rho_in = rho_in.real
        if rho_in.ndim == 1:
            rho_in = np.outer(rho_in, rho_in.conj())
        if rho_in.shape != (self.dim, self.dim):
            raise ValueError(f"input shape {rho_in.shape}, expected {(self.dim, self.dim)}")
        lam, V = eigh(rho_in * self.weights)
        lam = np.maximum(lam, 0.0)
        Ut = V.conj().T @ (self.u[:, None] * V)
        diff = lam[:, None] - lam[None, :]
        tot = lam[:, None] + lam[None, :]
        ratio = np.divide(diff, tot, out=np.zeros_like(tot), where=tot > 0.0)
        diff *= ratio  # in place: (D, D) temporaries dominate the non-LAPACK time
        diff *= (Ut.conj() * Ut).real
        correction = float(np.sum(diff)) / self.noise.omega0**2
        sld = None
        if want_sld:
            sld = 1j * (V @ (2.0 * ratio * Ut) @ V.conj().T)
        s2lo = self.kernels.sigma2_lo
        return QavarResult(
            tau=self.k * self.T,
            sigma2_lo=s2lo,
            correction=correction,
            sigma2_q=s2lo - correction,
            sld=sld,
        )


def qavar(scenario: Scenario, want_sld: bool = False) -> QavarResult:
    """Quantum Allan variance bound for a scenario.

    Returns sigma2_lo, the correction F_Q[rho_bar; U] / (2 omega0^2), their
    difference sigma2_q, and optionally the optimal L operator.
    """
    ws = BoundWorkspace(scenario.noise, scenario.n_atoms, scenario.k, scenario.T)
    return ws.evaluate(scenario.joint_input(), want_sld=want_sld)
