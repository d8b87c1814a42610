"""Symmetric-subspace bookkeeping for N two-level atoms over K Ramsey steps.

A step state lives in the (N+1)-dimensional symmetric subspace spanned by
|n>, n = 0..N, where n counts excited atoms (the free Hamiltonian acts as
n * theta dephasing).  Joint objects over K steps use the base-(N+1)
positional encoding with n_1 most significant, dimension (N+1)^K.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from math import comb

import numpy as np
import scipy.linalg

__all__ = [
    "SymmetricState",
    "multi_index_table",
    "to_linear",
    "from_linear",
    "product_pure",
    "plus_step_state",
    "ghz_step_state",
    "coherent_step_state",
    "partial_trace",
    "eigh",
]


@dataclass(frozen=True)
class SymmetricState:
    """Pure state of N atoms in the symmetric subspace, N+1 amplitudes."""

    n_atoms: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.n_atoms < 1:
            raise ValueError(f"n_atoms must be >= 1, got {self.n_atoms}")
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.n_atoms + 1,):
            raise ValueError(
                f"expected {self.n_atoms + 1} amplitudes, got shape {amps.shape}"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"amplitudes not normalized (|.| = {norm!r})")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def density(self) -> np.ndarray:
        """(N+1, N+1) rank-one density matrix."""
        v = self.amplitudes
        return np.outer(v, v.conj())


@lru_cache(maxsize=64)
def multi_index_table(n_atoms: int, n_steps: int) -> np.ndarray:
    """All multi-indices (n_1..n_K) in linear order, shape ((N+1)^K, K).

    Row r is the base-(N+1) expansion of r with n_1 most significant.
    """
    base = n_atoms + 1
    dim = base**n_steps
    lin = np.arange(dim)
    cols = []
    for i in range(n_steps):
        shift = base ** (n_steps - 1 - i)
        cols.append((lin // shift) % base)
    table = np.stack(cols, axis=1)
    table.setflags(write=False)
    return table

def to_linear(idx: tuple[int, ...], n_atoms: int) -> int:
    """Base-(N+1) positional encoding of a multi-index, n_1 most significant."""
    base = n_atoms + 1
    lin = 0
    for n in idx:
        if not 0 <= n <= n_atoms:
            raise ValueError(f"index entry {n} outside 0..{n_atoms}")
        lin = lin * base + n
    return lin


def from_linear(lin: int, n_atoms: int, n_steps: int) -> tuple[int, ...]:
    """Inverse of to_linear."""
    base = n_atoms + 1
    if not 0 <= lin < base**n_steps:
        raise ValueError(f"linear index {lin} outside 0..{base ** n_steps - 1}")
    out = []
    for i in range(n_steps):
        shift = base ** (n_steps - 1 - i)
        out.append((lin // shift) % base)
    return tuple(out)


def product_pure(state: SymmetricState, n_steps: int) -> np.ndarray:
    """K-fold tensor power of a step state, as a joint vector."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    return reduce(np.kron, [state.amplitudes] * n_steps)


def plus_step_state(n_atoms: int) -> SymmetricState:
    """All atoms in (|g> + |e>)/sqrt(2): equatorial spin-coherent state."""
    return coherent_step_state(n_atoms, np.pi / 2.0, 0.0)


def coherent_step_state(n_atoms: int, polar: float, azimuth: float) -> SymmetricState:
    """Spin-coherent state: every atom in cos(polar/2)|g> + e^{i azimuth} sin(polar/2)|e>.

    These are exactly the atom-level product states inside the symmetric
    subspace; amplitudes follow the binomial pattern.
    """
    c, s = np.cos(polar / 2.0), np.sin(polar / 2.0)
    n = np.arange(n_atoms + 1)
    amps = (
        np.sqrt([comb(n_atoms, int(j)) for j in n])
        * c ** (n_atoms - n)
        * (s * np.exp(1j * azimuth)) ** n
    )
    return SymmetricState(n_atoms=n_atoms, amplitudes=amps)


def ghz_step_state(n_atoms: int) -> SymmetricState:
    """(|0> + |N>)/sqrt(2) in excitation-number notation."""
    amps = np.zeros(n_atoms + 1, dtype=complex)
    amps[0] = amps[-1] = 1.0 / np.sqrt(2.0)
    return SymmetricState(n_atoms=n_atoms, amplitudes=amps)


def partial_trace(rho: np.ndarray, dims: list[int], keep: list[int]) -> np.ndarray:
    """Trace out all subsystems except `keep` (indices into `dims`)."""
    n_sub = len(dims)
    keep = sorted(keep)
    tensor = rho.reshape(dims + dims)
    traced = 0
    for site in range(n_sub):
        if site in keep:
            continue
        ax = site - traced
        off = n_sub - traced
        tensor = np.trace(tensor, axis1=ax, axis2=ax + off)
        traced += 1
    d_keep = int(np.prod([dims[i] for i in keep]))
    return tensor.reshape(d_keep, d_keep)


def eigh(a: np.ndarray, check_tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Guarded Hermitian eigendecomposition.

    Validates Hermiticity within check_tol (relative to max |entry|),
    symmetrizes, and solves with the divide-and-conquer driver.  Real
    input, also complex-typed input whose imaginary part is all zero, stays
    on the ~4x faster real path.

    Returns eigenvalues ascending and orthonormal eigenvectors as columns.
    """
    a = np.asarray(a)
    if np.iscomplexobj(a) and not np.any(a.imag):
        a = a.real
    scale = max(np.abs(a).max(), 1.0)
    if np.abs(a - a.conj().T).max() > check_tol * scale:
        raise ValueError("matrix not Hermitian within tolerance")
    return scipy.linalg.eigh(0.5 * (a + a.conj().T), driver="evd")
