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
    "reversal_index",
    "flip_index",
    "product_pure",
    "plus_step_state",
    "ghz_step_state",
    "coherent_step_state",
    "eigh",
]

HERMITIAN_TOL = 1e-10  # largest |a - a^H| entry `eigh` accepts, relative to max |a|


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


@lru_cache(maxsize=64)
def reversal_index(n_atoms: int, n_steps: int) -> np.ndarray:
    """Linear index of each multi-index's step reversal (n_K..n_1), shape ((N+1)^K,).

    An involution: rev[rev] is the identity, and its fixed points are the
    (N+1)^ceil(K/2) palindromes.
    """
    table = multi_index_table(n_atoms, n_steps)
    rev = table @ (n_atoms + 1) ** np.arange(n_steps)  # n_K now most significant
    rev.setflags(write=False)
    return rev


@lru_cache(maxsize=64)
def flip_index(n_atoms: int, n_steps: int) -> np.ndarray:
    """Linear index of each multi-index's spin flip (N-n_1..N-n_K), shape ((N+1)^K,).

    Every base-(N+1) digit n becomes N - n, so index a maps to D - 1 - a.  An
    involution that commutes with `reversal_index`.
    """
    dim = (n_atoms + 1) ** n_steps
    flip = dim - 1 - np.arange(dim)
    flip.setflags(write=False)
    return flip


def product_pure(state: SymmetricState, n_steps: int) -> np.ndarray:
    """K-fold tensor power of a step state, as a joint vector.

    The Kronecker power is reversal-symmetric only to roundoff; averaging it
    with its reversal makes v[rev] == v hold bit for bit (IEEE addition
    commutes), so `BoundWorkspace.evaluate` can detect the symmetry exactly.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    v = reduce(np.kron, [state.amplitudes] * n_steps)
    return 0.5 * (v + v[reversal_index(state.n_atoms, n_steps)])


def plus_step_state(n_atoms: int) -> SymmetricState:
    """All atoms in (|g> + |e>)/sqrt(2): equatorial spin-coherent state.

    Built as sqrt(C(N, n)) 2^(-N/2), so a_n == a_(N-n) bit for bit (cos pi/4
    and sin pi/4 differ in the last bit) and `product_pure` keeps the exact
    spin-flip symmetry that `BoundWorkspace.evaluate` dispatches on.
    """
    amps = np.sqrt([comb(n_atoms, n) for n in range(n_atoms + 1)]) * 2.0 ** (-0.5 * n_atoms)
    return SymmetricState(n_atoms=n_atoms, amplitudes=amps)


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


def eigh(a: np.ndarray, lowest: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Guarded Hermitian eigendecomposition.

    Validates Hermiticity within HERMITIAN_TOL (relative to max |entry|),
    symmetrizes, and solves with the divide-and-conquer driver.  The input's
    dtype picks the path: real input takes the ~4x faster real one, and
    every caller in the package hands over a real matrix.  With `lowest` > 0
    only the `lowest` smallest eigenpairs are computed, by the MRRR driver
    (one pair of a 243 x 243 real matrix in ~2.8 ms against ~7.2 ms for all
    of them, one BLAS thread).

    Returns eigenvalues ascending and orthonormal eigenvectors as columns.
    """
    a = np.asarray(a)
    # Built in Fortran order and handed over to be overwritten, so LAPACK
    # works on this buffer instead of a transposed copy.
    sym = np.add(a, a.conj().T, order="F")
    sym *= 0.5
    # sym is exactly Hermitian, so sym.T.conj() is sym read in C order and
    # a - sym = (a - a^H) / 2 needs no second transposed pass over a.  The
    # initial 0 gives a 0 x 0 input (an empty parity block) a maximum.
    scale = np.abs(a).max(initial=0.0)
    if 2.0 * np.abs(a - sym.T.conj()).max(initial=0.0) > HERMITIAN_TOL * scale:
        raise ValueError("matrix not Hermitian within tolerance")
    if lowest > 0:
        return scipy.linalg.eigh(sym, driver="evr", subset_by_index=[0, lowest - 1],
                                 overwrite_a=True)
    return scipy.linalg.eigh(sym, driver="evd", overwrite_a=True)
