"""Symmetric-subspace bookkeeping for N two-level atoms over K Ramsey steps.

A step state lives in the (N+1)-dimensional symmetric subspace spanned by
|n>, n = 0..N, where n counts excited atoms (the free Hamiltonian acts as
n * theta dephasing).  Joint objects over K steps use the base-(N+1)
positional encoding with n_1 most significant, dimension (N+1)^K.

`eigh` is the package's one eigensolver.  Its full solves run on numpy, so
the bound never loads scipy; only its subset path, which the see-saw
takes, imports scipy.linalg, on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

__all__ = [
    "SymmetricState",
    "multi_index_table",
    "reversal_index",
    "product_pure",
    "plus_step_state",
    "ghz_step_state",
    "coherent_step_state",
    "eigh",
]

HERMITIAN_TOL = 1e-10  # largest |a - a^H| entry `eigh` accepts, relative to max |a|
_CHUNK_ENTRIES = 2**16  # entries per row chunk, where a pass over a matrix makes no n^2 temporary


def _row_chunks(n_rows: int, width: int) -> list:
    """Row slices covering n_rows, each about _CHUNK_ENTRIES entries of a width-wide matrix."""
    step = max(1, _CHUNK_ENTRIES // max(width, 1))
    return [slice(a, a + step) for a in range(0, n_rows, step)]


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
        if not abs(norm - 1.0) <= 1e-10:  # also rejects NaN
            raise ValueError(f"amplitudes not normalized (|.| = {float(norm)!r})")
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


def _binomials(n_atoms: int) -> list[int]:
    """C(N, n) for n = 0..N as exact Python ints, mirrored: C(N, n) == C(N, N - n)."""
    binom = [1]
    for n in range(n_atoms):  # exact: C(N, n) (N - n) is a multiple of n + 1
        binom.append(binom[-1] * (n_atoms - n) // (n + 1))
    return binom


def plus_step_state(n_atoms: int) -> SymmetricState:
    """All atoms in (|g> + |e>)/sqrt(2): equatorial spin-coherent state.

    Built as sqrt(C(N, n) / 2^N), the Python-int quotient rounded once
    before the root: every N builds (past N ~ 1074 the tails below 2^-537
    are 0), and a_n == a_(N-n) bit for bit (cos pi/4 != sin pi/4 in floats),
    the exact spin-flip symmetry `BoundWorkspace.evaluate` dispatches on.
    """
    two_n = 2**n_atoms
    amps = np.sqrt(np.array([c / two_n for c in _binomials(n_atoms)]))
    return SymmetricState(n_atoms=n_atoms, amplitudes=amps)


def coherent_step_state(n_atoms: int, polar: float, azimuth: float) -> SymmetricState:
    """Spin-coherent state: every atom in cos(polar/2)|g> + e^{i azimuth} sin(polar/2)|e>.

    These are exactly the atom-level product states inside the symmetric
    subspace: sqrt(float(C(N, n))) c^(N-n) (s e^{i azimuth})^n, one rounding
    before the root.  float(C(N, N/2)) overflows from N = 1030: OverflowError.
    """
    c, s = np.cos(polar / 2.0), np.sin(polar / 2.0)
    n = np.arange(n_atoms + 1)
    root = np.sqrt(np.array([float(b) for b in _binomials(n_atoms)]))
    amps = root * c ** (n_atoms - n) * (s * np.exp(1j * azimuth)) ** n
    return SymmetricState(n_atoms=n_atoms, amplitudes=amps)


def ghz_step_state(n_atoms: int) -> SymmetricState:
    """(|0> + |N>)/sqrt(2) in excitation-number notation."""
    amps = np.zeros(n_atoms + 1, dtype=complex)
    amps[0] = amps[-1] = 1.0 / np.sqrt(2.0)
    return SymmetricState(n_atoms=n_atoms, amplitudes=amps)


def eigh(a: np.ndarray, lowest: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Guarded Hermitian eigendecomposition.

    Validates Hermiticity within HERMITIAN_TOL (relative to max |entry|) and
    solves with LAPACK's divide-and-conquer driver ?syevd / ?heevd through
    `numpy.linalg.eigh`, on the lower triangle; a non-finite entry raises
    np.linalg.LinAlgError.  Both checks run over row chunks, so neither
    makes an n^2 temporary.  An exactly Hermitian input goes to LAPACK as it
    is, since (a + a^H) / 2 == a bit for bit; only one that is Hermitian
    within the tolerance but not exactly is symmetrized, into a copy.  The
    input's dtype picks the path: real input takes the ~4x faster real one,
    and every caller in the package hands over a real matrix.  With `lowest`
    > 0 only the `lowest` smallest eigenpairs are computed, by scipy's MRRR
    driver (one pair of a 243 x 243 real matrix in ~2.2 ms against ~7.0 ms
    for all of them, and of a 122 x 122 spin-flip block in ~0.5 ms against
    ~1.5 ms, one BLAS thread).  Only that path imports scipy, on
    first use.  Neither path writes to the caller's matrix: numpy solves a
    copy, and scipy overwrites only the symmetrized one.

    Returns eigenvalues ascending and orthonormal eigenvectors as columns.
    """
    a = np.asarray(a)
    scale = defect = 0.0  # max |a| and max |a - a^H|
    for r in _row_chunks(a.shape[0], a.shape[-1]):  # none for a 0 x 0 (empty parity) block
        big = np.abs(a[r]).max()
        if not np.isfinite(big):
            raise np.linalg.LinAlgError("matrix has non-finite entries")
        scale = max(scale, big)
        defect = max(defect, np.abs(a[r] - a[:, r].conj().T).max())
    if defect > HERMITIAN_TOL * scale:
        raise ValueError("matrix not Hermitian within tolerance")
    copied = bool(defect > 0.0)
    if copied:
        a = np.add(a, a.conj().T, order="F")
        a *= 0.5
    if lowest > 0:
        import scipy.linalg  # the see-saw's subset solve is scipy's one user here

        return scipy.linalg.eigh(a, driver="evr", subset_by_index=[0, lowest - 1],
                                 overwrite_a=copied)
    return np.linalg.eigh(a)
