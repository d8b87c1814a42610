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
`BoundWorkspace.evaluate` is the one place this bound is computed.

Every excitation-basis phase of a pure input is a gauge: with v = Z |v|,
Z = diag(z), rho_bar(v) = Z rho_bar(|v|) Z^dag and Z commutes with U, so
the spectrum and the QFI are those of |v| and the SLD moves to
Z L(|v|) Z^dag.  `BoundWorkspace.evaluate` therefore solves x = |v|, and
every eigensolve is real.  Mixed inputs are never needed: rho_bar is linear
in rho_in and the QFI is convex, so sigma2_q is concave in rho_in and its
minimum is reached at a pure state.

Two exact symmetries split that eigensolve for the inputs that carry them.
Step reversal P, (n_1..n_K) -> (n_K..n_1): G is a symmetric Toeplitz
matrix (the LO noise is stationary), so (Pa - Pb)^T G (Pa - Pb) =
(a - b)^T G (a - b) and W commutes with P.  Spin flip F, n_j -> N - n_j at
every step, maps a - b to -(a - b), so W commutes with F as well.  With
x[Pa] = x[a] (every product probe) rho_bar commutes with P; with also
x[Fa] = x[a] (|+>, GHZ, every step state with a_n = +-a_(N-n)) it
commutes with the group {1, P, F, PF}.  rho_bar is then block diagonal in
the group's characters: two blocks or four (1134 and 1053, or 574, 520, 560
and 533, instead of D = 2187 at N = 2, k = 4).  U is not: H is neither
symmetric nor antisymmetric under reversal (H = [-1.068, -0.677, 0.677] at
k = 2, T = 1 and alpha, beta, gamma = 2, 0.4, 0.5), so U couples the
blocks, and the QFI sum runs over eigenpairs within each block and across
blocks, exactly.  Under F, u_Fa = N sum(H) - u_a, so the shifted generator
U' = U - (N sum(H) / 2) 1 anticommutes with F.  The shift only moves the
diagonal <r|U|r>, whose (lam_r - lam_r)^2 weight is 0, so the QFI stays as
it is; and U' couples an F-even block only to an F-odd one, so the
four-block sum has no within-block terms.  (U itself differs from U' only
by that diagonal, so the blocks use u as it is.)  `BoundWorkspace.evaluate`
takes the largest exact symmetry of x, tested bit for bit, when no SLD is
asked for and D >= BLOCK_MIN_DIM, and the trivial group {1} otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .hilbert import (
    SymmetricState,
    _row_chunks,
    eigh,
    flip_index,
    multi_index_table,
    product_pure,
    reversal_index,
)
from .noise import KernelSet, NoiseParams, kernel_set

__all__ = [
    "ProductProbe",
    "JointProbe",
    "Scenario",
    "QavarResult",
    "BoundWorkspace",
    "joint_dim",
    "layout_k",
    "qavar",
]

# Below this joint dimension one (D, D) solve beats the symmetry blocks, whose
# eigh calls and block-pair loop carry a fixed Python cost.  Median `evaluate`
# times in ms (one BLAS thread; full / two blocks / four blocks): 0.10 / 0.25 /
# 0.36 at D = 8, 0.21 / 0.34 / 0.42 at D = 27, 0.65 / 0.70 / 0.61 at D = 64
# (the crossover for both), 2.3 / 1.8 / 1.3 at D = 125, 8.7 / 4.3 / 3.4 at 243.
BLOCK_MIN_DIM = 100


def joint_dim(n_atoms: int, k: int) -> int:
    """Joint dimension (N+1)^(2k-1) of a k-step layout."""
    return (n_atoms + 1) ** (2 * k - 1)


def layout_k(tau: float, T: float) -> int:
    """The k with tau = k T; raises ValueError unless k is a positive integer."""
    ratio = float(tau) / float(T)  # Python floats overflow to inf without a warning
    k = int(round(ratio)) if np.isfinite(ratio) else 0
    if k < 1 or abs(ratio - k) > 1e-9 * max(1.0, ratio):
        raise ValueError(f"tau={tau} is not a positive integer multiple of T={T}")
    return k


@dataclass(frozen=True)
class ProductProbe:
    """Identical per-step probe, joint input rho0^(x)K."""

    state: SymmetricState


@dataclass(frozen=True)
class JointProbe:
    """Arbitrary pure joint input over all K steps (entangled across steps)."""

    vector: np.ndarray


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
        if not 0.0 < self.T < np.inf:
            raise ValueError(f"T must be > 0 and finite, got {self.T}")

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
        """The checked joint input, a pure vector (D,)."""
        probe = self.probe
        if isinstance(probe, ProductProbe):
            if probe.state.n_atoms != self.n_atoms:
                raise ValueError(
                    f"probe has {probe.state.n_atoms} atoms, scenario {self.n_atoms}"
                )
            return product_pure(probe.state, self.n_steps)
        v = np.asarray(probe.vector).reshape(-1)
        if v.shape != (self.dim,):
            raise ValueError(f"joint vector length {v.shape[0]}, expected {self.dim}")
        nrm = np.linalg.norm(v)
        if not abs(nrm - 1.0) <= 1e-10:  # also rejects NaN
            raise ValueError(f"joint vector not normalized (|.| = {float(nrm)!r})")
        return v


@dataclass(frozen=True)
class QavarResult:
    """Bound output: sigma2_q = sigma2_lo - correction, all fractional."""

    sigma2_lo: float
    correction: float
    sigma2_q: float
    sld: Optional[np.ndarray]


def _difference_table(G: np.ndarray, n_atoms: int) -> tuple[np.ndarray, np.ndarray]:
    """tab[d] = exp(-1/2 d^T G d) over d in [-N, N]^K, and the D codes c_a.

    tab is flat in base 2N + 1, d_1 first; c_a reads a in that base, so
    W[a, b] = tab[c_a - c_b + c_(N..N)].  Each entry sums (G_ij d_i) d_j in
    one order, so tab[-d] == tab[d]: W is exactly symmetric and F-invariant.
    """
    K = G.shape[0]
    d = np.arange(-n_atoms, n_atoms + 1, dtype=float)
    axes = [d.reshape((-1,) + (1,) * (K - 1 - i)) for i in range(K)]
    quad = sum((G[i, j] * axes[i]) * axes[j] for i in range(K) for j in range(K))
    codes = multi_index_table(n_atoms, K) @ d.size ** np.arange(K - 1, -1, -1)
    return np.exp(-0.5 * quad).reshape(-1), codes


def _phase_gauge(v: np.ndarray) -> np.ndarray:
    """z = v / |v|, 1 where v = 0, so v = z |v|; real if v's imaginary part is 0."""
    v = v if np.any(np.imag(v)) else np.real(v)
    mag = np.abs(v)
    z = np.ones(v.shape, dtype=np.result_type(v, float))
    np.divide(v, mag, out=z, where=mag > 0.0)
    return z


def _pair_sum(lam_r: np.ndarray, lam_s: np.ndarray, Ut2: np.ndarray) -> tuple[float, np.ndarray]:
    """sum_rs (lam_r - lam_s)^2 / (lam_r + lam_s) Ut2_rs for Ut2 = Ut^2, with 0/0 = 0.

    Also returns the (lam_r - lam_s) / (lam_r + lam_s) table the SLD is built from.
    """
    diff = lam_r[:, None] - lam_s[None, :]
    ratio = lam_r[:, None] + lam_s[None, :]
    # in place: (D, D) temporaries dominate the non-LAPACK time and the peak
    # memory; lam >= 0, so the sums left undivided are the 0s of 0/0 = 0
    np.divide(diff, ratio, out=ratio, where=ratio > 0.0)
    diff *= ratio
    diff *= Ut2
    return float(np.sum(diff)), ratio


class _OrbitBlocks:
    """rho_bar's blocks under a group of commuting index involutions.

    Element j of the group applies the generators `gens` named by the bits of
    j; character i is row i of the Sylvester Hadamard matrix, the sign
    (-1)^(bit b of i) on generator b.  Each orbit O is stored by its smallest
    index r (the representative), its size |O| and one generator coefficient
    per character,

        c_i(O) = (1/|G|) sum_h chi_i(h) u[h r].

    Block i spans |O, i> = |O|^(-1/2) sum_(a in O) chi_i(h_a) |a>, h_a any
    element with h_a r = a, over the orbits whose stabilizer chi_i is 1 on.
    A real x with x[h a] = x[a] enters it as x[r], and W commutes with the
    group, so (x x^T) * W_i with

        W_i[O, O'] = sqrt(|O| |O'|) / |G| sum_h chi_i(h) W[r, h r']

    is rho_bar's block i, W[r, h r'] read off `_difference_table`.  Only the
    orbit bookkeeping is kept: per block the table rows of its
    representatives, the codes of h r' for each element h, the character
    signs and the scale sqrt(|O| / |G|).  `block` forms a block from them in
    row chunks each time it is asked, so no block-sized array outlives an
    evaluation.  U couples block i to block i' only within an orbit, by
    c_(i^i')(O).  Where u minus a constant is odd under the generators in
    the bitmask `odd` (the shift to U' in the module docstring), c_(i^i') is
    0 unless chi_(i^i') is -1 on each of them, or that constant for i = i'
    (the constant cancels from every other coefficient).  A constant couples
    only r = s, whose weight (lam_r - lam_s)^2 is 0, so those block pairs
    are never formed.
    """

    def __init__(self, table: np.ndarray, codes: np.ndarray, u: np.ndarray, gens: tuple,
                 odd: int) -> None:
        n = 2 ** len(gens)
        perms = np.empty((n, u.size), dtype=np.intp)
        perms[0] = np.arange(u.size)
        chars = np.ones((1, 1), dtype=np.int64)
        for b, g in enumerate(gens):
            lo = 2**b
            perms[lo:2 * lo] = g[perms[:lo]]
            chars = np.block([[chars, chars], [chars, -chars]])  # Sylvester's doubling
        reps = np.flatnonzero(perms.min(axis=0) == perms[0])
        fixed = perms[:, reps] == reps
        member = ((chars[:, :, None] > 0) | ~fixed).all(axis=1)
        coef = chars @ u[perms[:, reps]] / n
        scale = fixed.sum(axis=0) ** -0.5  # sqrt(|O| / |G|) = |stabilizer|^(-1/2)
        self._table = table
        self.index, self._orbits = [], []
        for i, m in enumerate(member):
            idx = reps[m]
            rows = codes[idx] + codes[-1]  # c_r + c_(N..N), the table's offset
            self.index.append(idx)
            self._orbits.append((rows, codes[perms[:, idx]], chars[i], scale[m]))
        self.pairs = []
        for i in range(n):
            for j in range(i, n):
                if (i ^ j) & odd == odd:
                    both = member[i] & member[j]
                    # rows that cover a whole block read its V itself, not a copy
                    sel = [slice(None) if r.all() else np.flatnonzero(r)
                           for r in (both[member[i]], both[member[j]])]
                    self.pairs.append((i, j, *sel, coef[i ^ j, both]))

    def block(self, i: int, x: Optional[np.ndarray] = None) -> np.ndarray:
        """rho_bar's block i, (x_b x_b^T) * W_i with x_b = x[index[i]], or W_i without x.

        Built in row chunks of about `_CHUNK_ENTRIES` entries, so the gathers
        make no block-sized temporary.  Each entry takes the h = 0 gather,
        then +- each further W[r, h r'], then * s s', then x_r x_r' * that.
        """
        rows, cols, signs, s = self._orbits[i]
        xb = None if x is None else x[self.index[i]]
        out = np.empty((rows.size, rows.size))
        for r in _row_chunks(rows.size, rows.size):
            chunk, at = out[r], rows[r, None]
            chunk[...] = self._table[at - cols[0]]
            for h in range(1, len(cols)):
                (np.add if signs[h] > 0 else np.subtract)(chunk, self._table[at - cols[h]],
                                                          out=chunk)
            chunk *= np.outer(s[r], s)
            if xb is not None:
                chunk *= np.outer(xb[r], xb)
        return out

    def pair_sum(self, x: np.ndarray, want_sld: bool = False) -> tuple:
        """sum over the coupled block pairs i <= i' of (1 + [i != i']) S(i, i').

        Each block is built, solved and dropped in turn; only its spectrum
        and eigenvectors are kept.  With `want_sld`, also V (2 R o U~) V^T of
        the trivial group's one pair: K with L(x) = iK.  Any other group
        raises ValueError, since its SLD needs every pair.
        """
        if want_sld and len(self.index) > 1:
            raise ValueError("the SLD is formed only in the trivial group's one block")
        spectra = []
        for i in range(len(self.index)):
            lam, V = eigh(self.block(i, x))
            spectra.append((np.maximum(lam, 0.0), V))
        total = 0.0
        for i, j, rows_i, rows_j, coef in self.pairs:
            (lam_i, V_i), (lam_j, V_j) = spectra[i], spectra[j]
            Ut = V_i[rows_i].T @ (coef[:, None] * V_j[rows_j])
            if want_sld:  # the trivial group's one pair
                pair, ratio = _pair_sum(lam_i, lam_j, Ut * Ut)
                return pair, V_i @ (2.0 * ratio * Ut) @ V_j.T
            total += (1.0 + (i != j)) * _pair_sum(lam_i, lam_j, np.square(Ut, out=Ut))[0]
            del Ut  # one pair's (D, D) tables alive at a time
        return total, None


class BoundWorkspace:
    """Amortized bound evaluator for a fixed (noise, N, k, T) layout.

    Precomputes the kernels, the dephasing weights' difference table and u
    (u_a = a^T H) once; each `evaluate` call then builds each block of
    rho_bar off the table, solves it with one real symmetric eigensolve and
    drops it, plus a few products.  Each symmetry group's orbit bookkeeping
    is built on first use, and no block-sized array is kept between calls;
    `weights`, the trivial group's one block, is built on first read.
    """

    def __init__(self, noise: NoiseParams, n_atoms: int, k: int, T: float) -> None:
        if n_atoms < 1:
            raise ValueError(f"n_atoms must be >= 1, got {n_atoms}")
        self.noise = noise
        self.kernels: KernelSet = kernel_set(noise, T, k)
        self.n_steps = self.kernels.K
        self.dim = joint_dim(n_atoms, k)
        self.u = multi_index_table(n_atoms, self.n_steps).astype(float) @ self.kernels.H
        self._table, self._codes = _difference_table(self.kernels.G, n_atoms)
        self._gens = (reversal_index(n_atoms, self.n_steps), flip_index(n_atoms, self.n_steps))
        self._groups: dict[int, _OrbitBlocks] = {}
        self._weights: Optional[np.ndarray] = None

    def _blocks(self, n_gens: int) -> _OrbitBlocks:
        """The orbit blocks of {1}, {1, P} or {1, P, F, PF}: the first n_gens of (P, F)."""
        if n_gens not in self._groups:
            self._groups[n_gens] = _OrbitBlocks(self._table, self._codes, self.u,
                                                self._gens[:n_gens], 0b10 if n_gens == 2 else 0)
        return self._groups[n_gens]

    @property
    def weights(self) -> np.ndarray:
        """The (D, D) dephasing weights W[a, b] = exp(-1/2 (a-b)^T G (a-b)), built on first read."""
        if self._weights is None:
            self._weights = self._blocks(0).block(0)
        return self._weights

    def evaluate(self, v: np.ndarray, want_sld: bool = False) -> QavarResult:
        """Bound for a pure joint input vector v of shape (D,).

        The phases of v are a gauge (see the module docstring), so the
        eigensolves run on x = |v|, in real arithmetic.  The correction is
        the eigenbasis quantum Fisher information F_Q[rho_bar; U] /
        (2 omega0^2) (Braunstein & Caves, PRL 72, 3439 (1994)).  With
        rho_bar(x) = V diag(lam) V^T and U~ = V^T diag(u) V,

            correction = sum_rs (lam_r - lam_s)^2 / (lam_r + lam_s) U~_rs^2 / omega0^2
            L(x)       = V (2i (lam_r - lam_s) / (lam_r + lam_s) U~_rs) V^T

        and the SLD of v is L(v) = Z L(x) Z^dag, Z = diag(_phase_gauge(v)).
        Eigenvalues are clamped to lam >= 0 (rho_bar is PSD; the eigensolver
        returns kernel eigenvalues of either sign at roundoff level) and the
        pairs with lam_r + lam_s = 0 contribute 0.  Each weight is bounded by
        lam_r + lam_s and each SLD entry by 2 |U~_rs|, so no cut-off is needed.
        The correction's roundoff is absolute, a few hundred eps * sigma2_lo
        even where the correction is tiny: <= 6.5e-14 sigma2_lo between the
        block and trivial-group solves, <= 8.6e-14 from tests/bound_reference.py
        (nine random real step states at N = 3, k = 3, T = 3; 1-2 BLAS threads).

        One `_OrbitBlocks.pair_sum` call computes the sum, in the blocks of
        x's largest exact symmetry (module docstring, tested bit for bit) when
        D >= BLOCK_MIN_DIM and no SLD is asked for: {1, P, F, PF} where
        x[Pa] == x[a] and x[Fa] == x[a], {1, P} where only x[Pa] == x[a]
        (every product probe); else in the trivial group, whose one block is
        rho_bar and whose one pair gives the SLD (the see-saw's iterates are
        not symmetric).  The sum runs over the block pairs i <= i' as
        (1 + [i != i']) S(i, i'), S the pair sum above: S(ee) + S(oo) +
        2 S(eo) under {1, P}, the four F-even x F-odd pairs under
        {1, P, F, PF} (the U' shift).  Clamp and roundoff hold per block.
        """
        v = np.asarray(v)
        if v.shape != (self.dim,):
            raise ValueError(f"input shape {v.shape}, expected {(self.dim,)}")
        x = np.abs(v)
        n_gens = 0  # the trivial group, {1, P} or {1, P, F, PF}
        if not want_sld and self.dim >= BLOCK_MIN_DIM and np.array_equal(x, x[self._gens[0]]):
            n_gens = 1 + np.array_equal(x, x[self._gens[1]])
        total, sld = self._blocks(n_gens).pair_sum(x, want_sld)
        if want_sld:
            z = _phase_gauge(v)
            sld = 1j * sld * np.outer(z, z.conj())
        correction = total / self.noise.omega0**2
        s2lo = self.kernels.sigma2_lo
        return QavarResult(sigma2_lo=s2lo, correction=correction, sigma2_q=s2lo - correction,
                           sld=sld)


def qavar(scenario: Scenario, want_sld: bool = False) -> QavarResult:
    """Quantum Allan variance bound for a scenario.

    Returns sigma2_lo, the correction F_Q[rho_bar; U] / (2 omega0^2), their
    difference sigma2_q, and optionally the optimal L operator.
    """
    ws = BoundWorkspace(scenario.noise, scenario.n_atoms, scenario.k, scenario.T)
    return ws.evaluate(scenario.joint_input(), want_sld=want_sld)
