"""Symmetric-subspace state helpers and multi-index bookkeeping."""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qavar.hilbert import (
    SymmetricState,
    coherent_step_state,
    eigh,
    flip_index,
    ghz_step_state,
    multi_index_table,
    plus_step_state,
    product_pure,
    reversal_index,
)


class TestSymmetricState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            SymmetricState(n_atoms=1, amplitudes=np.array([1.0, 1.0]))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            SymmetricState(n_atoms=2, amplitudes=np.array([1.0, 0.0]))

    def test_amplitudes_immutable(self):
        s = plus_step_state(1)
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0


class TestIndexing:
    def test_known_examples(self):
        # base N+1, first step most significant
        assert tuple(multi_index_table(2, 2)[5]) == (1, 2)
        assert tuple(multi_index_table(1, 3)[5]) == (1, 0, 1)

    def test_table_shape_and_order(self):
        A = multi_index_table(1, 3)
        assert A.shape == (8, 3)
        assert tuple(A[0]) == (0, 0, 0)
        assert tuple(A[-1]) == (1, 1, 1)
        for lin in range(8):
            assert tuple(A[lin]) == np.unravel_index(lin, (2, 2, 2))

    def test_table_cached_and_readonly(self):
        A = multi_index_table(2, 2)
        assert A is multi_index_table(2, 2)
        with pytest.raises(ValueError):
            A[0, 0] = 9

    @settings(max_examples=50, deadline=None)
    @given(n_atoms=st.integers(1, 3), n_steps=st.integers(1, 4),
           data=st.data())
    def test_round_trip_property(self, n_atoms, n_steps, data):
        dim = (n_atoms + 1) ** n_steps
        lin = data.draw(st.integers(0, dim - 1))
        idx = multi_index_table(n_atoms, n_steps)[lin]
        assert len(idx) == n_steps
        assert all(0 <= n <= n_atoms for n in idx)
        assert np.ravel_multi_index(tuple(idx), (n_atoms + 1,) * n_steps) == lin

    def test_reversal_index(self):
        assert tuple(reversal_index(2, 2)) == (0, 3, 6, 1, 4, 7, 2, 5, 8)
        A = multi_index_table(1, 3)
        rev = reversal_index(1, 3)
        assert np.array_equal(A[rev], A[:, ::-1])
        assert rev is reversal_index(1, 3) and not rev.flags.writeable

    @pytest.mark.parametrize("n_atoms, n_steps", [(1, 1), (2, 3), (3, 2), (1, 5)])
    def test_flip_index(self, n_atoms, n_steps):
        A = multi_index_table(n_atoms, n_steps)
        flip, rev = flip_index(n_atoms, n_steps), reversal_index(n_atoms, n_steps)
        assert np.array_equal(A[flip], n_atoms - A)
        assert np.array_equal(flip[flip], np.arange(A.shape[0]))  # an involution
        assert np.array_equal(flip[rev], rev[flip])
        assert flip is flip_index(n_atoms, n_steps) and not flip.flags.writeable


class TestProductStates:
    def test_product_pure_matches_density(self):
        s = coherent_step_state(2, 1.1, 0.4)
        v = product_pure(s, 3)
        rho = np.outer(s.amplitudes, s.amplitudes.conj())
        assert np.allclose(np.outer(v, v.conj()), np.kron(np.kron(rho, rho), rho), atol=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(n_atoms=st.integers(1, 3), n_steps=st.integers(1, 5),
           seed=st.integers(0, 2**31))
    def test_product_pure_is_exactly_reversal_symmetric(self, n_atoms, n_steps, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=n_atoms + 1) + 1j * rng.normal(size=n_atoms + 1)
        s = SymmetricState(n_atoms=n_atoms, amplitudes=a / np.linalg.norm(a))
        v = product_pure(s, n_steps)
        assert np.array_equal(v, v[reversal_index(n_atoms, n_steps)])
        kron = reduce(np.kron, [s.amplitudes] * n_steps)
        assert np.allclose(v, kron, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("n_atoms", [1, 2, 3, 4, 5])
    def test_plus_product_is_exactly_flip_symmetric(self, n_atoms):
        a = plus_step_state(n_atoms).amplitudes
        assert np.array_equal(a, a[::-1])
        assert np.allclose(a, coherent_step_state(n_atoms, np.pi / 2, 0.0).amplitudes,
                           rtol=1e-15, atol=0.0)
        for n_steps in (1, 3, 5):
            v = product_pure(plus_step_state(n_atoms), n_steps)
            assert np.array_equal(v, v[flip_index(n_atoms, n_steps)])

    def test_coherent_binomial_pattern(self):
        s = coherent_step_state(2, np.pi / 2, 0.0)
        assert np.allclose(s.amplitudes, [0.5, np.sqrt(0.5), 0.5])

    def test_coherent_is_atom_level_product(self):
        # embedding |n> -> symmetrized two-qubit basis splits the n=1
        # amplitude across |ge> and |eg> with weight 1/sqrt(2)
        polar, az = 0.9, 2.2
        one = coherent_step_state(1, polar, az).amplitudes
        two = coherent_step_state(2, polar, az).amplitudes
        embedded = np.array([two[0], two[1] / np.sqrt(2), two[1] / np.sqrt(2), two[2]])
        assert np.allclose(np.kron(one, one), embedded)

    def test_ghz(self):
        s = ghz_step_state(3)
        assert np.allclose(s.amplitudes, [np.sqrt(0.5), 0, 0, np.sqrt(0.5)])


class TestEigh:
    def test_known_spectrum(self):
        rho = np.array([[0.5, 0.25], [0.25, 0.5]])
        evals, evecs = eigh(rho)
        assert np.allclose(evals, [0.25, 0.75])
        assert np.allclose(evecs @ np.diag(evals) @ evecs.T, rho)

    def test_ascending_and_orthonormal(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        a = a + a.conj().T
        evals, evecs = eigh(a)
        assert np.all(np.diff(evals) >= 0)
        assert np.allclose(evecs.conj().T @ evecs, np.eye(6), atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_tolerance_is_relative_at_tiny_scale(self):
        # the see-saw's cost operator has entries of order 1/omega0^2 ~ 1e-31
        a = 1e-30 * np.random.default_rng(4).normal(size=(8, 8))
        assert np.abs(a - a.T).max() > np.abs(a).max()
        with pytest.raises(ValueError, match="Hermitian"):
            eigh(a)
        assert np.array_equal(eigh(np.zeros((3, 3)))[0], np.zeros(3))

    def test_empty_matrix(self):
        # the odd step-reversal block at k = 1 has no mirror pairs
        evals, evecs = eigh(np.zeros((0, 0)))
        assert evals.shape == (0,) and evecs.shape == (0, 0)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_lowest_pair_matches_full_solve(self, dtype):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(40, 40)).astype(dtype)
        if dtype is complex:
            a += 1j * rng.normal(size=(40, 40))
        a = a + a.conj().T
        evals, evecs = eigh(a)
        assert evals[1] - evals[0] > 1e-3 * np.abs(evals).max()  # nondegenerate
        low, vec = eigh(a, lowest=1)
        assert low.shape == (1,) and vec.shape == (40, 1)
        assert np.iscomplexobj(vec) == (dtype is complex)
        assert low[0] == pytest.approx(evals[0], rel=1e-12)
        assert abs(np.vdot(evecs[:, 0], vec[:, 0])) == pytest.approx(1.0, abs=1e-10)

    def test_lowest_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="matrix not Hermitian within tolerance"):
            eigh(np.array([[0.0, 1.0], [0.0, 0.0]]), lowest=1)

    def test_real_downcast_keeps_real_vectors(self):
        a = np.array([[1.0, 0.5], [0.5, 2.0]], dtype=complex)
        _, evecs = eigh(a)
        assert not np.iscomplexobj(evecs)
