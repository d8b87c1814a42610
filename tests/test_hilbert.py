"""Symmetric-subspace state helpers and multi-index bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qavar.hilbert import (
    SymmetricState,
    coherent_step_state,
    eigh,
    from_linear,
    ghz_step_state,
    multi_index_table,
    partial_trace,
    plus_step_state,
    product_pure,
    to_linear,
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

    def test_density_rank_one(self):
        s = ghz_step_state(2)
        rho = s.density()
        assert rho.shape == (3, 3)
        assert np.trace(rho) == pytest.approx(1.0)
        evals = np.linalg.eigvalsh(rho)
        assert evals[-1] == pytest.approx(1.0)


class TestIndexing:
    def test_known_examples(self):
        # base N+1, first step most significant
        assert to_linear((1, 2), n_atoms=2) == 5
        assert to_linear((1, 0, 1), n_atoms=1) == 5
        assert from_linear(5, n_atoms=2, n_steps=2) == (1, 2)
        assert from_linear(5, n_atoms=1, n_steps=3) == (1, 0, 1)

    def test_table_shape_and_order(self):
        A = multi_index_table(1, 3)
        assert A.shape == (8, 3)
        assert tuple(A[0]) == (0, 0, 0)
        assert tuple(A[-1]) == (1, 1, 1)
        for lin in range(8):
            assert tuple(A[lin]) == from_linear(lin, 1, 3)

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
        idx = from_linear(lin, n_atoms, n_steps)
        assert len(idx) == n_steps
        assert all(0 <= n <= n_atoms for n in idx)
        assert to_linear(idx, n_atoms) == lin


class TestProductStates:
    def test_product_pure_matches_density(self):
        s = coherent_step_state(2, 1.1, 0.4)
        v = product_pure(s, 3)
        rho = s.density()
        assert np.allclose(np.outer(v, v.conj()), np.kron(np.kron(rho, rho), rho), atol=1e-14)

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


class TestPartialTrace:
    def test_product_factors(self):
        a = plus_step_state(1).density()
        b = np.diag([0.3, 0.7])
        joint = np.kron(a, b)
        assert np.allclose(partial_trace(joint, [2, 2], keep=[0]), a)
        assert np.allclose(partial_trace(joint, [2, 2], keep=[1]), b)

    def test_three_sites_keep_middle(self):
        rng = np.random.default_rng(0)
        mats = []
        for _ in range(3):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            m = m @ m.conj().T
            mats.append(m / np.trace(m))
        joint = np.kron(np.kron(mats[0], mats[1]), mats[2])
        assert np.allclose(partial_trace(joint, [2, 2, 2], keep=[1]), mats[1])

    def test_entangled_reduction_is_mixed(self):
        v = ghz_step_state(1).amplitudes  # Bell pair in step notation
        joint = np.outer(np.kron(v, v), np.kron(v, v).conj())
        # reducing one step of a two-step product of (|0>+|1>)/sqrt(2) stays pure
        red = partial_trace(joint, [2, 2], keep=[0])
        assert np.allclose(red, 0.5 * np.ones((2, 2)))

    def test_trace_preserved(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(8, 8))
        m = m @ m.T
        m /= np.trace(m)
        red = partial_trace(m, [2, 2, 2], keep=[0, 2])
        assert np.trace(red) == pytest.approx(1.0)
        assert red.shape == (4, 4)


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

    def test_real_downcast_keeps_real_vectors(self):
        a = np.array([[1.0, 0.5], [0.5, 2.0]], dtype=complex)
        _, evecs = eigh(a)
        assert not np.iscomplexobj(evecs)
