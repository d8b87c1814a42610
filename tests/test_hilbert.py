"""Symmetric-subspace state helpers and multi-index bookkeeping."""

from decimal import Context, Decimal
from functools import reduce
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qavar.hilbert import (
    HERMITIAN_TOL,
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

    def test_rejects_nan_amplitude(self):
        # a NaN norm fails every comparison, so the check must be written to fail on it
        with pytest.raises(ValueError, match="normalized"):
            SymmetricState(n_atoms=1, amplitudes=np.array([np.nan, 0.5]))

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

    @pytest.mark.parametrize("n_atoms", [68, 1000, 1030, 5000])
    def test_plus_state_past_int64_binomials(self, n_atoms):
        # C(68, 34) > 2^64 and float(C(1030, 515)) overflows: each amplitude
        # is the root of one exact quotient C(N, n) / 2^N
        a = plus_step_state(n_atoms).amplitudes
        assert np.array_equal(a, a[::-1])
        assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-15)
        if n_atoms <= 1029:  # the coherent state's float binomials are finite
            assert np.allclose(a, coherent_step_state(n_atoms, np.pi / 2, 0.0).amplitudes,
                               rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n_atoms", [1, 2, 3, 67, 68, 500, 1029])
    def test_binomial_states_match_float_binomials(self, n_atoms):
        # wherever float(C(N, n)) is finite the coherent state keeps the float
        # binomials' bits; the plus state keeps them at N = 1 and even N, where
        # sqrt(float(C)) 2^(-N/2) is rounded once too
        n = np.arange(n_atoms + 1)
        binom = [comb(n_atoms, j) for j in range(n_atoms + 1)]
        root = np.sqrt(np.array(binom, dtype=float))
        plus = plus_step_state(n_atoms).amplitudes
        assert np.array_equal(plus, np.sqrt([b / 2**n_atoms for b in binom]))
        if n_atoms == 1 or n_atoms % 2 == 0:
            assert np.array_equal(plus, root * 2.0 ** (-0.5 * n_atoms))
        c, s = np.cos(0.55), np.sin(0.55)
        assert np.array_equal(coherent_step_state(n_atoms, 1.1, 0.4).amplitudes,
                              root * c ** (n_atoms - n) * (s * np.exp(0.4j)) ** n)

    def test_plus_state_within_one_ulp_of_exact_root(self):
        ctx = Context(prec=50)
        for n_atoms in range(1, 65):
            a = plus_step_state(n_atoms).amplitudes.real
            for j, amp in enumerate(a):
                exact = ctx.sqrt(ctx.divide(comb(n_atoms, j), 2**n_atoms))
                assert abs(Decimal(float(amp)) - exact) <= Decimal(float(np.spacing(amp)))

    @pytest.mark.parametrize("n_atoms", [1030, 5000])
    @pytest.mark.parametrize("polar", [0.0, 1.1, np.pi, 5.0])
    def test_coherent_state_at_any_atom_count(self, n_atoms, polar):
        # float(C(N, n)) is finite up to N = 1029, where the state builds;
        # from N = 1030 it overflows and no state is built
        a = coherent_step_state(1029, polar, 0.3).amplitudes
        assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)
        assert np.abs(a).argmax() == pytest.approx(1029 * np.sin(polar / 2) ** 2, abs=1.0)
        with pytest.raises(OverflowError):
            coherent_step_state(n_atoms, polar, 0.3)

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

    def test_exactly_symmetric_input_is_solved_as_is(self):
        # (a + a^T) / 2 == a bit for bit, so LAPACK gets a itself: the
        # symmetrized copy's bits, with no copy made
        rng = np.random.default_rng(6)
        a = rng.normal(size=(50, 50))
        a = a + a.T
        sym = np.add(a, a.T, order="F")
        sym *= 0.5
        with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as spy:
            evals, evecs = eigh(a)
        assert spy.call_args.args[0] is a
        want = np.linalg.eigh(sym)
        assert np.array_equal(evals, want[0]) and np.array_equal(evecs, want[1])

    def test_nearly_symmetric_input_is_symmetrized(self):
        # an asymmetry within HERMITIAN_TOL still goes through (a + a^T) / 2
        rng = np.random.default_rng(7)
        a = rng.normal(size=(50, 50))
        a = a + a.T
        a[3, 5] += 0.5 * HERMITIAN_TOL * np.abs(a).max()
        with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as spy:
            eigh(a)
        solved = spy.call_args.args[0]
        assert solved is not a and np.array_equal(solved, solved.T)
        assert np.array_equal(solved, 0.5 * (a + a.T))
        a[3, 5] += 2.0 * HERMITIAN_TOL * np.abs(a).max()
        with pytest.raises(ValueError, match="Hermitian"):
            eigh(a)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        a = np.eye(3)
        a[1, 2] = a[2, 1] = bad
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            eigh(a)

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
