"""Bound construction: dephasing averages, correlation operator, SLD, QAVAR."""

import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bound_reference import (
    cost_functional,
    dephasing_weights,
    eigen_sum,
    rho_bar,
    rho_prime,
    support_projector,
)
from mc_reference import mc_oracle
from qavar.core import (
    BoundWorkspace,
    JointProbe,
    ProductProbe,
    Scenario,
    joint_dim,
    layout_k,
    qavar,
)
from qavar import core
from qavar.hilbert import SymmetricState, ghz_step_state, plus_step_state, product_pure
from qavar.noise import NoiseParams, block_kernel, kernel_set

PAR = NoiseParams(alpha=2.0, beta=0.4, gamma=0.5, omega0=3.25e15)
QUIET = NoiseParams(alpha=0.0, beta=0.0, gamma=0.5, omega0=3.25e15)


def plus_scenario(n_atoms=1, k=1, T=1.0, noise=PAR):
    return Scenario(noise=noise, n_atoms=n_atoms, k=k, T=T,
                    probe=ProductProbe(plus_step_state(n_atoms)))


class TestRhoBar:
    def test_single_step_entrywise(self):
        ks = kernel_set(PAR, 1.0, 1)
        rb = rho_bar(plus_scenario())
        d = 0.5 * np.exp(-0.5 * ks.G[0, 0])
        assert np.allclose(rb, [[0.5, d], [d, 0.5]], atol=1e-15)

    def test_excitation_difference_squared(self):
        # N=2 single step: (0,2) coherence decays 4x faster in the exponent
        ks = kernel_set(PAR, 1.0, 1)
        rb = rho_bar(plus_scenario(n_atoms=2))
        w01 = rb[0, 1] / (0.5 * np.sqrt(0.5))
        w02 = rb[0, 2] / 0.25
        assert w02 == pytest.approx(np.exp(-2.0 * ks.G[0, 0]), rel=1e-12)
        assert w01 == pytest.approx(np.exp(-0.5 * ks.G[0, 0]), rel=1e-12)

    def test_diagonal_preserved(self):
        sc = plus_scenario(n_atoms=2, k=2, T=0.5)
        rb = rho_bar(sc)
        rho_in = np.outer(*[product_pure(plus_step_state(2), sc.n_steps)] * 2)
        assert np.allclose(np.diag(rb), np.diag(rho_in))

    def test_valid_density(self):
        rb = rho_bar(plus_scenario(n_atoms=1, k=2, T=0.7))
        scale = max(np.abs(rb).max(), 1.0)
        assert np.abs(rb - rb.conj().T).max() <= 1e-12 * scale
        assert abs(np.trace(rb) - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(rb)[0] >= -1e-10

    def test_stronger_noise_dephases_more(self):
        loud = NoiseParams(alpha=4.0, beta=0.8, gamma=0.5, omega0=3.25e15)
        a = np.abs(rho_bar(plus_scenario(k=2, T=0.5)))
        b = np.abs(rho_bar(plus_scenario(k=2, T=0.5, noise=loud)))
        assert np.all(b <= a + 1e-15)

    def test_zero_noise_identity(self):
        sc = plus_scenario(noise=QUIET, k=2)
        rb = rho_bar(sc)
        v = product_pure(plus_step_state(1), sc.n_steps)
        assert np.allclose(rb, np.outer(v, v), atol=1e-15)


class TestRhoPrime:
    def test_single_step_entrywise(self):
        ks = kernel_set(PAR, 1.0, 1)
        sc = plus_scenario()
        rp = rho_prime(sc)
        d = 0.5 * np.exp(-0.5 * ks.G[0, 0])
        # [a, b] entry carries i (b - a) H_1
        assert rp[0, 1] == pytest.approx(1j * d * ks.H[0], rel=1e-12)
        assert rp[1, 0] == pytest.approx(-1j * d * ks.H[0], rel=1e-12)
        assert rp[0, 0] == rp[1, 1] == 0.0

    def test_hermitian_traceless(self):
        rp = rho_prime(plus_scenario(n_atoms=2, k=2, T=0.4))
        assert np.allclose(rp, rp.conj().T, atol=1e-18)
        assert abs(np.trace(rp)) < 1e-18

    def test_entrywise_envelope(self):
        sc = plus_scenario(n_atoms=2, k=2, T=0.8)
        ks = kernel_set(PAR, 0.8, 2)
        rb = rho_bar(sc)
        rp = rho_prime(sc)
        envelope = sc.n_atoms * np.abs(ks.H).sum()
        assert np.all(np.abs(rp) <= np.abs(rb) * envelope + 1e-18)


class TestFactorTables:
    def test_weights_symmetric_unit_diagonal(self):
        G = block_kernel(PAR, 0.5, 3)
        W = dephasing_weights(G, 2)
        assert np.allclose(np.diag(W), 1.0)
        assert np.allclose(W, W.T)
        assert np.all((W > 0) & (W <= 1.0 + 1e-15))

    def test_window_merge_identity(self):
        # two adjacent length-T windows fully correlated in excitation
        # behave as one window of length 2T: the (0,0)-(1,1) coherence
        # weight must match the single-window weight at 2T exactly
        T = 0.8
        W2 = dephasing_weights(block_kernel(PAR, T, 2), 1)
        W1 = dephasing_weights(block_kernel(PAR, 2 * T, 1), 1)
        i00 = 0  # (0, 0)
        i11 = 3  # (1, 1)
        assert W2[i00, i11] == pytest.approx(W1[0, 1], rel=1e-12)

    @pytest.mark.parametrize("n_atoms, k, tau", [(2, 4, 2.0), (8, 2, 2.0), (3, 3, 3.0)])
    def test_workspace_weights_match_reference(self, n_atoms, k, tau):
        # the workspace reads W off the (2N+1)^K difference table: the
        # reference's D^2 formula to roundoff, and exactly symmetric and
        # spin-flip invariant (F maps index a to D - 1 - a)
        ws = BoundWorkspace(PAR, n_atoms, k, tau / k)
        W = ws._blocks(()).block(0)
        assert np.abs(W / dephasing_weights(ws.kernels.G, n_atoms) - 1.0).max() <= 1e-12
        assert np.array_equal(W, W.T)
        assert np.array_equal(W, W[::-1, ::-1])


class TestSolveSld:
    def test_residual_small(self):
        sc = plus_scenario(n_atoms=1, k=2, T=0.5)
        rb = rho_bar(sc)
        rp = rho_prime(sc)
        L = qavar(sc, want_sld=True).sld
        resid = 0.5 * (L @ rb + rb @ L) - rp
        assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(rp)
        assert np.allclose(L, L.conj().T, atol=1e-12 * np.abs(L).max())

    def test_trace_route_matches_eigensum(self):
        # Tr(rho_bar L^2)/(2 w0^2) must reproduce the eigenbasis correction sum
        for sc in (plus_scenario(k=2, T=0.5),
                   plus_scenario(n_atoms=2, k=1, T=1.3),
                   Scenario(noise=PAR, n_atoms=2, k=1, T=0.9,
                            probe=ProductProbe(ghz_step_state(2)))):
            res = qavar(sc, want_sld=True)
            rb = rho_bar(sc)
            tr_corr = np.trace(rb @ res.sld @ res.sld).real / (2 * PAR.omega0**2)
            assert tr_corr == pytest.approx(res.correction, rel=1e-8)


class TestQavar:
    def test_single_step_closed_form(self):
        sc = plus_scenario()
        ks = kernel_set(PAR, 1.0, 1)
        res = qavar(sc)
        want = ks.sigma2_lo - np.exp(-ks.G[0, 0]) * ks.H[0] ** 2 / (2 * PAR.omega0**2)
        assert res.sigma2_q == pytest.approx(want, rel=1e-10)
        assert res.sigma2_lo == ks.sigma2_lo
        assert res.correction == pytest.approx(res.sigma2_lo - res.sigma2_q, rel=1e-12)

    def test_bounds_sandwich(self):
        for sc in (plus_scenario(), plus_scenario(n_atoms=2, k=2, T=0.4),
                   plus_scenario(k=3, T=0.3)):
            res = qavar(sc)
            assert 0.0 <= res.sigma2_q <= res.sigma2_lo

    def test_zero_noise_bound_is_zero(self):
        res = qavar(plus_scenario(noise=QUIET, k=2, T=0.5))
        assert res.sigma2_lo == 0.0
        assert res.sigma2_q == pytest.approx(0.0, abs=1e-45)

    def test_joint_probe_vector_matches_product(self):
        sc = plus_scenario(k=2, T=0.5)
        v = product_pure(plus_step_state(1), sc.n_steps)
        sc_joint = Scenario(noise=PAR, n_atoms=1, k=2, T=0.5,
                            probe=JointProbe(vector=v))
        assert qavar(sc_joint).sigma2_q == pytest.approx(
            qavar(sc).sigma2_q, rel=1e-14
        )

    def test_phase_twist_invariance(self):
        # per-step excitation-phase rotations commute with the dephasing
        # channel and with the generator, so the bound cannot move
        sc = plus_scenario(n_atoms=2, k=2, T=0.6)
        base = qavar(sc).sigma2_q
        rng = np.random.default_rng(4)
        A = np.arange(3)  # excitation numbers per step, N=2
        v = product_pure(plus_step_state(2), sc.n_steps)
        phis = rng.uniform(0, 2 * np.pi, size=sc.n_steps)
        phase = np.ones(1)
        for phi in phis:
            phase = np.kron(phase, np.exp(1j * phi * A))
        twisted = qavar(Scenario(noise=PAR, n_atoms=2, k=2, T=0.6,
                                 probe=JointProbe(vector=phase * v)))
        assert twisted.sigma2_q == pytest.approx(base, rel=1e-12)

    def test_conjugation_symmetry(self):
        # complex-conjugate inputs give the same bound
        rng = np.random.default_rng(7)
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        v /= np.linalg.norm(v)
        a = qavar(Scenario(noise=PAR, n_atoms=1, k=2, T=0.5,
                           probe=JointProbe(vector=v)))
        b = qavar(Scenario(noise=PAR, n_atoms=1, k=2, T=0.5,
                           probe=JointProbe(vector=v.conj())))
        assert a.sigma2_q == pytest.approx(b.sigma2_q, rel=1e-12)

    def test_probe_validation(self):
        with pytest.raises(TypeError, match="vector"):
            JointProbe()
        with pytest.raises(ValueError, match="normalized"):
            qavar(Scenario(noise=PAR, n_atoms=1, k=1, T=1.0,
                           probe=JointProbe(vector=np.array([1.0, 1.0]))))
        with pytest.raises(ValueError, match="normalized"):
            qavar(Scenario(noise=PAR, n_atoms=1, k=1, T=1.0,
                           probe=JointProbe(vector=np.array([np.nan, 1.0]))))
        with pytest.raises(ValueError, match="atoms"):
            qavar(Scenario(noise=PAR, n_atoms=2, k=1, T=1.0,
                           probe=ProductProbe(plus_step_state(1))))


@settings(max_examples=20, deadline=None)
@given(
    alpha=st.floats(0.0, 4.0),
    beta=st.floats(0.0, 1.0),
    gamma=st.floats(0.1, 2.0),
    T=st.floats(0.1, 2.0),
    k=st.integers(1, 2),
    seed=st.integers(0, 2**31),
)
def test_bound_sandwich_property(alpha, beta, gamma, T, k, seed):
    """0 <= sigma2_q <= sigma2_lo for random pure inputs."""
    noise = NoiseParams(alpha=alpha, beta=beta, gamma=gamma, omega0=3.25e15)
    rng = np.random.default_rng(seed)
    dim = 2 ** (2 * k - 1)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    res = qavar(Scenario(noise=noise, n_atoms=1, k=k, T=T,
                         probe=JointProbe(vector=v)))
    slack = 1e-12 * max(res.sigma2_lo, 1e-300)
    assert -slack <= res.sigma2_q <= res.sigma2_lo + slack


@settings(max_examples=25, deadline=None)
@given(
    n_atoms=st.integers(1, 2),
    k=st.integers(1, 3),
    T=st.floats(0.2, 3.0),
    seed=st.integers(0, 2**31),
)
@example(n_atoms=1, k=2, T=1.0, seed=0)  # D = 8, the trivial group
@example(n_atoms=2, k=3, T=1.0, seed=0)  # D = 243, the symmetry blocks
@example(n_atoms=2, k=3, T=2.0, seed=362131)
def test_pure_input_phase_gauge_property(n_atoms, k, T, seed):
    """A pure input's excitation-basis phases are a gauge of the bound.

    With v = Z |v|, Z = diag(z), rho_bar(v) = Z rho_bar(|v|) Z^dag and Z
    commutes with U, so sigma2_q(v) = sigma2_q(|v|) and the SLD moves to
    Z L Z^dag = (z z^dag) o L.  The see-saw runs from |v| on this basis,
    and the product search over real amplitudes only.  Both calls solve
    the same magnitudes, so sigma2_q agrees bit for bit.
    The SLD is fixed only on rho_bar's support, so the two are compared
    through rho_bar L: off the support the pair ratios of near-zero
    eigenvalues are roundoff, and entrywise the SLDs differed by up to
    5e-7 relative at T = 0.2, where rho_bar is nearly pure.

    A product probe's step phases and signs are a gauge on every evaluate
    path, and |v| keeps v's symmetries: the trivial group below
    BLOCK_MIN_DIM, the two reversal blocks for a generic step state, and
    the four spin-flip x reversal blocks for a_n = a_(N-n) with
    phi_n = phi_(N-n) (exact by IEEE commutativity).
    """
    ws = BoundWorkspace(PAR, n_atoms, k, T)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=ws.dim) + 1j * rng.normal(size=ws.dim)
    v /= np.linalg.norm(v)
    z = v / np.abs(v)
    twisted = ws.evaluate(v, want_sld=True)
    plain = ws.evaluate(np.abs(v), want_sld=True)
    assert twisted.sigma2_q == plain.sigma2_q
    rb = np.outer(v, v.conj()) * ws._blocks(()).block(0)
    moved = rb @ (np.outer(z, z.conj()) * plain.sld)
    assert np.abs(rb @ twisted.sld - moved).max() <= 1e-10 * np.abs(moved).max()

    for flip in (False, True):
        a = rng.normal(size=n_atoms + 1)
        phi = rng.uniform(0.0, 2.0 * np.pi, size=n_atoms + 1)
        if flip:
            a, phi = a + a[::-1], phi + phi[::-1]
        a /= np.linalg.norm(a)
        v = product_pure(SymmetricState(n_atoms, a * np.exp(1j * phi)), ws.n_steps)
        with mock.patch.object(core, "eigh", wraps=core.eigh) as spy:
            twisted, plain = [ws.evaluate(w) for w in (v, np.abs(v))]
        assert spy.call_count == 2 * (1 if ws.dim < core.BLOCK_MIN_DIM else 4 if flip else 2)
        assert twisted.sigma2_q == plain.sigma2_q


@settings(max_examples=20, deadline=None)
@given(
    n_atoms=st.integers(1, 2),
    k=st.integers(1, 2),
    T=st.floats(0.2, 2.0),
    p=st.floats(0.01, 0.99),
    seed=st.integers(0, 2**31),
)
def test_bound_concave_in_the_input_property(n_atoms, k, T, p, seed):
    """No mixture of two pure inputs beats the mixture of their bounds.

    rho_bar is linear in rho_in and the QFI is convex, so sigma2_q is
    concave in rho_in and its minimum over inputs is reached at a pure
    state: the library takes pure inputs only and loses nothing.  The
    mixture's rho_bar is built here and summed by the reference; the two
    pure values come from the library.
    """
    rng = np.random.default_rng(seed)
    dim = joint_dim(n_atoms, k)
    vs = rng.normal(size=(2, dim)) + 1j * rng.normal(size=(2, dim))
    vs /= np.linalg.norm(vs, axis=1, keepdims=True)
    scens = [Scenario(noise=PAR, n_atoms=n_atoms, k=k, T=T, probe=JointProbe(vector=v))
             for v in vs]
    pure = [qavar(sc) for sc in scens]
    mix = p * np.outer(vs[0], vs[0].conj()) + (1.0 - p) * np.outer(vs[1], vs[1].conj())
    rb = mix * dephasing_weights(kernel_set(PAR, T, k).G, n_atoms)
    s2lo = pure[0].sigma2_lo
    mixed = s2lo - eigen_sum(rb, rho_prime(scens[0], rb), PAR.omega0)
    assert mixed >= p * pure[0].sigma2_q + (1.0 - p) * pure[1].sigma2_q - 1e-12 * s2lo


class TestCostFunctional:
    def test_parabola_through_known_points(self):
        sc = plus_scenario(k=2, T=0.5)
        res = qavar(sc, want_sld=True)
        rho_in = np.outer(*[product_pure(plus_step_state(1), sc.n_steps)] * 2)
        L = res.sld
        zero = np.zeros_like(L)
        assert cost_functional(rho_in, zero, sc) == pytest.approx(res.sigma2_lo, rel=1e-12)
        assert cost_functional(rho_in, L, sc) == pytest.approx(res.sigma2_q, rel=1e-10)
        assert cost_functional(rho_in, 2.0 * L, sc) == pytest.approx(res.sigma2_lo, rel=1e-10)

    def test_upper_bounds_qavar(self):
        sc = plus_scenario(k=2, T=0.5)
        res = qavar(sc, want_sld=True)
        rho_in = np.outer(*[product_pure(plus_step_state(1), sc.n_steps)] * 2)
        for scale in (-0.5, 0.3, 0.9, 1.5):
            c = cost_functional(rho_in, scale * res.sld, sc)
            assert c >= res.sigma2_q - 1e-12 * res.sigma2_lo


class TestMcOracle:
    def test_zero_noise_exact(self):
        sc = plus_scenario(noise=QUIET, k=1)
        out = mc_oracle(sc, n_samples=100, seed=0)
        v = plus_step_state(1).amplitudes
        assert np.allclose(out.rho_bar, np.outer(v, v), atol=1e-15)
        assert np.allclose(out.rho_prime, 0.0, atol=1e-18)
        assert np.allclose(out.rho_bar_se, 0.0, atol=1e-15)

    def test_deterministic(self):
        sc = plus_scenario(k=1)
        a = mc_oracle(sc, n_samples=500, seed=11)
        b = mc_oracle(sc, n_samples=500, seed=11)
        assert np.array_equal(a.rho_bar, b.rho_bar)
        assert np.array_equal(a.rho_prime_se, b.rho_prime_se)

    def test_chunking_invariant(self):
        sc = plus_scenario(k=1)
        a = mc_oracle(sc, n_samples=1000, seed=3, chunk=64)
        b = mc_oracle(sc, n_samples=1000, seed=3, chunk=1000)
        assert np.allclose(a.rho_bar, b.rho_bar, atol=1e-14)
        assert np.allclose(a.rho_prime, b.rho_prime, atol=1e-14)

    def test_matches_exact_within_5_se(self):
        sc = plus_scenario(n_atoms=1, k=2, T=0.8)
        out = mc_oracle(sc, n_samples=60_000, seed=5)
        rb = rho_bar(sc)
        rp = rho_prime(sc)
        for exact, mc, se in ((rb, out.rho_bar, out.rho_bar_se),
                              (rp, out.rho_prime, out.rho_prime_se)):
            dre = np.abs(mc.real - exact.real)
            dim_ = np.abs(mc.imag - exact.imag)
            assert np.all(dre <= 5.0 * se.real + 1e-12)
            assert np.all(dim_ <= 5.0 * se.imag + 1e-12)

    def test_se_scales_with_samples(self):
        sc = plus_scenario(k=1)
        small = mc_oracle(sc, n_samples=1000, seed=2)
        large = mc_oracle(sc, n_samples=16_000, seed=2)
        ratio = small.rho_bar_se.real[0, 1] / large.rho_bar_se.real[0, 1]
        assert ratio == pytest.approx(4.0, rel=0.25)

    def test_rejects_tiny_sample_count(self):
        with pytest.raises(ValueError):
            mc_oracle(plus_scenario(), n_samples=1, seed=0)


class TestWorkspaceReuse:
    def test_matches_one_shot(self):
        ws = BoundWorkspace(PAR, 1, 2, 0.5)
        v = product_pure(plus_step_state(1), 3)
        r1 = ws.evaluate(v)
        r2 = qavar(plus_scenario(k=2, T=0.5))
        assert r1.sigma2_q == pytest.approx(r2.sigma2_q, rel=1e-14)

    @pytest.mark.parametrize("n_atoms, k, message", [
        (0, 2, "n_atoms must be >= 1, got 0"),
        (-1, 2, "n_atoms must be >= 1, got -1"),
        (-3, 2, "n_atoms must be >= 1, got -3"),
        (1, 0, "k must be >= 1, got 0"),
        (1, -1, "k must be >= 1, got -1"),
    ])
    def test_rejects_bad_layout(self, n_atoms, k, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            BoundWorkspace(PAR, n_atoms, k, 1.0)

    @staticmethod
    def _traced_peak(v):
        """tracemalloc peak of a D = 2187 workspace build plus one evaluation of v."""
        tracemalloc.start()
        try:
            ws = BoundWorkspace(PAR, 2, 4, 2.5 / 4)
            ws.evaluate(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / ws.dim**2

    def test_block_path_builds_no_full_weights(self):
        # a |+> evaluation at D = 2187 takes the four blocks, each built off
        # the difference table in row chunks and dropped once solved, so no
        # (D, D) W and no block weights are kept: one W is 8 B/D^2 alone,
        # the stored block weights took the peak to 6.3 B/D^2, now near 4
        assert self._traced_peak(product_pure(plus_step_state(2), 7)) < 6

    def test_two_block_path_keeps_no_block_weights(self):
        # a real, P-symmetric step state with a_0 != a_2 takes the two
        # reversal blocks (1134 and 1053): 16.8 B/D^2 with stored block
        # weights, near 11 when each block is built per evaluation
        a = np.array([0.3, 0.5, 0.8])
        state = SymmetricState(n_atoms=2, amplitudes=a / np.linalg.norm(a))
        assert self._traced_peak(product_pure(state, 7)) < 14

    @pytest.mark.parametrize("n_atoms, k", [(1, 4), (2, 3), (3, 2)])
    @pytest.mark.parametrize("gens", [(), ("P",), ("P", "F"), ("F",)],
                             ids=["0", "1", "2", "F"])
    def test_block_builder_matches_orbit_formula(self, n_atoms, k, gens):
        # each block built off the table equals (x_b x_b^T) * W_i bit for bit,
        # W_i[O, O'] = s s' sum_h chi_i(h) W[r, h r'] formed from the full W
        # with the h = 0 term first, then +- each further one, then * s s'
        ws = BoundWorkspace(PAR, n_atoms, k, 0.6)
        W = ws._blocks(()).block(0)
        x = np.abs(np.random.default_rng(n_atoms + k).normal(size=ws.dim))
        elements = [np.arange(ws.dim)]  # element j applies the generators named by j's bits
        for g in gens:
            elements += [ws._gens[g][e] for e in elements]
        chars = scipy.linalg.hadamard(len(elements))
        group = ws._blocks(gens)
        assert sum(idx.size for idx in group.index) == ws.dim
        for i, idx in enumerate(group.index):
            s = sum(e[idx] == idx for e in elements) ** -0.5  # |stabilizer|^(-1/2)
            Wi = W[np.ix_(idx, idx)]
            for h in range(1, len(elements)):
                (np.add if chars[i, h] > 0 else np.subtract)(Wi, W[np.ix_(idx, elements[h][idx])],
                                                            out=Wi)
            Wi *= np.outer(s, s)
            assert np.array_equal(group.block(i, x), np.outer(x[idx], x[idx]) * Wi)
            assert np.array_equal(group.block(i), Wi)

    @pytest.mark.parametrize("gens", [(), ("P",), ("F",), ("P", "F")],
                             ids=["trivial", "P", "F", "PF"])
    def test_sld_blocks_of_every_group(self, gens):
        # pair_sum returns K's block K_ii' between the orbit bases of each
        # coupled pair; Q_i[h r, O] = chi_i(h) / sqrt(|O|) scatters them back,
        # K = sum_pairs Q_i K_ii' Q_i'^T (and its -transpose for i != i'),
        # which is the trivial group's K
        ws = BoundWorkspace(PAR, 2, 2, 0.7)
        x = np.abs(product_pure(plus_step_state(2), ws.n_steps))  # P- and F-exact
        full_total, (K_full,) = ws._blocks(()).pair_sum(x, want_sld=True)
        group = ws._blocks(gens)
        total, blocks = group.pair_sum(x, want_sld=True)
        assert total == pytest.approx(full_total, rel=1e-13)
        elements = [np.arange(ws.dim)]
        for g in gens:
            elements += [ws._gens[g][e] for e in elements]
        chars = scipy.linalg.hadamard(len(elements))
        Q = []
        for i, idx in enumerate(group.index):
            Qi = np.zeros((ws.dim, idx.size))
            for h, e in enumerate(elements):  # a stabilizer's repeats sum up to 1 / sqrt(|O|)
                np.add.at(Qi, (e[idx], np.arange(idx.size)),
                          chars[i, h] * group.scale[i] / np.sqrt(len(elements)))
            Q.append(Qi)
        K = np.zeros((ws.dim, ws.dim))
        assert len(blocks) == len(group.pairs)
        for (i, j, *_), Kij in zip(group.pairs, blocks):
            assert Kij.shape == (group.index[i].size, group.index[j].size)
            part = Q[i] @ Kij @ Q[j].T
            K += part if i == j else part - part.T
        assert np.abs(K - K_full).max() <= 1e-12 * np.abs(K_full).max()

    def test_rejects_wrong_shape(self):
        # the input is a pure vector (D,); a (D, D) matrix is rejected too
        ws = BoundWorkspace(PAR, 1, 2, 0.5)
        for bad in (np.eye(4), np.eye(8) / 8, np.ones(7) / np.sqrt(7)):
            with pytest.raises(ValueError, match="shape"):
                ws.evaluate(bad)


def _step_state(kind, n_atoms, rng):
    """Step state of the given kind: plus, ghz, random real or random complex,
    or random with a_n = a_(N-n) (even, complex) or a_n = -a_(N-n) (odd, real)."""
    if kind == "plus":
        return plus_step_state(n_atoms)
    if kind == "ghz":
        return ghz_step_state(n_atoms)
    a = rng.normal(size=n_atoms + 1)
    if kind in ("complex", "even"):
        a = a + 1j * rng.normal(size=n_atoms + 1)
    if kind in ("even", "odd"):
        a = a + (1 if kind == "even" else -1) * a[::-1]  # bitwise (anti)symmetric
    return SymmetricState(n_atoms=n_atoms, amplitudes=a / np.linalg.norm(a))


def _block_and_full_match_reference(n_atoms, k, T, state, n_solves):
    """The block solve (n_solves eigensolves) equals the reference and the full solve.

    The floor is set to 1, so that every layout down to k = 1 takes the
    blocks, and then to D + 1 for the one (D, D) solve.
    At short T rho_bar is nearly pure, and the pairs below the reference's
    default support cut (1e-12 lam_max) are worth up to 4e-12 sigma2_lo at
    N = 3, k = 3, T = 0.2 (both paths agree to 1e-15 there); a 1e-15 cut
    keeps them.
    """
    sc = Scenario(noise=PAR, n_atoms=n_atoms, k=k, T=T, probe=ProductProbe(state))
    ws = BoundWorkspace(PAR, n_atoms, k, T)
    v = sc.joint_input()
    with mock.patch.object(core, "eigh", wraps=core.eigh) as spy:
        with mock.patch.object(core, "BLOCK_MIN_DIM", 1):
            blocks = ws.evaluate(v)
        assert spy.call_count == n_solves
        with mock.patch.object(core, "BLOCK_MIN_DIM", ws.dim + 1):
            full = ws.evaluate(v)
        assert spy.call_count == n_solves + 1
    rb = rho_bar(sc)
    ref = blocks.sigma2_lo - eigen_sum(rb, rho_prime(sc, rb), PAR.omega0, support_tol=1e-15)
    tol = 1e-13 * blocks.sigma2_lo
    assert abs(blocks.sigma2_q - ref) <= tol
    assert abs(blocks.sigma2_q - full.sigma2_q) <= tol


@settings(max_examples=30, deadline=None)
@given(
    n_atoms=st.integers(1, 3),
    k=st.integers(1, 3),
    kind=st.sampled_from(["plus", "ghz", "real", "complex"]),
    T=st.floats(0.2, 3.0),
    seed=st.integers(0, 2**31),
)
@example(n_atoms=3, k=3, kind="real", T=3.0, seed=6989)  # 7.9-8.4e-14 sigma2_lo off the reference
def test_parity_blocks_match_reference_property(n_atoms, k, kind, T, seed):
    """A product probe's block solve equals the reference and the full solve.

    Random states take the two step-reversal blocks, |+> and GHZ the four
    blocks of {1, P, F, PF}.  GHZ leaves rho_bar rank-deficient, with zero
    eigenvalues in every block.
    """
    state = _step_state(kind, n_atoms, np.random.default_rng(seed))
    _block_and_full_match_reference(n_atoms, k, T, state, 4 if kind in ("plus", "ghz") else 2)


@settings(max_examples=30, deadline=None)
@given(
    n_atoms=st.integers(1, 3),
    k=st.integers(1, 3),
    kind=st.sampled_from(["plus", "ghz", "even", "odd"]),
    T=st.floats(0.2, 3.0),
    seed=st.integers(0, 2**31),
)
def test_flip_blocks_match_reference_property(n_atoms, k, kind, T, seed):
    """Step states with a_n = +-a_(N-n) take the four spin-flip x reversal blocks.

    An F-odd step state such as (1, -1)/sqrt(2), (1, 0, -1)/sqrt(2) or
    (a, b, -b, -a) gives v[Fa] = -v[a] over the odd number of steps; its
    blocks are the F-even input's, relabeled, plus zero rows where v = 0.
    """
    state = _step_state(kind, n_atoms, np.random.default_rng(seed))
    _block_and_full_match_reference(n_atoms, k, T, state, 4)


class TestParityDispatch:
    @pytest.mark.parametrize("n_atoms, k", [(1, 2), (2, 2), (1, 3)])
    def test_eigensolves_per_input(self, monkeypatch, n_atoms, k):
        # at or above the floor: |+> and GHZ one solve per spin-flip x
        # reversal block (4 below), a random real product one per reversal
        # block, sizes (N+1)^k + p and p with p mirror pairs; SLD requests,
        # other vectors and every input below the floor: one (D, D) solve
        sizes = []
        solve = core.eigh

        def recording_eigh(a):
            sizes.append(a.shape)
            return solve(a)

        monkeypatch.setattr(core, "eigh", recording_eigh)
        ws = BoundWorkspace(PAR, n_atoms, k, 0.7)
        D, n_pal = ws.dim, (n_atoms + 1) ** k
        p = (D - n_pal) // 2
        rng = np.random.default_rng(3)
        plus, ghz, real = (product_pure(s, ws.n_steps) for s in (
            plus_step_state(n_atoms), ghz_step_state(n_atoms),
            _step_state("real", n_atoms, rng)))
        w = rng.normal(size=D) + 1j * rng.normal(size=D)
        w /= np.linalg.norm(w)
        for floor, rho_in, want_sld, want in ((D, plus, False, 4),
                                              (D, ghz, False, 4),
                                              (D, real, False, [(n_pal + p,) * 2, (p, p)]),
                                              (D, plus, True, [(D, D)]),
                                              (D, w, False, [(D, D)]),
                                              (D + 1, plus, False, [(D, D)]),
                                              (D + 1, real, False, [(D, D)])):
            monkeypatch.setattr(core, "BLOCK_MIN_DIM", floor)
            sizes.clear()
            ws.evaluate(rho_in, want_sld=want_sld)
            if want == 4:
                assert len(sizes) == 4 and sum(m for m, _ in sizes) == D
                assert all(m == n for m, n in sizes)
            else:
                assert sizes == want


def _spy_lapack_eigh(monkeypatch, record):
    """Call record(a, out) after every LAPACK eigensolve, full (numpy) or subset (scipy)."""
    for module in (np.linalg, scipy.linalg):
        def recording_eigh(a, *args, _solve=module.eigh, **kwargs):
            out = _solve(a, *args, **kwargs)
            record(a, out)
            return out

        monkeypatch.setattr(module, "eigh", recording_eigh)


class TestRealEigensolves:
    @pytest.mark.parametrize("probe, want_sld, n_solves", [
        ("small", False, 1),   # complex product probe, D = 8 < BLOCK_MIN_DIM
        ("complex", False, 2),  # generic complex product probe: two blocks
        ("even", False, 4),    # a_n = a_(N-n), phi_n = phi_(N-n): four blocks
        ("joint", False, 1),
        ("joint", True, 1),
    ])
    def test_every_eigensolve_is_real(self, monkeypatch, probe, want_sld, n_solves):
        # evaluate solves |v|, so no complex input reaches a complex eigensolve
        seen = []
        _spy_lapack_eigh(monkeypatch, lambda a, out: seen.append(a.dtype))
        rng = np.random.default_rng(5)
        n_atoms, k = (1, 2) if probe == "small" else (2, 3)
        ws = BoundWorkspace(PAR, n_atoms, k, 0.7)
        if probe == "joint":
            v = rng.normal(size=ws.dim) + 1j * rng.normal(size=ws.dim)
            v /= np.linalg.norm(v)
        else:
            state = _step_state("complex" if probe == "small" else probe, n_atoms, rng)
            v = product_pure(state, ws.n_steps)
        assert np.any(v.imag)
        res = ws.evaluate(v, want_sld=want_sld)
        assert seen == [np.dtype(np.float64)] * n_solves
        assert 0.0 <= res.sigma2_q <= res.sigma2_lo


class TestLayout:
    def test_joint_dim_and_cap(self):
        assert joint_dim(2, 3) == 243
        assert plus_scenario(n_atoms=2, k=3).dim == BoundWorkspace(PAR, 2, 3, 1.0).dim == 243

    def test_layout_k(self):
        assert layout_k(1.5, 0.5) == 3
        assert layout_k(0.3, 0.1) == 3  # 0.3 / 0.1 = 2.9999999999999996
        for tau in (0.7, 0.2):  # not a multiple; below one step
            with pytest.raises(ValueError, match="positive integer multiple"):
                layout_k(tau, 0.5)


def _probe(kind, n_atoms, dim, rng):
    """Test input of the given kind: real (signed), complex or ghz."""
    if kind == "ghz":
        return ProductProbe(ghz_step_state(n_atoms))
    v = rng.normal(size=dim)
    if kind == "complex":
        v = v + 1j * rng.normal(size=dim)
    return JointProbe(vector=v / np.linalg.norm(v))


@settings(max_examples=30, deadline=None)
@given(
    n_atoms=st.integers(1, 2),
    k=st.integers(1, 3),
    kind=st.sampled_from(["real", "complex", "ghz"]),
    T=st.floats(0.2, 1.2),
    seed=st.integers(0, 2**31),
)
def test_qfi_path_matches_reference_property(n_atoms, k, kind, T, seed):
    """The QFI form equals the eigenbasis sum over rho_bar'; its L is the SLD.

    The QFI form's roundoff is absolute, of order eps * sigma2_lo (it takes
    lam_r - lam_s from the spectrum, where the reference takes rho_bar'_rs
    from the entrywise definition), hence the absolute term.  The reference
    sum leaves out the pairs below its default support cut, which biases it
    low where rho_bar is nearly pure (up to 4e-12 sigma2_lo at N = 3, k = 3,
    T = 0.2; see `eigen_sum`).  In this draw, N <= 2 and T >= 0.2, the
    dropped pairs measured at most 2% of the tolerance (T = 0.2 to 0.5, all
    three kinds); a wider draw needs a smaller support_tol, not a looser
    tolerance.
    """
    dim = (n_atoms + 1) ** (2 * k - 1)
    sc = Scenario(noise=PAR, n_atoms=n_atoms, k=k, T=T,
                  probe=_probe(kind, n_atoms, dim, np.random.default_rng(seed)))
    res = qavar(sc, want_sld=True)
    rb = rho_bar(sc)
    rp = rho_prime(sc, rb)
    assert res.correction == pytest.approx(eigen_sum(rb, rp, PAR.omega0), rel=1e-12,
                                           abs=1e-14 * res.sigma2_lo)
    P = support_projector(rb)
    L = res.sld
    resid = P @ (rp - 0.5 * (L @ rb + rb @ L)) @ P
    assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(rp)


class TestKernelOfRhoBar:
    @pytest.mark.parametrize("k, rank", [(2, 8), (3, 32)])
    def test_ghz_kernel_is_finite_and_real(self, monkeypatch, k, rank):
        # GHZ at N=2 leaves most of rho_bar's spectrum at roundoff level,
        # of either sign; the bound and the SLD must stay finite there
        seen = []
        _spy_lapack_eigh(monkeypatch, lambda a, out: seen.extend((a.dtype, out[0])))
        ws = BoundWorkspace(PAR, 2, k, 0.6)
        v = product_pure(ghz_step_state(2), ws.n_steps)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = ws.evaluate(v, want_sld=True)
        dtype, lam = seen
        assert dtype == np.float64
        assert np.count_nonzero(lam > 1e-12 * lam[-1]) == rank
        assert np.isfinite(res.correction) and 0.0 < res.correction <= res.sigma2_lo
        assert np.all(np.isfinite(res.sld))

    @pytest.mark.parametrize("T", [2.0, 3.0])
    def test_bound_exact_under_full_dephasing(self, T):
        # at long T the GHZ coherences are gone and the correction falls to
        # 1e-10 .. 1e-21 of sigma2_lo; sigma2_q stays exact to roundoff
        sc = Scenario(noise=PAR, n_atoms=2, k=3, T=T,
                      probe=ProductProbe(ghz_step_state(2)))
        res = qavar(sc, want_sld=True)
        rb = rho_bar(sc)
        ref = eigen_sum(rb, rho_prime(sc, rb), PAR.omega0)
        assert ref < 1e-9 * res.sigma2_lo
        assert abs(res.correction - ref) <= 1e-14 * res.sigma2_lo
        assert np.all(np.isfinite(res.sld))
