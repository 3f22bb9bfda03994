import numpy as np
import pytest

from cglb import bounds, kernels, linalg, nystrom
from cglb.errors import DimensionMismatch
from cglb.kernels import HyperParams
from helpers import dense_qhat, random_instance


class TestBuild:
    def test_full_inducing_set_zero_residual(self):
        rng = np.random.default_rng(0)
        n = 30
        X = rng.uniform(-1, 1, (n, 2))
        p = HyperParams.from_constrained(1.5, [0.8, 1.1], 0.2, 0.0, ndim=2)
        f = nystrom.sparse_parts(p, X, X).factor
        assert abs(f.trace_kff - f.trace_qff) <= 1e-8 * n

    def test_diagonal_factor(self):
        # No inducing points: Qhat = sigma^2 I, and every routine has a closed form.
        f = nystrom.from_half_factor(np.zeros((0, 7)), 0.5, trace_kff=7.0)
        assert f.m == 0 and f.n == 7
        assert f.trace_qff == 0.0
        np.testing.assert_allclose(nystrom.solve_q(f, np.ones(7)), np.ones(7) / 0.5)
        b = np.arange(14.0).reshape(7, 2) - 3.0
        b[0, 0] = -0.0
        x = nystrom.solve_q(f, b)
        np.testing.assert_array_equal(x, b / 0.5)
        np.testing.assert_array_equal(np.signbit(x), np.signbit(b))
        np.testing.assert_array_equal(nystrom.eig_q(f), np.full(7, 0.5))
        assert nystrom.trace_qinv(f) == 7 / 0.5
        assert nystrom.logdet_q(f) == 7 * np.log(0.5)
        assert bounds.logdet_lower_top(f) == 7 * np.log(0.5) + np.log1p(7.0 / 0.5)

    def test_qff_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(-2, 2, (100, 2))
        p = HyperParams.from_constrained(1.0, [0.9, 0.7], 0.3, 0.0, ndim=2)
        Z = X[rng.choice(100, 10, replace=False)]
        f = nystrom.sparse_parts(p, X, Z).factor
        kuu = kernels.kernel_matrix(Z, Z, p)
        kuf = kernels.kernel_matrix(Z, X, p)
        qff_dense = kuf.T @ np.linalg.solve(kuu, kuf)
        np.testing.assert_allclose(f.a.T @ f.a, qff_dense, atol=1e-8)


class TestSolveQ:
    def test_zero_rhs(self):
        rng = np.random.default_rng(2)
        inst = random_instance(rng)
        np.testing.assert_array_equal(nystrom.solve_q(inst.factor, np.zeros(inst.factor.n)), 0.0)

    def test_dense_reconstruction(self):
        rng = np.random.default_rng(3)
        inst = random_instance(rng, n=50, m=8)
        qhat = dense_qhat(inst)
        b = rng.standard_normal(50)
        x = nystrom.solve_q(inst.factor, b)
        assert np.linalg.norm(qhat @ x - b) <= 1e-9 * np.linalg.norm(b)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(4)
        inst = random_instance(rng)
        with pytest.raises(DimensionMismatch):
            nystrom.solve_q(inst.factor, np.ones(inst.factor.n + 1))

    def test_matrix_rhs(self):
        rng = np.random.default_rng(5)
        inst = random_instance(rng, n=30, m=5)
        b = rng.standard_normal((30, 4))
        x = nystrom.solve_q(inst.factor, b)
        np.testing.assert_allclose(dense_qhat(inst) @ x, b, atol=1e-9)


class TestLogdetEig:
    def test_full_set_matches_dense(self):
        rng = np.random.default_rng(6)
        n = 25
        X = rng.uniform(-1, 1, (n, 2))
        p = HyperParams.from_constrained(1.2, [1.0, 0.6], 0.4, 0.0, ndim=2)
        f = nystrom.sparse_parts(p, X, X).factor
        khat = kernels.kernel_matrix(X, None, p) + p.noise * np.eye(n)
        expected = linalg.cholesky(khat).logdet()
        assert abs(nystrom.logdet_q(f) - expected) <= 1e-7 * max(1.0, abs(expected))

    def test_zero_half_factor(self):
        f = nystrom.from_half_factor(np.zeros((3, 9)), 1.0, 9.0)
        assert nystrom.logdet_q(f) == 0.0
        np.testing.assert_allclose(nystrom.eig_q(f), np.ones(9))

    def test_eig_matches_dense(self):
        rng = np.random.default_rng(7)
        inst = random_instance(rng, n=40, m=7)
        levels = nystrom.eig_q(inst.factor)
        dense = np.sort(np.linalg.eigvalsh(dense_qhat(inst)))[::-1]
        np.testing.assert_allclose(levels, dense, atol=1e-8)
        assert np.all(np.diff(levels) <= 1e-15)
        # trace identity
        total = inst.factor.trace_qff + inst.factor.n * inst.factor.sigma2
        assert abs(np.sum(levels) - total) <= 1e-8 * total

    def test_trace_qinv_matches_dense(self):
        rng = np.random.default_rng(8)
        inst = random_instance(rng, n=35, m=6)
        dense = np.trace(np.linalg.inv(dense_qhat(inst)))
        assert abs(nystrom.trace_qinv(inst.factor) - dense) <= 1e-8 * dense


class TestGreedySelect:
    def test_full_selection_is_permutation(self):
        rng = np.random.default_rng(9)
        n = 20
        X = rng.uniform(-1, 1, (n, 2))
        p = HyperParams.from_constrained(1.0, [0.5, 0.5], 1.0, 0.0, ndim=2)
        sel = nystrom.greedy_select(X, p, n)
        assert sel.complete
        assert sel.selection_order[0] == 0  # constant kernel diagonal: first argmax is row 0
        assert sorted(sel.selection_order.tolist()) == list(range(n))
        f = nystrom.sparse_parts(p, X, sel.Z).factor
        assert f.trace_kff - f.trace_qff <= 1e-8 * n

    def test_duplicate_points_stop_early(self):
        X = np.array([[0.0], [0.0], [2.0]])
        p = HyperParams.from_constrained(1.0, 1.0, 1.0, 0.0, ndim=1)
        sel = nystrom.greedy_select(X, p, 3)
        assert not sel.complete
        assert len(sel.selection_order) == 2  # one of the duplicates is skipped
        assert {0, 2} <= set(sel.selection_order.tolist()) or \
               {1, 2} <= set(sel.selection_order.tolist())

    def test_beats_random_selection(self):
        # Max-pivot greedy wins when the data is meaningfully correlated;
        # with near-independent points it wastes picks on isolated ones.
        rng = np.random.default_rng(10)
        n, m = 50, 5
        X = rng.uniform(-1, 1, (n, 2))
        p = HyperParams.from_constrained(1.0, [0.7, 0.7], 0.1, 0.0, ndim=2)

        def residual(Z):
            f = nystrom.sparse_parts(p, X, Z).factor
            return f.trace_kff - f.trace_qff

        greedy = residual(nystrom.greedy_select(X, p, m).Z)
        randoms = []
        for seed in range(20):
            idx = np.random.default_rng(seed).choice(n, m, replace=False)
            randoms.append(residual(X[idx]))
        assert greedy <= np.median(randoms)

    def test_zero_m_rejected(self):
        X = np.zeros((4, 1))
        p = HyperParams.from_constrained(1.0, 1.0, 1.0, 0.0, ndim=1)
        with pytest.raises(DimensionMismatch):
            nystrom.greedy_select(X, p, 0)


class TestPsdOrdering:
    def test_inverse_ordering_and_eigenvalue_domination(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            inst = random_instance(rng, n=30, m=5)
            qhat = dense_qhat(inst)
            diff_inv = np.linalg.inv(qhat) - np.linalg.inv(inst.khat)
            assert np.min(np.linalg.eigvalsh(diff_inv)) >= -1e-8
            lam_k = np.sort(np.linalg.eigvalsh(inst.khat))[::-1]
            lam_q = np.sort(np.linalg.eigvalsh(qhat))[::-1]
            assert np.all(lam_k >= lam_q - 1e-8)

    def test_trace_residual_nonnegative(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            inst = random_instance(rng, n=40, m=8)
            f = inst.factor
            raw = f.trace_kff - f.trace_qff
            assert raw >= -1e-9 * f.n * inst.params.variance
            assert f.trace_residual() >= 0.0
