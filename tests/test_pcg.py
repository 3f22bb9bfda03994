import numpy as np
import pytest

from cglb import nystrom, pcg
from cglb.errors import BreakdownDetected
from helpers import random_instance


def make_system(rng, n=60, m=8, noise_log_range=(-2.0, 0.0)):
    inst = random_instance(rng, n=n, m=m, noise_log_range=noise_log_range)
    yc = inst.y - inst.params.mean
    matvec = lambda p: inst.khat @ p  # noqa: E731
    precond = lambda r: nystrom.solve_q(inst.factor, r)  # noqa: E731
    return inst, yc, matvec, precond


class TestPcgSolve:
    def test_identity_system_one_iteration(self):
        y = np.array([1.0, -2.0, 3.0])
        state = pcg.pcg_solve(lambda p: p, lambda r: r, y, eps=1e-20, max_iters=10)
        assert state.iters == 1
        assert state.converged
        np.testing.assert_allclose(state.v, y, atol=1e-12)

    def test_warm_start_at_solution_zero_iterations(self):
        rng = np.random.default_rng(0)
        inst, yc, matvec, precond = make_system(rng)
        v_star = np.linalg.solve(inst.khat, yc)
        state = pcg.pcg_solve(matvec, precond, yc, v0=v_star, eps=1e-10)
        assert state.iters == 0
        assert state.converged

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(1)
        for n in (30, 80):
            inst, yc, matvec, precond = make_system(rng, n=n)
            state = pcg.pcg_solve(matvec, precond, yc, eps=1e-26, max_iters=n)
            dense = np.linalg.solve(inst.khat, yc)
            assert np.linalg.norm(state.v - dense) <= 1e-8 * np.linalg.norm(dense)

    def test_gap_is_final_preconditioned_residual(self):
        rng = np.random.default_rng(2)
        inst, yc, matvec, precond = make_system(rng)
        state = pcg.pcg_solve(matvec, precond, yc, eps=1e-3)
        recomputed = float(state.r @ nystrom.solve_q(inst.factor, state.r))
        assert state.gap == pytest.approx(recomputed, rel=1e-9)
        # residual consistent with the iterate
        np.testing.assert_allclose(state.r, yc - inst.khat @ state.v,
                                   atol=1e-8 * np.linalg.norm(yc))

    def test_stopping_guarantee(self):
        rng = np.random.default_rng(3)
        for eps in (1.0, 1e-3):
            inst, yc, matvec, precond = make_system(rng)
            state = pcg.pcg_solve(matvec, precond, yc, eps=eps, max_iters=inst.khat.shape[0])
            assert state.converged
            assert state.gap <= 2.0 * eps

    def test_default_cap_allows_n_iterations(self):
        # 1200 distinct eigenvalues over four decades: unpreconditioned CG needs
        # about 1100 iterations here, more than a fixed cap of 1000 allows.
        n = 1200
        lam = np.logspace(0.0, np.log10(1.5e4), n)
        state = pcg.pcg_solve(lambda p: lam * p, lambda r: r, np.ones(n), eps=1e-13)
        assert state.converged
        assert 1000 < state.iters <= n
        np.testing.assert_allclose(state.v, 1.0 / lam, rtol=1e-6)

    def test_monotone_lower_bound(self):
        # The quadratic lower bound 2 y.T v - v.T Khat v = v.T (y + r) after k
        # iterations, k = 0..iters: CG is deterministic, so a solve capped at
        # k iterations stops at the k-th iterate of the uncapped one.
        rng = np.random.default_rng(4)
        inst, yc, matvec, precond = make_system(rng, n=50)
        state = pcg.pcg_solve(matvec, precond, yc, eps=1e-24, max_iters=50)
        capped = [pcg.pcg_solve(matvec, precond, yc, eps=1e-24, max_iters=k)
                  for k in range(state.iters + 1)]
        hist = np.array([float(s.v @ (yc + s.r)) for s in capped])
        assert np.all(np.diff(hist) >= -1e-8 * np.maximum(1.0, np.abs(hist[:-1])))

    def test_negative_euclidean_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tol"):
            pcg.cg_solve_euclidean(lambda p: p, np.ones(3), tol=-0.01)

    def test_breakdown_on_indefinite_matrix(self):
        a = np.diag([1.0, -1.0])
        with pytest.raises(BreakdownDetected):
            pcg.pcg_solve(lambda p: a @ p, lambda r: r, np.array([0.1, 1.0]),
                          eps=1e-20, max_iters=5)

    def test_preconditioner_agrees_with_identity(self):
        rng = np.random.default_rng(5)
        iters_pre, iters_id = [], []
        for _ in range(20):
            inst, yc, matvec, precond = make_system(rng, n=60, m=12,
                                                    noise_log_range=(-2.0, -1.0))
            tol = 1e-22
            s_pre = pcg.pcg_solve(matvec, precond, yc, eps=tol, max_iters=60)
            s_id = pcg.pcg_solve(matvec, lambda r: r, yc,
                                 eps=tol * inst.params.noise, max_iters=60)
            dense = np.linalg.solve(inst.khat, yc)
            assert np.linalg.norm(s_pre.v - dense) <= 1e-8 * np.linalg.norm(dense)
            assert np.linalg.norm(s_id.v - dense) <= 1e-6 * np.linalg.norm(dense)
            iters_pre.append(s_pre.iters)
            iters_id.append(s_id.iters)
        assert np.median(iters_pre) <= np.median(iters_id)


class TestWarmStart:
    def test_empty_cache_gives_zeros(self):
        np.testing.assert_array_equal(pcg.warm_start(pcg.VCache(), 5), np.zeros(5))

    def test_dimension_change_clears(self):
        cache = pcg.VCache()
        cache.store(np.ones(4))
        np.testing.assert_array_equal(pcg.warm_start(cache, 6), np.zeros(6))

    def test_identical_parameters_zero_iterations(self):
        rng = np.random.default_rng(6)
        inst, yc, matvec, precond = make_system(rng)
        cache = pcg.VCache()
        first = pcg.pcg_solve(matvec, precond, yc, v0=pcg.warm_start(cache, yc.size),
                              eps=1e-6, max_iters=yc.size)
        cache.store(first.v)
        second = pcg.pcg_solve(matvec, precond, yc, v0=pcg.warm_start(cache, yc.size),
                               eps=1e-6, max_iters=yc.size)
        assert second.iters == 0

    def test_perturbed_parameters_cheaper_than_cold(self):
        rng = np.random.default_rng(7)
        warm_iters, cold_iters = [], []
        for _ in range(15):
            inst, yc, matvec, precond = make_system(rng, n=50)
            sol = pcg.pcg_solve(matvec, precond, yc, eps=1e-16, max_iters=50)
            # perturb the system slightly: theta nudged -> Khat nudged
            khat_p = inst.khat * (1.0 + 1e-3)
            mv_p = lambda p: khat_p @ p  # noqa: E731
            warm = pcg.pcg_solve(mv_p, precond, yc, v0=sol.v.copy(), eps=1e-10)
            cold = pcg.pcg_solve(mv_p, precond, yc, eps=1e-10)
            warm_iters.append(warm.iters)
            cold_iters.append(cold.iters)
        assert np.median(warm_iters) <= np.median(cold_iters)


class TestEuclideanCG:
    def test_stops_on_relative_residual(self):
        rng = np.random.default_rng(8)
        inst, yc, matvec, _ = make_system(rng, n=40)
        tol = 1e-6
        state = pcg.cg_solve_euclidean(matvec, yc, tol=tol, max_iters=200)
        assert np.linalg.norm(yc - inst.khat @ state.v) <= tol * np.linalg.norm(yc) * (1 + 1e-9)
