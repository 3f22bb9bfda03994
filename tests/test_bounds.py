import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cglb import bounds, models, nystrom
from cglb.errors import DimensionMismatch
from helpers import dense_qhat, random_instance


def exact_logdet(mat):
    return float(np.sum(np.log(np.linalg.eigvalsh(mat))))


class TestAmGmBound:
    def test_zero_residual_is_logdet_q(self):
        f = nystrom.from_half_factor(np.eye(4), 0.5, trace_kff=4.0)
        assert bounds.logdet_upper_amgm(f) == nystrom.logdet_q(f)

    def test_scalar_log2_equality(self):
        # n=1, Khat=[2], Qhat=[1]: the AM-GM step is an equality, log 2 exactly.
        f = nystrom.from_half_factor(np.zeros((0, 1)), 1.0, trace_kff=1.0)
        assert bounds.logdet_upper_amgm(f) == pytest.approx(np.log(2.0), abs=1e-15)

    def test_upper_bounds_exact_and_below_trace(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            inst = random_instance(rng, n=30, m=4)
            amgm = bounds.logdet_upper_amgm(inst.factor)
            assert amgm >= exact_logdet(inst.khat) - 1e-8
            assert amgm <= bounds.logdet_upper_trace(inst.factor) + 1e-12


class TestTraceBound:
    def test_zero_residual(self):
        f = nystrom.from_half_factor(np.eye(3), 2.0, trace_kff=3.0)
        assert bounds.logdet_upper_trace(f) == nystrom.logdet_q(f)

    def test_first_order_agreement_with_amgm(self):
        # trace - amgm = n(x - log(1+x)) <= n x^2 / 2 with x = t/(n sigma^2)
        rng = np.random.default_rng(1)
        n = 40
        X = rng.uniform(-1, 1, (n, 1))
        from cglb.kernels import HyperParams
        p = HyperParams.from_constrained(1.0, 1.0, 0.5, 0.0, ndim=1)
        Z = nystrom.greedy_select(X, p, 25).Z  # large m: tiny residual
        f = nystrom.sparse_parts(p, X, Z).factor
        t = f.trace_residual()
        gap = bounds.logdet_upper_trace(f) - bounds.logdet_upper_amgm(f)
        assert 0.0 <= gap <= (t / f.sigma2) ** 2 / (2 * n) + 1e-12


class TestWaterFill:
    def test_equal_levels_split_evenly(self):
        alloc, nu = bounds.water_fill(np.array([1.0, 1.0]), 2.0)
        np.testing.assert_allclose(alloc, [1.0, 1.0])
        assert nu == pytest.approx(2.0)

    def test_kkt_hand_example(self):
        alloc, nu = bounds.water_fill(np.array([3.0, 1.0]), 1.0)
        np.testing.assert_allclose(alloc, [0.0, 1.0])
        assert nu == pytest.approx(2.0)
        value = np.sum(np.log(np.array([3.0, 1.0]) + alloc))
        assert value == pytest.approx(np.log(3.0) + np.log(2.0))

    def test_zero_budget(self):
        rng = np.random.default_rng(2)
        inst = random_instance(rng, n=20, m=3)
        f_zero = nystrom.from_half_factor(inst.factor.a, inst.factor.sigma2,
                                          trace_kff=inst.factor.trace_qff)
        assert bounds.logdet_upper_waterfill(f_zero) == pytest.approx(
            nystrom.logdet_q(f_zero), abs=1e-10)

    def test_budget_used_exactly(self):
        rng = np.random.default_rng(3)
        levels = np.exp(rng.uniform(-2, 2, 30))
        budget = float(np.exp(rng.uniform(-1, 2)))
        alloc, nu = bounds.water_fill(levels, budget)
        assert np.all(alloc >= 0)
        assert np.sum(alloc) == pytest.approx(budget, rel=1e-12)
        # filled channels sit exactly at the water level
        filled = alloc > 0
        np.testing.assert_allclose(levels[filled] + alloc[filled], nu)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_optimality_against_feasible_allocations(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 20))
        levels = np.exp(rng.uniform(-2, 2, n))
        budget = float(np.exp(rng.uniform(-2, 2)))
        alloc, _ = bounds.water_fill(levels, budget)
        best = np.sum(np.log(levels + alloc))
        # random feasible competitor on the simplex of size `budget`
        w = rng.dirichlet(np.ones(n))
        competitor = np.sum(np.log(levels + budget * w))
        assert competitor <= best + 1e-9

    def test_projected_gradient_oracle(self):
        # Independent solver for the same concave program: projected
        # gradient ascent with simplex projection.
        def project_simplex(v, s):
            u = np.sort(v)[::-1]
            css = np.cumsum(u) - s
            idx = np.arange(1, v.size + 1)
            cond = u - css / idx > 0
            rho = idx[cond][-1]
            theta = css[rho - 1] / rho
            return np.maximum(v - theta, 0.0)

        rng = np.random.default_rng(4)
        for _ in range(5):
            n = int(rng.integers(3, 12))
            levels = np.exp(rng.uniform(-1.5, 1.5, n))
            budget = float(np.exp(rng.uniform(-1, 1.5)))
            e = project_simplex(rng.uniform(0, 1, n), budget)
            lr = 0.1 * budget
            for _ in range(4000):
                grad = 1.0 / (levels + e)
                e = project_simplex(e + lr * grad, budget)
            pg_value = np.sum(np.log(levels + e))
            alloc, _ = bounds.water_fill(levels, budget)
            wf_value = np.sum(np.log(levels + alloc))
            assert wf_value >= pg_value - 1e-9
            assert abs(wf_value - pg_value) <= 1e-6 * max(1.0, abs(wf_value))


class TestLowerTop:
    def test_zero_budget_exact(self):
        f = nystrom.from_half_factor(np.eye(3) * 0.7, 0.3, trace_kff=0.49 * 3)
        assert bounds.logdet_lower_top(f) == pytest.approx(nystrom.logdet_q(f))

    def test_scalar_exact(self):
        f = nystrom.from_half_factor(np.zeros((0, 1)), 1.0, trace_kff=1.0)
        # Khat = [2]: budget 1, top eigenvalue 1 -> log(2) exactly
        assert bounds.logdet_lower_top(f) == pytest.approx(np.log(2.0))

    def test_attained_by_rank_one_update(self):
        rng = np.random.default_rng(5)
        inst = random_instance(rng, n=25, m=4)
        f = inst.factor
        qhat = dense_qhat(inst)
        w_eig, v_eig = np.linalg.eigh(qhat)
        top_vec = v_eig[:, -1]
        t = f.trace_residual()
        attained = exact_logdet(qhat + t * np.outer(top_vec, top_vec))
        assert abs(attained - bounds.logdet_lower_top(f)) <= 1e-9 * max(1.0, abs(attained))


class TestQuadBounds:
    def test_exact_solution_collapses(self):
        rng = np.random.default_rng(6)
        inst = random_instance(rng, n=30, m=5)
        yc = inst.y - inst.params.mean
        v = np.linalg.solve(inst.khat, yc)
        r = yc - inst.khat @ v
        lo, up = bounds.quad_bounds(inst.factor, yc, v, r)
        exact = float(yc @ v)
        assert lo == pytest.approx(exact, rel=1e-9)
        assert up == pytest.approx(exact, rel=1e-9)

    def test_zero_candidate_gives_sparse_quad(self):
        rng = np.random.default_rng(7)
        inst = random_instance(rng, n=30, m=5)
        yc = inst.y - inst.params.mean
        lo, up = bounds.quad_bounds(inst.factor, yc, np.zeros_like(yc), yc.copy())
        assert lo == 0.0
        assert up == pytest.approx(float(yc @ nystrom.solve_q(inst.factor, yc)), rel=1e-12)

    def test_brackets_dense_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            inst = random_instance(rng, n=40, m=6)
            yc = inst.y - inst.params.mean
            v = rng.standard_normal(40)
            r = yc - inst.khat @ v
            lo, up = bounds.quad_bounds(inst.factor, yc, v, r)
            exact = float(yc @ np.linalg.solve(inst.khat, yc))
            assert lo - 1e-8 <= exact <= up + 1e-8

    def test_width_is_preconditioned_residual_norm(self):
        rng = np.random.default_rng(9)
        inst = random_instance(rng, n=35, m=5)
        yc = inst.y - inst.params.mean
        v = rng.standard_normal(35)
        r = yc - inst.khat @ v
        lo, up = bounds.quad_bounds(inst.factor, yc, v, r)
        gap = float(r @ nystrom.solve_q(inst.factor, r))
        assert up - lo == pytest.approx(gap, rel=1e-12)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(10)
        inst = random_instance(rng, n=10, m=2)
        with pytest.raises(DimensionMismatch):
            bounds.quad_bounds(inst.factor, np.ones(10), np.ones(9), np.ones(10))


class TestOrderingChain:
    def test_chain_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(10, 60))
            inst = random_instance(rng, n=n, m=int(rng.integers(2, min(10, n))))
            exact = exact_logdet(inst.khat)
            wf = bounds.logdet_upper_waterfill(inst.factor)
            amgm = bounds.logdet_upper_amgm(inst.factor)
            trace = bounds.logdet_upper_trace(inst.factor)
            low = bounds.logdet_lower_top(inst.factor)
            assert low <= exact + 1e-8
            assert exact <= wf + 1e-8
            assert wf <= amgm + 1e-8
            assert amgm <= trace + 1e-8

    def test_monotone_in_inducing_superset(self):
        # Enlarging the greedy inducing set never loosens the AM-GM bound
        # in the smooth, correlated-data regime the models operate in.
        rng = np.random.default_rng(12)
        from cglb.kernels import HyperParams

        for trial in range(15):
            n = 40
            X = rng.uniform(0, 1, (n, 2))
            p = HyperParams.from_constrained(
                1.0, [0.5, 0.5], float(np.exp(rng.uniform(-2.0, 0.0))), 0.0, ndim=2)
            order = nystrom.greedy_select(X, p, 20).selection_order
            m_small = int(rng.integers(3, 10))
            m_big = int(rng.integers(m_small + 1, 21))
            f_small = nystrom.sparse_parts(p, X, X[order[:m_small]]).factor
            f_big = nystrom.sparse_parts(p, X, X[order[:m_big]]).factor
            assert bounds.logdet_upper_amgm(f_big) <= bounds.logdet_upper_amgm(f_small) + 1e-8


class TestBoundReport:
    def test_report_consistency(self):
        rng = np.random.default_rng(13)
        inst = random_instance(rng, n=30, m=5)
        yc = inst.y - inst.params.mean
        v = np.linalg.solve(inst.khat, yc)
        r = yc - inst.khat @ v
        rep = bounds.bound_report(inst.factor, yc, v, r)
        n = inst.factor.n
        const = -0.5 * n * np.log(2 * np.pi)
        assert rep.assembled_cglb == pytest.approx(
            const - 0.5 * rep.quad_upper - 0.5 * rep.logdet_amgm, rel=1e-12)
        assert rep.assembled_elbo <= rep.assembled_cglb + 1e-9

    def test_assembled_objectives_are_the_model_values(self):
        # The report and the models assemble through one formula, so the
        # values agree to the bit, for any v.
        rng = np.random.default_rng(14)
        for _ in range(10):
            inst = random_instance(rng, n=int(rng.integers(10, 50)), m=int(rng.integers(2, 8)))
            p, X, y, Z = inst.params, inst.X, inst.y, inst.Z
            yc = y - p.mean
            v = rng.standard_normal(yc.size)
            r = yc - (inst.kff @ v + p.noise * v)
            rep = bounds.bound_report(inst.factor, yc, v, r)
            assert rep.assembled_cglb == models.cglb_value_fixed_v(p, Z, X, y, v)
            assert rep.assembled_elbo == models.elbo(p, Z, X, y).value
