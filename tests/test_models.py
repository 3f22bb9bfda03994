import numpy as np
import pytest

from cglb import kernels, models, nystrom
from cglb.errors import DimensionMismatch
from cglb.kernels import HyperParams
from cglb.pcg import VCache, cg_solve_euclidean
from helpers import random_instance


def fd_gradient_error(fun, vec, h=1e-6):
    """Max relative error of the returned gradient vs central differences."""
    _, grad = fun(vec)
    worst = 0.0
    for i in range(vec.size):
        e = np.zeros_like(vec)
        e[i] = h
        fp, _ = fun(vec + e)
        fm, _ = fun(vec - e)
        fd = (fp - fm) / (2 * h)
        worst = max(worst, abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-10))
    return worst


class TestExactLml:
    def test_unit_scalar_anchor(self):
        # one observation, k(x,x) + sigma^2 = 1, y = mean: value is -log(2 pi)/2
        p = HyperParams.from_constrained(0.5, 1.0, 0.5, 0.0, ndim=1)
        obj = models.exact_lml(p, np.zeros((1, 1)), np.zeros(1))
        assert obj.value == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-12)

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(0)
        inst = random_instance(rng, n=30, d=2)

        def fun(vec):
            p, _ = models.unpack_params(inst.params, vec)
            obj = models.exact_lml(p, inst.X, inst.y)
            return obj.value, obj.grad

        assert fd_gradient_error(fun, models.pack_params(inst.params)) <= 1e-5

    def test_mean_shift_invariance(self):
        rng = np.random.default_rng(1)
        inst = random_instance(rng, n=20)
        from dataclasses import replace
        shifted = replace(inst.params, mean=inst.params.mean + 5.0)
        v0 = models.exact_lml(inst.params, inst.X, inst.y).value
        v1 = models.exact_lml(shifted, inst.X, inst.y + 5.0).value
        assert v1 == pytest.approx(v0, rel=1e-12)

    @pytest.mark.parametrize("objective", ["exact_lml", "iterative_lml_and_grad",
                                           "cglb_objective", "cglb_prediction_vector"])
    def test_dense_cap_guard(self, monkeypatch, objective):
        calls = []
        original = kernels.kernel_with_decay

        def recording(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(kernels, "kernel_with_decay", recording)
        p = HyperParams.from_constrained(1.0, 1.0, 1.0, 0.0, ndim=1)
        inputs = (np.zeros((5, 1)), np.zeros(5))
        if objective.startswith("cglb"):  # these take the inducing inputs first
            inputs = (np.zeros((2, 1)), *inputs)
        with pytest.raises(DimensionMismatch):
            getattr(models, objective)(p, *inputs, dense_cap=3)
        assert calls == []


class TestExactPredict:
    def test_prior_reversion_far_away(self):
        rng = np.random.default_rng(2)
        inst = random_instance(rng, n=25, d=1)
        far = np.array([[1e6]])
        pred = models.exact_predict(inst.params, inst.X, inst.y, far)
        assert pred.mean[0] == pytest.approx(inst.params.mean, abs=1e-8)
        assert pred.var[0] == pytest.approx(inst.params.variance, rel=1e-8)

    def test_interpolation_at_tiny_noise(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, (15, 1))
        p = HyperParams.from_constrained(1.0, 1.0, 1e-10, 0.0, ndim=1, floor=1e-12)
        y = np.sin(3 * X[:, 0])
        pred = models.exact_predict(p, X, y, X[:3])
        np.testing.assert_allclose(pred.mean, y[:3], atol=1e-5)

    def test_variance_never_exceeds_prior(self):
        rng = np.random.default_rng(4)
        inst = random_instance(rng, n=30, d=2)
        Xs = rng.uniform(-2, 2, (20, 2))
        pred = models.exact_predict(inst.params, inst.X, inst.y, Xs)
        assert np.all(pred.var <= inst.params.variance + 1e-10)
        assert np.all(pred.var >= 0.0)

    def test_noise_added_exactly(self):
        rng = np.random.default_rng(5)
        inst = random_instance(rng, n=10)
        pred = models.exact_predict(inst.params, inst.X, inst.y, inst.X[:2])
        np.testing.assert_array_equal(pred.var_with_noise() - pred.var,
                                      inst.params.noise)


class TestElbo:
    def test_full_inducing_matches_exact(self):
        rng = np.random.default_rng(6)
        inst = random_instance(rng, n=30)
        exact = models.exact_lml(inst.params, inst.X, inst.y).value
        lower = models.elbo(inst.params, inst.X, inst.X, inst.y).value
        assert lower == pytest.approx(exact, abs=1e-6)

    def test_lower_bounds_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            inst = random_instance(rng, n=35, m=5)
            exact = models.exact_lml(inst.params, inst.X, inst.y).value
            lower = models.elbo(inst.params, inst.Z, inst.X, inst.y).value
            assert lower <= exact + 1e-8

    def test_gradient_with_inducing_locations(self):
        rng = np.random.default_rng(8)
        inst = random_instance(rng, n=25, d=2, m=4)
        m = inst.Z.shape[0]

        def fun(vec):
            p, Z = models.unpack_params(inst.params, vec, m=m)
            obj = models.elbo(p, Z, inst.X, inst.y)
            return obj.value, obj.grad

        assert fd_gradient_error(fun, models.pack_params(inst.params, inst.Z)) <= 1e-5


class TestSgprPredict:
    def test_full_inducing_matches_exact(self):
        rng = np.random.default_rng(9)
        inst = random_instance(rng, n=25, d=2)
        Xs = rng.uniform(-1.5, 1.5, (8, 2))
        pe = models.exact_predict(inst.params, inst.X, inst.y, Xs)
        ps = models.sgpr_predict(inst.params, inst.X, inst.X, inst.y, Xs)
        np.testing.assert_allclose(ps.mean, pe.mean, atol=1e-6)
        np.testing.assert_allclose(ps.var, pe.var, atol=1e-6)

    def test_variance_converges_to_exact_with_inducing_budget(self):
        # The variational variance is not pointwise conservative in
        # general (it can undershoot the exact posterior variance near
        # inducing points when the approximation is coarse); what does
        # hold is convergence to the exact variance as m grows.
        rng = np.random.default_rng(10)
        inst = random_instance(rng, n=30, m=30)
        Xs = rng.uniform(-1.5, 1.5, (12, inst.X.shape[1]))
        pe = models.exact_predict(inst.params, inst.X, inst.y, Xs)
        gaps = []
        for m in (5, 15, 30):
            from cglb import nystrom
            Z = nystrom.greedy_select(inst.X, inst.params, m).Z
            ps = models.sgpr_predict(inst.params, Z, inst.X, inst.y, Xs)
            gaps.append(float(np.max(np.abs(ps.var - pe.var))))
        assert gaps[2] <= gaps[1] <= gaps[0]
        assert gaps[2] <= 1e-6

    def test_variance_never_exceeds_prior(self):
        rng = np.random.default_rng(30)
        for _ in range(5):
            inst = random_instance(rng, n=30, m=5)
            Xs = rng.uniform(-2, 2, (10, inst.X.shape[1]))
            ps = models.sgpr_predict(inst.params, inst.Z, inst.X, inst.y, Xs)
            assert np.all(ps.var <= inst.params.variance + 1e-10)

    def test_prior_reversion(self):
        rng = np.random.default_rng(11)
        inst = random_instance(rng, n=20, d=1, m=4)
        far = np.array([[1e6]])
        ps = models.sgpr_predict(inst.params, inst.Z, inst.X, inst.y, far)
        assert ps.mean[0] == pytest.approx(inst.params.mean, abs=1e-8)
        assert ps.var[0] == pytest.approx(inst.params.variance, rel=1e-8)


class TestCglbObjective:
    def test_full_inducing_tight_eps_matches_exact(self):
        rng = np.random.default_rng(12)
        inst = random_instance(rng, n=30)
        exact = models.exact_lml(inst.params, inst.X, inst.y).value
        obj = models.cglb_objective(inst.params, inst.X, inst.X, inst.y,
                                    VCache(), eps=1e-14, max_iters=30)
        assert obj.value == pytest.approx(exact, abs=1e-6)

    def test_sandwich(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            inst = random_instance(rng, n=40, m=6)
            n = inst.y.size
            exact = models.exact_lml(inst.params, inst.X, inst.y).value
            lower = models.elbo(inst.params, inst.Z, inst.X, inst.y).value
            obj = models.cglb_objective(inst.params, inst.Z, inst.X, inst.y,
                                        VCache(), eps=1e-12, max_iters=n)
            assert lower <= obj.value + 1e-8
            assert obj.value <= exact + 1e-8

    def test_gradient_with_frozen_v(self):
        rng = np.random.default_rng(14)
        inst = random_instance(rng, n=25, d=2, m=4)
        m = inst.Z.shape[0]
        cache = VCache()
        base = models.cglb_objective(inst.params, inst.Z, inst.X, inst.y,
                                     cache, eps=1e-12, max_iters=25)
        v = cache.last_v.copy()
        vec0 = models.pack_params(inst.params, inst.Z)
        h = 1e-6
        worst = 0.0
        for i in range(vec0.size):
            e = np.zeros_like(vec0)
            e[i] = h
            pp, Zp = models.unpack_params(inst.params, vec0 + e, m=m)
            pm, Zm = models.unpack_params(inst.params, vec0 - e, m=m)
            fd = (models.cglb_value_fixed_v(pp, Zp, inst.X, inst.y, v)
                  - models.cglb_value_fixed_v(pm, Zm, inst.X, inst.y, v)) / (2 * h)
            worst = max(worst, abs(fd - base.grad[i]) / max(abs(fd), abs(base.grad[i]), 1e-10))
        assert worst <= 1e-5

    def test_gradient_on_offset_inputs(self):
        # The bound is translation invariant, so differences of the frozen-v
        # value on the unshifted inputs check the gradient computed on inputs
        # shifted by 1e5; differencing the shifted inputs themselves would
        # drown h in the rounding of X / l. Without centring, the expanded
        # lengthscale contraction cancels here to about 5e-4.
        rng = np.random.default_rng(14)
        inst = random_instance(rng, n=25, d=2, m=4)
        m = inst.Z.shape[0]
        cache = VCache()
        base = models.cglb_objective(inst.params, inst.Z + 1e5, inst.X + 1e5, inst.y,
                                     cache, eps=1e-12, max_iters=25)
        v = cache.last_v.copy()
        vec0 = models.pack_params(inst.params, inst.Z)
        h = 1e-6
        worst = 0.0
        for i in range(vec0.size):
            e = np.zeros_like(vec0)
            e[i] = h
            pp, Zp = models.unpack_params(inst.params, vec0 + e, m=m)
            pm, Zm = models.unpack_params(inst.params, vec0 - e, m=m)
            fd = (models.cglb_value_fixed_v(pp, Zp, inst.X, inst.y, v)
                  - models.cglb_value_fixed_v(pm, Zm, inst.X, inst.y, v)) / (2 * h)
            worst = max(worst, abs(fd - base.grad[i]) / max(abs(fd), abs(base.grad[i]), 1e-10))
        assert worst <= 1e-5

    def test_quadratic_slack_within_gap(self):
        # exact quad lies within [upper - gap, upper]: the stopping rule
        # caps the objective slack from the quadratic term by eps.
        rng = np.random.default_rng(15)
        for eps in (1.0, 1e-3):
            inst = random_instance(rng, n=40, m=6)
            obj = models.cglb_objective(inst.params, inst.Z, inst.X, inst.y,
                                        VCache(), eps=eps, max_iters=40)
            yc = inst.y - inst.params.mean
            exact_quad = float(yc @ np.linalg.solve(inst.khat, yc))
            upper = obj.diagnostics["quad_upper"]
            gap = obj.diagnostics["cg_gap"]
            assert gap <= 2 * eps + 1e-9
            assert upper - gap - 1e-9 <= exact_quad <= upper + 1e-9

    def test_diagnostics_present(self):
        rng = np.random.default_rng(16)
        inst = random_instance(rng, n=20, m=4)
        obj = models.cglb_objective(inst.params, inst.Z, inst.X, inst.y, VCache())
        for key in ("cg_iters", "cg_converged", "cg_gap", "quad_upper", "logdet_amgm"):
            assert key in obj.diagnostics
        assert obj.grad.size == inst.params.n_params + inst.Z.size


class TestCglbPredict:
    def test_exact_v_recovers_exact_mean(self):
        rng = np.random.default_rng(17)
        inst = random_instance(rng, n=30, m=5)
        Xs = rng.uniform(-1.5, 1.5, (9, inst.X.shape[1]))
        yc = inst.y - inst.params.mean
        v = np.linalg.solve(inst.khat, yc)
        pc = models.cglb_predict(inst.params, inst.Z, inst.X, inst.y, v, Xs)
        pe = models.exact_predict(inst.params, inst.X, inst.y, Xs)
        np.testing.assert_allclose(pc.mean, pe.mean, atol=1e-8)

    def test_full_inducing_any_v(self):
        rng = np.random.default_rng(18)
        inst = random_instance(rng, n=30)
        Xs = rng.uniform(-1.5, 1.5, (9, inst.X.shape[1]))
        v = rng.standard_normal(30)
        pc = models.cglb_predict(inst.params, inst.X, inst.X, inst.y, v, Xs)
        pe = models.exact_predict(inst.params, inst.X, inst.y, Xs)
        np.testing.assert_allclose(pc.mean, pe.mean, atol=1e-7)

    def test_zero_v_reduces_to_sgpr_mean(self):
        rng = np.random.default_rng(19)
        inst = random_instance(rng, n=30, m=5)
        Xs = rng.uniform(-1.5, 1.5, (9, inst.X.shape[1]))
        pc = models.cglb_predict(inst.params, inst.Z, inst.X, inst.y,
                                 np.zeros(30), Xs)
        ps = models.sgpr_predict(inst.params, inst.Z, inst.X, inst.y, Xs)
        np.testing.assert_allclose(pc.mean, ps.mean, atol=1e-10)

    def test_variance_identical_to_sgpr(self):
        rng = np.random.default_rng(20)
        inst = random_instance(rng, n=30, m=5)
        Xs = rng.uniform(-1.5, 1.5, (9, inst.X.shape[1]))
        pc = models.cglb_predict(inst.params, inst.Z, inst.X, inst.y,
                                 rng.standard_normal(30), Xs)
        ps = models.sgpr_predict(inst.params, inst.Z, inst.X, inst.y, Xs)
        assert np.array_equal(pc.var, ps.var)  # bit-for-bit

    def test_solver_residual_matches_rebuilt_residual(self):
        rng = np.random.default_rng(21)
        inst = random_instance(rng, n=80, m=6, noise_log_range=(-3.0, -1.0))
        Xs = rng.uniform(-1.5, 1.5, (15, inst.X.shape[1]))
        state = models.cglb_prediction_vector(inst.params, inst.Z, inst.X, inst.y,
                                              VCache(), eps=1e-3)
        assert state.iters > 0  # r comes from the CG recurrence, not a fresh product
        carried = models.cglb_predict(inst.params, inst.Z, inst.X, inst.y, state.v, Xs,
                                      r=state.r)
        rebuilt = models.cglb_predict(inst.params, inst.Z, inst.X, inst.y, state.v, Xs)
        assert (np.max(np.abs(carried.mean - rebuilt.mean))
                <= 1e-12 * np.max(np.abs(rebuilt.mean)))
        assert np.array_equal(carried.var, rebuilt.var)

    def test_residual_length_checked(self):
        rng = np.random.default_rng(22)
        inst = random_instance(rng, n=20, m=4)
        with pytest.raises(DimensionMismatch):
            models.cglb_predict(inst.params, inst.Z, inst.X, inst.y, np.zeros(20),
                                inst.X[:3], r=np.zeros(19))


class TestIterativeBaseline:
    def test_reproducible_with_seed(self):
        rng_data = np.random.default_rng(21)
        inst = random_instance(rng_data, n=30)
        a = models.iterative_lml_and_grad(inst.params, inst.X, inst.y, probes=5,
                                          cg_tol=1e-8, rng=np.random.default_rng(3))
        b = models.iterative_lml_and_grad(inst.params, inst.X, inst.y, probes=5,
                                          cg_tol=1e-8, rng=np.random.default_rng(3))
        assert a.value == b.value
        np.testing.assert_array_equal(a.grad, b.grad)

    @pytest.mark.parametrize("n", [30, 120])
    @pytest.mark.parametrize("probes", [1, 7])
    def test_gradient_matches_per_term_oracle(self, n, probes):
        # Oracle: each term formed on its own, with an n x n K_ff / sigma_f^2,
        # a three-operand einsum per probe and a dense derivative per lengthscale.
        inst = random_instance(np.random.default_rng(n + probes), n=n)
        params, X = inst.params, inst.X
        est = models.iterative_lml_and_grad(params, X, inst.y, probes=probes, cg_tol=1e-2,
                                            rng=np.random.default_rng(4))

        kff, decay = kernels.kernel_with_decay(X, X, params)
        matvec = lambda p: kff @ p + params.noise * p  # noqa: E731
        alpha = cg_solve_euclidean(matvec, inst.y - params.mean, tol=1e-2).v
        rng = np.random.default_rng(4)
        p_mat = rng.integers(0, 2, size=(probes, n)).astype(np.float64) * 2.0 - 1.0
        solves = np.array([cg_solve_euclidean(matvec, p, tol=1e-2).v for p in p_mat])
        dk0 = kff / params.variance
        trace0 = float(np.mean(np.einsum("ij,jk,ik->i", solves, dk0, p_mat)))
        s_ls = []
        for j in range(params.ndim):
            dk = kernels.lengthscale_grad(X, X, params, j, decay=decay)
            s_ls.append(0.5 * float(alpha @ dk @ alpha)
                        - 0.5 * float(np.mean(np.einsum("ij,jk,ik->i", solves, dk, p_mat))))
        trace_noise = float(np.mean(np.sum(solves * p_mat, axis=1)))
        sens = np.concatenate([[0.5 * float(alpha @ dk0 @ alpha) - 0.5 * trace0], s_ls,
                               [0.5 * float(alpha @ alpha) - 0.5 * trace_noise,
                                float(np.sum(alpha))]])
        oracle = sens * params.transform_jacobian()
        np.testing.assert_allclose(est.grad, oracle, rtol=1e-12)

    def test_tight_tolerance_matches_exact_gradient(self):
        rng = np.random.default_rng(22)
        inst = random_instance(rng, n=40, m=4)
        exact = models.exact_lml(inst.params, inst.X, inst.y)
        probes = 4000
        est = models.iterative_lml_and_grad(inst.params, inst.X, inst.y,
                                            probes=probes, cg_tol=1e-10,
                                            rng=np.random.default_rng(0))
        # Monte-Carlo error scale for the trace estimator ~ its own std/sqrt(P);
        # bound each coordinate by 3 noise scales estimated from a second run.
        est2 = models.iterative_lml_and_grad(inst.params, inst.X, inst.y,
                                             probes=probes, cg_tol=1e-10,
                                             rng=np.random.default_rng(1))
        spread = np.abs(est.grad - est2.grad) + 1e-8
        assert np.all(np.abs(est.grad - exact.grad) <= 3.0 * spread + 1e-6 * np.abs(exact.grad) + 1e-8)
        assert est.value == pytest.approx(exact.value, rel=1e-6)

    def test_mean_gradient_matches_exact(self):
        rng = np.random.default_rng(23)
        inst = random_instance(rng, n=30)
        exact = models.exact_lml(inst.params, inst.X, inst.y)
        est = models.iterative_lml_and_grad(inst.params, inst.X, inst.y, probes=2,
                                            cg_tol=1e-12, rng=np.random.default_rng(5))
        # the mean gradient has no stochastic part
        assert est.grad[-1] == pytest.approx(exact.grad[-1], rel=1e-8)
