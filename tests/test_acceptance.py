"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Tolerances are fixed here, not configurable: they are the
contract. The statistical checks use fixed seeds so the suite is
deterministic.
"""

import time

import numpy as np
import pytest

from cglb import bounds, config, data, kernels, models, nystrom, training
from cglb.data import Dataset, StandardStats
from cglb.pcg import VCache, cg_solve_euclidean, pcg_solve
from helpers import random_instance


def criterion(num: int, description: str, ok: bool, detail: str = "") -> None:
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {description}  {detail}")
    assert ok, f"criterion {num} failed: {description} {detail}"


def _instance_pool(seed: int = 2024, count: int = 200):
    """200 random instances with n in {20..200}, d in {1..5}, m in {2..32}."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(20, 201))
        d = int(rng.integers(1, 6))
        m = int(rng.integers(2, min(33, n + 1)))
        yield random_instance(rng, n=n, d=d, m=m)


def test_criterion_1_bound_sandwich():
    start = time.time()
    worst_lower, worst_upper, worst_slack = np.inf, np.inf, -np.inf
    for inst in _instance_pool():
        n = inst.y.size
        exact = models.exact_lml(inst.params, inst.X, inst.y)
        lower = models.elbo(inst.params, inst.Z, inst.X, inst.y).value
        tight = models.cglb_objective(inst.params, inst.Z, inst.X, inst.y,
                                      VCache(), eps=1e-10, max_iters=n).value
        worst_lower = min(worst_lower, tight - lower)
        worst_upper = min(worst_upper, exact.value - tight)
        # at the training tolerance the gap to the exact LML is at most
        # the log-determinant slack plus eps_train
        eps_train = 1.0
        trained = models.cglb_objective(inst.params, inst.Z, inst.X, inst.y,
                                        VCache(), eps=eps_train, max_iters=n)
        ld_gap = 0.5 * (trained.diagnostics["logdet_amgm"] - exact.diagnostics["logdet"])
        worst_slack = max(worst_slack,
                          (exact.value - trained.value) - (ld_gap + eps_train))
    elapsed = time.time() - start
    ok = worst_lower >= -1e-8 and worst_upper >= -1e-8 and worst_slack <= 1e-9 \
        and elapsed < 60.0
    criterion(1, "bound sandwich elbo <= cglb <= exact over 200 instances", ok,
              f"(min cglb-elbo {worst_lower:.2e}, min exact-cglb {worst_upper:.2e}, "
              f"max slack excess {worst_slack:.2e}, {elapsed:.1f}s)")


def test_criterion_2_logdet_ordering():
    worst = -np.inf
    for inst in _instance_pool(seed=77):
        exact_ld = float(np.sum(np.log(np.linalg.eigvalsh(inst.khat))))
        wf = bounds.logdet_upper_waterfill(inst.factor)
        amgm = bounds.logdet_upper_amgm(inst.factor)
        trace = bounds.logdet_upper_trace(inst.factor)
        low = bounds.logdet_lower_top(inst.factor)
        worst = max(worst, low - exact_ld, exact_ld - wf, wf - amgm, amgm - trace)
    # scalar anchor: Khat=[2], Qhat=[1] makes the AM-GM step an equality
    anchor = bounds.logdet_upper_amgm(nystrom.diagonal_factor(1.0, 1, 1.0))
    anchor_ok = anchor == np.log(2.0)
    ok = worst <= 1e-8 and anchor_ok
    criterion(2, "log-det ordering lower <= exact <= waterfill <= amgm <= trace", ok,
              f"(max violation {worst:.2e}, log-2 anchor exact: {anchor_ok})")


def test_criterion_3_quadratic_sandwich_and_stopping():
    rng = np.random.default_rng(11)
    worst_bracket, worst_width, worst_slack = -np.inf, -np.inf, -np.inf
    for eps in (1.0, 1e-3):
        for _ in range(20):
            inst = random_instance(rng, n=int(rng.integers(30, 120)), m=8)
            n = inst.y.size
            yc = inst.y - inst.params.mean
            state = pcg_solve(lambda p: inst.khat @ p,
                              lambda r: nystrom.solve_q(inst.factor, r),
                              yc, eps=eps, max_iters=n)
            lo, up = bounds.quad_bounds(inst.factor, yc, state.v, state.r)
            exact = float(yc @ np.linalg.solve(inst.khat, yc))
            scale = max(1.0, abs(exact))
            worst_bracket = max(worst_bracket, (lo - exact) / scale,
                                (exact - up) / scale)
            worst_width = max(worst_width, abs((up - lo) - state.gap) / scale)
            # objective slack contributed by the quadratic term is <= eps
            worst_slack = max(worst_slack, 0.5 * (up - exact) - eps)
    ok = worst_bracket <= 1e-9 and worst_width <= 1e-9 and worst_slack <= 1e-9
    criterion(3, "quadratic sandwich brackets the oracle; width = r'Q^-1r; slack <= eps",
              ok, f"(bracket {worst_bracket:.2e}, width err {worst_width:.2e}, "
                  f"slack excess {worst_slack:.2e})")


def test_criterion_4_cg_exactness():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(20, 201))
        inst = random_instance(rng, n=n, m=min(32, n), noise_log_range=(-2.5, 0.0))
        yc = inst.y - inst.params.mean
        state = pcg_solve(lambda p: inst.khat @ p,
                          lambda r: nystrom.solve_q(inst.factor, r),
                          yc, eps=1e-26, max_iters=n)
        dense = np.linalg.solve(inst.khat, yc)
        worst = max(worst, float(np.linalg.norm(state.v - dense)
                                 / np.linalg.norm(dense)))
    ok = worst <= 1e-8
    criterion(4, "preconditioned CG with max_iters=n matches dense solves", ok,
              f"(worst relative error {worst:.2e} over 50 systems up to n=200)")


@pytest.mark.slow
def test_criterion_5_warm_start_trend():
    start = time.time()
    wins = 0
    details = []
    for seed in range(5):
        cfg = config.config_from_dict({
            "model": "cglb", "m": 32, "seed": seed,
            "data": {"synthetic": {"kind": "gp", "n": 1500, "d": 2, "seed": seed,
                                    "lengthscale": 0.3, "noise_variance": 0.05}},
            "optimizer": {"max_steps": 200},
        })
        ds = training.build_dataset(cfg)
        train_set, _, _ = data.split_standardize(ds, cfg.split_fraction, cfg.seed)
        assert train_set.n == 1000
        records = []
        training.train(cfg, train_set, trace_sink=records.append)
        iters = [r["cg_iters"] for r in records]
        q = max(len(iters) // 4, 1)
        first, last = sum(iters[:q]), sum(iters[-q:])
        wins += last <= first
        details.append(f"{first}->{last}")
    elapsed = time.time() - start
    ok = wins >= 4 and elapsed < 600.0
    criterion(5, "CG iterations decay under warm starting (last quarter <= first)",
              ok, f"({wins}/5 seeds, quarters {details}, {elapsed:.0f}s)")


def test_criterion_6_gradient_checks():
    worst = {"exact": 0.0, "elbo": 0.0, "cglb": 0.0}
    for seed in range(20):
        report = training.gradient_check_report(seed=seed)
        for name, err in report.items():
            worst[name] = max(worst[name], err)
    ok = all(err <= 1e-5 for err in worst.values())
    criterion(6, "analytic gradients match central differences (20 configurations)",
              ok, "(" + ", ".join(f"{k} {v:.2e}" for k, v in worst.items()) + ")")


def test_criterion_7_prediction_consistency():
    rng = np.random.default_rng(21)
    inst = random_instance(rng, n=40, m=8)
    Xs = rng.uniform(-1.5, 1.5, (15, inst.X.shape[1]))
    exact = models.exact_predict(inst.params, inst.X, inst.y, Xs)
    full = models.sgpr_predict(inst.params, inst.X, inst.X, inst.y, Xs)
    sgpr_match = (np.max(np.abs(full.mean - exact.mean)) <= 1e-6
                  and np.max(np.abs(full.var - exact.var)) <= 1e-6)
    yc = inst.y - inst.params.mean
    v_star = np.linalg.solve(inst.khat, yc)
    cglb_pred = models.cglb_predict(inst.params, inst.Z, inst.X, inst.y, v_star, Xs)
    mean_match = np.max(np.abs(cglb_pred.mean - exact.mean)) <= 1e-8
    sgpr_sparse = models.sgpr_predict(inst.params, inst.Z, inst.X, inst.y, Xs)
    var_bitwise = np.array_equal(cglb_pred.var, sgpr_sparse.var)
    ok = sgpr_match and mean_match and var_bitwise
    criterion(7, "SGPR(Z=X)=exact to 1e-6; CGLB mean at v*=exact to 1e-8; "
                 "CGLB var == SGPR var bitwise", ok,
              f"(sgpr {sgpr_match}, mean {mean_match}, var {var_bitwise})")


def _train_on_full_draw(kind: str, seed: int, noise_var: float):
    cfg = config.config_from_dict({
        "model": kind, "m": 32, "seed": seed,
        "data": {"synthetic": {"kind": "gp", "n": 1500, "d": 2, "seed": seed,
                                "lengthscale": 0.2, "noise_variance": noise_var}},
        "optimizer": {"max_steps": 120},
    })
    ds = training.build_dataset(cfg)
    # hyperparameter-recovery experiment: train on the full draw, which is
    # already on the standardised scale by construction
    full = Dataset(X=ds.X, y=ds.y, feature_names=ds.feature_names,
                   stats=StandardStats(np.zeros(ds.d), np.ones(ds.d), 0.0, 1.0))
    model, _ = training.train(cfg, full)
    lml = models.exact_lml(model.params, full.X, full.y).value
    return model.params.noise, lml


@pytest.mark.slow
def test_criterion_8_hyperparameter_quality_trend():
    start = time.time()
    true_noise = 0.05
    lml_wins = 0
    noise_err_cglb, noise_err_elbo = [], []
    details = []
    for seed in range(5):
        elbo_noise, elbo_lml = _train_on_full_draw("sgpr", seed, true_noise)
        cglb_noise, cglb_lml = _train_on_full_draw("cglb", seed, true_noise)
        lml_wins += cglb_lml >= elbo_lml
        noise_err_cglb.append(abs(cglb_noise - true_noise))
        noise_err_elbo.append(abs(elbo_noise - true_noise))
        details.append(f"lml {cglb_lml:.0f}vs{elbo_lml:.0f}")
    elapsed = time.time() - start
    median_closer = np.median(noise_err_cglb) < np.median(noise_err_elbo)
    ok = lml_wins >= 4 and median_closer and elapsed < 900.0
    criterion(8, "CGLB-trained theta beats ELBO-trained theta (exact LML, noise recovery)",
              ok, f"({lml_wins}/5 LML wins; median |noise err| "
                  f"{np.median(noise_err_cglb):.4f} vs {np.median(noise_err_elbo):.4f}; "
                  f"{elapsed:.0f}s)")


def test_criterion_9_hutchinson_statistics():
    rng = np.random.default_rng(3)
    probes = 10000
    worst_z = 0.0
    for _ in range(10):
        inst = random_instance(rng, n=50, m=6, noise_log_range=(-2.0, -0.5))
        matvec = lambda p: inst.khat @ p  # noqa: E731
        p_mat = rng.integers(0, 2, size=(probes, 50)).astype(np.float64) * 2.0 - 1.0
        solves = np.empty_like(p_mat)
        for i in range(probes):
            solves[i] = cg_solve_euclidean(matvec, p_mat[i], tol=1e-10,
                                           max_iters=200).v
        khat_inv = np.linalg.inv(inst.khat)
        decay = kernels.kernel_with_decay(inst.X, inst.X, inst.params)[1]
        derivs = [inst.kff / inst.params.variance, np.eye(50)]
        derivs += [kernels.lengthscale_grad(inst.X, inst.X, inst.params, j,
                                            decay=decay.copy())
                   for j in range(inst.params.ndim)]
        for dk in derivs:
            samples = np.einsum("ij,jk,ik->i", solves, dk, p_mat)
            se = samples.std(ddof=1) / np.sqrt(probes)
            z = abs(samples.mean() - float(np.sum(khat_inv * dk))) / se
            worst_z = max(worst_z, z)

    # loose CG tolerance biases the gradient; tight does not
    inst = random_instance(np.random.default_rng(4), n=50, m=6,
                           noise_log_range=(-2.0, -1.0))
    exact_grad = models.exact_lml(inst.params, inst.X, inst.y).grad
    tight = models.iterative_lml_and_grad(inst.params, inst.X, inst.y, probes=2000,
                                          cg_tol=1e-10, rng=np.random.default_rng(7))
    loose = models.iterative_lml_and_grad(inst.params, inst.X, inst.y, probes=2000,
                                          cg_tol=1e-1, rng=np.random.default_rng(7))
    bias_tight = float(np.linalg.norm(tight.grad - exact_grad))
    bias_loose = float(np.linalg.norm(loose.grad - exact_grad))
    ok = worst_z <= 3.0 and bias_loose > bias_tight
    criterion(9, "trace estimator within 3 SE of the exact trace; loose CG biases it",
              ok, f"(worst |z| {worst_z:.2f}; bias {bias_loose:.3f} loose vs "
                  f"{bias_tight:.3f} tight)")


def test_criterion_10_constant_mean_rmse():
    rmses = []
    for seed in range(3):
        ds = data.synthetic_gp(1000, 2, lengthscale=0.3, noise_variance=0.1,
                               seed=seed)
        train_set, test_set, _ = data.split_standardize(ds, 2.0 / 3.0, seed)
        assert test_set.n >= 300
        out = training.metrics_from_predictions(
            np.zeros(test_set.n), np.ones(test_set.n), test_set.y)
        rmses.append(out["rmse"])
    ok = all(abs(r - 1.0) <= 0.15 for r in rmses)
    criterion(10, "constant-mean predictor RMSE within 0.15 of 1.0 on held-out data",
              ok, f"(rmse {[round(r, 3) for r in rmses]})")
