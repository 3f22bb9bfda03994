"""Training drivers: objective closures per model kind, metric evaluation,
bound-comparison reports, and model persistence.

The optimiser minimises the negated bound. Inducing locations are
greedy-initialised and then optimised jointly with the kernel
hyperparameters for the sparse models. Every accepted optimiser step is
streamed to a trace sink as one JSON-serialisable record.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import bounds, data, kernels, linalg, models, nystrom, optimizer
from .config import RunConfig
from .data import Dataset, StandardStats
from .errors import ConfigError, DimensionMismatch
from .kernels import HyperParams
from .pcg import VCache

LOG_2PI = models.LOG_2PI


@dataclass
class TrainedModel:
    kind: str
    params: HyperParams
    Z: np.ndarray | None
    v: np.ndarray | None  # CGLB prediction vector
    X: np.ndarray  # standardised training inputs
    y: np.ndarray  # standardised training targets
    stats: StandardStats


def build_dataset(cfg: RunConfig) -> Dataset:
    dc = cfg.data
    if dc.csv is not None:
        return data.load_csv(dc.csv, dc.target)
    spec = dc.synthetic
    if spec.kind == "sine":
        return data.synthetic_sine(spec.n, spec.d, spec.noise_std, spec.seed)
    return data.synthetic_gp(
        spec.n, spec.d, spec.variance, spec.lengthscale, spec.noise_variance,
        spec.mean, spec.seed,
    )


def initial_params(cfg: RunConfig, d: int) -> HyperParams:
    """Unit kernel variance/lengthscales/noise, zero mean, per-model floor."""
    return HyperParams.from_constrained(1.0, 1.0, 1.0, 0.0, ndim=d,
                                        floor=cfg.resolve_floor())


def _make_objective(cfg: RunConfig, kind: str, X, y, template: HyperParams,
                    m: int | None, cache: VCache):
    """Returns (closure minimising the negated bound, diagnostics provider)."""
    counters = {"cg_iters": 0}

    if kind == "exact":
        def fun(vec):
            p, _ = models.unpack_params(template, vec)
            obj = models.exact_lml(p, X, y, dense_cap=cfg.dense_cap)
            return -obj.value, -obj.grad
    elif kind == "sgpr":
        def fun(vec):
            p, Z = models.unpack_params(template, vec, m=m)
            obj = models.elbo(p, Z, X, y)
            return -obj.value, -obj.grad
    elif kind == "cglb":
        def fun(vec):
            p, Z = models.unpack_params(template, vec, m=m)
            obj = models.cglb_objective(p, Z, X, y, cache, eps=cfg.eps_train)
            counters["cg_iters"] += obj.diagnostics["cg_iters"]
            return -obj.value, -obj.grad
    elif kind == "iterative":
        def fun(vec):
            p, _ = models.unpack_params(template, vec)
            # Probes are redrawn from a fixed seed each call, so the
            # objective is deterministic in the parameters and L-BFGS
            # line searches see a consistent surface.
            rng = np.random.default_rng(cfg.seed)
            obj = models.iterative_lml_and_grad(
                p, X, y, probes=cfg.iterative.probes, cg_tol=cfg.iterative.cg_tol,
                rng=rng, dense_cap=cfg.dense_cap,
            )
            counters["cg_iters"] += obj.diagnostics["cg_iters"]
            return -obj.value, -obj.grad
    else:
        raise ConfigError(f"unknown model kind {kind!r}")

    def diagnostics() -> dict:
        out = {"cg_iters": counters["cg_iters"]}
        counters["cg_iters"] = 0
        return out

    return fun, diagnostics


def trace_record(entry: optimizer.TraceEntry, template: HyperParams,
                 with_z: bool, m: int | None) -> dict:
    p, _ = models.unpack_params(template, entry.x, m=m if with_z else None)
    return {
        "step": entry.step,
        "objective": -entry.value,  # back to the maximised bound
        "grad_norm": entry.grad_norm,
        "cg_iters": entry.extras.get("cg_iters", 0),
        "elapsed_s": entry.elapsed_s,
        "theta": {
            "variance": p.variance,
            "lengthscales": [float(v) for v in p.lengthscales],
            "noise": p.noise,
            "mean": p.mean,
        },
    }


def train(cfg: RunConfig, train_set: Dataset, trace_sink=None
          ) -> tuple[TrainedModel, optimizer.MinimizeResult]:
    """Fit the configured model; streams one record per accepted step.

    On optimiser/model failure the records already emitted to
    ``trace_sink`` stand; the exception propagates.
    """
    X, y = train_set.X, train_set.y
    template = initial_params(cfg, train_set.d)
    with_z = cfg.model in ("sgpr", "cglb")
    m = min(cfg.m, train_set.n) if with_z else None
    if with_z:
        selection = nystrom.greedy_select(X, template, m)
        Z0, m = selection.Z, selection.Z.shape[0]
    else:
        Z0 = None
    cache = VCache()
    fun, diagnostics = _make_objective(cfg, cfg.model, X, y, template, m, cache)
    opt_cfg = optimizer.OptimizerConfig(
        max_steps=cfg.optimizer.max_steps,
        memory=cfg.optimizer.memory,
        c1=cfg.optimizer.c1,
        c2=cfg.optimizer.c2,
        grad_tol=cfg.optimizer.grad_tol,
        max_line_search=cfg.optimizer.max_line_search,
    )
    x0 = models.pack_params(template, Z0)
    result = optimizer.minimize(fun, x0, opt_cfg, diagnostics=diagnostics)
    if trace_sink is not None:
        for entry in result.trace:
            trace_sink(trace_record(entry, template, with_z, m))

    params, Z = models.unpack_params(template, result.x, m=m if with_z else None)
    v = None
    if cfg.model == "cglb":
        state = models.cglb_prediction_vector(
            params, Z, X, y, cache, eps=cfg.eps_predict)
        v = state.v
    assert train_set.stats is not None, "train() expects a standardised split"
    model = TrainedModel(kind=cfg.model, params=params, Z=Z, v=v, X=X, y=y,
                         stats=train_set.stats)
    return model, result


def predict(model: TrainedModel, Xs: np.ndarray) -> models.Prediction:
    if model.kind == "sgpr":
        return models.sgpr_predict(model.params, model.Z, model.X, model.y, Xs)
    if model.kind == "cglb":
        return models.cglb_predict(model.params, model.Z, model.X, model.y, model.v, Xs)
    # exact and the iterative baseline both predict with the dense posterior;
    # the baseline has no sparse structure of its own.
    return models.exact_predict(model.params, model.X, model.y, Xs)


def metrics_from_predictions(mean: np.ndarray, var_with_noise: np.ndarray,
                             y_true: np.ndarray) -> dict:
    err = mean - y_true
    rmse = float(np.sqrt(np.mean(err**2)))
    nlpd = float(np.mean(0.5 * np.log(2.0 * np.pi * var_with_noise)
                         + 0.5 * err**2 / var_with_noise))
    return {"rmse": rmse, "nlpd": nlpd}

def evaluate(model: TrainedModel, test_set: Dataset) -> dict:
    """RMSE and NLPD on standardised units, plus the raw-unit RMSE."""
    pred = predict(model, test_set.X)
    out = metrics_from_predictions(pred.mean, pred.var_with_noise(), test_set.y)
    out["rmse_raw"] = out["rmse"] * model.stats.y_std
    return out


def compare_bounds_rows(cfg: RunConfig, ds: Dataset) -> list[dict]:
    """One row per random hyperparameter draw: exact log-det, the four
    bounds, the quadratic sandwich at the CG solution, and the
    assembled objectives, with a self-check column for the ordering
    chain."""
    rng = np.random.default_rng(cfg.seed)
    X, y = ds.X, ds.y
    n, d = ds.n, ds.d
    if n > cfg.dense_cap:
        raise DimensionMismatch(
            f"n={n} too large for the dense oracle (cap {cfg.dense_cap})")
    floor = cfg.resolve_floor()
    rows = []
    for draw in range(cfg.bound_draws):
        params = HyperParams.from_constrained(
            variance=float(np.exp(rng.uniform(-1.0, 1.0))),
            lengthscales=np.exp(rng.uniform(-1.0, 1.0, d)),
            noise=float(np.exp(rng.uniform(-2.5, 0.0))),
            mean=float(rng.normal(scale=0.25)),
            ndim=d,
            floor=floor,
        )
        m = min(cfg.m, n)
        Z = nystrom.greedy_select(X, params, m).Z
        factor = nystrom.build(X, Z, params)
        yc = y - params.mean
        state = models.cglb_prediction_vector(params, Z, X, y, VCache(),
                                              eps=cfg.eps_predict)
        report = bounds.bound_report(factor, yc, state.v, state.r)
        kff = kernels.kernel_matrix(X, None, params)
        chol = linalg.cholesky(kff + params.noise * np.eye(n))
        logdet_exact = chol.logdet()
        quad_exact = float(yc @ linalg.chol_solve(chol, yc))
        lml = -0.5 * n * LOG_2PI - 0.5 * quad_exact - 0.5 * logdet_exact
        tol = 1e-8
        ordering_ok = (
            report.logdet_lower <= logdet_exact + tol
            and logdet_exact <= report.logdet_waterfill + tol
            and report.logdet_waterfill <= report.logdet_amgm + tol
            and report.logdet_amgm <= report.logdet_trace + tol
            and report.quad_lower <= quad_exact + tol
            and quad_exact <= report.quad_upper + tol
        )
        rows.append({
            "draw": draw,
            "variance": params.variance,
            "noise": params.noise,
            "logdet_exact": logdet_exact,
            "logdet_lower": report.logdet_lower,
            "logdet_waterfill": report.logdet_waterfill,
            "logdet_amgm": report.logdet_amgm,
            "logdet_trace": report.logdet_trace,
            "quad_lower": report.quad_lower,
            "quad_exact": quad_exact,
            "quad_upper": report.quad_upper,
            "elbo": report.assembled_elbo,
            "cglb": report.assembled_cglb,
            "lml": lml,
            "ordering_ok": ordering_ok,
        })
    return rows


def write_bound_report(rows: list[dict], path: str) -> None:
    import csv as _csv

    with open(path, "w", newline="") as fh:
        writer = _csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(float(v)) if isinstance(v, float) else v
                             for k, v in row.items()})


def gradient_check_report(seed: int = 0, n: int = 25, d: int = 2, m: int = 5,
                          h: float = 1e-6) -> dict[str, float]:
    """Worst finite-difference relative error per objective; CGLB keeps v frozen."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, (n, d))
    params = HyperParams.from_constrained(
        float(np.exp(rng.uniform(-0.5, 0.5))),
        np.exp(rng.uniform(-0.5, 0.5, d)),
        float(np.exp(rng.uniform(-2.0, -0.5))),
        float(rng.normal(scale=0.3)),
        ndim=d,
    )
    kff = kernels.kernel_matrix(X, None, params)
    chol = np.linalg.cholesky(kff + params.noise * np.eye(n) + 1e-12 * np.eye(n))
    y = chol @ rng.standard_normal(n) + params.mean
    Z = X[rng.choice(n, m, replace=False)].copy()

    def f_exact(vec):
        p, _ = models.unpack_params(params, vec)
        obj = models.exact_lml(p, X, y)
        return obj.value, obj.grad

    def f_elbo(vec):
        p, Zv = models.unpack_params(params, vec, m=m)
        obj = models.elbo(p, Zv, X, y)
        return obj.value, obj.grad

    cache = VCache()
    base = models.cglb_objective(params, Z, X, y, cache, eps=1e-12, max_iters=n)
    v_frozen = cache.last_v

    def f_cglb(vec):
        # the frozen-v value, against the objective's gradient at the base point
        p, Zv = models.unpack_params(params, vec, m=m)
        return models.cglb_value_fixed_v(p, Zv, X, y, v_frozen), base.grad

    return {
        "exact": optimizer.check_grad(f_exact, models.pack_params(params), h=h, seed=seed),
        "elbo": optimizer.check_grad(f_elbo, models.pack_params(params, Z), h=h, seed=seed),
        "cglb": optimizer.check_grad(f_cglb, models.pack_params(params, Z), h=h,
                                     seed=seed + 1),
    }


def save_model(model: TrainedModel, path: str) -> None:
    meta = {
        "kind": model.kind,
        "floors": [model.params.variance_floor, model.params.lengthscale_floor,
                   model.params.noise_floor],
        "ndim": model.params.ndim,
    }
    np.savez(
        path,
        meta=json.dumps(meta),
        theta=model.params.to_vector(),
        Z=model.Z if model.Z is not None else np.zeros((0, model.params.ndim)),
        v=model.v if model.v is not None else np.zeros(0),
        X=model.X,
        y=model.y,
        x_mean=model.stats.x_mean,
        x_std=model.stats.x_std,
        y_stats=np.array([model.stats.y_mean, model.stats.y_std]),
    )


def load_model(path: str) -> TrainedModel:
    try:
        payload = np.load(path, allow_pickle=False)
    except FileNotFoundError:
        raise ConfigError(f"model file not found: {path}") from None
    meta = json.loads(str(payload["meta"]))
    vf, lf, nf = meta["floors"]
    template = HyperParams(
        raw_variance=0.0,
        raw_lengthscales=np.zeros(meta["ndim"]),
        raw_noise=0.0,
        mean=0.0,
        variance_floor=vf,
        lengthscale_floor=lf,
        noise_floor=nf,
    )
    params = template.with_vector(payload["theta"])
    Z = payload["Z"]
    v = payload["v"]
    stats = StandardStats(
        x_mean=payload["x_mean"],
        x_std=payload["x_std"],
        y_mean=float(payload["y_stats"][0]),
        y_std=float(payload["y_stats"][1]),
    )
    return TrainedModel(
        kind=meta["kind"],
        params=params,
        Z=Z if Z.size else None,
        v=v if v.size else None,
        X=payload["X"],
        y=payload["y"],
        stats=stats,
    )
