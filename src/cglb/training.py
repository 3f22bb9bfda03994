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

from . import bounds, data, kernels, models, nystrom, optimizer
from .config import RunConfig
from .data import Dataset, StandardStats
from .errors import ConfigError
from .kernels import HyperParams
from .pcg import VCache


@dataclass
class TrainedModel:
    kind: str
    params: HyperParams
    Z: np.ndarray | None
    v: np.ndarray | None  # CGLB prediction vector
    X: np.ndarray  # standardised training inputs
    y: np.ndarray  # standardised training targets
    stats: StandardStats
    r: np.ndarray | None = None  # PCG residual y - mu0 - Khat v that came with v


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
                    m: int | None, cache: VCache, trace_sink=None):
    """Returns (closure minimising the negated bound, ``on_step`` for ``minimize``).

    ``m`` is None for the models without inducing points. Each entry looks
    ``models.<objective>`` up when called, so a replacement installed on
    the module (e.g. a timing wrapper) is the one that runs. ``on_step``
    records the CG iterations spent since the previous step in the
    entry's extras and hands the step's record to ``trace_sink``.
    """
    objectives = {
        "exact": lambda p, Z: models.exact_lml(p, X, y, dense_cap=cfg.dense_cap),
        "sgpr": lambda p, Z: models.elbo(p, Z, X, y),
        "cglb": lambda p, Z: models.cglb_objective(p, Z, X, y, cache, eps=cfg.eps_train,
                                                   dense_cap=cfg.dense_cap),
        # Probes are redrawn from a fixed seed each call, so the objective is
        # deterministic in the parameters and L-BFGS line searches see a
        # consistent surface.
        "iterative": lambda p, Z: models.iterative_lml_and_grad(
            p, X, y, probes=cfg.iterative.probes, cg_tol=cfg.iterative.cg_tol,
            rng=np.random.default_rng(cfg.seed), dense_cap=cfg.dense_cap),
    }
    if kind not in objectives:
        raise ConfigError(f"unknown model kind {kind!r}")
    objective = objectives[kind]
    cg_iters = 0

    def fun(vec):
        nonlocal cg_iters
        obj = objective(*models.unpack_params(template, vec, m=m))
        cg_iters += obj.diagnostics.get("cg_iters", 0)
        return -obj.value, -obj.grad

    def on_step(entry: optimizer.TraceEntry) -> None:
        nonlocal cg_iters
        entry.extras["cg_iters"] = cg_iters
        cg_iters = 0
        if trace_sink is not None:
            trace_sink(trace_record(entry, template, m))

    return fun, on_step


def theta_record(params: HyperParams) -> dict:
    """Constrained hyperparameters as a JSON-serialisable dict."""
    return {
        "variance": params.variance,
        "lengthscales": [float(v) for v in params.lengthscales],
        "noise": params.noise,
        "mean": params.mean,
    }


def trace_record(entry: optimizer.TraceEntry, template: HyperParams, m: int | None) -> dict:
    """``m`` is None for the models without inducing points."""
    p, _ = models.unpack_params(template, entry.x, m=m)
    return {
        "step": entry.step,
        "objective": -entry.value,  # back to the maximised bound
        "grad_norm": entry.grad_norm,
        "cg_iters": entry.extras.get("cg_iters", 0),
        "elapsed_s": entry.elapsed_s,
        "theta": theta_record(p),
    }


def train(cfg: RunConfig, train_set: Dataset, trace_sink=None
          ) -> tuple[TrainedModel, optimizer.MinimizeResult]:
    """Fit the configured model; streams one record per accepted step.

    Each record reaches ``trace_sink`` before the next step starts, so on
    optimiser/model failure the records of every accepted step stand;
    the exception propagates.
    """
    X, y = train_set.X, train_set.y
    template = initial_params(cfg, train_set.d)
    m = Z0 = None
    if cfg.model in ("sgpr", "cglb"):
        Z0 = nystrom.greedy_select(X, template, min(cfg.m, train_set.n)).Z
        m = Z0.shape[0]
    cache = VCache()
    fun, on_step = _make_objective(cfg, cfg.model, X, y, template, m, cache, trace_sink)
    x0 = models.pack_params(template, Z0)
    result = optimizer.minimize(fun, x0, cfg.optimizer, on_step=on_step)

    params, Z = models.unpack_params(template, result.x, m=m)
    v = r = None
    if cfg.model == "cglb":
        state = models.cglb_prediction_vector(
            params, Z, X, y, cache, eps=cfg.eps_predict, dense_cap=cfg.dense_cap)
        v, r = state.v, state.r
    assert train_set.stats is not None, "train() expects a standardised split"
    model = TrainedModel(kind=cfg.model, params=params, Z=Z, v=v, X=X, y=y,
                         stats=train_set.stats, r=r)
    return model, result


def predict(model: TrainedModel, Xs: np.ndarray) -> models.Prediction:
    if model.kind == "sgpr":
        return models.sgpr_predict(model.params, model.Z, model.X, model.y, Xs)
    if model.kind == "cglb":
        return models.cglb_predict(model.params, model.Z, model.X, model.y, model.v, Xs,
                                   r=model.r)
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
    models.require_dense(n, cfg.dense_cap)
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
        # One set of sparse blocks and one K_ff serve the solve, the bounds and the oracle.
        parts = nystrom.sparse_parts(params, X, Z)
        kff = kernels.kernel_matrix(X, None, params)
        yc = y - params.mean
        state = models.solve_v(parts, lambda p: kff @ p, yc, None, cfg.eps_predict, None)
        report = bounds.bound_report(parts.factor, yc, state.v, state.r)
        chol, alpha = models.khat_solve(params, kff, y)
        logdet_exact = chol.logdet()
        quad_exact = float(yc @ alpha)
        lml = bounds.gaussian_lml(n, quad_exact, logdet_exact)
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


def gradient_check_report(seed: int = 0) -> dict[str, float]:
    """Worst finite-difference relative error per objective; CGLB keeps v frozen."""
    n, d, m = 25, 2, 5
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
    cache = VCache()
    # The closures training minimises: they negate the bound, which leaves the errors exact.
    exact_fun = _make_objective(RunConfig(), "exact", X, y, params, None, cache)[0]
    elbo_fun = _make_objective(RunConfig(), "sgpr", X, y, params, m, cache)[0]
    base = models.cglb_objective(params, Z, X, y, cache, eps=1e-12)
    v_frozen = cache.last_v

    def f_cglb(vec):
        # the frozen-v value, against the objective's gradient at the base point
        p, Zv = models.unpack_params(params, vec, m=m)
        return models.cglb_value_fixed_v(p, Zv, X, y, v_frozen), base.grad

    return {
        "exact": optimizer.check_grad(exact_fun, models.pack_params(params), seed=seed),
        "elbo": optimizer.check_grad(elbo_fun, models.pack_params(params, Z), seed=seed),
        "cglb": optimizer.check_grad(f_cglb, models.pack_params(params, Z), seed=seed + 1),
    }


def save_model(model: TrainedModel, path: str) -> None:
    meta = {
        "kind": model.kind,
        "floor": model.params.floor,
        "ndim": model.params.ndim,
    }
    np.savez(
        path,
        meta=json.dumps(meta),
        theta=model.params.to_vector(),
        Z=model.Z if model.Z is not None else np.zeros((0, model.params.ndim)),
        v=model.v if model.v is not None else np.zeros(0),
        r=model.r if model.r is not None else np.zeros(0),
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
    template = HyperParams(
        raw_variance=0.0,
        raw_lengthscales=np.zeros(meta["ndim"]),
        raw_noise=0.0,
        mean=0.0,
        # A model.npz written before the floors were merged lists three equal ones.
        floor=meta["floor"] if "floor" in meta else meta["floors"][0],
    )
    params = template.with_vector(payload["theta"])
    Z = payload["Z"]
    v = payload["v"]
    # A model.npz written before the residual was saved has no "r".
    r = payload["r"] if "r" in payload.files else np.zeros(0)
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
        r=r if r.size else None,
    )
