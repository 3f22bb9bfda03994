"""The benchmark's workloads: seeded inputs, one timed job, and its checks.

Every workload is a single closed-loop caller: each objective evaluation,
solve or prediction waits for the previous one, as L-BFGS does. A job is
deterministic in its inputs, so a job repeated on the same inputs, traced
or not, must repeat its step, evaluation and iteration counts and its
results exactly.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.spatial.distance import cdist

from cglb import data, models, nystrom, training
from cglb.config import OptimizerSection, RunConfig
from cglb.kernels import HyperParams
from cglb.pcg import VCache

LOG_2PI = math.log(2.0 * math.pi)
REL_TOL = 1e-8  # slack allowed in the elbo <= cglb <= exact sandwich, relative to |exact|

# Per-layer metric -> the end-to-end metrics it should move, by workload.
LAYER_MAP = {
    "kernels.kff_s": {"cglb-train": ["step_ms_p50", "peak_mib"], "cglb-solve": ["predict_ms_p50"]},
    "kernels.dense_bytes": {"cglb-train": ["step_ms_p50", "peak_mib"],
                            "cglb-solve": ["predict_ms_p50"]},
    "kernels.kuf_s": {"sgpr-train": ["step_ms_p50"]},
    "kernels.input_grad_s": {"sgpr-train": ["step_ms_p50"]},
    "kernels.lengthscale_grad_s": {"cglb-train": ["step_ms_p50"], "cglb-solve": ["(flat)"]},
    "kernels.lengthscale_grad_calls": {"cglb-train": ["step_ms_p50"], "cglb-solve": ["(flat)"]},
    "pcg.solve_s": {"cglb-solve": ["predict_ms_p50", "predict_ms_tail"]},
    "pcg.iters": {"cglb-solve": ["predict_ms_p50", "predict_ms_tail"]},
    "pcg.matvecs": {"cglb-solve": ["predict_ms_p50", "predict_ms_tail"]},
    "pcg.matvec_s": {"cglb-solve": ["predict_ms_p50", "predict_ms_tail"]},
    "pcg.precond_s": {"cglb-solve": ["predict_ms_p50", "predict_ms_tail"]},
    "pcg.zero_iter_frac": {"cglb-train": ["step_ms_tail"]},
    "nystrom.factor_s": {"sgpr-train": ["step_ms_p50"]},
    "nystrom.solve_q_s": {"sgpr-train": ["step_ms_p50"]},
    "nystrom.solve_q_cols": {"sgpr-train": ["step_ms_p50"]},
    "nystrom.greedy_select_s": {"sgpr-train": ["step_ms_p50"]},
    "linalg.cholesky_s": {"sgpr-train": ["step_ms_p50"]},
    "linalg.cholesky_calls": {"sgpr-train": ["step_ms_p50"]},
    "linalg.tri_solve_s": {"sgpr-train": ["step_ms_p50"]},
    "models.objective_s": {"cglb-train": ["train_s"], "sgpr-train": ["train_s"]},
    "models.objective_self_s": {"cglb-train": ["train_s"], "sgpr-train": ["train_s"]},
    "models.evals": {"cglb-train": ["train_s"], "sgpr-train": ["train_s"]},
    "optimizer.evals_per_step": {"cglb-train": ["train_s"], "sgpr-train": ["train_s"]},
    "optimizer.line_searches": {"cglb-train": ["train_s"], "sgpr-train": ["train_s"]},
    "optimizer.self_s": {"cglb-train": ["train_s"], "sgpr-train": ["train_s"]},
    "data.build_s": {"cglb-train": ["setup_s"], "sgpr-train": ["setup_s"],
                     "cglb-solve": ["setup_s"]},
    "pcg.unconverged": {w: ["ok_frac", "bound_slack"]
                        for w in ("cglb-train", "sgpr-train", "cglb-solve")},
    "linalg.jitter_escalations": {w: ["ok_frac", "bound_slack"]
                                  for w in ("cglb-train", "sgpr-train", "cglb-solve")},
}


@dataclass(frozen=True)
class DataSpec:
    """The package's sum-of-sines generator, split and standardised.

    The target function is fixed and the seed draws the inputs and the
    noise, so every seed poses a problem of the same difficulty.
    """

    n_total: int
    d: int
    noise_std: float
    train_fraction: float

    def build(self, seed: int):
        ds = data.synthetic_sine(self.n_total, self.d, self.noise_std, seed)
        train, test, _ = data.split_standardize(ds, self.train_fraction, seed)
        return train, test


@contextmanager
def timed_calls(owner, attr: str, samples_ms: list[float]):
    """Append the duration of every call of ``owner.attr`` to ``samples_ms``."""
    original = getattr(owner, attr)

    def timed(*args, **kwargs):
        start = time.perf_counter()
        result = original(*args, **kwargs)
        samples_ms.append((time.perf_counter() - start) * 1e3)
        return result

    setattr(owner, attr, timed)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def exact_lml(params: HyperParams, X: np.ndarray, y: np.ndarray) -> float:
    """Exact log marginal likelihood, computed independently of ``cglb``."""
    scaled = X / params.lengthscales
    s = math.sqrt(3.0) * cdist(scaled, scaled)
    k = params.variance * (1.0 + s) * np.exp(-s)
    k[np.diag_indices_from(k)] += params.noise
    chol = scipy.linalg.cholesky(k, lower=True, overwrite_a=True, check_finite=False)
    yc = y - params.mean
    w = scipy.linalg.solve_triangular(chol, yc, lower=True, check_finite=False)
    return float(-0.5 * y.size * LOG_2PI - 0.5 * w @ w - np.sum(np.log(np.diag(chol))))


def sandwich_failures(params, Z, X, y, v, label: str) -> tuple[list[str], float, float]:
    """Check elbo <= cglb(v) <= exact; returns (failures, cglb value, exact LML)."""
    exact = exact_lml(params, X, y)
    lower = models.elbo(params, Z, X, y).value
    cglb = models.cglb_value_fixed_v(params, Z, X, y, v)
    tol = REL_TOL * max(1.0, abs(exact))
    failures = []
    if not all(map(math.isfinite, (exact, lower, cglb))):
        failures.append(f"{label}: non-finite bound (elbo {lower}, cglb {cglb}, exact {exact})")
    elif lower > cglb + tol or cglb > exact + tol:
        failures.append(f"{label}: sandwich broken: elbo {lower!r}, cglb {cglb!r}, "
                        f"exact {exact!r}")
    return failures, cglb, exact


def tail_pct(min_samples: int) -> float:
    """Highest percentile with at least ten of ``min_samples`` samples beyond it."""
    return 100.0 * (1.0 - 10.0 / min_samples)


def percentile(values, pct: float) -> tuple[float, dict]:
    values = np.asarray(values, dtype=np.float64)
    value = float(np.percentile(values, pct))
    return value, {"pct": pct, "samples": int(values.size),
                   "beyond": int(np.sum(values > value))}


def timing_metrics(jobs: list[dict], min_steps: int, min_predictions: int
                   ) -> tuple[dict, dict]:
    """Medians and tails of the per-step and per-prediction times, and train_s.

    A step is the unit the closed loop waits on: one objective evaluation
    when training, one PCG iteration in a solve. The tail percentile is
    fixed per workload from the fewest samples a run can take, so it means
    the same thing in every run.
    """
    steps = [t for job in jobs for t in job["step_ms"]]
    predicts = [t for job in jobs for t in job["predict_ms"]]
    step_tail, step_info = percentile(steps, tail_pct(min_steps))
    predict_tail, predict_info = percentile(predicts, tail_pct(min_predictions))
    metrics = {
        "train_s": float(np.median([job["train_s"] for job in jobs])),
        "step_ms_p50": float(np.median(steps)),
        "step_ms_tail": step_tail,
        "predict_ms_p50": float(np.median(predicts)),
        "predict_ms_tail": predict_tail,
    }
    return metrics, {"step_ms_tail": step_info, "predict_ms_tail": predict_info,
                     "train_s": {"samples": len(jobs)}}


@dataclass(frozen=True)
class TrainWorkload:
    """Fit a sparse model with L-BFGS for a fixed step budget, then predict.

    Job k trains on dataset k % datasets: how loose a bound is after a
    short fit varies by tens of percent between datasets, so a run covers
    several and reports the mean quality over them.
    """

    name: str
    model: str
    m: int
    data: DataSpec
    datasets: int  # drawn from the seed; also the fewest jobs a run makes
    steps: int
    predictions: int  # training.evaluate calls timed per job
    canary_data: DataSpec
    canary_m: int
    canary_steps: int

    @property
    def min_jobs(self) -> int:
        return self.datasets

    @property
    def min_samples(self) -> tuple[int, int]:
        """Fewest step and prediction times a run takes: each step evaluates at least once."""
        return self.min_jobs * (self.steps + 1), self.min_jobs * self.predictions

    def build_inputs(self, seed: int) -> dict:
        datasets = [dict(zip(("train", "test"), self.data.build(seed * 100 + k)))
                    for k in range(self.datasets)]
        return {"datasets": datasets, "seed": seed, "n_train": datasets[0]["train"].n}

    def config(self, m: int, steps: int, seed: int) -> RunConfig:
        return RunConfig(model=self.model, m=m, seed=seed,
                         optimizer=OptimizerSection(max_steps=steps, grad_tol=0.0))

    def run_job(self, inputs: dict, index: int) -> dict:
        key = index % self.datasets
        job = self._job(inputs["datasets"][key],
                        self.config(self.m, self.steps, inputs["seed"]), self.predictions)
        return {**job, "key": key}

    @staticmethod
    def _job(dataset: dict, cfg: RunConfig, predictions: int) -> dict:
        # L-BFGS steps take one or two evaluations, so per-step times are
        # bimodal and their median unstable; the evaluation is the step here.
        eval_ms: list[float] = []
        start = time.perf_counter()
        with timed_calls(models, OBJECTIVES[cfg.model], eval_ms):
            model, result = training.train(cfg, dataset["train"])
        train_s = time.perf_counter() - start
        predict_ms = []
        for _ in range(predictions):
            tick = time.perf_counter()
            scores = training.evaluate(model, dataset["test"])
            predict_ms.append((time.perf_counter() - tick) * 1e3)
        return {
            "wall_s": time.perf_counter() - start,
            "train_s": train_s,
            "step_ms": eval_ms,
            "predict_ms": predict_ms,
            "items": 1,
            "model": model,
            "result": result,
            "scores": scores,
            "fingerprint": result.value,
            "counts": {"steps": len(result.trace) - 1, "evals": result.n_evals,
                       "reason": result.reason,
                       "cg_iters": [entry.extras.get("cg_iters", 0) for entry in result.trace]},
        }

    def check(self, inputs: dict, job: dict) -> tuple[list[list[str]], dict]:
        """Failures of the job's one item, and its quality figures."""
        model, result, counts = job["model"], job["result"], job["counts"]
        train = inputs["datasets"][job["key"]]["train"]
        X, y, n = train.X, train.y, train.n
        failures = []
        if not (math.isfinite(result.value) and np.all(np.isfinite(result.grad))):
            failures.append(f"non-finite final objective {result.value}")
        if counts["reason"] != "max_steps" or counts["steps"] != self.steps:
            failures.append(f"stopped early: {counts['reason']} after {counts['steps']} "
                            f"of {self.steps} steps")
        if not all(math.isfinite(v) for v in job["scores"].values()):
            failures.append(f"non-finite test metrics {job['scores']}")
        v = model.v
        if v is None:  # SGPR keeps no CG vector: solve for one at the trained theta
            v = models.cglb_prediction_vector(model.params, model.Z, X, y, VCache()).v
        sandwich, _, exact = sandwich_failures(model.params, model.Z, X, y, v, "trained theta")
        failures += sandwich
        bound = -result.value
        if bound > exact + REL_TOL * max(1.0, abs(exact)):
            failures.append(f"training objective {bound!r} above the exact LML {exact!r}")
        quality = {
            "final_objective": result.value / n,
            "bound_slack": (exact - bound) / n,
            "test_rmse": job["scores"]["rmse"],
            "test_nlpd": job["scores"]["nlpd"],
        }
        return [failures], quality

    def warm_up(self, inputs: dict) -> None:
        """One full-size evaluation, so the first timed job pays no first-touch costs."""
        train = inputs["datasets"][0]["train"]
        params = training.initial_params(self.config(self.m, 1, inputs["seed"]), train.d)
        Z = nystrom.greedy_select(train.X, params, self.m).Z
        getattr(models, OBJECTIVES[self.model])(params, Z, train.X, train.y)

    def canary(self) -> dict:
        """A small fixed-seed job whose outputs are compared with the reference."""
        train, test = self.canary_data.build(0)
        job = self._job({"train": train, "test": test},
                        self.config(self.canary_m, self.canary_steps, 0), 1)
        return {**job["counts"], "objective": job["result"].value,
                "rmse": job["scores"]["rmse"]}


@dataclass(frozen=True)
class SolveWorkload:
    """Cold prediction at a fixed set of hyperparameter draws.

    A job is one sweep over the draws. Each draw selects inducing points,
    solves for the prediction vector from zero with PCG, and predicts on
    the test split.
    """

    name: str
    m: int
    eps: float
    draws: int
    noise_range: tuple[float, float]
    lengthscale_range: tuple[float, float]
    data: DataSpec
    min_jobs: int
    canary_data: DataSpec
    canary_draws: int

    @property
    def min_samples(self) -> tuple[int, int]:
        return self.min_jobs * self.draws, self.min_jobs * self.draws

    def hyper_draws(self, count: int, d: int, seed: int) -> list[HyperParams]:
        """Stratified draws: every run spans the same noise and lengthscale range."""
        rng = np.random.default_rng(seed)

        def stratified(low, high, shape):
            strata = rng.permuted(np.broadcast_to(np.arange(count), shape[::-1]), axis=-1).T
            u = (strata + rng.uniform(size=shape)) / count
            return np.exp(np.log(low) + u * (np.log(high) - np.log(low)))

        noise = stratified(*self.noise_range, (count,))
        lengthscales = stratified(*self.lengthscale_range, (count, d))
        variance = np.exp(rng.uniform(-0.3, 0.3, count))
        return [HyperParams.from_constrained(float(variance[k]), lengthscales[k],
                                             float(noise[k]), 0.0, ndim=d)
                for k in range(count)]

    def build_inputs(self, seed: int) -> dict:
        train, test = self.data.build(seed)
        return {"train": train, "test": test, "seed": seed, "n_train": train.n,
                "draws": self.hyper_draws(self.draws, self.data.d, seed)}

    def run_job(self, inputs: dict, index: int = 0) -> dict:
        """One sweep over the draws; every sweep repeats the same work."""
        X, y = inputs["train"].X, inputs["train"].y
        Xs = inputs["test"].X
        draws = []
        start = time.perf_counter()
        for params in inputs["draws"]:
            tick = time.perf_counter()
            Z = nystrom.greedy_select(X, params, self.m).Z
            state = models.cglb_prediction_vector(params, Z, X, y, VCache(), eps=self.eps)
            solved = time.perf_counter()
            pred = models.cglb_predict(params, Z, X, y, state.v, Xs)
            done = time.perf_counter()
            draws.append({"params": params, "Z": Z, "state": state, "pred": pred,
                          "solve_s": solved - tick, "predict_ms": (done - tick) * 1e3})
        wall_s = time.perf_counter() - start
        return {
            "wall_s": wall_s,
            "train_s": wall_s,
            # A step of this workload is one PCG iteration; the K_ff build is amortised.
            "step_ms": [d["solve_s"] / max(d["state"].iters, 1) * 1e3 for d in draws],
            "predict_ms": [d["predict_ms"] for d in draws],
            "items": len(draws),
            "key": 0,
            "draws": draws,
            "fingerprint": [d["pred"].mean.tobytes() + d["state"].v.tobytes() for d in draws],
            "counts": {"iters": [d["state"].iters for d in draws]},
        }

    def check(self, inputs: dict, job: dict) -> tuple[list[list[str]], dict]:
        """Failures per draw, and the means of the quality figures over the stratified draws."""
        train, test = inputs["train"], inputs["test"]
        X, y, n = train.X, train.y, train.n
        figures = {"final_objective": [], "bound_slack": [], "test_rmse": [], "test_nlpd": []}
        per_draw = []
        for k, draw in enumerate(job["draws"]):
            state, pred = draw["state"], draw["pred"]
            failures = []
            if not (state.converged and state.gap <= 2.0 * self.eps):
                failures.append(f"draw {k}: PCG not converged (gap {state.gap!r} after "
                                f"{state.iters} iterations)")
            scores = training.metrics_from_predictions(pred.mean, pred.var_with_noise(),
                                                       test.y)
            if not all(math.isfinite(v) for v in scores.values()):
                failures.append(f"draw {k}: non-finite test metrics {scores}")
            sandwich, cglb, exact = sandwich_failures(draw["params"], draw["Z"], X, y,
                                                      state.v, f"draw {k}")
            per_draw.append(failures + sandwich)
            figures["final_objective"].append(-cglb / n)
            figures["bound_slack"].append((exact - cglb) / n)
            figures["test_rmse"].append(scores["rmse"])
            figures["test_nlpd"].append(scores["nlpd"])
        return per_draw, {key: float(np.mean(v)) for key, v in figures.items()}

    def warm_up(self, inputs: dict) -> None:
        """One full-size prediction, so the first timed sweep pays no first-touch costs."""
        X, y = inputs["train"].X, inputs["train"].y
        params = inputs["draws"][0]
        Z = nystrom.greedy_select(X, params, self.m).Z
        models.cglb_predict(params, Z, X, y, np.zeros_like(y), inputs["test"].X)

    def canary(self) -> dict:
        train, test = self.canary_data.build(0)
        inputs = {"train": train, "test": test,
                  "draws": self.hyper_draws(self.canary_draws, self.canary_data.d, 0)}
        sweep = self.run_job(inputs)
        return {"iters": sweep["counts"]["iters"],
                "gap": [d["state"].gap for d in sweep["draws"]],
                "mean_sum": [float(np.sum(d["pred"].mean)) for d in sweep["draws"]]}


OBJECTIVES = {"cglb": "cglb_objective", "sgpr": "elbo"}
TRAIN_DATA = DataSpec(n_total=3000, d=8, noise_std=0.3, train_fraction=2.0 / 3.0)
CANARY_TRAIN_DATA = DataSpec(n_total=300, d=8, noise_std=0.3, train_fraction=2.0 / 3.0)

# BENCHMARK.json records why each workload was chosen.
WORKLOADS = {
    w.name: w for w in (
        TrainWorkload(
            name="cglb-train",
            model="cglb", m=32, data=TRAIN_DATA, datasets=4, steps=15, predictions=10,
            canary_data=CANARY_TRAIN_DATA, canary_m=8, canary_steps=5),
        TrainWorkload(
            name="sgpr-train",
            model="sgpr", m=128, data=TRAIN_DATA, datasets=8, steps=20, predictions=20,
            canary_data=CANARY_TRAIN_DATA, canary_m=16, canary_steps=5),
        SolveWorkload(
            name="cglb-solve",
            m=16, eps=1e-3, draws=20, noise_range=(1e-3, 1e-2), lengthscale_range=(0.3, 1.0),
            data=DataSpec(n_total=4000, d=2, noise_std=0.1, train_fraction=0.75),
            min_jobs=1,
            canary_data=DataSpec(n_total=400, d=2, noise_std=0.1, train_fraction=0.75),
            canary_draws=2),
    )
}

# Robustness counters whose healthy value is zero; every other metric a
# workload is mapped to above must be non-zero on it in a traced run.
ZERO_WHEN_HEALTHY = {"pcg.unconverged", "linalg.jitter_escalations", "pcg.zero_iter_frac"}


def required_nonzero(workload: str) -> list[str]:
    return [metric for metric, by in LAYER_MAP.items()
            if workload in by and "(flat)" not in by[workload]
            and metric not in ZERO_WHEN_HEALTHY]


def timed_setup(name: str, seed: int, repeats: int) -> tuple[dict, list[float]]:
    """Build a workload's inputs ``repeats`` times; returns the last and the times."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        inputs = WORKLOADS[name].build_inputs(seed)
        times.append(time.perf_counter() - start)
    return inputs, times
