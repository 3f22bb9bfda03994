"""In-memory spans and counters around the calls into each layer of ``cglb``.

``instrument`` replaces layer functions under the name each caller looks
them up by (a module attribute, or a name imported into the caller's
module), records one span per call, and restores the originals on exit.
The wrappers pass arguments and results through unchanged, so a traced
run computes bit-identical numbers to an untraced one.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from cglb import bounds, kernels, linalg, models, nystrom, optimizer, training


class Tracer:
    """Spans (name, start, end, parent index) and named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name (zeros for names never seen): calls, total and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; calls are single-threaded, so children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, start, end, _), children in zip(self.spans, child_time):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - children
        return out


def _block(a, b, n_train: int, m: int) -> str:
    """Name a kernel block by the row counts of its two arguments."""
    rows_a = a.shape[0] if getattr(a, "ndim", 1) > 1 else 1
    rows_b = rows_a if b is None else (b.shape[0] if getattr(b, "ndim", 1) > 1 else 1)
    role = {n_train: "f", m: "u"}
    pair = role.get(rows_a, "") + role.get(rows_b, "")
    return {"ff": "ff", "uf": "uf", "fu": "uf", "uu": "uu"}.get(pair, "other")


@contextmanager
def instrument(tracer: Tracer, n_train: int, m: int):
    """Wrap every layer entry point on the hot paths for the duration."""
    counts = tracer.counts
    patches = []

    def wrap(owners, attr, name, after=None, name_of=None, wrap_args=None):
        original = getattr(owners[0], attr)

        def traced(*args, **kwargs):
            if wrap_args is not None:
                args, kwargs = wrap_args(args, kwargs)
            with tracer.span(name_of(args) if name_of else name):
                result = original(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        for owner in owners:
            patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, traced)

    def block_of(args):
        return "kernels.k_" + _block(args[0], args[1] if len(args) > 1 else None, n_train, m)

    def count_dense(args, result):
        arrays = result if isinstance(result, tuple) else (result,)
        if _block(args[0], args[1], n_train, m) == "ff":
            counts["kernels.dense_bytes"] += sum(a.nbytes for a in arrays)

    def after_cholesky(args, factor):
        counts["linalg.jitter_escalations"] += factor.jitter_used > 0.0

    def after_solve_q(args, result):
        counts["nystrom.solve_q_cols"] += result.shape[1] if result.ndim > 1 else 1

    def timed_callable(name, fn):
        def call(x):
            with tracer.span(name):
                return fn(x)
        return call

    def pcg_args(args, kwargs):
        # Count matvecs by wrapping the callables handed to the solver.
        args, kwargs = list(args), dict(kwargs)
        for position, key in ((0, "matvec"), (1, "precond")):
            if key in kwargs:
                kwargs[key] = timed_callable("pcg." + key, kwargs[key])
            else:
                args[position] = timed_callable("pcg." + key, args[position])
        return tuple(args), kwargs

    def after_pcg(args, state):
        counts["pcg.solves"] += 1
        counts["pcg.iters"] += state.iters
        counts["pcg.zero_iter_solves"] += state.iters == 0
        counts["pcg.unconverged"] += not state.converged

    def after_minimize(args, result):
        counts["optimizer.steps"] += len(result.trace) - 1

    wrap([kernels], "kernel_with_decay", None, after=count_dense, name_of=block_of)
    wrap([kernels], "lengthscale_grad", "kernels.lengthscale_grad", after=count_dense)
    wrap([kernels], "input_grad", "kernels.input_grad")
    wrap([linalg], "cholesky", "linalg.cholesky", after=after_cholesky)
    wrap([linalg], "tri_solve", "linalg.tri_solve")
    # bounds imports solve_q by name, so its binding is patched as well.
    wrap([nystrom, bounds], "solve_q", "nystrom.solve_q", after=after_solve_q)
    wrap([nystrom], "greedy_select", "nystrom.greedy_select")
    wrap([models], "_sparse_parts", "nystrom.factor")
    wrap([models], "pcg_solve", "pcg.solve", after=after_pcg, wrap_args=pcg_args)
    wrap([models], "_assemble_sparse_grad", "models.grad_assembly")
    wrap([models], "cglb_objective", "models.objective")
    wrap([models], "elbo", "models.objective")
    wrap([models], "cglb_prediction_vector", "models.prediction_vector")
    wrap([models], "cglb_predict", "models.predict")
    wrap([models], "sgpr_predict", "models.predict")
    wrap([optimizer], "line_search", "optimizer.line_search")
    wrap([optimizer], "minimize", "optimizer.minimize", after=after_minimize)
    wrap([training], "train", "training.train")
    wrap([training], "evaluate", "training.evaluate")
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, jobs: int) -> dict[str, float]:
    """Per-layer figures per traced job, from the spans and counters."""
    totals = tracer.totals()
    counts = tracer.counts

    def total(*names: str) -> float:
        return sum(totals[n]["total_s"] for n in names) / jobs

    def self_time(*names: str) -> float:
        return sum(totals[n]["self_s"] for n in names) / jobs

    def calls(name: str) -> float:
        return totals[name]["calls"] / jobs

    def per_job(key: str) -> float:
        return counts[key] / jobs

    solves = counts["pcg.solves"]
    steps = counts["optimizer.steps"]
    return {
        "kernels.kff_s": total("kernels.k_ff"),
        "kernels.kuf_s": total("kernels.k_uf"),
        "kernels.kuu_s": total("kernels.k_uu"),
        "kernels.input_grad_s": total("kernels.input_grad"),
        "kernels.lengthscale_grad_s": total("kernels.lengthscale_grad"),
        "kernels.lengthscale_grad_calls": calls("kernels.lengthscale_grad"),
        "kernels.dense_bytes": per_job("kernels.dense_bytes") / 2**20,
        "nystrom.factor_s": total("nystrom.factor"),
        "nystrom.solve_q_s": total("nystrom.solve_q"),
        "nystrom.solve_q_cols": per_job("nystrom.solve_q_cols"),
        "nystrom.greedy_select_s": total("nystrom.greedy_select"),
        "linalg.cholesky_s": total("linalg.cholesky"),
        "linalg.cholesky_calls": calls("linalg.cholesky"),
        "linalg.tri_solve_s": total("linalg.tri_solve"),
        "linalg.jitter_escalations": per_job("linalg.jitter_escalations"),
        "pcg.solve_s": total("pcg.solve"),
        "pcg.iters": per_job("pcg.iters"),
        "pcg.matvecs": calls("pcg.matvec"),
        "pcg.matvec_s": total("pcg.matvec"),
        "pcg.precond_s": total("pcg.precond"),
        "pcg.zero_iter_frac": counts["pcg.zero_iter_solves"] / solves if solves else 0.0,
        "pcg.unconverged": per_job("pcg.unconverged"),
        "models.objective_s": total("models.objective"),
        "models.objective_self_s": self_time("models.objective"),
        "models.grad_assembly_s": total("models.grad_assembly"),
        "models.evals": calls("models.objective"),
        "models.predict_s": total("models.predict"),
        "optimizer.evals_per_step": calls("models.objective") * jobs / steps if steps else 0.0,
        "optimizer.line_searches": calls("optimizer.line_search"),
        "optimizer.self_s": self_time("optimizer.minimize", "optimizer.line_search"),
        "trace.spans": len(tracer.spans) / jobs,
    }
