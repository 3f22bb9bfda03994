import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize._linesearch import LineSearchWarning

from cglb import models, optimizer
from cglb.errors import NonFiniteObjective
from cglb.optimizer import OptimizerConfig
from helpers import random_instance


class TestMinimize:
    def test_convex_quadratic(self):
        rng = np.random.default_rng(0)
        n = 10
        a = rng.standard_normal((n, n))
        A = a @ a.T + n * np.eye(n)
        b = rng.standard_normal(n)

        def fun(x):
            return 0.5 * float(x @ A @ x) - float(b @ x), A @ x - b

        res = optimizer.minimize(fun, np.zeros(n), OptimizerConfig(max_steps=50))
        target = np.linalg.solve(A, b)
        assert np.linalg.norm(res.x - target) <= 1e-8 * max(1.0, np.linalg.norm(target))
        assert len(res.trace) - 1 <= 50

    def test_already_optimal_zero_steps(self):
        def fun(x):
            return float(x @ x), 2.0 * x

        res = optimizer.minimize(fun, np.zeros(3), OptimizerConfig())
        assert len(res.trace) == 1
        assert res.reason == "grad_tol"

    def test_rosenbrock(self):
        def fun(x):
            v = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2
            g = np.array([
                -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
                200.0 * (x[1] - x[0] ** 2),
            ])
            return v, g

        res = optimizer.minimize(fun, np.array([-1.2, 1.0]),
                                 OptimizerConfig(max_steps=200, grad_tol=1e-12))
        assert res.value < 1e-8
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-3)

    def test_monotone_accepted_values(self):
        def fun(x):
            return float(np.cosh(x).sum()), np.sinh(x)

        res = optimizer.minimize(fun, np.array([2.0, -3.0, 0.5]),
                                 OptimizerConfig(max_steps=100))
        values = [e.value for e in res.trace]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
        assert all(np.isfinite(e.value) and np.isfinite(e.grad_norm) for e in res.trace)

    def test_line_search_failure_is_a_reason(self):
        # Numerically flat objective with a non-zero reported gradient:
        # no step can satisfy sufficient decrease.
        def fun(x):
            return 0.0, np.array([1.0])

        res = optimizer.minimize(fun, np.zeros(1), OptimizerConfig(max_steps=5))
        assert res.reason == "line_search_failure"

    def test_non_finite_objective_raises(self):
        def fun(x):
            return float("nan"), np.zeros(1)

        with pytest.raises(NonFiniteObjective):
            optimizer.minimize(fun, np.zeros(1), OptimizerConfig())

    def test_on_step_streams_entries_in_order(self):
        seen = []

        def fun(x):
            return float(np.cosh(x).sum()), np.sinh(x)

        def on_step(entry):
            seen.append(entry)
            entry.extras["tick"] = len(seen)

        res = optimizer.minimize(fun, np.array([2.0, -3.0, 0.5]),
                                 OptimizerConfig(max_steps=30), on_step=on_step)
        assert len(res.trace) > 2
        # each entry once, in step order, and what on_step added stays on the trace
        assert len(seen) == len(res.trace)
        assert all(a is b for a, b in zip(seen, res.trace))
        assert [e.step for e in seen] == list(range(len(seen)))
        assert [e.extras["tick"] for e in res.trace] == list(range(1, len(seen) + 1))

    def test_on_step_sees_steps_before_a_failure(self):
        # The entries reach on_step before minimize returns, so a caller
        # streaming them keeps every accepted step when a later one raises.
        evals = 0

        def fun(x):
            nonlocal evals
            evals += 1
            if evals == 8:
                raise RuntimeError("forced failure")
            return float(np.cosh(x).sum()), np.sinh(x)

        steps = []
        with pytest.raises(RuntimeError, match="forced failure"):
            optimizer.minimize(fun, np.array([2.0, -3.0, 0.5]), OptimizerConfig(max_steps=30),
                               on_step=lambda entry: steps.append(entry.step))
        assert len(steps) >= 2
        assert steps == list(range(len(steps)))

    def test_line_search_leaves_warning_filters_alone(self, monkeypatch):
        # Swapping the process-wide filter list around each search races with
        # searches in other threads; minimize must not touch it.
        before = warnings.filters
        seen = []

        def failing_search(*args, **kwargs):
            seen.append(warnings.filters is before)
            warnings.warn("The line search algorithm did not converge", LineSearchWarning)
            return None, 0, 0, None, None, None

        monkeypatch.setattr(optimizer, "line_search", failing_search)
        res = optimizer.minimize(lambda x: (float(x @ x), 2.0 * x), np.ones(2))
        assert res.reason == "line_search_failure"
        assert seen == [True]
        assert warnings.filters is before

    def test_line_search_warning_silenced_on_import(self):
        # pytest resets warning filters after collection, so import in a fresh process.
        code = "\n".join([
            "import warnings",
            "import numpy as np",
            "from scipy.optimize._linesearch import LineSearchWarning",
            "from cglb import optimizer",
            "def failing_search(*args, **kwargs):",
            "    warnings.warn('The line search algorithm did not converge', LineSearchWarning)",
            "    return None, 0, 0, None, None, None",
            "optimizer.line_search = failing_search",
            "res = optimizer.minimize(lambda x: (float(x @ x), 2.0 * x), np.ones(2))",
            "assert res.reason == 'line_search_failure'",
            "warnings.warn('other warnings still show', RuntimeWarning)",
        ])
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "line search" not in proc.stderr
        assert "other warnings still show" in proc.stderr

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(c1=0.9, c2=0.1)
        with pytest.raises(ValueError):
            OptimizerConfig(max_steps=0)
        with pytest.raises(ValueError, match="memory"):
            OptimizerConfig(memory=0)
        with pytest.raises(ValueError, match="max_line_search"):
            OptimizerConfig(max_line_search=0)


class TestCheckGrad:
    def test_linear_function_exact(self):
        w = np.array([1.0, -2.0, 3.0])

        def fun(x):
            return float(w @ x), w.copy()

        assert optimizer.check_grad(fun, np.zeros(3)) <= 1e-10

    def test_exact_lml_gradient(self):
        rng = np.random.default_rng(1)
        inst = random_instance(rng, n=25, d=2)

        def fun(vec):
            p, _ = models.unpack_params(inst.params, vec)
            obj = models.exact_lml(p, inst.X, inst.y)
            return obj.value, obj.grad

        assert optimizer.check_grad(fun, models.pack_params(inst.params)) <= 1e-5

    def test_detects_corrupted_gradient(self):
        rng = np.random.default_rng(2)
        inst = random_instance(rng, n=25, d=2)

        def fun(vec):
            p, _ = models.unpack_params(inst.params, vec)
            obj = models.exact_lml(p, inst.X, inst.y)
            return obj.value, obj.grad * 1.01

        assert optimizer.check_grad(fun, models.pack_params(inst.params)) >= 5e-3
