"""L-BFGS with strong-Wolfe line search, plus a finite-difference gradient checker.

The driver minimises; training code negates its bound before calling
``minimize``. A limited history of curvature pairs feeds the standard
two-loop recursion, and step lengths come from scipy's strong-Wolfe
line search with configurable c1/c2. Line-search failure is a
termination reason, not an exception.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.optimize import line_search
from scipy.optimize._linesearch import LineSearchWarning

from .errors import NonFiniteObjective

# A line search that gives up warns and returns None, which ``minimize``
# reports as the reason "line_search_failure". The filter is installed once,
# here: swapping the process-wide filter list around each search
# (``warnings.catch_warnings``) races with line searches in other threads.
warnings.filterwarnings("ignore", category=LineSearchWarning)

ValueAndGrad = Callable[[np.ndarray], tuple[float, np.ndarray]]


@dataclass(frozen=True)
class OptimizerConfig:
    max_steps: int = 2000
    memory: int = 10
    c1: float = 1e-4
    c2: float = 0.9
    grad_tol: float = 1e-8  # infinity norm in unconstrained space
    max_line_search: int = 25

    def __post_init__(self):
        if not 0.0 < self.c1 < self.c2 < 1.0:
            raise ValueError("need 0 < c1 < c2 < 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.memory < 1:
            raise ValueError("memory must be >= 1")
        if self.max_line_search < 1:
            raise ValueError("max_line_search must be >= 1")


@dataclass
class TraceEntry:
    step: int
    value: float
    grad_norm: float
    elapsed_s: float
    x: np.ndarray
    extras: dict = field(default_factory=dict)


@dataclass
class MinimizeResult:
    x: np.ndarray
    value: float
    grad: np.ndarray
    trace: list[TraceEntry]
    reason: str  # grad_tol | max_steps | line_search_failure
    n_evals: int


def minimize(
    f: ValueAndGrad,
    x0: np.ndarray,
    cfg: OptimizerConfig = OptimizerConfig(),
    on_step: Callable[[TraceEntry], None] | None = None,
) -> MinimizeResult:
    """Minimise f from x0; returns the best point and a per-step trace.

    The trace has one entry per accepted step plus the initial point.
    ``on_step``, when given, is called with each entry as soon as it is
    made, before the next step starts, and may add to ``entry.extras``;
    so a caller streaming the entries keeps them if a later step raises.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    n_evals = 0
    start = time.perf_counter()
    memo: dict[bytes, tuple[float, np.ndarray]] = {}

    def eval_fg(xk: np.ndarray) -> tuple[float, np.ndarray]:
        # The line search queries value and slope through separate
        # callbacks at the same point; memoise so each point is paid once.
        nonlocal n_evals
        xk = np.asarray(xk, dtype=np.float64)
        key = xk.tobytes()
        hit = memo.get(key)
        if hit is not None:
            return hit
        n_evals += 1
        value, grad = f(xk)
        result = (float(value), np.asarray(grad, dtype=np.float64))
        if len(memo) >= 8:
            memo.clear()
        memo[key] = result
        return result

    value, grad = eval_fg(x)
    if not np.isfinite(value) or not np.all(np.isfinite(grad)):
        raise NonFiniteObjective(f"objective not finite at the initial point: {value}")

    def record(step: int) -> None:
        entry = TraceEntry(
            step=step,
            value=value,
            grad_norm=float(np.max(np.abs(grad))),
            elapsed_s=time.perf_counter() - start,
            x=x.copy(),
        )
        if on_step is not None:
            on_step(entry)
        trace.append(entry)

    trace: list[TraceEntry] = []
    record(0)
    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    rho_hist: list[float] = []
    reason = "max_steps"

    for step in range(1, cfg.max_steps + 1):
        if float(np.max(np.abs(grad))) <= cfg.grad_tol:
            reason = "grad_tol"
            break
        direction = -_two_loop(grad, s_hist, y_hist, rho_hist)
        if float(direction @ grad) >= 0.0:
            # History gone stale/indefinite: restart from steepest descent.
            s_hist.clear(); y_hist.clear(); rho_hist.clear()
            direction = -grad

        alpha, _, _, new_value, _, _ = line_search(
            lambda xk: eval_fg(xk)[0],
            lambda xk: eval_fg(xk)[1],
            x,
            direction,
            gfk=grad,
            old_fval=value,
            c1=cfg.c1,
            c2=cfg.c2,
            maxiter=cfg.max_line_search,
        )
        if alpha is None or new_value is None:
            reason = "line_search_failure"
            break
        x_new = x + alpha * direction
        value_new, grad_new = eval_fg(x_new)
        if not np.isfinite(value_new) or not np.all(np.isfinite(grad_new)):
            raise NonFiniteObjective(
                f"objective not finite at step {step} (value {value_new})")
        s = x_new - x
        yv = grad_new - grad
        sy = float(s @ yv)
        if sy > 1e-14 * float(np.linalg.norm(s)) * float(np.linalg.norm(yv)):
            s_hist.append(s)
            y_hist.append(yv)
            rho_hist.append(1.0 / sy)
            if len(s_hist) > cfg.memory:
                s_hist.pop(0); y_hist.pop(0); rho_hist.pop(0)
        x, value, grad = x_new, value_new, grad_new
        record(step)

    if reason == "max_steps" and float(np.max(np.abs(grad))) <= cfg.grad_tol:
        reason = "grad_tol"
    return MinimizeResult(x=x, value=value, grad=grad, trace=trace, reason=reason,
                          n_evals=n_evals)


def _two_loop(
    grad: np.ndarray,
    s_hist: list[np.ndarray],
    y_hist: list[np.ndarray],
    rho_hist: list[float],
) -> np.ndarray:
    """Two-loop recursion returning H_k^{-1}-scaled gradient direction."""
    q = grad.copy()
    alphas = []
    for s, yv, rho in zip(reversed(s_hist), reversed(y_hist), reversed(rho_hist)):
        a = rho * float(s @ q)
        alphas.append(a)
        q -= a * yv
    if s_hist:
        s, yv = s_hist[-1], y_hist[-1]
        q *= float(s @ yv) / float(yv @ yv)
    for (s, yv, rho), a in zip(zip(s_hist, y_hist, rho_hist), reversed(alphas)):
        b = rho * float(yv @ q)
        q += (a - b) * s
    return q


def check_grad(f: ValueAndGrad, x: np.ndarray, seed: int = 0) -> float:
    """Worst relative error of the analytic gradient along random directions.

    Central differences (f(x+hd) - f(x-hd)) / 2h with h = 1e-6 against
    grad @ d for 10 random unit vectors d.
    """
    h = 1e-6
    x = np.asarray(x, dtype=np.float64)
    rng = np.random.default_rng(seed)
    _, grad = f(x)
    worst = 0.0
    for _ in range(10):
        d = rng.standard_normal(x.size)
        d /= np.linalg.norm(d)
        fp, _ = f(x + h * d)
        fm, _ = f(x - h * d)
        fd = (fp - fm) / (2.0 * h)
        slope = float(grad @ d)
        err = abs(fd - slope) / max(abs(slope), abs(fd), 1e-12)
        worst = max(worst, err)
    return worst
