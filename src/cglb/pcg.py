"""Preconditioned conjugate gradients for Khat v = y.

The preconditioner is the Nystrom factor's inverse action, and the
stopping rule is r.T Qhat^{-1} r <= 2*eps: that quantity is exactly the
width of the two-sided quadratic bound, so terminating on it caps the
slack injected into the assembled objective by eps. The preconditioned
inner product r.T z is maintained by the iteration itself, so the check
is free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BreakdownDetected, DimensionMismatch

MatVec = Callable[[np.ndarray], np.ndarray]


@dataclass
class CGState:
    """Solver result: iterate, residual, and the quadratic-bound gap."""

    v: np.ndarray
    r: np.ndarray  # y - Khat v
    z: np.ndarray  # Qhat^{-1} r
    gap: float  # r.T Qhat^{-1} r, clamped at 0
    iters: int
    converged: bool


@dataclass
class VCache:
    """Solution vector carried across objective evaluations.

    Single-writer: exactly one training loop owns an instance. Reuse is
    unconditional as long as the problem size matches.
    """

    last_v: np.ndarray | None = None

    def store(self, v: np.ndarray) -> None:
        self.last_v = np.asarray(v, dtype=np.float64).copy()


def warm_start(cache: VCache, n: int) -> np.ndarray:
    """Previous solution if its size still matches, else zeros."""
    if cache.last_v is not None and cache.last_v.shape == (n,):
        return cache.last_v.copy()
    return np.zeros(n)


def pcg_solve(
    matvec: MatVec,
    precond: MatVec,
    y: np.ndarray,
    v0: np.ndarray | None = None,
    eps: float = 1.0,
    max_iters: int | None = None,
) -> CGState:
    """Run preconditioned CG until r.T Qhat^{-1} r <= 2*eps or max_iters (default n).

    ``matvec`` must be the action of a symmetric positive definite
    matrix; a search direction with non-positive curvature raises
    BreakdownDetected. A warm start at the exact solution returns after
    zero iterations.
    """
    y = np.asarray(y, dtype=np.float64)
    n = y.shape[0]
    if eps < 0.0:
        raise ValueError("eps must be non-negative")
    if max_iters is None:
        max_iters = n  # CG terminates within n steps in exact arithmetic
    if v0 is None:
        v = np.zeros(n)
        r = y.copy()
    else:
        v = np.asarray(v0, dtype=np.float64).copy()
        if v.shape != (n,):
            raise DimensionMismatch(f"v0 has shape {v.shape}, expected ({n},)")
        r = y - matvec(v)
    z = precond(r)
    gap = max(float(r @ z), 0.0)
    if gap <= 2.0 * eps:
        return CGState(v=v, r=r, z=z, gap=gap, iters=0, converged=True)
    p = z.copy()
    rz = gap
    iters = 0
    converged = False
    while iters < max_iters:
        kp = matvec(p)
        curvature = float(p @ kp)
        if curvature <= 0.0:
            raise BreakdownDetected(
                f"direction curvature {curvature:.3e} <= 0 at iteration {iters}"
            )
        alpha = rz / curvature
        v = v + alpha * p
        r = r - alpha * kp
        z = precond(r)
        rz_new = float(r @ z)
        gap = max(rz_new, 0.0)
        iters += 1
        if gap <= 2.0 * eps:
            converged = True
            break
        beta = rz_new / rz
        p = z + beta * p
        rz = rz_new
    return CGState(v=v, r=r, z=z, gap=gap, iters=iters, converged=converged)


def cg_solve_euclidean(
    matvec: MatVec,
    b: np.ndarray,
    tol: float = 1e-10,
    max_iters: int | None = None,
) -> CGState:
    """Plain CG with the usual relative Euclidean stopping rule ||r|| <= tol ||b||.

    Implemented as pcg_solve with the identity preconditioner, for which
    the gap quantity r.T z is ||r||^2.
    """
    if tol < 0.0:
        raise ValueError("tol must be non-negative")
    b = np.asarray(b, dtype=np.float64)
    threshold = 0.5 * (tol * float(np.linalg.norm(b))) ** 2
    return pcg_solve(matvec, lambda x: x, b, eps=threshold, max_iters=max_iters)
