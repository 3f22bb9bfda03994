"""Bounds on log|Khat| and on the quadratic form y.T Khat^{-1} y.

Every bound is a pure function of a NystromFactor (plus vectors the
caller already holds); none of them touches an n x n matrix. Four
log-determinant bounds are provided:

* ``logdet_upper_trace``  -- log|Qhat| + Tr(Khat - Qhat)/sigma^2, the
  classic sparse-GP bound; loosest.
* ``logdet_upper_amgm``   -- log|Qhat| + n log(1 + Tr(Khat - Qhat)/(n sigma^2)),
  tightened by the arithmetic-geometric mean inequality; the one used
  in the training objective.
* ``logdet_upper_waterfill`` -- the tightest bound knowing the
  eigenvalues of Qhat and the trace budget, via water-filling.
* ``logdet_lower_top``    -- a lower bound from piling the whole trace
  budget onto the top eigendirection of Qhat.

The two-sided quadratic bound brackets y.T Khat^{-1} y around any
candidate solution v with residual r = y - Khat v; its width
r.T Qhat^{-1} r is exactly the conjugate-gradient stopping quantity.

``gaussian_lml`` is the one assembly of an objective from a quadratic
term and a log-determinant term, exact or bounded; every objective in
the package goes through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .nystrom import NystromFactor, eig_q, logdet_q, solve_q

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class BoundReport:
    """All bound values for one (theta, Z, v) configuration."""

    logdet_amgm: float
    logdet_trace: float
    logdet_waterfill: float
    logdet_lower: float
    quad_lower: float
    quad_upper: float
    assembled_cglb: float
    assembled_elbo: float


def gaussian_lml(n: int, quad: float, logdet: float) -> float:
    """-n/2 log 2 pi - quad/2 - logdet/2: the exact LML with the exact terms,
    the ELBO and CGLB with their upper bounds on them."""
    return -0.5 * n * LOG_2PI - 0.5 * quad - 0.5 * logdet


def logdet_upper_amgm(f: NystromFactor) -> float:
    """log|Qhat| + n log(1 + Tr(Khat - Qhat) / (n sigma^2))."""
    t = f.trace_residual()
    return logdet_q(f) + f.n * float(np.log1p(t / (f.n * f.sigma2)))


def logdet_upper_trace(f: NystromFactor) -> float:
    """log|Qhat| + Tr(Khat - Qhat) / sigma^2; looser since log(1+x) <= x."""
    return logdet_q(f) + f.trace_residual() / f.sigma2


def water_fill(levels: np.ndarray, budget: float) -> tuple[np.ndarray, float]:
    """Allocate ``budget`` >= 0 over channels to maximise sum log(level + e).

    Solves sup { sum_i log(l_i + e_i) : e_i >= 0, sum e_i = budget }.
    The KKT conditions give e_i = max(0, nu - l_i) with the water level
    nu fixed by the budget; nu is found exactly by scanning the sorted,
    piecewise-linear fill function. Returns (allocation, nu).
    """
    levels = np.asarray(levels, dtype=np.float64)
    if budget < 0:
        raise ValueError("budget must be non-negative")
    if levels.size == 0:
        raise ValueError("levels must hold at least one channel")
    asc = np.sort(levels)
    csum = np.cumsum(asc)
    for k in range(1, levels.size + 1):
        cand = (budget + csum[k - 1]) / k
        if k == levels.size or cand <= asc[k]:
            nu = cand
            break
    alloc = np.maximum(0.0, nu - levels)
    return alloc, float(nu)


def logdet_upper_waterfill(f: NystromFactor) -> float:
    """sup log|A| over A with spectrum dominating Qhat's and Tr(A) = Tr(Khat)."""
    levels = eig_q(f)
    alloc, _ = water_fill(levels, f.trace_residual())
    return float(np.sum(np.log(levels + alloc)))


def logdet_lower_top(f: NystromFactor) -> float:
    """log|Qhat| + log(1 + Tr(Khat - Qhat) / l_1), l_1 the top eigenvalue of Qhat.

    Attained by Qhat + t w w.T with w the top eigenvector, so this is the
    greatest lower bound under the same trace/PSD information.
    """
    return logdet_q(f) + float(np.log1p(f.trace_residual() / eig_q(f)[0]))


def quad_lower(y: np.ndarray, v: np.ndarray, r: np.ndarray) -> float:
    """2 y.T v - v.T Khat v, with v.T Khat v written as v.T (y - r) for r = y - Khat v."""
    return 2.0 * float(y @ v) - float(v @ (y - r))


def quad_bounds(
    f: NystromFactor, y: np.ndarray, v: np.ndarray, r: np.ndarray
) -> tuple[float, float]:
    """Two-sided bound on y.T Khat^{-1} y given v and its residual r = y - Khat v.

    lower = ``quad_lower(y, v, r)``, reusing the matrix-vector product
    already spent on r; upper = lower + r.T Qhat^{-1} r.
    """
    y = np.asarray(y, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    if not (y.shape == v.shape == r.shape and y.shape[0] == f.n):
        raise DimensionMismatch("y, v, r must all be length-n vectors")
    lower = quad_lower(y, v, r)
    upper = lower + float(r @ solve_q(f, r))
    return lower, upper


def bound_report(
    f: NystromFactor, y: np.ndarray, v: np.ndarray, r: np.ndarray
) -> BoundReport:
    """Evaluate the full bound zoo and the assembled objectives.

    ``assembled_cglb`` uses the quadratic upper bound at (v, r) and the
    AM-GM log-determinant bound; ``assembled_elbo`` uses v = 0 (so the
    quadratic bound collapses to y.T Qhat^{-1} y) and the trace bound.
    """
    lower, upper = quad_bounds(f, y, v, r)
    ld_amgm = logdet_upper_amgm(f)
    ld_trace = logdet_upper_trace(f)
    y_qinv_y = float(y @ solve_q(f, y))
    return BoundReport(
        logdet_amgm=ld_amgm,
        logdet_trace=ld_trace,
        logdet_waterfill=logdet_upper_waterfill(f),
        logdet_lower=logdet_lower_top(f),
        quad_lower=lower,
        quad_upper=upper,
        assembled_cglb=gaussian_lml(f.n, upper, ld_amgm),
        assembled_elbo=gaussian_lml(f.n, y_qinv_y, ld_trace),
    )
