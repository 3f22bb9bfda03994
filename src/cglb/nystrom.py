"""Low-rank-plus-diagonal approximation of the noisy kernel matrix.

Holds Qhat = A.T A + sigma^2 I in factored form with A = L_uu^{-1} K_uf,
so solves, log-determinant and the eigenvalue profile all cost
O(n m^2 + m^3) and no n x n matrix is ever formed. Also provides greedy
(pivoted-Cholesky) selection of inducing points from the training data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels, linalg
from .errors import DimensionMismatch
from .kernels import HyperParams


@dataclass(frozen=True)
class NystromFactor:
    """Factored representation of Qhat = Q_ff + sigma^2 I with Q_ff = A.T A."""

    a: np.ndarray  # (m, n) half-factor
    sigma2: float
    b_chol: linalg.CholFactor  # Cholesky of I_m + A A.T / sigma^2
    trace_kff: float  # sum_i k(x_i, x_i)
    trace_qff: float  # ||A||_F^2

    @property
    def n(self) -> int:
        return self.a.shape[1]

    @property
    def m(self) -> int:
        return self.a.shape[0]

    def trace_residual(self) -> float:
        """Tr(Khat - Qhat) = Tr(K_ff - Q_ff), clamped at zero.

        The residual is PSD in exact arithmetic; tiny negative values are
        round-off and would poison log(1 + x) downstream.
        """
        return max(self.trace_kff - self.trace_qff, 0.0)


@dataclass(frozen=True)
class SparseParts:
    """The kernel blocks behind a Nystrom factor, kept for gradients and prediction."""

    kuu: np.ndarray  # m x m, without jitter
    luu: linalg.CholFactor
    kuf: np.ndarray  # m x n
    factor: NystromFactor  # its half-factor is L_uu^{-1} K_uf
    decay_zz: np.ndarray  # gradient prefactor for the K_uu block
    decay_zx: np.ndarray  # gradient prefactor for the K_uf block


def sparse_parts(params: HyperParams, X: np.ndarray, Z: np.ndarray) -> SparseParts:
    """K_uu -> L_uu -> K_uf -> A = L_uu^{-1} K_uf -> factor, for 2-D X and Z."""
    kuu, decay_zz = kernels.kernel_with_decay(Z, Z, params)
    luu = linalg.cholesky(kuu)
    kuf, decay_zx = kernels.kernel_with_decay(Z, X, params)
    a = linalg.tri_solve(luu, kuf)
    factor = from_half_factor(a, params.noise, float(np.sum(kernels.kernel_diag(X, params))))
    return SparseParts(kuu=kuu, luu=luu, kuf=kuf, factor=factor,
                       decay_zz=decay_zz, decay_zx=decay_zx)


def build(X: np.ndarray, Z: np.ndarray, params: HyperParams) -> NystromFactor:
    """Assemble the factor for inducing locations Z over training inputs X."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
    if X.shape[1] != Z.shape[1]:
        raise DimensionMismatch("X and Z have different input dimension")
    return sparse_parts(params, X, Z).factor


def from_half_factor(a: np.ndarray, sigma2: float, trace_kff: float) -> NystromFactor:
    """Factor from an explicit half-factor A with Q_ff = A.T A."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    m = a.shape[0]
    b = np.eye(m) + a @ a.T / sigma2
    return NystromFactor(
        a=a,
        sigma2=float(sigma2),
        b_chol=linalg.cholesky(b),
        trace_kff=float(trace_kff),
        trace_qff=float(np.sum(a**2)),
    )


def diagonal_factor(sigma2: float, n: int, trace_kff: float) -> NystromFactor:
    """The zero-inducing-point factor, Qhat = sigma^2 I."""
    return from_half_factor(np.zeros((0, n)), sigma2, trace_kff)


def solve_q(f: NystromFactor, b: np.ndarray) -> np.ndarray:
    """Apply Qhat^{-1} to a vector or to each column of a matrix.

    Woodbury form: (b - A.T (sigma^2 I + A A.T)^{-1} A b) / sigma^2,
    using the cached Cholesky of B = I + A A.T / sigma^2.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.shape[0] != f.n:
        raise DimensionMismatch(f"rhs has length {b.shape[0]}, factor covers n={f.n}")
    if f.m == 0:
        return b / f.sigma2
    ab = f.a @ b
    correction = f.a.T @ linalg.chol_solve(f.b_chol, ab) / f.sigma2
    return (b - correction) / f.sigma2


def logdet_q(f: NystromFactor) -> float:
    """log|Qhat| = n log sigma^2 + log|B| by the matrix determinant lemma."""
    return f.n * float(np.log(f.sigma2)) + f.b_chol.logdet()


def eig_q(f: NystromFactor) -> np.ndarray:
    """All n eigenvalues of Qhat, descending.

    The m nontrivial ones are sigma^2 plus the eigenvalues of A A.T;
    the remaining n - m equal sigma^2 exactly.
    """
    if f.m == 0:
        return np.full(f.n, f.sigma2)
    gram = f.a @ f.a.T
    w, _ = linalg.sym_eig(gram)
    top = f.sigma2 + np.clip(w, 0.0, None)
    return np.concatenate([np.sort(top)[::-1], np.full(f.n - f.m, f.sigma2)])


def trace_qinv(f: NystromFactor) -> float:
    """Tr(Qhat^{-1}), used by gradient assembly."""
    if f.m == 0:
        return f.n / f.sigma2
    # Tr(Qhat^{-1}) = (n - Tr(B^{-1} A A.T / sigma^2)) / sigma^2; B = I + A A.T/sigma^2
    # and B^{-1}(B - I) = I - B^{-1}.
    binv_diag_sum = float(np.trace(linalg.chol_solve(f.b_chol, np.eye(f.m))))
    return (f.n - (f.m - binv_diag_sum)) / f.sigma2


@dataclass(frozen=True)
class InducingSet:
    """Greedily selected inducing locations and their pick order."""

    Z: np.ndarray
    selection_order: np.ndarray
    complete: bool  # False when the residual diagonal collapsed early


def greedy_select(
    X: np.ndarray, params: HyperParams, m: int, seed_index: int = 0
) -> InducingSet:
    """Pick m rows of X by largest Nystrom residual diagonal.

    This is partial pivoted Cholesky on K_ff: after each pick the
    residual diagonal d_i = k(x_i,x_i) - sum_t l_t(x_i)^2 shrinks, and
    the next pivot is its argmax (ties broken by lowest index). Stops
    short, with ``complete=False``, if the residual diagonal hits zero
    first (e.g. duplicate rows).
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    n = X.shape[0]
    if not 1 <= m <= n:
        raise DimensionMismatch(f"m={m} must be in [1, {n}]")
    if not 0 <= seed_index < n:
        raise DimensionMismatch(f"seed_index {seed_index} out of range")
    d = kernels.kernel_diag(X, params).copy()
    floor = 1e-12 * float(np.max(d))
    cols = np.zeros((m, n))
    picks: list[int] = []
    for t in range(m):
        j = seed_index if t == 0 else int(np.argmax(d))
        if d[j] <= floor:
            break
        row = kernels.kernel_matrix(X, X[j : j + 1], params)[:, 0]
        if t > 0:
            row = row - cols[:t].T @ cols[:t, j]
        col = row / np.sqrt(d[j])
        cols[t] = col
        d = d - col**2
        d[picks + [j]] = 0.0  # guard round-off: picked points never re-selected
        picks.append(j)
    order = np.asarray(picks, dtype=np.intp)
    return InducingSet(Z=X[order].copy(), selection_order=order, complete=len(picks) == m)
