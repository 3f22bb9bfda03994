"""Shared random-instance builders for the test suite."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cglb import kernels, nystrom
from cglb.kernels import HyperParams
from cglb.nystrom import NystromFactor


@dataclass
class Instance:
    X: np.ndarray
    y: np.ndarray
    params: HyperParams
    Z: np.ndarray
    kff: np.ndarray
    khat: np.ndarray
    factor: NystromFactor


def random_params(rng: np.random.Generator, d: int,
                  noise_log_range: tuple[float, float] = (-2.5, 0.0),
                  floor: float = 1e-6) -> HyperParams:
    return HyperParams.from_constrained(
        variance=float(np.exp(rng.uniform(-1.0, 1.0))),
        lengthscales=np.exp(rng.uniform(-0.7, 0.7, d)),
        noise=float(np.exp(rng.uniform(*noise_log_range))),
        mean=float(rng.normal(scale=0.4)),
        ndim=d,
        floor=floor,
    )


def random_instance(rng: np.random.Generator, n: int = 40, d: int = 2,
                    m: int = 6,
                    noise_log_range: tuple[float, float] = (-2.5, 0.0),
                    ) -> Instance:
    """A GP-consistent regression instance with a greedy inducing subset."""
    X = rng.uniform(-1.5, 1.5, (n, d))
    params = random_params(rng, d, noise_log_range)
    kff = kernels.kernel_matrix(X, None, params)
    khat = kff + params.noise * np.eye(n)
    chol = np.linalg.cholesky(khat + 1e-12 * np.eye(n))
    y = chol @ rng.standard_normal(n) + params.mean
    Z = nystrom.greedy_select(X, params, min(m, n)).Z
    factor = nystrom.sparse_parts(params, X, Z).factor
    return Instance(X=X, y=y, params=params, Z=Z, kff=kff, khat=khat, factor=factor)


def dense_qhat(inst: Instance) -> np.ndarray:
    """Materialised Qhat for oracle comparisons."""
    f = inst.factor
    return f.a.T @ f.a + f.sigma2 * np.eye(f.n)
