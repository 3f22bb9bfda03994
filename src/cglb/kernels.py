"""Matern 3/2 covariance with ARD lengthscales and the parameter transform layer.

Hyperparameters are stored as unconstrained reals; positive quantities
(kernel variance, lengthscales, noise variance) go through a shifted
softplus so they stay above a configurable floor. The constant prior
mean is a free real. All kernel derivatives are analytic and chained
through the transform by the caller via ``transform_jacobian``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial.distance import cdist
from scipy.special import expit

from .errors import DimensionMismatch

SQRT3 = np.sqrt(3.0)


def softplus(x):
    """log(1 + e^x), numerically stable for large |x|."""
    return np.logaddexp(0.0, x)


def softplus_inv(y):
    """Inverse of softplus; requires y > 0."""
    y = np.asarray(y, dtype=np.float64)
    if np.any(y <= 0.0):
        raise ValueError("softplus_inv requires strictly positive input")
    return y + np.log(-np.expm1(-y))


def softplus_grad(x):
    """d softplus / dx = sigmoid(x); strictly positive everywhere."""
    return expit(x)


def positive(raw, floor):
    """The positivity transform: floor + softplus(raw)."""
    return floor + softplus(raw)


def positive_inv(value, floor):
    return softplus_inv(np.asarray(value, dtype=np.float64) - floor)


@dataclass(frozen=True, eq=False)
class HyperParams:
    """Unconstrained model parameters plus their positivity floors.

    Vector layout (used by the optimiser): [raw_variance,
    raw_lengthscales..., raw_noise, mean].
    """

    raw_variance: float
    raw_lengthscales: np.ndarray
    raw_noise: float
    mean: float
    variance_floor: float = 1e-6
    lengthscale_floor: float = 1e-6
    noise_floor: float = 1e-6

    @classmethod
    def from_constrained(
        cls,
        variance: float = 1.0,
        lengthscales=1.0,
        noise: float = 1.0,
        mean: float = 0.0,
        ndim: int | None = None,
        floor: float = 1e-6,
    ) -> "HyperParams":
        ls = np.atleast_1d(np.asarray(lengthscales, dtype=np.float64))
        if ndim is not None and ls.size == 1:
            ls = np.full(ndim, ls[0])
        return cls(
            raw_variance=float(positive_inv(variance, floor)),
            raw_lengthscales=positive_inv(ls, floor),
            raw_noise=float(positive_inv(noise, floor)),
            mean=float(mean),
            variance_floor=floor,
            lengthscale_floor=floor,
            noise_floor=floor,
        )

    @property
    def ndim(self) -> int:
        return self.raw_lengthscales.size

    @property
    def variance(self) -> float:
        return float(positive(self.raw_variance, self.variance_floor))

    @property
    def lengthscales(self) -> np.ndarray:
        return positive(self.raw_lengthscales, self.lengthscale_floor)

    @property
    def noise(self) -> float:
        return float(positive(self.raw_noise, self.noise_floor))

    @property
    def n_params(self) -> int:
        return self.ndim + 3

    def to_vector(self) -> np.ndarray:
        return np.concatenate(
            [[self.raw_variance], self.raw_lengthscales, [self.raw_noise, self.mean]]
        )

    def with_vector(self, vec: np.ndarray) -> "HyperParams":
        vec = np.asarray(vec, dtype=np.float64)
        if vec.size != self.n_params:
            raise DimensionMismatch(
                f"parameter vector has {vec.size} entries, expected {self.n_params}"
            )
        d = self.ndim
        return replace(
            self,
            raw_variance=float(vec[0]),
            raw_lengthscales=vec[1 : 1 + d].copy(),
            raw_noise=float(vec[1 + d]),
            mean=float(vec[2 + d]),
        )

    def transform_jacobian(self) -> np.ndarray:
        """d(constrained)/d(raw) for each vector entry; 1.0 for the mean."""
        return np.concatenate(
            [
                [softplus_grad(self.raw_variance)],
                softplus_grad(self.raw_lengthscales),
                [softplus_grad(self.raw_noise), 1.0],
            ]
        )


def _check_inputs(X: np.ndarray, params: HyperParams) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != params.ndim:
        raise DimensionMismatch(
            f"inputs have {X.shape[1]} columns, params expect {params.ndim}"
        )
    return X


def _scaled_r(X: np.ndarray, X2: np.ndarray, params: HyperParams) -> np.ndarray:
    ls = params.lengthscales
    return cdist(X / ls, X2 / ls)


def kernel_matrix(X, X2=None, params: HyperParams | None = None) -> np.ndarray:
    """Dense covariance matrix k(X, X2); symmetric when X2 is None/X."""
    return kernel_with_decay(X, X2, params)[0]


def kernel_with_decay(X, X2=None, params: HyperParams | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """(k(X, X2), sigma_f^2 exp(-sqrt(3) r)) sharing one distance pass.

    The second factor is the one every analytic kernel derivative needs,
    so callers that also want gradients avoid a second pairwise-distance
    computation.
    """
    assert params is not None
    X = _check_inputs(X, params)
    X2 = X if X2 is None else _check_inputs(X2, params)
    s = SQRT3 * _scaled_r(X, X2, params)
    decay = params.variance * np.exp(-s)
    s += 1.0
    s *= decay
    return s, decay


def kernel_diag(X, params: HyperParams) -> np.ndarray:
    """diag k(X, X) without forming off-diagonal entries; constant sigma_f^2."""
    X = _check_inputs(X, params)
    return np.full(X.shape[0], params.variance)


def lengthscale_grad(X, X2, params: HyperParams, j: int, decay: np.ndarray) -> np.ndarray:
    """d k(X, X2) / d lengthscale_j (constrained space).

    Equals 3 sigma_f^2 exp(-sqrt(3) r) (x_j - x2_j)^2 / l_j^3, which is
    finite and zero at coincident points. ``decay`` is the second factor
    of ``kernel_with_decay(X, X2, params)``.
    """
    X = _check_inputs(X, params)
    X2 = X if X2 is None else _check_inputs(X2, params)
    diff = X[:, j, None] - X2[None, :, j]
    lj = params.lengthscales[j]
    diff *= diff
    diff *= decay
    diff *= 3.0 / lj**3
    return diff


def input_grad(X, X2, params: HyperParams, decay: np.ndarray) -> np.ndarray:
    """d k(X, X2) / d X, shape (n1, n2, d).

    Entry [i, j, l] is the derivative with respect to the l-th coordinate
    of the first argument: -3 sigma_f^2 exp(-sqrt(3) r) (x_l - x2_l) / l_l^2.
    ``decay`` is the second factor of ``kernel_with_decay(X, X2, params)``.
    """
    X = _check_inputs(X, params)
    X2 = X if X2 is None else _check_inputs(X2, params)
    diff = X[:, None, :] - X2[None, :, :]
    return -3.0 * decay[:, :, None] * diff / params.lengthscales**2
