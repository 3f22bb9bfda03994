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
from scipy.linalg.blas import dsymm, dsymv
from scipy.spatial.distance import cdist
from scipy.special import expit

from .errors import DimensionMismatch

SQRT3 = np.sqrt(3.0)
# Rows per strip of the packed n x n build: 32 to 128 built equally fast at
# n = 2000, d = 8 and n = 3000, d = 2; 256 was slower.
STRIP = 64
_STRICT_LOWER = np.tri(STRIP, k=-1, dtype=bool)


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
    """Unconstrained model parameters plus the positivity floor they share.

    Vector layout (used by the optimiser): [raw_variance,
    raw_lengthscales..., raw_noise, mean].
    """

    raw_variance: float
    raw_lengthscales: np.ndarray
    raw_noise: float
    mean: float
    floor: float = 1e-6

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
            floor=floor,
        )

    @property
    def ndim(self) -> int:
        return self.raw_lengthscales.size

    @property
    def variance(self) -> float:
        return float(positive(self.raw_variance, self.floor))

    @property
    def lengthscales(self) -> np.ndarray:
        return positive(self.raw_lengthscales, self.floor)

    @property
    def noise(self) -> float:
        return float(positive(self.raw_noise, self.floor))

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


def kernel_matrix(X, X2=None, params: HyperParams | None = None) -> np.ndarray:
    """Dense covariance matrix k(X, X2); symmetric when X2 is None/X.

    For X2 None the upper triangle of the packed array from
    ``kernel_with_decay`` is mirrored over its decay factor, strip by
    strip, so the result equals ``kernel_matrix(X, X, params)`` bit for bit.
    """
    if X2 is not None:
        return kernel_with_decay(X, X2, params)[0]
    out = kernel_with_decay(X, None, params)
    n = out.shape[0]
    for a in range(0, n, STRIP):
        b = min(a + STRIP, n)
        out[b:, a:b] = out[a:b, b:].T
        square = out[a:b, a:b]
        np.copyto(square, square.T.copy(), where=_STRICT_LOWER[: b - a, : b - a])
    return out


def kernel_with_decay(X, X2=None, params: HyperParams | None = None
                      ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """k(X, X2) and the decay factor sigma_f^2 exp(-sqrt(3) r), from one distance pass.

    The decay factor is the one every analytic kernel derivative needs,
    so callers that also want gradients avoid a second pairwise-distance
    computation. For an X2 the pair (k, decay) is returned.

    For X2 None both factors are symmetric with sigma_f^2 on the
    diagonal, and one C-order n x n array P holds them: k(X, X) on and
    above the diagonal, the decay factor below it. P is built in strips
    of ``STRIP`` rows. A strip takes the distances from its rows to the
    columns at and right of its first row, writes k into its own rows
    and the transposed decay factor into the rows below, so each pair is
    computed once. Every stored entry equals the one
    ``kernel_with_decay(X, X, params)`` returns. ``kernel_times`` reads
    k from it and ``lengthscale_grad_contract`` the decay factor.
    """
    assert params is not None
    X = _check_inputs(X, params)
    ls = params.lengthscales
    if X2 is not None:
        # The scaled inputs are freed before k and the decay factor are allocated.
        X2 = _check_inputs(X2, params)
        return _k_and_decay(cdist(X / ls, X2 / ls), params.variance)
    xs = X / ls
    n = X.shape[0]
    out = np.empty((n, n))
    for a in range(0, n, STRIP):
        b = min(a + STRIP, n)
        _, decay = _k_and_decay(cdist(xs[a:b], xs[a:]), params.variance, out=out[a:b, a:])
        out[b:, a:b] = decay[:, b - a :].T
        np.copyto(out[a:b, a:b], decay[:, : b - a], where=_STRICT_LOWER[: b - a, : b - a])
    return out


def kernel_times(packed: np.ndarray, right: np.ndarray) -> np.ndarray:
    """k(X, X) @ right, with ``packed`` from ``kernel_with_decay(X, None, params)``.

    ``right`` is (n,) or (n, k). Only the upper triangle is read, through
    ``dsymv`` (``dsymm`` for several columns).
    """
    if right.ndim == 1:
        return dsymv(1.0, packed.T, right, lower=1)
    return dsymm(1.0, packed.T, right, side=0, lower=1)


def _k_and_decay(s: np.ndarray, variance: float, out: np.ndarray | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(k, decay) from scaled distances ``s``, overwriting ``s``; k goes to ``out`` if given."""
    s *= SQRT3
    decay = np.negative(s)
    np.exp(decay, out=decay)
    decay *= variance
    k = np.add(s, 1.0, out=s if out is None else out)
    k *= decay
    return k, decay


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


def lengthscale_grad_contract(X, params: HyperParams, packed: np.ndarray,
                              left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """sum_p left_p.T (d k(X, X) / d lengthscale_j) right_p for every j, shape (d,).

    ``left`` and ``right`` are (n,) or (n, k) with one column per p, and
    ``packed`` is ``kernel_with_decay(X, None, params)``; only its decay
    factor, on and below the diagonal, is read, so a full symmetric decay
    factor gives the same result. Expanding (x_ij - x_kj)^2 = x_ij^2 +
    x_kj^2 - 2 x_ij x_kj turns all d contractions into one ``dsymm`` of
    the decay factor with k(d + 2) right-hand sides [right, left,
    right * x_j], so no n x n derivative is formed.
    X is centred by column first: the differences are unchanged, and the
    expansion does not cancel on inputs far from the origin.
    """
    X = _check_inputs(X, params)
    xc = X - X.mean(axis=0)
    n, d = xc.shape
    left = left.reshape(n, -1)
    right = right.reshape(n, -1)
    k = right.shape[1]
    scaled = (xc[:, :, None] * right[:, None, :]).reshape(n, d * k)
    prod = dsymm(1.0, packed.T, np.concatenate([right, left, scaled], axis=1), side=0, lower=0)
    square = np.sum(left * prod[:, :k] + right * prod[:, k : 2 * k], axis=1) @ (xc * xc)
    cross = np.einsum("ik,ijk,ij->j", left, prod[:, 2 * k :].reshape(n, d, k), xc)
    return 3.0 * (square - 2.0 * cross) / params.lengthscales**3


def lengthscale_grad_weighted(X, params: HyperParams, weights: np.ndarray) -> np.ndarray:
    """sum_ik G_ik (d k(X, X) / d lengthscale_j)_ik for every j, shape (d,).

    ``weights`` is G * decay for a symmetric G, with ``decay`` the second
    factor of ``kernel_with_decay(X, X, params)``. The same expansion
    as ``lengthscale_grad_contract`` reduces all d sums to one product
    ``weights @ [1, x]`` on column-centred X.
    """
    X = _check_inputs(X, params)
    xc = X - X.mean(axis=0)
    prod = weights @ np.concatenate([np.ones((xc.shape[0], 1)), xc], axis=1)
    square = prod[:, 0] @ (xc * xc)
    cross = np.sum(xc * prod[:, 1:], axis=0)
    return 6.0 * (square - cross) / params.lengthscales**3


def input_grad(X, X2, params: HyperParams, decay: np.ndarray) -> np.ndarray:
    """d k(X, X2) / d X, shape (n1, n2, d).

    Entry [i, j, l] is the derivative with respect to the l-th coordinate
    of the first argument: -3 sigma_f^2 exp(-sqrt(3) r) (x_l - x2_l) / l_l^2.
    ``decay`` is the second factor of ``kernel_with_decay(X, X2, params)``.
    """
    X = _check_inputs(X, params)
    X2 = X if X2 is None else _check_inputs(X2, params)
    out = X[:, None, :] - X2[None, :, :]
    out *= (-3.0 * decay)[:, :, None]
    out /= params.lengthscales**2
    return out
