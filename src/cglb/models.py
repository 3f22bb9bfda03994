"""Objectives and predictors: exact GPR, sparse ELBO, CGLB, and a
Hutchinson-estimator baseline.

Each objective returns its value together with the analytic gradient
over the packed parameter vector: [raw kernel variance, raw
lengthscales, raw noise, mean] followed by flattened inducing locations
where applicable. Gradients are assembled by the chain rule from
sensitivities with respect to the kernel matrix blocks K_uf, K_uu,
diag(K_ff) and (for the dense paths) K_ff itself; no automatic
differentiation is involved.

The CGLB gradient treats the candidate solution v as a constant: the
bound is valid for every fixed v, so its parameter gradient at fixed v
is the exact gradient of the objective being maximised.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import bounds, kernels, linalg, nystrom
from .errors import DimensionMismatch
from .kernels import HyperParams
from .nystrom import SparseParts
from .pcg import CGState, MatVec, VCache, cg_solve_euclidean, pcg_solve, warm_start

VARIANCE_CLAMP = 1e-12
DENSE_CAP = 20000


@dataclass
class Objective:
    value: float
    grad: np.ndarray
    diagnostics: dict = field(default_factory=dict)


@dataclass
class Prediction:
    """Predictive marginals; ``var`` is the noise-free latent variance."""

    mean: np.ndarray
    var: np.ndarray
    noise_variance: float

    def var_with_noise(self) -> np.ndarray:
        return self.var + self.noise_variance


def _validate_xy(X, y, params: HyperParams):
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).ravel()
    if X.shape[0] != y.shape[0]:
        raise DimensionMismatch("X and y disagree on the number of rows")
    if X.shape[1] != params.ndim:
        raise DimensionMismatch("X and params disagree on input dimension")
    return X, y


def pack_params(params: HyperParams, Z: np.ndarray | None = None) -> np.ndarray:
    vec = params.to_vector()
    if Z is None:
        return vec
    return np.concatenate([vec, np.asarray(Z, dtype=np.float64).ravel()])


def unpack_params(
    template: HyperParams, vec: np.ndarray, m: int | None = None
) -> tuple[HyperParams, np.ndarray | None]:
    vec = np.asarray(vec, dtype=np.float64)
    p = template.with_vector(vec[: template.n_params])
    if m is None:
        if vec.size != template.n_params:
            raise DimensionMismatch("parameter vector longer than expected")
        return p, None
    Z = vec[template.n_params :].reshape(m, template.ndim).copy()
    return p, Z


def require_dense(n: int, dense_cap: int) -> None:
    """Raise DimensionMismatch before an n x n matrix is built for n > ``dense_cap``."""
    if n > dense_cap:
        raise DimensionMismatch(f"n={n} exceeds the dense cap {dense_cap}")


def _dense_pair_sens(X: np.ndarray, params: HyperParams, packed: np.ndarray,
                     left: np.ndarray, right: np.ndarray) -> tuple[float, np.ndarray]:
    """Sensitivities to (variance, lengthscales) of sum_p left_p.T K_ff right_p.

    ``left`` and ``right`` are (n,) or (n, k) with one column per p;
    ``packed`` is ``kernels.kernel_with_decay(X, None, params)``.
    """
    s_var = float(np.vdot(left, kernels.kernel_times(packed, right))) / params.variance
    return s_var, kernels.lengthscale_grad_contract(X, params, packed, left, right)


def _raw_grad(params: HyperParams, s_var: float, s_ls: np.ndarray, s_noise: float,
              s_mean: float) -> np.ndarray:
    """Sensitivities to (variance, lengthscales, noise, mean), chained to the raw vector."""
    return np.concatenate([[s_var], s_ls, [s_noise, s_mean]]) * params.transform_jacobian()


# ---------------------------------------------------------------------------
# Exact (Cholesky) GPR
# ---------------------------------------------------------------------------


def exact_lml(params: HyperParams, X, y, dense_cap: int = DENSE_CAP) -> Objective:
    """Log marginal likelihood and gradient via dense Cholesky."""
    X, y = _validate_xy(X, y, params)
    n = y.size
    require_dense(n, dense_cap)
    kff, decay = kernels.kernel_with_decay(X, X, params)
    chol, alpha = khat_solve(params, kff, y)
    logdet = chol.logdet()
    quad = float((y - params.mean) @ alpha)
    value = bounds.gaussian_lml(n, quad, logdet)

    khat_inv = linalg.chol_solve(chol, np.eye(n))
    g_ff = 0.5 * (np.outer(alpha, alpha) - khat_inv)  # sensitivity to Khat
    s_var = float(np.sum(g_ff * kff)) / params.variance
    s_noise = float(np.trace(g_ff))
    g_ff *= decay
    grad = _raw_grad(params, s_var, kernels.lengthscale_grad_weighted(X, params, g_ff),
                     s_noise, float(np.sum(alpha)))
    return Objective(value=value, grad=grad, diagnostics={"logdet": logdet, "quad": quad})


def khat_solve(params: HyperParams, kff: np.ndarray, y: np.ndarray
               ) -> tuple[linalg.CholFactor, np.ndarray]:
    """(Cholesky of Khat = K_ff + sigma^2 I, Khat^{-1} (y - mu0))."""
    chol = linalg.cholesky(kff + params.noise * np.eye(kff.shape[0]))
    return chol, linalg.chol_solve(chol, y - params.mean)


def exact_predict(params: HyperParams, X, y, Xs) -> Prediction:
    """Posterior mean and marginal variance at test points."""
    X, y = _validate_xy(X, y, params)
    Xs = np.atleast_2d(np.asarray(Xs, dtype=np.float64))
    chol, alpha = khat_solve(params, kernels.kernel_matrix(X, None, params), y)
    ks = kernels.kernel_matrix(X, Xs, params)
    mean = ks.T @ alpha + params.mean
    w = linalg.tri_solve(chol, ks)
    var = kernels.kernel_diag(Xs, params) - np.sum(w**2, axis=0)
    return Prediction(mean=mean, var=np.clip(var, VARIANCE_CLAMP, None),
                      noise_variance=params.noise)


# ---------------------------------------------------------------------------
# Shared sparse machinery
# ---------------------------------------------------------------------------


# Called through this module attribute so perfbench/tracer.py can time block construction.
_sparse_parts = nystrom.sparse_parts


def _sparse_inputs(params: HyperParams, Z, X, y):
    """Validated (X, y, Z) and their sparse blocks."""
    X, y = _validate_xy(X, y, params)
    Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
    return X, y, Z, _sparse_parts(params, X, Z)


def _assemble_sparse_grad(
    params: HyperParams,
    X: np.ndarray,
    Z: np.ndarray,
    parts: SparseParts,
    g_uf: np.ndarray,
    g_uu: np.ndarray,
    g_diag: float,
    s_sigma2: float,
    s_mu0: float,
    dense: tuple[float, np.ndarray | float] = (0.0, 0.0),
) -> np.ndarray:
    """Chain block sensitivities to the packed (theta, Z) gradient.

    ``g_uf``/``g_uu`` weight entrywise perturbations of K_uf and K_uu,
    ``g_diag`` each entry of diag(K_ff), ``s_sigma2``/``s_mu0`` the
    direct noise/mean paths. ``dense`` is the (variance, lengthscales)
    sensitivity of a term that touches K_ff densely, from
    ``_dense_pair_sens``; the sparse-only objectives have none.
    """
    sf2 = params.variance
    decay_zx = parts.decay_zx
    decay_zz = parts.decay_zz
    s_var = (float(np.sum(g_uf * parts.kuf)) + float(np.sum(g_uu * parts.kuu))) / sf2
    s_var += g_diag * X.shape[0]
    s_var += dense[0]
    s_ls = np.empty(params.ndim)
    for j in range(params.ndim):
        duf = kernels.lengthscale_grad(Z, X, params, j, decay=decay_zx)
        duu = kernels.lengthscale_grad(Z, Z, params, j, decay=decay_zz)
        s_ls[j] = float(np.sum(g_uf * duf)) + float(np.sum(g_uu * duu))
    s_ls += dense[1]
    grad = _raw_grad(params, s_var, s_ls, s_sigma2, s_mu0)

    dzx = kernels.input_grad(Z, X, params, decay=decay_zx)
    dzz = kernels.input_grad(Z, Z, params, decay=decay_zz)
    grad_z = np.einsum("ij,ijl->il", g_uf, dzx) + 2.0 * np.einsum("ij,ijl->il", g_uu, dzz)
    return np.concatenate([grad, grad_z.ravel()])


def _qhat_sensitivities(parts: SparseParts, w: np.ndarray, phi: float
                        ) -> tuple[np.ndarray, np.ndarray, float]:
    """(g_uf, g_uu, g_diag) of the terms that depend on K through Qhat.

    The quadratic and log|Qhat| terms give the sensitivity to Qhat
    G = (w w^T - Qhat^{-1})/2 with w = Qhat^{-1} times the residual;
    products with G are taken lazily through C = K_uu^{-1} K_uf. The
    trace term -Tr(K_ff - Q_ff)/(2 sigma^2) enters with weight ``phi``
    (1 for the ELBO, the AM-GM slope for CGLB), and not at all while the
    residual trace is clamped at zero.
    """
    f = parts.factor
    sigma2 = f.sigma2
    c = linalg.tri_solve(parts.luu, f.a, transposed=True)
    cw = c @ w
    c_qinv = nystrom.solve_q(f, c.T).T
    cg = 0.5 * np.outer(cw, w) - 0.5 * c_qinv
    active = phi if f.trace_kff - f.trace_qff > 0.0 else 0.0
    g_uf = 2.0 * cg + active * c / sigma2
    g_uu = -cg @ c.T - active * (c @ c.T) / (2.0 * sigma2)
    g_diag = -active / (2.0 * sigma2)
    return g_uf, g_uu, g_diag


def _sparse_predict(params: HyperParams, parts: SparseParts, Z, Xs, resid: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """(k_u(x).T K_uu^{-1} K_uf Qhat^{-1} resid, clamped SGPR latent variance).

    SGPR and CGLB share this routine, so their variances agree bit for
    bit at identical (theta, Z).
    """
    weights = linalg.chol_solve(parts.luu, parts.kuf @ nystrom.solve_q(parts.factor, resid))
    kus = kernels.kernel_matrix(Z, Xs, params)
    w1 = linalg.tri_solve(parts.luu, kus)
    w2 = linalg.tri_solve(parts.factor.b_chol, w1)
    var = kernels.kernel_diag(Xs, params) - np.sum(w1**2, axis=0) + np.sum(w2**2, axis=0)
    return kus.T @ weights, np.clip(var, VARIANCE_CLAMP, None)


# ---------------------------------------------------------------------------
# Sparse variational ELBO (SGPR)
# ---------------------------------------------------------------------------


def elbo(params: HyperParams, Z, X, y) -> Objective:
    """Evidence lower bound and its gradient over theta and Z."""
    X, y, Z, parts = _sparse_inputs(params, Z, X, y)
    f = parts.factor
    sigma2 = params.noise
    yc = y - params.mean
    beta = nystrom.solve_q(f, yc)
    quad = float(yc @ beta)
    t = f.trace_residual()
    logdet = bounds.logdet_upper_trace(f)
    value = bounds.gaussian_lml(y.size, quad, logdet)

    g_uf, g_uu, g_diag = _qhat_sensitivities(parts, beta, 1.0)
    s_sigma2 = (
        0.5 * float(beta @ beta)
        - 0.5 * nystrom.trace_qinv(f)
        + t / (2.0 * sigma2**2)
    )
    grad = _assemble_sparse_grad(
        params, X, Z, parts, g_uf, g_uu, g_diag, s_sigma2, float(np.sum(beta))
    )
    return Objective(
        value=value,
        grad=grad,
        diagnostics={"quad": quad, "logdet_trace": logdet, "trace_residual": t},
    )


def sgpr_predict(params: HyperParams, Z, X, y, Xs) -> Prediction:
    """Variational posterior mean and marginal variance."""
    X, y, Z, parts = _sparse_inputs(params, Z, X, y)
    Xs = np.atleast_2d(np.asarray(Xs, dtype=np.float64))
    sparse_mean, var = _sparse_predict(params, parts, Z, Xs, y - params.mean)
    return Prediction(mean=sparse_mean + params.mean, var=var, noise_variance=params.noise)


# ---------------------------------------------------------------------------
# CGLB
# ---------------------------------------------------------------------------


def solve_v(parts: SparseParts, kff_times: MatVec, yc: np.ndarray,
            cache: VCache | None, eps: float, max_iters: int | None) -> CGState:
    """Qhat-preconditioned CG for Khat v = yc, warm-started from and stored to ``cache``.

    ``kff_times(p)`` returns K_ff @ p.
    """
    if cache is None:
        cache = VCache()
    sigma2 = parts.factor.sigma2
    state = pcg_solve(
        matvec=lambda p: kff_times(p) + sigma2 * p,
        precond=lambda rr: nystrom.solve_q(parts.factor, rr),
        y=yc,
        v0=warm_start(cache, yc.size),
        eps=eps,
        max_iters=max_iters,
    )
    cache.store(state.v)
    return state


def _residual(params: HyperParams, X: np.ndarray, yc: np.ndarray, v: np.ndarray
              ) -> np.ndarray:
    """yc - Khat v, from a freshly built n x n K_ff."""
    kff = kernels.kernel_matrix(X, None, params)
    return yc - (kff @ v + params.noise * v)


def cglb_value_fixed_v(params: HyperParams, Z, X, y, v) -> float:
    """The bound evaluated at a frozen candidate v (no CG run).

    This is the function whose gradient ``cglb_objective`` returns; the
    finite-difference oracle in the test suite differentiates it.
    """
    X, y, Z, parts = _sparse_inputs(params, Z, X, y)
    v = np.asarray(v, dtype=np.float64)
    yc = y - params.mean
    _, quad_upper = bounds.quad_bounds(parts.factor, yc, v, _residual(params, X, yc, v))
    return bounds.gaussian_lml(y.size, quad_upper, bounds.logdet_upper_amgm(parts.factor))


def cglb_objective(
    params: HyperParams,
    Z,
    X,
    y,
    cache: VCache | None = None,
    eps: float = 1.0,
    max_iters: int | None = None,
    dense_cap: int = DENSE_CAP,
) -> Objective:
    """CGLB value and gradient; v comes from warm-started preconditioned CG.

    The gradient holds v fixed at its converged value. The returned
    diagnostics record the CG iteration count consumed by this
    evaluation, the final quadratic-bound gap, and the bound components.
    K_ff and its decay factor share one n x n array, read through
    ``dsymv``/``dsymm``.
    """
    require_dense(np.size(y), dense_cap)
    X, y, Z, parts = _sparse_inputs(params, Z, X, y)
    n = y.size
    f = parts.factor
    sigma2 = params.noise
    yc = y - params.mean
    packed = kernels.kernel_with_decay(X, None, params)
    state = solve_v(parts, lambda p: kernels.kernel_times(packed, p), yc, cache, eps, max_iters)
    v, r, u, gap = state.v, state.r, state.z, state.gap

    quad_upper = bounds.quad_lower(yc, v, r) + gap
    logdet = bounds.logdet_upper_amgm(f)
    value = bounds.gaussian_lml(n, quad_upper, logdet)

    # The AM-GM log-det correction weights the trace term by phi; u = Qhat^{-1} r.
    t = f.trace_residual()
    phi = 1.0 / (1.0 + t / (n * sigma2))
    g_uf, g_uu, g_diag = _qhat_sensitivities(parts, u, phi)
    s_sigma2 = (
        float(u @ v) + 0.5 * float(v @ v)  # direct Khat path through r and v.T Khat v
        + 0.5 * float(u @ u) - 0.5 * nystrom.trace_qinv(f)
        + phi * t / (2.0 * sigma2**2)
    )
    s_mu0 = float(np.sum(u)) + float(np.sum(v))
    # u.T dK v from the residual plus 0.5 v.T dK v from the lower quadratic bound.
    grad = _assemble_sparse_grad(
        params, X, Z, parts, g_uf, g_uu, g_diag, s_sigma2, s_mu0,
        dense=_dense_pair_sens(X, params, packed, u + 0.5 * v, v),
    )
    return Objective(
        value=value,
        grad=grad,
        diagnostics={
            "cg_iters": state.iters,
            "cg_converged": state.converged,
            "cg_gap": gap,
            "quad_upper": quad_upper,
            "logdet_amgm": logdet,
            "trace_residual": t,
        },
    )


def cglb_predict(params: HyperParams, Z, X, y, v, Xs, r=None) -> Prediction:
    """Predictive mean combining the CG solution with a sparse correction.

    mean(x) = k_fs(x).T v + k_u(x).T K_uu^{-1} K_uf Qhat^{-1} r + mu0 with
    the residual r = y - mu0 - Khat v. Pass the ``r`` the solve for v
    returned (``CGState.r``) to skip the n x n K_ff; when omitted it is
    recomputed from a fresh K_ff. The variance is computed by the same
    routine as ``sgpr_predict``, so the two agree bit for bit at
    identical (theta, Z).
    """
    X, y, Z, parts = _sparse_inputs(params, Z, X, y)
    Xs = np.atleast_2d(np.asarray(Xs, dtype=np.float64))
    v = np.asarray(v, dtype=np.float64)
    if v.shape != y.shape:
        raise DimensionMismatch("v must match y in length")
    if r is None:
        r = _residual(params, X, y - params.mean, v)
    else:
        r = np.asarray(r, dtype=np.float64)
        if r.shape != y.shape:
            raise DimensionMismatch("r must match y in length")
    sparse_mean, var = _sparse_predict(params, parts, Z, Xs, r)
    ks = kernels.kernel_matrix(X, Xs, params)
    mean = ks.T @ v + sparse_mean + params.mean
    return Prediction(mean=mean, var=var, noise_variance=params.noise)


def cglb_prediction_vector(
    params: HyperParams, Z, X, y, cache: VCache | None = None,
    eps: float = 1e-3, max_iters: int | None = None, dense_cap: int = DENSE_CAP,
) -> CGState:
    """Solve for the v used at prediction time (tighter eps than training)."""
    require_dense(np.size(y), dense_cap)
    X, y, Z, parts = _sparse_inputs(params, Z, X, y)
    kff = kernels.kernel_matrix(X, None, params)
    return solve_v(parts, lambda p: kff @ p, y - params.mean, cache, eps, max_iters)


# ---------------------------------------------------------------------------
# Hutchinson-estimator baseline
# ---------------------------------------------------------------------------


def iterative_lml_and_grad(
    params: HyperParams,
    X,
    y,
    probes: int = 10,
    cg_tol: float = 1e-2,
    rng: np.random.Generator | None = None,
    dense_cap: int = DENSE_CAP,
) -> Objective:
    """Stochastic LML gradient with Rademacher trace probes and CG solves.

    The log-determinant gradient is estimated as the probe average of
    p.T Khat^{-1} (dKhat/dtheta) p with each Khat^{-1} p approximated by
    CG at Euclidean tolerance ``cg_tol`` (the source of bias when loose).
    The value uses the same CG solve for the quadratic term plus a dense
    log-determinant.
    """
    if probes < 1:
        raise ValueError("probes must be >= 1")
    if rng is None:
        rng = np.random.default_rng()
    X, y = _validate_xy(X, y, params)
    n = y.size
    require_dense(n, dense_cap)
    sigma2 = params.noise
    kff = kernels.kernel_matrix(X, None, params)
    matvec = lambda p: kff @ p + sigma2 * p  # noqa: E731
    yc = y - params.mean

    alpha_state = cg_solve_euclidean(matvec, yc, tol=cg_tol)
    alpha = alpha_state.v
    p_mat = rng.integers(0, 2, size=(probes, n)).astype(np.float64) * 2.0 - 1.0
    solves = np.empty_like(p_mat)
    total_cg = alpha_state.iters
    for i in range(probes):
        st = cg_solve_euclidean(matvec, p_mat[i], tol=cg_tol)
        solves[i] = st.v
        total_cg += st.iters

    # 0.5 alpha.T dKhat alpha - 0.5 * the probe mean of s_i.T dKhat p_i, s_i ~ Khat^{-1} p_i
    left = np.column_stack([0.5 * alpha, (-0.5 / probes) * solves.T])
    right = np.column_stack([alpha, p_mat.T])
    s_var, s_ls = _dense_pair_sens(X, params, kernels.kernel_with_decay(X, None, params),
                                   left, right)
    # dKhat/dsigma2 = I
    grad = _raw_grad(params, s_var, s_ls, float(np.vdot(left, right)), float(np.sum(alpha)))

    logdet = khat_solve(params, kff, y)[0].logdet()
    return Objective(value=bounds.gaussian_lml(n, float(yc @ alpha), logdet), grad=grad,
                     diagnostics={"cg_iters": total_cg, "probes": probes})
