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

from . import kernels, linalg, nystrom
from .errors import DimensionMismatch
from .kernels import HyperParams
from .nystrom import SparseParts
from .pcg import CGState, VCache, cg_solve_euclidean, pcg_solve, warm_start

LOG_2PI = float(np.log(2.0 * np.pi))
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


# ---------------------------------------------------------------------------
# Exact (Cholesky) GPR
# ---------------------------------------------------------------------------


def exact_lml(params: HyperParams, X, y, dense_cap: int = DENSE_CAP) -> Objective:
    """Log marginal likelihood and gradient via dense Cholesky."""
    X, y = _validate_xy(X, y, params)
    n = y.size
    if n > dense_cap:
        raise DimensionMismatch(f"n={n} exceeds the dense Cholesky cap {dense_cap}")
    kff, decay = kernels.kernel_with_decay(X, None, params)
    sigma2 = params.noise
    chol = linalg.cholesky(kff + sigma2 * np.eye(n))
    yc = y - params.mean
    alpha = linalg.chol_solve(chol, yc)
    logdet = chol.logdet()
    quad = float(yc @ alpha)
    value = -0.5 * n * LOG_2PI - 0.5 * quad - 0.5 * logdet

    khat_inv = linalg.chol_solve(chol, np.eye(n))
    g_ff = 0.5 * (np.outer(alpha, alpha) - khat_inv)  # sensitivity to Khat
    jac = params.transform_jacobian()
    d = params.ndim
    grad = np.zeros(params.n_params)
    grad[0] = float(np.sum(g_ff * kff)) / params.variance * jac[0]
    for j in range(d):
        dk = kernels.lengthscale_grad(X, X, params, j, decay=decay)
        grad[1 + j] = float(np.sum(g_ff * dk)) * jac[1 + j]
    grad[1 + d] = float(np.trace(g_ff)) * jac[1 + d]
    grad[2 + d] = float(np.sum(alpha))
    return Objective(value=value, grad=grad, diagnostics={"logdet": logdet, "quad": quad})


def exact_predict(params: HyperParams, X, y, Xs) -> Prediction:
    """Posterior mean and marginal variance at test points."""
    X, y = _validate_xy(X, y, params)
    Xs = np.atleast_2d(np.asarray(Xs, dtype=np.float64))
    n = y.size
    kff = kernels.kernel_matrix(X, None, params)
    chol = linalg.cholesky(kff + params.noise * np.eye(n))
    alpha = linalg.chol_solve(chol, y - params.mean)
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
    ff_pair: tuple[np.ndarray, np.ndarray] | None = None,
    kff: np.ndarray | None = None,
    decay_ff: np.ndarray | None = None,
) -> np.ndarray:
    """Chain block sensitivities to the packed (theta, Z) gradient.

    ``g_uf``/``g_uu`` weight entrywise perturbations of K_uf and K_uu,
    ``g_diag`` each entry of diag(K_ff), ``s_sigma2``/``s_mu0`` the
    direct noise/mean paths. ``ff_pair = (left, right)`` adds the
    left.T dK_ff right contribution of objectives that touch K_ff
    densely (requires ``kff`` and ``decay_ff``).
    """
    n = X.shape[0]
    jac = params.transform_jacobian()
    d = params.ndim
    sf2 = params.variance
    decay_zx = parts.decay_zx
    decay_zz = parts.decay_zz
    if ff_pair is not None:
        left, right = ff_pair

    grad = np.zeros(params.n_params)
    acc = (float(np.sum(g_uf * parts.kuf)) + float(np.sum(g_uu * parts.kuu))) / sf2
    acc += g_diag * n
    if ff_pair is not None:
        acc += float(left @ (kff @ right)) / sf2
    grad[0] = acc * jac[0]
    for j in range(d):
        duf = kernels.lengthscale_grad(Z, X, params, j, decay=decay_zx)
        duu = kernels.lengthscale_grad(Z, Z, params, j, decay=decay_zz)
        acc = float(np.sum(g_uf * duf)) + float(np.sum(g_uu * duu))
        if ff_pair is not None:
            dff = kernels.lengthscale_grad(X, X, params, j, decay=decay_ff)
            acc += float(left @ (dff @ right))
        grad[1 + j] = acc * jac[1 + j]
    grad[1 + d] = s_sigma2 * jac[1 + d]
    grad[2 + d] = s_mu0

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
    n = y.size
    f = parts.factor
    sigma2 = params.noise
    yc = y - params.mean
    beta = nystrom.solve_q(f, yc)
    quad = float(yc @ beta)
    t = f.trace_residual()
    logdet = nystrom.logdet_q(f)
    value = -0.5 * n * LOG_2PI - 0.5 * quad - 0.5 * (logdet + t / sigma2)

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
        diagnostics={"quad": quad, "logdet_trace": logdet + t / sigma2,
                     "trace_residual": t},
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


def _cglb_terms(
    params: HyperParams, parts: SparseParts, yc: np.ndarray, v: np.ndarray,
    r: np.ndarray, gap: float
) -> tuple[float, float, float]:
    """(value, quad_upper, logdet_amgm) for fixed v with residual r."""
    n = yc.size
    f = parts.factor
    quad_lower = 2.0 * float(yc @ v) - float(v @ (yc - r))
    quad_upper = quad_lower + gap
    t = f.trace_residual()
    logdet = nystrom.logdet_q(f) + n * float(np.log1p(t / (n * f.sigma2)))
    value = -0.5 * n * LOG_2PI - 0.5 * quad_upper - 0.5 * logdet
    return value, quad_upper, logdet


def _solve_v(parts: SparseParts, kff: np.ndarray, yc: np.ndarray,
             cache: VCache | None, eps: float, max_iters: int | None) -> CGState:
    """Qhat-preconditioned CG for Khat v = yc, warm-started from and stored to ``cache``."""
    if cache is None:
        cache = VCache()
    sigma2 = parts.factor.sigma2
    state = pcg_solve(
        matvec=lambda p: kff @ p + sigma2 * p,
        precond=lambda rr: nystrom.solve_q(parts.factor, rr),
        y=yc,
        v0=warm_start(cache, yc.size),
        eps=eps,
        max_iters=max_iters,
    )
    cache.store(state.v)
    return state


def cglb_value_fixed_v(params: HyperParams, Z, X, y, v) -> float:
    """The bound evaluated at a frozen candidate v (no CG run).

    This is the function whose gradient ``cglb_objective`` returns; the
    finite-difference oracle in the test suite differentiates it.
    """
    X, y, Z, parts = _sparse_inputs(params, Z, X, y)
    v = np.asarray(v, dtype=np.float64)
    kff = kernels.kernel_matrix(X, None, params)
    yc = y - params.mean
    r = yc - (kff @ v + params.noise * v)
    gap = float(r @ nystrom.solve_q(parts.factor, r))
    value, _, _ = _cglb_terms(params, parts, yc, v, r, gap)
    return value


def cglb_objective(
    params: HyperParams,
    Z,
    X,
    y,
    cache: VCache | None = None,
    eps: float = 1.0,
    max_iters: int | None = None,
) -> Objective:
    """CGLB value and gradient; v comes from warm-started preconditioned CG.

    The gradient holds v fixed at its converged value. The returned
    diagnostics record the CG iteration count consumed by this
    evaluation, the final quadratic-bound gap, and the bound components.
    """
    X, y, Z, parts = _sparse_inputs(params, Z, X, y)
    n = y.size
    f = parts.factor
    sigma2 = params.noise
    yc = y - params.mean
    kff, decay_ff = kernels.kernel_with_decay(X, None, params)
    state = _solve_v(parts, kff, yc, cache, eps, max_iters)
    v, r, u, gap = state.v, state.r, state.z, state.gap

    value, quad_upper, logdet = _cglb_terms(params, parts, yc, v, r, gap)

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
        ff_pair=(u + 0.5 * v, v), kff=kff, decay_ff=decay_ff,
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


def cglb_predict(params: HyperParams, Z, X, y, v, Xs) -> Prediction:
    """Predictive mean combining the CG solution with a sparse correction.

    mean(x) = k_fs(x).T v + k_u(x).T K_uu^{-1} K_uf Qhat^{-1} (y - Khat v) + mu0.
    The variance is computed by the same routine as ``sgpr_predict``,
    so the two agree bit for bit at identical (theta, Z).
    """
    X, y, Z, parts = _sparse_inputs(params, Z, X, y)
    Xs = np.atleast_2d(np.asarray(Xs, dtype=np.float64))
    v = np.asarray(v, dtype=np.float64)
    if v.shape != y.shape:
        raise DimensionMismatch("v must match y in length")
    yc = y - params.mean
    kff = kernels.kernel_matrix(X, None, params)
    r = yc - (kff @ v + params.noise * v)
    sparse_mean, var = _sparse_predict(params, parts, Z, Xs, r)
    ks = kernels.kernel_matrix(X, Xs, params)
    mean = ks.T @ v + sparse_mean + params.mean
    return Prediction(mean=mean, var=var, noise_variance=params.noise)


def cglb_prediction_vector(
    params: HyperParams, Z, X, y, cache: VCache | None = None,
    eps: float = 1e-3, max_iters: int | None = None,
) -> CGState:
    """Solve for the v used at prediction time (tighter eps than training)."""
    X, y, Z, parts = _sparse_inputs(params, Z, X, y)
    kff = kernels.kernel_matrix(X, None, params)
    return _solve_v(parts, kff, y - params.mean, cache, eps, max_iters)


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
    max_cg_iters: int | None = None,
) -> Objective:
    """Stochastic LML gradient with Rademacher trace probes and CG solves.

    The log-determinant gradient is estimated as the probe average of
    p.T Khat^{-1} (dKhat/dtheta) p with each Khat^{-1} p approximated by
    CG at Euclidean tolerance ``cg_tol`` (the source of bias when loose).
    The value uses the same CG solve for the quadratic term plus a dense
    log-determinant when n is within ``dense_cap``.
    """
    if probes < 1:
        raise ValueError("probes must be >= 1")
    if rng is None:
        rng = np.random.default_rng()
    X, y = _validate_xy(X, y, params)
    n = y.size
    sigma2 = params.noise
    kff, decay = kernels.kernel_with_decay(X, None, params)
    matvec = lambda p: kff @ p + sigma2 * p  # noqa: E731
    yc = y - params.mean

    alpha_state = cg_solve_euclidean(matvec, yc, tol=cg_tol, max_iters=max_cg_iters)
    alpha = alpha_state.v
    p_mat = rng.integers(0, 2, size=(probes, n)).astype(np.float64) * 2.0 - 1.0
    solves = np.empty_like(p_mat)
    total_cg = alpha_state.iters
    for i in range(probes):
        st = cg_solve_euclidean(matvec, p_mat[i], tol=cg_tol, max_iters=max_cg_iters)
        solves[i] = st.v
        total_cg += st.iters

    jac = params.transform_jacobian()
    d = params.ndim
    grad = np.zeros(params.n_params)

    def trace_est(dk: np.ndarray) -> float:
        # mean over probes of s_i.T dK p_i, s_i ~ Khat^{-1} p_i
        return float(np.mean(np.einsum("ij,jk,ik->i", solves, dk, p_mat)))

    dk0 = kff / params.variance
    grad[0] = (0.5 * float(alpha @ dk0 @ alpha) - 0.5 * trace_est(dk0)) * jac[0]
    for j in range(d):
        dk = kernels.lengthscale_grad(X, X, params, j, decay=decay)
        grad[1 + j] = (0.5 * float(alpha @ dk @ alpha) - 0.5 * trace_est(dk)) * jac[1 + j]
    # dKhat/dsigma2 = I
    trace_noise = float(np.mean(np.sum(solves * p_mat, axis=1)))
    grad[1 + d] = (0.5 * float(alpha @ alpha) - 0.5 * trace_noise) * jac[1 + d]
    grad[2 + d] = float(np.sum(alpha))

    diagnostics = {"cg_iters": total_cg, "probes": probes, "logdet_included": False}
    value = -0.5 * n * LOG_2PI - 0.5 * float(yc @ alpha)
    if n <= dense_cap:
        chol = linalg.cholesky(kff + sigma2 * np.eye(n))
        value -= 0.5 * chol.logdet()
        diagnostics["logdet_included"] = True
    return Objective(value=value, grad=grad, diagnostics=diagnostics)
