"""Gaussian process regression with conjugate-gradient lower bounds.

Four model stacks over a Matern 3/2 ARD kernel: exact Cholesky GPR, the
sparse variational ELBO, the CGLB objective (preconditioned CG for the
quadratic term, an AM-GM-tightened log-determinant bound), and a
Hutchinson trace-estimator baseline. Hyperparameters are selected by
maximising the chosen objective with L-BFGS.
"""

from .bounds import (
    BoundReport,
    bound_report,
    logdet_lower_top,
    logdet_upper_amgm,
    logdet_upper_trace,
    logdet_upper_waterfill,
    quad_bounds,
    water_fill,
)
from .kernels import HyperParams, kernel_diag, kernel_matrix
from .linalg import CholFactor, chol_solve, cholesky, sym_eig, tri_solve
from .models import (
    Objective,
    Prediction,
    cglb_objective,
    cglb_predict,
    cglb_value_fixed_v,
    elbo,
    exact_lml,
    exact_predict,
    iterative_lml_and_grad,
    sgpr_predict,
)
from .nystrom import InducingSet, NystromFactor, eig_q, greedy_select, logdet_q, solve_q
from .optimizer import MinimizeResult, OptimizerConfig, check_grad, minimize
from .pcg import CGState, VCache, cg_solve_euclidean, pcg_solve, warm_start

__all__ = [
    "BoundReport", "bound_report", "logdet_lower_top", "logdet_upper_amgm",
    "logdet_upper_trace", "logdet_upper_waterfill", "quad_bounds", "water_fill",
    "HyperParams", "kernel_diag", "kernel_matrix",
    "CholFactor", "chol_solve", "cholesky", "sym_eig", "tri_solve",
    "Objective", "Prediction", "cglb_objective", "cglb_predict",
    "cglb_value_fixed_v", "elbo", "exact_lml", "exact_predict",
    "iterative_lml_and_grad", "sgpr_predict",
    "InducingSet", "NystromFactor", "eig_q", "greedy_select",
    "logdet_q", "solve_q",
    "MinimizeResult", "OptimizerConfig", "check_grad", "minimize",
    "CGState", "VCache", "cg_solve_euclidean", "pcg_solve", "warm_start",
]

__version__ = "0.1.0"
