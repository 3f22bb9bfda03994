"""How fast do the log-determinant bounds tighten as inducing points grow?

For a synthetic GP dataset and a sweep of inducing-set sizes, prints the
exact log|Khat| against the four bounds and writes a plot-ready CSV.

    python scripts/bound_tightness.py --n 400 --m-grid 2 4 8 16 32 64
"""

import argparse
import csv
import sys

import numpy as np

from cglb import bounds, data, kernels, linalg, nystrom
from cglb.kernels import HyperParams


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=400)
    ap.add_argument("--d", type=int, default=2)
    ap.add_argument("--m-grid", type=int, nargs="+", default=[2, 4, 8, 16, 32, 64])
    ap.add_argument("--lengthscale", type=float, default=0.3)
    ap.add_argument("--noise", type=float, default=0.05)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="bound_tightness.csv")
    args = ap.parse_args()

    ds = data.synthetic_gp(args.n, args.d, lengthscale=args.lengthscale,
                           noise_variance=args.noise, seed=args.seed)
    params = HyperParams.from_constrained(1.0, args.lengthscale, args.noise, 0.0,
                                          ndim=args.d)
    khat = kernels.kernel_matrix(ds.X, None, params) + params.noise * np.eye(args.n)
    exact = linalg.cholesky(khat).logdet()
    print(f"exact log|Khat| = {exact:.4f}")

    order = nystrom.greedy_select(ds.X, params, max(args.m_grid)).selection_order
    rows = []
    header = f"{'m':>5s} {'lower_top':>12s} {'waterfill':>12s} {'amgm':>12s} {'trace':>12s}"
    print(header)
    for m in sorted(args.m_grid):
        factor = nystrom.sparse_parts(params, ds.X, ds.X[order[:m]]).factor
        row = {
            "m": m,
            "logdet_exact": exact,
            "logdet_lower": bounds.logdet_lower_top(factor),
            "logdet_waterfill": bounds.logdet_upper_waterfill(factor),
            "logdet_amgm": bounds.logdet_upper_amgm(factor),
            "logdet_trace": bounds.logdet_upper_trace(factor),
        }
        rows.append(row)
        print(f"{m:5d} {row['logdet_lower']:12.4f} {row['logdet_waterfill']:12.4f} "
              f"{row['logdet_amgm']:12.4f} {row['logdet_trace']:12.4f}")

    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
