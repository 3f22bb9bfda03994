"""Dataset ingestion, train/test splitting, standardisation, synthetic generators.

CSV files must carry a header row and only finite numeric values; the
writer uses shortest round-trip float formatting so write -> read is
bit-exact. Standardisation statistics always come from the training
split and are applied unchanged to the test split.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import MissingTarget, ParseError, TooFewRows


@dataclass(frozen=True)
class StandardStats:
    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: float
    y_std: float


@dataclass
class Dataset:
    X: np.ndarray
    y: np.ndarray
    feature_names: list[str]
    target_name: str = "y"
    stats: StandardStats | None = None  # set once standardised

    @property
    def n(self) -> int:
        return self.y.size

    @property
    def d(self) -> int:
        return self.X.shape[1]


def load_csv(path: str, target_column: str) -> Dataset:
    """Parse a headered numeric CSV; NaN/inf or ragged rows are errors."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if target_column not in header:
            raise MissingTarget(
                f"{path}: target column '{target_column}' not in header {header}"
            )
        rows = []
        for irow, row in enumerate(reader, start=2):  # 1-based, after header
            if len(row) != len(header):
                raise ParseError(
                    f"{path}: row {irow} has {len(row)} fields, header has {len(header)}"
                )
            parsed = []
            for name, cell in zip(header, row):
                try:
                    value = float(cell)
                except ValueError:
                    raise ParseError(
                        f"{path}: row {irow}, column '{name}': not a number: {cell!r}"
                    ) from None
                if not math.isfinite(value):
                    raise ParseError(
                        f"{path}: row {irow}, column '{name}': non-finite value {cell!r}"
                    )
                parsed.append(value)
            rows.append(parsed)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    table = np.asarray(rows, dtype=np.float64)
    tcol = header.index(target_column)
    feat_idx = [i for i in range(len(header)) if i != tcol]
    return Dataset(
        X=table[:, feat_idx].copy(),
        y=table[:, tcol].copy(),
        feature_names=[header[i] for i in feat_idx],
        target_name=target_column,
    )


def write_csv(path: str, ds: Dataset) -> None:
    """Write with repr-based (shortest round-trip) float formatting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ds.feature_names + [ds.target_name])
        for xrow, yv in zip(ds.X, ds.y):
            writer.writerow([repr(float(v)) for v in xrow] + [repr(float(yv))])


def split_standardize(
    ds: Dataset, fraction: float = 2.0 / 3.0, seed: int = 0
) -> tuple[Dataset, Dataset, StandardStats]:
    """Seeded permutation split, then standardise both parts with train stats."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    n = ds.n
    if n < 3:
        raise TooFewRows(f"need at least 3 rows to split, got {n}")
    perm = np.random.default_rng(seed).permutation(n)
    n_train = min(max(int(n * fraction), 1), n - 1)
    itr, ite = perm[:n_train], perm[n_train:]

    x_mean = ds.X[itr].mean(axis=0)
    x_std = ds.X[itr].std(axis=0)
    degenerate = x_std < 1e-12
    if np.any(degenerate):
        names = [ds.feature_names[i] for i in np.flatnonzero(degenerate)]
        warnings.warn(f"constant column(s) {names}: std clamped to 1", stacklevel=2)
        x_std = np.where(degenerate, 1.0, x_std)
    y_mean = float(ds.y[itr].mean())
    y_std = float(ds.y[itr].std())
    if y_std < 1e-12:
        warnings.warn("constant target: std clamped to 1", stacklevel=2)
        y_std = 1.0
    stats = StandardStats(x_mean=x_mean, x_std=x_std, y_mean=y_mean, y_std=y_std)

    def apply(idx: np.ndarray) -> Dataset:
        return Dataset(
            X=(ds.X[idx] - x_mean) / x_std,
            y=(ds.y[idx] - y_mean) / y_std,
            feature_names=list(ds.feature_names),
            target_name=ds.target_name,
            stats=stats,
        )

    return apply(itr), apply(ite), stats


def synthetic_sine(n: int, d: int, noise_std: float = 0.1, seed: int = 0) -> Dataset:
    """Sum of per-dimension sines with additive Gaussian noise."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, (n, d))
    y = np.zeros(n)
    for j in range(d):
        y += np.sin((2.0 + j) * X[:, j]) / (1.0 + 0.5 * j)
    y += noise_std * rng.standard_normal(n)
    return Dataset(X=X, y=y, feature_names=[f"x{j + 1}" for j in range(d)])


# Positivity floor of synthetic_gp's generating parameters: variance and
# lengthscale must exceed it.
GP_FLOOR = 1e-6


def synthetic_gp(
    n: int,
    d: int,
    variance: float = 1.0,
    lengthscale: float = 0.3,
    noise_variance: float = 0.05,
    mean: float = 0.0,
    seed: int = 0,
) -> Dataset:
    """Draw targets from a Matern 3/2 GP with known generating parameters."""
    from . import kernels  # local import keeps data <-> kernels decoupled at import time
    from .kernels import HyperParams

    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, (n, d))
    # K_ff does not read the noise; it is added to y below, so noise_variance = 0 works.
    params = HyperParams.from_constrained(variance, lengthscale, 1.0, mean, ndim=d,
                                          floor=GP_FLOOR)
    k = kernels.kernel_matrix(X, None, params)
    chol = np.linalg.cholesky(k + 1e-10 * np.eye(n))
    y = chol @ rng.standard_normal(n)
    y += math.sqrt(noise_variance) * rng.standard_normal(n) + mean
    return Dataset(X=X, y=y, feature_names=[f"x{j + 1}" for j in range(d)])
