"""Exception types shared across the package."""


class CglbError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(CglbError):
    """Operands have incompatible shapes."""


class NotPositiveDefinite(CglbError):
    """Cholesky factorisation failed even after the full jitter ladder."""


class ConvergenceFailure(CglbError):
    """An iterative eigensolver hit its iteration cap."""


class BreakdownDetected(CglbError):
    """Conjugate gradients met a direction of non-positive curvature.

    Signals that the supplied matrix-vector product is not positive
    definite, e.g. because the noise variance underflowed.
    """


class NonFiniteObjective(CglbError):
    """The objective or its gradient evaluated to NaN/inf during optimisation."""


class ConfigError(CglbError):
    """Invalid run configuration (unknown keys, bad values, missing files)."""


class ParseError(ConfigError):
    """A data file could not be parsed; message names the row/column."""


class MissingTarget(ConfigError):
    """The configured target column is absent from the CSV header."""


class TooFewRows(ConfigError):
    """The dataset is too small to split."""
