"""Exception and warning types shared across the package."""


class PiaggError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(PiaggError):
    """Array shapes are inconsistent with each other or with a fitted model."""


class PivotLimitExceeded(PiaggError):
    """The LP solver hit its simplex iteration limit before reaching optimality."""


class NotSymmetric(PiaggError):
    """A matrix passed to the symmetric eigensolver is not symmetric."""


class SingularDesign(PiaggError):
    """The least-squares normal equations are numerically singular."""


class DivergentFit(PiaggError):
    """An iterative fit diverged (e.g. separable logistic data without ridge)."""


class EmptyInput(PiaggError):
    """An operation received an empty vector or table, or too few rows for it."""


class AllZeroWeights(PiaggError):
    """A weighted operation received weights that sum to zero."""


class ParseError(PiaggError):
    """A CSV cell could not be parsed; the message names the row and column."""


class MissingColumn(PiaggError):
    """A named column is absent from a CSV header."""


class EmptyBin(PiaggError):
    """An equal-frequency binning produced a bin with no training rows."""


class ShapeInfeasible(PiaggError):
    """The shape-estimation LP has no feasible aggregation weights."""


class ShrinkUnbounded(PiaggError):
    """No finite shrink level can satisfy the miscoverage budget."""


class LengthMismatch(PiaggError):
    """Paired vectors have different lengths."""


class NonFiniteInput(PiaggError):
    """An input array holds NaN or infinite entries; the message names the argument."""


class ConfigError(PiaggError):
    """A configuration or model document is invalid; the message carries the field path."""


class ShrinkExceedsOneWarning(UserWarning):
    """The calibrated shrink level exceeds one, so the band is being widened."""
