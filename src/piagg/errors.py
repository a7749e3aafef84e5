"""Exception and warning types shared across the package, and the one
table of value rules for named arguments and scenario keys."""

import numbers
import sys


class PiaggError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(PiaggError):
    """Array shapes are inconsistent with each other or with a fitted model."""


class SingularDesign(PiaggError):
    """The least-squares normal equations are numerically singular."""


class DivergentFit(PiaggError):
    """An iterative fit diverged (e.g. separable logistic data without ridge)."""


class EmptyInput(PiaggError):
    """An operation received an empty vector or table, or too few rows for it."""


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


class NonFiniteInput(PiaggError):
    """An input holds NaN or infinite entries, or entries past the bound of
    ``dataset.check_covariates`` or ``check_rows``; the message names it."""


class ConfigError(PiaggError, ValueError):
    """An argument, a configuration or a model document holds an invalid
    value; the message starts with the argument name or field path."""


class ShrinkExceedsOneWarning(UserWarning):
    """The calibrated shrink level exceeds one, so the band is being widened."""


def _real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _integer(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _finite(v) -> bool:  # an int beyond the float range is not finite: float(v) overflows
    return _real(v) and abs(v) <= sys.float_info.max


def unit_partition(fractions) -> bool:
    """Whether the floats ``fractions`` are all > 0 and sum to 1 within 1e-9."""
    return all(f > 0 for f in fractions) and abs(sum(fractions) - 1.0) <= 1e-9


def _specs(v) -> bool:
    from .candidates import CandidateSpec  # candidates imports this module
    return v is None or isinstance(v, (list, tuple)) and len(v) > 0 and all(
        isinstance(s, CandidateSpec) for s in v)


_UNIT = ("lie in (0, 1)", lambda v: _real(v) and 0 < v < 1)
_FINITE_NONNEGATIVE = ("be finite and >= 0", lambda v: _finite(v) and v >= 0)
_FINITE_POSITIVE_OR_NULL = ("be null or finite and > 0",
                            lambda v: v is None or _finite(v) and v > 0)
_COUNT = ("be an integer >= 1", lambda v: _integer(v) and v >= 1)
_STRING = ("be a string", lambda v: isinstance(v, str))
_NUMBERS = ("be a finite number or a non-empty list of them",
            lambda v: all(map(_finite, v)) and len(v) > 0 if isinstance(v, list) else _finite(v))

# The value rule of every checked named argument and scenario key: what a
# valid value must be, and its test. Fits, fitted-state constructors and the
# scenario loader all read these entries, so a value is accepted everywhere
# or nowhere. A rule that says "null or" lets None stand for the default.
ARG_RULES = {
    "alpha_level": _UNIT, "tau": _UNIT, "train_fraction": _UNIT,
    "prob_clip": ("lie in (0, 0.5)", lambda v: _real(v) and 0 < v < 0.5),
    "ratio_cap": ("be finite or inf, and > 0",  # inf: no cap
                  lambda v: _real(v) and v > 0 and (_finite(v) or v == float("inf"))),
    "delta": _FINITE_POSITIVE_OR_NULL, "alg2_delta": _FINITE_POSITIVE_OR_NULL,
    "sigma_min": _FINITE_POSITIVE_OR_NULL, "bandwidth": _FINITE_POSITIVE_OR_NULL,
    "epsilon": ("be null or finite and >= 0",
                lambda v: v is None or _FINITE_NONNEGATIVE[1](v)),
    "support_threshold": _FINITE_NONNEGATIVE, "ridge": _FINITE_NONNEGATIVE,
    "ratio_ridge": _FINITE_NONNEGATIVE,  # the scenario's name for the ratio fit's ridge
    "cov_ridge": _FINITE_NONNEGATIVE, "floor": _FINITE_NONNEGATIVE,
    "lambda_hat": _FINITE_NONNEGATIVE, "achieved_violation": _FINITE_NONNEGATIVE,
    "k": _COUNT, "bins": _COUNT, "replications": _COUNT,
    "n": _COUNT, "n_target": _COUNT, "m": _COUNT,  # sizes of a generated or resampled table
    **dict.fromkeys(("base_seed", "index", "seed"), ("be an integer", _integer)),
    "beta": _NUMBERS, "b": _NUMBERS,  # a scalar stands for a length-1 vector
    "a": ("be a square list of lists of finite numbers", lambda v: isinstance(v, list) and all(
        isinstance(row, list) and len(row) == len(v) and all(map(_finite, row)) for row in v)
        and len(v) > 0),
    "path": _STRING, "label_column": _STRING,
    "out_dir": ("be null or a string", lambda v: v is None or isinstance(v, str)),
    "size": ("be an integer >= 0", lambda v: _integer(v) and v >= 0),
    "specs": ("be null or a non-empty list of CandidateSpec", _specs),
    "fractions": ("be three positive numbers summing to 1",
                  lambda v: (isinstance(v, (list, tuple)) or getattr(v, "ndim", 0) == 1)
                  and len(v) == 3 and all(map(_real, v)) and unit_partition(list(map(float, v)))),
    # a name rule takes only a str: ``in`` on an array raises a bare ValueError
    "mode": ("be 'exact' or 'hinge'", lambda v: isinstance(v, str) and v in ("exact", "hinge")),
    "transport_mode": ("be one of ('gaussian_ot', 'coral', 'location_scale')", lambda v:
                       isinstance(v, str) and v in ("gaussian_ot", "coral", "location_scale")),
    "mean_method": ("be 'ols' or 'knn'", lambda v: isinstance(v, str) and v in ("ols", "knn")),
}


def check_args(prefix: str = "", **values) -> None:
    """ConfigError("<prefix><name>: must ...") for the first named value
    that breaks its rule in ``ARG_RULES``."""
    for name, value in values.items():
        what, ok = ARG_RULES[name]
        if not ok(value):
            raise ConfigError(f"{prefix}{name}: must {what}")
