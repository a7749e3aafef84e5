"""Weighted split-conformal baselines.

Two score families over a shared weighted-quantile core:

* variance-adjusted (``wvac``): score |y - mean(x)| / scale(x) with a
  kernel estimate of the conditional scale;
* quantile-adjusted (``wqc``): score max(q_lo(x) - y, y - q_hi(x)) from a
  pair of linear quantile fits.

Calibration scores are reweighted by the estimated density ratio, and
each test point contributes a point mass at +infinity, so an interval can
come back infinite when the test weight dominates; such intervals are
flagged through infinite half-widths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .candidates import CandidateSpec, KernelVariance, fit_candidate_set, residuals
from .dataset import DataTable, check_covariates
from .densratio import DensityRatioModel, eval_ratio
from .errors import EmptyInput, PiaggError, check_args
from .numerics import LinearModel, left_quantiles, ols_fit, quantile_reg_fit
from .aggregate import IntervalBatch


@dataclass(frozen=True)
class KernelScale:
    """Conditional-scale estimate: square root of a kernel smoother of the
    squared residuals, floored at ``sigma_min``."""

    smoother: KernelVariance
    sigma_min: float

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(np.sqrt(np.maximum(self.smoother.evaluate(x), 0.0)),
                          self.sigma_min)


@dataclass(frozen=True)
class WvacModel:
    mean_model: LinearModel
    scale_model: KernelScale
    cal_scores: np.ndarray
    cal_weights: np.ndarray
    ratio: DensityRatioModel | None


@dataclass(frozen=True)
class WqcModel:
    q_lo: LinearModel
    q_hi: LinearModel
    cal_scores: np.ndarray
    cal_weights: np.ndarray
    ratio: DensityRatioModel | None


def _ratio_weights(ratio: DensityRatioModel | None, x: np.ndarray) -> np.ndarray:
    if ratio is None:
        return np.ones(x.shape[0])
    return eval_ratio(ratio, x)


def fit_wvac(train1: DataTable, cal: DataTable, ratio: DensityRatioModel | None,
             sigma_min: float | None = None,
             bandwidth: float | None = None) -> WvacModel:
    """Fit the variance-adjusted conformal pieces: OLS mean and kernel
    scale on the first block, scores and ratio weights on the calibration
    block.

    ``sigma_min`` defaults to 1e-6 times the response scale so the score
    division stays safe when residuals vanish; ``bandwidth`` defaults to
    the normal-reference rule.
    """
    check_args(sigma_min=sigma_min, bandwidth=bandwidth)
    if train1.y is None or cal.y is None:
        raise PiaggError("both blocks must be labeled")
    if cal.n == 0:  # no calibration score: every interval would be infinite
        raise EmptyInput("cal: the calibration block has no rows")
    mean_model = ols_fit(train1.x, train1.y)
    resid2 = residuals(train1, mean_model)
    if sigma_min is None:
        scale = float(np.std(train1.y))
        sigma_min = 1e-6 * (scale if scale > 0 else 1.0)
    smoother = fit_candidate_set(train1, resid2,
                                 [CandidateSpec("kernel_variance", bandwidth=bandwidth)])
    scale_model = KernelScale(smoother.fitted[0], sigma_min)
    scores = np.abs(cal.y - mean_model.predict(cal.x)) / scale_model.predict(cal.x)
    return WvacModel(mean_model, scale_model, scores,
                     _ratio_weights(ratio, cal.x), ratio)


def predict_wvac(m: WvacModel, x: np.ndarray, alpha_level: float) -> IntervalBatch:
    """Intervals mean(x) +- scale(x) * eta(x) at coverage 1 - alpha_level;
    eta comes from the weighted calibration-score quantile with the test
    point's own mass at +infinity."""
    check_args(alpha_level=alpha_level)
    x = check_covariates("x", x)
    eta = left_quantiles(m.cal_scores, m.cal_weights, 1.0 - alpha_level,
                         _ratio_weights(m.ratio, x))
    center = m.mean_model.predict(x)
    half = m.scale_model.predict(x) * eta
    return IntervalBatch(center - half, center + half, center)


def fit_wqc(train1: DataTable, cal: DataTable, ratio: DensityRatioModel | None,
            alpha_level: float) -> WqcModel:
    """Fit the quantile-adjusted conformal pieces: linear quantile models
    at alpha/2 and 1 - alpha/2, then signed-distance scores on the
    calibration block (crossing fits are swapped pointwise)."""
    check_args(alpha_level=alpha_level)
    if train1.y is None or cal.y is None:
        raise PiaggError("both blocks must be labeled")
    if cal.n == 0:  # no calibration score: every interval would be infinite
        raise EmptyInput("cal: the calibration block has no rows")
    q_lo = quantile_reg_fit(train1.x, train1.y, alpha_level / 2.0)
    q_hi = quantile_reg_fit(train1.x, train1.y, 1.0 - alpha_level / 2.0)
    lo, hi = _ordered_quantiles(q_lo, q_hi, cal.x)
    scores = np.maximum(lo - cal.y, cal.y - hi)
    return WqcModel(q_lo, q_hi, scores, _ratio_weights(ratio, cal.x), ratio)


def _ordered_quantiles(q_lo: LinearModel, q_hi: LinearModel,
                       x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lo = q_lo.predict(x)
    hi = q_hi.predict(x)
    return np.minimum(lo, hi), np.maximum(lo, hi)


def predict_wqc(m: WqcModel, x: np.ndarray, alpha_level: float) -> IntervalBatch:
    """Intervals [q_lo(x) - eta, q_hi(x) + eta]; eta is floored at zero so
    calibration points sitting comfortably inside the quantile band never
    shrink it."""
    check_args(alpha_level=alpha_level)
    x = check_covariates("x", x)
    eta = np.maximum(left_quantiles(m.cal_scores, m.cal_weights, 1.0 - alpha_level,
                                    _ratio_weights(m.ratio, x)), 0.0)
    lo, hi = _ordered_quantiles(m.q_lo, m.q_hi, x)
    return IntervalBatch(lo - eta, hi + eta, (lo + hi) / 2.0)
