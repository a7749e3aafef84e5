"""Density-ratio estimation by probabilistic classification.

A logistic classifier is fitted to distinguish target covariates (class 1)
from source covariates (class 0); the ratio estimate is
``(n_source / n_target) * p / (1 - p)`` with the fitted probability ``p``
clipped away from 0 and 1 and the ratio capped, so every output lies in
``[0, ratio_cap]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import check_covariates, check_samples
from .errors import check_args
from .numerics import LinearModel, logistic_fit, sigmoid


@dataclass(frozen=True)
class DensityRatioModel:
    classifier: LinearModel
    n_source: int
    n_target: int
    prob_clip: float
    ratio_cap: float

    def __post_init__(self):
        check_args(prob_clip=self.prob_clip, ratio_cap=self.ratio_cap)


def fit_density_ratio(source_x: np.ndarray, target_x: np.ndarray,
                      ridge: float = 1e-6, prob_clip: float = 1e-6,
                      ratio_cap: float = 1e3) -> DensityRatioModel:
    """Fit the source-vs-target classifier on the pooled covariates.

    Source rows get label 0 and target rows label 1; a small ridge keeps
    the fit finite when the two samples are nearly separable.
    """
    check_args(ridge=ridge, prob_clip=prob_clip, ratio_cap=ratio_cap)
    source_x, target_x = check_samples("source_x", source_x, "target_x", target_x)
    pooled = np.vstack([source_x, target_x])
    labels = np.concatenate([np.zeros(source_x.shape[0]), np.ones(target_x.shape[0])])
    clf = logistic_fit(pooled, labels, ridge=ridge)
    return DensityRatioModel(clf, source_x.shape[0], target_x.shape[0],
                             prob_clip, ratio_cap)


def eval_ratio(m: DensityRatioModel, x: np.ndarray) -> np.ndarray:
    """Evaluate the capped ratio estimate on new covariates."""
    p = sigmoid(m.classifier.predict(check_covariates("x", x)))
    p = np.clip(p, m.prob_clip, 1.0 - m.prob_clip)
    ratio = (m.n_source / m.n_target) * p / (1.0 - p)
    return np.minimum(ratio, m.ratio_cap)
