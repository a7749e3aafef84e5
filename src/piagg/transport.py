"""Affine moment-matching maps from target to source covariates.

Three variants share the form T(x) = mu_S + A (x - mu_T) and differ in A:

* ``gaussian_ot``: A = S_T^{-1/2} (S_T^{1/2} S_S S_T^{1/2})^{1/2} S_T^{-1/2},
  the optimal map between the two Gaussian moment fits (symmetric PSD);
* ``coral``: A = S_S^{1/2} S_T^{-1/2}, whitening then recoloring;
* ``location_scale``: A = diag(sd_S / sd_T), componentwise.

All matrix roots go through ``numerics.sym_eig``, which is NumPy's ``eigh``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import check_covariates, check_samples
from .errors import ConfigError, DimensionMismatch, check_args
from .numerics import sym_eig


@dataclass(frozen=True)
class AffineMap:
    """Affine transport x -> a @ x + b (the centering terms are folded
    into b at fit time, so an identity map is exactly (I, 0))."""

    a: np.ndarray
    b: np.ndarray
    mode: str = "gaussian_ot"

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64).ravel()
        if a.ndim != 2 or a.shape[0] != a.shape[1] or b.shape[0] != a.shape[0]:
            raise DimensionMismatch("a must be square and b of matching length")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ConfigError("map: entries of a and b must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @classmethod
    def identity(cls, d: int) -> "AffineMap":
        return cls(np.eye(d), np.zeros(d), "location_scale")


def _psd_power(m: np.ndarray, power: float) -> np.ndarray:
    vals, v = sym_eig((m + m.T) / 2.0)
    vals, v = np.clip(vals[::-1], 0.0, None), v[:, ::-1].copy()  # the layout sets the sum order
    if power < 0:
        vals = np.maximum(vals, 1e-12 * max(vals.max(), 1.0))
    return (v * vals ** power) @ v.T


def _mean_cov(x: np.ndarray, ridge: float) -> tuple[np.ndarray, np.ndarray]:
    mu = x.mean(axis=0)
    centered = x - mu
    denom = max(x.shape[0] - 1, 1)
    cov = centered.T @ centered / denom
    return mu, cov + ridge * np.eye(x.shape[1])


def fit_affine_transport(target_x: np.ndarray, source_x: np.ndarray,
                         mode: str = "gaussian_ot",
                         cov_ridge: float = 0.0) -> AffineMap:
    """Fit the map so the transported target matches the source mean
    exactly and, for the covariance-aware modes, the source covariance;
    ``mode`` is one of the ``transport_mode`` values."""
    check_args(transport_mode=mode, cov_ridge=cov_ridge)
    target_x, source_x = check_samples("target_x", target_x, "source_x", source_x)
    mu_t, cov_t = _mean_cov(target_x, cov_ridge)
    mu_s, cov_s = _mean_cov(source_x, cov_ridge)
    if mode == "gaussian_ot":
        t_half = _psd_power(cov_t, 0.5)
        t_neg_half = _psd_power(cov_t, -0.5)
        middle = _psd_power(t_half @ cov_s @ t_half, 0.5)
        a = t_neg_half @ middle @ t_neg_half
        a = (a + a.T) / 2.0
    elif mode == "coral":
        a = _psd_power(cov_s, 0.5) @ _psd_power(cov_t, -0.5)
    else:
        sd_s = np.sqrt(np.diag(cov_s))
        sd_t = np.sqrt(np.maximum(np.diag(cov_t), 1e-24))
        a = np.diag(sd_s / sd_t)
    b = mu_s - a @ mu_t
    return AffineMap(a, b, mode)


def apply_map(m: AffineMap, x: np.ndarray) -> np.ndarray:
    """Row-wise a @ x + b."""
    x = check_covariates("x", x)
    if x.shape[1] != m.a.shape[0]:
        raise DimensionMismatch("x dimension does not match the map")
    return np.vecdot(x[:, None, :], m.a) + m.b


def marginal_ks(a: np.ndarray, b: np.ndarray) -> float:
    """The largest two-sample Kolmogorov-Smirnov statistic over the coordinates,
    from both empirical CDFs at every pooled point: a goodness-of-alignment
    diagnostic for fitted maps (no pass/fail threshold is implied) on marginals only."""
    a, b = (np.sort(v, axis=0) for v in check_samples("a", a, "b", b))
    return max(float(np.max(np.abs(np.searchsorted(u, t, side="right") / u.size
                                   - np.searchsorted(v, t, side="right") / v.size)))
               for u, v, t in zip(a.T, b.T, np.vstack([a, b]).T))
