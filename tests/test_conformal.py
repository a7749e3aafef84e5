"""Weighted split-conformal baselines: score construction, the weighted
quantile with its infinity atom, and classical reductions."""

import numpy as np
import pytest

from piagg.bench import coverage_and_width
from piagg.candidates import KernelVariance
from piagg.conformal import (
    KernelScale,
    WqcModel,
    WvacModel,
    fit_wqc,
    fit_wvac,
    predict_wqc,
    predict_wvac,
)
from piagg.dataset import DataTable, SplitSpec, split
from piagg.densratio import DensityRatioModel
from piagg.errors import NonFiniteInput
from piagg.numerics import LinearModel


def _unit_scale_model(scores, weights=None, ratio=None):
    scale = KernelScale(KernelVariance(np.zeros((1, 1)), np.ones(1), 1.0), 1e-6)
    mean = LinearModel(np.array([0.0, 0.0]), "ols_mean")
    scores = np.asarray(scores, float)
    w = np.ones(scores.size) if weights is None else np.asarray(weights, float)
    return WvacModel(mean, scale, scores, w, ratio)


def _linear_data(rng, n, noise=1.0, slope=2.0):
    x = rng.uniform(-2, 2, n)[:, None]
    y = slope * x[:, 0] + noise * rng.normal(size=n)
    return DataTable(x, y)


class TestFitWvac:
    def test_noiseless_scores_vanish(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, 200)[:, None]
        t = DataTable(x, 3.0 * x[:, 0] + 1.0)
        tr, cal = split(t, SplitSpec((0.5, 0.5), seed=1))
        m = fit_wvac(tr, cal, None)
        assert np.all(np.isfinite(m.cal_scores))
        assert np.max(np.abs(m.cal_scores)) <= 1e-3

    def test_sigma_floor_keeps_scores_finite(self):
        t = DataTable(np.linspace(0, 1, 40)[:, None], np.zeros(40))
        tr, cal = split(t, SplitSpec((0.5, 0.5), seed=2))
        m = fit_wvac(tr, cal, None, sigma_min=1e-6)
        assert np.all(np.isfinite(m.cal_scores))

    def test_homoskedastic_scale_roughly_constant(self):
        rng = np.random.default_rng(3)
        t = _linear_data(rng, 5000)
        tr, cal = split(t, SplitSpec((0.5, 0.5), seed=0))
        m = fit_wvac(tr, cal, None)
        s = m.scale_model.predict(np.linspace(-1.8, 1.8, 50)[:, None])
        assert (s.max() - s.min()) / s.mean() <= 0.5


class TestPredictWvac:
    def test_hand_quantile_four_points(self):
        # five atoms (4 scores + infinity), level 0.8 needs cumulative 4:
        # eta is the largest finite score
        m = _unit_scale_model([0.1, 0.5, 0.3, 0.9])
        b = predict_wvac(m, np.zeros((1, 1)), alpha_level=0.2)
        assert b.upper[0] == pytest.approx(0.9, abs=1e-12)

    def test_dominant_test_weight_gives_infinite_interval(self):
        clf = LinearModel(np.array([0.0, 50.0]), "logistic")
        ratio = DensityRatioModel(clf, 10, 10, 1e-6, 1e3)
        m = _unit_scale_model([0.1, 0.2, 0.3], weights=np.ones(3), ratio=ratio)
        b = predict_wvac(m, np.array([[100.0]]), alpha_level=0.1)
        assert np.isinf(b.upper[0]) and np.isinf(-b.lower[0])

    def test_alpha_near_one_returns_smallest_score(self):
        m = _unit_scale_model([0.4, 0.1, 0.7])
        b = predict_wvac(m, np.zeros((1, 1)), alpha_level=0.999)
        assert b.upper[0] == pytest.approx(0.1, abs=1e-12)

    def test_classical_order_statistic_reduction(self):
        rng = np.random.default_rng(4)
        for n_cal in (1, 5, 19, 50):
            scores = rng.uniform(0, 1, n_cal)
            m = _unit_scale_model(scores)
            for alpha in (0.05, 0.1, 0.2):
                b = predict_wvac(m, np.zeros((1, 1)), alpha_level=alpha)
                k = int(np.ceil((1 - alpha) * (n_cal + 1)))
                expected = np.inf if k > n_cal else np.sort(scores)[k - 1]
                assert b.upper[0] == expected

    def test_width_monotone_in_alpha(self):
        rng = np.random.default_rng(5)
        m = _unit_scale_model(rng.uniform(0, 1, 30))
        widths = []
        for alpha in np.linspace(0.02, 0.9, 15):
            b = predict_wvac(m, np.zeros((1, 1)), alpha_level=alpha)
            widths.append(b.upper[0] - b.lower[0])
        assert np.all(np.diff(widths) <= 1e-12)

    def test_marginal_coverage_without_shift(self):
        rng = np.random.default_rng(6)
        covs = []
        for rep in range(200):
            t = _linear_data(rng, 1000)
            tr, cal = split(t, SplitSpec((0.5, 0.5), seed=rep))
            m = fit_wvac(tr, cal, None)
            fresh = _linear_data(rng, 400)
            cov, _ = coverage_and_width(predict_wvac(m, fresh.x, 0.1), fresh.y)
            covs.append(cov)
        assert np.mean(covs) >= 0.88


class TestWqc:
    def test_symmetric_quantiles_on_centered_data(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, 4000)[:, None]
        y = rng.uniform(-1, 1, 4000)  # symmetric noise, zero mean structure
        t = DataTable(x, y)
        tr, cal = split(t, SplitSpec((0.5, 0.5), seed=1))
        m = fit_wqc(tr, cal, None, alpha_level=0.1)
        grid = np.linspace(-0.9, 0.9, 20)[:, None]
        lo = m.q_lo.predict(grid)
        hi = m.q_hi.predict(grid)
        assert np.max(np.abs(lo + hi)) <= 0.15

    def test_eta_zero_when_points_inside_with_margin(self):
        q_lo = LinearModel(np.array([-5.0, 0.0]), "quantile", tau=0.05)
        q_hi = LinearModel(np.array([5.0, 0.0]), "quantile", tau=0.95)
        scores = np.array([-4.0, -3.5, -4.5])  # all well inside the band
        m = WqcModel(q_lo, q_hi, scores, np.ones(3), None)
        b = predict_wqc(m, np.zeros((1, 1)), alpha_level=0.5)
        assert b.lower[0] == pytest.approx(-5.0)
        assert b.upper[0] == pytest.approx(5.0)

    def test_equal_weights_reduce_to_unweighted_rule(self):
        rng = np.random.default_rng(8)
        q_lo = LinearModel(np.array([-1.0, 0.0]), "quantile", tau=0.05)
        q_hi = LinearModel(np.array([1.0, 0.0]), "quantile", tau=0.95)
        scores = rng.normal(size=20)
        m = WqcModel(q_lo, q_hi, scores, np.ones(20), None)
        b = predict_wqc(m, np.zeros((3, 1)), alpha_level=0.1)
        k = int(np.ceil(0.9 * 21))
        eta = max(np.sort(scores)[k - 1], 0.0)
        assert np.allclose(b.upper, 1.0 + eta)
        assert np.allclose(b.lower, -1.0 - eta)

    def test_crossing_quantiles_swapped(self):
        q_lo = LinearModel(np.array([0.0, 1.0]), "quantile", tau=0.05)
        q_hi = LinearModel(np.array([0.0, -1.0]), "quantile", tau=0.95)
        m = WqcModel(q_lo, q_hi, np.array([0.0]), np.ones(1), None)
        b = predict_wqc(m, np.array([[2.0]]), alpha_level=0.5)
        assert b.lower[0] <= b.upper[0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("method", ["wvac", "wqc"])
def test_predict_rejects_non_finite_covariates(method, bad):
    tr, cal = split(_linear_data(np.random.default_rng(11), 200), SplitSpec((0.5, 0.5), seed=3))
    if method == "wvac":
        m, predict = fit_wvac(tr, cal, None), predict_wvac
    else:
        m, predict = fit_wqc(tr, cal, None, alpha_level=0.1), predict_wqc
    x = np.zeros((3, 1))
    x[1, 0] = bad
    with pytest.raises(NonFiniteInput, match="^x:"):
        predict(m, x, alpha_level=0.1)
