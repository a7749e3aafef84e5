"""Affine moment-matching transport maps."""

import math

import numpy as np
import pytest

from piagg.errors import ConfigError, DimensionMismatch
from piagg.numerics import sym_eig
from piagg.transport import AffineMap, apply_map, energy_distance, fit_affine_transport


def _four_point_cloud(sd1, sd2):
    """Four points with exact zero mean and sample covariance
    diag(sd1^2, sd2^2) under the n-1 convention."""
    a = sd1 * np.sqrt(1.5)
    b = sd2 * np.sqrt(1.5)
    return np.array([[a, 0.0], [-a, 0.0], [0.0, b], [0.0, -b]])


class TestFit:
    def test_same_sample_gives_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(500, 3))
        for mode in ("gaussian_ot", "coral", "location_scale"):
            m = fit_affine_transport(x, x, mode=mode)
            assert np.max(np.abs(m.a - np.eye(3))) <= 1e-6
            assert np.max(np.abs(m.b)) <= 1e-6

    def test_pure_translation(self):
        rng = np.random.default_rng(1)
        src = rng.normal(size=(800, 2))
        tgt = src + np.array([3.0, -1.0])
        m = fit_affine_transport(tgt, src, mode="gaussian_ot")
        assert np.max(np.abs(m.a - np.eye(2))) <= 1e-6
        mapped = apply_map(m, tgt)
        assert np.max(np.abs(mapped - src)) <= 1e-6

    def test_commuting_diagonal_closed_form(self):
        # covariances diag(1,4) -> diag(4,1) give A = diag(2, 1/2)
        tgt = _four_point_cloud(1.0, 2.0)
        src = _four_point_cloud(2.0, 1.0)
        for mode in ("gaussian_ot", "coral", "location_scale"):
            m = fit_affine_transport(tgt, src, mode=mode)
            assert np.max(np.abs(m.a - np.diag([2.0, 0.5]))) <= 1e-6, mode


    @pytest.mark.parametrize("ridge", [-5.0, -1e-12, float("nan")])
    def test_negative_ridge_rejected(self, ridge):
        x = np.random.default_rng(0).normal(size=(30, 2))
        with pytest.raises(ConfigError, match=r"^cov_ridge: "):
            fit_affine_transport(x, x + 1.0, cov_ridge=ridge)


class TestApply:
    def test_identity_map(self):
        x = np.arange(12.0).reshape(4, 3)
        assert np.array_equal(apply_map(AffineMap.identity(3), x), x)

    def test_translation_at_origin(self):
        m = AffineMap(np.eye(2), np.array([1.5, -2.0]))
        assert np.allclose(apply_map(m, np.zeros((1, 2))), [[1.5, -2.0]])

    def test_diagonal_scaling(self):
        m = AffineMap(np.diag([2.0, 0.5]), np.zeros(2))
        assert np.allclose(apply_map(m, np.array([[1.0, 1.0]])), [[2.0, 0.5]])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            apply_map(AffineMap.identity(2), np.zeros((3, 5)))


class TestMomentMatching:
    def test_mapped_mean_matches_source_mean(self):
        rng = np.random.default_rng(7)
        src = rng.normal(1.0, 2.0, size=(400, 3))
        tgt = rng.normal(-2.0, 0.5, size=(300, 3))
        for mode in ("gaussian_ot", "coral", "location_scale"):
            m = fit_affine_transport(tgt, src, mode=mode)
            mapped = apply_map(m, tgt)
            assert np.max(np.abs(mapped.mean(axis=0) - src.mean(axis=0))) <= 1e-10

    def test_mapped_covariance_matches_source(self):
        rng = np.random.default_rng(8)
        src = rng.normal(size=(600, 2)) @ np.array([[2.0, 0.3], [0.0, 0.7]])
        tgt = rng.normal(size=(500, 2)) @ np.array([[0.5, -0.1], [0.2, 1.4]])
        cov_s = np.cov(src, rowvar=False)
        for mode in ("gaussian_ot", "coral"):
            mapped = apply_map(fit_affine_transport(tgt, src, mode=mode), tgt)
            cov_m = np.cov(mapped, rowvar=False)
            assert np.max(np.abs(cov_m - cov_s)) <= 1e-6 * np.max(np.abs(cov_s))

    def test_gaussian_ot_matrix_symmetric_psd(self):
        rng = np.random.default_rng(9)
        src = rng.normal(size=(300, 3)) @ rng.normal(size=(3, 3))
        tgt = rng.normal(size=(300, 3)) @ rng.normal(size=(3, 3))
        m = fit_affine_transport(tgt, src, mode="gaussian_ot")
        assert np.max(np.abs(m.a - m.a.T)) <= 1e-8
        assert sym_eig(m.a).eigenvalues.min() >= -1e-8


def test_energy_distance_alignment_diagnostic():
    rng = np.random.default_rng(10)
    src = rng.normal(size=(300, 2))
    tgt = rng.normal(3.0, 1.0, size=(300, 2))
    before = energy_distance(tgt, src)
    mapped = apply_map(fit_affine_transport(tgt, src, mode="gaussian_ot"), tgt)
    after = energy_distance(mapped, src)
    assert after < before
    assert after < 0.1


def test_energy_distance_matches_double_loop():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(23, 3))
    b = rng.normal(0.5, 2.0, size=(17, 3))

    def mean_dist(u, v):
        return sum(math.dist(p, q) for p in u for q in v) / (len(u) * len(v))

    # both samples are cut to their first max_points rows
    u, v = a[:15], b[:15]
    expect = 2.0 * mean_dist(u, v) - mean_dist(u, u) - mean_dist(v, v)
    assert energy_distance(a, b, max_points=15) == pytest.approx(expect, rel=1e-12)
