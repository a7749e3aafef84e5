"""Affine moment-matching transport maps."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import piagg
from piagg.errors import ConfigError, DimensionMismatch, EmptyInput, NonFiniteInput
from piagg.transport import AffineMap, _psd_power, apply_map, fit_affine_transport, marginal_ks


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
        assert np.linalg.eigvalsh(m.a).min() >= -1e-8


class TestPsdPower:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(spectrum=st.lists(st.sampled_from([0.0, 1.0, -2.5]) |
                             st.floats(-10.0, 10.0, allow_subnormal=False),
                             min_size=1, max_size=6),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_property_random_spectrum(self, spectrum, seed):
        # a random rotation of a spectrum that may repeat values, hold zeros
        # or go negative
        d = len(spectrum)
        q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(d, d)))

        def rotated(values):
            m = (q * values) @ q.T
            return (m + m.T) / 2

        scale = max(np.max(np.abs(spectrum)), 1.0)
        half = _psd_power(rotated(spectrum), 0.5)
        psd_part = rotated(np.clip(spectrum, 0.0, None))
        assert np.max(np.abs(half @ half - psd_part)) <= 1e-8 * scale
        m = rotated(np.abs(spectrum) + 0.01)  # positive: the -1/2 power inverts the 1/2
        assert np.max(np.abs(_psd_power(m, -0.5) @ _psd_power(m, 0.5) - np.eye(d))) <= 1e-8


class TestMarginalKs:
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("n_a, n_b", [(40, 40), (37, 91)])
    def test_matches_scipy_with_ties(self, d, n_a, n_b):
        from scipy import stats  # the package itself never imports scipy.stats

        rng = np.random.default_rng(10 + d)
        # rounded draws tie within and across the samples
        a = np.round(rng.normal(size=(n_a, d)), 1)
        b = np.round(rng.normal(0.3, 1.5, size=(n_b, d)), 1)
        expect = max(stats.ks_2samp(a[:, j], b[:, j], method="asymp").statistic
                     for j in range(d))
        assert marginal_ks(a, b) == pytest.approx(expect, rel=0.0, abs=1e-12)

    def test_identical_samples_read_zero(self):
        x = np.random.default_rng(0).normal(size=(50, 2))
        assert marginal_ks(x, x[::-1]) == 0.0

    def test_separates_an_affine_shift_from_a_non_affine_one(self):
        # Alg. 2's map is affine, so it aligns an affine shift of the source
        # but not z + 0.8 sign(z) z^2, whose standardized marginal lies 0.079
        # from the normal's in KS distance; over 20 replications (2000 rows,
        # d = 3) the mapped readings were at most 0.032 and at least 0.086
        readings = {"affine": [], "non_affine": []}
        for seed in range(20):
            rng = np.random.default_rng(seed)
            src, z = rng.normal(size=(2000, 3)), rng.normal(size=(2000, 3))
            for name, tgt in (("affine", 1.5 * z + 1.0),
                              ("non_affine", z + 0.8 * np.sign(z) * z ** 2)):
                mapped = apply_map(fit_affine_transport(tgt, src), tgt)
                readings[name].append(marginal_ks(mapped, src))
        assert max(readings["affine"]) < 0.06 < min(readings["non_affine"])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            marginal_ks(np.zeros((4, 2)), np.zeros((4, 3)))

    @pytest.mark.parametrize("a, error", [
        (np.zeros((0, 2)), EmptyInput),
        ([], EmptyInput),
        (np.array([[0.0, np.nan]]), NonFiniteInput),
    ], ids=["no_rows", "no_columns", "nan"])
    def test_bad_sample_rejected(self, a, error):
        with pytest.raises(error, match=r"^a"):
            marginal_ks(a, np.zeros((4, 2)))


def test_import_loads_no_scipy_stats():
    # every command pays for its imports at start-up: after piagg (0.55 s
    # on a 2-core VM), scipy.stats alone takes another 0.33 s
    script = "import sys, piagg; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", script], check=True, capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=str(
                             pathlib.Path(piagg.__file__).parents[1])))
    assert out.stdout.strip() == "False"
