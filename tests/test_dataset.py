"""Data model, CSV ingestion, deterministic splits, shift generators, and
the heteroskedastic simulator."""

import numpy as np
import pytest
from scipy import integrate, stats

from piagg.dataset import (
    DataTable,
    SplitSpec,
    affine_shift,
    check_nonnegative,
    gen_affine_gauss,
    gen_hetero_sim,
    linear_index,
    load_csv,
    split,
    tilt_resample,
    weighted_resample,
    write_csv,
)
from piagg.errors import ConfigError, DimensionMismatch, MissingColumn, ParseError
from piagg.rng import Rng, derive_seed


class TestLoadCsv:
    def test_label_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,y\n1,2\n3,4\n")
        t = load_csv(str(p), "y")
        assert np.array_equal(t.x, [[1.0], [3.0]])
        assert np.array_equal(t.y, [2.0, 4.0])
        assert t.column_names == ["a"]

    def test_without_label(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,y\n1,2\n3,4\n")
        t = load_csv(str(p))
        assert np.array_equal(t.x, [[1.0, 2.0], [3.0, 4.0]])
        assert t.y is None

    def test_parse_error_names_cell(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n3,oops\n")
        with pytest.raises(ParseError, match="row 3, column 'b'"):
            load_csv(str(p))

    def test_missing_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(MissingColumn):
            load_csv(str(p), "nope")

    def test_write_csv_round_trips_bit_for_bit(self, tmp_path):
        # a signed zero, the smallest subnormal and the covariate bound
        x = np.array([[-0.0, 5e-324], [1e100, 0.1], [-1e100, 1 / 3]])
        y = np.array([5e-324, -0.0, 2.0 / 3])
        p = str(tmp_path / "t.csv")
        write_csv(p, ["a", "b", "y"], np.column_stack([x, y]))
        t = load_csv(p, "y")
        assert t.column_names == ["a", "b"]
        assert np.array_equal(t.x.view(np.uint64), x.view(np.uint64))
        assert np.array_equal(t.y.view(np.uint64), y.view(np.uint64))


class TestSplit:
    def test_even_partition(self):
        t = DataTable(np.arange(10.0)[:, None], np.arange(10.0))
        parts = split(t, SplitSpec((0.5, 0.5), seed=4))
        assert parts[0].n == 5 and parts[1].n == 5
        merged = np.sort(np.concatenate([parts[0].x[:, 0], parts[1].x[:, 0]]))
        assert np.array_equal(merged, np.arange(10.0))

    def test_sizes_with_remainders(self):
        t = DataTable(np.arange(8.0)[:, None], np.arange(8.0))
        parts = split(t, SplitSpec((0.5, 0.25, 0.25), seed=1))
        assert [p.n for p in parts] == [4, 2, 2]

    def test_deterministic(self):
        t = DataTable(np.arange(20.0)[:, None])
        a = split(t, SplitSpec((0.3, 0.7), seed=9))
        b = split(t, SplitSpec((0.3, 0.7), seed=9))
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.x, pb.x)

    def test_partition_multiset(self):
        rng = np.random.default_rng(0)
        t = DataTable(rng.normal(size=(23, 2)), rng.normal(size=23))
        parts = split(t, SplitSpec((0.4, 0.35, 0.25), seed=3))
        assert sum(p.n for p in parts) == 23
        merged = np.vstack([p.x for p in parts])
        assert np.array_equal(np.sort(merged[:, 0]), np.sort(t.x[:, 0]))


class TestResampling:
    def test_zero_tilt_is_uniform_bootstrap(self):
        # each row's draw frequency stays inside a generous binomial band
        n, draws_per_seed, seeds = 50, 50, 200
        t = DataTable(np.arange(float(n))[:, None])
        counts = np.zeros(n)
        for s in range(seeds):
            out = tilt_resample(t, np.zeros(1), draws_per_seed, derive_seed(11, s))
            idx = out.x[:, 0].astype(int)
            counts += np.bincount(idx, minlength=n)
        total = draws_per_seed * seeds
        expect = total / n
        sd = np.sqrt(total * (1 / n) * (1 - 1 / n))
        assert np.all(np.abs(counts - expect) <= 6 * sd)

    def test_strong_tilt_concentrates(self):
        x = np.concatenate([np.full(500, -1.0), np.full(500, 1.0)])[:, None]
        t = DataTable(x)
        out = tilt_resample(t, np.array([10.0]), 10000, seed=2)
        assert np.mean(out.x[:, 0] > 0) >= 0.99

    def test_five_dim_tilt_raises_last_coordinate(self):
        rng = np.random.default_rng(5)
        t = DataTable(rng.normal(size=(2000, 5)))
        beta = np.array([-1.0, 0.0, 0.0, 0.0, 1.0])
        out = tilt_resample(t, beta, 4000, seed=8)
        assert out.x[:, 4].mean() > t.x[:, 4].mean()
        assert out.x[:, 0].mean() < t.x[:, 0].mean()

    def test_linear_index_reads_a_scalar_as_a_length_one_vector(self):
        t = DataTable(np.arange(4.0)[:, None])
        assert np.array_equal(linear_index(t, 2.0), linear_index(t, [2.0]))
        assert np.array_equal(linear_index(t, 2.0), 2.0 * np.arange(4.0))
        with pytest.raises(DimensionMismatch):
            linear_index(t, [1.0, 2.0])

    def test_weighted_resample_validates(self):
        t = DataTable(np.arange(4.0)[:, None])
        with pytest.raises(ValueError):
            weighted_resample(t, np.zeros(4), 5, seed=0)

    @pytest.mark.parametrize("weights", [
        [1.0, np.nan, 1.0, 1.0], [1.0, np.inf, 1.0, 1.0], [np.inf, -np.inf, 1.0, 1.0],
        [1e308] * 10,
    ], ids=["nan", "inf", "inf_and_minus_inf", "sum_overflows"])
    def test_non_finite_weights_rejected(self, weights):
        # a NaN, an inf or an overflowing sum drew one row m times, silently
        t = DataTable(np.arange(float(len(weights)))[:, None])
        with pytest.raises(ConfigError, match="^weights: must be finite"):
            weighted_resample(t, weights, 5, seed=0)

    @pytest.mark.parametrize("beta", [[np.nan], [np.inf], [1e308]])
    def test_non_finite_tilt_rejected(self, beta):
        with pytest.raises(ConfigError, match="^beta: "):
            tilt_resample(DataTable(np.arange(4.0)[:, None]), beta, 5, seed=0)

    @pytest.mark.parametrize("call, name", [
        (lambda: weighted_resample(DataTable(np.ones((4, 1))), np.ones(4), 0, seed=0), "m"),
        (lambda: tilt_resample(DataTable(np.ones((4, 1))), [1.0], 2.5, seed=0), "m"),
        (lambda: gen_affine_gauss(0, 3, np.eye(2), np.zeros(2), 1), "n"),
        (lambda: gen_affine_gauss(2.5, 3, np.eye(2), np.zeros(2), 1), "n"),
        (lambda: gen_affine_gauss(3, 0, np.eye(2), np.zeros(2), 1), "n_target"),
    ], ids=["resample_m0", "tilt_m2.5", "affine_n0", "affine_n2.5", "affine_n_target0"])
    def test_sizes_follow_the_count_rule(self, call, name):
        # a size of 0 gave an empty table, and 2.5 failed in the stream as "size: ..."
        with pytest.raises(ConfigError, match=f"^{name}: must be an integer >= 1$"):
            call()

    def test_tilt_beyond_the_float_range_draws_the_top_row(self):
        # x @ beta is finite but spans more than the float range: far rows weigh 0
        out = tilt_resample(DataTable(np.array([[-1.0], [0.0], [1.0]])), [1e308], 20, seed=0)
        assert np.all(out.x[:, 0] == 1.0)

    def test_finite_weights_draw_as_before(self):
        # the draws rest on the cumulative sum of w / sum(w), bit for bit
        w = np.random.default_rng(3).uniform(0.0, 2.0, 50)
        t = DataTable(np.arange(50.0)[:, None])
        idx = Rng(9).choice_with_replacement(np.cumsum(w / w.sum()), 200)
        assert np.array_equal(weighted_resample(t, w, 200, seed=9).x[:, 0], idx)


class TestCheckNonnegative:
    def test_returns_a_float_vector(self):
        v = check_nonnegative("w", [[0, 2], [3, 1e308]], 4)
        assert v.dtype == np.float64 and np.array_equal(v, [0.0, 2.0, 3.0, 1e308])
        assert np.array_equal(check_nonnegative("w", np.zeros(0)), [])

    @pytest.mark.parametrize("v", [[1.0, -1e-300], [np.nan, 1.0], [np.inf, 1.0], [-np.inf]])
    def test_bad_entry_rejected(self, v):
        with pytest.raises(ConfigError, match="^w: must be finite and nonnegative$"):
            check_nonnegative("w", v)

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionMismatch, match="^w: 2 entries for 3 rows$"):
            check_nonnegative("w", [1.0, 2.0], 3)


class TestAffineShift:
    def test_identity(self):
        t = DataTable(np.arange(6.0).reshape(3, 2), np.arange(3.0))
        out = affine_shift(t, np.eye(2), np.zeros(2))
        assert np.array_equal(out.x, t.x)
        assert np.array_equal(out.y, t.y)

    def test_five_dim_diagonal_generator(self):
        a = np.diag([1.5, 1.2, 1.6, 2.0, 1.8])
        b = np.array([1.0, 0.0, 0.0, 1.0, 0.0])
        x = np.ones((2, 5))
        out = affine_shift(DataTable(x), a, b)
        assert np.allclose(out.x[0], [2.5, 1.2, 1.6, 3.0, 1.8])

    def test_doubling(self):
        out = affine_shift(DataTable(np.array([[1.0, 1.0]])), 2 * np.eye(2), np.zeros(2))
        assert np.allclose(out.x, [[2.0, 2.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            affine_shift(DataTable(np.ones((2, 2))), np.eye(3), np.zeros(3))


@pytest.mark.parametrize("n", [1, 3, 4, 9])
def test_affine_gauss_null_target_size_draws_a_quarter(n):
    # a null n_target draws max(n // 4, 1) target rows, byte for byte
    a, b = np.diag([1.5, 0.5]), np.array([1.0, -1.0])
    for got, want in zip(gen_affine_gauss(n, None, a, b, 5),
                         gen_affine_gauss(n, max(n // 4, 1), a, b, 5)):
        assert got.x.tobytes() == want.x.tobytes() and got.y.tobytes() == want.y.tobytes()


def test_affine_gauss_checks_the_source_size_before_the_default():
    with pytest.raises(ConfigError, match="^n: must be an integer >= 1$"):
        gen_affine_gauss(0, None, np.eye(2), np.zeros(2), 1)


class TestHeteroSim:
    def test_support(self):
        t = gen_hetero_sim(5000, seed=1)
        bound = np.sqrt(1.0 + 25.0 * t.x[:, 0] ** 4)
        assert np.all(np.abs(t.x[:, 0]) <= 1.0)
        assert np.all(np.abs(t.y) <= bound)

    def test_unit_scale_at_origin(self):
        t = gen_hetero_sim(50000, seed=2)
        near = np.abs(t.x[:, 0]) < 0.05
        assert np.all(np.abs(t.y[near]) <= np.sqrt(1.0 + 25.0 * 0.05 ** 4))

    def test_edge_bin_conditional_variance(self):
        # quadrature oracle: E[(1 + 25 x^4)/3] over x ~ Unif[0.95, 1]
        val, _ = integrate.quad(lambda x: (1 + 25 * x ** 4) / 3.0, 0.95, 1.0)
        exact = val / 0.05
        assert exact == pytest.approx(7.874, abs=1e-3)
        t = gen_hetero_sim(200000, seed=77)
        mask = t.x[:, 0] >= 0.95
        emp = float(np.var(t.y[mask], ddof=1))
        assert emp == pytest.approx(exact, abs=0.4)

    def test_uniform_marginal_ks(self):
        t = gen_hetero_sim(50000, seed=123)
        res = stats.kstest(t.x[:, 0], stats.uniform(loc=-1, scale=2).cdf)
        assert res.pvalue > 0.01

    def test_reproducible(self):
        a = gen_hetero_sim(100, seed=9)
        b = gen_hetero_sim(100, seed=9)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


class TestRng:
    def test_streams_bit_identical(self):
        a = Rng(42)
        b = Rng(42)
        assert [a.next_uint64() for _ in range(10)] == [b.next_uint64() for _ in range(10)]

    def test_derive_seed_changes_with_index(self):
        seeds = {derive_seed(7, i) for i in range(100)}
        assert len(seeds) == 100

    def test_permutation_is_permutation(self):
        perm = Rng(3).permutation(100)
        assert np.array_equal(np.sort(perm), np.arange(100))

    def test_normal_moments(self):
        z = Rng(5).normal(20000)
        assert abs(z.mean()) < 0.03
        assert abs(z.std() - 1.0) < 0.03
