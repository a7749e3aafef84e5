"""Candidate bank construction: mean models, residuals, and the five
candidate families."""

import json
import multiprocessing
import os
import pathlib
import subprocess
import sys
import threading
import time
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import piagg
from piagg import candidates
from piagg.candidates import (
    _EXP_CUT,
    CandidateBank,
    CandidateSpec,
    KernelVariance,
    KnnMean,
    _by_distance_block,
    _distinct_rows,
    _equal_weight_quantile_rows,
    _k_nearest,
    _KnnQuantile,
    _LinearQuantileSq,
    _window_knn_block,
    default_bank_specs,
    fit_candidate_set,
    fit_mean,
    residuals,
)
from piagg.dataset import DataTable, gen_hetero_sim
from piagg.errors import ConfigError, EmptyBin
from piagg.numerics import left_quantiles


class ZeroMean:
    def predict(self, x):
        return np.zeros(np.atleast_2d(x).shape[0])


def _labeled(rng, n=40, d=2):
    x = rng.normal(size=(n, d))
    y = x[:, 0] + 0.5 * rng.normal(size=n)
    return DataTable(x, y)


class TestFitMean:
    def test_ols_exact_recovery(self):
        x = np.linspace(0, 4, 30)[:, None]
        t = DataTable(x, 3.0 * x[:, 0] - 1.0)
        m = fit_mean(t, "ols")
        assert np.allclose(m.predict(x), t.y, atol=1e-10)

    def test_constant_response(self):
        t = DataTable(np.arange(10.0)[:, None], np.full(10, 2.5))
        m = fit_mean(t, "ols")
        assert np.allclose(m.predict(t.x), 2.5, atol=1e-10)

    def test_knn1_identity_on_training_point(self):
        rng = np.random.default_rng(0)
        t = _labeled(rng)
        m = fit_mean(t, "knn", k=1)
        assert np.allclose(m.predict(t.x[:5]), t.y[:5])


class TestResiduals:
    def test_exact_mean_gives_zero(self):
        x = np.linspace(0, 4, 15)[:, None]
        t = DataTable(x, 2.0 * x[:, 0])
        r = residuals(t, fit_mean(t, "ols"))
        assert np.max(r) <= 1e-18

    def test_constant_offset(self):
        t = DataTable(np.zeros((4, 1)), np.full(4, 3.0))
        r = residuals(t, ZeroMean())
        assert np.allclose(r, 9.0)

    def test_matches_loop(self):
        rng = np.random.default_rng(1)
        t = _labeled(rng)
        m = fit_mean(t, "ols")
        r = residuals(t, m)
        for i in range(t.n):
            expect = (t.y[i] - m.predict(t.x[i:i + 1])[0]) ** 2
            assert r[i] == pytest.approx(expect, rel=1e-12)


class TestBuildBank:
    def test_constant_one_columns(self):
        rng = np.random.default_rng(2)
        t = _labeled(rng)
        bank = fit_candidate_set(t, residuals(t, ZeroMean()), [CandidateSpec("constant_one")])
        assert np.array_equal(bank.evaluate(t.x), np.ones((t.n, 1)))
        assert np.array_equal(bank.evaluate(t.x[:7]), np.ones((7, 1)))

    def test_knn_all_neighbors_degenerates_to_global_quantile(self):
        rng = np.random.default_rng(3)
        t = _labeled(rng, n=60)
        r = residuals(t, ZeroMean())
        bank = fit_candidate_set(t, r, [CandidateSpec("knn_quantile", k=60, tau=0.7)])
        glob = left_quantiles(r, np.ones(60), 0.7, np.zeros(1))[0]
        assert np.allclose(bank.evaluate(t.x), glob)

    @pytest.mark.parametrize("bins", range(1, 9))
    def test_binned_values_are_weighted_quantiles(self, bins):
        rng = np.random.default_rng(20 + bins)
        t = _labeled(rng, n=150, d=1)
        r2 = np.round(residuals(t, ZeroMean()), 1)  # rounded: ties within bins
        for tau in (0.05, 0.25, 0.5, 0.7, 0.9, 0.99):
            cand = fit_candidate_set(t, r2, [CandidateSpec("binned_quantile", bins=bins,
                                                           tau=tau)]).fitted[0]
            member = np.searchsorted(cand.edges, t.x[:, 0], side="right")
            expected = [left_quantiles(r2[member == b], np.ones(np.sum(member == b)), tau,
                                       np.zeros(1))[0] for b in range(bins)]
            assert np.array_equal(cand.values, expected)

    def test_kernel_variance_recovers_second_moment_at_origin(self):
        # true E[Y^2 | x=0] = 1/3 for the heteroskedastic simulator
        t = gen_hetero_sim(20000, seed=3)
        bank = fit_candidate_set(t, residuals(t, ZeroMean()),
                                 [CandidateSpec("kernel_variance", bandwidth=0.1)])
        val = bank.evaluate(np.array([[0.0]]))[0, 0]
        assert 0.25 <= val <= 0.42

    def test_linear_quantile_clamped_nonnegative(self):
        rng = np.random.default_rng(4)
        t = _labeled(rng, n=80)
        bank = fit_candidate_set(t, residuals(t, ZeroMean()),
                                 [CandidateSpec("linear_quantile_sq", tau=0.5)])
        assert np.min(bank.evaluate(t.x)) >= 0.0
        assert np.min(bank.evaluate(rng.normal(size=(50, 2)) * 5)) >= 0.0

    def test_binned_quantile_empty_bin(self):
        x = np.zeros((6, 1))  # all mass in one spot: only one bin occupied
        t = DataTable(x, np.arange(6.0))
        with pytest.raises(EmptyBin):
            fit_candidate_set(t, residuals(t, ZeroMean()),
                              [CandidateSpec("binned_quantile", bins=3, tau=0.5)])


class TestBankInvariants:
    def test_all_entries_nonnegative(self):
        t = gen_hetero_sim(400, seed=5)
        bank = fit_candidate_set(t, residuals(t, fit_mean(t, "ols")), default_bank_specs())
        assert np.min(bank.evaluate(t.x)) >= 0.0
        assert np.min(bank.evaluate(t.x[:100])) >= 0.0

    def test_knn_quantile_monotone_in_tau(self):
        rng = np.random.default_rng(6)
        t = _labeled(rng, n=100)
        r = residuals(t, ZeroMean())
        eval_x = rng.normal(size=(40, 2))
        lo = fit_candidate_set(t, r, [CandidateSpec("knn_quantile", k=15, tau=0.3)])
        hi = fit_candidate_set(t, r, [CandidateSpec("knn_quantile", k=15, tau=0.8)])
        assert np.all(lo.evaluate(eval_x) <= hi.evaluate(eval_x))

    def test_training_permutation_invariance(self):
        rng = np.random.default_rng(7)
        t = _labeled(rng, n=70)
        r = residuals(t, ZeroMean())
        perm = rng.permutation(70)
        t_perm = DataTable(t.x[perm], t.y[perm])
        r_perm = residuals(t_perm, ZeroMean())
        eval_x = rng.normal(size=(25, 2))
        specs = [CandidateSpec("knn_quantile", k=9, tau=0.6),
                 CandidateSpec("kernel_variance", bandwidth=0.7),
                 CandidateSpec("binned_quantile", bins=4, tau=0.5),
                 CandidateSpec("constant_one")]
        a = fit_candidate_set(t, r, specs).evaluate(eval_x)
        b = fit_candidate_set(t_perm, r_perm, specs).evaluate(eval_x)
        assert np.allclose(a, b, atol=1e-10)


@pytest.mark.parametrize("d", [1, 3, 5])
def test_blocked_evaluation_matches_row_by_row(d):
    # the distance blocks are sized from the training block; evaluating
    # all rows in one call must agree bit for bit with one row per call
    rng = np.random.default_rng(30 + d)
    train = _labeled(rng, n=700, d=d)
    specs = [CandidateSpec("knn_quantile", k=15, tau=0.9), CandidateSpec("kernel_variance")]
    bank = fit_candidate_set(train, residuals(train, fit_mean(train)), specs)
    knn_mean = fit_mean(train, "knn", k=9)
    x = rng.normal(size=(400, d))
    rows = [slice(i, i + 1) for i in range(x.shape[0])]
    for f in [cand.evaluate for cand in bank.fitted] + [knn_mean.predict]:
        assert np.array_equal(f(x), np.concatenate([f(x[r]) for r in rows]))


def test_fitted_kernel_needs_a_bandwidth():
    # None stands for the normal-reference rule in a spec, but a fitted
    # smoother has no rule to fall back on
    with pytest.raises(ConfigError, match=r"^bandwidth: "):
        KernelVariance(np.zeros((3, 1)), np.ones(3), None)


def test_spec_validation():
    with pytest.raises(ValueError):
        CandidateSpec("knn_quantile", k=0, tau=0.5)
    with pytest.raises(ValueError):
        CandidateSpec("linear_quantile_sq", tau=1.5)
    with pytest.raises(ValueError):
        CandidateSpec("mystery")


@pytest.mark.parametrize("kind, params", [
    ("constant_one", {"k": 5}),
    ("kernel_variance", {"tau": 0.9}),
    ("knn_quantile", {"k": 5, "tau": 0.9, "bins": 3}),
    ("linear_quantile_sq", {"tau": 0.9, "bandwidth": 0.1}),
    ("binned_quantile", {"bins": 3, "tau": 0.9, "k": 2.5}),
])
def test_spec_refuses_a_parameter_its_kind_does_not_use(kind, params):
    # an unused value would be ignored by the fit and still written into the model document
    unused = list(params)[-1]
    with pytest.raises(ConfigError, match=rf"^{unused}: not a parameter of {kind}$"):
        CandidateSpec(kind, **params)


def _knn_quantile_brute(cand, x):
    """The brute-force block rule, nearest by (d², index), one row per call."""
    def one(row):
        return _by_distance_block(row, cand.train_x, [lambda d2: _equal_weight_quantile_rows(
            cand.r2[_k_nearest(d2, cand.k)[0]], cand.tau)])[:, 0]
    return np.concatenate([one(x[i:i + 1]) for i in range(x.shape[0])])


@st.composite
def _knn_1d_case(draw):
    n = draw(st.integers(1, 400))
    k = draw(st.one_of(st.integers(1, n), st.sampled_from([n, (n + 1) // 2, max(1, n // 2)])))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    decimals = draw(st.sampled_from([None, 0, 1, 2]))
    duplicated = draw(st.booleans())
    rng = np.random.default_rng(seed)
    train_x = rng.normal(size=n)
    if duplicated:  # whole runs of repeated training x
        train_x = np.repeat(train_x[:(n + 2) // 3], 3)[:n]
    # evaluation rows inside, on and well outside the training range; a
    # non-finite row stops at CandidateBank.evaluate's row check
    x = np.concatenate([rng.normal(scale=2.0, size=draw(st.integers(1, 40))),
                        rng.choice(train_x, size=3), [train_x.min() - 5, train_x.max() + 5]])
    if decimals is not None:  # rounding makes heavy distance ties
        train_x, x = np.round(train_x, decimals), np.round(x, decimals)
    r2 = rng.exponential(size=n)
    return _KnnQuantile(train_x[:, None], r2, k, draw(st.floats(0.01, 0.99))), x[:, None]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_knn_1d_case())
def test_property_knn_window_matches_brute(case):
    # the 1-d sorted-window search against the brute block, row by row
    cand, x = case
    assert np.array_equal(cand.evaluate(x), _knn_quantile_brute(cand, x))


@pytest.mark.parametrize("decimals", [None, 1])
def test_knn_window_batch_prefix(decimals):
    # W = 2k + 2 = 402 columns gives 81-row blocks, so the batch spans several
    # blocks and every prefix must give the same bits as the whole batch
    rng = np.random.default_rng(40)
    train_x = rng.uniform(-1, 1, size=(500, 1))
    x = rng.uniform(-1.2, 1.2, size=(300, 1))
    if decimals is not None:
        train_x, x = np.round(train_x, decimals), np.round(x, decimals)
    cand = _KnnQuantile(train_x, rng.exponential(size=500), 200, 0.9)
    whole = cand.evaluate(x)
    for stop in (1, 80, 81, 82, 200):
        assert np.array_equal(cand.evaluate(x[:stop]), whole[:stop])


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_knn_window_edge_tie_at_rounded_distance(sign):
    # 1 - 2⁻⁵³, 1 and 1 + 2⁻⁵² are distinct, yet all lie at d² = 4.0 from -1;
    # with k = 1 the 4-row window ends at 1, and the row beyond that edge
    # ties with it and, holding the lowest index, is the nearest
    train_x = sign * np.array([1 + 2.0 ** -52, 1.0, 1 - 2.0 ** -53, -10.0, -20.0])
    cand = _KnnQuantile(train_x[:, None], np.arange(1.0, 6.0), 1, 0.5)
    x = np.array([[-sign]])
    assert cand.evaluate(x)[0] == _knn_quantile_brute(cand, x)[0] == 1.0


def test_knn_blocked_pass_takes_only_unproven_rows(monkeypatch):
    # the 1-d window proves continuous rows, so no blocked pass runs; a tie at
    # a window edge sends exactly its rows there; d > 1 goes there directly
    calls = []

    def spy(x, *args, real=candidates._by_distance_block):
        calls.append(x.copy())
        return real(x, *args)

    monkeypatch.setattr(candidates, "_by_distance_block", spy)
    rng = np.random.default_rng(29)
    cand = _KnnQuantile(rng.normal(size=(937, 1)), rng.exponential(size=937), 50, 0.9)
    cand.evaluate(rng.normal(size=(368, 1)))
    assert calls == []
    train_x = np.array([1 + 2.0 ** -52, 1.0, 1 - 2.0 ** -53, -10.0, -20.0])
    cand = _KnnQuantile(train_x[:, None], np.arange(1.0, 6.0), 1, 0.5)
    x = np.array([[-15.0], [-1.0], [3.0], [-1.0]])
    _, proven = _window_knn_block(x[:, 0], np.argsort(train_x, kind="stable"),
                                  np.sort(train_x, kind="stable"), 1)
    assert proven.tolist() == [True, False, True, False]
    assert np.array_equal(cand.evaluate(x), _knn_quantile_brute(cand, x))
    assert len(calls) == 1 and np.array_equal(calls.pop(), x[~proven])
    x5 = rng.normal(size=(7, 5))
    _KnnQuantile(rng.normal(size=(30, 5)), np.ones(30), 3, 0.5).evaluate(x5)
    assert len(calls) == 1 and np.array_equal(calls[0], x5)


@pytest.mark.parametrize("d", [1, 5])
def test_knn_quantile_with_k_spanning_the_rows_is_the_global_quantile(d):
    # at k >= n every row's neighbours are all of D1, in whatever order, so
    # each row gets the tau-quantile of all squared residuals
    rng = np.random.default_rng(41 + d)
    t = _labeled(rng, n=73, d=d)
    r2 = residuals(t, ZeroMean())
    x = np.vstack([rng.normal(scale=2.0, size=(40, d)), t.x[:5], np.full((1, d), -1e100)])
    expected = np.quantile(r2, 0.9, method="inverted_cdf")
    for k in (73, 10 ** 6):
        bank = fit_candidate_set(t, r2, [CandidateSpec("knn_quantile", k=k, tau=0.9)])
        assert np.array_equal(bank.evaluate(x)[:, 0], np.full(x.shape[0], expected))


@pytest.mark.parametrize("k", [1, 2, 3, 7, 20])
def test_knn_window_proves_every_row_on_a_grid(k):
    # evenly spaced rows, queries between, on and beyond them: the k nearest
    # lie within k rows on either side, so the window of k + 1 rows a side
    # proves every row, symmetric distance ties included
    grid = np.arange(40.0)
    queries = np.concatenate([np.arange(-3.0, 43.0, 0.25), grid])
    _, proven = _window_knn_block(queries, np.arange(40), grid, k)
    assert proven.all()


def _smooth_as_before(cand, d2):
    """The kernel's row function before the exp cut and the chunked dots."""
    logk = -0.5 * d2 / cand.bandwidth ** 2
    logk -= logk.max(axis=1, keepdims=True)
    w = np.exp(logk)
    return np.vecdot(w, cand.r2) / w.sum(axis=1)


@st.composite
def _kernel_case(draw):
    d = draw(st.sampled_from([1, 3]))
    n = draw(st.one_of(st.integers(1, 10_000), st.sampled_from([1, 2, 9_999, 10_000])))
    bandwidth = draw(st.floats(0.005, 2.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    train_x = rng.normal(size=(n, d))
    # rows inside the training cloud, on training rows, and far outside it,
    # where nearly every weight of the row underflows
    x = np.concatenate([rng.normal(size=(draw(st.integers(1, 20)), d)),
                        train_x[rng.integers(0, n, size=2)],
                        rng.normal(size=(3, d)) * draw(st.sampled_from([10.0, 1e3, 1e6]))])
    return KernelVariance(train_x, rng.exponential(size=n), bandwidth), x


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_kernel_case())
def test_property_kernel_matches_plain_exp(case):
    cand, x = case
    expected = _by_distance_block(x, cand.train_x, [lambda d2: _smooth_as_before(cand, d2)])
    assert np.array_equal(cand.evaluate(x), expected[:, 0])


@pytest.mark.filterwarnings("ignore:overflow encountered in square:RuntimeWarning")
@pytest.mark.parametrize("d", [1, 2])
def test_kernel_row_at_infinite_distance_gets_zero_weight(d):
    # d2 overflows to inf for the far training row, so its log-weight is
    # -inf while the row's largest is finite: exp(-inf) = 0 as before
    train_x = np.zeros((3, d))
    train_x[1] = 1e200
    cand = KernelVariance(train_x, np.array([2.0, 5.0, 4.0]), 0.5)
    value = cand.evaluate(np.zeros((1, d)))
    assert value[0] == 3.0
    assert np.array_equal(value, _smooth_as_before(cand, np.array([[0.0, np.inf, 0.0]])))


def test_exp_is_zero_at_and_below_the_cut():
    # both the vector loop and the scalar call of np.exp
    for size in (1, 3, 64):
        below = np.full(size, _EXP_CUT)
        assert np.all(np.exp(below) == 0.0)
        assert np.all(np.exp(np.nextafter(below, -np.inf)) == 0.0)
        assert np.all(np.exp(np.full(size, -1e4)) == 0.0)
        assert np.all(np.exp(np.full(size, -745.1332)) > 0.0)
    assert np.exp(np.float64(_EXP_CUT)) == 0.0 < np.exp(np.float64(-745.1332))


def test_kernel_bits_do_not_depend_on_blas_threads(tmp_path):
    # 12 000 training rows: a single BLAS dot of that length runs on several
    # threads, whose partial sums depend on the thread count
    script = """
import sys
import numpy as np
from piagg.candidates import KernelVariance
rng = np.random.default_rng(5)
train_x = rng.normal(size=(12_000, 2))
cand = KernelVariance(train_x, rng.exponential(size=12_000), 0.3)
np.save(sys.argv[1], cand.evaluate(rng.normal(size=(60, 2))))
"""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(pathlib.Path(piagg.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", script, str(tmp_path / "one.npy")], env=env,
                   check=True)
    subprocess.run([sys.executable, "-c", script, str(tmp_path / "default.npy")], check=True,
                   env=dict(os.environ, PYTHONPATH=env["PYTHONPATH"]))
    rng = np.random.default_rng(5)
    train_x = rng.normal(size=(12_000, 2))
    cand = KernelVariance(train_x, rng.exponential(size=12_000), 0.3)
    here = cand.evaluate(rng.normal(size=(60, 2)))
    assert here.tobytes() == np.load(tmp_path / "one.npy").tobytes()
    assert here.tobytes() == np.load(tmp_path / "default.npy").tobytes()


def _distance_bank(rng, d=3, n=300):
    train = _labeled(rng, n=n, d=d)
    specs = [CandidateSpec("kernel_variance"), CandidateSpec("constant_one"),
             CandidateSpec("knn_quantile", k=12, tau=0.9),
             CandidateSpec("kernel_variance", bandwidth=0.05),
             CandidateSpec("knn_quantile", k=300, tau=0.5),
             CandidateSpec("linear_quantile_sq", tau=0.9)]
    return fit_candidate_set(train, residuals(train, fit_mean(train)), specs)


def _other_rows(bank, rng):
    """A bank whose distance candidates hold two different training blocks."""
    fitted = list(bank.fitted)
    kv, knn = fitted[0], fitted[2]
    shifted = kv.train_x + rng.normal(scale=0.1, size=kv.train_x.shape)
    fitted[0] = KernelVariance(shifted, kv.r2, kv.bandwidth)
    fitted[2] = _KnnQuantile(shifted[:200], knn.r2[:200], knn.k, knn.tau)
    return CandidateBank(bank.specs, fitted)


@pytest.mark.parametrize("which", ["fitted", "loaded", "signed_zero", "different_train_x"])
def test_bank_shared_pass_matches_each_candidate(which, monkeypatch):
    rng = np.random.default_rng(50)
    bank = _distance_bank(rng)
    passes = {"fitted": 1, "loaded": 1, "signed_zero": 2, "different_train_x": 3}[which]
    if which in ("loaded", "signed_zero"):
        # every distance candidate's first row starts at 0.0, or at -0.0 in the
        # first kernel: passes are shared by the rows' bytes, so it takes its own
        state = json.loads(json.dumps(bank.to_state()))
        for slot in (0, 2, 3, 4):  # the kernels and the kNN candidates
            state["state"][slot]["train_x"][0][0] = 0.0
        if which == "signed_zero":
            state["state"][0]["train_x"][0][0] = -0.0
        bank = CandidateBank.from_state(state)
        assert bank.fitted[0].train_x is not bank.fitted[2].train_x
    elif which == "different_train_x":
        bank = _other_rows(bank, rng)
    x = rng.normal(size=(40, 3))  # one distance block per training block
    calls = []
    real_cdist = candidates.cdist
    monkeypatch.setattr(candidates, "cdist",
                        lambda *a, **k: calls.append(1) or real_cdist(*a, **k))
    together = bank.evaluate(x)
    assert len(calls) == passes
    assert np.array_equal(together, np.column_stack([c.evaluate(x) for c in bank.fitted]))


@st.composite
def _knn_selection_case(draw):
    n = draw(st.integers(1, 60))
    k = draw(st.one_of(st.integers(1, n), st.sampled_from([1, n])))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):  # an integer grid: many rows at equal distances
        train_x = rng.integers(-4, 5, size=n).astype(float)
    else:
        train_x = rng.normal(size=n)
    if draw(st.booleans()):  # whole runs of repeated training values
        train_x = np.repeat(train_x[:(n + 2) // 3], 3)[:n]
    # half-integer queries sit midway between grid rows, a tie on each side
    x0 = np.concatenate([rng.integers(-12, 13, size=draw(st.integers(1, 15))) / 2.0,
                         rng.choice(train_x, size=3), rng.normal(scale=3.0, size=5)])
    return train_x, x0, k


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_knn_selection_case())
def test_property_k_nearest_matches_stable_argsort(case):
    # both kNN selections against the (d², index) order of a stable sort: the
    # same k nearest rows, in that order where the k-th place splits a tie;
    # the brute one both by column number and by a given (reversed) index
    train_x, x0, k = case
    n = train_x.shape[0]
    d2 = (x0[:, None] - train_x[None, :]) ** 2
    order = np.argsort(train_x, kind="stable")
    brute, kth = _k_nearest(d2, k)
    reverse = _k_nearest(d2, k, np.arange(n)[::-1])[0]
    window, proven = _window_knn_block(x0, order, train_x[order], k)
    for i in range(x0.shape[0]):
        ref = np.argsort(d2[i], kind="stable")[:k]
        ref_reverse = n - 1 - np.argsort(d2[i, ::-1], kind="stable")[:k]
        assert kth[i] == d2[i, ref[-1]]
        assert np.array_equal(np.sort(brute[i]), np.sort(ref))
        assert np.array_equal(np.sort(reverse[i]), np.sort(ref_reverse))
        if proven[i]:
            assert np.array_equal(np.sort(window[i]), np.sort(ref))
        if np.count_nonzero(d2[i] <= d2[i, ref[-1]]) > k:
            assert np.array_equal(brute[i], ref)
            assert np.array_equal(reverse[i], ref_reverse)
    assert proven.all() or k < n


def _assert_repeats_exact(f, x, idx):
    """``f(x[idx])``, ``idx`` with repeats, has the bytes of ``f`` with each
    repeat evaluated again, of the gather ``f(x)[idx]`` and of one row per
    call. Bytes tell -0.0 from 0.0; ``array_equal`` does not."""
    got = f(x[idx])
    with mock.patch.object(candidates, "_distinct_rows", lambda rows: (rows, None)):
        assert got.tobytes() == f(x[idx]).tobytes()
    assert got.tobytes() == f(x)[idx].tobytes()
    assert got.tobytes() == np.concatenate([f(x[i:i + 1]) for i in idx]).tobytes()


_BY_DISTANCE = (_KnnQuantile, KernelVariance)  # the candidates with a ``_from_d2``


@lru_cache(maxsize=None)
def _default_bank(d, loaded):
    """A fitted default bank on 300 rows (or that bank saved and loaded),
    a kNN mean on the same rows, and the training table."""
    train = _labeled(np.random.default_rng(60 + d), n=300, d=d)
    bank = fit_candidate_set(train, residuals(train, fit_mean(train)), None)
    if loaded:
        bank = CandidateBank.from_state(bank.to_state())
    return bank, fit_mean(train, "knn", k=9), train


@settings(max_examples=60, deadline=None, derandomize=True)
@given(d=st.sampled_from([1, 5]), loaded=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
       m=st.integers(1, 12), draws=st.integers(1, 40))
def test_property_repeated_rows_are_evaluated_exactly(d, loaded, seed, m, draws):
    # a resampled target repeats rows, and the distance candidates and the kNN
    # mean evaluate each distinct row once
    bank, knn_mean, train = _default_bank(d, loaded)
    rng = np.random.default_rng(seed)
    # fresh rows, training rows (a distance tie at zero) and both signed zeros
    x = np.vstack([rng.normal(size=(m, d)), train.x[rng.integers(0, train.n, 3)],
                   np.zeros((1, d)), np.full((1, d), -0.0)])
    idx = rng.integers(0, x.shape[0], draws)
    by_distance = [c.evaluate for c in bank.fitted if isinstance(c, _BY_DISTANCE)]
    for f in [bank.evaluate, knn_mean.predict] + by_distance:
        _assert_repeats_exact(f, x, idx)


def test_signed_zero_rows_stay_apart():
    # rows are keyed by their bytes, so 0.0 and -0.0 are two rows; np.unique
    # of the float column would merge them
    x = np.array([[0.0], [-0.0], [0.5]])
    rows, inverse = _distinct_rows(x[[0, 1, 0, 1, 2]])
    assert rows.shape == (3, 1) and rows[inverse].tobytes() == x[[0, 1, 0, 1, 2]].tobytes()
    # a -0.0 in a later column alone makes a row distinct
    assert _distinct_rows(np.array([[0.0, 0.0], [0.0, -0.0]]))[1] is None
    train = _labeled(np.random.default_rng(61), n=50, d=1)
    specs = [CandidateSpec("kernel_variance"), CandidateSpec("knn_quantile", k=5, tau=0.9)]
    bank = fit_candidate_set(train, residuals(train, fit_mean(train)), specs)
    bank = CandidateBank(specs + [CandidateSpec("linear_quantile_sq", tau=0.9)],
                         bank.fitted + [_LinearQuantileSq([0.0, 1.0], 0.9)])
    _assert_repeats_exact(bank.evaluate, x, [0, 1, 2, 1, 0, 1])


@pytest.mark.parametrize("d", [1, 5])
def test_each_distinct_row_reaches_the_distance_pass_once(d, monkeypatch):
    rng = np.random.default_rng(62)
    train = _labeled(rng, n=200, d=d)
    bank = fit_candidate_set(train, residuals(train, fit_mean(train)), [
        CandidateSpec("kernel_variance"), CandidateSpec("knn_quantile", k=7, tau=0.9)])
    knn_mean = fit_mean(train, "knn", k=9)
    x = rng.normal(size=(30, d))[rng.permutation(np.repeat(np.arange(30), 4))]
    seen = {}
    for cls in (KernelVariance, _KnnQuantile, KnnMean):
        def spy(self, d2, real=cls._from_d2):
            seen[type(self)] = seen.get(type(self), 0) + d2.shape[0]
            return real(self, d2)
        monkeypatch.setattr(cls, "_from_d2", spy)

    def window_spy(x0, *args, real=candidates._window_knn_block):
        seen["window"] = seen.get("window", 0) + x0.shape[0]
        return real(x0, *args)

    monkeypatch.setattr(candidates, "_window_knn_block", window_spy)
    bank.evaluate(x)
    # in 1-d the kNN quantile's sorted window proves every row here
    assert seen == ({KernelVariance: 30, "window": 30} if d == 1
                    else {KernelVariance: 30, _KnnQuantile: 30})
    seen.clear()
    bank.fitted[0].evaluate(x)
    knn_mean.predict(x)
    assert seen == {KernelVariance: 30, KnnMean: 30}


def _two_kernel_bank(d, loaded):
    """A bank of two kernels around a kNN quantile on 300 rows (or that bank
    saved and loaded), and the rows to evaluate it at."""
    rng = np.random.default_rng(64 + d)
    train = _labeled(rng, n=300, d=d)
    bank = fit_candidate_set(train, residuals(train, fit_mean(train)), [
        CandidateSpec("kernel_variance", bandwidth=0.3),
        CandidateSpec("knn_quantile", k=7, tau=0.9), CandidateSpec("kernel_variance")])
    if loaded:
        bank = CandidateBank.from_state(bank.to_state())
    return bank, rng.normal(size=(50, d))


@pytest.mark.parametrize("loaded", [False, True], ids=["fitted", "loaded"])
@pytest.mark.parametrize("d", [1, 5])
def test_only_the_last_function_of_a_pass_may_write_its_d2(d, loaded, monkeypatch):
    bank, x = _two_kernel_bank(d, loaded)
    seen = []
    for cls in _BY_DISTANCE:
        def spy(self, d2, real=cls._from_d2):
            seen.append(([c is self for c in bank.fitted].index(True), d2.flags.writeable))
            return real(self, d2)
        monkeypatch.setattr(cls, "_from_d2", spy)
    bank.evaluate(x)
    # one block of 50 rows; in 1-d the kNN quantile's sorted window proves every row
    assert seen == ([(0, False), (2, True)] if d == 1 else [(0, False), (1, False), (2, True)])
    with pytest.raises(ValueError, match="read-only"):
        _by_distance_block(x, bank.fitted[0].train_x, [lambda d2: np.negative(d2, out=d2)[:, 0], np.min])


@pytest.mark.parametrize("loaded", [False, True], ids=["fitted", "loaded"])
def test_1d_kernels_share_one_distance_pass(loaded, monkeypatch):
    bank, x = _two_kernel_bank(1, loaded)
    passes = []

    def spy(rows, train_x, row_fns, real=candidates._by_distance_block):
        passes.append([type(f.__self__) for f in row_fns])
        return real(rows, train_x, row_fns)

    monkeypatch.setattr(candidates, "_by_distance_block", spy)
    got = bank.evaluate(x)
    assert [p for p in passes if KernelVariance in p] == [[KernelVariance, KernelVariance]]
    for j in (0, 2):
        assert got[:, j].tobytes() == bank.fitted[j].evaluate(x).tobytes()


@pytest.mark.parametrize("distance", [True, False], ids=["default_bank", "no_distance"])
@pytest.mark.parametrize("d", [1, 5])
def test_bank_finds_the_distinct_rows_once(d, distance, monkeypatch):
    # the bank finds the distinct rows once for all of its candidates; a
    # distance pass's own check after it sees distinct rows only
    bank, _, train = _default_bank(d, False)
    if not distance:
        keep = [j for j, c in enumerate(bank.fitted) if not isinstance(c, _BY_DISTANCE)]
        bank = CandidateBank([bank.specs[j] for j in keep], [bank.fitted[j] for j in keep])
    rng = np.random.default_rng(63)
    x = np.vstack([rng.normal(size=(40, d)), train.x[:5]])[rng.integers(0, 45, 200)]
    calls = []

    def spy(rows, real=candidates._distinct_rows):
        out = real(rows)
        calls.append((rows.shape[0], out[1] is not None))
        return out

    monkeypatch.setattr(candidates, "_distinct_rows", spy)
    got = bank.evaluate(x)
    assert calls[0] == (200, True)
    if distance:
        assert all(n <= np.unique(x, axis=0).shape[0] and not found for n, found in calls[1:])
    else:
        assert len(calls) == 1
    monkeypatch.undo()
    rows = np.concatenate([bank.evaluate(x[i:i + 1]) for i in range(x.shape[0])])
    assert got.tobytes() == rows.tobytes()


@pytest.mark.parametrize("d", [1, 5])
def test_empty_input_passes_through(d):
    bank, knn_mean, _ = _default_bank(d, False)
    x = np.empty((0, d))
    assert bank.evaluate(x).shape == (0, len(bank.specs))
    assert knn_mean.predict(x).shape == (0,)
    kernel = bank.fitted[5]
    assert _by_distance_block(x, kernel.train_x, [kernel._from_d2]).shape == (0, 1)
    assert _distinct_rows(x)[1] is None


def _serial_and_threaded(f, x, workers):
    """``f(x)`` with the distance passes on the caller alone, and with
    ``workers`` threads; the bytes must agree."""
    with mock.patch.object(candidates, "_WORKERS", 1):
        serial = f(x)
    with mock.patch.object(candidates, "_WORKERS", workers):
        threaded = f(x)
    assert threaded.tobytes() == serial.tobytes()


def _rows_near_the_split(rng, workers, step, above):
    """A row count whose blocks of ``step`` rows fall one short of two per
    worker, or reach it: the split runs only in the second case."""
    return (2 * workers - 2 + above) * step + int(rng.integers(1, step + 1))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(d=st.sampled_from([1, 5]), loaded=st.booleans(), workers=st.integers(2, 4),
       above=st.integers(0, 1), seed=st.integers(0, 2 ** 32 - 1))
def test_property_threaded_distance_pass_is_bit_identical(d, loaded, workers, above, seed):
    bank, knn_mean, train = _default_bank(d, loaded)
    rng = np.random.default_rng(seed)
    with mock.patch.object(candidates, "_ENTRIES", 2 ** 15):  # a few thousand rows, not 4x that
        m = _rows_near_the_split(rng, workers, candidates._ENTRIES // train.n, above)
        # m distinct rows (three of them training rows), then repeats of them
        x = np.vstack([rng.normal(size=(m - 3, d)), train.x[:3]])
        x = x[rng.permutation(np.concatenate([np.arange(m), rng.integers(0, m, m // 4)]))]
        for f in (bank.evaluate, knn_mean.predict, bank.fitted[5].evaluate):
            _serial_and_threaded(f, x, workers)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(workers=st.integers(2, 4), above=st.integers(0, 1), seed=st.integers(0, 2 ** 32 - 1))
def test_property_threaded_knn_window_with_edge_ties_is_bit_identical(workers, above, seed):
    # rounded rows tie at window edges, so the brute fallback runs after the
    # threaded window loop
    rng = np.random.default_rng(seed)
    train_x = np.round(rng.uniform(-1, 1, size=500), 1)
    cand = _KnnQuantile(train_x[:, None], rng.exponential(size=500), 30, 0.9)
    m = _rows_near_the_split(rng, workers, candidates._ENTRIES // 4 // (2 * 30 + 2), above)
    x = np.round(rng.uniform(-1.2, 1.2, size=m), 1)
    order = np.argsort(train_x, kind="stable")
    assert not _window_knn_block(x, order, train_x[order], 30)[1].all()
    _serial_and_threaded(cand.evaluate, x[:, None], workers)


def test_stress_more_workers_than_cores_with_short_switch_interval():
    # four workers on any machine, and a thread switch every microsecond: a
    # share that wrote outside its rows, or a lost write, would change bytes
    bank, knn_mean, train = _default_bank(5, False)
    x = np.random.default_rng(74).normal(size=(20 * candidates._ENTRIES // train.n, 5))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            _serial_and_threaded(bank.evaluate, x, 4)
            _serial_and_threaded(knn_mean.predict, x, 4)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("d", [1, 5])
def test_a_result_outlives_the_reused_d2_buffer(d):
    # every pass writes its distances into its thread's one buffer, which no
    # returned array may share
    bank, knn_mean, _ = _default_bank(d, False)
    rng = np.random.default_rng(80 + d)
    x1, x2 = rng.normal(size=(500, d)), rng.normal(size=(700, d))
    for f in (bank.evaluate, knn_mean.predict, bank.fitted[5].evaluate):
        first = f(x1)
        f(x2)
        assert first.tobytes() == f(x1).tobytes()


def test_each_thread_keeps_one_d2_buffer_per_pass(monkeypatch):
    # the blocks a thread runs in one pass are views of one buffer, and two
    # threads never share one
    bank, _, train = _default_bank(5, False)
    seen = set()

    def spy(self, d2, real=KernelVariance._from_d2):
        seen.add((threading.get_ident(), id(d2.base)))  # buffers live until the pass ends
        return real(self, d2)

    monkeypatch.setattr(KernelVariance, "_from_d2", spy)
    monkeypatch.setattr(candidates, "_WORKERS", 2)
    bank.evaluate(np.random.default_rng(81).normal(size=(8 * candidates._ENTRIES // train.n, 5)))
    assert len(seen) == 2 and len({t for t, _ in seen}) == len({b for _, b in seen}) == 2


def _threads_of_blocks(monkeypatch, workers, n_rows):
    """The thread of each block of a 1-d kernel pass over ``n_rows`` rows
    with 64 rows a block, by the block's first row value."""
    rng = np.random.default_rng(71)
    cand = KernelVariance(rng.normal(size=(candidates._ENTRIES // 64, 1)),
                          rng.exponential(size=candidates._ENTRIES // 64), 0.3)
    seen = []

    def spy(self, d2, real=KernelVariance._from_d2):
        seen.append(threading.get_ident())
        return real(self, d2)

    monkeypatch.setattr(KernelVariance, "_from_d2", spy)
    monkeypatch.setattr(candidates, "_WORKERS", workers)
    cand.evaluate(np.arange(float(n_rows))[:, None])
    return seen


@pytest.mark.parametrize("workers", [2, 3])
def test_split_starts_at_two_blocks_per_worker(monkeypatch, workers):
    below = _threads_of_blocks(monkeypatch, workers, (2 * workers - 1) * 64)
    assert len(below) == 2 * workers - 1 and set(below) == {threading.get_ident()}
    at = _threads_of_blocks(monkeypatch, workers, 2 * workers * 64)
    # the caller runs the first share, two blocks; the pool the others
    assert len(at) == 2 * workers and at.count(threading.get_ident()) == 2
    assert len(set(at)) > 1


def test_caller_error_waits_for_every_share(monkeypatch):
    done = []

    def block(rows):
        if rows.start == 0:
            raise FloatingPointError("first share")
        time.sleep(0.05)
        done.append(rows.start)

    monkeypatch.setattr(candidates, "_WORKERS", 2)
    with pytest.raises(FloatingPointError, match="first share"):
        candidates._in_shares(4, 1, block)
    assert sorted(done) == [2, 3]


def test_errstate_holds_on_the_worker_shares(monkeypatch):
    # the last row, whose squared distance over -2h² overflows, falls in the
    # pool's share
    rng = np.random.default_rng(72)
    cand = KernelVariance(rng.normal(size=(candidates._ENTRIES // 64, 1)),
                          rng.exponential(size=candidates._ENTRIES // 64), 1e-5)
    x = np.append(rng.normal(size=255), 1e150)[:, None]
    monkeypatch.setattr(candidates, "_WORKERS", 2)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        cand.evaluate(x)


def _evaluate_in_child(conn, bank, x):
    conn.send(bank.evaluate(x).tobytes())
    conn.close()


@pytest.mark.filterwarnings("ignore:.*use of fork\\(\\) may lead to deadlocks:DeprecationWarning")
def test_forked_child_evaluates_after_the_parent_used_the_pool(monkeypatch):
    bank, _, train = _default_bank(5, False)
    x = np.random.default_rng(73).normal(size=(2000, 5))
    monkeypatch.setattr(candidates, "_WORKERS", 2)
    expected = bank.evaluate(x).tobytes()
    assert os.getpid() in candidates._POOLS
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_evaluate_in_child, args=(send, bank, x))
    child.start()
    send.close()
    try:
        assert receive.poll(60), "the forked child did not answer within 60 s"
        assert receive.recv() == expected
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0


def test_import_starts_no_thread():
    script = "import threading, piagg; print(threading.active_count())"
    out = subprocess.run([sys.executable, "-c", script], check=True, capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=str(
                             pathlib.Path(piagg.__file__).parents[1])))
    assert out.stdout.strip() == "1"
