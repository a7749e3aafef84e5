"""Kernel checks: least squares, logistic IRLS, weighted quantiles, and
check-loss quantile regression (fitted through its rank-score dual, checked
against the primal LP).

The property tests draw their cases deterministically, so the suite's
outcome does not depend on the run."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from piagg import numerics
from piagg.errors import DivergentFit, SingularDesign
from piagg.linprog import LinearProgram, solve_lp
from piagg.numerics import (
    _penalized_nll,
    left_quantiles,
    logistic_fit,
    ols_fit,
    quantile_reg_fit,
    sigmoid,
)


def check_loss(residuals, tau):
    r = np.asarray(residuals, dtype=np.float64)
    return float(np.sum(np.where(r >= 0, tau * r, (tau - 1.0) * r)))


def _primal_check_loss_optimum(x, y, tau):
    """Optimal check loss of the primal LP with split residual parts,
    solved through solve_lp: variables [beta, u, v] with u, v >= 0, the
    equalities X beta + u - v = y written as inequality pairs, and the
    objective tau * sum(u) + (1 - tau) * sum(v)."""
    xd = np.hstack([np.ones((len(y), 1)), x])
    n, p = xd.shape
    c = np.concatenate([np.zeros(p), np.full(n, tau), np.full(n, 1.0 - tau)])
    a_eq = np.hstack([xd, np.eye(n), -np.eye(n)])
    mask = np.concatenate([np.zeros(p, dtype=bool), np.ones(2 * n, dtype=bool)])
    sol = solve_lp(LinearProgram(c, np.vstack([a_eq, -a_eq]), np.concatenate([y, -y]), mask))
    assert sol.status == "optimal"
    return sol.objective_value


class TestOls:
    def test_exact_linear(self):
        x = np.linspace(0, 5, 20)[:, None]
        m = ols_fit(x, 2.0 * x[:, 0] + 1.0)
        assert np.allclose(m.coefficients, [1.0, 2.0], atol=1e-10)

    def test_constant_response(self):
        x = np.linspace(0, 5, 8)[:, None]
        m = ols_fit(x, np.full(8, 3.5))
        assert m.coefficients[0] == pytest.approx(3.5, abs=1e-10)
        assert m.coefficients[1] == pytest.approx(0.0, abs=1e-10)

    def test_matches_eigendecomposition_solve(self):
        # independent route: invert the normal equations through eigh
        rng = np.random.default_rng(12)
        x = rng.normal(size=(60, 3))
        y = rng.normal(size=60)
        m = ols_fit(x, y)
        xd = np.hstack([np.ones((60, 1)), x])
        g = xd.T @ xd
        vals, vecs = np.linalg.eigh(g)
        ref = vecs @ ((vecs.T @ (xd.T @ y)) / vals)
        assert np.max(np.abs(m.coefficients - ref)) <= 1e-8

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(50, 2))
        y = rng.normal(size=50)
        m = ols_fit(x, y)
        xd = np.hstack([np.ones((50, 1)), x])
        resid = y - xd @ m.coefficients
        assert np.max(np.abs(xd.T @ resid)) <= 1e-6 * 50

    def test_singular_design(self):
        x = np.ones((10, 2))  # duplicate of the intercept
        with pytest.raises(SingularDesign):
            ols_fit(x, np.arange(10.0))


class TestLogistic:
    def test_uninformative_covariates(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4000, 2))
        y = np.concatenate([np.zeros(2000), np.ones(2000)])
        m = logistic_fit(x, y)
        p = sigmoid(m.predict(x))
        assert np.max(np.abs(p - 0.5)) <= 0.05

    def test_gaussian_shift_recovers_bayes_rule(self):
        # log-odds of N(1,1) vs N(0,1) is x - 0.5
        rng = np.random.default_rng(42)
        x = np.concatenate([rng.normal(0, 1, 10000), rng.normal(1, 1, 10000)])[:, None]
        y = np.concatenate([np.zeros(10000), np.ones(10000)])
        m = logistic_fit(x, y)
        assert m.coefficients[1] == pytest.approx(1.0, abs=0.1)
        assert m.coefficients[0] == pytest.approx(-0.5, abs=0.1)
        assert m.converged

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            logistic_fit(np.arange(5.0)[:, None], np.ones(5))

    def test_separable_without_ridge(self):
        x = np.concatenate([np.linspace(-2, -0.1, 50), np.linspace(0.1, 2, 50)])[:, None]
        y = (x[:, 0] > 0).astype(float)
        with pytest.raises(DivergentFit):
            logistic_fit(x, y, ridge=0.0)

    def test_ridge_fixes_separable(self):
        x = np.concatenate([np.linspace(-2, -0.1, 50), np.linspace(0.1, 2, 50)])[:, None]
        y = (x[:, 0] > 0).astype(float)
        m = logistic_fit(x, y, ridge=1e-4)
        assert np.all(np.isfinite(m.coefficients))

    def test_singular_hessian_falls_back_to_least_squares(self):
        # without a ridge, a duplicated column makes every Hessian singular:
        # each Newton step comes from lstsq, and the fit still converges to
        # the one-column fit, its slope split between the two copies
        rng = np.random.default_rng(3)
        x = rng.normal(size=(200, 1))
        y = (rng.random(200) < sigmoid(x[:, 0])).astype(float)
        calls = []
        with mock.patch.object(np.linalg, "lstsq",
                               lambda *a, real=np.linalg.lstsq, **k: calls.append(1) or real(*a, **k)):
            m = logistic_fit(np.hstack([x, x]), y, ridge=0.0)
        assert calls and m.converged
        one = logistic_fit(x, y, ridge=0.0).coefficients
        assert m.coefficients[0] == pytest.approx(one[0], abs=1e-6)
        assert m.coefficients[1] + m.coefficients[2] == pytest.approx(one[1], abs=1e-6)

    def test_penalized_nll_monotone(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(300, 3))
        y = (x @ np.array([1.0, -0.5, 0.2]) + rng.normal(size=300) > 0).astype(float)
        # the fit is deterministic, so stopping it after i iterations
        # replays its first i steps
        xd = np.hstack([np.ones((x.shape[0], 1)), x])
        path = [_penalized_nll(xd, y, logistic_fit(x, y, ridge=1e-3, max_iter=i).coefficients,
                               1e-3) for i in range(30)]
        assert logistic_fit(x, y, ridge=1e-3, max_iter=29).converged
        assert path[-1] < path[0]
        assert np.all(np.diff(path) <= 1e-12)


def _quantile(values, weights, q):
    """The left-continuous weighted quantile, with no atom at +inf."""
    return left_quantiles(np.asarray(values, dtype=np.float64),
                          np.asarray(weights, dtype=np.float64), q, np.zeros(1))[0]


class TestWeightedQuantile:
    def test_equal_weights_median(self):
        assert _quantile([1, 2, 3, 4], [1, 1, 1, 1], 0.5) == 2.0

    def test_singleton(self):
        assert _quantile([7.5], [0.3], 0.99) == 7.5

    def test_cumulative_scan(self):
        assert _quantile([1, 5], [0.9, 0.1], 0.95) == 5.0

    def test_ties_merged(self):
        assert _quantile([2, 2, 1], [0.2, 0.4, 0.4], 0.5) == 2.0

    def test_matches_unweighted_rule(self):
        # same inf-convention computed without weights
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = rng.integers(1, 30)
            vals = rng.normal(size=n)
            q = rng.uniform(0, 1)
            got = _quantile(vals, np.ones(n), q)
            s = np.sort(vals)
            counts = np.arange(1.0, n + 1.0)
            idx = min(int(np.searchsorted(counts, q * float(n), side="left")), n - 1)
            assert got == s[idx]

    def test_atom_past_the_finite_mass_gives_inf(self):
        got = left_quantiles(np.array([2.0, 1.0]), np.ones(2), 0.9, np.array([0.0, 0.2, 100.0]))
        assert np.array_equal(got, [2.0, 2.0, np.inf])
        assert np.array_equal(left_quantiles(np.zeros(0), np.zeros(0), 0.5, np.ones(2)),
                              [np.inf, np.inf])


def _weighted_quantile_reference(values, weights, q):
    """The weighted quantile as computed before ``left_quantiles`` existed:
    a pairwise total and an index clamped to the last value."""
    v = np.asarray(values, dtype=np.float64).ravel()
    w = np.asarray(weights, dtype=np.float64).ravel()
    total = float(w.sum())
    order = np.argsort(v, kind="stable")
    v_sorted = v[order]
    cum = np.cumsum(w[order])
    idx = int(np.searchsorted(cum, q * total, side="left"))
    idx = min(idx, v_sorted.size - 1)
    return float(v_sorted[idx])


def _weighted_eta_reference(cal_scores, cal_weights, test_weights, level):
    """The weighted conformal score quantile with a +inf atom per test
    point, as the conformal baselines computed it on their own."""
    order = np.argsort(cal_scores, kind="stable")
    s_sorted = cal_scores[order]
    cum = np.cumsum(cal_weights[order])
    total_cal = float(cum[-1]) if cum.size else 0.0
    thresholds = level * (total_cal + test_weights)
    idx = np.searchsorted(cum, thresholds, side="left")
    eta = np.full(test_weights.shape[0], np.inf)
    finite = idx < s_sorted.size
    eta[finite] = s_sorted[idx[finite]]
    return eta


@st.composite
def _quantile_case(draw):
    """Rounded values (ties) with integer weights (zeros included), so
    every total is exact whatever the summation order."""
    n = draw(st.integers(0, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = np.round(rng.normal(size=n), draw(st.integers(0, 2)))
    weights = rng.integers(0, 4, n).astype(float)
    atoms = rng.integers(1, 3 * n + 2, draw(st.integers(1, 6))).astype(float)
    return values, weights, atoms


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=_quantile_case(), level=st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                                              st.floats(0.0, 1.0)))
def test_left_quantiles_matches_both_references(case, level):
    values, weights, atoms = case
    if weights.sum() > 0:
        expected = _weighted_quantile_reference(values, weights, level)
        assert np.array_equal(left_quantiles(values, weights, level, np.zeros(1)), [expected])
    assert np.array_equal(left_quantiles(values, weights, level, atoms),
                          _weighted_eta_reference(values, weights, atoms, level))


class TestQuantileReg:
    def test_constant_response(self):
        m = quantile_reg_fit(np.arange(6.0)[:, None], np.full(6, 3.25), 0.3)
        assert m.coefficients[0] == pytest.approx(3.25, abs=1e-9)
        assert m.coefficients[1] == pytest.approx(0.0, abs=1e-9)

    def test_three_point_grid_oracle(self):
        x = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0.0, 1.0, 4.0])
        m = quantile_reg_fit(x, y, 0.5)
        fitted = check_loss(y - m.coefficients[0] - m.coefficients[1] * x[:, 0], 0.5)
        b0, b1 = np.meshgrid(np.arange(-2, 2, 0.002), np.arange(-1, 5, 0.002))
        resid = y[None, None, :] - b0[..., None] - b1[..., None] * x[:, 0][None, None, :]
        losses = np.where(resid >= 0, 0.5 * resid, -0.5 * resid).sum(axis=2)
        grid_min = float(losses.min())
        assert fitted <= grid_min + 1e-9
        assert fitted >= grid_min - 0.02

    def test_uniform_noise_upper_quantile(self):
        # 0.9-quantile of Unif[0,1] noise shifts the line up by 0.9
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 10, 5000)
        y = x + rng.uniform(0, 1, 5000)
        m = quantile_reg_fit(x[:, None], y, 0.9)
        assert m.coefficients[0] == pytest.approx(0.9, abs=0.05)
        assert m.coefficients[1] == pytest.approx(1.0, abs=0.05)

    def test_objective_monotone_in_model_class(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(80, 1))
        y = x[:, 0] + rng.standard_t(3, size=80)
        extra = rng.normal(size=(80, 1))
        for tau in (0.25, 0.5, 0.8):
            m_small = quantile_reg_fit(x, y, tau)
            m_big = quantile_reg_fit(np.hstack([x, extra]), y, tau)
            loss_small = check_loss(y - m_small.predict(x), tau)
            loss_big = check_loss(y - m_big.predict(np.hstack([x, extra])), tau)
            assert loss_big <= loss_small + 1e-7

    def test_small_instance_matches_inhouse_simplex(self):
        # same objective through solve_lp on the primal LP
        rng = np.random.default_rng(21)
        for tau in (0.3, 0.5, 0.7):
            x = rng.normal(size=(7, 1))
            y = rng.normal(size=7)
            m = quantile_reg_fit(x, y, tau)
            fitted = check_loss(y - m.predict(x), tau)
            assert fitted == pytest.approx(_primal_check_loss_optimum(x, y, tau), abs=1e-8)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(n=st.integers(4, 40), d=st.integers(1, 3), tau=st.floats(0.05, 0.95),
           seed=st.integers(0, 2 ** 32 - 1), ties=st.booleans(), integer_n_tau=st.booleans())
    def test_property_reaches_primal_optimum(self, n, d, tau, seed, ties, integer_n_tau):
        assume(n >= d + 2)
        if integer_n_tau:
            # n * tau integral: the degenerate case with a non-unique optimum
            tau = min(max(round(n * tau), 1), n - 1) / n
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d))
        y = x @ rng.normal(size=d) + rng.standard_t(3, size=n)
        if ties:
            y = np.round(y)
        m = quantile_reg_fit(x, y, tau)
        fitted = check_loss(y - m.predict(x), tau)
        assert fitted == pytest.approx(_primal_check_loss_optimum(x, y, tau), rel=1e-8, abs=1e-12)


def _full_fit(x, y, tau):
    """The fit by one rank-score dual over every row."""
    with mock.patch.object(numerics, "_GLOB_ROWS", len(y)):
        return quantile_reg_fit(x, y, tau)


def _traced_fit(x, y, tau):
    """The fit, and the (rows, HiGHS status) of each rank-score dual it solved."""
    solves, solve = [], numerics._rank_score_dual

    def traced(xd, y, b_eq):
        res, beta = solve(xd, y, b_eq)
        solves.append((len(y), res.status))
        return res, beta

    with mock.patch.object(numerics, "_rank_score_dual", traced):
        return quantile_reg_fit(x, y, tau), solves


def _misleading_subsample(sub_y, n=6000):
    """Pure noise on [-1, 1] whose first globbing subsample (every n // m-th
    row of a 1-d design) follows ``sub_y(x)`` instead, so the residual ranks
    it gives are wrong."""
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, size=(n, 1))
    y = rng.normal(size=n)
    sub = slice(None, None, n // math.ceil(math.sqrt(2) * n ** (2 / 3)))
    y[sub] = sub_y(x[sub, 0])
    return x, y


class TestQuantileRegGlobbing:
    """Above ``_GLOB_ROWS`` rows the fit solves the rank-score dual on a
    band of rows around the tau-quantile, with the others fixed, and keeps
    the answer only when it is optimal for the full LP."""

    def _assert_full_optimum(self, x, y, tau, m):
        full = check_loss(y - _full_fit(x, y, tau).predict(x), tau)
        assert check_loss(y - m.predict(x), tau) == pytest.approx(full, rel=1e-12)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(above=st.booleans(), extra=st.integers(1, 2000), d=st.sampled_from([1, 5]),
           tau=st.floats(0.001, 0.02) | st.floats(0.02, 0.98) | st.floats(0.98, 0.999),
           seed=st.integers(0, 2 ** 32 - 1), responses=st.sampled_from(["t3", "ties", "levels"]))
    def test_property_reaches_the_full_optimum(self, above, extra, d, tau, seed, responses):
        n = numerics._GLOB_ROWS + extra if above else d + 1 + extra
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d))
        y = x @ rng.normal(size=d) + rng.standard_t(3, size=n)
        if responses == "ties":
            y = np.round(y)
        elif responses == "levels":  # three response values, each on about n/3 rows
            y = rng.integers(0, 3, size=n).astype(float)
        self._assert_full_optimum(x, y, tau, quantile_reg_fit(x, y, tau))

    def test_globbing_is_deterministic_and_solves_a_band(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(8000, 2))
        y = (x[:, 0] + rng.standard_t(3, size=8000)) ** 2
        m, solves = _traced_fit(x, y, 0.9)
        assert [rows < 8000 for rows, _ in solves] == [True, True]
        assert np.array_equal(quantile_reg_fit(x, y, 0.9).coefficients, m.coefficients)
        self._assert_full_optimum(x, y, 0.9, m)

    def test_band_that_fails_the_check_falls_back_to_the_full_solve(self):
        x, y = _misleading_subsample(lambda v: 10 * v ** 2)
        m, solves = _traced_fit(x, y, 0.7)
        n_sub = math.ceil(math.sqrt(2) * len(y) ** (2 / 3))
        # every (n // n_sub)-th row, one band of about 3 * n_sub rows, then every row
        assert [rows for rows, _ in solves] == [len(y) // (len(y) // n_sub), 3 * n_sub // 2 * 2,
                                                len(y)]
        assert all(status == 0 for _, status in solves)
        self._assert_full_optimum(x, y, 0.7, m)

    def test_infeasible_band_is_not_accepted(self):
        x, y = _misleading_subsample(lambda v: 5 * v)
        m, solves = _traced_fit(x, y, 0.3)
        assert [status for _, status in solves] == [0, 2, 0]  # HiGHS: 2 is infeasible
        assert solves[2][0] == len(y)
        self._assert_full_optimum(x, y, 0.3, m)
