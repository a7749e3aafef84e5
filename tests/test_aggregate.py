"""Shape estimation, shrinkage, prediction, and model serialization."""

import json
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from piagg import aggregate
from piagg.aggregate import (
    MODE_SOURCE,
    IntervalBatch,
    PiModel,
    ShapeModel,
    ShrinkResult,
    _Blocks,
    _lift,
    _scan_thresholds,
    _violates,
    diagnose,
    fit_covariate_shift,
    fit_shape_cov_shift,
    fit_shape_source,
    fit_transport,
    hinge_constraint_value,
    load_model,
    model_from_dict,
    model_to_dict,
    predict_interval,
    save_model,
    shrink_cov_shift,
    shrink_source,
)
from piagg.bench import coverage_and_width
from piagg.candidates import CandidateSpec, fit_candidate_set, fit_mean, residuals
from piagg.conformal import KernelScale, fit_wqc, fit_wvac, predict_wqc, predict_wvac
from piagg.dataset import (
    DataTable,
    SplitSpec,
    affine_shift,
    gen_affine_gauss,
    gen_hetero_sim,
    split,
    tilt_resample,
    weighted_resample,
)
from piagg.densratio import eval_ratio, fit_density_ratio
from piagg.errors import (
    ConfigError,
    DimensionMismatch,
    EmptyInput,
    NonFiniteInput,
    PiaggError,
    ShapeInfeasible,
    ShrinkExceedsOneWarning,
    ShrinkUnbounded,
)
from piagg.linprog import OPTIMAL, LinearProgram, solve_lp
from piagg.numerics import LinearModel, logistic_fit, ols_fit, quantile_reg_fit
from piagg.rng import Rng, derive_seed
from piagg.transport import AffineMap, apply_map, fit_affine_transport, marginal_ks

DATA = Path(__file__).parent / "data"


class ZeroMean:
    def predict(self, x):
        return np.zeros(np.atleast_2d(x).shape[0])


class TestShapeCovShift:
    def test_constant_bank_covers_max_residual(self):
        r2 = [1.0, 4.0, 0.25, 2.0, 3.5]
        shape = fit_shape_cov_shift(np.ones((5, 1)), r2, np.ones(5), np.ones((3, 1)))
        assert shape.alpha[0] == pytest.approx(4.0, abs=1e-9)

    def test_hinge_zero_budget_adds_delta(self):
        r2 = [1.0, 2.0, 0.5, 1.5]
        shape = fit_shape_cov_shift(np.ones((4, 1)), r2, np.ones(4), np.ones((2, 1)),
                                    mode="hinge", delta=0.3, epsilon=0.0)
        assert shape.alpha[0] == pytest.approx(2.3, abs=1e-8)

    def test_support_threshold_drops_rows(self):
        w = np.array([1.0, 0.0, 1.0])
        shape = fit_shape_cov_shift(np.ones((3, 1)), [1.0, 50.0, 2.0], w, np.ones((2, 1)),
                                    support_threshold=0.0)
        assert shape.alpha[0] == pytest.approx(2.0, abs=1e-9)

    def test_two_candidate_grid_oracle(self):
        # grid search along the coverage boundary; the cheapest feasible
        # alpha2 for each alpha1 is closed-form and the profile is convex
        rng = np.random.default_rng(5)
        for _ in range(25):
            phi_s = rng.uniform(0.1, 1.0, size=(3, 2))
            phi_t = rng.uniform(0.1, 1.0, size=(2, 2))
            r2 = rng.uniform(0.0, 1.0, size=3)
            shape = fit_shape_cov_shift(phi_s, r2, np.ones(3), phi_t)
            c = phi_t.mean(axis=0)

            def profile(a1):
                need = (r2[None, :] - a1[:, None] * phi_s[:, 0][None, :])
                a2 = np.clip((need / phi_s[:, 1][None, :]).max(axis=1), 0.0, None)
                return c[0] * a1 + c[1] * a2

            lo, hi, best = 0.0, 20.0, np.inf
            for _stage in range(12):
                a1 = np.linspace(lo, hi, 2001)
                vals = profile(a1)
                k = int(np.argmin(vals))
                best = min(best, float(vals[k]))
                step = (hi - lo) / 2000
                lo, hi = max(a1[k] - 2 * step, 0.0), a1[k] + 2 * step
            assert shape.objective_value == pytest.approx(best, abs=1e-6)

    def test_strong_duality(self):
        # the covering optimum equals the optimum of its dual
        # max r2@y s.t. phi.T@y <= obj, y >= 0
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(3, 60))
            k = int(rng.integers(1, 5))
            phi = rng.uniform(0.0, 1.0, size=(n, k))
            phi[:, 0] = 1.0
            r2 = rng.uniform(0, 3, size=n)
            obj = rng.uniform(0.05, 1.0, size=k)
            shape = fit_shape_cov_shift(phi, r2, np.ones(n), obj[None, :])
            dual = solve_lp(LinearProgram(-r2, phi.T, obj, np.ones(n, dtype=bool)))
            assert dual.status == OPTIMAL
            assert shape.objective_value == pytest.approx(-dual.objective_value, abs=1e-7)

    def test_infeasible_without_usable_candidates(self):
        covering = "^no nonnegative combination covers every constrained row$"
        with pytest.raises(ShapeInfeasible, match=covering):
            fit_shape_cov_shift(np.zeros((2, 1)), [1.0, 2.0], np.ones(2), np.ones((2, 1)))
        with pytest.raises(ShapeInfeasible, match=covering):
            fit_shape_source(np.zeros((2, 1)), [1.0, 2.0])
        # a zero candidate leaves every slack at (r2 + delta) / delta, far
        # past a budget of 2 * 0.01
        with pytest.raises(ShapeInfeasible,
                           match="^hinge budget cannot be met by any candidate combination$"):
            fit_shape_cov_shift(np.zeros((2, 1)), [1.0, 2.0], np.ones(2), np.ones((2, 1)),
                                mode="hinge", delta=0.1, epsilon=0.01)

    def test_hinge_constraint_transfers(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = 25
            phi = np.column_stack([np.ones(n), rng.uniform(0, 1, n)])
            r2 = rng.uniform(0, 2, n)
            w = rng.uniform(0.2, 2.0, n)
            shape = fit_shape_cov_shift(phi, r2, w, rng.uniform(0.1, 1, size=(4, 2)),
                                        mode="hinge", delta=0.2, epsilon=0.05)
            assert hinge_constraint_value(shape, phi, r2, w) <= 0.05 + 1e-9

    def test_hinge_defaults_equal_the_explicit_values(self):
        # None stands for delta = max(0.1 * q_0.9(r2), 1e-12), 1e-12 with no
        # rows, and for epsilon = 0.01
        rng = np.random.default_rng(8)
        phi = np.column_stack([np.ones(60), rng.uniform(0, 1, 60)])
        r2, w, phi_t = rng.exponential(size=60), rng.uniform(0.2, 2, 60), rng.uniform(size=(9, 2))
        delta = max(0.1 * float(np.quantile(r2, 0.9)), 1e-12)
        implicit = fit_shape_cov_shift(phi, r2, w, phi_t, mode="hinge")
        explicit = fit_shape_cov_shift(phi, r2, w, phi_t, mode="hinge", delta=delta, epsilon=0.01)
        assert implicit.alpha.tobytes() == explicit.alpha.tobytes()
        assert (implicit.delta, implicit.epsilon) == (delta, 0.01)
        assert implicit.objective_value == explicit.objective_value
        no_rows = fit_shape_cov_shift(np.ones((0, 1)), [], [], np.ones((2, 1)), mode="hinge")
        assert no_rows.delta == 1e-12


@pytest.mark.parametrize("fit", [
    lambda phi, r2, w: fit_shape_cov_shift(phi, r2, w, phi),
    lambda phi, r2, w: fit_shape_source(phi, r2),
    lambda phi, r2, w: hinge_constraint_value(
        ShapeModel(np.ones(1), "cov_shift_hinge", delta=0.1), phi, r2, w),
    lambda phi, r2, w: fit_candidate_set(DataTable(phi, np.zeros(phi.shape[0])), r2, None),
], ids=["cov_shift", "source", "hinge_value", "candidate_set"])
@pytest.mark.parametrize("r2, error", [
    ([1.0, 2.0, 0.5], DimensionMismatch),
    ([1.0, -0.5, 2.0, 0.5], ConfigError),
    ([1.0, np.nan, 2.0, 0.5], ConfigError),
    ([1.0, 2.0, np.inf, 0.5], ConfigError),
    ([-np.inf, 2.0, 1.0, 0.5], ConfigError),
], ids=["misaligned", "negative", "nan", "inf", "minus_inf"])
def test_shape_inputs_checked(fit, r2, error):
    # a NaN or inf r2 once reached the LP solver, and came back as SciPy's
    # bare ValueError or as "LP data must be finite"; it raises the
    # ConfigError of a bad weight
    with pytest.raises(error, match="^r2:"):
        fit(np.ones((4, 1)), r2, np.ones(4))


class TestShapeSource:
    def test_constant_bank(self):
        shape = fit_shape_source(np.ones((4, 1)), [0.5, 3.0, 1.0, 2.0])
        assert shape.alpha[0] == pytest.approx(3.0, abs=1e-9)

    def test_zero_residuals_zero_weights(self):
        shape = fit_shape_source(np.ones((4, 1)), np.zeros(4))
        assert shape.alpha[0] == pytest.approx(0.0, abs=1e-12)
        assert shape.objective_value == pytest.approx(0.0, abs=1e-12)

    def test_coverage_dominance(self):
        rng = np.random.default_rng(8)
        phi = np.column_stack([np.ones(30), rng.uniform(0, 1, 30)])
        r2 = rng.uniform(0, 2, 30)
        shape = fit_shape_source(phi, r2)
        assert np.all(phi @ shape.alpha >= r2 - 1e-7)

    def test_width_monotone_in_bank(self):
        rng = np.random.default_rng(9)
        phi_small = np.column_stack([np.ones(20), rng.uniform(0, 1, 20)])
        extra = rng.uniform(0, 1, size=(20, 2))
        phi_big = np.hstack([phi_small, extra])
        r2 = rng.uniform(0, 2, 20)
        obj_small = fit_shape_source(phi_small, r2)
        obj_big = fit_shape_source(phi_big, r2)
        assert obj_big.objective_value <= obj_small.objective_value + 1e-9


class TestShrinkCovShift:
    def test_zero_residuals(self):
        r = shrink_cov_shift(np.ones(3), np.zeros(3), np.ones(3), 0.1)
        assert r.lambda_hat == 0.0

    def test_one_violation_allowed(self):
        r = shrink_cov_shift(np.ones(3), np.array([1.0, 4.0, 9.0]), np.ones(3), 0.34)
        assert r.lambda_hat == 4.0
        assert r.achieved_violation == pytest.approx(1 / 3)

    def test_budget_above_total_mass(self):
        w = np.array([0.2, 0.3, 0.1])
        r = shrink_cov_shift(np.ones(3), np.array([1.0, 2.0, 3.0]), w,
                             alpha_level=0.25)
        assert r.lambda_hat == 0.0

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(10)
        f = rng.uniform(0.1, 2, 40)
        r2 = rng.uniform(0, 4, 40)
        w = rng.uniform(0, 2, 40)
        lams = [shrink_cov_shift(f, r2, w, a).lambda_hat
                for a in np.linspace(0.01, 0.99, 25)]
        assert np.all(np.diff(lams) <= 1e-15)

    def test_minimality(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 25))
            f = rng.uniform(0.1, 2, n)
            r2 = rng.uniform(0, 4, n)
            w = rng.uniform(0.1, 2, n)
            a = float(rng.uniform(0.05, 0.9))
            res = shrink_cov_shift(f, r2, w, a)
            assert res.achieved_violation <= a + 1e-12
            if res.lambda_hat > 0:
                lam_below = res.lambda_hat * (1 - 1e-9)
                viol = float(np.mean(w * (r2 > lam_below * f)))
                assert viol > a

    def test_unbounded_when_shape_vanishes(self):
        f = np.array([0.0, 1.0, 1.0])
        r2 = np.array([2.0, 0.1, 0.2])
        with pytest.raises(ShrinkUnbounded):
            shrink_cov_shift(f, r2, np.ones(3), alpha_level=0.2, floor=0.0)

    def test_floor_rescues_vanishing_shape(self):
        f = np.array([0.0, 1.0, 1.0])
        r2 = np.array([2.0, 0.1, 0.2])
        res = shrink_cov_shift(f, r2, np.ones(3), alpha_level=0.2, floor=1e-6)
        assert np.isfinite(res.lambda_hat)


def _scan_thresholds_loop(thresholds, weights, permanent_mass, n, alpha_level):
    """Reference scan: one searchsorted per candidate multiplier."""
    t_sorted = np.sort(thresholds, kind="stable")
    w_sorted = weights[np.argsort(thresholds, kind="stable")]
    total = float(w_sorted.sum())
    cum = np.cumsum(w_sorted) if w_sorted.size else np.zeros(0)

    def mass_above(value):
        pos = int(np.searchsorted(t_sorted, value, side="right"))
        return total if pos == 0 else total - float(cum[pos - 1])

    uniq = np.unique(t_sorted)
    candidates = np.concatenate([[0.0], uniq[uniq > 0.0]])
    violations = (permanent_mass + np.array([mass_above(c) for c in candidates])) / n
    feasible = violations <= alpha_level
    if not np.any(feasible):
        raise ShrinkUnbounded("reference scan found no feasible multiplier")
    idx = int(np.argmax(feasible))
    return float(candidates[idx]), float(violations[idx])


def test_scan_thresholds_matches_loop_bit_for_bit():
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(0, 40))
        # rounded thresholds give ties and exact zeros
        t = np.round(rng.uniform(0, 3, n), int(rng.integers(0, 3)))
        w = rng.uniform(0, 2, n)
        permanent = float(rng.choice([0.0, 0.0, rng.uniform(0, 2)]))
        n_all = n + int(rng.integers(1, 4))
        a = float(rng.uniform(0.01, 0.9))
        try:
            ref = _scan_thresholds_loop(t, w, permanent, n_all, a)
        except ShrinkUnbounded:
            with pytest.raises(ShrinkUnbounded):
                _scan_thresholds(t, w, permanent, n_all, a)
            continue
        assert _scan_thresholds(t, w, permanent, n_all, a) == ref


class TestShrinkSource:
    def test_zero_residuals(self):
        assert shrink_source(np.zeros(3), np.zeros(3), 0.1, 0.5).lambda_hat == 0.0

    def test_infimum_at_tie(self):
        r = shrink_source(np.full(4, 0.5), np.array([1.0, 1.0, 1.0, 100.0]),
                          0.25, 0.5)
        assert r.lambda_hat == 1.0
        assert r.achieved_violation == pytest.approx(0.25)

    def test_alpha_one(self):
        # the level lies in (0, 1), as in every fit; a budget that holds the
        # four rows with a positive residual already gives zero
        with pytest.raises(ConfigError, match="^alpha_level: "):
            shrink_source(np.ones(5), np.arange(5.0), 1.0, 0.1)
        assert shrink_source(np.ones(5), np.arange(5.0), 0.8, 0.1).lambda_hat == 0.0

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(12)
        f = rng.uniform(0, 2, 30)
        r2 = rng.uniform(0, 4, 30)
        lams = [shrink_source(f, r2, a, 0.05).lambda_hat
                for a in np.linspace(0.01, 0.99, 25)]
        assert np.all(np.diff(lams) <= 1e-15)


# dyadic shape values keep r2 / f and lam * f exact, so the violation can be
# counted straight from its definition and compared with the scan exactly
_DYADIC = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0]


@st.composite
def _shrink_case(draw):
    """Shape values, residuals with ties and zeros, and integer weights."""
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    f = rng.choice(_DYADIC, size=n)
    r2 = np.round(rng.uniform(0.0, 4.0, n), draw(st.integers(0, 2)))
    return f, r2, rng.integers(0, 4, n).astype(float)


def _violation(r2, scale, w, lam, strict):
    """Weighted share of rows with r2 > lam * scale, or >= when not strict."""
    hit = r2 > lam * scale if strict else r2 >= lam * scale
    return float(np.sum(w * hit)) / r2.size


def _neighbours(values, lam):
    """The largest of ``values`` below lam and the smallest above it."""
    below, above = values[values < lam], values[values > lam]
    return (below.max() if below.size else None), (above.min() if above.size else None)


class TestShrinkProperties:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=_shrink_case(), alpha=st.floats(0.01, 0.99), floor=st.sampled_from([0.0, 0.25]))
    def test_property_cov_shift_minimal(self, case, alpha, floor):
        # strict rule: the budget holds at lam_hat and fails at the next-lower
        # multiplier where the violation can change
        f, r2, w = case
        scale = np.maximum(f, floor)
        try:
            res = shrink_cov_shift(f, r2, w, alpha, floor=floor)
        except ShrinkUnbounded:
            assert float(np.sum(w * ((scale == 0) & (r2 > 0)))) / r2.size > alpha
            return
        lam = res.lambda_hat
        candidates = np.concatenate([[0.0], r2[scale > 0] / scale[scale > 0]])
        assert lam in candidates
        assert res.achieved_violation == _violation(r2, scale, w, lam, True) <= alpha
        below, _ = _neighbours(candidates, lam)
        if below is not None:
            assert _violation(r2, scale, w, below, True) > alpha

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=_shrink_case(), alpha=st.floats(0.01, 0.99), delta=st.sampled_from([0.25, 1.0]))
    def test_property_source_minimal(self, case, alpha, delta):
        # non-strict rule, whose infimum need not be attained: the budget
        # holds just above lam_hat and fails just below it
        denom, r2, _ = case
        f = denom - delta  # exact, so f + delta gives denom back
        try:
            res = shrink_source(f, r2, alpha, delta)
        except ShrinkUnbounded:
            assert np.count_nonzero(denom == 0) / r2.size > alpha
            return
        lam, ones = res.lambda_hat, np.ones(r2.size)
        candidates = np.concatenate([[0.0], r2[denom > 0] / denom[denom > 0]])
        assert lam in candidates
        below, above = _neighbours(candidates, lam)
        just_above = (lam + above) / 2 if above is not None else 2 * lam + 1
        assert res.achieved_violation == _violation(r2, denom, ones, just_above, False) <= alpha
        if below is not None:
            assert _violation(r2, denom, ones, (below + lam) / 2, False) > alpha

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=_shrink_case(), a=st.floats(0.01, 0.99), b=st.floats(0.01, 0.99),
           delta=st.sampled_from([0.25, 1.0]))
    def test_property_lambda_monotone_in_alpha(self, case, a, b, delta):
        f, r2, w = case
        low, high = sorted((a, b))
        for rule in (lambda level: shrink_cov_shift(f, r2, w, level),
                     lambda level: shrink_source(f, r2, level, delta)):
            try:
                lam_high = rule(high).lambda_hat
            except ShrinkUnbounded:
                with pytest.raises(ShrinkUnbounded):
                    rule(low)
                continue
            try:
                assert rule(low).lambda_hat >= lam_high
            except ShrinkUnbounded:
                pass


@pytest.fixture(scope="module")
def fitted_models():
    src = gen_hetero_sim(600, seed=23)
    tx = src.x[:150] * 0.8 + 0.1
    return {"alg1": fit_covariate_shift(src, tx, 0.1, seed=3),
            "alg1_hinge": fit_covariate_shift(src, tx, 0.1, seed=3, mode="hinge"),
            "alg2": fit_transport(src, tx, 0.1, seed=3)}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(method=st.sampled_from(["alg1", "alg1_hinge", "alg2"]), seed=st.integers(0, 2 ** 16),
       lams=st.lists(st.floats(0.0, 50.0), min_size=2, max_size=2))
def test_property_interval_invariants(fitted_models, method, seed, lams):
    # lower <= center <= upper everywhere, and a larger shrink level never
    # narrows an interval
    m = fitted_models[method]
    x = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(60, 1))
    narrow, wide = (predict_interval(replace(m, shrink=ShrinkResult(lam, 0.0, lam > 1)), x)
                    for lam in sorted(lams))
    for b in (narrow, wide):
        assert np.all(b.lower <= b.center) and np.all(b.center <= b.upper)
    assert np.all(narrow.width <= wide.width)


def _lift_two_branch(f, source, floor, alg2_delta):
    """The scale as two formulas, picked by the shape's mode."""
    return f + alg2_delta if source else np.maximum(f, floor)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(method=st.sampled_from(["alg1", "alg1_hinge", "alg2"]), seed=st.integers(0, 2 ** 16))
def test_property_one_lift_matches_two_branches(fitted_models, method, seed):
    m = fitted_models[method]
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, size=(60, 1))
    # the fitted shape at x, plus a vanishing and a sub-floor value
    f = np.concatenate([m.bank.evaluate(x) @ m.shape.alpha, [0.0, m.floor / 2]])
    source = m.shape.mode == MODE_SOURCE
    scale = _lift(f, m.floor, m.alg2_delta)
    assert np.array_equal(scale, _lift_two_branch(f, source, m.floor, m.alg2_delta))
    # the violation rule keyed on alg2_delta is the one keyed on the mode, at
    # residuals on the bound (ties) and on either side of it
    bound = m.shrink.lambda_hat * scale
    r2 = np.concatenate([bound, rng.uniform(0.0, 2.0, bound.size) * bound])
    bound = np.concatenate([bound, bound])
    assert np.array_equal(_violates(r2, bound, m.alg2_delta),
                          r2 >= bound if source else r2 > bound)


@pytest.mark.parametrize("alpha, alg2_delta, holdout", [(2.0, 0.0, 0.25), (1.5, 0.5, 0.5)],
                         ids=["alg1_strict", "alg2_non_strict"])
def test_model_tail_keys_the_violation_rule_on_alg2_delta(alpha, alg2_delta, holdout):
    # a constant-one bank and f + alg2_delta = 2 exactly: the D22 residual
    # 1.0 lies on the bound lam_hat * scale = 0.5 * 2, which only the
    # non-strict rule of Alg. 2 (alg2_delta > 0) counts as a violation; both
    # cases share a shape mode, so alg2_delta alone picks the rule; the tail
    # evaluates the bank on D22's rows itself
    bank = fit_candidate_set(DataTable(np.zeros((3, 1)), np.zeros(3)), np.zeros(3),
                             [CandidateSpec("constant_one")])
    empty = np.zeros((0, 1))
    b = _Blocks(ZeroMean(), bank, empty, empty, empty, np.zeros(0),
                np.zeros((4, 1)), np.array([1.0, 0.25, 0.0, 3.0]))
    seen, result = [], ShrinkResult(0.5, 0.25, False)
    m = b.model(ShapeModel(np.array([alpha]), MODE_SOURCE), "adapter", 0.1, 0.0, alg2_delta,
                lambda f22: seen.append(f22) or result)
    assert np.array_equal(seen[0], np.full(4, alpha))
    assert m.shrink is result and m.holdout_violation == holdout
    assert (m.alg2_delta, m.floor, m.adapter, m.alpha_level) == (alg2_delta, 0.0, "adapter", 0.1)
    assert m.bank is bank and isinstance(m.mean_model, ZeroMean)


def test_predict_does_not_read_the_shape_mode(fitted_models):
    x = np.linspace(-2.0, 2.0, 41)[:, None]
    for m in fitted_models.values():
        other = "cov_shift_exact" if m.shape.mode == MODE_SOURCE else MODE_SOURCE
        relabeled = replace(m, shape=replace(m.shape, mode=other))
        assert np.array_equal(predict_interval(relabeled, x).upper, predict_interval(m, x).upper)


def _tiny_model(alpha, lam, alg2=False):
    bank = fit_candidate_set(DataTable(np.zeros((3, 1)), np.zeros(3)), np.zeros(3),
                             [CandidateSpec("constant_one")])
    mode = "source_exact" if alg2 else "cov_shift_exact"
    shape = ShapeModel(np.array([alpha]), mode)
    shrink = ShrinkResult(lam, 0.0, lam > 1.0)
    return PiModel(shape, bank, ZeroMean(), shrink, 0.05, None,
                   alg2_delta=0.0, floor=0.0, holdout_violation=0.0)


class TestPredict:
    def test_zero_shrink_degenerates(self):
        m = _tiny_model(alpha=9.0, lam=0.0)
        batch = predict_interval(m, np.linspace(-1, 1, 5)[:, None])
        assert np.array_equal(batch.lower, batch.upper)

    def test_constant_shape_interval(self):
        m = _tiny_model(alpha=9.0, lam=1.0)
        batch = predict_interval(m, np.zeros((4, 1)))
        assert np.allclose(batch.lower, -3.0)
        assert np.allclose(batch.upper, 3.0)

    def test_identity_transport_equals_no_shift(self):
        src = gen_hetero_sim(800, seed=4)
        x_new = np.linspace(-1, 1, 123)[:, None]
        m_id = fit_transport(src, None, 0.1, transport_map=AffineMap.identity(1), seed=2)
        m_none = fit_transport(src, None, 0.1, seed=2)
        b1 = predict_interval(m_id, x_new)
        b2 = predict_interval(m_none, x_new)
        assert np.max(np.abs(b1.lower - b2.lower)) <= 1e-9
        assert np.max(np.abs(b1.upper - b2.upper)) <= 1e-9


class TestNonFiniteCovariates:
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_predict_rejects(self, bad):
        x = np.zeros((4, 1))
        x[2, 0] = bad
        with pytest.raises(NonFiniteInput, match="^x:"):
            predict_interval(_tiny_model(alpha=9.0, lam=1.0), x)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("fit", [fit_covariate_shift, fit_transport],
                             ids=["alg1", "alg2"])
    def test_fit_rejects_target(self, fit, bad):
        src = gen_hetero_sim(300, seed=19)
        target_x = src.x[:50].copy()
        target_x[7, 0] = bad
        with pytest.raises(NonFiniteInput, match="^target_x:"):
            fit(src, target_x, 0.1)


@pytest.fixture(scope="module")
def predictors():
    """Every predict path in 1-d and in 5-d, each with its covariate dimension."""
    src1 = gen_hetero_sim(600, seed=29)
    tx1 = src1.x[:150] * 0.8 + 0.1
    src5, target5 = gen_affine_gauss(600, 200, np.diag([1.5, 1.2, 1.6, 2.0, 1.8]),
                                     np.array([1.0, 0.0, 0.0, 1.0, 0.0]), 5)
    out = {}
    for d, src, tx in ((1, src1, tx1), (5, src5, target5.x)):
        alg1 = fit_covariate_shift(src, tx, 0.1, seed=3)
        alg2 = fit_transport(src, tx, 0.1, seed=3)
        train1, cal = split(src, SplitSpec((0.5, 0.5), 4))
        ratio = fit_density_ratio(train1.x, tx)
        wvac, wqc = fit_wvac(train1, cal, ratio), fit_wqc(train1, cal, ratio, 0.1)
        out.update({f"alg1_{d}d": (d, lambda x, m=alg1: predict_interval(m, x)),
                    f"alg2_{d}d": (d, lambda x, m=alg2: predict_interval(m, x)),
                    f"wvac_{d}d": (d, lambda x, m=wvac: predict_wvac(m, x, 0.1)),
                    f"wqc_{d}d": (d, lambda x, m=wqc: predict_wqc(m, x, 0.1))})
    return out


_PREDICTORS = [f"{name}_{d}d" for d in (1, 5) for name in ("alg1", "alg2", "wvac", "wqc")]
_COVARIATE = st.one_of(st.floats(-1e308, 1e308), st.floats(-1e3, 1e3),
                       st.sampled_from([1e100, -1e100, 1e101, 1e155, 1e200, -1e300]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(method=st.sampled_from(_PREDICTORS), values=st.lists(_COVARIATE, min_size=10, max_size=10))
def test_property_no_nan_interval_at_any_finite_input(predictors, method, values):
    # a finite input is rejected beyond |x| = 1e100 and otherwise gives an
    # interval without NaN
    d, predict = predictors[method]
    x = np.asarray(values).reshape(-1, d)
    if np.max(np.abs(x)) > 1e100:
        with pytest.raises(NonFiniteInput, match="^x:"):
            predict(x)
        return
    b = predict(x)
    assert not any(np.isnan(v).any() for v in (b.lower, b.center, b.upper))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(method=st.sampled_from(_PREDICTORS), seed=st.integers(0, 2 ** 32 - 1),
       m=st.integers(1, 12), draws=st.integers(1, 40))
def test_property_repeated_rows_give_the_same_intervals(predictors, method, seed, m, draws):
    # a row's interval rests on its row alone: in a batch that repeats rows
    # (a resampled target), gathered from the batch of distinct rows, and
    # predicted alone, it has the same bytes (array_equal takes -0.0 for 0.0)
    d, predict = predictors[method]
    rng = np.random.default_rng(seed)
    x = np.vstack([rng.normal(size=(m, d)), np.zeros((1, d)), np.full((1, d), -0.0)])
    idx = rng.integers(0, x.shape[0], draws)

    def intervals(rows):
        b = predict(rows)
        return np.column_stack([b.lower, b.center, b.upper])

    got = intervals(x[idx])
    assert got.tobytes() == intervals(x)[idx].tobytes()
    assert got.tobytes() == np.concatenate([intervals(x[i:i + 1]) for i in idx]).tobytes()


class TestDiagnose:
    def test_no_warning_below_one(self):
        import warnings as w
        m = _tiny_model(alpha=1.0, lam=0.8)
        with w.catch_warnings():
            w.simplefilter("error")
            report = diagnose(m)
        assert not report["lambda_exceeds_one"]

    def test_warning_above_one(self):
        m = _tiny_model(alpha=1.0, lam=1.3)
        with pytest.warns(ShrinkExceedsOneWarning):
            report = diagnose(m)
        assert report["lambda_exceeds_one"]

    def test_mapping_holds_the_calibration_fields_and_round_trips(self):
        m = replace(_tiny_model(alpha=1.0, lam=0.8), holdout_violation=0.03)
        report = diagnose(m)
        assert report == {"lambda_hat": 0.8, "achieved_violation": 0.0,
                          "lambda_exceeds_one": False, "holdout_violation": 0.03}
        assert json.loads(json.dumps(report)) == report


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        src = gen_hetero_sim(600, seed=15)
        target = gen_hetero_sim(200, seed=16)
        m = fit_covariate_shift(src, target.x, 0.1, seed=3)
        doc = json.loads(json.dumps(model_to_dict(m)))
        m2 = model_from_dict(doc)
        assert m2.shrink.lambda_hat == m.shrink.lambda_hat
        assert np.array_equal(m2.shape.alpha, m.shape.alpha)
        assert m2.floor == m.floor
        x_new = np.linspace(-1, 1, 50)[:, None]
        b1 = predict_interval(m, x_new)
        b2 = predict_interval(m2, x_new)
        assert np.array_equal(b1.lower, b2.lower)
        assert np.array_equal(b1.upper, b2.upper)

    def test_transport_model_round_trip(self):
        src = gen_hetero_sim(600, seed=17)
        target = gen_hetero_sim(200, seed=18)
        m = fit_transport(src, target.x, 0.1, seed=3)
        m2 = model_from_dict(json.loads(json.dumps(model_to_dict(m))))
        x_new = np.linspace(-1, 1, 30)[:, None]
        assert np.array_equal(predict_interval(m, x_new).upper,
                              predict_interval(m2, x_new).upper)


    @staticmethod
    def _tiny_doc():
        m = _tiny_model(alpha=1.0, lam=0.8)
        return model_to_dict(replace(m, mean_model=LinearModel(np.zeros(2), "ols_mean")))

    def test_missing_field_names_its_path(self):
        doc = self._tiny_doc()
        del doc["alpha"]
        with pytest.raises(ConfigError, match=r"model\.alpha"):
            model_from_dict(doc)

    def test_every_missing_field_names_itself(self):
        for key in set(self._tiny_doc()) - {"format"}:
            doc = self._tiny_doc()
            del doc[key]
            with pytest.raises(ConfigError, match=rf"^model\.{key}: missing required field$"):
                model_from_dict(doc)

    # each but delta loaded before, then predicted ±inf or zero-width intervals
    # or failed only at predict, on the interval order; delta failed with
    # "model: malformed (...)", which named no field
    @pytest.mark.parametrize("field, value", [
        ("alpha", float("inf")), ("alpha", float("nan")),
        ("lambda_hat", float("inf")), ("lambda_hat", float("nan")), ("lambda_hat", -1.0),
        ("alg2_delta", float("inf")), ("alg2_delta", -1.0),
        ("floor", float("nan")), ("floor", -5.0), ("alpha_level", 7.0), ("delta", -1.0),
        # null predicted a bare TypeError; a stale flag silenced diagnose's warning
        ("alg2_delta", None), ("lambda_exceeds_one", True), ("lambda_exceeds_one", 0),
    ])
    def test_bad_scalar_rejected_at_load(self, field, value):
        doc = json.loads((DATA / "model_v1_alg1_1d.json").read_text())
        if field == "alpha":
            doc["alpha"][2] = value
        else:
            doc[field] = value
        with pytest.raises(ConfigError, match=rf"^model\.{field}: must "):
            model_from_dict(json.loads(json.dumps(doc)))  # NaN and Infinity survive JSON

    # each loaded before: a NaN ratio coefficient predicted with no error, and a
    # NaN candidate coefficient failed only at predict, on the interval order
    @pytest.mark.parametrize("section, value", [
        ("mean_model", float("nan")), ("adapter", float("nan")), ("adapter", float("inf")),
        ("bank", float("nan")), ("bank", -float("inf")),
    ])
    def test_non_finite_coefficient_rejected_at_load(self, section, value):
        doc = json.loads((DATA / "model_v1_alg1_1d.json").read_text())
        if section == "mean_model":  # the fixture's mean model is kNN
            doc["mean_model"] = {"kind": "ols", "coefficients": [0.0, 1.0]}
        coefficients = {"mean_model": doc["mean_model"], "adapter": doc["adapter"],
                        "bank": doc["bank"]["state"][5]}[section]["coefficients"]
        model_from_dict(json.loads(json.dumps(doc)))
        coefficients[1] = value
        with pytest.raises(ConfigError, match=rf"^model\.{section}: "):
            model_from_dict(json.loads(json.dumps(doc)))  # NaN and Infinity survive JSON

    # each loaded before: a NaN r2 or train_y failed only at predict, on the
    # interval order, and an inf r2, a negative r2 or binned value, bad edges or
    # a kNN tau of -1 changed the intervals with no error; bank slots 1 and 2
    # are kNN, 3 and 4 kernel, 5 linear, 6 binned
    @pytest.mark.parametrize("section, slot, field, entry, value", [
        *[("bank", slot, "r2", 4, v) for slot in (1, 3)
          for v in (float("nan"), float("inf"), -1.0)],
        ("mean_model", None, "train_y", 4, float("nan")),  # the fixture's mean model is kNN
        *[("bank", slot, "tau", None, v) for slot in (1, 5) for v in (5.0, -1.0, float("nan"))],
        ("bank", 6, "edges", 0, float("nan")), ("bank", 6, "edges", 1, float("inf")),
        ("bank", 6, "edges", 0, 1e3),  # above the second edge
        ("bank", 6, "values", 1, -1.0),
    ])
    def test_bad_fitted_state_rejected_at_load(self, section, slot, field, entry, value):
        doc = json.loads((DATA / "model_v1_alg1_1d.json").read_text())
        state = doc["mean_model"] if slot is None else doc["bank"]["state"][slot]
        if entry is None:
            state[field] = value
        else:
            state[field][entry] = value
        with pytest.raises(ConfigError,
                           match=rf"^model\.{section}: malformed \(ConfigError: {field}: "):
            model_from_dict(json.loads(json.dumps(doc)))  # NaN and Infinity survive JSON

    def test_alpha_of_the_wrong_length_names_both_counts(self):
        doc = json.loads((DATA / "model_v1_alg1_1d.json").read_text())
        del doc["alpha"][3]
        with pytest.raises(ConfigError, match=r"^model\.alpha: 6 weights for 7 candidates$"):
            model_from_dict(doc)

    def test_loaded_shrink_level_above_one_warns(self):
        doc = json.loads((DATA / "model_v1_alg1_1d.json").read_text())
        doc["lambda_hat"] = 1.3
        with pytest.raises(ConfigError, match=r"^model\.lambda_exceeds_one: must "):
            model_from_dict(doc)
        doc["lambda_exceeds_one"] = True
        with pytest.warns(ShrinkExceedsOneWarning):
            assert diagnose(model_from_dict(doc))["lambda_hat"] == 1.3

    def test_malformed_section_names_its_path(self):
        doc = self._tiny_doc()
        del doc["bank"]["specs"][0]["kind"]
        with pytest.raises(ConfigError, match=r"model\.bank"):
            model_from_dict(doc)
        doc = self._tiny_doc()
        doc["alpha"] = [1.0, 2.0]
        with pytest.raises(ConfigError, match=r"model\.alpha"):
            model_from_dict(doc)
        with pytest.raises(ConfigError, match=r"model\.format"):
            model_from_dict([doc])

    # Indices into the bank of the 1-d fixture: 0 constant_one, 1 and 2
    # knn_quantile (k < n and k >= n), 3 and 4 kernel_variance, 5
    # linear_quantile_sq, 6 binned_quantile.
    @pytest.mark.parametrize("section, corrupt", [
        ("bank", lambda d: d["bank"]["state"].pop()),
        ("bank", lambda d: d["bank"]["state"][3].update(bandwidth=0)),
        ("bank", lambda d: d["bank"]["state"][3].update(bandwidth=-1)),
        ("bank", lambda d: d["bank"]["state"][4].update(bandwidth=float("nan"))),
        ("bank", lambda d: d["bank"]["state"][1].update(k=0)),
        ("bank", lambda d: d["bank"]["state"][2].update(k=10_000)),
        ("bank", lambda d: d["bank"]["state"][3]["r2"].pop()),
        ("bank", lambda d: d["bank"]["state"][6]["values"].pop()),
        ("bank", lambda d: d["bank"]["state"][1]["train_x"][0].__setitem__(0, float("nan"))),
        ("mean_model", lambda d: d["mean_model"].update(k=0)),
        ("mean_model", lambda d: d["mean_model"]["train_y"].pop()),
        ("mean_model", lambda d: d["mean_model"].update(kind="bogus")),
        ("adapter", lambda d: d.update(adapter_kind="bogus")),
    ], ids=["state_one_short", "bandwidth_zero", "bandwidth_negative", "bandwidth_nan",
            "k_zero", "k_above_rows", "r2_misaligned", "binned_values_short",
            "train_x_nan", "knn_mean_k_zero", "knn_mean_y_misaligned", "mean_model_kind",
            "adapter_kind"])
    def test_malformed_candidate_state_rejected(self, section, corrupt):
        doc = json.loads((DATA / "model_v1_alg1_1d.json").read_text())
        corrupt(doc)
        with pytest.raises(ConfigError, match=rf"^model\.{section}: "):
            model_from_dict(doc)

    # Written by the package before its fitted candidates became state
    # dataclasses, with the intervals and bank evaluations that code gave on
    # 20 fixed rows: a 1-d alg1 fit (all five kinds, k < n and k >= n, the
    # kNN mean, a density-ratio adapter) and a 2-d alg2 fit (a map adapter).
    @pytest.mark.parametrize("name", ["alg1_1d", "alg2_2d"])
    def test_v1_fixture_round_trips(self, name, tmp_path):
        path = DATA / f"model_v1_{name}.json"
        m = load_model(str(path))
        save_model(m, str(tmp_path / "m.json"))
        assert (tmp_path / "m.json").read_text() == path.read_text()
        ref = json.loads((DATA / f"intervals_v1_{name}.json").read_text())
        x = np.asarray(ref["x"])
        got = predict_interval(m, x)
        got = {"lower": got.lower, "center": got.center, "upper": got.upper,
               "phi": m.bank.evaluate(x)}
        for key, value in got.items():
            if x.shape[1] == 1:
                assert np.array_equal(value, ref[key]), key
            else:
                # the 2-d fixture was written when distances in d > 1 came from a
                # quadratic form; cdist rounds differently
                np.testing.assert_allclose(value, ref[key], rtol=1e-12, atol=0.0, err_msg=key)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 16), d=st.integers(1, 3), n=st.integers(60, 140),
           k=st.integers(1, 90), bins=st.integers(1, 3),
           bandwidth=st.one_of(st.none(), st.floats(0.05, 2.0)),
           method=st.sampled_from(["alg1", "alg1_knn_mean", "alg2"]))
    def test_property_document_round_trip(self, seed, d, n, k, bins, bandwidth, method):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d))
        src = DataTable(x, x[:, 0] + (1.0 + np.abs(x[:, 0])) * rng.normal(size=n))
        tx = rng.normal(0.3, 1.2, size=(n // 2, d))
        specs = [CandidateSpec("constant_one"), CandidateSpec("knn_quantile", k=k, tau=0.8),
                 CandidateSpec("kernel_variance", bandwidth=bandwidth),
                 CandidateSpec("linear_quantile_sq", tau=0.9),
                 CandidateSpec("binned_quantile", bins=bins, tau=0.9)]
        if method == "alg2":
            m = fit_transport(src, tx, 0.1, specs=specs, seed=seed)
        else:
            m = fit_covariate_shift(src, tx, 0.1, specs=specs, seed=seed,
                                    mean_method="knn" if method == "alg1_knn_mean" else "ols")
        text = json.dumps(model_to_dict(m))
        m2 = model_from_dict(json.loads(text))
        assert json.dumps(model_to_dict(m2)) == text
        b1, b2 = predict_interval(m, tx), predict_interval(m2, tx)
        for a, b in ((b1.lower, b2.lower), (b1.center, b2.center), (b1.upper, b2.upper)):
            assert np.array_equal(a, b)


class TestKnownWeights:
    @pytest.mark.parametrize("weight_fn, error", [
        (lambda x: -np.ones(x.shape[0]), ConfigError),
        (lambda x: np.full(x.shape[0], np.nan), ConfigError),
        (lambda x: np.full(x.shape[0], np.inf), ConfigError),
        (lambda x: np.ones(x.shape[0] + 1), DimensionMismatch),
        (lambda x: np.zeros(x.shape[0]), ConfigError),
    ], ids=["negative", "nan", "inf", "wrong_size", "all_zero"])
    def test_bad_weights_rejected(self, weight_fn, error):
        src = gen_hetero_sim(300, seed=19)
        with pytest.raises(error, match="^weight_fn: "):
            fit_covariate_shift(src, src.x[:50], 0.1, weight_fn=weight_fn)


class TestPipelineArguments:
    @pytest.mark.parametrize("fit", [fit_covariate_shift, fit_transport])
    @pytest.mark.parametrize("fractions", [(0.5, 0.5), (0.25,) * 4, (0.9, 0.1, 0.0)])
    def test_fractions_need_three_positive_parts(self, fit, fractions):
        src = gen_hetero_sim(200, seed=3)
        with pytest.raises(ConfigError, match=r"^fractions: "):
            fit(src, src.x[:40], 0.1, fractions=fractions)

    @pytest.mark.parametrize("delta", [0.0, -1.0, float("nan")])
    def test_alg2_delta_must_be_positive(self, delta):
        src = gen_hetero_sim(200, seed=3)
        with pytest.raises(ConfigError, match=r"^alg2_delta: "):
            fit_transport(src, src.x[:40], 0.1, alg2_delta=delta)

    def test_negative_cov_ridge_rejected(self):
        src = gen_hetero_sim(200, seed=3)
        with pytest.raises(ConfigError, match=r"^cov_ridge: "):
            fit_transport(src, src.x[:40], 0.1, cov_ridge=-5.0)

    @pytest.mark.parametrize("fit, kwargs, param", [
        (fit_covariate_shift, {"mode": "bogus"}, "mode"),
        (fit_covariate_shift, {"mode": "hinge", "delta": -1.0}, "delta"),
        (fit_covariate_shift, {"mode": "hinge", "epsilon": -1.0}, "epsilon"),
        (fit_covariate_shift, {"mean_method": "bogus"}, "mean_method"),
        (fit_covariate_shift, {"prob_clip": 0.7}, "prob_clip"),
        (fit_covariate_shift, {"ratio_cap": 0.0}, "ratio_cap"),
        (fit_covariate_shift, {"support_threshold": "x"}, "support_threshold"),
        (fit_covariate_shift, {"specs": []}, "specs"),
        (fit_transport, {"mean_method": "bogus"}, "mean_method"),
        (fit_transport, {"specs": []}, "specs"),
        (fit_transport, {"transport_mode": "bogus"}, "transport_mode"),
        (fit_transport, {"cov_ridge": -1.0}, "cov_ridge"),
        (fit_covariate_shift, {"specs": [{"kind": "constant_one"}]}, "specs"),
        (fit_transport, {"specs": CandidateSpec("constant_one")}, "specs"),
        (fit_covariate_shift, {"fractions": [0.5, [0.25], 0.25]}, "fractions"),
        (fit_transport, {"fractions": np.full((3, 1), 1 / 3)}, "fractions"),
        (fit_transport, {"transport_map": (np.eye(1), np.zeros(1))}, "transport_map"),
        (fit_covariate_shift, {"ratio_cap": 10 ** 400}, "ratio_cap"),
    ])
    def test_bad_argument_rejected_before_the_split(self, monkeypatch, fit, kwargs, param):
        def no_split(*args):
            raise AssertionError("the split ran before the arguments were checked")

        monkeypatch.setattr("piagg.aggregate.split", no_split)
        src = gen_hetero_sim(200, seed=3)
        with pytest.raises(ConfigError, match=rf"^{param}: "):
            fit(src, src.x[:40], 0.1, **kwargs)

    def test_map_of_another_dimension_rejected_before_the_split(self, monkeypatch):
        def no_split(*args):
            raise AssertionError("the split ran before the map was checked")

        monkeypatch.setattr("piagg.aggregate.split", no_split)
        src, tgt = gen_affine_gauss(200, 50, np.eye(5), np.zeros(5), seed=3)
        with pytest.raises(DimensionMismatch, match=r"^transport_map: "):
            fit_transport(src, tgt.x, 0.1, transport_map=AffineMap.identity(3))

    @pytest.mark.parametrize("fit", [fit_covariate_shift, fit_transport], ids=["alg1", "alg2"])
    def test_unlabeled_source_rejected_before_the_split(self, monkeypatch, fit):
        def no_split(*args):
            raise AssertionError("the split ran before the source was checked")

        monkeypatch.setattr("piagg.aggregate.split", no_split)
        src = gen_hetero_sim(400, seed=3)
        with pytest.raises(PiaggError, match=r"^source: .*labeled"):
            fit(DataTable(src.x), src.x[:40], 0.1)

    @pytest.mark.parametrize("fit", [fit_covariate_shift, fit_transport], ids=["alg1", "alg2"])
    def test_target_of_another_dimension_rejected_before_the_split(self, monkeypatch, fit):
        calls = []

        def spy(*args, real=aggregate.split):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr("piagg.aggregate.split", spy)
        src = gen_hetero_sim(400, seed=3)
        _, tgt = gen_affine_gauss(50, 50, np.eye(5), np.zeros(5), seed=3)
        with pytest.raises(DimensionMismatch, match="dimension differ"):
            fit(src, tgt.x, 0.1)
        assert calls == []


_LABELED = gen_hetero_sim(20, 1)
_UNLABELED = DataTable(_LABELED.x)
# each hands an unlabeled table to a fit that needs labels
_UNLABELED_CALLS = {
    "fit_mean": lambda: fit_mean(_UNLABELED),
    "residuals": lambda: residuals(_UNLABELED, fit_mean(_LABELED)),
    "candidate_set": lambda: fit_candidate_set(_UNLABELED, np.ones(20), None),
    "wvac": lambda: fit_wvac(_UNLABELED, _LABELED, None),
    "wqc": lambda: fit_wqc(_LABELED, _UNLABELED, None, 0.1),
    "covariate_shift": lambda: fit_covariate_shift(_UNLABELED, _LABELED.x, 0.1),
}


def _bank():
    return fit_candidate_set(_LABELED, np.ones(20), None)


def _hand_built(alpha=np.ones(6), shrink=ShrinkResult(0.5, 0.0, False), **scalars):
    """A PiModel on the six candidates of _bank(), built by hand."""
    return PiModel(ShapeModel(alpha, "cov_shift_exact"), _bank(), ZeroMean(), shrink, 0.1, None,
                   **scalars)


_NAN_ROW = np.vstack([_LABELED.x[:19], [[np.nan]]])
_LABELED_5D = gen_affine_gauss(20, 10, np.eye(5), np.zeros(5), 1)[0]


@pytest.mark.parametrize("call, error", [
    (lambda: DataTable(np.array([[0.0], [np.nan]])), NonFiniteInput),
    (lambda: DataTable(np.array([[0.0], [-1.5e100]])), NonFiniteInput),
    (lambda: gen_hetero_sim(0, 1), ConfigError),
    (lambda: SplitSpec((0.5, 0.6), 1), ConfigError),
    (lambda: weighted_resample(gen_hetero_sim(4, 1), [1.0, -1.0, 1.0, 1.0], 3, 0),
     ConfigError),
    (lambda: weighted_resample(gen_hetero_sim(4, 1), np.ones(4), 0, 0), ConfigError),
    (lambda: gen_affine_gauss(0, 0, np.eye(2), np.zeros(2), 1), ConfigError),
    (lambda: gen_affine_gauss(2.5, 4, np.eye(2), np.zeros(2), 1), ConfigError),
    (lambda: fit_candidate_set(gen_hetero_sim(10, 1), np.ones(10), []), ConfigError),
    (lambda: logistic_fit(np.arange(4.0)[:, None], [0.0, 1.0, 2.0, 1.0]), ConfigError),
    (lambda: hinge_constraint_value(ShapeModel(np.ones(1), "cov_shift_exact"),
                                    np.ones((2, 1)), np.ones(2), np.ones(2)), ConfigError),
    (lambda: _bank().evaluate([[np.nan]]), NonFiniteInput),
    (lambda: _bank().evaluate([[0.5], [-np.inf]]), NonFiniteInput),
    (lambda: _bank().evaluate([[0.5], [np.inf]]), NonFiniteInput),
    (lambda: _bank().evaluate([[1e200]]), NonFiniteInput),
    (lambda: fit_candidate_set(_LABELED_5D, np.ones(20), None).evaluate([[1e200] * 5]),
     NonFiniteInput),
    (lambda: _bank().fitted[-1].evaluate([[0.5], [1e200]]), NonFiniteInput),
    (lambda: KernelScale(_bank().fitted[-1], 1e-6).predict([[np.nan]]), NonFiniteInput),
    (lambda: fit_mean(_LABELED, "knn").predict([[np.nan]]), NonFiniteInput),
    (lambda: fit_mean(_LABELED, "knn").predict([[0.3], [np.nan]]), NonFiniteInput),
    (lambda: LinearModel([0.0, 1.0], "ols_mean").predict([[np.nan]]), NonFiniteInput),
    (lambda: fit_transport(_LABELED, transport_map=(np.eye(1), np.zeros(1))), ConfigError),
    (lambda: fit_transport(_LABELED, transport_map=AffineMap.identity(3)), DimensionMismatch),
    (lambda: fit_covariate_shift(_LABELED, _LABELED.x, 0.1, specs=[{"kind": "constant_one"}]),
     ConfigError),
    (lambda: fit_transport(_LABELED, specs=CandidateSpec("constant_one")), ConfigError),
    (lambda: shrink_cov_shift(np.ones(3), np.ones(3), [1.0, -3.0, 1.0], 0.1), ConfigError),
    (lambda: shrink_cov_shift([1.0, np.nan, 1.0], np.ones(3), np.ones(3), 0.1), NonFiniteInput),
    (lambda: shrink_source([1.0, np.inf, 1.0], np.ones(3), 0.1, 0.1), NonFiniteInput),
    (lambda: fit_shape_cov_shift(np.ones((3, 1)), np.ones(3), [1.0, np.nan, 1.0],
                                 np.ones((2, 1))), ConfigError),
    (lambda: fit_shape_cov_shift(np.ones((3, 1)), np.ones(3), [1.0, np.inf, 1.0],
                                 np.ones((2, 1)), mode="hinge", delta=0.1, epsilon=0.1),
     ConfigError),
    (lambda: fit_shape_source([[1.0], [np.nan], [1.0]], np.ones(3)), NonFiniteInput),
    # a NaN or inf phi_target reached the LP, and an empty one took the mean of no rows
    *[(lambda t=t: fit_shape_cov_shift(np.ones((3, 1)), np.ones(3), np.ones(3), t), ConfigError)
      for t in ([[1.0], [np.nan]], [[np.inf]], [[-np.inf]], np.ones((0, 1)))],
    # each was built: two weights failed at predict with NumPy's ValueError, and
    # the others predicted (zero-width or too narrow) intervals with no error
    *[(lambda kw=kw: predict_interval(_hand_built(**kw), [[0.5]]), ConfigError) for kw in (
        {"alpha": np.ones(2)}, {"shrink": ShrinkResult(-1.0, 0.0, False)},
        {"shrink": ShrinkResult(1.3, 0.0, False)}, {"alg2_delta": -1.0})],
    (lambda: eval_ratio(fit_density_ratio(_LABELED.x, _LABELED.x + 0.5), [[0.0], [np.nan]]),
     NonFiniteInput),
    (lambda: fit_density_ratio(_NAN_ROW, _LABELED.x), NonFiniteInput),
    (lambda: apply_map(AffineMap.identity(1), [[0.0], [np.nan]]), NonFiniteInput),
    (lambda: fit_affine_transport(_LABELED.x, _NAN_ROW), NonFiniteInput),
    (lambda: ols_fit(_NAN_ROW, np.arange(20.0)), NonFiniteInput),
    (lambda: quantile_reg_fit(_NAN_ROW, np.arange(20.0), 0.5), NonFiniteInput),
    (lambda: logistic_fit(_NAN_ROW, np.arange(20.0) % 2), NonFiniteInput),
    *[(lambda v=v: fit(_LABELED.x, np.append(_LABELED.y[:19], v), *tau), NonFiniteInput)
      for fit, tau in ((ols_fit, ()), (quantile_reg_fit, (0.5,)))
      for v in (np.nan, np.inf, -np.inf)],
    *[(lambda a=a: shrink_cov_shift(np.ones(3), np.ones(3), np.ones(3), a), ConfigError)
      for a in (2.0, -1.0, np.nan)],
    *[(lambda a=a: shrink_source(np.ones(3), np.ones(3), a, 0.1), ConfigError)
      for a in (2.0, -1.0, np.nan)],
    (lambda: shrink_source(np.ones(3), np.ones(3), 0.1, -5.0), ConfigError),
    (lambda: shrink_source(np.ones(3), np.ones(3), 0.1, None), ConfigError),
    (lambda: fit_wvac(_LABELED, _LABELED.take(np.arange(0)), None), EmptyInput),
    (lambda: fit_wqc(_LABELED, _LABELED.take(np.arange(0)), None, 0.1), EmptyInput),
    (lambda: derive_seed("a", 1), ConfigError),
    (lambda: derive_seed(1.7, 1), ConfigError),
    (lambda: derive_seed(1, 2.5), ConfigError),
    # a 3-d array: the table and the OLS prediction accepted it, the others
    # failed with NumPy's bare ValueError
    (lambda: DataTable(np.ones((3, 1, 1))), DimensionMismatch),
    (lambda: ols_fit(_LABELED.x, _LABELED.y).predict(np.ones((2, 1, 1))), DimensionMismatch),
    (lambda: predict_interval(_hand_built(), np.ones((3, 1, 1))), DimensionMismatch),
    (lambda: fit_covariate_shift(_LABELED, np.ones((3, 1, 1)), 0.1), DimensionMismatch),
    (lambda: marginal_ks(_LABELED.x, np.ones((3, 1, 1))), DimensionMismatch),
    # a 1-d phi raised a bare IndexError, and an alpha of the wrong length
    # NumPy's ValueError from the matrix product
    (lambda: fit_shape_source(np.ones(5), np.ones(5)), DimensionMismatch),
    (lambda: fit_shape_cov_shift(np.ones(5), np.ones(5), np.ones(5), np.ones((2, 1))),
     DimensionMismatch),
    (lambda: hinge_constraint_value(ShapeModel(np.ones(3), "cov_shift_hinge", 0.1, 0.01),
                                    np.ones((4, 2)), np.ones(4), np.ones(4)), DimensionMismatch),
    *[(call, PiaggError) for call in _UNLABELED_CALLS.values()],
], ids=["datatable_nan", "datatable_huge", "hetero_n0", "split_sum", "resample_negative",
        "resample_m0", "affine_gauss_n0", "affine_gauss_n2.5", "no_specs",
        "logistic_labels", "hinge_no_scale", "bank_nan", "bank_inf", "bank_plus_inf", "bank_huge",
        "bank_huge_5d", "kernel_variance_huge", "kernel_scale_nan", "knn_mean_nan",
        "knn_mean_nan_in_batch", "linear_model_nan", "tuple_map", "map_dimension", "dict_specs",
        "lone_spec", "shrink_negative_weight", "shrink_nan_shape", "shrink_source_inf_shape",
        "shape_nan_weight", "hinge_inf_weight", "shape_nan_phi",
        *[f"phi_target_{t}" for t in ("nan", "inf", "minus_inf", "empty")],
        "model_two_weights", "model_lambda_minus_1", "model_stale_flag",
        "model_alg2_delta_minus_1", "eval_ratio_nan",
        "density_ratio_nan", "apply_map_nan", "affine_transport_nan", "ols_nan",
        "quantile_reg_nan", "logistic_nan",
        *[f"{fit}_y_{v}" for fit in ("ols", "quantile_reg") for v in ("nan", "inf", "minus_inf")],
        *[f"{fn}_alpha_level_{a}" for fn in ("shrink_cov_shift", "shrink_source")
          for a in ("2", "minus_1", "nan")],
        "shrink_source_alg2_delta_minus_5", "shrink_source_alg2_delta_null",
        "wvac_empty_calibration", "wqc_empty_calibration",
        "derive_seed_string", "derive_seed_float", "derive_seed_float_index",
        *[f"{call}_3d" for call in ("datatable", "ols_predict", "predict_interval",
                                    "covariate_shift_target", "marginal_ks")],
        "shape_source_vector_phi", "shape_cov_shift_vector_phi", "hinge_three_weights_two_columns",
        *[f"unlabeled_{name}" for name in _UNLABELED_CALLS]])
def test_public_entry_points_raise_typed_errors(call, error):
    with pytest.raises(error):
        call()


def _entry_point_calls() -> dict:
    """A valid base call, as (callable, positional arguments), of each public
    callable, and each evaluator of a fitted part, that takes arrays or numbers."""
    x, y, cal = _LABELED.x, _LABELED.y, gen_hetero_sim(20, 4)
    phi = np.column_stack([np.ones(20), np.abs(x[:, 0])])
    fit_rows, fit_target = gen_hetero_sim(80, 2), gen_hetero_sim(30, 3).x
    return {
        "AffineMap": (AffineMap, (np.eye(2), np.zeros(2))),
        "DataTable": (DataTable, (x, y)),
        "IntervalBatch": (IntervalBatch, (-np.ones(3), np.ones(3), np.zeros(3))),
        "LinearModel": (LinearModel, (np.ones(2), "ols_mean")),
        "LinearProgram": (LinearProgram, (np.ones(2), np.eye(2), np.ones(2),
                                          np.ones(2, dtype=bool))),
        "ShapeModel": (ShapeModel, (np.ones(2), "cov_shift_exact")),
        "ShrinkResult": (ShrinkResult, (0.5, 0.1, False)),
        "Rng": (Rng, (3,)),
        "SplitSpec": (SplitSpec, ((0.5, 0.5), 1)),
        "CandidateSpec": (CandidateSpec, ("knn_quantile", 5, 0.9)),
        "affine_shift": (affine_shift, (_LABELED, 2 * np.eye(1), np.ones(1))),
        "apply_map": (apply_map, (fit_affine_transport(x + 1, x), x)),
        "coverage_and_width": (coverage_and_width, (IntervalBatch(-np.ones(20), np.ones(20),
                                                                  np.zeros(20)), y)),
        "derive_seed": (derive_seed, (1, 2)),
        "eval_ratio": (eval_ratio, (fit_density_ratio(x, x + 0.5), x)),
        "fit_affine_transport": (fit_affine_transport, (x + 1, x)),
        "fit_candidate_set": (fit_candidate_set, (_LABELED, np.ones(20), None)),
        "fit_covariate_shift": (fit_covariate_shift, (_LABELED, x, 0.1)),
        "fit_density_ratio": (fit_density_ratio, (x, x + 0.5)),
        "fit_mean": (fit_mean, (_LABELED, "knn", 5)),
        "fit_shape_cov_shift": (fit_shape_cov_shift, (phi, y ** 2, np.ones(20), phi[:5])),
        "fit_shape_source": (fit_shape_source, (phi, y ** 2)),
        "fit_transport": (fit_transport, (_LABELED, x + 0.5, 0.1)),
        "fit_wqc": (fit_wqc, (_LABELED, cal, None, 0.1)),
        "fit_wvac": (fit_wvac, (_LABELED, cal, None, 0.1, 0.3)),
        "gen_affine_gauss": (gen_affine_gauss, (6, 3, np.eye(2), np.zeros(2), 1)),
        "gen_hetero_sim": (gen_hetero_sim, (6, 1)),
        "hinge_constraint_value": (hinge_constraint_value, (
            ShapeModel(np.ones(2), "cov_shift_hinge", 0.1, 0.01), phi, y ** 2, np.ones(20))),
        "CandidateBank.evaluate": (_bank().evaluate, (x,)),
        "CandidateBank.evaluate_5d": (fit_candidate_set(_LABELED_5D, np.ones(20), None).evaluate,
                                      (_LABELED_5D.x,)),
        "KnnMean.predict": (fit_mean(_LABELED, "knn", 5).predict, (x,)),
        "LinearModel.predict": (ols_fit(x, y).predict, (x,)),
        "logistic_fit": (logistic_fit, (x, (x[:, 0] > 0) * 1.0)),
        "marginal_ks": (marginal_ks, (x, x + 0.5)),
        "ols_fit": (ols_fit, (x, y)),
        "predict_interval_alg1": (predict_interval, (
            fit_covariate_shift(fit_rows, fit_target, 0.1), x)),
        "predict_interval_alg2": (predict_interval, (fit_transport(fit_rows, fit_target, 0.1), x)),
        "predict_wqc": (predict_wqc, (fit_wqc(_LABELED, cal, None, 0.1), x, 0.1)),
        "predict_wvac": (predict_wvac, (fit_wvac(_LABELED, cal, None), x, 0.1)),
        "quantile_reg_fit": (quantile_reg_fit, (x, y, 0.5)),
        "shrink_cov_shift": (shrink_cov_shift, (np.ones(20), y ** 2, np.ones(20), 0.1, 0.0)),
        "shrink_source": (shrink_source, (np.ones(20), y ** 2, 0.1, 0.1)),
        "tilt_resample": (tilt_resample, (_LABELED, np.ones(1), 5, 1)),
        "weighted_resample": (weighted_resample, (_LABELED, np.ones(20), 5, 1)),
    }


_ENTRY_POINTS = _entry_point_calls()


def _bad_values(v) -> dict:
    """The invalid stand-ins for a number or an array argument ``v``."""
    if isinstance(v, bool) or not isinstance(v, (int, float, np.ndarray)):
        return {}
    if not isinstance(v, np.ndarray):
        return {"nan": np.nan, "inf": np.inf, "minus_inf": -np.inf}
    out = {}
    for name, bad in (("nan", np.nan), ("inf", np.inf), ("minus_inf", -np.inf)):
        if v.dtype.kind == "f":
            out[name] = v.copy()
            out[name].flat[-1] = bad
    out["empty"] = v[:0]
    out["leading_axis"] = v[None]
    if v.ndim == 2:
        out["first_column"] = v[:, 0]
        out["extra_column"] = np.hstack([v, v[:, :1]])
    elif v.ndim == 1:
        out["one_short"] = v[:-1]
    return out


def _float_arrays(out, depth=0):
    """Every float array in a returned value, its tuples and dataclass fields."""
    if isinstance(out, np.ndarray) and out.dtype.kind == "f":
        yield out
    elif depth < 4 and isinstance(out, (tuple, list)):
        for item in out:
            yield from _float_arrays(item, depth + 1)
    elif depth < 4 and is_dataclass(out):
        for f in fields(out):
            yield from _float_arrays(getattr(out, f.name), depth + 1)


_ENTRY_POINT_CASES = [(name, i, bad) for name, (_, args) in _ENTRY_POINTS.items()
                      for i, v in enumerate(args) for bad in _bad_values(v)]


@pytest.mark.parametrize("name", list(_ENTRY_POINTS))
def test_entry_point_base_call_is_valid(name):
    fn, args = _ENTRY_POINTS[name]
    assert not any(np.isnan(a).any() for a in _float_arrays(fn(*args)))


@pytest.mark.parametrize("name, i, bad", _ENTRY_POINT_CASES,
                         ids=[f"{name}-{i}-{bad}" for name, i, bad in _ENTRY_POINT_CASES])
def test_property_entry_points_refuse_or_return_no_nan(name, i, bad):
    # each number or array argument of a valid call in turn becomes NaN or
    # ±inf in one entry, empty, one axis deeper, a matrix's first column, one
    # column wider or one entry short: the call raises a PiaggError or returns
    # no NaN in any float array
    fn, args = _ENTRY_POINTS[name]
    args = list(args)
    args[i] = _bad_values(args[i])[bad]
    try:
        out = fn(*args)
    except PiaggError:
        return
    assert not any(np.isnan(a).any() for a in _float_arrays(out))


def test_rows_a_map_carries_past_the_covariate_bound_still_evaluate():
    # check_covariates stops inputs at 1e100, but an affine map may carry
    # them further; the evaluators accept rows up to 1e150
    for bank, row in ((_bank(), [[1e120]]),
                      (fit_candidate_set(_LABELED_5D, np.ones(20), None), [[1e120] * 5])):
        assert np.all(np.isfinite(bank.evaluate(row)))
    assert np.isfinite(fit_mean(_LABELED, "knn").predict([[-1e150]])[0])


def test_a_vector_reads_as_one_row():
    # the row gates refuse an array of more than two dimensions, not of fewer
    assert DataTable(np.ones(3)).x.shape == (1, 3)
    assert predict_interval(_hand_built(), [0.5]).lower.shape == (1,)


@pytest.mark.parametrize("call", list(_UNLABELED_CALLS.values()), ids=list(_UNLABELED_CALLS))
def test_unlabeled_table_fails_the_label_check(call):
    # other checks raise PiaggError subclasses too, so the message is pinned
    with pytest.raises(PiaggError, match="labeled"):
        call()


def test_interval_batch_validates_order():
    with pytest.raises(ValueError):
        IntervalBatch(np.array([1.0]), np.array([0.0]), np.array([0.5]))


@pytest.mark.parametrize("lower, upper, center", [
    (np.nan, 1.0, 0.0), (-1.0, np.nan, 0.0), (-1.0, 1.0, np.nan),
    (-np.inf, np.inf, np.nan), (np.inf, np.inf, 0.0)])
def test_interval_batch_checks_every_row(lower, upper, center):
    # infinite rows are checked too, and a NaN anywhere fails the order
    with pytest.raises(ValueError):
        IntervalBatch(np.array([-1.0, lower]), np.array([1.0, upper]), np.array([0.0, center]))


def test_interval_batch_takes_infinite_bounds():
    b = IntervalBatch(np.array([-np.inf, 0.0]), np.array([np.inf, 1.0]), np.array([5.0, 1.0]))
    assert np.array_equal(b.width, [np.inf, 1.0])


def _criterion_6_lp(rng):
    """Six random rows feasible at a positive point, plus a bounding row."""
    a = rng.normal(size=(6, 4))
    x0 = rng.uniform(0.2, 1.0, size=4)
    b = a @ x0 + rng.uniform(0.1, 1.0, size=6)
    return (rng.normal(size=4), np.vstack([a, np.ones(4)]),
            np.concatenate([b, [float(x0.sum() + 5.0)]]))


def _hinge_lp(rng):
    """A hinge-mode shape LP: dominations relaxed by delta-scaled slacks, plus
    the weighted budget row; a constant candidate first, some values zero."""
    n, k, delta = int(rng.integers(1, 40)), int(rng.integers(1, 5)), 0.3
    phi = rng.uniform(0.0, 1.0, size=(n, k)) * (rng.random((n, k)) > 0.2)
    phi[:, 0] = 1.0
    lhs = np.block([[-phi, -delta * np.eye(n)], [np.zeros(k), rng.uniform(0.1, 3.0, size=n)]])
    rhs = np.concatenate([-(rng.exponential(size=n) + delta), [n * 0.05]])
    return np.concatenate([rng.uniform(0.1, 1.0, size=k), np.zeros(n)]), lhs, rhs


@pytest.mark.parametrize("make", [_criterion_6_lp, _hinge_lp], ids=["criterion_6", "hinge"])
def test_sparse_and_dense_lps_agree_bit_for_bit(make):
    rng = np.random.default_rng(11)
    for _ in range(50):
        c, a, b = make(rng)
        mask = np.ones(c.shape[0], dtype=bool)
        dense = solve_lp(LinearProgram(c, a, b, mask))
        coo = solve_lp(LinearProgram(c, sparse.coo_array(a), b, mask))
        assert dense.status == coo.status == OPTIMAL
        assert np.array_equal(dense.x, coo.x)


def test_hinge_mode_hands_a_sparse_lp(monkeypatch):
    seen = []

    def record(p, *args):
        seen.append(p)
        return solve_lp(p, *args)

    monkeypatch.setattr(aggregate, "solve_lp", record)
    rng = np.random.default_rng(5)
    phi, r2, w = rng.uniform(0.1, 1.0, size=(300, 3)), rng.exponential(size=300), np.ones(300)
    shape = fit_shape_cov_shift(phi, r2, w, phi[:50], mode="hinge", delta=0.3, epsilon=0.05)
    (lp,) = seen
    assert sparse.issparse(lp.ineq_lhs) and lp.ineq_lhs.shape == (301, 303)
    dense = solve_lp(LinearProgram(lp.objective, lp.ineq_lhs.toarray(), lp.ineq_rhs,
                                   lp.nonneg_mask))
    assert np.array_equal(shape.alpha, np.maximum(dense.x[:3], 0.0))
