"""Shape estimation, shrinkage calibration, and interval prediction.

The band construction runs in two stages. Stage one picks nonnegative
aggregation weights ``alpha`` over the candidate bank by a covering LP:
minimize the average candidate combination on the objective sample
subject to dominating every squared residual on the constraint sample
(optionally relaxed through a hinge budget). Stage two rescales the
resulting shape by the smallest multiplier ``lambda_hat`` whose weighted
empirical miscoverage on a held-out calibration block stays within the
target level. Prediction returns ``center(x) +- sqrt(lambda_hat * shape(x))``,
with covariates routed through a fitted density-ratio reweighting or an
affine transport map depending on the pipeline.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass

import numpy as np
from scipy import sparse

from .candidates import (
    CandidateBank,
    CandidateSpec,
    KnnMean,
    fit_candidate_set,
    fit_mean,
    residuals,
    state_dict,
)
from .dataset import DataTable, SplitSpec, check_covariates, check_nonnegative, split
from .densratio import DensityRatioModel, eval_ratio, fit_density_ratio
from .errors import (
    ConfigError,
    DimensionMismatch,
    NonFiniteInput,
    PiaggError,
    ShapeInfeasible,
    ShrinkExceedsOneWarning,
    ShrinkUnbounded,
    check_args,
)
from .linprog import INFEASIBLE, OPTIMAL, LinearProgram, solve_lp
from .numerics import LinearModel
from .transport import AffineMap, apply_map, fit_affine_transport

MODE_COV_EXACT = "cov_shift_exact"
MODE_COV_HINGE = "cov_shift_hinge"
MODE_SOURCE = "source_exact"


@dataclass(frozen=True)
class ShapeModel:
    """Nonnegative aggregation weights with the constraint regime that
    produced them."""

    alpha: np.ndarray
    mode: str
    delta: float | None = None
    epsilon: float | None = None
    support_threshold: float = 0.0
    objective_value: float = float("nan")

    def __post_init__(self):
        object.__setattr__(self, "alpha", check_nonnegative("alpha", self.alpha))
        check_args(delta=self.delta, epsilon=self.epsilon,
                   support_threshold=self.support_threshold)
        if self.mode == MODE_COV_HINGE and self.delta is None:
            raise ConfigError("delta: hinge mode needs a hinge scale")


@dataclass(frozen=True)
class ShrinkResult:
    lambda_hat: float
    achieved_violation: float
    lambda_exceeds_one: bool


@dataclass(frozen=True)
class IntervalBatch:
    """Per-point prediction intervals; lower <= center <= upper."""

    lower: np.ndarray
    upper: np.ndarray
    center: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=np.float64).ravel()
        up = np.asarray(self.upper, dtype=np.float64).ravel()
        ce = np.asarray(self.center, dtype=np.float64).ravel()
        if not (lo.shape == up.shape == ce.shape):
            raise DimensionMismatch("interval vectors must share a length")
        if not (np.all(lo <= ce) and np.all(ce <= up)):  # False on a NaN
            raise ConfigError("intervals: must satisfy lower <= center <= upper")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)
        object.__setattr__(self, "center", ce)

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower


@dataclass(frozen=True)
class PiModel:
    """Fitted interval constructor.

    ``adapter`` is a DensityRatioModel for the reweighting pipeline, an
    AffineMap for the transport pipeline, or None when no shift
    adjustment applies.
    """

    shape: ShapeModel
    bank: CandidateBank
    mean_model: object
    shrink: ShrinkResult
    alpha_level: float
    adapter: object | None
    alg2_delta: float = 0.0
    floor: float = 0.0
    holdout_violation: float = float("nan")

    def __post_init__(self):
        check_args(alpha_level=self.alpha_level, lambda_hat=self.shrink.lambda_hat,
                   floor=self.floor, alg2_delta=self.alg2_delta or None)  # Alg. 1's 0 as null
        if self.alg2_delta is None:
            raise ConfigError("alg2_delta: must be a number, 0 for an Alg. 1 model")
        if self.shrink.lambda_exceeds_one is not bool(self.shrink.lambda_hat > 1):
            raise ConfigError("lambda_exceeds_one: must be true exactly when lambda_hat > 1")
        if self.shape.alpha.shape[0] != len(self.bank.specs):
            raise ConfigError(f"alpha: {self.shape.alpha.shape[0]} weights for "
                              f"{len(self.bank.specs)} candidates")


def _solve_shape(obj: np.ndarray, lhs, rhs: np.ndarray, mode: str, delta: float | None = None,
                 epsilon: float | None = None, support_threshold: float = 0.0) -> ShapeModel:
    """The ShapeModel of the shape LP min obj@alpha over nonnegative
    [alpha, slacks] with lhs@[alpha, slacks] <= rhs, alpha clipped at zero."""
    k = obj.shape[0]
    c = np.concatenate([obj, np.zeros(lhs.shape[1] - k)])
    sol = solve_lp(LinearProgram(c, lhs, rhs, np.ones(c.shape[0], dtype=bool)))
    if sol.status == INFEASIBLE:
        raise ShapeInfeasible("hinge budget cannot be met by any candidate combination"
                              if mode == MODE_COV_HINGE else
                              "no nonnegative combination covers every constrained row")
    if sol.status != OPTIMAL:
        raise PiaggError(f"shape LP ended with status {sol.status}")
    alpha = np.maximum(sol.x[:k], 0.0)
    return ShapeModel(alpha, mode, delta, epsilon, support_threshold, float(obj @ alpha))


def _shape_block(phi, r2, w=None, columns=None):
    """Row-aligned shape arrays: a finite phi matrix (``columns`` wide if given), r2, w >= 0."""
    phi = np.asarray(phi, dtype=np.float64)
    if phi.ndim != 2 or columns not in (None, phi.shape[1]):
        raise DimensionMismatch(f"phi: must be a matrix of {columns or 'candidate'} columns")
    if not np.all(np.isfinite(phi)):
        raise NonFiniteInput("phi: shape values must be finite")
    return (phi, check_nonnegative("r2", r2, phi.shape[0]),
            None if w is None else check_nonnegative("weights", w, phi.shape[0]))


def fit_shape_cov_shift(phi: np.ndarray, r2: np.ndarray, weights_on_source: np.ndarray,
                        phi_target: np.ndarray, mode: str = "exact",
                        delta: float | None = None, epsilon: float | None = None,
                        support_threshold: float = 0.0) -> ShapeModel:
    """Shape weights under covariate shift, from the candidate evaluations
    ``phi`` (one column per candidate), squared residuals and ratio weights
    of the source rows, and the evaluations ``phi_target`` on the target.

    Exact mode enforces coverage on every source row whose estimated ratio
    exceeds ``support_threshold``; hinge mode relaxes it by slacks at scale
    ``delta`` (None: a tenth of r2's 0.9 quantile, at least 1e-12) whose
    ratio-weighted mean hinge loss stays within ``epsilon`` (None: 0.01).
    The objective is always the average combined candidate on the target covariates.
    """
    check_args(mode=mode, delta=delta, epsilon=epsilon, support_threshold=support_threshold)
    phi, r2, w = _shape_block(phi, r2, weights_on_source)
    phi_target = np.atleast_2d(np.asarray(phi_target, dtype=np.float64))
    if phi_target.shape[1] != phi.shape[1]:
        raise DimensionMismatch(f"phi_target: needs {phi.shape[1]} candidate columns")
    if not (phi_target.shape[0] and np.all(np.isfinite(phi_target))):
        raise ConfigError("phi_target: must be finite, with at least one row")
    obj = phi_target.mean(axis=0)
    if mode == "exact":
        keep = w > support_threshold
        return _solve_shape(obj, -phi[keep], -r2[keep], MODE_COV_EXACT, delta, epsilon,
                            support_threshold)
    if delta is None:
        delta = max(0.1 * float(np.quantile(r2, 0.9)) if r2.size else 0.0, 1e-12)
    epsilon = 0.01 if epsilon is None else epsilon
    keep = w > 0
    # variables [alpha, s]; rows: delta-scaled hinge dominations + budget, as
    # one sparse block (a dense slack identity needs n_k² entries)
    lhs = sparse.bmat([[-phi[keep], sparse.identity(int(np.count_nonzero(keep))) * -delta],
                       [None, w[keep][None, :]]])
    rhs = np.concatenate([-(r2[keep] + delta), [phi.shape[0] * epsilon]])
    return _solve_shape(obj, lhs, rhs, MODE_COV_HINGE, delta, epsilon, support_threshold)


def fit_shape_source(phi: np.ndarray, r2: np.ndarray) -> ShapeModel:
    """Shape weights on the source alone: cover every squared residual
    while minimizing the average combined candidate on the same rows."""
    phi, r2, _ = _shape_block(phi, r2)
    obj = phi.mean(axis=0) if phi.shape[0] else np.zeros(phi.shape[1])
    return _solve_shape(obj, -phi, -r2, MODE_SOURCE)


def hinge_constraint_value(shape: ShapeModel, phi: np.ndarray, r2: np.ndarray,
                           weights_on_source: np.ndarray) -> float:
    """Directly evaluated hinge budget of a fitted shape: the weighted
    mean of max(0, (r2 - f)/delta + 1) over the constraint block."""
    if shape.delta is None:
        raise ConfigError("shape: has no hinge scale")
    phi, r2, w = _shape_block(phi, r2, weights_on_source, len(shape.alpha))
    hinge = np.maximum(0.0, (r2 - phi @ shape.alpha) / shape.delta + 1.0)
    return float(np.mean(w * hinge))


def _scan_thresholds(thresholds: np.ndarray, weights: np.ndarray,
                     permanent_mass: float, n: int,
                     alpha_level: float) -> tuple[float, float]:
    """Smallest candidate multiplier whose miscoverage budget holds.

    The budget at a candidate value c is the weight of rows whose
    threshold is strictly greater than c (plus any permanent mass),
    divided by n. Under the strict violation rule (r2 > lam * f) this is
    exactly the miscoverage at lam = c and the infimum is attained; under
    the non-strict rule (r2 >= lam * denom) it is the limit from above,
    so the returned value is the infimum of the feasible ray and the
    reported violation is measured just past it. A repeated threshold
    repeats its budget, so ties need no merging before the first feasible
    candidate is taken.
    """
    order = np.argsort(thresholds, kind="stable")
    t_sorted, w_sorted = thresholds[order], weights[order]
    total = float(w_sorted.sum())
    # cum[i] is the weight of the i smallest thresholds
    cum = np.concatenate([[0.0], np.cumsum(w_sorted)])
    candidates = np.concatenate([[0.0], t_sorted[t_sorted > 0.0]])
    masses = total - cum[np.searchsorted(t_sorted, candidates, side="right")]
    violations = (permanent_mass + masses) / n
    feasible = violations <= alpha_level
    if not np.any(feasible):
        # only possible with permanent mass: some rows violate at every lam
        raise ShrinkUnbounded("miscoverage budget cannot be met at any finite multiplier")
    idx = int(np.argmax(feasible))
    return float(candidates[idx]), float(violations[idx])


def _lift(f, floor: float, alg2_delta: float) -> np.ndarray:
    """The scale that the shrink level multiplies, max(f + alg2_delta, floor):
    as f >= 0, max(f, floor) under covariate shift (Alg. 1, alg2_delta = 0)
    and f + alg2_delta on the source (Alg. 2, floor = 0)."""
    return np.maximum(np.asarray(f, dtype=np.float64).ravel() + alg2_delta, floor)


def _violates(r2: np.ndarray, bound, alg2_delta: float) -> np.ndarray:
    """Alg. 2 (alg2_delta > 0) counts r2 >= bound as a violation, Alg. 1 only r2 > bound."""
    return r2 >= bound if alg2_delta > 0 else r2 > bound


def _shrink(f: np.ndarray, r2: np.ndarray, w: np.ndarray, alpha_level: float,
            floor: float, alg2_delta: float) -> ShrinkResult:
    """Smallest lam >= 0 whose weighted miscoverage (1/n) sum w * violates(r2,
    lam * scale) is at most ``alpha_level``, for the scale _lift(f, floor,
    alg2_delta) and the rule that is non-strict exactly when alg2_delta > 0.

    A row without a positive scale that violates at lam = 0 violates at
    every lam; the scan raises ShrinkUnbounded when their mass alone
    exceeds the budget. Every other row has threshold r2 / scale (zero
    where the scale vanishes).
    """
    scale, r2, w = _shape_block(_lift(f, floor, alg2_delta)[:, None], r2, w)  # one column
    scale = scale[:, 0]
    n = scale.size
    if n == 0:
        raise PiaggError("calibration set is empty")
    permanent = (scale <= 0.0) & _violates(r2, 0.0, alg2_delta)
    ok = ~permanent
    thresholds = np.divide(r2, scale, out=np.zeros(n), where=ok & (scale > 0.0))
    lam, violation = _scan_thresholds(thresholds[ok], w[ok], float(w[permanent].sum()),
                                      n, alpha_level)
    return ShrinkResult(lam, violation, lam > 1.0)


def shrink_cov_shift(f_hat_cal: np.ndarray, r2_cal: np.ndarray, w_cal: np.ndarray,
                     alpha_level: float, floor: float = 0.0) -> ShrinkResult:
    """Smallest multiplier lam with ratio-weighted empirical miscoverage
    (1/n) sum w * 1{r2 > lam * max(f, floor)} at most ``alpha_level``.

    Violations use the strict inequality, so the infimum is attained at a
    threshold and ``achieved_violation`` is the budget at the returned
    multiplier. With a zero floor, a row whose shape vanishes while its
    residual does not violates at every multiplier, and ShrinkUnbounded is
    raised when such rows alone exceed the budget.
    """
    check_args(alpha_level=alpha_level, floor=floor)
    return _shrink(f_hat_cal, r2_cal, w_cal, alpha_level, floor, 0.0)


def shrink_source(f_hat_cal: np.ndarray, r2_cal: np.ndarray,
                  alpha_level: float, alg2_delta: float) -> ShrinkResult:
    """Source-domain shrink level with the non-strict convention:
    inf{lam > 0 : (1/n) sum 1{r2 >= lam (f + delta)} <= alpha_level}.

    Because a row counts as violating exactly at its own threshold, the
    infimum may not be attained; the scan returns the limit value and
    reports the violation measured just above it.
    """
    check_args(alpha_level=alpha_level, alg2_delta=alg2_delta)
    if alg2_delta is None:  # the rule's null stands for a pipeline's default, not set here
        raise ConfigError("alg2_delta: must be a number")
    return _shrink(f_hat_cal, r2_cal, np.ones(np.size(f_hat_cal)), alpha_level, 0.0, alg2_delta)


def predict_interval(m: PiModel, x: np.ndarray) -> IntervalBatch:
    """Centered intervals ``mean(z) +- sqrt(lam * shape(z))`` where z is x
    routed through the transport map when one is attached."""
    x = check_covariates("x", x)
    z = apply_map(m.adapter, x) if isinstance(m.adapter, AffineMap) else x
    center = np.asarray(m.mean_model.predict(z), dtype=np.float64).ravel()
    f = np.vecdot(m.bank.evaluate(z), m.shape.alpha)
    half = np.sqrt(m.shrink.lambda_hat * _lift(f, m.floor, m.alg2_delta))
    return IntervalBatch(center - half, center + half, center)


def diagnose(m: PiModel) -> dict:
    """Calibration diagnostics as a flat JSON-ready mapping: the shrink
    result's fields and the hold-out violation. Warns when the shrink level
    exceeds one, i.e. the calibration step had to widen the fitted shape."""
    if m.shrink.lambda_exceeds_one:
        warnings.warn(
            f"shrink level {m.shrink.lambda_hat:.4g} exceeds 1; the shape is being widened",
            ShrinkExceedsOneWarning, stacklevel=2)
    return {**asdict(m.shrink), "holdout_violation": m.holdout_violation}


def _known_weights(weight_fn, x: np.ndarray) -> np.ndarray:
    w = check_nonnegative("weight_fn", weight_fn(x), x.shape[0])
    if not w.sum() > 0:
        raise ConfigError("weight_fn: weights must not all be 0")
    return w


@dataclass(frozen=True)
class _Blocks:
    """The fitted mean and bank, their evaluations on D21, and D22's rows and residuals."""

    mean_model: object
    bank: CandidateBank
    x1: np.ndarray
    x21: np.ndarray
    phi21: np.ndarray
    r2_21: np.ndarray
    x22: np.ndarray
    r2_22: np.ndarray

    def model(self, shape: ShapeModel, adapter, alpha_level: float, floor: float,
              alg2_delta: float, shrink) -> PiModel:
        """Both algorithms' tail: ``shape`` evaluated on D22 as f22, calibrated
        there by ``shrink(f22)``, and the hold-out violation of its band there."""
        f22 = np.vecdot(self.bank.evaluate(self.x22), shape.alpha)
        s = shrink(f22)
        bound = s.lambda_hat * _lift(f22, floor, alg2_delta)
        return PiModel(shape, self.bank, self.mean_model, s, alpha_level, adapter, alg2_delta,
                       floor, float(np.mean(_violates(self.r2_22, bound, alg2_delta))))


def _fit_pipeline(source: DataTable, tx, specs, fractions, seed: int, mean_method: str) -> _Blocks:
    """The three-block plan of both algorithms up to the shape LP: check the
    source against the target covariates ``tx`` (or None), split the source,
    fit the mean and the candidates on D1, and evaluate the bank on D21."""
    if source.y is None:
        raise PiaggError("source: needs a labeled table")
    if tx is not None and tx.shape[1] != source.d:
        raise DimensionMismatch("source and target dimension differ")
    d1, d21, d22 = split(source, SplitSpec(fractions, seed))
    mean_model = fit_mean(d1, mean_method)
    bank = fit_candidate_set(d1, residuals(d1, mean_model), specs)
    return _Blocks(mean_model, bank, d1.x, d21.x, bank.evaluate(d21.x),
                   residuals(d21, mean_model), d22.x, residuals(d22, mean_model))


def fit_covariate_shift(source: DataTable, target_x, alpha_level: float, *,
                        specs: list[CandidateSpec] | None = None,
                        fractions: tuple[float, float, float] = (0.5, 0.25, 0.25),
                        seed: int = 0, mode: str = "exact",
                        delta: float | None = None, epsilon: float | None = None,
                        support_threshold: float = 0.0, mean_method: str = "ols",
                        prob_clip: float = 1e-6, ratio_cap: float = 1e3,
                        weight_fn=None) -> PiModel:
    """Full reweighting pipeline: fit nuisances on the first block, the
    shape LP on the second (with target covariates in the objective), and
    the shrink level on the third, flooring the shape at 1e-9 * max(1, max r2).

    ``weight_fn`` replaces the fitted density ratio with a known one
    (a callable on covariate matrices); the fitted classifier is skipped
    entirely in that case. Target labels, if present, are ignored.
    """
    tx = check_covariates("target_x", target_x)
    check_args(alpha_level=alpha_level, specs=specs, fractions=fractions, mode=mode,
               delta=delta, epsilon=epsilon, support_threshold=support_threshold,
               mean_method=mean_method, prob_clip=prob_clip, ratio_cap=ratio_cap)
    b = _fit_pipeline(source, tx, specs, fractions, seed, mean_method)
    adapter = None if weight_fn is not None else fit_density_ratio(
        b.x1, tx, prob_clip=prob_clip, ratio_cap=ratio_cap)
    w21, w22 = (_known_weights(weight_fn, x) if adapter is None else eval_ratio(adapter, x)
                for x in (b.x21, b.x22))
    shape = fit_shape_cov_shift(b.phi21, b.r2_21, w21, b.bank.evaluate(tx), mode=mode,
                                delta=delta, epsilon=epsilon,
                                support_threshold=support_threshold)
    floor = 1e-9 * max(float(np.max(b.r2_22, initial=0.0)), 1.0)
    return b.model(shape, adapter, alpha_level, floor, 0.0,
                   lambda f22: shrink_cov_shift(f22, b.r2_22, w22, alpha_level, floor=floor))


def fit_transport(source: DataTable, target_x=None, alpha_level: float = 0.05, *,
                  specs: list[CandidateSpec] | None = None,
                  fractions: tuple[float, float, float] = (0.5, 0.25, 0.25),
                  seed: int = 0, transport_mode: str = "gaussian_ot",
                  cov_ridge: float = 0.0, alg2_delta: float | None = None,
                  transport_map: AffineMap | None = None,
                  mean_method: str = "ols") -> PiModel:
    """Transport pipeline: build the band on the source alone, then carry
    it to the target through an affine map fitted from target covariates
    to the first source block (or a map supplied directly).

    With no target covariates and no explicit map this degenerates to the
    unshifted source pipeline whose intervals are used as-is.
    """
    tx = None if target_x is None else check_covariates("target_x", target_x)
    check_args(alpha_level=alpha_level, specs=specs, fractions=fractions,
               transport_mode=transport_mode, cov_ridge=cov_ridge, alg2_delta=alg2_delta,
               mean_method=mean_method)
    if not isinstance(transport_map, (AffineMap, type(None))):
        raise ConfigError("transport_map: must be null or an AffineMap")
    if transport_map is not None and transport_map.b.shape[0] != source.d:
        raise DimensionMismatch(f"transport_map: needs dimension {source.d}, the source's")
    b = _fit_pipeline(source, tx, specs, fractions, seed, mean_method)
    adapter = transport_map
    if adapter is None and tx is not None:
        adapter = fit_affine_transport(tx, b.x1, mode=transport_mode, cov_ridge=cov_ridge)
    shape = fit_shape_source(b.phi21, b.r2_21)
    if alg2_delta is None:
        alg2_delta = max(0.01 * float(np.quantile(b.r2_21, 0.9)), 1e-12)
    return b.model(shape, adapter, alpha_level, 0.0, alg2_delta,
                   lambda f22: shrink_source(f22, b.r2_22, alpha_level, alg2_delta))


# ---------------------------------------------------------------------------
# Serialization. Plain JSON with full-precision floats: Python's float repr
# round-trips bit-exactly, so saving and loading preserves every real field.
# ---------------------------------------------------------------------------

def _mean_model_state(model) -> dict:
    if isinstance(model, LinearModel):
        return {"kind": "ols", "coefficients": model.coefficients.tolist()}
    if isinstance(model, KnnMean):
        return {"kind": "knn", **state_dict(model)}
    raise PiaggError(f"cannot serialize mean model {type(model).__name__}")


def _mean_model_from_state(d: dict):
    state = dict(d)
    kind = state.pop("kind")
    if kind == "ols":
        return LinearModel(state["coefficients"], "ols_mean")
    if kind == "knn":
        return KnnMean(**state)
    raise ConfigError(f"unknown mean model kind '{kind}'")


def _adapter_state(adapter) -> tuple[str, dict | None]:
    if adapter is None:
        return "none", None
    if isinstance(adapter, DensityRatioModel):
        return "ratio", {
            "coefficients": adapter.classifier.coefficients.tolist(),
            "n_source": adapter.n_source, "n_target": adapter.n_target,
            "prob_clip": adapter.prob_clip, "ratio_cap": adapter.ratio_cap}
    if isinstance(adapter, AffineMap):
        return "map", state_dict(adapter)
    raise PiaggError(f"cannot serialize adapter {type(adapter).__name__}")


def _adapter_from_state(kind: str, d: dict | None):
    if kind == "none":
        return None
    if kind == "ratio":
        clf = LinearModel(d["coefficients"], "logistic")
        return DensityRatioModel(clf, d["n_source"], d["n_target"],
                                 d["prob_clip"], d["ratio_cap"])
    if kind == "map":
        return AffineMap(**d)
    raise ConfigError(f"unknown adapter kind '{kind}'")


def model_to_dict(m: PiModel) -> dict:
    adapter_kind, adapter_state = _adapter_state(m.adapter)
    return {
        "format": "piagg-model-v1",
        "alpha_level": m.alpha_level,
        "mode": m.shape.mode,
        "alpha": m.shape.alpha.tolist(),
        "shape_objective": m.shape.objective_value,
        "delta": m.shape.delta,
        "epsilon": m.shape.epsilon,
        "support_threshold": m.shape.support_threshold,
        "lambda_hat": m.shrink.lambda_hat,
        "achieved_violation": m.shrink.achieved_violation,
        "lambda_exceeds_one": m.shrink.lambda_exceeds_one,
        "holdout_violation": m.holdout_violation,
        "floor": m.floor,
        "alg2_delta": m.alg2_delta,
        "mean_model": _mean_model_state(m.mean_model),
        "bank": m.bank.to_state(),
        "adapter_kind": adapter_kind,
        "adapter": adapter_state,
    }


def model_from_dict(d: dict) -> PiModel:
    """Rebuild a fitted model from its document; a missing or malformed
    field raises ConfigError naming the field or section."""
    if not isinstance(d, dict) or d.get("format") != "piagg-model-v1":
        raise ConfigError("model.format: not a recognized model document")
    section = "model"
    try:
        shape = ShapeModel(np.asarray(d["alpha"], float), d["mode"], d["delta"],
                           d["epsilon"], d["support_threshold"], d["shape_objective"])
        shrink = ShrinkResult(d["lambda_hat"], d["achieved_violation"],
                              d["lambda_exceeds_one"])
        bank_state, mean_state = d["bank"], d["mean_model"]
        adapter_state = d["adapter_kind"], d["adapter"]
        section = "model.bank"
        bank = CandidateBank.from_state(bank_state)
        section = "model.mean_model"
        mean_model = _mean_model_from_state(mean_state)
        section = "model.adapter"
        adapter = _adapter_from_state(*adapter_state)
        section = "model"
        return PiModel(shape, bank, mean_model, shrink, d["alpha_level"], adapter,
                       d["alg2_delta"], d["floor"], d["holdout_violation"])
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        if section == "model" and isinstance(exc, KeyError):
            raise ConfigError(f"model.{exc.args[0]}: missing required field") from None
        if section == "model" and isinstance(exc, ConfigError):  # "<field>: must ..."
            raise ConfigError(f"model.{exc}") from None
        raise ConfigError(f"{section}: malformed ({type(exc).__name__}: {exc})") from exc


def save_model(m: PiModel, path: str) -> None:
    with open(path, "w") as fh:  # dumps runs the C encoder; dump, the Python one
        fh.write(json.dumps(model_to_dict(m)))


def read_json(path: str, name: str):
    """The JSON document in the file ``path``; ConfigError("<name>: …") if it holds none."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{name}: not a JSON document ({exc})") from exc


def load_model(path: str) -> PiModel:
    return model_from_dict(read_json(path, "model"))
