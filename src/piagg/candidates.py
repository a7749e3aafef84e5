"""Candidate interval-width functions and the fitted bank that holds them.

Each candidate maps covariates to a nonnegative squared-scale width
estimate; the aggregation step searches the nonnegative span of the
fitted bank. Five families are provided: the constant one, k-NN residual
quantiles, Nadaraya-Watson residual smoothing, linear quantile fits of
the squared residuals, and equal-frequency binned quantiles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import DataTable
from .errors import DimensionMismatch, EmptyBin, PiaggError
from .numerics import LinearModel, ols_fit, quantile_reg_fit, weighted_quantile

KINDS = ("constant_one", "knn_quantile", "kernel_variance",
         "linear_quantile_sq", "binned_quantile")


@dataclass(frozen=True)
class CandidateSpec:
    """Declarative description of one candidate; only the parameters the
    kind uses are meaningful.

    A ``bandwidth`` of None means the normal-reference rule at fit time.
    """

    kind: str
    k: int | None = None
    tau: float | None = None
    bandwidth: float | None = None
    bins: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown candidate kind '{self.kind}'")
        if self.kind in ("knn_quantile",) and (self.k is None or self.k < 1):
            raise ValueError("knn_quantile needs k >= 1")
        if self.kind in ("knn_quantile", "linear_quantile_sq", "binned_quantile"):
            if self.tau is None or not 0.0 < self.tau < 1.0:
                raise ValueError(f"{self.kind} needs tau in (0, 1)")
        if self.kind == "kernel_variance" and self.bandwidth is not None and self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.kind == "binned_quantile" and (self.bins is None or self.bins < 1):
            raise ValueError("binned_quantile needs bins >= 1")

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        for name in ("k", "tau", "bandwidth", "bins"):
            v = getattr(self, name)
            if v is not None:
                out[name] = v
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "CandidateSpec":
        return cls(**d)


def default_bank_specs() -> list[CandidateSpec]:
    """Six-candidate bank mixing quantile-flavored, smoothing-flavored,
    and constant members."""
    return [
        CandidateSpec("constant_one"),
        CandidateSpec("linear_quantile_sq", tau=0.85),
        CandidateSpec("linear_quantile_sq", tau=0.95),
        CandidateSpec("knn_quantile", k=50, tau=0.9),
        CandidateSpec("binned_quantile", bins=8, tau=0.9),
        CandidateSpec("kernel_variance"),
    ]


@dataclass(frozen=True)
class KnnMean:
    """k-nearest-neighbor regression mean, ties broken by row index."""

    train_x: np.ndarray
    train_y: np.ndarray
    k: int

    def predict(self, x: np.ndarray) -> np.ndarray:
        idx = _knn_indices(self.train_x, np.atleast_2d(np.asarray(x, float)), self.k)
        return self.train_y[idx].mean(axis=1)


def fit_mean(train: DataTable, method: str = "ols", k: int = 10):
    """Fit the conditional-mean predictor on a labeled table."""
    if train.y is None:
        raise PiaggError("fit_mean needs a labeled table")
    if method == "ols":
        return ols_fit(train.x, train.y)
    if method == "knn":
        return KnnMean(train.x.copy(), train.y.copy(), min(k, train.n))
    raise ValueError(f"unknown mean method '{method}'")


def residuals(train: DataTable, mean_model) -> np.ndarray:
    """Elementwise squared residuals of the mean model on the table."""
    if train.y is None:
        raise PiaggError("residuals need a labeled table")
    pred = np.asarray(mean_model.predict(train.x), dtype=np.float64).ravel()
    return (train.y - pred) ** 2


def check_squared_residuals(r2, n_rows: int) -> np.ndarray:
    """``r2`` as a float vector of ``n_rows`` nonnegative entries."""
    r2 = np.asarray(r2, dtype=np.float64).ravel()
    if r2.shape[0] != n_rows:
        raise DimensionMismatch(f"r2: {r2.shape[0]} squared residuals for {n_rows} rows")
    if np.any(r2 < 0):
        raise PiaggError("r2: squared residuals must be nonnegative")
    return r2


def _sq_distances(x: np.ndarray, train_x: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances; the expanded quadratic form
    pays off once there is more than one coordinate."""
    if x.shape[1] != train_x.shape[1]:
        raise DimensionMismatch("covariate dimension does not match training data")
    if x.shape[1] == 1:
        return (x[:, 0][:, None] - train_x[:, 0][None, :]) ** 2
    d2 = ((x ** 2).sum(axis=1)[:, None] + (train_x ** 2).sum(axis=1)[None, :]
          - 2.0 * (x @ train_x.T))
    return np.maximum(d2, 0.0)


# entries per block of pairwise distances: evaluation rows go in blocks of
# _ENTRIES // n_train, so each block's temporaries stay cache-sized
# (256 KB of float64) whatever the size of the training block
_ENTRIES = 2 ** 15


def _row_blocks(n_rows: int, n_train: int):
    step = max(1, _ENTRIES // n_train)
    return (slice(start, start + step) for start in range(0, n_rows, step))


def _knn_indices_block(d2: np.ndarray, k: int) -> np.ndarray:
    n_train = d2.shape[1]
    if k >= n_train:
        return np.argsort(d2, axis=1, kind="stable")[:, :k]
    part = np.argpartition(d2, k - 1, axis=1)[:, :k]
    rows = np.arange(d2.shape[0])[:, None]
    kth = d2[rows, part].max(axis=1)
    # distance ties straddling the selection boundary get the exact rule:
    # lowest original index wins
    tie_rows = np.nonzero((d2 <= kth[:, None]).sum(axis=1) > k)[0]
    for i in tie_rows:
        part[i] = np.argsort(d2[i], kind="stable")[:k]
    return part


def _knn_indices(train_x: np.ndarray, x: np.ndarray, k: int) -> np.ndarray:
    k = min(k, train_x.shape[0])
    out = np.empty((x.shape[0], k), dtype=np.int64)
    for rows in _row_blocks(x.shape[0], train_x.shape[0]):
        out[rows] = _knn_indices_block(_sq_distances(x[rows], train_x), k)
    return out


def _equal_weight_quantile_rows(values: np.ndarray, tau: float) -> np.ndarray:
    """Row-wise left-continuous quantile at level tau, matching
    ``weighted_quantile`` with unit weights exactly."""
    k = values.shape[1]
    cum = np.arange(1.0, k + 1.0)
    idx = int(np.searchsorted(cum, tau * float(k), side="left"))
    idx = min(idx, k - 1)
    return np.sort(values, axis=1)[:, idx]


def _normal_reference_bandwidth(train_x: np.ndarray) -> float:
    n, d = train_x.shape
    sd = train_x.std(axis=0, ddof=1) if n > 1 else np.ones(d)
    sd = np.maximum(sd, 1e-12)
    factor = (4.0 / ((d + 2.0) * n)) ** (1.0 / (d + 4.0))
    return float(np.mean(sd) * factor)


class _FittedCandidate:
    kind: str

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def to_state(self) -> dict:
        raise NotImplementedError


class _ConstantOne(_FittedCandidate):
    kind = "constant_one"

    def evaluate(self, x):
        return np.ones(np.atleast_2d(x).shape[0])

    def to_state(self):
        return {}


class _KnnQuantile(_FittedCandidate):
    kind = "knn_quantile"

    def __init__(self, train_x, r2, k, tau):
        self.train_x = train_x
        self.r2 = r2
        self.k = min(int(k), train_x.shape[0])
        self.tau = float(tau)

    def evaluate(self, x):
        x = np.atleast_2d(np.asarray(x, float))
        if self.k >= self.train_x.shape[0]:
            # every point shares the full neighbor set
            if x.shape[1] != self.train_x.shape[1]:
                raise DimensionMismatch("covariate dimension does not match training data")
            value = _equal_weight_quantile_rows(self.r2[None, :], self.tau)[0]
            return np.full(x.shape[0], value)
        out = np.empty(x.shape[0])
        for rows in _row_blocks(x.shape[0], self.train_x.shape[0]):
            idx = _knn_indices_block(_sq_distances(x[rows], self.train_x), self.k)
            out[rows] = _equal_weight_quantile_rows(self.r2[idx], self.tau)
        return out

    def to_state(self):
        return {"train_x": self.train_x.tolist(), "r2": self.r2.tolist(),
                "k": self.k, "tau": self.tau}


class KernelVariance(_FittedCandidate):
    """Gaussian-kernel (Nadaraya-Watson) smoother of the squared residuals."""

    kind = "kernel_variance"

    def __init__(self, train_x, r2, bandwidth):
        self.train_x = train_x
        self.r2 = r2
        self.bandwidth = float(bandwidth)

    def evaluate(self, x):
        x = np.atleast_2d(np.asarray(x, float))
        out = np.empty(x.shape[0])
        for rows in _row_blocks(x.shape[0], self.train_x.shape[0]):
            logk = -0.5 * _sq_distances(x[rows], self.train_x) / self.bandwidth ** 2
            logk -= logk.max(axis=1, keepdims=True)
            w = np.exp(logk)
            # one dot product per row, not w @ r2: a matrix-vector product sums
            # a row in an order that depends on the row's place in the block
            out[rows] = np.vecdot(w, self.r2) / w.sum(axis=1)
        return out

    def to_state(self):
        return {"train_x": self.train_x.tolist(), "r2": self.r2.tolist(),
                "bandwidth": self.bandwidth}


class _LinearQuantileSq(_FittedCandidate):
    kind = "linear_quantile_sq"

    def __init__(self, model: LinearModel):
        self.model = model

    def evaluate(self, x):
        return np.maximum(self.model.predict(x), 0.0)

    def to_state(self):
        return {"coefficients": self.model.coefficients.tolist(), "tau": self.model.tau}


class _BinnedQuantile(_FittedCandidate):
    kind = "binned_quantile"

    def __init__(self, edges, values):
        self.edges = np.asarray(edges, dtype=np.float64)
        self.values = np.asarray(values, dtype=np.float64)

    def evaluate(self, x):
        x0 = np.atleast_2d(np.asarray(x, float))[:, 0]
        idx = np.searchsorted(self.edges, x0, side="right")
        return self.values[np.clip(idx, 0, len(self.values) - 1)]

    def to_state(self):
        return {"edges": self.edges.tolist(), "values": self.values.tolist()}


def _fit_candidate(spec: CandidateSpec, train_x: np.ndarray, r2: np.ndarray) -> _FittedCandidate:
    if spec.kind == "constant_one":
        return _ConstantOne()
    if spec.kind == "knn_quantile":
        return _KnnQuantile(train_x.copy(), r2.copy(), spec.k, spec.tau)
    if spec.kind == "kernel_variance":
        h = spec.bandwidth if spec.bandwidth is not None else _normal_reference_bandwidth(train_x)
        return KernelVariance(train_x.copy(), r2.copy(), h)
    if spec.kind == "linear_quantile_sq":
        return _LinearQuantileSq(quantile_reg_fit(train_x, r2, spec.tau))
    if spec.kind == "binned_quantile":
        x0 = train_x[:, 0]
        qs = np.quantile(x0, np.linspace(0, 1, spec.bins + 1)[1:-1]) if spec.bins > 1 else np.array([])
        idx = np.searchsorted(qs, x0, side="right")
        values = []
        for b in range(spec.bins):
            in_bin = r2[idx == b]
            if in_bin.size == 0:
                raise EmptyBin(f"bin {b} of {spec.bins} received no training rows")
            values.append(weighted_quantile(in_bin, np.ones(in_bin.size), spec.tau))
        return _BinnedQuantile(qs, values)
    raise ValueError(f"unknown candidate kind '{spec.kind}'")


def _candidate_from_state(kind: str, state: dict) -> _FittedCandidate:
    if kind == "constant_one":
        return _ConstantOne()
    if kind == "knn_quantile":
        return _KnnQuantile(np.asarray(state["train_x"], float), np.asarray(state["r2"], float),
                            state["k"], state["tau"])
    if kind == "kernel_variance":
        return KernelVariance(np.asarray(state["train_x"], float),
                              np.asarray(state["r2"], float), state["bandwidth"])
    if kind == "linear_quantile_sq":
        model = LinearModel(np.asarray(state["coefficients"], float), "quantile",
                            tau=state["tau"])
        return _LinearQuantileSq(model)
    if kind == "binned_quantile":
        return _BinnedQuantile(state["edges"], state["values"])
    raise ValueError(f"unknown candidate kind '{kind}'")


@dataclass(frozen=True)
class CandidateBank:
    """Fitted candidates; ``evaluate`` gives one nonnegative column per
    candidate. Built by ``fit_candidate_set`` or ``from_state``."""

    specs: list[CandidateSpec]
    fitted: list[_FittedCandidate]

    @property
    def n_candidates(self) -> int:
        return len(self.specs)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        cols = [cand.evaluate(x) for cand in self.fitted]
        return np.column_stack(cols)

    def to_state(self) -> dict:
        return {"specs": [s.to_dict() for s in self.specs],
                "state": [c.to_state() for c in self.fitted]}

    @classmethod
    def from_state(cls, d: dict) -> "CandidateBank":
        specs = [CandidateSpec.from_dict(s) for s in d["specs"]]
        fitted = [_candidate_from_state(s.kind, st) for s, st in zip(specs, d["state"])]
        return cls(specs, fitted)


def fit_candidate_set(train: DataTable, r2: np.ndarray,
                      specs: list[CandidateSpec]) -> CandidateBank:
    """Fit every candidate on the table's covariates and the squared
    residuals ``r2`` of its rows."""
    if not specs:
        raise ValueError("specs must be non-empty")
    if train.y is None:
        raise PiaggError("fit_candidate_set needs a labeled table")
    r2 = check_squared_residuals(r2, train.n)
    return CandidateBank(list(specs), [_fit_candidate(spec, train.x, r2) for spec in specs])
