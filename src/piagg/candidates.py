"""Candidate interval-width functions and the fitted bank that holds them.

Each candidate maps covariates to a nonnegative squared-scale width
estimate; the aggregation step searches the nonnegative span of the
fitted bank. Five families are provided: the constant one, k-NN residual
quantiles, Nadaraya-Watson residual smoothing, linear quantile fits of
the squared residuals, and equal-frequency binned quantiles.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields

import numpy as np
from scipy.spatial.distance import cdist

from .dataset import DataTable
from .errors import DimensionMismatch, EmptyBin, PiaggError
from .numerics import LinearModel, ols_fit, quantile_reg_fit


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
        for name in ("k", "bins"):  # counts: a float such as 2.5 is a TypeError
            if getattr(self, name) is not None:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
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


def state_dict(obj) -> dict:
    """The fields of a state dataclass in declaration order, arrays as
    nested lists: the JSON form that ``type(obj)(**state)`` reads back."""
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        out[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
    return out


def _set_training_rows(obj, values: str) -> None:
    """Store ``train_x`` and the per-row field ``values`` of a frozen state
    dataclass as float arrays, checked to align row for row."""
    train_x = np.asarray(obj.train_x, dtype=np.float64)
    v = np.asarray(getattr(obj, values), dtype=np.float64)
    if (train_x.ndim != 2 or train_x.shape[0] == 0 or v.shape != (train_x.shape[0],)
            or not np.all(np.isfinite(train_x))):
        raise ValueError(f"{values}: needs one entry per row of a non-empty, finite train_x")
    object.__setattr__(obj, "train_x", train_x)
    object.__setattr__(obj, values, v)


def _set_neighbour_count(obj) -> None:
    k = operator.index(obj.k)
    if not 1 <= k <= obj.train_x.shape[0]:
        raise ValueError(f"k: must lie in [1, {obj.train_x.shape[0]}], got {k}")
    object.__setattr__(obj, "k", k)


@dataclass(frozen=True)
class KnnMean:
    """k-nearest-neighbor regression mean, ties broken by row index."""

    train_x: np.ndarray
    train_y: np.ndarray
    k: int

    def __post_init__(self):
        _set_training_rows(self, "train_y")
        _set_neighbour_count(self)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return _by_distance_block(
            x, self.train_x, lambda d2: self.train_y[_knn_indices_block(d2, self.k)].mean(axis=1))


MEAN_METHODS = ("ols", "knn")


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


# entries per block of pairwise distances: evaluation rows go in blocks of
# _ENTRIES // n_train, so each block's temporaries stay cache-sized
# (256 KB of float64) whatever the size of the training block
_ENTRIES = 2 ** 15


def _by_distance_block(x, train_x: np.ndarray, row_fn) -> np.ndarray:
    """``row_fn(d2)`` over blocks of evaluation rows, stacked into one
    vector; ``d2`` holds a block's squared Euclidean distances to every
    training row. Each row's distances are computed on their own (a
    broadcast difference in 1-d, where it is faster, SciPy's ``cdist``
    otherwise), so a row's value does not depend on the rows evaluated
    with it."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != train_x.shape[1]:
        raise DimensionMismatch("covariate dimension does not match training data")
    out = np.empty(x.shape[0])
    step = max(1, _ENTRIES // train_x.shape[0])
    for start in range(0, x.shape[0], step):
        rows = x[start:start + step]
        if x.shape[1] == 1:
            d2 = (rows[:, 0][:, None] - train_x[:, 0][None, :]) ** 2
        else:
            d2 = cdist(rows, train_x, "sqeuclidean")
        out[start:start + step] = row_fn(d2)
    return out


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


def _window_knn_block(x0: np.ndarray, order: np.ndarray, sorted_x: np.ndarray,
                      k: int) -> tuple[np.ndarray, np.ndarray]:
    """Original indices of the k nearest training rows of the 1-d queries
    ``x0`` by (d², index), searched among the W = min(2k + 2, n) rows of the
    stably sorted training column ``sorted_x`` (order ``order``) from k + 1
    rows before each query's ``searchsorted`` position; and a mask of the
    rows whose answer this proves. Rows beyond a window edge are at least
    as far as that edge, so a finite query is proven when its k-th d² is
    below each edge that is not an end of the array: always, unless
    distances tie, as the k nearest lie within k rows on either side."""
    n = sorted_x.shape[0]
    w = min(2 * k + 2, n)
    start = np.clip(np.searchsorted(sorted_x, x0) - k - 1, 0, n - w)
    pos = start[:, None] + np.arange(w)
    d2 = (x0[:, None] - sorted_x[pos]) ** 2
    part = np.argpartition(d2, k - 1, axis=1)[:, :k]
    kth = np.take_along_axis(d2, part, axis=1).max(axis=1)
    proven = (np.isfinite(x0) & ((start == 0) | (kth < d2[:, 0]))
              & ((start + w == n) | (kth < d2[:, -1])))
    index = order[pos]
    # distance ties straddling the selection boundary: lowest index wins
    tie = (d2 <= kth[:, None]).sum(axis=1) > k
    part[tie] = np.lexsort((index[tie], d2[tie]), axis=-1)[:, :k]
    return np.take_along_axis(index, part, axis=1), proven


def _equal_weight_quantile_rows(values: np.ndarray, tau: float) -> np.ndarray:
    """Row-wise left-continuous quantile at level tau, matching
    ``weighted_quantile`` with unit weights exactly; the partition picks
    the same entry as a full sort."""
    k = values.shape[1]
    cum = np.arange(1.0, k + 1.0)
    idx = int(np.searchsorted(cum, tau * float(k), side="left"))
    idx = min(idx, k - 1)
    return np.partition(values, idx, axis=1)[:, idx]


def _normal_reference_bandwidth(train_x: np.ndarray) -> float:
    n, d = train_x.shape
    sd = train_x.std(axis=0, ddof=1) if n > 1 else np.ones(d)
    sd = np.maximum(sd, 1e-12)
    factor = (4.0 / ((d + 2.0) * n)) ** (1.0 / (d + 4.0))
    return float(np.mean(sd) * factor)


# Fitted candidates: frozen dataclasses whose fields are exactly their
# saved state, so ``state_dict`` writes them and ``cls(**state)`` reads
# them back; ``__post_init__`` coerces and checks that state.

@dataclass(frozen=True)
class _ConstantOne:
    def evaluate(self, x):
        return np.ones(np.atleast_2d(x).shape[0])


@dataclass(frozen=True)
class _KnnQuantile:
    train_x: np.ndarray
    r2: np.ndarray
    k: int
    tau: float

    def __post_init__(self):
        _set_training_rows(self, "r2")
        _set_neighbour_count(self)
        object.__setattr__(self, "tau", float(self.tau))

    def evaluate(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        out = np.empty(x.shape[0])
        proven = np.zeros(x.shape[0], dtype=bool)
        if x.shape[1] == self.train_x.shape[1] == 1:
            # sorted on each call, so the saved state stays piagg-model-v1
            order = np.argsort(self.train_x[:, 0], kind="stable")
            sorted_x = self.train_x[order, 0]
            step = max(1, _ENTRIES // (2 * self.k + 2))
            for start in range(0, x.shape[0], step):
                rows = slice(start, start + step)
                nearest, proven[rows] = _window_knn_block(x[rows, 0], order, sorted_x, self.k)
                out[rows] = _equal_weight_quantile_rows(self.r2[nearest], self.tau)
        out[~proven] = _by_distance_block(x[~proven], self.train_x, lambda d2: (
            _equal_weight_quantile_rows(self.r2[_knn_indices_block(d2, self.k)], self.tau)))
        return out


@dataclass(frozen=True)
class KernelVariance:
    """Gaussian-kernel (Nadaraya-Watson) smoother of the squared residuals."""

    train_x: np.ndarray
    r2: np.ndarray
    bandwidth: float

    def __post_init__(self):
        _set_training_rows(self, "r2")
        h = float(self.bandwidth)
        if not (np.isfinite(h) and h > 0):
            raise ValueError(f"bandwidth: must be finite and positive, got {h}")
        object.__setattr__(self, "bandwidth", h)

    def evaluate(self, x):
        return _by_distance_block(x, self.train_x, self._smooth)

    def _smooth(self, d2):
        logk = -0.5 * d2 / self.bandwidth ** 2
        logk -= logk.max(axis=1, keepdims=True)
        w = np.exp(logk)
        # one dot product per row, not w @ r2: a matrix-vector product sums
        # a row in an order that depends on the row's place in the block
        return np.vecdot(w, self.r2) / w.sum(axis=1)


@dataclass(frozen=True)
class _LinearQuantileSq:
    coefficients: np.ndarray
    tau: float

    def __post_init__(self):
        object.__setattr__(self, "coefficients",
                           np.asarray(self.coefficients, dtype=np.float64))
        object.__setattr__(self, "tau", float(self.tau))

    def evaluate(self, x):
        return np.maximum(LinearModel(self.coefficients, "quantile", self.tau).predict(x), 0.0)


@dataclass(frozen=True)
class _BinnedQuantile:
    """Per-bin residual quantiles over bins of the first covariate column;
    in d > 1 the other columns are ignored."""

    edges: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        if edges.ndim != 1 or values.shape != (edges.shape[0] + 1,):
            raise ValueError("values: needs one entry more than edges")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "values", values)

    def evaluate(self, x):
        x0 = np.atleast_2d(np.asarray(x, float))[:, 0]
        idx = np.searchsorted(self.edges, x0, side="right")
        return self.values[np.clip(idx, 0, len(self.values) - 1)]


_FITTED = {"constant_one": _ConstantOne, "knn_quantile": _KnnQuantile,
           "kernel_variance": KernelVariance, "linear_quantile_sq": _LinearQuantileSq,
           "binned_quantile": _BinnedQuantile}
KINDS = tuple(_FITTED)


def _fit_candidate(spec: CandidateSpec, train_x: np.ndarray, r2: np.ndarray):
    if spec.kind == "constant_one":
        return _ConstantOne()
    if spec.kind == "knn_quantile":
        return _KnnQuantile(train_x.copy(), r2.copy(), min(spec.k, train_x.shape[0]), spec.tau)
    if spec.kind == "kernel_variance":
        h = spec.bandwidth if spec.bandwidth is not None else _normal_reference_bandwidth(train_x)
        return KernelVariance(train_x.copy(), r2.copy(), h)
    if spec.kind == "linear_quantile_sq":
        model = quantile_reg_fit(train_x, r2, spec.tau)
        return _LinearQuantileSq(model.coefficients, model.tau)
    x0 = train_x[:, 0]
    qs = np.quantile(x0, np.linspace(0, 1, spec.bins + 1)[1:-1]) if spec.bins > 1 else np.array([])
    idx = np.searchsorted(qs, x0, side="right")
    values = []
    for b in range(spec.bins):
        in_bin = r2[idx == b]
        if in_bin.size == 0:
            raise EmptyBin(f"bin {b} of {spec.bins} received no training rows")
        values.append(_equal_weight_quantile_rows(in_bin[None, :], spec.tau)[0])
    return _BinnedQuantile(qs, values)


@dataclass(frozen=True)
class CandidateBank:
    """Fitted candidates; ``evaluate`` gives one nonnegative column per
    candidate. Built by ``fit_candidate_set`` or ``from_state``."""

    specs: list[CandidateSpec]
    fitted: list  # one fitted candidate per spec, of the spec's kind

    @property
    def n_candidates(self) -> int:
        return len(self.specs)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        cols = [cand.evaluate(x) for cand in self.fitted]
        return np.column_stack(cols)

    def to_state(self) -> dict:
        return {"specs": [s.to_dict() for s in self.specs],
                "state": [state_dict(c) for c in self.fitted]}

    @classmethod
    def from_state(cls, d: dict) -> "CandidateBank":
        specs = [CandidateSpec.from_dict(s) for s in d["specs"]]
        fitted = [_FITTED[s.kind](**st) for s, st in zip(specs, d["state"], strict=True)]
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
