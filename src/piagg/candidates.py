"""Candidate interval-width functions and the fitted bank that holds them.

Each candidate maps covariates to a nonnegative squared-scale width
estimate; the aggregation step searches the nonnegative span of the
fitted bank. Five families are provided: the constant one, k-NN residual
quantiles, Nadaraya-Watson residual smoothing, linear quantile fits of
the squared residuals, and equal-frequency binned quantiles.
"""

from __future__ import annotations

import contextvars
import operator
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, fields

import numpy as np
from scipy.spatial.distance import cdist

from .dataset import DataTable, check_nonnegative, check_rows
from .errors import ConfigError, DimensionMismatch, EmptyBin, PiaggError, check_args
from .numerics import LinearModel, ols_fit, quantile_reg_fit


@dataclass(frozen=True)
class CandidateSpec:
    """Declarative description of one candidate; a parameter its kind does
    not use must be left None.

    A ``bandwidth`` of None means the normal-reference rule at fit time.
    """

    kind: str
    k: int | None = None
    tau: float | None = None
    bandwidth: float | None = None
    bins: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"kind: must be one of {KINDS}, got {self.kind!r}")
        used = {"knn_quantile": ("k", "tau"), "kernel_variance": ("bandwidth",),
                "linear_quantile_sq": ("tau",),
                "binned_quantile": ("bins", "tau")}.get(self.kind, ())
        for name in ("k", "tau", "bandwidth", "bins"):
            if name not in used and getattr(self, name) is not None:
                raise ConfigError(f"{name}: not a parameter of {self.kind}")
        check_args(**{name: getattr(self, name) for name in used})
        for name in {"k", "bins"}.intersection(used):  # stored as ints
            object.__setattr__(self, name, operator.index(getattr(self, name)))

    def to_dict(self) -> dict:
        return {name: v for name, v in state_dict(self).items() if v is not None}


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
    dataclass as float arrays, checked to be finite and to align row for row."""
    train_x = np.asarray(obj.train_x, dtype=np.float64)
    v = np.asarray(getattr(obj, values), dtype=np.float64)
    if (train_x.ndim != 2 or train_x.shape[0] == 0 or v.shape != (train_x.shape[0],)
            or not (np.all(np.isfinite(train_x)) and np.all(np.isfinite(v)))):
        raise ConfigError(f"{values}: must be finite, one per row of a non-empty, finite train_x")
    object.__setattr__(obj, "train_x", train_x)
    object.__setattr__(obj, values, v)


def _set_neighbour_count(obj) -> None:
    k = operator.index(obj.k)
    if not 1 <= k <= obj.train_x.shape[0]:
        raise ConfigError(f"k: must lie in [1, {obj.train_x.shape[0]}], got {k}")
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
        return _by_distance_block(check_rows(x), self.train_x, [self._from_d2])[:, 0]

    def _from_d2(self, d2):
        return self.train_y[_knn_indices_block(d2, self.k)].mean(axis=1)


def fit_mean(train: DataTable, method: str = "ols", k: int = 10):
    """Fit the conditional-mean predictor (``method`` 'ols' or 'knn') on a
    labeled table."""
    check_args(mean_method=method, k=k)
    if train.y is None:
        raise PiaggError("fit_mean needs a labeled table")
    if method == "ols":
        return ols_fit(train.x, train.y)
    return KnnMean(train.x.copy(), train.y.copy(), min(k, train.n))


def residuals(train: DataTable, mean_model) -> np.ndarray:
    """Elementwise squared residuals of the mean model on the table."""
    if train.y is None:
        raise PiaggError("residuals need a labeled table")
    pred = np.asarray(mean_model.predict(train.x), dtype=np.float64).ravel()
    return (train.y - pred) ** 2


# entries per block of pairwise distances: evaluation rows go in blocks of
# _ENTRIES // n_train (1 MB of float64). A 1-d kernel block holds this one
# array alone: with three, the allocator handed each back to the system, and
# the page faults cost more than the larger block saved in NumPy calls
_ENTRIES = 2 ** 17
_WORKERS = min(4, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)  # threads of a distance pass, the caller's included
_POOLS: dict[int, ThreadPoolExecutor] = {}  # by process id


def _in_shares(n_rows: int, step: int, block) -> None:
    """``block(rows)`` for each ``step``-row slice of ``range(n_rows)``, in one
    contiguous share per worker at two blocks or more per worker: the caller runs
    the first share, the pool the others, each in a copy of the caller's context
    (so ``np.errstate`` holds there), and the caller waits for all before it
    returns or re-raises. ``block`` writes only its rows and never calls back here."""
    n_blocks = -(-n_rows // step)
    n = _WORKERS if n_blocks >= 2 * _WORKERS else 1
    cuts = [step * (n_blocks * i // n) for i in range(n)] + [n_rows]
    def run(i):
        for start in range(cuts[i], cuts[i + 1], step):
            block(slice(start, start + step))
    pid = os.getpid()  # the pool is built at first use; a forked child finds none under its id
    if n > 1 and pid not in _POOLS:
        _POOLS.setdefault(pid, ThreadPoolExecutor(_WORKERS - 1))
    futures = [_POOLS[pid].submit(contextvars.copy_context().run, run, i) for i in range(1, n)]
    try:
        run(0)
    finally:
        wait(futures)
    for future in futures:
        future.result()


def _distinct_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The distinct rows of ``x``, told apart by their bytes (0.0 and -0.0
    differ), and the index of each row of ``x`` among them; ``(x, None)`` if
    no row repeats (a resampled target repeats rows). Every per-row value
    rests on its row alone (distances, ``np.vecdot`` products), in any batch."""
    first = np.sort(x[:, :1].view(np.int64), axis=0)  # cheaper than np.unique
    if not np.any(first[1:] == first[:-1]):
        return x, None
    keys = np.ascontiguousarray(x).view(np.dtype((np.void, x.itemsize * x.shape[1])))[:, 0]
    _, index, inverse = np.unique(keys, return_index=True, return_inverse=True)
    if index.shape[0] == x.shape[0]:
        return x, None
    return x[index], inverse.reshape(-1)  # NumPy 2.0 gives inverse the shape of keys


def _by_distance_block(x, train_x: np.ndarray, row_fns) -> np.ndarray:
    """One column per function of ``row_fns``: ``row_fn(d2)`` over blocks of
    evaluation rows, where ``d2`` holds a block's squared Euclidean
    distances to every training row, computed once for all the functions.
    Each row's distances are computed on their own (a broadcast difference
    in 1-d, where it is faster, SciPy's ``cdist`` otherwise), so a row's
    value does not depend on the rows evaluated with it. ``d2`` is a new
    array each block; only the last function may overwrite it."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != train_x.shape[1]:
        raise DimensionMismatch("covariate dimension does not match training data")
    x, inverse = _distinct_rows(x)
    out = np.empty((x.shape[0], len(row_fns)))
    def block(rows):
        if x.shape[1] == 1:
            d2 = np.subtract(x[rows, 0][:, None], train_x[:, 0][None, :])
            np.square(d2, out=d2)
        else:
            d2 = cdist(x[rows], train_x, "sqeuclidean")
        for j, row_fn in enumerate(row_fns):
            out[rows, j] = row_fn(d2)
    _in_shares(x.shape[0], max(1, _ENTRIES // train_x.shape[0]), block)
    return out if inverse is None else out[inverse]


def _k_nearest(d2: np.ndarray, index: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions in each row of ``d2`` of its k nearest entries by (d², index),
    and each row's k-th d². Only a row whose k-th place splits a distance tie
    is sorted; any other keeps the order of ``argpartition``, on which the
    kNN mean's summation order rests."""
    part = np.argpartition(d2, k - 1, axis=1)[:, :k]
    kth = np.take_along_axis(d2, part, axis=1).max(axis=1)
    tie = (d2 <= kth[:, None]).sum(axis=1) > k
    if tie.any():
        part[tie] = np.lexsort((np.broadcast_to(index, d2.shape)[tie], d2[tie]), axis=-1)[:, :k]
    return part, kth


def _knn_indices_block(d2: np.ndarray, k: int) -> np.ndarray:
    return _k_nearest(d2, np.arange(d2.shape[1]), k)[0]


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
    index = order[pos]
    part, kth = _k_nearest(d2, index, k)
    proven = (np.isfinite(x0) & ((start == 0) | (kth < d2[:, 0]))
              & ((start + w == n) | (kth < d2[:, -1])))
    return np.take_along_axis(index, part, axis=1), proven


def _equal_weight_quantile_rows(values: np.ndarray, tau: float) -> np.ndarray:
    """Row-wise left-continuous quantile at level tau, matching
    ``numerics.left_quantiles`` with unit weights exactly; the partition
    picks the same entry as a full sort."""
    k = values.shape[1]
    idx = min(int(np.searchsorted(np.arange(1.0, k + 1.0), tau * float(k), side="left")), k - 1)
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
        check_nonnegative("r2", self.r2)
        _set_neighbour_count(self)
        check_args(tau=self.tau)
        object.__setattr__(self, "tau", float(self.tau))

    def evaluate(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        out = np.empty(x.shape[0])
        proven = np.zeros(x.shape[0], dtype=bool)
        if x.shape[1] == self.train_x.shape[1] == 1:
            # sorted on each call, so the saved state stays piagg-model-v1
            order = np.argsort(self.train_x[:, 0], kind="stable")
            sorted_x = self.train_x[order, 0]
            def block(rows):
                nearest, proven[rows] = _window_knn_block(x[rows, 0], order, sorted_x, self.k)
                out[rows] = _equal_weight_quantile_rows(self.r2[nearest], self.tau)
            # a window block holds four arrays of its size: pos, d2, index, partition
            _in_shares(x.shape[0], max(1, _ENTRIES // 4 // (2 * self.k + 2)), block)
        out[~proven] = _by_distance_block(x[~proven], self.train_x, [self._from_d2])[:, 0]
        return out

    def _from_d2(self, d2):
        return _equal_weight_quantile_rows(self.r2[_knn_indices_block(d2, self.k)], self.tau)


# np.exp is exactly 0.0 at and below this argument (its result underflows
# below the smallest subnormal from about -745.1332)
_EXP_CUT = -745.14
# entries per BLAS dot: OpenBLAS runs a longer ddot on several threads, whose
# partial sums, and so the last bit, depend on the thread count
_DOT_CHUNK = 10_000


def _row_dots(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``w @ v`` as one dot product per row (a matrix-vector product sums a
    row in an order that depends on the row's place in the block), summed
    over fixed chunks of ``_DOT_CHUNK`` entries."""
    out = np.vecdot(w[:, :_DOT_CHUNK], v[:_DOT_CHUNK])
    for start in range(_DOT_CHUNK, v.shape[0], _DOT_CHUNK):
        out += np.vecdot(w[:, start:start + _DOT_CHUNK], v[start:start + _DOT_CHUNK])
    return out


@dataclass(frozen=True)
class KernelVariance:
    """Gaussian-kernel (Nadaraya-Watson) smoother of the squared residuals."""

    train_x: np.ndarray
    r2: np.ndarray
    bandwidth: float

    def __post_init__(self):
        _set_training_rows(self, "r2")
        check_nonnegative("r2", self.r2)
        if self.bandwidth is None:  # the rule's null means "choose at fit time"
            raise ConfigError("bandwidth: must be finite and > 0")
        check_args(bandwidth=self.bandwidth)
        object.__setattr__(self, "bandwidth", float(self.bandwidth))

    def evaluate(self, x):
        return _by_distance_block(check_rows(x), self.train_x, [self._from_d2])[:, 0]

    def _from_d2(self, d2):
        """The smoothed ``r2`` of each row of ``d2``; overwrites ``d2``."""
        logk = np.divide(d2, -2.0 * self.bandwidth ** 2, out=d2)  # -0.5 * d2 / h**2 exactly
        logk -= logk.max(axis=1, keepdims=True)
        if logk.min() > _EXP_CUT:
            w = np.exp(logk, out=logk)
        else:
            # np.exp takes a slow path to each 0.0 it returns, so those
            # entries become exp(0) * 0 instead; -inf * 0 would be NaN
            np.maximum(logk, -np.finfo(np.float64).max, out=logk)
            keep = logk > _EXP_CUT
            logk *= keep
            w = np.exp(logk, out=logk)
            w *= keep
        return _row_dots(w, self.r2) / w.sum(axis=1)


@dataclass(frozen=True)
class _LinearQuantileSq:
    coefficients: np.ndarray
    tau: float

    def __post_init__(self):
        check_args(tau=self.tau)
        model = LinearModel(self.coefficients, "quantile", float(self.tau))  # finite coefficients
        object.__setattr__(self, "coefficients", model.coefficients)
        object.__setattr__(self, "tau", model.tau)

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
            raise ConfigError("values: needs one entry more than edges")
        if not np.all(np.isfinite(edges)) or np.any(np.diff(edges) < 0):
            raise ConfigError("edges: must be finite and nondecreasing")
        check_nonnegative("values", values)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "values", values)

    def evaluate(self, x):
        x0 = np.atleast_2d(np.asarray(x, float))[:, 0]
        idx = np.searchsorted(self.edges, x0, side="right")
        return self.values[idx]  # idx <= len(edges) = len(values) - 1


_FITTED = {"constant_one": _ConstantOne, "knn_quantile": _KnnQuantile,
           "kernel_variance": KernelVariance, "linear_quantile_sq": _LinearQuantileSq,
           "binned_quantile": _BinnedQuantile}
KINDS = tuple(_FITTED)
# candidates whose ``_from_d2`` CandidateBank.evaluate runs in a shared
# distance pass
_BY_DISTANCE = (_KnnQuantile, KernelVariance)


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
        x, inverse = _distinct_rows(check_rows(x))
        out = np.empty((x.shape[0], len(self.fitted)))
        shared = {}  # in d > 1: first candidate of each distinct train_x -> its group
        for j, cand in enumerate(self.fitted):
            if x.shape[1] == 1 or not isinstance(cand, _BY_DISTANCE):
                out[:, j] = cand.evaluate(x)
                continue
            first = next((i for i in shared
                          if np.array_equal(self.fitted[i].train_x, cand.train_x)), j)
            shared.setdefault(first, []).append(j)
        for first, cols in shared.items():
            # a kernel overwrites its d2, which the group's kNN candidates read
            out[:, cols] = _by_distance_block(x, self.fitted[first].train_x, [
                (lambda d2, c=self.fitted[j]: c._from_d2(d2.copy()))
                if isinstance(self.fitted[j], KernelVariance) else self.fitted[j]._from_d2
                for j in cols])
        return out if inverse is None else out[inverse]

    def to_state(self) -> dict:
        return {"specs": [s.to_dict() for s in self.specs],
                "state": [state_dict(c) for c in self.fitted]}

    @classmethod
    def from_state(cls, d: dict) -> "CandidateBank":
        specs = [CandidateSpec(**s) for s in d["specs"]]
        fitted = [_FITTED[s.kind](**st) for s, st in zip(specs, d["state"], strict=True)]
        return cls(specs, fitted)


def fit_candidate_set(train: DataTable, r2: np.ndarray,
                      specs: list[CandidateSpec] | None) -> CandidateBank:
    """Fit every candidate of ``specs`` (None: ``default_bank_specs()``) on
    the table's covariates and the squared residuals ``r2`` of its rows."""
    check_args(specs=specs)
    if train.y is None:
        raise PiaggError("fit_candidate_set needs a labeled table")
    r2 = check_nonnegative("r2", r2, train.n)
    specs = default_bank_specs() if specs is None else list(specs)
    return CandidateBank(specs, [_fit_candidate(spec, train.x, r2) for spec in specs])
