"""Tabular data model, CSV ingestion, deterministic splitting, and the
synthetic generators used by the benchmark scenarios.

All randomness flows through explicit integer seeds (see ``rng``), so any
split or draw can be reproduced bit-exactly from its seed alone.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    EmptyInput,
    MissingColumn,
    NonFiniteInput,
    ParseError,
    check_args,
    unit_partition,
)
from .rng import Rng


def check_covariates(name: str, x) -> np.ndarray:
    """A covariate matrix (or a DataTable's covariates), rejected with the
    argument's name unless every entry is finite with |x| <= 1e100: squared
    distances between rows then cannot overflow in any realistic dimension."""
    x = x.x if isinstance(x, DataTable) else np.atleast_2d(np.asarray(x, dtype=np.float64))
    if not np.all(np.abs(x) <= 1e100):  # False on a NaN
        raise NonFiniteInput(f"{name}: covariates must be finite with |x| <= 1e100")
    return x


def check_rows(x) -> np.ndarray:
    """Rows to evaluate a fitted part at, as a float matrix, rejected unless every
    entry is finite with |x| <= 1e150: squared distances then stay finite in up
    to 44 dimensions, and a transport map may carry covariates past 1e100."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if not np.all(np.abs(x) <= 1e150):  # False on a NaN
        raise NonFiniteInput("x: rows to evaluate must be finite with |x| <= 1e150")
    return x


def check_nonnegative(name: str, v, n_rows: int | None = None) -> np.ndarray:
    """``v`` as a float vector of finite nonnegative entries, ``n_rows`` of
    them when given; the errors start with the argument's name."""
    v = np.asarray(v, dtype=np.float64).ravel()
    if n_rows is not None and v.shape[0] != n_rows:
        raise DimensionMismatch(f"{name}: {v.shape[0]} entries for {n_rows} rows")
    if not np.all((v >= 0) & (v < np.inf)):  # NaN fails both
        raise ConfigError(f"{name}: must be finite and nonnegative")
    return v


def check_samples(name_a: str, a, name_b: str, b) -> tuple[np.ndarray, np.ndarray]:
    """Two covariate samples through ``check_covariates``, rejected unless
    both have rows and columns and they share a dimension."""
    a, b = check_covariates(name_a, a), check_covariates(name_b, b)
    if a.size == 0 or b.size == 0:
        raise EmptyInput(f"{name_a}, {name_b}: both covariate samples must be non-empty")
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatch(f"{name_a}, {name_b}: covariate dimensions differ")
    return a, b


@dataclass(frozen=True)
class DataTable:
    """Covariate matrix with an optional response vector.

    ``y`` is None for unlabeled (target-domain) tables. Entries must be
    finite, and covariates must pass ``check_covariates``.
    """

    x: np.ndarray
    y: np.ndarray | None = None
    column_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        x = check_covariates("x", self.x)
        object.__setattr__(self, "x", x)
        if self.y is not None:
            y = np.asarray(self.y, dtype=np.float64).ravel()
            if y.shape[0] != x.shape[0]:
                raise DimensionMismatch("y length does not match number of rows")
            if not np.all(np.isfinite(y)):
                raise NonFiniteInput("y: response contains non-finite entries")
            object.__setattr__(self, "y", y)
        if not self.column_names:
            object.__setattr__(
                self, "column_names", [f"x{j + 1}" for j in range(x.shape[1])])

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    def take(self, idx: np.ndarray) -> "DataTable":
        y = self.y[idx] if self.y is not None else None
        return DataTable(self.x[idx], y, list(self.column_names))


@dataclass(frozen=True)
class SplitSpec:
    """Fractions of a deterministic split; they must be positive and sum
    to one."""

    fractions: tuple[float, ...]
    seed: int

    def __post_init__(self):
        fr = tuple(float(f) for f in self.fractions)
        if not unit_partition(fr):
            raise ConfigError("fractions: must be positive and sum to 1")
        object.__setattr__(self, "fractions", fr)


def load_csv(path: str, label_column: str | None = None) -> DataTable:
    """Load a comma-separated numeric file with a mandatory header row.

    When ``label_column`` is given, that column becomes the response and
    the rest form the covariates.

    Raises ParseError naming the offending cell on any non-numeric value,
    and MissingColumn when the label column is absent.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyInput(f"{path} is empty") from None
        header = [h.strip() for h in header]
        label_idx = None
        if label_column is not None:
            if label_column not in header:
                raise MissingColumn(f"column '{label_column}' not in header {header}")
            label_idx = header.index(label_column)
        rows: list[list[float]] = []
        labels: list[float] = []
        for r, raw in enumerate(reader, start=2):
            if len(raw) != len(header):
                raise ParseError(f"row {r}: expected {len(header)} cells, got {len(raw)}")
            vals = []
            for j, cell in enumerate(raw):
                try:
                    value = float(cell)
                except ValueError:
                    raise ParseError(
                        f"row {r}, column '{header[j]}': cannot parse '{cell.strip()}'"
                    ) from None
                if not np.isfinite(value):
                    raise ParseError(
                        f"row {r}, column '{header[j]}': non-finite value '{cell.strip()}'")
                vals.append(value)
            if label_idx is not None:
                labels.append(vals.pop(label_idx))
            rows.append(vals)
    if not rows:
        raise EmptyInput(f"{path} has a header but no data rows")
    names = [h for j, h in enumerate(header) if j != label_idx]
    x = np.asarray(rows, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64) if label_idx is not None else None
    return DataTable(x, y, names)


def write_csv(path: str, header, rows) -> None:
    """Write the ``header`` line, then one line per row of ``rows``. A float is
    written as its repr, which ``load_csv`` reads back bit for bit; None as an
    empty cell; any other value as ``str``."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, (float, np.floating))
                              else "" if v is None else str(v) for v in row) + "\n")


def _part_sizes(fractions: tuple[float, ...], n: int) -> list[int]:
    sizes = [int(f * n) for f in fractions]
    remainder = n - sum(sizes)
    for i in range(remainder):
        sizes[i % len(sizes)] += 1
    return sizes


def split(t: DataTable, s: SplitSpec) -> list[DataTable]:
    """Deterministically permute the rows, then cut contiguous blocks
    sized by the fractions (remainders go to the leftmost parts)."""
    if t.n < len(s.fractions):
        raise EmptyInput(f"{len(s.fractions)} split parts need as many rows, got {t.n}")
    perm = Rng(s.seed).permutation(t.n)
    return [t.take(part) for part in np.split(perm, np.cumsum(_part_sizes(s.fractions, t.n))[:-1])]


def weighted_resample(t: DataTable, weights: np.ndarray, m: int, seed: int) -> DataTable:
    """Draw ``m`` rows with replacement, row i with probability
    proportional to ``weights[i]``."""
    check_args(m=m)
    w = check_nonnegative("weights", weights, t.n)
    with np.errstate(over="ignore"):  # a sum that overflows is refused below
        total = w.sum()
    if not 0 < total < np.inf:
        raise ConfigError("weights: must be finite and nonnegative with a finite positive sum")
    return t.take(Rng(seed).choice_with_replacement(np.cumsum(w / total), m))


def linear_index(t: DataTable, beta) -> np.ndarray:
    """x_i @ beta for every row; a scalar ``beta`` stands for a length-1 vector."""
    beta = np.asarray(beta, dtype=np.float64).ravel()
    if beta.shape[0] != t.d:
        raise DimensionMismatch("beta length does not match covariate dimension")
    return t.x @ beta


def tilt_resample(t: DataTable, beta: np.ndarray, m: int, seed: int) -> DataTable:
    """Exponential-tilting resample: row i is drawn with probability
    proportional to exp(x_i @ beta), computed in log space."""
    with np.errstate(all="ignore"):  # a non-finite x @ beta is refused below; exp(-inf) is 0
        logits = linear_index(t, beta)
        w = np.exp(logits - logits.max())
    if not np.all(np.isfinite(logits)):
        raise ConfigError("beta: x @ beta must be finite on every row")
    return weighted_resample(t, w, m, seed)


def affine_shift(t: DataTable, a: np.ndarray, b: np.ndarray) -> DataTable:
    """Map every covariate row x to A @ x + b; the response passes through."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != (t.d, t.d) or b.shape != (t.d,):
        raise DimensionMismatch(f"expected a {t.d}x{t.d} matrix and length-{t.d} vector")
    return DataTable(t.x @ a.T + b, t.y, list(t.column_names))


def gen_hetero_sim(n: int, seed: int) -> DataTable:
    """One-dimensional heteroskedastic simulator.

    X ~ Unif[-1, 1] and an independent noise U ~ Unif[-1, 1] give
    Y = sqrt(1 + 25 X^4) * U, so the conditional spread grows steeply
    toward the edges of the covariate range. All X draws precede all
    noise draws in the generator stream.
    """
    check_args(n=n)
    gen = Rng(seed)
    x = gen.uniform(-1.0, 1.0, n)
    xi = gen.uniform(-1.0, 1.0, n)
    y = np.sqrt(1.0 + 25.0 * x ** 4) * xi
    return DataTable(x[:, None], y, ["x1"])


def gen_affine_gauss(n_source: int, n_target: int, a: np.ndarray, b: np.ndarray,
                     seed: int) -> tuple[DataTable, DataTable]:
    """Paired source/target generator for transport-map scenarios.

    Source covariates are standard Gaussians with a linear mean and
    heteroskedastic uniform noise. Target covariates are A @ z + b for
    fresh Gaussian draws z, with labels generated from z itself, so the
    conditional law of the response is exactly preserved under the map
    x -> A^{-1}(x - b). Target labels are for evaluation only.
    """
    check_args(n=n_source, n_target=n_target)  # the scenario's names for the two sizes
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64).ravel()
    d = a.shape[0]
    if a.shape != (d, d) or b.shape != (d,):
        raise DimensionMismatch("a must be square and b of matching length")
    theta = np.linspace(1.0, 0.2, d)
    gen = Rng(seed)

    def draw(n: int) -> tuple[np.ndarray, np.ndarray]:
        z = gen.normal(n * d).reshape(n, d)
        noise = gen.uniform(-1.0, 1.0, n) * np.sqrt(1.0 + 0.5 * z[:, 0] ** 2)
        return z, z @ theta + noise

    xs, ys = draw(n_source)
    zt, yt = draw(n_target)
    source = DataTable(xs, ys)
    target = DataTable(zt @ a.T + b, yt)
    return source, target
