"""Scenario runner, coverage/width metrics, and plot-ready reports.

A scenario document (JSON) names a data source, a covariate shift, a
method list, and Monte-Carlo controls; ``run_scenario`` replays it
deterministically from the base seed, fitting every method on labeled
source data plus target covariates only. Target labels are touched
exclusively by the evaluation step, never by any fit.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .aggregate import fit_covariate_shift, fit_transport, predict_interval
from .candidates import CandidateSpec
from .conformal import fit_wvac, fit_wqc, predict_wvac, predict_wqc
from .dataset import (
    DataTable,
    SplitSpec,
    affine_shift,
    gen_affine_gauss,
    gen_hetero_sim,
    linear_index,
    load_csv,
    split,
    tilt_resample,
    weighted_resample,
    write_csv,
)
from .densratio import fit_density_ratio
from .errors import ARG_RULES, ConfigError, DimensionMismatch, check_args
from .numerics import sigmoid
from .rng import derive_seed

# the keys each method entry may set besides "name"; a key is handed to the
# fit only when the entry sets it, so the defaults live in the fit functions
METHOD_KEYS = {
    "alg1": ("candidates", "fractions", "mode", "delta", "epsilon", "support_threshold",
             "ratio_cap", "prob_clip"),
    "alg2": ("candidates", "fractions", "transport_mode", "cov_ridge", "alg2_delta"),
    "wvac": ("ratio_ridge", "prob_clip", "ratio_cap", "sigma_min", "bandwidth"),
    "wqc": ("ratio_ridge", "prob_clip", "ratio_cap"),
}

DEFAULT_AFFINE_A = np.diag([1.5, 1.2, 1.6, 2.0, 1.8])
DEFAULT_AFFINE_B = np.array([1.0, 0.0, 0.0, 1.0, 0.0])

# the keys besides "kind" that the data section may set, by generator (or
# "csv"), and the shift section, by kind; the top level may set the fields
# of ScenarioConfig. Any other key is a ConfigError, so a misspelt or retired
# key fails at load instead of being ignored
DATA_KEYS = {"hetero1d": ("generator", "n"), "affine_gauss": ("generator", "n", "n_target"),
             "csv": ("path", "label_column")}
SHIFT_KEYS = {"none": (), "tilt": ("beta",), "sigmoid": ("beta",), "affine": ("a", "b")}


def _selector(section, path: str, key: str, known) -> str:
    """The value of ``section[key]``, which must be a string naming one of ``known``."""
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: must be an object")
    if key not in section:
        raise ConfigError(f"{path}.{key}: missing required field")
    if not isinstance(section[key], str) or section[key] not in known:
        raise ConfigError(f"{path}.{key}: must be one of {tuple(known)}, got {section[key]!r}")
    return section[key]


def _section(section, path: str, owner: str, keys: tuple, optional: tuple = ()) -> dict:
    """``section``, checked to be an object that sets every key of ``keys`` but
    the ``optional`` ones, no other key, and only values their rules in
    ARG_RULES accept (sections, selectors and candidates have no rule)."""
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: must be an object")
    for key in section:
        if key not in keys:
            raise ConfigError(f"{path}.{key}: not a field of {owner}")
    for key in keys:
        if key not in section and key not in optional:
            raise ConfigError(f"{path}.{key}: missing required field")
    check_args(path + ".", **{k: v for k, v in section.items() if k in ARG_RULES})
    return section


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario document; see ``from_dict`` for the schema."""

    data: dict
    shift: dict
    methods: list[dict]
    alpha_level: float
    replications: int
    base_seed: int
    train_fraction: float = 0.75
    out_dir: str | None = None

    @classmethod
    def from_dict(cls, doc: dict) -> "ScenarioConfig":
        _section(doc, "config", "a scenario", tuple(f.name for f in fields(cls)),
                 optional=("shift", "train_fraction", "out_dir"))
        data = doc["data"]
        form = _selector(data, "config.data", "kind", ("synthetic", "csv"))
        if form == "synthetic":
            form = _selector(data, "config.data", "generator", ("hetero1d", "affine_gauss"))
        _section(data, "config.data", f"{form} data", ("kind",) + DATA_KEYS[form],
                 optional=("n_target",))

        shift = doc.get("shift", {"kind": "none"})
        skind = _selector(shift, "config.shift", "kind", SHIFT_KEYS)
        if form == "affine_gauss" and skind != "none":
            raise ConfigError("config.shift.kind: affine_gauss generates paired "
                              "source/target tables; shift must be 'none'")
        _section(shift, "config.shift", f"a {skind} shift", ("kind",) + SHIFT_KEYS[skind])

        methods = doc["methods"]
        if not isinstance(methods, list) or not methods:
            raise ConfigError("config.methods: must be a non-empty list")
        for i, m in enumerate(methods):
            path = f"config.methods[{i}]"
            name = _selector(m, path, "name", METHOD_KEYS)
            _section(m, path, name, ("name",) + METHOD_KEYS[name], optional=METHOD_KEYS[name])
            specs = m.get("candidates")
            if "candidates" in m and not (isinstance(specs, list) and specs):
                raise ConfigError(f"{path}.candidates: must be a non-empty list")
            for j, entry in enumerate(specs or ()):
                try:
                    CandidateSpec(**entry)
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"{path}.candidates: entry {j}: {exc}") from None

        return cls(
            data=data, shift=shift, methods=methods, alpha_level=float(doc["alpha_level"]),
            replications=int(doc["replications"]), base_seed=int(doc["base_seed"]),
            train_fraction=float(doc.get("train_fraction", 0.75)), out_dir=doc.get("out_dir"),
        )


@dataclass(frozen=True)
class RepResult:
    rep: int
    method: str
    coverage: float
    avg_width: float
    lambda_hat: float | None
    runtime_s: float
    n_infinite: int


CSV_COLUMNS = tuple(f.name for f in fields(RepResult))


@dataclass
class RunSummary:
    rows: list[RepResult] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)

    def methods(self) -> list[str]:
        return list(dict.fromkeys(r.method for r in self.rows))

    def metric(self, method: str, name: str) -> np.ndarray:
        vals = [getattr(r, name) for r in self.rows if r.method == method]
        return np.array([v for v in vals if v is not None], dtype=np.float64)

    def aggregates(self) -> dict:
        out: dict = {}
        for method in self.methods():
            entry = {}
            for name in ("coverage", "avg_width", "lambda_hat", "runtime_s"):
                vals = self.metric(method, name)
                if vals.size == 0:
                    continue
                entry[name] = {
                    "median": float(np.median(vals)),
                    "iqr": float(np.quantile(vals, 0.75) - np.quantile(vals, 0.25)),
                    "mean": float(np.mean(vals)),
                    "sd": float(np.std(vals, ddof=1)) if vals.size > 1 else 0.0,
                }
            out[method] = entry
        return out


def coverage_and_width(intervals, y: np.ndarray) -> tuple[float, float]:
    """Fraction of labels inside their interval and the mean finite width.

    Infinite intervals count as covered; their widths are excluded from
    the mean (the caller can tally them from the interval widths).
    """
    y = np.asarray(y, dtype=np.float64).ravel()
    if y.shape[0] != intervals.lower.shape[0]:
        raise DimensionMismatch("labels and intervals differ in length")
    covered = (intervals.lower <= y) & (y <= intervals.upper)
    width = intervals.width
    finite = np.isfinite(width)
    avg_width = float(np.mean(width[finite])) if np.any(finite) else float("nan")
    return float(np.mean(covered)), avg_width


def _run_method(method_cfg: dict, train: DataTable, target_x: np.ndarray,
                alpha_level: float, seed: int) -> tuple[object, float | None]:
    """Fit one method and predict on the target covariates.

    Returns (intervals, lambda_hat). Target labels never reach this
    function; its signature only admits the covariate matrix.
    """
    name = method_cfg["name"]
    kw = {key: method_cfg[key] for key in METHOD_KEYS[name] if key in method_cfg}
    if name in ("alg1", "alg2"):
        if "candidates" in kw:
            kw["specs"] = [CandidateSpec(**d) for d in kw.pop("candidates")]
        fit = fit_covariate_shift if name == "alg1" else fit_transport
        model = fit(train, target_x, alpha_level, seed=seed, **kw)
        return predict_interval(model, target_x), model.shrink.lambda_hat
    train1, cal = split(train, SplitSpec((0.5, 0.5), seed))
    ratio_kw = {key: kw.pop(key) for key in ("prob_clip", "ratio_cap") if key in kw}
    if "ratio_ridge" in kw:
        ratio_kw["ridge"] = kw.pop("ratio_ridge")
    ratio = fit_density_ratio(train1.x, target_x, **ratio_kw)
    if name == "wvac":
        model = fit_wvac(train1, cal, ratio, **kw)
        return predict_wvac(model, target_x, alpha_level), None
    model = fit_wqc(train1, cal, ratio, alpha_level)
    return predict_wqc(model, target_x, alpha_level), None


def _make_rep_data(cfg: ScenarioConfig, seed: int,
                   csv_cache: dict) -> tuple[DataTable, DataTable]:
    """Source table plus labeled target table for one replication; the
    target labels exist for evaluation only."""
    data = cfg.data
    if data["kind"] == "synthetic" and data["generator"] == "affine_gauss":
        n = int(data["n"])
        return gen_affine_gauss(n, int(data.get("n_target", max(n // 4, 1))), DEFAULT_AFFINE_A,
                                DEFAULT_AFFINE_B, derive_seed(seed, 1))

    if data["kind"] == "synthetic":
        table = gen_hetero_sim(int(data["n"]), derive_seed(seed, 1))
    else:
        key = (data["path"], data["label_column"])
        if key not in csv_cache:
            csv_cache[key] = load_csv(*key)
        table = csv_cache[key]

    train, held = split(table, SplitSpec((cfg.train_fraction, 1.0 - cfg.train_fraction),
                                         derive_seed(seed, 2)))
    shift = cfg.shift
    if shift["kind"] == "none":
        target = held
    elif shift["kind"] == "tilt":
        target = tilt_resample(held, shift["beta"], held.n, derive_seed(seed, 3))
    elif shift["kind"] == "sigmoid":
        w = sigmoid(linear_index(held, shift["beta"]))
        target = weighted_resample(held, w, held.n, derive_seed(seed, 3))
    else:
        target = affine_shift(held, shift["a"], shift["b"])
    return train, target


def run_scenario(cfg: ScenarioConfig) -> RunSummary:
    """Replay every replication of the scenario; failures of one method
    in one replication are recorded and do not stop the study."""
    summary = RunSummary()
    csv_cache: dict = {}
    for rep in range(cfg.replications):
        seed = derive_seed(cfg.base_seed, rep)
        train, target = _make_rep_data(cfg, seed, csv_cache)
        for k, method_cfg in enumerate(cfg.methods):
            mseed = derive_seed(seed, 100 + k)
            t0 = time.perf_counter()
            try:
                intervals, lam = _run_method(method_cfg, train, target.x,
                                             cfg.alpha_level, mseed)
            except Exception as exc:  # isolate per-method failures
                summary.failures.append({"rep": rep, "method": method_cfg["name"],
                                         "error": f"{type(exc).__name__}: {exc}"})
                continue
            runtime = time.perf_counter() - t0
            cov, width = coverage_and_width(intervals, target.y)
            n_inf = int(np.count_nonzero(~np.isfinite(intervals.width)))
            summary.rows.append(RepResult(rep, method_cfg["name"], cov, width,
                                          lam, runtime, n_inf))
    return summary


def emit_report(s: RunSummary, out_dir: str) -> tuple[str, str]:
    """Write per_rep.csv (one row per replication and method, one column per
    field of RepResult) and summary.json (median/IQR/mean/SD per metric per method).
    Returns the two paths."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "per_rep.csv")
    write_csv(csv_path, CSV_COLUMNS, map(astuple, s.rows))
    json_path = os.path.join(out_dir, "summary.json")
    with open(json_path, "w") as fh:
        json.dump({"aggregates": s.aggregates(), "failures": s.failures}, fh, indent=2)
    return csv_path, json_path

