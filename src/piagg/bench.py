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
from dataclasses import dataclass, field

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
    load_csv,
    split,
    split_spec,
    tilt_resample,
    weighted_resample,
)
from .densratio import fit_density_ratio
from .errors import ConfigError, LengthMismatch, check_args
from .numerics import sigmoid
from .rng import derive_seed

# the keys each method entry may set besides "name"; a key is handed to the
# fit only when the entry sets it, so the defaults live in the fit functions,
# and its value is checked at load by the fit's own rule in ARG_RULES
METHOD_KEYS = {
    "alg1": ("candidates", "fractions", "mode", "delta", "epsilon", "support_threshold",
             "ratio_cap", "prob_clip"),
    "alg2": ("candidates", "fractions", "transport_mode", "cov_ridge", "alg2_delta"),
    "wvac": ("ratio_ridge", "prob_clip", "ratio_cap", "sigma_min", "bandwidth"),
    "wqc": ("ratio_ridge", "prob_clip", "ratio_cap"),
}


def _check_method_value(prefix: str, key: str, value) -> None:
    """ConfigError("<prefix><key>: ...") unless ``value`` is valid for ``key``."""
    if key == "candidates":
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{prefix}{key}: must be a non-empty list")
        for j, entry in enumerate(value):
            try:
                CandidateSpec.from_dict(entry)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{prefix}{key}: entry {j}: {exc}") from None
    elif key == "fractions":
        split_spec(value, 0, 3, prefix + key)
    elif key == "ratio_ridge":  # the ridge of the density-ratio fit
        check_args(prefix + "ratio_", ridge=value)
    else:
        check_args(prefix, **{key: value})


DEFAULT_AFFINE_A = np.diag([1.5, 1.2, 1.6, 2.0, 1.8])
DEFAULT_AFFINE_B = np.array([1.0, 0.0, 0.0, 1.0, 0.0])

CSV_COLUMNS = ("rep", "method", "coverage", "avg_width", "lambda_hat",
               "runtime_s", "n_infinite")


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
    fractions: tuple[float, float, float] = (0.5, 0.25, 0.25)
    target_size: int | None = None
    out_dir: str | None = None

    @classmethod
    def from_dict(cls, doc: dict) -> "ScenarioConfig":
        def need(d: dict, key: str, path: str):
            if key not in d:
                raise ConfigError(f"{path}.{key}: missing required field")
            return d[key]

        data = need(doc, "data", "config")
        kind = need(data, "kind", "config.data")
        gen = None
        if kind == "synthetic":
            gen = need(data, "generator", "config.data")
            if gen not in ("hetero1d", "affine_gauss"):
                raise ConfigError(f"config.data.generator: unknown generator '{gen}'")
            check_args("config.data.", n=need(data, "n", "config.data"))
        elif kind == "csv":
            need(data, "path", "config.data")
        else:
            raise ConfigError(f"config.data.kind: unknown kind '{kind}'")

        shift = doc.get("shift", {"kind": "none"})
        skind = need(shift, "kind", "config.shift")
        if gen == "affine_gauss" and skind != "none":
            raise ConfigError("config.shift.kind: affine_gauss generates paired "
                              "source/target tables; shift must be 'none'")
        if skind in ("tilt", "sigmoid"):
            check_args("config.shift.", beta=need(shift, "beta", "config.shift"))
        elif skind == "affine":
            need(shift, "a", "config.shift")
            need(shift, "b", "config.shift")
        elif skind != "none":
            raise ConfigError(f"config.shift.kind: unknown kind '{skind}'")

        methods = need(doc, "methods", "config")
        if not isinstance(methods, list) or not methods:
            raise ConfigError("config.methods: must be a non-empty list")
        for i, m in enumerate(methods):
            name = need(m, "name", f"config.methods[{i}]")
            if name not in METHOD_KEYS:
                raise ConfigError(f"config.methods[{i}].name: unknown method '{name}'")
            for key, value in m.items():
                if key == "name":
                    continue
                if key not in METHOD_KEYS[name]:
                    raise ConfigError(f"config.methods[{i}].{key}: not a parameter of {name}")
                _check_method_value(f"config.methods[{i}].", key, value)

        top = {key: need(doc, key, "config")
               for key in ("alpha_level", "replications", "base_seed")}
        train_fraction = doc.get("train_fraction", 0.75)
        check_args("config.", **top, train_fraction=train_fraction)
        return cls(
            data=data, shift=shift, methods=methods, alpha_level=float(top["alpha_level"]),
            replications=int(top["replications"]), base_seed=int(top["base_seed"]),
            train_fraction=float(train_fraction),
            fractions=split_spec(doc.get("fractions", (0.5, 0.25, 0.25)), 0, 3,
                                 "config.fractions").fractions,
            target_size=doc.get("target_size"),
            out_dir=doc.get("out_dir"),
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


@dataclass
class RunSummary:
    rows: list[RepResult] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)

    def methods(self) -> list[str]:
        seen: list[str] = []
        for r in self.rows:
            if r.method not in seen:
                seen.append(r.method)
        return seen

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
        raise LengthMismatch("labels and intervals differ in length")
    covered = (intervals.lower <= y) & (y <= intervals.upper)
    width = intervals.width
    finite = np.isfinite(width)
    avg_width = float(np.mean(width[finite])) if np.any(finite) else float("nan")
    return float(np.mean(covered)), avg_width


def _run_method(method_cfg: dict, train: DataTable, target_x: np.ndarray,
                alpha_level: float, fractions: tuple[float, float, float],
                seed: int) -> tuple[object, float | None]:
    """Fit one method and predict on the target covariates.

    Returns (intervals, lambda_hat). Target labels never reach this
    function; its signature only admits the covariate matrix.
    """
    name = method_cfg["name"]
    kw = {key: method_cfg[key] for key in METHOD_KEYS[name] if key in method_cfg}
    if name in ("alg1", "alg2"):
        if "candidates" in kw:
            kw["specs"] = [CandidateSpec.from_dict(d) for d in kw.pop("candidates")]
        kw["fractions"] = tuple(kw.get("fractions", fractions))
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
        a = np.asarray(data.get("a", DEFAULT_AFFINE_A), dtype=np.float64)
        b = np.asarray(data.get("b", DEFAULT_AFFINE_B), dtype=np.float64)
        n = int(data["n"])
        n_target = int(data.get("n_target", max(n // 4, 1)))
        return gen_affine_gauss(n, n_target, a, b, derive_seed(seed, 1),
                                noise_scale=float(data.get("noise_scale", 1.0)))

    if data["kind"] == "synthetic":
        table = gen_hetero_sim(int(data["n"]), derive_seed(seed, 1))
    else:
        key = (data["path"], data.get("label_column"))
        if key not in csv_cache:
            csv_cache[key] = load_csv(data["path"], data.get("label_column"))
        table = csv_cache[key]

    train, held = split(table, SplitSpec((cfg.train_fraction, 1.0 - cfg.train_fraction),
                                         derive_seed(seed, 2)))
    shift = cfg.shift
    m = cfg.target_size if cfg.target_size is not None else held.n
    if shift["kind"] == "none":
        target = held
    elif shift["kind"] == "tilt":
        target = tilt_resample(held, np.asarray(shift["beta"], float), m,
                               derive_seed(seed, 3))
    elif shift["kind"] == "sigmoid":
        w = sigmoid(held.x @ np.asarray(shift["beta"], float))
        target = weighted_resample(held, w, m, derive_seed(seed, 3))
    elif shift["kind"] == "affine":
        target = affine_shift(held, np.asarray(shift["a"], float),
                              np.asarray(shift["b"], float))
    else:
        raise ConfigError(f"config.shift.kind: unknown kind '{shift['kind']}'")
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
                                             cfg.alpha_level, cfg.fractions, mseed)
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


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def emit_report(s: RunSummary, out_dir: str) -> tuple[str, str]:
    """Write per_rep.csv (one row per replication and method, fixed column
    order) and summary.json (median/IQR/mean/SD per metric per method).
    Returns the two paths."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "per_rep.csv")
    with open(csv_path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for r in s.rows:
            fh.write(",".join([
                str(r.rep), r.method, _fmt(r.coverage), _fmt(r.avg_width),
                _fmt(r.lambda_hat), _fmt(r.runtime_s), str(r.n_infinite),
            ]) + "\n")
    json_path = os.path.join(out_dir, "summary.json")
    with open(json_path, "w") as fh:
        json.dump({"aggregates": s.aggregates(), "failures": s.failures}, fh, indent=2)
    return csv_path, json_path

