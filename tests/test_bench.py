"""Scenario runner: metrics, determinism, label hygiene, and reports."""

import json
import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from piagg import bench
from piagg.aggregate import IntervalBatch, fit_covariate_shift, fit_transport
from piagg.bench import (
    CSV_COLUMNS,
    DATA_KEYS,
    METHOD_KEYS,
    SHIFT_KEYS,
    RepResult,
    RunSummary,
    ScenarioConfig,
    coverage_and_width,
    emit_report,
    run_scenario,
)
from piagg.conformal import fit_wvac
from piagg.dataset import SplitSpec, gen_hetero_sim, split
from piagg.densratio import fit_density_ratio
from piagg.errors import ARG_RULES, ConfigError, DimensionMismatch, check_args


def read_per_rep(path):
    """Inverse of the CSV side of ``emit_report``."""
    summary = RunSummary()
    with open(path) as fh:
        assert tuple(fh.readline().strip().split(",")) == CSV_COLUMNS
        for line in fh:
            cells = line.rstrip("\n").split(",")
            summary.rows.append(RepResult(
                rep=int(cells[0]), method=cells[1], coverage=float(cells[2]),
                avg_width=float(cells[3]),
                lambda_hat=None if cells[4] == "" else float(cells[4]),
                runtime_s=float(cells[5]), n_infinite=int(cells[6])))
    return summary


def _base_config(**overrides):
    doc = {
        "data": {"kind": "synthetic", "generator": "hetero1d", "n": 400},
        "shift": {"kind": "sigmoid", "beta": [2.0]},
        "methods": [{"name": "alg1", "mode": "exact"}],
        "alpha_level": 0.1,
        "replications": 2,
        "base_seed": 7,
    }
    doc.update(overrides)
    return ScenarioConfig.from_dict(doc)


class TestCoverageAndWidth:
    def test_full_coverage(self):
        b = IntervalBatch(np.array([-1.0, -1.0]), np.array([1.0, 1.0]), np.zeros(2))
        cov, w = coverage_and_width(b, np.array([0.0, 0.5]))
        assert cov == 1.0 and w == 2.0

    def test_zero_width_boundary_inclusion(self):
        y = np.array([0.3, -0.2])
        b = IntervalBatch(y, y, y)
        cov, w = coverage_and_width(b, y)
        assert cov == 1.0 and w == 0.0

    def test_hand_instance(self):
        b = IntervalBatch(np.array([0.0, 0.0, 0.0]), np.array([2.0, 4.0, 6.0]),
                          np.array([1.0, 2.0, 3.0]))
        cov, w = coverage_and_width(b, np.array([1.0, 5.0, 3.0]))
        assert cov == pytest.approx(2 / 3)
        assert w == pytest.approx(4.0)

    def test_infinite_counts_covered_width_excluded(self):
        b = IntervalBatch(np.array([-np.inf, 0.0]), np.array([np.inf, 2.0]),
                          np.array([0.0, 1.0]))
        cov, w = coverage_and_width(b, np.array([100.0, 1.0]))
        assert cov == 1.0 and w == 2.0

    def test_length_mismatch(self):
        b = IntervalBatch(np.zeros(2), np.ones(2), np.full(2, 0.5))
        with pytest.raises(DimensionMismatch, match="labels and intervals differ in length"):
            coverage_and_width(b, np.zeros(3))


class TestRunScenario:
    def test_smoke_single_rep(self):
        s = run_scenario(_base_config(replications=1))
        assert len(s.rows) == 1
        row = s.rows[0]
        assert 0.0 <= row.coverage <= 1.0
        assert np.isfinite(row.avg_width)
        assert not s.failures

    def test_deterministic_outside_runtime(self, tmp_path):
        cfg = _base_config()
        s1 = run_scenario(cfg)
        s2 = run_scenario(cfg)
        emit_report(s1, str(tmp_path / "a"))
        emit_report(s2, str(tmp_path / "b"))

        def strip_runtime(path):
            lines = (path / "per_rep.csv").read_text().splitlines()
            out = []
            for line in lines:
                cells = line.split(",")
                del cells[5]  # wall time cannot be replayed
                out.append(",".join(cells))
            return out

        assert strip_runtime(tmp_path / "a") == strip_runtime(tmp_path / "b")

    def test_target_labels_never_reach_fits(self):
        # permuting target labels must leave every fitted quantity alone
        cfg = _base_config(replications=1)
        from piagg.bench import _make_rep_data, _run_method
        from piagg.rng import derive_seed
        seed = derive_seed(cfg.base_seed, 0)
        train, target = _make_rep_data(cfg, seed, {})
        mseed = derive_seed(seed, 100)
        b1, lam1 = _run_method(cfg.methods[0], train, target.x, cfg.alpha_level, mseed)
        perm = np.random.default_rng(0).permutation(target.n)
        shuffled = target.take(perm)  # same covariate multiset, labels moved
        b2, lam2 = _run_method(cfg.methods[0], train, np.asarray(target.x),
                               cfg.alpha_level, mseed)
        assert lam1 == lam2
        assert np.array_equal(b1.lower, b2.lower)
        cov1, _ = coverage_and_width(b1, target.y)
        cov2, _ = coverage_and_width(b1, shuffled.y)
        assert cov1 != cov2 or target.n < 5  # evaluation does see labels

    def test_failures_isolated(self):
        # more bins than D1 rows: a failure only the data can reveal
        many_bins = [{"kind": "binned_quantile", "bins": 1000, "tau": 0.5}]
        cfg = _base_config(methods=[{"name": "alg1", "candidates": many_bins},
                                    {"name": "wvac"}])
        s = run_scenario(cfg)
        assert len(s.failures) == 2  # an empty bin fails on both reps
        assert all(f["error"].startswith("EmptyBin") for f in s.failures)
        assert {r.method for r in s.rows} == {"wvac"}


class TestShiftAndDataPaths:
    @pytest.mark.parametrize("shift", [
        {"kind": "tilt", "beta": [1.5]},
        {"kind": "affine", "a": [[1.3]], "b": [0.2]},
        {"kind": "sigmoid", "beta": 2.0},
        {"kind": "affine", "a": [[1.3]], "b": 0.2},
    ], ids=["tilt", "affine", "sigmoid_scalar_beta", "affine_scalar_b"])
    def test_shift_runs(self, shift):
        s = run_scenario(_base_config(data={"kind": "synthetic", "generator": "hetero1d",
                                            "n": 300}, shift=shift))
        assert not s.failures and len(s.rows) == 2
        assert all(np.isfinite(r.coverage) for r in s.rows)

    def test_csv_with_label_column_runs(self, tmp_path):
        table = gen_hetero_sim(300, seed=12)
        path = tmp_path / "source.csv"
        path.write_text("y,x1\n" + "".join(f"{y!r},{x!r}\n" for x, y in
                                           zip(table.x[:, 0].tolist(), table.y.tolist())))
        s = run_scenario(_base_config(data={"kind": "csv", "path": str(path),
                                            "label_column": "y"}))
        assert not s.failures and len(s.rows) == 2
        assert all(np.isfinite(r.coverage) for r in s.rows)


class TestEmitReport:
    def test_header_only_for_empty_summary(self, tmp_path):
        csv_path, json_path = emit_report(RunSummary(), str(tmp_path))
        lines = open(csv_path).read().splitlines()
        assert lines == ["rep,method,coverage,avg_width,lambda_hat,runtime_s,n_infinite"]
        assert json.load(open(json_path))["aggregates"] == {}

    def test_rows_keep_the_report_format(self, tmp_path):
        # NumPy floats are written as the repr of the Python float, a missing
        # shrink level (the conformal baselines have none) as an empty cell
        s = RunSummary([
            RepResult(0, "wvac", np.float64(0.9), np.float64(1.25), None, np.float64(0.5), 0),
            RepResult(1, "alg1", 0.875, np.float64(2.0), np.float64(1.5), 0.1, 3)])
        csv_path, _ = emit_report(s, str(tmp_path))
        assert open(csv_path).read().splitlines()[1:] == [
            "0,wvac,0.9,1.25,,0.5,0", "1,alg1,0.875,2.0,1.5,0.1,3"]

    def test_round_trip_and_aggregate_consistency(self, tmp_path):
        s = run_scenario(_base_config(methods=[{"name": "alg1"}, {"name": "wqc"}]))
        csv_path, json_path = emit_report(s, str(tmp_path))
        loaded = read_per_rep(csv_path)
        assert [(r.rep, r.method) for r in loaded.rows] == \
               [(r.rep, r.method) for r in s.rows]
        for a, b in zip(loaded.rows, s.rows):
            assert a.coverage == b.coverage
            assert a.avg_width == b.avg_width
            assert a.lambda_hat == b.lambda_hat
        summary = json.load(open(json_path))["aggregates"]
        for method in ("alg1", "wqc"):
            vals = loaded.metric(method, "coverage")
            assert summary[method]["coverage"]["median"] == pytest.approx(
                float(np.median(vals)), abs=1e-12)
            assert summary[method]["coverage"]["mean"] == pytest.approx(
                float(np.mean(vals)), abs=1e-12)


class TestConfigValidation:
    def test_missing_field_names_path(self):
        with pytest.raises(ConfigError, match="config.data"):
            ScenarioConfig.from_dict({"methods": [{"name": "alg1"}],
                                      "alpha_level": 0.1, "replications": 1,
                                      "base_seed": 0})

    def test_unknown_method(self):
        with pytest.raises(ConfigError, match=r"methods\[0\]"):
            _base_config(methods=[{"name": "mystery"}])

    @pytest.mark.parametrize("method, key", [
        ({"name": "alg1", "ratio_capp": 10}, "ratio_capp"),
        ({"name": "alg2", "mode": "hinge"}, "mode"),
        ({"name": "wqc", "bandwidth": 0.1}, "bandwidth"),
    ])
    def test_unknown_method_key(self, method, key):
        with pytest.raises(ConfigError, match=rf"^config\.methods\[1\]\.{key}:"):
            _base_config(methods=[{"name": "wvac"}, method])

    @pytest.mark.parametrize("method, key", [
        ({"name": "alg1", "candidates": [{"kind": "mystery"}]}, "candidates"),
        ({"name": "alg1", "candidates": [{"kind": "knn_quantile", "k": 0, "tau": 0.5}]},
         "candidates"),
        ({"name": "alg1", "candidates": [{"kind": "constant_one", "bandwith": 1}]},
         "candidates"),
        ({"name": "alg2", "candidates": [{"kind": "knn_quantile", "k": 2.5, "tau": 0.5}]},
         "candidates"),
        ({"name": "alg2", "candidates": [{"kind": "binned_quantile", "bins": 2.0, "tau": 0.5}]},
         "candidates"),
        ({"name": "alg1", "candidates": []}, "candidates"),
        ({"name": "alg1", "mode": "hindge"}, "mode"),
        ({"name": "alg1", "mode": "hinge", "delta": -1.0}, "delta"),
        ({"name": "alg1", "epsilon": -0.1}, "epsilon"),
        ({"name": "alg1", "prob_clip": 0.5}, "prob_clip"),
        ({"name": "alg1", "ratio_cap": 0}, "ratio_cap"),
        ({"name": "alg2", "transport_mode": "mystery"}, "transport_mode"),
        ({"name": "alg2", "alg2_delta": 0.0}, "alg2_delta"),
        ({"name": "alg2", "cov_ridge": -1e-3}, "cov_ridge"),
        ({"name": "wvac", "bandwidth": -1}, "bandwidth"),
        ({"name": "wvac", "bandwidth": float("inf")}, "bandwidth"),
        ({"name": "wvac", "sigma_min": "small"}, "sigma_min"),
        ({"name": "wqc", "ratio_cap": True}, "ratio_cap"),
        ({"name": "alg1", "fractions": [0.5, 0.5]}, "fractions"),
        ({"name": "alg2", "fractions": [0.9, 0.1, 0.0]}, "fractions"),
        ({"name": "alg1", "fractions": 0.5}, "fractions"),
        ({"name": "alg1", "support_threshold": "x"}, "support_threshold"),
        ({"name": "alg1", "support_threshold": -0.5}, "support_threshold"),
        ({"name": "alg1", "candidates": [{"kind": "kernel_variance", "tau": 0.9}]},
         "candidates"),
        ({"name": "alg1", "candidates": ["constant_one"]}, "candidates"),
        ({"name": "alg1", "ratio_cap": 10 ** 400}, "ratio_cap"),
    ])
    def test_bad_method_value(self, method, key):
        with pytest.raises(ConfigError, match=rf"^config\.methods\[1\]\.{key}:"):
            _base_config(methods=[{"name": "wvac"}, method])

    def test_default_values_load(self):
        cfg = _base_config(methods=[
            {"name": "alg1", "mode": "hinge", "delta": None, "epsilon": 0,
             "candidates": [{"kind": "knn_quantile", "k": 5, "tau": 0.9}]},
            {"name": "alg2", "transport_mode": "coral", "cov_ridge": 0, "alg2_delta": None},
            {"name": "wvac", "bandwidth": None, "sigma_min": None, "ratio_cap": float("inf")},
        ])
        assert len(cfg.methods) == 3

    def test_bad_value_exits_2_on_the_cli(self, tmp_path, capsys):
        from piagg.cli import main
        doc = {"data": {"kind": "synthetic", "generator": "hetero1d", "n": 300},
               "methods": [{"name": "wvac", "bandwidth": -1}],
               "alpha_level": 0.1, "replications": 2, "base_seed": 5}
        cfg_path = tmp_path / "scenario.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "r")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith("config.methods[0].bandwidth:")
        assert not (tmp_path / "r").exists()

    def test_only_given_keys_reach_the_fit(self, monkeypatch):
        seen = []

        def spy(real):
            def record(*args, **kwargs):
                seen.append(kwargs)
                return real(*args, **kwargs)
            return record

        for name in ("fit_density_ratio", "fit_covariate_shift", "fit_transport"):
            monkeypatch.setattr(bench, name, spy(getattr(bench, name)))
        run_scenario(_base_config(methods=[{"name": "wqc", "ratio_ridge": 1e-3},
                                           {"name": "wvac"}], replications=1))
        assert seen == [{"ridge": 1e-3}, {}]
        # the split fractions reach alg1 and alg2 only from their own entries
        seen.clear()
        s = run_scenario(_base_config(methods=[
            {"name": "alg1"}, {"name": "alg2"},
            {"name": "alg1", "fractions": [0.4, 0.3, 0.3]},
            {"name": "alg2", "fractions": [0.6, 0.2, 0.2]}], replications=1))
        assert not s.failures
        assert [sorted(kw) for kw in seen] == [["seed"], ["seed"],
                                              ["fractions", "seed"], ["fractions", "seed"]]
        assert [kw["fractions"] for kw in seen[2:]] == [[0.4, 0.3, 0.3], [0.6, 0.2, 0.2]]

    @pytest.mark.parametrize("key, value", [
        ("train_fraction", 1.0), ("train_fraction", 0.0), ("train_fraction", "x"),
    ])
    def test_bad_split_value(self, key, value):
        with pytest.raises(ConfigError, match=rf"^config\.{key}: "):
            _base_config(**{key: value})

    @pytest.mark.parametrize("path, overrides", [
        ("alpha_level", {"alpha_level": "abc"}),
        ("replications", {"replications": "x"}),
        ("replications", {"replications": 2.7}),
        ("base_seed", {"base_seed": "s"}),
        ("data.n", {"data": {"kind": "synthetic", "generator": "hetero1d", "n": 0}}),
        ("data.n", {"data": {"kind": "synthetic", "generator": "hetero1d", "n": "x"}}),
        ("shift.beta", {"shift": {"kind": "sigmoid", "beta": "x"}}),
        ("data.n_target", {"data": {"kind": "synthetic", "generator": "affine_gauss", "n": 100,
                                    "n_target": "x"}, "shift": {"kind": "none"}}),
        ("data.n_target", {"data": {"kind": "synthetic", "generator": "affine_gauss", "n": 100,
                                    "n_target": 0}, "shift": {"kind": "none"}}),
        ("data.path", {"data": {"kind": "csv", "path": ["a.csv"], "label_column": "y"}}),
        ("data.label_column", {"data": {"kind": "csv", "path": "a.csv", "label_column": 1}}),
        ("shift.beta", {"shift": {"kind": "tilt", "beta": [1e400]}}),
        ("shift.beta", {"shift": {"kind": "tilt", "beta": 10 ** 400}}),
        ("shift.beta", {"shift": {"kind": "tilt", "beta": []}}),
        ("shift.a", {"shift": {"kind": "affine", "a": [[1.0, 0.0]], "b": [0.0]}}),
        ("shift.a", {"shift": {"kind": "affine", "a": [[math.nan]], "b": [0.0]}}),
        ("shift.a", {"shift": {"kind": "affine", "a": [], "b": []}}),
        ("shift.b", {"shift": {"kind": "affine", "a": [[1.0]], "b": "x"}}),
        ("out_dir", {"out_dir": ["results"]}),
    ])
    def test_bad_scenario_value(self, path, overrides):
        with pytest.raises(ConfigError, match=f"^{re.escape('config.' + path)}: must "):
            _base_config(**overrides)

    @pytest.mark.parametrize("path, overrides", [
        ("target_size", {"target_size": 100}),
        ("data.a", {"data": {"kind": "synthetic", "generator": "affine_gauss", "n": 100,
                             "a": [[1.0]]}, "shift": {"kind": "none"}}),
        ("data.b", {"data": {"kind": "synthetic", "generator": "affine_gauss", "n": 100,
                             "b": [0.0]}, "shift": {"kind": "none"}}),
        ("data.noise_scale", {"data": {"kind": "synthetic", "generator": "affine_gauss",
                                       "n": 100, "noise_scale": 2.0},
                              "shift": {"kind": "none"}}),
        ("data.n_target", {"data": {"kind": "synthetic", "generator": "hetero1d", "n": 100,
                                    "n_target": 50}}),
        ("data.label_column", {"data": {"kind": "synthetic", "generator": "hetero1d",
                                        "n": 100, "label_column": "y"}}),
        ("shift.beta", {"shift": {"kind": "affine", "a": [[1.0]], "b": [0.0], "beta": [1.0]}}),
        ("shift.gamma", {"shift": {"kind": "sigmoid", "beta": [1.0], "gamma": 2}}),
        ("shift.beta", {"shift": {"kind": "none", "beta": [1.0]}}),
        ("fractions", {"fractions": [0.5, 0.5]}),
        ("fractions", {"fractions": [0.9, 0.1, 0.0]}),
    ])
    def test_unknown_key_names_its_path(self, path, overrides):
        # retired keys (target_size, the top-level fractions, and data.a,
        # data.b and data.noise_scale of affine_gauss) and misplaced ones
        # fail at load
        with pytest.raises(ConfigError, match=f"^{re.escape('config.' + path)}: not a field"):
            _base_config(**overrides)

    @pytest.mark.parametrize("path, overrides", [
        ("shift.a", {"shift": {"kind": "affine", "b": [0.0]}}),
        ("shift.beta", {"shift": {"kind": "tilt"}}),
        ("data.path", {"data": {"kind": "csv", "label_column": "y"}}),
        ("data.generator", {"data": {"kind": "synthetic", "n": 100}}),
        ("shift.kind", {"shift": {"beta": [1.0]}}),
        ("methods[0].name", {"methods": [{"mode": "exact"}]}),
    ])
    def test_missing_key_names_its_path(self, path, overrides):
        with pytest.raises(ConfigError, match=f"^{re.escape('config.' + path)}: missing"):
            _base_config(**overrides)

    def test_scalar_beta_loads(self):
        assert _base_config(shift={"kind": "tilt", "beta": 1.5}).shift["beta"] == 1.5

    @pytest.mark.parametrize("path, overrides", [
        ("data.kind", {"data": {"kind": "parquet", "path": "a.parquet"}}),
        ("data.generator", {"data": {"kind": "synthetic", "generator": ["hetero1d"], "n": 9}}),
        ("shift.kind", {"shift": {"kind": None}}),
        ("methods[0].name", {"methods": [{"name": {"alg1": 1}}]}),
    ])
    def test_selector_names_a_known_entry(self, path, overrides):
        with pytest.raises(ConfigError, match=f"^{re.escape('config.' + path)}: must be one of"):
            _base_config(**overrides)

    def test_bad_alpha(self):
        with pytest.raises(ConfigError, match="alpha_level"):
            _base_config(alpha_level=1.5)

    def test_empty_methods(self):
        with pytest.raises(ConfigError, match="methods"):
            _base_config(methods=[])

    def test_paired_generator_rejects_shift(self):
        with pytest.raises(ConfigError, match="paired"):
            _base_config(data={"kind": "synthetic", "generator": "affine_gauss",
                               "n": 100})


# The scenario loader and the library must accept the same values: a value
# the loader passes must not fail in every replication, and a value it
# refuses must not be one the library would have taken.
PROBES = [True, "x", -1, 0, 0.25, 0.7, math.inf, math.nan, None]
RULE_KEYS = [(name, key) for name, keys in METHOD_KEYS.items() for key in keys
             if key != "candidates"]
# a valid split, two parts, a zero part, a ragged list and a 1-d array
FRACTION_PROBES = [[0.5, 0.25, 0.25], [0.5, 0.5], [0.5, 0.5, 0.0], [0.5, [0.25], 0.25],
                   np.array([0.2, 0.3, 0.5])]
_SRC = gen_hetero_sim(300, seed=3)


def _library_call(name, key):
    """The library argument that a method key sets, and a call of the
    function that takes it, with that argument alone given."""
    if name == "alg1":
        return key, lambda v: fit_covariate_shift(_SRC, _SRC.x[:60], 0.1, **{key: v})
    if name == "alg2":
        return key, lambda v: fit_transport(_SRC, _SRC.x[:60], 0.1, **{key: v})
    if key in ("sigma_min", "bandwidth"):
        train1, cal = split(_SRC, SplitSpec((0.5, 0.5), 0))
        return key, lambda v: fit_wvac(train1, cal, None, **{key: v})
    arg = "ridge" if key == "ratio_ridge" else key
    return arg, lambda v: fit_density_ratio(_SRC.x, _SRC.x[:60], **{arg: v})


@pytest.mark.parametrize("value", PROBES, ids=repr)
@pytest.mark.parametrize("name, key", RULE_KEYS)
def test_loader_and_library_agree(name, key, value):
    arg, call = _library_call(name, key)
    try:
        _base_config(methods=[{"name": name, key: value}])
    except ConfigError as exc:
        assert str(exc).startswith(f"config.methods[0].{key}: ")
        with pytest.raises(ConfigError, match=rf"^{arg}: "):
            call(value)
    else:
        call(value)


@pytest.mark.parametrize("value", FRACTION_PROBES, ids=repr)
@pytest.mark.parametrize("name", ["alg1", "alg2"])
def test_loader_and_library_agree_on_fractions(name, value):
    test_loader_and_library_agree(name, "fractions", value)


@pytest.mark.parametrize("value", [
    0.5, "abc", None, {"a": 1}, [0.5, [0.25], 0.25], [[0.5], [0.25], [0.25]], [0.5, 0.25],
    [True, 0.0, 0.0], [0.5, 0.25, 0.25 + 1e-8], [0.5, 0.5, math.nan], [0.5, -0.25, 0.75],
    np.array(0.5), np.full((3, 1), 1 / 3), "0.5", {0.5, 0.25},
], ids=repr)
def test_fractions_rule_refuses_without_raising(value):
    assert ARG_RULES["fractions"][1](value) is False


@pytest.mark.parametrize("value", [(0.5, 0.25, 0.25), [1 / 3] * 3, [0.5, 0.25, 0.25 + 1e-10],
                                   np.array([0.2, 0.3, 0.5]), [np.float64(0.5), 0.25, 0.25]],
                         ids=repr)
def test_fractions_rule_accepts_three_positive_parts(value):
    assert ARG_RULES["fractions"][1](value) is True


@pytest.mark.parametrize("value", [np.array([0.2, 0.3, 0.5]), np.array(["exact", "hinge"]),
                                   np.array("ols"), 3, None, ("knn",)], ids=repr)
@pytest.mark.parametrize("name", ["mode", "transport_mode", "mean_method"])
def test_name_rules_refuse_a_non_string_with_a_config_error(name, value):
    # `in` on an array raises a bare ValueError; each name rule refuses it
    with pytest.raises(ConfigError, match=rf"^{name}: must "):
        check_args(**{name: value})


def test_every_checked_method_key_has_a_rule():
    for _, key in RULE_KEYS:
        assert ("ridge" if key == "ratio_ridge" else key) in ARG_RULES


def test_every_scenario_value_key_has_a_rule():
    # all but the sections, the selectors and the candidate list
    keys = {f.name for f in fields(ScenarioConfig)}
    for table in (DATA_KEYS, SHIFT_KEYS, METHOD_KEYS):
        keys.update(key for section_keys in table.values() for key in section_keys)
    assert keys - set(ARG_RULES) == {"data", "shift", "methods", "generator", "candidates"}


def test_readme_scenario_example_loads():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = readme.split("## Scenario configuration")[1].split("```json\n")[1].split("```")[0]
    cfg = ScenarioConfig.from_dict(json.loads(example))
    assert [m["name"] for m in cfg.methods] == ["alg1", "wvac"]
