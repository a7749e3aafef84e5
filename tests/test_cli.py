"""End-to-end command-line checks: gen -> fit -> predict -> eval, the
bench subcommand, and error reporting."""

import json
from pathlib import Path

import pytest

from piagg.cli import main


def test_gen_fit_predict_eval_chain(tmp_path, capsys):
    src = tmp_path / "source.csv"
    tgt = tmp_path / "target.csv"
    model = tmp_path / "model.json"
    pred = tmp_path / "intervals.csv"
    labels = tmp_path / "labels.csv"
    report = tmp_path / "report.json"

    assert main(["gen", "--scenario", "hetero1d", "--out", str(src),
                 "--n", "600", "--seed", "3"]) == 0
    assert main(["gen", "--scenario", "hetero1d", "--out", str(tgt),
                 "--n", "200", "--seed", "4"]) == 0

    assert main(["fit", "--source", str(src), "--target-x", str(tgt),
                 "--method", "alg1", "--alpha", "0.1",
                 "--model", str(model)]) == 0
    doc = json.load(open(model))
    assert doc["format"] == "piagg-model-v1"
    assert doc["alpha_level"] == 0.1

    # split the generated target into a covariate file and a label file
    rows = open(tgt).read().splitlines()
    tgt_x = tmp_path / "target_x.csv"
    tgt_x.write_text("\n".join(["x1"] + [r.split(",")[0] for r in rows[1:]]) + "\n")
    labels.write_text("\n".join(["y"] + [r.split(",")[1] for r in rows[1:]]) + "\n")

    assert main(["predict", "--model", str(model), "--x", str(tgt_x),
                 "--out", str(pred)]) == 0
    header = open(pred).readline().strip()
    assert header == "lower,center,upper"
    assert main(["eval", "--intervals", str(pred), "--labels", str(labels),
                 "--out", str(report)]) == 0
    rep = json.load(open(report))
    assert 0.0 <= rep["coverage"] <= 1.0
    assert rep["avg_width"] >= 0.0


def test_gen_tilt_and_affine(tmp_path):
    out = tmp_path / "tilt.csv"
    assert main(["gen", "--scenario", "tilt", "--out", str(out), "--n", "300",
                 "--beta", "2.0"]) == 0
    assert len(open(out).read().splitlines()) == 301

    src = tmp_path / "affine_src.csv"
    tgt = tmp_path / "affine_tgt.csv"
    assert main(["gen", "--scenario", "affine", "--out", str(src),
                 "--out-target", str(tgt), "--n", "200", "--m", "100"]) == 0
    assert open(src).readline().count(",") == 5  # five covariates plus label
    assert len(open(tgt).read().splitlines()) == 101


def test_gen_affine_default_target_size(tmp_path):
    # without --m, the generator draws max(n // 4, 1) target rows itself
    outs = []
    for m in ([], ["--m", "12"]):
        src, tgt = tmp_path / f"src{len(m)}.csv", tmp_path / f"tgt{len(m)}.csv"
        assert main(["gen", "--scenario", "affine", "--out", str(src), "--out-target", str(tgt),
                     "--n", "50", *m]) == 0
        outs.append((src.read_bytes(), tgt.read_bytes()))
    assert outs[0] == outs[1]
    assert len(outs[0][1].splitlines()) == 13


def test_bench_subcommand(tmp_path):
    cfg = {
        "data": {"kind": "synthetic", "generator": "hetero1d", "n": 300},
        "shift": {"kind": "sigmoid", "beta": [2.0]},
        "methods": [{"name": "alg1"}],
        "alpha_level": 0.1,
        "replications": 2,
        "base_seed": 5,
    }
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "results"
    assert main(["bench", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    lines = (out_dir / "per_rep.csv").read_text().splitlines()
    assert len(lines) == 3
    summary = json.loads((out_dir / "summary.json").read_text())
    assert "alg1" in summary["aggregates"]


def test_error_object_on_stderr(tmp_path, capsys):
    code = main(["fit", "--source", str(tmp_path / "missing.csv"),
                 "--target-x", str(tmp_path / "missing.csv"),
                 "--method", "alg1", "--alpha", "0.1",
                 "--model", str(tmp_path / "m.json")])
    assert code != 0
    err = capsys.readouterr().err.strip()
    obj = json.loads(err)
    assert "error" in obj and "message" in obj


@pytest.mark.parametrize("method", ["alg1", "alg2"])
@pytest.mark.parametrize("alpha", ["1.5", "0"])
def test_bad_alpha_is_a_typed_error(tmp_path, capsys, method, alpha):
    src = tmp_path / "s.csv"
    main(["gen", "--scenario", "hetero1d", "--out", str(src), "--n", "200"])
    capsys.readouterr()
    code = main(["fit", "--source", str(src), "--target-x", str(src),
                 "--method", method, "--alpha", alpha,
                 "--model", str(tmp_path / "m.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "ConfigError",
                               "message": "alpha_level: must lie in (0, 1)"}


@pytest.mark.parametrize("scenario, size, message", [
    ("tilt", ["--m", "0"], "m: must be an integer >= 1"),
    ("affine", ["--m", "0"], "n_target: must be an integer >= 1"),
    ("affine", ["--n", "0"], "n: must be an integer >= 1")])
def test_gen_size_of_zero_is_a_typed_error(tmp_path, capsys, scenario, size, message):
    out = tmp_path / "out.csv"
    assert main(["gen", "--scenario", scenario, "--out", str(out), "--n", "50", *size]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "ConfigError", "message": message}
    assert not out.exists()


def test_alg2_fit_roundtrip(tmp_path):
    src = tmp_path / "s.csv"
    tgt = tmp_path / "t.csv"
    model = tmp_path / "m.json"
    main(["gen", "--scenario", "hetero1d", "--out", str(src), "--n", "500"])
    main(["gen", "--scenario", "hetero1d", "--out", str(tgt), "--n", "150", "--seed", "9"])
    assert main(["fit", "--source", str(src), "--target-x", str(tgt),
                 "--method", "alg2", "--alpha", "0.05", "--model", str(model)]) == 0
    doc = json.load(open(model))
    assert doc["adapter_kind"] == "map"
    assert doc["mode"] == "source_exact"


def test_malformed_model_is_a_typed_error(tmp_path, capsys):
    src = tmp_path / "s.csv"
    model = tmp_path / "m.json"
    main(["gen", "--scenario", "hetero1d", "--out", str(src), "--n", "400"])
    assert main(["fit", "--source", str(src), "--target-x", str(src),
                 "--method", "alg1", "--alpha", "0.1", "--model", str(model)]) == 0
    capsys.readouterr()
    doc = json.load(open(model))
    del doc["alpha"]
    missing = tmp_path / "missing_alpha.json"
    missing.write_text(json.dumps(doc))
    not_json = tmp_path / "not_json.json"
    not_json.write_text("lower,center,upper\n")
    for bad, field in ((missing, "model.alpha"), (not_json, "model")):
        code = main(["predict", "--model", str(bad), "--x", str(src),
                     "--out", str(tmp_path / "out.csv")])
        assert code == 2
        obj = json.loads(capsys.readouterr().err.strip())
        assert obj["error"] == "ConfigError"
        assert obj["message"].startswith(field + ":")


@pytest.mark.parametrize("method, rows", [("alg1", 2), ("alg2", 4)])
def test_too_small_source_is_a_typed_error(tmp_path, capsys, method, rows):
    src = tmp_path / "s.csv"
    src.write_text("x1,y\n" + "".join(f"{0.1 * i},{i}\n" for i in range(rows)))
    code = main(["fit", "--source", str(src), "--target-x", str(src), "--method", method,
                 "--alpha", "0.1", "--model", str(tmp_path / "m.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "EmptyInput"


@pytest.mark.parametrize("corrupt", [
    lambda state: state.pop(),
    lambda state: state[-1].update(bandwidth=0),
], ids=["state_one_short", "bandwidth_zero"])
def test_malformed_candidate_state_is_a_typed_error(tmp_path, capsys, corrupt):
    src = tmp_path / "s.csv"
    model = tmp_path / "m.json"
    main(["gen", "--scenario", "hetero1d", "--out", str(src), "--n", "400"])
    assert main(["fit", "--source", str(src), "--target-x", str(src),
                 "--method", "alg1", "--alpha", "0.1", "--model", str(model)]) == 0
    capsys.readouterr()
    doc = json.load(open(model))
    assert doc["bank"]["specs"][-1]["kind"] == "kernel_variance"
    corrupt(doc["bank"]["state"])
    model.write_text(json.dumps(doc))
    code = main(["predict", "--model", str(model), "--x", str(src),
                 "--out", str(tmp_path / "out.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    obj = json.loads(err)
    assert obj["error"] == "ConfigError"
    assert obj["message"].startswith("model.bank: ")


# before, an infinite shrink level wrote ±inf bounds and exited 0, and a
# null alg2_delta raised a bare TypeError at predict
@pytest.mark.parametrize("field, value, message", [
    ("lambda_hat", float("inf"), "model.lambda_hat: must be finite and >= 0"),
    ("alg2_delta", None, "model.alg2_delta: must be a number, 0 for an Alg. 1 model"),
], ids=["infinite_shrink_level", "null_alg2_delta"])
def test_model_with_a_bad_scalar_is_a_typed_error(tmp_path, capsys, field, value, message):
    doc = json.loads((Path(__file__).parent / "data" / "model_v1_alg1_1d.json").read_text())
    doc[field] = value
    model = tmp_path / "m.json"
    model.write_text(json.dumps(doc))
    x = tmp_path / "x.csv"
    x.write_text("x1\n0.0\n0.5\n")
    assert main(["predict", "--model", str(model), "--x", str(x),
                 "--out", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert json.loads(err) == {"error": "ConfigError", "message": message}


_SCENARIO = {"data": {"kind": "synthetic", "generator": "hetero1d", "n": 300},
             "shift": {"kind": "sigmoid", "beta": [2.0]}, "methods": [{"name": "alg1"}],
             "alpha_level": 0.1, "replications": 1, "base_seed": 5}


def _scenario(**changes) -> str:
    return json.dumps({**_SCENARIO, **changes})


@pytest.mark.parametrize("text, error, message", [
    ('{"data": ', "ConfigError", "config: not a JSON document ("),
    ("5", "ConfigError", "config: must be an object"),
    (_scenario(data=3), "ConfigError", "config.data: must be an object"),
    (_scenario(shift="tilt"), "ConfigError", "config.shift: must be an object"),
    (_scenario(shift={"kind": ["tilt"]}), "ConfigError", "config.shift.kind: must be one of"),
    (_scenario(methods=["alg1"]), "ConfigError", "config.methods[0]: must be an object"),
    (_scenario(methods=[{"name": ["alg1"]}]), "ConfigError",
     "config.methods[0].name: must be one of"),
    # 0 and 5 would be read as file descriptors
    (_scenario(data={"kind": "csv", "path": 0, "label_column": "y"}), "ConfigError",
     "config.data.path: must be a string"),
    (_scenario(data={"kind": "csv", "path": 5, "label_column": "y"}), "ConfigError",
     "config.data.path: must be a string"),
    (_scenario(shift={"kind": "affine", "a": "x", "b": [0]}), "ConfigError",
     "config.shift.a: must be a square list"),
    (_scenario(out_dir=7), "ConfigError", "config.out_dir: must be null or a string"),
    (_scenario(shift={"kind": "sigmoid", "beta": [1, 2]}), "DimensionMismatch", "beta length"),
    # without a label column the label would be fitted on as a covariate
    (_scenario(data={"kind": "csv", "path": "source.csv"}), "ConfigError",
     "config.data.label_column: missing required field"),
], ids=["not_json", "not_an_object", "data_not_an_object", "shift_not_an_object",
        "shift_kind_a_list", "method_not_an_object", "method_name_a_list", "path_0", "path_5",
        "shift_a_a_string", "out_dir_a_number", "beta_too_long", "csv_without_label_column"])
def test_bad_scenario_is_one_json_line(tmp_path, capsys, text, error, message):
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(text)
    args = ["bench", "--config", str(cfg_path)]
    if "out_dir" not in text:  # the out_dir case runs without --out, as it names its own
        args += ["--out", str(tmp_path / "results")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == error
    assert json.loads(err)["message"].startswith(message)
    assert not (tmp_path / "results").exists()


def test_scalar_sigmoid_beta_runs(tmp_path):
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(_scenario(shift={"kind": "sigmoid", "beta": 2.0}))
    assert main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "results")]) == 0
    summary = json.loads((tmp_path / "results" / "summary.json").read_text())
    assert summary["failures"] == [] and "alg1" in summary["aggregates"]


def test_fit_reads_the_target_once_and_drops_its_label_column(tmp_path, monkeypatch):
    from piagg import cli
    src = tmp_path / "s.csv"
    tgt = tmp_path / "t.csv"
    main(["gen", "--scenario", "hetero1d", "--out", str(src), "--n", "400"])
    main(["gen", "--scenario", "hetero1d", "--out", str(tgt), "--n", "150", "--seed", "9"])
    tgt_x = tmp_path / "t_x.csv"
    tgt_x.write_text("".join(line.split(",")[0] + "\n"
                             for line in tgt.read_text().splitlines()))
    reads = []

    def load_csv(path, label_column=None):
        reads.append(path)
        return real(path, label_column)

    real = cli.load_csv
    monkeypatch.setattr(cli, "load_csv", load_csv)
    docs = []
    for target in (tgt, tgt_x):
        model = tmp_path / "m.json"
        assert main(["fit", "--source", str(src), "--target-x", str(target),
                     "--method", "alg1", "--alpha", "0.1", "--model", str(model)]) == 0
        docs.append(model.read_text())
    assert reads == [str(src), str(tgt), str(src), str(tgt_x)]
    assert docs[0] == docs[1]
