"""Command-line entry points.

Subcommands
-----------
bench    run a scenario config and write per_rep.csv / summary.json
fit      fit alg1 or alg2 on a source CSV plus target covariates CSV
predict  apply a saved model to covariates and write interval columns
eval     score an interval CSV against a label CSV
gen      write synthetic datasets to CSV

Every failure exits nonzero after printing a one-line JSON error object
to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .aggregate import (
    IntervalBatch,
    fit_covariate_shift,
    fit_transport,
    load_model,
    predict_interval,
    read_json,
    save_model,
)
from .bench import (
    DEFAULT_AFFINE_A,
    DEFAULT_AFFINE_B,
    ScenarioConfig,
    coverage_and_width,
    emit_report,
    run_scenario,
)
from .dataset import gen_affine_gauss, gen_hetero_sim, load_csv, tilt_resample, write_csv
from .errors import ConfigError, PiaggError


def _cmd_bench(args) -> int:
    cfg = ScenarioConfig.from_dict(read_json(args.config, "config"))
    out_dir = args.out or cfg.out_dir
    if out_dir is None:
        raise ConfigError("config.out_dir: missing and no --out given")
    summary = run_scenario(cfg)
    csv_path, json_path = emit_report(summary, out_dir)
    print(csv_path)
    print(json_path)
    return 0


def _cmd_fit(args) -> int:
    source = load_csv(args.source, args.label_column)
    target = load_csv(args.target_x)
    x = target.x
    if args.label_column in target.column_names:
        # covariates only: a stray label column on the target side is dropped
        x = np.delete(x, target.column_names.index(args.label_column), axis=1)
    if args.method == "alg1":
        model = fit_covariate_shift(source, x, args.alpha, seed=args.seed, mode=args.mode)
    else:
        model = fit_transport(source, x, args.alpha, seed=args.seed)
    save_model(model, args.model)
    print(args.model)
    return 0


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    x = load_csv(args.x)
    batch = predict_interval(model, x.x)
    write_csv(args.out, ["lower", "center", "upper"], zip(batch.lower, batch.center, batch.upper))
    print(args.out)
    return 0


def _cmd_eval(args) -> int:
    table = load_csv(args.intervals)
    cols = {name: i for i, name in enumerate(table.column_names)}
    for name in ("lower", "center", "upper"):
        if name not in cols:
            raise ConfigError(f"intervals file lacks a '{name}' column")
    batch = IntervalBatch(table.x[:, cols["lower"]], table.x[:, cols["upper"]],
                          table.x[:, cols["center"]])
    labels = load_csv(args.labels)
    if labels.d != 1:
        raise ConfigError("labels file must have exactly one column")
    cov, width = coverage_and_width(batch, labels.x[:, 0])
    report = {"coverage": cov, "avg_width": width,
              "n_infinite": int(np.count_nonzero(~np.isfinite(batch.width)))}
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
    print(args.out)
    return 0


def _cmd_gen(args) -> int:
    if args.scenario == "hetero1d":
        table = gen_hetero_sim(args.n, args.seed)
    elif args.scenario == "tilt":
        base = gen_hetero_sim(args.n, args.seed)
        beta = np.asarray(args.beta if args.beta else [1.0], dtype=np.float64)
        table = tilt_resample(base, beta, args.n if args.m is None else args.m, args.seed + 1)
    else:  # "affine": argparse admits only the three choices
        source, target = gen_affine_gauss(args.n, args.m, DEFAULT_AFFINE_A, DEFAULT_AFFINE_B,
                                          args.seed)
        if args.out_target:
            write_csv(args.out_target, target.column_names + ["y"],
                      np.column_stack([target.x, target.y]))
        table = source
    write_csv(args.out, table.column_names + ["y"], np.column_stack([table.x, table.y]))
    print(args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="piagg",
                                     description="Prediction-interval aggregation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bench", help="run a benchmark scenario")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("fit", help="fit an interval model")
    p.add_argument("--source", required=True)
    p.add_argument("--target-x", required=True)
    p.add_argument("--method", choices=("alg1", "alg2"), required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--label-column", default="y")
    p.add_argument("--mode", choices=("exact", "hinge"), default="exact")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("predict", help="predict intervals with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("eval", help="score intervals against labels")
    p.add_argument("--intervals", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gen", help="write a synthetic dataset")
    p.add_argument("--scenario", choices=("hetero1d", "tilt", "affine"), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--out-target", default=None)
    p.add_argument("--n", type=int, default=2500)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--beta", type=float, nargs="*", default=None)
    p.set_defaults(func=_cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PiaggError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2
    except OSError as exc:
        print(json.dumps({"error": "IOError", "message": str(exc)}), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
