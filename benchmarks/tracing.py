"""Span tracing of piagg's public functions, installed from outside.

Each traced function is replaced, wherever a module or class binds it,
by a wrapper that records one span: layer name, start, end, parent span,
replication id and an optional work count. The wrapped program is the
same program; only the lookups change. Spans stay in memory and are
written once, at the end of a run.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    layer: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    rep: int
    count: int = 0
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Records nested spans while ``enabled``; costs one attribute test
    per call otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.enabled = False
        self.rep = -1

    def wrap(self, layer: str, fn, count=None):
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = self.stack[-1] if self.stack else -1
            span = Span(layer, time.perf_counter(), 0.0, parent, self.rep)
            idx = len(self.spans)
            self.spans.append(span)
            self.stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
                if parent >= 0:
                    self.spans[parent].child_s += span.duration
            if count is not None:
                span.count = int(count(args, out))
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        return traced

    def root_time(self) -> float:
        return sum(s.duration for s in self.spans if s.parent < 0)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "layer": s.layer, "start": s.start,
                                     "end": s.end, "parent": s.parent, "rep": s.rep,
                                     "count": s.count}) + "\n")


def _n_rows(args, out) -> int:
    return np.atleast_2d(args[0]).shape[0]


def _out_size(args, out) -> int:
    return np.asarray(out).size


def _lp_rows(args, out) -> int:
    return args[0].ineq_lhs.shape[0]


def _targets():
    """(layer, owner, attribute, count) for every traced public call.

    The layer names are the per-layer metric prefixes; a module function
    is found by its defining module and re-bound wherever it is imported.
    """
    from piagg import (aggregate, bench, candidates, conformal, dataset, densratio,
                       linprog, numerics, rng, transport)

    return [
        ("rng.draw", rng.Rng, "uniform", _out_size),
        ("rng.draw", rng.Rng, "normal", _out_size),
        ("rng.draw", rng.Rng, "permutation", _out_size),
        ("rng.draw", rng.Rng, "choice_with_replacement", _out_size),
        ("dataset.gen", dataset, "gen_hetero_sim", None),
        ("dataset.gen", dataset, "gen_affine_gauss", None),
        ("dataset.split", dataset, "split", None),
        ("dataset.resample", dataset, "weighted_resample", None),
        ("dataset.resample", dataset, "tilt_resample", None),
        ("numerics.qr", numerics, "quantile_reg_fit", _n_rows),
        ("numerics.logistic", numerics, "logistic_fit", None),
        ("numerics.eig", numerics, "sym_eig", None),
        ("linprog.solve", linprog, "solve_lp", _lp_rows),
        ("candidates.mean", candidates, "fit_mean", None),
        ("candidates.mean", candidates, "residuals", None),
        ("candidates.fit", candidates, "fit_candidate_set", None),
        ("candidates.eval", candidates.CandidateBank, "evaluate", _out_size),
        ("densratio.fit", densratio, "fit_density_ratio", None),
        ("densratio.eval", densratio, "eval_ratio", None),
        ("transport.fit", transport, "fit_affine_transport", None),
        ("transport.apply", transport, "apply_map", None),
        ("aggregate.shape", aggregate, "fit_shape_cov_shift", None),
        ("aggregate.shape", aggregate, "fit_shape_source", None),
        ("aggregate.shrink", aggregate, "shrink_cov_shift", None),
        ("aggregate.shrink", aggregate, "shrink_source", None),
        ("aggregate.pipeline", aggregate, "fit_covariate_shift", None),
        ("aggregate.pipeline", aggregate, "fit_transport", None),
        ("aggregate.predict", aggregate, "predict_interval", None),
        ("aggregate.save", aggregate, "save_model", None),
        ("aggregate.load", aggregate, "load_model", None),
        ("conformal.fit", conformal, "fit_wvac", None),
        ("conformal.fit", conformal, "fit_wqc", None),
        ("conformal.predict", conformal, "predict_wvac", None),
        ("conformal.predict", conformal, "predict_wqc", None),
        ("bench.score", bench, "coverage_and_width", None),
    ]


class Installed:
    """Context manager that re-binds every traced call in the loaded piagg
    modules and restores the originals on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        wrappers = {}
        for layer, owner, attr, count in _targets():
            original = owner.__dict__[attr]
            wrapper = self.tracer.wrap(layer, original, count)
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
            else:
                wrappers[id(original)] = (original, wrapper)
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "piagg" or name.startswith("piagg."))]
        for module in modules:
            for name, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, name, hit[1])
        return self.tracer

    def _set(self, owner, attr, value):
        self.undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                          else getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self.undo):
            setattr(owner, attr, value)
        self.undo.clear()
        return False


def layer_metrics(tracer: Tracer, wall_s: float, untraced_s: float) -> dict:
    """Per-layer self times and counts, summed over the run.

    ``trace.unattributed_s`` is the traced wall time outside every root
    span, so the self times plus it add up to ``trace.wall_s``.
    """
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    for s in tracer.spans:
        self_s[s.layer] = self_s.get(s.layer, 0.0) + s.self_s
        calls[s.layer] = calls.get(s.layer, 0) + 1
        counts[s.layer] = counts.get(s.layer, 0) + s.count
    shape_fits = calls.get("aggregate.shape", 0)
    shape_solves = 0
    for s in tracer.spans:
        if s.layer == "linprog.solve" and s.parent >= 0 \
                and tracer.spans[s.parent].layer == "aggregate.shape":
            shape_solves += 1

    def sec(layer):
        return self_s.get(layer, 0.0)

    out = {
        "rng.draw_s": (sec("rng.draw"), "s"),
        "rng.values": (counts.get("rng.draw", 0), "count"),
        "dataset.gen_s": (sec("dataset.gen"), "s"),
        "dataset.split_s": (sec("dataset.split"), "s"),
        "dataset.resample_s": (sec("dataset.resample"), "s"),
        "numerics.qr_s": (sec("numerics.qr"), "s"),
        "numerics.qr_calls": (calls.get("numerics.qr", 0), "count"),
        "numerics.qr_rows": (counts.get("numerics.qr", 0), "rows"),
        "numerics.logistic_s": (sec("numerics.logistic"), "s"),
        "numerics.eig_s": (sec("numerics.eig"), "s"),
        "linprog.solve_s": (sec("linprog.solve"), "s"),
        "linprog.calls": (calls.get("linprog.solve", 0), "count"),
        "linprog.rows": (counts.get("linprog.solve", 0), "rows"),
        "linprog.solves_per_shape_fit": (shape_solves / shape_fits if shape_fits else 0.0,
                                         "ratio"),
        "candidates.mean_s": (sec("candidates.mean"), "s"),
        "candidates.fit_s": (sec("candidates.fit"), "s"),
        "candidates.eval_s": (sec("candidates.eval"), "s"),
        "candidates.eval_rows": (counts.get("candidates.eval", 0), "evals"),
        "densratio.fit_s": (sec("densratio.fit"), "s"),
        "densratio.eval_s": (sec("densratio.eval"), "s"),
        "transport.fit_s": (sec("transport.fit"), "s"),
        "transport.apply_s": (sec("transport.apply"), "s"),
        "aggregate.shape_s": (sec("aggregate.shape"), "s"),
        "aggregate.shrink_s": (sec("aggregate.shrink"), "s"),
        "aggregate.pipeline_s": (sec("aggregate.pipeline"), "s"),
        "aggregate.predict_s": (sec("aggregate.predict"), "s"),
        "aggregate.save_s": (sec("aggregate.save"), "s"),
        "aggregate.load_s": (sec("aggregate.load"), "s"),
        "conformal.fit_s": (sec("conformal.fit"), "s"),
        "conformal.predict_s": (sec("conformal.predict"), "s"),
        "bench.score_s": (sec("bench.score"), "s"),
        "trace.wall_s": (wall_s, "s"),
        "trace.unattributed_s": (wall_s - tracer.root_time(), "s"),
        "trace.overhead_s": (wall_s - untraced_s, "s"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}
