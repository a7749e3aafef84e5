"""The four benchmark workloads.

A workload builds its inputs from the run seed, runs one replication at
a time (data generation, every method's fit and prediction, scoring) and
keeps what its correctness checks need. Timed regions contain program
calls only; checks run between replications, outside them.

An operation is one method's fit plus its prediction in one replication.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

import checks
from piagg import aggregate, bench, conformal, dataset, densratio

ALPHA = 0.05
BETA = 2.0
AFFINE_A = np.diag([1.5, 1.2, 1.6, 2.0, 1.8])
AFFINE_B = np.array([1.0, 0.0, 0.0, 1.0, 0.0])
BIT_CHECK_ROWS = 2000


def rep_seed(seed: int, rep: int, stream: int) -> int:
    """Seed of one random stream of one replication, derived by the
    benchmark itself so the inputs do not depend on the program's own
    seed mixing."""
    return int(np.random.SeedSequence([seed, rep, stream]).generate_state(1, np.uint64)[0])


def tilt_data(n_total: int, n_target: int, seed: int, rep: int):
    """hetero1d table of n_total rows, a 75/25 split, and a target of
    n_target rows resampled from the held-out block with probability
    proportional to sigmoid(BETA * x)."""
    table = dataset.gen_hetero_sim(n_total, rep_seed(seed, rep, 1))
    train, held = dataset.split(table, dataset.SplitSpec((0.75, 0.25), rep_seed(seed, rep, 2)))
    tilt = 1.0 / (1.0 + np.exp(-BETA * held.x[:, 0]))
    target = dataset.weighted_resample(held, tilt, n_target, rep_seed(seed, rep, 3))
    return train, target


def half_width(batch) -> float:
    w = batch.upper - batch.lower
    finite = np.isfinite(w)
    return float(np.mean(w[finite])) / 2.0 if np.any(finite) else float("inf")


class Run:
    """Operation counts, timings and check results of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.fit_s: list[float] = []
        self.predict_rows_per_s: list[float] = []
        self.half_widths: dict[int, float] = {}
        self.checks: list[tuple[str, bool, str]] = []
        self.infinite_intervals = 0

    def check(self, name: str, result: tuple[bool, str]) -> None:
        self.checks.append((name, bool(result[0]), result[1]))

    def op(self, fn):
        """Attempt one operation; a raised error counts it as failed."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # one failed operation must not end the run
            self.failed += 1
            print(f"operation failed: {type(exc).__name__}: {exc}", flush=True)
            return None


class Workload:
    name = ""
    reps_per_round = 1

    def __init__(self, size: str):
        # tiny inputs run every code path; the statistical range checks
        # hold only at full size
        self.tiny = size == "tiny"

    def warm_up(self) -> None:
        """Run every timed call once on small inputs, so lazy imports and
        first-call costs land in set-up, not in the first operation."""
        raise NotImplementedError

    def rep(self, run: Run, seed: int, rep: int):
        """One replication; returns what check_rep needs."""
        raise NotImplementedError

    def check_rep(self, run: Run, out) -> None:
        raise NotImplementedError

    def check_run(self, run: Run) -> None:
        pass

    def band_rep(self, run: Run, rep: int, batch) -> None:
        if rep < self.reps_per_round:
            run.half_widths[rep] = half_width(batch)


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


class McTilt(Workload):
    """Covariate-shift robustness study: alg1 exact, wvac, wqc."""

    name = "mc_tilt"
    reps_per_round = 4

    def __init__(self, size: str):
        super().__init__(size)
        self.n = 400 if self.tiny else 2500
        self.cov = {"alg1": [], "wvac": [], "wqc": []}
        self.widths: list[float] = []

    def warm_up(self):
        train, target = tilt_data(200, 50, 0, 0)
        model = aggregate.fit_covariate_shift(train, target.x, ALPHA, seed=1)
        aggregate.predict_interval(model, target.x)
        self._conformal("wvac", train, target.x, 1)
        self._conformal("wqc", train, target.x, 1)

    @staticmethod
    def _conformal(method, train, tx, seed):
        train1, cal = dataset.split(train, dataset.SplitSpec((0.5, 0.5), seed))
        ratio = densratio.fit_density_ratio(train1.x, tx)
        if method == "wvac":
            model = conformal.fit_wvac(train1, cal, ratio, bandwidth=0.005)
            return conformal.predict_wvac(model, tx, ALPHA)
        model = conformal.fit_wqc(train1, cal, ratio, ALPHA)
        return conformal.predict_wqc(model, tx, ALPHA)

    def rep(self, run, seed, rep):
        train, target = tilt_data(self.n, self.n - int(0.75 * self.n), seed, rep)
        out = {"rep": rep}

        def alg1():
            model, fit_s = timed(lambda: aggregate.fit_covariate_shift(
                train, target.x, ALPHA, seed=rep_seed(seed, rep, 4), mode="exact"))
            batch, pred_s = timed(lambda: aggregate.predict_interval(model, target.x))
            run.fit_s.append(fit_s)
            run.predict_rows_per_s.append(target.n / pred_s)
            return batch, bench.coverage_and_width(batch, target.y)

        out["alg1"] = run.op(alg1)
        for k, method in enumerate(("wvac", "wqc")):
            mseed = rep_seed(seed, rep, 5 + k)

            def conformal_op():
                batch = self._conformal(method, train, target.x, mseed)
                return batch, bench.coverage_and_width(batch, target.y)

            out[method] = run.op(conformal_op)
        return out

    def check_rep(self, run, out):
        for method in ("alg1", "wvac", "wqc"):
            if out[method] is None:
                continue
            batch, (cov, _) = out[method]
            run.check(f"{method} interval invariants",
                      checks.interval_invariants(batch.lower, batch.center, batch.upper))
            run.infinite_intervals += int(np.count_nonzero(~np.isfinite(batch.upper - batch.lower)))
            self.cov[method].append(cov)
        if out["alg1"] is not None:
            batch = out["alg1"][0]
            self.widths.append(2.0 * half_width(batch))
            self.band_rep(run, out["rep"], batch)

    def check_run(self, run):
        if self.tiny:
            return
        run.check("alg1 median coverage", checks.in_range(
            statistics.median(self.cov["alg1"]), 0.93, 0.985))
        mean_width = float(np.mean(self.widths))
        run.check("alg1 mean half-width", checks.in_range(mean_width / 2.0, 1.85, 2.40))
        run.check("alg1 full width vs 0.9 x oracle", checks.at_least(
            mean_width, 0.9 * checks.oracle_full_width(BETA, 1.0 - ALPHA)))
        for method in ("wvac", "wqc"):
            run.check(f"{method} median coverage", checks.at_least(
                statistics.median(self.cov[method]), 0.93))


class McAffine5d(Workload):
    """Transport study: alg2 on affine-shifted 5-d Gaussians."""

    name = "mc_affine5d"
    reps_per_round = 2

    def __init__(self, size: str):
        super().__init__(size)
        self.n_source, self.n_target = (500, 250) if self.tiny else (4000, 2000)
        self.cov: list[float] = []

    def warm_up(self):
        source, target = dataset.gen_affine_gauss(300, 100, AFFINE_A, AFFINE_B, 1)
        model = aggregate.fit_transport(source, target.x, ALPHA, seed=1)
        aggregate.predict_interval(model, target.x)

    def rep(self, run, seed, rep):
        source, target = dataset.gen_affine_gauss(self.n_source, self.n_target,
                                                  AFFINE_A, AFFINE_B, rep_seed(seed, rep, 1))

        def alg2():
            model, fit_s = timed(lambda: aggregate.fit_transport(
                source, target.x, ALPHA, seed=rep_seed(seed, rep, 2)))
            batch, pred_s = timed(lambda: aggregate.predict_interval(model, target.x))
            run.fit_s.append(fit_s)
            run.predict_rows_per_s.append(target.n / pred_s)
            return model.adapter, batch, bench.coverage_and_width(batch, target.y)

        return rep, run.op(alg2)

    def check_rep(self, run, out):
        rep, res = out
        if res is None:
            return
        amap, batch, (cov, _) = res
        run.check("alg2 interval invariants",
                  checks.interval_invariants(batch.lower, batch.center, batch.upper))
        if not self.tiny:
            run.check("alg2 map inverts the generator",
                      checks.map_close(amap.a, amap.b, AFFINE_A, AFFINE_B))
        self.cov.append(cov)
        self.band_rep(run, rep, batch)

    def check_run(self, run):
        if not self.tiny:
            run.check("alg2 median coverage",
                      checks.in_range(statistics.median(self.cov), 0.92, 0.98))


class LargeFit(Workload):
    """One-off alg1 exact fit at scale, saved, loaded and predicted on the
    whole target batch, as `piagg fit` then `piagg predict` do."""

    name = "large_fit"
    reps_per_round = 2

    def __init__(self, size: str, out_dir: str):
        super().__init__(size)
        self.n_total, self.n_target = (1200, 800) if self.tiny else (26667, 20000)
        self.path = os.path.join(out_dir, f"large_fit_model_{os.getpid()}.json")

    def warm_up(self):
        train, target = tilt_data(400, 100, 0, 0)
        model = aggregate.fit_covariate_shift(train, target.x, ALPHA, seed=1)
        aggregate.save_model(model, self.path)
        aggregate.predict_interval(aggregate.load_model(self.path), target.x)
        os.remove(self.path)

    def rep(self, run, seed, rep):
        train, target = tilt_data(self.n_total, self.n_target, seed, rep)

        def fit_save_load_predict():
            model, fit_s = timed(lambda: aggregate.fit_covariate_shift(
                train, target.x, ALPHA, seed=rep_seed(seed, rep, 4), mode="exact"))
            aggregate.save_model(model, self.path)
            batch, pred_s = timed(lambda: aggregate.predict_interval(
                aggregate.load_model(self.path), target.x))
            run.fit_s.append(fit_s)
            run.predict_rows_per_s.append(target.n / pred_s)
            return model, batch, bench.coverage_and_width(batch, target.y)

        res = run.op(fit_save_load_predict)
        if os.path.exists(self.path):
            os.remove(self.path)
        return rep, target, res

    def check_rep(self, run, out):
        rep, target, res = out
        if res is None:
            return
        model, batch, (cov, width) = res
        run.check("alg1 interval invariants",
                  checks.interval_invariants(batch.lower, batch.center, batch.upper))
        # prediction is row-wise, so a prefix of the batch shows any difference
        rows = slice(0, BIT_CHECK_ROWS)
        direct = aggregate.predict_interval(model, target.x[rows])
        run.check("loaded model predicts bit-identically", checks.bit_identical(
            (direct.lower, direct.center, direct.upper),
            (batch.lower[rows], batch.center[rows], batch.upper[rows])))
        if not self.tiny:
            run.check("alg1 target coverage", checks.in_range(cov, 0.93, 0.97))
            run.check("alg1 full width vs 0.9 x oracle", checks.at_least(
                width, 0.9 * checks.oracle_full_width(BETA, 1.0 - ALPHA)))
        self.band_rep(run, rep, batch)


class HingeLp(Workload):
    """alg1 in hinge mode on mc_tilt's data: the shape LP dominates."""

    name = "hinge_lp"
    reps_per_round = 8

    def __init__(self, size: str):
        super().__init__(size)
        self.n = 400 if self.tiny else 2500

    def warm_up(self):
        train, target = tilt_data(200, 50, 0, 0)
        model = aggregate.fit_covariate_shift(train, target.x, ALPHA, seed=1, mode="hinge")
        aggregate.predict_interval(model, target.x)

    def rep(self, run, seed, rep):
        train, target = tilt_data(self.n, self.n - int(0.75 * self.n), seed, rep)
        fit_seed = rep_seed(seed, rep, 4)

        def alg1_hinge():
            model, fit_s = timed(lambda: aggregate.fit_covariate_shift(
                train, target.x, ALPHA, seed=fit_seed, mode="hinge"))
            batch, pred_s = timed(lambda: aggregate.predict_interval(model, target.x))
            run.fit_s.append(fit_s)
            run.predict_rows_per_s.append(target.n / pred_s)
            return model, batch, bench.coverage_and_width(batch, target.y)

        return rep, train, target, fit_seed, run.op(alg1_hinge)

    @staticmethod
    def shape_block(model, train, target_x, fit_seed):
        """The hinge LP's inputs rebuilt from the fitted model: candidate
        evaluations, squared residuals and ratio weights on the shape
        block, and the target-mean objective."""
        _, d21, _ = dataset.split(train, dataset.SplitSpec((0.5, 0.25, 0.25), fit_seed))
        r2 = (d21.y - model.mean_model.predict(d21.x)) ** 2
        w = densratio.eval_ratio(model.adapter, d21.x)
        obj = model.bank.evaluate(target_x).mean(axis=0)
        return model.bank.evaluate(d21.x), r2, w, obj

    @staticmethod
    def check_shape(run, alpha, phi, r2, w, obj, delta, epsilon):
        value = checks.hinge_budget(phi, r2, w, alpha, delta)
        run.check("hinge budget holds", (value <= epsilon + 1e-9,
                                         f"{value:.6g} <= {epsilon} + 1e-9"))
        reference = checks.hinge_lp_reference(phi, r2, w, obj, delta, epsilon)
        run.check("hinge shape objective is optimal",
                  checks.lp_optimal(float(obj @ alpha), reference))

    def check_rep(self, run, out):
        rep, train, target, fit_seed, res = out
        if res is None:
            return
        model, batch, _ = res
        run.check("alg1 interval invariants",
                  checks.interval_invariants(batch.lower, batch.center, batch.upper))
        phi, r2, w, obj = self.shape_block(model, train, target.x, fit_seed)
        self.check_shape(run, model.shape.alpha, phi, r2, w, obj,
                         model.shape.delta, model.shape.epsilon)
        self.band_rep(run, rep, batch)


def make(name: str, size: str, out_dir: str) -> Workload:
    if name == "mc_tilt":
        return McTilt(size)
    if name == "mc_affine5d":
        return McAffine5d(size)
    if name == "large_fit":
        return LargeFit(size, out_dir)
    if name == "hinge_lp":
        return HingeLp(size)
    raise ValueError(f"unknown workload {name!r}")
