"""Self-tests of the benchmark.

    python3 -m pytest benchmarks -q

Every workload runs to its end at tiny size, traced and untraced, and
every correctness check is shown to fail on a deliberately broken
output.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from run import NAMES  # noqa: E402


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", NAMES)
def test_tiny_run_is_complete_and_correct(workload):
    result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for name, m in result["metrics"].items():
        assert m["value"] > 0, name


@pytest.mark.parametrize("workload", NAMES)
def test_tiny_traced_run_attributes_all_time(workload):
    result = _run(workload, 1)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    self_times = sum(v for k, v in metrics.items()
                     if k.endswith("_s") and not k.startswith("trace."))
    assert self_times + metrics["trace.unattributed_s"] == pytest.approx(
        metrics["trace.wall_s"], rel=1e-9)
    assert metrics["trace.unattributed_s"] >= 0.0


def _tilt_batch(n=600):
    x = np.linspace(-1.0, 1.0, n)
    half = 0.95 * np.sqrt(1.0 + 25.0 * x ** 4)
    return x, -half, np.zeros(n), half


def test_coverage_check_fails_on_halved_intervals():
    x, lower, center, upper = _tilt_batch()
    rng = np.random.default_rng(0)
    y = np.sqrt(1.0 + 25.0 * x ** 4) * rng.uniform(-1.0, 1.0, x.size)
    cover = lambda lo, up: float(np.mean((lo <= y) & (y <= up)))
    assert checks.in_range(cover(lower, upper), 0.93, 0.97)[0]
    assert not checks.in_range(cover(lower / 2, upper / 2), 0.93, 0.97)[0]
    oracle = checks.oracle_full_width(2.0)
    assert 4.0 < oracle < 4.1
    assert not checks.at_least(float(np.mean(upper - lower)) / 2, 0.9 * oracle)[0]


def test_invariant_check_fails_on_nan_or_misordered_bounds():
    _, lower, center, upper = _tilt_batch(10)
    assert checks.interval_invariants(lower, center, upper)[0]
    assert checks.interval_invariants(np.full(10, -np.inf), center, np.full(10, np.inf))[0]
    assert not checks.interval_invariants(lower, center + 5.0, upper)[0]
    bad = upper.copy()
    bad[3] = np.nan
    assert not checks.interval_invariants(lower, center, bad)[0]


def test_map_check_fails_on_perturbed_map():
    a_inv = np.linalg.inv(workloads.AFFINE_A)
    b = -a_inv @ workloads.AFFINE_B
    assert checks.map_close(a_inv, b, workloads.AFFINE_A, workloads.AFFINE_B)[0]
    bent = a_inv.copy()
    bent[1, 2] += 0.15
    assert not checks.map_close(bent, b, workloads.AFFINE_A, workloads.AFFINE_B)[0]
    assert not checks.map_close(a_inv, b + 0.3, workloads.AFFINE_A, workloads.AFFINE_B)[0]


def test_bit_identity_check_fails_on_perturbed_loaded_prediction():
    _, lower, center, upper = _tilt_batch()
    assert checks.bit_identical((lower, center, upper), (lower.copy(), center.copy(),
                                                          upper.copy()))[0]
    nudged = upper.copy()
    nudged[17] = np.nextafter(nudged[17], np.inf)
    assert not checks.bit_identical((lower, center, upper), (lower, center, nudged))[0]


def test_hinge_checks_fail_on_feasible_non_optimal_solution():
    wl = workloads.HingeLp("tiny")
    run = workloads.Run()
    seed, rep = 3, 0
    train, target = workloads.tilt_data(wl.n, wl.n // 4, seed, rep)
    fit_seed = workloads.rep_seed(seed, rep, 4)
    model = workloads.aggregate.fit_covariate_shift(train, target.x, workloads.ALPHA,
                                                    seed=fit_seed, mode="hinge")
    block = wl.shape_block(model, train, target.x, fit_seed)
    shape = model.shape
    wl.check_shape(run, shape.alpha, *block, shape.delta, shape.epsilon)
    assert all(ok for _, ok, _ in run.checks), run.checks

    # doubling every weight keeps the budget (the fit only grows) but is
    # no longer the cheapest band
    worse = workloads.Run()
    wl.check_shape(worse, 2.0 * shape.alpha + 0.1, *block, shape.delta, shape.epsilon)
    verdict = {name: ok for name, ok, _ in worse.checks}
    assert verdict == {"hinge budget holds": True, "hinge shape objective is optimal": False}

    # shrinking the weights breaks the budget
    loose = workloads.Run()
    wl.check_shape(loose, 0.1 * shape.alpha, *block, shape.delta, shape.epsilon)
    assert not dict((n, ok) for n, ok, _ in loose.checks)["hinge budget holds"]
