"""piagg benchmark runner.

    python3 benchmarks/run.py --workload mc_tilt --seed 1 --seconds 10 --trace 0

runs one workload in this process for about ``--seconds`` seconds of
whole rounds of replications, checks every output, and prints as its
last line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
replays the same replications with span tracing on and reports the
per-layer metrics instead. ``--workload all`` runs each workload in a
child process of its own.

Times are reported at a nominal machine speed: each is scaled by how fast
a fixed reference kernel, timed between replications, ran in the same
run. The wall-clock values are printed beside them. See README.md in
this directory.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
NAMES = ("mc_tilt", "mc_affine5d", "large_fit", "hinge_lp")
DEFAULT_SEED = 20240817
SETUP_REPEATS = 5
REFERENCE_NOMINAL_S = 0.0045
REFERENCE_SHARE = 0.02


def load_program():
    """Import piagg from this checkout's src/ (never from elsewhere)."""
    if not os.path.isfile(os.path.join(SRC, "piagg", "__init__.py")):
        sys.exit(f"error: piagg sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import workloads
    return workloads


def blas_threads() -> str:
    """Thread count of the OpenBLAS that NumPy loaded, read through its
    own API; 'unknown' when no OpenBLAS is mapped."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def env_stamp() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads()}


def setup_seconds(workload: str, size: str) -> float:
    """Median wall time of fresh processes that do this run's set-up
    (interpreter start, imports, warm-up) and exit."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-probe",
                        "--workload", workload, "--size", size], check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Reference:
    """A fixed single-threaded kernel of interpreter, vector and sorting
    work on cache-sized arrays, timed between replications.

    The speed of a shared machine drifts by up to a third between runs a
    few minutes apart, and this kernel slows down with it. Times scaled by
    ``speed()`` therefore compare across runs; the program never runs
    inside the kernel, so a change to the program cannot move it. BLAS
    calls are left out: a multi-threaded product waits on every core and
    reads the other tenants' load more than this process's speed. Large
    arrays are left out too: their speed depends on how the process's
    pages happen to be mapped, which differs from run to run.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.vec = rng.random(100_000)
        self.keys = rng.random(50_000)
        # outputs are preallocated: an allocation's cost depends on what
        # the workload left in the allocator, not on the machine's speed
        self.vec_out = np.empty_like(self.vec)
        self.keys_out = np.empty_like(self.keys)
        self.samples: list[float] = []

    def sample(self, seconds: float = 0.0) -> None:
        """Time the kernel three times, then again until about ``seconds``
        have passed."""
        start = time.perf_counter()
        taken = 0
        while taken < 3 or time.perf_counter() - start < seconds:
            taken += 1
            t0 = time.perf_counter()
            acc = 0
            for i in range(40_000):
                acc += i * i
            for _ in range(5):
                np.exp(self.vec, out=self.vec_out)
            self.keys_out[:] = self.keys
            self.keys_out.sort()
            self.samples.append(time.perf_counter() - t0)

    def speed(self) -> float:
        """Nominal over median kernel time: below 1 on a slow machine."""
        return REFERENCE_NOMINAL_S / statistics.median(self.samples)


def replicate(wl, run, seed: int, n_reps: int | None, seconds: float,
              between=None, tracer=None) -> tuple[int, float]:
    """Run whole rounds of replications: a fixed ``n_reps`` of them, or
    rounds until ``seconds`` have passed. ``between(out, rep_seconds)``
    runs untimed after each replication. Returns (replications run,
    seconds spent inside them)."""
    busy = 0.0
    rep = 0
    start = time.perf_counter()
    while True:
        for _ in range(wl.reps_per_round):
            if tracer is not None:
                tracer.rep = rep
            t0 = time.perf_counter()
            out = wl.rep(run, seed, rep)
            rep_s = time.perf_counter() - t0
            busy += rep_s
            if between is not None:
                between(out, rep_s)
            rep += 1
        if (n_reps is not None and rep >= n_reps) or \
                (n_reps is None and time.perf_counter() - start >= seconds):
            return rep, busy


def run_workload(args) -> dict:
    workloads = load_program()
    os.makedirs(OUT_DIR, exist_ok=True)
    if not args.trace:
        setup_s = setup_seconds(args.workload, args.size)
    wl = workloads.make(args.workload, args.size, OUT_DIR)
    wl.warm_up()
    run = workloads.Run()
    reference = Reference()
    reference.sample()

    def between(out, rep_s):
        wl.check_rep(run, out)
        # kernel time in proportion to the work it scales, so long
        # replications get as many samples as many short ones
        reference.sample(REFERENCE_SHARE * rep_s)

    n_reps, busy = replicate(wl, run, args.seed, None, args.seconds, between)
    wl.check_run(run)

    if args.trace:
        # replay the checked replications traced, then untraced: both passes
        # run warm and unchecked, so their difference is the tracing cost
        import tracing
        tracer = tracing.Tracer()
        with tracing.Installed(tracer):
            tracer.enabled = True
            _, traced = replicate(wl, workloads.Run(), args.seed, n_reps, 0.0, tracer=tracer)
            tracer.enabled = False
        _, untraced = replicate(wl, workloads.Run(), args.seed, n_reps, 0.0)
        tracer.write(os.path.join(OUT_DIR, f"spans_{args.workload}_{args.seed}.jsonl"))
        metrics = tracing.layer_metrics(tracer, traced, untraced)
    else:
        # times are reported at the nominal machine speed; the wall-clock
        # values are printed beside them
        speed = reference.speed()
        wall = {"setup_s": setup_s, "reps_per_s": n_reps / busy,
                "fit_s": statistics.median(run.fit_s),
                "predict_rows_per_s": statistics.median(run.predict_rows_per_s)}
        print(f"reference kernel {REFERENCE_NOMINAL_S / speed * 1e3:.3f} ms "
              f"(nominal {REFERENCE_NOMINAL_S * 1e3:g} ms), speed {speed:.4f}; wall clock: "
              + ", ".join(f"{k} {v:.6g}" for k, v in wall.items()), flush=True)
        half = [run.half_widths[r] for r in sorted(run.half_widths)]
        metrics = {
            "setup_s": {"value": wall["setup_s"] * speed, "unit": "s"},
            "reps_per_s": {"value": wall["reps_per_s"] / speed, "unit": "1/s"},
            "fit_s": {"value": wall["fit_s"] * speed, "unit": "s"},
            "predict_rows_per_s": {"value": wall["predict_rows_per_s"] / speed,
                                   "unit": "rows/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "band_halfwidth": {"value": sum(half) / len(half), "unit": "response"},
        }

    for name, ok, detail in run.checks:
        if not ok:
            print(f"check failed: {name}: {detail}", flush=True)
    n_checks = len(run.checks)
    n_bad = sum(1 for _, ok, _ in run.checks if not ok)
    print(f"{args.workload}: {n_reps} replications, {run.attempted} operations, "
          f"{run.failed} failed, {n_checks - n_bad}/{n_checks} checks passed, "
          f"{run.infinite_intervals} infinite conformal intervals", flush=True)
    print("env " + json.dumps(env_stamp()), flush=True)
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}", flush=True)
    return {"correct": n_bad == 0 and n_checks > 0, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def run_all(args) -> dict:
    results = {}
    for name in NAMES:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace), "--size", args.size],
                              stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    return results


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: small inputs, statistical range checks off (self-tests)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.setup_probe:
        load_program().make(args.workload, args.size, OUT_DIR).warm_up()
        return 0
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
