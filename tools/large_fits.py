"""Fit, predict and hash the six large fits that a change acting only at
scale must report, one line each.

The fits: 1-d alg1 exact and hinge on a 26 667-row ``gen_hetero_sim``
table, split 75/25, with a target of 20 000 rows resampled from the
held-out rows with probability proportional to sigmoid(2x); and 5-d alg1
and alg2 on ``gen_affine_gauss`` with 4000 and with 40 000 source rows and
half as many target rows. Each line gives a SHA-256 over the model document
and the intervals on the target rows, as ``tools/hash_set.py`` hashes them,
then ``lambda_hat``, the mean width, the fit and predict seconds and, last,
the minor page faults the predict took (``predict_faults``, the change in
``ru_minflt``). Fields after the hash are ``name=value``, to be read by name.
Equal hashes from two commits mean bit-identical fits and intervals:

    PYTHONPATH=src python tools/large_fits.py > a.txt

An optional argument sets the seed (default 20240817). The whole set takes
about half a minute on two cores and is not part of the test suite.
"""

import hashlib
import json
import resource
import sys
import time

import numpy as np

from hash_set import _digest
from piagg import (
    SplitSpec,
    fit_covariate_shift,
    fit_transport,
    gen_affine_gauss,
    gen_hetero_sim,
    model_to_dict,
    predict_interval,
    split,
    weighted_resample,
)

ALPHA = 0.05
AFFINE_A = np.diag([1.5, 1.2, 1.6, 2.0, 1.8])
AFFINE_B = [1.0, 0.0, 0.0, 1.0, 0.0]


def _data_1d(seed):
    train, held = split(gen_hetero_sim(26_667, seed), SplitSpec((0.75, 0.25), seed + 1))
    tilt = 1.0 / (1.0 + np.exp(-2.0 * held.x[:, 0]))
    return train, weighted_resample(held, tilt, 20_000, seed + 2).x


def _data_5d(n):
    def data(seed):
        source, target = gen_affine_gauss(n, n // 2, AFFINE_A, AFFINE_B, seed)
        return source, target.x
    return data


FITS = {
    "alg1_exact_1d_26667": (fit_covariate_shift, _data_1d, {"mode": "exact"}),
    "alg1_hinge_1d_26667": (fit_covariate_shift, _data_1d, {"mode": "hinge"}),
    "alg1_5d_4000": (fit_covariate_shift, _data_5d(4000), {}),
    "alg2_5d_4000": (fit_transport, _data_5d(4000), {}),
    "alg1_5d_40000": (fit_covariate_shift, _data_5d(40_000), {}),
    "alg2_5d_40000": (fit_transport, _data_5d(40_000), {}),
}


def main():
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 20240817
    for name, (fit, data, kw) in FITS.items():
        source, target_x = data(seed)
        start = time.perf_counter()
        model = fit(source, target_x, ALPHA, seed=seed + 3, **kw)
        fit_s = time.perf_counter() - start
        faults, start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
        batch = predict_interval(model, target_x)
        predict_s = time.perf_counter() - start
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        doc = json.dumps(model_to_dict(model), sort_keys=True).encode()
        width = float(np.mean(batch.upper - batch.lower))
        print(f"{name} {_digest(hashlib.sha256(doc), batch).hexdigest()} "
              f"lambda_hat={float(model.shrink.lambda_hat)!r} mean_width={width!r} "
              f"fit_s={fit_s:.3f} predict_s={predict_s:.3f} predict_faults={faults}", flush=True)


if __name__ == "__main__":
    main()
