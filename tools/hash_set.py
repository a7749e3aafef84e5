"""Print one SHA-256 per fit over a fixed set of fits, then one over all.

Each hash covers a fitted model's document (``model_to_dict``; for a
conformal baseline, its fitted arrays) and its intervals on 333 rows, the
last three as far out as |x| = 1e100. The set holds 6 replications each of
16 fits: alg1 exact, hinge, with known weights, with a kNN mean and
``support_threshold``, and with a kNN candidate of k >= n; wvac at both
bandwidth rules; wqc; alg2 with and without a target; and in 5-d, alg1
and alg2 with a kNN and two kernel candidates, and alg2 with the default
bank through each transport mode and through a supplied map. Equal output
from two runs means bit-identical fits and intervals, so diff it across
commits or BLAS thread counts:

    PYTHONPATH=src python tools/hash_set.py > a.txt
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/hash_set.py > b.txt
    diff a.txt b.txt
"""

import hashlib
import json

import numpy as np

from piagg import (
    AffineMap,
    CandidateSpec,
    SplitSpec,
    fit_covariate_shift,
    fit_density_ratio,
    fit_transport,
    fit_wqc,
    fit_wvac,
    gen_affine_gauss,
    gen_hetero_sim,
    model_to_dict,
    predict_interval,
    predict_wqc,
    predict_wvac,
    split,
    tilt_resample,
)

REPS = 6
ALPHA = 0.1
FAR = [1e10, -1e50, 1e100]
KNN_KERNELS = [CandidateSpec("constant_one"), CandidateSpec("knn_quantile", k=20, tau=0.9),
               CandidateSpec("kernel_variance"), CandidateSpec("kernel_variance", bandwidth=0.8)]


def _data_1d(seed):
    train, held = split(gen_hetero_sim(2000, seed), SplitSpec((0.8, 0.2), seed + 1))
    target = tilt_resample(held, [2.0], 400, seed + 2)
    rows = np.concatenate([np.linspace(-1.2, 1.2, 330), FAR])[:, None]
    return train, target.x, rows


def _data_5d(seed):
    source, target = gen_affine_gauss(800, 400, np.diag([1.5, 1.2, 1.6, 2.0, 1.8]),
                                      [1.0, 0.0, 0.0, 1.0, 0.0], seed)
    rows = np.vstack([target.x[:330], np.outer(FAR, np.ones(5))])
    return source, target.x, rows


def _piagg(fit, data, **kw):
    def run(seed):
        source, target_x, rows = data(seed)
        model = fit(source, target_x, ALPHA, seed=seed, **kw)
        return model_to_dict(model), predict_interval(model, rows)
    return run


def _conformal(name, **kw):
    def run(seed):
        source, target_x, rows = _data_1d(seed)
        train1, cal = split(source, SplitSpec((0.5, 0.5), seed + 3))
        ratio = fit_density_ratio(train1.x, target_x)
        if name == "wvac":
            model = fit_wvac(train1, cal, ratio, **kw)
            batch = predict_wvac(model, rows, ALPHA)
            scale = model.scale_model
            doc = {"mean": model.mean_model.coefficients.tolist(),
                   "bandwidth": scale.smoother.bandwidth, "sigma_min": scale.sigma_min}
        else:
            model = fit_wqc(train1, cal, ratio, ALPHA)
            batch = predict_wqc(model, rows, ALPHA)
            doc = {"q_lo": model.q_lo.coefficients.tolist(),
                   "q_hi": model.q_hi.coefficients.tolist()}
        doc.update(cal_scores=model.cal_scores.tolist(), cal_weights=model.cal_weights.tolist())
        return doc, batch
    return run


FITS = {
    "alg1_exact": _piagg(fit_covariate_shift, _data_1d),
    "alg1_hinge": _piagg(fit_covariate_shift, _data_1d, mode="hinge"),
    "alg1_known_weights": _piagg(fit_covariate_shift, _data_1d,
                                 weight_fn=lambda x: np.exp(2.0 * x[:, 0])),
    "alg1_knn_mean": _piagg(fit_covariate_shift, _data_1d, mean_method="knn",
                            support_threshold=0.2),
    "alg1_knn_all_rows": _piagg(fit_covariate_shift, _data_1d, specs=[
        CandidateSpec("constant_one"), CandidateSpec("knn_quantile", k=10 ** 6, tau=0.9)]),
    "wvac_rule": _conformal("wvac"),
    "wvac_bandwidth": _conformal("wvac", bandwidth=0.05),
    "wqc": _conformal("wqc"),
    "alg2_target": _piagg(fit_transport, _data_1d),
    "alg2_no_target": _piagg(lambda s, t, a, **kw: fit_transport(s, None, a, **kw), _data_1d),
    "alg1_5d_knn_kernels": _piagg(fit_covariate_shift, _data_5d, specs=KNN_KERNELS),
    "alg2_5d_knn_kernels": _piagg(fit_transport, _data_5d, specs=KNN_KERNELS),
    "alg2_5d": _piagg(fit_transport, _data_5d),
    "alg2_5d_coral": _piagg(fit_transport, _data_5d, transport_mode="coral", cov_ridge=0.1),
    "alg2_5d_location_scale": _piagg(fit_transport, _data_5d, transport_mode="location_scale",
                                     cov_ridge=0.1),
    "alg2_5d_supplied_map": _piagg(fit_transport, _data_5d, transport_map=AffineMap(
        np.diag([0.7, 0.8, 0.6, 0.5, 0.55]), [-0.7, 0.0, 0.0, -0.5, 0.0])),
}


def main():
    total = hashlib.sha256()
    for name, run in FITS.items():
        for rep in range(REPS):
            doc, batch = run(1000 * rep + 7)
            h = hashlib.sha256(json.dumps(doc, sort_keys=True).encode())
            for v in (batch.lower, batch.center, batch.upper):
                h.update(np.ascontiguousarray(v, dtype=np.float64).tobytes())
            print(f"{name} {rep} {h.hexdigest()}")
            total.update(h.digest())
    print(f"total {total.hexdigest()}")


if __name__ == "__main__":
    main()
