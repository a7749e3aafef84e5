"""Print one SHA-256 per fit over a fixed set of fits, then one over all.

Each hash covers a fitted model's document (``model_to_dict``; for a
conformal baseline, its fitted arrays) and its intervals on 333 rows, the
last three as far out as |x| = 1e100. The set holds 6 replications each of
16 fits: alg1 exact, hinge, with known weights, with a kNN mean and
``support_threshold``, and with a kNN candidate of k >= n; wvac at both
bandwidth rules; wqc; alg2 with and without a target; and in 5-d, alg1
and alg2 with a kNN and two kernel candidates, and alg2 with the default
bank through each transport mode and through a supplied map. A second
hash per fit covers its intervals on 999 rows drawn with replacement from
those 333, as a resampled target repeats rows. A row's interval must not
depend on the rows predicted with it: the tool exits 1, naming the fit,
unless the resampled intervals, and the first of them predicted alone, are
the 333-row intervals gathered row for row, byte for byte. It exits 1 as
well unless each piagg fit's document, read back through ``json`` and
``model_from_dict``, gives a model that predicts those 333 rows byte for
byte. Equal output from two runs means bit-identical fits and intervals,
so diff it across commits or BLAS thread counts:

    PYTHONPATH=src python tools/hash_set.py > a.txt
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/hash_set.py > b.txt
    diff a.txt b.txt
"""

import hashlib
import json
import sys

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
    model_from_dict,
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
# RandomState's stream is frozen across NumPy versions
RESAMPLE = np.random.RandomState(333).randint(0, 333, 999)
# each fit predicts the 333 rows, the 999 resampled rows, and the first of those
# alone; a piagg fit's model read back from its document predicts the 333 rows
PICKS = [slice(None), RESAMPLE, RESAMPLE[:1]]
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
        doc = model_to_dict(model)
        read_back = model_from_dict(json.loads(json.dumps(doc)))
        return doc, [*(predict_interval(model, rows[p]) for p in PICKS),
                     predict_interval(read_back, rows)]
    return run


def _conformal(name, **kw):
    def run(seed):
        source, target_x, rows = _data_1d(seed)
        train1, cal = split(source, SplitSpec((0.5, 0.5), seed + 3))
        ratio = fit_density_ratio(train1.x, target_x)
        if name == "wvac":
            model = fit_wvac(train1, cal, ratio, **kw)
            batches = [predict_wvac(model, rows[p], ALPHA) for p in PICKS]
            scale = model.scale_model
            doc = {"mean": model.mean_model.coefficients.tolist(),
                   "bandwidth": scale.smoother.bandwidth, "sigma_min": scale.sigma_min}
        else:
            model = fit_wqc(train1, cal, ratio, ALPHA)
            batches = [predict_wqc(model, rows[p], ALPHA) for p in PICKS]
            doc = {"q_lo": model.q_lo.coefficients.tolist(),
                   "q_hi": model.q_hi.coefficients.tolist()}
        doc.update(cal_scores=model.cal_scores.tolist(), cal_weights=model.cal_weights.tolist())
        return doc, batches
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


def _differs(batch, pick, got):
    """Whether ``got`` is not ``batch``'s rows ``pick``, byte for byte."""
    return any(getattr(batch, v)[pick].tobytes() != getattr(got, v).tobytes()
               for v in ("lower", "center", "upper"))


def _digest(h, batch):
    for v in (batch.lower, batch.center, batch.upper):
        h.update(np.ascontiguousarray(v, dtype=np.float64).tobytes())
    return h


def main():
    total = hashlib.sha256()
    for name, run in FITS.items():
        for rep in range(REPS):
            doc, (batch, resampled, alone, *read_back) = run(1000 * rep + 7)
            if _differs(batch, RESAMPLE, resampled) or _differs(batch, RESAMPLE[:1], alone):
                sys.exit(f"{name} {rep}: an interval depends on the rows predicted with it")
            if read_back and _differs(batch, slice(None), read_back[0]):
                sys.exit(f"{name} {rep}: the model read back from its document predicts "
                         "other intervals")
            fit_hash = _digest(hashlib.sha256(json.dumps(doc, sort_keys=True).encode()), batch)
            for label, h in ((rep, fit_hash),
                             (f"{rep} resampled", _digest(hashlib.sha256(), resampled))):
                print(f"{name} {label} {h.hexdigest()}")
                total.update(h.digest())
    print(f"total {total.hexdigest()}")


if __name__ == "__main__":
    main()
