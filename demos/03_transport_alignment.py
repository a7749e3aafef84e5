"""Domain shift handled by an affine transport map.

Target covariates live on a different scale and location than the source
(a diagonal stretch plus an offset), but the conditional law of the
response is preserved under the inverse map. The transport pipeline
builds its band on the source and carries it over through the fitted
moment-matching map. The largest per-coordinate Kolmogorov-Smirnov
statistic between the target covariates and the source's shows how well
the alignment worked: the map is affine, so it can align only a shift of
this kind, and a larger reading after alignment warns that it failed.

Run with: python demos/03_transport_alignment.py
"""

import numpy as np

from piagg import (
    apply_map,
    coverage_and_width,
    fit_transport,
    gen_affine_gauss,
    marginal_ks,
    predict_interval,
)

a = np.diag([1.5, 1.2, 1.6, 2.0, 1.8])
b = np.array([1.0, 0.0, 0.0, 1.0, 0.0])
source, target = gen_affine_gauss(4000, 1500, a, b, seed=21)
print(f"source covariate means: {np.round(source.x.mean(axis=0), 2)}")
print(f"target covariate means: {np.round(target.x.mean(axis=0), 2)}")

model = fit_transport(source, target.x, alpha_level=0.05, seed=22)
mapped = apply_map(model.adapter, target.x)
print(f"\nfitted map diagonal: {np.round(np.diag(model.adapter.a), 3)} "
      f"(true inverse scale: {np.round(1 / np.diag(a), 3)})")
print(f"largest marginal KS statistic, target vs source: "
      f"{marginal_ks(target.x, source.x):.3f} before, "
      f"{marginal_ks(mapped, source.x):.3f} after alignment")

cov, width = coverage_and_width(predict_interval(model, target.x), target.y)
print(f"\ntransported band: target coverage {cov:.3f}, width {width:.3f}")

naive = fit_transport(source, None, alpha_level=0.05, seed=22)
cov_n, width_n = coverage_and_width(predict_interval(naive, target.x), target.y)
print(f"same band without alignment: coverage {cov_n:.3f}, width {width_n:.3f}")
