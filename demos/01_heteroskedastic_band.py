"""Build a prediction band on heteroskedastic data, no shift involved.

The simulator draws X uniformly on [-1, 1] and Y = sqrt(1 + 25 X^4) * U
with uniform noise, so the conditional spread grows five-fold toward the
edges. We fit the unshifted pipeline (shape LP on the source, then the
shrink scan) and look at which candidates carry the band and how tight
the calibration is.

Run with: python demos/01_heteroskedastic_band.py
"""

import numpy as np

from piagg import (
    coverage_and_width,
    diagnose,
    fit_transport,
    gen_hetero_sim,
    predict_interval,
)

table = gen_hetero_sim(3000, seed=7)
model = fit_transport(table, None, alpha_level=0.1, seed=1)

print("candidate weights (alpha):")
for spec, a in zip(model.bank.specs, model.shape.alpha):
    print(f"  {spec.kind:<20} {a:.4f}")
print(f"shrink level lambda = {model.shrink.lambda_hat:.4f}")
print(f"diagnostics: {diagnose(model)}")

# the fitted band against the true 90% envelope at a few points
grid = np.linspace(-1, 1, 9)[:, None]
batch = predict_interval(model, grid)
truth = 0.9 * np.sqrt(1 + 25 * grid[:, 0] ** 4)
print("\n  x     fitted half-width   true 90% half-width")
for x, half, t in zip(grid[:, 0], (batch.upper - batch.lower) / 2, truth):
    print(f"{x:+.2f}        {half:7.3f}            {t:7.3f}")

fresh = gen_hetero_sim(20000, seed=99)
cov, width = coverage_and_width(predict_interval(model, fresh.x), fresh.y)
print(f"\nfresh-sample coverage {cov:.3f} at mean width {width:.3f}")
