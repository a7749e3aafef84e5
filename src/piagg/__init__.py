"""Prediction intervals on a shifted target domain.

The package aggregates a bank of candidate interval-width functions by a
covering linear program, calibrates the result with an exact shrinkage
scan, and adapts across domains either through density-ratio reweighting
(bounded covariate shift) or through an affine transport map (domain
shift). Weighted split-conformal baselines and a reproducible Monte-Carlo
benchmark harness round out the toolkit.
"""

from .aggregate import (
    IntervalBatch,
    PiModel,
    ShapeModel,
    ShrinkResult,
    diagnose,
    fit_covariate_shift,
    fit_shape_cov_shift,
    fit_shape_source,
    fit_transport,
    load_model,
    model_from_dict,
    model_to_dict,
    predict_interval,
    save_model,
    shrink_cov_shift,
    shrink_source,
)
from .bench import RunSummary, ScenarioConfig, coverage_and_width, emit_report, run_scenario
from .candidates import (
    CandidateBank,
    CandidateSpec,
    default_bank_specs,
    fit_candidate_set,
    fit_mean,
    residuals,
)
from .conformal import WqcModel, WvacModel, fit_wqc, fit_wvac, predict_wqc, predict_wvac
from .dataset import (
    DataTable,
    SplitSpec,
    affine_shift,
    gen_affine_gauss,
    gen_hetero_sim,
    load_csv,
    split,
    tilt_resample,
    weighted_resample,
)
from .densratio import DensityRatioModel, eval_ratio, fit_density_ratio
from .linprog import LinearProgram, LPSolution, solve_lp
from .numerics import (
    LinearModel,
    SymEig,
    logistic_fit,
    ols_fit,
    quantile_reg_fit,
    sym_eig,
)
from .rng import Rng, derive_seed
from .transport import AffineMap, apply_map, fit_affine_transport, marginal_ks

__version__ = "0.1.0"
