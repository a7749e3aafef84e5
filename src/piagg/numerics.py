"""Shared numerical kernels: symmetric eigendecomposition, least squares,
ridge-penalized logistic regression, weighted quantiles, and check-loss
quantile regression.

Everything here is a pure function; fitted models are immutable after
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize as _sp_optimize

from .dataset import DataTable, check_covariates, check_rows
from .errors import (
    ConfigError,
    DimensionMismatch,
    DivergentFit,
    EmptyInput,
    PiaggError,
    SingularDesign,
    check_args,
)

_GLOB_ROWS = 5000  # quantile regression globs above this many rows
sym_eig = np.linalg.eigh  # bound by name so the benchmark can trace it as numerics.eig


@dataclass(frozen=True)
class LinearModel:
    """Linear coefficient vector with the intercept first.

    ``kind`` is one of ``ols_mean``, ``logistic``, ``quantile``; quantile
    models also carry their level ``tau``.  ``converged`` is reported by
    the logistic fit and left None otherwise.
    """

    coefficients: np.ndarray
    kind: str
    tau: float | None = None
    converged: bool | None = None

    def __post_init__(self):
        object.__setattr__(self, "coefficients", np.asarray(self.coefficients, dtype=np.float64))
        if not np.all(np.isfinite(self.coefficients)):
            raise ConfigError("coefficients: must be finite")

    def predict(self, x: np.ndarray) -> np.ndarray:
        """The linear score: intercept plus covariates times the slopes."""
        x = check_rows(x)
        if x.shape[1] != len(self.coefficients) - 1:
            raise DimensionMismatch(
                f"model expects {len(self.coefficients) - 1} covariates, got {x.shape[1]}")
        return self.coefficients[0] + np.vecdot(x, self.coefficients[1:])


def sigmoid(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def design_with_intercept(x: np.ndarray) -> np.ndarray:
    x = check_covariates("x", x)
    return np.hstack([np.ones((x.shape[0], 1)), x])


def ols_fit(x: np.ndarray, y: np.ndarray) -> LinearModel:
    """Least squares with an intercept, via the normal equations
    ``X'X beta = X'y``.

    Raises SingularDesign when the normal equations are numerically singular.
    """
    t = DataTable(x, np.asarray(y, dtype=np.float64))  # finite x and y (None reads as NaN)
    xd = design_with_intercept(t.x)
    gram = xd.T @ xd
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularDesign("normal equations are numerically singular")
    return LinearModel(np.linalg.solve(gram, xd.T @ t.y), "ols_mean")


def _penalized_nll(xd: np.ndarray, y: np.ndarray, beta: np.ndarray, ridge: float) -> float:
    eta = xd @ beta
    nll = float(np.sum(np.logaddexp(0.0, eta)) - y @ eta)
    return nll + 0.5 * ridge * float(beta @ beta)


def logistic_fit(x: np.ndarray, labels: np.ndarray, ridge: float = 1e-6,
                 max_iter: int = 100) -> LinearModel:
    """Ridge-penalized logistic regression by iteratively reweighted least
    squares with step-halving.

    Each iteration takes a Newton step on the penalized negative
    log-likelihood and halves the step until the objective does not
    increase. Convergence means the max-norm of the penalized gradient is
    at most 1e-8; the outcome is reported in the model's
    ``converged`` flag.

    Raises
    ------
    DivergentFit
        when ridge is zero and the coefficients blow up, which happens on
        separable data; the fix is a positive ridge.
    """
    xd = design_with_intercept(x)
    y = np.asarray(labels, dtype=np.float64).ravel()
    if y.shape[0] != xd.shape[0]:
        raise DimensionMismatch("labels length does not match x rows")
    check_args(ridge=ridge)
    if not np.array_equal(np.unique(y), (0.0, 1.0)):
        raise ConfigError("labels: must be 0/1 and hold both classes")

    beta = np.zeros(xd.shape[1])
    nll = _penalized_nll(xd, y, beta, ridge)
    for it in range(max(max_iter, 0) + 1):
        p = sigmoid(xd @ beta)
        grad = xd.T @ (p - y) + ridge * beta
        converged = bool(np.max(np.abs(grad)) <= 1e-8)
        if converged or it == max_iter:
            break
        w = p * (1.0 - p)
        hess = xd.T @ (w[:, None] * xd) + ridge * np.eye(xd.shape[1])
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        t = 1.0
        new_beta = beta - step
        new_nll = _penalized_nll(xd, y, new_beta, ridge)
        while new_nll > nll and t > 1e-10:
            t /= 2.0
            new_beta = beta - t * step
            new_nll = _penalized_nll(xd, y, new_beta, ridge)
        beta, nll = new_beta, new_nll
        # a vanishing unpenalized likelihood or exploding coefficients both
        # indicate separation, where the MLE does not exist
        if ridge == 0.0 and (nll < 1e-6 or np.max(np.abs(beta)) > 1e6):
            raise DivergentFit("data appear separable; set ridge > 0")
    return LinearModel(beta, "logistic", converged=converged)


def left_quantiles(values: np.ndarray, weights: np.ndarray, level: float,
                   atoms: np.ndarray) -> np.ndarray:
    """Left-continuous quantiles at ``level`` of ``values`` weighted by
    ``weights`` plus a point mass ``atoms[i]`` at +infinity, one per atom.

    Weights accumulate in stable sorted order; entry i is the first
    sorted value whose cumulative weight reaches
    ``level * (total + atoms[i])``, or +inf when none does.
    """
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(weights[order])
    total = float(cum[-1]) if cum.size else 0.0
    idx = np.searchsorted(cum, level * (total + atoms), side="left")
    out = np.full(idx.shape, np.inf)
    finite = idx < values.size
    out[finite] = values[order[idx[finite]]]
    return out


def _rank_score_dual(xd: np.ndarray, y: np.ndarray, b_eq: np.ndarray):
    """HiGHS on ``max y@a``, ``X'a = b_eq``, ``0 <= a <= 1``: its result and coefficients."""
    res = _sp_optimize.linprog(-y, A_eq=xd.T, b_eq=b_eq, bounds=(0, 1), method="highs",
                               options={"presolve": False})
    return res, -np.asarray(res.eqlin.marginals, dtype=np.float64) if res.success else None


def quantile_reg_fit(x: np.ndarray, y: np.ndarray, tau: float) -> LinearModel:
    """Linear quantile regression by minimizing the check loss.

    HiGHS solves the Koenker-Bassett rank-score dual, ``max y@a`` subject
    to ``X'a = (1 - tau) X'1`` and ``0 <= a <= 1`` with X the design with
    intercept; the coefficients are the multipliers of its equalities.
    Above ``_GLOB_ROWS`` rows it globs (Portnoy & Koenker, 1997): the dual on the 3m rows
    nearest the tau-quantile of the residuals of an m-row subsample fit, the others fixed,
    gives the fit if it is optimal for the full LP; the full dual is solved otherwise.
    The test suite checks the check loss against the primal LP with split
    residual parts, solved through ``solve_lp``.
    """
    check_args(tau=tau)
    t = DataTable(x, np.asarray(y, dtype=np.float64))  # finite x and y (None reads as NaN)
    xd, y = design_with_intercept(t.x), t.y
    n, p = xd.shape
    if n < p + 1:
        raise EmptyInput(f"need at least {p + 1} observations for {p - 1} covariates")
    b_eq = (1.0 - tau) * xd.sum(axis=0)
    if n > _GLOB_ROWS:
        m = int(np.ceil(np.sqrt(p) * n ** (2 / 3)))
        sub = slice(None, None, max(n // m, 1))
        beta = _rank_score_dual(xd[sub], y[sub], (1.0 - tau) * xd[sub].sum(axis=0))[1]
        if beta is not None:
            order = np.argsort(y - xd @ beta)
            lo, hi = max(int(tau * n) - 3 * m // 2, 0), min(int(tau * n) + 3 * m // 2, n)
            beta = _rank_score_dual(xd[order[lo:hi]], y[order[lo:hi]],
                                    b_eq - xd[order[hi:]].sum(axis=0))[1]
        if beta is not None:
            r = y - xd @ beta
            if np.all(r[order[hi:]] >= 0) and np.all(r[order[:lo]] <= 0):
                return LinearModel(beta, "quantile", tau=tau)
    res, beta = _rank_score_dual(xd, y, b_eq)
    if beta is None:
        raise PiaggError(f"quantile regression LP failed: {res.message}")
    return LinearModel(beta, "quantile", tau=tau)
