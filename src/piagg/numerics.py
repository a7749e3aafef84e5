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

from .dataset import check_covariates
from .errors import (
    ConfigError,
    DimensionMismatch,
    DivergentFit,
    EmptyInput,
    NotSymmetric,
    PiaggError,
    SingularDesign,
    check_args,
)

_GLOB_ROWS, _GLOB_ROUNDS = 5000, 4  # quantile regression: globbing's row threshold and rounds


@dataclass(frozen=True)
class SymEig:
    """Eigenvalues in descending order with column-aligned orthonormal
    eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


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

    def predict(self, x: np.ndarray) -> np.ndarray:
        """The linear score: intercept plus covariates times the slopes."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != len(self.coefficients) - 1:
            raise DimensionMismatch(
                f"model expects {len(self.coefficients) - 1} covariates, got {x.shape[1]}")
        return self.coefficients[0] + np.vecdot(x, self.coefficients[1:])

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        if self.kind != "logistic":
            raise PiaggError("predict_proba is only defined for logistic models")
        return sigmoid(self.predict(x))


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


def sym_eig(m: np.ndarray) -> SymEig:
    """Symmetric eigendecomposition by LAPACK's ``eigh``.

    Raises NotSymmetric when the input's asymmetry exceeds
    ``1e-10 * max|m|``; the symmetrized matrix is decomposed.
    """
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch("sym_eig expects a square matrix")
    scale = np.max(np.abs(a), initial=0.0)
    if np.max(np.abs(a - a.T), initial=0.0) > 1e-10 * max(scale, np.finfo(float).tiny):
        raise NotSymmetric("matrix asymmetry exceeds tolerance")
    eigenvalues, v = np.linalg.eigh((a + a.T) / 2.0)
    return SymEig(eigenvalues[::-1].copy(), v[:, ::-1].copy())


def ols_fit(x: np.ndarray, y: np.ndarray, ridge: float = 0.0) -> LinearModel:
    """Least squares with an intercept, via the (optionally ridged)
    normal equations ``(X'X + ridge I) beta = X'y``.

    Raises SingularDesign when ridge is zero and the normal equations are
    numerically singular.
    """
    check_args(ridge=ridge)
    xd = design_with_intercept(x)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (xd.shape[0],):
        raise DimensionMismatch("y length does not match x rows")
    gram = xd.T @ xd + ridge * np.eye(xd.shape[1])
    if ridge == 0.0:
        cond = np.linalg.cond(gram)
        if not np.isfinite(cond) or cond > 1e12:
            raise SingularDesign("normal equations are numerically singular; set ridge > 0")
    beta = np.linalg.solve(gram, xd.T @ y)
    return LinearModel(beta, "ols_mean")


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
    Above ``_GLOB_ROWS`` rows it globs (Portnoy & Koenker, 1997): it solves the dual on a
    band of rows around the tau-quantile of a subsample fit's residuals, the other rows
    fixed, and keeps that fit only when it is optimal for the full LP.
    The test suite checks the check loss against the primal LP with split
    residual parts, solved through ``solve_lp``.
    """
    check_args(tau=tau)
    y = np.asarray(y, dtype=np.float64).ravel()
    xd = design_with_intercept(x)
    n, p = xd.shape
    if y.shape[0] != n:
        raise DimensionMismatch("y length does not match x rows")
    if n < p + 1:
        raise EmptyInput(f"need at least {p + 1} observations for {p - 1} covariates")
    b_eq = (1.0 - tau) * xd.sum(axis=0)
    if n > _GLOB_ROWS:
        m = int(np.ceil(np.sqrt(p) * n ** (2 / 3)))
        sub = slice(None, None, max(n // m, 1))
        beta = _rank_score_dual(xd[sub], y[sub], (1.0 - tau) * xd[sub].sum(axis=0))[1]
        for band in 3 * m * 2 ** np.arange(_GLOB_ROUNDS if beta is not None else 0):
            order = np.argsort(y - xd @ beta)
            lo, hi = max(int(tau * n) - band // 2, 0), min(int(tau * n) + band // 2, n)
            glob = _rank_score_dual(xd[order[lo:hi]], y[order[lo:hi]],
                                    b_eq - xd[order[hi:]].sum(axis=0))[1]
            if glob is not None:
                r = y - xd @ glob
                if np.all(r[order[hi:]] >= 0) and np.all(r[order[:lo]] <= 0):
                    return LinearModel(glob, "quantile", tau=tau)
                beta = glob
    res, beta = _rank_score_dual(xd, y, b_eq)
    if beta is None:
        raise PiaggError(f"quantile regression LP failed: {res.message}")
    return LinearModel(beta, "quantile", tau=tau)
