"""Linear programs in one canonical form, solved by HiGHS.

Canonical problem: minimize ``c @ x`` subject to ``A @ x <= b`` with an
optional per-variable nonnegativity mask; unmasked variables are free.
Every shape-estimation LP in the package runs through ``solve_lp``, which
hands the problem to HiGHS's dual simplex (via SciPy). The solver is
deterministic: identical inputs give bit-identical output on the same
machine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .errors import DimensionMismatch, PiaggError, PivotLimitExceeded

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# HiGHS's primal feasibility tolerance for every solve
FEAS_TOL = 1e-9


@dataclass(frozen=True)
class LinearProgram:
    """Minimization LP in the canonical form ``min c@x s.t. A@x <= b``.

    ``nonneg_mask[j]`` marks variable j as constrained to ``x_j >= 0``;
    unmarked variables are free.
    """

    objective: np.ndarray
    ineq_lhs: np.ndarray
    ineq_rhs: np.ndarray
    nonneg_mask: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=np.float64)
        a = np.asarray(self.ineq_lhs, dtype=np.float64)
        b = np.asarray(self.ineq_rhs, dtype=np.float64)
        mask = np.asarray(self.nonneg_mask, dtype=bool)
        if a.ndim != 2:
            raise DimensionMismatch("ineq_lhs must be a 2-d matrix")
        m, n = a.shape
        if c.shape != (n,):
            raise DimensionMismatch(f"objective has length {c.shape}, expected ({n},)")
        if b.shape != (m,):
            raise DimensionMismatch(f"ineq_rhs has length {b.shape}, expected ({m},)")
        if mask.shape != (n,):
            raise DimensionMismatch(f"nonneg_mask has length {mask.shape}, expected ({n},)")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise DimensionMismatch("LP data must be finite")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "ineq_lhs", a)
        object.__setattr__(self, "ineq_rhs", b)
        object.__setattr__(self, "nonneg_mask", mask)

    @property
    def n_var(self) -> int:
        return self.ineq_lhs.shape[1]

    @property
    def n_constraints(self) -> int:
        return self.ineq_lhs.shape[0]


@dataclass(frozen=True)
class LPSolution:
    """Solver output; ``x`` and ``objective_value`` are meaningful only
    when ``status == "optimal"``."""

    status: str
    x: np.ndarray | None
    objective_value: float


# SciPy's status codes for HiGHS outcomes that are answers, not failures
_STATUS = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}


def solve_lp(p: LinearProgram, max_pivots: int | None = None) -> LPSolution:
    """Solve a canonical-form LP with HiGHS's dual simplex at primal
    feasibility tolerance ``FEAS_TOL``.

    Raises
    ------
    PivotLimitExceeded
        when HiGHS stops at ``max_pivots`` simplex iterations
        (default ``200 * (m + n_var)``).
    PiaggError
        when HiGHS ends without an optimum, an infeasibility or an
        unboundedness proof.
    """
    if max_pivots is None:
        max_pivots = 200 * (p.n_constraints + p.n_var)
    bounds = np.column_stack([np.where(p.nonneg_mask, 0.0, -np.inf), np.full(p.n_var, np.inf)])
    res = optimize.linprog(p.objective, A_ub=p.ineq_lhs, b_ub=p.ineq_rhs,
                           bounds=bounds, method="highs-ds",
                           options={"primal_feasibility_tolerance": FEAS_TOL,
                                    "maxiter": max_pivots})
    if res.status == 1:
        raise PivotLimitExceeded(f"exceeded {max_pivots} simplex iterations")
    if res.status not in _STATUS:
        raise PiaggError(f"LP solve failed: {res.message}")
    if _STATUS[res.status] != OPTIMAL:
        return LPSolution(_STATUS[res.status], None, float("nan"))
    return LPSolution(OPTIMAL, res.x, float(p.objective @ res.x))
