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
from scipy import optimize, sparse

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
    unmarked variables are free. ``ineq_lhs`` may be SciPy sparse.
    """

    objective: np.ndarray
    ineq_lhs: np.ndarray
    ineq_rhs: np.ndarray
    nonneg_mask: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=np.float64)
        a = self.ineq_lhs
        a = sparse.csr_array(a, dtype=np.float64) if sparse.issparse(a) else np.asarray(a, float)
        b = np.asarray(self.ineq_rhs, dtype=np.float64)
        mask = np.asarray(self.nonneg_mask, dtype=bool)
        if a.ndim != 2:
            raise DimensionMismatch("ineq_lhs must be a 2-d matrix")
        m, n = a.shape
        for name, v, shape in (("objective", c, (n,)), ("ineq_rhs", b, (m,)),
                               ("nonneg_mask", mask, (n,))):
            if v.shape != shape:
                raise DimensionMismatch(f"{name} has length {v.shape}, expected {shape}")
        entries = a.data if sparse.issparse(a) else a
        if not all(np.all(np.isfinite(v)) for v in (c, entries, b)):
            raise DimensionMismatch("LP data must be finite")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "ineq_lhs", a)
        object.__setattr__(self, "ineq_rhs", b)
        object.__setattr__(self, "nonneg_mask", mask)


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
        (default ``200 * (m + n)`` for m constraints and n variables).
    PiaggError
        when HiGHS ends without an optimum, an infeasibility or an
        unboundedness proof.
    """
    m, n = p.ineq_lhs.shape
    if max_pivots is None:
        max_pivots = 200 * (m + n)
    bounds = np.column_stack([np.where(p.nonneg_mask, 0.0, -np.inf), np.full(n, np.inf)])
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
