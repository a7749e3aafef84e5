"""Solver checks: hand instances, status detection, determinism, and the
vertex-enumeration oracle on random bounded polytopes."""

import itertools

import numpy as np
import pytest

from piagg.errors import DimensionMismatch
from piagg.linprog import INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram, solve_lp


def lp(c, a, b, nonneg):
    return LinearProgram(np.asarray(c, float), np.asarray(a, float),
                         np.asarray(b, float), np.asarray(nonneg, bool))


def vertex_enumeration_optimum(c, a, b):
    """Independent oracle: enumerate all basic points of {Ax <= b, x >= 0}
    and take the best feasible one."""
    n = len(c)
    g = np.vstack([a, -np.eye(n)])
    h = np.concatenate([b, np.zeros(n)])
    best = None
    for rows in itertools.combinations(range(len(h)), n):
        m = g[list(rows)]
        if abs(np.linalg.det(m)) < 1e-10:
            continue
        x = np.linalg.solve(m, h[list(rows)])
        if np.all(g @ x <= h + 1e-9):
            val = float(c @ x)
            if best is None or val < best:
                best = val
    return best


class TestHandInstances:
    def test_single_binding_constraint(self):
        s = solve_lp(lp([1.0], [[-1.0]], [-3.0], [True]))
        assert s.status == OPTIMAL
        assert s.x[0] == pytest.approx(3.0, abs=1e-12)
        assert s.objective_value == pytest.approx(3.0, abs=1e-12)

    def test_empty_feasible_set(self):
        s = solve_lp(lp([0.0], [[1.0]], [-1.0], [True]))
        assert s.status == INFEASIBLE

    def test_unbounded_ray(self):
        s = solve_lp(lp([-1.0], np.zeros((0, 1)), np.zeros(0), [True]))
        assert s.status == UNBOUNDED

    def test_free_variable(self):
        s = solve_lp(lp([1.0], [[-1.0]], [5.0], [False]))
        assert s.status == OPTIMAL
        assert s.x[0] == pytest.approx(-5.0, abs=1e-12)

    def test_two_variable_vertex(self):
        s = solve_lp(lp([-1.0, -1.0], [[1, 1], [1, 0], [0, 1]], [4.0, 3.0, 2.0],
                        [True, True]))
        assert s.status == OPTIMAL
        assert s.objective_value == pytest.approx(-4.0, abs=1e-12)

    def test_equality_via_inequality_pair(self):
        # x + y = 2 encoded as two inequalities; minimize x
        s = solve_lp(lp([1.0, 0.0], [[1, 1], [-1, -1]], [2.0, -2.0], [True, True]))
        assert s.status == OPTIMAL
        assert s.objective_value == pytest.approx(0.0, abs=1e-10)


class TestErrors:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            lp([1.0, 2.0], [[1.0]], [1.0], [True])

    def test_nonfinite_rejected(self):
        with pytest.raises(DimensionMismatch):
            lp([np.inf], [[1.0]], [1.0], [True])


def _random_bounded_lp(rng, n=4, m=6):
    a = rng.normal(size=(m, n))
    x0 = rng.uniform(0.2, 1.0, size=n)
    b = a @ x0 + rng.uniform(0.1, 1.0, size=m)
    # cap the simplex so vertex enumeration terminates on a bounded set
    a = np.vstack([a, np.ones(n)])
    b = np.concatenate([b, [float(x0.sum() + 5.0)]])
    c = rng.normal(size=n)
    return lp(c, a, b, [True] * n)


class TestOracleEquivalence:
    def test_200_random_lps_match_vertex_enumeration(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            p = _random_bounded_lp(rng)
            s = solve_lp(p)
            assert s.status == OPTIMAL
            ref = vertex_enumeration_optimum(p.objective, p.ineq_lhs, p.ineq_rhs)
            assert s.objective_value == pytest.approx(ref, abs=1e-8)

    def test_optimal_solutions_feasible(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            p = _random_bounded_lp(rng)
            s = solve_lp(p)
            assert s.status == OPTIMAL
            assert np.max(p.ineq_lhs @ s.x - p.ineq_rhs) <= 1e-9
            assert np.min(s.x) >= -1e-9


def test_determinism_bit_identical():
    rng = np.random.default_rng(5)
    p = _random_bounded_lp(rng)
    s1 = solve_lp(p)
    s2 = solve_lp(p)
    assert s1.status == s2.status
    assert np.array_equal(s1.x, s2.x)
    assert s1.objective_value == s2.objective_value
