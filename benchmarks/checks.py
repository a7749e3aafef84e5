"""Correctness checks on benchmark outputs.

Every check compares an output with an independent computation or with
a property the method must have; none compares with a stored copy of an
earlier output. Each returns ``(ok, detail)`` so the self-tests can feed
it a deliberately broken output and watch it fail.
"""

from __future__ import annotations

import numpy as np
from scipy import integrate, optimize, sparse


def interval_invariants(lower, center, upper) -> tuple[bool, str]:
    """No NaN bound and lower <= center <= upper on every row; infinite
    bounds are allowed (conformal intervals may be unbounded)."""
    lower, center, upper = (np.asarray(v, dtype=np.float64) for v in (lower, center, upper))
    n_nan = int(np.count_nonzero(np.isnan(lower) | np.isnan(center) | np.isnan(upper)))
    n_bad = int(np.count_nonzero((lower > center) | (center > upper)))
    return n_nan == 0 and n_bad == 0, f"{n_nan} NaN rows, {n_bad} misordered rows"


def in_range(value: float, lo: float, hi: float) -> tuple[bool, str]:
    return bool(lo <= value <= hi), f"{value:.4f} in [{lo}, {hi}]"


def at_least(value: float, floor: float) -> tuple[bool, str]:
    return bool(value >= floor), f"{value:.4f} >= {floor:.4f}"


def oracle_full_width(beta: float, level: float = 0.95) -> float:
    """Oracle full width of the level band on the sigmoid-tilted target of
    the heteroskedastic simulator: 2 * level * E_T[sqrt(1 + 25 X^4)] with
    target density proportional to sigmoid(beta * x) on [-1, 1]
    (Y = sqrt(1 + 25 X^4) U, U uniform on [-1, 1])."""
    tilt = lambda x: 1.0 / (1.0 + np.exp(-beta * x))
    num, _ = integrate.quad(lambda x: np.sqrt(1.0 + 25.0 * x ** 4) * tilt(x), -1.0, 1.0)
    den, _ = integrate.quad(tilt, -1.0, 1.0)
    return 2.0 * level * num / den


def map_close(a_fit, b_fit, a_gen, b_gen, tol_a: float = 0.1,
              tol_b: float = 0.2) -> tuple[bool, str]:
    """The fitted target-to-source map must invert the generator's
    x = A z + b: a close to A^-1 and b close to -A^-1 b (max-entry)."""
    a_inv = np.linalg.inv(np.asarray(a_gen, dtype=np.float64))
    err_a = float(np.max(np.abs(np.asarray(a_fit) - a_inv)))
    err_b = float(np.max(np.abs(np.asarray(b_fit) + a_inv @ np.asarray(b_gen))))
    return err_a <= tol_a and err_b <= tol_b, f"|a - A^-1|={err_a:.4f}, |b + A^-1 b|={err_b:.4f}"


def bit_identical(first, second) -> tuple[bool, str]:
    """Two interval batches (lower, center, upper) agree bit for bit."""
    same = all(np.asarray(u, dtype=np.float64).tobytes() == np.asarray(v, dtype=np.float64).tobytes()
               for u, v in zip(first, second))
    return same, "bit-identical" if same else "loaded-model intervals differ"


def hinge_budget(phi, r2, w, alpha, delta: float) -> float:
    """Weighted mean hinge loss max(0, (r2 - phi @ alpha) / delta + 1)
    over the constraint block, computed directly."""
    f = np.asarray(phi) @ np.asarray(alpha)
    return float(np.mean(np.asarray(w) * np.maximum(0.0, (np.asarray(r2) - f) / delta + 1.0)))


def hinge_lp_reference(phi, r2, w, obj, delta: float, epsilon: float) -> float:
    """Optimal value of the hinge shape LP solved by HiGHS.

    min obj @ alpha over alpha, s >= 0 subject to
    s_i >= (r2_i - phi_i @ alpha) / delta + 1 on the rows with w_i > 0 and
    sum_i w_i s_i <= n * epsilon, n counting every row.
    """
    phi, r2, w = np.asarray(phi), np.asarray(r2), np.asarray(w)
    n_all = w.shape[0]
    keep = w > 0
    phi_k, r2_k, w_k = phi[keep], r2[keep], w[keep]
    n, k = phi_k.shape
    cover = sparse.hstack([sparse.csr_matrix(-phi_k / delta), -sparse.eye(n, format="csr")])
    budget = sparse.csr_matrix(np.concatenate([np.zeros(k), w_k])[None, :])
    res = optimize.linprog(np.concatenate([obj, np.zeros(n)]),
                           A_ub=sparse.vstack([cover, budget], format="csr"),
                           b_ub=np.concatenate([-(r2_k / delta + 1.0), [n_all * epsilon]]),
                           bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"reference hinge LP failed: {res.message}")
    return float(res.fun)


def lp_optimal(value: float, reference: float, rel: float = 1e-6) -> tuple[bool, str]:
    gap = abs(value - reference) / max(abs(reference), 1e-300)
    return gap <= rel, f"objective {value:.10g} vs HiGHS {reference:.10g} (rel gap {gap:.2e})"
