"""lp_solve as it ran when every step recomputed its products.

Each iteration of this loop computes the reduced costs, and each dual
repair step its pivot row, afresh from the basis inverse, also after a bound
flip that left the basis alone. lp_solve computes them once per basis; the
products and their operands are the same, so both must return the same
LpResult bit for bit. It keeps its own copy of the ratio test, which reads a
lower bound of 0 for every variable from an array, and after dropping the
nudge it inverts the basis afresh where lp_solve keeps the inverse it has,
which no pivot has touched since the last inversion.
Input checks are left out: pass valid rows only.
"""

from __future__ import annotations

import math

import numpy as np

from stabcut.simplex import _BLOCK_ROWS, DEFAULT_TOL, PIVOT_TOL, LpResult


def _ratio_test(w, sigma, xb, low, up, span):
    """Bounded primal ratio test for an entering column.

    Basic value i drops by sigma * w[i] per unit step of the entering
    column, whose own range is span; low and up are the bounds of the basic
    variables. Returns (step, leave): leave is the row that blocks first, or
    None when the entering column reaches its other bound first (step is
    then span).

    Rows whose pivot is within PIVOT_TOL of zero never block: a division
    by 1e-9 would wreck the basis inverse. Among the rows that block inside
    a small window above the tightest step, the leaving row is the first
    one of largest |w|.
    """
    sw = sigma * w
    ratios = np.full(len(w), np.inf)
    falls = sw > PIVOT_TOL
    rises = (sw < -PIVOT_TOL) & ~np.isinf(up)
    ratios[falls] = (xb[falls] - low[falls]) / sw[falls]
    ratios[rises] = (xb[rises] - up[rises]) / sw[rises]
    # negative steps become 0.0 but a -0.0 step stays -0.0, as with a
    # scalar max(t, 0.0); np.maximum(t, 0.0) would turn it into +0.0
    ratios = np.where(0.0 > ratios, 0.0, ratios)
    tmin = float(ratios.min())
    if not tmin <= span:
        return span, None
    window = tmin + 1e-9 * (1.0 + abs(tmin))
    near = np.flatnonzero(~(ratios > window))
    return tmin, int(near[int(np.argmax(np.abs(w[near])))])


def reference_lp_solve(n, rows, objective=None, max_iterations=None, warm=None):
    if objective is None:
        objective = [1.0] * n
    rows = list(rows)
    m = len(rows)
    if m == 0:
        x = [1.0 if c > 0 else 0.0 for c in objective]
        return LpResult(float(sum(c for c in objective if c > 0)), x,
                        "optimal", 0)

    total = n + m
    acols = np.zeros((m, total))
    b = np.zeros(m)
    scales = np.ones(m)
    for i, (coeffs, rhs) in enumerate(rows):
        for v, coef in coeffs.items():
            acols[i, v] = coef
        if coeffs:
            scales[i] = max(1.0, max(abs(coef) for coef in coeffs.values()))
        b[i] = rhs
        acols[i, n + i] = 1.0
    acols[:, :n] /= scales[:, None]
    b /= scales

    c = np.zeros(total)
    c[:n] = objective
    lower = np.zeros(total)
    upper = np.concatenate([np.ones(n), np.full(m, np.inf)])
    nudge = 1e-7 * np.arange(1, m + 1)

    if max_iterations is None:
        max_iterations = 2000 + 200 * total
    since_refactor = 0
    iterations = 0
    status = "stalled"

    def basic_solution(rhs):
        vals = np.where(at_upper, upper, lower)
        vals[is_basic] = 0.0
        return binv @ (rhs - acols @ vals)

    def bound_violation(vec):
        return np.maximum(lower[basis] - vec, vec - upper[basis])

    def pivot(r, j, w, step, leaving_at_upper):
        nonlocal xb
        xb -= step * w
        leaving = basis[r]
        is_basic[leaving] = False
        at_upper[leaving] = leaving_at_upper
        basis[r] = j
        is_basic[j] = True
        xb[r] = (upper[j] if at_upper[j] else lower[j]) + step
        at_upper[j] = False
        binv[r] /= w[r]
        f = np.where(np.abs(w) > 1e-14, w, 0.0)
        f[r] = 0.0
        for s in range(0, m, _BLOCK_ROWS):
            binv[s:s + _BLOCK_ROWS] -= np.multiply.outer(f[s:s + _BLOCK_ROWS],
                                                         binv[r])

    def refactor():
        nonlocal binv, xb
        binv = np.linalg.inv(acols[:, basis])
        xb = basic_solution(b_solve)

    def reset_to_slacks(with_nudge):
        nonlocal basis, is_basic, at_upper, binv, xb, nudged, b_solve
        nudged = with_nudge
        b_solve = b + nudge if nudged else b
        basis = list(range(n, total))
        is_basic = np.zeros(total, dtype=bool)
        is_basic[n:] = True
        at_upper = np.zeros(total, dtype=bool)
        binv = np.eye(m)
        xb = b_solve.copy()

    reset_to_slacks(True)

    def dual_repair():
        nonlocal xb, iterations
        for _ in range(m + 200):
            iterations += 1
            violation = bound_violation(xb)
            r = int(np.argmax(violation))
            if violation[r] <= 1e-8:
                return True
            below = bool(xb[r] < lower[basis[r]])
            y = c[basis] @ binv
            d = c - y @ acols
            alpha = binv[r] @ acols
            if below:
                ok = ((alpha < -PIVOT_TOL) & ~at_upper) | \
                     ((alpha > PIVOT_TOL) & at_upper)
            else:
                ok = ((alpha > PIVOT_TOL) & ~at_upper) | \
                     ((alpha < -PIVOT_TOL) & at_upper)
            cand = np.where(ok & ~is_basic)[0]
            if cand.size == 0:
                return False
            ratios = np.abs(d[cand]) / np.abs(alpha[cand])
            near = cand[ratios <= float(ratios.min()) + 1e-12]
            j = int(near[int(np.argmax(np.abs(alpha[near])))])
            sigma = -1.0 if at_upper[j] else 1.0
            w = binv @ acols[:, j]
            bound_r = lower[basis[r]] if below else upper[basis[r]]
            t = (xb[r] - bound_r) / (sigma * w[r])
            span = upper[j] - lower[j]
            if t > span + 1e-12:
                at_upper[j] = not at_upper[j]
                xb -= sigma * span * w
                continue
            pivot(r, j, w, sigma * t, not below)
        return False

    if warm is not None:
        old_basis, old_at_upper = warm
        m_old = len(old_at_upper) - n
        if (0 <= m_old <= m and len(old_basis) == m_old
                and len(set(old_basis)) == m_old
                and all(0 <= v < n + m_old for v in old_basis)):
            cand = list(old_basis) + list(range(n + m_old, total))
            try:
                inv = np.linalg.inv(acols[:, cand])
            except np.linalg.LinAlgError:
                inv = None
            if inv is not None:
                nudged = False
                b_solve = b
                basis = cand
                binv = inv
                is_basic = np.zeros(total, dtype=bool)
                is_basic[basis] = True
                at_upper = np.zeros(total, dtype=bool)
                at_upper[:n + m_old] = np.asarray(old_at_upper, dtype=bool)
                at_upper[is_basic] = False
                xb = basic_solution(b_solve)
                if not dual_repair():
                    reset_to_slacks(True)
                since_refactor = 1

    while iterations < max_iterations:
        iterations += 1
        y = c[basis] @ binv
        d = c - y @ acols
        enter_lower = ~is_basic & ~at_upper & (d > DEFAULT_TOL)
        enter_upper = ~is_basic & at_upper & (d < -DEFAULT_TOL)
        candidates = np.where(enter_lower | enter_upper)[0]
        if candidates.size == 0:
            if since_refactor > 0:
                refactor()
                since_refactor = 0
                continue
            true_xb = basic_solution(b)
            if float(np.max(bound_violation(true_xb))) > 1e-7:
                if not nudged:
                    break
                nudged = False
                b_solve = b
                refactor()
                if not dual_repair():
                    reset_to_slacks(False)
                since_refactor = 1
                continue
            xb = true_xb
            status = "optimal"
            break
        j = int(candidates[int(np.argmax(np.abs(d[candidates])))])
        sigma = -1.0 if at_upper[j] else 1.0
        w = binv @ acols[:, j]

        t_best, leave = _ratio_test(w, sigma, xb, lower[basis], upper[basis],
                                    upper[j] - lower[j])
        if leave is None and math.isinf(t_best):
            break
        t = max(t_best, 0.0)
        if leave is None:
            at_upper[j] = not at_upper[j]
            xb -= sigma * t * w
        else:
            pivot(leave, j, w, sigma * t, sigma * w[leave] < 0)
            since_refactor += 1
            if since_refactor >= 50:
                refactor()
                since_refactor = 0

    vals = np.where(at_upper, upper, lower)
    vals[basis] = xb
    x = np.clip(vals[:n], 0.0, 1.0)
    value = float(np.dot(c[:n], x))
    return LpResult(value, [float(v) for v in x], status, iterations,
                    start=(list(basis), [bool(v) for v in at_upper]))
