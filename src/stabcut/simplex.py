"""Dense bounded-variable simplex for packing style LPs.

Maximizes c.x subject to rows of A x <= b with 0 <= x <= 1, where every
b_i >= 0 so the all-slack basis is feasible and no phase one is needed. Good
for a few hundred variables and rows, which is all the cutting plane loop
asks of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9
PIVOT_TOL = 1e-7


class LpStalled(RuntimeError):
    """The solve hit its iteration cap before reaching optimality."""


@dataclass
class LpResult:
    value: float
    x: list
    status: str
    iterations: int
    # opaque warm start token for a follow-up solve over the same columns
    # and a row superset, as the cutting plane loop produces
    start: tuple = None


def lp_solve(n: int, rows, objective=None, tol: float = DEFAULT_TOL,
             max_iterations=None, warm=None) -> LpResult:
    """Solve max c.x, A x <= b, 0 <= x <= 1.

    rows is an iterable of (coeffs, rhs) with coeffs a {var: coef} dict and
    rhs >= 0. Entering variables follow the largest reduced cost, with ties to
    the lowest index; after a long degenerate streak selection drops to
    lowest-index only, which cannot cycle. Status is "optimal" or "stalled".

    warm takes the start token of a previous result whose rows are a prefix
    of this call's rows (same n, same objective). The old basis stays dual
    feasible after rows are appended, so reoptimization runs a few dual
    steps instead of a fresh walk. A token that does not fit is ignored.
    """
    if objective is None:
        objective = [1.0] * n
    if len(objective) != n:
        raise ValueError("objective length %d does not match n=%d"
                         % (len(objective), n))
    rows = list(rows)
    m = len(rows)
    if m == 0:
        x = [1.0 if c > 0 else 0.0 for c in objective]
        return LpResult(float(sum(c for c in objective if c > 0)), x,
                        "optimal", 0)

    total = n + m
    acols = np.zeros((m, total))
    b = np.zeros(m)
    for i, (coeffs, rhs) in enumerate(rows):
        if rhs < 0:
            raise ValueError("row %d has negative right side %r" % (i, rhs))
        for v, coef in coeffs.items():
            if not (0 <= v < n):
                raise ValueError("row %d touches unknown variable %d" % (i, v))
            acols[i, v] = coef
        # equilibrate: lifted cuts can carry coefficients orders of magnitude
        # above the clique rows, which wrecks basis conditioning. Dividing a
        # row by its largest entry changes nothing about the feasible set.
        scale = max(abs(coef) for coef in coeffs.values()) if coeffs else 1.0
        if scale > 1.0:
            acols[i, :n] /= scale
            b[i] = rhs / scale
        else:
            b[i] = rhs
        acols[i, n + i] = 1.0

    c = np.zeros(total)
    c[:n] = objective
    lower = np.zeros(total)
    upper = np.concatenate([np.ones(n), np.full(m, np.inf)])

    # A strictly increasing nudge on each right side makes every ratio test
    # winner unique, so pivots strictly improve and the massive degeneracy of
    # overlapping clique rows cannot trap or corrupt the walk. Costs are
    # untouched, so the optimal basis of the nudged model is dual feasible
    # for the real one; the cleanup below recomputes the exact point and
    # falls back to a plain solve in the rare case it is not primal feasible.
    nudge = 1e-7 * np.arange(1, m + 1)
    dropped = False

    if max_iterations is None:
        max_iterations = 2000 + 200 * total
    bland_after = 5 * total
    degenerate_streak = 0
    bland = False
    since_refactor = 0
    resets = 0
    iterations = 0
    status = "stalled"

    def basic_solution(rhs):
        # values of the basic variables with every nonbasic one at its bound
        vals = np.where(at_upper, upper, lower)
        vals[is_basic] = 0.0
        return binv @ (rhs - acols @ vals)

    def bound_violation(vec):
        # how far each basic value lies outside its bounds; <= 0 inside
        return np.maximum(lower[basis] - vec, vec - upper[basis])

    def pivot(r, j, w, step, leaving_at_upper):
        # column j enters the basis at row r after every basic value moved
        # by step along w; the leaving variable rests at the bound named by
        # leaving_at_upper. Updates the basis inverse row by row.
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
        for i in range(m):
            if i != r and abs(w[i]) > 1e-14:
                binv[i] -= w[i] * binv[r]

    def refactor():
        nonlocal binv, xb
        binv = np.linalg.inv(acols[:, basis])
        xb = basic_solution(b_solve)

    def reset_to_slacks():
        nonlocal basis, is_basic, at_upper, binv, xb, perturb, b_solve
        if not dropped:
            # a fresh walk wants the anti-degeneracy nudge back (a warm
            # start begins without it; see below)
            perturb = nudge
            b_solve = b + nudge
        basis = list(range(n, total))
        is_basic = np.zeros(total, dtype=bool)
        is_basic[n:] = True
        at_upper = np.zeros(total, dtype=bool)
        binv = np.eye(m)
        xb = b_solve.copy()

    # the walk starts from the all-slack basis with the nudge in place
    reset_to_slacks()

    def dual_repair():
        # Restore primal feasibility of a dual feasible basis after the
        # right side changed under it. Each step kicks the most violated
        # basic variable out at the bound it breaks and brings in the
        # column that keeps every reduced cost on its side, the usual
        # bounded dual ratio test. Used after dropping the rhs nudge and
        # after installing a warm basis, where only the appended rows are
        # out of bounds and a short run of pivots suffices.
        nonlocal xb, iterations
        for _ in range(m + 200):
            iterations += 1
            violation = bound_violation(xb)
            r = int(np.argmax(violation))
            if violation[r] <= 1e-8:
                return True
            # row r breaks exactly one of its bounds, as lower <= upper
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
                # the entering column hits its own other bound first; flip
                # it and pick the row's entering column again
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
                # the token basis was optimal for the exact right side of
                # the prefix rows, so solve without the nudge: old rows are
                # already in bounds and only the appended slacks need dual
                # steps. Any later restart from slacks brings the nudge back.
                perturb = np.zeros(m)
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
                    reset_to_slacks()
                since_refactor = 1

    while iterations < max_iterations:
        iterations += 1
        y = c[basis] @ binv
        d = c - y @ acols
        enter_lower = ~is_basic & ~at_upper & (d > tol)
        enter_upper = ~is_basic & at_upper & (d < -tol)
        candidates = np.where(enter_lower | enter_upper)[0]
        if candidates.size == 0:
            if since_refactor > 0:
                # confirm on a fresh inverse before trusting the sign test
                refactor()
                since_refactor = 0
                continue
            true_xb = basic_solution(b)
            worst = float(np.max(bound_violation(true_xb)))
            if worst > 1e-7:
                if perturb.size and perturb[0] > 0:
                    # nudged optimum misses the real right side: keep the
                    # basis, which stays dual feasible, swap in the exact
                    # rhs and let dual steps walk the bounds back in
                    dropped = True
                    perturb = np.zeros(m)
                    b_solve = b
                    refactor()
                    if not dual_repair():
                        reset_to_slacks()
                    since_refactor = 1
                    continue
                resets += 1
                if resets > 2:
                    break
                reset_to_slacks()
                bland = True
                continue
            xb = true_xb
            status = "optimal"
            break
        if bland:
            j = int(candidates[0])
        else:
            scores = np.abs(d[candidates])
            j = int(candidates[int(np.argmax(scores))])
        sigma = -1.0 if at_upper[j] else 1.0
        w = binv @ acols[:, j]

        # ratio test in two passes: find the tightest step over rows whose
        # pivot is comfortably nonzero, then pick the leaving row among near
        # ties by largest pivot magnitude (lowest variable index in Bland
        # mode, which cannot cycle). Tiny pivots are skipped entirely; a
        # division by 1e-9 would wreck the basis inverse.
        t_best = upper[j] - lower[j]
        ratios = np.full(m, np.inf)
        for i in range(m):
            wi = sigma * w[i]
            var = basis[i]
            if wi > PIVOT_TOL:
                ti = (xb[i] - lower[var]) / wi
            elif wi < -PIVOT_TOL:
                if math.isinf(upper[var]):
                    continue
                ti = (xb[i] - upper[var]) / wi
            else:
                continue
            ratios[i] = max(ti, 0.0)
        tmin = float(ratios.min()) if m else math.inf
        leave = None
        if tmin <= t_best:
            t_best = tmin
            window = t_best + 1e-9 * (1.0 + abs(t_best))
            for i in range(m):
                if ratios[i] > window:
                    continue
                if leave is None:
                    leave = i
                elif bland:
                    if basis[i] < basis[leave]:
                        leave = i
                elif abs(w[i]) > abs(w[leave]):
                    leave = i
        if leave is None and math.isinf(t_best):
            # cannot happen for a bounded objective; bail out defensively
            break
        t = max(t_best, 0.0)
        if leave is None:
            at_upper[j] = not at_upper[j]
            xb -= sigma * t * w
            degenerate_streak = 0
            bland = False
        else:
            pivot(leave, j, w, sigma * t, sigma * w[leave] < 0)
            since_refactor += 1
            if t <= 1e-11:
                degenerate_streak += 1
                if degenerate_streak >= bland_after:
                    bland = True
            else:
                degenerate_streak = 0
                bland = False
            if since_refactor >= 50:
                refactor()
                since_refactor = 0
                worst = float(np.max(bound_violation(xb)))
                if worst > 1e-6:
                    # the running basis went numerically infeasible; restart
                    # from the all-slack basis rather than walk on garbage
                    resets += 1
                    if resets > 2:
                        break
                    reset_to_slacks()
                    degenerate_streak = 0
                    bland = resets > 1

    vals = np.where(at_upper, upper, lower)
    vals[is_basic] = 0.0
    for i, var in enumerate(basis):
        vals[var] = xb[i]
    x = np.clip(vals[:n], 0.0, 1.0)
    value = float(np.dot(c[:n], x))
    return LpResult(value, [float(v) for v in x], status, iterations,
                    start=(list(basis), [bool(v) for v in at_upper]))
