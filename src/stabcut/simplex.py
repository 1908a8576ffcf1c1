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


# rows of the basis inverse updated per block in a pivot
_BLOCK_ROWS = 128


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


def lp_solve(n: int, rows, objective=None, max_iterations=None,
             warm=None) -> LpResult:
    """Solve max c.x, A x <= b, 0 <= x <= 1.

    rows is an iterable of (coeffs, rhs) with coeffs a {var: coef} dict and
    rhs >= 0. Entering variables follow the largest reduced cost, with ties to
    the lowest index. Status is "optimal", or "stalled" when the iteration cap
    is hit or an optimum still misses the exact right side after the dual
    repair and one restart from the slack basis.

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
    if not all(math.isfinite(c) for c in objective):
        raise ValueError("objective has a non-finite entry")
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
        if not math.isfinite(rhs):
            raise ValueError("row %d has non-finite right side %r" % (i, rhs))
        if rhs < 0:
            raise ValueError("row %d has negative right side %r" % (i, rhs))
        for v, coef in coeffs.items():
            if not (0 <= v < n):
                raise ValueError("row %d touches unknown variable %d" % (i, v))
            if not math.isfinite(coef):
                raise ValueError("row %d has non-finite coefficient %r on "
                                 "variable %d" % (i, coef, v))
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
    # for the real one; the cleanup below drops the nudge and repairs the
    # exact point, with one plain restart in the rare case that fails.
    nudge = 1e-7 * np.arange(1, m + 1)

    if max_iterations is None:
        max_iterations = 2000 + 200 * total
    since_refactor = 0
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
        # leaving_at_upper.
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
        # rank-1 update of every other row, a block of rows at a time so
        # no m x m product is allocated. Rows with |w| <= 1e-14 get a zero
        # multiplier and keep their values; at most a -0.0 entry comes
        # back as +0.0, which no later product can tell apart.
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

    # the walk starts from the all-slack basis with the nudge in place
    reset_to_slacks(True)

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
                # steps. A failed repair restarts from slacks with the nudge.
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
                # confirm on a fresh inverse before trusting the sign test
                refactor()
                since_refactor = 0
                continue
            true_xb = basic_solution(b)
            if float(np.max(bound_violation(true_xb))) > 1e-7:
                if not nudged:
                    # no nudge left to drop: the solve ends stalled
                    break
                # nudged optimum misses the real right side: keep the basis,
                # which stays dual feasible, swap in the exact rhs and let
                # dual steps walk the bounds back in, or else walk again
                # from slacks without the nudge
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
            # cannot happen for a bounded objective; bail out defensively
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
