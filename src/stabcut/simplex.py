"""Dense bounded-variable simplex for packing style LPs.

Maximizes c.x subject to rows of A x <= b with 0 <= x <= 1, where every
b_i >= 0 so the all-slack basis is feasible and no phase one is needed. Good
for a few hundred variables and rows, which is all the cutting plane loop
asks of it.

Only the m x n structural block is stored: slack i is the implicit unit
column e_i. The basis inverse is the one m x m array kept, and an inversion
builds the basis matrix beside it, so a solve peaks at about 2.25 m^2
doubles of Python-allocated memory, as tracemalloc reads it on c-fat200-2's
954-row cover LP. The process's resident peak rises by about 5 m^2 doubles
on that solve, since numpy's inversion also copies the basis matrix and
builds an identity right side outside Python's allocator.

This is the one module that uses numpy. It imports numpy inside lp_solve
and _ratio_test, the only functions that use it, so a process that solves
no LP never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

DEFAULT_TOL = 1e-9
PIVOT_TOL = 1e-7


# rows of the basis inverse updated per block in a pivot
_BLOCK_ROWS = 128


def _ratio_test(w, sigma, xb, up, span):
    """Bounded primal ratio test for an entering column.

    Basic value i drops by sigma * w[i] per unit step of the entering
    column, whose own range is span; the basic variables range from 0 to
    up. Returns (step, leave): leave is the row that blocks first, or
    None when the entering column reaches its other bound first (step is
    then span).

    Rows whose pivot is within PIVOT_TOL of zero never block: a division
    by 1e-9 would wreck the basis inverse. Among the rows that block inside
    a small window above the tightest step, the leaving row is the first
    one of largest |w|.
    """
    import numpy as np

    sw = sigma * w
    ratios = np.full(len(w), np.inf)
    falls = sw > PIVOT_TOL
    rises = (sw < -PIVOT_TOL) & ~np.isinf(up)
    ratios[falls] = xb[falls] / sw[falls]
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


def rejected_coefficient(coeffs):
    """The lowest variable whose coefficient keeps lp_solve from taking a
    row of {var: coef} coefficients, or None. lp_solve divides the row by
    max(1, its largest |coefficient|), and its ratio tests would read a
    nonzero coefficient left below PIVOT_TOL, or at 0 by underflow, as 0,
    so the reported optimum could be wrong."""
    sizes = list(map(abs, coeffs.values()))
    scale = max(1.0, float(max(sizes, default=0)))
    # division is monotone, so the smallest |coefficient| decides most rows
    if float(min(sizes, default=scale)) / scale >= PIVOT_TOL:
        return None
    return min((v for v, c in coeffs.items()
                if c and abs(float(c)) / scale < PIVOT_TOL), default=None)


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
    # the iterations that moved a nonbasic column to its other bound
    # without a pivot; they are part of iterations
    flips: int = 0


def lp_solve(n: int, rows, objective=None, max_iterations=None,
             warm=None) -> LpResult:
    """Solve max c.x, A x <= b, 0 <= x <= 1.

    rows is an iterable of (coeffs, rhs) with coeffs a {var: coef} dict and
    rhs >= 0. Entering variables follow the largest reduced cost, with ties to
    the lowest index. Status is "optimal", or "stalled" when the iteration cap
    is hit or an optimum still misses the exact right side after the dual
    repair and one restart from the slack basis.

    warm takes the start token of a previous result whose rows are a prefix
    of this call's rows (same n, same objective). Its basis stays dual
    feasible, so the repair that also follows the nudge drop reoptimizes it
    in a few dual steps. A token that does not fit is ignored.

    The reduced costs, a pivot row and an entering column are computed at
    most once per basis. A bound flip keeps the basis, so the steps after
    it pay only for a row or column not yet computed for it, and otherwise
    cost O(n + m). flips counts the flips among the iterations. The cap
    bounds every iteration, dual repair steps included, and a call stopped
    by it hands back the basis it reached as its start token.

    The structural block is padded with zero columns to a multiple of 4,
    so that OpenBLAS rounds every product as it would with the slack
    columns stored after it. A refactor, which a warm start runs on its
    basis, drops the old inverse before it inverts, so one inverse is live
    at a time.

    Raises ValueError on non-finite input, on a negative right side, and on
    a row that rejected_coefficient names a variable of.
    """
    import numpy as np

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
    # Only the structural columns are stored; slack i is the unit column e_i,
    # which every product below adds by hand. The block is padded with zero
    # columns to a width that is a multiple of 4: OpenBLAS's gemv sends the
    # last width mod 4 output columns through a different rounding path, and
    # the padding keeps every structural column on the path it takes when
    # the slack columns are stored after it, so no product changes a bit.
    amat = np.zeros((m, -(-n // 4) * 4))
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
            amat[i, v] = coef
        b[i] = rhs
    # equilibrate: lifted cuts can carry coefficients orders of magnitude
    # above the clique rows, which wrecks basis conditioning. Dividing a
    # row by max(1, its largest |entry|) changes nothing about the
    # feasible set.
    scales = np.abs(amat).max(axis=1, initial=1.0)
    amat /= scales[:, None]
    b /= scales
    for i, (coeffs, _) in enumerate(rows):
        v = rejected_coefficient(coeffs)
        if v is not None:
            raise ValueError(
                "row %d has coefficient %r on variable %d, of size %g after "
                "row equilibration, below PIVOT_TOL=%g"
                % (i, coeffs[v], v, abs(float(amat[i, v])), PIVOT_TOL))

    c = np.zeros(total)
    c[:n] = objective
    # every variable rests at 0 or above; only the upper bounds differ
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
    flips = 0
    status = "stalled"
    # the basis, set by install: the basic variable of each row as an index
    # array, its inverse, which nonbasic variables rest at their upper bound
    # (a basic one never does), and the basic values; then whether the
    # basic values are solved for the nudged right side
    basis = binv = at_upper = xb = None
    nudged = False

    # products of the current basis: the reduced costs under "d", pivot
    # rows under ("row", r) and entering columns under ("col", j). Bound
    # flips leave the basis alone and reuse them: in dual_repair a flip
    # often pushes another row out of bounds, which picks the same column
    # back. Every change of basis or of its inverse clears them.
    priced = {}

    def reduced_costs():
        if "d" not in priced:
            y = c[basis] @ binv
            # slack i costs 0 and its column e_i prices at y[i]; a basic
            # column prices at exactly 0, so no entering test picks it
            d = np.concatenate((c[:n] - (y @ amat)[:n], 0.0 - y))
            d[basis] = 0.0
            priced["d"] = d
        return priced["d"]

    def pivot_row(r):
        key = ("row", r)
        if key not in priced:
            priced[key] = np.concatenate(((binv[r] @ amat)[:n], binv[r]))
        return priced[key]

    def column(j):
        # a copy for a slack: pivot divides binv[r] in place while it reads
        # the entering column
        key = ("col", j)
        if key not in priced:
            priced[key] = binv @ amat[:, j] if j < n else binv[:, j - n].copy()
        return priced[key]

    def basic_solution(rhs):
        # values of the basic variables with every nonbasic one at its
        # bound; a nonbasic slack rests at 0, so only structurals count
        vals = np.zeros(amat.shape[1])
        vals[:n] = at_upper[:n]
        return binv @ (rhs - amat @ vals)

    def basis_matrix(cols):
        # the columns of a basis as stored, with its slacks as unit columns
        mat = np.zeros((m, m))
        slack = cols >= n
        mat[:, ~slack] = amat[:, cols[~slack]]
        mat[cols[slack] - n, np.flatnonzero(slack)] = 1.0
        return mat

    def bound_violation(vec):
        # how far each basic value lies outside its bounds; <= 0 inside
        return np.maximum(-vec, vec - upper[basis])

    def pivot(r, j, w, step, leaving_at_upper):
        # column j enters the basis at row r after every basic value moved
        # by step along w; the leaving variable rests at the bound named by
        # leaving_at_upper.
        nonlocal xb
        priced.clear()
        xb -= step * w
        at_upper[basis[r]] = leaving_at_upper
        basis[r] = j
        xb[r] = (upper[j] if at_upper[j] else 0.0) + step
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
        nonlocal binv, xb, since_refactor
        priced.clear()
        # one inverse at a time: drop the old one before inverting
        binv = None
        binv = np.linalg.inv(basis_matrix(basis))
        xb = basic_solution(b + nudge if nudged else b)
        since_refactor = 0

    def install(new_basis, new_at_upper):
        # a basis given whole, its variables and nonbasic bounds; the old
        # inverse is dropped, and the caller sets the new one
        nonlocal basis, at_upper, binv
        priced.clear()
        binv = None
        basis = new_basis
        at_upper = new_at_upper
        at_upper[basis] = False

    def reset_to_slacks(with_nudge):
        nonlocal nudged, xb, binv
        nudged = with_nudge
        install(np.arange(n, total), np.zeros(total, dtype=bool))
        binv = np.eye(m)
        xb = b + nudge if nudged else b.copy()

    def dual_repair():
        # Restore primal feasibility of a dual feasible basis after the
        # right side changed under it. Each step kicks the most violated
        # basic variable out at the bound it breaks and brings in the
        # column that keeps every reduced cost on its side, the usual
        # bounded dual ratio test. Stops at the iteration cap, where the
        # caller keeps the basis it reached.
        nonlocal xb, iterations, flips
        for _ in range(m + 200):
            if iterations >= max_iterations:
                return False
            iterations += 1
            violation = bound_violation(xb)
            r = int(np.argmax(violation))
            if violation[r] <= 1e-8:
                return True
            # row r breaks exactly one of its bounds, as 0 <= upper
            below = bool(xb[r] < 0.0)
            d = reduced_costs()
            alpha = pivot_row(r)
            if below:
                ok = ((alpha < -PIVOT_TOL) & ~at_upper) | \
                     ((alpha > PIVOT_TOL) & at_upper)
            else:
                ok = ((alpha > PIVOT_TOL) & ~at_upper) | \
                     ((alpha < -PIVOT_TOL) & at_upper)
            ok[basis] = False
            cand = np.flatnonzero(ok)
            if cand.size == 0:
                return False
            ratios = np.abs(d[cand]) / np.abs(alpha[cand])
            near = cand[ratios <= float(ratios.min()) + 1e-12]
            j = int(near[int(np.argmax(np.abs(alpha[near])))])
            sigma = -1.0 if at_upper[j] else 1.0
            w = column(j)
            bound_r = 0.0 if below else upper[basis[r]]
            t = (xb[r] - bound_r) / (sigma * w[r])
            span = upper[j]
            if t > span + 1e-12:
                # the entering column hits its own other bound first; flip
                # it and pick the row's entering column again
                at_upper[j] = not at_upper[j]
                xb -= sigma * span * w
                flips += 1
                continue
            pivot(r, j, w, sigma * t, not below)
        return False

    def repair(restart_nudged):
        # The one way back to the exact right side, after a warm basis is
        # installed and after the nudge is dropped: the basis is dual
        # feasible and xb already holds its values under b, so dual steps
        # walk the bounds back in. A failed repair walks again from slacks,
        # with the nudge when restart_nudged; the iteration cap instead
        # keeps the basis it reached. Either way the next sign test
        # confirms on a fresh inverse.
        nonlocal nudged, since_refactor
        nudged = False
        if not dual_repair() and iterations < max_iterations:
            reset_to_slacks(restart_nudged)
        since_refactor = 1

    def warm_start():
        # Installs the token's basis, extended by the slacks of the appended
        # rows, and repairs it; False when the token does not fit or its
        # basis is singular. The token basis was optimal for the exact right
        # side of the prefix rows, so the solve runs without the nudge: old
        # rows are already in bounds and only the appended slacks need dual
        # steps. A failed repair restarts from slacks with the nudge.
        old_basis, old_at_upper = warm
        m_old = len(old_at_upper) - n
        if not (0 <= m_old <= m and len(old_basis) == m_old
                and len(set(old_basis)) == m_old
                and all(0 <= v < n + m_old for v in old_basis)):
            return False
        cand = np.array(list(old_basis) + list(range(n + m_old, total)),
                        dtype=np.intp)
        flags = np.zeros(total, dtype=bool)
        flags[:n + m_old] = np.asarray(old_at_upper, dtype=bool)
        install(cand, flags)
        try:
            refactor()
        except np.linalg.LinAlgError:
            return False
        repair(True)
        return True

    # without a warm basis that fits, the walk starts from the all-slack
    # basis with the nudge in place
    if warm is None or not warm_start():
        reset_to_slacks(True)

    while iterations < max_iterations:
        iterations += 1
        d = reduced_costs()
        enter_lower = ~at_upper & (d > DEFAULT_TOL)
        enter_upper = at_upper & (d < -DEFAULT_TOL)
        candidates = np.where(enter_lower | enter_upper)[0]
        if candidates.size == 0:
            if since_refactor > 0:
                # confirm on a fresh inverse before trusting the sign test
                refactor()
                continue
            true_xb = basic_solution(b)
            if float(np.max(bound_violation(true_xb))) > 1e-7:
                if not nudged:
                    # no nudge left to drop: the solve ends stalled
                    break
                # nudged optimum misses the real right side: keep the basis,
                # which stays dual feasible, and repair from its exact point,
                # or else walk again from slacks without the nudge. No pivot
                # since the refactor that led here, so binv already inverts
                # this basis and its products stay valid.
                xb = true_xb
                repair(False)
                continue
            xb = true_xb
            status = "optimal"
            break
        j = int(candidates[int(np.argmax(np.abs(d[candidates])))])
        sigma = -1.0 if at_upper[j] else 1.0
        w = column(j)

        t, leave = _ratio_test(w, sigma, xb, upper[basis], upper[j])
        if math.isinf(t):
            # an entering slack that no row blocks: the step, and with it
            # the objective, would be unbounded, which 0 <= x <= 1 rules
            # out up to rounding. The ratio test then names a row all the
            # same, so the test is on the step alone; the solve ends stalled
            break
        if leave is None:
            at_upper[j] = not at_upper[j]
            xb -= sigma * t * w
            flips += 1
        else:
            pivot(leave, j, w, sigma * t, sigma * w[leave] < 0)
            since_refactor += 1
            if since_refactor >= 50:
                refactor()

    vals = np.where(at_upper, upper, 0.0)
    vals[basis] = xb
    x = np.clip(vals[:n], 0.0, 1.0)
    value = float(np.dot(c[:n], x))
    return LpResult(value, [float(v) for v in x], status, iterations,
                    start=(basis.tolist(), [bool(v) for v in at_upper]),
                    flips=flips)
