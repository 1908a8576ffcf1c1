from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest

from stabcut import engine
from stabcut.graph import random_graph
from stabcut.simplex import PIVOT_TOL, LpResult, _ratio_test, lp_solve


def vertex_enumeration_optimum(n, rows, objective, tol=1e-7):
    """Independent oracle: the optimum of a nonempty bounded polytope sits at
    a vertex, and every vertex fixes n active constraints, so try them all."""
    m = len(rows)
    A = np.zeros((m, n))
    b = np.zeros(m)
    for i, (coeffs, rhs) in enumerate(rows):
        for v, coef in coeffs.items():
            A[i, v] = coef
        b[i] = rhs
    c = np.array(objective, dtype=float)
    best = None
    for k in range(0, n + 1):
        for rows_on in itertools.combinations(range(m), k):
            for free in itertools.combinations(range(n), k):
                if k:
                    sub = A[np.ix_(rows_on, free)]
                    if abs(np.linalg.det(sub)) < 1e-10:
                        continue
                    inv = np.linalg.inv(sub)
                fixed = [j for j in range(n) if j not in free]
                for assignment in itertools.product((0.0, 1.0), repeat=len(fixed)):
                    x = np.zeros(n)
                    for j, val in zip(fixed, assignment):
                        x[j] = val
                    if k:
                        rhs = b[list(rows_on)] - A[np.ix_(rows_on, fixed)] @ np.array(assignment)
                        x[list(free)] = inv @ rhs
                    if ((x < -tol) | (x > 1 + tol)).any():
                        continue
                    if (A @ x > b + tol).any():
                        continue
                    val = float(c @ x)
                    if best is None or val > best:
                        best = val
    return best


def c5_rows():
    return [({0: 1, 1: 1}, 1), ({1: 1, 2: 1}, 1), ({2: 1, 3: 1}, 1),
            ({3: 1, 4: 1}, 1), ({0: 1, 4: 1}, 1)]


def test_c5_edge_relaxation_is_five_halves():
    res = lp_solve(5, c5_rows())
    assert res.status == "optimal"
    assert abs(res.value - 2.5) <= 1e-9
    for (coeffs, rhs) in c5_rows():
        assert sum(res.x[v] for v in coeffs) <= rhs + 1e-9


def test_no_rows_shortcut():
    res = lp_solve(4, [], objective=[2.0, -1.0, 0.0, 0.5])
    assert res.status == "optimal"
    assert res.value == 2.5
    assert res.x == [1.0, 0.0, 0.0, 1.0]
    assert res.iterations == 0


def test_simple_cases():
    res = lp_solve(2, [({0: 1, 1: 1}, 1)])
    assert abs(res.value - 1.0) <= 1e-9
    res = lp_solve(2, [({0: 1, 1: 1}, 5)], objective=[3.0, 2.0])
    assert abs(res.value - 5.0) <= 1e-9
    assert res.x == [1.0, 1.0]
    res = lp_solve(3, [({0: 1, 1: 1}, 1), ({1: 1, 2: 1}, 1), ({0: 1, 2: 1}, 1)])
    assert abs(res.value - 1.5) <= 1e-9
    res = lp_solve(2, [({0: 1}, 0.25)], objective=[0.0, 0.0])
    assert res.value == 0.0


def test_input_validation():
    with pytest.raises(ValueError):
        lp_solve(2, [({0: 1}, -1)])
    with pytest.raises(ValueError):
        lp_solve(2, [({5: 1}, 1)])
    with pytest.raises(ValueError):
        lp_solve(3, [], objective=[1.0])
    with pytest.raises(ValueError, match="non-finite right side"):
        lp_solve(2, [({0: 1.0}, math.nan)])
    with pytest.raises(ValueError, match="non-finite right side"):
        lp_solve(2, [({0: 1.0}, math.inf)])
    with pytest.raises(ValueError, match="non-finite coefficient"):
        lp_solve(2, [({0: 1.0}, 1.0), ({0: 1.0, 1: math.nan}, 1.0)])
    with pytest.raises(ValueError, match="non-finite coefficient"):
        lp_solve(2, [({1: -math.inf}, 1.0)])
    with pytest.raises(ValueError, match="non-finite"):
        lp_solve(2, [({0: 1.0}, 1.0)], objective=[1.0, math.nan])


def test_degenerate_rows_still_solve():
    rows = [({0: 1, 1: 1}, 1)] * 6 + [({0: 1}, 1), ({1: 1}, 1)]
    res = lp_solve(2, rows, objective=[1.0, 0.9])
    assert res.status == "optimal"
    assert abs(res.value - 1.0) <= 1e-9


def test_stalled_status_on_tiny_iteration_cap():
    res = lp_solve(5, c5_rows(), max_iterations=1)
    assert res.status == "stalled"


def test_negative_coefficients_are_fine():
    # max x0 with x0 - x1 <= 0 forces x0 <= x1
    res = lp_solve(2, [({0: 1, 1: -1}, 0)], objective=[1.0, -0.5])
    assert abs(res.value - 0.5) <= 1e-9
    assert abs(res.x[0] - 1.0) <= 1e-9 and abs(res.x[1] - 1.0) <= 1e-9


def test_matches_vertex_enumeration_oracle():
    rng = random.Random(314)
    for trial in range(60):
        n = rng.randint(2, 5)
        m = rng.randint(1, 8)
        rows = []
        for _ in range(m):
            coeffs = {v: round(rng.uniform(-1.0, 2.0), 3)
                      for v in range(n) if rng.random() < 0.8}
            rows.append((coeffs, round(rng.uniform(0.0, 2.5), 3)))
        objective = [round(rng.uniform(-1.0, 2.0), 3) for _ in range(n)]
        res = lp_solve(n, rows, objective=objective)
        assert res.status == "optimal"
        expect = vertex_enumeration_optimum(n, rows, objective)
        assert expect is not None
        assert abs(res.value - expect) <= 1e-8, (n, rows, objective)
        # returned point is feasible
        for coeffs, rhs in rows:
            assert sum(coeffs[v] * res.x[v] for v in coeffs) <= rhs + 1e-8


def scalar_ratio_test(w, sigma, xb, basis, lower, upper, t_best):
    """The two-pass loop lp_solve ran before its ratio test became array
    operations; lower and upper are indexed by variable, not by row. Also
    returns the rows that block inside the window."""
    m = len(w)
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
    near = []
    if tmin <= t_best:
        t_best = tmin
        window = t_best + 1e-9 * (1.0 + abs(t_best))
        for i in range(m):
            if ratios[i] > window:
                continue
            near.append(i)
            if leave is None or abs(w[i]) > abs(w[leave]):
                leave = i
    return t_best, leave, near


def test_ratio_test_matches_scalar_loop_on_ties():
    # Values drawn from a few levels force ties in the step, inside the
    # window and in |w|; rows at a bound give degenerate zero steps, rows
    # outside their bounds give negative ratios, and pivots at or inside
    # PIVOT_TOL must never block.
    rng = random.Random(2718)
    pivots = [0.5, -0.5, 1.0, -1.0, 2.0, PIVOT_TOL, -PIVOT_TOL, 0.5 * PIVOT_TOL,
              0.0, 0.25 + 1e-12]
    steps = [0.0, 0.25, 0.25 * (1 + 5e-10), 0.5, 3.0, -0.1]
    leaves = set()
    tied = 0
    for trial in range(1500):
        n = rng.randint(1, 6)
        m = rng.randint(1, 12)
        total = n + m
        lower = np.zeros(total)
        upper = np.concatenate([np.ones(n), np.full(m, np.inf)])
        basis = rng.sample(range(total), m)
        w = np.array([rng.choice(pivots) for _ in range(m)])
        sigma = rng.choice([1.0, -1.0])
        xb = np.empty(m)
        for i, var in enumerate(basis):
            t = rng.choice(steps)
            sw = sigma * w[i]
            # put the row t steps away from the bound it moves towards
            if sw < 0 and not math.isinf(upper[var]):
                xb[i] = upper[var] + t * sw
            else:
                xb[i] = lower[var] + t * abs(sw) + rng.choice([0.0, 0.0, 0.3])
        span = rng.choice([1.0, np.inf, 0.25])
        want = scalar_ratio_test(w, sigma, xb, basis, lower, upper, span)
        got = _ratio_test(w, sigma, xb, lower[basis], upper[basis], span)
        assert got == want[:2], trial
        assert math.copysign(1.0, got[0]) == math.copysign(1.0, want[0])
        leaves.add(want[1])
        top = [i for i in want[2] if abs(w[i]) == abs(w[want[1]])]
        tied += len(top) > 1
    # blocking rows and entering columns that reach their bound both
    # occur, and the window often held several rows of the largest |w|,
    # where only the first may leave
    assert None in leaves and len(leaves) > 5
    assert tied >= 50


@pytest.fixture(scope="module")
def warm_chain():
    """The LP calls of a 12-round basic engine run: every call after the
    first passes the previous call's token and appends rows. Its warm
    re-solves make 328 bound flips in dual_repair, and one of the repairs
    fails and falls back to the slack basis."""
    calls = []

    def recording(n, rows, warm=None):
        res = lp_solve(n, rows, warm=warm)
        calls.append((n, [(dict(c), rhs) for c, rhs in rows], warm, res))
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "lp_solve", recording)
        g = random_graph(40, 0.5, seed=2).complement()
        engine.cutting_plane_run(g, procedure="basic", max_rounds=12)
    return calls


def test_warm_starts_match_cold_solves(warm_chain):
    calls = warm_chain
    assert len(calls) >= 10
    assert calls[0][2] is None
    for (_, before, _, last), (n, rows, warm, res) in zip(calls, calls[1:]):
        assert warm == last.start
        assert len(rows) > len(before) and rows[:len(before)] == before
        cold = lp_solve(n, rows)
        assert res.status == cold.status == "optimal"
        assert abs(res.value - cold.value) <= 1e-8

    # a token that does not fit is ignored: the solve is the cold one
    n, rows, warm, _ = calls[-1]
    basis, at_upper = warm
    assert lp_solve(n + 1, rows, warm=warm) == lp_solve(n + 1, rows)
    repeated = ([basis[0]] + basis[:-1], at_upper)
    assert len(set(repeated[0])) < len(repeated[0])
    assert lp_solve(n, rows, warm=repeated) == lp_solve(n, rows)


def assert_matches_highs(linprog, n, rows, objective, res):
    """res is within 1e-8 of the HiGHS optimum, and its x is feasible."""
    a = np.zeros((len(rows), n))
    for i, (coeffs, _) in enumerate(rows):
        for v, coef in coeffs.items():
            a[i, v] = coef
    b = np.array([rhs for _, rhs in rows], dtype=float)
    ref = linprog(-np.asarray(objective, dtype=float), A_ub=a, b_ub=b,
                  bounds=[(0.0, 1.0)] * n, method="highs")
    assert ref.status == 0
    assert res.status == "optimal"
    assert abs(res.value - -ref.fun) <= 1e-8, (res.value, -ref.fun)
    x = np.array(res.x)
    assert ((x >= 0.0) & (x <= 1.0)).all()
    assert (a @ x <= b + 1e-8).all()


def test_lp_matches_highs(warm_chain):
    # Three kinds of input, checked against HiGHS: packing LPs of the
    # engine's size, the engine's warm-started chain (one of whose warm
    # repairs fails and restarts from slacks) and small LPs with negative
    # coefficients and near-parallel rows. 9 of those 400 solves end on a
    # nudged optimum that misses the exact right side, drop the nudge and
    # finish in dual_repair (counted with an instrumented copy).
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = random.Random(8)
    for m in (50, 100, 150, 200, 250, 300):
        n = rng.randint(30, 60)
        rows = []
        for _ in range(m):
            support = rng.sample(range(n), rng.randint(2, 6))
            if rng.random() < 0.7:
                rows.append(({v: 1 for v in support}, 1))
            else:
                rows.append(({v: rng.randint(1, 4) for v in support},
                             rng.randint(2, 6)))
        objective = [rng.choice([1.0, 1.0, 0.5, 2.0]) for _ in range(n)]
        assert_matches_highs(linprog, n, rows, objective,
                             lp_solve(n, rows, objective=objective))

    for n, rows, _, res in warm_chain:
        assert_matches_highs(linprog, n, rows, [1.0] * n, res)

    rng = random.Random(11)
    for _ in range(400):
        n = rng.randint(2, 8)
        rows = []
        for _ in range(rng.randint(2, 12)):
            coeffs = {v: rng.choice([-1.0, 1.0, 2.0, 0.5, 1.0 + 1e-6, 1.0 - 1e-6])
                      for v in range(n) if rng.random() < 0.7}
            rows.append((coeffs, rng.choice([0.0, 0.5, 1.0, 3.0, 20.0])))
        objective = [rng.choice([-1.0, 1.0, 2.0, 0.5]) for _ in range(n)]
        assert_matches_highs(linprog, n, rows, objective,
                             lp_solve(n, rows, objective=objective))
