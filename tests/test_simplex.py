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


def scalar_ratio_test(w, sigma, xb, basis, lower, upper, t_best, bland):
    """The two-pass loop lp_solve ran before its ratio test became array
    operations; lower and upper are indexed by variable, not by row."""
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
    return t_best, leave


def test_ratio_test_matches_scalar_loop_on_ties():
    # Values drawn from a few levels force ties in the step, inside the
    # window and in |w|; rows at a bound give degenerate zero steps, rows
    # outside their bounds give negative ratios, and pivots at or inside
    # PIVOT_TOL must never block.
    rng = random.Random(2718)
    pivots = [0.5, -0.5, 1.0, -1.0, 2.0, PIVOT_TOL, -PIVOT_TOL, 0.5 * PIVOT_TOL,
              0.0, 0.25 + 1e-12]
    steps = [0.0, 0.25, 0.25 * (1 + 5e-10), 0.5, 3.0, -0.1]
    leaves = {True: set(), False: set()}
    modes_differ = 0
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
        chosen = []
        for bland in (False, True):
            want = scalar_ratio_test(w, sigma, xb, basis, lower, upper, span, bland)
            got = _ratio_test(w, sigma, xb, basis, lower[basis], upper[basis],
                              span, bland)
            assert got[1] == want[1], (trial, bland)
            assert got[0] == want[0]
            assert math.copysign(1.0, got[0]) == math.copysign(1.0, want[0])
            leaves[bland].add(want[1])
            chosen.append(want[1])
        modes_differ += chosen[0] != chosen[1]
    # both modes saw blocking rows and entering columns that reach their
    # bound, and the two tie breaks disagreed often
    for bland in (False, True):
        assert None in leaves[bland] and len(leaves[bland]) > 5
    assert modes_differ >= 100


def test_warm_starts_match_cold_solves(monkeypatch):
    # One engine run records its LP calls: every call after the first
    # passes the previous call's token and appends rows. This run's warm
    # re-solves make 328 bound flips in dual_repair, and one of them falls
    # back to the slack basis.
    calls = []

    def recording(n, rows, warm=None):
        res = lp_solve(n, rows, warm=warm)
        calls.append((n, [(dict(c), rhs) for c, rhs in rows], warm, res))
        return res

    monkeypatch.setattr(engine, "lp_solve", recording)
    g = random_graph(40, 0.5, seed=2).complement()
    engine.cutting_plane_run(g, procedure="basic", max_rounds=12)
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
