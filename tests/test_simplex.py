from __future__ import annotations

import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from reference_simplex import reference_lp_solve
from stabcut import engine, simplex
from stabcut.benchmarks import BENCHMARKS
from stabcut.graph import random_graph
from stabcut.lifting import clique_inequality
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
    # coefficients the ratio tests would read as 0, on their own or after
    # the row is divided by its largest entry
    with pytest.raises(ValueError, match="below"):
        lp_solve(2, [({0: 1.0, 1: 5e-8}, 1.0)])
    with pytest.raises(ValueError, match="below"):
        lp_solve(2, [({0: 1.0}, 1.0), ({0: -5e-8}, 0.0)])
    with pytest.raises(ValueError, match="on variable 1"):
        lp_solve(2, [({0: 2.0, 1: -1e-7}, 1.0)])
    with pytest.raises(ValueError, match="below"):
        lp_solve(2, [({0: 3e7, 1: 1.0}, 1.0)])
    # the division underflows to exactly 0
    with pytest.raises(ValueError, match="on variable 1, of size 0 "):
        lp_solve(2, [({0: 1e300, 1: 1e-30}, 1.0)])
    # at PIVOT_TOL itself, and after scaling up to it, the row is kept
    assert lp_solve(2, [({0: 1.0, 1: 1e-7}, 1.0)]).status == "optimal"
    assert lp_solve(2, [({0: 1e7, 1: 1.0}, 1.0)]).status == "optimal"
    assert lp_solve(2, [({0: 1.0, 1: 0.0}, 1.0)]).status == "optimal"


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
        got = _ratio_test(w, sigma, xb, upper[basis], span)
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


def record_engine_lps(g, procedure, max_rounds):
    """(n, rows, warm, result) of every LP call of an engine run on g."""
    calls = []

    def recording(n, rows, warm=None):
        res = lp_solve(n, rows, warm=warm)
        calls.append((n, [(dict(c), rhs) for c, rhs in rows], warm, res))
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "lp_solve", recording)
        engine.cutting_plane_run(g, procedure=procedure, max_rounds=max_rounds)
    return calls


@pytest.fixture(scope="module")
def warm_chain():
    """The LP calls of a 12-round basic engine run: every call after the
    first passes the previous call's token and appends rows. Its warm
    re-solves make 328 bound flips in dual_repair, and one of the repairs
    fails and falls back to the slack basis."""
    return record_engine_lps(random_graph(40, 0.5, seed=2).complement(),
                             "basic", 12)


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
    # so is one whose basis is singular: columns 0 and 1 agree on both
    # prefix rows
    rows = [({0: 1, 1: 1}, 1), ({0: 1, 1: 1}, 1), ({0: 1}, 0.5)]
    assert lp_solve(2, rows, warm=([0, 1], [False] * 4)) == lp_solve(2, rows)


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


def seeded_lps():
    """(n, rows, objective) of two kinds: packing LPs of the engine's size,
    and small LPs with negative coefficients and near-parallel rows."""
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
        yield n, rows, objective

    rng = random.Random(11)
    for _ in range(400):
        n = rng.randint(2, 8)
        rows = []
        for _ in range(rng.randint(2, 12)):
            coeffs = {v: rng.choice([-1.0, 1.0, 2.0, 0.5, 1.0 + 1e-6, 1.0 - 1e-6])
                      for v in range(n) if rng.random() < 0.7}
            rows.append((coeffs, rng.choice([0.0, 0.5, 1.0, 3.0, 20.0])))
        objective = [rng.choice([-1.0, 1.0, 2.0, 0.5]) for _ in range(n)]
        yield n, rows, objective


def test_lp_matches_highs(warm_chain):
    # The seeded LPs and the engine's warm-started chain (one of whose warm
    # repairs fails and restarts from slacks), checked against HiGHS. 9 of
    # the 400 small seeded solves end on a nudged optimum that misses the
    # exact right side, drop the nudge and finish in dual_repair (counted
    # with an instrumented copy).
    linprog = pytest.importorskip("scipy.optimize").linprog
    for n, rows, objective in seeded_lps():
        assert_matches_highs(linprog, n, rows, objective,
                             lp_solve(n, rows, objective=objective))
    for n, rows, _, res in warm_chain:
        assert_matches_highs(linprog, n, rows, [1.0] * n, res)


def same_result(res, ref):
    return ((res.value, res.x, res.status, res.iterations, res.start)
            == (ref.value, ref.x, ref.status, ref.iterations, ref.start))


def test_reused_products_change_no_bit(warm_chain):
    # lp_solve computes its reduced costs, pivot rows and entering columns
    # once per basis; the reference recomputes them at every step, bound
    # flips included. Same operands, same products: the results must match
    # to the last bit, on the warm chain (its flips and its failed repair)
    # and on the seeded LPs.
    for n, rows, warm, res in warm_chain:
        assert same_result(res, reference_lp_solve(n, rows, warm=warm))
    for n, rows, objective in seeded_lps():
        assert same_result(lp_solve(n, rows, objective=objective),
                           reference_lp_solve(n, rows, objective=objective))


@pytest.mark.slow
def test_reused_products_change_no_bit_on_hamming_rounds():
    # every LP of the benchmark's hamming6-4 basic 14-round run, whose warm
    # repairs make thousands of bound flips
    calls = record_engine_lps(BENCHMARKS["hamming6-4"]().complement(),
                              "basic", 14)
    assert sum(res.flips for *_, res in calls) > 1000
    for n, rows, warm, res in calls:
        assert same_result(res, reference_lp_solve(n, rows, warm=warm))


def padded_lps():
    """(n, rows, objective) of packing LPs whose n is 1, 2 and 3 mod 4,
    where lp_solve pads its stored columns, with m from 300 to 1,000."""
    rng = random.Random(44)
    for m, n in ((300, 41), (650, 62), (1000, 83)):
        rows = []
        for _ in range(m):
            support = rng.sample(range(n), rng.randint(2, 7))
            if rng.random() < 0.7:
                rows.append(({v: 1 for v in support}, 1))
            else:
                rows.append(({v: rng.randint(1, 4) for v in support},
                             rng.randint(2, 6)))
        objective = [rng.choice([1.0, 1.0, 0.5, 2.0]) for _ in range(n)]
        yield n, rows, objective


def test_padded_columns_change_no_bit():
    # lp_solve stores the structural columns padded with zero columns to a
    # multiple of 4 and keeps slacks implicit; the reference stores every
    # column. Cold solves and warm solves from the first nine tenths of the
    # rows must match it to the last bit.
    for n, rows, objective in padded_lps():
        assert n % 4
        prefix = lp_solve(n, rows[:len(rows) * 9 // 10], objective=objective)
        for warm in (None, prefix.start):
            res = lp_solve(n, rows, objective=objective, warm=warm)
            assert res.status == "optimal"
            assert same_result(res, reference_lp_solve(
                n, rows, objective=objective, warm=warm))


def cover_lp(name):
    """(n, rows) of the edge clique cover LP the engine starts from on the
    complement of a named instance."""
    g = BENCHMARKS[name]().complement()
    ineqs = [clique_inequality(w) for w in engine.edge_clique_cover(g)]
    return g.n, [(dict(q.coeffs), q.rhs) for q in ineqs]


def test_an_unbounded_slack_step_ends_the_solve(monkeypatch):
    # An entering slack ranges up to inf. When no row blocks it, the ratio
    # test returns an infinite step together with a row, the first of
    # largest |w|, so only a guard on the step alone can fire. Planted on
    # the first slack step of hamming6-4's cover LP, the solve ends stalled
    # at that step; taking it instead ran 25 more ratio tests into a stall
    # at a value of 25.79.
    inf = math.inf
    assert _ratio_test(np.array([0.0, 1e-9, -0.5]), 1.0,
                       np.array([0.3, 0.2, 0.1]), np.array([inf, 1.0, inf]),
                       inf) == (inf, 2)
    n, rows = cover_lp("hamming6-4")
    res = lp_solve(n, rows)
    assert (res.status, res.iterations) == ("optimal", 142)
    assert abs(res.value - 5.976784334995676) <= 1e-9
    slack_steps = []

    def planted(w, sigma, xb, up, span):
        slack_steps.append(math.isinf(span))
        if slack_steps.count(True) == 1 and slack_steps[-1]:
            # no row blocks the first slack that enters
            w = np.zeros_like(w)
        return _ratio_test(w, sigma, xb, up, span)

    monkeypatch.setattr(simplex, "_ratio_test", planted)
    res = lp_solve(n, rows)
    assert res.status == "stalled"
    assert slack_steps.index(True) == len(slack_steps) - 1


def traced_peak(solve):
    """Peak traced memory of solve() above the level it starts from."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        solve()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_one_basis_inverse_is_live():
    # Slacks are implicit and an inversion drops the old inverse first, so
    # the peak is the m x m basis matrix and its inverse plus the m x 200
    # structural block: 2.77 m^2 doubles here, cold and warm. Storing the
    # slack columns and keeping a second inverse alive took 4.77 cold and
    # 5.77 warm.
    n, rows = cover_lp("c-fat200-1")
    m = len(rows)
    assert m == 317
    token = lp_solve(n, rows[:m // 2]).start
    for warm in (None, token):
        peak = traced_peak(lambda: lp_solve(n, rows, warm=warm))
        assert peak < 3.5 * 8 * m * m, (warm is None, peak / (8 * m * m))


def test_reused_products_change_no_bit_on_cfat_close():
    # every LP of the benchmark's c-fat200-1 basic 2-round run: 200
    # columns, 317 to 392 rows and 3,911 iterations, almost all of them
    # pivots, with two warm starts
    calls = record_engine_lps(BENCHMARKS["c-fat200-1"]().complement(),
                              "basic", 2)
    assert len(calls) == 3 and sum(res.iterations for *_, res in calls) > 3000
    for n, rows, warm, res in calls:
        assert same_result(res, reference_lp_solve(n, rows, warm=warm))


def test_flips_are_counted(warm_chain):
    results = [res for *_, res in warm_chain]
    assert sum(res.flips for res in results) >= 328
    assert all(0 <= res.flips < res.iterations for res in results)


def test_iteration_cap_bounds_warm_repairs(warm_chain):
    # Warm calls spend their first iterations in dual_repair, and cold ones
    # may drop the nudge and repair; those steps count against the cap like
    # the primal ones. A cap the solve does not reach changes nothing, and
    # one it reaches ends the call stalled at exactly the cap. A warm call
    # stopped by the cap hands back the basis it reached: the warm basis
    # with at most one entry changed per iteration, not the slack basis.
    stopped = 0
    for n, rows, warm, res in warm_chain:
        for start, full in ((None, lp_solve(n, rows)), (warm, res)):
            for cap in (1, 3, 10, 50):
                capped = lp_solve(n, rows, max_iterations=cap, warm=start)
                if full.iterations <= cap:
                    assert capped == full
                    continue
                assert capped.status == "stalled"
                assert capped.iterations == cap
                if start is not None:
                    stopped += 1
                    m_old = len(warm[1]) - n
                    installed = list(warm[0]) + list(range(n + m_old,
                                                           n + len(rows)))
                    changed = sum(u != v for u, v in
                                  zip(capped.start[0], installed))
                    assert changed <= cap
    assert stopped > 10


def test_tiny_coefficients_are_rejected_not_misread():
    # Before lp_solve rejected such coefficients, 300 of the first 3,000
    # LPs of this generator came back "optimal" with a wrong value (e.g.
    # 4.5 against HiGHS's 2.0). Every LP now either raises or agrees with
    # HiGHS.
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = random.Random(123)
    raised = solved = 0
    for _ in range(400):
        n = rng.randint(1, 8)
        rows = []
        for _ in range(rng.randint(1, 12)):
            coeffs = {v: rng.choice([-1, 1, 2, 0.5, 5e-8, -5e-8, -1e-7])
                      for v in rng.sample(range(n), rng.randint(1, n))}
            rows.append((coeffs, rng.choice([0, 1, 2, 0.5])))
        objective = [rng.choice([1.0, 0.5, 2.0, -1.0]) for _ in range(n)]
        try:
            res = lp_solve(n, rows, objective=objective)
        except ValueError as exc:
            assert "below" in str(exc)
            raised += 1
            continue
        assert_matches_highs(linprog, n, rows, objective, res)
        solved += 1
    assert raised and solved
