"""End-to-end acceptance checks, grouped by shipped guarantee.

Each block pins one observable promise of the package: exact numbers on the
worked 8-vertex instance, validity of every emitted cut, the structural
properties the lifting procedures rely on, the facet machinery, desk-scale
benchmark bounds, LP agreement with brute force, and byte-identical reruns.
Tolerances are stated inline and are deliberately tight.
"""
from __future__ import annotations

import itertools
import json
import math
import random

import numpy as np
import pytest

from stabcut import (
    BENCHMARKS,
    Graph,
    Inequality,
    basic_lift,
    check_validity,
    clique_inequality,
    clique_project,
    cutting_plane_run,
    face_dimension,
    facet_report,
    find_witnesses,
    is_projectable_edge,
    lp_solve,
    max_weight_stable_set,
    maximum_stable_set,
    random_graph,
    sep_for_stab,
    strengthened_lift,
    witness_from_trace,
)
from stabcut.cli import main
from stabcut.graph import bits, mask_of
from stabcut.mwss import enumerate_stable_sets

from conftest import (
    EXAMPLE8_FALSE_1,
    EXAMPLE8_SEED,
    EXAMPLE8_W1,
    enumerated_validity,
    random_maximal_clique,
    random_trace,
)


# ---------------------------------------------------------------------------
# worked 8-vertex instance, exact integer arithmetic, zero tolerance


def test_demo_projection_adds_exactly_three_false_edges(example8):
    # projecting W = {0,1,2} adds four false edges, not three: the outside
    # vertices miss 3->{1}, 4->{2}, 5->{0}, 6->{0,1}, 7->{0,1} of W, and a
    # non-adjacent pair becomes a false edge when its misses are disjoint,
    # so (4,6) joins (3,4), (3,5) and (4,5); the tuple is pinned in
    # emission order
    _, false_edges = clique_project(example8, EXAMPLE8_W1)
    assert false_edges == ((3, 4), (3, 5), (4, 5), (4, 6))
    assert set(false_edges) == EXAMPLE8_FALSE_1


def test_demo_basic_lift_exact_cut(example8_trace):
    cut = basic_lift(example8_trace, seed=EXAMPLE8_SEED)
    assert cut.factors == (1, 1, 0)
    assert cut.inequality == Inequality(
        {3: 1, 4: 1, 5: 1, 6: 1, 7: 1, 0: 2, 1: 2, 2: 2}, 3)


def test_demo_strengthened_lift_exact_cut(example8_trace):
    cut = strengthened_lift(example8_trace, seed=EXAMPLE8_SEED)
    assert cut.factors == (0, 2, -1)
    assert cut.inequality == Inequality(
        {0: 1, 1: 1, 3: 1, 5: 1, 6: 1, 7: 1, 2: 2}, 2)
    # intermediate stage after undoing the third projection only
    assert cut.level_form(2) == Inequality(
        {1: 1, 5: 1, 6: 1, 7: 1, 0: -1, 3: -1}, 0)


# ---------------------------------------------------------------------------
# every cut the generators emit is valid, checked by check_validity's branch
# and bound and by exact enumeration


def test_every_emitted_cut_is_valid_on_random_graphs():
    rng = random.Random(20260814)
    graphs = 0
    lifted = 0
    separated = 0
    while graphs < 200:
        n = rng.randrange(6, 15)
        dens = rng.choice([0.2, 0.4, 0.6])
        g = random_graph(n, dens, seed=rng.randrange(10 ** 9))
        graphs += 1
        trace = random_trace(g, rng, max_steps=4)
        if trace.r:
            seed = random_maximal_clique(trace.final_graph, rng)
            for lift in (basic_lift, strengthened_lift):
                cut = lift(trace, seed=seed)
                rep = check_validity(g, cut.inequality)
                assert rep.valid, (trace.cliques, seed, cut.inequality.to_text())
                assert enumerated_validity(g, cut.inequality).valid
                lifted += 1
        if graphs % 8 == 0:
            point = [rng.choice([0.0, 0.3, 0.5, 0.7]) for _ in range(n)]
            outcome = sep_for_stab(g, point, rng=random.Random(graphs))
            for cut in outcome.cuts:
                rep = check_validity(g, cut.inequality)
                assert rep.valid, (cut.inequality.to_text(), point)
                assert enumerated_validity(g, cut.inequality).valid
                separated += 1
    assert graphs >= 200 and lifted >= 200 and separated >= 20


# ---------------------------------------------------------------------------
# structural properties of projection and lifting, by enumeration


def stable_masks(g):
    return list(enumerate_stable_sets(g))


def test_projection_shifts_stable_sets_both_ways():
    # projected stable sets stay stable, and stable sets meeting the clique
    # exactly once survive projection untouched
    rng = random.Random(31)
    for trial in range(30):
        n = rng.randrange(5, 13)
        g = random_graph(n, rng.choice([0.25, 0.45, 0.65]), seed=900 + trial)
        w = random_maximal_clique(g, rng)
        if len(w) < 2:
            continue
        h, _ = clique_project(g, w)
        wmask = mask_of(w)
        stable_g = set(stable_masks(g))
        for s in stable_masks(h):
            assert s in stable_g
        for s in stable_g:
            if bin(s & wmask).count("1") == 1:
                assert all(not h.adj[v] & s for v in bits(s))


def test_projecting_a_covered_edge_preserves_alpha():
    rng = random.Random(57)
    checked = 0
    for trial in range(50):
        n = rng.randrange(5, 13)
        g = random_graph(n, rng.choice([0.3, 0.5, 0.7]), seed=4000 + trial)
        alpha = maximum_stable_set(g).best_value
        for u in range(n):
            for v in bits(g.adj[u] >> (u + 1) << (u + 1)):
                if not is_projectable_edge(g, u, v):
                    continue
                h, _ = clique_project(g, (u, v))
                assert maximum_stable_set(h).best_value == alpha, (u, v)
                checked += 1
    assert checked >= 100


def test_strengthened_factors_never_exceed_basic_factors(example8_trace):
    # the factor sequences are not comparable entry by entry (the worked
    # instance gives (0, 2, -1) against (1, 1, 0)), since every later step
    # solves for a different running inequality; only factors[-1], the first
    # one applied, is. There both procedures maximize the seed clique
    # inequality, and the strengthened region (stable sets of the base graph
    # meeting W_1 .. W_{r-1} once and avoiding W_r) lies inside the basic
    # one (stable sets of graph_at(r-1) avoiding W_r). An empty strengthened
    # region gives factor 0, which still cannot exceed the basic factor
    # unless the seed sits inside W_r and the basic factor is -1; such walks
    # are left out of the random population
    b = basic_lift(example8_trace, seed=EXAMPLE8_SEED)
    s = strengthened_lift(example8_trace, seed=EXAMPLE8_SEED)
    assert len(s.factors) == len(b.factors) == example8_trace.r
    assert s.factors[-1] <= b.factors[-1]

    rng = random.Random(5150)
    pairs = 0
    while pairs < 500:
        n = rng.randrange(5, 14)
        g = random_graph(n, rng.choice([0.2, 0.4, 0.6, 0.8]),
                         seed=rng.randrange(10 ** 9))
        trace = random_trace(g, rng, max_steps=4)
        if trace.r == 0:
            continue
        seed = random_maximal_clique(trace.final_graph, rng)
        if set(seed) <= set(trace.cliques[-1]):
            continue
        b = basic_lift(trace, seed=seed)
        s = strengthened_lift(trace, seed=seed)
        assert len(s.factors) == len(b.factors) == trace.r
        assert s.factors[-1] <= b.factors[-1], \
            (trace.cliques, seed, s.factors, b.factors)
        pairs += 1


def test_strengthened_rhs_is_attained_inside_its_support():
    # 1 + sum of factors equals the exact weighted stability number of the
    # cut's support, on every paired run
    rng = random.Random(6021)
    pairs = 0
    while pairs < 120:
        n = rng.randrange(5, 14)
        g = random_graph(n, rng.choice([0.2, 0.4, 0.6, 0.8]),
                         seed=rng.randrange(10 ** 9))
        trace = random_trace(g, rng, max_steps=4)
        if trace.r == 0:
            continue
        seed = random_maximal_clique(trace.final_graph, rng)
        cut = strengthened_lift(trace, seed=seed)
        best = max_weight_stable_set(g, cut.inequality.as_weights(g.n))
        assert 1 + sum(cut.factors) == best.best_value, \
            (trace.cliques, seed, cut.factors)
        pairs += 1


def test_walk_faces_stay_stable_in_projected_graphs():
    # integral points of the level-t face are stable sets of the level-t
    # graph, and the next clique meets each of them at most once
    rng = random.Random(88)
    for trial in range(25):
        n = rng.randrange(5, 13)
        g = random_graph(n, rng.choice([0.3, 0.5]), seed=7100 + trial)
        trace = random_trace(g, rng, max_steps=4)
        if trace.r == 0:
            continue
        masks = [mask_of(w) for w in trace.cliques]
        for t in range(trace.r + 1):
            gt = trace.graph_at(t)
            for s in stable_masks(g):
                if any(bin(s & m).count("1") != 1 for m in masks[:t]):
                    continue
                assert all(not gt.adj[v] & s for v in bits(s))
                if t < trace.r:
                    assert bin(s & masks[t]).count("1") <= 1


# ---------------------------------------------------------------------------
# facet machinery on the worked instance


def test_demo_facet_conditions_all_pass(example8_trace):
    witness = witness_from_trace(example8_trace, [(1, 3), (2, 4), (0,)],
                                 representative=(1, 2))
    cut = strengthened_lift(example8_trace, seed=EXAMPLE8_SEED)
    report = facet_report(example8_trace, witness, cut, t=3,
                          seed=EXAMPLE8_SEED)
    assert example8_trace.r == 3 and witness.k == 3
    assert all(report.conditions.values()), report.conditions
    assert report.predicted


def test_demo_face_dimension_is_n_minus_steps(example8_trace):
    eqs = [clique_inequality(w) for w in example8_trace.cliques]
    cert = face_dimension(example8_trace.base, eqs)
    assert cert.affine_dim == example8_trace.base.n - 3 == 5


def test_demo_strengthened_cut_is_facet_of_walk_face(example8_trace):
    witness = witness_from_trace(example8_trace, [(1, 3), (2, 4), (0,)],
                                 representative=(1, 2))
    cut = strengthened_lift(example8_trace, seed=EXAMPLE8_SEED)
    report = facet_report(example8_trace, witness, cut, t=3,
                          seed=EXAMPLE8_SEED)
    assert report.dim_face == 5
    assert report.dim_tight == 4
    assert report.facet and report.agrees


def test_demo_witness_search_agrees(example8_trace):
    found = find_witnesses(example8_trace, seed=EXAMPLE8_SEED)
    assert found
    cut = strengthened_lift(example8_trace, seed=EXAMPLE8_SEED)
    for witness in found:
        report = facet_report(example8_trace, witness, cut, t=3,
                              seed=EXAMPLE8_SEED)
        assert report.facet


# ---------------------------------------------------------------------------
# desk scale benchmark bounds; the hamming and c-fat runs stop on rounds or
# on their own end, never on the wall clock


@pytest.mark.slow
def test_mann_a9_all_procedures_reach_exact_bound():
    g = BENCHMARKS["MANN_a9"]().complement()
    for proc in ("clique", "basic", "strengthened"):
        rep = cutting_plane_run(g, procedure=proc, time_limit=120.0, seed=0)
        assert abs(rep.z0 - 18.0) <= 1.0, (proc, rep.z0)
        assert abs(rep.bound - 18.0) <= 1e-6, (proc, rep.bound)


@pytest.mark.slow
def test_hamming6_4_strengthened_bound_small_enough():
    # the benchmark's round cap; the bound after 16 rounds depends on the
    # OpenBLAS thread count (4.4737 with two threads, 4.4468 with one)
    g = BENCHMARKS["hamming6-4"]().complement()
    rep = cutting_plane_run(g, procedure="strengthened", max_rounds=16,
                            time_limit=math.inf, seed=0)
    assert rep.bound <= 4.5 + 1e-9, rep.bound


@pytest.mark.slow
def test_cfat200_1_lifted_procedures_close_the_gap():
    # both procedures reach an integral optimum in about 31 rounds
    g = BENCHMARKS["c-fat200-1"]().complement()
    for proc in ("basic", "strengthened"):
        rep = cutting_plane_run(g, procedure=proc, time_limit=math.inf, seed=0)
        assert rep.status == "integral", (proc, rep.status, rep.rounds)
        assert abs(rep.bound - 12.0) <= 1e-6, (proc, rep.bound)


# ---------------------------------------------------------------------------
# LP core against brute force vertex enumeration


def brute_force_lp(n, rows, objective):
    # every optimum of a feasible bounded LP sits on a vertex, and every
    # vertex solves n linearly independent active constraints
    cons = []
    for coeffs, rhs in rows:
        a = np.zeros(n)
        for v, c in coeffs.items():
            a[v] = c
        cons.append((a, float(rhs)))
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        cons.append((-e, 0.0))
        cons.append((e, 1.0))
    amat = np.array([a for a, _ in cons])
    bvec = np.array([b for _, b in cons])
    best = None
    for pick in itertools.combinations(range(len(cons)), n):
        sub = amat[list(pick)]
        if abs(np.linalg.det(sub)) < 1e-9:
            continue
        x = np.linalg.solve(sub, bvec[list(pick)])
        if np.all(amat @ x <= bvec + 1e-9):
            val = float(np.dot(objective, x))
            if best is None or val > best:
                best = val
    return best


def test_lp_matches_vertex_enumeration_on_random_models():
    rng = random.Random(99)
    for trial in range(100):
        n = rng.randrange(2, 7)
        m = rng.randrange(1, 9)
        rows = []
        for _ in range(m):
            coeffs = {}
            for v in range(n):
                if rng.random() < 0.6:
                    coeffs[v] = rng.choice([-2, -1, 1, 2, 3])
            if not coeffs:
                coeffs[rng.randrange(n)] = 1
            rows.append((coeffs, round(rng.uniform(0.0, 4.0), 3)))
        objective = [round(rng.uniform(-1.0, 2.0), 3) for _ in range(n)]
        res = lp_solve(n, rows, objective=objective)
        assert res.status == "optimal"
        expect = brute_force_lp(n, rows, objective)
        assert expect is not None
        assert abs(res.value - expect) <= 1e-8, (trial, res.value, expect)


def test_lp_on_five_cycle_edge_model_is_half_the_cycle(c5):
    rows = [({u: 1, v: 1}, 1) for u in range(5) for v in bits(c5.adj[u])
            if u < v]
    res = lp_solve(5, rows)
    assert res.status == "optimal"
    assert res.value == 2.5


# ---------------------------------------------------------------------------
# byte identical reruns


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def test_repeated_commands_are_byte_identical(capsys, tmp_path):
    clq = tmp_path / "c5.clq"
    clq.write_text("p edge 5 5\n" + "".join(
        "e %d %d\n" % (i + 1, (i + 1) % 5 + 1) for i in range(5)))
    commands = [
        ("bound", "MANN_a9", "--proc", "c,b,s", "--seed", "3"),
        ("separate", str(clq), "--point", "0.5,0.5,0.5,0.5,0.5",
         "--seed", "11"),
        ("bench", "--sizes", "12", "--densities", "0.3", "--reps", "2",
         "--seed", "5"),
    ]
    for argv in commands:
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second, argv[0]
