from __future__ import annotations

import random

import pytest

from stabcut.graph import Graph, mask_of, random_graph
from stabcut.mwss import (
    ConstrainedMwssQuery,
    enumerate_stable_sets,
    max_weight_stable_set,
    maximum_stable_set,
    solve_constrained,
)


def brute_max(g, weights, within_mask=None):
    """Independent oracle: scan every stable set."""
    best = 0
    for s in enumerate_stable_sets(g):
        if within_mask is not None and s & ~within_mask:
            continue
        best = max(best, sum(weights[v] for v in range(g.n) if s >> v & 1))
    return best


def test_enumerate_stable_sets_counts(c5, example8):
    sets = enumerate_stable_sets(c5)
    # empty set, 5 singletons, 5 non-adjacent pairs
    assert len(sets) == 11
    assert len(set(sets)) == 11
    assert all(c5.is_stable(s) for s in sets)
    assert max(bin(s).count("1") for s in enumerate_stable_sets(example8)) == 3


def test_enumerate_guard():
    with pytest.raises(ValueError):
        enumerate_stable_sets(random_graph(30, 0.5, seed=1), max_n=25)


def test_maximum_stable_set_small(c5, example8):
    r = maximum_stable_set(c5)
    assert r.proven_optimal and not r.infeasible
    assert r.best_value == 2
    assert c5.is_stable(r.best_set)
    r8 = maximum_stable_set(example8)
    assert r8.best_value == 3
    assert example8.is_stable(r8.best_set)


def test_weighted_matches_enumeration_oracle():
    rng = random.Random(42)
    for trial in range(40):
        n = rng.randint(4, 13)
        g = random_graph(n, rng.choice([0.2, 0.4, 0.6]), seed=1000 + trial)
        weights = [rng.randint(-3, 9) for _ in range(n)]
        r = max_weight_stable_set(g, weights)
        assert r.proven_optimal
        assert r.best_value == brute_max(g, weights)
        assert g.is_stable(r.best_set)
        assert all(weights[v] > 0 for v in r.best_set)
        assert sum(weights[v] for v in r.best_set) == r.best_value


def test_within_restriction():
    rng = random.Random(7)
    for trial in range(15):
        n = rng.randint(5, 12)
        g = random_graph(n, 0.4, seed=500 + trial)
        weights = [rng.randint(1, 6) for _ in range(n)]
        within = mask_of(v for v in range(n) if rng.random() < 0.6)
        r = max_weight_stable_set(g, weights, within=within)
        assert r.mask() & ~within == 0
        assert r.best_value == brute_max(g, weights, within_mask=within)


def test_all_nonpositive_weights():
    g = random_graph(8, 0.3, seed=3)
    r = max_weight_stable_set(g, [0, -1, 0, -2, 0, -3, 0, -1])
    assert r.best_set == ()
    assert r.best_value == 0
    assert r.proven_optimal


def test_budget_interrupts_search():
    g = random_graph(60, 0.15, seed=11)
    r = max_weight_stable_set(g, [1] * 60, max_nodes=20)
    assert not r.proven_optimal
    assert g.is_stable(r.best_set)
    assert r.best_value >= 1


def test_constrained_query_validation(example8):
    g = example8
    with pytest.raises(ValueError):
        ConstrainedMwssQuery(g, [1] * 8, cover_cliques=[(0, 1, 3)])  # 1-3 not an edge
    with pytest.raises(ValueError):
        ConstrainedMwssQuery(g, [1] * 8, avoid_cliques=[(0, 9)])
    with pytest.raises(ValueError):
        ConstrainedMwssQuery(g, [1] * 7)
    with pytest.raises(ValueError):
        ConstrainedMwssQuery(g, [1] * 8, cover_cliques=[()])
    # not a clique of g, but a clique of the reference with the extra edge
    ref = g.with_edges([(1, 3)])
    q = ConstrainedMwssQuery(g, [1] * 8, cover_cliques=[(0, 1, 3)], reference=ref)
    assert q.cover_cliques == ((0, 1, 3),)


def test_constrained_infeasible_when_cover_fully_avoided(example8):
    q = ConstrainedMwssQuery(example8, [1] * 8,
                             cover_cliques=[(0, 1, 2)],
                             avoid_cliques=[(0, 1, 2)])
    r = solve_constrained(q)
    assert r.infeasible and r.proven_optimal
    assert r.best_set is None and r.best_value is None


def constrained_brute(g, weights, covers, avoids):
    best = None
    avoid_mask = 0
    for a in avoids:
        avoid_mask |= mask_of(a)
    for s in enumerate_stable_sets(g):
        if s & avoid_mask:
            continue
        if any(bin(s & mask_of(c)).count("1") != 1 for c in covers):
            continue
        val = sum(weights[v] for v in range(g.n) if s >> v & 1)
        if best is None or val > best:
            best = val
    return best


def grow_clique(g, seed_vertex, rng):
    w = [seed_vertex]
    cand = list(g.neighbors(seed_vertex))
    rng.shuffle(cand)
    for v in cand:
        if all(g.has_edge(v, u) for u in w):
            w.append(v)
            if len(w) == 3:
                break
    return tuple(sorted(w))


def test_constrained_matches_enumeration_oracle():
    rng = random.Random(99)
    for trial in range(40):
        n = rng.randint(5, 12)
        g = random_graph(n, 0.5, seed=2000 + trial)
        weights = [rng.randint(-3, 8) for _ in range(n)]
        covers = [grow_clique(g, rng.randrange(n), rng)
                  for _ in range(rng.randint(0, 2))]
        avoids = [grow_clique(g, rng.randrange(n), rng)
                  for _ in range(rng.randint(0, 1))]
        q = ConstrainedMwssQuery(g, weights, cover_cliques=covers,
                                 avoid_cliques=avoids)
        r = solve_constrained(q)
        assert r.proven_optimal
        expect = constrained_brute(g, weights, covers, avoids)
        if expect is None:
            assert r.infeasible
        else:
            assert not r.infeasible
            assert r.best_value == expect
            got = set(r.best_set)
            assert g.is_stable(r.best_set)
            for c in covers:
                assert len(got & set(c)) == 1
            for a in avoids:
                assert not got & set(a)


def test_constrained_keeps_nonpositive_cover_members():
    # path 0-1-2; cover {1} has weight 0, and the optimum must still pick it
    g = Graph(3, [(0, 1), (1, 2)])
    q = ConstrainedMwssQuery(g, [5, 0, 5], cover_cliques=[(1,)])
    r = solve_constrained(q)
    assert not r.infeasible
    assert r.best_set == (1,)
    assert r.best_value == 0


def test_constrained_exactly_one_not_at_least_one():
    # triangle-free square: {0,2} is stable but has two members of the cover
    # edge-pair {0,2}? use explicit situation: cover clique (0,1), graph with
    # 0-1 edge only; stable sets can hold at most one of them anyway, so use a
    # cover on a false pair via reference to force the distinction.
    g = Graph(4, [(0, 1), (2, 3)])
    ref = g.with_edges([(0, 2)])
    q = ConstrainedMwssQuery(g, [1, 1, 1, 1], cover_cliques=[(0, 2)], reference=ref)
    r = solve_constrained(q)
    # {0, 2} itself is stable in g but violates exactly-one; best takes one of
    # the pair plus one vertex from the other edge
    assert r.best_value == 2
    assert len(set(r.best_set) & {0, 2}) == 1


def test_matches_networkx_max_weight_clique():
    # Beyond the sizes the enumeration oracle reaches: the heaviest stable
    # set of g is the heaviest clique of its complement. networkx needs
    # integer weights; nonpositive ones count as 0 there, which leaves the
    # optimum unchanged. Every other solve goes through solve_constrained
    # with one vertex avoided and no cover, which starts the shared search
    # without an incumbent.
    nx = pytest.importorskip("networkx")
    rng = random.Random(40)
    for trial in range(200):
        n = rng.randint(13, 40)
        g = random_graph(n, rng.choice([0.1, 0.2, 0.3, 0.5, 0.7]),
                         seed=3000 + trial)
        weights = [rng.randint(-2, 20) for _ in range(n)]
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from((u, v) for u in range(n) for v in range(u + 1, n)
                         if not g.has_edge(u, v))
        for v in range(n):
            h.nodes[v]["w"] = max(weights[v], 0)
        if trial % 2:
            banned = rng.randrange(n)
            h.remove_node(banned)
            r = solve_constrained(ConstrainedMwssQuery(
                g, weights, avoid_cliques=[(banned,)]))
            assert banned not in r.best_set
        else:
            r = max_weight_stable_set(g, weights)
        _, expect = nx.max_weight_clique(h, weight="w")
        assert r.proven_optimal and not r.infeasible
        assert r.best_value == expect, trial
        assert g.is_stable(r.best_set)
        assert sum(weights[v] for v in r.best_set) == r.best_value
