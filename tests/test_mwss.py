from __future__ import annotations

import hashlib
import random

import pytest

from stabcut.graph import Graph, bits, mask_of, random_graph
from stabcut.mwss import (
    EPS,
    _partition_bound,
    _weight_classes,
    enumerate_stable_sets,
    max_weight_stable_set,
    maximum_stable_set,
    solve_constrained,
)


def brute_max(g, weights, avoid=0):
    """Independent oracle: scan every stable set."""
    best = 0
    for s in enumerate_stable_sets(g):
        if s & avoid:
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
        enumerate_stable_sets(random_graph(30, 0.5, seed=1))


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


def test_avoid_restriction():
    rng = random.Random(7)
    for trial in range(15):
        n = rng.randint(5, 12)
        g = random_graph(n, 0.4, seed=500 + trial)
        weights = [rng.randint(1, 6) for _ in range(n)]
        avoid = mask_of(v for v in range(n) if rng.random() >= 0.6)
        r = max_weight_stable_set(g, weights, avoid=avoid)
        assert mask_of(r.best_set) & avoid == 0
        assert r.best_value == brute_max(g, weights, avoid=avoid)
    # the same check as solve_constrained's: the mask must lie in the graph
    with pytest.raises(ValueError, match="avoid mask"):
        max_weight_stable_set(g, [1] * g.n, avoid=1 << g.n)


def test_one_weight_per_vertex():
    g = random_graph(6, 0.3, seed=3)
    for weights in ([1] * 5, [1] * 7):
        with pytest.raises(ValueError, match="one weight per vertex"):
            max_weight_stable_set(g, weights)


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


def test_constrained_input_validation(example8):
    g = example8
    with pytest.raises(ValueError, match="cover mask"):
        solve_constrained(g, [1] * 8, covers=[mask_of((0, 1)), 0])
    for mask in (1 << 8, mask_of((0, 9)), -1):
        with pytest.raises(ValueError, match="cover mask"):
            solve_constrained(g, [1] * 8, covers=[mask])
        with pytest.raises(ValueError, match="avoid mask"):
            solve_constrained(g, [1] * 8, avoid=mask)
    with pytest.raises(ValueError, match="one weight per vertex"):
        solve_constrained(g, [1] * 7)


def test_constrained_infeasible_when_cover_fully_avoided(example8):
    r = solve_constrained(example8, [1] * 8, covers=[mask_of((0, 1, 2))],
                          avoid=mask_of((0, 1, 2)))
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
    cand = list(bits(g.adj[seed_vertex]))
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
        r = solve_constrained(g, weights, covers=[mask_of(c) for c in covers],
                              avoid=mask_of(v for a in avoids for v in a))
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
    r = solve_constrained(g, [5, 0, 5], covers=[mask_of((1,))])
    assert not r.infeasible
    assert r.best_set == (1,)
    assert r.best_value == 0


def test_constrained_exactly_one_not_at_least_one():
    # edges 0-1 and 2-3 only, cover {0, 2}, which is no clique of g: {0, 2}
    # is stable but holds two members of the cover, so the best set takes one
    # of the pair plus one vertex of the other edge
    g = Graph(4, [(0, 1), (2, 3)])
    r = solve_constrained(g, [1, 1, 1, 1], covers=[mask_of((0, 2))])
    assert r.best_value == 2
    assert len(set(r.best_set) & {0, 2}) == 1


def test_matches_networkx_max_weight_clique():
    # Beyond the sizes the enumeration oracle reaches: the heaviest stable
    # set of g is the heaviest clique of its complement. networkx needs
    # integer weights; nonpositive ones count as 0 there, which leaves the
    # optimum unchanged. Every other solve goes through solve_constrained
    # with one vertex avoided and no cover.
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
            r = solve_constrained(g, weights, avoid=1 << banned)
            assert banned not in r.best_set
        else:
            r = max_weight_stable_set(g, weights)
        _, expect = nx.max_weight_clique(h, weight="w")
        assert r.proven_optimal and not r.infeasible
        assert r.best_value == expect, trial
        assert g.is_stable(r.best_set)
        assert sum(weights[v] for v in r.best_set) == r.best_value


def test_constrained_with_covers_matches_brute_force():
    # Every query has at least one cover, and cover members often carry a
    # zero or negative weight, so the search has to branch on vertices that
    # its bound never counts. A bound that stopped early while a cover was
    # still open once gave wrong optima here. About a third of the covers
    # and avoids are arbitrary vertex sets rather than cliques of g, as the
    # strengthened lift's covers are cliques of a projected graph.
    rng = random.Random(5150)
    outcomes = set()
    nonclique = 0
    for trial in range(400):
        n = rng.randint(4, 13)
        g = random_graph(n, rng.choice([0.3, 0.5, 0.7]), seed=11000 + trial)
        weights = [rng.randint(-3, 6) for _ in range(n)]

        def side_set():
            if rng.random() < 1 / 3:  # one to four vertices, edges ignored
                return tuple(sorted(rng.sample(range(n), rng.randint(1, 4))))
            return grow_clique(g, rng.randrange(n), rng)

        covers = [side_set() for _ in range(rng.randint(1, 3))]
        for c in covers:
            for v in c:
                if rng.random() < 0.5:
                    weights[v] = rng.choice([0, 0, -1, -2])
        avoids = [side_set() for _ in range(rng.randint(0, 1))]
        nonclique += sum(not g.is_clique(w) for w in covers + avoids)
        r = solve_constrained(g, weights, covers=[mask_of(c) for c in covers],
                              avoid=mask_of(v for a in avoids for v in a))
        expect = constrained_brute(g, weights, covers, avoids)
        assert r.proven_optimal, trial
        assert r.infeasible == (expect is None), trial
        assert r.best_value == expect, trial
        if expect is not None:
            assert g.is_stable(r.best_set)
            assert sum(weights[v] for v in r.best_set) == expect
            for c in covers:
                assert len(set(r.best_set) & set(c)) == 1, trial
        outcomes.add(expect is None)
    assert outcomes == {True, False}
    assert nonclique >= 100


def reference_partition_bound(adj, order, weights, rem):
    """The greedy clique partition bound as a full sum: seeds in (-weight,
    vertex) order, each clique grown by lowest vertex and counted by its
    seed."""
    b = 0
    for v in order:
        bit = 1 << v
        if not rem & bit:
            continue
        b += weights[v]
        clique = bit
        cand = rem & adj[v]
        while cand:
            low = cand & -cand
            clique |= low
            cand &= adj[low.bit_length() - 1]
        rem &= ~clique
        if not rem:
            break
    return b


def test_partition_bound_prunes_as_the_full_sum():
    rng = random.Random(8086)
    decisions = set()
    for trial in range(2000):
        n = rng.randint(1, 16)
        g = random_graph(n, rng.choice([0.2, 0.5, 0.8]), seed=12000 + trial)
        if trial % 2:
            weights = [rng.randint(1, 4) for _ in range(n)]
        else:
            weights = [rng.randint(1, 16) / 8 for _ in range(n)]
        classes = _weight_classes(weights, g.full_mask)
        order = sorted(range(n), key=lambda v: (-weights[v], v))
        rem = mask_of(v for v in range(n) if rng.random() < 0.7)
        b = reference_partition_bound(g.adj, order, weights, rem)
        val = rng.choice([0, rng.randint(0, 6), rng.randint(0, 48) / 8])
        best_val = val + b + rng.choice([-1, -EPS, 0, 0, EPS / 2, 1]) \
            * rng.choice([1, 0.5])
        expect = val + b <= best_val + EPS
        got = _partition_bound(g.adj, classes, rem, val, best_val + EPS)
        assert got == expect, (trial, rem, val, best_val)
        decisions.add(got)
    assert decisions == {True, False}


def test_max_weight_stable_set_keeps_recorded_choices():
    # The digest pins every (best_set, best_value) over 400 seeded instances:
    # n from 1 to 45, densities 0.1 to 0.9, integer, quarter and real weights
    # with some at or below zero, and an avoid mask on every second one.
    # Ties between equal optima and the float sums of real weights must not
    # move when the search changes.
    rng = random.Random(20261019)
    h = hashlib.sha256()
    for trial in range(400):
        n = rng.randint(1, 45)
        g = random_graph(n, rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]),
                         seed=30000 + trial)
        if trial % 3 == 0:
            weights = [rng.randint(-2, 6) for _ in range(n)]
        elif trial % 3 == 1:
            weights = [rng.randint(-4, 12) / 4 for _ in range(n)]
        else:
            weights = [rng.uniform(-0.5, 2.0) for _ in range(n)]
        avoid = 0
        if trial % 2:
            avoid = mask_of(v for v in range(n) if rng.random() >= 0.7)
        r = max_weight_stable_set(g, weights, avoid=avoid)
        assert r.proven_optimal and not r.infeasible
        h.update(repr((r.best_set, r.best_value)).encode())
    assert h.hexdigest() == (
        "4f34e9a3dcdc8a4905ca48e290b3b2d5dfcecb13d298a04c56b34c3f64b7d32a")


def test_solve_constrained_keeps_recorded_choices():
    # As above for 300 side-constrained instances: up to three covers of one
    # to four arbitrary vertices and a random avoid mask; 44 are infeasible.
    rng = random.Random(20261020)
    h = hashlib.sha256()
    infeasible = 0
    for trial in range(300):
        n = rng.randint(2, 24)
        g = random_graph(n, rng.choice([0.2, 0.4, 0.6, 0.8]),
                         seed=31000 + trial)
        weights = [rng.randint(-8, 16) / 4 for _ in range(n)]
        covers = [mask_of(rng.sample(range(n), rng.randint(1, min(n, 4))))
                  for _ in range(rng.randint(0, 3))]
        avoid = mask_of(v for v in range(n) if rng.random() < 0.15)
        r = solve_constrained(g, weights, covers=covers, avoid=avoid)
        assert r.proven_optimal
        infeasible += r.infeasible
        h.update(repr((r.best_set, r.best_value, r.infeasible)).encode())
    assert infeasible == 44
    assert h.hexdigest() == (
        "e3cac9953de04561cf1371e5a7dc5d5cca970d7b886bbbd6ee69ca51a143d051")
