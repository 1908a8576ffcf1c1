from __future__ import annotations

import random

from stabcut.cliques import (
    enumerate_cliques_bounded,
    grow_clique,
    point_weight,
    rounding_lower_bound,
)
from stabcut.graph import Graph, bits, mask_of, random_graph
from stabcut.separation import build_clique_pool


def test_prefer_uncovered_changes_candidate_order():
    # 0-1, 1-3, 2-3 with these values separates the two growth orders: from
    # vertex 3 with 0 and 1 covered, the value order takes 1 and the
    # coverage order takes the uncovered 2
    g = Graph(4, [(0, 1), (1, 3), (2, 3)])
    point = [0.8, 0.9, 0.2, 0.45]
    covered = mask_of([0, 1])
    assert grow_clique(g, point, 3, covered, prefer_uncovered=False) == (1, 3)
    assert grow_clique(g, point, 3, covered, prefer_uncovered=True) == (2, 3)
    assert grow_clique(g, point, 1, 0, prefer_uncovered=True) == (0, 1)
    # the pool alternates the two orders: value first, then coverage, so the
    # second clique is (2, 3) and the scan ends after two cliques
    pool, violated = build_clique_pool(g, point)
    assert pool == [(0, 1), (2, 3)]
    assert violated == [(0, 1)]


def test_grow_clique_is_maximal():
    rng = random.Random(17)
    for trial in range(20):
        n = rng.randint(4, 14)
        g = random_graph(n, 0.5, seed=800 + trial)
        point = [rng.random() for _ in range(n)]
        w = grow_clique(g, point, seed=rng.randrange(n))
        assert g.is_clique(w)
        wset = set(w)
        for v in range(n):
            if v not in wset:
                assert not all(g.has_edge(v, u) for u in w)


def brute_maximal_cliques(g):
    out = set()
    for m in range(1, 1 << g.n):
        vs = tuple(bits(m))
        if not g.is_clique(m):
            continue
        if any(all(g.has_edge(v, u) for u in vs) for v in range(g.n) if v not in vs):
            continue
        out.add(vs)
    return out


def test_bounded_enumeration_matches_brute_force():
    rng = random.Random(31)
    for trial in range(12):
        n = rng.randint(3, 9)
        g = random_graph(n, rng.choice([0.3, 0.6]), seed=400 + trial)
        point = [rng.random() for _ in range(n)]
        cliques = enumerate_cliques_bounded(g, point, limit=10000)
        assert set(cliques) == brute_maximal_cliques(g)
        assert len(set(cliques)) == len(cliques)
        want = max(point_weight(point, w) for w in cliques)
        assert point_weight(point, cliques[0]) == want


def test_bounded_enumeration_stops_at_limit():
    g = random_graph(18, 0.6, seed=9)
    point = [1.0] * 18
    cliques = enumerate_cliques_bounded(g, point, limit=5)
    assert len(cliques) == 5


def test_rounding_lower_bound_properties(c5):
    assert rounding_lower_bound(c5, [0.5] * 5) == (0, 2)
    rng = random.Random(13)
    for trial in range(20):
        n = rng.randint(4, 15)
        g = random_graph(n, 0.4, seed=600 + trial)
        point = [rng.random() for _ in range(n)]
        s = rounding_lower_bound(g, point)
        assert g.is_stable(s)
        inside = set(s)
        for v in range(n):
            if v not in inside:
                assert any(g.has_edge(v, u) for u in s)  # maximal


def reference_enumeration(g, limit):
    """Maximal cliques in the order of the recursive expansion the bounded
    enumeration replaced: Tomita pivoting on the first vertex of largest
    candidate count, stopped after limit cliques."""
    adj = g.adj
    out = []

    def expand(r, subg, cand):
        if len(out) >= limit:
            return
        if not subg:
            out.append(tuple(sorted(r)))
            return
        pivot = max(bits(subg), key=lambda u: (cand & adj[u]).bit_count())
        ext = cand & ~adj[pivot]
        for q in bits(ext):
            r.append(q)
            expand(r, subg & adj[q], cand & adj[q])
            r.pop()
            cand &= ~(1 << q)
            if len(out) >= limit:
                return

    if g.n:
        expand([], g.full_mask, g.full_mask)
    return out


def test_bounded_enumeration_keeps_the_reference_cliques_heaviest_first():
    # the limit decides which cliques survive, so the expansion order must
    # be the reference's; the result is that prefix sorted by weight
    rng = random.Random(2718)
    for trial in range(30):
        n = rng.randint(1, 22)
        g = random_graph(n, rng.choice([0.3, 0.5, 0.7, 0.9]), seed=4400 + trial)
        point = rng.choice([[rng.random() for _ in range(n)],
                            [rng.randint(0, 4) / 4 for _ in range(n)]])
        for limit in (0, 1, 5, 1000):
            cliques = enumerate_cliques_bounded(g, point, limit)
            ref = reference_enumeration(g, limit)
            assert cliques == sorted(ref, key=lambda w: (-point_weight(point, w), w))
