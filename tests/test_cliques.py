from __future__ import annotations

import hashlib
import random

import pytest

from stabcut.benchmarks import BENCHMARKS
from stabcut.cliques import (
    enumerate_cliques_bounded,
    grow_clique,
    point_weight,
    rounding_lower_bound,
)
from stabcut.graph import Graph, bits, mask_of, random_graph
from stabcut.engine import edge_clique_cover
from stabcut.separation import build_clique_pool


def pool_keys(point, covered):
    """build_clique_pool's two candidate orders, with identity tie-breaks."""
    by_value = lambda _, u: (-point[u], u)
    uncovered_first = lambda _, u: (covered >> u & 1, -point[u], u)
    return by_value, uncovered_first


def test_prefer_uncovered_changes_candidate_order():
    # 0-1, 1-3, 2-3 with these values separates the two growth orders: from
    # vertex 3 with 0 and 1 covered, the value order takes 1 and the
    # coverage order takes the uncovered 2
    g = Graph(4, [(0, 1), (1, 3), (2, 3)])
    point = [0.8, 0.9, 0.2, 0.45]
    by_value, uncovered_first = pool_keys(point, mask_of([0, 1]))
    assert grow_clique(g, (3,), by_value) == (1, 3)
    assert grow_clique(g, (3,), uncovered_first) == (2, 3)
    assert grow_clique(g, (1,), pool_keys(point, 0)[1]) == (0, 1)
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
        edges = list(g.edges())
        starts = [(rng.randrange(n),)] + ([rng.choice(edges)] if edges else [])
        for key in pool_keys(point, rng.getrandbits(n)):
            for start in starts:
                w = grow_clique(g, start, key)
                assert g.is_clique(w) and set(start) <= set(w)
                wset = set(w)
                for v in range(n):
                    if v not in wset:
                        assert not all(g.has_edge(v, u) for u in w)


# edge covers recorded before the cover, the pool and the walk shared one
# growth routine: clique count, first clique and a digest of the whole list
RECORDED_COVERS = {
    "hamming6-4": (79, (0, 1, 2, 3, 4, 5, 6, 7),
                   "0539a0a130686f7ab293e98d97bde086cf3d252bc44675a86e4d673346b79163"),
    "c-fat200-2": (954, (0, 24, 46, 68, 90, 112, 134, 156, 178),
                   "4372413aae0a19780cc8a57c27f871fe10a9a7e14d115b818e5ba314e7b73004"),
}


@pytest.mark.parametrize("name", sorted(RECORDED_COVERS))
def test_edge_clique_cover_keeps_recorded_choices(name):
    cover = edge_clique_cover(BENCHMARKS[name]().complement())
    count, first, digest = RECORDED_COVERS[name]
    assert len(cover) == count
    assert cover[0] == first
    assert hashlib.sha256(repr(cover).encode()).hexdigest() == digest


def test_clique_pool_keeps_recorded_choices():
    g = random_graph(24, 0.4, seed=11)
    rng = random.Random(5)
    point = [rng.randint(0, 4) / 4 for _ in range(24)]
    pool, violated = build_clique_pool(g, point)
    assert pool == [(0, 13, 16), (1, 3, 14, 22), (3, 5, 20, 23), (6, 8, 11),
                    (2, 13, 14, 17), (3, 4, 7, 10), (0, 7, 21, 22),
                    (6, 12, 19), (9, 11, 20, 23), (14, 15, 18)]
    assert violated == [w for w in pool if w not in ((6, 12, 19), (14, 15, 18))]
    # an rng breaks the ties between equal values
    pool, violated = build_clique_pool(g, point, rng=random.Random(3))
    assert pool == [(3, 16, 20, 22), (2, 13, 14, 17), (0, 13, 16),
                    (5, 11, 20, 23), (0, 7, 21, 22), (1, 4, 19),
                    (3, 7, 10, 20, 22), (6, 12, 19), (5, 8, 11),
                    (9, 11, 20, 23), (6, 14, 15), (2, 14, 17, 18)]
    assert violated == [w for w in pool if w not in ((1, 4, 19), (6, 12, 19))]


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
