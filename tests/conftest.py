from __future__ import annotations

import pytest

from stabcut import facets
from stabcut.graph import Graph, bits, mask_of
from stabcut.lifting import EPS, ValidityReport
from stabcut.mwss import enumerate_stable_sets
from stabcut.projection import ProjectionTrace, extend_trace

# 8-vertex running example used across the projection/lifting/facet tests.
# Everything about it (false edges per step, lifting factors, final
# inequalities, face dimensions) was derived by hand from the definitions
# and is pinned in the tests that consume these fixtures.
EXAMPLE8_EDGES = [
    (0, 1), (0, 2), (0, 3), (0, 4),
    (1, 2), (1, 4), (1, 5),
    (2, 3), (2, 5), (2, 6), (2, 7),
    (3, 6), (3, 7),
    (4, 7),
    (5, 6), (5, 7),
    (6, 7),
]

# Projection walk for the running example: three pairwise distinct cliques,
# then a 5-clique of the final projected graph as the seed.
EXAMPLE8_W1 = (0, 1, 2)
EXAMPLE8_W2 = (0, 2, 3)
EXAMPLE8_W3 = (0, 3, 4)
EXAMPLE8_SEED = (1, 4, 5, 6, 7)

# False edges each step adds under the projection rule (W inside the union of
# the endpoint neighborhoods, endpoints outside W).
EXAMPLE8_FALSE_1 = {(3, 4), (3, 5), (4, 5), (4, 6)}
EXAMPLE8_FALSE_2 = {(1, 6), (1, 7)}
EXAMPLE8_FALSE_3 = set()


@pytest.fixture
def example8():
    return Graph(8, EXAMPLE8_EDGES, name="example8")


@pytest.fixture
def c5():
    return Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], name="c5")


@pytest.fixture
def weighted_rank_gadget():
    """Six vertices a..f = 0..5; projecting the edge {d,e}={3,4} adds exactly
    the false edge ac, after which {a,b,c,f} is a clique and
    x_a+x_b+x_c+x_d+x_e+2x_f <= 2 is valid and facet-defining."""
    edges = [
        (0, 1), (1, 2),         # ab, bc
        (3, 4), (3, 5), (4, 5),  # def triangle
        (5, 0), (5, 1), (5, 2),  # f adjacent to a, b, c
        (0, 3), (2, 4),          # ad, ce
    ]
    return Graph(6, edges, name="wrank6")


@pytest.fixture
def path6():
    """Path 0-1-2-3-4-5; used as the engineered failure case for the
    neighborhood-routing facet condition."""
    return Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], name="path6")


@pytest.fixture
def face_listings(monkeypatch):
    """The vertex count of every graph whose stable sets the facet toolkit
    lists while the test runs; enumerate_stable_sets is its one lister."""
    calls = []

    def counting_enumeration(g):
        calls.append(g.n)
        return enumerate_stable_sets(g)

    monkeypatch.setattr(facets, "enumerate_stable_sets", counting_enumeration)
    return calls


@pytest.fixture
def example8_trace(example8):
    trace = ProjectionTrace(example8)
    for w in (EXAMPLE8_W1, EXAMPLE8_W2, EXAMPLE8_W3):
        trace = extend_trace(trace, w)
    return trace


def random_trace(g, rng, max_steps=3):
    """Random projection walk: each step grows a clique of the current graph
    from a random start, stopping early at random; duplicates are skipped."""
    trace = ProjectionTrace(g)
    for _ in range(rng.randint(0, max_steps)):
        cur = trace.final_graph
        start = rng.randrange(g.n)
        w = [start]
        cand = cur.adj[start]
        while cand and rng.random() < 0.8:
            options = list(bits(cand))
            v = options[rng.randrange(len(options))]
            w.append(v)
            cand &= cur.adj[v]
        if len(w) < 2:
            continue
        try:
            trace = extend_trace(trace, tuple(sorted(w)))
        except ValueError:
            pass
    return trace


def random_maximal_clique(g, rng):
    start = rng.randrange(g.n)
    w = [start]
    cand = g.adj[start]
    while cand:
        options = list(bits(cand))
        v = options[rng.randrange(len(options))]
        w.append(v)
        cand &= g.adj[v]
    return tuple(sorted(w))


def enumerated_validity(g, ineq):
    """Exact validity of ineq by listing every stable set of g inside its
    positive support, as masks in g's labels: an oracle apart from
    check_validity's branch and bound, for graphs of up to 25 vertices."""
    pos = mask_of(v for v in ineq.support if ineq.coeffs[v] > 0)
    lhs_max, best = 0, ()
    for s in enumerate_stable_sets(g):
        if s & ~pos:
            continue
        val = sum(ineq.coeffs[v] for v in bits(s))
        if val > lhs_max:
            lhs_max, best = val, tuple(bits(s))
    return ValidityReport(lhs_max <= ineq.rhs + EPS, lhs_max, best)


class NoClock:
    """Stands in for a module's time import: any read of the clock fails
    the test that installed it."""

    def __getattr__(self, name):
        raise AssertionError("the clock was read: time.%s" % name)
