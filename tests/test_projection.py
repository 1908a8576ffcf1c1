from __future__ import annotations

import json
import random

import pytest

from stabcut.graph import Graph, bits, mask_of, random_graph
from stabcut.mwss import enumerate_stable_sets
from stabcut.projection import (
    ProjectionTrace,
    clique_project,
    extend_trace,
    is_projectable_edge,
    trace_from_json,
    trace_to_json,
)
from conftest import (
    EXAMPLE8_FALSE_1,
    EXAMPLE8_FALSE_2,
    EXAMPLE8_FALSE_3,
    EXAMPLE8_W1,
    EXAMPLE8_W2,
    EXAMPLE8_W3,
    random_maximal_clique,
)


def project_oracle(g, w):
    """Definition restated with plain set arithmetic."""
    wset = set(w)
    false_edges = set()
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if u in wset or v in wset or g.has_edge(u, v):
                continue
            if wset <= set(g.neighbors(u)) | set(g.neighbors(v)):
                false_edges.add((u, v))
    return false_edges


def test_example_walk_false_edges(example8):
    g1, f1 = clique_project(example8, EXAMPLE8_W1)
    assert set(f1) == EXAMPLE8_FALSE_1
    g2, f2 = clique_project(g1, EXAMPLE8_W2)
    assert set(f2) == EXAMPLE8_FALSE_2
    g3, f3 = clique_project(g2, EXAMPLE8_W3)
    assert set(f3) == EXAMPLE8_FALSE_3
    assert g3.num_edges() == example8.num_edges() + 4 + 2


def project_pair_scan(g, w):
    """The pair scan clique_project ran before it used bitsets: every pair
    u < v outside w, in increasing order, that is a non-edge and whose
    members missed inside w are disjoint."""
    wmask = mask_of(w)
    outside = [v for v in range(g.n) if not wmask >> v & 1]
    miss = {v: wmask & ~g.adj[v] for v in outside}
    return tuple((u, v) for i, u in enumerate(outside) for v in outside[i + 1:]
                 if not g.has_edge(u, v) and miss[u] & miss[v] == 0)


def test_projection_matches_oracle_on_random_graphs():
    rng = random.Random(77)
    checked = larger = 0
    for trial in range(30):
        n = rng.randint(4, 12)
        g = random_graph(n, rng.choice([0.3, 0.5, 0.7]), seed=4000 + trial)
        cliques = list(g.edges())[:1]
        if cliques:
            cliques.append(random_maximal_clique(g, rng))
        for w in cliques:
            proj, fe = clique_project(g, w)
            assert fe == project_pair_scan(g, w)
            assert set(fe) == project_oracle(g, w)
            assert proj == g.with_edges(fe)
            checked += 1
            larger += len(w) >= 3
    assert checked == 60
    assert larger >= 10


def test_projection_validation(example8):
    with pytest.raises(ValueError):
        clique_project(example8, ())
    with pytest.raises(ValueError):
        clique_project(example8, (1, 3))  # not an edge


def test_false_edge_endpoints_stay_outside_clique():
    rng = random.Random(123)
    for trial in range(20):
        g = random_graph(10, 0.5, seed=4400 + trial)
        edges = list(g.edges())
        if not edges:
            continue
        w = edges[rng.randrange(len(edges))]
        _, fe = clique_project(g, w)
        for u, v in fe:
            assert u not in w and v not in w
            assert not g.has_edge(u, v)


def test_sets_meeting_the_clique_once_stay_stable_after_projection():
    # the projected graph only forbids pairs no such set holds anyway
    rng = random.Random(55)
    for trial in range(25):
        n = rng.randint(4, 11)
        g = random_graph(n, 0.5, seed=4500 + trial)
        edges = list(g.edges())
        if not edges:
            continue
        w = edges[rng.randrange(len(edges))]
        proj, _ = clique_project(g, w)
        wmask = mask_of(w)
        for s in enumerate_stable_sets(g):
            if (s & wmask).bit_count() == 1:
                assert proj.is_stable(s)
        # and everything stable after projection was stable before
        for s in enumerate_stable_sets(proj):
            assert g.is_stable(s)


def test_trace_construction_and_graph_at(example8):
    trace = ProjectionTrace(example8)
    for w in (EXAMPLE8_W1, EXAMPLE8_W2, EXAMPLE8_W3):
        trace = extend_trace(trace, w)
    assert trace.r == 3
    assert trace.cliques == (EXAMPLE8_W1, EXAMPLE8_W2, EXAMPLE8_W3)
    assert trace.graph_at(0) == example8
    assert trace.graph_at(1).num_edges() == 21
    assert trace.final_graph == trace.graph_at(3)
    assert trace.graph_at(3).num_edges() == 23
    # the seed clique of the walk only becomes a clique after two steps
    assert not example8.is_clique((1, 4, 5, 6, 7))
    assert trace.graph_at(2).is_clique((1, 4, 5, 6, 7))
    with pytest.raises(IndexError):
        trace.graph_at(4)


def test_trace_prefix(example8):
    trace = ProjectionTrace(example8)
    for w in (EXAMPLE8_W1, EXAMPLE8_W2, EXAMPLE8_W3):
        trace = extend_trace(trace, w)
    p = trace.prefix(2)
    assert p.r == 2
    assert p.final_graph == trace.graph_at(2)
    assert trace.prefix(3) is trace
    with pytest.raises(IndexError):
        trace.prefix(5)


def test_extend_trace_rejects_bad_steps(example8):
    trace = ProjectionTrace(example8)
    with pytest.raises(ValueError):
        extend_trace(trace, (1, 4, 5))  # needs the step-1 false edge 4-5
    trace = extend_trace(trace, EXAMPLE8_W1)
    extended = extend_trace(trace, (1, 4, 5))  # fine once 4-5 exists
    assert extended.r == 2
    with pytest.raises(ValueError):
        extend_trace(trace, EXAMPLE8_W1)  # repeated clique
    with pytest.raises(ValueError):
        extend_trace(trace, tuple(reversed(EXAMPLE8_W1)))  # same set, reordered


def test_empty_false_edge_steps_are_allowed(example8):
    trace = ProjectionTrace(example8)
    trace = extend_trace(trace, EXAMPLE8_W1)
    trace = extend_trace(trace, EXAMPLE8_W2)
    trace = extend_trace(trace, EXAMPLE8_W3)
    assert trace.steps[2].false_edges == ()


def test_is_projectable_edge_matches_enumeration(c5):
    # every edge of an odd hole lies in some maximum stable set's boundary
    rng = random.Random(21)
    for trial in range(15):
        n = rng.randint(4, 10)
        g = random_graph(n, 0.45, seed=4700 + trial)
        sets = enumerate_stable_sets(g)
        alpha = max(s.bit_count() for s in sets)
        maxima = [s for s in sets if s.bit_count() == alpha]
        for u, v in list(g.edges())[:5]:
            expect = any(s >> u & 1 or s >> v & 1 for s in maxima)
            assert is_projectable_edge(g, u, v) == expect
    with pytest.raises(ValueError):
        is_projectable_edge(c5, 0, 2)


def test_trace_json_roundtrip(example8):
    trace = ProjectionTrace(example8)
    for w in (EXAMPLE8_W1, EXAMPLE8_W2, EXAMPLE8_W3):
        trace = extend_trace(trace, w)
    text = trace_to_json(trace)
    back = trace_from_json(text)
    assert back == trace
    # tampering with recorded false edges is caught on load
    payload = json.loads(text)
    payload["steps"][0]["false_edges"][0] = [3, 7]
    with pytest.raises(ValueError):
        trace_from_json(json.dumps(payload))
