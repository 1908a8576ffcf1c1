"""Clique projection: add every non-edge whose endpoints' neighborhoods
jointly dominate a chosen clique, and keep track of chains of such steps."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .graph import Graph, bits
from .mwss import max_weight_stable_set


def clique_project(g: Graph, w):
    """Project g onto the clique w.

    Returns (projected graph, false edges). A non-edge uv with u, v outside w
    becomes a false edge when w is contained in N(u) | N(v): any stable set
    holding both u and v would leave w untouched, so the pair can be treated
    as adjacent whenever attention is restricted to sets meeting w. Raises
    ValueError unless w is a nonempty clique of distinct vertices of g.
    """
    return _project(g, w, g.vertex_mask(w))


def _project(g: Graph, w, wmask: int):
    """clique_project with w's mask already built by g.vertex_mask(w)."""
    if not wmask:
        raise ValueError("cannot project onto an empty clique")
    if not g.is_clique(wmask):
        raise ValueError("%r is not a clique" % (tuple(w),))
    # v can partner u only if v misses no member that u misses: drop from
    # u's outside non-neighbours above u every vertex that misses one of
    # u's missed members, one bitmask per member
    base = g.adj
    outside = g.full_mask & ~wmask
    misses = {b: outside & ~base[b] for b in bits(wmask)}
    adj = list(base)
    false_edges = []
    for u in bits(outside):
        partners = outside & ~base[u] & ~((2 << u) - 1)
        for b in bits(wmask & ~base[u]):
            partners &= ~misses[b]
        if partners:
            adj[u] |= partners
            bit = 1 << u
            for v in bits(partners):
                false_edges.append((u, v))
                adj[v] |= bit
    # the false edges join distinct vertices of g, so the masks stay valid
    return Graph._trusted(adj, g.name), tuple(false_edges)


@dataclass(frozen=True)
class TraceStep:
    """One projection: the clique as a sorted tuple and as a mask, the false
    edges it added and the graph it projects to."""
    clique: tuple
    mask: int = field(compare=False, repr=False)
    false_edges: tuple
    graph: Graph = field(compare=False, repr=False)


class ProjectionTrace:
    """A base graph plus a chain of clique projections.

    Step t projects graph_at(t-1) onto steps[t-1].clique, so graph_at(t)
    carries the union of the base edges and all false edges up to t. The
    views cliques, masks and graphs (graphs[t] is graph_at(t)) are read off
    the steps. ProjectionTrace(base) starts a trace; extend_trace and
    trace_from_json grow it, validating each step.
    """

    def __init__(self, base: Graph, _steps=()):
        self.base = base
        self.steps = _steps
        self.cliques = tuple(s.clique for s in _steps)
        self.masks = tuple(s.mask for s in _steps)
        self.graphs = (base,) + tuple(s.graph for s in _steps)

    @property
    def r(self) -> int:
        return len(self.steps)

    def graph_at(self, t: int) -> Graph:
        if not (0 <= t <= self.r):
            raise IndexError("no graph at step %d of a %d step trace" % (t, self.r))
        return self.graphs[t]

    @property
    def final_graph(self) -> Graph:
        return self.graphs[-1]

    def prefix(self, t: int) -> ProjectionTrace:
        if not (0 <= t <= self.r):
            raise IndexError("prefix %d of a %d step trace" % (t, self.r))
        if t == self.r:
            return self
        return ProjectionTrace(self.base, self.steps[:t])

    def __eq__(self, other):
        return (isinstance(other, ProjectionTrace)
                and self.base == other.base and self.steps == other.steps)

    def __repr__(self):
        return "ProjectionTrace(%r, r=%d)" % (self.base.name, self.r)


def extend_trace(trace: ProjectionTrace, clique) -> ProjectionTrace:
    """Append one projection step. The clique must be a clique of the current
    final graph and distinct (as a set) from every earlier step's clique;
    steps that add no false edges are legal."""
    w = tuple(sorted(clique))
    # stored cliques are sorted and repeat no vertex, so an equal set is an
    # equal tuple; vertex_mask and _project reject any other bad w
    if w in trace.cliques:
        raise ValueError("clique %r already used in this trace" % (w,))
    g = trace.final_graph
    wmask = g.vertex_mask(w)
    projected, false_edges = _project(g, w, wmask)
    step = TraceStep(w, wmask, false_edges, projected)
    return ProjectionTrace(trace.base, trace.steps + (step,))


def is_projectable_edge(g: Graph, u: int, v: int) -> bool:
    """True when some maximum stable set meets {u, v}: removing the closed
    neighborhood of u (or of v) costs only the one vertex."""
    if not g.has_edge(u, v):
        raise ValueError("(%d, %d) is not an edge" % (u, v))
    ones = [1] * g.n
    alpha = max_weight_stable_set(g, ones).best_value
    for x in (u, v):
        rest = max_weight_stable_set(g, ones, avoid=g.adj[x] | 1 << x)
        if rest.best_value + 1 == alpha:
            return True
    return False


def trace_to_json(trace: ProjectionTrace) -> str:
    payload = {
        "n": trace.base.n,
        "name": trace.base.name,
        "edges": [list(e) for e in trace.base.edges()],
        "steps": [
            {"clique": list(s.clique),
             "false_edges": [list(e) for e in s.false_edges]}
            for s in trace.steps
        ],
    }
    return json.dumps(payload, indent=1)


def trace_from_json(text: str) -> ProjectionTrace:
    """Rebuild a trace by replaying its cliques; stored false edges are
    cross-checked so a tampered or stale file fails loudly."""
    payload = json.loads(text)
    base = Graph(payload["n"], [tuple(e) for e in payload["edges"]],
                 name=payload.get("name", ""))
    trace = ProjectionTrace(base)
    for k, step in enumerate(payload["steps"], start=1):
        trace = extend_trace(trace, tuple(step["clique"]))
        got = {tuple(sorted(e)) for e in trace.steps[-1].false_edges}
        recorded = {tuple(sorted(e)) for e in step["false_edges"]}
        if got != recorded:
            raise ValueError("step %d false edges do not match the trace: "
                             "stored %r, recomputed %r" % (k, sorted(recorded), sorted(got)))
    return trace
