"""Clique projection: add every non-edge whose endpoints' neighborhoods
jointly dominate a chosen clique, and keep track of chains of such steps."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .graph import Graph, bits, mask_of
from .mwss import maximum_stable_set


def clique_project(g: Graph, w):
    """Project g onto the clique w.

    Returns (projected graph, false edges). A non-edge uv with u, v outside w
    becomes a false edge when w is contained in N(u) | N(v): any stable set
    holding both u and v would leave w untouched, so the pair can be treated
    as adjacent whenever attention is restricted to sets meeting w.
    """
    wmask = mask_of(w)
    if not wmask:
        raise ValueError("cannot project onto an empty clique")
    if not g.is_clique(wmask):
        raise ValueError("%r is not a clique" % (tuple(w),))
    # v can partner u only if v misses no member that u misses: drop from
    # u's outside non-neighbours above u every vertex that misses one of
    # u's missed members, one bitmask per member
    outside = g.full_mask & ~wmask
    misses = {b: outside & ~g.adj[b] for b in bits(wmask)}
    false_edges = []
    for u in bits(outside):
        partners = outside & ~g.adj[u] & ~((2 << u) - 1)
        for b in bits(wmask & ~g.adj[u]):
            partners &= ~misses[b]
        false_edges.extend((u, v) for v in bits(partners))
    false_edges = tuple(false_edges)
    return g.with_edges(false_edges), false_edges


@dataclass(frozen=True)
class TraceStep:
    clique: tuple
    false_edges: tuple


class ProjectionTrace:
    """A base graph plus a chain of clique projections.

    Step t projects graph_at(t-1) onto steps[t-1].clique, so graph_at(t)
    carries the union of the base edges and all false edges up to t. The
    constructor trusts its arguments; build traces through extend_trace or
    trace_from_json, which validate each step.
    """

    def __init__(self, base: Graph, steps=()):
        self.base = base
        self.steps = tuple(steps)
        self._graphs = [base]

    @property
    def r(self) -> int:
        return len(self.steps)

    @property
    def cliques(self):
        return tuple(s.clique for s in self.steps)

    def graph_at(self, t: int) -> Graph:
        if not (0 <= t <= self.r):
            raise IndexError("no graph at step %d of a %d step trace" % (t, self.r))
        while len(self._graphs) <= t:
            k = len(self._graphs)
            self._graphs.append(
                self._graphs[k - 1].with_edges(self.steps[k - 1].false_edges))
        return self._graphs[t]

    @property
    def final_graph(self) -> Graph:
        return self.graph_at(self.r)

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
    current = trace.final_graph
    wmask = mask_of(w)
    for step in trace.steps:
        if mask_of(step.clique) == wmask:
            raise ValueError("clique %r already used in this trace" % (w,))
    projected, false_edges = clique_project(current, w)
    new = ProjectionTrace(trace.base, trace.steps + (TraceStep(w, false_edges),))
    # final_graph above forced the full cache, so it can be carried over
    new._graphs = trace._graphs[:trace.r + 1] + [projected]
    return new


def is_projectable_edge(g: Graph, u: int, v: int) -> bool:
    """True when some maximum stable set meets {u, v}: removing the closed
    neighborhood of u (or of v) costs only the one vertex."""
    if not g.has_edge(u, v):
        raise ValueError("(%d, %d) is not an edge" % (u, v))
    alpha = maximum_stable_set(g).best_value
    for x in (u, v):
        rest = g.full_mask & ~(g.adj[x] | (1 << x))
        sub, _ = g.induced_subgraph(rest)
        if maximum_stable_set(sub).best_value + 1 == alpha:
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
