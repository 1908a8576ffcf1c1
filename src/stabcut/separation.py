"""Separation by projection walks.

Starting from pool cliques of a fractional point, walk a chain of clique
projections; every clique along the way whose point weight is violated enough
is lifted back over its prefix of the walk and kept when the lifted cut still
cuts off the point.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .cliques import enumerate_cliques_bounded, grow_clique, point_weight, _tiebreak
from .graph import Graph, bits, mask_of
from .lifting import LiftingAborted, basic_lift, strengthened_lift
from .projection import ProjectionTrace, extend_trace


@dataclass
class SeparationParams:
    min_violation: float = 0.03
    min_depth: int = 10
    max_depth: int = 20
    max_iterations: int = 50
    max_ncuts: int = 20
    tomita_period: int = 10
    tomita_limit: int = 1000
    pool_threshold: float = 0.65


@dataclass
class SeparationOutcome:
    cuts: list
    iterations_used: int
    projections_performed: int
    failed_iterations: int


def build_clique_pool(g: Graph, point, params: SeparationParams = None, rng=None):
    """Greedy clique pool for a fractional point: alternate the two growth
    orders over one shared covered mask, keep cliques heavy enough for the
    pool, and report the ones already violated on their own.

    Returns (pool, violated); cliques that miss the pool threshold still mark
    their vertices covered so the scan advances.
    """
    params = params or SeparationParams()
    tie = _tiebreak(g.n, rng)
    covered = 0
    prefer_uncovered = False
    pool, violated, seen = [], [], set()
    while covered != g.full_mask:
        start = min((v for v in range(g.n) if not covered >> v & 1),
                    key=lambda u: (-point[u], tie[u]))
        w = grow_clique(g, point, start, covered, prefer_uncovered, tie)
        covered |= mask_of(w)
        prefer_uncovered = not prefer_uncovered
        if w in seen:
            continue
        seen.add(w)
        weight = point_weight(point, w)
        if weight >= params.pool_threshold:
            pool.append(w)
        if weight > 1 + params.min_violation:
            violated.append(w)
    return pool, violated


def project_with_repair(trace: ProjectionTrace, w, point):
    """Extend the trace by w; when the projection is degenerate (no false
    edges) or w repeats an earlier clique, shed the lightest vertex and retry,
    down to pairs. Returns the extended trace or None when nothing works."""
    w = list(w)
    while True:
        try:
            candidate = extend_trace(trace, w)
        except ValueError:
            candidate = None
        if candidate is not None and candidate.steps[-1].false_edges:
            return candidate
        if len(w) <= 2:
            return None
        drop = min(w, key=lambda v: (point[v], v))
        w.remove(drop)


def _next_from_false_edges(trace, point, used):
    """Grow the next walk clique around the heaviest fresh false edge; the
    embedded false edge keeps the clique distinct from every earlier one."""
    last = trace.steps[-1].false_edges
    if not last:
        return None
    g = trace.final_graph
    u, v = min(last, key=lambda e: (-(point[e[0]] + point[e[1]]), e))
    clique = [u, v]
    cand = g.adj[u] & g.adj[v]
    while cand:
        nxt = min(bits(cand),
                  key=lambda x: (1 if x in used else 0, -point[x], x))
        clique.append(nxt)
        cand &= g.adj[nxt]
    return tuple(sorted(clique))


def _next_from_enumeration(trace, point, tried, params):
    """Replacement pick: enumerate maximal cliques of the current graph and
    take the heaviest one not already tried, with a hard attempt cap."""
    cliques, _ = enumerate_cliques_bounded(trace.final_graph, point,
                                           params.tomita_limit)
    previous = {frozenset(w) for w in trace.cliques}
    ordered = sorted(cliques, key=lambda w: (-point_weight(point, w), w))
    for w in ordered[:4 * params.max_depth]:
        key = frozenset(w)
        if key in tried or key in previous:
            continue
        tried.add(key)
        return w
    return None


def sep_for_stab(g: Graph, point, params: SeparationParams = None,
                 procedure: str = "strengthened", rng=None,
                 pool=None) -> SeparationOutcome:
    """Run projection-walk separation against a fractional point.

    Each iteration pops a start clique from the pool and walks projections
    while the running clique is not violated enough or the walk is shallower
    than min_depth, never deeper than max_depth. Violated cliques are recorded
    with the walk prefix they live on and lifted at the end of the walk; an
    iteration that adds nothing to the cut list counts as failed.
    """
    params = params or SeparationParams()
    if procedure == "basic":
        lift = basic_lift
    elif procedure == "strengthened":
        lift = strengthened_lift
    else:
        raise ValueError("unknown procedure %r" % procedure)
    if pool is None:
        pool, _ = build_clique_pool(g, point, params, rng)

    queue = deque(pool)
    cuts = {}
    iterations = 0
    projections = 0
    failed = 0
    tried = set()

    def violated(w):
        return point_weight(point, w) - 1 > params.min_violation

    while queue and iterations < params.max_iterations \
            and len(cuts) < params.max_ncuts:
        iterations += 1
        w = queue.popleft()
        trace = ProjectionTrace(g)
        used = set(w)
        records = []
        t = 0
        while (not violated(w) or t <= params.min_depth) and t < params.max_depth:
            if violated(w):
                records.append((t, w))
            extended = project_with_repair(trace, w, point)
            if extended is None:
                w = None
                break
            trace = extended
            used |= set(trace.cliques[-1])
            t += 1
            projections += 1
            if projections % params.tomita_period == 0:
                w = _next_from_enumeration(trace, point, tried, params)
            else:
                w = _next_from_false_edges(trace, point, used)
            if w is None:
                break
        if w is not None and violated(w):
            records.append((t, w))

        added = 0
        for tau, seed in records:
            if len(cuts) >= params.max_ncuts:
                break
            try:
                cut = lift(trace.prefix(tau), seed=seed)
            except LiftingAborted:
                continue
            if cut.inequality.violation(point) > params.min_violation:
                key = cut.inequality.normalized().key()
                if key not in cuts:
                    cuts[key] = cut
                    added += 1
        if not added:
            failed += 1

    return SeparationOutcome(list(cuts.values()), iterations, projections, failed)
