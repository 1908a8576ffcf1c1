"""Maximum weight stable sets by branch and bound over bitmask graphs.

Two entry points over one set-up and one search: max_weight_stable_set for
plain instances, and solve_constrained for instances with side constraints
given as vertex masks (each cover mask must contain exactly one chosen
vertex, the avoid mask none). The side sets may be any vertex sets; they
need not be cliques of the graph.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .graph import Graph, bits

EPS = 1e-9


@dataclass
class MwssResult:
    """Outcome of a stable set search.

    best_set / best_value are None when no feasible set was found.
    infeasible is only claimed when the search ran to completion. nodes is
    the number of search nodes the solve visited.
    """

    best_set: tuple | None
    best_value: float | None
    proven_optimal: bool
    infeasible: bool = False
    nodes: int = 0


class _Budget:
    """Node counter with optional node-count and wall-clock limits. The clock
    is read only when a caller passes seconds."""

    def __init__(self, seconds=None, max_nodes=None):
        self.deadline = None if seconds is None else time.monotonic() + seconds
        self.max_nodes = max_nodes
        self.nodes = 0
        self.exhausted = False

    def tick(self) -> bool:
        if self.exhausted:
            return True
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            self.exhausted = True
        elif self.deadline is not None and self.nodes % 256 == 0:
            if time.monotonic() > self.deadline:
                self.exhausted = True
        return self.exhausted


def _weight_classes(weights, mask: int):
    """The vertices of mask grouped into (weight, members) pairs, heaviest
    first, from one weight per vertex. The first vertex of any subset in
    (-weight, vertex) order is then the lowest bit of the first class the
    subset meets."""
    members = {}
    for v in bits(mask):
        w = weights[v]
        members[w] = members.get(w, 0) | (1 << v)
    return sorted(members.items(), key=lambda item: -item[0])


def _partition_bound(adj, classes, rem: int, val, limit) -> bool:
    """Whether val plus a greedy clique partition bound on rem stays at or
    below limit. Each clique contributes its heaviest member, and seeds are
    taken heaviest first so that is the seed itself. The weights in rem are
    positive, so the sum only grows and the scan stops once it passes
    limit."""
    b = 0
    for w, members in classes:
        seeds = rem & members
        while seeds:
            b += w
            if val + b > limit:
                return False
            clique = seeds & -seeds
            cand = rem & adj[clique.bit_length() - 1]
            while cand:
                low = cand & -cand
                clique |= low
                cand &= adj[low.bit_length() - 1]
            rem &= ~clique
            seeds = rem & members
        if not rem:
            break
    return val + b <= limit


def _search(adj, weights, classes, covers, budget):
    """Branch and bound shared by both entry points: the heaviest stable set
    inside the weight classes that holds exactly one vertex of every cover
    mask. While a cover is unsatisfied the search branches over its free
    members, heaviest first; after that only vertices of positive weight are
    worth adding, one at a time, in and then out. Vertices are taken in
    (-weight, vertex) order, read off the classes. Without covers the first
    descent is therefore the greedy stable set, heaviest first, and it is
    the first incumbent. Returns the best mask (None when no set meets the
    covers) and its value."""
    best_mask, best_val = None, 0
    ban = [0] * len(adj)  # choosing v additionally bans co-members of its covers
    for c in covers:
        for v in bits(c):
            ban[v] |= c
    free0 = positive = 0
    for w, members in classes:
        free0 |= members
        if w > 0:
            positive |= members
    positive_classes = [(w, m) for w, m in classes if w > 0]
    tick = budget.tick

    def rec(chosen, free, val, unsat):
        nonlocal best_mask, best_val
        if tick():
            return
        if not unsat:
            if best_mask is None or val > best_val + EPS:
                best_mask, best_val = chosen, val
            free &= positive
            if not free or _partition_bound(adj, positive_classes, free, val,
                                            best_val + EPS):
                return
            for _, members in positive_classes:
                first = free & members
                if first:
                    bit = first & -first
                    v = bit.bit_length() - 1
                    rec(chosen | bit, free & ~(adj[v] | bit), val + weights[v], unsat)
                    rec(chosen, free & ~bit, val, unsat)
                    return
        cands = unsat[0] & free
        if not cands or (best_mask is not None and _partition_bound(
                adj, positive_classes, free & positive, val, best_val + EPS)):
            return
        for _, members in classes:
            for v in bits(cands & members):
                bit = 1 << v
                rec(chosen | bit,
                    free & ~(adj[v] | bit | ban[v]),
                    val + weights[v],
                    tuple(c for c in unsat if not c & bit))

    rec(0, free0, 0, covers)
    return best_mask, best_val


def _solve(g: Graph, weights, covers, avoid, budget) -> MwssResult:
    """Set-up shared by both entry points: check the inputs, group the
    vertices outside avoid into weight classes, search, and build the
    result. Vertices of weight <= 0 are dropped unless they belong to a
    cover; removing them from a stable set never lowers its value, while
    cover members must stay searchable for the exactly-one constraints to
    be exact."""
    if len(weights) != g.n:
        raise ValueError("need one weight per vertex")
    cover_union = 0
    for c in covers:
        if not c or c & ~g.full_mask:
            raise ValueError("cover mask %#x is empty or not within the graph" % c)
        cover_union |= c
    if avoid & ~g.full_mask:
        raise ValueError("avoid mask %#x is not within the graph" % avoid)
    classes = []
    for w, members in _weight_classes(weights, g.full_mask & ~avoid):
        if not w > 0:
            members &= cover_union
        if members:
            classes.append((w, members))

    best_mask, best_val = _search(g.adj, weights, classes, covers, budget)
    proven = not budget.exhausted
    if best_mask is None:
        return MwssResult(None, None, proven, infeasible=proven,
                          nodes=budget.nodes)
    return MwssResult(tuple(bits(best_mask)), best_val, proven,
                      nodes=budget.nodes)


def max_weight_stable_set(g: Graph, weights, avoid=0, time_budget=None,
                          max_nodes=None) -> MwssResult:
    """Heaviest stable set of g with no vertex of the avoid mask. Vertices
    with weight <= 0 are dropped up front, so returned sets contain only
    positive weights."""
    return _solve(g, weights, (), avoid, _Budget(time_budget, max_nodes))


def maximum_stable_set(g: Graph) -> MwssResult:
    return max_weight_stable_set(g, [1] * g.n)


def solve_constrained(g: Graph, weights, covers=(), avoid=0,
                      max_nodes=None) -> MwssResult:
    """Heaviest stable set of g that holds exactly one vertex of every cover
    mask and no vertex of the avoid mask, within max_nodes search nodes.

    The covers may be any vertex sets, cliques of g or not: choosing a vertex
    bans the other members of its covers, which enforces exactly one per
    cover either way. The strengthened lift relies on this, since its covers
    are cliques of projected graphs and need not be cliques of g.
    """
    return _solve(g, weights, tuple(covers), avoid, _Budget(max_nodes=max_nodes))


# the most vertices enumerate_stable_sets accepts
ENUMERATE_MAX_N = 25


def enumerate_stable_sets(g: Graph):
    """All stable sets of g as bitmasks, empty set included. Guarded by
    ENUMERATE_MAX_N because the list is exponential; for exact oracles."""
    if g.n > ENUMERATE_MAX_N:
        raise ValueError("refusing to enumerate stable sets for n=%d > %d"
                         % (g.n, ENUMERATE_MAX_N))
    adj = g.adj
    out = []
    stack = [(0, g.full_mask)]
    while stack:
        cur, free = stack.pop()
        if not free:
            out.append(cur)
            continue
        low = free & -free
        v = low.bit_length() - 1
        stack.append((cur, free ^ low))
        stack.append((cur | low, free & ~(adj[v] | low)))
    return out
