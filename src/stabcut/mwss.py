"""Maximum weight stable sets by branch and bound over bitmask graphs.

Two entry points over one search: max_weight_stable_set for plain
instances, and solve_constrained for instances with clique side constraints
(each cover clique must contain exactly one chosen vertex, every avoid
clique none).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .graph import Graph, bits, mask_of

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

    def mask(self) -> int:
        return 0 if self.best_set is None else mask_of(self.best_set)


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


def _partition_bound(adj, order, weights, rem: int):
    """Greedy clique partition bound: each clique contributes its heaviest
    member, and seeds are taken heaviest first so that is the seed itself."""
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


def _search(adj, weights, free0, positive, covers, budget, best_mask=None,
            best_val=0):
    """Branch and bound shared by both entry points: the heaviest stable set
    inside free0 that holds exactly one vertex of every cover mask, starting
    from an incumbent (best_mask None when there is none). While a cover is
    unsatisfied the search branches over its free members, heaviest first;
    after that only vertices of the mask positive are worth adding, one at a
    time, in and then out. Returns the best mask (None when no set meets the
    covers) and its value."""
    ban = [0] * len(adj)  # choosing v additionally bans co-members of its covers
    for c in covers:
        for v in bits(c):
            ban[v] |= c
    order = sorted(bits(free0), key=lambda v: (-weights[v], v))

    def pruned(free, val):
        if best_mask is None:
            return False
        b = _partition_bound(adj, order, weights, free & positive)
        return val + b <= best_val + EPS

    def rec(chosen, free, val, unsat):
        nonlocal best_mask, best_val
        if budget.tick():
            return
        if not unsat:
            if best_mask is None or val > best_val + EPS:
                best_mask, best_val = chosen, val
            free &= positive
            if not free or pruned(free, val):
                return
            for v in order:
                bit = 1 << v
                if free & bit:
                    rec(chosen | bit, free & ~(adj[v] | bit), val + weights[v], unsat)
                    rec(chosen, free & ~bit, val, unsat)
                    return
            return
        cands = unsat[0] & free
        if not cands or pruned(free, val):
            return
        for v in sorted(bits(cands), key=lambda u: (-weights[u], u)):
            bit = 1 << v
            rec(chosen | bit,
                free & ~(adj[v] | bit | ban[v]),
                val + weights[v],
                tuple(c for c in unsat if not c & bit))

    rec(0, free0, 0, covers)
    return best_mask, best_val


def max_weight_stable_set(g: Graph, weights, within=None, time_budget=None,
                          max_nodes=None) -> MwssResult:
    """Heaviest stable set of g. Vertices with weight <= 0 are dropped up
    front; removing them from any stable set never lowers the value, so the
    optimum is unchanged and returned sets contain only positive weights."""
    adj = g.adj
    free0 = g.full_mask if within is None else within & g.full_mask
    free0 = mask_of(v for v in bits(free0) if weights[v] > 0)
    budget = _Budget(time_budget, max_nodes)

    # greedy incumbent, heaviest first
    greedy_mask, greedy_val = 0, 0
    cand = free0
    for v in sorted(bits(free0), key=lambda v: (-weights[v], v)):
        bit = 1 << v
        if cand & bit:
            greedy_mask |= bit
            greedy_val += weights[v]
            cand &= ~(adj[v] | bit)

    best_mask, best_val = _search(adj, weights, free0, free0, (), budget,
                                  greedy_mask, greedy_val)
    return MwssResult(tuple(bits(best_mask)), best_val,
                      proven_optimal=not budget.exhausted, nodes=budget.nodes)


def maximum_stable_set(g: Graph) -> MwssResult:
    return max_weight_stable_set(g, [1] * g.n)


class ConstrainedMwssQuery:
    """MWSS with clique side constraints.

    Every cover clique must hold exactly one chosen vertex; every vertex of an
    avoid clique is banned. The side sets are validated as cliques of
    `reference` on construction; callers pass a reference when the sets were
    built on a graph with extra edges, since they need not be cliques of the
    solve graph itself.
    """

    def __init__(self, graph: Graph, weights, cover_cliques=(), avoid_cliques=(),
                 max_nodes=None, reference: Graph | None = None):
        ref = graph if reference is None else reference
        if ref.n != graph.n:
            raise ValueError("reference graph has a different vertex count")
        if len(weights) != graph.n:
            raise ValueError("need one weight per vertex")
        for name, group in (("cover", cover_cliques), ("avoid", avoid_cliques)):
            for w in group:
                for v in w:
                    if not (0 <= v < graph.n):
                        raise ValueError("%s clique vertex %d out of range" % (name, v))
                if not ref.is_clique(w):
                    raise ValueError("%s set %r is not a clique of the reference"
                                     % (name, tuple(w)))
        for w in cover_cliques:
            if not w:
                raise ValueError("cover clique must be nonempty")
        self.graph = graph
        self.weights = list(weights)
        self.cover_cliques = tuple(tuple(w) for w in cover_cliques)
        self.avoid_cliques = tuple(tuple(w) for w in avoid_cliques)
        self.cover_masks = tuple(mask_of(w) for w in self.cover_cliques)
        self.avoid_mask = 0
        for w in self.avoid_cliques:
            self.avoid_mask |= mask_of(w)
        self.max_nodes = max_nodes


def solve_constrained(query: ConstrainedMwssQuery) -> MwssResult:
    g = query.graph
    weights = query.weights
    covers = query.cover_masks
    budget = _Budget(max_nodes=query.max_nodes)

    positive = mask_of(v for v in range(g.n) if weights[v] > 0)
    cover_union = 0
    for c in covers:
        cover_union |= c
    # cover members stay searchable whatever their weight; exactness of the
    # exactly-one constraints depends on it
    free0 = (positive | cover_union) & ~query.avoid_mask

    best_mask, best_val = _search(g.adj, weights, free0, positive, covers,
                                  budget)
    proven = not budget.exhausted
    if best_mask is None:
        return MwssResult(None, None, proven, infeasible=proven,
                          nodes=budget.nodes)
    return MwssResult(tuple(bits(best_mask)), best_val, proven,
                      nodes=budget.nodes)


def enumerate_stable_sets(g: Graph, max_n: int = 25):
    """All stable sets of g as bitmasks, empty set included. Guarded by max_n
    because the list is exponential; meant for exact oracles on small graphs."""
    if g.n > max_n:
        raise ValueError("refusing to enumerate stable sets for n=%d > %d"
                         % (g.n, max_n))
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
