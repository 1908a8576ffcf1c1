"""Clique heuristics used by the separation loop and the bound engine."""

from __future__ import annotations

from functools import partial

from .graph import Graph, bits, mask_of


def _tiebreak(n, rng=None):
    """Index permutation used to break exact weight ties; identity unless an
    rng is supplied."""
    tie = list(range(n))
    if rng is not None:
        rng.shuffle(tie)
    order = [0] * n
    for rank, v in enumerate(tie):
        order[v] = rank
    return order


def point_weight(point, vertices) -> float:
    return sum(map(point.__getitem__, vertices))


def grow_clique(g: Graph, start, key):
    """Maximal clique, as a sorted tuple, grown greedily from the clique
    start: add the common neighbor v of least key(members, v), where members
    is the bitmask of the clique so far, until none is left."""
    members = mask_of(start)
    cand = g.full_mask
    for v in start:
        cand &= g.adj[v]
    while cand:
        v = min(bits(cand), key=partial(key, members))
        members |= 1 << v
        cand &= g.adj[v]
    return tuple(bits(members))


def enumerate_cliques_bounded(g: Graph, point, limit: int):
    """Maximal cliques by depth-first expansion with pivoting, cut off after
    limit cliques. Returns the cliques heaviest first under point (ties:
    lexicographically smallest vertex tuple)."""
    adj = g.adj
    out = []

    def expand(r, subg, cand):
        # pivot maximizing |cand & N(u)| prunes the most branches; the
        # first of equal counts wins, and nothing beats all of cand
        top = cand.bit_count()
        most = -1
        rest = subg
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            count = (cand & adj[u]).bit_count()
            if count > most:
                most, pivot = count, u
                if count == top:
                    break
            rest ^= low
        ext = cand & ~adj[pivot]
        while ext:
            low = ext & -ext
            q = low.bit_length() - 1
            r.append(q)
            sub = subg & adj[q]
            if sub:
                expand(r, sub, cand & adj[q])
            else:
                out.append(tuple(sorted(r)))
            r.pop()
            if len(out) >= limit:
                return
            cand ^= low
            ext ^= low

    if g.n and limit > 0:
        expand([], g.full_mask, g.full_mask)
    out.sort(key=lambda w: (-point_weight(point, w), w))
    return out


def rounding_lower_bound(g: Graph, point):
    """Greedy stable set read off a fractional point: scan vertices by
    descending value (ties: lowest index) and keep what fits. Scanning every
    vertex makes the result maximal."""
    chosen = []
    blocked = 0
    for v in sorted(range(g.n), key=lambda u: (-point[u], u)):
        bit = 1 << v
        if blocked & bit:
            continue
        chosen.append(v)
        blocked |= bit | g.adj[v]
    return tuple(sorted(chosen))
