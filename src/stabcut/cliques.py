"""Clique heuristics used by the separation loop and the bound engine."""

from __future__ import annotations

from .graph import Graph, bits


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


def grow_clique(g: Graph, point, seed: int, covered: int = 0,
                prefer_uncovered: bool = False, tie=None):
    """Maximal clique grown greedily from seed. Candidates are taken by
    descending point value; with prefer_uncovered, vertices not yet covered
    come first regardless of value."""
    if tie is None:
        tie = range(g.n)
    clique = [seed]
    cand = g.adj[seed]
    while cand:
        if prefer_uncovered:
            v = min(bits(cand),
                    key=lambda u: (1 if covered >> u & 1 else 0, -point[u], tie[u]))
        else:
            v = min(bits(cand), key=lambda u: (-point[u], tie[u]))
        clique.append(v)
        cand &= g.adj[v]
    return tuple(sorted(clique))


def enumerate_cliques_bounded(g: Graph, point, limit: int = 1000):
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
