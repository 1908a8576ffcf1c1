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
    return sum(point[v] for v in vertices)


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
    limit cliques. Returns (cliques, best) with best the heaviest clique found
    under point (ties: lexicographically smallest vertex tuple)."""
    adj = g.adj
    out = []

    def expand(r, subg, cand):
        if len(out) >= limit:
            return
        if not subg:
            out.append(tuple(sorted(r)))
            return
        # pivot maximizing |cand & N(u)| prunes the most branches
        pivot = max(bits(subg), key=lambda u: (cand & adj[u]).bit_count())
        ext = cand & ~adj[pivot]
        for q in bits(ext):
            bit = 1 << q
            r.append(q)
            expand(r, subg & adj[q], cand & adj[q])
            r.pop()
            cand &= ~bit
            if len(out) >= limit:
                return

    if g.n:
        expand([], g.full_mask, g.full_mask)
    best = None
    if out:
        best = min(out, key=lambda w: (-point_weight(point, w), w))
    return out, best


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
