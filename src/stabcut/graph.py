"""Undirected graphs on 0..n-1 with bitmask adjacency, plus DIMACS I/O."""

from __future__ import annotations

import random


def bits(mask: int):
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class DimacsError(ValueError):
    """Malformed DIMACS input; carries the offending line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__("line %d: %s" % (lineno, message))
        self.lineno = lineno


class Graph:
    """Immutable simple graph. adj[v] is the neighbor bitmask of vertex v.

    Structural edits (complementing, projecting) return new Graph objects;
    instances are never mutated after construction.
    """

    def __init__(self, n: int, edges=(), name: str = ""):
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError("self-loop at vertex %d" % u)
            if not (0 <= u < n) or not (0 <= v < n):
                raise ValueError("edge (%d, %d) out of range for n=%d" % (u, v, n))
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj = tuple(adj)
        self.name = name
        self.full_mask = (1 << n) - 1

    @classmethod
    def _trusted(cls, adj, name: str) -> Graph:
        """Graph over adjacency masks already known to be valid; the one
        constructor that skips validation."""
        g = cls.__new__(cls)
        g.n = len(adj)
        g.adj = tuple(adj)
        g.name = name
        g.full_mask = (1 << g.n) - 1
        return g

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        label = self.name or "graph"
        return "Graph(%s, n=%d, m=%d)" % (label, self.n, self.num_edges())

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] & (1 << v))

    def num_edges(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def density(self) -> float:
        if self.n < 2:
            return 0.0
        return 2.0 * self.num_edges() / (self.n * (self.n - 1))

    def edges(self):
        """Yield edges (u, v) with u < v in lexicographic order."""
        for u in range(self.n):
            for v in bits(self.adj[u] >> (u + 1)):
                yield u, u + 1 + v

    def vertex_mask(self, vertices) -> int:
        """mask_of(vertices) for distinct vertices of this graph; raises
        ValueError naming the first one out of range or repeated."""
        m = 0
        for v in vertices:
            if not 0 <= v < self.n:
                raise ValueError("vertex %d is not in 0..%d" % (v, self.n - 1))
            if m >> v & 1:
                raise ValueError("vertex %d is repeated" % v)
            m |= 1 << v
        return m

    def is_clique(self, vertices) -> bool:
        m = vertices if isinstance(vertices, int) else mask_of(vertices)
        for v in bits(m):
            if m & ~self.adj[v] & ~(1 << v):
                return False
        return True

    def is_stable(self, vertices) -> bool:
        m = vertices if isinstance(vertices, int) else mask_of(vertices)
        for v in bits(m):
            if m & self.adj[v]:
                return False
        return True

    def complement(self, name: str = "") -> Graph:
        name = name or (self.name + "-complement" if self.name else "")
        adj = [self.full_mask & ~a & ~(1 << v) for v, a in enumerate(self.adj)]
        return Graph._trusted(adj, name)


def random_graph(n: int, density: float, seed: int) -> Graph:
    """Erdos-Renyi style graph: each pair is an edge with the given probability."""
    rng = random.Random(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                edges.append((u, v))
    return Graph(n, edges, name="random-%d-%g-%d" % (n, density, seed))


def parse_dimacs(text: str, name: str = "") -> Graph:
    """Parse DIMACS edge format ('p edge n m' then 'e u v' lines, 1-based)."""
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "c":
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise DimacsError(lineno, "duplicate problem line")
            if len(parts) != 4 or parts[1] not in ("edge", "col"):
                raise DimacsError(lineno, "expected 'p edge <n> <m>', got %r" % line)
            try:
                n = int(parts[2])
                int(parts[3])
            except ValueError:
                raise DimacsError(lineno, "non-integer sizes in %r" % line) from None
            if n < 0:
                raise DimacsError(lineno, "negative vertex count")
        elif parts[0] == "e":
            if n is None:
                raise DimacsError(lineno, "edge line before problem line")
            if len(parts) != 3:
                raise DimacsError(lineno, "expected 'e <u> <v>', got %r" % line)
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise DimacsError(lineno, "non-integer endpoints in %r" % line) from None
            if not (1 <= u <= n) or not (1 <= v <= n):
                raise DimacsError(lineno, "endpoint out of range in %r" % line)
            if u == v:
                raise DimacsError(lineno, "self-loop at vertex %d" % u)
            edges.append((u - 1, v - 1))
        else:
            raise DimacsError(lineno, "unrecognized line %r" % line)
    if n is None:
        raise DimacsError(0, "missing problem line")
    return Graph(n, edges, name=name)


def read_dimacs(path: str) -> Graph:
    with open(path) as fh:
        text = fh.read()
    name = path.rsplit("/", 1)[-1]
    for suffix in (".clq", ".col", ".dimacs", ".txt"):
        if name.endswith(suffix):
            name = name[: -len(suffix)]
            break
    return parse_dimacs(text, name=name)


def serialize_dimacs(g: Graph) -> str:
    lines = []
    if g.name:
        lines.append("c %s" % g.name)
    lines.append("p edge %d %d" % (g.n, g.num_edges()))
    for u, v in g.edges():
        lines.append("e %d %d" % (u + 1, v + 1))
    return "\n".join(lines) + "\n"
