"""Generators for the benchmark graph families used in the experiments.

All three constructors return the max-clique side of the instance, matching
the usual distribution of these graphs; stable set runs are done on the
complement (the bound command's default).
"""

from __future__ import annotations

from itertools import combinations
from math import log

from .graph import Graph


def _sts9_lines():
    """The twelve lines of the affine plane of order three over points
    0..8, point (a, b) encoded as 3a + b."""
    lines = []
    for m in range(3):
        for c in range(3):
            lines.append(tuple(3 * a + (m * a + c) % 3 for a in range(3)))
    for c in range(3):
        lines.append(tuple(3 * c + b for b in range(3)))
    return lines


def mann_a9() -> Graph:
    """45 vertices: one per (line, point) incidence of the order-3 affine
    plane plus one per point. In the sparse side each line's three incidence
    vertices form a triangle and every incidence touches its point; the
    returned graph is the complement of that."""
    lines = _sts9_lines()
    edges = []
    for i, line in enumerate(lines):
        trio = [3 * i + j for j in range(3)]
        edges.extend(combinations(trio, 2))
        for j, p in enumerate(line):
            edges.append((3 * i + j, 36 + p))
    return Graph(45, edges).complement(name="MANN_a9")


def hamming_graph(bits: int = 6, min_distance: int = 4) -> Graph:
    """Vertices are all words of the given width, adjacent when their
    Hamming distance is at least min_distance."""
    n = 1 << bits
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if (u ^ v).bit_count() >= min_distance]
    return Graph(n, edges, name="hamming%d-%d" % (bits, min_distance))


def _c_fat_blocks(n: int, c: int):
    """Block sizes: floor(n / (c ln n)) contiguous blocks, the first n mod k
    of them one vertex larger."""
    k = int(n / (c * log(n)))
    base, extra = divmod(n, k)
    return [base + 1 if i < extra else base for i in range(k)]


def c_fat(n: int, c: int) -> Graph:
    """Ring of fat blocks: vertices in the same or cyclically consecutive
    blocks are adjacent."""
    sizes = _c_fat_blocks(n, c)
    k = len(sizes)
    block = []
    for i, size in enumerate(sizes):
        block.extend([i] * size)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            d = (block[v] - block[u]) % k
            if d == 0 or d == 1 or d == k - 1:
                edges.append((u, v))
    return Graph(n, edges, name="c-fat%d-%d" % (n, c))


BENCHMARKS = {
    "MANN_a9": mann_a9,
    "hamming6-4": lambda: hamming_graph(6, 4),
    "c-fat200-1": lambda: c_fat(200, 1),
    "c-fat200-2": lambda: c_fat(200, 2),
    "c-fat200-5": lambda: c_fat(200, 5),
    "c-fat500-1": lambda: c_fat(500, 1),
    "c-fat500-2": lambda: c_fat(500, 2),
    "c-fat500-5": lambda: c_fat(500, 5),
    "c-fat500-10": lambda: c_fat(500, 10),
}

# widely published optimum clique sizes for these instances, equal to the
# stability number of the complement
KNOWN_OPTIMA = {
    "MANN_a9": 16,
    "hamming6-4": 4,
    "c-fat200-1": 12,
    "c-fat200-2": 24,
    "c-fat200-5": 58,
    "c-fat500-1": 14,
    "c-fat500-2": 26,
    "c-fat500-5": 64,
    "c-fat500-10": 126,
}
