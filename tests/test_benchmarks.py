from math import log

import pytest

from stabcut.benchmarks import (BENCHMARKS, _c_fat_blocks, c_fat,
                                hamming_graph, mann_a9)
from stabcut.graph import Graph, bits, parse_dimacs, serialize_dimacs
from stabcut.mwss import maximum_stable_set


def reference_hamming(width, min_distance):
    """The definition, pair by pair: words at Hamming distance at least
    min_distance are adjacent."""
    n = 1 << width
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if (u ^ v).bit_count() >= min_distance]
    return Graph(n, edges, name="hamming%d-%d" % (width, min_distance))


def reference_c_fat(n, c):
    """The definition, pair by pair: vertices in the same or cyclically
    consecutive blocks are adjacent."""
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


REFERENCES = {
    "hamming6-4": lambda: reference_hamming(6, 4),
    "c-fat200-1": lambda: reference_c_fat(200, 1),
    "c-fat200-2": lambda: reference_c_fat(200, 2),
    "c-fat200-5": lambda: reference_c_fat(200, 5),
    "c-fat500-1": lambda: reference_c_fat(500, 1),
    "c-fat500-2": lambda: reference_c_fat(500, 2),
    "c-fat500-5": lambda: reference_c_fat(500, 5),
    "c-fat500-10": lambda: reference_c_fat(500, 10),
}


def test_mann_a9_shape():
    g = mann_a9()
    assert g.n == 45
    assert g.num_edges() == 918
    assert g.name == "MANN_a9"
    sparse = g.complement()
    assert sparse.num_edges() == 72
    # each line triangle survives in the sparse side
    assert sparse.is_clique((0, 1, 2))


def test_mann_a9_complement_alpha():
    sparse = mann_a9().complement()
    res = maximum_stable_set(sparse)
    assert res.proven_optimal
    assert len(res.best_set) == 16


def test_hamming_shape():
    g = hamming_graph(6, 4)
    assert g.n == 64
    assert g.num_edges() == 704
    assert g.name == "hamming6-4"
    assert g.is_clique((0b000000, 0b001111, 0b110011, 0b111100))


def test_c_fat_block_layout():
    assert _c_fat_blocks(200, 1) == [6] * 15 + [5] * 22
    assert len(_c_fat_blocks(500, 10)) == 8


def test_c_fat_edge_counts_match_published_instances():
    expected = {
        (200, 1): 1534,
        (200, 2): 3235,
        (200, 5): 8473,
        (500, 1): 4459,
        (500, 2): 9139,
        (500, 5): 23191,
        (500, 10): 46627,
    }
    for (n, c), m in expected.items():
        g = c_fat(n, c)
        assert g.n == n
        assert g.num_edges() == m, (n, c)


def test_c_fat_two_leading_blocks_form_clique():
    g = c_fat(200, 1)
    assert g.is_clique(tuple(range(12)))


def test_registry_and_dimacs_roundtrip():
    g = BENCHMARKS["MANN_a9"]()
    text = serialize_dimacs(g)
    back = parse_dimacs(text)
    assert back.n == g.n
    assert back.adj == g.adj


def test_generators_match_their_definitions_over_a_grid():
    for b in range(8):
        for d in range(-1, b + 2):
            g = hamming_graph(b, d)
            ref = reference_hamming(b, d)
            assert g == ref and g.name == ref.name, (b, d)
    block_counts = set()
    for n in range(2, 120):
        for c in range(1, 8):
            k = int(n / (c * log(n)))
            if k < 1:
                continue
            block_counts.add(k)
            g = c_fat(n, c)
            ref = reference_c_fat(n, c)
            assert g == ref and g.name == ref.name, (n, c)
    # one and two blocks are the rings whose neighbor blocks coincide
    assert {1, 2, 3} <= block_counts


def test_named_instances_match_their_definitions():
    # MANN_a9 is built from edge lists by Graph's checking constructor
    assert set(REFERENCES) == set(BENCHMARKS) - {"MANN_a9"}
    for name, make in BENCHMARKS.items():
        g = make()
        assert g.name == name
        # the generators build masks through Graph._trusted, which checks
        # neither symmetry nor self-loops
        for u, a in enumerate(g.adj):
            assert not a & ~g.full_mask, (name, u)
            assert not a >> u & 1, (name, u)
            assert all(g.adj[v] >> u & 1 for v in bits(a)), (name, u)
        if name in REFERENCES:
            assert g == REFERENCES[name](), name


@pytest.mark.parametrize("n, c", [(10, 5), (1, 1), (0, 1), (200, 0), (200, -1)])
def test_c_fat_without_blocks_is_rejected(n, c):
    with pytest.raises(ValueError, match=r"c_fat\(%d, %d\) has no block.*"
                       r"int\(n / \(c ln n\)\) >= 1" % (n, c)):
        c_fat(n, c)
