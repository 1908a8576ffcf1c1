from __future__ import annotations

import pytest

from stabcut.graph import (
    DimacsError,
    Graph,
    bits,
    mask_of,
    parse_dimacs,
    random_graph,
    read_dimacs,
    serialize_dimacs,
)


def test_bits_and_mask_roundtrip():
    assert list(bits(0)) == []
    assert list(bits(0b10110)) == [1, 2, 4]
    assert mask_of([1, 2, 4]) == 0b10110
    assert mask_of([]) == 0


def test_constructor_and_queries(example8):
    g = example8
    assert g.n == 8
    assert g.num_edges() == 17
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(3, 4)
    assert g.adj[2].bit_count() == 6
    assert list(bits(g.adj[4])) == [0, 1, 7]
    assert list(g.edges())[0] == (0, 1)
    assert sorted(g.edges()) == list(g.edges())


def test_constructor_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(-1, 2)])


def test_clique_and_stable_checks(example8):
    g = example8
    assert g.is_clique([0, 1, 2])
    assert g.is_clique(mask_of([0, 2, 3]))
    assert not g.is_clique([0, 1, 3])
    assert g.is_clique([5])
    assert g.is_clique([])
    assert g.is_stable([4, 5])
    assert g.is_stable([1, 3])
    assert not g.is_stable([0, 1])
    assert g.is_stable([])


def test_complement_involution(example8):
    g = example8
    gc = g.complement()
    assert gc.num_edges() == g.n * (g.n - 1) // 2 - g.num_edges()
    assert gc.complement().adj == g.adj
    for u in range(g.n):
        for v in range(u + 1, g.n):
            assert gc.has_edge(u, v) != g.has_edge(u, v)


def test_random_graph_is_seed_deterministic():
    a = random_graph(12, 0.4, seed=7)
    b = random_graph(12, 0.4, seed=7)
    c = random_graph(12, 0.4, seed=8)
    assert a.adj == b.adj
    assert a.adj != c.adj
    assert random_graph(10, 0.0, seed=1).num_edges() == 0
    assert random_graph(10, 1.0, seed=1).num_edges() == 45


def test_dimacs_roundtrip(example8):
    text = serialize_dimacs(example8)
    g = parse_dimacs(text, name="example8")
    assert g.adj == example8.adj
    assert text.startswith("c example8\np edge 8 17\n")


def test_dimacs_parses_comments_and_duplicates():
    text = "c hello\n\np edge 3 2\ne 1 2\ne 2 1\ne 2 3\n"
    g = parse_dimacs(text)
    assert g.n == 3
    assert g.num_edges() == 2


def test_dimacs_errors_carry_line_numbers():
    with pytest.raises(DimacsError) as err:
        parse_dimacs("p edge 3 1\ne 1 4\n")
    assert err.value.lineno == 2
    with pytest.raises(DimacsError) as err:
        parse_dimacs("e 1 2\n")
    assert err.value.lineno == 1
    with pytest.raises(DimacsError) as err:
        parse_dimacs("p edge 3 0\np edge 3 0\n")
    assert err.value.lineno == 2
    with pytest.raises(DimacsError) as err:
        parse_dimacs("p edge 3 1\nx 1 2\n")
    assert err.value.lineno == 2
    with pytest.raises(DimacsError) as err:
        parse_dimacs("p edge 3 1\ne 1 one\n")
    assert err.value.lineno == 2
    with pytest.raises(DimacsError) as err:
        parse_dimacs("c only a comment\n")
    assert err.value.lineno == 0


def test_read_dimacs_strips_suffix(tmp_path, example8):
    path = tmp_path / "tiny.clq"
    path.write_text(serialize_dimacs(example8))
    g = read_dimacs(str(path))
    assert g.name == "tiny"
    assert g.adj == example8.adj
