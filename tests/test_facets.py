import hashlib
import random
from itertools import product

import pytest
from conftest import (EXAMPLE8_SEED, EXAMPLE8_W1, EXAMPLE8_W2, EXAMPLE8_W3,
                      random_maximal_clique, random_trace)

from stabcut.cliques import enumerate_cliques_bounded
from stabcut.facets import (WITNESS_MAX_K, assert_facet_of_Ft,
                            check_condition_I, check_condition_IV,
                            check_condition_V, check_condition_III,
                            check_interWV, check_seed, check_strong_hypertree,
                            condition_iv_holds_for, condition_report,
                            face_dimension, facet_report, find_witnesses,
                            level_dimensions, verify_class_equality,
                            verify_isomorphism, witness_from_trace)
from stabcut.graph import Graph, random_graph
from stabcut.lifting import Inequality, clique_inequality, strengthened_lift
from stabcut.projection import ProjectionTrace, extend_trace

# the class partition certifying the running example, last class special
EX8_CLASSES = [(1, 3), (2, 4), (0,)]


def ex8_witness(trace):
    return witness_from_trace(trace, EX8_CLASSES, representative=(1, 2))


def path6_trace(path6):
    trace = ProjectionTrace(path6)
    for w in ((0, 1), (1, 2), (2, 3), (3, 4)):
        trace = extend_trace(trace, w)
    return trace


def test_witness_build_validates():
    trace = ProjectionTrace(Graph(5, [(0, 1), (1, 2)]))
    for w in ((0, 1), (1, 2)):
        trace = extend_trace(trace, w)
    try:
        witness_from_trace(trace, [(0, 1), (1, 2)])
    except ValueError:
        pass
    else:
        assert False
    try:
        witness_from_trace(trace, [(0,), (1,)])
    except ValueError:
        pass
    else:
        assert False


def test_witness_representative_validated(example8_trace):
    try:
        witness_from_trace(example8_trace, EX8_CLASSES, representative=(1, 3))
    except ValueError:
        pass
    else:
        assert False


def test_interWV_on_example(example8_trace):
    witness = ex8_witness(example8_trace)
    for t in (1, 2, 3):
        assert check_interWV(example8_trace, witness, t)
    skew = witness_from_trace(example8_trace, [(1,), (2, 3, 4), (0,)])
    assert not check_interWV(example8_trace, skew, 2)


def test_condition_I_on_example(example8_trace):
    witness = ex8_witness(example8_trace)
    for t in (1, 2, 3):
        assert check_condition_I(example8_trace, witness, t)
    # 1 and 4 are adjacent in the base graph, so this class is not stable
    bad = witness_from_trace(example8_trace, [(1, 4), (2, 3), (0,)])
    assert not check_condition_I(example8_trace, bad, 3)


def test_condition_I_rejects_wrong_clique_size():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    trace = extend_trace(ProjectionTrace(g), (0, 1))
    trace = extend_trace(trace, (2, 3, 4))
    witness = witness_from_trace(trace, [(0, 2, 4), (1, 3)])
    assert not check_condition_I(trace, witness, 2)


def test_strong_hypertree_chain(example8_trace):
    witness = ex8_witness(example8_trace)
    for t in (1, 2, 3):
        assert check_strong_hypertree(example8_trace, witness, t)


def test_strong_hypertree_edge_cases():
    triangle = extend_trace(ProjectionTrace(Graph(3, [(0, 1), (0, 2), (1, 2)])),
                            (0, 1, 2))
    single = witness_from_trace(triangle, [(0,), (1,), (2,)])
    assert check_strong_hypertree(triangle, single)
    two_edges = ProjectionTrace(Graph(4, [(0, 1), (2, 3)]))
    for w in ((0, 1), (2, 3)):
        two_edges = extend_trace(two_edges, w)
    disjoint = witness_from_trace(two_edges, [(0, 2), (1, 3)])
    assert not check_strong_hypertree(two_edges, disjoint)


def test_condition_III_on_example(example8_trace):
    witness = ex8_witness(example8_trace)
    for t in (1, 2, 3):
        assert check_condition_III(example8_trace, witness, t)


def test_condition_III_fails_with_dominating_outsider():
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)])
    trace = extend_trace(ProjectionTrace(g), (0, 1, 2))
    witness = witness_from_trace(trace, [(0,), (1,), (2,)])
    assert not check_condition_III(trace, witness, 1)


def test_condition_IV_on_example(example8_trace):
    witness = ex8_witness(example8_trace)
    assert check_condition_IV(example8_trace, witness)
    # vertex 3 is not a base neighbor of 5 but routes through the first
    # clique's class representative
    assert condition_iv_holds_for(example8_trace, witness, 3, 5, 0)


def test_condition_IV_path_counterexample(path6):
    trace = path6_trace(path6)
    witness = witness_from_trace(trace, [(0, 2, 4), (1, 3)])
    assert not condition_iv_holds_for(trace, witness, 0, 5, 0)
    assert condition_iv_holds_for(trace, witness, 4, 5, 0)
    assert condition_iv_holds_for(trace, witness, 2, 5, 0)
    assert not check_condition_IV(trace, witness)


def test_condition_V_depends_on_labeling(example8_trace):
    good = ex8_witness(example8_trace)
    assert check_condition_V(example8_trace, good)
    bad = witness_from_trace(example8_trace, [(1, 3), (0,), (2, 4)])
    assert not check_condition_V(example8_trace, bad)


def test_seed_check(example8_trace):
    witness = ex8_witness(example8_trace)
    assert check_seed(example8_trace, witness, EXAMPLE8_SEED)
    # dropping 7 leaves the clique extendable, hence not maximal
    assert not check_seed(example8_trace, witness, (1, 4, 5, 6))
    relabeled = witness_from_trace(example8_trace, [(1, 3), (0,), (2, 4)])
    assert not check_seed(example8_trace, relabeled, EXAMPLE8_SEED)


def test_face_dimension_plain(example8):
    cert = face_dimension(example8, [])
    assert cert.affine_dim == 8
    assert len(cert.witness_points) == 9


def test_face_dimension_isolated_vertex():
    g = Graph(3, [(0, 1)])
    cert = face_dimension(g, [Inequality({2: 1}, 1)])
    assert cert.affine_dim == 2


def test_face_dimension_size_guard():
    g = Graph(17, [])
    try:
        face_dimension(g, [])
    except ValueError:
        pass
    else:
        assert False


def test_level_faces_lose_one_dimension_each(example8, example8_trace):
    cliques = [EXAMPLE8_W1, EXAMPLE8_W2, EXAMPLE8_W3]
    for t in range(4):
        eqs = [clique_inequality(w) for w in cliques[:t]]
        assert face_dimension(example8, eqs).affine_dim == 8 - t


def test_full_walk_face_points_pinned(example8, example8_trace):
    eqs = [clique_inequality(w) for w in example8_trace.cliques]
    cert = face_dimension(example8, eqs)
    assert cert.affine_dim == 5
    points = {tuple(p) for p in cert.witness_points}
    expected = set()
    for members in ((0,), (0, 5), (0, 6), (0, 7), (1, 3), (2, 4)):
        expected.add(tuple(1 if v in members else 0 for v in range(8)))
    assert points <= expected
    assert len(points) == 6


def test_strengthened_cut_is_facet_at_every_level(example8_trace):
    cut = strengthened_lift(example8_trace, seed=EXAMPLE8_SEED)
    for t in (0, 1, 2, 3):
        assert assert_facet_of_Ft(cut, t)


def test_slack_inequality_has_empty_face(example8):
    slack = Inequality({0: 1, 1: 1, 2: 2, 3: 1, 5: 1, 6: 1, 7: 1}, 3)
    assert face_dimension(example8, [slack]).affine_dim == -1


def test_facet_report_on_example(example8_trace):
    witness = ex8_witness(example8_trace)
    cut = strengthened_lift(example8_trace, seed=EXAMPLE8_SEED)
    level = level_dimensions(example8_trace, 3, cut.level_form(3))
    report = facet_report(condition_report(example8_trace, witness, cut.seed),
                          level)
    assert report.predicted
    assert report.conditions == {"interWV": True, "I": True, "II": True,
                                 "III": True, "IV": True, "V": True,
                                 "seed": True}
    assert report.dim_face == 5
    assert report.dim_tight == 4
    assert report.facet
    assert report.agrees


def test_class_equality_on_levels(example8_trace):
    witness = ex8_witness(example8_trace)
    assert verify_class_equality(example8_trace, witness, 3)
    # without the exactly-one constraints a single-vertex point breaks it
    assert not verify_class_equality(example8_trace, witness, 0)


def test_isomorphism_on_example(example8_trace):
    witness = ex8_witness(example8_trace)
    assert verify_isomorphism(example8_trace, witness)
    assert verify_isomorphism(example8_trace, witness, representative=(1, 4))


def test_isomorphism_rejects_bad_representative(example8_trace):
    witness = ex8_witness(example8_trace)
    try:
        verify_isomorphism(example8_trace, witness, representative=(1, 3))
    except ValueError:
        pass
    else:
        assert False


def test_isomorphism_fails_on_bad_labeling(example8_trace):
    relabeled = witness_from_trace(example8_trace, [(1, 3), (0,), (2, 4)])
    assert not verify_isomorphism(example8_trace, relabeled,
                                  representative=(0, 1))


def test_isomorphism_past_the_oracle_limit_lists_nothing(face_listings):
    # the final graph's 81,920 stable sets were listed before the walk face
    # refused its 17 vertices; the limit must come first
    trace = extend_trace(ProjectionTrace(Graph(17, [(0, 1), (1, 2)])), (0, 1))
    witness = witness_from_trace(trace, [(0,), (1,)], representative=(0,))
    with pytest.raises(ValueError, match="n must be <= 16"):
        verify_isomorphism(trace, witness)
    assert face_listings == []


def test_find_witnesses_on_example(example8_trace):
    found = find_witnesses(example8_trace, seed=EXAMPLE8_SEED)
    assert len(found) == 2
    for witness, conditions in found:
        assert conditions == condition_report(example8_trace, witness,
                                              EXAMPLE8_SEED)
        assert all(conditions.values())
        assert witness.classes[-1] == (0,)
        assert {witness.classes[0], witness.classes[1]} == {(1, 3), (2, 4)}


def test_find_witnesses_rejects_path(path6):
    assert find_witnesses(path6_trace(path6)) == []


def test_routed_pairs_are_final_graph_edges(example8_trace):
    witness = ex8_witness(example8_trace)
    gr = example8_trace.final_graph
    for i in range(witness.k - 1):
        for w in witness.outside:
            for v in witness.classes[i]:
                if condition_iv_holds_for(example8_trace, witness, v, w, i):
                    assert gr.has_edge(v, w)


def test_weighted_rank_gadget_facet(weighted_rank_gadget):
    g = weighted_rank_gadget
    trace = extend_trace(ProjectionTrace(g), (5,))
    assert set(trace.steps[0].false_edges) == {(0, 2), (0, 4), (1, 3),
                                               (1, 4), (2, 3)}
    cut = strengthened_lift(trace, seed=(0, 1, 2, 3, 4, 5))
    target = Inequality({0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 2}, 2)
    assert cut.inequality == target
    assert face_dimension(g, []).affine_dim == 6
    assert face_dimension(g, [target]).affine_dim == 5


def test_facet_certificates_match_dimension_oracle_fuzz():
    rng = random.Random(424242)
    agreements = 0
    for trial in range(30):
        n = rng.randrange(5, 10)
        g = random_graph(n, rng.choice([0.35, 0.5]),
                         seed=rng.randrange(10 ** 6))
        trace = random_trace(g, rng, max_steps=3)
        if trace.r == 0 or len({len(w) for w in trace.cliques}) != 1:
            continue
        witnesses = find_witnesses(trace)
        if not witnesses:
            continue
        gr = trace.final_graph
        cliques = enumerate_cliques_bounded(gr, [1.0] * n, 500)
        for witness, _ in witnesses[:2]:
            for seed in cliques:
                if not check_seed(trace, witness, seed):
                    continue
                cut = strengthened_lift(trace, seed=seed)
                for t in range(1, trace.r + 1):
                    assert assert_facet_of_Ft(cut, t)
                    assert face_dimension(
                        trace.base,
                        [clique_inequality(w) for w in trace.cliques[:t]]
                    ).affine_dim == n - t
                    agreements += 1
                for i in range(witness.k - 1):
                    for w in witness.outside:
                        for v in witness.classes[i]:
                            if condition_iv_holds_for(trace, witness, v, w, i):
                                assert gr.has_edge(v, w)
                break
    assert agreements >= 3


def test_face_dimension_invariant_under_relabeling(example8):
    rng = random.Random(11)
    perm = list(range(8))
    rng.shuffle(perm)
    relabeled = Graph(8, [(perm[u], perm[v]) for u, v in example8.edges()])
    cliques = [EXAMPLE8_W1, EXAMPLE8_W2, EXAMPLE8_W3]
    eqs = [clique_inequality(w) for w in cliques]
    peqs = [clique_inequality(tuple(perm[v] for v in w)) for w in cliques]
    assert face_dimension(example8, eqs).affine_dim == \
        face_dimension(relabeled, peqs).affine_dim


def test_facet_checkers_keep_recorded_verdicts():
    # The digest pins the checkers' verdicts on seeded random traces whose
    # cliques share one size k <= 3: per level, interWV, I, II, III and class
    # equality; condition IV per class vertex and outside vertex; the
    # condition report under a random maximal seed; the isomorphism for every
    # valid representative; and the labelings find_witnesses returns. Three
    # random labelings per trace fail some condition nearly always; the
    # found witnesses are labelings that pass them all.
    rng = random.Random(20261021)
    h = hashlib.sha256()
    traces = passed = 0
    failing = dict.fromkeys(("interWV", "I", "II", "III", "IV", "V", "seed"), 0)
    iso = {True: 0, False: 0}
    for trial in range(300):
        n = rng.randrange(5, 10)
        g = random_graph(n, rng.choice([0.3, 0.5, 0.7]), seed=40000 + trial)
        trace = random_trace(g, rng, max_steps=3)
        sizes = {len(w) for w in trace.cliques}
        if len(sizes) != 1 or max(sizes) > WITNESS_MAX_K:
            continue
        traces += 1
        k = sizes.pop()
        r = trace.r
        seed = random_maximal_clique(trace.final_graph, rng)
        universe = sorted({v for w in trace.cliques for v in w})
        labelings = []
        for _ in range(3):
            labels = [rng.randrange(k) for _ in universe]
            labelings.append([[v for v, c in zip(universe, labels) if c == i]
                              for i in range(k)])
        found = find_witnesses(trace, seed)
        labelings += [w.classes for w, _ in found]
        for classes in labelings:
            witness = witness_from_trace(trace, classes)
            levels = [(check_interWV(trace, witness, t),
                       check_condition_I(trace, witness, t),
                       check_strong_hypertree(trace, witness, t),
                       check_condition_III(trace, witness, t))
                      for t in range(1, r + 1)]
            equal = [verify_class_equality(trace, witness, t)
                     for t in range(r + 1)]
            routed = [condition_iv_holds_for(trace, witness, v, w, i)
                      for i in range(k - 1) for v in witness.classes[i]
                      for w in witness.outside]
            report = condition_report(trace, witness, seed)
            passed += all(report.values())
            for key, verdict in report.items():
                failing[key] += not verdict
            h.update(repr((classes, levels, equal, routed,
                           sorted(report.items()))).encode())
            for rep in product(*witness.classes[:-1]):
                ok = verify_isomorphism(trace, witness, representative=rep)
                iso[ok] += 1
                h.update(repr((rep, ok)).encode())
    assert (traces, passed) == (140, 89)
    assert failing == {"interWV": 276, "I": 279, "II": 72, "III": 51,
                       "IV": 29, "V": 244, "seed": 167}
    assert iso == {True: 103, False: 490}
    assert h.hexdigest() == (
        "70f059636509e756ab59475076ddab98a41c59233c6834afbd8379757dc6d3ce")
