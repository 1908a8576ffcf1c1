import random

from stabcut import mwss
from stabcut.engine import VERIFY_MAX_NODES, cutting_plane_run
from stabcut.graph import Graph, random_graph
from stabcut.lifting import Inequality, check_validity
from stabcut.projection import ProjectionTrace, extend_trace
from stabcut.separation import (SeparationParams, build_clique_pool,
                                project_with_repair, sep_for_stab)


def c5():
    return Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


def two_c5s():
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    edges += [(u + 5, v + 5) for u, v in edges]
    return Graph(10, edges)


def test_pool_on_c5_uniform_point():
    pool, violated = build_clique_pool(c5(), [0.5] * 5)
    assert pool == [(0, 1), (2, 3), (0, 4)]
    assert violated == []


def test_pool_reports_violated_cliques():
    pool, violated = build_clique_pool(c5(), [0.6] * 5)
    assert pool == [(0, 1), (2, 3), (0, 4)]
    assert violated == pool


def test_pool_threshold_drops_light_cliques():
    pool, violated = build_clique_pool(c5(), [0.9, 0.9, 0.0, 0.0, 0.0])
    # {2,3} weighs 0 so it covers but is not pooled
    assert pool == [(0, 1), (0, 4)]
    assert violated == [(0, 1)]


def test_repair_shrinks_degenerate_clique():
    g = c5()
    trace = extend_trace(ProjectionTrace(g), (0, 1))
    # projecting {2,3,4} adds nothing; shedding vertex 2 leaves {3,4} which
    # creates the false edge (0,2)
    repaired = project_with_repair(trace, (2, 3, 4), [0.5] * 5)
    assert repaired.cliques[-1] == (3, 4)
    assert repaired.steps[-1].false_edges == ((0, 2),)


def test_repair_gives_up_on_complete_graph():
    g = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert project_with_repair(ProjectionTrace(g), (0, 1, 2, 3), [0.5] * 4) is None


def test_repair_rejects_duplicate_pair():
    g = c5()
    trace = extend_trace(ProjectionTrace(g), (0, 1))
    assert project_with_repair(trace, (0, 1), [0.5] * 5) is None


def test_c5_walk_finds_odd_hole_cut():
    g = c5()
    point = [0.5] * 5
    params = SeparationParams(min_depth=0, max_depth=4)
    for procedure in ("basic", "strengthened"):
        out = sep_for_stab(g, point, params, procedure)
        assert len(out.cuts) == 1
        cut = out.cuts[0]
        assert cut.inequality == Inequality({v: 1 for v in range(5)}, 2)
        assert cut.trace.r == 1
        assert cut.factors == (1,)
        # the two later pool starts rediscover the same cut and count as failed
        assert out.iterations_used == 3
        assert out.failed_iterations == 2
        assert out.projections_performed == 3


def test_unknown_procedure_rejected():
    try:
        sep_for_stab(c5(), [0.5] * 5, procedure="fancy")
    except ValueError:
        pass
    else:
        assert False


def test_max_ncuts_caps_output():
    g = two_c5s()
    point = [0.5] * 10
    params = SeparationParams(min_depth=0, max_depth=4)
    out = sep_for_stab(g, point, params)
    assert len(out.cuts) >= 2
    capped = sep_for_stab(g, point, SeparationParams(min_depth=0, max_depth=4,
                                                     max_ncuts=1))
    assert len(capped.cuts) == 1


def test_integral_point_yields_nothing():
    g = c5()
    point = [1.0, 0.0, 1.0, 0.0, 0.0]
    out = sep_for_stab(g, point)
    assert out.cuts == []
    assert out.failed_iterations == out.iterations_used


def test_enumeration_replacement_path():
    g = two_c5s()
    params = SeparationParams(min_depth=2, max_depth=4, tomita_period=1)
    out = sep_for_stab(g, [0.5] * 10, params)
    for cut in out.cuts:
        assert check_validity(g, cut.inequality).valid
        assert cut.inequality.violation([0.5] * 10) > params.min_violation


def test_separation_fuzz_validity_and_limits():
    rng = random.Random(20240817)
    params = SeparationParams(min_violation=0.03, min_depth=2, max_depth=5,
                              max_iterations=10, max_ncuts=8, tomita_period=3)
    checked = 0
    for trial in range(12):
        n = rng.randrange(6, 13)
        g = random_graph(n, rng.choice([0.3, 0.5]), seed=rng.randrange(10 ** 6))
        point = [round(rng.random(), 3) for _ in range(n)]
        for procedure in ("basic", "strengthened"):
            out = sep_for_stab(g, point, params, procedure,
                               rng=random.Random(trial))
            assert out.iterations_used <= params.max_iterations
            assert len(out.cuts) <= params.max_ncuts
            keys = [c.inequality.normalized().key() for c in out.cuts]
            assert len(keys) == len(set(keys))
            for cut in out.cuts:
                assert cut.procedure == procedure
                assert cut.trace.r <= params.max_depth
                assert len(cut.factors) == cut.trace.r
                assert cut.inequality.violation(point) > params.min_violation
                assert check_validity(g, cut.inequality).valid
                checked += 1
    assert checked >= 20


def test_separation_is_deterministic_under_seed():
    g = random_graph(12, 0.4, seed=5)
    rng = random.Random(99)
    point = [round(rng.random(), 3) for _ in range(12)]
    params = SeparationParams(min_depth=3, max_depth=6, tomita_period=4)
    first = sep_for_stab(g, point, params, rng=random.Random(7))
    second = sep_for_stab(g, point, params, rng=random.Random(7))
    assert [c.inequality.key() for c in first.cuts] == \
        [c.inequality.key() for c in second.cuts]
    assert first.projections_performed == second.projections_performed


def test_separation_and_checks_never_read_the_clock(monkeypatch):
    # lifts and cut checks stop on node counts, so which cuts come out does
    # not depend on how fast the machine runs
    class NoClock:
        @staticmethod
        def monotonic():
            raise AssertionError("the MWSS search read the clock")

    monkeypatch.setattr(mwss, "time", NoClock)
    g = two_c5s()
    point = [0.5] * 10
    for procedure in ("basic", "strengthened"):
        out = sep_for_stab(g, point, SeparationParams(min_depth=2, max_depth=6),
                           procedure, rng=random.Random(3))
        assert out.cuts
        for cut in out.cuts:
            assert check_validity(g, cut.inequality,
                                  max_nodes=VERIFY_MAX_NODES).valid
        rep = cutting_plane_run(g, procedure=procedure, max_rounds=3)
        assert rep.cut_counts["rank"] + rep.cut_counts["weighted"] > 0
