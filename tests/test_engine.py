import random

from stabcut import engine
from stabcut.benchmarks import hamming_graph
from stabcut.engine import (BoundReport, classify_cut, cutting_plane_run,
                            edge_clique_cover)
from stabcut.graph import Graph, random_graph
from stabcut.lifting import Inequality, check_validity
from stabcut.mwss import maximum_stable_set
from stabcut.separation import SeparationParams
from stabcut.simplex import lp_solve


def c5():
    return Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], name="c5")


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, outer + inner + spokes, name="petersen")


def test_edge_clique_cover_on_c5_is_edge_list():
    assert edge_clique_cover(c5()) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]


def test_edge_clique_cover_grows_triangle():
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert edge_clique_cover(g) == [(0, 1, 2), (2, 3)]


def test_edge_clique_cover_fuzz_covers_everything():
    rng = random.Random(7)
    for _ in range(20):
        g = random_graph(rng.randrange(2, 14), rng.choice([0.2, 0.5, 0.8]),
                         seed=rng.randrange(10 ** 6))
        cover = edge_clique_cover(g)
        for w in cover:
            assert g.is_clique(w)
        covered = set()
        for w in cover:
            covered.update((a, b) for a in w for b in w if a < b)
        assert covered == set(g.edges())


def test_classify_cut_kinds():
    g = c5()
    assert classify_cut(g, Inequality({0: 1, 1: 1}, 1)) == "clique"
    assert classify_cut(g, Inequality({v: 1 for v in range(5)}, 2)) == "rank"
    # unit coefficients but support is not a clique
    assert classify_cut(g, Inequality({0: 1, 2: 1}, 1)) == "rank"
    assert classify_cut(g, Inequality({0: 2, 1: 1, 2: 1}, 2)) == "weighted"


def test_clique_procedure_leaves_c5_fractional():
    report = cutting_plane_run(c5(), procedure="clique")
    assert abs(report.z0 - 2.5) < 1e-9
    assert abs(report.bound - 2.5) < 1e-9
    assert report.status == "no_more_cuts"
    assert report.cuts_added == 0
    assert report.lower_bound == 2


def test_lifting_procedures_close_c5():
    params = SeparationParams(min_depth=0, max_depth=4)
    for procedure in ("basic", "strengthened"):
        report = cutting_plane_run(c5(), params, procedure)
        assert abs(report.z0 - 2.5) < 1e-9
        assert abs(report.bound - 2.0) < 1e-9
        assert report.status in ("integral", "no_more_cuts")
        assert report.cut_counts["rank"] >= 1


def test_petersen_bound_improves_toward_alpha():
    g = petersen()
    plain = cutting_plane_run(g, procedure="clique")
    assert abs(plain.bound - 5.0) < 1e-9
    report = cutting_plane_run(g, SeparationParams(min_depth=3, max_depth=8),
                               "strengthened", seed=3)
    assert report.bound < 5.0 - 0.4
    assert report.bound > 4.0 - 1e-9
    assert report.cuts_added == sum(report.cut_counts.values())


def test_runs_are_deterministic_given_seed():
    g = random_graph(11, 0.4, seed=21)
    params = SeparationParams(min_depth=2, max_depth=5)
    a = cutting_plane_run(g, params, "basic", seed=4)
    b = cutting_plane_run(g, params, "basic", seed=4)
    assert a.bound == b.bound
    assert a.rounds == b.rounds
    assert a.cut_counts == b.cut_counts


def test_bound_never_dips_below_alpha_fuzz():
    rng = random.Random(1234)
    params = SeparationParams(min_depth=2, max_depth=5, max_iterations=8,
                              max_ncuts=6)
    for trial in range(8):
        n = rng.randrange(6, 11)
        g = random_graph(n, rng.choice([0.3, 0.5]), seed=rng.randrange(10 ** 6))
        alpha = len(maximum_stable_set(g).best_set)
        for procedure in ("clique", "basic", "strengthened"):
            report = cutting_plane_run(g, params, procedure, seed=trial,
                                       max_rounds=3)
            assert report.bound >= alpha - 1e-7
            assert report.z0 >= report.bound - 1e-9
            assert report.lower_bound <= alpha
            assert isinstance(report, BoundReport)


def test_unknown_procedure_rejected():
    try:
        cutting_plane_run(c5(), procedure="magic")
    except ValueError:
        pass
    else:
        assert False


def test_no_cut_already_in_the_lp_is_checked(monkeypatch):
    # two basic rounds on hamming6-4's complement separate 40 cuts, 4 of
    # them rows of the LP already
    seen = {}

    def lp(n, rows, warm=None):
        seen["rows"] = rows
        return lp_solve(n, rows, warm=warm)

    checked = []

    def check(g, ineq, **kw):
        in_lp = {Inequality(coeffs, rhs).key() for coeffs, rhs in seen["rows"]}
        checked.append(ineq.key() in in_lp)
        return check_validity(g, ineq, **kw)

    monkeypatch.setattr(engine, "lp_solve", lp)
    monkeypatch.setattr(engine, "check_validity", check)
    g = hamming_graph(6, 4).complement(name="hamming6-4")
    report = cutting_plane_run(g, procedure="basic", max_rounds=2)
    assert report.rounds == 2
    assert checked and not any(checked)
