from __future__ import annotations

import random

import pytest

from stabcut import lifting
from stabcut.graph import Graph, random_graph
from stabcut.lifting import (
    Inequality,
    LiftedCut,
    LiftingAborted,
    basic_lift,
    check_validity,
    clique_inequality,
    strength_report,
    strengthened_lift,
)
from stabcut.mwss import enumerate_stable_sets
from stabcut.projection import ProjectionTrace, extend_trace
from conftest import (
    EXAMPLE8_SEED,
    EXAMPLE8_W1,
    EXAMPLE8_W2,
    EXAMPLE8_W3,
    enumerated_validity,
    random_maximal_clique,
    random_trace,
)

BASIC_FINAL = Inequality({0: 2, 1: 2, 2: 2, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1}, 3)
STRENG_FINAL = Inequality({0: 1, 1: 1, 2: 2, 3: 1, 5: 1, 6: 1, 7: 1}, 2)
STRENG_F2 = Inequality({0: -1, 1: 1, 3: -1, 5: 1, 6: 1, 7: 1}, 0)


def test_inequality_basics():
    f = Inequality({0: 2, 1: 0, 2: -1}, 3)
    assert f.coeffs == {0: 2, 2: -1}
    assert f.support == (0, 2)
    assert f.value([1, 5, 2]) == 0
    assert f.violation([1, 5, 2]) == -3
    assert f == Inequality({2: -1, 0: 2, 5: 0}, 3)
    assert hash(f) == hash(Inequality({0: 2, 2: -1}, 3))
    assert f != Inequality({0: 2, 2: -1}, 4)
    g = f.add_step((1, 2), 2)
    assert g.coeffs == {0: 2, 1: 2, 2: 1} and g.rhs == 5
    assert f.coeffs == {0: 2, 2: -1}  # untouched


def test_inequality_text_and_json():
    f = Inequality({0: 2, 2: -1, 5: 1}, 3)
    assert f.to_text() == "2*x0 - x2 + x5 <= 3"
    assert Inequality({1: -2}, 0).to_text() == "-2*x1 <= 0"
    assert Inequality({}, 1).to_text() == "0 <= 1"
    assert Inequality.from_json(f.to_json()) == f


def test_normalized():
    assert Inequality({0: 2, 1: 4}, 6).normalized() == Inequality({0: 1, 1: 2}, 3)
    f = Inequality({0: 2, 1: 3}, 6)
    assert f.normalized() == f
    fr = Inequality({0: 1.5}, 3)
    assert fr.normalized() == fr


def test_clique_inequality():
    assert clique_inequality((2, 5)) == Inequality({2: 1, 5: 1}, 1)
    with pytest.raises(ValueError):
        clique_inequality(())


def test_basic_lift_worked_example(example8_trace):
    cut = basic_lift(example8_trace, seed=EXAMPLE8_SEED)
    assert cut.procedure == "basic"
    assert cut.factors == (1, 1, 0)
    assert cut.inequality == BASIC_FINAL
    assert cut.level_form(0) == cut.inequality
    assert cut.level_form(3) == clique_inequality(EXAMPLE8_SEED)
    # intermediate forms: factor 0 keeps the seed inequality one level down,
    # then each positive factor raises clique and right side together
    assert cut.level_form(2) == clique_inequality(EXAMPLE8_SEED)
    assert cut.level_form(1) == clique_inequality(EXAMPLE8_SEED).add_step(EXAMPLE8_W2, 1)


def test_strengthened_lift_worked_example(example8_trace):
    cut = strengthened_lift(example8_trace, seed=EXAMPLE8_SEED)
    assert cut.procedure == "strengthened"
    assert cut.factors == (0, 2, -1)
    assert cut.inequality == STRENG_FINAL
    assert cut.level_form(2) == STRENG_F2
    assert cut.level_form(1) == STRENG_FINAL  # last factor is 0
    # the basic result is this cut plus the clique inequality on {0, 1, 4}
    combo = cut.level_form(1).add_step((0, 1, 4), 1)
    assert combo == BASIC_FINAL


def test_lift_from_prefix(example8_trace):
    # the walk's own third clique, lifted over the first two steps
    cut = basic_lift(example8_trace.prefix(2), seed=EXAMPLE8_W3)
    assert cut.seed == EXAMPLE8_W3
    assert cut.factors == (1, 0)
    assert cut.inequality == Inequality({0: 2, 1: 1, 2: 1, 3: 1, 4: 1}, 2)
    assert cut.trace.cliques == (EXAMPLE8_W1, EXAMPLE8_W2)


def test_zero_step_lift(example8):
    trace = ProjectionTrace(example8)
    for lift in (basic_lift, strengthened_lift):
        cut = lift(trace, seed=(0, 1, 2))
        assert cut.factors == ()
        assert cut.inequality == clique_inequality((0, 1, 2))


def test_seed_must_be_clique_of_final_graph(example8, example8_trace):
    with pytest.raises(ValueError):
        basic_lift(ProjectionTrace(example8), seed=EXAMPLE8_SEED)
    with pytest.raises(ValueError):
        strengthened_lift(example8_trace, seed=())
    # fine on the full trace, where the false edges exist
    assert basic_lift(example8_trace, seed=EXAMPLE8_SEED)


@pytest.mark.parametrize("lift", [basic_lift, strengthened_lift])
@pytest.mark.parametrize("seed, message", [
    ((99,), "vertex 99 is not in 0..7"),
    ((-1,), "vertex -1 is not in 0..7"),
    ((2, 2), "vertex 2 is repeated"),
])
def test_seed_names_a_vertex_outside_or_repeated(example8_trace, lift, seed,
                                                 message):
    # a seed from outside names its bad vertex; a repeated one would be
    # stored as the cut's seed
    with pytest.raises(ValueError, match=message):
        lift(example8_trace, seed=seed)


def test_strengthened_infeasible_factor_is_zero():
    # triangle plus an isolated vertex: the second step's avoid set swallows
    # the first step's cover, so that factor solve has no feasible point
    g = Graph(4, [(0, 1), (0, 2), (1, 2)])
    trace = ProjectionTrace(g)
    trace = extend_trace(trace, (0, 1))
    assert trace.steps[0].false_edges == ((2, 3),)
    trace = extend_trace(trace, (0, 1, 2))
    cut = strengthened_lift(trace, seed=(2, 3))
    assert cut.factors == (1, 0)
    assert cut.inequality == Inequality({0: 1, 1: 1, 2: 1, 3: 1}, 2)
    assert check_validity(g, cut.inequality).valid


def test_lifted_cuts_are_valid_fuzz():
    rng = random.Random(4242)
    ran = 0
    for trial in range(30):
        n = rng.randint(5, 10)
        g = random_graph(n, rng.choice([0.35, 0.5, 0.65]), seed=7000 + trial)
        trace = random_trace(g, rng)
        if trace.r == 0:
            continue
        seed = random_maximal_clique(trace.final_graph, rng)
        for lift in (basic_lift, strengthened_lift):
            cut = lift(trace, seed=seed)
            assert all(isinstance(lam, int) for lam in cut.factors)
            assert cut.inequality.rhs == 1 + sum(cut.factors)
            report = check_validity(g, cut.inequality)
            assert report.valid, (trace.cliques, seed, cut.inequality.to_text())
            ran += 1
    assert ran >= 30


def test_strength_chain_fuzz():
    # Checked on every pair: both cuts are valid, each right side is
    # attained inside its cut's support, and the last factor of the
    # strengthened lift is at most the basic one. Right-side domination,
    # support containment and per-vertex coefficient domination are not
    # guaranteed; test_strengthened_rhs_can_exceed_basic_rhs pins a pair
    # that breaks the first and the last.
    rng = random.Random(777)
    ran = 0
    for trial in range(40):
        n = rng.randint(5, 10)
        g = random_graph(n, rng.choice([0.4, 0.55, 0.7]), seed=8000 + trial)
        trace = random_trace(g, rng)
        if trace.r == 0:
            continue
        seed = random_maximal_clique(trace.final_graph, rng)
        b = basic_lift(trace, seed=seed)
        s = strengthened_lift(trace, seed=seed)
        rep = strength_report(b, s)
        assert rep.alpha_basic == rep.rhs_basic
        assert rep.alpha_strengthened == rep.rhs_strengthened
        assert rep.last_factor_dominated
        assert check_validity(g, b.inequality).valid
        assert check_validity(g, s.inequality).valid
        ran += 1
    assert ran >= 15


def test_strengthened_rhs_can_exceed_basic_rhs():
    # both cuts are valid and tight, yet the strengthened right side is the
    # larger one, with the seed outside the last clique and no empty
    # side-constrained region; so are the strengthened coefficients of
    # vertices 1, 2 and 7 (4, 2, 4 against 2, 1, 3)
    g = random_graph(9, 0.7, seed=419283748)
    trace = ProjectionTrace(g)
    for w in ((1, 7), (1, 2, 5), (4, 5, 6)):
        trace = extend_trace(trace, w)
    seed = (0, 2, 3, 4, 5, 6, 7, 8)
    b = basic_lift(trace, seed=seed)
    s = strengthened_lift(trace, seed=seed)
    assert b.inequality == Inequality(
        {0: 1, 1: 2, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 3, 8: 1}, 3)
    assert s.inequality == Inequality(
        {0: 1, 1: 4, 2: 2, 3: 1, 5: 1, 7: 4, 8: 1}, 4)
    assert (b.factors, s.factors) == ((2, 0, 0), (3, 1, -1))
    rep = strength_report(b, s)
    assert (rep.rhs_basic, rep.rhs_strengthened) == (3, 4)
    assert (rep.alpha_basic, rep.alpha_strengthened) == (3, 4)
    assert rep.last_factor_dominated
    assert check_validity(g, b.inequality).valid
    assert check_validity(g, s.inequality).valid


def test_strength_report_on_worked_example(example8_trace):
    b = basic_lift(example8_trace, seed=EXAMPLE8_SEED)
    s = strengthened_lift(example8_trace, seed=EXAMPLE8_SEED)
    rep = strength_report(b, s)
    assert rep.rhs_basic == 3 and rep.alpha_basic == 3
    assert rep.rhs_strengthened == 2 and rep.alpha_strengthened == 2
    assert rep.support_contained and rep.last_factor_dominated
    with pytest.raises(ValueError):
        strength_report(b, strengthened_lift(example8_trace, seed=(0, 1, 2)))


def validity_cases():
    """Seeded inequalities on random graphs with n <= 14: integer, negative
    and dyadic coefficients (sums of dyadic values are exact in any order),
    right sides on both sides of the optimum, some negative, and empty
    supports."""
    rng = random.Random(6106)
    for trial in range(300):
        n = rng.randint(1, 14)
        g = random_graph(n, rng.choice([0.1, 0.3, 0.5, 0.8]), seed=9000 + trial)
        support = [v for v in range(n) if rng.random() < 0.7]
        if trial % 25 == 0:
            coeffs, rhs = {}, rng.randint(-2, 2)
        elif trial % 3 == 0:
            coeffs, rhs = {v: rng.randint(1, 5) for v in support}, rng.randint(-1, 10)
        elif trial % 3 == 1:
            coeffs, rhs = {v: rng.randint(-3, 4) for v in support}, rng.randint(-2, 8)
        else:
            coeffs = {v: rng.randint(-4, 12) / 4 for v in support}
            rhs = rng.randint(-4, 32) / 4
        yield g, Inequality(coeffs, rhs)


def test_check_validity_matches_enumeration(example8):
    valid = Inequality({0: 1, 1: 1, 2: 1}, 1)
    rep = check_validity(example8, valid)
    assert rep.valid and rep.lhs_max == 1
    invalid = Inequality({3: 1, 4: 1, 5: 1}, 2)
    rep = check_validity(example8, invalid)
    assert not rep.valid
    assert rep.lhs_max == 3
    assert set(rep.witness) == {3, 4, 5}
    # a negative right side is invalid through the empty set
    assert not check_validity(example8, Inequality({0: 1}, -1)).valid
    with pytest.raises(LiftingAborted):
        check_validity(example8, valid, max_nodes=0)

    cases = [(example8, valid), (example8, invalid),
             (example8, Inequality({0: 1}, -1))] + list(validity_cases())
    verdicts = set()
    for g, ineq in cases:
        rep = check_validity(g, ineq)
        ref = enumerated_validity(g, ineq)
        # same value and type, so that verify prints the same lhs_max column
        assert rep.valid == ref.valid, ineq
        assert rep.lhs_max == ref.lhs_max, ineq
        assert type(rep.lhs_max) is type(ref.lhs_max), ineq
        assert g.is_stable(rep.witness)
        assert sum(ineq.coeffs[v] for v in rep.witness) == rep.lhs_max
        verdicts.add((rep.valid, type(rep.lhs_max)))
    assert verdicts == {(True, int), (False, int), (True, float), (False, float)}


def test_lifting_abort_on_exhausted_budget(example8_trace, monkeypatch):
    monkeypatch.setattr(lifting, "LIFT_MAX_NODES", 0)
    with pytest.raises(LiftingAborted):
        basic_lift(example8_trace, seed=EXAMPLE8_SEED)
    with pytest.raises(LiftingAborted):
        strengthened_lift(example8_trace, seed=EXAMPLE8_SEED)
    # the factor solves of one lift share the budget: it suffices at their
    # total node count and not one node below
    for lift, solver in ((basic_lift, "max_weight_stable_set"),
                         (strengthened_lift, "solve_constrained")):
        nodes = []
        solve = getattr(lifting, solver)

        def recording_solve(*args, **kwargs):
            res = solve(*args, **kwargs)
            nodes.append(res.nodes)
            return res

        monkeypatch.setattr(lifting, solver, recording_solve)
        monkeypatch.setattr(lifting, "LIFT_MAX_NODES", 10 ** 6)
        lift(example8_trace, seed=EXAMPLE8_SEED)
        assert len(nodes) == 3 and min(nodes) >= 1
        total = sum(nodes)
        monkeypatch.setattr(lifting, "LIFT_MAX_NODES", total)
        lift(example8_trace, seed=EXAMPLE8_SEED)
        monkeypatch.setattr(lifting, "LIFT_MAX_NODES", total - 1)
        with pytest.raises(LiftingAborted):
            lift(example8_trace, seed=EXAMPLE8_SEED)
