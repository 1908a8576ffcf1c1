"""Inequalities over stable set polytopes and their sequential lifting.

A lift starts from a clique inequality on the last graph of a projection
trace and walks the trace backwards; at step t the running inequality f_t
gains a multiple of (x(W_t) - 1), with the factor chosen so the result stays
valid one level down. Two factor rules are provided: the basic rule solves a
plain stable set problem on the projected graph, the strengthened rule solves
a side-constrained one on the base graph.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .graph import Graph
from .mwss import max_weight_stable_set, solve_constrained
from .projection import ProjectionTrace, trace_from_json, trace_to_json

EPS = 1e-9
# search nodes shared by all factor solves of one lift
LIFT_MAX_NODES = 200_000


class LiftingAborted(RuntimeError):
    """A factor solve ran out of budget; the candidate cut is dropped."""


class Inequality:
    """Sparse form of sum(coeffs[v] * x_v) <= rhs; zero coefficients vanish."""

    def __init__(self, coeffs, rhs):
        self.coeffs = {v: c for v, c in dict(coeffs).items() if c != 0}
        self.rhs = rhs

    def key(self):
        return (tuple(sorted(self.coeffs.items())), self.rhs)

    def __eq__(self, other):
        return isinstance(other, Inequality) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "Inequality(%s)" % self.to_text()

    @property
    def support(self):
        return tuple(sorted(self.coeffs))

    def as_weights(self, n: int):
        w = [0] * n
        for v, c in self.coeffs.items():
            w[v] = c
        return w

    def value(self, point) -> float:
        return sum(c * point[v] for v, c in self.coeffs.items())

    def violation(self, point) -> float:
        return self.value(point) - self.rhs

    def add_step(self, w, lam) -> Inequality:
        """f + lam * (x(w) - 1): coefficients go up by lam on w, rhs by lam."""
        coeffs = dict(self.coeffs)
        for v in w:
            coeffs[v] = coeffs.get(v, 0) + lam
        return Inequality(coeffs, self.rhs + lam)

    def normalized(self) -> Inequality:
        """Divide through by the gcd when everything is integral."""
        values = list(self.coeffs.values()) + [self.rhs]
        if not self.coeffs or not all(isinstance(c, int) for c in values):
            return self
        g = 0
        for c in values:
            g = math.gcd(g, abs(c))
        if g <= 1:
            return self
        return Inequality({v: c // g for v, c in self.coeffs.items()}, self.rhs // g)

    def to_text(self) -> str:
        if not self.coeffs:
            return "0 <= %s" % (self.rhs,)
        parts = []
        for v in self.support:
            c = self.coeffs[v]
            term = "x%d" % v if abs(c) == 1 else "%s*x%d" % (abs(c), v)
            if not parts:
                parts.append(term if c > 0 else "-" + term)
            else:
                parts.append(("+ " if c > 0 else "- ") + term)
        return "%s <= %s" % (" ".join(parts), self.rhs)

    def to_json(self) -> str:
        return json.dumps({"coeffs": {str(v): c for v, c in sorted(self.coeffs.items())},
                           "rhs": self.rhs})

    @classmethod
    def from_json(cls, text: str) -> Inequality:
        """Read to_json's form; every key must be a vertex written as
        to_json writes it, and every coefficient and the right side a finite
        JSON number."""
        payload = json.loads(text)
        coeffs, rhs = payload["coeffs"], payload["rhs"]
        for c in list(coeffs.values()) + [rhs]:
            if type(c) not in (int, float) or not math.isfinite(c):
                raise ValueError("%r is not a finite int or float" % (c,))
        for key in coeffs:
            if key != str(int(key)):
                raise ValueError("vertex key %r is not written as to_json "
                                 "writes it" % (key,))
        return cls({int(key): c for key, c in coeffs.items()}, rhs)


def clique_inequality(w) -> Inequality:
    if not w:
        raise ValueError("empty clique inequality")
    return Inequality({v: 1 for v in w}, 1)


@dataclass
class LiftedCut:
    """A fully lifted inequality plus everything needed to replay it."""

    inequality: Inequality
    trace: ProjectionTrace
    seed: tuple
    factors: tuple
    procedure: str

    def level_form(self, t: int) -> Inequality:
        """The running inequality f_t, replayed from the seed."""
        if not (0 <= t <= self.trace.r):
            raise IndexError("no level %d in a %d step lift" % (t, self.trace.r))
        f = clique_inequality(self.seed)
        for j in range(self.trace.r, t, -1):
            f = f.add_step(self.trace.cliques[j - 1], self.factors[j - 1])
        return f


def _lift(trace, seed, procedure, solve_step):
    """The lifting frame shared by both procedures: walk the trace backwards
    from the seed clique inequality, asking solve_step(trace, t, f, max_nodes)
    for the stable set solve that fixes the factor of step t. The solves
    share LIFT_MAX_NODES search nodes, each getting what the earlier ones
    left. An infeasible solve contributes factor 0, any other the gap to the
    right side. The seed must be distinct vertices of the final graph."""
    seed = tuple(sorted(seed))
    smask = trace.final_graph.vertex_mask(seed)
    if not smask or not trace.final_graph.is_clique(smask):
        raise ValueError("seed %r is not a clique of the final graph" % (seed,))
    nodes_left = LIFT_MAX_NODES
    f = clique_inequality(seed)
    factors = []
    for t in range(trace.r, 0, -1):
        res = solve_step(trace, t, f, nodes_left)
        if not res.proven_optimal:
            raise LiftingAborted("lifting node budget exhausted at step %d" % t)
        nodes_left -= res.nodes
        lam = 0 if res.infeasible else res.best_value - f.rhs
        factors.append(lam)
        f = f.add_step(trace.cliques[t - 1], lam)
    factors.reverse()
    return LiftedCut(f, trace, seed, tuple(factors), procedure)


def _basic_step(trace, t, f, max_nodes):
    g = trace.graph_at(t - 1)
    return max_weight_stable_set(g, f.as_weights(g.n), avoid=trace.masks[t - 1],
                                 max_nodes=max_nodes)


def _strengthened_step(trace, t, f, max_nodes):
    return solve_constrained(trace.base, f.as_weights(trace.base.n),
                             covers=trace.masks[:t - 1],
                             avoid=trace.masks[t - 1], max_nodes=max_nodes)


def basic_lift(trace: ProjectionTrace, seed) -> LiftedCut:
    """Lift the inequality of seed, a clique of the final graph (W_{t+1} of a
    longer walk lifts over trace.prefix(t)), with factors solved on the
    projected graphs: at step t, maximize f_t over stable sets of
    graph_at(t-1) that avoid W_t, and move by the gap to the right side.
    Nonpositive coefficients are dropped inside the solver; stable sets are
    closed under removal, so the optimum is unchanged."""
    return _lift(trace, seed, "basic", _basic_step)


def strengthened_lift(trace: ProjectionTrace, seed) -> LiftedCut:
    """Lift the inequality of seed, a clique of the final graph, with factors
    solved on the base graph under side constraints: at step t, maximize f_t
    over stable sets of the base graph that meet each of W_1 .. W_{t-1}
    exactly once and avoid W_t. An empty feasible region gives factor 0."""
    return _lift(trace, seed, "strengthened", _strengthened_step)


def cut_to_json(cut: LiftedCut) -> str:
    """Serialize a lifted cut with everything needed to replay it."""
    payload = {
        "inequality": json.loads(cut.inequality.to_json()),
        "trace": json.loads(trace_to_json(cut.trace)),
        "seed": list(cut.seed),
        "factors": list(cut.factors),
        "procedure": cut.procedure,
    }
    return json.dumps(payload, indent=1)


def cut_from_json(text: str) -> LiftedCut:
    """Rebuild a lifted cut from its JSON form. The stored inequality is
    taken at face value; replay_consistent() tells whether it still matches
    the seed and factors."""
    payload = json.loads(text)
    ineq = Inequality.from_json(json.dumps(payload["inequality"]))
    trace = trace_from_json(json.dumps(payload["trace"]))
    return LiftedCut(ineq, trace, tuple(payload["seed"]),
                     tuple(payload["factors"]), payload["procedure"])


def replay_consistent(cut: LiftedCut) -> bool:
    """Whether the stored inequality equals the one its seed and factors
    reproduce; False flags a tampered or stale file."""
    if len(cut.factors) != cut.trace.r:
        return False
    replayed = cut.level_form(0)
    return (replayed.coeffs == cut.inequality.coeffs
            and replayed.rhs == cut.inequality.rhs)


@dataclass
class ValidityReport:
    valid: bool
    lhs_max: float
    witness: tuple


def check_validity(g: Graph, ineq: Inequality, time_budget=None,
                   max_nodes=None) -> ValidityReport:
    """Exact validity of ineq over the stable sets of g, by branch and bound
    over its positive support; the reported witness attains lhs_max. Raises
    ValueError for a vertex outside 0..n-1, and LiftingAborted when the
    search runs out of seconds or nodes."""
    g.vertex_mask(ineq.coeffs)  # raises for a vertex outside g
    res = max_weight_stable_set(g, ineq.as_weights(g.n),
                                time_budget=time_budget, max_nodes=max_nodes)
    if not res.proven_optimal:
        raise LiftingAborted("validity check ran out of budget")
    return ValidityReport(res.best_value <= ineq.rhs + EPS,
                          res.best_value, res.best_set)


@dataclass
class StrengthReport:
    rhs_basic: int
    rhs_strengthened: int
    alpha_basic: float
    alpha_strengthened: float
    support_contained: bool
    last_factor_dominated: bool


def strength_report(basic: LiftedCut, strengthened: LiftedCut) -> StrengthReport:
    """Compare a paired basic/strengthened lift of the same trace and seed:
    restricted to either cut's support, the best weighted stable set of the
    base graph sits between the two right hand sides."""
    if basic.trace is not strengthened.trace and basic.trace != strengthened.trace:
        raise ValueError("cuts come from different traces")
    if tuple(basic.seed) != tuple(strengthened.seed):
        raise ValueError("cuts come from different seeds")
    g = basic.trace.base
    out = []
    for cut in (basic, strengthened):
        res = max_weight_stable_set(g, cut.inequality.as_weights(g.n))
        out.append(res.best_value)
    hb = set(basic.inequality.support)
    hs = set(strengthened.inequality.support)
    # only the last factor is comparable: both procedures maximize the seed
    # inequality there, and the side-constrained region is the smaller one.
    # The exception is a seed inside the last clique whose side-constrained
    # region is empty: the strengthened factor is then 0 and the basic -1
    dominated = (not basic.factors
                 or strengthened.factors[-1] <= basic.factors[-1])
    return StrengthReport(
        rhs_basic=basic.inequality.rhs,
        rhs_strengthened=strengthened.inequality.rhs,
        alpha_basic=out[0],
        alpha_strengthened=out[1],
        support_contained=hs <= hb,
        last_factor_dominated=dominated,
    )
