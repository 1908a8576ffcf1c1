"""The benchmark's workloads: what one round runs, and how its outputs are
checked.

A round is a fixed list of operations, each one call into the library. The
workloads stop every operation on work, never on the clock: a bound run ends
on the engine's own end conditions or on its round cap, and a separation
call on the separation parameters' iteration and cut caps.

The checking methods import `checks` when called, so that the worker
processes, which only run operations, never load scipy or networkx.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from stabcut import BENCHMARKS, KNOWN_OPTIMA, Graph, engine, lifting, separation
from stabcut.lifting import LiftingAborted
from stabcut.separation import SeparationParams

POINTS_FILE = Path(__file__).parent / "data" / "tail_points.json"


@dataclass
class Op:
    name: str
    run: Callable[[], object]


@dataclass(frozen=True)
class BoundRun:
    instance: str
    procedure: str
    max_rounds: int = 100
    # the bound the run has to reach within its round cap, if any
    target: float = None

    @property
    def name(self):
        return "%s/%s/r%d" % (self.instance, self.procedure, self.max_rounds)


class BoundWorkload:
    """Cutting-plane bound runs on the complements of named instances."""

    def __init__(self, runs):
        self.runs = runs

    def setup(self):
        return {r.instance: BENCHMARKS[r.instance]().complement(name=r.instance)
                for r in self.runs}

    def ops(self, graphs):
        def op(run):
            return lambda: engine.cutting_plane_run(
                graphs[run.instance], procedure=run.procedure,
                max_rounds=run.max_rounds)
        return [Op(r.name, op(r)) for r in self.runs]

    def failure(self, rep):
        """Why an output counts as a failed operation although it is not
        wrong, or None."""
        if rep.status == "time_limit":
            return "stopped on the wall clock after %d rounds" % rep.rounds
        return None

    def problems(self, graphs, op_name, rep, memo):
        from checks import (bound_problems, cover_lp_optimum, integral_problems,
                            point_problems)
        run = next(r for r in self.runs if r.name == op_name)
        g = graphs[run.instance]
        alpha = KNOWN_OPTIMA[run.instance]
        if run.instance not in memo:
            memo[run.instance] = cover_lp_optimum(g, engine.edge_clique_cover(g))
        out = bound_problems(rep, memo[run.instance], alpha, run.target)
        out += point_problems(g, rep.final_point, rep.bound)
        if rep.status == "integral":
            out += integral_problems(g, rep.final_point, alpha)
        return out

    def quality(self, graphs, outputs):
        """bound_sum: the final bounds; violation_sum: how far the cuts
        pushed each bound below the first LP value."""
        return (sum(rep.bound for _, rep in outputs),
                sum(rep.z0 - rep.bound for _, rep in outputs))

    def plant(self, graphs, op_name, rep):
        """Faults planted into copies of an output, each of which the
        checkers must reject."""
        from checks import bound_problems, point_problems
        run = next(r for r in self.runs if r.name == op_name)
        g = graphs[run.instance]
        alpha = KNOWN_OPTIMA[run.instance]
        low = dataclasses.replace(rep, bound=alpha - 0.5)
        x = list(rep.final_point)
        u, v = next(iter(g.edges()))
        x[u] = x[v] = 1.0
        return [("bound below alpha", bound_problems(low, rep.z0, alpha)),
                ("point breaking an edge", point_problems(g, x, sum(x)))]


@dataclass
class TailOutput:
    cuts: list        # normalized inequalities, in the order returned
    valid: list       # check_validity's verdict per cut; None when it aborted


class TailWorkload:
    """Separation at stored late-round points, then the exact validity
    oracle on every cut returned. No LP runs here."""

    procedures = ("basic", "strengthened")

    def __init__(self):
        self.params = SeparationParams()

    def setup(self):
        data = json.loads(POINTS_FILE.read_text())
        graphs = {name: Graph(spec["n"], [tuple(e) for e in spec["edges"]], name=name)
                  for name, spec in data["graphs"].items()}
        return [(p["label"], graphs[p["graph"]], p["x"]) for p in data["points"]]

    def ops(self, points):
        def op(g, x, procedure):
            def run():
                out = separation.sep_for_stab(g, x, self.params, procedure)
                cuts, valid = [], []
                for cut in out.cuts:
                    ineq = cut.inequality.normalized()
                    try:
                        verdict = lifting.check_validity(g, ineq, time_budget=10.0).valid
                    except LiftingAborted:
                        verdict = None
                    cuts.append(ineq)
                    valid.append(verdict)
                return TailOutput(cuts, valid)
            return run
        return [Op("%s/%s" % (label, proc), op(g, x, proc))
                for label, g, x in points for proc in self.procedures]

    def failure(self, out):
        return None

    def _point(self, points, op_name):
        label = op_name.rsplit("/", 1)[0]
        return next((g, x) for lab, g, x in points if lab == label)

    def problems(self, points, op_name, out, memo):
        from checks import cut_problems
        g, x = self._point(points, op_name)
        edges = memo.setdefault(g.name, tuple(g.edges()))
        found = []
        for ineq, verdict in zip(out.cuts, out.valid):
            found += cut_problems(edges, ineq, x, self.params.min_violation)
            if verdict is False:
                found.append("check_validity rejects a returned cut: %s"
                             % ineq.to_text())
        return found

    def quality(self, points, outputs):
        """bound_sum: the LP values of the stored points, fixed inputs since
        no LP runs here; violation_sum: per point and procedure, the largest
        violation among the cuts returned."""
        bound = sum(sum(x) for _, _, x in points)
        violation = 0.0
        for op_name, out in outputs:
            _, x = self._point(points, op_name)
            violation += max((sum(c * x[v] for v, c in ineq.coeffs.items()) - ineq.rhs
                              for ineq in out.cuts), default=0.0)
        return bound, violation

    def plant(self, points, op_name, out):
        from checks import cut_problems, support_optimum
        if not out.cuts:
            return []
        g, x = self._point(points, op_name)
        ineq = out.cuts[0]
        edges = tuple(g.edges())
        bad = lifting.Inequality(ineq.coeffs, support_optimum(edges, ineq) - 1)
        return [("invalid cut", cut_problems(edges, bad, x, self.params.min_violation))]


WORKLOADS = {
    "cfat-close": BoundWorkload([
        BoundRun("c-fat200-2", "strengthened"),
        BoundRun("c-fat200-1", "basic", max_rounds=2),
    ]),
    "hamming-rounds": BoundWorkload([
        BoundRun("hamming6-4", "basic", max_rounds=14, target=4.5),
        BoundRun("hamming6-4", "strengthened", max_rounds=16, target=4.5),
    ]),
    "tail-separate": TailWorkload(),
}
