"""Spans around the public calls of each stabcut layer, from outside the
program.

For the length of a traced operation, the module attributes that `engine`,
`separation` and `lifting` look up at call time are replaced with wrappers
that record one span per call: name, start, end, the span that caused it and
the operation it belongs to. Nothing under `src/` changes, and the originals
are put back afterwards.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from stabcut import engine, lifting, separation
from stabcut.lifting import LiftingAborted


def _lp_note(args, kwargs, res):
    # the engine calls lp_solve(n, rows, warm=...)
    return {"pivots": res.iterations, "rows": len(args[1])}


def _sep_note(args, kwargs, out):
    return {"iterations": out.iterations_used, "failed": out.failed_iterations,
            "cuts": len(out.cuts)}


def _run_note(args, kwargs, rep):
    return {"rounds": rep.rounds, "cuts_added": rep.cuts_added}


def _pool_note(args, kwargs, res):
    return {"violated": len(res[1])}


# (module, attribute, span name, note on the result). The span names follow
# the layer a call belongs to, not the module that happens to define it:
# build_clique_pool lives in separation.py but is the clique pool.
TARGETS = [
    (engine, "cutting_plane_run", "engine.run", _run_note),
    (engine, "edge_clique_cover", "engine.cover", None),
    (engine, "lp_solve", "simplex.lp_solve", _lp_note),
    (engine, "build_clique_pool", "cliques.pool", _pool_note),
    (separation, "build_clique_pool", "cliques.pool", _pool_note),
    (separation, "enumerate_cliques_bounded", "cliques.enum", None),
    (engine, "sep_for_stab", "separation.sep_for_stab", _sep_note),
    (separation, "sep_for_stab", "separation.sep_for_stab", _sep_note),
    (separation, "extend_trace", "projection.extend_trace",
     lambda a, k, r: {"false_edges": len(r.steps[-1].false_edges)}),
    (separation, "basic_lift", "lifting.lift", None),
    (separation, "strengthened_lift", "lifting.lift", None),
    (engine, "check_validity", "lifting.check_validity", None),
    (lifting, "check_validity", "lifting.check_validity", None),
    (lifting, "max_weight_stable_set", "mwss.solve", None),
    (lifting, "solve_constrained", "mwss.solve", None),
]


class Tracer:
    """Spans of one traced operation, kept in memory."""

    def __init__(self, op):
        self.op = op
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, note):
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "parent":
                    self._stack[-1]["id"] if self._stack else None,
                    "op": self.op, "name": name, "child_s": 0.0}
            self.spans.append(span)
            self._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            else:
                if note is not None:
                    span.update(note(args, kwargs, result))
                return result
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1]["child_s"] += span["end"] - span["start"]
        return traced

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the length of a with block."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in TARGETS]
        try:
            for mod, attr, name, note in TARGETS:
                setattr(mod, attr, self.wrap(name, getattr(mod, attr), note))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)


def layer_metrics(spans):
    """Per-layer figures of one traced round, as (value, unit) by name.
    Self time is a span's time minus the time of its child spans."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    parents = {s["id"]: s["name"] for s in spans}

    def group(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s["end"] - s["start"] for s in group(name))

    def self_s(name):
        return sum(s["end"] - s["start"] - s["child_s"] for s in group(name))

    def field(name, key):
        return sum(s.get(key, 0) for s in group(name))

    def errors(name, kind):
        return sum(1 for s in group(name) if s.get("error") == kind)

    def ratio(a, b):
        return a / b if b else 0.0

    lp, runs = group("simplex.lp_solve"), group("engine.run")
    # rows of each run's last LP: the size the LP grew to
    last_rows = {}
    for s in lp:
        last_rows[s["op"]] = s["rows"]
    solves = group("mwss.solve")
    lifts, checks = group("lifting.lift"), group("lifting.check_validity")
    in_lift = [s for s in solves if parents.get(s["parent"]) == "lifting.lift"]
    in_check = [s for s in solves
                if parents.get(s["parent"]) == "lifting.check_validity"]
    pivots = field("simplex.lp_solve", "pivots")
    projections = group("projection.extend_trace")
    iterations = field("separation.sep_for_stab", "iterations")
    cuts = field("separation.sep_for_stab", "cuts")
    m = {
        "simplex.calls": (len(lp), "count"),
        "simplex.s": (total("simplex.lp_solve"), "s"),
        "simplex.pivots": (pivots, "count"),
        "simplex.ms_per_pivot": (ratio(1000 * total("simplex.lp_solve"), pivots), "ms"),
        "engine.rows_final": (sum(last_rows.values()), "count"),
        "projection.calls": (len(projections), "count"),
        "projection.s": (total("projection.extend_trace"), "s"),
        "projection.rejected": (errors("projection.extend_trace", "ValueError"), "count"),
        "projection.false_edges": (field("projection.extend_trace", "false_edges"), "count"),
        "projection.degenerate": (sum(1 for s in projections if s.get("false_edges") == 0),
                                  "count"),
        "lifting.lift_calls": (len(lifts), "count"),
        "lifting.lift_self_s": (self_s("lifting.lift"), "s"),
        "lifting.factor_solves": (len(in_lift), "count"),
        "lifting.lift_aborted": (errors("lifting.lift", LiftingAborted.__name__), "count"),
        "lifting.lift_yield": (ratio(cuts, len(lifts)), "ratio"),
        "lifting.check_calls": (len(checks), "count"),
        "lifting.check_s": (total("lifting.check_validity"), "s"),
        "lifting.check_bnb": (len({s["parent"] for s in in_check}), "count"),
        "lifting.check_aborted": (errors("lifting.check_validity",
                                         LiftingAborted.__name__), "count"),
        "mwss.calls": (len(solves), "count"),
        "mwss.s_in_lift": (sum(s["end"] - s["start"] for s in in_lift), "s"),
        "mwss.s_in_check": (sum(s["end"] - s["start"] for s in in_check), "s"),
        "cliques.pool_calls": (len(group("cliques.pool")), "count"),
        "cliques.pool_s": (total("cliques.pool"), "s"),
        "cliques.pool_violated": (field("cliques.pool", "violated"), "count"),
        "cliques.enum_calls": (len(group("cliques.enum")), "count"),
        "cliques.enum_s": (total("cliques.enum"), "s"),
        "separation.calls": (len(group("separation.sep_for_stab")), "count"),
        "separation.self_s": (self_s("separation.sep_for_stab"), "s"),
        "separation.iterations": (iterations, "count"),
        "separation.failed_iterations": (field("separation.sep_for_stab", "failed"), "count"),
        "separation.cuts": (cuts, "count"),
        "separation.cuts_per_iteration": (ratio(cuts, iterations), "ratio"),
        "engine.rounds": (sum(s.get("rounds", 0) for s in runs), "count"),
        "engine.cuts_added": (sum(s.get("cuts_added", 0) for s in runs), "count"),
        "engine.cover_s": (total("engine.cover"), "s"),
        "engine.self_s": (self_s("engine.run"), "s"),
    }
    return m
