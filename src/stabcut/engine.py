"""Cutting-plane driver for stable set upper bounds.

Starts from an edge clique cover LP relaxation, then alternates LP solves
with clique-pool cuts and projection-walk separation until the point goes
integral, separation dries up, or the time limit hits.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .cliques import grow_clique, rounding_lower_bound
from .graph import Graph, mask_of
from .lifting import LiftingAborted, check_validity, clique_inequality
from .separation import SeparationParams, build_clique_pool, sep_for_stab
from .simplex import LpStalled, lp_solve, rejected_coefficient

INT_TOL = 1e-6
# search nodes for the exact check of each lifted cut before it enters the LP
VERIFY_MAX_NODES = 100_000


def edge_clique_cover(g: Graph):
    """Greedy clique cover of the edge set.

    Scans for the lexicographically first uncovered edge, grows it into a
    maximal clique preferring vertices that close the most still-uncovered
    edges, and repeats until every edge sits inside some clique.
    """
    rem = list(g.adj)
    cover = []
    closes_most = lambda members, x: (-(rem[x] & members).bit_count(), x)
    for u in range(g.n):
        while rem[u]:
            v = (rem[u] & -rem[u]).bit_length() - 1
            clique = grow_clique(g, (u, v), closes_most)
            cmask = mask_of(clique)
            for a in clique:
                rem[a] &= ~cmask
            cover.append(clique)
    return cover


def classify_cut(g: Graph, ineq) -> str:
    if all(c == 1 for c in ineq.coeffs.values()):
        if ineq.rhs == 1 and g.is_clique(ineq.coeffs.keys()):
            return "clique"
        return "rank"
    return "weighted"


@dataclass
class BoundReport:
    graph: str
    n: int
    procedure: str
    z0: float
    bound: float
    lower_bound: int
    rounds: int
    cuts_added: int
    cut_counts: dict
    status: str
    wall_time: float
    final_point: list = field(default=None, repr=False)


def cutting_plane_run(g: Graph, params: SeparationParams = None,
                      procedure: str = "strengthened", time_limit: float = 120.0,
                      seed: int = 0, max_rounds: int = 100) -> BoundReport:
    """Compute an LP-based upper bound on the stability number of g.

    procedure selects what gets added each round: "clique" adds only violated
    pool cliques, "basic" and "strengthened" also run projection-walk
    separation with the matching lifting. Every lifted cut is re-verified
    against the graph before entering the LP; a cut that cannot be verified
    within VERIFY_MAX_NODES search nodes is dropped, a provably invalid one
    is a bug and raises, and a valid one whose coefficients lp_solve cannot
    take (simplex.rejected_coefficient) is dropped. Only time_limit, checked
    between rounds, reads the clock.
    """
    if procedure not in ("clique", "basic", "strengthened"):
        raise ValueError("unknown procedure %r" % procedure)
    params = params or SeparationParams()
    rng = random.Random(seed)
    start = time.monotonic()

    rows = []
    keys = set()

    def add_row(ineq):
        key = ineq.key()
        if key in keys:
            return False
        keys.add(key)
        rows.append((dict(ineq.coeffs), ineq.rhs))
        return True

    for w in edge_clique_cover(g):
        add_row(clique_inequality(w))

    z0 = None
    counts = {"clique": 0, "rank": 0, "weighted": 0}
    rounds = 0
    warm = None
    while True:
        res = lp_solve(g.n, rows, warm=warm)
        if res.status != "optimal":
            raise LpStalled("relaxation did not converge after %d pivots"
                            % res.iterations)
        warm = res.start
        x = res.x
        bound = res.value
        if z0 is None:
            z0 = bound
        if all(min(xi, 1.0 - xi) <= INT_TOL for xi in x):
            status = "integral"
            break
        if time.monotonic() - start > time_limit:
            status = "time_limit"
            break
        if rounds >= max_rounds:
            status = "round_limit"
            break
        rounds += 1

        rows_before = len(rows)
        pool, violated = build_clique_pool(g, x, params, rng)
        for w in violated:
            if add_row(clique_inequality(w)):
                counts["clique"] += 1
        if procedure != "clique":
            out = sep_for_stab(g, x, params, procedure, rng, pool=pool)
            for cut in out.cuts:
                ineq = cut.inequality.normalized()
                if ineq.key() in keys:
                    # a cover or pool clique, or a cut checked before
                    continue
                try:
                    report = check_validity(g, ineq, max_nodes=VERIFY_MAX_NODES)
                except LiftingAborted:
                    continue
                if not report.valid:
                    raise RuntimeError("separation produced an invalid cut: %s"
                                       % ineq.to_text())
                if rejected_coefficient(ineq.coeffs) is not None:
                    # too wide a coefficient range for the LP to take
                    continue
                add_row(ineq)
                counts[classify_cut(g, ineq)] += 1
        if len(rows) == rows_before:
            status = "no_more_cuts"
            break

    lb = len(rounding_lower_bound(g, x))
    return BoundReport(graph=g.name, n=g.n, procedure=procedure, z0=z0,
                       bound=bound, lower_bound=lb, rounds=rounds,
                       cuts_added=sum(counts.values()), cut_counts=counts,
                       status=status, wall_time=time.monotonic() - start,
                       final_point=x)
