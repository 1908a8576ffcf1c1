"""Checks of stabcut's outputs against computations made apart from it.

LP optima come from HiGHS through scipy, stable sets and cut validity from
networkx. Only run.py's own process imports this module, after the timed
rounds; the worker processes that run the operations never load scipy or
networkx.
"""

from __future__ import annotations

from functools import lru_cache

import networkx as nx
import numpy as np
from scipy.optimize import linprog

TOL = 1e-6


def as_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def cover_lp_optimum(g, cover):
    """HiGHS optimum of max x(V) over the clique rows of cover, 0 <= x <= 1,
    after checking that cover is an edge clique cover of g."""
    h = as_nx(g)
    covered = set()
    for w in cover:
        for i, u in enumerate(w):
            for v in w[i + 1:]:
                if not h.has_edge(u, v):
                    raise ValueError("cover set %r is not a clique" % (w,))
                covered.add((min(u, v), max(u, v)))
    missing = [e for e in h.edges() if (min(e), max(e)) not in covered]
    if missing:
        raise ValueError("cover misses %d edges, e.g. %r" % (len(missing), missing[0]))
    a = np.zeros((len(cover), g.n))
    for i, w in enumerate(cover):
        a[i, list(w)] = 1.0
    res = linprog(-np.ones(g.n), A_ub=a, b_ub=np.ones(len(cover)),
                  bounds=(0, 1), method="highs")
    if res.status != 0:
        raise RuntimeError("HiGHS: %s" % res.message)
    return -res.fun


def point_problems(g, x, value):
    """A final LP point lies in [0, 1]^n, meets every edge inequality and
    sums to the reported value."""
    out = []
    xs = np.asarray(x, dtype=float)
    if len(xs) != g.n:
        return ["point has %d entries for %d vertices" % (len(xs), g.n)]
    if xs.min() < -TOL or xs.max() > 1 + TOL:
        out.append("point leaves [0, 1]: min %r, max %r" % (xs.min(), xs.max()))
    edges = np.array(list(g.edges()), dtype=int).reshape(-1, 2)
    if len(edges):
        worst = (xs[edges[:, 0]] + xs[edges[:, 1]]).max()
        if worst > 1 + TOL:
            out.append("point breaks an edge inequality: x_u + x_v = %r" % worst)
    if abs(xs.sum() - value) > TOL:
        out.append("point sums to %r, reported %r" % (xs.sum(), value))
    return out


def bound_problems(rep, z0_ref, alpha, max_bound=None):
    """The bound lies between alpha and the first LP value, the first LP
    value is HiGHS's, and the bound meets the instance's target if any."""
    out = []
    if abs(rep.z0 - z0_ref) > TOL:
        out.append("z0 %r, HiGHS %r" % (rep.z0, z0_ref))
    if rep.bound > rep.z0 + TOL:
        out.append("bound %r above z0 %r" % (rep.bound, rep.z0))
    if rep.bound < alpha - TOL:
        out.append("bound %r below alpha %d" % (rep.bound, alpha))
    if max_bound is not None and rep.bound > max_bound:
        out.append("bound %r above the target %r after %d rounds"
                   % (rep.bound, max_bound, rep.rounds))
    return out


def integral_problems(g, x, alpha):
    """An integral end is a stable set of size alpha."""
    chosen = [v for v, xv in enumerate(x) if xv > 0.5]
    sub = as_nx(g).subgraph(chosen)
    out = []
    if sub.number_of_edges():
        out.append("integral point is not stable: %d edges inside"
                   % sub.number_of_edges())
    if len(chosen) != alpha:
        out.append("integral point has %d vertices, alpha is %d" % (len(chosen), alpha))
    return out


def support_optimum(g_edges, ineq):
    """Heaviest stable set over the positive support of ineq, found as the
    heaviest clique of the complement of the subgraph the support induces.
    Vertices with a nonpositive coefficient never help the left side, so
    the positive support decides validity. g_edges is the graph's edge
    tuple."""
    pos = tuple(sorted((v, c) for v, c in ineq.coeffs.items() if c > 0))
    support = {v for v, _ in pos}
    return _support_optimum(
        tuple(e for e in g_edges if e[0] in support and e[1] in support), pos)


@lru_cache(maxsize=None)
def _support_optimum(edges, coeffs):
    h = nx.Graph()
    h.add_nodes_from(v for v, _ in coeffs)
    h.add_edges_from(edges)
    h = nx.complement(h)
    for v, c in coeffs:
        h.nodes[v]["weight"] = c
    return nx.max_weight_clique(h, weight="weight")[1]


def cut_problems(g_edges, ineq, point, min_violation):
    """A cut is valid over the stable sets of the graph and violated at its
    point by more than min_violation."""
    if not all(isinstance(c, int) for c in ineq.coeffs.values()):
        return ["cut has non-integer coefficients: %s" % ineq.to_text()]
    out = []
    lhs_max = support_optimum(g_edges, ineq)
    if lhs_max > ineq.rhs:
        out.append("invalid cut, a stable set reaches %r: %s" % (lhs_max, ineq.to_text()))
    violation = sum(c * point[v] for v, c in ineq.coeffs.items()) - ineq.rhs
    if not violation > min_violation:
        out.append("cut violated by %r, not more than %r" % (violation, min_violation))
    return out
