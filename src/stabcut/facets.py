"""Facet certification for projection-lifted inequalities.

A witness is a k-partition of the vertices touched by the walk cliques plus
the leftover "outside" vertices. The condition checkers test the structural
requirements under which every level form of a lifted cut defines a facet of
its level face; the dimension oracle verifies such claims exactly on small
graphs by enumerating stable sets and computing affine ranks over rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graph import Graph, bits, mask_of
from .lifting import Inequality, LiftedCut
from .mwss import enumerate_stable_sets
from .projection import ProjectionTrace

ORACLE_LIMIT = 16
# find_witnesses searches labelings of walks with cliques of at most this size
WITNESS_MAX_K = 3


@dataclass
class FacetWitness:
    k: int
    classes: tuple
    outside: tuple
    representative: tuple = None

    def to_payload(self):
        payload = {"k": self.k, "classes": [list(c) for c in self.classes]}
        if self.representative is not None:
            payload["representative"] = list(self.representative)
        return payload


def witness_from_trace(trace: ProjectionTrace, classes,
                       representative=None) -> FacetWitness:
    """The witness with these classes for the trace's walk. The classes must
    be disjoint vertex sets of the base graph that cover exactly the walk's
    cliques; a representative picks one vertex of each class but the last."""
    g = trace.base
    classes = tuple(tuple(sorted(c)) for c in classes)
    masks = [g.vertex_mask(c) for c in classes]
    seen = 0
    for c in masks:
        if seen & c:
            raise ValueError("classes overlap")
        seen |= c
    if seen != mask_of(v for w in trace.cliques for v in w):
        raise ValueError("classes must cover exactly the clique union")
    k = len(classes)
    rep = None
    if representative is not None:
        rmask = g.vertex_mask(representative)
        if any((rmask & c).bit_count() != (i < k - 1)
               for i, c in enumerate(masks)):
            raise ValueError("representative must pick one vertex per "
                             "class except the last")
        if rmask & ~seen:
            raise ValueError("representative has stray vertices")
        rep = tuple(bits(rmask))
    return FacetWitness(k, classes, tuple(bits(g.full_mask & ~seen)), rep)


@dataclass
class DimensionCertificate:
    affine_dim: int
    witness_points: list


def _restricted(trace, witness, t):
    """Level-t view as masks: classes cut down to the first t cliques' union,
    outside widened to everything not yet touched."""
    union = mask_of(v for w in trace.cliques[:t] for v in w)
    classes = [mask_of(c) & union for c in witness.classes]
    return classes, trace.base.full_mask & ~union


def check_interWV(trace: ProjectionTrace, witness: FacetWitness,
                  t: int) -> bool:
    """Each of the first t cliques meets every class exactly once."""
    classes = [mask_of(c) for c in witness.classes]
    return all(w.bit_count() == witness.k
               and all((w & c).bit_count() == 1 for c in classes)
               for w in trace.masks[:t])


def check_condition_I(trace: ProjectionTrace, witness: FacetWitness,
                      t: int) -> bool:
    """W_t has k vertices and the level-t classes are stable in the graph the
    t-th projection was performed on."""
    if len(trace.cliques[t - 1]) != witness.k:
        return False
    g = trace.graph_at(t - 1)
    classes, _ = _restricted(trace, witness, t)
    return all(g.is_stable(c) for c in classes)


def check_strong_hypertree(trace: ProjectionTrace, witness: FacetWitness,
                           t: int = None) -> bool:
    """Backtracking elimination over the first t cliques (all by default):
    repeatedly remove a vertex that lies in a single clique sharing exactly
    k-1 vertices with another clique, together with that clique, until one
    clique covering everything remains."""
    edges = trace.masks[:t]
    if not edges:
        return True
    k = witness.k
    start = frozenset(edges)
    verts = mask_of(v for w in trace.cliques[:t] for v in w)
    memo = {}

    def solve(vs, es):
        key = (vs, es)
        if key in memo:
            return memo[key]
        if len(es) == 1:
            result = next(iter(es)) == vs
        else:
            result = False
            for wi in es:
                rest = es - {wi}
                if not any((wi & wj).bit_count() == k - 1 for wj in rest):
                    continue
                covered = 0
                for w in rest:
                    covered |= w
                private = wi & ~covered
                if private.bit_count() != 1:
                    continue
                if solve(vs & ~private, rest):
                    result = True
                    break
        memo[key] = result
        return result

    return solve(verts, start)


def check_condition_III(trace: ProjectionTrace, witness: FacetWitness,
                        t: int) -> bool:
    """Every vertex outside the first t cliques has some class none of whose
    members neighbor it in the graph of the t-th projection."""
    g = trace.graph_at(t - 1)
    classes, outside = _restricted(trace, witness, t)
    return all(any(not g.adj[w] & c for c in classes) for w in bits(outside))


def condition_iv_holds_for(trace: ProjectionTrace, witness: FacetWitness,
                           v: int, w: int, i: int) -> bool:
    """The two-branch routing for a single (class vertex v, outside vertex w)
    pair of class i: either vw is an original edge, or some clique W_t
    containing v has a tree-neighbor W_t' not containing v with a class-i
    vertex already adjacent to w when step t' was performed, with W_t a
    clique of that same graph."""
    if trace.base.has_edge(v, w):
        return True
    bit = 1 << v
    vi = mask_of(witness.classes[i])
    for wt in trace.masks:
        if not wt & bit:
            continue
        # the tree neighbors of W_t not containing v; W_t itself contains v
        for tp, wp in enumerate(trace.masks):
            if wp & bit or (wt & wp).bit_count() != witness.k - 1:
                continue
            gp = trace.graph_at(tp)
            if gp.is_clique(wt) and gp.adj[w] & wp & vi:
                return True
    return False


def check_condition_IV(trace: ProjectionTrace, witness: FacetWitness) -> bool:
    """Every final-graph edge from an outside vertex into one of the first
    k-1 classes must be routable per pair."""
    gr = trace.final_graph
    outside = mask_of(witness.outside)
    return all(condition_iv_holds_for(trace, witness, v, w, i)
               for i in range(witness.k - 1) for v in witness.classes[i]
               for w in bits(gr.adj[v] & outside))


def check_condition_V(trace: ProjectionTrace, witness: FacetWitness) -> bool:
    """No vertex of the last class touches an outside vertex in the final
    projected graph."""
    gr = trace.final_graph
    outside = mask_of(witness.outside)
    return not any(gr.adj[v] & outside for v in witness.classes[-1])


def check_seed(trace: ProjectionTrace, witness: FacetWitness, seed) -> bool:
    """The seed must be a maximal clique of the final graph avoiding the last
    class entirely."""
    gr = trace.final_graph
    smask = mask_of(seed)
    if not smask or not gr.is_clique(smask) \
            or smask & mask_of(witness.classes[-1]):
        return False
    return not any(gr.adj[v] & smask == smask
                   for v in bits(gr.full_mask & ~smask))


def _face(g: Graph, masks=(), equalities=()):
    """The one face filter: the stable sets of g, as masks, that meet each
    given mask exactly once and satisfy each given inequality at equality.
    It enumerates, so g may have at most ORACLE_LIMIT vertices."""
    if g.n > ORACLE_LIMIT:
        raise ValueError("faces are listed by enumeration; n must be <= %d"
                         % ORACLE_LIMIT)
    return [s for s in enumerate_stable_sets(g)
            if all((s & m).bit_count() == 1 for m in masks)
            and all(_tight(ineq, s) for ineq in equalities)]


def _tight(ineq: Inequality, s: int) -> bool:
    return sum(c for v, c in ineq.coeffs.items() if s >> v & 1) == ineq.rhs


def _affine_basis(n, face):
    """Exact affine rank of the face's stable sets as 0/1 points of length
    n, with the spanning subset used."""
    points = [tuple(s >> v & 1 for v in range(n)) for s in face]
    if not points:
        return -1, []
    base = points[0]
    chosen = [base]
    rows = []
    pivots = []
    for p in points[1:]:
        vec = [Fraction(a - b) for a, b in zip(p, base)]
        for row, piv in zip(rows, pivots):
            if vec[piv]:
                f = vec[piv]
                vec = [a - f * b for a, b in zip(vec, row)]
        piv = next((j for j, a in enumerate(vec) if a), None)
        if piv is None:
            continue
        inv = vec[piv]
        rows.append([a / inv for a in vec])
        pivots.append(piv)
        chosen.append(p)
    return len(rows), chosen


def face_dimension(g: Graph, equalities) -> DimensionCertificate:
    """Affine dimension of the stable sets satisfying every given inequality
    at equality, by full enumeration; -1 when the face is empty."""
    dim, chosen = _affine_basis(g.n, _face(g, equalities=equalities))
    return DimensionCertificate(dim, chosen)


def level_dimensions(trace: ProjectionTrace, t: int, form: Inequality = None):
    """Affine dimensions of the level-t face of the trace, where its first t
    walk cliques are tight, and, given an inequality, of the subface where it
    is tight too (None without one). The face is listed once; the inequality
    defines a facet of it exactly when the second is one less."""
    g = trace.base
    face = _face(g, trace.masks[:t])
    tight = None if form is None else \
        _affine_basis(g.n, [s for s in face if _tight(form, s)])[0]
    return _affine_basis(g.n, face)[0], tight


def assert_facet_of_Ft(cut: LiftedCut, t: int) -> bool:
    """Exact check that the level-t form of the cut defines a facet of the
    level-t face of its walk."""
    level = level_dimensions(cut.trace, t, cut.level_form(t))
    return facet_report({}, level).facet


def verify_class_equality(trace: ProjectionTrace, witness: FacetWitness,
                          t: int) -> bool:
    """On every integral point of the level-t face, all members of a class
    take the same value. The classes are taken as given, so pass a witness
    restricted to the level being checked."""
    classes = [mask_of(c) for c in witness.classes]
    return all(mask & c in (0, c)
               for mask in _face(trace.base, trace.masks[:t])
               for c in classes)


def verify_isomorphism(trace: ProjectionTrace, witness: FacetWitness,
                       representative=None) -> bool:
    """Check the face of the full walk is a copy of the stable set polytope
    of the final graph induced on outside vertices plus one representative
    per class except the last, by building both maps and confirming they are
    mutually inverse bijections on integral points."""
    rep = representative if representative is not None \
        else witness.representative
    if rep is None:
        raise ValueError("no representative set given")
    witness = witness_from_trace(trace, witness.classes, rep)
    rep = mask_of(witness.representative)
    outside = mask_of(witness.outside)
    keep = outside | rep
    sub_points = {s for s in _face(trace.final_graph) if not s & ~keep}
    face = _face(trace.base, trace.masks)
    # equal counts, distinct images inside sub_points and the round trip
    # make the map a bijection whose points each hold one whole class
    if len(face) != len(sub_points):
        return False
    classes = [mask_of(c) for c in witness.classes]
    images = set()
    for mask in face:
        y = mask & keep
        if y not in sub_points or y in images:
            return False
        images.add(y)
        # rebuild the face point from its image and insist it round-trips:
        # the class of a representative in y, else the last class; a point
        # holding two representatives cannot round-trip
        chosen = y & rep
        rebuilt = y & outside | next((c for c in classes if c & chosen),
                                     classes[-1])
        if rebuilt != mask:
            return False
    return True


def condition_report(trace: ProjectionTrace, witness: FacetWitness,
                     seed=None) -> dict:
    """Per-condition verdicts over the full walk."""
    r = trace.r
    ts = range(1, r + 1)
    report = {
        "interWV": all(check_interWV(trace, witness, t) for t in ts),
        "I": all(check_condition_I(trace, witness, t) for t in ts),
        "II": all(check_strong_hypertree(trace, witness, t) for t in ts),
        "III": all(check_condition_III(trace, witness, t) for t in ts),
        "IV": check_condition_IV(trace, witness),
        "V": check_condition_V(trace, witness),
    }
    if seed is not None:
        report["seed"] = check_seed(trace, witness, seed)
    return report


@dataclass
class FacetReport:
    conditions: dict
    predicted: bool
    dim_face: int
    dim_tight: int
    facet: bool
    agrees: bool


def facet_report(conditions: dict, level) -> FacetReport:
    """Predicted and exact facetness of a level form, from a witness's
    condition_report and the (face, tight subface) dimensions level_dimensions
    gave for the form, so one listing of the face serves every witness."""
    predicted = all(conditions.values())
    whole, tight = level
    facet = tight == whole - 1
    return FacetReport(conditions, predicted, whole, tight, facet,
                       facet if predicted else True)


def find_witnesses(trace: ProjectionTrace, seed=None):
    """Exhaustive witness search: all class labelings where every walk clique
    meets every class exactly once, filtered by the full condition set.
    Returns (witness, condition_report) pairs."""
    if trace.r == 0:
        return []
    sizes = {len(w) for w in trace.cliques}
    if len(sizes) != 1:
        return []
    k = sizes.pop()
    if k > WITNESS_MAX_K:
        return []
    universe = sorted({v for w in trace.cliques for v in w})
    holding = {v: [w for w in trace.cliques if v in w] for v in universe}
    found = []

    def dfs(idx, assign):
        if idx == len(universe):
            classes = [[v for v in universe if assign[v] == i]
                       for i in range(k)]
            witness = witness_from_trace(trace, classes)
            report = condition_report(trace, witness, seed)
            if all(report.values()):
                found.append((witness, report))
            return
        v = universe[idx]
        for color in range(k):
            clash = any(assign.get(u) == color
                        for w in holding[v] for u in w if u != v)
            if clash:
                continue
            assign[v] = color
            dfs(idx + 1, assign)
            del assign[v]

    dfs(0, {})
    return found
