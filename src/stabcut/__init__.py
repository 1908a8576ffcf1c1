"""Cutting planes for the maximum stable set problem.

Clique projection and sequential lifting generate rank and weighted-rank
inequalities; a cutting-plane loop over a self-contained LP core turns them
into upper bounds; exact enumeration-based tooling certifies validity and
facetness on small graphs.
"""

from __future__ import annotations

from .benchmarks import BENCHMARKS, KNOWN_OPTIMA
from .engine import BoundReport, cutting_plane_run
from .facets import (
    FacetWitness,
    condition_report,
    face_dimension,
    facet_report,
    find_witnesses,
    level_dimensions,
    witness_from_trace,
)
from .graph import Graph, parse_dimacs, random_graph, read_dimacs, serialize_dimacs
from .lifting import (
    Inequality,
    LiftedCut,
    basic_lift,
    check_validity,
    clique_inequality,
    cut_from_json,
    cut_to_json,
    strengthened_lift,
)
from .mwss import max_weight_stable_set, maximum_stable_set
from .projection import (
    ProjectionTrace,
    clique_project,
    extend_trace,
    is_projectable_edge,
    trace_from_json,
    trace_to_json,
)
from .separation import SeparationParams, sep_for_stab
from .simplex import lp_solve

__version__ = "0.1.0"

__all__ = [
    "BENCHMARKS",
    "KNOWN_OPTIMA",
    "BoundReport",
    "FacetWitness",
    "Graph",
    "Inequality",
    "LiftedCut",
    "ProjectionTrace",
    "SeparationParams",
    "basic_lift",
    "check_validity",
    "clique_inequality",
    "clique_project",
    "condition_report",
    "cut_from_json",
    "cut_to_json",
    "cutting_plane_run",
    "extend_trace",
    "is_projectable_edge",
    "face_dimension",
    "facet_report",
    "find_witnesses",
    "level_dimensions",
    "lp_solve",
    "max_weight_stable_set",
    "maximum_stable_set",
    "parse_dimacs",
    "random_graph",
    "read_dimacs",
    "sep_for_stab",
    "serialize_dimacs",
    "strengthened_lift",
    "trace_from_json",
    "trace_to_json",
    "witness_from_trace",
    "__version__",
]
