"""Record the fractional points of the tail-separate workload.

Run from the repository root:

    python3 bench/record_points.py

It runs the strengthened cutting-plane loop to its own end on seeded
G(60, 0.3) graphs and keeps the LP point that separation was handed at
rounds 35, 47, 59 and 71, where that many rounds happen, and adds the first
LP point of MANN_a9's complement. The graphs' edges and the points go to
bench/data/tail_points.json, so the workload keeps its inputs when the LP
or the engine changes. Takes about three minutes on two CPUs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

GRAPH_SEEDS = (0, 1)
ROUNDS = (35, 47, 59, 71)


def separation_points(engine, g, procedure, keep):
    """Points passed to separation in the rounds listed in keep, by round."""
    seen = {}
    original = engine.sep_for_stab

    def spy(graph, point, *args, **kwargs):
        seen[len(seen) + 1] = list(point)
        return original(graph, point, *args, **kwargs)

    engine.sep_for_stab = spy
    try:
        engine.cutting_plane_run(g, procedure=procedure, time_limit=float("inf"))
    finally:
        engine.sep_for_stab = original
    return {r: x for r, x in seen.items() if r in keep}


def main():
    sys.path.insert(0, str(Path.cwd() / "src"))
    from stabcut import BENCHMARKS, engine, random_graph

    graphs, points = {}, []
    cases = [("G60-0.3-s%d" % s, random_graph(60, 0.3, s), ROUNDS) for s in GRAPH_SEEDS]
    cases.append(("MANN_a9", BENCHMARKS["MANN_a9"]().complement(name="MANN_a9"), (1,)))
    for name, g, keep in cases:
        graphs[name] = {"n": g.n, "edges": [list(e) for e in g.edges()]}
        for rnd, x in sorted(separation_points(engine, g, "strengthened", keep).items()):
            points.append({"label": "%s-r%d" % (name, rnd), "graph": name,
                           "round": rnd, "x": x})
            print("%s round %d: x(V) = %.6f" % (name, rnd, sum(x)), flush=True)
    out = Path(__file__).parent / "data" / "tail_points.json"
    out.write_text(json.dumps({"graphs": graphs, "points": points}) + "\n")
    print("wrote %d points to %s" % (len(points), out))


if __name__ == "__main__":
    main()
