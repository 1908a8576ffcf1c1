"""Only an LP solve loads numpy.

Separation, cut checks and facet checks are combinatorial, so a process
that runs only those should not pay for numpy and OpenBLAS, nor for the
process pool that `bound --jobs` starts. pytest's own process cannot show
this, since test_simplex.py imports numpy at collection: the checks run in
a fresh interpreter, which reports what it loaded as one JSON line.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "data", "golden")
WATCHED = ("numpy", "multiprocessing")

CHILD = r"""
import contextlib, io, json, random, sys

import stabcut
from stabcut import cli
from stabcut.benchmarks import BENCHMARKS
from stabcut.engine import VERIFY_MAX_NODES
from stabcut.graph import random_graph
from stabcut.lifting import check_validity
from stabcut.separation import SeparationParams, sep_for_stab


def loaded():
    return [m for m in %(watched)r if m in sys.modules]


report = {"on_import": loaded()}

rng = random.Random(7)
g = random_graph(30, 0.35, seed=7)
point = [round(rng.random(), 3) for _ in range(g.n)]
params = SeparationParams(min_violation=0.01, max_iterations=20)
cuts = []
for procedure in ("basic", "strengthened"):
    out = sep_for_stab(g, point, params, procedure, rng=random.Random(1))
    cuts += out.cuts
report["cuts"] = len(cuts)
report["valid"] = sum(check_validity(g, cut.inequality,
                                     max_nodes=VERIFY_MAX_NODES).valid
                      for cut in cuts)
report["after_separation"] = loaded()

half = "0.5,0.5,0.5,0.5,0.5"
commands = [
    ["verify", "c5.clq", "c5_cut.json", "--point", half],
    ["separate", "c5.clq", "--point", half, "--format", "json"],
    ["facet-check", "example8_trace.json", "--find",
     "--lift-seed", "1,4,5,6,7", "--format", "json"],
]
report["codes"] = []
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        report["codes"].append(cli.main(argv))
report["after_cli"] = loaded()

run = stabcut.cutting_plane_run(BENCHMARKS["MANN_a9"]().complement(),
                                procedure="clique")
report["lp_bound"] = run.bound
report["after_lp"] = loaded()
print(json.dumps(report))
"""


def test_only_an_lp_solve_loads_numpy():
    path = os.path.join(ROOT, "src")
    if os.environ.get("PYTHONPATH"):
        path += os.pathsep + os.environ["PYTHONPATH"]
    proc = subprocess.run(
        [sys.executable, "-c", CHILD % {"watched": WATCHED}],
        cwd=GOLDEN, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["on_import"] == []
    # the separation calls found cuts, and the oracle passed every one
    assert report["cuts"] > 0
    assert report["valid"] == report["cuts"]
    assert report["after_separation"] == []
    assert report["codes"] == [0, 0, 0]
    assert report["after_cli"] == []
    assert abs(report["lp_bound"] - 18.0) <= 1e-6
    assert "numpy" in report["after_lp"]
