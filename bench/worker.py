"""Run one benchmark operation in a fresh process; run.py starts it.

    python3 bench/worker.py --workload tail-separate --op MANN_a9-r1/basic --trace 0

Builds the workload's inputs, runs the named operation once, and writes a
pickled dict to standard output: the set-up time, the operation's time, its
output or the traceback it raised, the process's peak resident memory and,
when traced, the spans. Run from the repository root.

Each operation gets a process of its own because on a shared machine the
speed of a process can be set when it starts: the same pure-Python loop ran
up to 40 % slower in one process than in the next, while staying within a
few percent inside each. A round's time then sums over many processes
rather than resting on one.
"""

from __future__ import annotations

import argparse
import contextlib
import pickle
import resource
import sys
import time
import traceback
from pathlib import Path


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--op", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    out, sys.stdout = sys.stdout.buffer, sys.stderr

    sys.path.insert(0, str(Path.cwd() / "src"))
    from spans import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    start = time.perf_counter()
    state = workload.setup()
    setup_s = time.perf_counter() - start
    op = next(o for o in workload.ops(state) if o.name == args.op)

    tracer = Tracer(op.name) if args.trace else None
    output = error = None
    with tracer.installed() if tracer else contextlib.nullcontext():
        start = time.perf_counter()
        try:
            output = op.run()
        except Exception:
            error = traceback.format_exc()
        wall = time.perf_counter() - start
    pickle.dump({
        "setup_s": setup_s,
        "wall": wall,
        "output": output,
        "error": error,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "spans": tracer.spans if tracer else None,
    }, out)


if __name__ == "__main__":
    main()
