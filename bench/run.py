"""stabcut benchmark. Run from the repository root:

    python3 bench/run.py --workload hamming-rounds --seed 1 --seconds 40 --trace 0

Runs whole rounds of the workload's operations, one operation at a time,
each in a fresh process (see worker.py), until the next round would end past
--seconds; the first round always runs. The seed fixes the order of the
operations within a round. After the timed rounds every output is checked
against computations made apart from the program, and the checkers are
themselves checked on copies of the outputs with planted faults.

With --trace 0 every round is untraced and the end-to-end metrics are
printed. With --trace 1 untraced and traced rounds alternate, the per-layer
metrics of the traced rounds are printed, and the spans of the first traced
round are written to bench/out/. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import pickle
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
OUT_DIR = BENCH / "out"
# an outer guard only: the engine's own 120 s time_limit ends a bound run first
OP_TIMEOUT_S = 170


def run_op(workload_name, op_name, traced):
    """One operation in a fresh worker process; returns the worker's dict."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload_name,
           "--op", op_name, "--trace", str(int(traced))]
    try:
        proc = subprocess.run(cmd, capture_output=True, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": "no result within %d s" % OP_TIMEOUT_S, "output": None}
    if proc.returncode != 0:
        return {"error": "worker exited with %d: %s"
                % (proc.returncode, proc.stderr.decode(errors="replace")), "output": None}
    return pickle.loads(proc.stdout)


def measure(workload_name, op_names, seconds, traced):
    """Whole rounds until the next would end past seconds. With traced,
    rounds alternate untraced and traced, and at least one of each runs."""
    rounds = []
    start = time.perf_counter()
    while True:
        round_traced = traced and len(rounds) % 2 == 1
        round_start = time.perf_counter()
        results = [(name, run_op(workload_name, name, round_traced)) for name in op_names]
        rounds.append({"traced": round_traced, "results": results,
                       "elapsed": time.perf_counter() - round_start})
        print("round %d%s: %.3f s timed, %.3f s with process starts"
              % (len(rounds), " traced" if round_traced else "",
                 typical_round(rounds[-1:]), rounds[-1]["elapsed"]), file=sys.stderr)
        elapsed = time.perf_counter() - start
        longest = max(r["elapsed"] for r in rounds)
        if elapsed + longest > seconds and (not traced or len(rounds) >= 2):
            return rounds


def typical_round(rounds):
    """One round's time built from each operation's median over the rounds,
    so that a slow spell hitting one operation in one round does not count.
    Process start and set-up are not part of it."""
    times = {}
    for rnd in rounds:
        for name, res in rnd["results"]:
            times.setdefault(name, []).append(res.get("wall", 0.0))
    return sum(statistics.median(t) for t in times.values())


def check(workload, state, rounds):
    """Count failed operations and wrong outputs. An operation fails when it
    raises, ends on the clock, or fails a check; a wrong output also makes
    the run incorrect."""
    memo = {}
    failed = wrong = 0
    for rnd in rounds:
        for name, res in rnd["results"]:
            error, out = res["error"], res["output"]
            reason = error or workload.failure(out)
            try:
                problems = [] if error else workload.problems(state, name, out, memo)
            except Exception as exc:
                problems = ["the check itself raised %r" % exc]
            if reason or problems:
                failed += 1
                wrong += bool(problems)
                print("FAILED %s: %s" % (name, reason or "; ".join(problems)),
                      file=sys.stderr)
    return failed, wrong


def checkers_catch_planted_faults(workload, state, rounds):
    """Plant faults into copies of the first round's outputs; every planted
    fault must be rejected."""
    planted = 0
    for name, res in rounds[0]["results"]:
        if res["error"]:
            continue
        for fault, problems in workload.plant(state, name, res["output"]):
            planted += 1
            if not problems:
                print("CHECKER MISSED a planted %s in %s" % (fault, name),
                      file=sys.stderr)
                return False
    if not planted:
        print("no output to plant a fault into", file=sys.stderr)
    return planted > 0


def end_to_end(workload, state, rounds):
    done = [res for rnd in rounds for _, res in rnd["results"] if not res["error"]]
    quality = [workload.quality(state, [(n, res["output"]) for n, res in rnd["results"]
                                        if not res["error"]])
               for rnd in rounds]
    return {
        "wall_s": (typical_round(rounds), "s"),
        "setup_s": (statistics.median(res["setup_s"] for res in done), "s"),
        "peak_rss_mb": (max(res["rss_mb"] for res in done), "MB"),
        "bound_sum": (statistics.median(q[0] for q in quality), "vertices"),
        "violation_sum": (statistics.median(q[1] for q in quality), "vertices"),
    }


def round_spans(rnd):
    """The spans of a round's operations, renumbered so ids are unique."""
    spans = []
    for _, res in rnd["results"]:
        offset = len(spans)
        for span in res.get("spans") or ():
            spans.append({**span, "id": span["id"] + offset,
                          "parent": None if span["parent"] is None
                          else span["parent"] + offset})
    return spans


def per_layer(rounds, spans_path):
    from spans import layer_metrics

    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    per_round = [layer_metrics(round_spans(r)) for r in traced]
    metrics = {name: (statistics.median(m[name][0] for m in per_round), unit)
               for name, (_, unit) in per_round[0].items()}
    metrics["trace.overhead_s"] = (typical_round(traced) - typical_round(plain), "s")
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_path, "w") as fh:
        for span in round_spans(traced[0]):
            fh.write(json.dumps(span) + "\n")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "stabcut" / "__init__.py").is_file():
        print("no stabcut sources under %s; run from the repository root" % src,
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r; choose from %s"
                     % (args.workload, ", ".join(WORKLOADS)))
    workload = WORKLOADS[args.workload]
    state = workload.setup()
    op_names = [op.name for op in workload.ops(state)]
    random.Random(args.seed).shuffle(op_names)

    rounds = measure(args.workload, op_names, args.seconds, bool(args.trace))
    if all(res["error"] for rnd in rounds for _, res in rnd["results"]):
        print("every operation failed; no metrics to report", file=sys.stderr)
        return 1
    failed, wrong = check(workload, state, rounds)
    checkers_ok = checkers_catch_planted_faults(workload, state, rounds)
    if args.trace:
        metrics = per_layer(rounds, OUT_DIR / ("spans-%s-seed%d.jsonl"
                                               % (args.workload, args.seed)))
    else:
        metrics = end_to_end(workload, state, rounds)
    attempted = sum(len(r["results"]) for r in rounds)
    correct = wrong == 0 and checkers_ok
    for name, (value, unit) in metrics.items():
        print("%-32s %14.6g %s" % (name, value, unit))
    print("operations: %d attempted, %d failed; outputs %s"
          % (attempted, failed, "correct" if correct else "NOT correct"))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
