"""Command line front end for bounds, separation, verification and facet checks.

Subcommands
    bound        cutting plane upper bounds on DIMACS files or named instances
    separate     one separation call at a given fractional point
    verify       replay serialized cuts through the exact validity oracle
    facet-check  condition report and dimension certificates for a trace
    bench        seeded random graph suite with per cell aggregates

Instance names resolve in three steps: an existing file path, a built-in
generator name (stabcut.benchmarks.BENCHMARKS), then a file under the
directory named by $STABCUT_INSTANCES. DIMACS inputs are clique instances,
so bound and bench solve the complement unless --no-complement is given;
separate and verify take the graph as stated unless --complement is given.

CSV schema for bound (one row per instance and procedure) and bench (one row
per cell and procedure with means over the replications):

    graph,n,density,alpha,procedure,seeds,lb,z0,bound,
    clique_cuts,rank_cuts,wrank_cuts,status,time

density is the realized edge density of the solved graph. alpha is the known
or exactly computed stability number, blank when neither is available. The
three cut count columns partition every row the run added. time stays blank
unless --with-times is given, so equal seed reruns are byte identical.

The exit status is 0 only when every bound or bench run ended on its own
before --time-limit (the engine verifies each cut it keeps) and every cut
separate or verify checks passed the oracle within VERIFY_MAX_NODES nodes.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import random
import sys
import zlib
from dataclasses import fields

from .benchmarks import BENCHMARKS, KNOWN_OPTIMA
from .engine import VERIFY_MAX_NODES, cutting_plane_run
from .facets import (
    ORACLE_LIMIT,
    condition_report,
    face_dimension,
    facet_report,
    find_witnesses,
    witness_from_trace,
)
from .graph import Graph, random_graph, read_dimacs
from .lifting import (
    Inequality,
    LiftingAborted,
    check_validity,
    clique_inequality,
    cut_from_json,
    cut_to_json,
    replay_consistent,
    strengthened_lift,
)
from .mwss import maximum_stable_set
from .projection import trace_from_json
from .separation import SeparationParams, sep_for_stab

PROCEDURES = {"c": "clique", "b": "basic", "s": "strengthened"}
EXACT_ALPHA_LIMIT = 40
COLUMNS = ["graph", "n", "density", "alpha", "procedure", "seeds", "lb",
           "z0", "bound", "clique_cuts", "rank_cuts", "wrank_cuts",
           "status", "time"]
COMPLETED = {"integral", "no_more_cuts", "round_limit"}


def _derived_seed(base: int, key: str) -> int:
    # stable across processes, unlike hash()
    return (base + zlib.crc32(key.encode())) & 0x7FFFFFFF


def _parse_procs(text: str):
    procs = []
    for part in text.split(","):
        part = part.strip()
        if part not in PROCEDURES:
            raise SystemExit("unknown procedure %r; pick from c,b,s" % part)
        if PROCEDURES[part] not in procs:
            procs.append(PROCEDURES[part])
    return procs


@contextlib.contextmanager
def _reading(path: str):
    # a missing, unreadable or malformed input file met inside the block
    # ends the command with one line on stderr that names the file and the
    # problem, and exit status 1; faults elsewhere keep their traceback
    try:
        yield
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise SystemExit("%s: %s: %s" % (path, type(exc).__name__, exc))


def _numbers(parts, kind, option: str):
    # a part that is not a number ends the command with one line on stderr
    # and exit status 1, like the other usage errors
    try:
        return [kind(p) for p in parts]
    except ValueError as exc:
        raise SystemExit("%s: %s" % (option, exc))


def _parse_point(value: str, n: int):
    if value.startswith("@"):
        with _reading(value[1:]), open(value[1:]) as fh:
            point = [float(x) for x in json.load(fh)]
    else:
        point = _numbers(value.split(","), float, "--point")
    if len(point) != n:
        raise SystemExit("point has %d entries, graph has %d vertices"
                         % (len(point), n))
    for x in point:
        if not 0.0 <= x <= 1.0:
            raise SystemExit("point entry %r outside [0, 1]" % (x,))
    return point


def _parse_vertices(value: str):
    return tuple(_numbers([p for p in value.split(",") if p.strip() != ""],
                          int, "--lift-seed"))


def load_instance(name: str, complement: bool) -> Graph:
    """Resolve an instance argument to the graph the run should solve."""
    if os.path.exists(name):
        g = read_dimacs(name)
    elif name in BENCHMARKS:
        g = BENCHMARKS[name]()
    else:
        root = os.environ.get("STABCUT_INSTANCES", "")
        for cand in (os.path.join(root, name),
                     os.path.join(root, name + ".clq"),
                     os.path.join(root, name + ".txt")):
            if root and os.path.exists(cand):
                g = read_dimacs(cand)
                break
        else:
            raise FileNotFoundError("no file, generator, or $STABCUT_INSTANCES "
                                    "entry named %r" % name)
    if complement:
        g = g.complement()
    return g


def _known_alpha(g: Graph):
    """Stability number of g when it is known or cheap, else None. The
    table's value needs g's vertex and edge counts to be those of the named
    instance's complement, which a relabelling keeps and a file name alone
    does not give."""
    suffix = "-complement"
    base = g.name[:-len(suffix)] if g.name.endswith(suffix) else g.name
    if base in KNOWN_OPTIMA:
        h = BENCHMARKS[base]()
        if (g.n, g.num_edges()) == (h.n, h.n * (h.n - 1) // 2 - h.num_edges()):
            return KNOWN_OPTIMA[base]
    if g.n <= EXACT_ALPHA_LIMIT:
        return int(maximum_stable_set(g).best_value)
    return None


def _build_params(args) -> SeparationParams:
    """SeparationParams from the flags given, whose dests are field names."""
    overrides = {f.name: getattr(args, f.name) for f in fields(SeparationParams)
                 if getattr(args, f.name) is not None}
    return SeparationParams(**overrides)


def _bound_job(job):
    """One cutting_plane_run; an exception comes back as the result."""
    g, procedure, params, time_limit, seed = job
    try:
        return cutting_plane_run(g, params=params, procedure=procedure,
                                 time_limit=time_limit, seed=seed)
    except Exception as exc:
        return exc


def _bound_row(g, alpha, rep, with_times):
    counts = [str(rep.cut_counts[k]) for k in ("clique", "rank", "weighted")]
    return [g.name or "?", str(g.n), "%.4f" % g.density(),
            "" if alpha is None else str(alpha), rep.procedure, "",
            str(rep.lower_bound), "%.6f" % rep.z0, "%.6f" % rep.bound,
            *counts, rep.status, "%.2f" % rep.wall_time if with_times else ""]


def _error_row(name, message):
    return [name, "", "", "", "", "", "", "", "", "", "", "",
            "error: %s" % message, ""]


def _emit(rows, fmt, header=COLUMNS):
    out = sys.stdout
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    elif fmt == "json":
        payload = [dict(zip(header, row)) for row in rows]
        out.write(json.dumps(payload, indent=1) + "\n")
    else:
        widths = [max(len(str(r[i])) for r in [header] + rows)
                  for i in range(len(header))]
        for row in [header] + rows:
            out.write("  ".join(str(c).ljust(w)
                                for c, w in zip(row, widths)).rstrip() + "\n")


def cmd_bound(args) -> int:
    procs = _parse_procs(args.proc)
    params = _build_params(args)
    jobs, meta = [], []
    for name in args.instances:
        try:
            g = load_instance(name, args.complement)
        except Exception as exc:
            meta.append((name, None, None, str(exc)))
            continue
        alpha = _known_alpha(g)
        for procedure in procs:
            seed = _derived_seed(args.seed, "%s:%s" % (g.name, procedure))
            jobs.append((g, procedure, params, args.time_limit, seed))
            meta.append((name, g, alpha, None))

    rows, ok = [], True
    it = iter(_run_jobs(jobs, args.jobs))
    for name, g, alpha, error in meta:
        if error is not None:
            rows.append(_error_row(name, error))
            ok = False
            continue
        outcome = next(it)
        if isinstance(outcome, Exception):
            rows.append(_error_row(name, str(outcome)))
            ok = False
            continue
        rows.append(_bound_row(g, alpha, outcome, args.with_times))
        if outcome.status not in COMPLETED:
            ok = False
    _emit(rows, args.format)
    return 0 if ok else 1


def _run_jobs(jobs, workers):
    """_bound_job over jobs, in order, on up to workers processes."""
    if workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_bound_job, jobs))
    return [_bound_job(job) for job in jobs]


def cmd_separate(args) -> int:
    with _reading(args.graph):
        g = load_instance(args.graph, args.complement)
    point = _parse_point(args.point, g.n)
    procs = _parse_procs(args.proc)
    if "clique" in procs:
        raise SystemExit("separate needs a lifting procedure; "
                         "use --proc b or --proc s")
    params = _build_params(args)
    rows, payload, ok = [], [], True
    for procedure in procs:
        rng = random.Random(_derived_seed(args.seed, procedure))
        outcome = sep_for_stab(g, point, params=params,
                               procedure=procedure, rng=rng)
        print("%s: %d cuts from %d iterations, %d projections, %d failed"
              % (procedure, len(outcome.cuts), outcome.iterations_used,
                 outcome.projections_performed, outcome.failed_iterations),
              file=sys.stderr)
        for i, cut in enumerate(outcome.cuts):
            ineq = cut.inequality
            try:
                report = check_validity(g, ineq, max_nodes=VERIFY_MAX_NODES)
                verdict = "valid" if report.valid else "INVALID"
            except LiftingAborted:
                verdict = "unverified"
            if verdict != "valid":
                ok = False
            rows.append([procedure, str(i), "%.6f" % ineq.violation(point),
                         verdict, ineq.to_text()])
            payload.append({"procedure": procedure,
                            "violation": round(ineq.violation(point), 9),
                            "verdict": verdict,
                            "cut": json.loads(cut_to_json(cut))})
    if args.format == "json":
        sys.stdout.write(json.dumps(payload, indent=1) + "\n")
    else:
        _emit(rows, args.format,
              header=["procedure", "index", "violation", "verdict", "cut"])
    return 0 if ok else 1


def cmd_verify(args) -> int:
    with _reading(args.graph):
        g = load_instance(args.graph, args.complement)
    point = _parse_point(args.point, g.n) if args.point else None
    rows, ok = [], True
    for path in args.cuts:
        try:
            with open(path) as fh:
                text = fh.read()
            data = json.loads(text)
            if isinstance(data, dict) and "inequality" in data:
                cut = cut_from_json(text)
                ineq = cut.inequality
                replay = "consistent" if replay_consistent(cut) else "MISMATCH"
            else:
                ineq = Inequality.from_json(text)
                replay = ""
            report = check_validity(g, ineq, max_nodes=VERIFY_MAX_NODES)
        except LiftingAborted:
            rows.append([path, "unverified", "", "", "", replay, "", ""])
            ok = False
            continue
        except Exception as exc:
            rows.append([path, "error: %s" % exc, "", "", "", "", "", ""])
            ok = False
            continue
        verdict = "valid" if report.valid else "INVALID"
        if not report.valid:
            ok = False
        viol = "%.6f" % ineq.violation(point) if point is not None else ""
        facet = ""
        if report.valid and g.n <= ORACLE_LIMIT:
            # the stable set polytope of g has dimension n
            facet = str(face_dimension(g, [ineq]).affine_dim == g.n - 1)
        witness = "" if report.valid else " ".join(map(str, report.witness))
        rows.append([path, verdict, str(report.lhs_max), str(ineq.rhs),
                     witness, replay, viol, facet])
    _emit(rows, args.format,
          header=["file", "verdict", "lhs_max", "rhs", "witness", "replay",
                  "violation", "facet"])
    return 0 if ok else 1


def cmd_facet_check(args) -> int:
    with _reading(args.trace), open(args.trace) as fh:
        trace = trace_from_json(fh.read())
    seed = _parse_vertices(args.lift_seed) if args.lift_seed else None
    if seed is not None:
        try:
            trace.base.vertex_mask(seed)
        except ValueError as exc:
            raise SystemExit("--lift-seed: %s" % exc)
        # the witness's cut is lifted from the seed, which --find only tests
        if args.witness and not (seed and trace.final_graph.is_clique(seed)):
            raise SystemExit("--lift-seed: %s is not a clique of the final "
                             "graph" % args.lift_seed)
    if args.witness:
        with _reading(args.witness), open(args.witness) as fh:
            payload = json.load(fh)
            witness = witness_from_trace(trace, payload["classes"],
                                         payload.get("representative") or None)
        found = [(witness, condition_report(trace, witness, seed=seed))]
    elif args.find:
        found = find_witnesses(trace, seed=seed)
        print("found %d witnesses" % len(found), file=sys.stderr)
    else:
        raise SystemExit("facet-check needs a witness file or --find")

    # one lift, or without a seed one walk face, serves every witness;
    # neither is made when no witness was found
    cut = dim_face = None
    if found and trace.base.n <= ORACLE_LIMIT:
        if seed is not None:
            cut = strengthened_lift(trace, seed=seed)
        else:
            eqs = [clique_inequality(w) for w in trace.cliques]
            dim_face = face_dimension(trace.base, eqs).affine_dim
    reports = []
    for witness, conditions in found:
        entry = witness.to_payload()
        entry["conditions"] = conditions
        entry["predicted_facet"] = all(conditions.values())
        if cut is not None:
            rep = facet_report(witness, cut, trace.r, conditions)
            entry["cut"] = cut.inequality.to_text()
            entry["dim_face"] = rep.dim_face
            entry["dim_tight"] = rep.dim_tight
            entry["facet"] = rep.facet
            entry["prediction_agrees"] = rep.agrees
        elif dim_face is not None:
            entry["dim_face"] = dim_face
        reports.append(entry)

    if args.format == "csv":
        rows = []
        for i, entry in enumerate(reports):
            for key in sorted(entry):
                rows.append([str(i), key, json.dumps(entry[key])])
        _emit(rows, "csv", header=["witness", "key", "value"])
    elif args.format == "json":
        sys.stdout.write(json.dumps(reports, indent=1) + "\n")
    else:
        for i, entry in enumerate(reports):
            print("witness %d: classes=%s" % (i, entry["classes"]))
            for key in sorted(entry):
                if key != "classes":
                    print("  %s: %s" % (key, entry[key]))
    return 0


def cmd_bench(args) -> int:
    procs = _parse_procs(args.proc)
    params = _build_params(args)
    sizes = _numbers(args.sizes.split(","), int, "--sizes")
    if min(sizes) < 0:
        raise SystemExit("graph sizes must be nonnegative, got %s" % args.sizes)
    densities = _numbers(args.densities.split(","), float, "--densities")
    if not all(0 <= d <= 1 for d in densities):
        raise SystemExit("graph densities must be in [0, 1], got %s"
                         % args.densities)
    cells, jobs = [], []
    for n in sizes:
        for d in densities:
            names = ["G(%d,%g)#%d" % (n, d, rep) for rep in range(args.reps)]
            graphs = [random_graph(n, d, seed=_derived_seed(args.seed, name))
                      for name in names]
            alphas = [_known_alpha(g) for g in graphs]
            cells.append((n, d, graphs, alphas))
            for procedure in procs:
                for name, g in zip(names, graphs):
                    seed = _derived_seed(args.seed, name + ":" + procedure)
                    jobs.append((g, procedure, params, args.time_limit, seed))

    results = iter(_run_jobs(jobs, args.jobs))
    rows, ok = [], True
    mean = lambda vals: sum(vals) / len(vals)
    for n, d, graphs, alphas in cells:
        for procedure in procs:
            reps = [next(results) for _ in graphs]
            errors = [r for r in reps if isinstance(r, Exception)]
            if errors:
                rows.append(_error_row("G(%d,%g)" % (n, d), str(errors[0])))
                ok = False
                continue
            statuses = {r.status for r in reps}
            status = statuses.pop() if len(statuses) == 1 else "mixed"
            if not all(r.status in COMPLETED for r in reps):
                ok = False
            alpha = "%.2f" % mean(alphas) if None not in alphas else ""
            counts = lambda kind: mean([r.cut_counts.get(kind, 0)
                                        for r in reps])
            rows.append([
                "G(%d,%g)" % (n, d), str(n),
                "%.4f" % mean([g.density() for g in graphs]), alpha,
                procedure, str(len(reps)),
                "%.2f" % mean([r.lower_bound for r in reps]),
                "%.6f" % mean([r.z0 for r in reps]),
                "%.6f" % mean([r.bound for r in reps]),
                "%.2f" % counts("clique"), "%.2f" % counts("rank"),
                "%.2f" % counts("weighted"), status,
                "%.2f" % mean([r.wall_time for r in reps])
                if args.with_times else ""])
    _emit(rows, args.format)
    return 0 if ok else 1


def _int_at_least(low: int):
    def check(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %d, got %d"
                                             % (low, value))
        return value
    # argparse names the type in its message for a non-integer
    check.__name__ = "int"
    return check


_positive_int = _int_at_least(1)
_nonnegative_int = _int_at_least(0)


def _time_limit(text: str) -> float:
    # inf means no limit; NaN fails the test, since no elapsed time would
    # ever compare greater than it
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be above 0, got %s" % text)
    return value


def _nonnegative_float(text: str) -> float:
    value = float(text)
    if not 0 <= value < float("inf"):
        raise argparse.ArgumentTypeError("must be finite and at least 0, "
                                         "got %s" % text)
    return value


def _add_param_flags(sub):
    sub.add_argument("--min-violation", type=_nonnegative_float, default=None,
                     help="violation threshold for keeping a cut")
    sub.add_argument("--min-depth", type=_nonnegative_int, default=None,
                     help="projections to perform before stopping the walk")
    sub.add_argument("--max-depth", type=_nonnegative_int, default=None,
                     help="hard cap on projections per walk")
    sub.add_argument("--max-iter", dest="max_iterations",
                     type=_positive_int, default=None,
                     help="separation iterations per call")
    sub.add_argument("--max-ncuts", type=_positive_int, default=None,
                     help="stop once this many cuts are collected")
    sub.add_argument("--tomita-period", type=_positive_int, default=None,
                     help="use bounded exact clique enumeration every k-th "
                          "projection")
    sub.add_argument("--seed", type=int, default=0)


def _add_run_flags(sub):
    # the commands that run cutting_plane_run, whose rounds the clock guards
    sub.add_argument("--proc", default="c,b,s",
                     help="comma list from c (clique cuts only), b (basic "
                          "lifting), s (strengthened lifting)")
    sub.add_argument("--jobs", type=_positive_int, default=1)
    sub.add_argument("--with-times", action="store_true")
    sub.add_argument("--time-limit", type=_time_limit, default=120.0,
                     help="seconds; inf for no limit")


def _add_common(sub, complement_default):
    sub.add_argument("--format", choices=["csv", "json", "text"],
                     default="csv")
    if complement_default:
        sub.add_argument("--no-complement", dest="complement",
                         action="store_false", default=True,
                         help="solve the instance as stated instead of its "
                              "complement")
    else:
        sub.add_argument("--complement", action="store_true", default=False,
                         help="solve the complement of the instance")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabcut",
        description="Cutting plane bounds for the maximum stable set "
                    "problem via clique projection and lifting.")
    subs = parser.add_subparsers(dest="command", required=True)

    b = subs.add_parser("bound", help="bound DIMACS or named instances")
    b.add_argument("instances", nargs="+")
    _add_run_flags(b)
    _add_common(b, complement_default=True)
    _add_param_flags(b)
    b.set_defaults(fn=cmd_bound)

    s = subs.add_parser("separate", help="separate one fractional point")
    s.add_argument("graph")
    s.add_argument("--point", required=True,
                   help="comma separated values, or @file with a JSON list")
    s.add_argument("--proc", default="s")
    _add_common(s, complement_default=False)
    _add_param_flags(s)
    s.set_defaults(fn=cmd_separate)

    v = subs.add_parser("verify", help="verify serialized cuts against a "
                                       "graph")
    v.add_argument("graph")
    v.add_argument("cuts", nargs="+", help="cut JSON files")
    v.add_argument("--point", default=None)
    _add_common(v, complement_default=False)
    v.set_defaults(fn=cmd_verify)

    f = subs.add_parser("facet-check", help="check facet conditions on a "
                                            "serialized trace")
    f.add_argument("trace", help="trace JSON file")
    f.add_argument("--witness", default=None,
                   help="witness JSON file with classes and optional "
                        "representative")
    f.add_argument("--find", action="store_true",
                   help="search for witnesses instead of reading one")
    f.add_argument("--lift-seed", default=None,
                   help="comma separated seed clique for the lifted cut")
    f.add_argument("--format", choices=["csv", "json", "text"],
                   default="text")
    f.set_defaults(fn=cmd_facet_check)

    r = subs.add_parser("bench", help="random graph suite")
    r.add_argument("--sizes", default="20,30")
    r.add_argument("--densities", default="0.3,0.5")
    r.add_argument("--reps", type=_positive_int, default=5,
                   help="instances per cell")
    _add_run_flags(r)
    _add_common(r, complement_default=False)
    _add_param_flags(r)
    r.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
