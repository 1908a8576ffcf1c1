import csv
import io
import json
import os
import random
import subprocess
import sys

import pytest

from conftest import EXAMPLE8_EDGES, NoClock
from test_golden import GOLDEN
from stabcut import cli, mwss
from stabcut.benchmarks import BENCHMARKS
from stabcut.cli import main
from stabcut.engine import VERIFY_MAX_NODES
from stabcut.graph import Graph, serialize_dimacs
from stabcut.lifting import cut_to_json, strengthened_lift
from stabcut.projection import ProjectionTrace, extend_trace, trace_to_json
from stabcut.separation import sep_for_stab


HALF5 = "0.5,0.5,0.5,0.5,0.5"


def c5():
    return Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], name="c5")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return [dict(zip(header, row)) for row in body]


def c5_file(tmp_path):
    path = tmp_path / "c5.clq"
    path.write_text(serialize_dimacs(c5()))
    return str(path)


def test_bound_named_instance_row(capsys):
    code, out, _ = run_cli(capsys, "bound", "MANN_a9", "--proc", "c")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 1
    row = rows[0]
    assert row["graph"] == "MANN_a9-complement"
    assert row["n"] == "45"
    assert row["alpha"] == "16"
    assert row["z0"] == "18.000000"
    assert row["bound"] == "18.000000"
    assert row["status"] == "no_more_cuts"
    assert row["time"] == ""


def test_bound_cut_counts_partition_rows_added(capsys):
    code, out, _ = run_cli(capsys, "bound", "hamming6-4", "--proc", "c")
    assert code == 0
    row = parse_csv(out)[0]
    assert row["rank_cuts"] == "0" and row["wrank_cuts"] == "0"
    assert int(row["clique_cuts"]) > 0
    assert float(row["bound"]) < float(row["z0"])


def test_bound_unreadable_file_keeps_going(capsys, tmp_path):
    missing = str(tmp_path / "nope.clq")
    code, out, _ = run_cli(capsys, "bound", missing, "MANN_a9", "--proc", "c")
    assert code == 1
    rows = parse_csv(out)
    assert rows[0]["status"].startswith("error:")
    assert rows[1]["bound"] == "18.000000"


def test_bound_no_complement_solves_as_stated(capsys):
    code, out, _ = run_cli(capsys, "bound", "MANN_a9", "--proc", "c",
                           "--no-complement")
    assert code == 0
    row = parse_csv(out)[0]
    assert row["graph"] == "MANN_a9"
    assert float(row["density"]) > 0.9


def test_bound_rerun_is_byte_identical(capsys):
    code, first, _ = run_cli(capsys, "bound", "MANN_a9", "--seed", "3")
    assert code == 0
    code, second, _ = run_cli(capsys, "bound", "MANN_a9", "--seed", "3")
    assert code == 0
    assert first == second
    assert len(parse_csv(first)) == 3


def test_bound_instance_dir_env(capsys, tmp_path, monkeypatch):
    (tmp_path / "ring.clq").write_text(serialize_dimacs(c5()))
    monkeypatch.setenv("STABCUT_INSTANCES", str(tmp_path))
    code, out, _ = run_cli(capsys, "bound", "ring", "--proc", "c",
                           "--no-complement")
    assert code == 0
    assert parse_csv(out)[0]["n"] == "5"


def test_alpha_column_needs_the_named_instance_sizes(capsys, tmp_path):
    # a file name alone once gave the table's alpha, 16 next to a proven
    # bound of 2.5 for a 5-cycle saved as MANN_a9.clq; the counts of a
    # relabelled genuine instance still match
    mann = BENCHMARKS["MANN_a9"]()
    order = list(range(mann.n))
    random.Random(7).shuffle(order)
    relabelled = Graph(mann.n, [(order[u], order[v]) for u, v in mann.edges()])
    files = {"five_cycle/MANN_a9.clq": (c5(), "2"),
             "isolated/hamming6-4.clq": (Graph(4), "1"),
             "genuine/MANN_a9.clq": (relabelled, "16")}
    for name, (g, alpha) in files.items():
        path = tmp_path / name
        path.parent.mkdir()
        path.write_text(serialize_dimacs(g))
        code, out, _ = run_cli(capsys, "bound", str(path), "--proc", "c")
        assert code == 0
        assert parse_csv(out)[0]["alpha"] == alpha, name


def test_separate_c5_half_point(capsys, tmp_path):
    code, out, err = run_cli(capsys, "separate", c5_file(tmp_path),
                             "--point", "0.5,0.5,0.5,0.5,0.5")
    assert code == 0
    rows = parse_csv(out)
    assert rows, err
    assert any(r["cut"] == "x0 + x1 + x2 + x3 + x4 <= 2" for r in rows)
    for r in rows:
        assert r["verdict"] == "valid"
        assert float(r["violation"]) > 0.03


def bare_edge_cut(tmp_path):
    path = tmp_path / "edge.json"
    path.write_text(json.dumps({"coeffs": {"0": 1, "1": 1}, "rhs": 1}))
    return str(path)


def test_cut_checks_use_the_engine_node_budget(capsys, tmp_path,
                                               monkeypatch):
    # separate and verify check each cut as the engine does, within
    # VERIFY_MAX_NODES search nodes and no seconds
    budgets = []
    check = cli.check_validity

    def recording_check(g, ineq, **kwargs):
        budgets.append(kwargs)
        return check(g, ineq, **kwargs)

    monkeypatch.setattr(cli, "check_validity", recording_check)
    for argv in (["separate", c5_file(tmp_path), "--point", HALF5],
                 ["verify", c5_file(tmp_path), bare_edge_cut(tmp_path)]):
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
    assert len(budgets) > 1
    assert all(b == {"max_nodes": VERIFY_MAX_NODES} for b in budgets)


def test_cut_check_out_of_nodes_reads_unverified(capsys, tmp_path,
                                                 monkeypatch):
    # a check that runs out of nodes proves nothing either way; no clock
    # decides that
    monkeypatch.setattr(cli, "VERIFY_MAX_NODES", 0)
    monkeypatch.setattr(mwss, "time", NoClock())
    code, out, _ = run_cli(capsys, "separate", c5_file(tmp_path), "--point",
                           HALF5)
    assert code == 1
    rows = parse_csv(out)
    assert rows and {r["verdict"] for r in rows} == {"unverified"}
    code, out, _ = run_cli(capsys, "verify", c5_file(tmp_path),
                           bare_edge_cut(tmp_path))
    assert code == 1
    assert parse_csv(out)[0]["verdict"] == "unverified"


def test_time_limit_only_where_a_run_has_rounds(capsys, tmp_path):
    # separate and verify stop on work alone, so they take no clock
    for argv in (["separate", c5_file(tmp_path), "--point", HALF5],
                 ["verify", c5_file(tmp_path), bare_edge_cut(tmp_path)]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--time-limit", "5"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --time-limit 5" in captured.err
        assert captured.out == ""


def test_separate_rejects_clique_procedure(capsys, tmp_path):
    # the whole list is checked before any separation runs, so a clique
    # entry after a lifting one wastes no run and prints no summary
    for proc in ("c", "b,c"):
        with pytest.raises(SystemExit):
            main(["separate", c5_file(tmp_path), "--point",
                  "0.5,0.5,0.5,0.5,0.5", "--proc", proc])
        captured = capsys.readouterr()
        assert "cuts from" not in captured.err
        assert captured.out == ""


def test_separation_caps_must_be_positive(capsys, tmp_path):
    # a zero Tomita period divided by zero inside the walk, a zero or
    # negative iteration cap quietly ran no separation at all, and a negative
    # --max-depth ran no projection while a negative --min-depth was taken as
    # given, each exiting 0
    commands = [["separate", c5_file(tmp_path), "--point", HALF5],
                ["bound", c5_file(tmp_path), "--proc", "b"],
                ["bench", "--sizes", "8", "--densities", "0.5", "--reps", "1",
                 "--proc", "b"]]
    cases = [(flag, value, "must be at least 1")
             for flag in ("--tomita-period", "--max-iter", "--max-ncuts")
             for value in ("0", "-1")]
    cases += [(flag, value, "must be at least 0")
              for flag in ("--min-depth", "--max-depth")
              for value in ("-1", "-3")]
    for flag, value, message in cases:
        for command in commands:
            with pytest.raises(SystemExit) as exc:
                main(command + [flag + "=" + value])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert flag in captured.err and message in captured.err
            assert captured.out == ""


def test_max_depth_caps_the_walk(capsys, tmp_path):
    # a zero cap walks no projection, and --max-depth caps --min-depth: two
    # projections in each of the three walks
    for depths, projections in ((["--max-depth", "0"], 0),
                                (["--min-depth", "30", "--max-depth", "2"], 6)):
        code, _, err = run_cli(capsys, "separate", c5_file(tmp_path),
                               "--point", HALF5, *depths)
        assert code == 0 and "%d projections" % projections in err


def test_min_violation_must_be_finite_and_nonnegative(capsys, tmp_path):
    # a NaN threshold kept no cut and exited 0, and a negative one returned
    # cuts that the point does not violate
    for value in ("nan", "inf", "-inf", "-5"):
        for command in (["separate", c5_file(tmp_path), "--point", HALF5],
                        ["bound", c5_file(tmp_path), "--proc", "b"]):
            with pytest.raises(SystemExit) as exc:
                main(command + ["--min-violation=" + value])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert "--min-violation" in captured.err
            assert "must be finite and at least 0" in captured.err
            assert captured.out == ""


def test_time_limit_and_jobs_must_be_positive(capsys, tmp_path):
    # a NaN limit never compared greater than the elapsed time, so it turned
    # the wall-clock guard off; a negative one ended bound after its first LP;
    # a zero or negative --jobs quietly ran serially
    commands = {"bound": ["bound", c5_file(tmp_path), "--proc", "c"],
                "bench": ["bench", "--sizes", "8", "--densities", "0.5",
                          "--reps", "1", "--proc", "c"]}
    cases = [(name, "--time-limit", value, "must be above 0")
             for name in commands for value in ("nan", "0", "-1", "-inf")]
    cases += [(name, "--jobs", value, "must be at least 1")
              for name in commands for value in ("0", "-1")]
    for name, flag, value, message in cases:
        with pytest.raises(SystemExit) as exc:
            main(commands[name] + [flag + "=" + value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert flag in captured.err and message in captured.err
        assert captured.out == ""


def test_infinite_time_limit_means_no_limit(capsys):
    code, out, _ = run_cli(capsys, "bound", "MANN_a9", "--proc", "c",
                           "--time-limit", "inf")
    assert code == 0
    assert parse_csv(out)[0]["status"] == "no_more_cuts"


def test_separate_point_length_check(capsys, tmp_path):
    with pytest.raises(SystemExit):
        main(["separate", c5_file(tmp_path), "--point", "0.5,0.5"])


def test_verify_valid_tampered_and_bare(capsys, tmp_path):
    g = c5()
    point = [0.5] * 5
    cut = sep_for_stab(g, point).cuts[0]
    ok_file = tmp_path / "ok.json"
    ok_file.write_text(cut_to_json(cut))
    payload = json.loads(cut_to_json(cut))
    payload["inequality"]["rhs"] -= 1
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps(payload))
    bare_file = tmp_path / "bare.json"
    bare_file.write_text(json.dumps({"coeffs": {"0": 1, "2": 1}, "rhs": 1}))

    code, out, _ = run_cli(capsys, "verify", c5_file(tmp_path), str(ok_file),
                           str(bad_file), str(bare_file),
                           "--point", "0.5,0.5,0.5,0.5,0.5")
    assert code == 1
    rows = parse_csv(out)
    assert rows[0]["verdict"] == "valid"
    assert rows[0]["replay"] == "consistent"
    assert rows[0]["facet"] == "True"
    assert rows[1]["verdict"] == "INVALID"
    assert rows[1]["replay"] == "MISMATCH"
    assert rows[1]["witness"] != ""
    stable = [int(v) for v in rows[1]["witness"].split()]
    assert g.is_stable(stable)
    assert rows[2]["verdict"] == "INVALID"


def test_verify_malformed_file(capsys, tmp_path):
    junk = tmp_path / "junk.json"
    junk.write_text("not json")
    code, out, _ = run_cli(capsys, "verify", c5_file(tmp_path), str(junk))
    assert code == 1
    assert parse_csv(out)[0]["verdict"].startswith("error:")


def test_verify_reports_unreadable_vertices_and_numbers(capsys, tmp_path):
    # vertex -1 used to index the weight list from its end and be read as
    # vertex 4, vertex 99 or a coefficient or right side that is a string
    # ended in a traceback, and a NaN coefficient, which no stable set
    # weight exceeds, read valid, and a key in any other form than to_json's
    # was read through int(), so "1_0" named vertex 10 and "01" vertex 1;
    # each is now the file's error row
    files = {"negative.json": {"coeffs": {"-1": 1, "2": 1}, "rhs": 1},
             "large.json": {"coeffs": {"99": 1, "2": 1}, "rhs": 1},
             "text_coeff.json": {"coeffs": {"0": "1", "2": 1}, "rhs": 1},
             "text_rhs.json": {"coeffs": {"0": 1, "2": 1}, "rhs": "x"},
             "nan_coeff.json": {"coeffs": {"0": float("nan"), "1": 1},
                                "rhs": 1},
             "two_keys.json": {"coeffs": {"1": 1, "01": 2}, "rhs": 1},
             "underscore.json": {"coeffs": {"1_0": 1, "2": 1}, "rhs": 1},
             "space.json": {"coeffs": {" 2": 1, "0": 1}, "rhs": 1},
             "plus.json": {"coeffs": {"+3": 1, "0": 1}, "rhs": 1},
             "minus_zero.json": {"coeffs": {"-0": 1, "2": 1}, "rhs": 1},
             "edge.json": {"coeffs": {"0": 1, "1": 1}, "rhs": 1}}
    paths = []
    for name, payload in files.items():
        (tmp_path / name).write_text(json.dumps(payload))
        paths.append(str(tmp_path / name))
    code, out, _ = run_cli(capsys, "verify", c5_file(tmp_path), *paths)
    assert code == 1
    rows = parse_csv(out)
    assert [r["verdict"] for r in rows] == [
        "error: vertex -1 is not in 0..4", "error: vertex 99 is not in 0..4",
        "error: '1' is not a finite int or float",
        "error: 'x' is not a finite int or float",
        "error: nan is not a finite int or float",
        "error: vertex key '01' is not written as to_json writes it",
        "error: vertex key '1_0' is not written as to_json writes it",
        "error: vertex key ' 2' is not written as to_json writes it",
        "error: vertex key '+3' is not written as to_json writes it",
        "error: vertex key '-0' is not written as to_json writes it",
        "valid"]


def example8_trace_file(tmp_path):
    g = Graph(8, EXAMPLE8_EDGES, name="demo8")
    trace = ProjectionTrace(g)
    for w in [(0, 1, 2), (0, 2, 3), (0, 3, 4)]:
        trace = extend_trace(trace, w)
    path = tmp_path / "trace.json"
    path.write_text(trace_to_json(trace))
    return str(path)


def test_facet_check_with_witness_file(capsys, tmp_path):
    witness = tmp_path / "witness.json"
    witness.write_text(json.dumps(
        {"classes": [[1, 3], [2, 4], [0]], "representative": [1, 2]}))
    code, out, _ = run_cli(capsys, "facet-check", example8_trace_file(tmp_path),
                           "--witness", str(witness),
                           "--lift-seed", "1,4,5,6,7", "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 1
    entry = reports[0]
    assert all(entry["conditions"].values())
    assert entry["predicted_facet"] is True
    assert entry["dim_face"] == 5
    assert entry["dim_tight"] == 4
    assert entry["facet"] is True
    assert entry["prediction_agrees"] is True


def test_facet_check_find_mode(capsys, tmp_path):
    code, out, err = run_cli(capsys, "facet-check",
                             example8_trace_file(tmp_path), "--find",
                             "--lift-seed", "1,4,5,6,7", "--format", "json")
    assert code == 0
    assert "found 2 witnesses" in err
    reports = json.loads(out)
    assert len(reports) == 2
    assert all(entry["facet"] for entry in reports)


def test_facet_check_lifts_once(capsys, tmp_path, monkeypatch):
    # the cut depends on the trace and the seed only, so two witnesses share
    # one lift, and a search that finds no witness lifts nothing
    calls = []

    def counting_lift(trace, seed):
        calls.append(seed)
        return strengthened_lift(trace, seed=seed)

    monkeypatch.setattr(cli, "strengthened_lift", counting_lift)
    code, out, _ = run_cli(capsys, "facet-check",
                           example8_trace_file(tmp_path), "--find",
                           "--lift-seed", "1,4,5,6,7", "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 2 and reports[0]["cut"] == reports[1]["cut"]
    assert calls == [(1, 4, 5, 6, 7)]

    calls.clear()
    empty = tmp_path / "empty_trace.json"
    empty.write_text(trace_to_json(ProjectionTrace(c5())))
    code, out, _ = run_cli(capsys, "facet-check", str(empty), "--find",
                           "--lift-seed", "0,2", "--format", "json")
    assert code == 0
    assert json.loads(out) == []
    assert calls == []


BAD_INPUTS = {
    "missing instance": (["separate", "nosuch.clq", "--point", "0.5"],
                         "nosuch.clq"),
    "missing instance to verify": (["verify", "nosuch.clq", "cut.json"],
                                   "nosuch.clq"),
    "malformed instance": (["separate", "bad.clq", "--point", "0.5,0.5,0.5"],
                           "bad.clq"),
    "directory as instance": (["separate", "sub", "--point", "0.5"], "sub"),
    "missing point file": (["separate", "c5.clq", "--point", "@nosuch.json"],
                           "nosuch.json"),
    "missing trace": (["facet-check", "nosuch.json", "--find"], "nosuch.json"),
    "malformed trace": (["facet-check", "bad.json", "--find"], "bad.json"),
    "missing witness": (["facet-check", "trace.json", "--witness",
                         "nosuch.json"], "nosuch.json"),
    "witness without classes": (["facet-check", "trace.json", "--witness",
                                 "bad.json"], "bad.json"),
    "witness that is a list": (["facet-check", "trace.json", "--witness",
                                "list.json"], "list.json"),
    "witness class repeating a vertex": (["facet-check", "trace.json",
                                          "--witness", "repeat.json",
                                          "--lift-seed", "1,4,5,6,7"],
                                         "repeat.json"),
    "trace clique past n": (["facet-check", "far_clique.json", "--find"],
                            "far_clique.json"),
    "trace with negative n": (["facet-check", "negative_n.json", "--find"],
                              "negative_n.json"),
    "trace with fractional n": (["facet-check", "fractional_n.json",
                                 "--find"], "fractional_n.json"),
}


def one_line_error(argv, tmp_path):
    """Runs the stabcut script on argv in tmp_path, next to the input files
    the cases name, checks for exit status 1, an empty stdout and one stderr
    line, and returns that line."""
    (tmp_path / "c5.clq").write_text(serialize_dimacs(c5()))
    (tmp_path / "bad.clq").write_text("p edge 3 1\ne 1 9\n")
    (tmp_path / "bad.json").write_text('{"n": 3, "steps": []}')
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "far_clique.json").write_text(json.dumps(
        {"n": 3, "edges": [[0, 1]],
         "steps": [{"clique": [99], "false_edges": []}]}))
    for name, n in (("negative_n.json", -1), ("fractional_n.json", 2.5)):
        (tmp_path / name).write_text(json.dumps(
            {"n": n, "edges": [], "steps": []}))
    (tmp_path / "witness.json").write_text(json.dumps(
        {"classes": [[1, 3], [2, 4], [0]], "representative": [1, 2]}))
    (tmp_path / "repeat.json").write_text(json.dumps(
        {"classes": [[1, 1, 3], [2, 4], [0]]}))
    (tmp_path / "sub").mkdir()
    example8_trace_file(tmp_path)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "stabcut"] + argv,
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    return lines[0]


def assert_one_line_error(argv, named, tmp_path):
    """one_line_error, with a line that starts with named."""
    assert one_line_error(argv, tmp_path).startswith(named + ": ")


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_file_is_one_line_not_a_traceback(case, tmp_path):
    # a missing or malformed file named on the command line ends the
    # command with exit status 1 and one line on stderr naming the file,
    # as the stabcut script runs it; these used to end in a traceback
    argv, named = BAD_INPUTS[case]
    assert_one_line_error(argv, named, tmp_path)


BAD_NUMBERS = {
    "point": (["separate", "c5.clq", "--point", "0.5,x,0.5,0.5,0.5"],
              "--point"),
    "lift seed": (["facet-check", "trace.json", "--find", "--lift-seed",
                   "1,a"], "--lift-seed"),
    "sizes": (["bench", "--sizes", "8,x", "--densities", "0.5"], "--sizes"),
    "densities": (["bench", "--sizes", "8", "--densities", "0.5,half"],
                  "--densities"),
}


@pytest.mark.parametrize("case", sorted(BAD_NUMBERS))
def test_non_numeric_option_is_one_line_not_a_traceback(case, tmp_path):
    # a list option with a part that is not a number is a usage error that
    # names the option; these used to end in a ValueError traceback
    argv, named = BAD_NUMBERS[case]
    assert_one_line_error(argv, named, tmp_path)


BAD_USAGE = {
    "unknown procedure": (["bound", "c5.clq", "--proc", "x"],
                          "unknown procedure 'x'; pick from c,b,s"),
    "empty procedure": (["bound", "c5.clq", "--proc", ","],
                        "unknown procedure ''; pick from c,b,s"),
    "point entry above 1": (["separate", "c5.clq", "--point",
                             "0.5,0.5,1.5,0.5,0.5"],
                            "point entry 1.5 outside [0, 1]"),
    "density nan": (["bench", "--sizes", "8", "--densities", "0.5,nan"],
                    "graph densities must be in [0, 1], got 0.5,nan"),
    "density above 1": (["bench", "--sizes", "8", "--densities", "2"],
                        "graph densities must be in [0, 1], got 2"),
    "density below 0": (["bench", "--sizes", "8", "--densities=-1"],
                        "graph densities must be in [0, 1], got -1"),
}


@pytest.mark.parametrize("case", sorted(BAD_USAGE))
def test_usage_error_is_one_line(case, tmp_path):
    # a procedure list or point that parses but is out of range is a usage
    # error, reported in one line that the option's checks word
    argv, line = BAD_USAGE[case]
    assert one_line_error(argv, tmp_path) == line


def test_facet_check_without_a_seed_reports_the_walk_face_once(
        capsys, monkeypatch, face_listings):
    # without --lift-seed no cut is lifted; each witness reports the
    # dimension of the face of the whole walk, which depends on the trace
    # alone, so its stable sets are listed once for all of them
    monkeypatch.chdir(GOLDEN)
    code, out, err = run_cli(capsys, "facet-check", "example8_trace.json",
                             "--find", "--format", "csv")
    assert code == 0
    assert err == "found 2 witnesses\n"
    assert out == (
        'witness,key,value\n'
        '0,classes,"[[1, 3], [2, 4], [0]]"\n'
        '0,conditions,"{""interWV"": true, ""I"": true, ""II"": true, '
        '""III"": true, ""IV"": true, ""V"": true}"\n'
        '0,dim_face,5\n'
        '0,k,3\n'
        '0,predicted_facet,true\n'
        '1,classes,"[[2, 4], [1, 3], [0]]"\n'
        '1,conditions,"{""interWV"": true, ""I"": true, ""II"": true, '
        '""III"": true, ""IV"": true, ""V"": true}"\n'
        '1,dim_face,5\n'
        '1,k,3\n'
        '1,predicted_facet,true\n')
    assert face_listings == [8]


def test_golden_facet_check_enumerates_stable_sets_once(capsys, monkeypatch,
                                                        face_listings):
    # the level face is listed once per run and the cut's tight subface is
    # read off that list; every witness's facet report judges those two
    # dimensions, so the two witnesses found cost one enumeration, not two
    monkeypatch.chdir(GOLDEN)
    code, out, _ = run_cli(capsys, "facet-check", "example8_trace.json",
                           "--find", "--lift-seed", "1,4,5,6,7",
                           "--format", "json")
    assert code == 0
    with open("facet_check_example8.json", newline="") as fh:
        assert out == fh.read()
    assert face_listings == [8]


BAD_LIFT_SEEDS = {
    "negative vertex, find": ["--find", "--lift-seed=-1,4"],
    "negative vertex, witness": ["--witness", "witness.json",
                                 "--lift-seed=-1,4"],
    "vertex past n, find": ["--find", "--lift-seed", "1,99"],
    "vertex past n, witness": ["--witness", "witness.json",
                               "--lift-seed", "1,99"],
    "no clique, witness": ["--witness", "witness.json", "--lift-seed", "0,7"],
    "repeated vertex, find": ["--find", "--lift-seed", "1,4,4"],
}


@pytest.mark.parametrize("case", sorted(BAD_LIFT_SEEDS))
def test_lift_seed_outside_the_trace_is_one_line(case, tmp_path):
    # a negative vertex ended in "negative shift count", a seed the witness
    # cut could not be lifted from in a ValueError traceback, a vertex past
    # n with --find in "found 0 witnesses" and exit status 0, and a repeated
    # vertex would be stored as the seed
    argv = ["facet-check", "trace.json"] + BAD_LIFT_SEEDS[case]
    assert_one_line_error(argv, "--lift-seed", tmp_path)


def test_find_with_a_seed_that_is_no_clique_finds_nothing(capsys, tmp_path):
    # --find tests the seed as one of the conditions, so an in-range seed
    # that is not a clique of the final graph leaves no witness
    code, out, err = run_cli(capsys, "facet-check",
                             example8_trace_file(tmp_path), "--find",
                             "--lift-seed", "0,7", "--format", "json")
    assert code == 0
    assert err == "found 0 witnesses\n"
    assert json.loads(out) == []


def test_facet_check_needs_witness_or_find(capsys, tmp_path):
    with pytest.raises(SystemExit):
        main(["facet-check", example8_trace_file(tmp_path)])


def test_bench_small_suite_deterministic(capsys):
    args = ["bench", "--sizes", "10", "--densities", "0.4", "--reps", "2",
            "--proc", "c,s", "--time-limit", "30"]
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    code, second, _ = run_cli(capsys, *args)
    assert first == second
    rows = parse_csv(first)
    assert len(rows) == 2
    for row in rows:
        assert row["seeds"] == "2"
        assert float(row["bound"]) <= float(row["z0"]) + 1e-9
    by_proc = {row["procedure"]: row for row in rows}
    assert float(by_proc["strengthened"]["bound"]) <= \
        float(by_proc["clique"]["bound"]) + 1e-9


def test_bench_rejects_reps_below_one(capsys):
    for reps in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--sizes", "8", "--densities", "0.5",
                  "--reps", reps])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--reps" in err and "must be at least 1" in err


def test_bench_rejects_negative_sizes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--sizes", "8,-3", "--densities", "0.5"])
    assert "nonnegative" in str(exc.value.code)
    assert capsys.readouterr().out == ""


def test_bench_worker_processes_match_serial_run(capsys):
    # the graphs and their alpha are built in the parent and the runs sent
    # to the workers; the rows must not depend on where the runs happen
    args = ["bench", "--sizes", "8", "--densities", "0.5", "--reps", "2",
            "--proc", "c,s"]
    code, serial, _ = run_cli(capsys, *args)
    assert code == 0
    code, pooled, _ = run_cli(capsys, *args, "--jobs", "2")
    assert code == 0
    assert pooled == serial


def test_jobs_start_no_more_processes_than_runs(capsys, tmp_path,
                                                monkeypatch):
    # the pool starts all of its workers on the first submit, so --jobs 64
    # over two runs would fork 64 processes; a recording stand-in for the
    # pool runs the jobs in this process and keeps the size asked for
    import concurrent.futures

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    args = ["bound", c5_file(tmp_path), "--proc", "c,b"]
    code, serial, _ = run_cli(capsys, *args)
    assert code == 0
    code, pooled, _ = run_cli(capsys, *args, "--jobs", "64")
    assert code == 0
    assert sizes == [2]
    assert pooled == serial


def test_bench_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, "bench", "--sizes", "8", "--densities",
                           "0.5", "--reps", "1", "--proc", "c",
                           "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["graph"] == "G(8,0.5)"
    assert rows[0]["procedure"] == "clique"
