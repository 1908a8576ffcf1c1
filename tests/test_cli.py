import csv
import io
import json

import pytest

from conftest import EXAMPLE8_EDGES
from stabcut import cli
from stabcut.cli import main
from stabcut.graph import Graph, serialize_dimacs
from stabcut.lifting import cut_to_json, strengthened_lift
from stabcut.projection import ProjectionTrace, extend_trace, trace_to_json
from stabcut.separation import sep_for_stab


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


def test_separate_verifies_within_time_limit(capsys, tmp_path, monkeypatch):
    # each cut's check gets --time-limit, not a budget of its own
    budgets = []
    check = cli.check_validity

    def recording_check(g, ineq, **kwargs):
        budgets.append(kwargs.get("time_budget"))
        return check(g, ineq, **kwargs)

    monkeypatch.setattr(cli, "check_validity", recording_check)
    code, _, _ = run_cli(capsys, "separate", c5_file(tmp_path), "--point",
                         "0.5,0.5,0.5,0.5,0.5", "--time-limit", "7.5")
    assert code == 0
    assert budgets and set(budgets) == {7.5}


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
    # a zero Tomita period divided by zero inside the walk, and a zero or
    # negative iteration cap quietly ran no separation at all
    for flag in ("--tomita-period", "--max-iter", "--max-ncuts"):
        for value in ("0", "-1"):
            for command in (["separate", c5_file(tmp_path), "--point",
                             "0.5,0.5,0.5,0.5,0.5"],
                            ["bound", c5_file(tmp_path), "--proc", "b"]):
                with pytest.raises(SystemExit) as exc:
                    main(command + [flag, value])
                assert exc.value.code == 2
                captured = capsys.readouterr()
                assert flag in captured.err
                assert "must be at least 1" in captured.err
                assert captured.out == ""


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


def test_bench_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, "bench", "--sizes", "8", "--densities",
                           "0.5", "--reps", "1", "--proc", "c",
                           "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["graph"] == "G(8,0.5)"
    assert rows[0]["procedure"] == "clique"
