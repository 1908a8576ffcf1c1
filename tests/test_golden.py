"""Byte-for-byte CLI output against files captured from an earlier build.

The rerun test in test_cli.py only compares two runs of the same code; these
goldens catch a refactor that changes what the CLI prints. The inputs
(c5.clq, c5_cut.json, example8_trace.json) sit next to the expected outputs
in tests/data/golden, and each command runs from that directory so that file
names in the output are stable.

To recapture after an intended output change, run from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import sys

import pytest

from stabcut.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "data", "golden")
HALF5 = "0.5,0.5,0.5,0.5,0.5"

CASES = {
    "bound_mann_a9.csv": ["bound", "MANN_a9", "--proc", "c,b,s",
                          "--seed", "3"],
    "bound_mann_a9_clique.txt": ["bound", "MANN_a9", "--proc", "c",
                                 "--seed", "3", "--format", "text"],
    "bench_small.csv": ["bench", "--sizes", "12,16", "--densities", "0.3,0.5",
                        "--reps", "2", "--seed", "5"],
    "separate_c5.json": ["separate", "c5.clq", "--point", HALF5,
                         "--format", "json"],
    "verify_c5.csv": ["verify", "c5.clq", "c5_cut.json", "--point", HALF5],
    "facet_check_example8.json": ["facet-check", "example8_trace.json",
                                  "--find", "--lift-seed", "1,4,5,6,7",
                                  "--format", "json"],
    "facet_check_example8.csv": ["facet-check", "example8_trace.json",
                                 "--find", "--lift-seed", "1,4,5,6,7",
                                 "--format", "csv"],
    "facet_check_example8.txt": ["facet-check", "example8_trace.json",
                                 "--find", "--lift-seed", "1,4,5,6,7",
                                 "--format", "text"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code = main(list(CASES[name]))
    out = capsys.readouterr().out
    with open(name, newline="") as fh:
        expected = fh.read()
    assert code == 0
    assert out == expected


def _recapture():
    os.chdir(GOLDEN)
    for name, argv in CASES.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(list(argv))
        if code != 0:
            raise SystemExit("%s exited with %d" % (name, code))
        with open(name, "w", newline="") as fh:
            fh.write(buf.getvalue())
        print("wrote", name, file=sys.stderr)


if __name__ == "__main__":
    _recapture()
