"""The stdout contract as data: tests/golden/stdout.txt holds the exit code
and stdout of a fixed grid of commands (regenerated by
scripts/golden_stdout.py), and each case must reproduce them in process.

Text and integer columns (cycles, k, subregions, exit codes) must match
byte for byte.  Floats are compared within REL_TOL: BLAS and libm may
round the last bits differently on another machine, and a change that
moves a value by more is a contract change, to be shown as a diff of the
corpus.
"""

import math
import os
import re
import shlex

import pytest

from duval_kind import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
PROMPT = "$ duval-kind "
REL_TOL = 1e-12
# a decimal point or an exponent makes a float; anything else is text
FLOAT = re.compile(r"(-?\d+\.\d+(?:e[-+]?\d+)?|-?\d+e[-+]?\d+)")


def golden_cases():
    """(argv, exit code, stdout lines) of each case of the corpus."""
    cases = []
    with open(os.path.join(GOLDEN, "stdout.txt")) as fh:
        lines = fh.read().splitlines()
    for line in lines:
        if line.startswith(PROMPT):
            cases.append((shlex.split(line[len(PROMPT):]), [], []))
        elif not cases[-1][1]:
            cases[-1][1].append(int(re.fullmatch(r"exit (\d+)", line)[1]))
        else:
            cases[-1][2].append(line)
    return [(argv, code, out) for argv, (code,), out in cases]


def assert_line_matches(got: str, want: str) -> None:
    got_parts, want_parts = FLOAT.split(got), FLOAT.split(want)
    assert got_parts[::2] == want_parts[::2], (got, want)
    for g, w in zip(got_parts[1::2], want_parts[1::2]):
        assert math.isclose(float(g), float(w), rel_tol=REL_TOL, abs_tol=0.0), (got, want)


CASES = golden_cases()


@pytest.mark.parametrize("argv,code,out", CASES, ids=[shlex.join(argv) for argv, _, _ in CASES])
def test_stdout_matches_the_golden_corpus(capsys, monkeypatch, argv, code, out):
    monkeypatch.chdir(GOLDEN)  # graph file arguments are the files there
    assert cli.main(argv) == code
    got = capsys.readouterr().out
    assert got.endswith("\n") or got == ""
    assert len(got.splitlines()) == len(out)
    for got_line, want_line in zip(got.splitlines(), out):
        assert_line_matches(got_line, want_line)


def test_corpus_covers_the_table_grid_and_every_exit_code():
    tables = {(argv[2], argv[6]) for argv, _, _ in CASES if argv[0] == "integral-table"}
    ns = ("1", "2", "3", "10", "1000", str(2**53))
    assert tables == {(n, tol) for n in ns for tol in ("1e-4", "1e-8")}
    assert {code for _, code, _ in CASES} == {0, 2, 4}
