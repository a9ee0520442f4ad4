#!/usr/bin/env python3
"""Regenerate tests/golden/stdout.txt, the stdout contract as data: the
exit code and stdout of a fixed grid of duval-kind commands.

    PYTHONPATH=src python scripts/golden_stdout.py

Each command runs in process through `cli.main`, from tests/golden, so
its graph file arguments are the files there.  Each case is written as
a line "$ duval-kind ARGV" (shell-quoted), a line "exit CODE", then the
command's stdout.  tests/test_golden.py runs every case again and
compares.
"""

import contextlib
import io
import os
import shlex

from duval_kind import cli

GOLDEN = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests", "golden"
)
CORPUS = os.path.join(GOLDEN, "stdout.txt")
PROMPT = "$ duval-kind "


def cases():
    for n in (1, 2, 3, 10, 1000, 2**53):
        for tol in ("1e-4", "1e-8"):
            yield ["integral-table", "--n", str(n), "--kmax", "4", "--tol", tol]
    for fmt in ("plain", "structured"):
        for n in (1, 2, 3):
            yield ["classify", "A", str(n), "--numerics", "--format", fmt]
    yield ["classify", "D", "4"]
    yield ["classify", "E", "6", "--numerics"]
    yield ["classify", "E", "8", "--format", "structured"]
    yield ["fundamental-cycle", "D", "6"]
    yield ["fundamental-cycle", "E", "8", "--format", "structured"]
    yield ["fundamental-cycle", "--graph", "chain-232.json"]
    yield ["fundamental-cycle", "--graph", "malformed.json"]
    yield ["fundamental-cycle", "--graph", "indefinite.json"]
    yield ["residue", "A", "1"]
    yield ["residue", "E", "7"]
    yield ["residue", "--equation", "x^2 + y^3 + z^5"]
    for equation in (
        "x + x",  # repeated terms
        "x + y - x + x",  # a term that cancels and comes back
        "x - x",  # full cancellation
        "2 x^2 y - 5",  # implicit products and whitespace
        "123456789012345678901234567890 z^2 - x*y",  # wider than 64 bits
        "x^2 + + y",  # malformed
    ):
        yield ["residue", "--equation", equation]


def run(argv):
    """(exit code, stdout) of cli.main(argv), with stderr discarded."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def main() -> int:
    os.chdir(GOLDEN)
    chunks = []
    for argv in cases():
        code, out = run(argv)
        chunks.append(f"{PROMPT}{shlex.join(argv)}\nexit {code}\n{out}")
    with open(CORPUS, "w") as fh:
        fh.write("".join(chunks))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
