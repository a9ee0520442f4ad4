"""One round of each benchmark workload is correct and fails nothing, so a
numerics change that the benchmark's checks refuse fails here first.

bench/run.py reads the package from ./src of the checkout it sits in;
with --seconds 0 it runs a single round of its operation list."""

import json
import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(REPO_ROOT, "bench", "run.py")


@pytest.mark.parametrize("workload", ["a-series", "structure-form", "dynkin-exact"])
def test_one_bench_round_is_correct(workload):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "1", "--seconds", "0"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0
