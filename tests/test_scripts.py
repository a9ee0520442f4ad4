"""The scripts under scripts/, run as a user runs them: a new interpreter
with the package on PYTHONPATH."""

import os
import subprocess
import sys

import duval_kind

SOURCE_ROOT = os.path.dirname(os.path.dirname(duval_kind.__file__))
SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def run_script(name, *args, python_flags=()):
    search_path = [SOURCE_ROOT] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, search_path))}
    return subprocess.run(
        [sys.executable, *python_flags, os.path.join(SCRIPTS, name), *args],
        capture_output=True, text=True, env=env, check=True,
    )


def test_classify_all_prints_every_builtin_type_without_numpy():
    # -X importtime lists every module the run imports on stderr
    done = run_script("classify_all.py", python_flags=("-X", "importtime"))
    lines = done.stdout.splitlines()
    assert lines[0].split() == ["type", "kind", "reduced", "fundamental", "cycle"]
    labels = [line.split()[0] for line in lines[1:]]
    assert labels == (
        [f"A{n}" for n in range(1, 13)] + [f"D{n}" for n in range(4, 11)] + ["E6", "E7", "E8"]
    )
    assert lines[1].split() == ["A1", "first", "yes", "1"]
    assert lines[-1].split() == ["E8", "second", "no", "2", "4", "6", "5", "4", "3", "2", "3"]
    imported = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()}
    assert "duval_kind.classify" in imported
    assert "numpy" not in imported


def test_integral_table_prints_header_and_one_row():
    done = run_script("integral_table.py", "--n-max", "1", "--k-max", "1")
    lines = done.stdout.splitlines()
    assert lines[0] == "n,k,value,error,truncation_bound,subregions"
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[:2] == ["1", "1"]
    assert float(fields[2]) > 0 and int(fields[5]) >= 1
    assert "n=1: max_k I~_k / I~_1 = 1.000000" in done.stderr
