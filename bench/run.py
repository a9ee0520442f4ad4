"""Benchmark of duval-kind: end-to-end and per-layer metrics for three workloads.

    python3 bench/run.py --workload a-series --seed 1 --seconds 26 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  One process per workload and one client in a closed loop: each
operation starts when the previous one has returned and its output has
been checked.  CLI operations go through `cli.main` in-process with
stdout and stderr captured.  A run repeats whole rounds of the same
operation list until --seconds have passed (at least one round).

With --trace 0 the last stdout line reports the end-to-end metrics:
setup_s, run_s, slowest_op_s, peak_rss_mib.  With --trace 1 the run does
one untraced round, then one round with spans recorded around the
package's public functions, and reports the per-layer metrics.  Results
and spans are written under bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import references as ref
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")
SETUP_SAMPLES = 7
SETUP_CODE = "import duval_kind.cli as cli; cli.build_parser()"


@dataclass
class Checked:
    status: str  # "ok", "failed" (the operation did not complete) or "wrong"
    reason: str = ""
    increments: int = 0  # Laufer increments, sum(Z) - |V|, of the cycles in the output
    slacks: list = field(default_factory=list)  # |value - reference| / error_estimate


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Checked]


@dataclass
class CliOutcome:
    code: int | None
    out: str
    err: str
    exc: Exception | None


def run_cli(cli, argv) -> CliOutcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, exc = cli.main(argv), None
        except Exception as e:  # escapes as a traceback from the real CLI
            code, exc = None, e
    return CliOutcome(code, out.getvalue(), err.getvalue(), exc)


def cli_status(outcome: CliOutcome, code: int) -> Checked | None:
    """Failed or wrong verdict on the exit status, None if it is as expected."""
    if outcome.exc is not None:
        return Checked("failed", f"{type(outcome.exc).__name__}: {outcome.exc}")
    if outcome.code == 3:
        return Checked("failed", "numeric budget exceeded: " + outcome.err.strip())
    if outcome.code != code:
        return Checked("wrong", f"exit {outcome.code}, expected {code}: {outcome.err.strip()}")
    return None


def quadrature_checked(rows) -> Checked:
    """rows: (value, error, truncation, reference interval) per output value."""
    slacks = []
    for value, error, truncation, interval in rows:
        reason = ref.check_quadrature(value, error, truncation, interval)
        if reason:
            return Checked("wrong", reason)
        slacks.append(ref.quadrature_deviation(value, *interval) / error)
    return Checked("ok", slacks=slacks)


# -- a-series --------------------------------------------------------------------

def table_op(cli, n) -> Op:
    argv = ["integral-table", "--n", str(n), "--kmax", "4"]

    def check(outcome):
        bad = cli_status(outcome, 0)
        if bad:
            return bad
        lines = outcome.out.strip().splitlines()
        if lines[0] != "k,value,error,truncation_bound,subregions" or len(lines) != 5:
            return Checked("wrong", f"unexpected table {lines}")
        rows = []
        for k, line in enumerate(lines[1:], start=1):
            fields = line.split(",")
            if int(fields[0]) != k or int(fields[4]) < 1:
                return Checked("wrong", f"bad row {line!r}")
            value, error, truncation = map(float, fields[1:4])
            rows.append((value, error, truncation, ref.ik_reference(n, k)))
        return quadrature_checked(rows)

    return Op(" ".join(argv), lambda: run_cli(cli, argv), check)


def classify_numerics_op(cli) -> Op:
    argv = ["classify", "A", "2", "--numerics", "--format", "structured"]
    matrix = ref.intersection_matrix([-2, -2], [(0, 1, 1)])

    def check(outcome):
        bad = cli_status(outcome, 0)
        if bad:
            return bad
        doc = json.loads(outcome.out)
        reason = ref.check_cycle(doc["fundamental_cycle"], matrix, [1, 1])
        if reason or doc["reduced"] is not True or doc["kind"] != "first":
            return Checked("wrong", reason or f"verdict {doc['reduced']}, {doc['kind']}")
        evidence = doc["numerical_evidence"]
        if [row["k"] for row in evidence] != [1, 2, 3]:
            return Checked("wrong", f"evidence rows {evidence}")
        for row in evidence:
            reason = ref.check_defect_bound(row["integral"], row["defect_bound"])
            if reason:
                return Checked("wrong", reason)
        # the report carries no truncation bound; below 1e-30 for these k
        return quadrature_checked(
            (row["integral"], row["error"], 0.0, ref.ik_reference(2, row["k"]))
            for row in evidence
        )

    return Op(" ".join(argv), lambda: run_cli(cli, argv), check)


def a_series(mods, rng, workdir):
    cli = mods["duval_kind.cli"]
    ops = [table_op(cli, n) for n in (1, 2, 3)] + [classify_numerics_op(cli)]
    rng.shuffle(ops)
    return ops


# -- structure-form -------------------------------------------------------------

def norm_op(quadrature, n, eps) -> Op:
    interval = (ref.norm_reference(n, eps),) * 2

    def run():
        try:
            return quadrature.structure_form_l2_norm(n, eps, ref.REL_TOL)
        except quadrature.QuadratureBudgetError as exc:
            return exc

    def check(res):
        if isinstance(res, Exception):
            return Checked("failed", str(res))
        return quadrature_checked(
            [(res.value, res.error_estimate, res.truncation_bound, interval)]
        )

    return Op(f"structure_form_l2_norm({n}, {eps!r})", run, check)


def structure_form(mods, rng, workdir):
    # eps is log-uniform on [0.1, 0.5].  For n >= 2 the cell count grows as
    # eps shrinks, so eps comes in pairs 0.1*5^u, 0.1*5^(1-u) whose summed
    # cost barely depends on u; for n = 1 the region is scale invariant.
    quadrature = mods["duval_kind.quadrature"]
    ops = [norm_op(quadrature, 1, 0.1 * 5 ** rng.random())]
    for n in (2, 3):
        u = rng.random()
        ops += [norm_op(quadrature, n, 0.1 * 5**u), norm_op(quadrature, n, 0.1 * 5 ** (1 - u))]
    return ops


# -- dynkin-exact -----------------------------------------------------------------

LADDER_A = (1, 2, 3, 5, 8, 13, 21, 34, 55)
LADDER_D = (4, 5, 8, 13, 21, 34, 55)
TREE_VERTICES = 16
TREES_DEFINITE = 8
TREES_INDEFINITE = 4


def ade_matrix(type_, n):
    return ref.intersection_matrix([-2] * n, [(a, b, 1) for a, b in ref.dynkin_edges(type_, n)])


def classify_op(cli, type_, n) -> Op:
    argv = ["classify", type_, str(n), "--format", "structured"]
    matrix = ade_matrix(type_, n)
    root = ref.highest_root(type_, n)
    minors = ref.leading_minors(matrix)
    if not ref.is_negative_definite(matrix) or abs(minors[-1]) != ref.abs_determinant(type_, n):
        raise AssertionError(f"reference elimination disagrees on {type_}{n}")
    if ref.laufer_cycle(matrix) != root:
        raise AssertionError(f"reference Laufer cycle of {type_}{n} is not the highest root")
    first = type_ == "A"

    def check(outcome):
        bad = cli_status(outcome, 0)
        if bad:
            return bad
        doc = json.loads(outcome.out)
        z = doc["fundamental_cycle"]
        reason = ref.check_cycle(z, matrix, root)
        summary = doc["dual_graph_summary"]
        if not reason and (summary["vertices"], summary["edges"]) != (n, n - 1):
            reason = f"summary {summary}"
        if not reason and (doc["reduced"], doc["kind"]) != (first, "first" if first else "second"):
            reason = f"verdict {doc['reduced']}, {doc['kind']}"
        if reason:
            return Checked("wrong", f"{type_}{n}: {reason}")
        return Checked("ok", increments=sum(z) - n)

    return Op(" ".join(argv), lambda: run_cli(cli, argv), check)


def graph_doc(weights, edges) -> dict:
    return {
        "vertices": [{"id": i, "self_intersection": w} for i, w in enumerate(weights)],
        "edges": [{"a": a, "b": b, "multiplicity": m} for a, b, m in edges],
    }


def graph_file_op(cli, path, weights, edges, expected) -> Op:
    """fundamental-cycle --graph; expected is the cycle, or None when the
    graph is not negative definite (exit 4, nothing on stdout)."""
    argv = ["fundamental-cycle", "--graph", path, "--format", "structured"]
    matrix = ref.intersection_matrix(weights, edges)

    def check(outcome):
        bad = cli_status(outcome, 0 if expected else 4)
        if bad:
            return bad
        if expected is None:
            return Checked("ok") if outcome.out == "" else Checked("wrong", "stdout on exit 4")
        doc = json.loads(outcome.out)
        z = doc["coefficients"]
        reason = ref.check_cycle(z, matrix, expected)
        if not reason and doc["reduced"] != all(c == 1 for c in z):
            reason = f"reduced flag {doc['reduced']} for {z}"
        if reason:
            return Checked("wrong", f"{os.path.basename(path)}: {reason}")
        return Checked("ok", increments=sum(z) - len(z))

    return Op(" ".join(argv), lambda: run_cli(cli, argv), check)


def malformed_op(cli, label, argv) -> Op:
    """Malformed input: must end in exit 2 with empty stdout."""

    def check(outcome):
        if outcome.exc is None and outcome.code == 2 and outcome.out == "":
            return Checked("ok")
        what = type(outcome.exc).__name__ if outcome.exc else f"exit {outcome.code}"
        return Checked("failed", f"{label}: {what}")

    return Op(label, lambda: run_cli(cli, argv), check)


def random_tree(rng, size):
    """Random recursive tree with vertex ids shuffled and weights in -1..-4."""
    perm = list(range(size))
    rng.shuffle(perm)
    edges = [(perm[i], perm[rng.randrange(i)], 1) for i in range(1, size)]
    weights = [rng.choice((-1, -2, -2, -2, -3, -3, -4)) for _ in range(size)]
    return weights, edges


def dynkin_exact(mods, rng, workdir):
    cli = mods["duval_kind.cli"]
    ops = [classify_op(cli, "A", n) for n in LADDER_A]
    ops += [classify_op(cli, "D", n) for n in LADDER_D]
    ops += [classify_op(cli, "E", n) for n in (6, 7, 8)]

    def write(name, doc):
        path = os.path.join(workdir, name)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    # ADE graphs with vertex ids permuted; the highest root is re-indexed
    for type_, n in (("A", rng.randint(10, 20)), ("D", rng.randint(10, 20)),
                     ("E", 6), ("E", 7), ("E", 8)):
        perm = list(range(n))
        rng.shuffle(perm)
        edges = [(perm[a], perm[b], 1) for a, b in ref.dynkin_edges(type_, n)]
        root = [0] * n
        for old, c in enumerate(ref.highest_root(type_, n)):
            root[perm[old]] = c
        path = write(f"{type_}{n}.json", graph_doc([-2] * n, edges))
        ops.append(graph_file_op(cli, path, [-2] * n, edges, root))

    # weighted trees: a fixed number of definite and indefinite ones
    want = {True: TREES_DEFINITE, False: TREES_INDEFINITE}
    while any(want.values()):
        weights, edges = random_tree(rng, TREE_VERTICES)
        matrix = ref.intersection_matrix(weights, edges)
        definite = ref.is_negative_definite(matrix)
        if want[definite] == 0:
            continue
        want[definite] -= 1
        path = write(f"tree{len(ops)}.json", graph_doc(weights, edges))
        expected = ref.laufer_cycle(matrix) if definite else None
        ops.append(graph_file_op(cli, path, weights, edges, expected))

    two = [{"id": 0, "self_intersection": -2}, {"id": 1, "self_intersection": -2}]
    malformed = (
        ("vertex without self_intersection",
         {"vertices": [two[0], {"id": 1}], "edges": [{"a": 0, "b": 1}]}),
        ("edge without b", {"vertices": two, "edges": [{"a": 0}]}),
        ("vertex as bare int", {"vertices": [0, 1], "edges": [{"a": 0, "b": 1}]}),
    )
    for i, (label, doc) in enumerate(malformed):
        path = write(f"malformed{i}.json", doc)
        ops.append(malformed_op(cli, label, ["fundamental-cycle", "--graph", path]))
    ops.append(malformed_op(cli, "exponent overflow", ["residue", "--equation", "x^99999999"]))
    return ops


WORKLOADS = {
    "a-series": a_series,
    "structure-form": structure_form,
    "dynkin-exact": dynkin_exact,
}


# -- measurement ------------------------------------------------------------------

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: list = field(default_factory=list)


def run_round(ops, tally, tracer=None):
    """Run every operation once; returns per-op wall times and verdicts."""
    times, verdicts = [], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        start = time.perf_counter()
        result = op.run()
        times.append(time.perf_counter() - start)
        verdict = op.check(result)
        verdicts.append(verdict)
        tally.attempted += 1
        if verdict.status == "failed":
            tally.failed += 1
        elif verdict.status == "wrong":
            tally.wrong.append(f"{op.label}: {verdict.reason}")
    return times, verdicts


def measure_setup(env) -> float:
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def layer_metrics(spans, verdicts, overhead):
    own = tracing.self_times(spans)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return math.fsum(tracing.duration(s) for s in named(name))

    def self_total(name):
        return math.fsum(own[s["id"]] for s in named(name))

    integrals = named("quadrature.integral_Ik")
    norms = named("quadrature.structure_form_l2_norm")
    integral_s = total("quadrature.integral_Ik")
    cells = sum(s["cells"] for s in integrals)
    cycle_self_s = self_total("cycles.fundamental_cycle")
    increments = sum(v.increments for v in verdicts)
    slacks = [x for v in verdicts for x in v.slacks]
    under_classify = [
        s for s in integrals
        if any(a["name"] == "classify.classify" for a in tracing.ancestors(spans, s))
    ]
    return {
        "quadrature.integral_Ik_s": (integral_s, "s"),
        "quadrature.integral_Ik_calls": (len(integrals), "count"),
        "quadrature.cells": (cells, "count"),
        "quadrature.cells_per_s": (cells / integral_s if integral_s else 0.0, "1/s"),
        "quadrature.structure_form_s": (total("quadrature.structure_form_l2_norm"), "s"),
        "quadrature.structure_form_cells": (sum(s["cells"] for s in norms), "count"),
        "quadrature.err_slack": (statistics.median(slacks) if slacks else 0.0, "ratio"),
        "classify.self_s": (self_total("classify.classify"), "s"),
        "classify.integral_calls": (len(under_classify), "count"),
        "dual_graph.is_negative_definite_s": (total("dual_graph.is_negative_definite"), "s"),
        "dual_graph.is_negative_definite_calls": (len(named("dual_graph.is_negative_definite")), "count"),
        "dual_graph.load_graph_s": (total("dual_graph.load_graph"), "s"),
        "cycles.fundamental_cycle_self_s": (cycle_self_s, "s"),
        "cycles.laufer_increments": (increments, "count"),
        "cycles.increments_per_s": (increments / cycle_self_s if cycle_self_s else 0.0, "1/s"),
        "cli.self_s": (self_total("cli.main"), "s"),
        "trace.overhead_s": (overhead, "s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "duval_kind", "cli.py")):
        print(f"error: no duval_kind sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # measure the default configuration: no quadrature thread pool
    os.environ.pop("WORKERS", None)
    sys.path.insert(0, SRC)
    mods = {name: importlib.import_module(name) for name in {m for m, _, _ in tracing.SPAN_POINTS}}
    if not mods["duval_kind.cli"].__file__.startswith(SRC):
        print("error: duval_kind was not imported from ./src", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    workdir = os.path.join(OUT, f"inputs-{tag}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        ops = WORKLOADS[args.workload](mods, random.Random(args.seed), workdir)
        tally = Tally()
        rounds = []
        start = time.perf_counter()
        while True:
            times, verdicts = run_round(ops, tally)
            rounds.append(times)
            if args.trace or time.perf_counter() - start + sum(times) > args.seconds:
                break
        if args.trace:
            tracer = tracing.Tracer(mods)
            try:
                traced_times, verdicts = run_round(ops, tally, tracer)
            finally:
                tracer.restore()
            overhead = sum(traced_times) - sum(rounds[0])
            metrics = layer_metrics(tracer.spans, verdicts, overhead)
            with open(os.path.join(OUT, f"spans-{tag}.json"), "w") as fh:
                json.dump({"ops": [op.label for op in ops], "spans": tracer.spans}, fh)
        else:
            per_op = [statistics.median(t) for t in zip(*rounds)]
            metrics = {
                "setup_s": (measure_setup(env), "s"),
                "run_s": (statistics.median(sum(t) for t in rounds), "s"),
                "slowest_op_s": (max(per_op), "s"),
                "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in tally.wrong:
        print(f"wrong: {line}", file=sys.stderr)
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT, f"result-{tag}-trace{args.trace}.json"), "w") as fh:
        json.dump(dict(result, op_seconds=rounds), fh, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
