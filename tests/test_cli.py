import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import duval_kind
from duval_kind import cli
from duval_kind.cli import (
    EXIT_BUDGET,
    EXIT_NOT_NEGATIVE_DEFINITE,
    EXIT_OK,
    EXIT_USAGE,
    SystemExit2,
    build_parser,
    main,
    parse_argv,
)
from duval_kind.cycles import fundamental_cycle, is_reduced
from duval_kind.dual_graph import build_dynkin, graph_to_dict


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_a2(capsys):
    code, out, err = run_cli(capsys, "classify", "A", "2")
    assert code == EXIT_OK
    assert "kind: first" in out
    assert "fundamental_cycle: 1 1" in out
    assert err == ""


def test_classify_out_of_range(capsys):
    code, out, err = run_cli(capsys, "classify", "E", "9")
    assert code == EXIT_USAGE
    assert out == ""
    assert "error" in err


def test_classify_structured_d4(capsys):
    code, out, _ = run_cli(capsys, "classify", "D", "4", "--format", "structured")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["reduced"] is False
    assert doc["kind"] == "second"


def test_classify_with_numerics(capsys):
    code, out, _ = run_cli(capsys, "classify", "A", "1", "--numerics", "--tol", "1e-3")
    assert code == EXIT_OK
    assert "numerical_evidence" in out


def test_fundamental_cycle_a4(capsys):
    code, out, _ = run_cli(capsys, "fundamental-cycle", "A", "4")
    assert code == EXIT_OK
    assert out.strip() == "1 1 1 1, reduced"


def test_fundamental_cycle_e8(capsys):
    code, out, _ = run_cli(capsys, "fundamental-cycle", "E", "8")
    assert code == EXIT_OK
    coeffs, flag = out.strip().rsplit(",", 1)
    assert len(coeffs.split()) == 8
    assert flag.strip() == "not reduced"


def test_fundamental_cycle_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "vertices": [{"id": 0, "self_intersection": 0}],
                "edges": [],
            }
        )
    )
    code, out, err = run_cli(capsys, "fundamental-cycle", "--graph", str(path))
    assert code == EXIT_USAGE
    assert "self_intersection_negative" in err


def test_fundamental_cycle_not_negative_definite(capsys, tmp_path):
    path = tmp_path / "nnd.json"
    path.write_text(
        json.dumps(
            {
                "vertices": [
                    {"id": 0, "self_intersection": -1},
                    {"id": 1, "self_intersection": -1},
                ],
                "edges": [{"a": 0, "b": 1, "multiplicity": 1}],
            }
        )
    )
    code, out, err = run_cli(capsys, "fundamental-cycle", "--graph", str(path))
    assert code == EXIT_NOT_NEGATIVE_DEFINITE
    assert out == ""
    assert "not negative definite" in err


def test_integral_table_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "integral-table", "--type", "A", "--n", "1", "--kmax", "3", "--tol", "1e-3",
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "k,value,error,truncation_bound,subregions"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(values) == 3
    assert all(a > b for a, b in zip(values, values[1:]))


def test_integral_table_kmax_cap(capsys):
    code, _, err = run_cli(capsys, "integral-table", "--type", "A", "--n", "1", "--kmax", "9")
    assert code == EXIT_USAGE


def test_integral_table_rejects_d(capsys):
    code, _, err = run_cli(capsys, "integral-table", "--type", "D", "--n", "4")
    assert code == EXIT_USAGE
    assert "only for the A series" in err


def test_residue_a1(capsys):
    code, out, _ = run_cli(capsys, "residue", "A", "1")
    assert code == EXIT_OK
    assert "f = z^2 - x*y" in out
    assert "df/dz = 2*z" in out


def test_residue_custom_equation(capsys):
    code, out, _ = run_cli(capsys, "residue", "--equation", "x^2+y^3+z^5")
    assert code == EXIT_OK
    assert "5*z^4" in out


def test_residue_parse_error_with_caret(capsys):
    for argv in (["--equation", "x^^2"], ["--equation=x^^2"]):
        code, out, err = run_cli(capsys, "residue", *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.splitlines()[-2:] == ["  x^^2", "    ^"]


def test_residue_huge_index_names_the_index(capsys):
    code, out, err = run_cli(capsys, "residue", "D", "1000000000")
    assert code == EXIT_USAGE
    assert out == ""
    assert "D1000000000" in err
    assert "position" not in err


def test_byte_identical_repeat_runs(capsys):
    _, out1, _ = run_cli(
        capsys, "integral-table", "--type", "A", "--n", "1", "--kmax", "2", "--tol", "1e-3"
    )
    _, out2, _ = run_cli(
        capsys, "integral-table", "--type", "A", "--n", "1", "--kmax", "2", "--tol", "1e-3"
    )
    assert out1 == out2
    _, c1, _ = run_cli(capsys, "classify", "E", "6", "--format", "structured")
    _, c2, _ = run_cli(capsys, "classify", "E", "6", "--format", "structured")
    assert c1 == c2


def test_integral_table_rejects_non_finite_tol(capsys):
    for tol in ("nan", "inf"):
        code, out, err = run_cli(capsys, "integral-table", "--n", "1", "--tol", tol)
        assert code == EXIT_USAGE
        assert out == ""
        assert "rel_tol" in err


def test_fundamental_cycle_graph_is_directory(capsys, tmp_path):
    code, out, err = run_cli(capsys, "fundamental-cycle", "--graph", str(tmp_path))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


TWO_VERTICES = [{"id": 0, "self_intersection": -2}, {"id": 1, "self_intersection": -2}]
MALFORMED_GRAPHS = {
    "vertex-without-self-intersection": {
        "vertices": [TWO_VERTICES[0], {"id": 1}],
        "edges": [{"a": 0, "b": 1}],
    },
    "self-intersection-abc": {
        "vertices": [TWO_VERTICES[0], {"id": 1, "self_intersection": "abc"}],
        "edges": [{"a": 0, "b": 1}],
    },
    "edge-without-b": {"vertices": TWO_VERTICES, "edges": [{"a": 0}]},
    "vertex-as-bare-int": {"vertices": [0, 1], "edges": [{"a": 0, "b": 1}]},
    "path-of-1001-vertices": {
        "vertices": [{"id": i, "self_intersection": -2} for i in range(1001)],
        "edges": [{"a": i, "b": i + 1} for i in range(1000)],
    },
}
MALFORMED_ARGV = {
    "exponent-overflow": ["residue", "--equation", "x^99999999"],
    # coefficients of df/dz and of f with more digits than int prints
    "derivative-past-digit-limit": ["residue", "--equation", "9" * 4300 + "z^9"],
    "sum-past-digit-limit": ["residue", "--equation", "9" * 4300 + "x + " + "9" * 4300 + "x"],
    "classify-index-1001": ["classify", "A", "1001"],
    "fundamental-cycle-index-5000": ["fundamental-cycle", "D", "5000"],
    "integral-table-kmax-0": ["integral-table", "--n", "1", "--kmax", "0"],
    "integral-table-kmax-10**18": ["integral-table", "--n", "2", "--kmax", str(10**18)],
    "integral-table-n-above-2**53": ["integral-table", "--n", str(2**53 + 1)],
    "integral-table-n-10**400": ["integral-table", "--n", str(10**400)],
    "classify-D-tol-nan": ["classify", "D", "4", "--numerics", "--tol", "nan"],
    "classify-E-tol-1e-9": ["classify", "E", "6", "--numerics", "--tol", "1e-9"],
    # in-process only: an OS argv cannot carry NUL
    "graph-path-with-nul": ["fundamental-cycle", "--graph", "a\x00b"],
    # a file or equation and a positional: neither is dropped in silence
    "graph-and-type-index": ["fundamental-cycle", "--graph", "GRAPH", "A", "3"],
    "graph-and-type": ["fundamental-cycle", "--graph", "GRAPH", "A"],
    "equation-and-type-index": ["residue", "--equation", "x^2", "A", "1"],
}


@pytest.mark.parametrize(
    "case", [*MALFORMED_GRAPHS, "graph-is-directory", *MALFORMED_ARGV]
)
def test_malformed_input_exits_2(capsys, tmp_path, case):
    if case in MALFORMED_ARGV:
        # GRAPH is a valid file, so that the conflict is the only fault
        path = tmp_path / "a2.json"
        path.write_text(json.dumps({"vertices": TWO_VERTICES, "edges": [{"a": 0, "b": 1}]}))
        argv = [str(path) if a == "GRAPH" else a for a in MALFORMED_ARGV[case]]
    else:
        path = tmp_path
        if case in MALFORMED_GRAPHS:
            path = tmp_path / "graph.json"
            path.write_text(json.dumps(MALFORMED_GRAPHS[case]))
        argv = ["fundamental-cycle", "--graph", str(path)]
    code, out, err = run_cli(capsys, *argv)  # an exception fails the test
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "type_,root",
    [("A", " ".join(["1"] * 1000)), ("D", " ".join(["1"] + ["2"] * 997 + ["1", "1"]))],
)
def test_classify_at_largest_index_prints_highest_root(capsys, type_, root):
    code, out, err = run_cli(capsys, "classify", type_, "1000")
    assert code == EXIT_OK
    assert err == ""
    assert f"fundamental_cycle: {root}\n" in out


def test_an_option_value_starting_with_a_dash_is_left_to_argparse(capsys):
    # argparse reads "-1e5" as an option, not as the value of --tol, and
    # prints its usage; a plain-argv reader that took it as the value would
    # print check_tol's message instead
    code, out, err = run_cli(capsys, "integral-table", "--n", "2", "--tol", "-1e5")
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("usage: duval-kind integral-table ")
    assert err.endswith("error: argument --tol: expected one argument\n")


def test_reused_parser_keeps_no_state(capsys):
    malformed = ("classify", "A")  # index missing
    nan_tol = ("integral-table", "--n", "1", "--tol", "nan")
    structured = ("classify", "D", "5", "--format", "structured")
    first_errors = [run_cli(capsys, *argv) for argv in (malformed, nan_tol)]
    assert [code for code, _, _ in first_errors] == [EXIT_USAGE, EXIT_USAGE]
    once, twice = run_cli(capsys, *structured), run_cli(capsys, *structured)
    assert once == twice
    assert once[0] == EXIT_OK
    assert [run_cli(capsys, *argv) for argv in (malformed, nan_tol)] == first_errors


def test_fundamental_cycle_structured_is_json_dumps_indent_2(capsys):
    for type_, n in [("A", 1), ("A", 55), ("D", 4), ("D", 1000), ("E", 6), ("E", 7), ("E", 8)]:
        code, out, _ = run_cli(capsys, "fundamental-cycle", type_, str(n), "--format", "structured")
        z = fundamental_cycle(build_dynkin(type_, n))
        doc = {"coefficients": list(z.coefficients), "reduced": is_reduced(z)}
        assert (code, out) == (EXIT_OK, json.dumps(doc, indent=2) + "\n"), (type_, n)


def test_plain_argv_is_parsed_without_argparse(capsys, monkeypatch, tmp_path):
    def no_parser():
        raise AssertionError("argparse ran")

    path = tmp_path / "a2.json"
    path.write_text(json.dumps({"vertices": TWO_VERTICES, "edges": [{"a": 0, "b": 1}]}))
    monkeypatch.setattr(cli, "build_parser", no_parser)
    for argv in (
        ["classify", "D", "55", "--format", "structured"],
        ["classify", "A", "2", "--numerics", "--tol=1e-3", "--format", "plain"],
        ["fundamental-cycle", "E", "8"],
        ["fundamental-cycle", "--graph", str(path), "--format=structured"],
        ["integral-table", "--n", "1", "--kmax=1", "--tol", "1e-3", "--type", "A"],
        ["residue", "D", "5"],
        ["residue", "--equation", "x^2+y^3+z^5"],
    ):
        code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (EXIT_OK, ""), argv


# -- no CLI command loads numpy; the norm, which no command computes, does ------

# runs cli.main(argv) with stderr discarded, prints the exit code and
# whether numpy and fractions were imported, then the command's stdout;
# no argv means `import duval_kind` alone, with the names of the
# duval_kind submodules it loaded as stdout
FRESH_INTERPRETER = """
import contextlib, io, sys
import duval_kind
code, out = None, io.StringIO()
if sys.argv[1:]:
    import duval_kind.cli as cli
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(sys.argv[1:])
else:
    out.write(" ".join(m for m in sys.modules if m.startswith("duval_kind.")))
print(code, "numpy" in sys.modules, "fractions" in sys.modules)
print(out.getvalue(), end="")
"""

NUMPY_FREE = {
    "import": [],
    "classify-e8": ["classify", "E", "8"],
    "classify-a5-structured": ["classify", "A", "5", "--format", "structured"],
    "classify-d6-numerics": ["classify", "D", "6", "--numerics"],
    "fundamental-cycle-d6": ["fundamental-cycle", "D", "6"],
    "fundamental-cycle-graph": ["fundamental-cycle", "--graph", "GRAPH"],
    "residue-d5": ["residue", "D", "5"],
    "residue-equation": ["residue", "--equation", "x^2+y^3+z^5"],
    # band rows are a closed form, a table entry or the flat limit: no kernel
    "table-n1-kmax1": ["integral-table", "--n", "1", "--kmax", "1"],
    "table-n1-kmax4": ["integral-table", "--n", "1", "--kmax", "4"],
    "classify-a1-numerics": ["classify", "A", "1", "--numerics"],
    "table-n2-kmax1": ["integral-table", "--n", "2", "--kmax", "1"],
    "table-n2-kmax4": ["integral-table", "--n", "2", "--kmax", "4"],
    "table-n1000": ["integral-table", "--n", "1000"],
    "table-n-max": ["integral-table", "--n", "9007199254740992"],
    "classify-a2-numerics": ["classify", "A", "2", "--numerics"],
}
# usage errors
REFUSED_WITHOUT_NUMPY = {
    "table-tol-nan": ["integral-table", "--n", "2", "--tol", "nan"],
    "table-n-0": ["integral-table", "--n", "0"],
    "table-kmax-0": ["integral-table", "--n", "2", "--kmax", "0"],
    "table-kmax-5": ["integral-table", "--n", "2", "--kmax", "5"],
    "table-type-d": ["integral-table", "--n", "2", "--type", "D"],
    "classify-a2-tol-nan": ["classify", "A", "2", "--numerics", "--tol", "nan"],
    "classify-d4-tol-nan": ["classify", "D", "4", "--numerics", "--tol", "nan"],
}
FRESH_CASES = {**NUMPY_FREE, **REFUSED_WITHOUT_NUMPY}


def run_fresh(argv, timeout=None, **environ):
    """(exit code or None, numpy imported, fractions imported, stdout) of argv
    in a new interpreter, with environ added to its environment;
    subprocess.TimeoutExpired after timeout seconds."""
    source_root = os.path.dirname(os.path.dirname(duval_kind.__file__))
    search_path = [source_root] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = {**os.environ, **environ, "PYTHONPATH": os.pathsep.join(filter(None, search_path))}
    done = subprocess.run(
        [sys.executable, "-c", FRESH_INTERPRETER, *argv],
        capture_output=True, text=True, env=env, check=True, timeout=timeout,
    )
    status, out = done.stdout.split("\n", 1)
    code, numpy_loaded, fractions_loaded = status.split()
    return (
        None if code == "None" else int(code),
        numpy_loaded == "True",
        fractions_loaded == "True",
        out,
    )


@pytest.mark.parametrize("case", FRESH_CASES)
def test_numpy_loads_only_for_an_integral(tmp_path, case):
    argv = FRESH_CASES[case]
    if "GRAPH" in argv:
        path = tmp_path / "a3.json"
        path.write_text(json.dumps({
            "vertices": [{"id": i, "self_intersection": -2} for i in range(3)],
            "edges": [{"a": 0, "b": 1}, {"a": 1, "b": 2}],
        }))
        argv = [str(path) if a == "GRAPH" else a for a in argv]
    code, numpy_loaded, fractions_loaded, out = run_fresh(argv)
    if not argv:
        assert code is None
        assert out == ""  # the package root imports no submodule
    else:
        assert code == (EXIT_USAGE if case in REFUSED_WITHOUT_NUMPY else EXIT_OK)
    assert not numpy_loaded
    assert not fractions_loaded  # the certificate is integer-only


def test_the_norm_alone_loads_numpy():
    # a table in the same process loads none; the norm's kernel does
    source = (
        "import sys\n"
        "from duval_kind.quadrature import integral_Ik_bands, structure_form_l2_norm\n"
        "integral_Ik_bands(3, (1, 2, 3, 4), 1e-8)\n"
        "print('numpy' in sys.modules)\n"
        "structure_form_l2_norm(2, 0.2, 1e-4)\n"
        "print('numpy' in sys.modules)\n"
    )
    source_root = os.path.dirname(os.path.dirname(duval_kind.__file__))
    search_path = [source_root] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, search_path))}
    done = subprocess.run(
        [sys.executable, "-c", source], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.split() == ["False", "True"]


def test_bulk_laufer_steps_bound_the_work(tmp_path):
    """Weights -1 and -(10^18 + 1) with one edge of multiplicity 10^9
    (ab - m^2 = 1): the fundamental cycle is (10^9, 1), one block of
    Laufer steps.  Unit steps would take 10^9 increments; the wall bound
    turns that into a failure instead of a hang."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "vertices": [
            {"id": 0, "self_intersection": -1},
            {"id": 1, "self_intersection": -(10**18 + 1)},
        ],
        "edges": [{"a": 0, "b": 1, "multiplicity": 10**9}],
    }))
    argv = ["fundamental-cycle", "--graph", str(path), "--format", "structured"]
    code, _, _, out = run_fresh(argv, timeout=30)
    assert code == EXIT_OK
    assert json.loads(out)["coefficients"] == [10**9, 1]


def test_graph_file_is_read_as_utf8_in_any_locale(tmp_path):
    """JSON is UTF-8 (RFC 8259 section 8.1), whatever the locale's
    preferred encoding: here ASCII."""
    path = tmp_path / "a2.json"
    doc = graph_to_dict(build_dynkin("A", 2))
    doc["vertices"][0]["note"] = "\u00e9"
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    argv = ["fundamental-cycle", "--graph", str(path), "--format", "structured"]
    code, _, _, out = run_fresh(argv, timeout=30, PYTHONUTF8="0", LC_ALL="C")
    assert code == EXIT_OK
    assert json.loads(out)["coefficients"] == [1, 1]


def test_residue_parse_is_linear_in_the_equation():
    """12,000 distinct terms in one argv string under 128 KiB, the
    kernel's limit on one argument.  A parse quadratic in the term count
    takes about a minute here; the wall bound turns that into a failure."""
    equation = "+".join(f"x^{e}" for e in range(1, 12001))
    assert len(equation.encode()) < 128 * 1024
    code, _, _, out = run_fresh(["residue", "--equation", equation], timeout=20)
    assert code == EXIT_OK
    f_line, dz_line = out.splitlines()
    assert f_line.startswith("f = x + x^2 + ") and f_line.endswith(" + x^12000")
    assert f_line.count("+") == 11999
    assert dz_line == "df/dz = 0"


@pytest.mark.parametrize("case", ["derivative-past-digit-limit", "sum-past-digit-limit"])
def test_residue_past_the_digit_limit_prints_nothing(case):
    """Each line is built before either is printed: a coefficient that
    int cannot print leaves stdout empty, not a lone f line."""
    code, _, _, out = run_fresh(MALFORMED_ARGV[case], timeout=20)
    assert (code, out) == (EXIT_USAGE, "")


# -- argv fuzzing --------------------------------------------------------------

ARGV_TEXT = st.characters(exclude_characters="\x00")  # no argv string holds NUL
ADE_TYPE = st.sampled_from(["A", "D", "E"]) | st.text(ARGV_TEXT, max_size=3)
INDEX = (st.integers(-3, 1005) | st.integers(-(10**400), 10**400)).map(str)
TOL = (st.sampled_from([math.nan, math.inf, -math.inf, -1e-4, 0.0, 1e-8]) | st.floats()).map(str)
FORMAT = st.sampled_from(["plain", "structured", "csv"]) | st.text(ARGV_TEXT, max_size=3)
# a value of None stands for a flag without a value
SUBCOMMANDS = {
    "classify": (
        st.tuples(ADE_TYPE, INDEX),
        {"--numerics": st.none(), "--tol": TOL, "--format": FORMAT},
    ),
    "fundamental-cycle": (
        st.tuples() | st.tuples(ADE_TYPE) | st.tuples(ADE_TYPE, INDEX),
        {
            "--graph": st.text(ARGV_TEXT, max_size=12).map(
                lambda name: os.path.join("no-such-directory", name)
            ),
            "--format": FORMAT,
        },
    ),
    "integral-table": (
        st.tuples(),
        {
            "--type": ADE_TYPE,
            "--n": INDEX,
            "--kmax": st.integers(-1, 6).map(str),
            "--tol": TOL,
            "--format": FORMAT,
        },
    ),
    "residue": (
        st.tuples() | st.tuples(ADE_TYPE) | st.tuples(ADE_TYPE, INDEX),
        {
            "--equation": st.text(ARGV_TEXT, max_size=24)
            | st.text("xyz0123456789^*+- ", max_size=24),
        },
    ),
}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    positionals, options = SUBCOMMANDS[command]
    argv = [command, *draw(positionals)]
    for option, value in draw(st.fixed_dictionaries({}, optional=options)).items():
        if value is None:
            argv.append(option)
        elif draw(st.booleans()):
            argv += [option, value]
        else:
            argv.append(f"{option}={value}")
    return argv


@settings(deadline=None, max_examples=200)
@given(cli_argv())
def test_fuzzed_argv_ends_in_a_contract_exit_code(argv):
    """Every argv of the four subcommands' grammar ends in exit 0, 2, 3 or 4,
    with no exception and nothing on stdout unless the exit is 0.

    argparse ends --help and -h (which the free text can spell) with
    SystemExit, as it ends the real process; its code counts as the exit.
    Graph-file contents are fuzzed by the test below, and no wall bound is
    asserted: near-singular definite forms such as the Cassini form still
    make Laufer's loop take 2F_k - 1 steps, and a graph Laufer cannot
    settle within its step budget still costs the elimination O(n^3) under
    fill (ROADMAP item 5).
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_BUDGET, EXIT_NOT_NEGATIVE_DEFINITE)
    if code != EXIT_OK:
        assert out.getvalue() == ""


# -- graph-file fuzzing --------------------------------------------------------

def _graph_doc(weights, edges):
    return {
        "vertices": [{"id": i, "self_intersection": w} for i, w in enumerate(weights)],
        "edges": [{"a": a, "b": b, "multiplicity": m} for a, b, m in edges],
    }


# valid documents: definite and not, trees and a cycle, big integers
VALID_GRAPH_DOCS = [
    graph_to_dict(build_dynkin("A", 5)),
    graph_to_dict(build_dynkin("D", 6)),
    graph_to_dict(build_dynkin("E", 8)),
    _graph_doc((-3, -3, -3), [(0, 1, 1), (1, 2, 1), (0, 2, 1)]),
    _graph_doc((-1, -2, -1), [(0, 1, 1), (1, 2, 1)]),  # kernel (1, 1, 1)
    _graph_doc((-610, -1597), [(0, 1, 987)]),  # Cassini form, 1219 Laufer steps
    _graph_doc((-1, -(10**18 + 1)), [(0, 1, 10**9)]),
]


def _dict_entries(doc):
    """The vertex and edge entries of doc that are still objects."""
    return [
        entry
        for name in ("vertices", "edges")
        if isinstance(doc.get(name), list)
        for entry in doc[name]
        if isinstance(entry, dict)
    ]


def _set_field(rng, doc, values):
    entries = _dict_entries(doc)
    if entries:
        entry = rng.choice(entries)
        key = rng.choice(sorted(entry) or ["id"])
        entry[key] = rng.choice(values)


def drop_field(rng, doc):
    entries = _dict_entries(doc)
    if rng.random() < 0.2 or not entries:
        doc.pop(rng.choice(("vertices", "edges")), None)
    else:
        entry = rng.choice(entries)
        if entry:
            del entry[rng.choice(sorted(entry))]


def odd_value(rng, doc):
    _set_field(rng, doc, [True, False, 1.5, -2.0, "1", "-2", None, [], {}])


def huge_int(rng, doc):
    _set_field(rng, doc, [10**30, -(10**30), 2**63, -(2**63), 10**400])


def nonpositive_multiplicity(rng, doc):
    edges = [e for e in _dict_entries(doc) if "a" in e or "b" in e]
    if edges:
        rng.choice(edges)["multiplicity"] = rng.choice((0, -1, -(10**9)))


def _edge_list(doc):
    return doc["edges"] if isinstance(doc.get("edges"), list) else None


def self_loop(rng, doc):
    edges = _edge_list(doc)
    if edges is not None:
        v = rng.randrange(10)  # an id past the last vertex is caught as a loop first
        edges.append({"a": v, "b": v})


def reversed_duplicate_edge(rng, doc):
    edges = _edge_list(doc)
    originals = [e for e in edges or [] if isinstance(e, dict)]
    if originals:
        e = rng.choice(originals)
        edges.append({"a": e.get("b"), "b": e.get("a"), "multiplicity": 1})


def disconnect(rng, doc):
    vertices = doc.get("vertices")
    if isinstance(vertices, list):
        vertices.append({"id": len(vertices), "self_intersection": -2})


def non_dict_entry(rng, doc):
    junk = rng.choice((0, "x", None, [1, 2], True, 1.5))
    lists = [doc[name] for name in ("vertices", "edges") if isinstance(doc.get(name), list)]
    if rng.random() < 0.2 or not any(lists):
        doc[rng.choice(("vertices", "edges"))] = junk
    else:
        entries = rng.choice([entries for entries in lists if entries])
        entries[rng.randrange(len(entries))] = junk


GRAPH_MUTATIONS = (
    drop_field,
    odd_value,
    huge_int,
    nonpositive_multiplicity,
    self_loop,
    reversed_duplicate_edge,
    disconnect,
    non_dict_entry,
)


@pytest.mark.parametrize("seed", range(4))
def test_fuzzed_graph_file_ends_in_a_contract_exit_code(tmp_path, seed):
    """Seeded mutations of valid graph documents through `fundamental-cycle
    --graph`, in-process: each ends in exit 0, 2 or 4 with no exception,
    and with nothing on stdout unless the exit is 0."""
    rng = random.Random(seed)
    path = tmp_path / "graph.json"
    codes = set()
    for _ in range(80):
        doc = json.loads(json.dumps(rng.choice(VALID_GRAPH_DOCS)))  # a deep copy
        for mutate in rng.sample(GRAPH_MUTATIONS, rng.randint(1, 2)):
            mutate(rng, doc)
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["fundamental-cycle", "--graph", str(path)])
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_NOT_NEGATIVE_DEFINITE), doc
        if code != EXIT_OK:
            assert out.getvalue() == "", doc
            assert err.getvalue().startswith("error:"), doc
        codes.add(code)
    assert EXIT_USAGE in codes


# -- one grammar: a command's subparser agrees with the top-level parse ---------

def parse_outcome(parse, argv):
    """(result, stdout, stderr) of parse(argv): the result is the repr of the
    Namespace's sorted vars() (so that a NaN equals itself), or the exit
    code, with the message main prints after "error:" for a usage error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = repr(sorted(vars(parse(argv)).items()))
        except SystemExit2 as exc:
            result = (EXIT_USAGE, str(exc))
        except SystemExit as exc:  # -h and --help
            result = exc.code
    return result, out.getvalue(), err.getvalue()


EXTRA_TOKEN = st.sampled_from([
    "--", "-h", "--help", "--he", "-", "extra", "--x=y", "-x", "-3", "A", "3",
    "--format", "--format=structured", "--form", "--numerics", "--graph", "classify",
]) | st.text(ARGV_TEXT, max_size=6)
UNKNOWN_COMMAND = st.text(ARGV_TEXT, max_size=12).filter(lambda word: word not in SUBCOMMANDS)


@st.composite
def routed_argv(draw):
    """cli_argv, empty argv or an unknown command, with tokens inserted anywhere."""
    argv = draw(
        cli_argv()
        | st.just([])
        | st.tuples(UNKNOWN_COMMAND, cli_argv()).map(lambda pair: [pair[0], *pair[1][1:]])
    )
    for token in draw(st.lists(EXTRA_TOKEN, max_size=3)):
        argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


@settings(deadline=None, max_examples=500)
@given(cli_argv() | routed_argv())
@example([])
@example(["-h"])
@example(["--"])
@example(["--", "classify", "A", "2"])
@example(["classify", "--", "A", "2"])
@example(["classify", "A", "2", "-h"])
@example(["classify", "A", "2", "--x=y"])
@example(["classify", "A", "2", "extra"])
@example(["classify", "A", "2", "--form", "structured"])
@example(["nope", "A", "2"])
@example(["classify", "D", "5", "--tol", "1e-3", "--numerics"])
@example(["fundamental-cycle", "A", "--graph=", "--format", "structured"])
@example(["integral-table", "--format", "plain", "--n=2"])
@example(["residue", "--equation", "x^2"])
@example(["classify", "A", "2", "--numerics="])
def test_direct_route_agrees_with_the_top_level_parse(argv):
    assert parse_outcome(parse_argv, argv) == parse_outcome(build_parser().parse_args, argv)
