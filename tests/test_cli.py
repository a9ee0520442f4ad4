import json

import pytest

from duval_kind.cli import (
    EXIT_NOT_NEGATIVE_DEFINITE,
    EXIT_OK,
    EXIT_USAGE,
    main,
)


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
    "classify-index-1001": ["classify", "A", "1001"],
    "fundamental-cycle-index-5000": ["fundamental-cycle", "D", "5000"],
    "integral-table-kmax-0": ["integral-table", "--n", "1", "--kmax", "0"],
}


@pytest.mark.parametrize(
    "case", [*MALFORMED_GRAPHS, "graph-is-directory", *MALFORMED_ARGV]
)
def test_malformed_input_exits_2(capsys, tmp_path, case):
    if case in MALFORMED_ARGV:
        argv = MALFORMED_ARGV[case]
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
