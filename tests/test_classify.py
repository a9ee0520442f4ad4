import importlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duval_kind.classify import (
    DE_NUMERICS_NOTE,
    FIRST_KIND_FORMULA,
    SECOND_KIND_FORMULA,
    Kind,
    classify,
    classify_graph,
    indented_json,
)
from duval_kind.dual_graph import (
    DualGraph,
    ParameterError,
    build_dynkin,
    graph_from_dict,
    graph_to_dict,
)
from oracles import a1_band_exact


def test_a2_first_kind():
    report = classify("A", 2)
    assert report.kind is Kind.FIRST
    assert report.fundamental_cycle.coefficients == (1, 1)
    assert report.kxs_formula == FIRST_KIND_FORMULA


def test_d4_second_kind():
    report = classify("D", 4)
    assert report.kind is Kind.SECOND
    assert report.fundamental_cycle.coefficients == (1, 2, 1, 1)
    assert report.kxs_formula == SECOND_KIND_FORMULA


def test_e7_second_kind():
    assert classify("E", 7).kind is Kind.SECOND


def test_kind_over_all_ade():
    for n in range(1, 13):
        assert classify("A", n).kind is Kind.FIRST
    for n in range(4, 11):
        assert classify("D", n).kind is Kind.SECOND
    for n in (6, 7, 8):
        assert classify("E", n).kind is Kind.SECOND


def test_reduced_iff_first_kind():
    for type_, n in [("A", 5), ("A", 1), ("D", 4), ("D", 7), ("E", 6), ("E", 8)]:
        report = classify(type_, n)
        assert report.reduced == (report.kind is Kind.FIRST)


def test_formula_matches_kind():
    for type_, n in [("A", 3), ("D", 5), ("E", 6)]:
        report = classify(type_, n)
        if report.kind is Kind.FIRST:
            assert report.kxs_formula == FIRST_KIND_FORMULA
        else:
            assert report.kxs_formula == SECOND_KIND_FORMULA


def test_parameter_errors():
    with pytest.raises(ParameterError):
        classify("E", 9)
    with pytest.raises(ParameterError):
        classify("D", 2)


def test_numerics_table_for_a_series():
    report = classify("A", 1, with_numerics=True, rel_tol=1e-3)
    assert report.numerical_evidence is not None
    ks = [row.k for row in report.numerical_evidence]
    assert ks == [1, 2, 3]
    for row in report.numerical_evidence:
        assert row.integral > 0
        assert abs(row.integral - a1_band_exact(row.k)) <= row.error, row.k
        assert row.defect_bound == pytest.approx(4.0 * row.integral, rel=1e-6)


def test_numerics_note_for_de():
    report = classify("D", 4, with_numerics=True)
    assert report.numerical_evidence is None
    assert report.numerics_note == DE_NUMERICS_NOTE


def test_classify_graph_a5():
    report = classify_graph(build_dynkin("A", 5))
    assert report.reduced
    assert report.kind is Kind.FIRST


def test_classify_graph_d6():
    report = classify_graph(build_dynkin("D", 6))
    assert not report.reduced
    assert report.kind is Kind.SECOND
    assert report.fundamental_cycle.coefficients == (1, 2, 2, 2, 1, 1)


def test_non_duval_graph_gets_no_verdict():
    g = DualGraph(3, (-2, -3, -2), {(0, 1): 1, (1, 2): 1})
    report = classify_graph(g)
    assert report.kind is Kind.NOT_DETERMINED
    assert report.kxs_formula is None
    assert len(report.fundamental_cycle.coefficients) == 3


def test_non_definite_graph_is_parameter_error():
    g = DualGraph(2, (-1, -1), {(0, 1): 1})  # det = 0
    with pytest.raises(ParameterError, match="not negative definite"):
        classify_graph(g)


def test_graph_roundtrip_matches_classify():
    for type_, n in [("A", 4), ("D", 5), ("E", 6)]:
        direct = classify(type_, n)
        doc = json.loads(json.dumps(graph_to_dict(build_dynkin(type_, n))))
        via_file = classify_graph(graph_from_dict(doc), label=f"{type_}{n}")
        assert via_file.input_label == direct.input_label
        assert via_file.dual_graph_summary == direct.dual_graph_summary
        assert via_file.fundamental_cycle == direct.fundamental_cycle
        assert via_file.reduced == direct.reduced
        assert via_file.kind == direct.kind
        assert via_file.kxs_formula == direct.kxs_formula
        assert via_file.numerical_evidence is None  # always absent for graphs


def test_report_serialization():
    report = classify("D", 4)
    doc = json.loads(report.to_json())
    assert doc["kind"] == "second"
    assert doc["fundamental_cycle"] == [1, 2, 1, 1]
    assert doc["reduced"] is False
    text = report.to_text()
    assert "kind: second" in text
    assert "reduced: no" in text


def test_numerics_compute_each_integral_once(monkeypatch):
    calls = {"integral_Ik": [], "integral_Ik_bands": []}
    quadrature = importlib.import_module("duval_kind.quadrature")

    def counting(name):
        original = getattr(quadrature, name)

        def counted(*args, **kwargs):
            calls[name].append(args)
            return original(*args, **kwargs)

        return counted

    # every path to the integrals: classify's own names and the ones that
    # integral_Ik and weighted_graph_norm_defect look up
    for name in calls:
        for module in ("duval_kind.classify", "duval_kind.quadrature"):
            monkeypatch.setattr(importlib.import_module(module), name, counting(name))
    report = classify("A", 2, with_numerics=True)
    assert calls["integral_Ik"] == []
    [(n, ks, _)] = calls["integral_Ik_bands"]
    assert (n, tuple(ks)) == (2, (1, 2, 3))
    for row in report.numerical_evidence:
        assert row.defect_bound == 4.0 * row.integral


# -- the indent-2 JSON writer ---------------------------------------------------

JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(2**63, 2**200)
    | st.integers(-(2**200), -(2**63))
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
    | st.text()
    | st.sampled_from(['"', "\\", '"quoted" \\ back', "\u00e9", "\u2028", "\U0001f600", "\x00\x1f\x7f"])
)
JSON_DOCS = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.lists(st.integers())  # the writer's join path
    | st.dictionaries(st.text(), children),
    max_leaves=40,
)


@settings(deadline=None, max_examples=300)
@given(JSON_DOCS)
def test_indented_json_is_json_dumps_indent_2(doc):
    assert indented_json(doc) == json.dumps(doc, indent=2)


def test_every_report_json_is_json_dumps_indent_2():
    cases = [("A", n, False) for n in (*range(1, 9), 55, 1000)]
    cases += [("D", n, False) for n in (*range(4, 9), 55, 1000)]
    cases += [("E", n, False) for n in (6, 7, 8)]
    cases += [("A", n, True) for n in (1, 2, 3)] + [("D", 4, True), ("E", 6, True)]
    for type_, n, numerics in cases:
        report = classify(type_, n, with_numerics=numerics)
        assert report.to_json() == json.dumps(report.to_dict(), indent=2), (type_, n, numerics)
