import json
import random

import pytest

from duval_kind import cycles
from duval_kind.cycles import CycleError
from duval_kind.dual_graph import (
    MAX_VERTICES,
    DualGraph,
    GraphInvariantError,
    ParameterError,
    build_dynkin,
    graph_from_dict,
    graph_to_dict,
    is_negative_definite,
    load_graph,
    save_graph,
)
from oracles import (
    IntersectionForm,
    determinant_cofactor,
    form_parts,
    intersection_form,
    leading_minor_determinants,
)

ADE_CASES = (
    [("A", n) for n in range(1, 13)]
    + [("D", n) for n in range(4, 11)]
    + [("E", n) for n in (6, 7, 8)]
)

EXPECTED_DET_ABS = {"A": lambda n: n + 1, "D": lambda n: 4, "E": {6: 3, 7: 2, 8: 1}}


def expected_det(type_, n):
    rule = EXPECTED_DET_ABS[type_]
    return rule[n] if isinstance(rule, dict) else rule(n)


def test_a3_is_path():
    g = build_dynkin("A", 3)
    assert g.vertex_count == 3
    assert g.self_intersections == (-2, -2, -2)
    assert set(g.edges) == {(0, 1), (1, 2)}


def test_d4_is_star():
    g = build_dynkin("D", 4)
    assert g.vertex_count == 4
    # vertex 1 carries the path end plus both leaves
    assert set(g.edges) == {(0, 1), (1, 2), (1, 3)}


def test_e_range_rejected():
    with pytest.raises(ParameterError):
        build_dynkin("E", 9)
    with pytest.raises(ParameterError):
        build_dynkin("D", 3)
    with pytest.raises(ParameterError):
        build_dynkin("A", 0)


def test_intersection_form_a2():
    form = intersection_form(build_dynkin("A", 2))
    assert form.matrix == ((-2, 1), (1, -2))


def test_intersection_form_a1():
    assert intersection_form(build_dynkin("A", 1)).matrix == ((-2,),)


def test_intersection_form_d4():
    form = intersection_form(build_dynkin("D", 4))
    assert all(form.entry(i, i) == -2 for i in range(4))
    assert sum(form.entry(1, j) for j in range(4) if j != 1) == 3


@pytest.mark.parametrize("type_,n", ADE_CASES)
def test_ade_forms_negative_definite_with_expected_determinant(type_, n):
    g = build_dynkin(type_, n)
    form = intersection_form(g)
    assert is_negative_definite(g.self_intersections, g.edges)
    det = leading_minor_determinants(form)[-1]
    assert abs(det) == expected_det(type_, n)
    # independent exact oracle: cofactor expansion
    assert determinant_cofactor(form) == det


@pytest.mark.parametrize("type_,n", ADE_CASES)
def test_dynkin_graphs_are_trees(type_, n):
    g = build_dynkin(type_, n)
    assert len(g.edges) == g.vertex_count - 1
    form = intersection_form(g)
    assert form.matrix == tuple(zip(*form.matrix))  # symmetric


def test_zero_matrix_not_definite():
    assert not is_negative_definite(*form_parts(((0,),)))


# -- Bareiss elimination against the cofactor oracle ---------------------------

def cofactor_leading_minors(form):
    """Leading minors by cofactor expansion, up to and including the first zero."""
    minors = []
    for k in range(1, form.size + 1):
        block = IntersectionForm(tuple(row[:k] for row in form.matrix[:k]))
        minors.append(determinant_cofactor(block))
        if minors[-1] == 0:
            break
    return minors


def random_weighted_graph(rng, n):
    """Random spanning tree plus extra edges (closing cycles), multiplicities 1..3."""
    edges = {(rng.randrange(v), v): rng.randint(1, 3) for v in range(1, n)}
    for _ in range(rng.randint(0, n) if n > 1 else 0):
        a, b = sorted(rng.sample(range(n), 2))
        edges.setdefault((a, b), rng.randint(1, 3))
    weights = tuple(rng.randint(-6, -1) for _ in range(n))
    return DualGraph(n, weights, edges)


@pytest.mark.parametrize("seed", range(8))
def test_bareiss_minors_match_cofactor_on_random_graphs(seed):
    rng = random.Random(seed)
    for _ in range(25):
        g = random_weighted_graph(rng, rng.randint(1, 9))
        form = intersection_form(g)
        minors = leading_minor_determinants(form)
        assert minors == cofactor_leading_minors(form)
        signs_ok = all((-1) ** k * det > 0 for k, det in enumerate(minors, start=1))
        assert is_negative_definite(g.self_intersections, g.edges) == (
            len(minors) == form.size and signs_ok
        )


def near_boundary_graph(rng, n, extra_edges):
    """Random spanning tree plus extra_edges extra edges, multiplicities 1..2.
    Each weight is minus the multiplicities at its vertex, minus 0 or 1, so
    the form is definite once one vertex gets the extra 1; then up to two
    vertices are raised by 1..3, which may break definiteness."""
    edges = {(rng.randrange(v), v): rng.randint(1, 2) for v in range(1, n)}
    for _ in range(extra_edges):
        a, b = sorted(rng.sample(range(n), 2))
        edges.setdefault((a, b), rng.randint(1, 2))
    weights = [-rng.randint(0, 1) for _ in range(n)]
    for (a, b), m in edges.items():
        weights[a] -= m
        weights[b] -= m
    for _ in range(rng.randint(0, 2)):
        v = rng.randrange(n)
        weights[v] = min(-1, weights[v] + rng.randint(1, 3))
    return DualGraph(n, tuple(weights), edges)


@pytest.mark.parametrize("with_cycles", [False, True], ids=["trees", "cycles"])
@pytest.mark.parametrize("seed", range(4))
def test_sparse_certificate_matches_bareiss_signs(seed, with_cycles):
    rng = random.Random(seed)
    answers = set()
    for _ in range(25):
        n = rng.randint(10, 40)
        extra = rng.randint(1, n // 4) if with_cycles else 0
        g = near_boundary_graph(rng, n, extra)
        form = intersection_form(g)
        minors = leading_minor_determinants(form)
        signs_ok = all((-1) ** k * det > 0 for k, det in enumerate(minors, start=1))
        definite = len(minors) == form.size and signs_ok
        assert is_negative_definite(g.self_intersections, g.edges) == definite
        answers.add(definite)
    assert answers == {True, False}


def cycle_form(n):
    """Affine A~_{n-1}: an n-cycle of (-2)-curves."""
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = -2
        m[i][(i + 1) % n] = m[(i + 1) % n][i] = 1
    return IntersectionForm(tuple(map(tuple, m)))


def fibonacci(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def cassini_form(k):
    """Weights -F_k, -F_{k+2} and multiplicity F_{k+1}: ab - m^2 = (-1)^(k+1)."""
    return ((-fibonacci(k), fibonacci(k + 1)), (fibonacci(k + 1), -fibonacci(k + 2)))


def complete_form(n, weight):
    """K_n: every self-intersection is weight, every multiplicity 1."""
    return tuple(tuple(weight if i == j else 1 for j in range(n)) for i in range(n))


M = 10**9


@pytest.mark.parametrize(
    "matrix,expected",
    [
        (((-1, 1), (1, -1)), [-1, 0]),
        (((-1, M), (M, -M * M)), [-1, 0]),  # ab - m^2 = 0 at m = 10^9
        (((-1, M), (M, -M * M + 1)), [-1, -1]),  # ab - m^2 = -1
        (cassini_form(40), [-fibonacci(40), -1]),
        # zero second minor: the sweep stops before the third vertex
        (((-1, 1, 0), (1, -1, 1), (0, 1, -2)), [-1, 0]),
        (cycle_form(4).matrix, [-2, 3, -4, 0]),  # affine A~3
        # affine D~4, centre first
        (
            ((-2, 1, 1, 1, 1), (1, -2, 0, 0, 0), (1, 0, -2, 0, 0),
             (1, 0, 0, -2, 0), (1, 0, 0, 0, -2)),
            [-2, 3, -4, 4, 0],
        ),
        (((-2, 3), (3, -2)), [-2, -5]),  # indefinite, no zero minor
        (((1,),), [1]),
    ],
)
def test_bareiss_stops_at_zero_minor_and_rejects_indefinite(matrix, expected):
    form = IntersectionForm(matrix)
    assert leading_minor_determinants(form) == expected
    assert cofactor_leading_minors(form) == expected
    assert not is_negative_definite(*form_parts(matrix))


@pytest.mark.parametrize(
    "matrix,last_minor,definite",
    [
        (((-1, M), (M, -M * M - 1)), 1, True),  # ab - m^2 = 1 at m = 10^9
        (cassini_form(39), 1, True),
        (complete_form(30, -30), 31**29, True),
        (complete_form(30, -29), 0, False),  # the all-ones vector is in the kernel
    ],
    ids=["ab-m2=1", "cassini-39", "complete-30-weight-30", "complete-30-weight-29"],
)
def test_certificate_at_exact_boundary(matrix, last_minor, definite):
    # big integers (m = 10^9, F_40) and the fill of a complete graph
    form = IntersectionForm(matrix)
    minors = leading_minor_determinants(form)
    assert len(minors) == form.size and minors[-1] == last_minor
    signs_ok = all((-1) ** k * det > 0 for k, det in enumerate(minors, start=1))
    assert signs_ok == definite
    assert is_negative_definite(*form_parts(matrix)) == definite


@pytest.mark.parametrize("n", [100, 200])
def test_bareiss_on_large_a_and_d(n):
    # A_n: the k-th leading block is A_k.  D_n: the first n-1 vertices form
    # A_{n-1}, the full graph has |det| = 4.
    a_minors = leading_minor_determinants(intersection_form(build_dynkin("A", n)))
    assert a_minors == [(-1) ** k * (k + 1) for k in range(1, n + 1)]
    d_graph = build_dynkin("D", n)
    d_minors = leading_minor_determinants(intersection_form(d_graph))
    assert d_minors == a_minors[: n - 1] + [(-1) ** n * 4]
    assert is_negative_definite(d_graph.self_intersections, d_graph.edges)
    a_graph = build_dynkin("A", n)
    assert is_negative_definite(a_graph.self_intersections, a_graph.edges)


def path_edges(n):
    return {(i, i + 1): 1 for i in range(n - 1)}


def affine_d_graph(n):
    """Affine D~_{n-1}: a path 2..n-3 with leaves 0, 1 at vertex 2 and
    leaves n-2, n-1 at vertex n-3."""
    edges = {(i, i + 1): 1 for i in range(2, n - 3)}
    edges.update({(0, 2): 1, (1, 2): 1, (n - 3, n - 2): 1, (n - 3, n - 1): 1})
    return DualGraph(n, (-2,) * n, edges)


N = MAX_VERTICES
SINGULAR_AT_MAX = {
    # graph, nonzero vector in the kernel of its form
    "affine-A": (
        lambda: DualGraph(N, (-2,) * N, {**path_edges(N), (0, N - 1): 1}),
        (1,) * N,
    ),
    "affine-D": (lambda: affine_d_graph(N), (1, 1) + (2,) * (N - 4) + (1, 1)),
    "chain-minus-one-ends": (
        lambda: DualGraph(N, (-1,) + (-2,) * (N - 2) + (-1,), path_edges(N)),
        (1,) * N,
    ),
}


@pytest.mark.parametrize("case", SINGULAR_AT_MAX)
def test_singular_forms_at_max_vertices_not_definite(case):
    build, kernel = SINGULAR_AT_MAX[case]
    g = build()
    form = intersection_form(g)
    assert all(sum(a * x for a, x in zip(row, kernel)) == 0 for row in form.matrix)
    assert not is_negative_definite(g.self_intersections, g.edges)


def test_definite_forms_at_max_vertices():
    a_graph, d_graph = build_dynkin("A", N), build_dynkin("D", N)
    assert is_negative_definite(a_graph.self_intersections, a_graph.edges)
    assert is_negative_definite(d_graph.self_intersections, d_graph.edges)
    # (-2, ..., -2, -1) contracts to a smooth point (det = +-1): definite
    chain = DualGraph(N, (-2,) * (N - 1) + (-1,), path_edges(N))
    assert is_negative_definite(chain.self_intersections, chain.edges)


# -- Laufer's loop as the certificate ------------------------------------------

def graph_of(matrix):
    weights, edges = form_parts(matrix)
    return DualGraph(len(weights), weights, edges)


@pytest.fixture
def certificate_calls(monkeypatch):
    """The verdicts of each is_negative_definite call fundamental_cycle makes."""
    verdicts = []

    def counted(*args):
        verdicts.append(is_negative_definite(*args))
        return verdicts[-1]

    monkeypatch.setattr(cycles, "is_negative_definite", counted)
    return verdicts


@pytest.mark.parametrize(
    "build,expected",
    [
        # all-ones: Z.Z = -400 and every pairing is -2
        (lambda: graph_of(complete_form(200, -201)), (1,) * 200),
        # all-ones: Z.Z = 200*(-198) + 200*199 = 200 >= 0
        (lambda: graph_of(complete_form(200, -198)), None),
        *((SINGULAR_AT_MAX[case][0], None) for case in SINGULAR_AT_MAX),
    ],
    ids=["K200-weight-201", "K200-weight-198", *SINGULAR_AT_MAX],
)
def test_laufer_alone_settles_definiteness(monkeypatch, build, expected):
    # the loop ends with Z.Z < 0 (definite) or meets Z.Z >= 0 (not definite)
    # within its step budget, so the elimination is never reached
    g = build()

    def unreachable(*args):
        raise AssertionError("the elimination ran")

    monkeypatch.setattr(cycles, "is_negative_definite", unreachable)
    if expected is None:
        with pytest.raises(CycleError):
            cycles.fundamental_cycle(g)
    else:
        assert cycles.fundamental_cycle(g).coefficients == expected


def test_cassini_form_passes_the_step_budget_once(certificate_calls):
    # 2F_15 - 1 = 1219 Laufer steps against a budget of 2(|V| + |E|) = 6:
    # the elimination certifies once, then the loop runs on to the cycle
    g = graph_of(cassini_form(15))
    assert cycles.fundamental_cycle(g).coefficients == (987, 610)
    assert certificate_calls == [True]


@pytest.mark.parametrize(
    "g",
    [
        # ab - m^2 = -1 at even k: indefinite, but Z.Z turns >= 0 only at
        # step 41, past the budget of 6
        graph_of(cassini_form(16)),
        # a tree of the random verdict sweep's shape in test_cycles:
        # multiplicity 3, weights near minus the multiplicities at a vertex
        DualGraph(4, (-8, -4, -6, -2), {(0, 1): 3, (0, 2): 3, (2, 3): 3}),
    ],
    ids=["cassini-16", "weighted-tree"],
)
def test_indefinite_form_past_the_step_budget_raises(certificate_calls, g):
    with pytest.raises(CycleError):
        cycles.fundamental_cycle(g)
    assert certificate_calls == [False]


def test_vertex_count_bounded():
    with pytest.raises(GraphInvariantError) as info:
        DualGraph(N + 1, (-2,) * (N + 1), path_edges(N + 1))
    assert info.value.invariant == "vertex_count_bounded"
    for type_, n in [("A", N + 1), ("D", 5000), ("A", 10**12)]:
        with pytest.raises(GraphInvariantError) as info:
            build_dynkin(type_, n)
        assert info.value.invariant == "vertex_count_bounded"


def test_positive_diagonal_rejected_by_graph_invariant():
    with pytest.raises(GraphInvariantError) as info:
        DualGraph(1, (0,), {})
    assert info.value.invariant == "self_intersection_negative"


def test_disconnected_rejected():
    with pytest.raises(GraphInvariantError) as info:
        DualGraph(2, (-2, -2), {})
    assert info.value.invariant == "connected"


def test_self_loop_rejected():
    with pytest.raises(GraphInvariantError) as info:
        DualGraph(2, (-2, -2), {(0, 0): 1, (0, 1): 1})
    assert info.value.invariant == "no_self_loops"


# -- file format --------------------------------------------------------------

def test_graph_roundtrip(tmp_path):
    g = build_dynkin("E", 7)
    path = tmp_path / "e7.json"
    save_graph(g, str(path))
    loaded = load_graph(str(path))
    assert loaded == g


def test_loader_names_first_violation(tmp_path):
    doc = {
        "vertices": [
            {"id": 0, "self_intersection": 0},
            {"id": 1, "self_intersection": -2},
        ],
        "edges": [{"a": 0, "b": 1, "multiplicity": 1}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(GraphInvariantError) as info:
        load_graph(str(path))
    assert info.value.invariant == "self_intersection_negative"


def test_loader_rejects_bad_ids():
    doc = {
        "vertices": [{"id": 0, "self_intersection": -2}, {"id": 2, "self_intersection": -2}],
        "edges": [],
    }
    with pytest.raises(GraphInvariantError) as info:
        graph_from_dict(doc)
    assert info.value.invariant == "vertex_ids_contiguous"


# the test id names the invariant, the text before the first colon
@pytest.mark.parametrize(
    "doc,message",
    [
        (
            {"vertices": {}, "edges": []},
            "document_shape: expected object with 'vertices' and 'edges' lists",
        ),
        ({"vertices": [0], "edges": []}, "vertex_object: vertex entry 0 is 0"),
        (
            {"vertices": [{"self_intersection": -2}], "edges": []},
            "field_present: vertex entry 0 has no 'id'",
        ),
        ({"vertices": [{"id": 0}], "edges": []}, "field_present: vertex 0 has no 'self_intersection'"),
        (
            {"vertices": [{"id": 0, "self_intersection": "abc"}], "edges": []},
            "field_integer: vertex 0 has 'self_intersection' = 'abc', expected an integer",
        ),
        (
            {"vertices": [{"id": 0, "self_intersection": -2.5}], "edges": []},
            "field_integer: vertex 0 has 'self_intersection' = -2.5, expected an integer",
        ),
        (
            {"vertices": [{"id": True, "self_intersection": -2}], "edges": []},
            "field_integer: vertex entry 0 has 'id' = True, expected an integer",
        ),
        (
            {"vertices": [{"id": "0", "self_intersection": -2}], "edges": []},
            "field_integer: vertex entry 0 has 'id' = '0', expected an integer",
        ),
        (
            {"vertices": [{"id": 0, "self_intersection": -2}], "edges": [[0, 1]]},
            "edge_object: edge entry 0 is [0, 1]",
        ),
        (
            {"vertices": [{"id": 0, "self_intersection": -2}], "edges": [{"a": 0}]},
            "field_present: edge entry 0 has no 'b'",
        ),
        (
            {"vertices": [{"id": 0, "self_intersection": -2}], "edges": [{"b": 0}]},
            "field_present: edge entry 0 has no 'a'",
        ),
        (
            {"vertices": [{"id": 0, "self_intersection": -2}], "edges": [{"a": 0, "b": "1"}]},
            "field_integer: edge entry 0 has 'b' = '1', expected an integer",
        ),
        (
            {
                "vertices": [{"id": 0, "self_intersection": -2}],
                "edges": [{"a": 0, "b": 1, "multiplicity": "x"}],
            },
            "field_integer: edge entry 0 has 'multiplicity' = 'x', expected an integer",
        ),
        (  # a null field counts as missing
            {
                "vertices": [{"id": 0, "self_intersection": -2}],
                "edges": [{"a": 0, "b": 1, "multiplicity": None}],
            },
            "field_present: edge entry 0 has no 'multiplicity'",
        ),
    ],
    ids=lambda value: value.partition(":")[0] if isinstance(value, str) else None,
)
def test_loader_rejects_malformed_entries(doc, message):
    with pytest.raises(GraphInvariantError) as info:
        graph_from_dict(doc)
    assert info.value.invariant == message.partition(":")[0]
    assert str(info.value) == message


def test_loader_rejects_bad_json(tmp_path):
    path = tmp_path / "syntax.json"
    path.write_text("{not json")
    with pytest.raises(GraphInvariantError) as info:
        load_graph(str(path))
    assert info.value.invariant == "json_syntax"


@pytest.mark.parametrize("content", [b"\xff\xfe{", b"[" * 100_000], ids=["not-utf8", "deep"])
def test_loader_rejects_undecodable_json(tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(GraphInvariantError) as info:
        load_graph(str(path))
    assert info.value.invariant == "json_syntax"


def test_to_dict_shape():
    doc = graph_to_dict(build_dynkin("A", 2))
    assert doc == {
        "vertices": [
            {"id": 0, "self_intersection": -2},
            {"id": 1, "self_intersection": -2},
        ],
        "edges": [{"a": 0, "b": 1, "multiplicity": 1}],
    }
