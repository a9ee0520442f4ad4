"""Resolution dual graphs and their intersection forms.

Vertices are exceptional curves carrying self-intersection numbers,
edges carry intersection multiplicities; the graph is the only
representation of the form, and `DualGraph` keeps its neighbour lists.
Negative definiteness is certified by Laufer's cycle
(`cycles.fundamental_cycle`), which tracks Z.Z as it runs.
`is_negative_definite` is the exact fallback for graphs the loop does
not settle within its step budget: sparse symmetric elimination (LDL^T)
in minimum-degree order, read straight from the weights and the edges,
with every entry a rational held as a numerator and a positive
denominator, Python ints in lowest terms.  A symmetric permutation
P A P^T is congruent to A, so any elimination order certifies
definiteness, and on a tree (every ADE graph) each step eliminates a leaf
and changes only its neighbour's diagonal.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from math import gcd
from typing import Mapping, Sequence

# Largest accepted graph: once fill appears, the elimination holds up to n^2
# entries and costs O(n^3) integer products and gcds, on integers that grow
# with the eliminated minors.
MAX_VERTICES = 1000


class GraphInvariantError(ValueError):
    """A DualGraph invariant is violated; .invariant names the first failure."""

    def __init__(self, invariant: str, message: str):
        super().__init__(f"{invariant}: {message}")
        self.invariant = invariant


class ParameterError(ValueError):
    """An ADE type/index pair outside the admissible range."""


def _check_vertex_bound(n: int) -> None:
    if n > MAX_VERTICES:
        raise GraphInvariantError(
            "vertex_count_bounded", f"{n} vertices, at most {MAX_VERTICES} accepted"
        )


@dataclass(frozen=True)
class DualGraph:
    """Weighted dual graph: self-intersections plus edge multiplicities."""

    vertex_count: int
    self_intersections: tuple[int, ...]
    # key (i, j) with 0 <= i < j < vertex_count, value >= 1: graph_from_dict
    # and build_dynkin build it in this form, and graph_from_dict rejects
    # duplicate edges
    edges: Mapping[tuple[int, int], int]
    # neighbours[i] lists (j, multiplicity) for each edge at i; built once
    # here and read by the connectivity check and by Laufer's loop
    neighbours: list[list[tuple[int, int]]] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self):
        n = self.vertex_count
        if n < 1:
            raise GraphInvariantError("vertex_count_positive", f"got {n}")
        _check_vertex_bound(n)
        # through a list, so that the tuple is made at its final size:
        # tuple(map(...)) resizes one of a guessed size, which moves tuples
        # between CPython's per-size free lists until a full collection
        weights = tuple(list(map(int, self.self_intersections)))
        object.__setattr__(self, "self_intersections", weights)
        if len(weights) != n:
            raise GraphInvariantError(
                "self_intersections_length",
                f"expected {n} entries, got {len(weights)}",
            )
        if max(weights) > -1:
            i, w = next((i, w) for i, w in enumerate(weights) if w > -1)
            raise GraphInvariantError(
                "self_intersection_negative",
                f"vertex {i} has self-intersection {w} > -1",
            )
        edges = dict(self.edges)
        neighbours: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for (a, b), m in edges.items():
            if a == b:
                raise GraphInvariantError("no_self_loops", f"vertex {a}")
            if not 0 <= a < b < n:
                raise GraphInvariantError(
                    "edge_endpoints_in_range", f"edge ({a},{b})"
                )
            if m < 1:
                raise GraphInvariantError(
                    "edge_multiplicity_positive", f"edge ({a},{b}) has multiplicity {m}"
                )
            neighbours[a].append((b, m))
            neighbours[b].append((a, m))
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "neighbours", neighbours)
        seen = [False] * n
        seen[0] = True
        stack = [0]
        while stack:
            for w, _ in neighbours[stack.pop()]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        if not all(seen):
            raise GraphInvariantError("connected", "graph is not connected")

    def is_all_minus_two(self) -> bool:
        return min(self.self_intersections) == -2 == max(self.self_intersections)


def ade_type(type_: str, n: int) -> str:
    """The upper-cased ADE type, or ParameterError when (type_, n) is not
    A_n (n >= 1), D_n (n >= 4) or E_n (n in {6, 7, 8}).  The one place
    the ADE ranges are stated."""
    type_ = type_.upper()
    if type_ not in ("A", "D", "E"):
        raise ParameterError(f"unknown type {type_!r}, expected A, D or E")
    if type_ == "A" and n < 1:
        raise ParameterError(f"A_n requires n >= 1, got {n}")
    if type_ == "D" and n < 4:
        raise ParameterError(f"D_n requires n >= 4, got {n}")
    if type_ == "E" and n not in (6, 7, 8):
        raise ParameterError(f"E_n requires n in {{6,7,8}}, got {n}")
    return type_


def build_dynkin(type_: str, n: int) -> DualGraph:
    """Standard ADE tree, all self-intersections -2, multiplicities 1;
    ade_type decides which (type_, n) exist.

    Numbering: A_n is the path 0-1-...-(n-1); D_n is the path 0-...-(n-3)
    with leaves (n-2) and (n-1) attached to vertex (n-3); E_n is the path
    0-...-(n-2) with leaf (n-1) attached to vertex 2.
    """
    type_ = ade_type(type_, n)
    _check_vertex_bound(n)  # before the O(n) edge dict is built
    if type_ == "A":
        edges = {(i, i + 1): 1 for i in range(n - 1)}
    elif type_ == "D":
        edges = {(i, i + 1): 1 for i in range(n - 3)}
        edges[(n - 3, n - 2)] = 1
        edges[(n - 3, n - 1)] = 1
    else:
        edges = {(i, i + 1): 1 for i in range(n - 2)}
        edges[(2, n - 1)] = 1
    return DualGraph(n, (-2,) * n, edges)


def is_negative_definite(
    self_intersections: Sequence[int], edges: Mapping[tuple[int, int], int]
) -> bool:
    """True iff the form with diagonal self_intersections and off-diagonal
    entries edges[(i, j)] = edges[(j, i)] is negative definite, certified
    in exact rationals.

    Sparse symmetric elimination A = L D L^T in minimum-degree order (Rose
    1972; George & Liu 1981), with a heap whose stale entries are skipped
    when popped.  Eliminating in any order is the factorisation of
    P A P^T for a permutation P, which is congruent to A and so has the
    same inertia; its pivots are ratios of consecutive leading minors of
    P A P^T, hence the form is negative definite iff every pivot is < 0.
    The sweep stops at the first pivot >= 0.  The certificate reads the
    graph: on a tree every step eliminates a leaf and updates only its
    neighbour's diagonal, so the whole cost is O(n log n); graphs with
    cycles get fill, which stays exact.
    """
    n = len(self_intersections)
    # every entry is an exact rational num/den: ints in lowest terms, den > 0
    num = list(self_intersections)
    den = [1] * n
    adj: list[dict[int, tuple[int, int]]] = [{} for _ in range(n)]
    for (a, b), mult in edges.items():
        adj[a][b] = adj[b][a] = (mult, 1)
    heap = [(len(nbrs), i) for i, nbrs in enumerate(adj)]
    heapq.heapify(heap)
    eliminated = [False] * n
    while heap:
        degree, k = heapq.heappop(heap)
        if eliminated[k] or degree != len(adj[k]):
            continue  # stale entry: k is gone or its degree has changed
        q, pd = -num[k], den[k]  # pivot = -q / pd
        if q <= 0:
            return False
        eliminated[k] = True
        nbrs = adj[k]
        for u, (an, ad) in nbrs.items():
            del adj[u][k]
            # a_xy -= a_xk * a_ky / pivot: with sn / sd = -a_uk / pivot, the
            # diagonal of u gains (sn / sd) * a_uk and each a_uw (sn / sd) * a_kw
            sn, sd = an * pd, ad * q
            xd = sd * ad
            un, ud = num[u] * xd + sn * an * den[u], den[u] * xd
            g = gcd(un, ud)
            num[u], den[u] = un // g, ud // g
            row = adj[u]
            for w, (bn, bd) in nbrs.items():
                if w > u:  # fill or update of the pair (u, w), once per pair
                    cn, cd = row.get(w, (0, 1))
                    xd = sd * bd
                    cn, cd = cn * xd + sn * bn * cd, cd * xd
                    g = gcd(cn, cd)
                    row[w] = adj[w][u] = (cn // g, cd // g)
        for u in nbrs:
            heapq.heappush(heap, (len(adj[u]), u))
    return True


# -- graph file format --------------------------------------------------------

def graph_to_dict(g: DualGraph) -> dict:
    return {
        "vertices": [
            {"id": i, "self_intersection": w}
            for i, w in enumerate(g.self_intersections)
        ],
        "edges": [
            {"a": a, "b": b, "multiplicity": m}
            for (a, b), m in sorted(g.edges.items())
        ],
    }


def _field_error(obj: dict, key: str, kind: str, index: int) -> GraphInvariantError:
    """The error for obj[key] missing, null or not an int; it names the
    entry as f"{kind} {index}".  Called only once a check has failed."""
    value = obj.get(key)
    if value is None:
        return GraphInvariantError("field_present", f"{kind} {index} has no {key!r}")
    return GraphInvariantError(
        "field_integer", f"{kind} {index} has {key!r} = {value!r}, expected an integer"
    )


def graph_from_dict(doc: dict) -> DualGraph:
    # each int field is checked inline by `type(x) is int`, which rejects
    # bool, float and str: a K_1000 file has 1.5M of them
    if not (
        isinstance(doc, dict)
        and isinstance(doc.get("vertices"), list)
        and isinstance(doc.get("edges"), list)
    ):
        raise GraphInvariantError(
            "document_shape", "expected object with 'vertices' and 'edges' lists"
        )
    vertices = doc["vertices"]
    for k, v in enumerate(vertices):
        if not isinstance(v, dict):
            raise GraphInvariantError("vertex_object", f"vertex entry {k} is {v!r}")
    ids = [v.get("id") for v in vertices]
    for k, i in enumerate(ids):
        if type(i) is not int:
            raise _field_error(vertices[k], "id", "vertex entry", k)
    if sorted(ids) != list(range(len(vertices))):
        raise GraphInvariantError(
            "vertex_ids_contiguous", f"ids must be 0..{len(vertices) - 1}, got {ids}"
        )
    weights = [0] * len(vertices)
    for i, v in zip(ids, vertices):
        w = v.get("self_intersection")
        if type(w) is not int:
            raise _field_error(v, "self_intersection", "vertex", i)
        weights[i] = w
    edges = {}
    for k, e in enumerate(doc["edges"]):
        if not isinstance(e, dict):
            raise GraphInvariantError("edge_object", f"edge entry {k} is {e!r}")
        a, b = e.get("a"), e.get("b")
        if type(a) is not int:
            raise _field_error(e, "a", "edge entry", k)
        if type(b) is not int:
            raise _field_error(e, "b", "edge entry", k)
        key = (a, b) if a < b else (b, a)
        if key in edges:
            raise GraphInvariantError("edge_unique", f"duplicate edge {key}")
        m = e.get("multiplicity", 1)
        if type(m) is not int:
            raise _field_error(e, "multiplicity", "edge entry", k)
        edges[key] = m
    return DualGraph(len(vertices), tuple(weights), edges)


def load_graph(path: str) -> DualGraph:
    with open(path, encoding="utf-8") as fh:  # JSON is UTF-8 (RFC 8259 section 8.1)
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            # not JSON, not UTF-8, or nested deeper than json can recurse
            raise GraphInvariantError("json_syntax", str(exc)) from exc
    return graph_from_dict(doc)
