"""Checks of the benchmark's checks.

    python3 -m pytest bench/test_references.py

A value moved by more than error_estimate + truncation_bound, or a cycle
with one coefficient changed, must be refused; the mpmath area must give
the n = 1 closed form; the integer elimination must give the known ADE
determinants.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import references as ref  # noqa: E402
import run  # noqa: E402

ADE = [("A", n) for n in (1, 2, 5, 13)] + [("D", n) for n in (4, 5, 9)] + [("E", n) for n in (6, 7, 8)]


def table_csv(n, shift_k=None, factor=0.0):
    """integral-table output at the reference, value k moved by factor x (error + truncation)."""
    lines = ["k,value,error,truncation_bound,subregions"]
    for k in range(1, 5):
        lo, hi = ref.ik_reference(n, k)
        value, err, trunc = (lo + hi) / 2, 1e-5 * lo, 1e-12
        if k == shift_k:
            value = (hi if factor > 0 else lo) + factor * (err + trunc)
        lines.append(f"{k},{value:.17e},{err:.17e},{trunc:.17e},100")
    return run.CliOutcome(0, "\n".join(lines) + "\n", "", None)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_table_check_refuses_a_shift_beyond_the_error(n, k):
    check = run.table_op(None, n).check
    assert check(table_csv(n)).status == "ok"
    for factor in (0.9, -0.9):
        assert check(table_csv(n, k, factor)).status == "ok"
    for factor in (1.05, -1.05):
        assert check(table_csv(n, k, factor)).status == "wrong"


def test_quadrature_check_on_a_package_result():
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    from duval_kind.quadrature import integral_Ik

    res = integral_Ik(1, 4, ref.REL_TOL)
    interval = ref.ik_reference(1, 4)
    margin = res.error_estimate + res.truncation_bound
    assert ref.check_quadrature(res.value, res.error_estimate, res.truncation_bound, interval) is None
    for shift in (1.05 * margin, -1.05 * margin):
        assert ref.check_quadrature(res.value + shift, res.error_estimate,
                                    res.truncation_bound, interval) is not None


def test_quadrature_check_refuses_a_loose_error_estimate():
    value = ref.ik_reference(1, 2)[0]
    assert ref.check_quadrature(value, 0.9e-4 * value, 0.0, (value, value)) is None
    assert ref.check_quadrature(value, 1.1e-4 * value, 0.0, (value, value)) is not None


def test_defect_bound_check():
    assert ref.check_defect_bound(3.25, 13.0) is None
    assert ref.check_defect_bound(3.25, 13.0 * (1 + 1e-9)) is not None


@pytest.mark.parametrize("eps", [0.5, 0.1, 0.01])
def test_mpmath_area_reproduces_the_n1_closed_form(eps):
    assert math.isclose(ref.norm_reference(1, eps), ref.norm_closed_form_n1(eps), rel_tol=1e-14)


def test_norm_check_refuses_a_shift_beyond_the_error():
    op = run.norm_op(None, 2, 0.2)
    value = ref.norm_reference(2, 0.2)
    err, trunc = 1e-5 * value, 1e-30

    class Result:
        def __init__(self, v):
            self.value, self.error_estimate, self.truncation_bound = v, err, trunc

    assert op.check(Result(value + 0.9 * err)).status == "ok"
    assert op.check(Result(value + 1.05 * err)).status == "wrong"
    assert op.check(Result(value - 1.05 * err)).status == "wrong"


def fraction_determinant(m):
    a = [[Fraction(v) for v in row] for row in m]
    det = Fraction(1)
    for c in range(len(a)):
        p = next((r for r in range(c, len(a)) if a[r][c]), None)
        if p is None:
            return 0
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


@pytest.mark.parametrize("type_,n", ADE)
def test_elimination_gives_the_ade_determinants(type_, n):
    m = run.ade_matrix(type_, n)
    minors = ref.leading_minors(m)
    assert ref.is_negative_definite(m)
    assert abs(minors[-1]) == ref.abs_determinant(type_, n)
    for k in range(1, n + 1):
        assert minors[k - 1] == fraction_determinant([row[:k] for row in m[:k]])


def test_elimination_refuses_indefinite_graphs():
    # affine E8 (T_{2,3,6}) is semidefinite; a -1 vertex between two -2 is indefinite
    affine = ref.intersection_matrix([-2] * 9, [(i, i + 1, 1) for i in range(7)] + [(2, 8, 1)])
    assert ref.leading_minors(affine)[-1] == 0 and not ref.is_negative_definite(affine)
    assert not ref.is_negative_definite(ref.intersection_matrix([-2, -1, -2], [(0, 1, 1), (1, 2, 1)]))


@pytest.mark.parametrize("type_,n", ADE)
def test_cycle_check_refuses_any_changed_coefficient(type_, n):
    m = run.ade_matrix(type_, n)
    root = ref.highest_root(type_, n)
    assert ref.laufer_cycle(m) == root
    assert ref.check_cycle(root, m, root) is None
    for i in range(n):
        for delta in (1, -1):
            z = list(root)
            z[i] += delta
            assert ref.check_cycle(z, m, root) is not None


def test_graph_op_check_refuses_a_changed_cycle():
    rng = random.Random(7)
    while True:
        weights, edges = run.random_tree(rng, 12)
        m = ref.intersection_matrix(weights, edges)
        if ref.is_negative_definite(m):
            break
    z = ref.laufer_cycle(m)
    check = run.graph_file_op(None, "tree.json", weights, edges, z).check

    def outcome(coeffs):
        doc = {"coefficients": coeffs, "reduced": all(c == 1 for c in coeffs)}
        return run.CliOutcome(0, json.dumps(doc), "", None)

    assert check(outcome(z)).status == "ok"
    for i in range(len(z)):
        bumped = list(z)
        bumped[i] += 1
        assert check(outcome(bumped)).status == "wrong"
    assert check(run.CliOutcome(4, "", "not negative definite", None)).status == "wrong"


def test_malformed_input_counts_as_failed_until_exit_2():
    check = run.malformed_op(None, "edge without b", []).check
    assert check(run.CliOutcome(None, "", "", KeyError("b"))).status == "failed"
    assert check(run.CliOutcome(1, "", "", None)).status == "failed"
    assert check(run.CliOutcome(2, "partial", "", None)).status == "failed"
    assert check(run.CliOutcome(2, "", "error: edge", None)).status == "ok"
