import itertools
import random

import pytest

from duval_kind.cycles import Cycle, CycleError, fundamental_cycle, is_reduced
from duval_kind.dual_graph import DualGraph, build_dynkin, is_negative_definite
from oracles import (
    BoundTooSmallError,
    anti_nef_candidates,
    brute_force_fundamental_cycle,
    cycle_pairing,
    intersection_form,
)

SMALL_ADE = (
    [("A", n) for n in range(1, 9)]
    + [("D", n) for n in range(4, 9)]
    + [("E", n) for n in (6, 7, 8)]
)


def test_an_cycle_is_reduced():
    for n in range(1, 13):
        z = fundamental_cycle(build_dynkin("A", n))
        assert z.coefficients == (1,) * n
        assert is_reduced(z)


def test_d4_cycle():
    # center is vertex 1 in the build_dynkin numbering
    z = fundamental_cycle(build_dynkin("D", 4))
    assert z.coefficients == (1, 2, 1, 1)
    assert not is_reduced(z)


def test_e8_cycle_matches_oracle():
    g = build_dynkin("E", 8)
    z = fundamental_cycle(g)
    assert z == brute_force_fundamental_cycle(g, 8)
    assert sum(z.coefficients) == 29  # sum of the E8 highest-root marks


@pytest.mark.parametrize(
    "type_,n", SMALL_ADE + [(t, n) for t in "AD" for n in range(9, 13)]
)
def test_laufer_equals_brute_force(type_, n):
    g = build_dynkin(type_, n)
    assert fundamental_cycle(g) == brute_force_fundamental_cycle(g, 8)


def check_laufer_on_weighted_trees(seed, min_size, max_size, count):
    # definite trees with weights in -1..-4; the box [1, max(Z) + 1]^n holds
    # vectors above and below Laufer's cycle, so the oracle can disagree
    rng = random.Random(seed)
    checked = 0
    while checked < count:
        size = rng.randint(min_size, max_size)
        edges = {(rng.randrange(v), v): 1 for v in range(1, size)}
        weights = tuple(rng.choice((-1, -2, -2, -2, -3, -4)) for _ in range(size))
        g = DualGraph(size, weights, edges)
        if not is_negative_definite(g.self_intersections, g.edges):
            continue
        z = fundamental_cycle(g)
        assert z == brute_force_fundamental_cycle(g, max(z.coefficients) + 1)
        assert fundamental_cycle(g, rng=random.Random(seed)) == z
        checked += 1


@pytest.mark.parametrize("seed", range(4))
def test_laufer_equals_brute_force_on_weighted_trees(seed):
    check_laufer_on_weighted_trees(seed, 1, 7, 15)


@pytest.mark.parametrize("seed", range(4))
def test_laufer_equals_brute_force_on_larger_weighted_trees(seed):
    check_laufer_on_weighted_trees(seed, 10, 12, 10)


def random_connected_graph(rng, size, with_cycles):
    """Random spanning tree, plus 1..size extra edges when with_cycles;
    multiplicities 1..3.  Each weight is minus the multiplicities at its
    vertex, moved by -2..1, so definite, semidefinite and indefinite forms
    all occur, some of them past Laufer's step budget."""
    edges = {(rng.randrange(v), v): rng.randint(1, 3) for v in range(1, size)}
    for _ in range(rng.randint(1, size) if with_cycles and size > 2 else 0):
        a, b = sorted(rng.sample(range(size), 2))
        edges.setdefault((a, b), rng.randint(1, 3))
    weights = [rng.choice((1, 0, 0, -1, -1, -2)) for _ in range(size)]
    for (a, b), m in edges.items():
        weights[a] -= m
        weights[b] -= m
    return DualGraph(size, tuple(min(-1, w) for w in weights), edges)


@pytest.mark.parametrize("with_cycles", [False, True], ids=["trees", "cycles"])
@pytest.mark.parametrize("seed", range(4))
def test_laufer_verdict_matches_elimination(seed, with_cycles):
    # fundamental_cycle decides definiteness by Z.Z on most graphs and calls
    # the elimination on the rest; its verdict must be the elimination's
    rng = random.Random(seed)
    verdicts = set()
    for _ in range(200):
        g = random_connected_graph(rng, rng.randint(1, 12), with_cycles)
        definite = is_negative_definite(g.self_intersections, g.edges)
        verdicts.add(definite)
        if not definite:
            with pytest.raises(CycleError):
                fundamental_cycle(g)
            continue
        z = fundamental_cycle(g)
        bound = max(z.coefficients) + 1
        if bound**g.vertex_count <= 10**5:  # small enough to enumerate
            assert z == brute_force_fundamental_cycle(g, bound)
    assert verdicts == {True, False}


@pytest.mark.parametrize("seed", range(5))
def test_pruned_candidates_match_plain_enumeration(seed):
    # trees and graphs with cycles, at most 6 vertices; each weight is near
    # minus the multiplicities at its vertex, so some boxes hold many
    # anti-nef vectors and some hold none
    rng = random.Random(seed)
    for _ in range(10):
        size = rng.randint(1, 6)
        edges = {(rng.randrange(v), v): rng.randint(1, 2) for v in range(1, size)}
        for _ in range(rng.randint(0, 2) if size > 2 else 0):
            a, b = sorted(rng.sample(range(size), 2))
            edges.setdefault((a, b), 1)
        degree = [0] * size
        for (a, b), m in edges.items():
            degree[a] += m
            degree[b] += m
        weights = tuple(min(-1, -d + rng.choice((1, 0, 0, -1, -2))) for d in degree)
        g = DualGraph(size, weights, edges)
        form = intersection_form(g)
        plain = {
            z
            for z in itertools.product(range(1, 4), repeat=size)
            if all(cycle_pairing(Cycle(z), i, form) <= 0 for i in range(size))
        }
        assert anti_nef_candidates(g, 3) == plain


@pytest.mark.parametrize("type_,n", SMALL_ADE)
def test_tie_break_invariance(type_, n):
    g = build_dynkin(type_, n)
    reference = fundamental_cycle(g)
    rng = random.Random(12345)
    for _ in range(100):
        assert fundamental_cycle(g, rng=rng) == reference


@pytest.mark.parametrize("type_,n", SMALL_ADE)
def test_cycle_is_anti_nef(type_, n):
    g = build_dynkin(type_, n)
    form = intersection_form(g)
    z = fundamental_cycle(g)
    for i in range(g.vertex_count):
        assert cycle_pairing(z, i, form) <= 0


@pytest.mark.parametrize(
    "type_,n", [("A", 3), ("A", 6), ("D", 4), ("D", 6), ("E", 6)]
)
def test_minimality_spot_check(type_, n):
    # decrementing any single coefficient breaks positivity or anti-nefness
    g = build_dynkin(type_, n)
    form = intersection_form(g)
    z = fundamental_cycle(g)
    for i in range(g.vertex_count):
        lowered = list(z.coefficients)
        lowered[i] -= 1
        if lowered[i] < 1:
            continue  # support would shrink: not a positive cycle on all of E
        smaller = Cycle(tuple(lowered))
        assert any(
            cycle_pairing(smaller, j, form) > 0 for j in range(g.vertex_count)
        )


def test_reducedness_over_series():
    for n in range(1, 13):
        assert is_reduced(fundamental_cycle(build_dynkin("A", n)))
    for n in range(4, 11):
        assert not is_reduced(fundamental_cycle(build_dynkin("D", n)))
    for n in (6, 7, 8):
        assert not is_reduced(fundamental_cycle(build_dynkin("E", n)))


def test_pairing_examples():
    a2 = intersection_form(build_dynkin("A", 2))
    assert cycle_pairing(Cycle((1, 1)), 0, a2) == -1
    a1 = intersection_form(build_dynkin("A", 1))
    assert cycle_pairing(Cycle((1,)), 0, a1) == -2
    d4 = intersection_form(build_dynkin("D", 4))
    assert cycle_pairing(Cycle((1, 2, 1, 1)), 1, d4) == -1  # 3*1 + 2*(-2)


def test_pairing_index_out_of_range():
    a1 = intersection_form(build_dynkin("A", 1))
    with pytest.raises(IndexError):
        cycle_pairing(Cycle((1,)), 1, a1)


def test_brute_force_a3():
    g = build_dynkin("A", 3)
    assert brute_force_fundamental_cycle(g, 3).coefficients == (1, 1, 1)


def test_brute_force_a1_bound_1():
    g = build_dynkin("A", 1)
    assert brute_force_fundamental_cycle(g, 1).coefficients == (1,)


def test_brute_force_bound_too_small():
    g = build_dynkin("E", 8)  # max coefficient is 6
    with pytest.raises(BoundTooSmallError):
        brute_force_fundamental_cycle(g, 2)


def test_empty_cycle_rejected():
    with pytest.raises(CycleError):
        Cycle(())


def test_is_reduced_examples():
    assert is_reduced(Cycle((1, 1, 1)))
    assert not is_reduced(Cycle((1, 1, 1, 2)))


def test_non_negative_definite_rejected():
    g = DualGraph(2, (-1, -1), {(0, 1): 1})  # det = 0: not definite
    with pytest.raises(CycleError):
        fundamental_cycle(g)
