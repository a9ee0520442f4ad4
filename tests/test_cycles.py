import random

import pytest

from duval_kind.cycles import (
    Cycle,
    CycleError,
    cycle_pairing,
    fundamental_cycle,
    is_reduced,
)
from duval_kind.dual_graph import (
    DualGraph,
    build_dynkin,
    intersection_form,
    is_negative_definite,
)
from oracles import BoundTooSmallError, brute_force_fundamental_cycle

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


@pytest.mark.parametrize("type_,n", SMALL_ADE)
def test_laufer_equals_brute_force(type_, n):
    g = build_dynkin(type_, n)
    assert fundamental_cycle(g) == brute_force_fundamental_cycle(g, 8)


@pytest.mark.parametrize("seed", range(4))
def test_laufer_equals_brute_force_on_weighted_trees(seed):
    # definite trees with weights in -1..-4; the box [1, max(Z) + 1]^n holds
    # vectors above and below Laufer's cycle, so the oracle can disagree
    rng = random.Random(seed)
    checked = 0
    while checked < 15:
        size = rng.randint(1, 7)
        edges = {(rng.randrange(v), v): 1 for v in range(1, size)}
        weights = tuple(rng.choice((-1, -2, -2, -2, -3, -4)) for _ in range(size))
        g = DualGraph(size, weights, edges)
        if not is_negative_definite(intersection_form(g)):
            continue
        z = fundamental_cycle(g)
        assert z == brute_force_fundamental_cycle(g, max(z.coefficients) + 1)
        assert fundamental_cycle(g, rng=random.Random(seed)) == z
        checked += 1


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
