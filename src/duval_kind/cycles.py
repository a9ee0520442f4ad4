"""Fundamental cycles on negative-definite dual graphs.

Laufer's incremental algorithm starting from the all-ones cycle, and the
reducedness test Z = |Z|.  Each step adds a block of copies of one
curve and updates the pairing of that vertex and of its neighbours only,
so it costs O(deg).
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass

from .dual_graph import DualGraph, is_negative_definite


class CycleError(ValueError):
    pass


@dataclass(frozen=True)
class Cycle:
    """Non-negative integer coefficients indexed by graph vertices."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coefficients)
        if len(coeffs) == 0:
            raise CycleError("cycle must have at least one coefficient")
        if any(c < 0 for c in coeffs):
            raise CycleError("cycle coefficients must be non-negative")
        object.__setattr__(self, "coefficients", coeffs)


def is_reduced(z: Cycle) -> bool:
    """True iff every coefficient equals 1."""
    return all(c == 1 for c in z.coefficients)


def fundamental_cycle(g: DualGraph, rng: random.Random | None = None) -> Cycle:
    """Minimal cycle Z > 0 with Z . E_i <= 0 for all i (Laufer algorithm).

    Starts from the all-ones cycle and repeatedly increments a vertex
    pairing positively against the current cycle (Laufer, Amer. J. Math.
    94, 1972).  Incrementing z_i changes Z . E_i by the self-intersection
    of E_i and Z . E_j by the multiplicity of each edge ij, so only i and
    its neighbours are updated.  A vertex with Z . E_i = p > 0 gets
    ceil(p / |E_i^2|) increments at once: each is a valid Laufer step,
    because the pairing of i stays positive until the last of them, and
    the block costs one step however large p is.  Each step costs
    O(deg i) plus a bisection in the sorted list of violating vertices.
    Ties are broken by smallest index, or uniformly at random when rng is
    given (the result is provably independent of the choice).
    """
    if not is_negative_definite(g.self_intersections, g.edges):
        raise CycleError("intersection form is not negative definite")
    weights = g.self_intersections
    neighbours: list[list[tuple[int, int]]] = [[] for _ in weights]
    for (a, b), mult in g.edges.items():
        neighbours[a].append((b, mult))
        neighbours[b].append((a, mult))
    coeffs = [1] * g.vertex_count
    # pairing[i] = Z . E_i, kept current after each step
    pairing = [w + sum(m for _, m in nbrs) for w, nbrs in zip(weights, neighbours)]
    violating = [i for i, p in enumerate(pairing) if p > 0]  # kept sorted
    while violating:
        i = violating[0] if rng is None else rng.choice(violating)
        t = -(pairing[i] // weights[i])  # ceil(p / |w_i|): the pairing of i ends <= 0
        coeffs[i] += t
        # weights are <= -1: the pairing of i falls, those of its neighbours rise
        pairing[i] += t * weights[i]
        del violating[bisect.bisect_left(violating, i)]
        for j, mult in neighbours[i]:
            if pairing[j] <= 0 < pairing[j] + t * mult:
                bisect.insort(violating, j)
            pairing[j] += t * mult
    return Cycle(tuple(coeffs))
