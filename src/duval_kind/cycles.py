"""Fundamental cycles on negative-definite dual graphs.

Laufer's incremental algorithm starting from the all-ones cycle, and the
reducedness test Z = |Z|.  Each step adds a block of copies of one
curve and updates the pairing of that vertex and of its neighbours only,
so it costs O(deg).  The loop also keeps Z.Z, which makes it the
definiteness certificate: on a connected graph a positive cycle with
every Z.E_i <= 0 and Z.Z < 0 proves the form negative definite, and any
Z.Z >= 0 disproves it.  The exact elimination
`dual_graph.is_negative_definite` runs only for graphs the loop has not
settled within a step budget of 2(|V| + |E|).
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
        coeffs = tuple(list(map(int, self.coefficients)))  # final size, as in DualGraph
        if len(coeffs) == 0:
            raise CycleError("cycle must have at least one coefficient")
        if min(coeffs) < 0:
            raise CycleError("cycle coefficients must be non-negative")
        object.__setattr__(self, "coefficients", coeffs)


def is_reduced(z: Cycle) -> bool:
    """True iff every coefficient equals 1."""
    return min(z.coefficients) == 1 == max(z.coefficients)


def fundamental_cycle(g: DualGraph, rng: random.Random | None = None) -> Cycle:
    """Minimal cycle Z > 0 with Z . E_i <= 0 for all i (Laufer algorithm);
    CycleError if the intersection form is not negative definite.

    Starts from the all-ones cycle and repeatedly increments a vertex
    pairing positively against the current cycle (Laufer, Amer. J. Math.
    94, 1972).  Incrementing z_i changes Z . E_i by the self-intersection
    of E_i and Z . E_j by the multiplicity of each edge ij, so only i and
    its neighbours are updated.  A vertex with Z . E_i = p > 0 gets
    t = ceil(p / |E_i^2|) increments at once: each is a valid Laufer step,
    because the pairing of i stays positive until the last of them, and
    the block costs one step however large p is.  Each step costs
    O(deg i) plus a bisection in the sorted list of violating vertices.
    Ties are broken by smallest index, or uniformly at random when rng is
    given (the result is provably independent of the choice).

    The step also adds t(2p + t E_i^2) to Z.Z, which decides definiteness
    on the way.  The form A has non-negative off-diagonal entries and is
    irreducible, because the graph is connected.  A cycle Z > 0 with
    A Z <= 0 and Z.Z < 0 (so A Z != 0) makes -A a nonsingular M-matrix,
    which is positive definite as it is symmetric (Berman & Plemmons,
    Nonnegative Matrices in the Mathematical Sciences, ch. 6): the loop
    ending with Z.Z < 0 is the certificate.  Z.Z >= 0 at any point is an
    exact witness against definiteness; at the end of the loop Z.Z = 0
    means every pairing is 0, so Z spans the kernel.  An indefinite form
    has no anti-nef Z > 0, so there the loop ends only through Z.Z >= 0,
    which can take many steps.  After 2(|V| + |E|) steps with neither
    exit taken, the exact elimination decides once: a False verdict
    raises, a True one lets the loop run on to the cycle.
    """
    weights = g.self_intersections
    neighbours = g.neighbours
    coeffs = [1] * g.vertex_count
    # pairing[i] = Z . E_i, kept current after each step
    pairing = list(weights)
    for (a, b), mult in g.edges.items():
        pairing[a] += mult
        pairing[b] += mult
    square = sum(pairing)  # Z.Z = sum of z_i (Z . E_i), all z_i = 1
    violating = [i for i, p in enumerate(pairing) if p > 0]  # kept sorted
    steps_left = 2 * (g.vertex_count + len(g.edges))
    while violating and square < 0:
        if steps_left == 0 and not is_negative_definite(weights, g.edges):
            break
        steps_left -= 1
        i = violating[0] if rng is None else rng.choice(violating)
        p = pairing[i]
        t = -(p // weights[i])  # ceil(p / |w_i|): the pairing of i ends <= 0
        coeffs[i] += t
        square += t * (2 * p + t * weights[i])
        # weights are <= -1: the pairing of i falls, those of its neighbours rise
        pairing[i] = p + t * weights[i]
        del violating[bisect.bisect_left(violating, i)]
        for j, mult in neighbours[i]:
            if pairing[j] <= 0 < pairing[j] + t * mult:
                bisect.insort(violating, j)
            pairing[j] += t * mult
    if violating or square >= 0:
        raise CycleError("intersection form is not negative definite")
    return Cycle(tuple(coeffs))
