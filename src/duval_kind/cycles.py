"""Fundamental cycles on negative-definite dual graphs.

Laufer's incremental algorithm starting from the all-ones cycle, an
exhaustive brute-force oracle, and the reducedness test Z = |Z|.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .dual_graph import DualGraph, IntersectionForm, intersection_form, is_negative_definite


class CycleError(ValueError):
    pass


class BoundTooSmallError(CycleError):
    """Brute-force search found no anti-nef cycle within the bound."""


class NonUniqueMinimumError(CycleError):
    """Componentwise minimum of the anti-nef candidates is not itself a
    candidate; would indicate an implementation bug."""


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

    def __len__(self) -> int:
        return len(self.coefficients)


def cycle_pairing(z: Cycle, i: int, form: IntersectionForm) -> int:
    """Exact intersection product Z . E_i = sum_j z_j form(j, i)."""
    if not 0 <= i < form.size:
        raise IndexError(f"vertex index {i} out of range")
    return sum(c * form.entry(j, i) for j, c in enumerate(z.coefficients))


def is_reduced(z: Cycle) -> bool:
    """True iff every coefficient equals 1."""
    return all(c == 1 for c in z.coefficients)


def fundamental_cycle(g: DualGraph, rng: random.Random | None = None) -> Cycle:
    """Minimal cycle Z > 0 with Z . E_i <= 0 for all i (Laufer algorithm).

    Starts from the all-ones cycle and repeatedly increments a vertex
    pairing positively against the current cycle; the pairings Z . E_i are
    updated by one row of the form per increment (Laufer, Amer. J. Math.
    94, 1972), so each step costs O(n).  Ties are broken by smallest
    index, or uniformly at random when rng is given (the result is
    provably independent of the choice).
    """
    form = intersection_form(g)
    if not is_negative_definite(form):
        raise CycleError("intersection form is not negative definite")
    m = form.matrix
    coeffs = [1] * g.vertex_count
    # pairing[i] = Z . E_i = sum_j z_j m_ji, kept current after each increment
    pairing = [sum(row) for row in m]  # m is symmetric
    while True:
        violating = [i for i, p in enumerate(pairing) if p > 0]
        if not violating:
            return Cycle(tuple(coeffs))
        i = violating[0] if rng is None else rng.choice(violating)
        coeffs[i] += 1
        pairing = [p + e for p, e in zip(pairing, m[i])]


def brute_force_fundamental_cycle(g: DualGraph, coeff_bound: int) -> Cycle:
    """Exhaustive oracle: enumerate [1, bound]^n, keep anti-nef vectors,
    return the unique componentwise-minimal one."""
    if coeff_bound < 1:
        raise CycleError("coeff_bound must be >= 1")
    form = intersection_form(g)
    n = g.vertex_count
    M = np.array(form.matrix, dtype=np.int64)
    total = coeff_bound**n
    candidates: list[tuple[int, ...]] = []
    chunk = 1 << 21
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        vecs = np.empty((len(idx), n), dtype=np.int64)
        for j in range(n - 1, -1, -1):
            vecs[:, j] = idx % coeff_bound + 1
            idx //= coeff_bound
        antinef = (vecs @ M <= 0).all(axis=1)
        candidates.extend(map(tuple, vecs[antinef]))
    if not candidates:
        raise BoundTooSmallError(
            f"no anti-nef cycle with coefficients in [1, {coeff_bound}]"
        )
    minimum = tuple(min(vals) for vals in zip(*candidates))
    if minimum not in candidates:
        raise NonUniqueMinimumError(
            "componentwise minimum is not itself anti-nef"
        )
    return Cycle(minimum)
