"""Exhaustive verification oracles: independent of the product code paths.

`brute_force_fundamental_cycle` enumerates a coefficient box instead of
running Laufer's algorithm, and `determinant_cofactor` expands
determinants by cofactors instead of eliminating.
"""

from __future__ import annotations

import numpy as np

from duval_kind.cycles import Cycle, CycleError
from duval_kind.dual_graph import DualGraph, IntersectionForm, intersection_form


class BoundTooSmallError(CycleError):
    """Brute-force search found no anti-nef cycle within the bound."""


class NonUniqueMinimumError(CycleError):
    """Componentwise minimum of the anti-nef candidates is not itself a
    candidate; would indicate an implementation bug."""


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


def determinant_cofactor(form: IntersectionForm) -> int:
    """Independent exact determinant by cofactor expansion (memoized on
    column subsets); verification oracle for the elimination route."""
    n = form.size
    m = form.matrix
    cache: dict[int, int] = {}

    def rec(row: int, colmask: int) -> int:
        if row == n:
            return 1
        if colmask in cache:
            return cache[colmask]
        total = 0
        sign = 1
        for j in range(n):
            bit = 1 << j
            if colmask & bit:
                continue
            if m[row][j] != 0:
                total += sign * m[row][j] * rec(row + 1, colmask | bit)
            sign = -sign
        cache[colmask] = total
        return total

    return rec(0, 0)
