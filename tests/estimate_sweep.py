"""Dense check that the error column of the norm bounds its true error.

Run as a script (pytest does not collect it):

    python tests/estimate_sweep.py [n ...]

For each n (default 2, 3, 4, 5, 8, 11) it evaluates
`structure_form_l2_norm(n, eps, 1e-4)` at 4000 log-spaced radii eps in
[1e-3, 1/2] and compares it with `oracles.structure_form_reference`, which
solves the level equation in t and does not use the psi-form.  A radius
misses when |value - reference| exceeds error_estimate + truncation_bound
+ the reference's uncertainty.  It prints, per n, the misses and the worst
deviation over that bound, and exits 1 if any radius misses.  It takes
about 9 ms per radius.
"""

from __future__ import annotations

import sys

import numpy as np

from duval_kind.quadrature import structure_form_l2_norm
from oracles import structure_form_reference

RADII = np.geomspace(1e-3, 0.5, 4000)
TOL = 1e-4
DEFAULT_NS = (2, 3, 4, 5, 8, 11)


def worst_ratio(n: int) -> tuple[int, float, float]:
    """(misses, worst deviation over bound, its radius) over RADII."""
    misses, worst, at = 0, -1.0, float("nan")
    for eps in map(float, RADII):
        reference, uncertainty = structure_form_reference(n, eps)
        got = structure_form_l2_norm(n, eps, TOL)
        ratio = abs(got.value - reference) / (
            got.error_estimate + got.truncation_bound + uncertainty
        )
        misses += ratio > 1.0
        if ratio > worst:
            worst, at = ratio, eps
    return misses, worst, at


def main(argv: list[str]) -> int:
    ns = [int(word) for word in argv] or DEFAULT_NS
    missed = False
    for n in ns:
        misses, worst, at = worst_ratio(n)
        missed |= misses > 0
        print(
            f"n = {n}: {misses} of {len(RADII)} radii miss; worst deviation "
            f"{worst:.2g} of its bound, at eps = {at!r}"
        )
    return 1 if missed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
