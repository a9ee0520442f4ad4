"""Worst relative error estimate of the v-panels over the levels the
program evaluates.

Run as a script (pytest does not collect it):

    python tests/level_sweep.py

For n = 1..39 and 40 log-spaced n up to 2^53 it records the levels that
`integral_Ik_bands(n, (1, 2, 3, 4), .)` and `structure_form_l2_norm` at
4000 log-spaced radii eps in [1e-100, 1/2] hand to
`levelset._psi_integral`, and evaluates each of them again on two panel
sets: `levelset._V_POINTS` and, for comparison, the three panels 0, 1.5,
3, 6.  It prints, per panel set and kind of level, the worst of
`_psi_integral`'s error over its value and how many times that is within
the floor tolerance 1e-8.  The comment at `levelset._V_POINTS` quotes the
two margins of `_V_POINTS`.  It takes about a minute.
"""

from __future__ import annotations

import math

import numpy as np

from duval_kind import levelset
from duval_kind.quadrature import MAX_N, integral_Ik_bands, structure_form_l2_norm

RADII = np.geomspace(1e-100, 0.5, 4000)
FLOOR_TOL = 1e-8


def sweep_ns() -> list[int]:
    return list(range(1, 40)) + sorted({int(n) for n in np.geomspace(40, MAX_N, 40)})


def recorded_levels(n: int) -> dict[str, tuple]:
    """The (psi0, a, b) of the band levels and of the norm levels of n."""
    seen = []
    psi_integral = levelset._psi_integral

    def recording(n, psi0, a, b):
        seen.append((psi0, a, b))
        return psi_integral(n, psi0, a, b)

    levelset._psi_integral = recording
    try:
        integral_Ik_bands(n, (1, 2, 3, 4), 1e-4)
        for eps in RADII:
            structure_form_l2_norm(n, float(eps), 1e-4)
    finally:
        levelset._psi_integral = psi_integral
    (bands, a, b), norms = seen[0], seen[1:]
    return {
        "band levels": (bands, a, b),
        "norm levels": (np.concatenate([psi0 for psi0, _, _ in norms]), *norms[0][1:]),
    }


def relative_estimates(n: int, psi0, a: float, b: float, points) -> np.ndarray:
    """_psi_integral's error over value for each level, on the breakpoints points."""
    kept = levelset._V_POINTS
    levelset._V_POINTS = points
    try:
        values, errors, _ = levelset._psi_integral(n, psi0, a, b)
    finally:
        levelset._V_POINTS = kept
    return errors / values


def main() -> int:
    panel_sets = {
        "_V_POINTS (4 panels)": levelset._V_POINTS,
        "0, 1.5, 3, 6 (3 panels)": np.array([0.0, 1.5, 3.0, levelset._V_CUT]),
    }
    worst = {}
    for n in sweep_ns():
        for kind, (psi0, a, b) in recorded_levels(n).items():
            for name, points in panel_sets.items():
                estimate = float(relative_estimates(n, psi0, a, b, points).max())
                if estimate > worst.get((name, kind), (-math.inf,))[0]:
                    worst[name, kind] = (estimate, n)
    for (name, kind), (estimate, n) in worst.items():
        print(
            f"{name:24} {kind}: worst relative estimate {estimate:.2e} (n = {n}), "
            f"{FLOOR_TOL / estimate:.3g} times within {FLOOR_TOL:g}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
