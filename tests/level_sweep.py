"""Worst relative error estimate of each v-panel set over the levels the
program evaluates.

Run as a script (pytest does not collect it):

    python tests/level_sweep.py

For n = 1..39 and 40 log-spaced n up to 2^53 it records the levels that
`integral_Ik_bands(n, (1, 2, 3, 4), .)` and `structure_form_l2_norm` at
4000 log-spaced radii eps in [1e-100, 1/2] hand to
`levelset._psi_integral`, and evaluates each of them again on three
panel sets: `levelset._V_POINTS`, each of its panels cut in two, and
each cut in four (`levelset._V_POINTS_FINE`).  It prints, per panel set,
the worst of `_psi_integral`'s error over its value, which is what a
level's tolerance is checked against: a band's levels at a tenth of the
band's tolerance, a norm's one level at the norm's.  The margins of
`levelset._COARSE_TOL` quote this output.  It takes about a minute.
"""

from __future__ import annotations

import math

import numpy as np

from duval_kind import levelset
from duval_kind.quadrature import MAX_N, integral_Ik_bands, structure_form_l2_norm

RADII = np.geomspace(1e-100, 0.5, 4000)


def sweep_ns() -> list[int]:
    return list(range(1, 40)) + sorted({int(n) for n in np.geomspace(40, MAX_N, 40)})


def recorded_levels(n: int) -> dict[str, tuple]:
    """The (psi0, a, b) of the band levels and of the norm levels of n."""
    seen = []
    psi_integral = levelset._psi_integral

    def recording(n, psi0, a, b, rel_tol):
        seen.append((psi0, a, b))
        return psi_integral(n, psi0, a, b, rel_tol)

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
    fine = levelset._V_POINTS_FINE
    levelset._V_POINTS_FINE = points
    try:
        values, errors, _ = levelset._psi_integral(n, psi0, a, b, 0.0)
    finally:
        levelset._V_POINTS_FINE = fine
    return errors / values


def cut(points, parts: int) -> np.ndarray:
    """points with each of their panels cut into parts equal ones."""
    index = np.arange((len(points) - 1) * parts + 1) / parts
    return np.interp(index, np.arange(len(points)), points)


def main() -> int:
    panel_sets = {
        "coarse (3 panels)": levelset._V_POINTS,
        "halved (6 panels)": cut(levelset._V_POINTS, 2),
        "quartered (12 panels)": levelset._V_POINTS_FINE,
    }
    worst = {}
    for n in sweep_ns():
        for kind, (psi0, a, b) in recorded_levels(n).items():
            for name, points in panel_sets.items():
                estimate = float(relative_estimates(n, psi0, a, b, points).max())
                if estimate > worst.get((name, kind), (-math.inf,))[0]:
                    worst[name, kind] = (estimate, n)
    for (name, kind), (estimate, n) in worst.items():
        print(f"{name:22} {kind}: worst relative estimate {estimate:.2e} (n = {n})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
