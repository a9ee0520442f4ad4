"""The proven flat bound against mpmath: |R_k(n)| <= oracles.flat_remainder_bound(n, k).

Run as a script (pytest does not collect it):

    python tests/flat_bound_sweep.py

R_k(n) = I~_k(n) - pi^2 (n-1)/(n+1) is computed here without taking the
limit off a value.  In the notation of the proof at
`oracles.flat_remainder_bound`, R_k = 2 pi^2 / (n+1) int_band b dl / l^2
with

    b = (n+1)/2 log1p(e0) - (log 2 - C),
    log 2 - C = int_0^inf [E(w) - E(delta) + sigma(psi) E(delta)] dw,
    E(w) - E(delta) = e^{-2w} (1 - e^{-2(delta - w)}) / (r_w r_d (r_w + r_d)),

r_t = sqrt(1 - e^{-2t}) and delta - w = (n-1)/2 log1p(p expm1(w)).  Both
terms of b are positive and of order e0, so at WORKING_DIGITS their
rounding and the rules' error stay far below the bound, which is of
order e0 too, for every n: at n = 2 and 3 the sweep's R_1 and R_2 agree
with the frozen ones of tests/remainder_oracle.py to 8 digits, and where
R is far below the bound it reads as noise of about 3e-15 of the bound.
The level integral runs in v = sqrt(w) on panels of width 1 up to V_CUT,
and the band integral in s0 on panels that double in width from the
band's inner end, where b ~ e^{2(n-1) s0} is largest; every panel takes
the POINTS-point Gauss-Legendre rule.

The sweep covers n = 2..26 for k = 1..4, 100 bands, among them the four
frozen remainders.  For each it prints R, the bound and their ratio, and
it exits 1 if any |R| exceeds its bound; the worst ratio is 0.154, at
(2, 1).  It takes about three minutes; tests/test_quadrature.py runs
`remainder` on one band.
"""

from __future__ import annotations

import sys

import mpmath as mp

from band_constants import _composite, _level_s0
from oracles import flat_remainder_bound

WORKING_DIGITS = 15
POINTS = 10
V_CUT = 8
SWEEP = [(n, k) for k in (1, 2, 3, 4) for n in range(2, 27)]


def _bracket(n: int, e0: mp.mpf, rule) -> mp.mpf:
    """b = (n+1)/2 log1p(e0) - (log 2 - C) on the level with e^psi0 = e0."""
    p = e0 / (1 + e0)

    def integrand(v):
        w = v * v
        gap = (n - 1) * mp.log1p(p * mp.expm1(w)) / 2  # delta - w
        r_w = mp.sqrt(-mp.expm1(-2 * w))
        r_d = mp.sqrt(-mp.expm1(-2 * (w + gap)))
        e_delta = mp.exp(-2 * (w + gap)) / (r_d * (1 + r_d))
        sigma_psi = e0 * mp.exp(w) / (1 + e0 * mp.exp(w))
        drop = mp.exp(-2 * w) * -mp.expm1(-2 * gap) / (r_w * r_d * (r_w + r_d))
        return 2 * v * (drop + sigma_psi * e_delta)

    deficit = _composite(integrand, list(range(V_CUT + 1)), rule)
    return (n + 1) * mp.log1p(e0) / 2 - deficit


def remainder(n: int, k: int, points: int = POINTS) -> mp.mpf:
    """R_k(n) at WORKING_DIGITS, for n >= 2."""
    with mp.workdps(WORKING_DIGITS):
        rule = mp.gauss_quadrature(points, "legendre")
        inner = _level_s0(n, -2 * mp.e**k)
        outer = _level_s0(n, -2 * mp.e ** (k + 1))
        edges, width = [inner], 1 / mp.mpf(n - 1)
        while edges[-1] - width > outer:
            edges.append(edges[-1] - width)
            width *= 2
        edges.append(outer)

        def integrand(s0):
            e0 = 2 * mp.exp((n - 1) * s0)
            ell = 2 * s0 + mp.log1p(e0)
            # dl = (2 + (n-1) p) ds0, and l falls with s0
            return _bracket(n, e0, rule) * (2 + (n - 1) * e0 / (1 + e0)) / ell**2

        return -2 * mp.pi**2 / (n + 1) * _composite(integrand, edges, rule)


def main() -> int:
    worst = 0
    failed = []
    for n, k in SWEEP:
        r, bound = remainder(n, k), flat_remainder_bound(n, k)
        ratio = abs(r) / bound
        worst = max(worst, ratio)
        print(f"({n}, {k}): R = {mp.nstr(r, 6)}, bound {mp.nstr(bound, 6)}, "
              f"ratio {mp.nstr(ratio, 3)}")
        if ratio > 1:
            failed.append((n, k))
    print(f"{len(SWEEP)} bands, worst |R| / bound {mp.nstr(worst, 3)}")
    print("all checks passed" if not failed else f"FAILED: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
