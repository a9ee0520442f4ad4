"""The 30-digit band values behind `quadrature._BANDS` (mpmath, n >= 2).

Run as a script to recompute every value, check it against `FROZEN` and
print the table that `quadrature._BANDS` holds:

    python tests/band_constants.py

It takes about two minutes on one core and exits with status 1 if a
value moves or its two rules disagree.  pytest does not collect it;
tests/test_quadrature.py runs `band_value` on one band at low precision.

The psi-form (as in `duval_kind.levelset`, written again here in mpmath;
this module imports nothing of the package).  On the level L = l of the
A_n covering, label the level by s0, its s on the diagonal, with
e0 = e^psi0 = 2 e^{(n-1) s0} and l = 2 s0 + log1p(e0).  Then

    I~_k = pi^2 (n-1)/(n+1) + R_k,
    R_k = 2 pi^2 / (n+1) int_band [(n+1)/2 log1p(e0) - log 2 + C(psi0)] dl / l^2,

where the band is -2e^{k+1} < l < -2e^k and

    C(psi0) = int_0^inf sigma(-psi0 - v^2) E(delta) 2v dv,
    E(t) = (1 - e^{-2t})^{-1/2} - 1,
    delta = v^2 + (n-1)/2 log1p(p expm1(v^2)),  p = e0 / (1 + e0),

is the excess of coth y over 1 (cosh y = e^delta) in v = sqrt(psi - psi0).
The band integral runs in u = log(-s0), dl = (2 + (n-1) p) s0 du, between
the roots s0 of the level equation at the band's two ends, on PANELS_U
equal panels; C runs on the panels of width 1 that cover [0, V_CUT],
past which the integrand is below 2v e^{-2v^2} < 1e-54.  Every panel
takes the m-point Gauss-Legendre rule.  R_k is a difference of terms of
order one, so the working precision sets its absolute error, and
`band_value` returns I~_k with the difference of two rules (m and 3m/4
points) as its error estimate.

The 16 bands in `FROZEN` are those whose remainder the proven flat bound
(`oracles.flat_remainder_bound`) cannot hold within 8 * 2^-53 of the
row's value; tests/test_quadrature.py derives that set from the bound and
checks that it is the key set of `FROZEN` and of `quadrature._BANDS`.
"""

from __future__ import annotations

import sys

import mpmath as mp

DIGITS = 30
GUARD_DIGITS = 10
PANELS_U = 2
V_CUT = 8

# I~_k(n) to 30 significant digits, as printed by this script
FROZEN = {
    (2, 1): "3.29826222767676059379871081352",
    (3, 1): "4.9348703509769561061908756259",
    (4, 1): "5.92176307832719091137668423336",
    (5, 1): "6.57973626991631420564148540957",
    (6, 1): "7.04971742936323646840931670028",
    (7, 1): "7.40220330081709044668134930931",
    (8, 1): "7.67635897862505706663825870816",
    (9, 1): "7.89568352087148689687523563108",
    (10, 1): "8.07513087361856614269162614977",
    (11, 1): "8.22467033424113218236211873694",
    (12, 1): "8.35120372399868806209072335942",
    (2, 2): "3.28986853670002566284215564247",
    (3, 2): "4.93480220054493131756570955117",
    (4, 2): "5.9217626406536151714336847728",
    (5, 2): "6.57973626739290574588966073137",
    (2, 3): "3.28986813369645287455796190863",
}


def _level_s0(n: int, ell: mp.mpf) -> mp.mpf:
    """The root s0 < 0 of 2 s0 + log1p(2 e^{(n-1) s0}) = ell: Newton from
    ell/2 on the convex increasing left side decreases onto it."""
    s = ell / 2
    for _ in range(200):
        e = 2 * mp.exp((n - 1) * s)
        step = (2 * s + mp.log1p(e) - ell) / (2 + (n - 1) * e / (1 + e))
        s -= step
        if abs(step) <= 16 * mp.eps * (1 + abs(ell)):
            return s
    raise ArithmeticError("Newton for the band end did not converge")


def _composite(f, edges, rule) -> mp.mpf:
    """sum over the panels between edges of the Gauss-Legendre rule."""
    nodes, weights = rule
    total = mp.mpf(0)
    for a, b in zip(edges, edges[1:]):
        half, mid = (b - a) / 2, (a + b) / 2
        total += half * mp.fsum(w * f(mid + half * x) for x, w in zip(nodes, weights))
    return total


def excess_integrand(n: int, e0: mp.mpf):
    """v -> sigma(-psi0 - v^2) E(delta) 2v, the integrand of C(psi0), for
    e0 = e^psi0."""
    p = e0 / (1 + e0)

    def integrand(v):
        w = v * v
        grow = mp.expm1(w)
        delta = w + (n - 1) * mp.log1p(p * grow) / 2
        root = mp.sqrt(-mp.expm1(-2 * delta))
        # E = e^{-2 delta} / (sqrt q (1 + sqrt q)), q = 1 - e^{-2 delta}
        return 2 * v * mp.exp(-2 * delta) / (root * (1 + root)) / (1 + e0 * (1 + grow))

    return integrand


def _excess(n: int, e0: mp.mpf, rule) -> mp.mpf:
    """C(psi0) for e0 = e^psi0."""
    return _composite(excess_integrand(n, e0), list(range(V_CUT + 1)), rule)


def _remainder(n: int, k: int, points: int) -> mp.mpf:
    rule = mp.gauss_quadrature(points, "legendre")
    u_outer = mp.log(-_level_s0(n, -2 * mp.e ** (k + 1)))
    u_inner = mp.log(-_level_s0(n, -2 * mp.e**k))

    def integrand(u):
        s0 = -mp.exp(u)
        e0 = 2 * mp.exp((n - 1) * s0)
        ell = 2 * s0 + mp.log1p(e0)
        bracket = (n + 1) * mp.log1p(e0) / 2 - mp.log(2) + _excess(n, e0, rule)
        return bracket * (2 + (n - 1) * e0 / (1 + e0)) * -s0 / ell**2

    edges = [u_inner + (u_outer - u_inner) * j / PANELS_U for j in range(PANELS_U + 1)]
    return 2 * mp.pi**2 / (n + 1) * _composite(integrand, edges, rule)


def band_value(n: int, k: int, digits: int = DIGITS) -> tuple[mp.mpf, mp.mpf]:
    """(I~_k(n), error estimate) for n >= 2, at `digits` significant digits
    plus GUARD_DIGITS of working precision, with rules of `digits` + 14
    and three quarters as many points."""
    with mp.workdps(digits + GUARD_DIGITS):
        points = digits + 14
        fine = _remainder(n, k, points)
        coarse = _remainder(n, k, 3 * points // 4)
        limit = mp.pi**2 * (n - 1) / (n + 1)
        return limit + fine, abs(fine - coarse)


def main() -> int:
    failures = []
    values = {}
    for n, k in FROZEN:
        value, error = band_value(n, k)
        text = mp.nstr(value, DIGITS, min_fixed=-mp.inf, max_fixed=mp.inf)
        values[n, k] = text
        ok = error < mp.mpf(10) ** -(DIGITS + 2) * value and text == FROZEN[n, k]
        verdict = "ok" if ok else "MOVED"
        print(f"({n}, {k}): {text}  (rules differ by {mp.nstr(error, 2)}) {verdict}")
        if not ok:
            failures.append((n, k))
    print("_BANDS = {")
    for (n, k), text in values.items():
        print(f"    ({n}, {k}): {float(mp.mpf(text))!r},")
    print("}")
    print("all checks passed" if not failures else f"FAILED: {failures}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
