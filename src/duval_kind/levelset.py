"""The A_n integrals in the psi-form, on a G7/K15 kernel: the one module
of the package that uses numpy.

Phases contribute an exact (2 pi)^2, and the moduli are parametrized by
u_i = log rho_i, where the squared ambient norm has logarithm
L = logsumexp{(2n+2)u1, (2n+2)u2, 2(u1+u2)}.  In s = u1+u2, d = u1-u2
(du1 du2 = ds dd / 2, and everything is even in d)

    L = 2s + softplus(psi),   psi = (n-1)s + log 2cosh((n+1)d),

which is strictly increasing in s with dL/ds = 2 + (n-1) sigma(psi) in
[2, n+1].  Taking the levels of L as the outer coordinate (coarea
formula, Federer 1959) turns both regions into products and removes
every indicator:

    I~_k = (2 pi)^2 int_{-2e^{k+1}}^{-2e^k} dl / l^2
                    int_0^inf sigma(-psi) / (2 + (n-1) sigma(psi)) dd,
    ||omega||^2 = 2 pi^2 (n+1) int_0^inf e^{2 s*(d)} dd,

with s*(d) the level s at l = 2 log eps (the inner s-integral of e^{2s}
is exact), so e^{2 s*} = eps^2 sigma(-psi).

Each level is labelled by s0, its s on the diagonal d = 0.  There
psi0 = (n-1) s0 + log 2, and the level and its slope are explicit:

    L(s0) = 2 s0 + softplus(psi0),   dL/ds0 = 2 + (n-1) sigma(psi0).

The band integral runs in u = log(-s0) (ds0 = s0 du) with weight
-s0 (dL/ds0) / L(s0)^2, between the logs of the roots s0 at the band's
two ends, and the norm's level l = 2 log eps has one root.  The root
(`_level_s0`) is the one level-equation solve: a scalar Newton once per
band end (adjacent bands share one) and once per norm, never at a node
of the kernel.  In u a band is about one unit wide and the pole of
1/L^2 at L = 0 lies at u = -inf, so one K15 panel resolves the band:
over n = 1..300, 300 log-spaced n up to 2^53 and k = 1..4, its
|K15 - G7| stays below 3.2e-4 of every tolerance from 1e-8 to 0.1.

The psi-form.  On a level l both s = (l - softplus psi)/2 and, with
y = (n+1)d, log 2cosh y = psi + (n-1)(softplus psi - l)/2 are explicit in
psi, which rises with d from psi0, its value at d = 0 (log 2cosh y =
log 2), to infinity.  Then dd = (2 + (n-1) sigma(psi)) dpsi /
(2(n+1) tanh y), and writing coth y = 1 + (coth y - 1) the part with 1
integrates in closed form (sigma' = sigma(psi) sigma(-psi)):

    int_0^inf sigma(-psi) / (2 + (n-1) sigma(psi)) dd
        = [softplus(-psi0) + C(psi0)] / (2(n+1)),
    ||omega||^2 = pi^2 eps^2 [2 softplus(-psi0) + (n-1) sigma(-psi0) + C'(psi0)],

where C and C' integrate the excess coth y - 1 over psi > psi0 against
sigma(-psi) and sigma(-psi)(2 + (n-1) sigma(psi)).  The d-form's corner
at d* = (n-1)|l| / (2(n+1)), where the integrands turn within about
40/(n+1), lies inside the closed-form softplus; only the excess is left
to the kernel.  With cosh y = e^delta,

    delta = v^2 + (n-1)/2 log1p(sigma(psi0) expm1(v^2)),  psi = psi0 + v^2,

the excess is 1/sqrt(1 - e^{-2 delta}) - 1.  It has an inverse square
root at psi = psi0, which the substitution v = sqrt(psi - psi0)
(dpsi = 2v dv) removes: the v-integrand is smooth and bounded, and is
integrated on the breakpoints 0, 1, 2, 3 and V = _V_CUT = 6 at every
tolerance.  `_tail_bound` bounds what the cut drops at each level; a
truncation bound is that times the scale, (2 pi)^2 / (2(n+1)) times
int_band dl / l^2 = (1 - e^{-1}) / (2e^k) for I~_k, and pi^2 eps^2 for
||omega||^2.

In floats, every level carries e0 = e^{psi0}.  Every level has l < 0,
and f(0) = log 3 > 0 in `_level_s0`, so s0 < 0 and psi0 <= log 2: e0 <= 2
never overflows.  From e0 come softplus(-psi0) = log1p(e0) - psi0,
sigma(-psi0) = 1/(1 + e0), sigma(psi0) = e0/(1 + e0), L(s0) and dL/ds0,
and at each node sigma(-psi) = 1/(1 + e0 e^{v^2}), where
e0 e^{v^2} <= 2 e^36.  A node then costs five transcendental passes:
expm1(v^2), the log1p of delta, expm1(-2 delta), its square root and
e^{-2 delta}; the weight a + b sigma(psi) costs a pass only where b != 0,
in the norm.  The closed-form part adds 50 eps_mach of itself to the
error estimate, for the rounding of psi0 and e0.

The kernel.  The levels run on one Gauss-Kronrod panel rule (G7/K15,
QUADPACK, Piessens et al. 1983), vectorised over the nodes of all panels
of a family of integrals, in one round.  A panel's error estimate is
|K15 - G7|, floored at 50 eps_mach K15 (both integrands are >= 0, so
K15 is the rule's sum h |f|).  No panel is refined and the tolerance
picks none: every level takes the four panels of `_V_POINTS`, whose
comment quotes the margins that tests/level_sweep.py measures over every
level the program evaluates.  `level_norm` is a family of one level.
`annulus_bands` takes each band as its one K15/G7 panel in u: the levels
at the 15 nodes of all bands are one family, and a band's error estimate
is its |K15 - G7|, floored alike, plus its levels' errors weighted by
K15.  A band counts its panel and its levels' panels, 1 + 15 * 4.

`quadrature` checks the arguments and then calls `annulus_bands` or
`level_norm`, which return finished QuadratureResults: scaled, with their
truncation bounds, or raised in a QuadratureBudgetError if an error
estimate misses its tolerance, which no level the program evaluates does.
"""

from __future__ import annotations

import math

import numpy as np

from .quadrature import QuadratureBudgetError, QuadratureResult

# QUADPACK qk15: Kronrod nodes in ascending order; the Gauss nodes are
# every second one, starting at index 1.
_XK_HALF = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_WK_HALF = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
)
_WK_CENTER = 0.209482141084727828012999174891714
_WG_HALF = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
)
_WG_CENTER = 0.417959183673469387755102040816327

_XK = np.array([-x for x in _XK_HALF] + [0.0] + list(reversed(_XK_HALF)))
_WK = np.array(list(_WK_HALF) + [_WK_CENTER] + list(reversed(_WK_HALF)))
_WG = np.array(list(_WG_HALF) + [_WG_CENTER] + list(reversed(_WG_HALF)))
# K15 in column 0 and G7 on the Gauss rows of column 1: one matrix product
# gives both rules without a strided copy, and (under OpenBLAS 0.3) rounds
# a row alike for any number of rows above one, where a matrix-vector
# product rounds it by the row count's remainder mod 4
_WKG = np.zeros((15, 2))
_WKG[:, 0] = _WK
_WKG[1::2, 1] = _WG

_EPS = float(np.finfo(float).eps)
_ROUNDOFF_FLOOR = 50.0 * _EPS
# the v-axis is cut at _V_CUT; _tail_bound bounds what the cut drops
_V_CUT = 6.0
# a level takes the panels between these breakpoints at every tolerance.
# Over every level the program evaluates (tests/level_sweep.py: the band
# nodes of k = 1..4 and 4000 norm levels for eps in [1e-100, 1/2], for
# n = 1..39 and 40 log-spaced n up to 2^53) the worst relative error
# estimate is 1.52e-10 over band levels and 1.15e-9 over norm levels, 66
# and 8.7 times within the floor tolerance 1e-8.  The breakpoint 3 splits
# [2, 6], near which lie the poles of sigma(-psi) at v^2 = -psi0 +- i pi
# (v = 2.5 +- 0.63i at psi0 = -6); the shorter panels see them through
# larger Bernstein ellipses (Trefethen, SIAM Rev. 50, 2008).  On 0, 1, 2, 6
# the norm at n = 3, eps = 0.0310 is 34 times off its own estimate, and
# the three panels 0, 1.5, 3, 6 give 1.2e-8 over band levels.
_V_POINTS = np.array([0.0, 1.0, 2.0, 3.0, _V_CUT])
_LOG_2 = math.log(2.0)
_NEWTON_STEPS = 60


# -- the G7/K15 kernel ---------------------------------------------------------

def _kronrod(f, lo, hi, rows):
    """K15 values and error estimates of the panels [lo, hi] of integrals
    rows.  f sees the nodes, one row of 15 per panel, and rows itself, one
    entry per panel."""
    half = 0.5 * (hi - lo)
    x = 0.5 * (hi + lo)[:, None] + half[:, None] * _XK
    kronrod, gauss = half * (f(x, rows) @ _WKG).T
    return kronrod, np.maximum(np.abs(kronrod - gauss), _ROUNDOFF_FLOOR * kronrod)


# -- level-set coordinates -----------------------------------------------------

def _level_s0(n: int, ell: float) -> float:
    """s0, the value of s at d = 0 on the level L = ell < 0: the root of
    f(s) = 2s + log1p(e) - ell, with e = e^psi = 2 e^{(n-1)s}.

    f is convex and increasing with slope 2 + (n-1) e/(1 + e) in [2, n+1],
    and f(ell/2) = log1p(e) > 0, so Newton from ell/2 decreases
    monotonically onto the root; for n = 1, f is linear.  Every iterate
    has s <= ell/2 < 0, so e <= 2.
    """
    s = 0.5 * ell
    # rounding noise of the residual f, over its least slope 2
    tol = 4.0 * _EPS * (abs(ell) + 1.0)
    for _ in range(_NEWTON_STEPS):
        e = math.exp((n - 1) * s + _LOG_2)
        step = (2.0 * s + math.log1p(e) - ell) / (2.0 + (n - 1) * e / (1.0 + e))
        s -= step
        if abs(step) <= tol:
            return s
    raise ArithmeticError(f"Newton for the level s0 did not converge in {_NEWTON_STEPS} steps")


def _psi_integral(n: int, psi0, a: float, b: float):
    """int_{psi0}^inf sigma(-psi) (a + b sigma(psi)) coth y dpsi for each
    entry of psi0 <= log 2, as one family in one kernel round: arrays
    (values, errors) and the panels of each level.

    With e0 = e^psi0, the coth y = 1 part is a (log1p(e0) - psi0) +
    b / (1 + e0) in closed form; the excess coth y - 1 is integrated in
    v = sqrt(psi - psi0) on the breakpoints _V_POINTS, where
    cosh y = e^delta with
    delta = v^2 + (n-1)/2 log1p(p expm1(v^2)), p = e0 / (1 + e0), and
    sigma(-psi) = 1 / (1 + e0 e^{v^2}), whose e0 e^{v^2} <= 2 e^36 cannot
    overflow.  The excess falls as e^{-2 delta} <= e^{-2v^2}, so with 2 a
    breakpoint no level needs more panels than these, for n up to 2^53.
    """
    e0 = np.exp(psi0)
    p = e0 / (1.0 + e0)
    half = 0.5 * (n - 1)

    def excess(v, rows):
        w = v * v
        grow = np.expm1(w)
        e_psi = e0[rows, None] * (1.0 + grow)
        sigma_neg = 1.0 / (1.0 + e_psi)
        decay = -2.0 * (w + half * np.log1p(p[rows, None] * grow))
        # coth y - 1 = 1/sqrt(q) - 1 with q = 1 - e^{-2 delta}, free of cancellation
        root_q = np.sqrt(-np.expm1(decay))
        weight = a + b * e_psi * sigma_neg if b else a
        return 2.0 * weight * v * sigma_neg * np.exp(decay) / (root_q * (1.0 + root_q))

    m, panels = len(psi0), len(_V_POINTS) - 1
    grid = _V_POINTS[None, :].repeat(m, axis=0)
    rows = np.repeat(np.arange(m), panels)
    val, err = _kronrod(excess, grid[:, :-1].ravel(), grid[:, 1:].ravel(), rows)
    value, error = np.bincount(rows, val, m), np.bincount(rows, err, m)
    main = a * (np.log1p(e0) - psi0) + b / (1.0 + e0)
    return main + value, error + _ROUNDOFF_FLOOR * main, panels


def _tail_bound(a: float, b: float) -> float:
    """Bound on what the cut at v = _V_CUT drops from _psi_integral(.., a, b).

    delta >= v^2 and coth y - 1 <= 1/(e^{2 delta} - 1), and the weight
    sigma(-psi)(a + b sigma(psi)) is at most a + b/4, so the dropped part is
    below (a + b/4) int_V^inf 2v e^{-2v^2} dv / (1 - e^{-2V^2})."""
    cut = math.exp(-2.0 * _V_CUT**2)
    return (a + 0.25 * b) * cut / (2.0 * (1.0 - cut))


def _result(value, error, panels, scale, truncation, rel_tol) -> QuadratureResult:
    """The kernel's result times scale, or QuadratureBudgetError carrying it
    if its error estimate misses the tolerance (no level the program
    evaluates does, by the margins quoted at _V_POINTS)."""
    result = QuadratureResult(
        max(scale * float(value), 0.0), scale * float(error), panels, truncation
    )
    if not error <= rel_tol * abs(value):
        raise QuadratureBudgetError(
            f"rel err {error / max(abs(value), 1e-300):.2e} misses rel_tol {rel_tol:g} "
            f"on {panels} panels (value {result.value:.6e})",
            result,
        )
    return result


# -- the two integrals -----------------------------------------------------------

def annulus_bands(n: int, ks, rel_tol: float) -> tuple[QuadratureResult, ...]:
    """I~_k = (2 pi)^2 / (2(n+1)) int over the band -2e^{k+1} < L < -2e^k
    of int_{psi0}^inf sigma(-psi) coth y dpsi (dL/ds0) ds0 / L^2 for each k
    in ks: each band is one K15/G7 panel in u = log(-s0) between the roots
    at its two ends, and the levels at the nodes of all bands are one
    _psi_integral family."""
    # adjacent bands share an end: one root per distinct end
    ends = {j: math.log(-_level_s0(n, -2.0 * math.exp(j))) for j in {*ks, *(k + 1 for k in ks)}}
    lo = np.array([ends[k] for k in ks])
    half = 0.5 * (np.array([ends[k + 1] for k in ks]) - lo)
    s0 = -np.exp((lo + half)[:, None] + half[:, None] * _XK).ravel()
    psi0 = (n - 1) * s0 + _LOG_2
    inner, inner_err, panels = _psi_integral(n, psi0, 1.0, 0.0)
    e0 = np.exp(psi0)
    ell = 2.0 * s0 + np.log1p(e0)
    # ds0 = s0 du, and u falls from log(-s0) at L = -2e^{k+1} to lo as s0 rises
    weight = -s0 * (2.0 + (n - 1) * e0 / (1.0 + e0)) / (ell * ell)
    fx = (inner * weight).reshape(len(ks), 15)
    # row by row: a product with @ rounds a lone row unlike a row of many
    kronrod = half * np.einsum("ij,j->i", fx, _WK)
    gauss = half * np.einsum("ij,j->i", fx[:, 1::2], _WG)
    errors = np.maximum(np.abs(kronrod - gauss), _ROUNDOFF_FLOOR * kronrod)
    errors += half * np.einsum("ij,j->i", (inner_err * weight).reshape(fx.shape), _WK)
    scale = 4.0 * math.pi**2 / (2.0 * (n + 1))
    results = []
    for k, value, error in zip(ks, kronrod, errors):
        # the cut's bound at each level, times int_band dl / l^2
        tail = scale * _tail_bound(1.0, 0.0) * (1.0 - math.exp(-1.0)) / (2.0 * math.exp(k))
        # the band's own panel and its 15 levels' panels
        results.append(_result(value, error, 1 + 15 * panels, scale, tail, rel_tol))
    return tuple(results)


def level_norm(n: int, eps: float, rel_tol: float) -> QuadratureResult:
    """||omega||^2 = pi^2 eps^2 int_{psi0}^inf sigma(-psi) (2 + (n-1) sigma(psi))
    coth y dpsi on the level L = 2 log eps."""
    psi0 = (n - 1) * _level_s0(n, 2.0 * math.log(eps)) + _LOG_2
    (value,), (error,), panels = _psi_integral(n, np.array([psi0]), 2.0, n - 1.0)
    scale = math.pi**2 * eps**2
    return _result(value, error, panels, scale, scale * _tail_bound(2.0, n - 1.0), rel_tol)
