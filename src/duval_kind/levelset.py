"""The squared norm of the A_n structure form in the psi-form, on a
G7/K15 kernel: the one module of the package that uses numpy.

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
is exact), so e^{2 s*} = eps^2 sigma(-psi).  This module computes the
norm.  The band rows I~_k are a table in `quadrature`; the band kernel
that checks them is `annulus_bands` in tests/oracles.py, on this
module's `_psi_integral`, and the flat limit of I~_k and its proven
bound are written out there.

Each level is labelled by s0, its s on the diagonal d = 0.  There
psi0 = (n-1) s0 + log 2, and the level and its slope are explicit:

    L(s0) = 2 s0 + softplus(psi0),   dL/ds0 = 2 + (n-1) sigma(psi0).

The norm's level l = 2 log eps has one root s0, which `_level_s0` solves
by a scalar Newton once per norm, never at a node of the kernel.

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
tolerance.  `_tail_bound` bounds what the cut drops at each level; the
norm's truncation bound is that times pi^2 eps^2.

In floats, every level carries e0 = e^{psi0}.  Every level has l < 0,
and f(0) = log 3 > 0 in `_level_s0`, so s0 < 0 and psi0 <= log 2: e0 <= 2
never overflows.  From e0 come softplus(-psi0) = log1p(e0) - psi0,
sigma(-psi0) = 1/(1 + e0) and sigma(psi0) = e0/(1 + e0), and at each
node sigma(-psi) = 1/(1 + e0 e^{v^2}), where e0 e^{v^2} <= 2 e^36.  A
node then costs five transcendental passes: expm1(v^2), the log1p of
delta, expm1(-2 delta), its square root and e^{-2 delta}; the weight
a + b sigma(psi) costs a pass only where b != 0.  The closed-form part
adds 50 eps_mach of itself to the error estimate, for the rounding of
psi0 and e0.

The kernel.  Every level takes the four panels between the breakpoints
`_V_POINTS`, each with the Gauss-Kronrod pair G7/K15 (QUADPACK, Piessens
et al. 1983).  `_psi_integral` evaluates the excess at the 4 x 15 nodes
of all levels of a family as one (levels, 4, 15) array, applies both
rules in one product with `_WKG` and sums each level's four panels.  A
panel's error estimate is |K15 - G7|, floored at 50 eps_mach K15 (both
integrands are >= 0, so K15 is the rule's sum h |f|).  No panel is
refined and no tolerance reaches this module: the comment at `_V_POINTS`
quotes the margins that tests/level_sweep.py measures over every level
the program and the band oracle evaluate.  `level_norm` is a family of
one level, and returns a finished QuadratureResult, scaled and with its
truncation bound; `quadrature` checks its arguments before and its error
estimate against the tolerance after.
"""

from __future__ import annotations

import math

import numpy as np

from .quadrature import QuadratureResult

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
# K15 in column 0 and G7 at the Gauss nodes of column 1: one matrix
# product gives both rules without a strided copy, and (under OpenBLAS
# 0.3) rounds a panel alike however many levels share it, where a
# matrix-vector product rounds by the panel count's remainder mod 4
_WKG = np.zeros((15, 2))
_WKG[:, 0] = _WK
_WKG[1::2, 1] = _WG

_EPS = float(np.finfo(float).eps)
_ROUNDOFF_FLOOR = 50.0 * _EPS
# the v-axis is cut at _V_CUT; _tail_bound bounds what the cut drops
_V_CUT = 6.0
# a level takes the panels between these breakpoints at every tolerance.
# Over every level the program and the band oracle evaluate
# (tests/level_sweep.py: the band nodes of k = 1..4 and 4000 norm levels
# for eps in [1e-100, 1/2], for n = 1..39 and 40 log-spaced n up to 2^53)
# the worst relative error estimate is 1.52e-10 over band levels and
# 1.15e-9 over norm levels, 66 and 8.7 times within the floor tolerance
# 1e-8.  The breakpoint 3 splits
# [2, 6], near which lie the poles of sigma(-psi) at v^2 = -psi0 +- i pi
# (v = 2.5 +- 0.63i at psi0 = -6); the shorter panels see them through
# larger Bernstein ellipses (Trefethen, SIAM Rev. 50, 2008).  On 0, 1, 2, 6
# the norm at n = 3, eps = 0.0310 is 34 times off its own estimate, and
# the three panels 0, 1.5, 3, 6 give 1.2e-8 over band levels.
_V_POINTS = np.array([0.0, 1.0, 2.0, 3.0, _V_CUT])
_LOG_2 = math.log(2.0)
_NEWTON_STEPS = 60


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
    entry of psi0 <= log 2, as one family in one rule product: arrays
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
    lo, hi = _V_POINTS[:-1], _V_POINTS[1:]
    width = 0.5 * (hi - lo)
    v = (0.5 * (hi + lo))[:, None] + width[:, None] * _XK
    # the excess at every node of every level: (levels, panels, 15)
    w = v * v
    grow = np.expm1(w)
    e_psi = e0[:, None, None] * (1.0 + grow)
    sigma_neg = 1.0 / (1.0 + e_psi)
    decay = -2.0 * (w + half * np.log1p(p[:, None, None] * grow))
    # coth y - 1 = 1/sqrt(q) - 1 with q = 1 - e^{-2 delta}, free of cancellation
    root_q = np.sqrt(-np.expm1(decay))
    weight = a + b * e_psi * sigma_neg if b else a
    excess = 2.0 * weight * v * sigma_neg * np.exp(decay) / (root_q * (1.0 + root_q))
    rules = excess @ _WKG
    kronrod, gauss = width * rules[..., 0], width * rules[..., 1]
    error = np.maximum(np.abs(kronrod - gauss), _ROUNDOFF_FLOOR * kronrod)
    main = a * (np.log1p(e0) - psi0) + b / (1.0 + e0)
    return main + kronrod.sum(-1), error.sum(-1) + _ROUNDOFF_FLOOR * main, len(lo)


def _tail_bound(a: float, b: float) -> float:
    """Bound on what the cut at v = _V_CUT drops from _psi_integral(.., a, b).

    delta >= v^2 and coth y - 1 <= 1/(e^{2 delta} - 1), and the weight
    sigma(-psi)(a + b sigma(psi)) is at most a + b/4, so the dropped part is
    below (a + b/4) int_V^inf 2v e^{-2v^2} dv / (1 - e^{-2V^2})."""
    cut = math.exp(-2.0 * _V_CUT**2)
    return (a + 0.25 * b) * cut / (2.0 * (1.0 - cut))


# -- the norm ------------------------------------------------------------------

def level_norm(n: int, eps: float) -> QuadratureResult:
    """||omega||^2 = pi^2 eps^2 int_{psi0}^inf sigma(-psi) (2 + (n-1) sigma(psi))
    coth y dpsi on the level L = 2 log eps."""
    psi0 = (n - 1) * _level_s0(n, 2.0 * math.log(eps)) + _LOG_2
    (value,), (error,), panels = _psi_integral(n, np.array([psi0]), 2.0, n - 1.0)
    # eps^2 is subnormal below eps = 1.5e-154: scale by the mantissa's
    # square and then by the exponent, which rounds only at the result
    mantissa, exponent = math.frexp(eps)

    def scaled(x):
        return math.ldexp(math.pi**2 * (mantissa * mantissa) * float(x), 2 * exponent)

    # ldexp rounds only a subnormal result, whose ulp is 2^-1074, by at most
    # half of it: the error is floored at that half ulp rounded up to a float
    return QuadratureResult(
        max(scaled(value), 0.0),
        max(scaled(error), math.ulp(0.0)),
        panels,
        scaled(_tail_bound(2.0, n - 1.0)),
    )
