"""The numpy kernel of the level-set quadrature: adaptive G7/K15 and the
psi-form of the A_n integrands.

Both integrals run on one adaptive Gauss-Kronrod kernel (G7/K15,
QUADPACK, Piessens et al. 1983), vectorised over the nodes of all
panels of a family of integrals.  A panel's error estimate is
|K15 - G7|, floored at 50 eps_mach sum h |K| and increased by the
errors of nested inner integrals weighted by the outer rule.  Each
integral of a family keeps its own tolerance and one running panel
count, its nested integrals' panels included, and stops once that count
reaches the one budget MAX_PANELS, so it refines as it would alone:
`annulus_bands` computes all bands I~_k of a table in one family (its
inner integrals, one per level, are a second family), while
`level_norm` is a family of one.  An integral without nested ones never
passes MAX_PANELS; a nested one can pass it within its last round, whose
inner panels are counted only once evaluated.

Along a level l the integrands are written in psi (see `quadrature` for
the derivation): `_level_psi0` solves the level equation at d = 0 for
psi0, and `_psi_integral` returns int_{psi0}^inf sigma(-psi)
(a + b sigma(psi)) coth y dpsi as its closed-form part
a softplus(-psi0) + b sigma(-psi0) plus the excess coth y - 1,
integrated in v = sqrt(psi - psi0) on the breakpoints 0, 1, 2, _V_CUT,
where `tail_bound` bounds what the cut drops.  Only psi0 needs Newton,
once per level; no solve runs per inner node.  At rel_tol 1e-4 every
level converges on these four points, so a table costs two kernel
rounds (its bands, then all their levels at once) and a norm one.

The functions here return the kernel's raw (value, error, panels), as
arrays with one entry per band for `annulus_bands`; `quadrature` checks
the arguments first, imports this module, and scales, bounds and checks
the result.
"""

from __future__ import annotations

import math

import numpy as np

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

_ROUNDOFF_FLOOR = 50.0 * np.finfo(float).eps
# the v-axis is cut at _V_CUT; tail_bound bounds what the cut drops
_V_CUT = 6.0
_V_POINTS = np.array([0.0, 1.0, 2.0, _V_CUT])
_LOG_2 = math.log(2.0)
# nested inner integrals get this share of the relative tolerance
_INNER_SHARE = 0.1
# panels one integral may evaluate, its nested integrals' included
MAX_PANELS = 400_000
_NEWTON_STEPS = 60


# -- the G7/K15 kernel ---------------------------------------------------------

def _kronrod(f, lo, hi, rows, m):
    """K15 values and error estimates of the panels [lo, hi] of integrals rows,
    plus the panels nested integrals in f evaluated, per integral (0 when f
    reports none).  f sees the nodes, one row of 15 per panel, and rows
    itself, one entry per panel."""
    half = 0.5 * (hi - lo)
    x = 0.5 * (hi + lo)[:, None] + half[:, None] * _XK
    fx, node_err, inner_panels = f(x, rows)
    kronrod = half * (fx @ _WK)
    gauss = half * (fx[:, 1::2] @ _WG)
    width = np.abs(half)
    floor = _ROUNDOFF_FLOOR * width * (np.abs(fx) @ _WK)
    err = np.maximum(np.abs(kronrod - gauss), floor)
    if isinstance(node_err, np.ndarray):
        err = err + width * (node_err @ _WK)
    if isinstance(inner_panels, np.ndarray):
        inner_panels = np.bincount(rows, inner_panels.sum(axis=1), m)
    return kronrod, err, inner_panels


def _gauss_kronrod(f, points, rel_tol):
    """Adaptive G7/K15 for a family of integrals int f(x, j) dx, j = 0..m-1.

    points: array (m, p) of breakpoints per integral; panels of zero width
    are dropped.  f(x, rows) returns (values, node errors, inner panels)
    for the node array x, shape (P, 15), of P panels and their integrals
    rows, shape (P,); node errors and inner panels are 0, or arrays shaped
    like x holding the errors of nested integrals and the panels they
    evaluated at each node.  Every panel of an integral whose error
    exceeds its tolerance rel_tol |value| bisects while its own error
    exceeds that tolerance's equal share per panel.  Each integral keeps
    one running count of the panels it evaluated: its initial ones, two
    per split and the inner panels of its nested integrals.  It stops when
    it meets its tolerance or its count reaches MAX_PANELS, so it refines
    as it would alone.  An integral without nested ones also stops, short
    of its tolerance, before a round of splits that would carry it past
    MAX_PANELS.  Returns arrays (values, errors, panels), one entry per
    integral.
    """
    m = points.shape[0]
    lo, hi = points[:, :-1].ravel(), points[:, 1:].ravel()
    rows = np.repeat(np.arange(m), points.shape[1] - 1)
    nonempty = hi != lo
    lo, hi, rows = lo[nonempty], hi[nonempty], rows[nonempty]
    val, err, inner = _kronrod(f, lo, hi, rows, m)
    nested = isinstance(inner, np.ndarray)
    panels = np.bincount(rows, minlength=m) + inner
    while True:
        value = np.bincount(rows, val, m)
        error = np.bincount(rows, err, m)
        tol = rel_tol * np.abs(value)
        unmet = (error > tol) & (panels < MAX_PANELS)
        if not unmet.any():
            return value, error, panels
        share = tol / np.bincount(rows, minlength=m)
        split = unmet[rows] & (err > share[rows])
        if not nested:
            # an integral without nested ones stops short of a round of
            # splits, two panels each, that would pass its budget
            split &= (panels + 2 * np.bincount(rows[split], minlength=m) <= MAX_PANELS)[rows]
            if not split.any():
                return value, error, panels
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_rows = np.tile(rows[split], 2)
        new_val, new_err, new_inner = _kronrod(f, new_lo, new_hi, new_rows, m)
        panels = panels + np.bincount(new_rows, minlength=m) + new_inner
        keep = ~split
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        rows = np.concatenate([rows[keep], new_rows])
        val = np.concatenate([val[keep], new_val])
        err = np.concatenate([err[keep], new_err])


# -- level-set coordinates -----------------------------------------------------

def _softplus(x):
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _level_psi0(n: int, ell):
    """psi at d = 0 on the level L = ell, one root per entry of ell.

    At d = 0 the level equation reads f(psi) = psi + (n-1)(softplus(psi)
    - ell)/2 - log 2 = 0.  f is convex and increasing with slope in
    [1, (n+1)/2], and f = (n-1) softplus / 2 >= 0 at the start
    log 2 + (n-1) ell / 2, so Newton decreases monotonically onto the
    root; for n = 1 the start is the root.
    """
    half = 0.5 * (n - 1)
    psi = _LOG_2 + half * ell
    if n == 1:
        return psi
    # rounding noise of the residual f, over its least slope 1
    tol = 4.0 * np.finfo(float).eps * (np.abs(psi) + half * np.abs(ell) + 1.0)
    for _ in range(_NEWTON_STEPS):
        sp = _softplus(psi)
        step = (psi + half * (sp - ell) - _LOG_2) / (1.0 + half * np.exp(psi - sp))
        psi = psi - step
        if np.all(np.abs(step) <= tol):
            return psi
    raise ArithmeticError(f"Newton for the level psi did not converge in {_NEWTON_STEPS} steps")


def _psi_integral(n: int, psi0, a: float, b: float, rel_tol: float):
    """int_{psi0}^inf sigma(-psi) (a + b sigma(psi)) coth y dpsi for each
    entry of psi0, as one family: arrays (values, errors, panels).

    The coth y = 1 part is a softplus(-psi0) + b sigma(-psi0) in closed
    form; the excess coth y - 1 is integrated in v = sqrt(psi - psi0) on
    the breakpoints 0, 1, 2, _V_CUT, where cosh y = e^delta with
    delta = v^2 + (n-1)/2 log1p(sigma(psi0) expm1(v^2)).  The excess
    falls as e^{-2 delta} <= e^{-2v^2}: with 2 a breakpoint, every panel
    resolves it at rel_tol 1e-4 without a split, for n up to 2^53.
    """
    p = np.exp(psi0 - _softplus(psi0))
    half = 0.5 * (n - 1)

    def excess(v, rows):
        w = v * v
        psi = psi0[rows, None] + w
        sp = _softplus(psi)
        delta = w + half * np.log1p(p[rows, None] * np.expm1(w))
        # coth y - 1 = 1/sqrt(q) - 1 with q = 1 - e^{-2 delta}, free of cancellation
        root_q = np.sqrt(-np.expm1(-2.0 * delta))
        weight = a + b * np.exp(psi - sp)
        return 2.0 * v * weight * np.exp(-sp - 2.0 * delta) / (root_q * (1.0 + root_q)), 0.0, 0

    points = np.broadcast_to(_V_POINTS, (len(psi0), len(_V_POINTS)))
    values, errors, panels = _gauss_kronrod(excess, points, rel_tol)
    main = a * _softplus(-psi0) + b * np.exp(-_softplus(psi0))
    return main + values, errors + _ROUNDOFF_FLOOR * main, panels


def tail_bound(a: float, b: float) -> float:
    """Bound on what the cut at v = _V_CUT drops from _psi_integral(.., a, b, ..).

    delta >= v^2 and coth y - 1 <= 1/(e^{2 delta} - 1), and the weight
    sigma(-psi)(a + b sigma(psi)) is at most a + b/4, so the dropped part is
    below (a + b/4) int_V^inf 2v e^{-2v^2} dv / (1 - e^{-2V^2})."""
    cut = math.exp(-2.0 * _V_CUT**2)
    return (a + 0.25 * b) * cut / (2.0 * (1.0 - cut))


# -- the two integrals -----------------------------------------------------------

def annulus_bands(n: int, ks, rel_tol: float):
    """int over the band -2e^{k+1} < ell < -2e^k of
    int_{psi0(ell)}^inf sigma(-psi) coth y dpsi dell / ell^2 for each k in
    ks, one family with a row per band: arrays (values, errors, panels)."""

    def level_density(ell, rows):
        """int_{psi0}^inf sigma(-psi) coth y dpsi / ell^2 at each level ell."""
        flat = ell.ravel()
        inner, inner_err, panels = _psi_integral(
            n, _level_psi0(n, flat), 1.0, 0.0, _INNER_SHARE * rel_tol
        )
        weight = 1.0 / (flat * flat)
        return (
            (inner * weight).reshape(ell.shape),
            (inner_err * weight).reshape(ell.shape),
            panels.reshape(ell.shape),
        )

    bands = np.array([[-2.0 * math.exp(k + 1), -2.0 * math.exp(k)] for k in ks])
    return _gauss_kronrod(level_density, bands, rel_tol)


def level_norm(n: int, level: float, rel_tol: float):
    """int_{psi0}^inf sigma(-psi) (2 + (n-1) sigma(psi)) coth y dpsi on the
    level L = level: (value, error, panels)."""
    psi0 = _level_psi0(n, np.array([level]))
    value, error, panels = _psi_integral(n, psi0, 2.0, n - 1.0, rel_tol)
    return value[0], error[0], panels[0]
