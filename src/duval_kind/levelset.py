"""The numpy kernel of the level-set quadrature: adaptive G7/K15 and the
level coordinates (s, psi) of the A_n integrands.

Both integrals run on one adaptive Gauss-Kronrod kernel (G7/K15,
QUADPACK, Piessens et al. 1983), vectorised over the nodes of all
panels of a family of integrals.  A panel's error estimate is
|K15 - G7|, floored at 50 eps_mach sum h |K| and increased by the
errors of nested inner integrals weighted by the outer rule.  Each
integral of a family keeps its own tolerance, panel count and budget,
so it refines as it would alone: `annulus_bands` computes all bands
I~_k of a table in one family (its inner d-integrals, one per level,
are a second family), while `level_area` is a family of one.

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
# the d-axis is cut at d* + TAIL; the dropped tail is below e^{-2 TAIL}
TAIL = 40.0
# nested inner integrals get this share of the relative tolerance
_INNER_SHARE = 0.1
_NEWTON_STEPS = 60


# -- the G7/K15 kernel ---------------------------------------------------------

def _kronrod(f, lo, hi, rows, m):
    """K15 values and error estimates of the panels [lo, hi] of integrals rows,
    plus the panels nested integrals in f evaluated, per integral (0 when f
    reports none)."""
    half = 0.5 * (hi - lo)
    x = 0.5 * (hi + lo)[:, None] + half[:, None] * _XK
    node_rows = np.broadcast_to(rows[:, None], x.shape)
    fx, node_err, inner_panels = f(x, node_rows)
    kronrod = half * (fx @ _WK)
    gauss = half * (fx[:, 1::2] @ _WG)
    width = np.abs(half)
    floor = _ROUNDOFF_FLOOR * width * (np.abs(fx) @ _WK)
    err = np.maximum(np.abs(kronrod - gauss), floor)
    err = err + width * (np.broadcast_to(node_err, fx.shape) @ _WK)
    if isinstance(inner_panels, np.ndarray):
        inner_panels = np.bincount(node_rows.ravel(), inner_panels.ravel(), m)
    return kronrod, err, inner_panels


def _panels(rows, initial, inner, m):
    """Panels evaluated per integral, nested ones included: each bisection
    evaluates two panels and adds one leaf to the initial ones."""
    return 2 * np.bincount(rows, minlength=m) - initial + inner


def _gauss_kronrod(f, points, rel_tol, max_panels):
    """Adaptive G7/K15 for a family of integrals int f(x, j) dx, j = 0..m-1.

    points: array (m, p) of breakpoints per integral; panels of zero width
    are dropped.  f(x, rows) returns (values, node errors, inner panels)
    for node array x and same-shaped row indices; inner panels is 0, or
    the panels a nested integral evaluated at each node.  Every panel of
    an integral whose error exceeds its tolerance rel_tol |value| bisects
    while its own error exceeds that tolerance's equal share per panel.
    Each integral stops when it meets its tolerance or has evaluated
    max_panels panels, its own and those of its nested integrals, so it
    refines as it would alone.  Returns arrays (values, errors, panels),
    one entry per integral.
    """
    m = points.shape[0]
    lo, hi = points[:, :-1].ravel(), points[:, 1:].ravel()
    rows = np.repeat(np.arange(m), points.shape[1] - 1)
    nonempty = hi != lo
    lo, hi, rows = lo[nonempty], hi[nonempty], rows[nonempty]
    initial = np.bincount(rows, minlength=m)
    val, err, inner = _kronrod(f, lo, hi, rows, m)
    nested = isinstance(inner, np.ndarray)
    # all panels of the family: a bound on each integral's own count
    spent = len(lo) + (inner.sum() if nested else 0)
    while True:
        value = np.bincount(rows, val, m)
        error = np.bincount(rows, err, m)
        tol = rel_tol * np.abs(value)
        unmet = error > tol
        if spent >= max_panels:  # only now can an integral have spent its budget
            unmet &= _panels(rows, initial, inner, m) < max_panels
        if not unmet.any():
            return value, error, _panels(rows, initial, inner, m)
        share = tol / np.bincount(rows, minlength=m)
        split = unmet[rows] & (err > share[rows])
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_rows = np.tile(rows[split], 2)
        new_val, new_err, new_inner = _kronrod(f, new_lo, new_hi, new_rows, m)
        spent += len(new_lo)
        if nested:
            inner = inner + new_inner
            spent += new_inner.sum()
        keep = ~split
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        rows = np.concatenate([rows[keep], new_rows])
        val = np.concatenate([val[keep], new_val])
        err = np.concatenate([err[keep], new_err])


# -- level-set coordinates -----------------------------------------------------

def _softplus(x):
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _level_s(n: int, ell, d):
    """s solving 2s + softplus(psi) = ell, psi = (n-1)s + log 2cosh((n+1)d).

    Returns (s, psi).  The left side is convex and increasing in s with
    slope in [2, n+1], and softplus(x) >= max(x, 0) puts the start
    min(ell/2, (ell - log 2cosh((n+1)d))/(n+1)) right of the root, so
    Newton decreases monotonically onto it.
    """
    y = (n + 1) * np.abs(d)
    log_2cosh = y + np.log1p(np.exp(-2.0 * y))
    if n == 1:
        s = 0.5 * (ell - _softplus(log_2cosh))
        return s, log_2cosh
    s = np.minimum(0.5 * ell, (ell - log_2cosh) / (n + 1))
    # rounding noise of the residual 2s + softplus(psi) - ell; the root is
    # within log(2)/2 of the start
    tol = 4.0 * np.finfo(float).eps * (np.abs(ell) + (n + 1) * (np.abs(s) + 1.0) + log_2cosh)
    for _ in range(_NEWTON_STEPS):
        psi = (n - 1) * s + log_2cosh
        sp = _softplus(psi)
        step = (2.0 * s + sp - ell) / (2.0 + (n - 1) * np.exp(psi - sp))
        s = s - step
        if np.all(np.abs(step) <= tol):
            return s, (n - 1) * s + log_2cosh
    raise ArithmeticError(f"Newton for the level s did not converge in {_NEWTON_STEPS} steps")


def _d_points(n: int, ell):
    """Breakpoints 0, d*-10, d*+10, d*+40 in d for each level ell."""
    d_star = (n - 1) * np.abs(ell) / (2.0 * (n + 1))
    zero = np.zeros_like(d_star)
    return np.stack(
        [zero, np.maximum(d_star - 10.0, 0.0), d_star + 10.0, d_star + TAIL], axis=-1
    )


# -- the two integrands ----------------------------------------------------------

def annulus_bands(n: int, ks, rel_tol: float, max_panels: int):
    """int over the band -2e^{k+1} < ell < -2e^k of dell / ell^2
    int_0^{d*+TAIL} sigma(-psi) / (dL/ds) dd for each k in ks, one family
    with a row per band: arrays (values, errors, panels)."""

    def level_density(ell, rows):
        """int_0^inf sigma(-psi) / (dL/ds) dd / ell^2 at each level ell."""
        flat = ell.ravel()

        def slice_density(d, level_rows):
            _, psi = _level_s(n, flat[level_rows], d)
            sp = _softplus(psi)
            return np.exp(-sp) / (2.0 + (n - 1) * np.exp(psi - sp)), 0.0, 0

        inner, inner_err, panels = _gauss_kronrod(
            slice_density, _d_points(n, flat), _INNER_SHARE * rel_tol, max_panels
        )
        weight = 1.0 / (flat * flat)
        return (
            (inner * weight).reshape(ell.shape),
            (inner_err * weight).reshape(ell.shape),
            panels.reshape(ell.shape),
        )

    bands = np.array([[-2.0 * math.exp(k + 1), -2.0 * math.exp(k)] for k in ks])
    return _gauss_kronrod(level_density, bands, rel_tol, max_panels)


def level_area(n: int, level: float, rel_tol: float, max_panels: int):
    """int_0^{d*+TAIL} e^{2 s*(d)} dd, s*(d) the level s of L = level:
    (value, error, panels)."""

    def density(d, rows):
        s, _ = _level_s(n, level, d)
        return np.exp(2.0 * s), 0.0, 0

    value, error, panels = _gauss_kronrod(
        density, _d_points(n, np.array([level])), rel_tol, max_panels
    )
    return value[0], error[0], panels[0]
