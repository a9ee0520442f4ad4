"""Level-set (coarea) quadrature for the annulus integrals I~_k, the
dominating integral and the L^2 norm of the A_n structure form.

Phases contribute an exact (2 pi)^2, and the moduli are parametrized by
u_i = log rho_i, where the squared ambient norm has logarithm
L = logsumexp{(2n+2)u1, (2n+2)u2, 2(u1+u2)}.  In s = u1+u2, d = u1-u2
(du1 du2 = ds dd / 2, and everything is even in d)

    L = 2s + softplus(psi),   psi = (n-1)s + log 2cosh((n+1)d),

which is strictly increasing in s with dL/ds = 2 + (n-1) sigma(psi) in
[2, n+1].  Taking l = L itself as the outer coordinate (coarea formula,
Federer 1959) turns both regions into products and removes every
indicator:

    I~_k = (2 pi)^2 int_{-2e^{k+1}}^{-2e^k} dl / l^2
                    int_0^inf sigma(-psi) / (2 + (n-1) sigma(psi)) dd,
    ||omega||^2 = 2 pi^2 (n+1) int_0^inf e^{2 s*(d)} dd,

with s*(d) the level s at l = 2 log eps (the inner s-integral of
e^{2s} is exact).  The d-integrands are smooth: about 1/2 (resp.
eps^2) below the corner d* = (n-1)|l| / (2(n+1)), where
psi = 0, and decaying like e^{-2(d-d*)} beyond it, because
softplus(psi) >= 2(d - d*).  The d-axis is cut at d* + 40 and the
dropped tail is bounded in closed form.

Both integrals run on one adaptive Gauss-Kronrod kernel (G7/K15,
QUADPACK, Piessens et al. 1983), vectorised over the nodes of all
panels of a family of integrals.  A panel's error estimate is
|K15 - G7|, floored at 50 eps_mach sum h |K| and increased by the
errors of nested inner integrals weighted by the outer rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cutoff import GRADIENT_CONSTANT

TWO_PI_SQ = 4.0 * math.pi**2

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
# the d-axis is cut at d* + _TAIL; the dropped tail is below e^{-2 _TAIL}
_TAIL = 40.0
# nested inner integrals get this share of the relative tolerance
_INNER_SHARE = 0.1
_NEWTON_STEPS = 60


class QuadratureRangeError(ValueError):
    """Parameters outside the supported binary64 regime (k > 4 etc.)."""


class QuadratureBudgetError(RuntimeError):
    """Tolerance not reached within the subregion budget."""

    def __init__(self, message: str, partial: "QuadratureResult"):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    subregions_used: int
    truncation_bound: float

    def __post_init__(self):
        if self.value < 0 or self.error_estimate < 0 or self.truncation_bound < 0:
            raise ValueError("quadrature results are non-negative")


# -- the G7/K15 kernel ---------------------------------------------------------

def _kronrod(f, lo, hi, rows):
    """K15 values and error estimates of the panels [lo, hi] of integrals rows,
    plus the panels nested integrals in f evaluated."""
    half = 0.5 * (hi - lo)
    x = 0.5 * (hi + lo)[:, None] + half[:, None] * _XK
    fx, node_err, inner_panels = f(x, np.broadcast_to(rows[:, None], x.shape))
    kronrod = half * (fx @ _WK)
    gauss = half * (fx[:, 1::2] @ _WG)
    width = np.abs(half)
    floor = _ROUNDOFF_FLOOR * width * (np.abs(fx) @ _WK)
    err = np.maximum(np.abs(kronrod - gauss), floor)
    err = err + width * (np.broadcast_to(node_err, fx.shape) @ _WK)
    return kronrod, err, inner_panels


def _gauss_kronrod(f, points, rel_tol, max_panels):
    """Adaptive G7/K15 for a family of integrals int f(x, j) dx, j = 0..m-1.

    points: array (m, p) of breakpoints per integral; panels of zero width
    are dropped.  f(x, rows) returns (values, node errors,
    inner panels) for node array x and same-shaped row indices.  Every
    panel of an integral whose error exceeds its tolerance rel_tol |value|
    bisects while its own error exceeds that tolerance's equal share per
    panel.  Stops when all integrals meet the tolerance or max_panels
    panels have been evaluated; returns (values, errors, panels).
    """
    m = points.shape[0]
    lo, hi = points[:, :-1].ravel(), points[:, 1:].ravel()
    rows = np.repeat(np.arange(m), points.shape[1] - 1)
    nonempty = hi != lo
    lo, hi, rows = lo[nonempty], hi[nonempty], rows[nonempty]
    val, err, panels = _kronrod(f, lo, hi, rows)
    panels += len(lo)
    while True:
        value = np.bincount(rows, val, m)
        error = np.bincount(rows, err, m)
        tol = rel_tol * np.abs(value)
        unmet = error > tol
        if not unmet.any() or panels >= max_panels:
            return value, error, panels
        share = tol / np.bincount(rows, minlength=m)
        split = unmet[rows] & (err > share[rows])
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_rows = np.tile(rows[split], 2)
        new_val, new_err, inner_panels = _kronrod(f, new_lo, new_hi, new_rows)
        panels += inner_panels + len(new_lo)
        keep = ~split
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        rows = np.concatenate([rows[keep], new_rows])
        val = np.concatenate([val[keep], new_val])
        err = np.concatenate([err[keep], new_err])


def _checked(value, error, panels, scale, truncation, rel_tol, max_panels) -> "QuadratureResult":
    """The kernel's result times scale, or QuadratureBudgetError carrying it
    if the kernel stopped short of the tolerance."""
    result = QuadratureResult(
        max(scale * float(value), 0.0), scale * float(error), int(panels), truncation
    )
    if not error <= rel_tol * abs(value):
        raise QuadratureBudgetError(
            f"subregion budget {max_panels} exhausted "
            f"(value {result.value:.6e}, rel err {error / max(abs(value), 1e-300):.2e})",
            result,
        )
    return result


def adaptive_1d(f, a: float, b: float, rel_tol: float, max_intervals: int = 100_000):
    """Adaptive G7/K15 on [a, b] for a smooth integrand f that maps an array
    of nodes to an array of values; returns (value, error_estimate)."""
    value, error, panels = _gauss_kronrod(
        lambda x, rows: (f(x), 0.0, 0), np.array([[a, b]], dtype=float), rel_tol, max_intervals
    )
    _checked(value[0], error[0], panels, 1.0, 0.0, rel_tol, max_intervals)
    return float(value[0]), float(error[0])


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
        [zero, np.maximum(d_star - 10.0, 0.0), d_star + 10.0, d_star + _TAIL], axis=-1
    )


def _check_tol(rel_tol: float) -> None:
    if not (math.isfinite(rel_tol) and rel_tol >= 1e-8):
        raise QuadratureRangeError(f"rel_tol must be finite and >= 1e-8, got {rel_tol}")


def integral_Ik(n: int, k: int, rel_tol: float, max_cells: int = 400_000) -> QuadratureResult:
    """The annulus integral I~_k over pi^{-1}(D_k) for the A_n covering."""
    if n < 1:
        raise QuadratureRangeError(f"n must be >= 1, got {n}")
    if not 1 <= k <= 4:
        raise QuadratureRangeError(f"k must be in 1..4 (binary64 regime), got {k}")
    _check_tol(rel_tol)

    def level_density(ell, rows):
        """int_0^inf sigma(-psi) / (dL/ds) dd / ell^2 at each level ell."""
        flat = ell.ravel()

        def slice_density(d, level_rows):
            _, psi = _level_s(n, flat[level_rows], d)
            sp = _softplus(psi)
            return np.exp(-sp) / (2.0 + (n - 1) * np.exp(psi - sp)), 0.0, 0

        inner, inner_err, panels = _gauss_kronrod(
            slice_density, _d_points(n, flat), _INNER_SHARE * rel_tol, max_cells
        )
        weight = 1.0 / (flat * flat)
        return (inner * weight).reshape(ell.shape), (inner_err * weight).reshape(ell.shape), panels

    band = np.array([[-2.0 * math.exp(k + 1), -2.0 * math.exp(k)]])
    value, error, panels = _gauss_kronrod(level_density, band, rel_tol, max_cells)
    # sigma(-psi) = e^{-softplus(psi)} <= e^{-2(d - d*)}, and dL/ds >= 2
    tail = TWO_PI_SQ * math.exp(-2.0 * _TAIL) * (1.0 - math.exp(-1.0)) / (8.0 * math.exp(k))
    return _checked(value[0], error[0], panels, TWO_PI_SQ, tail, rel_tol, max_cells)


def dominating_integral(n: int, k_max: int, rel_tol: float) -> QuadratureResult:
    """Sum of I~_k for k = 1..k_max: the dominated-convergence envelope
    integral over the union of annuli."""
    if k_max < 1:  # integral_Ik bounds k from above
        raise QuadratureRangeError(f"k_max must be >= 1, got {k_max}")
    value = err = trunc = 0.0
    regions = 0
    for k in range(1, k_max + 1):
        res = integral_Ik(n, k, rel_tol)
        value += res.value
        err += res.error_estimate
        trunc += res.truncation_bound
        regions += res.subregions_used
    return QuadratureResult(value, err, regions, trunc)


def structure_form_l2_norm(
    n: int, eps: float, rel_tol: float, max_cells: int = 400_000
) -> QuadratureResult:
    """Squared L^2 norm of the A_n structure form over the ambient ball of
    radius eps: 2 pi^2 (n+1) int_0^inf e^{2 s*(d)} dd, with s*(d) the
    level s of L = 2 log eps."""
    if n < 1:
        raise QuadratureRangeError(f"n must be >= 1, got {n}")
    if not 0 < eps <= 0.5:
        raise QuadratureRangeError(f"eps must be in (0, 1/2], got {eps}")
    _check_tol(rel_tol)
    level = 2.0 * math.log(eps)

    def density(d, rows):
        s, _ = _level_s(n, level, d)
        return np.exp(2.0 * s), 0.0, 0

    value, error, panels = _gauss_kronrod(
        density, _d_points(n, np.array([level])), rel_tol, max_cells
    )
    scale = 2.0 * math.pi**2 * (n + 1)
    # e^{2 s*} = eps^2 e^{-softplus(psi)} <= eps^2 e^{-2(d - d*)}
    tail = scale * eps**2 * math.exp(-2.0 * _TAIL) / 2.0
    return _checked(value[0], error[0], panels, scale, tail, rel_tol, max_cells)


def weighted_graph_norm_defect(n: int, k: int, rel_tol: float) -> QuadratureResult:
    """Certified upper bound 4 I~_k on the squared graph-norm defect
    ||dbar mu_k wedge omega||^2 (the cut-off constant 2, squared)."""
    base = integral_Ik(n, k, rel_tol)
    weight = GRADIENT_CONSTANT**2
    return QuadratureResult(
        weight * base.value,
        weight * base.error_estimate,
        base.subregions_used,
        weight * base.truncation_bound,
    )
