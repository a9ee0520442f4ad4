"""The contract of the A_n integrals: the annulus integrals I~_k, which
bound the graph-norm defect of the cut-off structure form, and the
squared L^2 norm of the structure form on a ball.

This module holds the argument ranges, the tolerance, the result type
and the errors, and loads no numpy.  Each entry point checks its
arguments, then imports `levelset` (the psi-form of both integrals,
their scale and cut bounds, and the G7/K15 kernel: the one numpy module
of the package), which returns finished results and never sees the
tolerance.  So the exact half, the CLI parser and every usage error never
load numpy; the first integral of a process pays that import.
`integral_Ik_bands` computes its bands as one family, each row as its
band alone up to rounding; `integral_Ik` is the family of one.  For
n = 1 every level has psi0 = log 2, and `_a1_band` gives each band in
closed form, in plain math, as one exact region (`subregions_used` 1)
with truncation bound 0 and its rounding bound as error: an n = 1 table
loads no numpy (the n = 1 norm still takes the kernel).  Each result is
checked here once: one whose error estimate misses its tolerance is
raised in a QuadratureBudgetError, which carries it (exit 3 in the CLI);
the kernel's fixed panels are chosen so that none does, save a norm so
small that it is subnormal, whose rounding alone can exceed 1e-8 of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cutoff import GRADIENT_CONSTANT


class QuadratureRangeError(ValueError):
    """Parameters outside the supported binary64 regime (k > 4 etc.)."""


class QuadratureBudgetError(RuntimeError):
    """Tolerance not reached on the kernel's panels."""

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


# n - 1 and n + 1 are exact in binary64 up to here; near n = 1e308 the
# level coordinates overflow, and above 2^1024 n does not convert to float
MAX_N = 2**53


def _check_n(n: int) -> None:
    if not 1 <= n <= MAX_N:
        raise QuadratureRangeError(f"n must be in 1..2**53 (binary64 regime), got {n}")


def check_tol(rel_tol: float) -> None:
    if not (math.isfinite(rel_tol) and rel_tol >= 1e-8):
        raise QuadratureRangeError(f"rel_tol must be finite and >= 1e-8, got {rel_tol}")


def _checked(result: QuadratureResult, rel_tol: float) -> QuadratureResult:
    """result, or QuadratureBudgetError carrying it if its error estimate
    misses the tolerance (no level the program evaluates does, by the
    margins quoted at levelset._V_POINTS; a subnormal norm can, by its
    rounding alone)."""
    value, error = result.value, result.error_estimate
    if not error <= rel_tol * value:
        rel_err = error / value if value else math.inf
        raise QuadratureBudgetError(
            f"rel err {rel_err:.2e} misses rel_tol {rel_tol:g} "
            f"on {result.subregions_used} panels (value {value:.6e})",
            result,
        )
    return result


# Rounding bound of _a1_band's expression, relative to its value, with
# u = 2^-53: math.pi enters cubed (3u), pow, expm1 and exp each round
# within an ulp (2u each), and sqrt, the three products and the quotient
# within u each, 14u to first order.  Against 40-digit values it is off by
# 2.5u to 3.4u at k = 1..4.
_A1_ROUNDING = 16.0 * 2.0**-53


def _a1_band(k: int) -> QuadratureResult:
    """I~_k for n = 1, pi^3 (1 - e^{-1}) e^{-k} / (6 sqrt 3) exactly, as one
    exact region with its rounding bound as error."""
    value = math.pi**3 * -math.expm1(-1.0) * math.exp(-k) / (6.0 * math.sqrt(3.0))
    return QuadratureResult(value, _A1_ROUNDING * value, 1, 0.0)


def integral_Ik_bands(n: int, ks, rel_tol: float) -> tuple[QuadratureResult, ...]:
    """The annulus integrals I~_k over pi^{-1}(D_k) for the A_n covering,
    one result per k in ks, computed as one family."""
    _check_n(n)
    checked = []
    for k in ks:  # stops at the first k out of range, however long ks is
        if not 1 <= k <= 4:
            raise QuadratureRangeError(f"k must be in 1..4 (binary64 regime), got {k}")
        checked.append(k)
    if not checked:
        raise QuadratureRangeError("need at least one k in 1..4, got none")
    check_tol(rel_tol)
    if n == 1:
        return tuple(_checked(_a1_band(k), rel_tol) for k in checked)

    from . import levelset

    return tuple(_checked(result, rel_tol) for result in levelset.annulus_bands(n, checked))


def integral_Ik(n: int, k: int, rel_tol: float) -> QuadratureResult:
    """The annulus integral I~_k over pi^{-1}(D_k) for the A_n covering."""
    return integral_Ik_bands(n, (k,), rel_tol)[0]


def structure_form_l2_norm(n: int, eps: float, rel_tol: float) -> QuadratureResult:
    """Squared L^2 norm of the A_n structure form over the ambient ball of
    radius eps: 2 pi^2 (n+1) int_0^inf e^{2 s*(d)} dd, with s*(d) the
    level s of L = 2 log eps."""
    _check_n(n)
    if not 0 < eps <= 0.5:
        raise QuadratureRangeError(f"eps must be in (0, 1/2], got {eps}")
    check_tol(rel_tol)

    from . import levelset

    return _checked(levelset.level_norm(n, eps), rel_tol)


def defect_bound(integral: QuadratureResult) -> QuadratureResult:
    """The bound C^2 I~_k on the squared graph-norm defect
    ||dbar mu_k wedge omega||^2 from a result for I~_k, with C = 2 the
    cut-off gradient constant."""
    weight = GRADIENT_CONSTANT**2
    return QuadratureResult(
        weight * integral.value,
        weight * integral.error_estimate,
        integral.subregions_used,
        weight * integral.truncation_bound,
    )


def weighted_graph_norm_defect(n: int, k: int, rel_tol: float) -> QuadratureResult:
    """Certified upper bound 4 I~_k on the squared graph-norm defect."""
    return defect_bound(integral_Ik(n, k, rel_tol))
