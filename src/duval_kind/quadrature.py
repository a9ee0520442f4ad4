"""The contract of the A_n integrals: the annulus integrals I~_k, which
bound the graph-norm defect of the cut-off structure form, and the
squared L^2 norm of the structure form on a ball.

This module holds the argument ranges, the tolerance, the result type,
the errors and every band row, and loads no numpy.  A band row is a
lookup, not an integral: I~_k(n) = pi^2 (n-1)/(n+1) + R_k(n), and the
bound on R_k proven in tests/oracles.py keeps it below 8 * 2^-53 of the
row save in the 16 bands of `_BANDS`.  `_band` returns the n = 1 closed
form, a `_BANDS` entry or the flat limit, as one exact region with
truncation bound 0 and its rounding bound as error; the rows are
checked against the band kernel `annulus_bands` in tests/oracles.py.
`structure_form_l2_norm` checks its arguments, then imports `levelset`
(the norm's psi-form and its G7/K15 kernel, the one numpy module of the
package), which returns a finished result and never sees the tolerance,
so no CLI command loads numpy.  Each result is checked here once: one
whose error estimate misses its tolerance is raised in a
QuadratureBudgetError, which carries it (exit 3 in the CLI); only a norm
so small that it is subnormal does, by its rounding alone.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .cutoff import GRADIENT_CONSTANT


class QuadratureRangeError(ValueError):
    """Parameters outside the supported binary64 regime (k > 4 etc.)."""


class QuadratureBudgetError(RuntimeError):
    """Tolerance not reached by a result's error estimate."""

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
    misses the tolerance (no band row and no level the program evaluates
    does, by the margins quoted at levelset._V_POINTS; a subnormal norm
    can, by its rounding alone, and the message then says so)."""
    value, error = result.value, result.error_estimate
    if not error <= rel_tol * value:
        rel_err = error / value if value else math.inf
        where = (
            f"at the subnormal value {value:.6e}, whose last place alone is "
            f"{math.ulp(value) / value:.2e} of it"
            if 0 < value < sys.float_info.min
            else f"on {result.subregions_used} panels (value {value:.6e})"
        )
        raise QuadratureBudgetError(
            f"rel err {rel_err:.2e} misses rel_tol {rel_tol:g} {where}", result
        )
    return result


# Rounding bound of every band row, relative to its value, with
# u = 2^-53.  n = 1: in the closed form math.pi enters cubed (3u), pow,
# expm1 and exp each round within an ulp (2u each), and sqrt, the three
# products and the quotient within u each, 14u to first order (against
# 40-digit values it is off by 2.5u to 3.4u at k = 1..4).  A _BANDS entry
# is its 30-digit value rounded once, u.  A flat row pi^2 ((n-1)/(n+1))
# rounds math.pi squared (0.7u, and 2u for pow), the correctly rounded
# quotient and the product (u each), and leaves out its remainder R_k,
# below 8u of it wherever _BANDS holds no entry.
_ROUNDING = 16.0 * 2.0**-53

# I~_k(n) for the 16 bands whose remainder R_k(n) = I~_k(n) - pi^2 (n-1)/(n+1)
# the flat bound (tests/oracles.py) cannot hold within 8u of the value:
# the binary64 roundings of the 30-digit values that tests/band_constants.py
# computes in mpmath
_BANDS = {
    (2, 1): 3.298262227676761,
    (3, 1): 4.934870350976956,
    (4, 1): 5.921763078327191,
    (5, 1): 6.579736269916314,
    (6, 1): 7.049717429363237,
    (7, 1): 7.40220330081709,
    (8, 1): 7.676358978625057,
    (9, 1): 7.895683520871487,
    (10, 1): 8.075130873618566,
    (11, 1): 8.224670334241132,
    (12, 1): 8.351203723998688,
    (2, 2): 3.2898685367000255,
    (3, 2): 4.934802200544931,
    (4, 2): 5.921762640653615,
    (5, 2): 6.579736267392906,
    (2, 3): 3.289868133696453,
}


def _band(n: int, k: int) -> QuadratureResult:
    """I~_k for the A_n covering, as one exact region with its rounding
    bound as error: the closed form pi^3 (1 - e^{-1}) e^{-k} / (6 sqrt 3)
    for n = 1, else the entry of _BANDS or the flat limit pi^2 (n-1)/(n+1)."""
    if n == 1:
        value = math.pi**3 * -math.expm1(-1.0) * math.exp(-k) / (6.0 * math.sqrt(3.0))
    else:
        value = _BANDS.get((n, k), math.pi**2 * ((n - 1) / (n + 1)))
    return QuadratureResult(value, _ROUNDING * value, 1, 0.0)


def integral_Ik_bands(n: int, ks, rel_tol: float) -> tuple[QuadratureResult, ...]:
    """The annulus integrals I~_k over pi^{-1}(D_k) for the A_n covering,
    one result per k in ks."""
    _check_n(n)
    checked = []
    for k in ks:  # stops at the first k out of range, however long ks is
        if not 1 <= k <= 4:
            raise QuadratureRangeError(f"k must be in 1..4 (binary64 regime), got {k}")
        checked.append(k)
    if not checked:
        raise QuadratureRangeError("need at least one k in 1..4, got none")
    check_tol(rel_tol)
    return tuple(_checked(_band(n, k), rel_tol) for k in checked)


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
