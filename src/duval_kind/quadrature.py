"""Level-set (coarea) quadrature for the annulus integrals I~_k and the
L^2 norm of the A_n structure form.

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

with s*(d) the level s at l = 2 log eps (the inner s-integral of e^{2s}
is exact), so e^{2 s*} = eps^2 sigma(-psi).

The psi-form.  On a level l both s = (l - softplus psi)/2 and, with
y = (n+1)d, log 2cosh y = psi + (n-1)(softplus psi - l)/2 are explicit in
psi, which rises with d from psi0, its root at d = 0 (log 2cosh y =
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
to the adaptive rule.  With cosh y = e^delta,

    delta = v^2 + (n-1)/2 log1p(sigma(psi0) expm1(v^2)),  psi = psi0 + v^2,

the excess is 1/sqrt(1 - e^{-2 delta}) - 1.  It has an inverse square
root at psi = psi0, which the substitution v = sqrt(psi - psi0)
(dpsi = 2v dv) removes: the v-integrand is smooth and bounded, and is
integrated on the breakpoints 0, 1, 2 and V = 6.  Since delta >= v^2 the
excess is at most 1/(e^{2v^2} - 1), and a weight sigma(-psi)(a + b
sigma(psi)) is at most a + b/4, so the cut at V drops at most
(a + b/4) e^{-2V^2} / (2(1 - e^{-2V^2})); the truncation bounds below are
this, scaled.  The only level-equation solve is psi0, one Newton per
level; for n = 1, psi0 = log 2.  The closed-form part adds 50 eps_mach
of itself to the error estimate, for the rounding of psi0 and softplus.

The G7/K15 kernel and the level coordinates live in `levelset`, the one
module of the package that uses numpy.  `integral_Ik_bands` and
`structure_form_l2_norm` each import it at one site, after their
argument checks, so the exact half, the CLI parser and every usage error
never load numpy; the first integral of a process pays that import.
`integral_Ik_bands` hands all its bands to the kernel as one family, one
vectorised refinement whose rows each keep the panel count of a lone
band and stop at the kernel's one budget, `levelset.MAX_PANELS`;
`integral_Ik` is the family of one.  This module keeps the
contract: argument ranges, the closed-form tail bounds, the scaling and
the budget check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cutoff import GRADIENT_CONSTANT

TWO_PI_SQ = 4.0 * math.pi**2


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


def _checked(value, error, panels, scale, truncation, rel_tol) -> "QuadratureResult":
    """The kernel's result times scale, or QuadratureBudgetError carrying it
    if the kernel stopped short of the tolerance."""
    result = QuadratureResult(
        max(scale * float(value), 0.0), scale * float(error), int(panels), truncation
    )
    if not error <= rel_tol * abs(value):
        from . import levelset  # already loaded: the kernel produced value

        raise QuadratureBudgetError(
            f"subregion budget {levelset.MAX_PANELS} exhausted "
            f"(value {result.value:.6e}, rel err {error / max(abs(value), 1e-300):.2e})",
            result,
        )
    return result


# n - 1 and n + 1 are exact in binary64 up to here; near n = 1e308 the
# level coordinates overflow, and above 2^1024 n does not convert to float
MAX_N = 2**53


def _check_n(n: int) -> None:
    if not 1 <= n <= MAX_N:
        raise QuadratureRangeError(f"n must be in 1..2**53 (binary64 regime), got {n}")


def check_tol(rel_tol: float) -> None:
    if not (math.isfinite(rel_tol) and rel_tol >= 1e-8):
        raise QuadratureRangeError(f"rel_tol must be finite and >= 1e-8, got {rel_tol}")


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

    from . import levelset

    values, errors, panels = levelset.annulus_bands(n, checked, rel_tol)
    scale = TWO_PI_SQ / (2.0 * (n + 1))
    results = []
    for k, value, error, count in zip(checked, values, errors, panels):
        # the cut's bound at each level, times int_band dl / l^2
        tail = scale * levelset.tail_bound(1.0, 0.0) * (1.0 - math.exp(-1.0)) / (2.0 * math.exp(k))
        results.append(_checked(value, error, count, scale, tail, rel_tol))
    return tuple(results)


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

    value, error, panels = levelset.level_norm(n, 2.0 * math.log(eps), rel_tol)
    scale = math.pi**2 * eps**2
    tail = scale * levelset.tail_bound(2.0, n - 1.0)
    return _checked(value, error, panels, scale, tail, rel_tol)


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
