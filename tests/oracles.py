"""Verification oracles: independent of the product code paths.

The dense reference for the intersection form: `IntersectionForm` (the
n x n matrix), `intersection_form`, the leading principal minors by one
Bareiss sweep, and the pairing Z . E_i read from the matrix.
`form_parts` turns a literal matrix back into the (diagonal, edges) pair
the certificate reads.  `brute_force_fundamental_cycle` enumerates a
coefficient box instead of running Laufer's algorithm,
`determinant_cofactor` expands determinants by cofactors instead of
eliminating, and the Monte Carlo estimators sample the original
coordinates instead of integrating over level sets, evaluating the
squared ambient norm of the A_n covering image directly or by
log-sum-exp.  `level_psi` solves the level equation by Newton at a
point y = (n+1)d measured from the corner y*, `level_s` reads s from it
at a point d, and `structure_form_reference` integrates ||omega||^2 with
it on a fixed Gauss-Legendre composite in y - y*.  `adaptive_1d` bisects
G7/K15 panels, its own rule on the product's QUADPACK constants, on a
plain 1-D integrand, for drills against closed forms.
`dominating_integral` sums the annulus integrals I~_1..I~_k_max of one
band family, `a1_band_exact` is I~_k for n = 1 to 40 digits, and
`pullback_residue_density` is the constant density (n+1)^2 of the
pulled-back structure form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from duval_kind.cycles import Cycle, CycleError
from duval_kind.dual_graph import DualGraph, ParameterError, ade_type
from duval_kind.levelset import _WG, _WK, _XK
from duval_kind.quadrature import QuadratureResult, integral_Ik_bands

# the phases' exact factor (2 pi)^2
TWO_PI_SQ = 4.0 * math.pi**2


# -- dense reference for the intersection form --------------------------------

@dataclass(frozen=True)
class IntersectionForm:
    """Symmetric integer matrix of pairwise intersection numbers."""

    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        m = tuple(tuple(int(v) for v in row) for row in self.matrix)
        object.__setattr__(self, "matrix", m)
        n = len(m)
        for row in m:
            if len(row) != n:
                raise ValueError("matrix must be square")
        for i in range(n):
            for j in range(i + 1, n):
                if m[i][j] != m[j][i]:
                    raise ValueError("matrix must be symmetric")
                if m[i][j] < 0:
                    raise ValueError("off-diagonal entries must be >= 0")

    @property
    def size(self) -> int:
        return len(self.matrix)

    def entry(self, i: int, j: int) -> int:
        return self.matrix[i][j]


def intersection_form(g: DualGraph) -> IntersectionForm:
    n = g.vertex_count
    m = [[0] * n for _ in range(n)]
    for i, w in enumerate(g.self_intersections):
        m[i][i] = w
    for (a, b), mult in g.edges.items():
        m[a][b] = mult
        m[b][a] = mult
    return IntersectionForm(tuple(tuple(row) for row in m))


def leading_minor_determinants(form: IntersectionForm) -> list[int]:
    """Exact determinants of the k x k leading principal minors, k = 1, 2, ...

    One fraction-free Bareiss sweep without pivoting (Bareiss, Math. Comp.
    22, 1968): the k-th pivot is the k-th leading minor, and every division
    in the update is exact, so all arithmetic stays in integers and the
    sweep costs O(n^3).  The list stops after the first zero minor, because
    without pivoting no pivot exists beyond it; it has form.size entries
    iff every leading minor is nonzero.
    """
    minors: list[int] = []
    a = [list(row) for row in form.matrix]
    prev = 1
    while a:
        pivot_row = a[0]
        pivot = pivot_row[0]
        minors.append(pivot)
        if pivot == 0:
            break
        # Bareiss update of the trailing block; prev divides every numerator
        a = [
            [(x * pivot - row[0] * y) // prev for x, y in zip(row[1:], pivot_row[1:])]
            for row in a[1:]
        ]
        prev = pivot
    return minors


def cycle_pairing(z: Cycle, i: int, form: IntersectionForm) -> int:
    """Exact intersection product Z . E_i = sum_j z_j form(j, i)."""
    if not 0 <= i < form.size:
        raise IndexError(f"vertex index {i} out of range")
    return sum(c * form.entry(j, i) for j, c in enumerate(z.coefficients))


def form_parts(matrix) -> tuple[tuple[int, ...], dict[tuple[int, int], int]]:
    """(diagonal, edges) of a symmetric matrix literal, in the shape
    is_negative_definite reads: edges[(i, j)] = matrix[i][j] for i < j,
    zero entries left out."""
    n = len(matrix)
    diagonal = tuple(matrix[i][i] for i in range(n))
    edges = {
        (i, j): matrix[i][j] for i in range(n) for j in range(i + 1, n) if matrix[i][j]
    }
    return diagonal, edges


# -- exhaustive anti-nef search -----------------------------------------------

class BoundTooSmallError(CycleError):
    """Brute-force search found no anti-nef cycle within the bound."""


class NonUniqueMinimumError(CycleError):
    """Componentwise minimum of the anti-nef candidates is not itself a
    candidate; would indicate an implementation bug."""


def anti_nef_candidates(g: DualGraph, coeff_bound: int) -> set[tuple[int, ...]]:
    """Every Z in [1, bound]^n with Z . E_i <= 0 for all i.

    Depth-first over the vertices in breadth-first order; unassigned
    coefficients sit at their least value 1.  Z . E_v only grows with a
    neighbour's coefficient, so once an assigned vertex pairs positively
    with its unassigned neighbours at 1, no completion is anti-nef: the
    branch is cut, and when that vertex neighbours the one being
    assigned, so are all larger values of it.  A vertex is checked in
    full when the last of itself and its neighbours is assigned, so the
    set is exactly that of the plain enumeration.
    """
    n = g.vertex_count
    weights = g.self_intersections
    neighbours: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (a, b), mult in g.edges.items():
        neighbours[a].append((b, mult))
        neighbours[b].append((a, mult))
    order = [0]
    position = {0: 0}
    for v in order:  # the graph is connected, so this reaches every vertex
        for u, _ in neighbours[v]:
            if u not in position:
                position[u] = len(order)
                order.append(u)
    z = [1] * n
    candidates: set[tuple[int, ...]] = set()

    def pairs_non_positively(v: int) -> bool:
        return weights[v] * z[v] + sum(m * z[u] for u, m in neighbours[v]) <= 0

    def assign(t: int) -> None:
        if t == n:
            candidates.add(tuple(z))
            return
        v = order[t]
        assigned = [u for u, _ in neighbours[v] if position[u] < t]
        for c in range(1, coeff_bound + 1):
            z[v] = c
            if not all(pairs_non_positively(u) for u in assigned):
                break  # raising z_v only raises its neighbours' pairings
            if pairs_non_positively(v):
                assign(t + 1)
        z[v] = 1

    assign(0)
    return candidates


def brute_force_fundamental_cycle(g: DualGraph, coeff_bound: int) -> Cycle:
    """Exhaustive oracle: enumerate [1, bound]^n, keep anti-nef vectors,
    return the unique componentwise-minimal one."""
    if coeff_bound < 1:
        raise CycleError("coeff_bound must be >= 1")
    candidates = anti_nef_candidates(g, coeff_bound)
    if not candidates:
        raise BoundTooSmallError(
            f"no anti-nef cycle with coefficients in [1, {coeff_bound}]"
        )
    minimum = tuple(min(vals) for vals in zip(*candidates))
    if minimum not in candidates:
        raise NonUniqueMinimumError(
            "componentwise minimum is not itself anti-nef"
        )
    return Cycle(minimum)


# -- exact determinant --------------------------------------------------------

def determinant_cofactor(form: IntersectionForm) -> int:
    """Independent exact determinant by cofactor expansion (memoized on
    column subsets); verification oracle for the elimination route."""
    n = form.size
    m = form.matrix
    cache: dict[int, int] = {}

    def rec(row: int, colmask: int) -> int:
        if row == n:
            return 1
        if colmask in cache:
            return cache[colmask]
        total = 0
        sign = 1
        for j in range(n):
            bit = 1 << j
            if colmask & bit:
                continue
            if m[row][j] != 0:
                total += sign * m[row][j] * rec(row + 1, colmask | bit)
            sign = -sign
        cache[colmask] = total
        return total

    return rec(0, 0)


# -- Monte Carlo estimators ---------------------------------------------------

def ambient_norm_squared_pullback(n: int, rho1: float, rho2: float) -> float:
    """Squared ambient norm of the covering image as a function of the
    moduli rho_i = |s|, |t|: rho1^{2n+2} + rho2^{2n+2} + rho1^2 rho2^2."""
    ade_type("A", n)
    return rho1 ** (2 * n + 2) + rho2 ** (2 * n + 2) + rho1**2 * rho2**2


def log_ambient_norm_squared_pullback(n: int, u1, u2):
    """Log-space variant: given u_i = log rho_i, return the log of the
    squared ambient norm via log-sum-exp; never underflows.

    Accepts scalars or numpy arrays (broadcast elementwise).
    """
    ade_type("A", n)
    a = (2 * n + 2) * np.asarray(u1, dtype=float)
    b = (2 * n + 2) * np.asarray(u2, dtype=float)
    c = 2 * np.asarray(u1, dtype=float) + 2 * np.asarray(u2, dtype=float)
    m = np.maximum(np.maximum(a, b), c)
    out = m + np.log(np.exp(a - m) + np.exp(b - m) + np.exp(c - m))
    if np.isscalar(u1) and np.isscalar(u2):
        return float(out)
    return out


@dataclass(frozen=True)
class MonteCarloResult:
    value: float
    standard_error: float
    samples: int


def monte_carlo_Ik(
    n: int, k: int, samples: int = 10_000_000, seed: int = 20240823
) -> MonteCarloResult:
    """Plain Monte Carlo estimate of I~_k in the original coordinates
    u_i = log rho_i: uniform sampling of a box, no importance sampling.
    Independent cross-check for the level-set quadrature."""
    log_lo, log_hi = -2.0 * math.exp(k + 1), -2.0 * math.exp(k)
    # the band forces u_i <= u_max, and u2 >= w_min once u1 is in the far
    # tail, where the integrand is below exp(2 u1 - 2n u2) / (4 e^{2k}); the
    # cut at u_i = n w_min - 40 drops less than
    # (2 pi)^2 e^{-80} (u_max - w_min) / (4 e^{2k})
    u_max = -math.exp(k) / (n + 1)
    w_min = -(2.0 * math.exp(k + 1) + math.log(3.0)) / (2 * n + 2)

    def integrand(u1, u2, L):
        inside = (L > log_lo) & (L < log_hi)
        return np.exp(2.0 * (u1 + u2) - L) / (L * L) * inside

    return _monte_carlo(integrand, n, n * w_min - 40.0, u_max, TWO_PI_SQ, samples, seed)


def monte_carlo_l2_norm(
    n: int, eps: float, samples: int = 2_000_000, seed: int = 20240823
) -> MonteCarloResult:
    """Plain Monte Carlo estimate of the squared structure-form norm in the
    original coordinates."""
    u_max = math.log(eps) / (n + 1)
    log_hi = 2.0 * math.log(eps)

    def integrand(u1, u2, L):
        return np.exp(2.0 * (u1 + u2)) * (L < log_hi)

    return _monte_carlo(
        integrand, n, u_max - 40.0, u_max, TWO_PI_SQ * (n + 1), samples, seed
    )


def _monte_carlo(f, n, lo, hi, scale, samples, seed):
    """Uniform samples of the box [lo, hi]^2; f(u1, u2, L) is zero outside
    the region."""
    rng = np.random.default_rng(seed)
    area = (hi - lo) ** 2
    total = 0.0
    total_sq = 0.0
    done = 0
    chunk = 1_000_000
    while done < samples:
        m = min(chunk, samples - done)
        u1 = rng.uniform(lo, hi, m)
        u2 = rng.uniform(lo, hi, m)
        vals = f(u1, u2, log_ambient_norm_squared_pullback(n, u1, u2))
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += m
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    std_err = math.sqrt(var / samples)
    return MonteCarloResult(
        value=scale * area * mean,
        standard_error=scale * area * std_err,
        samples=samples,
    )


# -- 1-D drill integrator ---------------------------------------------------------

_DRILL_ROUNDS = 40


def adaptive_1d(f, a: float, b: float, rel_tol: float):
    """Adaptive G7/K15 on [a, b] for a smooth integrand f >= 0 that maps an
    array of nodes to an array of values; returns (value, error_estimate).
    Each round takes K15 and G7 on every panel from the product's QUADPACK
    constants, estimates a panel's error as |K15 - G7| floored at 50
    eps_mach K15 (f >= 0 makes K15 the rule's sum of |f|), and bisects the
    panels whose error exceeds an equal share of the tolerance."""
    edges = np.array([a, b], dtype=float)
    for _ in range(_DRILL_ROUNDS):
        lo, hi = edges[:-1], edges[1:]
        half = 0.5 * (hi - lo)
        fx = f(0.5 * (hi + lo)[:, None] + half[:, None] * _XK)
        kronrod, gauss = half * (fx @ _WK), half * (fx[:, 1::2] @ _WG)
        err = np.maximum(np.abs(kronrod - gauss), 50.0 * np.finfo(float).eps * kronrod)
        value, error = float(kronrod.sum()), float(err.sum())
        if error <= rel_tol * abs(value):
            return value, error
        split = err > rel_tol * abs(value) / len(lo)
        edges = np.sort(np.concatenate([edges, 0.5 * (lo + hi)[split]]))
    raise ArithmeticError(f"{_DRILL_ROUNDS} rounds of bisection did not reach rel_tol {rel_tol}")


# -- the d-form level solver and a fixed-panel reference for ||omega||^2 ------------

_NEWTON_STEPS = 60


def level_psi(n: int, ell, t):
    """psi on the level L = ell at y = (n+1)|d| = y* + t, y* = (n-1)|ell|/2
    the corner d* in y.

    With s = (ell - softplus psi)/2 eliminated, the level equation
    2s + softplus(psi) = ell, psi = (n-1)s + log 2cosh y, reads
    f(psi) = psi + (n-1) softplus(psi)/2 - c = 0 with c = t + log1p(e^{-2y}).
    f is convex and increasing, and f(c) = (n-1) softplus(c)/2 >= 0, so
    Newton decreases monotonically onto the root from c; where the root
    is far below 0, each step lowers psi by about 1.  t carries the corner
    exactly at every n: in d, (n+1)d and y* cancel there, and at n = 2^53
    a node of d near d* is off by about 8 in y.
    """
    y_star = 0.5 * (n - 1) * abs(ell)
    c = t + np.log1p(np.exp(-2.0 * (y_star + t)))
    psi = c
    half = 0.5 * (n - 1)
    for _ in range(_NEWTON_STEPS):
        sp = np.logaddexp(0.0, psi)
        step = (psi + half * sp - c) / (1.0 + half * np.exp(psi - sp))
        psi = psi - step
        # rounding noise of f, over its least slope 1: (n-1) softplus(psi)/2 <= c - psi
        if np.all(np.abs(step) <= 8.0 * np.finfo(float).eps * (np.abs(psi) + np.abs(c) + 1.0)):
            return psi
    raise ArithmeticError(f"Newton for the level psi did not converge in {_NEWTON_STEPS} steps")


def level_s(n: int, ell, d):
    """s solving 2s + softplus(psi) = ell, psi = (n-1)s + log 2cosh((n+1)d):
    returns (s, psi), from `level_psi` at t = (n+1)|d| - y*."""
    psi = level_psi(n, ell, (n + 1) * np.abs(d) - 0.5 * (n - 1) * abs(ell))
    return 0.5 * (ell - np.logaddexp(0.0, psi)), psi


@functools.cache
def structure_form_reference(n: int, eps: float, panels: int = 256) -> tuple[float, float]:
    """(value, uncertainty) of ||omega||^2 = 2 pi^2 (n+1) int_0^{d*+40}
    e^{2 s*(d)} dd, s*(d) the level s of L = 2 log eps, d* = (n-1)|L| /
    (2(n+1)).  In t = (n+1)(d - d*), with e^{2 s*} = eps^2 sigma(-psi),
    this is 2 pi^2 eps^2 int sigma(-psi) dt from t = -(n+1)d* to 40(n+1),
    taken by 20-point Gauss-Legendre on a fixed composite: `panels` equal
    panels between each pair of the breakpoints -(n+1)d*, -2(n+1), -60,
    0, 60, 2(n+1) and 40(n+1) (those below -(n+1)d* dropped).  The
    integrand turns within about 40 left of the corner t = 0 and decays
    like e^{-2t/(n+1)} right of it; the cut drops below e^{-80} of the
    value.  The uncertainty is the change from half the panels plus 8
    ulps.  Neither the psi-form of the product nor its adaptive kernel is
    used: psi is solved at each node of t."""
    ell = 2.0 * math.log(eps)
    t_zero = -0.5 * (n - 1) * abs(ell)  # d = 0
    cuts = sorted(
        {t_zero} | {t for t in (-2.0 * (n + 1), -60.0, 0.0) if t > t_zero}
        | {60.0, 2.0 * (n + 1), 40.0 * (n + 1)}
    )
    x, w = np.polynomial.legendre.leggauss(20)
    # eps^2 is subnormal below eps = 1.5e-154: the exponent is applied last
    mantissa, exponent = math.frexp(eps)

    def composite(m):
        edges = np.concatenate(
            [np.linspace(lo, hi, m + 1)[:-1] for lo, hi in zip(cuts, cuts[1:])] + [cuts[-1:]]
        )
        half = 0.5 * np.diff(edges)[:, None]
        psi = level_psi(n, ell, 0.5 * (edges[1:] + edges[:-1])[:, None] + half * x)
        sigma = np.exp(-np.logaddexp(0.0, psi))
        integral = float(np.sum(half * sigma * w))
        return math.ldexp(2.0 * math.pi**2 * (mantissa * mantissa) * integral, 2 * exponent)

    value = composite(panels)
    return value, abs(value - composite(panels // 2)) + 8.0 * np.finfo(float).eps * value


# -- sums and densities over the A_n covering ---------------------------------

def dominating_integral(n: int, k_max: int, rel_tol: float) -> QuadratureResult:
    """Sum of I~_k for k = 1..k_max: the dominated-convergence envelope
    integral over the union of annuli."""
    parts = integral_Ik_bands(n, range(1, k_max + 1), rel_tol)
    return QuadratureResult(
        sum(p.value for p in parts),
        sum(p.error_estimate for p in parts),
        sum(p.subregions_used for p in parts),
        sum(p.truncation_bound for p in parts),
    )


def a1_band_exact(k: int) -> mp.mpf:
    """I~_k for n = 1 to 40 digits: pi^3 (1 - e^{-1}) e^{-k} / (6 sqrt 3)."""
    with mp.workdps(40):
        return mp.pi**3 * (1 - mp.exp(-1)) * mp.exp(-k) / (6 * mp.sqrt(3))


def pullback_residue_density(n: int) -> float:
    """Constant density of the pulled-back structure form against the
    Euclidean volume element of C^2: (n+1)^2 (n=0 means the identity
    covering of a smooth point)."""
    if n < 0:
        raise ParameterError(f"n must be >= 0, got {n}")
    return float((n + 1) ** 2)
