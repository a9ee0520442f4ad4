"""Reference values and output checks, computed without the duval_kind package.

Nothing here imports duval_kind: every expected value is derived from a
closed form, from an mpmath integral of the defining region, or from the
benchmark's own exact integer arithmetic.

Quadrature references
  I~_k, n = 1:   pi^3 (1 - e^-1) e^-k / (6 sqrt 3)
  I~_k, n >= 2:  pi^2 (n-1)/(n+1) + R_k.  R_1 and R_2 are the values printed
                 by `python tests/remainder_oracle.py` (12 significant digits);
                 for k >= 3 only 0 < R_k <= R_2 e^(2-k) is known, so the
                 reference is an interval.
  ||omega||^2:   pi^2 (n+1) Area{a, b > 0 : a^(n+1) + b^(n+1) + ab < eps^2},
                 integrated in mpmath over the level curve b*(a); for n = 1
                 this is 2 pi^3 eps^2 / (3 sqrt 3).

Graph references
  definiteness:  signs of the leading principal minors from a fraction-free
                 (Bareiss) integer elimination; |det| is n+1, 4, 3, 2, 1 for
                 A_n, D_n, E_6, E_7, E_8.
  cycles:        the fundamental cycle of an ADE graph is its highest root
                 (Artin 1966); for any negative-definite graph the benchmark
                 runs its own Laufer iteration, and every cycle is checked to
                 be positive with Z.E_i <= 0 for all i.
"""

from __future__ import annotations

import math

import mpmath as mp

REL_TOL = 1e-4

# R_1, R_2 for n = 2, 3 as printed by `python tests/remainder_oracle.py`.
REMAINDER = {
    2: (8.39409398031e-3, 4.0300357279e-7),
    3: (6.81504322768e-5, 2.52008148464e-13),
}
# the frozen digits are exact to half a unit in the 12th significant digit
REMAINDER_ROUNDING = 5e-12


def ik_reference(n: int, k: int) -> tuple[float, float]:
    """Interval [lo, hi] holding the exact I~_k (lo == hi where it is known)."""
    if n == 1:
        exact = math.pi**3 * (1.0 - math.exp(-1.0)) * math.exp(-k) / (6.0 * math.sqrt(3.0))
        return exact, exact
    if n not in REMAINDER:
        raise ValueError(f"no reference for n = {n}")
    limit = math.pi**2 * (n - 1) / (n + 1)
    r1, r2 = REMAINDER[n]
    if k <= 2:
        r = (r1, r2)[k - 1]
        pad = r * REMAINDER_ROUNDING
        return limit + r - pad, limit + r + pad
    return limit, limit + r2 * (1 + REMAINDER_ROUNDING) * math.exp(2 - k)


def area_under_level_curve(n: int, eps: float, dps: int = 30) -> mp.mpf:
    """Area of {a, b > 0 : a^(n+1) + b^(n+1) + ab < eps^2} as an integral of
    the level curve b*(a) over 0 < a < eps^(2/(n+1))."""
    with mp.workdps(dps):
        e2 = mp.mpf(eps) ** 2
        p = n + 1
        a_max = e2 ** (mp.mpf(1) / p)

        def b_star(a):
            # F(b) = b^p + a b + a^p - eps^2 is increasing and convex in b > 0,
            # so Newton from b = a_max (where F >= 0) decreases onto the root
            c = a**p - e2
            if c >= 0:
                return mp.mpf(0)
            b = a_max
            for _ in range(200):
                step = (b**p + a * b + c) / (p * b ** (p - 1) + a)
                b -= step
                if abs(step) <= b * mp.eps * 4:
                    break
            return b

        return mp.quad(b_star, [0, a_max / 2, a_max])


def norm_reference(n: int, eps: float) -> float:
    return float(mp.pi**2 * (n + 1) * area_under_level_curve(n, eps))


def norm_closed_form_n1(eps: float) -> float:
    return 2.0 * math.pi**3 * eps**2 / (3.0 * math.sqrt(3.0))


def quadrature_deviation(value: float, lo: float, hi: float) -> float:
    """Distance from value to the reference interval [lo, hi]."""
    return max(lo - value, value - hi, 0.0)


def check_quadrature(value, error, truncation, ref, rel_tol=REL_TOL) -> str | None:
    """None if the value is certified against the reference, else a reason.

    The value must lie within error + truncation of the reference and the
    error estimate must meet the requested relative tolerance."""
    lo, hi = ref
    if not (math.isfinite(value) and math.isfinite(error) and math.isfinite(truncation)):
        return f"non-finite result {value!r} +- {error!r}"
    dev = quadrature_deviation(value, lo, hi)
    if dev > error + truncation:
        return f"value {value!r} is {dev:.3e} from [{lo!r}, {hi!r}], beyond {error + truncation:.3e}"
    if error > rel_tol * value:
        return f"error estimate {error:.3e} exceeds {rel_tol} x value {value!r}"
    return None


def check_defect_bound(integral: float, defect_bound: float) -> str | None:
    if not math.isclose(defect_bound, 4.0 * integral, rel_tol=1e-12, abs_tol=0.0):
        return f"defect_bound {defect_bound!r} != 4 x integral {integral!r}"
    return None


# -- graphs --------------------------------------------------------------------

def dynkin_edges(type_: str, n: int) -> list[tuple[int, int]]:
    """Edges of the ADE tree in the package's numbering: A_n the path
    0..n-1; D_n the path 0..n-3 with leaves n-2, n-1 on n-3; E_n the path
    0..n-2 with leaf n-1 on vertex 2."""
    if type_ == "A":
        return [(i, i + 1) for i in range(n - 1)]
    if type_ == "D":
        return [(i, i + 1) for i in range(n - 3)] + [(n - 3, n - 2), (n - 3, n - 1)]
    if type_ == "E":
        return [(i, i + 1) for i in range(n - 2)] + [(2, n - 1)]
    raise ValueError(type_)


def highest_root(type_: str, n: int) -> list[int]:
    """Highest root of the ADE root system in the numbering of dynkin_edges."""
    if type_ == "A":
        return [1] * n
    if type_ == "D":
        return [1] + [2] * (n - 3) + [1, 1]
    # Bourbaki labels: E_n path a1 a3 a4 ... a_n with a2 on a4
    return {
        6: [1, 2, 3, 2, 1, 2],
        7: [2, 3, 4, 3, 2, 1, 2],
        8: [2, 4, 6, 5, 4, 3, 2, 3],
    }[n]


def abs_determinant(type_: str, n: int) -> int:
    """|det| of the ADE intersection matrix: the order of the weight lattice
    modulo the root lattice."""
    if type_ == "A":
        return n + 1
    if type_ == "D":
        return 4
    return 9 - n


def intersection_matrix(weights, edges) -> list[list[int]]:
    """edges: iterable of (a, b, multiplicity)."""
    m = [[0] * len(weights) for _ in weights]
    for i, w in enumerate(weights):
        m[i][i] = w
    for a, b, mult in edges:
        m[a][b] = m[b][a] = mult
    return m


def leading_minors(matrix) -> list[int]:
    """Leading principal minors by Bareiss elimination without pivoting: the
    k-th pivot is the k-th leading minor.  Stops after the first zero minor."""
    a = [list(row) for row in matrix]
    n = len(a)
    prev = 1
    minors = []
    for k in range(n):
        piv = a[k][k]
        minors.append(piv)
        if piv == 0:
            break
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i, row_k = a[i], a[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * piv - aik * row_k[j]) // prev
        prev = piv
    return minors


def is_negative_definite(matrix) -> bool:
    minors = leading_minors(matrix)
    return len(minors) == len(matrix) and all(
        (d if k % 2 == 0 else -d) > 0 for k, d in enumerate(minors, start=1)
    )


def pairings(matrix, z) -> list[int]:
    """Z . E_i for every vertex i."""
    return [sum(zj * row[i] for zj, row in zip(z, matrix)) for i in range(len(matrix))]


def laufer_cycle(matrix) -> list[int]:
    """Fundamental cycle by Laufer's iteration from the all-ones cycle,
    keeping the pairing vector up to date after each increment."""
    z = [1] * len(matrix)
    p = pairings(matrix, z)
    while True:
        i = next((i for i, v in enumerate(p) if v > 0), None)
        if i is None:
            return z
        z[i] += 1
        for j, mij in enumerate(matrix[i]):
            p[j] += mij


def check_cycle(z, matrix, expected) -> str | None:
    """None if z is a positive anti-nef cycle equal to the expected one."""
    if len(z) != len(matrix) or any(not isinstance(c, int) or c < 1 for c in z):
        return f"cycle {z} is not a positive integer vector of length {len(matrix)}"
    bad = [i for i, v in enumerate(pairings(matrix, z)) if v > 0]
    if bad:
        return f"cycle pairs positively with E_{bad[0]}"
    if list(z) != list(expected):
        return f"cycle {z} differs from the reference {expected}"
    return None
