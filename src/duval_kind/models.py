"""Built-in du Val hypersurface germs and the A_n covering map.

Equations: A_n: z^{n+1} - xy; D_n: x^2 + y^2 z + z^{n-1};
E_6: x^2 + y^3 + z^4; E_7: x^2 + y^3 + y z^3; E_8: x^2 + y^3 + z^5.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dual_graph import ParameterError, ade_type
from .poly import MAX_EXPONENT, Polynomial3, differentiate, parse_polynomial


@dataclass(frozen=True)
class HypersurfaceGerm:
    """A hypersurface equation f with its residue denominator df/dz."""

    label: str
    equation: Polynomial3
    residue_denominator: Polynomial3


@dataclass(frozen=True)
class CoveringMap:
    """The branched (n+1)-to-1 covering (s,t) -> (s^{n+1}, t^{n+1}, st)
    onto the A_n hypersurface."""

    n: int

    def __post_init__(self):
        ade_type("A", self.n)


_EQUATIONS = {
    "E6": "x^2 + y^3 + z^4",
    "E7": "x^2 + y^3 + y*z^3",
    "E8": "x^2 + y^3 + z^5",
}


def duval_equation(type_: str, n: int) -> HypersurfaceGerm:
    """The standard normal form for the du Val singularity of given type;
    ade_type decides which (type_, n) exist."""
    type_ = ade_type(type_, n)
    if type_ == "E":
        text = _EQUATIONS[f"E{n}"]
    else:
        z_exponent = n + 1 if type_ == "A" else n - 1
        if z_exponent > MAX_EXPONENT:
            raise ParameterError(
                f"{type_}{n} needs the exponent z^{z_exponent}, above the limit {MAX_EXPONENT}"
            )
        text = f"z^{z_exponent} - x*y" if type_ == "A" else f"x^2 + y^2*z + z^{z_exponent}"
    eq = parse_polynomial(text)
    return HypersurfaceGerm(f"{type_}{n}", eq, differentiate(eq, "z"))


def covering_image(
    c: CoveringMap, s: complex, t: complex
) -> tuple[complex, complex, complex]:
    """Image (s^{n+1}, t^{n+1}, s t) on the A_n hypersurface."""
    return (s ** (c.n + 1), t ** (c.n + 1), s * t)


def solve_on_hypersurface(germ: HypersurfaceGerm, y: complex, z: complex) -> list[complex]:
    """Points (x, y, z) on the germ for given (y, z), solving for x.

    All built-in D/E equations are quadratic (or linear) in x with no
    mixed x-terms; returns both branches where applicable.
    """
    # collect coefficients of x^0, x^1, x^2 at fixed (y, z)
    coeffs = [0j, 0j, 0j]
    for (a, b, c), k in germ.equation.terms.items():
        if a > 2:
            raise ValueError("equation has degree > 2 in x")
        coeffs[a] += k * y**b * z**c
    c0, c1, c2 = coeffs
    if c2 == 0:
        if c1 == 0:
            return []
        return [-c0 / c1]
    disc = c1 * c1 - 4 * c2 * c0
    root = complex(disc) ** 0.5
    return [(-c1 + root) / (2 * c2), (-c1 - root) / (2 * c2)]
