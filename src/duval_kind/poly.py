"""Exact trivariate polynomials in (x, y, z) with integer coefficients.

Coefficients are arbitrary-precision integers; evaluation is complex
binary64.  Terms are kept in a dict keyed by exponent triples and are
always normalized (no zero coefficients).  `parse_polynomial` adds each
term's coefficient into one such dict and builds one `Polynomial3` at the
end, so a parse takes time linear in the length of its text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

VARIABLES = ("x", "y", "z")

MAX_EXPONENT = 1 << 16


class PolynomialParseError(ValueError):
    """Raised on malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Polynomial3:
    """Trivariate polynomial: map from exponent triple (a, b, c) to coefficient."""

    terms: Mapping[tuple[int, int, int], int] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for expo, coeff in self.terms.items():
            a, b, c = expo
            if min(a, b, c) < 0:
                raise ValueError(f"negative exponent in {expo}")
            if max(a, b, c) > MAX_EXPONENT:
                raise ValueError(f"exponent exceeds {MAX_EXPONENT} in {expo}")
            if coeff != 0:
                clean[(int(a), int(b), int(c))] = int(coeff)
        object.__setattr__(self, "terms", clean)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "Polynomial3") -> "Polynomial3":
        terms = dict(self.terms)
        for expo, coeff in other.terms.items():
            terms[expo] = terms.get(expo, 0) + coeff
        return Polynomial3(terms)

    def __sub__(self, other: "Polynomial3") -> "Polynomial3":
        return self + (-other)

    def __neg__(self) -> "Polynomial3":
        return Polynomial3({e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "Polynomial3") -> "Polynomial3":
        terms: dict[tuple[int, int, int], int] = {}
        for (a1, b1, c1), k1 in self.terms.items():
            for (a2, b2, c2), k2 in other.terms.items():
                expo = (a1 + a2, b1 + b2, c1 + c2)
                terms[expo] = terms.get(expo, 0) + k1 * k2
        return Polynomial3(terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def sorted_terms(self) -> Iterator[tuple[tuple[int, int, int], int]]:
        """Terms in lexicographic exponent order (the canonical ordering)."""
        return iter(sorted(self.terms.items()))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for (a, b, c), coeff in self.sorted_terms():
            factors = []
            if abs(coeff) != 1 or (a, b, c) == (0, 0, 0):
                factors.append(str(abs(coeff)))
            for name, e in zip(VARIABLES, (a, b, c)):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mono = "*".join(factors)
            pieces.append(("- " if coeff < 0 else "+ ") + mono)
        text = " ".join(pieces)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]


def differentiate(p: Polynomial3, var: str) -> Polynomial3:
    """Formal partial derivative with respect to 'x', 'y' or 'z'."""
    i = VARIABLES.index(var)
    terms: dict[tuple[int, int, int], int] = {}
    for expo, coeff in p.terms.items():
        e = expo[i]
        if e == 0:
            continue
        new = list(expo)
        new[i] = e - 1
        terms[tuple(new)] = coeff * e
    return Polynomial3(terms)


def evaluate(p: Polynomial3, point: tuple[complex, complex, complex]) -> complex:
    """Evaluate at a complex point; terms summed in canonical order."""
    x, y, z = (complex(w) for w in point)
    total = 0j
    for (a, b, c), coeff in p.sorted_terms():
        total += coeff * x**a * y**b * z**c
    return total


def gradient_vanishes(
    p: Polynomial3, point: tuple[complex, complex, complex], tol: float
) -> bool:
    """True iff all three partials have modulus <= tol at the point."""
    if tol < 0:
        raise ValueError("tol must be non-negative")
    return all(
        abs(evaluate(differentiate(p, v), point)) <= tol for v in VARIABLES
    )


# -- text parser --------------------------------------------------------------

def parse_polynomial(text: str) -> Polynomial3:
    """Parse e.g. "z^3 - x*y" or "2x^2y - 5".

    Grammar: signed integer coefficients, variables x/y/z, ^ powers,
    optional * between factors, whitespace ignored.  Raises
    PolynomialParseError with the character position on bad input.
    """
    s = text
    n = len(s)
    i = 0

    def skip_ws(j: int) -> int:
        while j < n and s[j].isspace():
            j += 1
        return j

    def parse_int(j: int) -> tuple[int, int]:
        start = j
        while j < n and s[j].isdigit():
            j += 1
        if j == start:
            raise PolynomialParseError("expected integer", start)
        try:
            return int(s[start:j]), j
        except ValueError:  # too many digits for int(), or a non-ASCII digit
            raise PolynomialParseError("invalid integer", start) from None

    terms: dict[tuple[int, int, int], int] = {}
    i = skip_ws(i)
    if i == n:
        raise PolynomialParseError("empty polynomial", 0)
    first = True
    while i < n:
        sign = 1
        i = skip_ws(i)
        if i < n and s[i] in "+-":
            if s[i] == "-":
                sign = -1
            i = skip_ws(i + 1)
        elif not first:
            raise PolynomialParseError("expected '+' or '-'", i)
        first = False
        if i >= n:
            raise PolynomialParseError("dangling sign", i)

        coeff = sign
        exps = [0, 0, 0]
        saw_factor = False
        if s[i].isdigit():
            value, i = parse_int(i)
            coeff *= value
            saw_factor = True
        while True:
            i = skip_ws(i)
            if i < n and s[i] == "*":
                i = skip_ws(i + 1)
                if i >= n or s[i] not in "xyz":
                    raise PolynomialParseError("expected variable after '*'", i)
            if i < n and s[i] in "xyz":
                vi = VARIABLES.index(s[i])
                at = i
                i += 1
                power = 1
                j = skip_ws(i)
                if j < n and s[j] == "^":
                    at = j = skip_ws(j + 1)
                    power, j = parse_int(j)
                    i = j
                exps[vi] += power
                if exps[vi] > MAX_EXPONENT:
                    raise PolynomialParseError(f"exponent exceeds {MAX_EXPONENT}", at)
                saw_factor = True
            else:
                break
        if not saw_factor:
            raise PolynomialParseError("expected term", i)
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + coeff
        i = skip_ws(i)
    return Polynomial3(terms)
