"""Kind classification of du Val singularities.

The implemented criterion is reducedness of the fundamental cycle on the
minimal resolution graph: reduced => first kind (the dualising sheaf is
the full Grauert-Riemenschneider sheaf), non-reduced => second kind (the
maximal ideal twist).  For the A series the verdict can additionally be
backed by the annulus-integral table certifying the structure form lies
in the domain of the Dirichlet dbar-extension.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii

from .cycles import Cycle, CycleError, fundamental_cycle, is_reduced
from .dual_graph import DualGraph, ParameterError, build_dynkin
from .quadrature import (
    check_tol,
    defect_bound,
    integral_Ik,  # noqa: F401 (span point of bench/tracing.py)
    integral_Ik_bands,
    weighted_graph_norm_defect,  # noqa: F401 (span point of bench/tracing.py)
)

FIRST_KIND_FORMULA = "pi_* K_M"
SECOND_KIND_FORMULA = "pi_*(K_M (x) O(-Z))"

DE_NUMERICS_NOTE = (
    "second kind is established by contradiction against an external "
    "solvability obstruction; no integral table applies"
)


def indented_json(doc) -> str:
    """json.dumps(doc, indent=2), byte for byte, for a document whose dict
    keys are all str.  CPython's json encodes with an indent in pure Python;
    here a list of plain ints is one join, and keys and other scalars go
    through json's own encoders."""
    return _indented(doc, "\n")


# json's encoding of each scalar type, looked up by exact type: a finite
# float is its repr, as in json; NaN, the infinities and subclasses (such
# as numpy.float64) go through json.dumps itself
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: lambda x: float.__repr__(x) if math.isfinite(x) else json.dumps(x),
    bool: ("false", "true").__getitem__,
    type(None): lambda _: "null",
}


def _indented(value, newline: str) -> str:
    encode = _SCALARS.get(type(value))
    if encode is not None:
        return encode(value)
    if not isinstance(value, (dict, list, tuple)):
        return json.dumps(value)
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = newline + "  "
    if isinstance(value, dict):
        body = ("," + inner).join([
            encode_basestring_ascii(key) + ": " + _indented(item, inner)
            for key, item in value.items()
        ])
        return "{" + inner + body + newline + "}"
    if set(map(type, value)) == {int}:
        body = ("," + inner).join(map(int.__repr__, value))
    else:
        body = ("," + inner).join([_indented(item, inner) for item in value])
    return "[" + inner + body + newline + "]"


class Kind(enum.Enum):
    FIRST = "first"
    SECOND = "second"
    NOT_DETERMINED = "not determined - input is not a du Val graph"


@dataclass(frozen=True)
class IntegralRow:
    k: int
    integral: float
    error: float
    defect_bound: float


@dataclass(frozen=True)
class ClassificationReport:
    input_label: str
    dual_graph_summary: dict
    fundamental_cycle: Cycle
    reduced: bool
    kind: Kind
    kxs_formula: str | None
    numerical_evidence: tuple[IntegralRow, ...] | None = None
    numerics_note: str | None = None

    def to_dict(self) -> dict:
        doc = {
            "input_label": self.input_label,
            "dual_graph_summary": self.dual_graph_summary,
            "fundamental_cycle": list(self.fundamental_cycle.coefficients),
            "reduced": self.reduced,
            "kind": self.kind.value,
            "kxs_formula": self.kxs_formula,
        }
        if self.numerical_evidence is not None:
            doc["numerical_evidence"] = [
                {
                    "k": row.k,
                    "integral": row.integral,
                    "error": row.error,
                    "defect_bound": row.defect_bound,
                }
                for row in self.numerical_evidence
            ]
        if self.numerics_note is not None:
            doc["numerics_note"] = self.numerics_note
        return doc

    def to_json(self) -> str:
        return indented_json(self.to_dict())

    def to_text(self) -> str:
        lines = [
            f"input_label: {self.input_label}",
            f"dual_graph_summary: {self.dual_graph_summary['vertices']} vertices, "
            f"{self.dual_graph_summary['edges']} edges, "
            f"self-intersections {self.dual_graph_summary['self_intersections']}",
            "fundamental_cycle: "
            + " ".join(str(c) for c in self.fundamental_cycle.coefficients),
            f"reduced: {'yes' if self.reduced else 'no'}",
            f"kind: {self.kind.value}",
            f"kxs_formula: {self.kxs_formula if self.kxs_formula else '-'}",
        ]
        if self.numerical_evidence is not None:
            lines.append("numerical_evidence (k, integral, error, defect_bound):")
            for row in self.numerical_evidence:
                lines.append(
                    f"  {row.k}  {row.integral:.17e}  {row.error:.17e}  "
                    f"{row.defect_bound:.17e}"
                )
        if self.numerics_note is not None:
            lines.append(f"numerics_note: {self.numerics_note}")
        return "\n".join(lines)


def _graph_summary(g: DualGraph) -> dict:
    return {
        "vertices": g.vertex_count,
        "edges": len(g.edges),
        "self_intersections": list(g.self_intersections),
    }


def _integral_table(n: int, rel_tol: float) -> tuple[IntegralRow, ...]:
    """One family of integrals, k = 1..3, each with its defect bound C^2 I~_k."""
    results = integral_Ik_bands(n, range(1, 4), rel_tol)
    return tuple(
        IntegralRow(k, res.value, res.error_estimate, defect_bound(res).value)
        for k, res in enumerate(results, start=1)
    )


def classify(
    type_: str, n: int, with_numerics: bool = False, rel_tol: float = 1e-4
) -> ClassificationReport:
    """Kind verdict for the du Val singularity of the given ADE type: the
    classify_graph verdict on its Dynkin graph, plus the A-series integral
    table or the D/E note when numerics are asked for."""
    if with_numerics:
        check_tol(rel_tol)  # for every type, though only A computes integrals
    type_ = type_.upper()
    report = classify_graph(build_dynkin(type_, n), label=f"{type_}{n}")
    if not with_numerics:
        return report
    if type_ == "A":
        return replace(report, numerical_evidence=_integral_table(n, rel_tol))
    return replace(report, numerics_note=DE_NUMERICS_NOTE)


def classify_graph(g: DualGraph, label: str = "user graph") -> ClassificationReport:
    """Kind verdict for a dual graph, from a user's file or build_dynkin.

    Graphs that are not du Val (some self-intersection != -2) still get
    their cycle and reducedness, but no kind verdict: the dichotomy is
    only proved for canonical Gorenstein singularities.  Raises
    ParameterError if the intersection form is not negative definite.
    """
    try:
        z = fundamental_cycle(g)
    except CycleError as exc:
        raise ParameterError("graph is not negative definite") from exc
    reduced = is_reduced(z)
    if g.is_all_minus_two():
        kind = Kind.FIRST if reduced else Kind.SECOND
        formula = FIRST_KIND_FORMULA if kind is Kind.FIRST else SECOND_KIND_FORMULA
    else:
        kind = Kind.NOT_DETERMINED
        formula = None
    return ClassificationReport(
        input_label=label,
        dual_graph_summary=_graph_summary(g),
        fundamental_cycle=z,
        reduced=reduced,
        kind=kind,
        kxs_formula=formula,
    )

