"""Spans recorded around the package's public functions, from outside.

A Tracer replaces a function in the namespace of the module that calls it
(for example `classify.integral_Ik`, the name `classify` looks up) with a
wrapper that records a span: name, start, end, parent span and the
operation it belongs to.  Spans stay in memory until the benchmark writes
them out; `restore` puts the original functions back.
"""

from __future__ import annotations

import functools
import time

# (module, attribute looked up by that module, span name)
SPAN_POINTS = (
    ("duval_kind.cli", "main", "cli.main"),
    ("duval_kind.cli", "load_graph", "dual_graph.load_graph"),
    ("duval_kind.cli", "is_negative_definite", "dual_graph.is_negative_definite"),
    ("duval_kind.cli", "fundamental_cycle", "cycles.fundamental_cycle"),
    ("duval_kind.cli", "classify", "classify.classify"),
    ("duval_kind.cli", "integral_Ik", "quadrature.integral_Ik"),
    ("duval_kind.classify", "fundamental_cycle", "cycles.fundamental_cycle"),
    ("duval_kind.classify", "integral_Ik", "quadrature.integral_Ik"),
    ("duval_kind.classify", "weighted_graph_norm_defect", "quadrature.weighted_graph_norm_defect"),
    ("duval_kind.cycles", "is_negative_definite", "dual_graph.is_negative_definite"),
    ("duval_kind.quadrature", "integral_Ik", "quadrature.integral_Ik"),
    ("duval_kind.quadrature", "structure_form_l2_norm", "quadrature.structure_form_l2_norm"),
)


class Tracer:
    def __init__(self, modules):
        """modules: mapping from module name to the imported module."""
        self.spans: list[dict] = []
        self.op = None
        self._stack: list[int] = []
        self._saved = []
        for module_name, attr, span_name in SPAN_POINTS:
            module = modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name))

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "op": self.op,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if hasattr(result, "subregions_used"):
                span["cells"] = result.subregions_used
            return result

        return traced

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def duration(span) -> float:
    return span["end"] - span["start"]


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    own = {s["id"]: duration(s) for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= duration(s)
    return own


def ancestors(spans, span):
    """Enclosing spans, innermost first (a span's id is its list index)."""
    parent = span["parent"]
    while parent is not None:
        yield spans[parent]
        parent = spans[parent]["parent"]
