"""The benchmark's tracer wraps names that the package must keep: each
span point of bench/tracing.py resolves after import, so deleting one of
them breaks this test and not only `bench/run.py --trace 1`."""

import importlib
import importlib.util
import os

TRACING = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "tracing.py"
)


def test_every_span_point_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SPAN_POINTS
    for module_name, attr, _ in tracing.SPAN_POINTS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
