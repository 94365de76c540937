"""The benchmark's tracer wraps library names; each one must still exist."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_traced_boundaries_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    class Sink:
        def write(self, text):
            return len(text)

    for owner, attr, name, _hook in tracing.boundaries(Sink):
        assert callable(getattr(owner, attr, None)), f"{name}: {owner!r}.{attr}"
