"""The traced benchmark (``bench/spans.py``) looks its dulab spans up by
name, so a deleted or renamed function breaks ``bench/run.py --trace 1``.
This reads the span table without installing the tracer."""
import importlib
import importlib.util
from pathlib import Path

SPANS_PY = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_dulab_span_resolves():
    spans = load_spans().DULAB_SPANS
    assert spans
    missing = [f"dulab.{mod}.{name}" for mod, names in spans.items() for name in names
               if not callable(getattr(importlib.import_module(f"dulab.{mod}"), name, None))]
    assert not missing, f"span targets missing from dulab: {missing}"
