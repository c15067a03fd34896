"""The traced benchmark (``bench/spans.py``) looks its dulab spans up by
name and its kernel modules up in ``sys.modules``, so a deleted or renamed
function, or a kernel module that ``import dulab`` no longer registers,
breaks ``bench/run.py --trace 1``.  This reads the span table without
installing the tracer."""
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from conftest import checkout_env

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


#: prints the kernel span targets that ``import dulab`` leaves unresolvable
KERNEL_PROBE = """
import importlib.util, json, sys
import dulab

spec = importlib.util.spec_from_file_location("bench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
missing = [f"{mod}.{attr}" for mod, attr in spans.KERNEL_SPANS.values()
           if mod not in sys.modules or not callable(getattr(sys.modules[mod], attr, None))]
print(json.dumps(missing))
"""


def test_every_kernel_span_resolves_after_import():
    # the tracer reads each kernel module from sys.modules without importing
    # it, so ``import dulab`` must register them all (scipy.linalg lazily)
    res = subprocess.run([sys.executable, "-c", KERNEL_PROBE, str(SPANS_PY)],
                         env=checkout_env(), check=True, capture_output=True, text=True,
                         timeout=120)
    assert json.loads(res.stdout) == []
