"""Smoke test of the benchmark: every workload at its smallest size, one round.

Run from the repository root:

    python3 -m pytest bench/test_smoke.py -q
"""
import json
import shutil
import subprocess
import sys

import pytest

import run
from workloads import WORKLOADS, Job

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bindings() -> dict:
    """(namespace, name) -> object, for every name the tracer could rebind."""
    import dulab.gates
    import numpy
    import scipy.linalg

    spaces = [m for name, m in sys.modules.items() if name == "dulab" or name.startswith("dulab.")]
    spaces += [numpy, numpy.linalg, scipy.linalg]
    out = {(s.__name__, k): v for s in spaces for k, v in list(vars(s).items())}
    out[("dulab.gates.Gate", "__init__")] = dulab.gates.Gate.__dict__["__init__"]
    return out


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smallest_run(workload, trace):
    run.import_cli()
    before = _bindings()
    lines, result = run.bench(workload, seed=1, seconds=0, trace=trace, setup_repeats=1)

    assert result["correct"] and result["failed"] == 0, lines
    assert result["attempted"] >= 3
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, unit in units.items():
        assert any(ln.startswith(f"metric {name} ") and ln.endswith(f" {unit}") for ln in lines)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        return
    after = _bindings()
    assert all(after[key] is obj for key, obj in before.items()), "a wrapped name was not restored"
    calls = result["metrics"]["cli.main.calls"]["value"]
    assert calls == result["attempted"] // 2 - 1  # untraced and traced pass, warm-up twice
    if workload == "haar-ensemble":
        assert result["metrics"]["ensemble.draws_per_sample"]["value"] == 2.0


@pytest.mark.parametrize("output", [b'{"mean": NaN}', b'{"mean": Infinity}', b"t,x\n0,nan\n", b""])
def test_output_check_rejects(output):
    fmt = "json" if output.startswith(b"{") else "csv"
    assert run.check_output(Job(("x",), fmt), 0, "", output) is not None


def test_output_check_bound():
    job = Job(("zigzag",), "csv", check="bound")
    csv_ok = b"t,bond\n0,0\n"
    assert run.check_output(job, 0, '{"per_gate_bound_ok": true}', csv_ok) is None
    assert run.check_output(job, 0, '{"per_gate_bound_ok": false}', csv_ok) is not None
    assert run.check_output(job, 1, '{"per_gate_bound_ok": true}', csv_ok) is not None


def test_fails_without_source(tmp_path):
    """In a directory holding only the benchmark, the run fails and prints no result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "gate-audit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_restores_on_error(monkeypatch):
    """A tracer that fails halfway through install puts every name back."""
    run.import_cli()
    before = _bindings()
    monkeypatch.setitem(run.spans.KERNEL_SPANS, "linalg.missing", ("numpy.linalg", "missing"))
    with pytest.raises(AttributeError):
        run.spans.Tracer().install()
    after = _bindings()
    assert all(after[key] is obj for key, obj in before.items())
