"""dulab benchmark: drives the public CLI entry point ``dulab.cli.main(argv)``.

Run from the root of a dulab checkout:

    python3 bench/run.py --workload haar-ensemble --seed 1 --seconds 26 --trace 0

The benchmark is a closed loop with one client and no threads of its own:
it runs the workload's jobs one after another, in the order the seed draws,
each writing through ``--out`` into a temporary directory under
``bench/.out/`` while stdout is captured.  The timed phase runs the whole
rounds of jobs that fill ``--seconds`` at the workload's nominal round time,
so each run of a workload times the same jobs.  Every job's output is checked, and
the warm-up job is rerun after the timed phase and must give the same bytes.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
jobs once untraced and once traced (see ``spans.py``), reports the per-layer
metrics and writes every span to ``bench/.out/spans-<workload>-seed<seed>.jsonl.gz``.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the report.
dulab is imported from ``src/`` of this checkout only; without it the run
exits with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy
import scipy

import spans
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".out"

#: fresh interpreters timed per run; setup_s is their median
SETUP_REPEATS = 3
#: job_tail_s is the highest percentile with at least this many jobs beyond it
TAIL_BEYOND = 10
PROBE_TIMEOUT_S = 120

E2E_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    units = {}
    for span in spans.span_names():
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
        if span in spans.KERNEL_SPANS:
            units[f"{span}.bytes_in"] = "B_computed"
    units["gates.project_dual_iterative.iterations"] = "count"
    units["ensemble.draws_per_sample"] = "draws/sample"
    units["process.cpu_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


class SetupError(RuntimeError):
    """The run cannot be set up; no result is printed."""


def import_cli():
    """Import ``dulab.cli`` from this checkout's ``src/``, never an installed copy."""
    pkg = SRC / "dulab"
    if not (pkg / "cli.py").is_file():
        raise SetupError(f"{pkg} not found: run the benchmark from a dulab checkout")
    sys.path.insert(0, str(SRC))
    import dulab.cli

    if Path(dulab.cli.__file__).resolve().parent != pkg.resolve():
        raise SetupError(f"imported {dulab.cli.__file__}, expected the copy in {pkg}")
    return dulab.cli


# ---------------------------------------------------------------------------
# one job and its output check
# ---------------------------------------------------------------------------

def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in JSON")


def strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def check_csv(text: str) -> None:
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 2:
        raise ValueError("CSV without data rows")
    for row in rows:
        if len(row) != len(rows[0]):
            raise ValueError(f"CSV row of {len(row)} cells under a header of {len(rows[0])}")
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                continue
            if not math.isfinite(value):
                raise ValueError(f"non-finite number {cell} in CSV")


def check_output(job, code, stdout: str, data: bytes | None) -> str | None:
    """None when the job's outputs are correct, else what is wrong."""
    if code != 0:
        return f"exit status {code!r}"
    if data is None:
        return "no output file"
    try:
        text = data.decode("utf-8")
        if job.fmt == "json":
            strict_json(text)
        else:
            check_csv(text)
        summary = strict_json(stdout) if stdout.startswith("{") else {}
    except (ValueError, csv.Error) as exc:
        return f"bad output: {exc}"
    if job.check == "bound" and summary.get("per_gate_bound_ok") is not True:
        return "per_gate_bound_ok is not true"
    return None


class Run:
    """Runs jobs in-process and counts attempts and failures."""

    def __init__(self, cli, workdir: Path):
        self.cli = cli
        self.out = workdir / "job.out"
        self.attempted = 0
        self.failures = []

    def attempt(self, job, expect=None):
        """Run one job; return its latency and its (stdout, file bytes).

        With ``expect``, outputs that differ from it count as a failure.
        """
        self.out.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.cli.main([*job.argv, "--out", str(self.out)])
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a job that raises is a failed job; the run goes on
            code = traceback.format_exc().strip().splitlines()[-1]
        seconds = time.perf_counter() - start
        try:
            data = self.out.read_bytes()
        except FileNotFoundError:
            data = None
        outputs = (stdout.getvalue(), data)
        problem = check_output(job, code, *outputs)
        if problem is None and expect is not None and outputs != expect:
            problem = "output bytes differ from the warm-up run"
        self.attempted += 1
        if problem:
            self.failures.append(f"{' '.join(job.argv)}: {problem} {stderr.getvalue().strip()}")
        return seconds, outputs


def run_rounds(run: Run, workload, seconds: float):
    """Closed loop over the whole rounds that fill ``seconds`` at the nominal
    round time (at least one).  Returns the jobs, their latencies, the round
    count and the wall time of the phase."""
    n_rounds = max(1, round(seconds / workload.ROUND_S))
    jobs, latencies = [], []
    start = time.perf_counter()
    for _ in range(n_rounds):
        for job in workload.next_round():
            latencies.append(run.attempt(job)[0])
            jobs.append(job)
    return jobs, latencies, n_rounds, time.perf_counter() - start


# ---------------------------------------------------------------------------
# set-up time, resources, environment
# ---------------------------------------------------------------------------

def setup_probe(workload: str, seed: int, workdir: Path) -> int:
    """Fresh-interpreter set-up: import, inputs, one warm-up job, then "ready"."""
    run = Run(import_cli(), workdir)
    run.attempt(WORKLOADS[workload](seed, workdir).warmup)
    if run.failures:
        print(run.failures[0], file=sys.stderr)
        return 1
    print("ready", repr(time.clock_gettime(time.CLOCK_MONOTONIC)), flush=True)
    return 0


def measure_setup(workload: str, seed: int, repeats: int) -> float:
    """Median time from starting a fresh interpreter to its "ready" line."""
    times = []
    for _ in range(repeats):
        with tempfile.TemporaryDirectory(dir=WORK) as d:
            start = time.clock_gettime(time.CLOCK_MONOTONIC)
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", "0", "--setup-probe", d],
                capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
            words = proc.stdout.split()
            if proc.returncode != 0 or words[:1] != ["ready"]:
                raise SetupError(f"set-up probe failed: {proc.stderr.strip()}")
            times.append(float(words[1]) - start)
    return statistics.median(times)


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "DULAB_MAX_AMPLITUDES": os.environ.get("DULAB_MAX_AMPLITUDES"),
        "git_commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# the benchmark
# ---------------------------------------------------------------------------

def tail_percentile(latencies):
    """(value, percentile, jobs beyond) of the highest percentile with
    ``TAIL_BEYOND`` jobs beyond it (the minimum when there are fewer jobs)."""
    xs = sorted(latencies)
    k = max(1, len(xs) - TAIL_BEYOND)
    return xs[k - 1], 100.0 * k / len(xs), len(xs) - k


def layer_metrics(tracer, jobs, traced_wall, untraced_wall, cpu) -> dict:
    totals = tracer.totals()
    values = {}
    for span, (calls, self_s) in totals.items():
        values[f"{span}.calls"] = calls
        values[f"{span}.self_s"] = self_s
        if span in spans.KERNEL_SPANS:
            values[f"{span}.bytes_in"] = tracer.counts[f"{span}.bytes_in"]
    values["gates.project_dual_iterative.iterations"] = tracer.counts[
        "gates.project_dual_iterative.iterations"]
    requested = {(q, s, i) for job in jobs if job.draws
                 for q, s, n in [job.draws] for i in range(n)}
    draws = totals["gates.haar_unitary"][0]
    values["ensemble.draws_per_sample"] = draws / len(requested) if requested else 0.0
    values["process.cpu_s"] = cpu
    values["trace.overhead_s"] = traced_wall - untraced_wall
    return values


def top_spans(tracer, limit=10) -> list:
    job_s = sum(end - start for _, _, _, name, start, end, _ in tracer.spans
                if name == "cli.main")
    rows = sorted(tracer.totals().items(), key=lambda kv: -kv[1][1])[:limit]
    return [f"# span {name}: self {self_s:.4f} s ({100 * self_s / job_s:.1f}% of job time), "
            f"{calls} calls, {1e3 * self_s / calls:.3f} ms self per call"
            for name, (calls, self_s) in rows if calls]


def bench(workload: str, seed: int, seconds: float, trace: bool,
          setup_repeats: int = SETUP_REPEATS):
    """Run one benchmark; return (report lines, result object)."""
    WORK.mkdir(parents=True, exist_ok=True)
    cli = import_cli()
    env = environment()
    setup_s = None if trace else measure_setup(workload, seed, setup_repeats)
    with tempfile.TemporaryDirectory(dir=WORK) as d:
        wl = WORKLOADS[workload](seed, Path(d))
        run = Run(cli, Path(d))
        _, warm = run.attempt(wl.warmup)
        cpu0 = cpu_seconds()
        jobs, latencies, n_rounds, wall = run_rounds(run, wl, seconds)
        cpu = cpu_seconds() - cpu0
        if trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                start = time.perf_counter()
                for i, job in enumerate(jobs):
                    tracer.job = i
                    run.attempt(job)
                traced_wall = time.perf_counter() - start
            finally:
                tracer.restore()
        run.attempt(wl.warmup, expect=warm)

    lines = [
        f"# dulab benchmark: workload {workload}, seed {seed}, closed loop with one client",
        "# env " + json.dumps(env),
        f"# timed phase: {len(jobs)} jobs in {n_rounds} rounds, {wall:.3f} s",
        f"# failed_ratio {len(run.failures) / run.attempted!r} "
        f"({len(run.failures)} of {run.attempted} jobs, warm-up and determinism rerun included)",
    ]
    lines += [f"# failure: {f}" for f in run.failures]
    if trace:
        values = layer_metrics(tracer, jobs, traced_wall, wall, cpu)
        units = per_layer_units()
        trace_path = WORK / f"spans-{workload}-seed{seed}.jsonl.gz"
        tracer.write(trace_path, {"workload": workload, "seed": seed, "env": env})
        lines.append(f"# {len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}")
        lines += top_spans(tracer)
    else:
        tail, pct, beyond = tail_percentile(latencies)
        values = {
            "setup_s": setup_s,
            "jobs_per_s": len(jobs) / wall,
            "job_p50_s": statistics.median(latencies),
            "job_tail_s": tail,
            "peak_rss_mb": peak_rss_mb(),
        }
        units = E2E_UNITS
        lines.append(f"# setup_s is the median of {setup_repeats} fresh interpreters")
        lines.append(f"# job_tail_s is p{pct:.2f} of {len(jobs)} jobs ({beyond} beyond it)")
    lines += [f"metric {name} {values[name]!r} {unit}" for name, unit in units.items()]
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return lines, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="sizes the timed phase: the whole rounds that fill it at "
                         "the workload's nominal round time, at least one")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.setup_probe:
            return setup_probe(args.workload, args.seed, Path(args.setup_probe))
        lines, result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
