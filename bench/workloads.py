"""Benchmark workloads: seeded input files and the job list of each round.

A workload object is built from the workload seed and a work directory.
Building it is the set-up: it writes every input file the jobs read.  After
that, ``next_round()`` draws the next round of jobs from the same seeded
generator, so one seed always gives the same inputs and the same job order.
The timed phase runs whole rounds, which keeps the job mix of a run fixed.

``ROUND_S`` is a workload's nominal round time, measured once at the seed
commit on a 2-vCPU machine.  It turns ``--seconds`` into a fixed number of
rounds, so every run of a workload, on every commit, times the same jobs and
reads the tail at the same percentile.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

QUARTER_PI = repr(math.pi / 4)

#: Haar samples per haar-ensemble job; |mean - target| stays two orders of
#: magnitude inside every published tolerance at this size.
HAAR_SAMPLES = 25
#: the warm-up draws a short stream on the same QR and eigvalsh path, so the
#: determinism rerun covers it without a full job's cost in set-up
WARMUP_SAMPLES = 5


@dataclass(frozen=True)
class Job:
    """One ``dulab`` invocation and how its output is checked."""

    argv: tuple
    #: format of the file written through ``--out``: "json" or "csv"
    fmt: str
    #: "exit": exit code 0 under ``--assert``; "bound": ``per_gate_bound_ok``
    #: in the stdout summary, for a gate that is not dual unitary
    check: str = "exit"
    #: (q, seed, samples) when the job draws a Haar unitary stream
    draws: tuple | None = None


def write_haar_gate(path: Path, q: int, rng: np.random.Generator) -> str:
    """Write a Haar two-qudit gate in the documented text format.

    Line 1 holds q, then q^2 lines of q^2 entries "re,im".  The unitary is
    Ginibre + QR with the phase fix, written with numpy alone so that the
    inputs do not depend on the code under test.
    """
    d = q * q
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
    u, r = np.linalg.qr(z)
    u = u * (np.diag(r) / np.abs(np.diag(r)))
    rows = [" ".join(f"{float(x.real)!r},{float(x.imag)!r}" for x in row) for row in u]
    path.write_text("\n".join([str(q)] + rows) + "\n", encoding="utf-8")
    return str(path)


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1, 2 ** 31))


class HaarEnsemble:
    """Triples on one fresh seed: haar-fidelity q=16, catalan q=16, state-fidelity q=32."""

    ROUND_S = 1.8

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.used = set()
        self.warmup = self._fidelity(self._fresh_seed(), WARMUP_SAMPLES)

    def _fresh_seed(self) -> int:
        # a (q, seed) stream never repeats across triples
        while True:
            s = _seed(self.rng)
            if s not in self.used:
                self.used.add(s)
                return s

    @staticmethod
    def _fidelity(s: int, samples: int = HAAR_SAMPLES) -> Job:
        return Job(("haar-fidelity", "--q", "16", "--samples", str(samples),
                    "--seed", str(s), "--assert"), "json", draws=(16, s, samples))

    def next_round(self) -> list:
        s = self._fresh_seed()
        return [
            self._fidelity(s),
            Job(("catalan", "--q", "16", "--n", "2", "3", "--samples", str(HAAR_SAMPLES),
                 "--seed", str(s), "--assert"), "json", draws=(16, s, HAAR_SAMPLES)),
            Job(("state-fidelity", "--q", "32", "--samples", str(HAAR_SAMPLES),
                 "--seed", str(s), "--assert"), "json"),
        ]


class Brickwork:
    """Dense brickwork evolution: dual relays, kicked Ising, and a Haar gate."""

    ROUND_S = 10.0
    GATE_FILES = 4
    FIXED = (
        ("zigzag", "--q", "2", "--L", "18", "--steps", "6", "--gate", "kicked-ising",
         "--J", QUARTER_PI, "--b", QUARTER_PI, "--assert"),
        ("kicked-ising", "--class", "T", "--L", "16", "--steps", "6", "--h", "0.3", "--assert"),
        ("kicked-ising", "--class", "L", "--L", "16", "--steps", "6", "--h", "0.3", "--assert"),
        ("zigzag", "--q", "3", "--L", "12", "--steps", "4", "--gate", "fourier", "--assert"),
    )

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.gate_files = [write_haar_gate(workdir / f"haar-q2-{i}.gate", 2, self.rng)
                           for i in range(self.GATE_FILES)]
        self.warmup = self._haar_zigzag(self.gate_files[0])

    @staticmethod
    def _haar_zigzag(path: str) -> Job:
        return Job(("zigzag", "--q", "2", "--L", "16", "--steps", "6", "--initial", "product",
                    "--gate", path), "csv", check="bound")

    def next_round(self) -> list:
        jobs = [Job(argv, "json" if argv[0] == "kicked-ising" else "csv") for argv in self.FIXED]
        jobs.append(self._haar_zigzag(self.gate_files[int(self.rng.integers(self.GATE_FILES))]))
        return [jobs[i] for i in self.rng.permutation(len(jobs))]


class GateAudit:
    """Many small jobs on seeded q=2 and q=3 Haar gate files.

    Every round holds the same job kinds, so the latency distribution does
    not depend on the seed; the gate pool is large because project-dual's
    iteration count varies widely from gate to gate.
    """

    ROUND_S = 0.27
    FILES_PER_Q = 64
    BASE = {2: "swap", 3: "fourier"}

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.gate_files = {
            q: [write_haar_gate(workdir / f"haar-q{q}-{i}.gate", q, self.rng)
                for i in range(self.FILES_PER_Q)]
            for q in (2, 3)
        }
        self.warmup = self._audit(2, self.gate_files[2][0])

    @staticmethod
    def _audit(q: int, path: str) -> Job:
        return Job(("audit-gate", "--gate", path, "--q", str(q), "--reconstruct", "--assert"),
                   "json")

    def _gate_file(self, q: int) -> str:
        return self.gate_files[q][int(self.rng.integers(self.FILES_PER_Q))]

    def next_round(self) -> list:
        jobs = []
        for q in (2, 3):
            jobs += [
                self._audit(q, self._gate_file(q)),
                Job(("project-dual", "--gate", self._gate_file(q), "--q", str(q),
                     "--max-iters", "300", "--assert"), "json"),
                Job(("scan-eps-delta", "--base", self.BASE[q], "--q", str(q),
                     "--seed", str(_seed(self.rng)), "--assert"), "csv"),
            ]
            jobs += [Job(("mps", "--q", str(q), "--chi", str(chi), "--seed", str(_seed(self.rng)),
                          "--assert"), "json") for chi in (2, 3)]
        return [jobs[i] for i in self.rng.permutation(len(jobs))]


WORKLOADS = {
    "haar-ensemble": HaarEnsemble,
    "brickwork": Brickwork,
    "gate-audit": GateAudit,
}
