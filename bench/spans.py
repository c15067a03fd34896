"""Traced mode: spans around calls into each dulab layer and the numpy/scipy kernel.

The tracer wraps public functions from outside the program.  Each target is
replaced in its defining module and in every dulab module that bound the
same object by name (``from .gates import haar_unitary`` in ``ensemble`` and
``mps``, the re-exports in ``dulab/__init__``), so a call is seen whichever
name it goes through.  Kernel targets are the ``numpy.linalg``, ``numpy`` and
``scipy.linalg`` attributes that dulab looks up at call time.  ``restore()``
puts every original object back.

Spans stay in memory as (id, parent id, job id, name, start, end, self time);
a span's self time is its duration minus the time its child spans cover.
"""
from __future__ import annotations

import gzip
import itertools
import json
import sys
import time
from collections import defaultdict

import numpy as np

#: dulab spans by module; "Gate" is the constructor's validation
DULAB_SPANS = {
    "cli": ("main",),
    "ensemble": ("haar_choi_fidelity", "haar_purity_moments", "haar_state_fidelity",
                 "sample_rngs", "eps_delta_scan"),
    "gates": ("Gate", "haar_unitary", "choi_defect", "gram_defect", "cartan_decompose",
              "nearest_dual_q2", "project_dual_iterative", "read_gate_file"),
    "circuit": ("evolve", "bond_entropies", "four_party_report", "reconstruct_distillable"),
    "mps": ("cut_entropies_exact", "replica_purity", "random_solvable", "solvability_defect",
            "transfer_gap"),
    "qinfo": ("reduce", "entropy_vn", "fidelity", "trace_norm", "apply_unitary", "purify",
              "uhlmann_align"),
}

#: kernel span -> (module, attribute)
KERNEL_SPANS = {
    "linalg.qr": ("numpy.linalg", "qr"),
    "linalg.eigvalsh": ("numpy.linalg", "eigvalsh"),
    "linalg.svd": ("numpy.linalg", "svd"),
    "linalg.eigh": ("numpy.linalg", "eigh"),
    "linalg.eigvals": ("numpy.linalg", "eigvals"),
    "numpy.einsum": ("numpy", "einsum"),
    "scipy.expm": ("scipy.linalg", "expm"),
}

def span_names() -> list:
    return [f"{mod}.{fn}" for mod, fns in DULAB_SPANS.items() for fn in fns] + list(KERNEL_SPANS)


def _targets():
    """(span, owner, attribute, is_kernel) for every span."""
    for mod, fns in DULAB_SPANS.items():
        module = sys.modules[f"dulab.{mod}"]
        for fn in fns:
            obj = getattr(module, fn)
            if isinstance(obj, type):
                yield f"{mod}.{fn}", obj, "__init__", False
            else:
                yield f"{mod}.{fn}", module, fn, False
    for span, (mod, attr) in KERNEL_SPANS.items():
        yield span, sys.modules[mod], attr, True


def _bytes_in(args, kwargs) -> int:
    return sum(a.nbytes for a in (*args, *kwargs.values()) if isinstance(a, np.ndarray))


class Tracer:
    """Wraps every span target while installed; holds the spans it records."""

    def __init__(self):
        self.job = None
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []  # open spans as [id, child time]
        self._ids = itertools.count()
        self._patches = []  # (owner, attribute, original)
        self._t0 = time.perf_counter()

    def install(self) -> None:
        dulab_modules = [m for name, m in list(sys.modules.items())
                         if name == "dulab" or name.startswith("dulab.")]
        try:
            for span, owner, attr, kernel in _targets():
                original = getattr(owner, attr)
                wrapper = self._wrap(span, original, kernel)
                sites = [(owner, attr)] + [
                    (m, name) for m in dulab_modules for name, value in list(vars(m).items())
                    if value is original and not (m is owner and name == attr)
                ]
                for site, name in sites:
                    self._patches.append((site, name, original))
                    setattr(site, name, wrapper)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._patches:
            site, name, original = self._patches.pop()
            setattr(site, name, original)

    def _wrap(self, span, fn, kernel):
        spans, stack, counts, ids = self.spans, self._stack, self.counts, self._ids
        # the solver's iteration count, summed: exact, unlike its time
        count_iterations = span == "gates.project_dual_iterative"
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [next(ids), 0.0]
            if kernel:
                counts[f"{span}.bytes_in"] += _bytes_in(args, kwargs)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
                spans.append((frame[0], parent[0] if parent else None, self.job, span,
                              start, end, end - start - frame[1]))
            if count_iterations:
                counts[f"{span}.iterations"] += result.iterations
            return result

        return traced

    def totals(self) -> dict:
        """span -> [calls, self seconds]."""
        out = {name: [0, 0.0] for name in span_names()}
        for *_, name, _start, _end, self_s in self.spans:
            out[name][0] += 1
            out[name][1] += self_s
        return out

    def write(self, path, header: dict) -> None:
        """Gzipped JSON lines: the header, then one [id, parent, job, name,
        start, end, self] array per span, times in seconds from tracer start."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, parent, job, name, start, end, self_s in self.spans:
                fh.write(json.dumps([sid, parent, job, name, start - self._t0,
                                     end - self._t0, self_s]) + "\n")
