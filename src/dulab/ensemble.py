"""Seeded Monte Carlo experiments over Haar ensembles and perturbation
families: operator-state fidelities, purity moments, and the joint scan of
the entanglement deficit against the dual-unitarity defect.

Reproducibility: every experiment is a pure function of its parameters and
the master seed.  Per-sample generators come from the splittable
SeedSequence spawn of the master seed (one child per sample index), so the
sample stream is identical no matter how samples are scheduled, and
aggregation uses numpy's pairwise summation.  Every sample is computed at
one BLAS thread, so the bytes depend on neither the OpenBLAS thread count
nor the number of threads a large stream is split over.
"""
from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .gates import (DUAL_TOL, Gate, _defect_from_probs, choi_defect, choi_probs,
                    haar_unitary, nearest_dual_q2, perturbed)
from .qinfo import _one_blas_thread, schmidt_probs

#: values whose magnitude is below this are rounding noise and reported as 0
NOISE_FLOOR = 1e-12


@dataclass(frozen=True)
class EnsembleStats:
    """Mean and standard error of one seeded Monte Carlo experiment."""

    n_samples: int
    mean: float
    standard_error: float
    master_seed: int
    values: tuple


def sample_rngs(master_seed: int, n: int):
    """One independent generator per sample, split from the master seed."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(master_seed).spawn(n)]


def _check_ensemble(q: int, n_samples: int) -> None:
    if q < 2:
        raise ValueError(f"local dimension q must be >= 2, got {q}")
    if n_samples < 2:
        raise ValueError(f"a standard error needs at least 2 samples, got {n_samples}")


#: Samples of a q = 16 gate (d = 256) per block when a stream is split over
#: threads.  A stream of dimension d is split into blocks of
#: FAN_OUT_SAMPLES * (256 / d)^4 samples, and runs in the calling thread when
#: one block holds it all.  Threads overlap only the GIL-free draw, QR and
#: SVD, whose share of a sample falls with d, hence the fourth power.
#: Measured on 2 cores, one loop against two threads (blocks of 1 at
#: q = 16): 25 q = 16 gates 0.55-0.61 s against 0.32-0.35 s, 2000 q = 8
#: gates 1.9-2.2 s against 1.1-1.3 s, 4000 q = 6 gates 1.2-1.6 s against
#: 1.0-1.3 s, 2000 q = 32 Haar states 0.56-0.59 s against 0.38-0.39 s, but
#: 3000 q = 5 gates 0.44-0.48 s against 0.45-0.49 s, 8192 q = 4 gates
#: 0.74-0.87 s against 0.84-1.05 s, and 25 q = 32 states 8 ms against 10 ms.
FAN_OUT_SAMPLES = 1


def _spectra_block(spectrum, rngs) -> np.ndarray:
    return np.array([spectrum(rng) for rng in rngs])


def _sample_spectra(spectrum, d: int, n_samples: int, seed: int) -> np.ndarray:
    """Row k is ``spectrum(rng_k)`` for the k-th generator split from ``seed``;
    ``d`` is the dimension a sample factorizes, which sets the fan-out point.

    A large stream is split into blocks that the calling thread and helper
    threads (one thread per core in all) take in turn; every sample computes
    at one BLAS thread, and the blocks join in sample order."""
    rngs = sample_rngs(seed, n_samples)
    block = math.ceil(FAN_OUT_SAMPLES * (256 / d) ** 4)
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(cores or 1, math.ceil(n_samples / block))
    with _one_blas_thread():
        if workers < 2:
            return _spectra_block(spectrum, rngs)
        # imported here: at module level it would add about 8 ms to every
        # dulab start, and only a fanned-out stream uses it
        from concurrent.futures import ThreadPoolExecutor

        blocks = [rngs[i:i + block] for i in range(0, n_samples, block)]
        rows = [None] * len(blocks)
        todo = iter(range(len(blocks)))  # shared: each next() hands out one block

        def drain():
            for i in todo:
                rows[i] = _spectra_block(spectrum, blocks[i])

        # the calling thread drains too, so it keeps its core
        with ThreadPoolExecutor(workers - 1) as pool:
            helpers = [pool.submit(drain) for _ in range(workers - 1)]
            drain()
            for h in helpers:
                h.result()
        return np.concatenate(rows)


def _choi_probs(q: int, rng) -> np.ndarray:
    return choi_probs(haar_unitary(q * q, rng), q)


@functools.lru_cache(maxsize=1)
def _choi_stream(q: int, n_samples: int, seed: int) -> np.ndarray:
    p = _sample_spectra(functools.partial(_choi_probs, q), q * q, n_samples, seed)
    p.flags.writeable = False
    return p


def choi_spectra(q: int, n_samples: int, seed: int) -> np.ndarray:
    """Operator-state spectra of Haar gates, one row of q^2 weights per sample.

    The last stream is kept for the life of the process, so the fidelity
    and the purity moments of one (q, n_samples, seed) draw it once; the
    array is read-only because every caller shares it."""
    _check_ensemble(q, n_samples)
    return _choi_stream(int(q), int(n_samples), int(seed))


def _stats(values: np.ndarray, master_seed: int) -> EnsembleStats:
    n = values.size
    return EnsembleStats(
        n_samples=n,
        mean=float(values.mean()),
        standard_error=float(values.std(ddof=1) / math.sqrt(n)),
        master_seed=master_seed,
        values=tuple(values),
    )


def haar_choi_fidelity(q: int, n_samples: int, seed: int) -> EnsembleStats:
    """Mean F(rho_AB', I/q^2) over Haar gates.

    Uses the pure-vs-identity shortcut F(rho, I/d) = tr(sqrt(rho))/sqrt(d)
    (the general fidelity routine agrees; see the cross-check tests).
    """
    return _stats(np.sqrt(choi_spectra(q, n_samples, seed)).sum(1) / q, seed)


def catalan_number(n: int) -> int:
    return math.factorial(2 * n) // (math.factorial(n) * math.factorial(n + 1))


def haar_purity_moments(q: int, ns, n_samples: int, seed: int) -> dict:
    """Means of tr(rho_AB'^n) for several n from one Haar sample stream;
    compare each with C_n / q^{2(n-1)}.

    The stream depends only on (seed, sample index), so each entry equals
    the single-n experiment run with the same seed.
    """
    ns = tuple(int(n) for n in ns)
    for n in ns:
        if n not in (2, 3, 4):
            raise ValueError(f"moment order must be 2, 3 or 4, got {n}")
    p = choi_spectra(q, n_samples, seed)
    return {n: _stats((p ** n).sum(1), seed) for n in ns}


def purity_moment_target(q: int, n: int) -> float:
    """Leading Haar average C_n / q^{2(n-1)}."""
    return catalan_number(n) / q ** (2 * (n - 1))


def _haar_state_probs(q: int, rng) -> np.ndarray:
    v = rng.standard_normal(q * q) + 1j * rng.standard_normal(q * q)
    v /= np.linalg.norm(v)
    return schmidt_probs(v, q)


def haar_state_fidelity(q: int, n_samples: int, seed: int) -> EnsembleStats:
    """Mean F(rho_A, I/q) over Haar two-qudit pure states."""
    _check_ensemble(q, n_samples)
    p = _sample_spectra(functools.partial(_haar_state_probs, q), q, n_samples, seed)
    return _stats(np.sqrt(p).sum(1) / math.sqrt(q), seed)


# ---------------------------------------------------------------------------
# entanglement deficit vs dual-unitarity defect
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpsDeltaPoint:
    """One point of the perturbation scan u(theta) = base exp(-i theta H)."""

    theta: float
    epsilon: float
    delta: float
    dist_to_projection: float | None


def random_hermitian_direction(d: int, seed) -> np.ndarray:
    """Random Hermitian matrix normalized to unit spectral norm."""
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (h + h.conj().T) / 2
    return h / np.linalg.norm(h, 2)


def _floor(x: float) -> float:
    return 0.0 if abs(x) < NOISE_FLOOR else float(x)


class NotDualError(ValueError):
    """The base gate of a scan is not dual unitary; ``defect`` is its
    ``choi_defect``."""

    def __init__(self, defect: float):
        super().__init__(f"base gate is not dual unitary: its choi_defect {defect!r} "
                         f"exceeds {DUAL_TOL:g}")
        self.defect = defect


def eps_delta_scan(base: Gate, thetas, seed: int) -> list:
    """Scan u(theta) = base exp(-i theta H) along a random unit-norm
    Hermitian direction H drawn from ``seed``.

    For each theta, two reductions of p = ``choi_probs(u)`` against 1/d,
    d = q^2: epsilon = D(p || 1/d) = sum[p ln(d p) - p + 1/d], the Bell (x)
    Bell entanglement deficit, whose terms are all >= 0 (no cancellation at
    small epsilon), and delta = sum |p - 1/d|, the choi-normalized dual
    defect; at q = 2 also the distance to the snapped dual gate.  Values
    below the 1e-12 noise floor are reported as exact zeros (and excluded
    from any log-log regression).
    """
    q = base.q
    d = q * q
    defect = choi_defect(base)
    if defect > DUAL_TOL:
        raise NotDualError(defect)
    h = random_hermitian_direction(d, seed)
    points = []
    for theta in thetas:
        theta = float(theta)
        u = perturbed(base, theta, h)
        p = choi_probs(u.matrix, q)
        eps_terms = np.full(d, 1 / d)  # 0 ln 0 = 0: a zero weight adds 1/d
        nz = p > 0
        eps_terms[nz] += p[nz] * np.log(d * p[nz]) - p[nz]
        dist = None
        if q == 2:
            _, dist = nearest_dual_q2(u)
            dist = _floor(dist)
        points.append(
            EpsDeltaPoint(
                theta=theta,
                epsilon=_floor(eps_terms.sum()),
                delta=_floor(_defect_from_probs(p, q)),
                dist_to_projection=dist,
            )
        )
    return points


def loglog_slope(points) -> tuple[float, float]:
    """Least-squares slope and intercept of log(delta) against log(epsilon),
    skipping floored-to-zero points."""
    xs = np.array([p.epsilon for p in points])
    ys = np.array([p.delta for p in points])
    mask = (xs > 0) & (ys > 0)
    if mask.sum() < 3:
        raise ValueError("need at least 3 nonzero points for a slope")
    slope, intercept = np.polyfit(np.log(xs[mask]), np.log(ys[mask]), 1)
    return float(slope), float(intercept)


def sqrt_law_constant(points) -> float:
    """Largest delta / sqrt(epsilon) over nonzero points: the empirical C in
    delta <= C sqrt(epsilon).  Pinsker's inequality makes sqrt(2) the
    reference: delta and epsilon are the l1 distance and relative entropy
    of one spectrum from the uniform one."""
    vals = [p.delta / math.sqrt(p.epsilon) for p in points if p.epsilon > 0 and p.delta > 0]
    return max(vals) if vals else 0.0
