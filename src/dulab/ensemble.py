"""Seeded Monte Carlo experiments over Haar ensembles and perturbation
families: operator-state fidelities, purity moments, and the joint scan of
the entanglement deficit against the dual-unitarity defect.

Reproducibility: every experiment is a pure function of its parameters and
the master seed.  Per-sample generators come from the splittable
SeedSequence spawn of the master seed (one child per sample index), so the
sample stream is identical no matter how samples would be scheduled, and
aggregation uses numpy's pairwise summation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .circuit import four_party_report
from .gates import Gate, choi_defect, choi_vector, haar_unitary, nearest_dual_q2
from .qinfo import bell_state, kron_states, schmidt_probs

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


def _sample_spectra(spectrum, n_samples: int, seed: int) -> np.ndarray:
    """Row k is ``spectrum(rng_k)`` for the k-th generator split from ``seed``."""
    return np.array([spectrum(rng) for rng in sample_rngs(seed, n_samples)])


def choi_spectra(q: int, n_samples: int, seed: int) -> np.ndarray:
    """Operator-state spectra of Haar gates, one row of q^2 weights per sample."""
    _check_ensemble(q, n_samples)
    d = q * q
    return _sample_spectra(
        lambda rng: schmidt_probs(choi_vector(haar_unitary(d, rng), q), d), n_samples, seed)


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
    p = _sample_spectra(lambda rng: _haar_state_probs(q, rng), n_samples, seed)
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


def eps_delta_scan(base: Gate, thetas, seed: int) -> list:
    """Scan u(theta) = base exp(-i theta H) along a random unit-norm
    Hermitian direction H drawn from ``seed``.

    For each theta: epsilon from the four-party Bell (x) Bell experiment,
    delta = the choi-normalized dual defect, and at q = 2 the distance to
    the snapped dual gate.  Values below the 1e-12 noise floor are reported
    as exact zeros (and excluded from any log-log regression).
    """
    q = base.q
    if choi_defect(base) > 1e-10:
        raise ValueError("base gate must be dual unitary")
    h = random_hermitian_direction(q * q, seed)
    state = kron_states(bell_state(q), bell_state(q))
    points = []
    for theta in thetas:
        theta = float(theta)
        u = Gate(q, base.matrix @ scipy.linalg.expm(-1j * theta * h))
        rep = four_party_report(u, state)
        dist = None
        if q == 2:
            _, dist = nearest_dual_q2(u)
            dist = _floor(dist)
        points.append(
            EpsDeltaPoint(
                theta=theta,
                epsilon=_floor(rep.epsilon),
                delta=_floor(choi_defect(u)),
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
    delta <= C sqrt(epsilon).  Recorded for the log only; no reference value
    exists to assert against."""
    vals = [p.delta / math.sqrt(p.epsilon) for p in points if p.epsilon > 0 and p.delta > 0]
    return max(vals) if vals else 0.0
