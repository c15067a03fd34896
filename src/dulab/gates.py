"""Two-site gates: reshuffling, dual-unitarity defects, Haar sampling,
Cartan decomposition and nearest-dual construction.

Index conventions, fixed once (a single consistent grouping is what makes
the choi = gram / q^2 identity hold):

* a gate u on q (x) q carries entries ``u[i*q+j, k*q+l] = u_{ij,kl}`` with
  row (i, j) i-major and column (k, l) k-major, site 1 = left kron factor;
* the dual (sideways) matrix regroups as ``M[(i,k),(j,l)] = u_{ij,kl}``,
  rows i-major, columns j-major;
* the 4-qudit output state rho_AB' orders its two factors (A, B') =
  (input-left, output-left); swapping those factors gives exactly
  M M^dagger / q^2.
"""
from __future__ import annotations

import cmath
import importlib.util
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .qinfo import (DensityMatrix, PureState, _qr, reduce, schmidt_probs, trace_norm,
                    unitarity_defect)

GATE_UNITARITY_TOL = 1e-10
DUAL_TOL = 1e-10
CARTAN_RECONSTRUCT_TOL = 1e-9
QUARTER = math.pi / 4
#: Cartan coefficients within this (radians) of a chamber wall lie on it
CHAMBER_WALL = 1e-12

_X = np.array([[0, 1], [1, 0]], dtype=complex)
#: diagonals of Z, Z (x) Z and Z (x) I + I (x) Z in the product basis
_Z = np.array([1.0, -1.0])
_ZZ = np.array([1.0, -1.0, -1.0, 1.0])
_Z_SUM = np.array([2.0, 0.0, 0.0, -2.0])


def _lazy_module(name: str):
    """Register ``name`` in ``sys.modules`` now and run its code on first
    attribute access, so that importing dulab does not pay for it."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    parent, _, child = name.rpartition(".")
    setattr(sys.modules[parent], child, module)
    return module


#: scipy.linalg runs on the first ``perturbed`` call (its ``expm``) and not
#: before: nothing else needs it, and importing it doubles the start-up
#: time.  It is registered at import all the same, because code that wraps
#: ``scipy.linalg.expm`` from outside (the benchmark's tracer) finds the
#: module in ``sys.modules``
_scipy_linalg = _lazy_module("scipy.linalg")

# columns are the Bell-like basis in which two-qubit interactions
# exp(-i sum J sigma sigma) are diagonal and one-site unitaries are real
_MAGIC = np.array(
    [
        [1, -1j, 0, 0],
        [0, 0, 1, -1j],
        [0, 0, -1, -1j],
        [1, 1j, 0, 0],
    ],
    dtype=complex,
) / math.sqrt(2)


@dataclass(frozen=True, eq=False)
class Gate:
    """A two-site unitary on q (x) q stored as a q^2 x q^2 matrix."""

    q: int
    matrix: np.ndarray

    def __init__(self, q: int, matrix):
        q = int(q)
        matrix = np.array(matrix, dtype=complex, copy=True)
        if q < 2:
            raise ValueError(f"local dimension must be >= 2, got {q}")
        if matrix.shape != (q * q, q * q):
            raise ValueError(f"matrix shape {matrix.shape} != ({q*q}, {q*q})")
        defect = unitarity_defect(matrix)
        if defect > GATE_UNITARITY_TOL:
            raise ValueError(f"matrix is not unitary: ||uu+ - I||_1 = {defect:.3e}")
        matrix.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "matrix", matrix)


@dataclass(frozen=True)
class DefectReport:
    """Dual-unitarity defect in both normalizations plus their consistency."""

    gram_defect: float
    choi_defect: float
    relation_ok: bool

    def is_dual(self, tol: float = DUAL_TOL) -> bool:
        return self.gram_defect <= tol and self.choi_defect <= tol


@dataclass(frozen=True, eq=False)
class CartanData:
    """phase, four one-site special unitaries and interaction coefficients.

    Reconstruction is e^{i phase} (u1 (x) u2) exp(-i sum J_a s_a s_a)
    (u3 (x) u4) with J in the canonical chamber pi/4 >= Jx >= Jy >= |Jz|.
    """

    phase: float
    u1: np.ndarray
    u2: np.ndarray
    u3: np.ndarray
    u4: np.ndarray
    J: tuple

    def reconstruct(self) -> Gate:
        m = (
            cmath.exp(1j * self.phase)
            * _kron_2x2(self.u1, self.u2)
            @ interaction_gate(*self.J)
            @ _kron_2x2(self.u3, self.u4)
        )
        return Gate(2, m)


# ---------------------------------------------------------------------------
# named gates
# ---------------------------------------------------------------------------

def identity_gate(q: int) -> Gate:
    return Gate(q, np.eye(q * q))


def swap_gate(q: int) -> Gate:
    m = np.zeros((q * q, q * q))
    for i in range(q):
        for j in range(q):
            m[j * q + i, i * q + j] = 1.0
    return Gate(q, m)


def cz_gate(q: int) -> Gate:
    """Controlled-phase diag(omega^{kl}); diag(1,1,1,-1) at q = 2."""
    w = cmath.exp(2j * math.pi / q)
    phases = [w ** (k * l) for k in range(q) for l in range(q)]
    return Gate(q, np.diag(phases))


def fourier_gate(q: int) -> Gate:
    """Discrete Fourier transform on the combined q^2-dimensional pair."""
    d = q * q
    w = cmath.exp(2j * math.pi / d)
    m = np.arange(d)
    return Gate(q, w ** np.outer(m, m) / math.sqrt(d))


def kicked_ising_gate(J: float, b: float, h: float) -> Gate:
    """Bulk kicked-Ising gate: Z-rotations, ZZ coupling, X kicks, ZZ,
    Z-rotations, each in closed form: Rz = e^{-i h Z/2} = diag(e^{-i h/2},
    e^{i h/2}), e^{-i J Z Z} diagonal, Rx = e^{-i b X} = cos b I - i sin b X."""
    rz = np.diag(np.exp(-1j * (h / 2) * _Z))
    rx = math.cos(b) * np.eye(2) - 1j * math.sin(b) * _X
    zz = np.diag(np.exp(-1j * J * _ZZ))
    m = np.kron(rz, rz) @ zz @ np.kron(rx, rx) @ zz @ np.kron(rz, rz)
    return Gate(2, m)


def kicked_ising_first_gate(J: float, h: float) -> Gate:
    """First-layer gate exp(-i J Z1 Z2 - i h Z1/2 - i h Z2/2), diagonal."""
    return Gate(2, np.diag(np.exp(-1j * (J * _ZZ + (h / 2) * _Z_SUM))))


def perturbed(base: Gate, theta: float, h: np.ndarray) -> Gate:
    """base exp(-i theta h): the gate a distance ~theta from ``base`` along
    the Hermitian direction h."""
    return Gate(base.q, base.matrix @ _scipy_linalg.expm(-1j * theta * h))


def haar_unitary(d: int, seed) -> np.ndarray:
    """Haar-distributed d x d unitary (Ginibre + QR with phase correction,
    Mezzadri, Notices AMS 54, 592 (2007)), C-contiguous.

    ``seed`` is anything accepted by ``np.random.default_rng`` (int,
    SeedSequence, Generator); the result is deterministic for a fixed seed.
    The Ginibre matrix (x + iy) / sqrt 2 is written straight into a
    column-major buffer (x and y are the two halves of one normal draw), and
    ``qinfo._qr`` factors it in place through LAPACK, the same way as
    ``_svdvals``: numpy's ``qr`` bits, with the GIL released.
    """
    xy = np.random.default_rng(seed).standard_normal((2, d, d))
    # x (1/sqrt 2) is numpy's complex-by-real division (x + iy) / sqrt 2, bit for bit
    xy *= 1 / math.sqrt(2)
    z = np.empty((d, d), dtype=complex, order="F")
    z.real, z.imag = xy
    q, diag = _qr(z)
    return np.multiply(q, diag / np.abs(diag), order="C")


def haar_gate(q: int, seed) -> Gate:
    return Gate(q, haar_unitary(q * q, seed))


# ---------------------------------------------------------------------------
# reshuffling and defects
# ---------------------------------------------------------------------------

def reshuffle(matrix: np.ndarray, q: int) -> np.ndarray:
    """The sideways regrouping M[(i,k),(j,l)] = u_{ij,kl} of a q^2 x q^2
    matrix; an involution, so it also maps M back to u."""
    return np.asarray(matrix).reshape(q, q, q, q).transpose(0, 2, 1, 3).reshape(q * q, q * q)


def choi_vector(matrix: np.ndarray, q: int) -> np.ndarray:
    """The 4-qudit model's pure output (two Bell pairs conjugated by the
    q^2 x q^2 matrix) as a flat vector on axes (A, B', C', D)."""
    return (np.asarray(matrix).reshape(q, q, q, q).transpose(2, 0, 1, 3) / q).reshape(-1)


def choi_output_state(g: Gate) -> DensityMatrix:
    """Output of the 4-qudit model reduced to (A, B') = (input-left,
    output-left)."""
    state = PureState(choi_vector(g.matrix, g.q), (g.q,) * 4)
    return reduce(state, {0, 1})


def gram_defect(g: Gate) -> float:
    """||M M+ - I||_1 of the dual matrix M."""
    return unitarity_defect(reshuffle(g.matrix, g.q))


def choi_probs(matrix: np.ndarray, q: int) -> np.ndarray:
    """Schmidt spectrum of the 4-qudit output at the (A, B') cut: the q^2
    eigenvalues of ``choi_output_state``, ascending."""
    return schmidt_probs(choi_vector(matrix, q), q * q)


def _defect_from_probs(p: np.ndarray, q: int) -> float:
    """sum |p - 1/q^2|: the 1-norm distance of an (A, B') spectrum p from
    the maximally mixed one."""
    return float(np.abs(p - 1 / q ** 2).sum())


def choi_defect(g: Gate) -> float:
    """||rho_AB' - I/q^2||_1, read from ``choi_probs``."""
    return _defect_from_probs(choi_probs(g.matrix, g.q), g.q)


def defects(g: Gate) -> DefectReport:
    gd = gram_defect(g)
    cd = choi_defect(g)
    return DefectReport(gram_defect=gd, choi_defect=cd, relation_ok=abs(cd * g.q ** 2 - gd) <= 1e-9)


# ---------------------------------------------------------------------------
# Cartan decomposition at q = 2
# ---------------------------------------------------------------------------

def interaction_gate(jx: float, jy: float, jz: float) -> np.ndarray:
    """exp(-i (jx XX + jy YY + jz ZZ)) in closed form (diagonal in the
    Bell-like basis with phases set by the three coefficients)."""
    phases = np.exp(
        -1j * np.array([jx - jy + jz, -jx + jy + jz, -(jx + jy + jz), jx + jy - jz])
    )
    return _MAGIC @ (phases[:, None] * _MAGIC.conj().T)


def _joint_diag_polish(a, b, p, sweeps=8, tol=1e-15):
    """Jacobi sweeps rotating an orthogonal basis until it diagonalizes the
    commuting real symmetric pair (a, b) to machine precision, also inside
    clusters of (near-)degenerate eigenvalues of a, where eigh alone leaves
    the basis mixed.  Each rotation takes the closed-form angle phi/2 that
    minimizes the pair's summed off-diagonal weight at (i, j)."""
    a = p.T @ a @ p
    b = p.T @ b @ p
    n = a.shape[0]
    pairs = [(i, j) for i in range(n - 1) for j in range(i + 1, n)]
    for _ in range(sweeps):
        if max(max(abs(a[i, j]), abs(b[i, j])) for i, j in pairs) < tol:
            break
        for i, j in pairs:
            x = np.array([a[i, i] - a[j, j], b[i, i] - b[j, j]])
            y = np.array([2.0 * a[i, j], 2.0 * b[i, j]])
            phi = 0.5 * math.atan2(2.0 * (x @ y), x @ x - y @ y)
            if abs(math.sin(phi)) < tol:
                continue
            rot = np.eye(n)
            rot[i, i] = rot[j, j] = math.cos(phi / 2)
            rot[j, i] = math.sin(phi / 2)
            rot[i, j] = -rot[j, i]
            a = rot.T @ a @ rot
            b = rot.T @ b @ rot
            p = p @ rot
    return p


def _diag_symmetric_unitary(s: np.ndarray):
    """Diagonalize a complex symmetric unitary by a real orthogonal matrix,
    deterministically: eigenvalues ordered by descending real then imaginary
    part, eigenvector signs fixed by the largest component, det(p) = +1."""
    _, p = np.linalg.eigh(s.real)
    p = _joint_diag_polish(s.real, s.imag, p)
    lam = np.einsum("ji,jk,ki->i", p, s, p)
    order = np.lexsort((-lam.imag.round(9), -lam.real.round(9)))
    p = p[:, order]
    for k in range(len(lam)):
        col = p[:, k]
        if col[np.argmax(np.abs(col))] < 0:
            p[:, k] = -col
    if np.linalg.det(p) < 0:
        p[:, -1] = -p[:, -1]
    lam = np.einsum("ji,jk,ki->i", p, s, p)
    return lam, p


def _kron_2x2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a, b) of two 2x2 matrices, the same products without
    np.kron's general-shape set-up."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


def _kron_factor_2x2(l4: np.ndarray):
    """Split a (scalar times) kron product of 2x2 unitaries into
    (a, b, c) with det a = det b = 1, |c| = 1 and l4 = c * kron(a, b)."""
    u, s, vh = np.linalg.svd(reshuffle(l4, 2))
    a = (u[:, 0] * math.sqrt(s[0])).reshape(2, 2)
    b = (vh[0, :] * math.sqrt(s[0])).reshape(2, 2)

    def fix(m):
        m = m / cmath.sqrt(np.linalg.det(m))
        v = m.flat[int(np.argmax(np.abs(m)))]
        if (abs(v.real) > 1e-9 and v.real < 0) or (abs(v.real) <= 1e-9 and v.imag < 0):
            m = -m
        return m

    a, b = fix(a), fix(b)
    c = np.trace(_kron_2x2(a, b).conj().T @ l4) / 4
    return a, b, c


#: chamber moves on the eigenpairs (theta_k, column k of p) of m^T m, in the
#: order of the J formula in ``cartan_decompose``: J_k -> J_k - pi/2 adds pi
#: to theta at _SHIFT[k]; exchanging the axes (i, j) exchanges the eigenpairs
#: _SWAP[i, j]; negating J_i and J_j reorders the eigenpairs by _FLIP[i, j]
_SHIFT = ([0, 3], [1, 3], [0, 1])
_SWAP = {(0, 1): [0, 1], (1, 2): [0, 3]}
_FLIP = {(0, 1): [1, 0, 3, 2], (0, 2): [2, 3, 0, 1], (1, 2): [3, 2, 1, 0]}


def cartan_decompose(g: Gate) -> CartanData:
    """Cartan/KAK data of a two-qubit gate, J in the canonical chamber.

    Algorithm: conjugate into the Bell-like basis, orthogonally diagonalize
    the symmetric unitary m^T m = p diag(e^{2i theta}) p^T (deterministic
    ordering and tie-breaking), then walk J into
    pi/4 >= Jx >= Jy >= |Jz| (with Jz >= 0 when Jx = pi/4), each wall held
    to within CHAMBER_WALL, by coefficient shifts, axis swaps and pairwise
    sign flips, each a pi shift of two eigenphases or a reordering of the
    eigenpairs.  The one-site factors are split off the walked p and
    m p diag(e^{-i theta}) once.  Failure to reconstruct within 1e-9 is a
    hard error.
    """
    if g.q != 2:
        raise ValueError(f"Cartan decomposition implemented for q = 2 only, got q = {g.q}")
    u = g.matrix
    phase0 = np.angle(np.linalg.det(u)) / 4
    m = _MAGIC.conj().T @ (u * cmath.exp(-1j * phase0)) @ _MAGIC
    lam, p = _diag_symmetric_unitary(m.T @ m)
    theta = np.angle(lam) / 2
    if np.real(np.prod(np.exp(1j * theta))) < 0:
        theta[-1] += math.pi
    J = np.array(
        [
            (-theta[0] + theta[1] + theta[2] - theta[3]) / 4,
            (theta[0] - theta[1] + theta[2] - theta[3]) / 4,
            (-theta[0] - theta[1] + theta[2] + theta[3]) / 4,
        ]
    )

    # canonicalization moves: each changes J and the eigenpairs together
    def shift(k, n):
        J[k] -= n * math.pi / 2
        theta[_SHIFT[k]] += n * math.pi

    def swap_axes(i, j):
        a, b = _SWAP[i, j]
        theta[[a, b]] = theta[[b, a]]
        p[:, [a, b]] = p[:, [b, a]]
        p[:, b] = -p[:, b]  # keeps det p = +1
        J[[i, j]] = J[[j, i]]

    def flip_pair(i, j):
        theta[:] = theta[_FLIP[i, j]]
        p[:] = p[:, _FLIP[i, j]]
        J[i] = -J[i]
        J[j] = -J[j]

    def sort_axes():
        for _ in range(2):
            if abs(J[0]) < abs(J[1]) - 1e-15:
                swap_axes(0, 1)
            if abs(J[1]) < abs(J[2]) - 1e-15:
                swap_axes(1, 2)

    # every J into [-pi/4 - wall, pi/4 - wall), so |J| <= pi/4 + wall
    for k in range(3):
        n = int(math.floor((J[k] + QUARTER + CHAMBER_WALL) / (math.pi / 2)))
        if n:
            shift(k, n)
    sort_axes()
    # exact sign tests: Jx, Jy >= 0 with no slack, so Jy >= |Jz| holds to
    # the one 1e-15 slack of the magnitude order
    if J[0] < 0 and J[1] < 0:
        flip_pair(0, 1)
    elif J[0] < 0:
        flip_pair(0, 2)
    elif J[1] < 0:
        flip_pair(1, 2)
    if QUARTER - J[0] < CHAMBER_WALL and J[2] < -1e-15:
        # on the Jx = pi/4 wall: Jx -> pi/2 - Jx stays on it and Jz -> -Jz,
        # which can put Jx below Jy, so the axes are sorted again
        shift(0, 1)
        flip_pair(0, 2)
        sort_axes()

    # m = o1 diag(e^{i theta}) p^T with o1, p in SO(4), which the Bell-like
    # basis maps onto SU(2) (x) SU(2)
    o1 = m @ p * np.exp(-1j * theta)
    if np.abs(o1.imag).max() > 1e-6:
        raise ValueError("orthogonal factor came out non-real; decomposition failed")
    u1, u2, c1 = _kron_factor_2x2(_MAGIC @ o1.real @ _MAGIC.conj().T)
    u3, u4, c2 = _kron_factor_2x2(_MAGIC @ p.T @ _MAGIC.conj().T)
    phi = phase0 + theta.sum() / 4 + np.angle(c1) + np.angle(c2)
    phi = float((phi + math.pi) % (2 * math.pi) - math.pi)
    data = CartanData(phase=phi, u1=u1, u2=u2, u3=u3, u4=u4, J=tuple(float(j) for j in J))
    err = trace_norm(data.reconstruct().matrix - u)
    if err > CARTAN_RECONSTRUCT_TOL:
        raise ValueError(f"Cartan reconstruction failed: ||u - rebuilt||_1 = {err:.3e}")
    return data


# ---------------------------------------------------------------------------
# nearest dual unitary (q = 2) and iterative projection (any q)
# ---------------------------------------------------------------------------

def nearest_dual_q2(g: Gate) -> tuple[Gate, float]:
    """Snap the two interaction coefficients nearest to +-pi/4 onto +-pi/4.

    Keeps the phase, the four one-site factors and the coefficient farthest
    from +-pi/4 (largest |cos 2J|); ties pick the lexicographically first
    pair (x before y before z).  The result is exactly dual unitary and the
    second return value is ||u - u_x||_1.
    """
    data = cartan_decompose(g)
    J = np.array(data.J)
    closeness = np.abs(np.cos(2 * J))
    order = sorted(range(3), key=lambda k: (closeness[k], k))
    J_snap = J.copy()
    for k in order[:2]:
        J_snap[k] = QUARTER if J[k] >= 0 else -QUARTER
    ux = replace(data, J=tuple(float(j) for j in J_snap)).reconstruct()
    return ux, trace_norm(g.matrix - ux.matrix)


def _polar_unitary(m: np.ndarray) -> np.ndarray:
    u, _, vh = np.linalg.svd(m)
    return u @ vh


@dataclass(frozen=True, eq=False)
class ProjectionResult:
    gate: Gate
    converged: bool
    defect_trace: tuple

    @property
    def iterations(self) -> int:
        return len(self.defect_trace) - 1


def project_dual_iterative(g: Gate, max_iters: int = 200, tol: float = 1e-10) -> ProjectionResult:
    """Alternating polar projections between the gate and its dual matrix.

    Per iteration: polar-project the dual matrix to a unitary, reshuffle
    back, then polar-project the gate matrix to a unitary; stop when the
    choi defect drops below tol or after max_iters.  There is no known
    convergence guarantee; non-convergence is reported via the flag and the
    per-iteration defect trace, never an exception.

    ``defect_trace[k]`` is the choi defect of the k-th iterate (the input
    at k = 0), read from the singular values s of its dual matrix that the
    next polar step computes: the dual matrix is q times a row permutation
    of the Choi matrix, so the (A, B') spectrum is (s / q)^2.  Only the
    returned gate is validated as a ``Gate``; the iterates in between are
    polar factors, unitary to rounding.
    """
    q = g.q
    u = g.matrix
    trace = []
    for k in range(max_iters + 1):
        w, s, vh = np.linalg.svd(reshuffle(u, q))
        trace.append(_defect_from_probs((s / q) ** 2, q))
        if trace[-1] <= tol or k == max_iters:
            break
        u = _polar_unitary(reshuffle(w @ vh, q))
    converged = trace[-1] <= tol
    return ProjectionResult(g if len(trace) == 1 else Gate(q, u), converged, tuple(trace))


# ---------------------------------------------------------------------------
# gate file format
# ---------------------------------------------------------------------------

def write_gate_file(g: Gate, path) -> None:
    """Text format: line 1 is q, then q^2 lines of q^2 entries "re,im"."""
    lines = [str(g.q)]
    for row in g.matrix:
        lines.append(" ".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_gate_file(path) -> Gate:
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read().splitlines()
    lines = [ln for ln in raw if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty gate file")
    try:
        q = int(lines[0].strip())
    except ValueError:
        raise ValueError(f"{path}:1: expected the local dimension q, got {lines[0]!r}") from None
    d = q * q
    if len(lines) - 1 != d:
        raise ValueError(f"{path}: expected {d} matrix rows, found {len(lines) - 1}")
    m = np.zeros((d, d), dtype=complex)
    for r, line in enumerate(lines[1:]):
        parts = line.split()
        if len(parts) != d:
            raise ValueError(f"{path}:{r + 2}: expected {d} entries, found {len(parts)}")
        for c, token in enumerate(parts):
            try:
                re_s, im_s = token.split(",")
                z = complex(float(re_s), float(im_s))
            except ValueError:
                raise ValueError(f"{path}:{r + 2}: bad entry {token!r} (want re,im)") from None
            if not cmath.isfinite(z):
                raise ValueError(f"{path}:{r + 2}: non-finite entry {token!r}")
            m[r, c] = z
    return Gate(q, m)
