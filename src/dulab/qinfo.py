"""Quantum states, entropies, divergences and purification tools.

Every quantity in this package is ultimately measured through the functions
here.  Conventions, fixed once:

* entropies and divergences are in nats (natural log);
* subsystems are an explicit ordered ``dims`` list, position-indexed from 0,
  with subsystem 0 the slowest (most significant) index of the flat vector,
  i.e. ``kron(a, b)`` puts ``a`` at position 0;
* every partial trace, marginal spectrum, local unitary and Uhlmann
  alignment groups subsystems by one rule, ``_axes``:
  the listed positions in the order given, then the others in position
  order; a repeated or out-of-range position is a ValueError;
* ``trace_norm_distance`` returns the full 1-norm ``||rho - sigma||_1``
  (the halved trace distance is half of it);
* fidelity is the square-root (Uhlmann) convention
  ``F = tr sqrt(sqrt(rho) sigma sqrt(rho))``, so ``F in [0, 1]`` and a pure
  state gives ``sqrt(<psi|sigma|psi>)``;
* an infinite relative entropy is the explicit ``math.inf`` sentinel;
* every ``dulab`` command, and every ``circuit.evolve`` and
  ``circuit.chain_probs`` call, computes at one thread of numpy's bundled
  OpenBLAS (``_one_blas_thread``), so its bytes do not depend on the
  thread count;
* every Schmidt spectrum and trace norm is one values-only SVD,
  ``_svdvals``, and every Haar draw's QR is one in-place ``_qr``: both give
  numpy's bits, and both call LAPACK in numpy's bundled OpenBLAS with the
  GIL released;
* the thread pin and both kernels find that OpenBLAS by one lookup,
  ``_openblas``, and fall back together when it gives None.

All functions are pure and all values are immutable after construction, so
they are safe to share across threads without locking.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import math
import os
import threading
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

#: eigenvalues of a density matrix in [EIG_CLAMP, 0) are rounding noise and
#: treated as 0; anything more negative is an invalid state.
EIG_CLAMP = -1e-10
HERM_TOL = 1e-12
TRACE_TOL = 1e-12
NORM_TOL = 1e-12
#: sigma eigenvalues below this count as outside the support.
SUPPORT_TOL = 1e-12
#: rho weight on sigma's null space above this triggers the +inf sentinel.
OVERLAP_TOL = 1e-10

INF = math.inf


def _as_complex(a) -> np.ndarray:
    out = np.array(a, dtype=complex, copy=True)
    out.setflags(write=False)
    return out


def _dims_tuple(dims) -> tuple:
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ValueError(f"subsystem dimensions must be positive, got {dims}")
    return dims


@dataclass(frozen=True, eq=False)
class PureState:
    """State vector over an ordered list of subsystem dimensions."""

    amplitudes: np.ndarray
    dims: tuple

    def __init__(self, amplitudes, dims: Sequence[int]):
        amplitudes = _as_complex(np.asarray(amplitudes).reshape(-1))
        dims = _dims_tuple(dims)
        if int(np.prod(dims)) != amplitudes.size:
            raise ValueError(
                f"product of dims {dims} is {int(np.prod(dims))}, "
                f"but the vector has length {amplitudes.size}"
            )
        norm = float(np.linalg.norm(amplitudes))
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"state not normalized: |psi| = {norm}")
        if abs(norm - 1.0) > NORM_TOL:
            amplitudes = _as_complex(amplitudes / norm)
        object.__setattr__(self, "amplitudes", amplitudes)
        object.__setattr__(self, "dims", dims)

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)

    def tensor(self) -> np.ndarray:
        return self.amplitudes.reshape(self.dims)

    def density(self) -> "DensityMatrix":
        # a state by construction; its trace |psi|^2 may miss 1 by up to 2 NORM_TOL
        v = self.amplitudes
        return DensityMatrix(np.outer(v, v.conj()), self.dims, validate=False)

    def overlap(self, other: "PureState") -> complex:
        if self.dims != other.dims:
            raise ValueError(f"dims mismatch: {self.dims} vs {other.dims}")
        return complex(np.vdot(other.amplitudes, self.amplitudes))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, PSD (within tolerance) operator over dims."""

    matrix: np.ndarray
    dims: tuple

    def __init__(self, matrix, dims: Sequence[int], validate: bool = True):
        matrix = _as_complex(np.asarray(matrix))
        dims = _dims_tuple(dims)
        d = int(np.prod(dims))
        if matrix.shape != (d, d):
            raise ValueError(f"matrix shape {matrix.shape} != ({d}, {d}) from dims {dims}")
        if validate:
            herm = float(np.abs(matrix - matrix.conj().T).max())
            if herm > HERM_TOL:
                raise ValueError(f"matrix not Hermitian: max deviation {herm}")
            tr = complex(np.trace(matrix))
            if abs(tr - 1.0) > TRACE_TOL:
                raise ValueError(f"trace is {tr}, not 1")
            lo = float(np.linalg.eigvalsh(matrix)[0])
            if lo < EIG_CLAMP:
                raise ValueError(f"smallest eigenvalue {lo} below {EIG_CLAMP}")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "dims", dims)

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


def maximally_mixed(dims: Sequence[int]) -> DensityMatrix:
    d = int(np.prod(tuple(dims)))
    return DensityMatrix(np.eye(d) / d, dims, validate=False)


def bell_state(q: int) -> PureState:
    """(1/sqrt q) sum_i |ii> on two q-dimensional subsystems."""
    v = np.eye(q, dtype=complex).reshape(-1) / math.sqrt(q)
    return PureState(v, (q, q))


def kron_states(*states: PureState) -> PureState:
    v = np.array([1.0 + 0j])
    dims: tuple = ()
    for s in states:
        v = np.kron(v, s.amplitudes)
        dims = dims + s.dims
    return PureState(v, dims)


# ---------------------------------------------------------------------------
# partial trace, local operators
# ---------------------------------------------------------------------------

def _axes(n: int, first) -> tuple:
    """The axis order of n subsystems with ``first`` in the order given, then
    the others in position order: the one rule by which every regrouping of
    subsystems checks positions."""
    first = tuple(int(i) for i in first)
    if len(set(first)) != len(first) or not all(0 <= i < n for i in first):
        raise ValueError(f"subsystem positions {first} repeated or out of range "
                         f"for {n} subsystems")
    return first + tuple(i for i in range(n) if i not in first)


def _pure_matrix(amplitudes, dims: Sequence[int], first) -> np.ndarray:
    """A vector over ``dims`` as a matrix whose rows index the subsystems
    ``first`` and whose columns index the others, in ``_axes`` order."""
    axes = _axes(len(dims), first)
    rows = int(np.prod([dims[i] for i in first]))
    return np.reshape(amplitudes, dims).transpose(axes).reshape(rows, -1)


def reduce(state: Union[PureState, DensityMatrix], keep) -> DensityMatrix:
    """Partial trace over the complement of ``keep``; the kept subsystems
    stay in position order."""
    keep = sorted(keep)
    if isinstance(state, PureState):
        t = _pure_matrix(state.amplitudes, state.dims, keep)
        rho = t @ t.conj().T
    else:
        # row and column indices each grouped as ``_pure_matrix`` groups a vector
        n = state.n_subsystems
        axes = _axes(n, keep)
        rows = int(np.prod([state.dims[i] for i in keep]))
        t = state.matrix.reshape(state.dims * 2).transpose(axes + tuple(n + i for i in axes))
        rho = np.einsum("abcb->ac", t.reshape(rows, -1, rows, len(state.matrix) // rows))
    return DensityMatrix(rho, tuple(state.dims[k] for k in keep), validate=False)


def apply_unitary(state: PureState, u: np.ndarray, positions: Sequence[int]) -> PureState:
    """Apply u to the listed subsystems (in the given order) of a pure state."""
    positions = tuple(positions)
    t = _pure_matrix(state.amplitudes, state.dims, positions)
    u = np.asarray(u, dtype=complex)
    if u.shape != (len(t), len(t)):
        raise ValueError(f"operator shape {u.shape} does not match subsystem dims {len(t)}")
    axes = _axes(state.n_subsystems, positions)
    v = _pure_matrix(u @ t, [state.dims[i] for i in axes], np.argsort(axes))
    return PureState(v, state.dims)


# ---------------------------------------------------------------------------
# entropies
# ---------------------------------------------------------------------------

def _clamped_probs(eigs: np.ndarray) -> np.ndarray:
    lo = float(eigs.min()) if eigs.size else 0.0
    if lo < EIG_CLAMP:
        raise ValueError(f"eigenvalue {lo} below clamping window {EIG_CLAMP}")
    return np.clip(eigs, 0.0, None)


def schmidt_probs(amplitudes: np.ndarray, dl: int) -> np.ndarray:
    """Schmidt weights (ascending) of a vector reshaped to a (dl, -1) matrix:
    the squared singular values of that matrix, so a weight p carries an
    error of about 1e-16 sqrt(p).

    The result is a C-contiguous copy: a reversed view would pass its
    negative stride on to ufunc results and change the order sums add in.
    """
    s = _svdvals(np.asarray(amplitudes).reshape(dl, -1))
    return np.ascontiguousarray((s * s)[::-1])


def marginal_probs(state: PureState, keep) -> np.ndarray:
    """Spectrum of the marginal of a pure state on ``keep``: the Schmidt
    weights of the vector with ``keep`` moved to the front, cut after it."""
    t = _pure_matrix(state.amplitudes, state.dims, sorted(keep))
    return schmidt_probs(t, len(t))


def entropy_from_probs(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > 0]
    # + 0.0 turns the -0.0 of a pure spectrum into 0.0
    return float(-(p * np.log(p)).sum()) + 0.0 if p.size else 0.0


def entropy_vn(rho: DensityMatrix) -> float:
    """Von Neumann entropy -tr(rho ln rho), in nats; 0 ln 0 := 0."""
    return entropy_from_probs(_clamped_probs(rho.eigenvalues()))


# ---------------------------------------------------------------------------
# distances and divergences
# ---------------------------------------------------------------------------

def trace_norm(a: np.ndarray) -> float:
    """Nuclear norm ||a||_1 (sum of singular values) of a general matrix."""
    a = np.asarray(a)
    if not a.size:
        return 0.0
    return float(_svdvals(a).sum())


def unitarity_defect(m: np.ndarray) -> float:
    """||m m+ - I||_1 of a square matrix: the |eigenvalues| of a Hermitian difference."""
    m = np.asarray(m)
    return float(np.abs(np.linalg.eigvalsh(m @ m.conj().T - np.eye(m.shape[0]))).sum())


def _check_same_dims(rho: DensityMatrix, sigma: DensityMatrix) -> None:
    if rho.dims != sigma.dims:
        raise ValueError(f"dims mismatch: {rho.dims} vs {sigma.dims}")


def trace_norm_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """||rho - sigma||_1, the trace norm of the difference."""
    _check_same_dims(rho, sigma)
    return trace_norm(rho.matrix - sigma.matrix)


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    """sqrt of a density matrix; eigenvalues below EIG_CLAMP are a ValueError."""
    w, v = np.linalg.eigh(m)
    return (v * np.sqrt(_clamped_probs(w))) @ v.conj().T


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity tr sqrt(sqrt(rho) sigma sqrt(rho)), in [0, 1], as the
    nuclear norm ||sqrt(rho) sqrt(sigma)||_1 of dense square roots.

    The dense oracle: exact to rounding when both arguments are full rank.
    A rank-deficient argument's noise eigenvalues, near 1e-17, have square
    roots near 3e-9, so the result can be off by about 1e-8.  Given factors
    rho = M M+ and sigma = N N+, ||M+ N||_1 is the same fidelity with no
    square root; ``circuit.four_party_report`` takes F_in and F_out so.
    """
    _check_same_dims(rho, sigma)
    return min(1.0, trace_norm(_psd_sqrt(rho.matrix) @ _psd_sqrt(sigma.matrix)))


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """tr rho (ln rho - ln sigma), or the +inf sentinel outside sigma's support."""
    _check_same_dims(rho, sigma)
    s, v = np.linalg.eigh(sigma.matrix)
    outside = s < SUPPORT_TOL
    if outside.any():
        weight = float(
            np.einsum("ij,jk,ki->", v[:, outside].conj().T, rho.matrix, v[:, outside]).real
        )
        if weight > OVERLAP_TOL:
            return INF
    p = _clamped_probs(rho.eigenvalues())
    tr_rho_ln_rho = -entropy_from_probs(p)
    supp = ~outside
    diag = np.einsum("ij,jk,ki->i", v[:, supp].conj().T, rho.matrix, v[:, supp]).real
    diag = np.clip(diag, 0.0, None)
    tr_rho_ln_sigma = float((diag * np.log(s[supp])).sum())
    return tr_rho_ln_rho - tr_rho_ln_sigma


def sandwiched_renyi(rho: DensityMatrix, sigma: DensityMatrix, alpha: float) -> float:
    """Sandwiched Renyi divergence of order alpha.

    (1/(alpha-1)) ln tr[(sigma^((1-alpha)/2 alpha) rho sigma^(...))^alpha];
    equals -2 ln F at alpha = 1/2 and is nondecreasing in alpha.  Powers of
    sigma are taken on its support; weight of rho outside that support gives
    the +inf sentinel when alpha > 1.
    """
    if alpha <= 0 or alpha == 1.0:
        raise ValueError(f"alpha must be in (0,1) or (1,inf), got {alpha}")
    _check_same_dims(rho, sigma)
    s, v = np.linalg.eigh(sigma.matrix)
    supp = s >= SUPPORT_TOL
    if not supp.all():
        weight = float(
            np.einsum("ij,jk,ki->", v[:, ~supp].conj().T, rho.matrix, v[:, ~supp]).real
        )
        if alpha > 1 and weight > OVERLAP_TOL:
            return INF
    e = (1.0 - alpha) / (2.0 * alpha)
    vs = v[:, supp]
    sigma_e = (vs * (s[supp] ** e)) @ vs.conj().T
    inner = sigma_e @ rho.matrix @ sigma_e
    ev = np.clip(np.linalg.eigvalsh((inner + inner.conj().T) / 2), 0.0, None)
    # eigenvalues at relative rounding noise are outside the numerical
    # support; alpha < 1 would otherwise blow them up as ev**alpha
    cut = 1e-14 * max(1.0, float(ev.max(initial=0.0)))
    ev = ev[ev > cut]
    tr = float((ev ** alpha).sum())
    if tr <= 0.0:
        return INF
    return math.log(tr) / (alpha - 1.0)


# ---------------------------------------------------------------------------
# purification and Uhlmann alignment
# ---------------------------------------------------------------------------

def purify(rho: DensityMatrix, ancilla_dim: int | None = None) -> PureState:
    """Purification of rho with the ancilla appended as the last subsystem.

    Default ancilla dimension is the rank of rho.  A larger ``ancilla_dim``
    pads with zero amplitudes; a smaller one keeps the largest eigenvectors
    and renormalizes (a best-effort purification whose marginal is the
    truncated state).
    """
    w, v = np.linalg.eigh(rho.matrix)
    w = _clamped_probs(w)[::-1]
    v = v[:, ::-1]
    rank = max(1, int((w > 1e-12).sum()))
    k = rank if ancilla_dim is None else int(ancilla_dim)
    if k < 1:
        raise ValueError("ancilla_dim must be >= 1")
    m = min(k, rank)
    amp = np.zeros((rho.matrix.shape[0], k), dtype=complex)
    amp[:, :m] = v[:, :m] * np.sqrt(w[:m])
    vec = amp.reshape(-1)
    vec = vec / np.linalg.norm(vec)
    return PureState(vec, rho.dims + (k,))


def uhlmann_align(psi: PureState, phi: PureState, ancilla) -> tuple[np.ndarray, float]:
    """Unitary W on the ancilla factors maximizing |<phi|(I (x) W)|psi>|.

    psi and phi must carry the same system dims and equal total ancilla
    dimension.  W is built from the SVD of the cross-Gram matrix of the two
    purifications, and the achieved overlap equals the fidelity of the two
    reduced system states.
    """
    ancilla = sorted(ancilla)
    system = _axes(psi.n_subsystems, ancilla)[len(ancilla):]
    if psi.n_subsystems != phi.n_subsystems:
        raise ValueError("states have different numbers of subsystems")
    sys_dims_psi = tuple(psi.dims[i] for i in system)
    sys_dims_phi = tuple(phi.dims[i] for i in system)
    if sys_dims_psi != sys_dims_phi:
        raise ValueError(f"system dims differ: {sys_dims_psi} vs {sys_dims_phi}")
    x, y = (_pure_matrix(st.amplitudes, st.dims, system) for st in (psi, phi))
    if x.shape != y.shape:
        raise ValueError(f"ancilla dims mismatch: {x.shape[1]} vs {y.shape[1]}")
    k = y.conj().T @ x
    u, s, vh = np.linalg.svd(k)
    w = np.conj(u @ vh)
    return w, float(s.sum())


# ---------------------------------------------------------------------------
# numpy's bundled OpenBLAS: thread count, the values-only SVD and the QR
# ---------------------------------------------------------------------------

#: the routines of numpy's bundled OpenBLAS that dulab calls, each with its
#: (argtypes, restype); argtypes None leaves ctypes to convert each argument
_ROUTINES = {
    "scipy_openblas_get_num_threads64_": ([], ctypes.c_int),
    "scipy_openblas_set_num_threads64_": ([ctypes.c_int], None),
    "scipy_zgesdd_64_": (None, None),
    "scipy_zgeqrf_64_": ([ctypes.c_void_p] * 8, None),  # every argument is a pointer
    "scipy_zungqr_64_": ([ctypes.c_void_p] * 9, None),
}


@functools.cache
def _openblas():
    """The OpenBLAS that numpy bundles, with the ``_ROUTINES`` typed, or None
    when numpy bundles none or it lacks one of them.  The thread pin and both
    LAPACK kernels fall back together on None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                        "libscipy_openblas64_*.so")
    for path in glob.glob(libs):
        try:
            lib = ctypes.CDLL(path)
            for name, (argtypes, restype) in _ROUTINES.items():
                fn = getattr(lib, name)
                fn.argtypes, fn.restype = argtypes, restype
        except (OSError, AttributeError):
            continue
        return lib
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body, or each call of a function it decorates, at one BLAS
    thread, then restore the previous count."""
    lib = _openblas()
    if lib is None:
        yield
        return
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


#: matrices with at most this many entries keep their LAPACK workspace per
#: thread, routine and shape; a larger one queries and allocates it on every
#: call
_KEPT_WORKSPACE_ENTRIES = 256 * 256

_kept_workspaces = threading.local()

_JOBZ_N = ctypes.c_char_p(b"N")
_NULL = ctypes.c_void_p()
_CHAR_LEN = ctypes.c_size_t(1)  # gfortran's hidden length of the JOBZ string


def _lapack_call(make, m: int, n: int):
    """``make(m, n)``: a LAPACK call with its own workspace, kept per thread
    under (make, m, n) when an m x n matrix is small, so calls on several
    threads never share work arrays."""
    if m * n > _KEPT_WORKSPACE_ENTRIES:
        return make(m, n)
    kept = _kept_workspaces.__dict__
    run = kept.get((make, m, n))
    if run is None:
        run = kept[(make, m, n)] = make(m, n)
    return run


def _first_byte(a: np.ndarray):
    return ctypes.byref(ctypes.c_char.from_buffer(a))


def _gesdd_values(m: int, n: int):
    """A call ``run(a, s) -> info`` of a values-only zgesdd on an m x n
    column-major matrix at pointer ``a``, writing min(m, n) values at ``s``.

    lwork is LAPACK's own optimal size from a workspace query, as numpy asks
    for; the block sizes, and so the bits, follow from it."""
    gesdd = _openblas().scipy_zgesdd_64_
    k = min(m, n)
    ints = (ctypes.c_int64 * 7)(m, n, m, m, 1, -1, 0)  # m n lda ldu ldvt lwork info
    m_, n_, lda, ldu, ldvt, lwork, info = (ctypes.byref(ints, 8 * i) for i in range(7))
    rwork = (ctypes.c_double * (7 * k))()
    iwork = (ctypes.c_int64 * (8 * k))()
    query = (ctypes.c_double * 2)()
    gesdd(_JOBZ_N, m_, n_, _NULL, lda, _NULL, _NULL, ldu, _NULL, ldvt,
          query, lwork, rwork, iwork, info, _CHAR_LEN)
    ints[5] = max(int(query[0]), 1)
    work = (ctypes.c_double * (2 * ints[5]))()

    def run(a, s) -> int:
        gesdd(_JOBZ_N, m_, n_, a, lda, s, _NULL, ldu, _NULL, ldvt,
              work, lwork, rwork, iwork, info, _CHAR_LEN)
        return ints[6]

    return run


def _svdvals(a: np.ndarray) -> np.ndarray:
    """Singular values, descending, of a 2-D matrix: ``np.linalg.svd(a,
    compute_uv=False)`` bit for bit.

    A complex matrix goes to the routine that numpy calls (values-only
    zgesdd in its bundled OpenBLAS, with the same workspace) through ctypes,
    which releases the GIL while LAPACK runs, so samplers on several threads
    overlap.  Other dtypes, empty matrices and a numpy without its OpenBLAS
    take numpy's own call.  Like numpy, a failure to converge (NaN input)
    raises LinAlgError, and infinite input gives NaN values.
    """
    if _openblas() is None or a.dtype != np.complex128 or not a.size:
        return np.linalg.svd(a, compute_uv=False)
    m, n = a.shape
    run = _lapack_call(_gesdd_values, m, n)
    # LAPACK overwrites its input, so it gets a column-major copy, dropped on
    # return; the transpose of that copy is C-contiguous
    f = np.array(a, dtype=np.complex128, order="F")
    s = np.empty(min(m, n))
    if run(_first_byte(f.T), _first_byte(s)):
        raise np.linalg.LinAlgError("SVD did not converge")
    return s


def _geqrf_ungqr(m: int, n: int):
    """A call ``run(f) -> diag(R)`` that overwrites an m x n (m >= n)
    column-major complex array ``f`` with the Q of its reduced QR
    decomposition: zgeqrf, then zungqr on the same buffer.

    Each lwork is max(1, n, LAPACK's workspace query), as numpy asks for;
    the block sizes, and so the bits, follow from it.  Neither routine can
    fail on such an array (info flags only an illegal argument), so info is
    not read."""
    lib = _openblas()
    geqrf, ungqr = lib.scipy_zgeqrf_64_, lib.scipy_zungqr_64_
    ints = (ctypes.c_int64 * 6)(m, n, m, -1, -1, 0)  # m n lda lwork(geqrf) lwork(ungqr) info
    m_, n_, lda, lwork_r, lwork_q, info = (ctypes.byref(ints, 8 * i) for i in range(6))
    tau = (ctypes.c_double * (2 * n))()
    query = (ctypes.c_double * 2)()
    geqrf(m_, n_, _NULL, lda, tau, query, lwork_r, info)
    ints[3] = max(1, n, int(query[0]))
    ungqr(m_, n_, n_, _NULL, lda, tau, query, lwork_q, info)
    ints[4] = max(1, n, int(query[0]))
    work = (ctypes.c_double * (2 * max(ints[3], ints[4])))()

    def run(f: np.ndarray) -> np.ndarray:
        a = _first_byte(f.T)
        geqrf(m_, n_, a, lda, tau, work, lwork_r, info)
        diag = f.diagonal().copy()
        ungqr(m_, n_, n_, a, lda, tau, work, lwork_q, info)
        return diag

    return run


def _qr(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Q, diag(R)) of ``np.linalg.qr(f)``, bit for bit, for a square
    column-major complex matrix ``f``, which it may overwrite with Q.

    As in ``_svdvals``, the routines that numpy calls (zgeqrf and zungqr in
    its bundled OpenBLAS, with the same workspaces) run through ctypes with
    the GIL released, here in place on ``f``; an empty matrix and a numpy
    without its OpenBLAS take numpy's own call.
    """
    n = len(f)
    if f.shape != (n, n) or f.dtype != np.complex128 or not f.flags.f_contiguous:
        raise ValueError(f"need a square column-major complex128 matrix, got {f.shape} "
                         f"{f.dtype} with strides {f.strides}")
    if _openblas() is None or not n:
        q, r = np.linalg.qr(f)
        return q, np.diag(r)
    return f, _lapack_call(_geqrf_ungqr, n, n)(f)
