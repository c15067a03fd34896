"""Two-site-shift-invariant matrix product states whose combined cell tensor
is unitary, with exact cut entropies and replica purities.

Tensor conventions: ``A[i]`` maps the chi bond into the chi' = chi*q bond
and ``B[j]`` maps back, so a unit cell is the matrix product A^i B^j.  The
combined tensor N[(a,i),(b,j)] = sqrt(q) * (A^i B^j)_{ab} (rows a-major,
columns b-major) is unitary exactly when the state is solvable.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .circuit import _check_capacity, cut_probs
from .gates import haar_unitary
from .qinfo import PureState, entropy_from_probs, unitarity_defect

SOLVABLE_TOL = 1e-10
#: transfer gap below this flags a (near-)degenerate fixed point
GAP_TOL = 1e-6


class DegenerateTransferError(RuntimeError):
    """The unit-cell transfer map has a (near-)degenerate leading eigenvalue."""


@dataclass(frozen=True, eq=False)
class MPSPair:
    """One unit cell (A, B) of a two-site-shift-invariant MPS."""

    q: int
    chi: int
    A: np.ndarray  # shape (q, chi, chi*q)
    B: np.ndarray  # shape (q, chi*q, chi)

    def __init__(self, q: int, chi: int, A, B):
        q, chi = int(q), int(chi)
        if q < 2 or chi < 1:
            raise ValueError(f"need q >= 2 and chi >= 1, got q = {q}, chi = {chi}")
        A = np.array(A, dtype=complex, copy=True)
        B = np.array(B, dtype=complex, copy=True)
        chip = chi * q
        if A.shape != (q, chi, chip):
            raise ValueError(f"A shape {A.shape} != {(q, chi, chip)}")
        if B.shape != (q, chip, chi):
            raise ValueError(f"B shape {B.shape} != {(q, chip, chi)}")
        A.setflags(write=False)
        B.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def chi_prime(self) -> int:
        return self.chi * self.q

    def cell_matrices(self) -> np.ndarray:
        """All q^2 products A^i B^j, shape (q, q, chi, chi)."""
        return np.einsum("iac,jcb->ijab", self.A, self.B)


def combined_tensor(pair: MPSPair) -> np.ndarray:
    """N[(a,i),(b,j)] = sqrt(q) sum_c A^i_ac B^j_cb as a (chi q) x (chi q) matrix."""
    cell = pair.cell_matrices()  # (i, j, a, b)
    n = math.sqrt(pair.q) * cell.transpose(2, 0, 3, 1)  # (a, i, b, j)
    return n.reshape(pair.chi * pair.q, pair.chi * pair.q)


def solvability_defect(pair: MPSPair) -> float:
    """||N N+ - I||_1; zero exactly for solvable pairs."""
    return unitarity_defect(combined_tensor(pair))


def random_solvable(q: int, chi: int, seed) -> MPSPair:
    """Solvable pair from a Haar unitary N of dimension chi*q.

    A is the reshaping isometry (a, i) -> combined bond index scaled by
    1/sqrt(q), and B carries N, so that the combined tensor reproduces N
    entry-by-entry.
    """
    n = haar_unitary(chi * q, seed)
    chip = chi * q
    a = np.zeros((q, chi, chip), dtype=complex)
    for i in range(q):
        for al in range(chi):
            a[i, al, al * q + i] = 1.0 / math.sqrt(q)
    b = np.empty((q, chip, chi), dtype=complex)
    for j in range(q):
        b[j] = n.reshape(chip, chi, q)[:, :, j]
    return MPSPair(q, chi, a, b)


def transfer_spectrum(pair: MPSPair) -> np.ndarray:
    """Eigenvalues of the unit-cell transfer map M -> sum (AB) M (AB)+,
    sorted by descending magnitude."""
    cell = pair.cell_matrices().reshape(-1, pair.chi, pair.chi)
    t = np.einsum("nab,ncd->acbd", cell, cell.conj()).reshape(pair.chi ** 2, pair.chi ** 2)
    ev = np.linalg.eigvals(t)
    return ev[np.argsort(-np.abs(ev))]


def transfer_gap(pair: MPSPair) -> float:
    """1 - |second eigenvalue| of the unit-cell transfer map."""
    ev = transfer_spectrum(pair)
    if len(ev) < 2:
        return 1.0
    return float(1.0 - abs(ev[1]))


def dense_state(pair: MPSPair, n_cells: int, boundary=None) -> PureState:
    """Contract ...A B A B... with explicit boundary vectors and normalize.

    ``boundary`` is a pair (left, right) of chi-dimensional vectors; the
    default is uniform 1/sqrt(chi) entries, matching the weights of the
    transfer fixed points.
    """
    if n_cells < 1:
        raise ValueError("n_cells must be >= 1")
    q, chi = pair.q, pair.chi
    _check_capacity(q ** (2 * n_cells) * pair.chi_prime)
    if boundary is None:
        left = np.full(chi, 1.0 / math.sqrt(chi), dtype=complex)
        right = left.copy()
    else:
        left = np.asarray(boundary[0], dtype=complex).reshape(chi)
        right = np.asarray(boundary[1], dtype=complex).reshape(chi)
    t = left.reshape(1, chi)  # (phys, bond)
    for _ in range(n_cells):
        t = np.einsum("pc,icd->pid", t, pair.A).reshape(t.shape[0] * q, -1)
        t = np.einsum("pc,jcb->pjb", t, pair.B).reshape(t.shape[0] * q, -1)
    v = t @ right
    v = v / np.linalg.norm(v)
    return PureState(v, (q,) * (2 * n_cells))


def dense_state_with_environment(pair: MPSPair, n_cells: int) -> PureState:
    """Dense realization keeping the two chi-dimensional bond legs as
    boundary subsystems; for a solvable pair the left/right environments are
    then exactly the transfer fixed points, so interior cuts carry no
    boundary effects at any length."""
    if n_cells < 1:
        raise ValueError("n_cells must be >= 1")
    q, chi = pair.q, pair.chi
    _check_capacity(q ** (2 * n_cells) * chi * chi)
    t = np.eye(chi, dtype=complex)  # (left leg + phys, bond)
    for _ in range(n_cells):
        t = np.einsum("pc,icd->pid", t, pair.A).reshape(t.shape[0] * q, -1)
        t = np.einsum("pc,jcb->pjb", t, pair.B).reshape(t.shape[0] * q, -1)
    v = t.reshape(-1)
    v = v / np.linalg.norm(v)
    return PureState(v, (chi,) + (q,) * (2 * n_cells) + (chi,))


def _require_solvable(pair: MPSPair) -> None:
    defect = solvability_defect(pair)
    if defect > SOLVABLE_TOL:
        raise ValueError(f"pair is not solvable: defect {defect:.3e} > {SOLVABLE_TOL}")
    gap = transfer_gap(pair)
    if gap < GAP_TOL:
        raise DegenerateTransferError(
            f"transfer gap {gap:.3e} below {GAP_TOL}: fixed point not unique enough "
            "for interior-cut extraction"
        )


def _middle_cell(pair: MPSPair, n_cells: int) -> tuple[PureState, int]:
    """The environment realization of a solvable pair and the bond of the
    A:B cut in its middle cell (the B:A cut is the next bond)."""
    _require_solvable(pair)
    # bonds: 0 = env|A-cell...; cut inside cell k (A:B) is bond 2k + 1
    return dense_state_with_environment(pair, n_cells), 2 * (n_cells // 2) + 1


def cut_entropies_exact(pair: MPSPair, n_cells: int = 3) -> tuple[float, float]:
    """Interior cut entropies (E_AB, E_BA) of the infinite chain.

    Contracts a realization whose boundary legs carry the transfer
    fixed-point environments, making boundary effects on interior cuts
    exactly zero (far below the 1e-9 budget); the transfer gap is still
    checked so a degenerate fixed point is flagged rather than assumed away.
    """
    psi, ab = _middle_cell(pair, n_cells)
    return entropy_from_probs(cut_probs(psi, ab)), entropy_from_probs(cut_probs(psi, ab + 1))


def replica_purity(pair: MPSPair, n: int, n_cells: int = 3) -> float:
    """tr(rho_Q^n) at an interior A:B cut of the infinite chain."""
    if n < 1:
        raise ValueError("n must be >= 1")
    psi, ab = _middle_cell(pair, n_cells)
    return float((cut_probs(psi, ab) ** n).sum())


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def _tensor_to_json(t: np.ndarray):
    return [[[ [float(z.real), float(z.imag)] for z in row] for row in mat] for mat in t]


def _tensor_from_json(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 4 or arr.shape[-1] != 2:
        raise ValueError("tensor entries must be nested [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def save_mps(pair: MPSPair, path) -> None:
    doc = {
        "q": pair.q,
        "chi": pair.chi,
        "A": _tensor_to_json(np.asarray(pair.A)),
        "B": _tensor_to_json(np.asarray(pair.B)),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_mps(path, validate_solvable: bool = False) -> MPSPair:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    for key in ("q", "chi", "A", "B"):
        if key not in doc:
            raise ValueError(f"{path}: missing field {key!r}")
    pair = MPSPair(doc["q"], doc["chi"], _tensor_from_json(doc["A"]), _tensor_from_json(doc["B"]))
    if validate_solvable:
        defect = solvability_defect(pair)
        if defect > SOLVABLE_TOL:
            raise ValueError(f"{path}: pair not solvable, defect {defect:.3e}")
    return pair
