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

from .circuit import chain_probs
from .gates import haar_unitary
from .qinfo import entropy_from_probs, unitarity_defect

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
    chip = chi * q
    a = np.eye(chip).reshape(chi, q, chip).transpose(1, 0, 2) / math.sqrt(q)
    b = haar_unitary(chip, seed).reshape(chip, chi, q).transpose(2, 0, 1)
    return MPSPair(q, chi, a, b)


def transfer_gap(pair: MPSPair) -> float:
    """1 - |second eigenvalue| of the unit-cell transfer map M -> sum (AB) M (AB)+."""
    cell = pair.cell_matrices().reshape(-1, pair.chi, pair.chi)
    t = np.einsum("nab,ncd->acbd", cell, cell.conj()).reshape(pair.chi ** 2, pair.chi ** 2)
    ev = np.linalg.eigvals(t)
    if len(ev) < 2:
        return 1.0
    return float(1.0 - abs(ev[np.argsort(-np.abs(ev))][1]))


def environment_sites(pair: MPSPair, n_cells: int) -> list:
    """n_cells unit cells A B as site tensors (chi_l, q, chi_r), between two
    chi-dimensional environment legs: sites 0 and 2 n_cells + 1, each an
    identity on the bond.  For a solvable pair the environments are then
    exactly the transfer fixed points, so interior cuts carry no boundary
    effects at any length."""
    if n_cells < 1:
        raise ValueError("n_cells must be >= 1")
    env = np.eye(pair.chi, dtype=complex)
    cells = [pair.A.transpose(1, 0, 2), pair.B.transpose(1, 0, 2)] * n_cells
    return [env.reshape(1, pair.chi, pair.chi)] + cells + [env.reshape(pair.chi, pair.chi, 1)]


def interior_cut_probs(pair: MPSPair) -> tuple[np.ndarray, np.ndarray]:
    """Schmidt weights (p_AB, p_BA) of the infinite chain: the A:B and B:A
    cuts (bonds 1 and 2) of one cell between its environment legs
    (``environment_sites(pair, 1)``), read from one canonical sweep
    (``circuit.chain_probs``).

    The environment legs carry the transfer fixed points, so these cuts
    carry no boundary effects and more cells would change nothing.  The
    pair is checked first: a non-solvable pair is a ValueError, and a
    transfer gap below GAP_TOL is flagged as degenerate rather than assumed
    away.
    """
    defect = solvability_defect(pair)
    if defect > SOLVABLE_TOL:
        raise ValueError(f"pair is not solvable: defect {defect:.3e} > {SOLVABLE_TOL}")
    gap = transfer_gap(pair)
    if gap < GAP_TOL:
        raise DegenerateTransferError(
            f"transfer gap {gap:.3e} below {GAP_TOL}: fixed point not unique enough "
            "for interior-cut extraction"
        )
    _, p_ab, p_ba = chain_probs(environment_sites(pair, 1))
    return p_ab, p_ba


def cut_entropies_exact(pair: MPSPair) -> tuple[float, float]:
    """Interior cut entropies (E_AB, E_BA) of the infinite chain."""
    p_ab, p_ba = interior_cut_probs(pair)
    return entropy_from_probs(p_ab), entropy_from_probs(p_ba)


def replica_purity(pair: MPSPair, n: int) -> float:
    """tr(rho_Q^n) at an interior A:B cut of the infinite chain."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return float((interior_cut_probs(pair)[0] ** n).sum())


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def _tensor_to_json(t: np.ndarray):
    return [[[ [float(z.real), float(z.imag)] for z in row] for row in mat] for mat in t]


def _tensor_from_json(data, path, key: str) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 4 or arr.shape[-1] != 2:
        raise ValueError(f"{path}: {key} entries must be nested [re, im] pairs")
    bad = np.argwhere(~np.isfinite(arr))
    if len(bad):
        raise ValueError(f"{path}: non-finite entry in {key} at {bad[0, :3].tolist()}")
    return arr[..., 0] + 1j * arr[..., 1]


def pair_json(pair: MPSPair) -> str:
    """The pair file text: fields q, chi, A and B."""
    return json.dumps({
        "q": pair.q,
        "chi": pair.chi,
        "A": _tensor_to_json(pair.A),
        "B": _tensor_to_json(pair.B),
    })


def load_mps(path) -> MPSPair:
    """Read a pair file; dimensions and finiteness are checked here,
    solvability where cut spectra are read."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    for key in ("q", "chi", "A", "B"):
        if key not in doc:
            raise ValueError(f"{path}: missing field {key!r}")
    for key in ("q", "chi"):
        if type(doc[key]) is not int:
            raise ValueError(f"{path}: field {key!r} must be an integer, got {doc[key]!r}")
    return MPSPair(doc["q"], doc["chi"], _tensor_from_json(doc["A"], path, "A"),
                   _tensor_from_json(doc["B"], path, "B"))
