"""Brickwork evolution of an exact matrix-product state on a finite open
chain, the Schmidt weights of any chain of site tensors, entanglement
profiles and their relay check, zigzag detection and the four-party growth
audit.

The finite open chain stands in for an infinite lattice: central-cut values
are only trusted while the light cone from the cut has not reached a
boundary (2t + 2 <= L), tracked by ``light_cone_valid``.

Layer parity: by default the t = 1 layer acts on even bonds (0-1, 2-3, ...);
``first_parity="odd"`` aligns the first layer with the valleys of a dimer
profile instead, which is what the zigzag relay requires for initial states
that already carry the alternating pattern.
"""
from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from .gates import Gate
from .qinfo import (
    PureState,
    _one_blas_thread,
    _svdvals,
    apply_unitary,
    bell_state,
    entropy_from_probs,
    marginal_probs,
    purify,
    reduce,
    trace_norm,
    uhlmann_align,
)

DEFAULT_MAX_AMPLITUDES = 2 ** 26
CAPACITY_ENV = "DULAB_MAX_AMPLITUDES"
#: singular values at or below this fraction of the largest at a cut are
#: dropped, which discards at most min(rows, cols) * SV_CUT^2 of the weight
SV_CUT = 1e-14


class CapacityError(RuntimeError):
    """State would exceed the configured amplitude budget."""


def max_amplitudes() -> int:
    raw = os.environ.get(CAPACITY_ENV)
    if not raw:
        return DEFAULT_MAX_AMPLITUDES
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"{CAPACITY_ENV} must be a positive integer, got {raw!r}")
    return cap


def _over_budget(what: str, n_amplitudes: int, cap: int) -> CapacityError:
    return CapacityError(
        f"{what} of {n_amplitudes} amplitudes exceeds the budget {cap} "
        f"(override via {CAPACITY_ENV})"
    )


# ---------------------------------------------------------------------------
# initial states: site tensors (chi_l, q, chi_r) with unit outer bonds
# ---------------------------------------------------------------------------

def contract_chain(t: np.ndarray, sites: Sequence[np.ndarray]) -> np.ndarray:
    """Append site tensors (chi_l, d, chi_r) to the matrix t, whose columns
    are the open bond: each site's leg joins the rows, earlier legs major."""
    for a in sites:
        t = np.einsum("pc,cid->pid", t, a).reshape(-1, a.shape[2])
    return t


def product_sites(L: int, q: int, site_states: Sequence[np.ndarray] | None = None) -> list:
    """Product state; all |0> unless per-site vectors are given."""
    if site_states is None:
        site_states = [np.eye(q)[0]] * L
    if len(site_states) != L:
        raise ValueError(f"need {L} site states, got {len(site_states)}")
    sites = []
    for s in site_states:
        site = np.asarray(s, dtype=complex).reshape(-1)
        if site.size != q:
            raise ValueError(f"site state of length {site.size} != q = {q}")
        sites.append((site / np.linalg.norm(site)).reshape(1, q, 1))
    return sites


def dimer_sites(L: int, q: int) -> list:
    """Bell pairs on (0,1), (2,3), ...; bond profile alternates ln q, 0."""
    if L % 2:
        raise ValueError(f"dimer state needs even L, got {L}")
    eye = np.eye(q, dtype=complex)
    return [eye.reshape(1, q, q), eye.reshape(q, q, 1) / math.sqrt(q)] * (L // 2)


def xy_product_sites(L: int, phases: Sequence[float] | None = None) -> list:
    """Qubit product state with every spin on the xy plane (T-class)."""
    if phases is None:
        phases = [0.0] * L
    return product_sites(L, 2, [np.array([1.0, np.exp(1j * p)]) / math.sqrt(2) for p in phases])


def z_product_sites(L: int, bits: Sequence[int] | None = None) -> list:
    """Qubit product state with every spin along z (L-class)."""
    if bits is None:
        bits = [0] * L
    return product_sites(L, 2, [np.eye(2)[int(b)] for b in bits])


# ---------------------------------------------------------------------------
# circuit and evolution
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BrickworkCircuit:
    """Brickwork circuit on L sites of dimension q.

    Gate resolution order for layer t, bond b:
    ``first_layer_override`` (t = 1) > ``bond_gates[b]`` > ``gate``.
    """

    L: int
    q: int
    gate: Gate
    first_parity: str = "even"
    first_layer_override: Gate | None = None
    bond_gates: Mapping[int, Gate] | None = None

    def __post_init__(self):
        if self.L < 4 or self.L % 2:
            raise ValueError(f"L must be even and >= 4, got {self.L}")
        if self.first_parity not in ("even", "odd"):
            raise ValueError(f"first_parity must be 'even' or 'odd', got {self.first_parity!r}")
        for g in (self.gate, self.first_layer_override, *(self.bond_gates or {}).values()):
            if g is not None and g.q != self.q:
                raise ValueError(f"gate with q = {g.q} in a q = {self.q} circuit")

    def layer(self, t: int) -> dict:
        """Layer t >= 1 as {bond: gate matrix}: the bonds of ``first_parity``
        at odd t and the other bonds at even t."""
        start = int((t % 2 == 1) == (self.first_parity == "odd"))
        first = self.first_layer_override if t == 1 else None
        bond_gates = self.bond_gates or {}
        return {b: (first or bond_gates.get(b, self.gate)).matrix
                for b in range(start, self.L - 1, 2)}


@dataclass(frozen=True, eq=False)
class EntanglementRecord:
    """Bond-entropy profiles (nats) after each layer, t = 0 being the input."""

    profiles: np.ndarray  # shape (T + 1, L - 1)
    q: int

    @property
    def L(self) -> int:
        return self.profiles.shape[1] + 1

    @property
    def times(self) -> tuple:
        return tuple(range(len(self.profiles)))

    @property
    def light_cone_valid(self) -> tuple:
        """Per time step: the light cone from the central cut has not
        reached a boundary (2t + 2 <= L)."""
        return tuple(2 * t + 2 <= self.L for t in self.times)

    def central_cut(self) -> int:
        return self.L // 2 - 1

    def central_series(self) -> np.ndarray:
        return self.profiles[:, self.central_cut()]

    def max_step_increase(self) -> float:
        """Largest one-layer entropy increase over all cuts (per-gate bound)."""
        diffs = np.diff(self.profiles, axis=0)
        return float(diffs.max()) if diffs.size else 0.0

    def relay_deviation(self, t0: int) -> float:
        """max |S(t) - S(t0) - (t - t0) ln q| at the central cut over the
        ``relay_times`` of t0; 0.0 if there is none.  Zero is the zigzag
        relay of a maximal entanglement velocity."""
        lnq = math.log(self.q)
        central = self.central_series()
        return float(max((abs((central[t] - central[t0]) - (t - t0) * lnq)
                          for t in relay_times(t0, len(central) - 1, self.L)),
                         default=0.0))


def relay_times(t0: int, T: int, L: int) -> range:
    """The times at which a relay from t0 is read in a T-layer run on L
    sites: t0 + 2, t0 + 4, ... <= T inside the light cone of the central
    cut (2t + 2 <= L)."""
    return range(t0 + 2, min(T, L // 2 - 1) + 1, 2)


def bond_entropies(state: PureState) -> np.ndarray:
    """Entropy of the left segment [0..b] for every cut b of a dense state."""
    return np.array([entropy_from_probs(marginal_probs(state, range(b + 1)))
                     for b in range(state.n_subsystems - 1)])


def _svd_cut(m: np.ndarray):
    """Thin SVD of m without the singular values at or below SV_CUT * s_max."""
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    keep = s > SV_CUT * s[0]
    return u[:, keep], s[keep], vh[keep]


def _left_canonical(chain) -> list:
    """A chain of site tensors (chi_l, d, chi_r) with unit outer bonds,
    re-split one site at a time by sequential SVD from the left: every
    tensor but the last is an isometry from (left bond, site) to its right
    bond, so the last one holds the norm and a sweep can start at the right
    end.  Its sites may differ in d."""
    chain = [np.asarray(a, dtype=complex) for a in chain]
    if (any(a.ndim != 3 for a in chain)
            or [a.shape[0] for a in chain] != [1] + [a.shape[2] for a in chain[:-1]]
            or chain[-1].shape[2] != 1):
        raise ValueError("site tensors (chi_l, d, chi_r) must chain with unit outer "
                         f"bonds, got shapes {[a.shape for a in chain]}")
    sites, rest = [], np.ones((1, 1), dtype=complex)
    for a in chain[:-1]:
        u, s, vh = _svd_cut(contract_chain(rest, [a]))
        sites.append(u.reshape(rest.shape[0], a.shape[1], -1))
        rest = s[:, None] * vh
    sites.append(contract_chain(rest, chain[-1:]).reshape(-1, chain[-1].shape[1], 1))
    return sites


def _sweep(sites: list) -> list:
    """One leftward canonical sweep that carries the centre from the right
    end of the chain to site 0.  At each cut b it contracts the two sites
    and takes one SVD u s vh, leaving B_{b+1} = vh right-canonical and u s
    at site b; returns the Schmidt weights at every cut, indexed by bond.
    The amplitude budget bounds the two-site block before it is formed and
    the site tensors after each SVD."""
    cap = max_amplitudes()
    probs = [None] * (len(sites) - 1)
    for b in range(len(probs) - 1, -1, -1):
        chi_l, d_l = sites[b].shape[:2]
        d_r, chi_r = sites[b + 1].shape[1:]
        n_block = chi_l * d_l * d_r * chi_r
        if n_block > cap:
            raise _over_budget(f"bond {b}'s two-site block ({chi_l}, {d_l}, {d_r}, {chi_r})",
                               n_block, cap)
        theta = np.tensordot(sites[b], sites[b + 1], 1)
        u, s, vh = _svd_cut(theta.reshape(chi_l * d_l, d_r * chi_r))
        p = s * s
        probs[b] = p / p.sum()
        sites[b], sites[b + 1] = (u * s).reshape(chi_l, d_l, -1), vh.reshape(-1, d_r, chi_r)
        n_amplitudes = sum(a.size for a in sites)
        if n_amplitudes > cap:
            raise _over_budget("state", n_amplitudes, cap)
    return probs


@_one_blas_thread()
def chain_probs(sites) -> list:
    """Schmidt weights at every cut of a chain of site tensors (chi_l, d,
    chi_r) with unit outer bonds, indexed by bond: one split and one
    leftward sweep, under the same SV_CUT and amplitude budget as
    ``evolve``."""
    return _sweep(_left_canonical(sites))


def _check_layer(t: int, bonds, L: int) -> None:
    """A layer map gates bonds of the chain, 0 ... L - 2, and no two of its
    bonds share a site."""
    outside = sorted(b for b in bonds if not 0 <= b <= L - 2)
    if outside:
        raise ValueError(f"layer {t} gates bonds {outside} outside the chain's bonds "
                         f"0 ... {L - 2}")
    shared = [(b, b + 1) for b in sorted(bonds) if b + 1 in bonds]
    if shared:
        raise ValueError(f"layer {t} gates bonds that share a site: "
                         + ", ".join(f"{b} and {c}" for b, c in shared))


def _layer(sites: list, probs: list, gates: Mapping[int, np.ndarray], values_only: bool) -> None:
    """Apply one layer, {bond: gate matrix} on bonds that share no site, in
    place to a right-canonical chain (site 0 holds the norm) whose Schmidt
    weights at every cut are ``probs``.

    Only the gated bonds change: at bond b, block = gate (B_b B_{b+1}) and
    theta = Lambda_{b-1} block, with Lambda = sqrt(probs) (1 at b = 0); the
    SVD theta = u s vh gives B_{b+1} = vh, B_b = block vh^dagger and
    probs[b] = s^2 / sum s^2 (Hastings, J. Math. Phys. 50, 095207 (2009)).
    No Schmidt value is divided by, and the chain stays right-canonical.  A
    layer acts on a cut it does not gate as U_left (x) U_right, so the
    weights there stay as they are.  With ``values_only`` each bond takes
    only the singular values (same SV_CUT rule) and no site tensor is formed.
    The amplitude budget bounds each two-site block before it is formed and,
    after each gated bond, the site tensors at the sizes they would have."""
    cap = max_amplitudes()
    n_amplitudes = sum(a.size for a in sites)
    for b in sorted(gates):
        chi_l, d_l = sites[b].shape[:2]
        d_r, chi_r = sites[b + 1].shape[1:]
        n_block = chi_l * d_l * d_r * chi_r
        if n_block > cap:
            raise _over_budget(f"bond {b}'s two-site block ({chi_l}, {d_l}, {d_r}, {chi_r})",
                               n_block, cap)
        block = np.tensordot(sites[b], sites[b + 1], 1).reshape(chi_l, d_l * d_r, chi_r)
        block = np.matmul(gates[b], block)
        lam = np.sqrt(probs[b - 1])[:, None, None] if b else 1.0
        theta = (lam * block).reshape(chi_l * d_l, d_r * chi_r)
        n_amplitudes -= sites[b].size + sites[b + 1].size
        if values_only:
            s = _svdvals(theta)
            s = s[s > SV_CUT * s[0]]
        else:
            _, s, vh = _svd_cut(theta)
            sites[b] = (block.reshape(chi_l * d_l, -1) @ vh.conj().T).reshape(chi_l, d_l, -1)
            sites[b + 1] = vh.reshape(-1, d_r, chi_r)
        n_amplitudes += (chi_l * d_l + d_r * chi_r) * len(s)
        p = s * s
        probs[b] = p / p.sum()
        if n_amplitudes > cap:
            raise _over_budget("state", n_amplitudes, cap)


@_one_blas_thread()
def evolve(circuit: BrickworkCircuit, initial: Sequence[np.ndarray], T: int) -> EntanglementRecord:
    """Apply T alternating brickwork layers to an exact matrix-product state,
    recording bond entropies after each layer; the central-cut flag goes
    false once 2t + 2 > L.  ``circuit`` is read only through ``L``, ``q``
    and ``layer(t)``, so any such schedule drives it; every layer must gate
    bonds 0 ... L - 2 that share no site (else ValueError, before any work).

    ``initial`` is a chain of site tensors (chi_l, q, chi_r) with unit
    outer bonds, as the ``*_sites`` builders give.  At t = 0 one split and
    one leftward sweep (``chain_probs``) leave every site right-canonical
    and give each cut's Schmidt weights.  Each layer then takes one SVD per
    gated bond and keeps the weights of the cuts it does not gate (see
    ``_layer``); the last layer takes only singular values.  Singular values
    at or below SV_CUT times the largest at a cut are dropped, and the
    amplitude budget counts the entries of the site tensors.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    L, q = circuit.L, circuit.q
    layers = [circuit.layer(t) for t in range(1, T + 1)]
    for t, gates in enumerate(layers, 1):
        _check_layer(t, gates, L)
    sites = _left_canonical(initial)
    dims = tuple(a.shape[1] for a in sites)
    if dims != (q,) * L:
        raise ValueError(
            f"initial state dims {dims} do not match circuit (L = {L}, q = {q})"
        )
    probs = _sweep(sites)
    profiles = [[entropy_from_probs(p) for p in probs]]
    for t, gates in enumerate(layers, 1):
        _layer(sites, probs, gates, values_only=t == T)
        row = list(profiles[-1])
        for b in gates:
            row[b] = entropy_from_probs(probs[b])
        profiles.append(row)
    return EntanglementRecord(profiles=np.array(profiles), q=q)


#: the relay S(t) - S(t0) = (t - t0) ln q and the zigzag hold to within this
RELAY_TOL = 1e-9


def zigzag_check(profile: Sequence[float], q: int, tol: float = RELAY_TOL):
    """True iff successive bond differences alternate +-ln q within tol;
    also reports whether the valleys sit on even or odd bonds."""
    profile = np.asarray(profile, dtype=float)
    if profile.size < 2:
        raise ValueError("profile must cover at least 2 bonds")
    lnq = math.log(q)
    diffs = np.diff(profile)
    if np.any(np.abs(np.abs(diffs) - lnq) > tol):
        return False, None
    signs = np.sign(diffs)
    if np.any(signs[1:] * signs[:-1] != -1):
        return False, None
    parity = "odd" if diffs[0] < 0 else "even"
    return True, parity


# ---------------------------------------------------------------------------
# four-party growth audit
# ---------------------------------------------------------------------------

#: every audited bound holds when it is met to within this
AUDIT_SLACK = 1e-9


@dataclass(frozen=True)
class FourPartyReport:
    """Every audited quantity for one gate acting on B, C inside A|B|C|D."""

    delta_S: float
    epsilon: float
    cond_A: float
    cond_D: float
    S_B: float
    S_Bp: float
    S_C: float
    S_Cp: float
    S_BC: float
    I_AB_C: float
    I_B_CD: float
    I_A_Bp: float
    I_Cp_D: float
    F_out: float
    F_in: float
    F_BC: float
    q: int

    @property
    def bounds_vacuous(self) -> bool:
        return self.epsilon > math.log(self.q)

    def inequality_checks(self) -> dict:
        """Every audited bound, evaluated with the measured epsilon."""
        lnq = math.log(self.q)
        eps = self.epsilon
        fl = math.exp(-eps)
        return {
            "cond_A_ge_lnq_minus_eps": self.cond_A >= lnq - eps - AUDIT_SLACK,
            "cond_D_ge_lnq_minus_eps": self.cond_D >= lnq - eps - AUDIT_SLACK,
            "S_B_ge_lnq_minus_eps": self.S_B >= lnq - eps - AUDIT_SLACK,
            "S_Bp_ge_lnq_minus_eps": self.S_Bp >= lnq - eps - AUDIT_SLACK,
            "S_C_ge_lnq_minus_eps": self.S_C >= lnq - eps - AUDIT_SLACK,
            "S_Cp_ge_lnq_minus_eps": self.S_Cp >= lnq - eps - AUDIT_SLACK,
            "S_BC_ge_2lnq_minus_2eps": self.S_BC >= 2 * lnq - 2 * eps - AUDIT_SLACK,
            "I_AB_C_le_eps": self.I_AB_C <= eps + AUDIT_SLACK,
            "I_B_CD_le_eps": self.I_B_CD <= eps + AUDIT_SLACK,
            "I_A_Bp_le_eps": self.I_A_Bp <= eps + AUDIT_SLACK,
            "I_Cp_D_le_eps": self.I_Cp_D <= eps + AUDIT_SLACK,
            "F_out_ge_exp_minus_eps": self.F_out >= fl - AUDIT_SLACK,
            "F_in_ge_exp_minus_eps": self.F_in >= fl - AUDIT_SLACK,
            "F_BC_ge_exp_minus_eps": self.F_BC >= fl - AUDIT_SLACK,
        }

    def all_hold(self) -> bool:
        return all(self.inequality_checks().values())

    def to_json_dict(self) -> dict:
        """The audited fields in declaration order (without ``q``), then
        ``bounds_vacuous`` and ``checks``."""
        out = asdict(self)
        del out["q"]
        out["bounds_vacuous"] = self.bounds_vacuous
        out["checks"] = self.inequality_checks()
        return out


def four_party_report(u: Gate, state: PureState) -> FourPartyReport:
    """Audit of one gate acting on the middle qudits of a pure ABCD state.

    ``state`` carries dims (dA, q, q, dD); the gate acts on (B, C).
    epsilon is always the measured 2 ln q - (S(AB') - S(AB)).  The 13
    entropies read 9 spectra, as complementary marginals of a pure state
    share one: S(BCD) = S(A), S(ABC) = S(D), S(CD) = S(AB), S(C'D) = S(AB').
    """
    if state.n_subsystems != 4:
        raise ValueError(f"state must have exactly 4 parties, got {state.n_subsystems}")
    q = u.q
    if state.dims[1] != q or state.dims[2] != q:
        raise ValueError(f"B and C must be single qudits of dimension {q}, dims = {state.dims}")
    out = apply_unitary(state, u.matrix, (1, 2))

    probs = {k: marginal_probs(psi, keep) for k, psi, keep in (
        ("A", state, {0}), ("B", state, {1}), ("C", state, {2}), ("D", state, {3}),
        ("AB", state, {0, 1}), ("BC", state, {1, 2}),
        ("Bp", out, {1}), ("Cp", out, {2}), ("ABp", out, {0, 1}),
    )}
    S = {k: entropy_from_probs(p) for k, p in probs.items()}

    delta_S = S["ABp"] - S["AB"]
    eps = 2 * math.log(q) - delta_S
    # Uhlmann: F(M M+, N N+) = ||M+ N||_1, held to [0, 1] like ``fidelity``.
    # F_in: M = psi as (BCD x A), N = 1_B (x) (psi as (CD x AB)) / sqrt q, and
    # M+ N is the Gram matrix of psi as (AB x CD), regrouped to dA x (q dA q).
    # F_out: M = out as (AB' x C'D), N = (R+ (x) 1_q) / sqrt q, where the QR of
    # (psi as A x BCD)+ gives R+ R = rho_A; N+ M has the same norm.  F_BC:
    # N = 1 / q, so F = tr sqrt(rho_BC) / q from the BC spectrum.
    dA = state.dims[0]
    psi = state.amplitudes.reshape(dA * q, -1)
    f_in = min(1.0, trace_norm((psi.conj() @ psi.T).reshape(dA, -1)) / math.sqrt(q))
    r = np.linalg.qr(psi.reshape(dA, -1).conj().T, mode="r")
    f_out = min(1.0, trace_norm((r @ out.amplitudes.reshape(dA, -1)).reshape(len(r) * q, -1))
                / math.sqrt(q))
    f_bc = float(min(1.0, np.sqrt(probs["BC"]).sum() / q))

    return FourPartyReport(
        delta_S=delta_S,
        epsilon=eps,
        cond_A=S["A"] - S["AB"],
        cond_D=S["D"] - S["AB"],
        S_B=S["B"],
        S_Bp=S["Bp"],
        S_C=S["C"],
        S_Cp=S["Cp"],
        S_BC=S["BC"],
        I_AB_C=S["AB"] + S["C"] - S["D"],
        I_B_CD=S["B"] + S["AB"] - S["A"],
        I_A_Bp=S["A"] + S["Bp"] - S["ABp"],
        I_Cp_D=S["Cp"] + S["D"] - S["ABp"],
        F_out=f_out,
        F_in=f_in,
        F_BC=f_bc,
        q=q,
    )


def reconstruct_distillable(state: PureState):
    """Rebuild the Bell (x) sigma (x) Bell structure of a four-party input.

    Purifies I/q into a qudit factor A2 and rho_CD into A1, aligns with a
    unitary on A, repeats on the D side, and returns (sigma_{A1 D1},
    ||U_D U_A rho U_A+ U_D+ - sigma||_1) for sigma = alpha_{A2 B} (x)
    sigma_{A1 D1} (x) beta_{C D2} with Bell pairs alpha, beta.  A and D dims
    must be divisible by q; purifications that do not fit their ancilla factor
    keep the largest eigenvectors (the achieved distance is what is reported).
    """
    if state.n_subsystems != 4:
        raise ValueError(f"state must have exactly 4 parties, got {state.n_subsystems}")
    dA, q, q2, dD = state.dims
    if q != q2:
        raise ValueError(f"B and C dims differ: {q} vs {q2}")
    if dA % q or dD % q or dA < q or dD < q:
        raise ValueError(
            f"A and D dims must be multiples of q >= q to host a qudit factor, "
            f"got dA = {dA}, dD = {dD}, q = {q}"
        )
    dA1, dD1 = dA // q, dD // q

    bell = bell_state(q)  # used for both alpha_{A2 B} and beta_{C D2}

    # left side: phi_L = alpha_{A2 B} (x) mu_{A1 CD} on axes (A1, A2, B, C, D)
    mu = purify(reduce(state, {2, 3}), ancilla_dim=dA1)  # axes (C, D, A1)
    phi_l = np.einsum("cda,eb->aebcd", mu.tensor(), bell.tensor()).reshape(-1)
    u_a, _ = uhlmann_align(state, PureState(phi_l, state.dims), {0})
    psi2 = apply_unitary(state, u_a, (0,))

    # right side: phi_R = nu_{A B D1} (x) beta_{C D2} on axes (A, B, C, D2, D1)
    nu = purify(reduce(psi2, {0, 1}), ancilla_dim=dD1)  # axes (A, B, D1)
    phi_r = np.einsum("abe,cf->abcfe", nu.tensor(), bell.tensor()).reshape(-1)
    u_d, _ = uhlmann_align(psi2, PureState(phi_r, state.dims), {3})
    psi3 = apply_unitary(psi2, u_d, (3,))

    # sigma_{A1 D1} = tr_{A2 B} nu; on (A1, A2 B C D2, D1) sigma lives on the e (x) w
    # for e in A1 D1 and the real w = alpha (x) beta, and psi3 = sum_e phi_e e (x) w + r.
    # On them and r / ||r||, psi3 psi3+ - sigma = v v+ - (sigma_{A1 D1} (+) 0) for
    # v = (phi, ||r||); ||r|| is the residual's norm, as sqrt(1 - ||phi||^2) cancels to ~1e-8.
    sigma = reduce(PureState(nu.amplitudes, (dA1, q * q, dD1)), {0, 2})
    w = np.kron(bell.amplitudes, bell.amplitudes)
    psi = psi3.amplitudes.reshape(dA1, -1, dD1)
    phi = w @ psi
    v = np.append(phi, np.linalg.norm(psi - phi[:, None, :] * w[:, None]))
    return sigma, trace_norm(np.outer(v, v.conj()) - np.pad(sigma.matrix, (0, 1)))
