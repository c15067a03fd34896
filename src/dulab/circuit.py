"""Brickwork evolution on a finite open chain, entanglement profiles,
velocity estimation, zigzag detection and the four-party growth audit.

The finite open chain stands in for an infinite lattice: central-cut values
are only trusted while the light cone from the cut has not reached a
boundary (2t + 2 <= L), tracked by ``light_cone_valid``.

Layer parity: by default the t = 1 layer acts on even bonds (0-1, 2-3, ...);
``first_parity="odd"`` aligns the first layer with the valleys of a dimer
profile instead, which is what the zigzag relay requires for initial states
that already carry the alternating pattern.
"""
from __future__ import annotations

import csv
import math
import os
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from .gates import Gate
from .qinfo import (
    DensityMatrix,
    PureState,
    apply_unitary,
    bell_state,
    entropy_from_probs,
    fidelity,
    kron_states,
    marginal_probs,
    permute_subsystems,
    purify,
    reduce,
    trace_norm_distance,
    uhlmann_align,
)

DEFAULT_MAX_AMPLITUDES = 2 ** 26
CAPACITY_ENV = "DULAB_MAX_AMPLITUDES"


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


def _check_capacity(n_amplitudes: int) -> None:
    cap = max_amplitudes()
    if n_amplitudes > cap:
        raise CapacityError(
            f"state of {n_amplitudes} amplitudes exceeds the budget {cap} "
            f"(override via {CAPACITY_ENV})"
        )


# ---------------------------------------------------------------------------
# initial states
# ---------------------------------------------------------------------------

def product_state(L: int, q: int, site_states: Sequence[np.ndarray] | None = None) -> PureState:
    """Product state; all |0> unless per-site vectors are given."""
    if site_states is None:
        site_states = [None] * L
    if len(site_states) != L:
        raise ValueError(f"need {L} site states, got {len(site_states)}")
    _check_capacity(q ** L)
    v = np.array([1.0 + 0j])
    for s in site_states:
        if s is None:
            site = np.zeros(q, dtype=complex)
            site[0] = 1.0
        else:
            site = np.asarray(s, dtype=complex).reshape(-1)
            if site.size != q:
                raise ValueError(f"site state of length {site.size} != q = {q}")
            site = site / np.linalg.norm(site)
        v = np.kron(v, site)
    return PureState(v, (q,) * L)


def dimer_state(L: int, q: int) -> PureState:
    """Bell pairs on (0,1), (2,3), ...; bond profile alternates ln q, 0."""
    if L % 2:
        raise ValueError(f"dimer state needs even L, got {L}")
    _check_capacity(q ** L)
    return kron_states(*(bell_state(q) for _ in range(L // 2)))


def xy_product_state(L: int, phases: Sequence[float] | None = None) -> PureState:
    """Qubit product state with every spin on the xy plane (T-class)."""
    if phases is None:
        phases = [0.0] * L
    sites = [np.array([1.0, np.exp(1j * p)]) / math.sqrt(2) for p in phases]
    return product_state(L, 2, sites)


def z_product_state(L: int, bits: Sequence[int] | None = None) -> PureState:
    """Qubit product state with every spin along z (L-class)."""
    if bits is None:
        bits = [0] * L
    sites = []
    for b in bits:
        site = np.zeros(2, dtype=complex)
        site[int(b)] = 1.0
        sites.append(site)
    return product_state(L, 2, sites)


def initial_state(kind: str, L: int, q: int, **params) -> PureState:
    """Named initial states: product, dimer, xy, z, or an explicit vector."""
    kind = kind.lower()
    if kind == "product":
        return product_state(L, q, params.get("site_states"))
    if kind == "dimer":
        return dimer_state(L, q)
    if kind == "xy":
        if q != 2:
            raise ValueError("xy product states are defined for q = 2")
        return xy_product_state(L, params.get("phases"))
    if kind == "z":
        if q != 2:
            raise ValueError("z product states are defined for q = 2")
        return z_product_state(L, params.get("bits"))
    if kind == "vector":
        vec = params.get("vector")
        if vec is None:
            raise ValueError("kind='vector' needs vector=...")
        vec = np.asarray(vec, dtype=complex).reshape(-1)
        nrm = np.linalg.norm(vec)
        if nrm == 0:
            raise ValueError("explicit vector must be nonzero")
        return PureState(vec / nrm, (q,) * L)
    raise ValueError(f"unknown initial state kind {kind!r}")


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
        for g in self._all_gates():
            if g.q != self.q:
                raise ValueError(f"gate with q = {g.q} in a q = {self.q} circuit")

    def _all_gates(self):
        yield self.gate
        if self.first_layer_override is not None:
            yield self.first_layer_override
        for g in (self.bond_gates or {}).values():
            yield g

    def layer_parity(self, t: int) -> str:
        first = self.first_parity
        other = "odd" if first == "even" else "even"
        return first if t % 2 == 1 else other

    def layer_bonds(self, t: int) -> range:
        start = 0 if self.layer_parity(t) == "even" else 1
        return range(start, self.L - 1, 2)

    def gate_for(self, t: int, bond: int) -> Gate:
        if t == 1 and self.first_layer_override is not None:
            return self.first_layer_override
        if self.bond_gates:
            g = self.bond_gates.get(bond)
            if g is not None:
                return g
        return self.gate


@dataclass(frozen=True, eq=False)
class EntanglementRecord:
    """Bond-entropy profiles (nats) after each layer, t = 0 being the input."""

    times: tuple
    profiles: np.ndarray  # shape (len(times), L - 1)
    light_cone_valid: tuple
    q: int = 2

    @property
    def L(self) -> int:
        return self.profiles.shape[1] + 1

    def profile(self, t: int) -> np.ndarray:
        return self.profiles[self.times.index(t)]

    def central_cut(self) -> int:
        return self.L // 2 - 1

    def central_series(self) -> np.ndarray:
        return self.profiles[:, self.central_cut()]

    def max_step_increase(self) -> float:
        """Largest one-layer entropy increase over all cuts (per-gate bound)."""
        diffs = np.diff(self.profiles, axis=0)
        return float(diffs.max()) if diffs.size else 0.0

    def to_csv(self, stream) -> None:
        """Write the record as CSV rows to a text stream (a file opened
        with ``newline=""``): ``t,bond,entropy_nats,light_cone_valid``."""
        w = csv.writer(stream)
        w.writerow(["t", "bond", "entropy_nats", "light_cone_valid"])
        for i, t in enumerate(self.times):
            for b in range(self.L - 1):
                w.writerow([t, b, repr(float(self.profiles[i, b])),
                            str(bool(self.light_cone_valid[i])).lower()])


def _apply_pair_gate(psi: np.ndarray, u: np.ndarray, site: int, dims: tuple) -> np.ndarray:
    left = int(np.prod(dims[:site])) if site else 1
    d2 = dims[site] * dims[site + 1]
    right = int(np.prod(dims[site + 2:])) if site + 2 < len(dims) else 1
    t = psi.reshape(left, d2, right)
    return np.einsum("pq,lqr->lpr", u, t).reshape(-1)


def bond_entropies(state: PureState) -> np.ndarray:
    """Entropy of the left segment [0..b] for every cut b."""
    return np.array([entropy_from_probs(marginal_probs(state, range(b + 1)))
                     for b in range(state.n_subsystems - 1)])


def evolve(circuit: BrickworkCircuit, initial: PureState, T: int) -> EntanglementRecord:
    """Apply T alternating brickwork layers, recording bond entropies after
    each layer; the central-cut flag goes false once 2t + 2 > L."""
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if initial.dims != (circuit.q,) * circuit.L:
        raise ValueError(
            f"initial state dims {initial.dims} do not match circuit "
            f"(L = {circuit.L}, q = {circuit.q})"
        )
    _check_capacity(initial.amplitudes.size)
    psi = initial.amplitudes.copy()
    dims = initial.dims
    profiles = [bond_entropies(initial)]
    valid = [True]
    for t in range(1, T + 1):
        for bond in circuit.layer_bonds(t):
            u = circuit.gate_for(t, bond)
            psi = _apply_pair_gate(psi, u.matrix, bond, dims)
        state = PureState(psi, dims)
        psi = state.amplitudes  # one copy of the state alive during the sweep
        profiles.append(bond_entropies(state))
        valid.append(2 * t + 2 <= circuit.L)
    return EntanglementRecord(
        times=tuple(range(T + 1)),
        profiles=np.array(profiles),
        light_cone_valid=tuple(valid),
        q=circuit.q,
    )


def estimate_vE(record: EntanglementRecord, cut: int, window: Sequence[int]):
    """Least-squares slope of S(cut) over the listed time steps, in units of
    ln q; the residual is the largest absolute deviation from the fit.

    ``window`` is an explicit list of recorded time steps, all of which must
    lie within the valid light-cone window.  The estimate is per supplied
    initial state; no maximization over initial states is attempted.
    """
    window = [int(t) for t in window]
    if len(window) < 3:
        raise ValueError(f"window needs at least 3 time steps, got {len(window)}")
    for t in window:
        if t not in record.times:
            raise ValueError(f"time {t} not recorded")
        if not record.light_cone_valid[record.times.index(t)]:
            raise ValueError(f"time {t} is outside the valid light-cone window")
    s = np.array([record.profiles[record.times.index(t), cut] for t in window])
    ts = np.array(window, dtype=float)
    slope, intercept = np.polyfit(ts, s, 1)
    residual = float(np.abs(s - (slope * ts + intercept)).max())
    return float(slope) / math.log(record.q), residual


def zigzag_check(profile: Sequence[float], q: int, tol: float = 1e-9):
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
    recon_distance: float | None = None

    @property
    def bounds_vacuous(self) -> bool:
        return self.epsilon > math.log(self.q)

    def inequality_checks(self, slack: float = 1e-9) -> dict:
        """Every audited bound, evaluated with the measured epsilon."""
        lnq = math.log(self.q)
        eps = self.epsilon
        fl = math.exp(-eps)
        return {
            "cond_A_ge_lnq_minus_eps": self.cond_A >= lnq - eps - slack,
            "cond_D_ge_lnq_minus_eps": self.cond_D >= lnq - eps - slack,
            "S_B_ge_lnq_minus_eps": self.S_B >= lnq - eps - slack,
            "S_Bp_ge_lnq_minus_eps": self.S_Bp >= lnq - eps - slack,
            "S_C_ge_lnq_minus_eps": self.S_C >= lnq - eps - slack,
            "S_Cp_ge_lnq_minus_eps": self.S_Cp >= lnq - eps - slack,
            "S_BC_ge_2lnq_minus_2eps": self.S_BC >= 2 * lnq - 2 * eps - slack,
            "I_AB_C_le_eps": self.I_AB_C <= eps + slack,
            "I_B_CD_le_eps": self.I_B_CD <= eps + slack,
            "I_A_Bp_le_eps": self.I_A_Bp <= eps + slack,
            "I_Cp_D_le_eps": self.I_Cp_D <= eps + slack,
            "F_out_ge_exp_minus_eps": self.F_out >= fl - slack,
            "F_in_ge_exp_minus_eps": self.F_in >= fl - slack,
            "F_BC_ge_exp_minus_eps": self.F_BC >= fl - slack,
        }

    def all_hold(self, slack: float = 1e-9) -> bool:
        return all(self.inequality_checks(slack).values())

    def to_json_dict(self) -> dict:
        """The audited fields in declaration order (without ``q``), then
        ``bounds_vacuous``, ``checks`` and, when set, ``recon_distance``."""
        out = asdict(self)
        del out["q"]
        recon = out.pop("recon_distance")
        out["bounds_vacuous"] = self.bounds_vacuous
        out["checks"] = self.inequality_checks()
        if recon is not None:
            out["recon_distance"] = recon
        return out


def four_party_report(
    u: Gate, state: PureState, with_reconstruction: bool = False
) -> FourPartyReport:
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
    dA, dD = state.dims[0], state.dims[3]

    f_out = fidelity(
        reduce(out, {0, 1}),
        DensityMatrix(np.kron(reduce(state, {0}).matrix, np.eye(q) / q), (dA, q), validate=False),
    )
    f_in = fidelity(
        reduce(state, {1, 2, 3}),
        DensityMatrix(np.kron(np.eye(q) / q, reduce(state, {2, 3}).matrix), (q, q, dD),
                      validate=False),
    )
    # F(rho, I/d) = tr sqrt(rho) / sqrt(d), held to [0, 1] like ``fidelity``
    f_bc = float(min(1.0, np.sqrt(probs["BC"]).sum() / q))

    recon = None
    if with_reconstruction:
        _, recon = reconstruct_distillable(state)

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
        recon_distance=recon,
    )


def reconstruct_distillable(state: PureState):
    """Rebuild the Bell (x) sigma (x) Bell structure of a four-party input.

    Purifies I/q into a qudit factor A2 and rho_CD into A1, aligns with a
    unitary on A, repeats on the D side, and assembles
    sigma = alpha_{A2 B} (x) sigma_{A1 D1} (x) beta_{C D2}.  Returns
    (sigma, ||U_D U_A rho U_A+ U_D+ - sigma||_1).  A and D dims must be
    divisible by q; purifications that do not fit their ancilla factor keep
    the largest eigenvectors (the achieved distance is what is reported).
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
    rho_cd = reduce(state, {2, 3})
    mu = purify(rho_cd, ancilla_dim=dA1)  # axes (C, D, A1)
    mu_t = mu.tensor().transpose(2, 0, 1)  # (A1, C, D)
    alpha_t = bell.tensor()  # (A2, B)
    phi_l = np.einsum("acd,eb->aebcd", mu_t, alpha_t).reshape(-1)
    phi_l = PureState(phi_l, (dA1, q, q, q, dD))
    phi_l4 = PureState(phi_l.amplitudes, (dA, q, q, dD))

    u_a, _ = uhlmann_align(state, phi_l4, {0})
    psi2 = apply_unitary(state, u_a, (0,))

    # right side: phi_R = nu_{A B D1} (x) beta_{C D2} on axes (A, B, C, D2, D1)
    rho_ab = reduce(psi2, {0, 1})
    nu = purify(rho_ab, ancilla_dim=dD1)  # axes (A, B, D1)
    nu_t = nu.tensor()
    beta_t = bell.tensor()  # (C, D2)
    phi_r = np.einsum("abe,cf->abcfe", nu_t, beta_t).reshape(-1)
    phi_r4 = PureState(phi_r, (dA, q, q, dD))

    u_d, _ = uhlmann_align(psi2, phi_r4, {3})
    psi3 = apply_unitary(psi2, u_d, (3,))

    # sigma = alpha_{A2 B} (x) sigma_{A1 D1} (x) beta_{C D2} with
    # sigma_{A1 D1} = tr_{A2 B} nu; assembled on (A1, A2, B, C, D2, D1)
    nu6 = PureState(nu.amplitudes, (dA1, q, q, dD1))  # (A1, A2, B, D1)
    sigma_a1d1 = reduce(nu6, {0, 3})
    alpha_rho = bell.density()
    beta_rho = bell.density()
    big = np.kron(np.kron(sigma_a1d1.matrix, alpha_rho.matrix), beta_rho.matrix)
    sigma = DensityMatrix(big, (dA1, dD1, q, q, q, q), validate=False)
    # current order (A1, D1, A2, B, C, D2) -> (A1, A2, B, C, D2, D1)
    sigma = permute_subsystems(sigma, (0, 2, 3, 4, 5, 1))
    sigma4 = DensityMatrix(sigma.matrix, (dA, q, q, dD), validate=False)

    distance = trace_norm_distance(psi3.density(), sigma4)
    return sigma4, distance
