"""Property tests of the dual-unitarity identities, the gate-validation edge,
the Cartan chamber walls and eigenvalue clustering, the deficit-vs-defect
scan, the four-party bounds near Bell (x) Bell and the exact MPS brickwork
against dense evolution.

Runs are derandomized with a bounded example count, so the suite draws the
same examples on every run.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import chain_sites, random_pure
from dulab.circuit import (
    BrickworkCircuit,
    bond_entropies,
    contract_chain,
    dimer_sites,
    evolve,
    four_party_report,
    product_sites,
    zigzag_check,
)
from dulab.ensemble import NOISE_FLOOR, eps_delta_scan, random_hermitian_direction
from dulab import circuit as ckt
from dulab import gates
from dulab.gates import (
    CHAMBER_WALL,
    GATE_UNITARITY_TOL,
    QUARTER,
    Gate,
    cartan_decompose,
    choi_defect,
    choi_output_state,
    cz_gate,
    fourier_gate,
    gram_defect,
    haar_gate,
    haar_unitary,
    interaction_gate,
    kicked_ising_gate,
    nearest_dual_q2,
    reshuffle,
    swap_gate,
)
from dulab.qinfo import (
    PureState,
    apply_unitary,
    bell_state,
    entropy_vn,
    kron_states,
    reduce,
    trace_norm,
    unitarity_defect,
)

derandomized = settings(derandomize=True, max_examples=40, deadline=None)

seeds = st.integers(0, 2 ** 32 - 1)
haar_gates = st.builds(haar_gate, st.sampled_from((2, 3)), seeds)

_ISWAP = np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]])
DUAL_BASES = {
    "swap-2": swap_gate(2),
    "swap-3": swap_gate(3),
    "iswap": Gate(2, _ISWAP),
    "fourier-2": fourier_gate(2),
    "fourier-3": fourier_gate(3),
}


@st.composite
def dressed_duals(draw, q=None):
    """(a (x) b) u (c (x) d) for a dual-unitary u (on qudits of dimension q,
    when given) and Haar one-site factors."""
    names = sorted(k for k, g in DUAL_BASES.items() if q in (None, g.q))
    base = DUAL_BASES[draw(st.sampled_from(names))]
    q = base.q
    a, b, c, d = (haar_unitary(q, draw(seeds)) for _ in range(4))
    return Gate(q, np.kron(a, b) @ base.matrix @ np.kron(c, d))


def eigenvalue_choi_defect(g: Gate) -> float:
    """||rho_AB' - I/q^2||_1 from the density matrix of the output state."""
    target = np.eye(g.q ** 2) / g.q ** 2
    return float(np.abs(np.linalg.eigvalsh(target - choi_output_state(g).matrix)).sum())


def check_identities(g: Gate) -> None:
    q = g.q
    assert abs(q ** 2 * choi_defect(g) - gram_defect(g)) <= 1e-9
    assert np.array_equal(reshuffle(reshuffle(g.matrix, q), q), g.matrix)
    assert abs(choi_defect(g) - eigenvalue_choi_defect(g)) <= 1e-13


@derandomized
@given(haar_gates)
def test_identities_on_haar_gates(g):
    check_identities(g)


@derandomized
@given(dressed_duals())
def test_identities_on_dressed_duals(g):
    check_identities(g)
    assert choi_defect(g) <= 1e-10
    assert gram_defect(g) <= 1e-10


@derandomized
@given(st.sampled_from((2, 3)), seeds)
def test_reshuffle_involution_on_any_matrix(q, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((q * q, q * q)) + 1j * rng.standard_normal((q * q, q * q))
    assert np.array_equal(reshuffle(reshuffle(m, q), q), m)


@derandomized
@given(haar_gates, st.floats(-1e-3, 1e-3))
def test_unitarity_defect_is_the_trace_norm(g, scale):
    m = g.matrix * (1 + scale)
    d = m @ m.conj().T - np.eye(m.shape[0])
    assert unitarity_defect(m) == pytest.approx(trace_norm(d), rel=1e-12, abs=1e-15)


def _stretched(g: Gate, defect: float) -> np.ndarray:
    """g with one singular value raised so that ||m m+ - I||_1 = defect."""
    s = np.ones(g.q ** 2)
    s[0] = np.sqrt(1 + defect)
    return g.matrix * s


@derandomized
@given(haar_gates)
def test_gate_accepts_just_under_tolerance(g):
    m = _stretched(g, GATE_UNITARITY_TOL * (1 - 1e-3))
    assert unitarity_defect(m) < GATE_UNITARITY_TOL
    Gate(g.q, m)


@derandomized
@given(haar_gates)
def test_gate_rejects_just_over_tolerance(g):
    m = _stretched(g, GATE_UNITARITY_TOL * (1 + 1e-3))
    assert unitarity_defect(m) > GATE_UNITARITY_TOL
    with pytest.raises(ValueError, match="not unitary"):
        Gate(g.q, m)


# ---------------------------------------------------------------------------
# Cartan chamber walls and the snap certificate
# ---------------------------------------------------------------------------

WALL_DISTANCES = (0.0, 1e-15, 1e-13, 1e-12, 1e-10, 1e-7)
signs = st.sampled_from((1, -1))
#: each coordinate sits near its wall two times in three, so the corners
#: where walls meet (SWAP, iSWAP) are drawn often
near_wall = st.sampled_from((True, True, False))


def dressed(u: np.ndarray, draw) -> Gate:
    """(a (x) b) u (c (x) d) with Haar one-site factors."""
    a, b, c, d = (haar_unitary(2, draw(seeds)) for _ in range(4))
    return Gate(2, np.kron(a, b) @ u @ np.kron(c, d))


@st.composite
def near_wall_gates(draw, distance: float):
    """A dressed interaction gate exp(-i (x XX + y YY + z ZZ)).  Each of the
    walls x = pi/4, y = x and |z| = y is either missed by ``distance`` to
    one side or the other, or the coordinate lies anywhere below it."""
    def coordinate(wall: float) -> float:
        if draw(near_wall):
            return wall - draw(signs) * distance
        return wall * draw(st.floats(0.0, 1.0))

    x = coordinate(QUARTER)
    y = coordinate(x)
    z = draw(signs) * coordinate(y)
    return dressed(interaction_gate(x, y, z), draw)


NAMED_Q2 = {"swap": swap_gate(2).matrix, "cz": cz_gate(2).matrix, "iswap": _ISWAP}


@st.composite
def dressed_named(draw):
    return dressed(NAMED_Q2[draw(st.sampled_from(sorted(NAMED_Q2)))], draw)


def check_cartan(g: Gate) -> None:
    """J in the chamber pi/4 >= Jx >= Jy >= |Jz| with Jz >= 0 on the Jx = pi/4
    wall, each wall held to CHAMBER_WALL; magnitudes are ordered and Jx, Jy
    non-negative to the 1e-15 of rounding that cartan_decompose allows.  The
    snapped gate is dual and within the 14 sqrt(delta) certificate."""
    x, y, z = cartan_decompose(g).J
    assert x <= QUARTER + CHAMBER_WALL + 1e-15
    assert abs(x) >= abs(y) - 1e-15 and abs(y) >= abs(z) - 1e-15
    assert min(x, y) >= -1e-15
    assert x >= y - 1e-15 and y >= abs(z) - 1e-15
    if QUARTER - x < CHAMBER_WALL:
        assert z >= -1e-15
    ux, dist = nearest_dual_q2(g)
    assert choi_defect(ux) <= 1e-10
    delta = 4 * choi_defect(g)
    if 0 < delta <= 0.1:
        assert dist <= 14 * math.sqrt(delta)


@pytest.mark.parametrize("distance", WALL_DISTANCES)
def test_cartan_chamber_near_walls(distance):
    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(near_wall_gates(distance))
    def check(g):
        check_cartan(g)

    check()


@derandomized
@given(dressed_named())
def test_cartan_chamber_on_dressed_swap_cz_iswap(g):
    check_cartan(g)


#: coefficient coincidences, where the m^T m spectrum of cartan_decompose is
#: (nearly) degenerate and the Jacobi polish separates the eigenvectors, from
#: exact coincidence up to 1e-5
CLUSTER_DISTANCES = (0.0, 1e-13, 1e-10, 1e-8, 1e-7 * (1 - 1e-3), 1e-7 * (1 + 1e-3), 1e-5)


@st.composite
def coinciding_gates(draw, distance: float):
    """A dressed interaction gate whose coefficients coincide up to
    ``distance``, to one side or the other: Jx = Jy, Jy = |Jz|,
    Jx = pi/4 = Jy, or J = 0; the free coefficients lie anywhere below."""
    def near(value: float) -> float:
        return value - draw(signs) * distance

    def below(value: float) -> float:
        return value * draw(st.floats(0.0, 1.0))

    kind = draw(st.sampled_from(("x=y", "y=|z|", "x=y=pi/4", "J=0")))
    if kind == "x=y":
        x = below(QUARTER)
        y = near(x)
        z = draw(signs) * below(y)
    elif kind == "y=|z|":
        x = below(QUARTER)
        y = below(x)
        z = draw(signs) * near(y)
    elif kind == "x=y=pi/4":
        x, y = near(QUARTER), near(QUARTER)
        z = draw(signs) * below(min(x, y))
    else:
        x, y, z = (draw(signs) * below(distance) for _ in range(3))
    return dressed(interaction_gate(x, y, z), draw)


@pytest.mark.parametrize("distance", CLUSTER_DISTANCES)
def test_cartan_at_eigenvalue_clustering_edge(distance):
    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(coinciding_gates(distance))
    def check(g):
        assert trace_norm(cartan_decompose(g).reconstruct().matrix - g.matrix) <= 1e-12
        check_cartan(g)

    check()


# ---------------------------------------------------------------------------
# the deficit-vs-defect scan and the four-party audit near Bell (x) Bell
# ---------------------------------------------------------------------------

def log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0 ** x)


def perturbed(base: Gate, theta: float, seed: int) -> Gate:
    """The scan's gate base exp(-i theta H) along its direction H from ``seed``."""
    return gates.perturbed(base, theta, random_hermitian_direction(base.q ** 2, seed))


def bell_pairs(q: int) -> PureState:
    return kron_states(bell_state(q), bell_state(q))


scan_thetas = st.lists(log_uniform(1e-6, 1.0), min_size=1, max_size=4)


@derandomized
@given(dressed_duals(), scan_thetas, seeds)
def test_scan_epsilon_is_the_audit_epsilon(g, thetas, seed):
    # the four-party audit on Bell (x) Bell is the oracle for epsilon; the
    # scan reports a value below the noise floor as an exact zero
    for pt in eps_delta_scan(g, thetas, seed):
        eps = four_party_report(perturbed(g, pt.theta, seed), bell_pairs(g.q)).epsilon
        assert abs(pt.epsilon - (eps if abs(eps) >= NOISE_FLOOR else 0.0)) <= 1e-13


@derandomized
@given(dressed_duals(), scan_thetas, seeds)
def test_scan_obeys_pinsker(g, thetas, seed):
    for pt in eps_delta_scan(g, thetas, seed):
        assert pt.delta <= math.sqrt(2 * (pt.epsilon + NOISE_FLOOR))


def dense_audit_entropies(u: Gate, state: PureState) -> dict:
    """The 13 entropic fields of the audit from dense marginals of all 13
    subsystem sets, without using complementarity."""
    out = apply_unitary(state, u.matrix, (1, 2))

    def S(psi, *keep):
        return entropy_vn(reduce(psi, set(keep)))

    a, b, c, d = (S(state, k) for k in range(4))
    ab, bc, cd = S(state, 0, 1), S(state, 1, 2), S(state, 2, 3)
    abc, bcd = S(state, 0, 1, 2), S(state, 1, 2, 3)
    bp, cp, abp, cpd = S(out, 1), S(out, 2), S(out, 0, 1), S(out, 2, 3)
    return {
        "delta_S": abp - ab, "epsilon": 2 * math.log(u.q) - (abp - ab),
        "cond_A": a - ab, "cond_D": d - cd,
        "S_B": b, "S_Bp": bp, "S_C": c, "S_Cp": cp, "S_BC": bc,
        "I_AB_C": ab + c - abc, "I_B_CD": b + cd - bcd,
        "I_A_Bp": a + bp - abp, "I_Cp_D": cp + d - cpd,
    }


@derandomized
@given(dressed_duals(), st.just(0.0) | log_uniform(1e-6, 1e-2), seeds,
       log_uniform(1e-12, 1e-3), seeds)
def test_four_party_bounds_near_bell_pairs(g, theta, seed, weight, state_seed):
    # epsilon -> 0: every bound is nearly tight and F_out, F_in take square
    # roots of nearly rank-deficient marginals
    u = perturbed(g, theta, seed)
    r = random_pure((g.q,) * 4, seed=state_seed).amplitudes
    v = math.sqrt(1 - weight) * bell_pairs(g.q).amplitudes + math.sqrt(weight) * r
    state = PureState(v / np.linalg.norm(v), (g.q,) * 4)
    rep = four_party_report(u, state)
    assert rep.all_hold(), rep.inequality_checks()
    for field, want in dense_audit_entropies(u, state).items():
        assert abs(getattr(rep, field) - want) <= 1e-12, field


# ---------------------------------------------------------------------------
# the exact MPS brickwork against dense evolution
# ---------------------------------------------------------------------------

def dense_evolve(circuit: BrickworkCircuit, state: PureState, T: int) -> np.ndarray:
    """Bond profiles after each of T layers from the dense state vector."""
    profiles = [bond_entropies(state)]
    for t in range(1, T + 1):
        for b, u in circuit.layer(t).items():
            state = apply_unitary(state, u, (b, b + 1))
        profiles.append(bond_entropies(state))
    return np.array(profiles)


@st.composite
def brickworks(draw, sizes):
    """A brickwork circuit with its own Haar or dressed dual gate on every bond."""
    q, L = draw(st.sampled_from(sizes))
    bond_gate = st.builds(haar_gate, st.just(q), seeds) | dressed_duals(q)
    gates_ = {b: draw(bond_gate) for b in range(L - 1)}
    return BrickworkCircuit(L=L, q=q, gate=gates_[0], bond_gates=gates_,
                            first_parity=draw(st.sampled_from(("even", "odd"))))


ORACLE_SIZES = tuple((q, L) for q in (2, 3) for L in range(4, 13, 2))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(brickworks(ORACLE_SIZES), st.integers(1, 8), seeds)
def test_mps_evolve_matches_dense_oracle(circuit, T, seed):
    state = random_pure((circuit.q,) * circuit.L, seed=seed)
    want = dense_evolve(circuit, state, T)
    assert np.abs(evolve(circuit, chain_sites(state), T).profiles - want).max() <= 1e-12


@pytest.mark.parametrize("q, L, T", [(2, 12, 12), (3, 8, 8)])
@pytest.mark.parametrize("start", ["product", "dimer", "random"])
def test_chain_stays_right_canonical_after_every_layer(q, L, T, start):
    # every layer but the last forms site tensors; each must stay an isometry
    # from its left bond, site 0 holding the unit norm
    circuit = BrickworkCircuit(L=L, q=q, gate=haar_gate(q, 1),
                               bond_gates={b: haar_gate(q, 10 + b) for b in range(L - 1)})
    sites = {"product": product_sites(L, q), "dimer": dimer_sites(L, q),
             "random": chain_sites(random_pure((q,) * L, seed=L))}[start]
    sites = ckt._left_canonical(sites)
    probs = ckt._sweep(sites)
    for t in range(1, T):
        ckt._layer(sites, probs, circuit.layer(t), values_only=False)
        for a in sites:
            gram = np.einsum("lir,mir->lm", a, a.conj())
            assert np.abs(gram - np.eye(len(gram))).max() <= 1e-12, (t, a.shape)


def planted_state(q: int, L: int, cut: int, small, seed: int) -> PureState:
    """A random state whose Schmidt weights at ``cut`` are 1 - sum(small)
    and the listed small weights, and no others."""
    rng = np.random.default_rng(seed)
    p = np.array([1.0 - sum(small), *small])

    def frame(d):
        z = rng.standard_normal((d, len(p))) + 1j * rng.standard_normal((d, len(p)))
        return np.linalg.qr(z)[0]

    m = (frame(q ** (cut + 1)) * np.sqrt(p)) @ frame(q ** (L - cut - 1)).T
    return PureState(m.reshape(-1), (q,) * L)


EDGE_SIZES = ((2, 6), (2, 8), (3, 6))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(brickworks(EDGE_SIZES), st.integers(1, 3), st.data())
def test_mps_truncation_edge_matches_dense_oracle(circuit, T, data):
    # exact zero Schmidt weights (dimer, product) and weights of 1e-15 ... 1e-12
    # of the largest: the singular-value cut drops only the zeros
    q, L = circuit.q, circuit.L
    kind = data.draw(st.sampled_from(("dimer", "product", "planted")))
    if kind == "planted":
        cut = data.draw(st.integers(1, L - 3))
        small = data.draw(st.lists(log_uniform(1e-15, 1e-12), min_size=1, max_size=3))
        state = planted_state(q, L, cut, small, data.draw(seeds))
        inputs = (chain_sites(state),)
    else:
        sites = dimer_sites(L, q) if kind == "dimer" else product_sites(L, q)
        state = PureState(contract_chain(np.ones((1, 1)), sites).reshape(-1), (q,) * L)
        inputs = (chain_sites(state), sites)
    want = dense_evolve(circuit, state, T)
    for initial in inputs:
        profiles = evolve(circuit, initial, T).profiles
        assert np.abs(profiles - want).max() <= 1e-12
    if kind == "planted":
        p = np.array([1.0 - sum(small), *small])
        assert abs(profiles[0, cut] + (p * np.log(p)).sum()) <= 1e-12


def test_zigzag_relay_at_forty_sites():
    # 2^40 amplitudes are far over the budget; the bond dimension stays at 2^7 here
    L = 40
    kim = kicked_ising_gate(QUARTER, QUARTER, 0.3)
    circ = BrickworkCircuit(L=L, q=2, gate=kim, first_parity="odd")
    rec = evolve(circ, dimer_sites(L, 2), 6)
    central = rec.central_series()
    for t in (2, 4, 6):
        assert central[t] == pytest.approx(t * math.log(2), abs=1e-9)
        ok, _ = zigzag_check(rec.profiles[t][t:L - 1 - t], 2, tol=1e-9)
        assert ok
