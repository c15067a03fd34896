"""Property tests of the dual-unitarity identities, the gate-validation edge
and the Cartan chamber walls.

Runs are derandomized with a bounded example count, so the suite draws the
same examples on every run.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    nearest_dual_q2,
    reshuffle,
    swap_gate,
)
from dulab.qinfo import trace_norm, unitarity_defect

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
def dressed_duals(draw):
    """(a (x) b) u (c (x) d) for a dual-unitary u and Haar one-site factors."""
    base = DUAL_BASES[draw(st.sampled_from(sorted(DUAL_BASES)))]
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
