import csv
import io
import math
import tracemalloc
import types

import numpy as np
import pytest

from dulab import circuit as ckt
from dulab import qinfo
from dulab.circuit import (
    BrickworkCircuit,
    CapacityError,
    EntanglementRecord,
    bond_entropies,
    chain_probs,
    contract_chain,
    dimer_sites,
    evolve,
    four_party_report,
    product_sites,
    reconstruct_distillable,
    xy_product_sites,
    z_product_sites,
    zigzag_check,
)
from dulab.gates import (
    Gate,
    cz_gate,
    fourier_gate,
    haar_gate,
    haar_unitary,
    identity_gate,
    kicked_ising_first_gate,
    kicked_ising_gate,
    swap_gate,
)
from dulab.qinfo import PureState, bell_state, entropy_vn, kron_states, marginal_probs, reduce
from dulab.cli import main
from conftest import blas_threads, chain_sites, random_pure

LN2 = math.log(2.0)
QUARTER = math.pi / 4


def input_profile(sites) -> np.ndarray:
    """Bond profile of a named initial state as ``evolve`` records it at t = 0."""
    L, q = len(sites), sites[0].shape[1]
    return evolve(BrickworkCircuit(L=L, q=q, gate=identity_gate(q)), sites, 1).profiles[0]


class TestInitialStates:
    def test_dimer_profile(self):
        prof = input_profile(dimer_sites(8, 2))
        want = [LN2, 0, LN2, 0, LN2, 0, LN2]
        assert np.allclose(prof, want, atol=1e-12)

    def test_product_profile_zero(self):
        prof = input_profile(product_sites(6, 2))
        assert np.allclose(prof, 0, atol=1e-12)

    def test_xy_product_is_product(self):
        prof = input_profile(xy_product_sites(6, phases=[0.1 * k for k in range(6)]))
        assert np.allclose(prof, 0, atol=1e-12)

    def test_z_product_is_product(self):
        prof = input_profile(z_product_sites(6, bits=[0, 1, 1, 0, 1, 0]))
        assert np.allclose(prof, 0, atol=1e-12)

    def test_capacity_guard(self, monkeypatch):
        # the site tensors of a swap relay outgrow the budget within one layer
        monkeypatch.setenv(ckt.CAPACITY_ENV, "100")
        circ = BrickworkCircuit(L=12, q=2, gate=swap_gate(2), first_parity="odd")
        with pytest.raises(CapacityError, match="exceeds the budget 100"):
            evolve(circ, dimer_sites(12, 2), 4)


class TestBondEntropies:
    def test_bell_then_products(self):
        psi = kron_states(bell_state(2), random_pure((2,), seed=1), random_pure((2,), seed=2))
        prof = bond_entropies(psi)
        assert prof[0] == pytest.approx(LN2, abs=1e-12)
        assert np.allclose(prof[1:], 0, atol=1e-10)

    @pytest.mark.parametrize("L,q", [(2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (4, 3)])
    def test_svd_matches_dense_oracle(self, L, q):
        psi = random_pure((q,) * L, seed=L * 10 + q)
        prof = bond_entropies(psi)
        for b in range(L - 1):
            dense = entropy_vn(reduce(psi, set(range(b + 1))))
            assert prof[b] == pytest.approx(dense, abs=1e-10)


class TestChainProbs:
    def test_mixed_site_dims_match_dense_oracle(self, rng):
        # sites of dimension 2, 3, 4, 1 and 2 with bonds up to 3; over 200
        # draws the worst weight difference was 1.4e-15
        shapes = [(1, 2, 2), (2, 3, 3), (3, 4, 3), (3, 1, 2), (2, 2, 1)]
        sites = [rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in shapes]
        v = contract_chain(np.ones((1, 1)), sites).reshape(-1)
        psi = PureState(v / np.linalg.norm(v), tuple(s[1] for s in shapes))
        probs = chain_probs(sites)
        assert len(probs) == len(sites) - 1
        for b, p in enumerate(probs):
            assert p.sum() == pytest.approx(1.0, abs=1e-14)
            want = np.sort(marginal_probs(psi, range(b + 1)))[::-1]
            got = np.pad(np.sort(p)[::-1], (0, len(want) - len(p)))
            assert np.abs(got - want).max() <= 1e-14

    def test_rejects_open_outer_bonds(self):
        with pytest.raises(ValueError, match="must chain with unit outer bonds"):
            chain_probs([np.ones((2, 2, 1)), np.ones((1, 2, 1))])


class TestEvolve:
    def test_swap_dimer_central_growth(self):
        L = 12
        circ = BrickworkCircuit(L=L, q=2, gate=swap_gate(2), first_parity="odd")
        rec = evolve(circ, dimer_sites(L, 2), 4)
        central = rec.central_series()
        for t in (2, 4):
            assert central[t] == pytest.approx(t * LN2, abs=1e-9)

    def test_identity_profile_constant(self):
        L = 8
        circ = BrickworkCircuit(L=L, q=2, gate=identity_gate(2))
        psi = random_pure((2,) * L, seed=3)
        rec = evolve(circ, chain_sites(psi), 3)
        for t in range(1, 4):
            assert np.allclose(rec.profiles[t], rec.profiles[0], atol=1e-10)

    def test_kicked_ising_L_class_growth(self):
        L = 14
        u = kicked_ising_gate(QUARTER, QUARTER, 0.3)
        circ = BrickworkCircuit(
            L=L, q=2, gate=u, first_layer_override=kicked_ising_first_gate(QUARTER, 0.3)
        )
        rec = evolve(circ, z_product_sites(L, bits=[k % 2 for k in range(L)]), 6)
        ok, parity = zigzag_check(rec.profiles[2], 2, tol=1e-9)
        assert ok and parity == "even"
        central = rec.central_series()
        # zigzag forms at t = 2; growth of 2 ln 2 per two layers afterwards
        for t in (4, 6):
            assert central[t] - central[t - 2] == pytest.approx(2 * LN2, abs=1e-9)

    def test_light_cone_flag(self):
        L = 8
        circ = BrickworkCircuit(L=L, q=2, gate=swap_gate(2))
        rec = evolve(circ, dimer_sites(L, 2), 4)
        # 2t + 2 <= L = 8 -> valid through t = 3
        assert rec.times == (0, 1, 2, 3, 4)
        assert rec.light_cone_valid == (True, True, True, True, False)

    def test_dims_checked_against_circuit(self):
        circ = BrickworkCircuit(L=6, q=2, gate=swap_gate(2))
        with pytest.raises(ValueError, match=r"initial state dims \(2, 2, 2, 2\) do not "
                                             r"match circuit \(L = 6, q = 2\)"):
            evolve(circ, dimer_sites(4, 2), 1)
        with pytest.raises(ValueError, match="do not match circuit"):
            evolve(circ, chain_sites(random_pure((2, 3, 2, 2, 2, 2), seed=1)), 1)

    def test_per_layer_increase_bounded(self):
        L = 10
        for gate, parity in [
            (haar_gate(2, 5), "even"),
            (kicked_ising_gate(QUARTER, QUARTER, 0.3), "odd"),
            (fourier_gate(2), "odd"),
        ]:
            circ = BrickworkCircuit(L=L, q=2, gate=gate, first_parity=parity)
            rec = evolve(circ, dimer_sites(L, 2), 4)
            assert rec.max_step_increase() <= 2 * LN2 + 1e-9

    def test_gate_resolution_precedence(self):
        swap = swap_gate(2)
        ident = identity_gate(2)
        kim = kicked_ising_gate(QUARTER, QUARTER, 0.3)
        circ = BrickworkCircuit(
            L=6, q=2, gate=swap,
            first_layer_override=ident,
            bond_gates={2: kim},
        )
        assert circ.layer(1)[2] is ident.matrix  # first-layer override beats the bond gate
        assert circ.layer(3)[2] is kim.matrix  # bond override
        assert circ.layer(3)[0] is swap.matrix

    @pytest.mark.parametrize("first_parity, odd_t, even_t", [
        ("even", [0, 2, 4, 6], [1, 3, 5]),
        ("odd", [1, 3, 5], [0, 2, 4, 6]),
    ])
    def test_layer_bonds_alternate_from_first_parity(self, first_parity, odd_t, even_t):
        circ = BrickworkCircuit(L=8, q=2, gate=swap_gate(2), first_parity=first_parity)
        for t in (1, 3, 5):
            assert list(circ.layer(t)) == odd_t
        for t in (2, 4, 6):
            assert list(circ.layer(t)) == even_t

    def test_evolve_reads_gates_only_from_layer(self):
        # any object with L, q and layer(t) drives ``evolve``
        circ = BrickworkCircuit(L=6, q=2, gate=haar_gate(2, 3), first_parity="odd")
        schedule = types.SimpleNamespace(L=6, q=2, layer=circ.layer)
        assert np.array_equal(evolve(schedule, dimer_sites(6, 2), 3).profiles,
                              evolve(circ, dimer_sites(6, 2), 3).profiles)

    @pytest.mark.parametrize("entry", ["evolve", "chain_probs"])
    def test_chain_entry_points_run_at_one_blas_thread(self, entry, monkeypatch):
        # the t = 0 sweep and every layer of ``evolve`` read the pinned count
        get, set_ = blas_threads()
        seen = []

        def recording(step):
            def run(*args, **kwargs):
                seen.append(get())
                return step(*args, **kwargs)
            return run

        monkeypatch.setattr(ckt, "_sweep", recording(ckt._sweep))
        monkeypatch.setattr(ckt, "_layer", recording(ckt._layer))
        before = get()
        try:
            set_(2)
            if entry == "evolve":
                evolve(BrickworkCircuit(L=6, q=2, gate=swap_gate(2)), dimer_sites(6, 2), 2)
            else:
                chain_probs(dimer_sites(6, 2))
            assert seen and set(seen) == {1}
            assert get() == 2
        finally:
            set_(before)

    def test_mismatched_q_rejected(self):
        with pytest.raises(ValueError, match="q = 3"):
            BrickworkCircuit(L=4, q=2, gate=haar_gate(3, 1))

    def test_record_csv(self, capsys):
        # the CSV that ``dulab zigzag`` emits: one row per (t, bond) of the record
        assert main(["zigzag", "--q", "2", "--L", "6", "--steps", "2"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["t", "bond", "entropy_nats", "light_cone_valid"]
        circ = BrickworkCircuit(L=6, q=2, gate=swap_gate(2), first_parity="odd")
        rec = evolve(circ, dimer_sites(6, 2), 2)
        assert rows[1:] == [[str(t), str(b), repr(float(rec.profiles[t, b])),
                             str(rec.light_cone_valid[t]).lower()]
                            for t in rec.times for b in range(5)]


def haar_brickwork(q: int, L: int, seed: int, parity: str = "even") -> BrickworkCircuit:
    """A brickwork circuit with its own Haar gate on every bond."""
    gates = {b: haar_gate(q, 100 * seed + b) for b in range(L - 1)}
    return BrickworkCircuit(L=L, q=q, gate=gates[0], bond_gates=gates, first_parity=parity)


class TestLayerMap:
    @pytest.mark.parametrize("bonds, message", [
        ({0: None, 5: None}, r"layer 2 gates bonds \[5\] outside the chain's bonds 0 \.\.\. 4"),
        ({-1: None, 2: None}, r"layer 2 gates bonds \[-1\] outside"),
        ({1: None, 2: None, 4: None}, r"layer 2 gates bonds that share a site: 1 and 2"),
        ({0: None, 1: None, 2: None}, r"share a site: 0 and 1, 1 and 2"),
    ], ids=["past-the-end", "negative", "adjacent", "three-in-a-row"])
    def test_bad_layer_map_rejected(self, bonds, message):
        # a layer acts on disjoint pairs of sites inside the chain; any other
        # map has no brickwork meaning and must not run
        swap = swap_gate(2).matrix
        gates = {b: swap for b in bonds}
        schedule = types.SimpleNamespace(L=6, q=2, layer=lambda t: {1: swap} if t == 1 else gates)
        with pytest.raises(ValueError, match=message):
            evolve(schedule, dimer_sites(6, 2), 3)

    def test_layer_map_checked_before_any_svd(self, monkeypatch):
        calls = []
        monkeypatch.setattr(ckt, "_svd_cut", lambda m: calls.append(m))
        schedule = types.SimpleNamespace(L=6, q=2, layer=lambda t: {0: None, 6: None})
        with pytest.raises(ValueError, match="layer 1 gates bonds"):
            evolve(schedule, dimer_sites(6, 2), 1)
        assert not calls


class TestGatedBondsOnly:
    @pytest.mark.parametrize("q, L, T", [(2, 12, 12), (3, 8, 8)])
    def test_ungated_bonds_keep_their_entropy_bit_for_bit(self, q, L, T):
        for parity in ("even", "odd"):
            circ = haar_brickwork(q, L, seed=3, parity=parity)
            for sites in (product_sites(L, q), dimer_sites(L, q)):
                profiles = evolve(circ, sites, T).profiles
                for t in range(1, T + 1):
                    for b in set(range(L - 1)) - set(circ.layer(t)):
                        assert profiles[t, b] == profiles[t - 1, b]

    def test_one_svd_per_gated_bond_and_values_only_at_the_last_layer(self, monkeypatch):
        q, L, T = 2, 10, 6
        circ = haar_brickwork(q, L, seed=5)
        svd, counts = np.linalg.svd, {"svd": 0, "svdvals": 0}

        def counting_svd(a, *args, **kwargs):
            counts["svd"] += 1
            return svd(a, *args, **kwargs)

        def counting_svdvals(a):
            counts["svdvals"] += 1
            return svd(a, compute_uv=False)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(ckt, "_svdvals", counting_svdvals)
        evolve(circ, dimer_sites(L, q), T)
        # the split and the t = 0 sweep take one SVD per cut each
        assert counts["svd"] == 2 * (L - 1) + sum(len(circ.layer(t)) for t in range(1, T))
        assert counts["svdvals"] == len(circ.layer(T))

    @pytest.mark.parametrize("values_only", [False, True])
    def test_layer_decomposes_only_gated_blocks(self, values_only, monkeypatch):
        # every matrix a layer decomposes is the theta of one of its bonds
        q, L = 3, 8
        circ = haar_brickwork(q, L, seed=2)
        sites = ckt._left_canonical(dimer_sites(L, q))
        probs = ckt._sweep(sites)
        svd, shapes = np.linalg.svd, []

        def recording_svd(a, *args, **kwargs):
            shapes.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        monkeypatch.setattr(ckt, "_svdvals", lambda a: recording_svd(a, compute_uv=False))
        for t in range(1, 5):
            gates = circ.layer(t)
            want = [(sites[b].shape[0] * q, q * sites[b + 1].shape[2]) for b in sorted(gates)]
            del shapes[:]
            ckt._layer(sites, probs, gates, values_only=values_only)
            assert shapes == want
            if values_only:
                break


def planted_record(q: int, L: int, T: int, t0: int, bumps=()) -> EntanglementRecord:
    """A record whose central cut relays exactly from t0, S(t) = (t - t0) ln q,
    plus the (t, size) bumps; the other cuts hold unrelated values."""
    rng = np.random.default_rng(7)
    profiles = rng.uniform(0, 3, size=(T + 1, L - 1))
    rec = EntanglementRecord(profiles=profiles, q=q)
    profiles[:, rec.central_cut()] = [(t - t0) * math.log(q) for t in rec.times]
    for t, size in bumps:
        profiles[t, rec.central_cut()] += size
    return rec


class TestRelayDeviation:
    # L = 12, T = 7: the light cone holds t <= 5
    @pytest.mark.parametrize("t0", [0, 1, 2])
    def test_exact_relay_is_zero(self, t0):
        for q in (2, 3):
            assert planted_record(q, 12, 7, t0).relay_deviation(t0) == 0.0

    @pytest.mark.parametrize("t0", [0, 1, 2])
    def test_bump_reported_exactly(self, t0):
        t = t0 + 2
        rec = planted_record(2, 12, 7, t0, bumps=[(t, 1e-3), (t + 2, -4e-4)])
        central = rec.central_series()
        want = abs((central[t] - central[t0]) - (t - t0) * LN2)
        assert rec.relay_deviation(t0) == want
        assert want == pytest.approx(1e-3, abs=1e-15)

    @pytest.mark.parametrize("t0", [0, 1, 2])
    def test_other_parity_outside_light_cone_and_before_t0_ignored(self, t0):
        # t0 + 1 and t0 + 3 have the other parity; 6 + t0 % 2 has t0's parity
        # but lies past the light cone
        bumps = [(t0 + 1, 0.5), (t0 + 3, 0.5), (6 + t0 % 2, 0.5)]
        bumps += [(t, 0.5) for t in range(t0)]
        assert planted_record(2, 12, 7, t0, bumps).relay_deviation(t0) == 0.0

    def test_no_time_to_check_is_zero(self):
        # L = 6 holds t <= 2, so nothing after t0 = 1 or t0 = 2 is checked
        for t0 in (1, 2):
            rec = planted_record(2, 6, 4, t0, bumps=[(t0 + 2, 0.5)])
            assert rec.relay_deviation(t0) == 0.0

    def test_swap_dimer_relay(self):
        circ = BrickworkCircuit(L=12, q=2, gate=swap_gate(2), first_parity="odd")
        assert evolve(circ, dimer_sites(12, 2), 5).relay_deviation(0) <= 1e-9


class TestZigzag:
    def test_dimer_like_profile(self):
        ok, parity = zigzag_check([LN2, 0, LN2, 0], 2)
        assert ok and parity == "odd"

    def test_flat_profile(self):
        ok, parity = zigzag_check([0.3, 0.3, 0.3], 2)
        assert not ok and parity is None

    def test_rising_zigzag(self):
        ok, parity = zigzag_check([0, LN2, 0, LN2], 2)
        assert ok and parity == "even"

    def test_kicked_ising_T_class_first_layer(self):
        L = 12
        u0 = kicked_ising_first_gate(QUARTER, 0.4)
        circ = BrickworkCircuit(
            L=L, q=2, gate=kicked_ising_gate(QUARTER, QUARTER, 0.4),
            first_layer_override=u0,
        )
        rec = evolve(circ, xy_product_sites(L, phases=[0.2 * k for k in range(L)]), 1)
        ok, parity = zigzag_check(rec.profiles[1], 2, tol=1e-9)
        assert ok and parity == "odd"

    def test_wrong_step_not_zigzag(self):
        ok, _ = zigzag_check([0, 0.5, 0, 0.5], 2)
        assert not ok


class TestZigzagRelay:
    """Dual gates at the valleys of an exact zigzag relay the pattern."""

    def test_mixed_dual_gates_relay_and_flip_parity(self):
        L = 12
        kim = kicked_ising_gate(QUARTER, QUARTER, 0.6)
        bond_gates = {b: (swap_gate(2) if (b // 2) % 2 else kim) for b in range(L - 1)}
        circ = BrickworkCircuit(
            L=L, q=2, gate=fourier_gate(2), first_parity="odd", bond_gates=bond_gates
        )
        rec = evolve(circ, dimer_sites(L, 2), 3)
        # interior window away from the light cones of the two boundaries
        for t in (1, 2, 3):
            lo, hi = t, (L - 1) - t
            ok, parity = zigzag_check(rec.profiles[t][lo:hi], 2, tol=1e-9)
            assert ok, f"no zigzag in interior at t = {t}"
        central = rec.central_series()
        assert central[1] == pytest.approx(2 * LN2, abs=1e-9)
        assert central[3] == pytest.approx(4 * LN2, abs=1e-9)

    def test_central_cut_two_lnq_per_relay(self):
        L = 16
        circ = BrickworkCircuit(
            L=L, q=2, gate=kicked_ising_gate(QUARTER, QUARTER, 0.3), first_parity="odd"
        )
        rec = evolve(circ, dimer_sites(L, 2), 6)
        central = rec.central_series()
        for t in (2, 4, 6):
            assert central[t] == pytest.approx(t * LN2, abs=1e-9)


def bell_pair_input(dA=2, dD=2, q=2):
    """Phi_AB (x) Phi_CD with qudit ancillas A, D (padded if larger)."""
    a = bell_state(q)
    if dA != q:
        pad = np.zeros(dA * q, dtype=complex)
        pad[: q * q] = a.amplitudes
        a = PureState(pad / np.linalg.norm(pad), (dA, q))
    d = bell_state(q)
    if dD != q:
        pad = np.zeros(q * dD, dtype=complex)
        # keep C fast index: embed |phi>_{C D2} into (q, dD)
        t = np.zeros((q, dD), dtype=complex)
        t[:, :q] = d.tensor()
        d = PureState(t.reshape(-1) / np.linalg.norm(t), (q, dD))
    return kron_states(a, d)


class TestFourPartyReport:
    def test_swap_on_two_bells(self):
        rep = four_party_report(swap_gate(2), bell_pair_input())
        assert rep.delta_S == pytest.approx(2 * LN2, abs=1e-10)
        assert rep.epsilon == pytest.approx(0.0, abs=1e-10)
        assert rep.I_A_Bp == pytest.approx(0.0, abs=1e-10)
        assert rep.F_out == pytest.approx(1.0, abs=1e-9)
        assert rep.all_hold()

    def test_identity_on_two_bells(self):
        rep = four_party_report(identity_gate(2), bell_pair_input())
        assert rep.delta_S == pytest.approx(0.0, abs=1e-10)
        assert rep.epsilon == pytest.approx(2 * LN2, abs=1e-10)
        assert rep.bounds_vacuous
        assert rep.all_hold()

    def test_dual_gate_on_exact_zigzag_state(self):
        for g in (kicked_ising_gate(QUARTER, QUARTER, 0.5), fourier_gate(2)):
            rep = four_party_report(g, bell_pair_input())
            assert rep.epsilon == pytest.approx(0.0, abs=1e-9)
            assert rep.F_in == pytest.approx(1.0, abs=1e-9)
            assert rep.all_hold()

    @pytest.mark.parametrize("dA,dD", [(2, 2), (4, 4), (2, 4)])
    def test_random_reports_obey_all_bounds(self, dA, dD):
        for seed in range(10):
            state = random_pure((dA, 2, 2, dD), seed=1000 + seed)
            gate = haar_gate(2, 2000 + seed)
            rep = four_party_report(gate, state)
            assert rep.all_hold(), rep.inequality_checks()

    def test_json_fields(self):
        rep = four_party_report(swap_gate(2), bell_pair_input())
        d = rep.to_json_dict()
        for key in ("delta_S", "epsilon", "cond_A", "cond_D", "S_B", "S_Bp", "S_C",
                    "S_Cp", "S_BC", "I_AB_C", "I_B_CD", "I_A_Bp", "I_Cp_D",
                    "F_out", "F_in", "F_BC"):
            assert key in d

    def test_wrong_party_count(self):
        with pytest.raises(ValueError, match="4 parties"):
            four_party_report(swap_gate(2), bell_state(2))

    @pytest.mark.parametrize("q", range(2, 9))
    def test_closed_forms_on_two_bells(self, q):
        # F_in = 1 for every gate; F_out = F(rho_A (x) rho_B', rho_A (x) I/q)
        # reads how far the gate leaves B' entangled with A
        state = bell_pair_input(q, q, q)
        for gate, f_out in ((identity_gate(q), 1 / q), (cz_gate(q), 1 / math.sqrt(q)),
                            (swap_gate(q), 1.0)):
            rep = four_party_report(gate, state)
            assert abs(rep.F_in - 1.0) <= 1e-14
            assert abs(rep.F_out - f_out) <= 1e-14

    @staticmethod
    def dense_fidelities(gate, state):
        """(F_in, F_out) from square roots of the dense marginals."""
        q, (dA, _, _, dD) = gate.q, state.dims
        out = qinfo.apply_unitary(state, gate.matrix, (1, 2))
        mixed = np.eye(q) / q
        f_in = qinfo.fidelity(reduce(state, {1, 2, 3}), qinfo.DensityMatrix(
            np.kron(mixed, reduce(state, {2, 3}).matrix), (q, q, dD), validate=False))
        f_out = qinfo.fidelity(reduce(out, {0, 1}), qinfo.DensityMatrix(
            np.kron(reduce(state, {0}).matrix, mixed), (dA, q), validate=False))
        return f_in, f_out

    # the dense route is exact where the first marginal is full rank: rho_BCD
    # when dA >= q^2 dD, rho_AB' when dD >= dA; the worst difference measured
    # over these shapes was 1.6e-15
    @pytest.mark.parametrize("dims, which", [
        ((4, 2, 2, 1), 0), ((8, 2, 2, 2), 0), ((9, 3, 3, 1), 0),
        ((2, 2, 2, 2), 1), ((2, 2, 2, 4), 1), ((3, 3, 3, 3), 1),
    ])
    def test_fidelities_match_the_dense_route_on_full_rank_marginals(self, dims, which):
        for seed in range(5):
            state = random_pure(dims, seed=seed)
            gate = haar_gate(dims[1], 50 + seed)
            rep = four_party_report(gate, state)
            dense = self.dense_fidelities(gate, state)[which]
            assert abs((rep.F_in, rep.F_out)[which] - dense) <= 5e-15

    def test_peak_memory_is_a_few_states(self):
        # the factor route forms nothing larger than the state and a
        # (dA q)^2 Gram matrix, q^4 entries each here; dense q^3 x q^3
        # marginals would take 64 times the state per matrix
        state, gate = bell_pair_input(8, 8, 8), swap_gate(8)
        four_party_report(gate, state)  # LAPACK workspaces are kept per shape
        tracemalloc.start()
        try:
            four_party_report(gate, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * state.amplitudes.nbytes


class TestReconstructDistillable:
    def test_exact_two_bell_input(self):
        state = bell_pair_input()
        sigma, dist = reconstruct_distillable(state)
        assert dist <= 1e-9

    @pytest.mark.parametrize("q,dA,dD", [(2, 4, 4), (2, 4, 6), (3, 6, 6)])
    def test_hidden_structure_recovered_in_place(self, q, dA, dD):
        # alpha_{A2 B} (x) |t>_{A1 D1} (x) beta_{C D2} behind Haar unitaries on
        # A = (A1, A2) and D = (D2, D1): a random |t> pins where sigma puts A1, D1
        dA1, dD1 = dA // q, dD // q
        t = random_pure((dA1, dD1), seed=dA + dD + q).tensor()
        bell = bell_state(q).tensor()
        v = np.einsum("xw,ab,cd->xabcdw", t, bell, bell).reshape(-1)
        state = PureState(v, (dA, q, q, dD))
        state = qinfo.apply_unitary(state, haar_unitary(dA, seed=7 * q + dA), (0,))
        state = qinfo.apply_unitary(state, haar_unitary(dD, seed=11 * q + dD), (3,))
        sigma, dist = reconstruct_distillable(state)
        assert sigma.dims == (dA, q, q, dD)
        assert dist <= 1e-12
        split = qinfo.DensityMatrix(sigma.matrix, (dA1, q, q, q, q, dD1), validate=False)
        alpha = reduce(split, {1, 2})
        assert np.abs(alpha.matrix - bell_state(q).density().matrix).max() <= 1e-12

    def test_bound_on_random_states(self):
        for seed in range(10):
            dA = dD = 4 if seed % 2 else 2
            state = random_pure((dA, 2, 2, dD), seed=3000 + seed)
            gate = haar_gate(2, 4000 + seed)
            rep = four_party_report(gate, state)
            _, dist = reconstruct_distillable(state)
            bound = 2 * (2 * math.sqrt(max(0.0, 1 - math.exp(-2 * rep.epsilon))))
            assert dist <= bound + 1e-9

    def test_large_eps_distance_reported(self):
        state = random_pure((2, 2, 2, 2), seed=5)
        _, dist = reconstruct_distillable(state)
        print(f"\nreconstruction distance on a random 4-qubit state: {dist:.4f}")
        assert 0 <= dist <= 2 + 1e-9

    def test_indivisible_dims_rejected(self):
        state = random_pure((3, 2, 2, 2), seed=6)
        with pytest.raises(ValueError, match="multiples of q"):
            reconstruct_distillable(state)
