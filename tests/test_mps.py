import json
import math

import numpy as np
import pytest

from dulab import mps
from dulab.circuit import (
    CAPACITY_ENV,
    BrickworkCircuit,
    CapacityError,
    bond_entropies,
    chain_probs,
    contract_chain,
    evolve,
)
from dulab.gates import haar_unitary, kicked_ising_gate, swap_gate
from dulab.qinfo import PureState, entropy_from_probs, marginal_probs
from dulab.mps import (
    MPSPair,
    combined_tensor,
    cut_entropies_exact,
    environment_sites,
    interior_cut_probs,
    load_mps,
    pair_json,
    random_solvable,
    replica_purity,
    solvability_defect,
    transfer_gap,
)
from conftest import chain_sites

QUARTER = math.pi / 4


def dense_state(pair: MPSPair, n_cells: int) -> PureState:
    """Oracle: ``environment_sites`` contracted into one normalized vector,
    the two environment legs kept as boundary subsystems."""
    sites = environment_sites(pair, n_cells)
    v = contract_chain(np.ones((1, 1)), sites).reshape(-1)
    return PureState(v / np.linalg.norm(v), tuple(a.shape[1] for a in sites))


class TestSolvabilityDefect:
    def test_haar_built_pair_is_solvable(self):
        for q, chi in [(2, 1), (2, 2), (3, 2)]:
            pair = random_solvable(q, chi, seed=7)
            assert solvability_defect(pair) <= 1e-12

    def test_gaussian_tensors_not_solvable(self, rng):
        q, chi = 2, 2
        a = rng.standard_normal((q, chi, chi * q)) + 1j * rng.standard_normal((q, chi, chi * q))
        b = rng.standard_normal((q, chi * q, chi)) + 1j * rng.standard_normal((q, chi * q, chi))
        pair = MPSPair(q, chi, a / 2, b / 2)
        assert solvability_defect(pair) > 1e-3

    def test_scaling_breaks_isometry(self):
        pair = random_solvable(2, 2, seed=8)
        scaled = MPSPair(2, 2, 2.0 * np.asarray(pair.A), pair.B)
        assert solvability_defect(scaled) > solvability_defect(pair) + 0.1


class TestRandomSolvable:
    @pytest.mark.parametrize("q,chi", [(2, 1), (2, 3), (3, 2), (4, 2)])
    def test_matches_reference_loop(self, q, chi):
        # the reshapes build the same arrays as an entry-by-entry loop
        chip = chi * q
        a = np.zeros((q, chi, chip), dtype=complex)
        for i in range(q):
            for al in range(chi):
                a[i, al, al * q + i] = 1.0 / math.sqrt(q)
        n = haar_unitary(chip, 13)
        b = np.empty((q, chip, chi), dtype=complex)
        for j in range(q):
            b[j] = n.reshape(chip, chi, q)[:, :, j]
        pair = random_solvable(q, chi, seed=13)
        assert np.array_equal(pair.A, a) and np.array_equal(pair.B, b)

    def test_chi1_reconstructs_sampled_unitary(self):
        pair = random_solvable(2, 1, seed=11)
        n = combined_tensor(pair)
        assert np.allclose(n, haar_unitary(2, 11), atol=1e-12)

    def test_deterministic(self):
        p1 = random_solvable(2, 2, seed=5)
        p2 = random_solvable(2, 2, seed=5)
        assert np.array_equal(np.asarray(p1.A), np.asarray(p2.A))
        assert np.array_equal(np.asarray(p1.B), np.asarray(p2.B))

    def test_shapes(self):
        pair = random_solvable(3, 2, seed=1)
        assert np.asarray(pair.A).shape == (3, 2, 6)
        assert np.asarray(pair.B).shape == (3, 6, 2)
        assert pair.chi * pair.q == 6


class TestDenseState:
    """The dense realization of ``environment_sites``, contracted here as an
    oracle for the sweep."""

    def test_normalized(self):
        # the identity is the transfer fixed point of a solvable pair, so the
        # contraction between identity environments has squared norm chi
        for q, chi in [(2, 1), (2, 2), (3, 2)]:
            pair = random_solvable(q, chi, seed=3)
            for n_cells in (1, 2, 3):
                v = contract_chain(np.ones((1, 1)), environment_sites(pair, n_cells))
                assert np.vdot(v, v).real == pytest.approx(chi, abs=1e-12)

    def test_chi1_profile_matches_svd_oracle(self):
        pair = random_solvable(2, 1, seed=9)
        psi = dense_state(pair, 3)
        assert psi.dims == (1,) + (2,) * 6 + (1,)
        prof = [entropy_from_probs(p) for p in chain_probs(environment_sites(pair, 3))]
        assert np.allclose(prof, bond_entropies(psi), atol=1e-12)
        # chi = 1: cells are isolated entangled pairs -> exact zigzag, and
        # the cuts next to the dimension-1 environment legs carry nothing
        for b in range(len(prof)):
            want = math.log(2) if b % 2 == 1 else 0.0
            assert prof[b] == pytest.approx(want, abs=1e-10)

    def test_needs_a_cell(self):
        with pytest.raises(ValueError, match="n_cells must be >= 1"):
            environment_sites(random_solvable(2, 2, seed=3), 0)

    def test_capacity_guard(self, monkeypatch):
        # the budget counts site-tensor entries: 2 chi^2 for the environment
        # legs plus 2 q chi^2 q per cell, 8 + 3 * 32 = 104 at q = chi = 2,
        # three cells, and 8 + 32 = 40 for the one cell of
        # ``interior_cut_probs``; the exact sweep keeps every bond at its
        # input size
        pair = random_solvable(2, 2, seed=5)
        monkeypatch.setenv(CAPACITY_ENV, "103")
        with pytest.raises(CapacityError, match="state of 104 amplitudes exceeds the budget 103"):
            chain_probs(environment_sites(pair, 3))
        monkeypatch.setenv(CAPACITY_ENV, "104")
        chain_probs(environment_sites(pair, 3))
        monkeypatch.setenv(CAPACITY_ENV, "39")
        with pytest.raises(CapacityError, match="state of 40 amplitudes exceeds the budget 39"):
            interior_cut_probs(pair)
        monkeypatch.setenv(CAPACITY_ENV, "40")
        interior_cut_probs(pair)

    def test_long_chain_within_budget(self, monkeypatch):
        # 12 cells at q = 3, chi = 2: 8 + 12 * 72 = 872 site-tensor entries,
        # where a dense vector would hold 3^24 * 2^2 (about 1.1e12)
        # amplitudes; the middle cell still reads the closed forms
        pair = random_solvable(3, 2, seed=3)
        monkeypatch.setenv(CAPACITY_ENV, "872")
        probs = chain_probs(environment_sites(pair, 12))
        assert entropy_from_probs(probs[13]) == pytest.approx(math.log(6), abs=1e-8)
        assert entropy_from_probs(probs[14]) == pytest.approx(math.log(2), abs=1e-8)


class TestCutEntropies:
    @pytest.mark.parametrize("q,chi", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_closed_forms(self, q, chi):
        for seed in range(3):
            pair = random_solvable(q, chi, seed=100 + seed)
            e_ab, e_ba = cut_entropies_exact(pair)
            assert e_ab == pytest.approx(math.log(chi * q), abs=1e-9)
            assert e_ba == pytest.approx(math.log(chi), abs=1e-9)
            assert e_ab - e_ba == pytest.approx(math.log(q), abs=1e-9)

    @pytest.mark.parametrize("q,chi", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
    def test_sweep_matches_dense_oracle(self, q, chi):
        # n_cells = 1, 2 and 4 put the B:A cut on the environment leg; over
        # q = 2, 3, chi = 1-4, seeds 1-5 and n_cells = 1-5 the worst weight
        # difference was 2.7e-15
        pair = random_solvable(q, chi, seed=1)
        for n_cells in range(1, 6):
            psi = dense_state(pair, n_cells)
            ab = 2 * (n_cells // 2) + 1
            probs = chain_probs(environment_sites(pair, n_cells))
            for p, cut in zip(probs[ab:ab + 2], (ab, ab + 1)):
                want = np.sort(marginal_probs(psi, range(cut + 1)))[::-1]
                got = np.pad(np.sort(p)[::-1], (0, len(want) - len(p)))
                assert np.abs(got - want).max() <= 1e-14

    @pytest.mark.parametrize("q,chi", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
    def test_independent_of_cell_count(self, q, chi):
        # the middle cell of n = 1-5 cells has the spectra of the one cell
        # that ``interior_cut_probs`` reads; over q = 2, 3, chi = 1-4 and
        # seeds 1-40 the worst weight difference was 5.0e-16
        pair = random_solvable(q, chi, seed=2)
        ref = interior_cut_probs(pair)
        for n_cells in range(1, 6):
            ab = 2 * (n_cells // 2) + 1
            probs = chain_probs(environment_sites(pair, n_cells))
            for p, want in zip(probs[ab:ab + 2], ref):
                assert len(p) == len(want)
                assert np.abs(np.sort(p) - np.sort(want)).max() <= 1e-15

    @pytest.mark.parametrize("q", [2, 3])
    def test_closed_forms_to_rounding(self, q):
        # over chi = 1-4 and seeds 1-40 the worst deviation was 4.4e-16 at
        # q = 2 and 8.9e-16 at q = 3 (the dense realization read 8.9e-16
        # and 2.7e-15); a Gram-matrix spectrum is off by up to 3.1e-14
        for chi in (1, 2, 3, 4):
            for seed in range(1, 6):
                p_ab, p_ba = interior_cut_probs(random_solvable(q, chi, seed))
                assert abs(entropy_from_probs(p_ab) - math.log(chi * q)) <= 4e-15
                assert abs(entropy_from_probs(p_ba) - math.log(chi)) <= 4e-15

    def test_rejects_non_solvable(self, rng):
        q, chi = 2, 2
        a = rng.standard_normal((q, chi, chi * q)) / 2
        b = rng.standard_normal((q, chi * q, chi)) / 2
        pair = MPSPair(q, chi, a, b)
        with pytest.raises(ValueError, match="not solvable"):
            cut_entropies_exact(pair)

    def test_gap_checked(self):
        pair = random_solvable(2, 2, seed=1)
        assert transfer_gap(pair) > mps.GAP_TOL

    def test_degenerate_transfer_flagged(self):
        # N = identity is solvable, but every cell is a multiple of the
        # identity, so the transfer map is the identity and has no gap
        q, chi = 2, 2
        pair = random_solvable(q, chi, seed=1)
        b = np.eye(chi * q).reshape(chi * q, chi, q).transpose(2, 0, 1)
        pair = MPSPair(q, chi, pair.A, b)
        assert solvability_defect(pair) <= 1e-12
        with pytest.raises(mps.DegenerateTransferError, match="transfer gap"):
            interior_cut_probs(pair)

    @pytest.mark.parametrize("q,chi,n_cells", [(2, 1, 3), (2, 2, 3), (3, 2, 2), (2, 2, 4)])
    def test_reductions_of_one_realization(self, q, chi, n_cells):
        # the entropies and purities are bit-identical reductions of the
        # two interior spectra, which the middle cell of an n_cells
        # realization holds to rounding (bound as in the cell-count test)
        pair = random_solvable(q, chi, seed=60)
        p_ab, p_ba = interior_cut_probs(pair)
        e_ab, e_ba = cut_entropies_exact(pair)
        assert e_ab == entropy_from_probs(p_ab) and e_ba == entropy_from_probs(p_ba)
        for n in (1, 2, 3):
            assert replica_purity(pair, n) == float((p_ab ** n).sum())
        ab = 2 * (n_cells // 2) + 1
        probs = chain_probs(environment_sites(pair, n_cells))
        for p, want in zip(probs[ab:ab + 2], (p_ab, p_ba)):
            assert np.abs(np.sort(p) - np.sort(want)).max() <= 1e-15


class TestReplicaPurity:
    @pytest.mark.parametrize(
        "q,chi,n,want",
        [(2, 1, 2, 0.5), (2, 2, 3, 1 / 16), (2, 2, 2, 0.25), (3, 2, 2, 1 / 6)],
    )
    def test_closed_form(self, q, chi, n, want):
        pair = random_solvable(q, chi, seed=50)
        assert replica_purity(pair, n) == pytest.approx(want, abs=1e-9)

    def test_normalization(self):
        pair = random_solvable(2, 2, seed=51)
        assert replica_purity(pair, 1) == pytest.approx(1.0, abs=1e-10)


class TestEvolveIntegration:
    def test_chi1_dense_state_feeds_dual_circuit(self):
        # chi = 1 solvable MPS is an exact zigzag state; dual circuit grows
        # the central cut by 2 ln q per two layers inside the light cone
        pair = random_solvable(2, 1, seed=21)
        # 10 qubits, valleys on odd bonds, once the unit environment legs go
        psi = PureState(dense_state(pair, 5).amplitudes, (2,) * 10)
        circ = BrickworkCircuit(L=10, q=2, gate=swap_gate(2), first_parity="odd")
        rec = evolve(circ, chain_sites(psi), 4)
        central = rec.central_series()
        # the central bond sits inside a cell (a peak), so it grows on the
        # even layers; growth is 2 ln q per two layers either way
        assert central[2] - central[0] == pytest.approx(2 * math.log(2), abs=1e-9)
        assert central[4] - central[2] == pytest.approx(2 * math.log(2), abs=1e-9)

    def test_chi2_environment_state_feeds_dual_circuit(self):
        # chi = q = 2: the fixed-point boundary legs are themselves qubits,
        # so the site tensors are a qubit chain with an exact zigzag profile
        pair = random_solvable(2, 2, seed=22)
        sites = environment_sites(pair, 4)  # 2 + 8 qubits
        prof = [entropy_from_probs(p) for p in chain_probs(sites)]
        diffs = np.abs(np.diff(prof))
        assert np.allclose(diffs, math.log(2), atol=1e-9)
        circ = BrickworkCircuit(
            L=10, q=2, gate=kicked_ising_gate(QUARTER, QUARTER, 0.3), first_parity="even"
        )
        rec = evolve(circ, sites, 3)
        central = rec.central_series()
        assert central[1] - central[0] == pytest.approx(2 * math.log(2), abs=1e-9)
        assert central[3] - central[1] == pytest.approx(2 * math.log(2), abs=1e-9)


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        pair = random_solvable(2, 2, seed=31)
        path = tmp_path / "pair.json"
        path.write_text(pair_json(pair))
        back = load_mps(path)
        assert back.q == 2 and back.chi == 2
        assert np.allclose(np.asarray(back.A), np.asarray(pair.A), atol=0)
        assert np.allclose(np.asarray(back.B), np.asarray(pair.B), atol=0)
        assert solvability_defect(back) <= mps.SOLVABLE_TOL

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"q": 2, "chi": 1}')
        with pytest.raises(ValueError, match="missing field"):
            load_mps(path)

    def test_validation_on_request(self, tmp_path, rng):
        # a non-solvable pair loads; reading its cut spectra rejects it
        q, chi = 2, 1
        a = rng.standard_normal((q, chi, q * chi)) / 2
        b = rng.standard_normal((q, q * chi, chi)) / 2
        (tmp_path / "ns.json").write_text(pair_json(MPSPair(q, chi, a, b)))
        pair = load_mps(tmp_path / "ns.json")
        with pytest.raises(ValueError, match="not solvable"):
            cut_entropies_exact(pair)

    def test_dimension_revalidated(self, tmp_path):
        pair = random_solvable(2, 1, seed=1)
        path = tmp_path / "dim.json"
        path.write_text(pair_json(pair))
        doc = json.loads(path.read_text())
        doc["chi"] = 2
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="shape"):
            load_mps(path)

    @pytest.mark.parametrize("field", ["A", "B"])
    @pytest.mark.parametrize("value", ["NaN", "1e999"])
    def test_non_finite_entry_rejected(self, field, value, tmp_path):
        doc = json.loads(pair_json(random_solvable(2, 2, seed=1)))
        doc[field][1][0][1] = ["VALUE", 0.0]
        path = tmp_path / "nf.json"
        path.write_text(json.dumps(doc).replace('"VALUE"', value))
        with pytest.raises(ValueError, match=f"nf.json: non-finite entry in {field} at "
                                             r"\[1, 0, 1\]"):
            load_mps(path)
