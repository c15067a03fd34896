import math
import threading

import numpy as np
import pytest

from dulab import ensemble
from dulab.ensemble import (
    EpsDeltaPoint,
    catalan_number,
    choi_spectra,
    eps_delta_scan,
    haar_choi_fidelity,
    haar_purity_moments,
    haar_state_fidelity,
    loglog_slope,
    purity_moment_target,
    random_hermitian_direction,
    sample_rngs,
    sqrt_law_constant,
)
from dulab.gates import (
    choi_defect,
    fourier_gate,
    haar_gate,
    haar_unitary,
    kicked_ising_gate,
    nearest_dual_q2,
    swap_gate,
)
from dulab.qinfo import fidelity, maximally_mixed, schmidt_probs
from dulab.gates import choi_output_state, choi_vector

from conftest import blas_threads

QUARTER = math.pi / 4


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a = haar_choi_fidelity(2, 50, seed=42)
        b = haar_choi_fidelity(2, 50, seed=42)
        assert a.mean == b.mean and a.standard_error == b.standard_error

    def test_different_seeds_differ(self):
        a = haar_choi_fidelity(2, 50, seed=1)
        b = haar_choi_fidelity(2, 50, seed=2)
        assert a.mean != b.mean

    def test_state_fidelity_deterministic(self):
        assert haar_state_fidelity(4, 30, seed=9).mean == haar_state_fidelity(4, 30, seed=9).mean

    def test_sample_rngs_independent_of_count_prefix(self):
        # the first k children of a spawn are a prefix of a larger spawn
        a = [r.standard_normal() for r in sample_rngs(7, 4)]
        b = [r.standard_normal() for r in sample_rngs(7, 8)][:4]
        assert a == b


class TestAgainstGeneralFidelity:
    def test_shortcut_matches_qinfo_fidelity(self):
        # the tr(sqrt(rho))/q shortcut vs the general Uhlmann routine
        for q in (2, 3):
            g = haar_gate(q, 31)
            rho = choi_output_state(g)
            direct = fidelity(rho, maximally_mixed((q, q)))
            ev = np.clip(rho.eigenvalues(), 0, None)
            shortcut = float(np.sqrt(ev).sum() / q)
            assert shortcut == pytest.approx(direct, abs=1e-10)

    def test_fast_path_matches_instrument_route(self):
        for q in (2, 3):
            g = haar_gate(q, 37)
            fast = schmidt_probs(choi_vector(g.matrix, q), q * q)
            slow = np.clip(choi_output_state(g).eigenvalues(), 0, None)
            assert np.allclose(fast, slow, atol=1e-13)

    def test_batch_moments_match_single_runs(self):
        batch = haar_purity_moments(3, (2, 3), 40, seed=5)
        for n in (2, 3):
            single = haar_purity_moments(3, (n,), 40, seed=5)[n]
            assert single.mean == batch[n].mean


class TestOneStream:
    @pytest.mark.parametrize("q", [2, 3, 8])
    def test_row_reductions_equal_per_sample_loop(self, q):
        # reference: one spectrum and one reduction per generator, in order
        fid, pur2, pur3, state = [], [], [], []
        for rng in sample_rngs(21, 12):
            p = schmidt_probs(choi_vector(haar_unitary(q * q, rng), q), q * q)
            fid.append(np.sqrt(p).sum() / q)
            pur2.append((p ** 2).sum())
            pur3.append((p ** 3).sum())
        for rng in sample_rngs(21, 12):
            v = rng.standard_normal(q * q) + 1j * rng.standard_normal(q * q)
            v /= np.linalg.norm(v)
            state.append(np.sqrt(schmidt_probs(v, q)).sum() / math.sqrt(q))
        assert choi_spectra(q, 12, 21).shape == (12, q * q)
        moments = haar_purity_moments(q, (2, 3), 12, seed=21)
        assert haar_choi_fidelity(q, 12, seed=21).values == tuple(fid)
        assert moments[2].values == tuple(pur2)
        assert moments[3].values == tuple(pur3)
        assert haar_state_fidelity(q, 12, seed=21).values == tuple(state)


class TestStreamReuseAndFanOut:
    def test_fan_out_bit_identical_to_serial(self, monkeypatch):
        # 3 blocks of at most 3 samples on 2 threads against the loop in the
        # calling thread, which is what one thread runs
        serial = choi_spectra(16, 8, 13).copy()
        ensemble._choi_stream.cache_clear()
        monkeypatch.setattr(ensemble, "FAN_OUT_SAMPLES", 3)
        monkeypatch.setattr(ensemble.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert np.array_equal(choi_spectra(16, 8, 13), serial)

    def test_state_fan_out_bit_identical_to_serial(self, monkeypatch):
        # d = 16: blocks of 3 Haar states, 3 blocks on 2 threads
        serial = haar_state_fidelity(16, 8, seed=13)
        monkeypatch.setattr(ensemble, "FAN_OUT_SAMPLES", 3 / 16 ** 4)
        monkeypatch.setattr(ensemble.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert haar_state_fidelity(16, 8, seed=13).values == serial.values

    def test_fan_out_threads_run_at_one_blas_thread(self, monkeypatch):
        get, set_ = blas_threads()
        # the first two samples wait for each other, so two threads take part
        both = threading.Barrier(2, timeout=30)
        calls, seen = [], []

        def spectrum(rng):
            calls.append(rng)
            if len(calls) <= 2:
                both.wait()
            seen.append((threading.get_ident(), get()))
            return np.zeros(1)

        monkeypatch.setattr(ensemble, "FAN_OUT_SAMPLES", 1)
        monkeypatch.setattr(ensemble.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        before = get()
        try:
            set_(2)
            rows = ensemble._sample_spectra(spectrum, 256, 6, 1)
            assert get() == 2
        finally:
            set_(before)
        assert rows.shape == (6, 1) and len(seen) == 6
        assert all(count == 1 for _, count in seen)
        assert len({ident for ident, _ in seen}) == 2

    def test_fan_out_raises_a_helper_threads_error(self, monkeypatch):
        both = threading.Barrier(2, timeout=30)
        calls = []

        def spectrum(rng):
            calls.append(rng)
            if len(calls) <= 2:
                both.wait()
            if threading.current_thread() is not threading.main_thread():
                raise ValueError("bad sample")
            return np.zeros(1)

        monkeypatch.setattr(ensemble, "FAN_OUT_SAMPLES", 1)
        monkeypatch.setattr(ensemble.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        with pytest.raises(ValueError, match="bad sample"):
            ensemble._sample_spectra(spectrum, 256, 6, 1)

    def test_repeat_draws_nothing_and_is_read_only(self, monkeypatch):
        first = choi_spectra(3, 10, 5)
        draws = []

        def counted(d, rng):
            draws.append(d)
            return haar_unitary(d, rng)

        monkeypatch.setattr(ensemble, "haar_unitary", counted)
        again = choi_spectra(3, 10, 5)
        assert again is first and draws == []
        assert not again.flags.writeable
        with pytest.raises(ValueError):
            again[0, 0] = 1.0
        assert np.array_equal(choi_spectra(3, 11, 5)[:10], first)
        assert len(draws) == 11

    def test_bad_input_raises_after_a_cache_hit(self):
        choi_spectra(2, 4, 1)
        choi_spectra(2, 4, 1)
        with pytest.raises(ValueError, match="q must be >= 2, got 1"):
            choi_spectra(1, 4, 1)
        with pytest.raises(ValueError, match="at least 2 samples, got 1"):
            choi_spectra(2, 1, 1)

    def test_loop_runs_at_one_blas_thread_and_restores_the_count(self):
        get = blas_threads()[0]
        before = get()
        seen = []

        def spectrum(rng):
            seen.append(get())
            return np.zeros(1)

        ensemble._sample_spectra(spectrum, 4, 3, 1)
        assert seen == [1, 1, 1]
        assert get() == before


class TestStandardError:
    def test_halves_like_inverse_sqrt(self):
        a = haar_choi_fidelity(2, 200, seed=3)
        b = haar_choi_fidelity(2, 400, seed=3)
        ratio = b.standard_error / a.standard_error
        assert ratio == pytest.approx(1 / math.sqrt(2), rel=0.2)


class TestCatalan:
    def test_constants_from_formula(self):
        assert catalan_number(2) == 2
        assert catalan_number(3) == 5
        assert catalan_number(4) == 14

    def test_targets(self):
        assert purity_moment_target(16, 2) == pytest.approx(2 / 16 ** 2)
        assert purity_moment_target(16, 3) == pytest.approx(5 / 16 ** 4)

    def test_small_q_moment_roughly_catalan(self):
        # finite-q corrections enter at about -2/q^2
        stats = haar_purity_moments(8, (2,), 200, seed=11)[2]
        assert stats.mean * 64 == pytest.approx(2.0, rel=0.05)


class TestEpsDeltaScan:
    def test_theta_zero_exact_triple(self):
        for base in (
            swap_gate(2),
            kicked_ising_gate(QUARTER, QUARTER, 0.3),
            nearest_dual_q2(haar_gate(2, 5))[0],
        ):
            (pt,) = eps_delta_scan(base, [0.0], seed=1)
            assert pt.epsilon == 0.0
            assert pt.delta == 0.0
            assert pt.dist_to_projection == 0.0

    def test_slope_in_band(self):
        pts = eps_delta_scan(swap_gate(2), np.logspace(-3, -1, 9), seed=8)
        slope, _ = loglog_slope(pts)
        assert 0.4 <= slope <= 1.1
        c = sqrt_law_constant(pts)
        print(f"\nfitted delta <= C sqrt(eps) constant: C = {c:.3f}")

    def test_certificate_along_scan(self):
        pts = eps_delta_scan(kicked_ising_gate(QUARTER, QUARTER, 0.5),
                             np.logspace(-3, -1.2, 7), seed=12)
        for p in pts:
            delta_c = 4 * p.delta
            if 0 < delta_c <= 0.1:
                assert p.dist_to_projection <= 14 * math.sqrt(delta_c)

    def test_non_dual_base_rejected(self):
        from dulab.gates import identity_gate

        with pytest.raises(ValueError, match="dual") as e:
            eps_delta_scan(identity_gate(2), [0.1], seed=1)
        assert e.value.defect == 1.5

    def test_q3_scan_without_projection(self):
        pts = eps_delta_scan(fourier_gate(3), [0.0, 0.05], seed=4)
        assert pts[0].delta == 0.0
        assert pts[1].delta > 0
        assert pts[1].dist_to_projection is None

    def test_direction_normalized(self):
        h = random_hermitian_direction(4, 3)
        assert np.linalg.norm(h, 2) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(h, h.conj().T)


class TestTargets:
    """Cheap sanity versions of the acceptance targets (small q / few samples)."""

    def test_choi_fidelity_q8(self):
        stats = haar_choi_fidelity(8, 150, seed=77)
        assert stats.mean == pytest.approx(8 / (3 * math.pi), abs=0.03)

    def test_choi_fidelity_q2_recorded(self):
        # finite-q corrections are O(1/q^2); the q = 2 mean is a measurement
        stats = haar_choi_fidelity(2, 300, seed=79)
        print(f"\nq=2 operator-state fidelity mean: {stats.mean:.4f} "
              f"(large-q value {8 / (3 * math.pi):.4f})")
        assert 0.0 < stats.mean < 1.0

    def test_state_fidelity_q16(self):
        stats = haar_state_fidelity(16, 400, seed=78)
        assert stats.mean == pytest.approx(8 / (3 * math.pi), abs=0.02)
