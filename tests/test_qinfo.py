import ctypes
import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dulab import qinfo
from dulab.gates import choi_vector, haar_unitary
from dulab.qinfo import (
    DensityMatrix,
    PureState,
    bell_state,
    entropy_from_probs,
    entropy_vn,
    fidelity,
    kron_states,
    marginal_probs,
    maximally_mixed,
    purify,
    reduce,
    relative_entropy,
    sandwiched_renyi,
    schmidt_probs,
    trace_norm_distance,
    uhlmann_align,
)
from conftest import blas_threads, random_density, random_pure

LN2 = math.log(2.0)


def brute_partial_trace(rho, dims, keep):
    """Explicit index-sum oracle for the partial trace."""
    n = len(dims)
    comp = [i for i in range(n) if i not in keep]
    kdims = [dims[k] for k in keep]
    dk = int(np.prod(kdims))
    out = np.zeros((dk, dk), dtype=complex)
    full = rho.reshape(tuple(dims) * 2)
    for a in np.ndindex(*kdims):
        for b in np.ndindex(*kdims):
            s = 0.0 + 0j
            for c in np.ndindex(*[dims[i] for i in comp]):
                idx_row = [0] * n
                idx_col = [0] * n
                for pos, k in enumerate(keep):
                    idx_row[k] = a[pos]
                    idx_col[k] = b[pos]
                for pos, k in enumerate(comp):
                    idx_row[k] = c[pos]
                    idx_col[k] = c[pos]
                s += full[tuple(idx_row) + tuple(idx_col)]
            out[np.ravel_multi_index(a, kdims), np.ravel_multi_index(b, kdims)] = s
    return out


class TestReduce:
    def test_bell_marginal_is_maximally_mixed(self):
        rho = reduce(bell_state(2), {0})
        assert np.allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)

    def test_product_state_marginal(self):
        psi = PureState([1, 0, 0, 0], (2, 2))
        rho = reduce(psi, {0})
        assert np.allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_matches_index_sum_oracle(self):
        ra = random_density((2,), seed=10)
        rb = random_density((2,), seed=11)
        rho = DensityMatrix(np.kron(ra.matrix, rb.matrix), (2, 2))
        got = reduce(rho, {1})
        want = brute_partial_trace(rho.matrix, [2, 2], [1])
        assert np.allclose(got.matrix, want, atol=1e-12)
        assert np.allclose(got.matrix, rb.matrix, atol=1e-12)

    @pytest.mark.parametrize("keep", [(0,), (1,), (2,), (0, 2), (1, 2)])
    def test_oracle_on_three_parties(self, keep):
        rho = random_density((2, 3, 2), seed=42)
        got = reduce(rho, keep)
        want = brute_partial_trace(rho.matrix, [2, 3, 2], list(keep))
        assert np.allclose(got.matrix, want, atol=1e-12)

    def test_pure_and_dense_routes_agree(self):
        psi = random_pure((2, 2, 3), seed=3)
        a = reduce(psi, {0, 2})
        b = reduce(psi.density(), {0, 2})
        assert np.allclose(a.matrix, b.matrix, atol=1e-12)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            reduce(bell_state(2), {2})


class TestEntropy:
    def test_maximally_mixed_qubit(self):
        assert entropy_vn(maximally_mixed((2,))) == pytest.approx(LN2, abs=1e-12)

    def test_pure_state_zero(self):
        assert entropy_vn(random_pure((2, 2), seed=5).density()) == pytest.approx(0.0, abs=1e-10)

    def test_pure_spectrum_is_positive_zero(self):
        # -(1 ln 1) is -0.0 in floating point, which JSON would print as -0.0
        for p in ([1.0], [0.0, 1.0, 0.0]):
            s = entropy_from_probs(np.array(p))
            assert s == 0.0 and math.copysign(1.0, s) == 1.0

    def test_frozen_two_level_value(self):
        # oracle: -(0.75 ln 0.75 + 0.25 ln 0.25)
        rho = DensityMatrix(np.diag([0.75, 0.25]), (2,))
        assert entropy_vn(rho) == pytest.approx(0.5623351446188083, abs=1e-12)

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.2, -0.2])
        with pytest.raises(ValueError):
            DensityMatrix(m, (2,))

    def test_additive_on_products(self):
        ra = random_density((2,), rank=2, seed=21)
        rb = random_density((3,), rank=3, seed=22)
        rho = DensityMatrix(np.kron(ra.matrix, rb.matrix), (2, 3))
        assert entropy_vn(rho) == pytest.approx(entropy_vn(ra) + entropy_vn(rb), abs=1e-9)

    def test_araki_lieb_and_subadditivity(self):
        for seed in range(8):
            rho = random_density((2, 2, 2), rank=3, seed=seed)
            sa = entropy_vn(reduce(rho, {0}))
            sb = entropy_vn(reduce(rho, {1, 2}))
            sab = entropy_vn(rho)
            assert abs(sa - sb) <= sab + 1e-9
            assert sab <= sa + sb + 1e-9


class TestSchmidtProbs:
    """The squared singular values, ascending, against an SVD oracle and
    against planted spectra."""

    @staticmethod
    def svd_oracle(v, dl):
        return np.sort(np.linalg.svd(v.reshape(dl, -1), compute_uv=False) ** 2)

    @pytest.mark.parametrize("dims, dl", [
        ((2,) * 6, 2), ((2,) * 6, 4),      # wide: dl below sqrt(size)
        ((2,) * 6, 8),                     # square
        ((2,) * 6, 16), ((2,) * 6, 32),    # tall: dl above sqrt(size)
        ((3, 3, 3), 3), ((3, 3, 3), 9),    # q = 3
    ])
    def test_matches_svd_oracle(self, dims, dl):
        v = random_pure(dims, seed=sum(dims) + dl).amplitudes
        p = schmidt_probs(v, dl)
        assert p.shape == (min(dl, v.size // dl),)
        assert np.all(p >= 0.0)
        assert np.allclose(p, self.svd_oracle(v, dl), rtol=0, atol=1e-14)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("dl", [2, 8, 32])
    def test_rank_one_product(self, dl):
        psi = kron_states(*(random_pure((2,), seed=s) for s in range(6)))
        p = schmidt_probs(psi.amplitudes, dl)
        assert p[-1] == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(p[:-1], 0.0, rtol=0, atol=1e-14)
        assert np.allclose(p, self.svd_oracle(psi.amplitudes, dl), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_bell_pair_is_flat(self, q):
        p = schmidt_probs(bell_state(q).amplitudes, q)
        assert np.allclose(p, 1.0 / q, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("k", [1e-10, 1e-16, 1e-20])
    def test_planted_small_weights(self, k):
        # 63 weights k below one of 1 - 63k; the exact entropy comes from
        # log1p.  Over seeds 1-60 the worst |dS| was 1.6e-15 at every k; a
        # Gram-matrix spectrum is off by 4.5e-14 at k = 1e-16.
        w = np.full(64, k)
        w[0] = 1.0 - 63 * k
        exact = -(1.0 - 63 * k) * math.log1p(-63 * k) - 63 * k * math.log(k)
        for seed in range(1, 6):
            m = haar_unitary(64, seed) @ np.diag(np.sqrt(w)) @ haar_unitary(64, 100 + seed).T
            s = entropy_from_probs(schmidt_probs(m.reshape(-1), 64))
            assert s == pytest.approx(exact, rel=0, abs=3e-15)

    @pytest.mark.parametrize("keep", [(0,), (1,), (3,), (0, 2), (1, 2), (0, 1, 3), (1, 2, 3)])
    def test_marginal_probs_is_the_reduced_spectrum(self, keep):
        psi = random_pure((2, 3, 2, 4), seed=len(keep) + sum(keep))
        p = marginal_probs(psi, keep)
        want = reduce(psi, keep).eigenvalues()
        n = min(want.size, 48 // want.size)
        assert p.shape == (n,)
        assert np.allclose(p, want[-n:], rtol=0, atol=1e-14)
        assert np.allclose(want[:-n], 0.0, rtol=0, atol=1e-14)

    def test_marginal_probs_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            marginal_probs(bell_state(2), {2})


class TestSvdvals:
    """The GIL-free values-only SVD is numpy's, bit for bit."""

    SHAPES = ([(k, k) for k in (2, 3, 4, 5, 8, 9, 16, 17, 31, 32, 64, 81, 100, 128, 255, 256)]
              + [(4, 64), (64, 4), (3, 27), (27, 3), (1, 5), (5, 1), (300, 700), (700, 300)])

    @staticmethod
    def numpy_svdvals(a):
        return np.linalg.svd(a, compute_uv=False)

    def test_bit_equal_to_numpy(self):
        rng = np.random.default_rng(17)
        for m, n in self.SHAPES:
            a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
            before = a.copy()
            assert np.array_equal(qinfo._svdvals(a), self.numpy_svdvals(a)), (m, n)
            assert np.array_equal(a, before)

    def test_haar_choi_matrices_bit_equal(self):
        for seed in range(5):
            c = choi_vector(haar_unitary(256, seed), 16).reshape(256, -1)
            assert np.array_equal(qinfo._svdvals(c), self.numpy_svdvals(c))

    def test_views_and_other_dtypes(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((12, 10)) + 1j * rng.standard_normal((12, 10))
        for m in (a.T, a[::2, 1:], a.real, a.astype(np.complex64)):
            assert np.array_equal(qinfo._svdvals(m), self.numpy_svdvals(m))

    def test_non_finite_input_as_numpy(self):
        a = np.ones((4, 4), dtype=complex)
        a[1, 2] = np.nan
        for svdvals in (qinfo._svdvals, self.numpy_svdvals):
            with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
                svdvals(a)
        a[1, 2] = np.inf
        assert np.isnan(qinfo._svdvals(a)).all() and np.isnan(self.numpy_svdvals(a)).all()

    def test_numpy_fallback_without_the_library(self, monkeypatch):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        kernel = qinfo._svdvals(a)
        monkeypatch.setattr(qinfo, "_openblas", lambda: None)
        assert np.array_equal(qinfo._svdvals(a), kernel)

    def test_threads_bit_equal_to_one_loop(self):
        # workspaces are per thread, so concurrent calls of one shape never
        # share LAPACK work arrays
        rng = np.random.default_rng(8)
        mats = [rng.standard_normal((m, 9)) + 1j * rng.standard_normal((m, 9))
                for m in (9, 3, 9, 27) * 50]
        serial = [qinfo._svdvals(a) for a in mats]
        with ThreadPoolExecutor(2) as pool:
            threaded = list(pool.map(qinfo._svdvals, mats))
        assert all(np.array_equal(x, y) for x, y in zip(serial, threaded))

    def test_no_copy_of_the_input_is_kept(self):
        v = np.random.default_rng(2).standard_normal(2 ** 20) + 0j  # 16 MB
        schmidt_probs(v, 16)  # the library lookups are cached on a first call
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            p = schmidt_probs(v, 64)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert p.shape == (64,)
        assert kept < 2 ** 16


class TestHaarQr:
    """The Haar draw's in-place LAPACK QR gives numpy's recipe bit for bit."""

    DIMS = (1, 2, 3, 4, 9, 16, 17, 64, 255, 256, 300)

    @staticmethod
    def numpy_haar(d, seed):
        rng = np.random.default_rng(seed)
        z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
        q, r = np.linalg.qr(z)
        diag = np.diag(r)
        return q * (diag / np.abs(diag))

    def test_bit_equal_to_the_numpy_recipe(self):
        for d in self.DIMS:
            for seed in (0, 1, 7):
                u = haar_unitary(d, seed)
                assert np.array_equal(u, self.numpy_haar(d, seed)), (d, seed)
                assert u.flags.c_contiguous

    def test_numpy_fallback_without_the_library(self, monkeypatch):
        kernel = [haar_unitary(d, 3) for d in (2, 17, 256)]
        monkeypatch.setattr(qinfo, "_openblas", lambda: None)
        for d, u in zip((2, 17, 256), kernel):
            fallback = haar_unitary(d, 3)
            assert np.array_equal(fallback, u)
            assert fallback.flags.c_contiguous

    def test_threads_bit_equal_to_one_loop(self):
        # the tau and work arrays are per thread, so concurrent draws of one
        # size never share them
        jobs = [(d, seed) for seed, d in enumerate((4, 9, 64, 4, 16, 256) * 8)]
        serial = [haar_unitary(d, seed) for d, seed in jobs]
        with ThreadPoolExecutor(2) as pool:
            threaded = list(pool.map(lambda job: haar_unitary(*job), jobs))
        assert all(np.array_equal(x, y) for x, y in zip(serial, threaded))

    def test_rejects_a_matrix_lapack_would_misread(self):
        for bad in (np.zeros((3, 3)), np.zeros((3, 3), dtype=complex),
                    np.zeros((3, 4), dtype=complex, order="F")):
            with pytest.raises(ValueError, match="square column-major complex128"):
                qinfo._qr(bad)

    def test_empty_draw_is_numpys_and_silent(self, capfd):
        # LAPACK rejects lda = 0 and prints so on stderr; an empty draw
        # never reaches it
        for seed in (0, 5):
            u = haar_unitary(0, seed)
            assert u.shape == (0, 0) and u.dtype == np.complex128
        assert capfd.readouterr().err == ""


class TestOpenblasLookup:
    """One lookup of numpy's OpenBLAS decides for the thread pin and both
    LAPACK kernels."""

    @pytest.mark.parametrize("missing", sorted(qinfo._ROUTINES))
    def test_a_missing_routine_makes_all_three_fall_back(self, missing, monkeypatch):
        get, set_ = blas_threads()
        cdll = ctypes.CDLL

        class Lacking:
            """numpy's OpenBLAS without the routine ``missing``."""

            def __init__(self, path):
                self.lib = cdll(path)

            def __getattr__(self, name):
                if name == missing:
                    raise AttributeError(name)
                return getattr(self.lib, name)

        monkeypatch.setattr(ctypes, "CDLL", Lacking)
        assert qinfo._openblas.__wrapped__() is None
        monkeypatch.setattr(qinfo, "_openblas", qinfo._openblas.__wrapped__)
        monkeypatch.setattr(qinfo, "_lapack_call", lambda *args: pytest.fail("LAPACK called"))
        before = get()
        try:
            set_(2)
            with qinfo._one_blas_thread():
                assert get() == 2
        finally:
            set_(before)
        rng = np.random.default_rng(4)
        a = rng.standard_normal((9, 5)) + 1j * rng.standard_normal((9, 5))
        assert np.array_equal(qinfo._svdvals(a), np.linalg.svd(a, compute_uv=False))
        assert np.array_equal(haar_unitary(17, 3), TestHaarQr.numpy_haar(17, 3))


class TestDistances:
    def test_self_distance_zero(self):
        rho = random_density((2, 2), seed=1)
        assert trace_norm_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        a = PureState([1, 0], (2,)).density()
        b = PureState([0, 1], (2,)).density()
        assert trace_norm_distance(a, b) == pytest.approx(2.0, abs=1e-12)
        assert 0.5 * trace_norm_distance(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_bell_vs_maximally_mixed(self):
        # eigenvalues of Phi - I/4 are {3/4, -1/4, -1/4, -1/4}
        assert trace_norm_distance(bell_state(2).density(), maximally_mixed((2, 2))) == (
            pytest.approx(1.5, abs=1e-12)
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            trace_norm_distance(maximally_mixed((2,)), maximally_mixed((3,)))


class TestFidelity:
    def test_self_fidelity(self):
        rho = random_density((2, 2), seed=7)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_bell_vs_maximally_mixed(self):
        # pure-vs-sigma shortcut sqrt(<psi|sigma|psi>) = 1/q
        assert fidelity(bell_state(2).density(), maximally_mixed((2, 2))) == pytest.approx(
            0.5, abs=1e-10
        )

    def test_orthogonal_pures(self):
        a = PureState([1, 0], (2,)).density()
        b = PureState([0, 1], (2,)).density()
        assert fidelity(a, b) == pytest.approx(0.0, abs=1e-8)

    def test_symmetry(self):
        rho = random_density((2, 2), seed=8)
        sig = random_density((2, 2), rank=2, seed=9)
        assert fidelity(rho, sig) == pytest.approx(fidelity(sig, rho), abs=1e-10)

    def test_fidelity_chain_and_pinsker(self):
        # 1 - F <= D_tr <= sqrt(1 - F^2), D_tr <= sqrt(S/2)
        for seed in range(10):
            rho = random_density((2, 2), seed=100 + seed)
            sig = random_density((2, 2), seed=200 + seed)
            f = fidelity(rho, sig)
            d = 0.5 * trace_norm_distance(rho, sig)
            s = relative_entropy(rho, sig)
            assert 1 - f <= d + 1e-9
            assert d <= math.sqrt(max(0.0, 1 - f * f)) + 1e-9
            if s != math.inf:
                assert d <= math.sqrt(s / 2) + 1e-9
                # monotonicity bound: F >= exp(-S/2)
                assert f >= math.exp(-0.5 * s) - 1e-9


class TestRelativeEntropy:
    def test_self_zero(self):
        rho = random_density((2, 2), seed=3)
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-9)

    def test_vs_maximally_mixed_identity(self):
        rho = random_density((2, 2), seed=4)
        want = math.log(4) - entropy_vn(rho)
        assert relative_entropy(rho, maximally_mixed((2, 2))) == pytest.approx(want, abs=1e-9)

    def test_disjoint_support_sentinel(self):
        a = PureState([1, 0], (2,)).density()
        b = PureState([0, 1], (2,)).density()
        assert relative_entropy(a, b) == math.inf


class TestSandwichedRenyi:
    def test_half_equals_minus_two_log_fidelity(self):
        for seed in range(10):
            rho = random_density((2, 2), seed=300 + seed)
            sig = random_density((2, 2), seed=400 + seed)
            want = -2 * math.log(fidelity(rho, sig))
            assert sandwiched_renyi(rho, sig, 0.5) == pytest.approx(want, abs=1e-9)

    def test_equal_states_zero_for_all_alpha(self):
        rho = random_density((2, 2), rank=2, seed=5)
        for alpha in (0.3, 0.5, 0.9, 1.5, 2.0):
            assert sandwiched_renyi(rho, rho, alpha) == pytest.approx(0.0, abs=1e-9)

    def test_monotone_in_alpha(self):
        grid = [0.3, 0.5, 0.7, 0.9, 1.1, 2.0]
        for seed in range(6):
            rho = random_density((2, 2), seed=500 + seed)
            sig = random_density((2, 2), seed=600 + seed)
            vals = [sandwiched_renyi(rho, sig, a) for a in grid]
            for lo, hi in zip(vals, vals[1:]):
                assert hi >= lo - 1e-9

    def test_interpolates_relative_entropy(self):
        rho = random_density((2,), seed=6)
        sig = random_density((2,), seed=7)
        near_one = sandwiched_renyi(rho, sig, 1.0 + 1e-6)
        assert near_one == pytest.approx(relative_entropy(rho, sig), abs=1e-4)

    def test_singular_sigma_alpha_gt_one(self):
        rho = maximally_mixed((2,))
        sig = PureState([1, 0], (2,)).density()
        assert sandwiched_renyi(rho, sig, 2.0) == math.inf

    def test_bad_alpha(self):
        rho = maximally_mixed((2,))
        with pytest.raises(ValueError):
            sandwiched_renyi(rho, rho, 1.0)


class TestPurify:
    def test_maximally_mixed_purifies_to_bell(self):
        psi = purify(maximally_mixed((2,)))
        assert psi.dims == (2, 2)
        assert entropy_vn(reduce(psi, {0})) == pytest.approx(LN2, abs=1e-10)

    def test_pure_state_gets_trivial_ancilla(self):
        rho = random_pure((2, 2), seed=1).density()
        psi = purify(rho)
        assert psi.dims == (2, 2, 1)

    def test_round_trip_rank3(self):
        rho = random_density((2, 2), rank=3, seed=12)
        psi = purify(rho)
        assert psi.dims[-1] == 3
        back = reduce(psi, range(rho.n_subsystems))
        assert np.allclose(back.matrix, rho.matrix, atol=1e-10)

    def test_padded_ancilla(self):
        rho = random_density((2,), rank=1, seed=13)
        psi = purify(rho, ancilla_dim=3)
        assert psi.dims == (2, 3)
        back = reduce(psi, {0})
        assert np.allclose(back.matrix, rho.matrix, atol=1e-10)


class TestUhlmannAlign:
    def test_identical_purifications(self):
        psi = purify(random_density((2, 2), seed=14))
        w, overlap = uhlmann_align(psi, psi, {psi.n_subsystems - 1})
        assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_basis_rotated_purifications_of_maximally_mixed(self):
        psi = purify(maximally_mixed((2,)))
        u = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        phi = qinfo.apply_unitary(psi, u, (1,))
        w, overlap = uhlmann_align(psi, phi, {1})
        assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_achieved_overlap_equals_fidelity(self):
        for seed in range(6):
            rho = random_density((2, 2), seed=700 + seed)
            sig = random_density((2, 2), seed=800 + seed)
            psi = purify(rho, ancilla_dim=4)
            phi = purify(sig, ancilla_dim=4)
            anc = {2}
            w, overlap = uhlmann_align(psi, phi, anc)
            assert overlap == pytest.approx(fidelity(rho, sig), abs=1e-9)
            # the overlap is actually achieved by W on the ancilla
            aligned = qinfo.apply_unitary(psi, w, (2,))
            assert abs(phi.overlap(aligned)) == pytest.approx(overlap, abs=1e-9)

    def test_rank_deficient_states_at_conditioning_limit(self):
        # fidelity has a sqrt singularity at rank deficiency, so agreement
        # between the two routes is only ~sqrt(eps_machine) there
        rho = random_density((2, 2), seed=701)
        sig = random_density((2, 2), rank=3, seed=801)
        psi = purify(rho, ancilla_dim=4)
        phi = purify(sig, ancilla_dim=4)
        _, overlap = uhlmann_align(psi, phi, {2})
        assert overlap == pytest.approx(fidelity(rho, sig), abs=1e-7)

    def test_ancilla_dim_mismatch(self):
        psi = purify(maximally_mixed((2,)), ancilla_dim=2)
        phi = purify(maximally_mixed((2,)), ancilla_dim=3)
        with pytest.raises(ValueError):
            uhlmann_align(psi, phi, {1})


class TestStateTypes:
    def test_pure_state_norm_enforced(self):
        with pytest.raises(ValueError):
            PureState([1, 1], (2,))

    def test_density_of_any_accepted_state(self):
        # PureState keeps a norm within NORM_TOL of 1 as it is, so the
        # projector's trace |psi|^2 sits up to 2 NORM_TOL from 1
        psi = PureState(np.array([1, 1]) / np.sqrt(2) * (1 + 0.9e-12), (2,))
        rho = psi.density()
        assert np.array_equal(rho.matrix, np.outer(psi.amplitudes, psi.amplitudes.conj()))
        assert rho.dims == (2,)

    def test_dims_length_enforced(self):
        with pytest.raises(ValueError):
            PureState([1, 0, 0], (2, 2))

    def test_density_matrix_validation(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.5], [0.2, 0.5]]), (2,))

    @pytest.mark.parametrize("positions", [(0, 0), (0, 3)], ids=["repeated", "out-of-range"])
    @pytest.mark.parametrize("op", [
        reduce,
        marginal_probs,
        lambda psi, positions: qinfo.apply_unitary(psi, np.eye(2), positions),
        lambda psi, positions: uhlmann_align(psi, psi, positions),
    ], ids=["reduce", "marginal_probs", "apply_unitary", "uhlmann_align"])
    def test_one_position_rule(self, op, positions):
        with pytest.raises(ValueError, match="out of range"):
            op(random_pure((2, 3, 2), seed=4), positions)

    def test_apply_unitary_on_reversed_non_adjacent_positions(self):
        psi = random_pure((2, 3, 2), seed=5)
        u = haar_unitary(4, seed=6)
        out = qinfo.apply_unitary(psi, u, (2, 0))
        # u's row index is (subsystem 2, subsystem 0), in that order
        want = np.einsum("wxyz,zby->xbw", u.reshape(2, 2, 2, 2), psi.tensor())
        assert np.allclose(out.tensor(), want, rtol=0, atol=1e-14)
