import itertools
import math

import numpy as np
import pytest
import scipy.linalg

from dulab.gates import (
    CartanData,
    Gate,
    _kron_2x2,
    cartan_decompose,
    choi_defect,
    choi_output_state,
    cz_gate,
    defects,
    fourier_gate,
    haar_gate,
    haar_unitary,
    identity_gate,
    interaction_gate,
    kicked_ising_first_gate,
    kicked_ising_gate,
    nearest_dual_q2,
    perturbed,
    project_dual_iterative,
    read_gate_file,
    reshuffle,
    swap_gate,
)
from dulab.qinfo import bell_state, trace_norm
from conftest import write_gate_file

QUARTER = math.pi / 4


def random_hermitian_unit(d, rng):
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (h + h.conj().T) / 2
    return h / np.linalg.norm(h, 2)


class TestDualMatrix:
    def test_swap_reshuffles_to_permutation(self):
        m = reshuffle(swap_gate(2).matrix, 2)
        assert np.allclose(np.abs(m) * (np.abs(m) > 0.5), np.abs(m))
        assert np.allclose(m @ m.conj().T, np.eye(4), atol=1e-12)

    def test_identity_reshuffles_to_rank_q(self):
        m = reshuffle(identity_gate(2).matrix, 2)
        assert np.linalg.matrix_rank(m) == 1
        assert np.count_nonzero(m) == 4

    def test_involution_exact(self, rng):
        for q in (2, 3):
            g = haar_gate(q, rng)
            m = reshuffle(reshuffle(g.matrix, q), q)
            assert np.array_equal(m, g.matrix)


class TestDefects:
    def test_swap_is_dual(self):
        rep = defects(swap_gate(2))
        assert rep.gram_defect <= 1e-12 and rep.choi_defect <= 1e-12
        assert rep.is_dual()

    def test_identity_values(self):
        # eigenvalues of Phi - I/4 are {3/4, -1/4 x3}; M M+ = 4 |Omega><Omega|
        rep = defects(identity_gate(2))
        assert rep.choi_defect == pytest.approx(1.5, abs=1e-12)
        assert rep.gram_defect == pytest.approx(6.0, abs=1e-12)
        assert rep.relation_ok

    def test_cz_not_dual(self):
        rep = defects(cz_gate(2))
        assert rep.choi_defect == pytest.approx(1.0, abs=1e-12)
        assert not rep.is_dual()

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_choi_gram_relation_haar(self, q, rng):
        for _ in range(8):
            rep = defects(haar_gate(q, rng))
            assert rep.relation_ok
            assert abs(rep.choi_defect * q * q - rep.gram_defect) <= 1e-9

    def test_gram_zero_iff_dual_matrix_unitary(self, rng):
        duals = [swap_gate(2), fourier_gate(2), fourier_gate(3),
                 kicked_ising_gate(QUARTER, QUARTER, 0.7)]
        for g in duals:
            m = reshuffle(g.matrix, g.q)
            assert trace_norm(m @ m.conj().T - np.eye(g.q ** 2)) <= 1e-10
            assert defects(g).gram_defect <= 1e-10
        for _ in range(100):
            h = random_hermitian_unit(4, rng)
            g = perturbed(swap_gate(2), 0.2, h)
            m = reshuffle(g.matrix, g.q)
            unitar = trace_norm(m @ m.conj().T - np.eye(4))
            rep = defects(g)
            assert (rep.gram_defect <= 1e-10) == (unitar <= 1e-10)


class TestChoiOutputState:
    def test_dual_gate_gives_maximally_mixed(self):
        rho = choi_output_state(swap_gate(2))
        assert np.allclose(rho.matrix, np.eye(4) / 4, atol=1e-12)

    def test_identity_gives_bell(self):
        rho = choi_output_state(identity_gate(2))
        assert np.allclose(rho.matrix, bell_state(2).density().matrix, atol=1e-12)

    def test_random_gate_valid_density(self, rng):
        rho = choi_output_state(haar_gate(3, rng))
        assert np.allclose(rho.matrix, rho.matrix.conj().T, atol=1e-12)
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-12

    def test_swapped_factors_equal_gram_over_q2(self, rng):
        g = haar_gate(2, rng)
        m = reshuffle(g.matrix, g.q)
        # swap the (A, B') factors of rows and columns alike
        rho = choi_output_state(g).matrix.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
        assert np.allclose(rho, m @ m.conj().T / 4, atol=1e-12)


class TestHaar:
    def test_deterministic(self):
        a = haar_unitary(6, 123)
        b = haar_unitary(6, 123)
        assert np.array_equal(a, b)

    def test_unitarity_many_samples(self):
        for k in range(100):
            u = haar_unitary(16, 1000 + k)
            assert trace_norm(u @ u.conj().T - np.eye(16)) <= 1e-12

    def test_columns_orthonormal(self):
        u = haar_unitary(16, 5)
        g = u.conj().T @ u
        assert np.abs(g - np.eye(16)).max() <= 1e-12


class TestCartan:
    def test_kron_2x2_is_np_kron(self, rng):
        for _ in range(200):
            a, b = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
            assert np.array_equal(_kron_2x2(a, b), np.kron(a, b))

    def test_identity(self):
        data = cartan_decompose(identity_gate(2))
        assert np.allclose(data.J, (0, 0, 0), atol=1e-12)
        assert trace_norm(data.reconstruct().matrix - np.eye(4)) <= 1e-9

    def test_swap_coefficients(self):
        # oracle: exp(-i pi/4 (XX+YY+ZZ)) = e^{-i pi/4} swap, by direct expm
        x = np.array([[0, 1], [1, 0]], complex)
        y = np.array([[0, -1j], [1j, 0]])
        z = np.diag([1, -1]).astype(complex)
        h = QUARTER * (np.kron(x, x) + np.kron(y, y) + np.kron(z, z))
        direct = scipy.linalg.expm(-1j * h)
        assert np.allclose(direct, np.exp(-1j * QUARTER) * swap_gate(2).matrix, atol=1e-12)
        data = cartan_decompose(swap_gate(2))
        assert np.allclose(data.J, (QUARTER, QUARTER, QUARTER), atol=1e-9)

    def test_kicked_ising_has_two_quarter_coefficients(self):
        for h in (0.0, 0.3, 1.1):
            data = cartan_decompose(kicked_ising_gate(QUARTER, QUARTER, h))
            near = sum(1 for j in data.J if abs(abs(j) - QUARTER) < 1e-9)
            assert near >= 2

    def test_haar_reconstruction(self, rng):
        worst = 0.0
        for _ in range(200):
            g = haar_gate(2, rng)
            data = cartan_decompose(g)
            worst = max(worst, trace_norm(data.reconstruct().matrix - g.matrix))
            jx, jy, jz = data.J
            assert QUARTER + 1e-12 >= jx >= jy - 1e-12
            assert jy >= abs(jz) - 1e-12
        assert worst <= 1e-9

    def test_degenerate_neighborhoods(self, rng):
        for base in (identity_gate(2), swap_gate(2), cz_gate(2)):
            for theta in (1e-9, 1e-6, 1e-3):
                h = random_hermitian_unit(4, rng)
                g = perturbed(base, theta, h)
                data = cartan_decompose(g)
                assert trace_norm(data.reconstruct().matrix - g.matrix) <= 1e-9

    @pytest.mark.parametrize("chamber, point", [
        ((0.6, 0.4, 0.1), (0.6, 0.4, 0.1)),
        ((0.7, 0.5, -0.2), (0.7, 0.5, -0.2)),
        ((QUARTER, 0.3, -0.2), (QUARTER, 0.3, 0.2)),  # Jz >= 0 on the Jx = pi/4 wall
        ((0.5, 0.5, 0.5), (0.5, 0.5, 0.5)),
        ((0.3, 0.0, 0.0), (0.3, 0.0, 0.0)),
        ((QUARTER, QUARTER, QUARTER), (QUARTER, QUARTER, QUARTER)),
    ])
    def test_chamber_point_is_a_class_function(self, chamber, point, rng):
        # every image under the Weyl group (axis orders, even sign patterns)
        # and a +-pi/2 shift of at most one coefficient is locally
        # equivalent, so it decomposes to the same chamber point; every
        # other image is also dressed with Haar one-site unitaries
        shifts = [np.zeros(3)] + [s * math.pi / 2 * np.eye(3)[k] for k in range(3)
                                  for s in (1, -1)]
        signs = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
        images = [np.array(chamber)[list(order)] * sign + shift
                  for order in itertools.permutations(range(3))
                  for sign in signs for shift in shifts]
        assert len(images) == 168
        for n, J in enumerate(images):
            u = interaction_gate(*J)
            if n % 2:
                a, b, c, d = (haar_unitary(2, rng) for _ in range(4))
                u = np.kron(a, b) @ u @ np.kron(c, d)
            data = cartan_decompose(Gate(2, u))
            assert np.abs(np.array(data.J) - point).max() <= 1e-13, (J, data.J)

    def test_interaction_gate_matches_expm(self, rng):
        for _ in range(5):
            j = rng.uniform(-1, 1, 3)
            x = np.array([[0, 1], [1, 0]], complex)
            y = np.array([[0, -1j], [1j, 0]])
            z = np.diag([1, -1]).astype(complex)
            h = j[0] * np.kron(x, x) + j[1] * np.kron(y, y) + j[2] * np.kron(z, z)
            assert np.allclose(interaction_gate(*j), scipy.linalg.expm(-1j * h), atol=1e-12)


class TestNearestDual:
    def test_dual_input_distance_zero(self):
        for g in (swap_gate(2), kicked_ising_gate(QUARTER, QUARTER, 0.3)):
            ux, dist = nearest_dual_q2(g)
            assert dist <= 1e-9
            assert defects(ux).choi_defect <= 1e-10

    def test_certificate_on_perturbed_duals(self, rng):
        for k in range(25):
            base = swap_gate(2) if k % 2 else kicked_ising_gate(QUARTER, QUARTER, 0.4)
            h = random_hermitian_unit(4, rng)
            theta = 10 ** rng.uniform(-3, -0.9)
            g = perturbed(base, theta, h)
            delta_c = 4 * defects(g).choi_defect  # un-normalized convention
            if delta_c > 0.1:
                continue
            ux, dist = nearest_dual_q2(g)
            assert defects(ux).choi_defect <= 1e-10
            assert dist <= 14 * math.sqrt(delta_c)

    def test_output_always_dual(self, rng):
        for _ in range(10):
            ux, _ = nearest_dual_q2(haar_gate(2, rng))
            assert defects(ux).choi_defect <= 1e-10


def reference_projection(g, max_iters, tol):
    """Reference alternating polar loop that validates every iterate as a
    Gate and takes its choi_defect (a third SVD).  Returns (gate,
    converged, defect_trace)."""
    q, u = g.q, g.matrix
    trace = [choi_defect(g)]
    if trace[0] <= tol:
        return g, True, trace
    for _ in range(max_iters):
        w, _, vh = np.linalg.svd(reshuffle(u, q))
        w, _, vh = np.linalg.svd(reshuffle(w @ vh, q))
        u = w @ vh
        gate = Gate(q, u)
        trace.append(choi_defect(gate))
        if trace[-1] <= tol:
            return gate, True, trace
    return Gate(q, u), False, trace


def perturbed_dual_gates(rng, n):
    """n gates at random distances 1e-3..0.3 from swap (q = 2) and from
    Fourier (q = 3)."""
    out = []
    for base in (swap_gate(2), fourier_gate(3)):
        d = base.q ** 2
        for _ in range(n):
            h = random_hermitian_unit(d, rng)
            theta = 10 ** rng.uniform(-3, -0.5)
            out.append(perturbed(base, theta, h))
    return out


#: |defect_trace difference| from the reference loop's separate choi_defect
#: SVD: at most 4.8e-15 over 336 gates (Haar and perturbed, q = 2 and 3)
TRACE_ROUNDING = 1e-14


class TestIterativeProjection:
    def test_dual_input_is_fixed_point(self):
        res = project_dual_iterative(swap_gate(2))
        assert res.converged and res.iterations == 0

    def test_haar_inputs_logged(self, rng):
        converged = 0
        n = 20
        tol = 1e-8
        for k in range(n):
            res = project_dual_iterative(haar_gate(2, 9000 + k), max_iters=200, tol=tol)
            converged += res.converged
            assert len(res.defect_trace) == res.iterations + 1
            assert res.defect_trace[0] >= 0
            assert res.converged == (res.defect_trace[-1] <= tol)
            assert all(d > tol for d in res.defect_trace[:-1])
            if not res.converged:
                assert len(res.defect_trace) == 201
            assert abs(res.defect_trace[-1] - choi_defect(res.gate)) <= TRACE_ROUNDING
        # measurement, not a contract: record the fraction for the log
        print(f"\niterative projection convergence: {converged}/{n} within 200 iterations")

    def test_unconverged_run_has_one_entry_per_iterate(self):
        res = project_dual_iterative(haar_gate(3, 5), max_iters=4, tol=1e-10)
        assert not res.converged
        assert len(res.defect_trace) == 5 and res.iterations == 4
        assert abs(res.defect_trace[-1] - choi_defect(res.gate)) <= TRACE_ROUNDING

    def test_zero_iterations_return_the_input(self):
        g = haar_gate(2, 3)
        res = project_dual_iterative(g, max_iters=0)
        assert not res.converged and res.iterations == 0
        assert np.array_equal(res.gate.matrix, g.matrix)
        assert abs(res.defect_trace[0] - choi_defect(g)) <= TRACE_ROUNDING

    def test_matches_reference_loop(self):
        rng = np.random.default_rng(19)
        pool = [haar_gate(q, rng) for q in (2, 3) for _ in range(8)]
        pool += perturbed_dual_gates(rng, 5)
        for g in pool:
            gate, converged, trace = reference_projection(g, 300, 1e-10)
            res = project_dual_iterative(g, max_iters=300, tol=1e-10)
            assert res.iterations == len(trace) - 1
            assert res.converged == converged
            assert np.array_equal(res.gate.matrix, gate.matrix)
            assert max(abs(a - b) for a, b in zip(res.defect_trace, trace)) <= TRACE_ROUNDING

    def test_comparative_distances_logged(self, rng):
        g = haar_gate(2, 77)
        res = project_dual_iterative(g, max_iters=300, tol=1e-9)
        d_iter = trace_norm(g.matrix - res.gate.matrix)
        _, d_snap = nearest_dual_q2(g)
        print(f"\ndistance to iterative projection {d_iter:.4f} vs snap construction {d_snap:.4f}")

    def test_q3_runs(self, rng):
        res = project_dual_iterative(haar_gate(3, rng), max_iters=50, tol=1e-8)
        assert len(res.defect_trace) >= 1


class TestKickedIsing:
    def test_self_dual_point_any_h(self):
        for h in (0.0, 0.3, 2.1):
            assert defects(kicked_ising_gate(QUARTER, QUARTER, h)).choi_defect <= 1e-10

    def test_no_kick_is_diagonal_and_not_dual(self):
        g = kicked_ising_gate(QUARTER, 0.0, 0.3)
        off = g.matrix - np.diag(np.diag(g.matrix))
        assert np.abs(off).max() <= 1e-12
        assert defects(g).choi_defect > 0.1

    def test_always_unitary(self, rng):
        for _ in range(5):
            J, b, h = rng.uniform(-2, 2, 3)
            g = kicked_ising_gate(J, b, h)
            assert trace_norm(g.matrix @ g.matrix.conj().T - np.eye(4)) <= 1e-12 * 16

    def test_first_layer_gate_is_diagonal(self):
        g = kicked_ising_first_gate(QUARTER, 0.3)
        off = g.matrix - np.diag(np.diag(g.matrix))
        assert np.abs(off).max() <= 1e-12

    def test_closed_forms_match_expm(self, rng):
        # oracle: the products of matrix exponentials the closed forms
        # replace.  scipy's expm exponentiates a diagonal matrix entrywise,
        # so the first-layer gate is bit-equal; the X kick goes through
        # expm's Pade approximant, so the bulk gate agrees to rounding
        x = np.array([[0, 1], [1, 0]], complex)
        z = np.diag([1, -1]).astype(complex)
        zz, z1, z2 = np.kron(z, z), np.kron(z, np.eye(2)), np.kron(np.eye(2), z)
        worst = 0.0
        for J, b, h in [(QUARTER, QUARTER, 0.3)] + [tuple(rng.uniform(-math.pi, math.pi, 3))
                                                      for _ in range(200)]:
            rz = scipy.linalg.expm(-1j * h * z / 2)
            rx = scipy.linalg.expm(-1j * b * x)
            e_zz = scipy.linalg.expm(-1j * J * zz)
            bulk = np.kron(rz, rz) @ e_zz @ np.kron(rx, rx) @ e_zz @ np.kron(rz, rz)
            worst = max(worst, np.abs(kicked_ising_gate(J, b, h).matrix - bulk).max())
            first = scipy.linalg.expm(-1j * (J * zz + (h / 2) * (z1 + z2)))
            assert np.array_equal(kicked_ising_first_gate(J, h).matrix, first), (J, h)
        # measured: at most 9.5e-16 per entry over 5,000 draws, bit-equal at b = pi/4
        assert worst <= 2e-15


class TestPerturbed:
    @pytest.mark.parametrize("q", [2, 3])
    def test_matches_expm(self, q, rng):
        # oracle: base expm(-i theta h); the eigh route agrees to rounding
        # (measured: at most 1.3e-15 per entry over 50 draws of h at five theta
        # per q)
        base = fourier_gate(q)
        for _ in range(20):
            h = random_hermitian_unit(q * q, rng)
            for theta in (1e-3, 1e-2, 0.1, 0.5, 1.0):
                direct = base.matrix @ scipy.linalg.expm(-1j * theta * h)
                assert np.abs(perturbed(base, theta, h).matrix - direct).max() <= 1e-14


class TestDualFamilyContinuity:
    def test_defect_vanishes_continuously_at_dual_point(self, rng):
        base = kicked_ising_gate(QUARTER, QUARTER, 0.5)
        h = random_hermitian_unit(4, rng)
        prev = None
        for theta in (0.1, 0.03, 0.01, 0.003, 0.001, 0.0):
            g = perturbed(base, theta, h)
            d = defects(g).choi_defect
            if prev is not None:
                assert d <= prev + 1e-12  # shrinking theta cannot blow the defect up
            prev = d
        assert prev <= 1e-12


class TestGateFile:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        g = haar_gate(3, rng)
        path = tmp_path / "gate.txt"
        write_gate_file(g, path)
        back = read_gate_file(path)
        assert back.q == 3
        assert np.array_equal(back.matrix, g.matrix)

    def test_wrong_row_count_reports(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1,0 0,0 0,0 0,0\n")
        with pytest.raises(ValueError, match="expected 4 matrix rows"):
            read_gate_file(path)

    def test_bad_entry_reports_line(self, tmp_path):
        g = identity_gate(2)
        path = tmp_path / "bad2.txt"
        write_gate_file(g, path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace(",", ";", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=":3:"):
            read_gate_file(path)

    def test_non_unitary_rejected_with_defect(self, tmp_path):
        path = tmp_path / "nonu.txt"
        path.write_text("2\n" + "\n".join(" ".join("0.5,0.0" for _ in range(4)) for _ in range(4)) + "\n")
        with pytest.raises(ValueError, match="not unitary"):
            read_gate_file(path)


class TestGateValidation:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            Gate(2, np.ones((4, 4)))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="shape"):
            Gate(2, np.eye(3))
