"""Acceptance suite: one test per published criterion, each printing a
pass/fail line and pinning the criterion's tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import math
import time

import numpy as np
import pytest

from dulab import ensemble, gates, mps
from dulab.circuit import (
    BrickworkCircuit,
    bond_entropies,
    dimer_sites,
    evolve,
    four_party_report,
    reconstruct_distillable,
    xy_product_sites,
    z_product_sites,
)
from dulab.gates import (
    choi_defect,
    cz_gate,
    defects,
    fourier_gate,
    haar_gate,
    kicked_ising_first_gate,
    kicked_ising_gate,
    nearest_dual_q2,
    perturbed,
    swap_gate,
)
from dulab.qinfo import (
    entropy_vn,
    fidelity,
    reduce,
    sandwiched_renyi,
)
from conftest import chain_sites, random_density, random_pure

LN2 = math.log(2.0)
QUARTER = math.pi / 4


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, detail


def _mix_bond_gates(L):
    kim = kicked_ising_gate(QUARTER, QUARTER, 0.3)
    swap = swap_gate(2)
    return {b: (swap if (b // 2) % 2 == 0 else kim) for b in range(L - 1)}


def _criterion1_records():
    L = 16
    kim = kicked_ising_gate(QUARTER, QUARTER, 0.3)
    circuits = {
        "swap": BrickworkCircuit(L=L, q=2, gate=swap_gate(2), first_parity="odd"),
        "kicked-ising": BrickworkCircuit(L=L, q=2, gate=kim, first_parity="odd"),
        "mix": BrickworkCircuit(L=L, q=2, gate=swap_gate(2), first_parity="odd",
                                bond_gates=_mix_bond_gates(L)),
    }
    initial = dimer_sites(L, 2)
    return {name: evolve(c, initial, 6) for name, c in circuits.items()}


def test_criterion_1_dual_relay_exactness():
    t0 = time.monotonic()
    records = _criterion1_records()
    worst = 0.0
    for name, rec in records.items():
        central = rec.central_series()
        for t in (2, 4, 6):
            assert rec.light_cone_valid[t]
            worst = max(worst, abs(central[t] - t * LN2))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    report(1, ok,
           f"dual brickwork central cut = t ln2 at even t <= 6 "
           f"(worst dev {worst:.2e} <= 1e-9, runtime {elapsed:.2f}s < 10s)")


def test_criterion_2_per_gate_bound():
    records = list(_criterion1_records().values())
    L = 14
    kim = kicked_ising_gate(QUARTER, QUARTER, 0.3)
    extra = [
        (BrickworkCircuit(L=L, q=2, gate=kim,
                          first_layer_override=kicked_ising_first_gate(QUARTER, 0.3)),
         xy_product_sites(L, [0.2 * k for k in range(L)]), 6),
        (BrickworkCircuit(L=L, q=2, gate=kim,
                          first_layer_override=kicked_ising_first_gate(QUARTER, 0.3)),
         z_product_sites(L, [k % 2 for k in range(L)]), 6),
        (BrickworkCircuit(L=10, q=2, gate=haar_gate(2, 101), first_parity="odd"),
         dimer_sites(10, 2), 4),
        (BrickworkCircuit(L=10, q=2, gate=fourier_gate(2)),
         chain_sites(random_pure((2,) * 10, seed=55)), 4),
        (BrickworkCircuit(L=8, q=2, gate=cz_gate(2)),
         chain_sites(random_pure((2,) * 8, seed=56)), 4),
        (BrickworkCircuit(L=8, q=3, gate=haar_gate(3, 102)),
         dimer_sites(8, 3), 3),
    ]
    worst_ratio = 0.0
    for circ, init, T in extra:
        records.append(evolve(circ, init, T))
    for rec in records:
        bound = 2 * math.log(rec.q)
        inc = rec.max_step_increase()
        assert inc <= bound + 1e-9
        worst_ratio = max(worst_ratio, inc / bound)
    report(2, True,
           f"no single-layer increase above 2 ln q + 1e-9 over {len(records)} "
           f"records (max ratio {worst_ratio:.6f})")


def test_criterion_3_separating_states():
    L = 14
    kim = kicked_ising_gate(QUARTER, QUARTER, 0.3)
    u0 = kicked_ising_first_gate(QUARTER, 0.3)
    circ = BrickworkCircuit(L=L, q=2, gate=kim, first_layer_override=u0)

    from dulab.circuit import zigzag_check

    rec_t = evolve(circ, xy_product_sites(L, [0.37 * k for k in range(L)]), 6)
    ok_t, _ = zigzag_check(rec_t.profiles[1], 2, tol=1e-9)

    rec_l = evolve(circ, z_product_sites(L, [k % 3 == 0 for k in range(L)]), 6)
    ok_l, _ = zigzag_check(rec_l.profiles[2], 2, tol=1e-9)

    growth_ok = True
    for rec, start in ((rec_t, 2), (rec_l, 2)):
        central = rec.central_series()
        for t in range(start + 2, 7, 2):
            if rec.light_cone_valid[t]:
                growth_ok &= abs((central[t] - central[t - 2]) - 2 * LN2) <= 1e-9
    ok = bool(ok_t and ok_l and growth_ok)
    report(3, ok,
           "xy-plane class zigzag after layer 1, z class zigzag at t = 2, "
           "then 2 ln 2 growth per two layers (tol 1e-9)")


def test_criterion_4_solvable_mps():
    worst_e = worst_p = 0.0
    cases = 0
    seed = 0
    for q in (2, 3):
        for chi in (1, 2):
            for _ in range(5):
                pair = mps.random_solvable(q, chi, seed)
                seed += 1
                e_ab, e_ba = mps.cut_entropies_exact(pair)
                worst_e = max(worst_e, abs(e_ab - math.log(chi * q)),
                              abs(e_ba - math.log(chi)))
                for n in (2, 3):
                    p = mps.replica_purity(pair, n)
                    worst_p = max(worst_p, abs(p - (chi * q) ** (-(n - 1))))
                cases += 1
    ok = cases == 20 and worst_e <= 1e-8 and worst_p <= 1e-8
    report(4, ok,
           f"20 solvable MPS: cut entropies (worst dev {worst_e:.2e}) and "
           f"replica purities (worst dev {worst_p:.2e}) within 1e-8")


def test_criterion_5_haar_fidelities():
    t0 = time.monotonic()
    target = 8 / (3 * math.pi)
    choi = ensemble.haar_choi_fidelity(16, 2000, seed=7)
    single = ensemble.haar_state_fidelity(32, 2000, seed=7)
    elapsed = time.monotonic() - t0
    dev_c = abs(choi.mean - target)
    dev_s = abs(single.mean - target)
    ok = dev_c <= 0.01 and dev_s <= 0.01 and elapsed < 120.0
    report(5, ok,
           f"Haar fidelity means {choi.mean:.6f} / {single.mean:.6f} within 0.01 "
           f"of 8/(3 pi) = {target:.6f} (runtime {elapsed:.1f}s < 120s)")


def test_criterion_6_catalan_moments():
    moments = ensemble.haar_purity_moments(16, (2, 3), 2000, seed=7)
    s2 = moments[2].mean * 16 ** 2
    s3 = moments[3].mean * 16 ** 4
    ok = 1.96 <= s2 <= 2.04 and 4.75 <= s3 <= 5.25
    report(6, ok,
           f"purity moments q=16: tr rho^2 * q^2 = {s2:.4f} in [1.96, 2.04], "
           f"tr rho^3 * q^4 = {s3:.4f} in [4.75, 5.25]")


def test_criterion_7_snap_certificate():
    rng = np.random.default_rng(2024)
    bases = [swap_gate(2), kicked_ising_gate(QUARTER, QUARTER, 0.3), fourier_gate(2)]
    n_ok = 0
    samples = 0
    attempts = 0
    worst_ratio = 0.0
    while samples < 50 and attempts < 500:
        attempts += 1
        base = bases[attempts % 3]
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = (h + h.conj().T) / 2
        h /= np.linalg.norm(h, 2)
        theta = 10 ** rng.uniform(-3.5, -1.0)
        g = perturbed(base, theta, h)
        delta_c = 4 * choi_defect(g)  # the un-normalized defect convention
        if not (0 < delta_c <= 0.1):
            continue
        samples += 1
        ux, dist = nearest_dual_q2(g)
        dual_ok = choi_defect(ux) <= 1e-10
        cert_ok = dist <= 14 * math.sqrt(delta_c)
        worst_ratio = max(worst_ratio, dist / math.sqrt(delta_c))
        n_ok += dual_ok and cert_ok
    ok = samples == 50 and n_ok == 50
    report(7, ok,
           f"{n_ok}/{samples} perturbed duals: snapped gate exactly dual and "
           f"||u - ux||_1 <= 14 sqrt(delta) (worst ratio {worst_ratio:.3f})")


def test_criterion_8_eps_delta_scaling():
    bases = [swap_gate(2), kicked_ising_gate(QUARTER, QUARTER, 0.5),
             nearest_dual_q2(haar_gate(2, 12))[0]]
    slopes = []
    ok = True
    for k, base in enumerate(bases):
        thetas = [0.0] + list(np.logspace(-3, -1, 9))
        pts = ensemble.eps_delta_scan(base, thetas, seed=300 + k)
        ok &= pts[0].epsilon == 0.0 and pts[0].delta == 0.0
        nonzero = [p for p in pts if p.theta > 0]
        ok &= nonzero[0].delta <= nonzero[-1].delta  # delta shrinks with eps
        slope, _ = ensemble.loglog_slope(pts)
        slopes.append(slope)
        ok &= 0.4 <= slope <= 1.1
    report(8, bool(ok),
           "deficit-vs-defect scan on 3 dual bases: exact zero at theta = 0, "
           f"log-log slopes {[f'{s:.3f}' for s in slopes]} within [0.4, 1.1]")


def test_criterion_9_four_party_suite():
    rng_seed = 0
    worst_slack = 0.0
    recon_ok = True
    for k in range(200):
        d = 2 if k % 2 == 0 else 4
        state = random_pure((d, 2, 2, d), seed=10_000 + k)
        gate = haar_gate(2, 20_000 + k)
        rep = four_party_report(gate, state)
        checks = rep.inequality_checks(slack=1e-9)
        assert all(checks.values()), (k, checks)
        _, dist = reconstruct_distillable(state)
        bound = 2 * (2 * math.sqrt(max(0.0, 1 - math.exp(-2 * rep.epsilon))))
        recon_ok &= dist <= bound + 1e-9
    ok = bool(recon_ok)
    report(9, ok,
           "200 four-party experiments: all entropy/information/fidelity bounds "
           "hold at measured epsilon + 1e-9; reconstruction distance within "
           "2 * 2 sqrt(1 - e^{-2 eps})")


def test_criterion_10_consistency_oracles():
    # (a) choi * q^2 = gram on 100 Haar gates
    worst_rel = 0.0
    k = 0
    for q in (2, 3, 4):
        n = 34 if q != 4 else 32
        for _ in range(n):
            rep = defects(haar_gate(q, 30_000 + k))
            k += 1
            worst_rel = max(worst_rel, abs(rep.choi_defect * q * q - rep.gram_defect))
    ok_a = k == 100 and worst_rel <= 1e-9

    # (b) bond entropies (the SVD of schmidt_probs) equal dense
    # reduce+entropy on L <= 6 states
    worst_b = 0.0
    for L in (2, 3, 4, 5, 6):
        for s in range(4):
            psi = random_pure((2,) * L, seed=40_000 + 10 * L + s)
            prof = bond_entropies(psi)
            for b in range(L - 1):
                dense = entropy_vn(reduce(psi, set(range(b + 1))))
                worst_b = max(worst_b, abs(prof[b] - dense))
    psi = random_pure((3,) * 4, seed=41_000)
    prof = bond_entropies(psi)
    for b in range(3):
        worst_b = max(worst_b, abs(prof[b] - entropy_vn(reduce(psi, set(range(b + 1))))))
    ok_b = worst_b <= 1e-10

    # (c) sandwiched divergence at alpha = 1/2 equals -2 ln F on 100 pairs
    worst_c = 0.0
    for s in range(100):
        rho = random_density((2, 2), seed=50_000 + s)
        sig = random_density((2, 2), seed=60_000 + s)
        lhs = sandwiched_renyi(rho, sig, 0.5)
        rhs = -2 * math.log(fidelity(rho, sig))
        worst_c = max(worst_c, abs(lhs - rhs))
    ok_c = worst_c <= 1e-9

    ok = ok_a and ok_b and ok_c
    report(10, ok,
           f"consistency oracles: defect relation ({worst_rel:.1e} <= 1e-9), "
           f"bond entropies ({worst_b:.1e} <= 1e-10), "
           f"divergence at 1/2 ({worst_c:.1e} <= 1e-9)")
