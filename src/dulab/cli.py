"""Reproducible experiment runner.

Every subcommand emits machine-readable JSON or CSV (UTF-8, "." decimals).
Its primary output (the JSON document, or the CSV for ``--format csv``) goes
to stdout, or atomically to ``--out``, in which case stdout gets the JSON
document.  ``--assert`` exits 1 exactly when the document's ``pass`` is
false.  Usage errors exit 2 before the output file is touched.
Entropies in files are always nats; ``--bits`` adds a display-only bits
rendering of summary lines.  The state-size budget can be overridden with
the DULAB_MAX_AMPLITUDES environment variable.  Every subcommand computes
at one thread of numpy's bundled OpenBLAS, so its bytes do not depend on
OPENBLAS_NUM_THREADS or the core count.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import circuit as ckt
from . import ensemble, gates, mps
from .qinfo import _one_blas_thread, bell_state, entropy_from_probs, kron_states, trace_norm

SCHEMA_VERSION = "1"
EIGHT_THIRDS_PI = 8.0 / (3.0 * math.pi)


def _kicked_ising(q: int, J: float, b: float, h: float) -> gates.Gate:
    if q != 2:
        raise ValueError("kicked-ising is a qubit (q = 2) gate")
    return gates.kicked_ising_gate(J, b, h)


#: named gate -> builder(q, J, b, h)
NAMED_GATES = {
    "identity": lambda q, J, b, h: gates.identity_gate(q),
    "swap": lambda q, J, b, h: gates.swap_gate(q),
    "cz": lambda q, J, b, h: gates.cz_gate(q),
    "fourier": lambda q, J, b, h: gates.fourier_gate(q),
    "kicked-ising": _kicked_ising,
}


def load_gate(name_or_path: str, q: int, J: float, b: float, h: float) -> gates.Gate:
    """Resolve a named gate or a gate file path."""
    build = NAMED_GATES.get(name_or_path.lower())
    if build is not None:
        return build(q, J, b, h)
    if os.path.exists(name_or_path):
        g = gates.read_gate_file(name_or_path)
        if g.q != q:
            raise ValueError(f"{name_or_path}: gate has q = {g.q}, expected {q}")
        return g
    raise ValueError(
        f"unknown gate {name_or_path!r} (named gates: {', '.join(NAMED_GATES)})")


def _csv_text(header, rows) -> str:
    """CSV text of a header row and then the data rows."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _write_atomic(files: dict) -> None:
    """Write each {path: text} entry at the path's resolved target
    (``os.path.realpath``, so a symlink stays a link to its file).  A
    regular or new target gets a temp file in its directory, renamed into
    place last; files get the 0o666 & ~umask mode that a plain open would
    give them.  An existing target that is not a regular file (a FIFO, a
    device) cannot be renamed over, so it is opened and written in place,
    after every temp file is written and before any rename.  A failure
    leaves every regular target untouched."""
    umask = os.umask(0)
    os.umask(umask)
    targets = {path: os.path.realpath(path) for path in files}
    tmps = {}
    try:
        for path, target in targets.items():
            if os.path.exists(target) and not os.path.isfile(target):
                continue
            fd, tmps[path] = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".dulab-")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                os.fchmod(fh.fileno(), 0o666 & ~umask)
                fh.write(files[path])
        for path, target in targets.items():
            if path not in tmps:
                with open(target, "w", encoding="utf-8") as fh:
                    fh.write(files[path])
        for path, tmp in tmps.items():
            os.replace(tmp, targets[path])
    except OSError as exc:
        # name the path that was asked for, not its temp file or target
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        for tmp in tmps.values():
            if os.path.exists(tmp):
                os.unlink(tmp)


# ---------------------------------------------------------------------------
# subcommands: each maps args to (doc, payload, extra); ``doc["pass"]`` is
# the verdict that ``--assert`` holds, ``payload`` is the CSV text when that
# is the primary output, else None (the doc is), and ``extra`` maps the path
# of each secondary output file to its text
# ---------------------------------------------------------------------------

def _cmd_zigzag(args):
    q, L, T = args.q, args.L, args.steps
    if not ckt.relay_times(0, T, L):
        raise ValueError(f"no even t >= 2 lies inside the light cone at --steps {T} "
                         f"--L {L}: need --steps >= 2 and --L >= 6")
    gate = None
    bond_gates = None
    if args.gate == "mix":
        if q != 2:
            raise ValueError("--gate mix is defined for q = 2")
        kim = gates.kicked_ising_gate(args.J, args.b, args.h)
        swap = gates.swap_gate(2)
        bond_gates = {bnd: (swap if (bnd // 2) % 2 == 0 else kim) for bnd in range(L - 1)}
        gate = swap
    else:
        gate = load_gate(args.gate, q, args.J, args.b, args.h)
    if args.initial == "dimer":
        initial = ckt.dimer_sites(L, q)
        parity = "odd"  # gates must act at the valleys of the dimer profile
    else:
        initial = ckt.product_sites(L, q)
        parity = "even"
    if args.first_parity != "auto":
        parity = args.first_parity
    circ = ckt.BrickworkCircuit(L=L, q=q, gate=gate, first_parity=parity, bond_gates=bond_gates)
    rec = ckt.evolve(circ, initial, T)

    lnq = math.log(q)
    central = rec.central_series()
    # growth form: S(t) - S(0) = t ln q at even t; identical to S(t) = t ln q
    # when the central cut starts at zero (a valley), and phase-correct when
    # the chain length puts a dimer peak on the central cut
    worst = rec.relay_deviation(0)
    step = rec.max_step_increase()
    bound_ok = step <= 2 * lnq + 1e-9
    doc = {
        "params": {"q": q, "L": L, "steps": T, "gate": args.gate, "J": args.J,
                   "b": args.b, "h": args.h, "initial": args.initial,
                   "first_parity": parity},
        "central_cut": rec.central_cut(),
        "central_entropy_nats": [float(x) for x in central],
        "max_step_increase": step,
        "per_gate_bound_ok": bound_ok,
        "target": "S(t) - S(0) = t*ln(q) at even t within the light cone",
        "tolerance": ckt.RELAY_TOL,
        "max_even_t_deviation": worst,
        "pass": bool(worst <= ckt.RELAY_TOL and bound_ok),
    }
    if args.bits:
        doc["central_entropy_bits_display"] = [float(x / math.log(2)) for x in central]
    if args.format == "csv":
        rows = ([t, b, repr(float(x)), str(valid).lower()]
                for t, (profile, valid) in enumerate(zip(rec.profiles, rec.light_cone_valid))
                for b, x in enumerate(profile))
        return doc, _csv_text(["t", "bond", "entropy_nats", "light_cone_valid"], rows), {}
    doc["record"] = [
        {"t": int(t), "profile_nats": [float(x) for x in rec.profiles[i]],
         "light_cone_valid": bool(rec.light_cone_valid[i])}
        for i, t in enumerate(rec.times)
    ]
    return doc, None, {}


def _cmd_kicked_ising(args):
    L, T = args.L, args.steps
    zig_time = 1 if args.klass == "T" else 2
    if not ckt.relay_times(zig_time, T, L):
        first = zig_time + 2
        raise ValueError(f"no relay time t >= {first} of the class {args.klass} zigzag lies "
                         f"inside the light cone at --steps {T} --L {L}: need --steps >= "
                         f"{first} and --L >= {2 * first + 2}")
    u = gates.kicked_ising_gate(args.J, args.b, args.h)
    u0 = gates.kicked_ising_first_gate(args.J, args.h)
    circ = ckt.BrickworkCircuit(L=L, q=2, gate=u, first_layer_override=u0)
    if args.klass == "T":
        initial = ckt.xy_product_sites(L, [0.3 * k for k in range(L)])
    else:
        initial = ckt.z_product_sites(L, [k % 2 for k in range(L)])
    rec = ckt.evolve(circ, initial, T)
    ln2 = math.log(2)
    ok_zig, parity = ckt.zigzag_check(rec.profiles[zig_time], 2)
    central = rec.central_series()
    # the relay from the zigzag time on: S(t) - S(t0) = (t - t0) ln 2
    growth_ok = rec.relay_deviation(zig_time) <= ckt.RELAY_TOL
    ok = bool(ok_zig and growth_ok)
    doc = {
        "params": {"L": L, "steps": T, "class": args.klass, "J": args.J,
                   "b": args.b, "h": args.h},
        "zigzag_time": zig_time,
        "zigzag_ok": bool(ok_zig),
        "zigzag_valley_parity": parity,
        "central_entropy_nats": [float(x) for x in central],
        "growth_per_two_layers_ok": bool(growth_ok),
        "tolerance": ckt.RELAY_TOL,
        "pass": ok,
    }
    if args.bits:
        doc["central_entropy_bits_display"] = [float(x / ln2) for x in central]
    return doc, None, {}


def _cmd_mps(args):
    if args.load:
        pair = mps.load_mps(args.load)
    else:
        pair = mps.random_solvable(args.q, args.chi, args.seed)
    defect = mps.solvability_defect(pair)
    gap = mps.transfer_gap(pair)
    p_ab, p_ba = mps.interior_cut_probs(pair)
    e_ab, e_ba = entropy_from_probs(p_ab), entropy_from_probs(p_ba)
    pur2, pur3 = float((p_ab ** 2).sum()), float((p_ab ** 3).sum())
    chi_q = pair.chi * pair.q
    tol = 1e-8
    ok = (
        abs(e_ab - math.log(chi_q)) <= tol
        and abs(e_ba - math.log(pair.chi)) <= tol
        and abs(pur2 - 1.0 / chi_q) <= tol
        and abs(pur3 - 1.0 / chi_q ** 2) <= tol
    )
    doc = {
        "params": {"q": pair.q, "chi": pair.chi},
        "seed": args.seed,
        "solvability_defect": defect,
        "transfer_gap": gap,
        "E_AB": e_ab,
        "E_BA": e_ba,
        "E_AB_target": math.log(chi_q),
        "E_BA_target": math.log(pair.chi),
        "purity_n2": pur2,
        "purity_n3": pur3,
        "purity_n2_target": 1.0 / chi_q,
        "purity_n3_target": 1.0 / chi_q ** 2,
        "tolerance": tol,
        "pass": bool(ok),
    }
    if args.bits:
        doc["E_AB_bits_display"] = e_ab / math.log(2)
        doc["E_BA_bits_display"] = e_ba / math.log(2)
    saved = {args.save: mps.pair_json(pair)} if args.save else {}
    return doc, None, saved


#: subcommand -> (sampler name in ``ensemble``, looked up at call time so a
#: rebound attribute is the one called, default q, help); both target 8/(3 pi)
FIDELITY_EXPERIMENTS = {
    "haar-fidelity": ("haar_choi_fidelity", 16,
                      "mean operator-state fidelity to maximal mixing"),
    "state-fidelity": ("haar_state_fidelity", 32,
                       "mean single-qudit marginal fidelity for Haar states"),
}


def _cmd_fidelity(args):
    sampler = getattr(ensemble, FIDELITY_EXPERIMENTS[args.command][0])
    stats = sampler(args.q, args.samples, args.seed)
    ok = abs(stats.mean - EIGHT_THIRDS_PI) <= args.tolerance
    doc = {
        "params": {"q": args.q, "samples": args.samples},
        "seed": stats.master_seed,
        "n_samples": stats.n_samples,
        "mean": stats.mean,
        "standard_error": stats.standard_error,
        "target": EIGHT_THIRDS_PI,
        "tolerance": args.tolerance,
        "pass": bool(ok),
    }
    rows = ([i, repr(float(v))] for i, v in enumerate(stats.values))
    raw = {args.raw: _csv_text(["index", "value"], rows)} if args.raw else {}
    return doc, None, raw


def _cmd_catalan(args):
    if len(set(args.n)) < len(args.n):
        raise ValueError(f"--n lists an order more than once: {' '.join(map(str, args.n))}")
    results = []
    overall = True
    rel_tol = {2: 0.02, 3: 0.05, 4: 0.10}
    all_stats = ensemble.haar_purity_moments(args.q, args.n, args.samples, args.seed)
    for n in args.n:
        stats = all_stats[n]
        target = ensemble.purity_moment_target(args.q, n)
        cn = ensemble.catalan_number(n)
        scaled = stats.mean * args.q ** (2 * (n - 1))
        ok = abs(scaled - cn) <= rel_tol[n] * cn
        overall &= ok
        results.append({
            "n": n,
            "mean": stats.mean,
            "standard_error": stats.standard_error,
            "target": target,
            "catalan": cn,
            "scaled_mean": scaled,
            "tolerance_rel": rel_tol[n],
            "pass": bool(ok),
        })
    doc = {
        "params": {"q": args.q, "samples": args.samples, "n": list(args.n)},
        "seed": args.seed,
        "moments": results,
        "pass": bool(overall),
    }
    return doc, None, {}


def _cmd_audit_gate(args):
    g = load_gate(args.gate, args.q, args.J, args.b, args.h)
    rep = gates.defects(g)
    state = kron_states(bell_state(args.q), bell_state(args.q))
    audit = ckt.four_party_report(g, state)
    report = audit.to_json_dict()
    if args.reconstruct:
        _, report["recon_distance"] = ckt.reconstruct_distillable(state)
    ok = audit.all_hold() and rep.relation_ok
    doc = {
        "params": {"gate": args.gate, "q": args.q, "J": args.J, "b": args.b, "h": args.h},
        "gram_defect": rep.gram_defect,
        "choi_defect": rep.choi_defect,
        "choi_defect_unnormalized": rep.choi_defect * args.q ** 2,
        "relation_ok": rep.relation_ok,
        "is_dual": rep.is_dual(),
        "report": report,
        "pass": bool(ok),
    }
    return doc, None, {}


def _cmd_project_dual(args):
    if args.gate == "haar":
        if args.seed is None:
            raise ValueError("--gate haar requires --seed")
        g = gates.haar_gate(args.q, args.seed)
    else:
        g = load_gate(args.gate, args.q, args.J, args.b, args.h)
    res = gates.project_dual_iterative(g, max_iters=args.max_iters, tol=args.tol)
    final_defect = res.defect_trace[-1]
    doc = {
        "params": {"gate": args.gate, "q": args.q, "max_iters": args.max_iters,
                   "tol": args.tol, "J": args.J, "b": args.b, "h": args.h},
        "seed": args.seed,
        "converged": res.converged,
        "iterations": res.iterations,
        "final_choi_defect": final_defect,
        "defect_trace": list(res.defect_trace),
        "distance_to_input": trace_norm(g.matrix - res.gate.matrix),
    }
    # an unconverged run still passes: ``converged`` reports it
    ok = True
    if args.q == 2:
        ux, dist = gates.nearest_dual_q2(g)
        doc["snap_distance"] = dist
        doc["snap_defect"] = gates.choi_defect(ux)
        ok = doc["snap_defect"] <= gates.DUAL_TOL
    doc["pass"] = bool(ok)
    return doc, None, {}


def _cmd_scan_eps_delta(args):
    if args.theta_min >= args.theta_max:
        raise ValueError(f"--theta-min {args.theta_min!r} must be below "
                         f"--theta-max {args.theta_max!r}")
    base = load_gate(args.base, args.q, args.J, args.b, args.h)
    thetas = [0.0] + list(np.logspace(math.log10(args.theta_min),
                                      math.log10(args.theta_max), args.points))
    try:
        points = ensemble.eps_delta_scan(base, thetas, seed=args.seed)
    except ensemble.NotDualError as exc:  # the scan's own check, which names no flag
        raise ValueError(f"--base {args.base} is not dual unitary: its choi_defect "
                         f"{exc.defect!r} exceeds {gates.DUAL_TOL:g}") from None
    if sum(p.epsilon > 0 and p.delta > 0 for p in points) < 3:
        raise ValueError(f"fewer than 3 points between --theta-min {args.theta_min!r} and "
                         f"--theta-max {args.theta_max!r} clear the {ensemble.NOISE_FLOOR:g} "
                         "noise floor; raise the range")
    slope, intercept = ensemble.loglog_slope(points)
    # q^2 * delta: the normalization of the snap certificate at q = 2
    d_uns = [p.delta * args.q ** 2 for p in points]
    cert_ok = all(p.dist_to_projection <= 14 * math.sqrt(d_un)
                  for p, d_un in zip(points, d_uns)
                  if p.dist_to_projection is not None and 0 < d_un <= 0.1)
    # Pinsker: delta <= sqrt(2 epsilon), with the noise floor that zeroes epsilon
    pinsker_ok = all(p.delta <= math.sqrt(2 * (p.epsilon + ensemble.NOISE_FLOOR))
                     for p in points)
    zero_ok = points[0].epsilon == 0.0 and points[0].delta == 0.0
    if points[0].dist_to_projection is not None:
        zero_ok &= points[0].dist_to_projection == 0.0
    nonzero = [p for p in points if p.theta > 0]
    shrink_ok = nonzero[0].delta <= nonzero[-1].delta
    ok = zero_ok and 0.4 <= slope <= 1.1 and cert_ok and shrink_ok and pinsker_ok
    doc = {
        "params": {"base": args.base, "q": args.q, "theta_min": args.theta_min,
                   "theta_max": args.theta_max, "points": args.points, "J": args.J,
                   "b": args.b, "h": args.h},
        "seed": args.seed,
        "loglog_slope": slope,
        "slope_band": [0.4, 1.1],
        "sqrt_law_constant": ensemble.sqrt_law_constant(points),
        "zero_point_exact": bool(zero_ok),
        "certificate_ok": bool(cert_ok),
        "pinsker_ok": bool(pinsker_ok),
        "pass": bool(ok),
    }
    if args.format == "json":
        doc["points"] = [
            {"theta": p.theta, "epsilon": p.epsilon, "delta": p.delta,
             "dist_to_projection": p.dist_to_projection}
            for p in points
        ]
        return doc, None, {}
    rows = ([repr(p.theta), repr(p.epsilon), repr(p.delta), repr(d_un),
             "" if p.dist_to_projection is None else repr(p.dist_to_projection),
             repr(14 * math.sqrt(d_un))]
            for p, d_un in zip(points, d_uns))
    return doc, _csv_text(["theta", "epsilon", "delta", "delta_unnormalized",
                           "dist_to_projection", "certificate_bound"], rows), {}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _finite(text: str) -> float:
    """argparse type: a finite float, so no NaN or infinity reaches a run."""
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return x


def _positive(text: str) -> float:
    """argparse type: a finite float > 0."""
    x = _finite(text)
    if x <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    return x


def _at_least(lo: int):
    """argparse type: an integer >= lo."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if n < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {text!r}")
        return n
    return parse


def _even_at_least(lo: int):
    """argparse type: an even integer >= lo."""
    at_least = _at_least(lo)

    def parse(text: str) -> int:
        n = at_least(text)
        if n % 2:
            raise argparse.ArgumentTypeError(f"must be even, got {text!r}")
        return n
    return parse


def _add_common(p, seed_required=False, fmt=None):
    p.add_argument("--out", help="output file (atomic write); stdout if omitted")
    p.add_argument("--assert", dest="do_assert", action="store_true",
                   help="exit 1 when the document's pass is false")
    if fmt:
        p.add_argument("--format", choices=("json", "csv"), default=fmt)
    if seed_required:
        p.add_argument("--seed", type=_at_least(0), required=True,
                       help="master seed (mandatory for stochastic experiments)")


def _add_gate_params(p):
    p.add_argument("--J", type=_finite, default=math.pi / 4)
    p.add_argument("--b", type=_finite, default=math.pi / 4)
    p.add_argument("--h", type=_finite, default=0.0)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``dulab`` parser, built once per process: every default it holds
    is immutable, so parses never share state."""
    ap = argparse.ArgumentParser(
        prog="dulab",
        description="Entanglement-growth and dual-unitarity experiments on brickwork circuits.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("zigzag", help="dual-unitary relay of the alternating bond profile")
    p.add_argument("--q", type=_at_least(2), default=2)
    p.add_argument("--L", type=_even_at_least(4), default=16)
    p.add_argument("--steps", type=int, default=6)
    p.add_argument("--gate", default="swap",
                   help="swap | fourier | kicked-ising | mix | identity | cz | file path")
    p.add_argument("--initial", choices=("dimer", "product"), default="dimer")
    p.add_argument("--first-parity", choices=("auto", "even", "odd"), default="auto")
    p.add_argument("--bits", action="store_true", help="display-only bits rendering")
    _add_gate_params(p)
    _add_common(p, fmt="csv")
    p.set_defaults(func=_cmd_zigzag)

    p = sub.add_parser("kicked-ising", help="separating product states through the kicked-Ising circuit")
    p.add_argument("--L", type=_even_at_least(4), default=14)
    p.add_argument("--steps", type=int, default=6)
    p.add_argument("--class", dest="klass", choices=("T", "L"), required=True)
    p.add_argument("--bits", action="store_true")
    _add_gate_params(p)
    _add_common(p)
    p.set_defaults(func=_cmd_kicked_ising)

    p = sub.add_parser("mps", help="solvable matrix product state checks")
    p.add_argument("--q", type=_at_least(2), default=2)
    p.add_argument("--chi", type=_at_least(1), default=2)
    p.add_argument("--load", help="load an MPS pair from a JSON file instead of sampling")
    p.add_argument("--save", help="save the pair to a JSON file (written with --out)")
    p.add_argument("--bits", action="store_true")
    _add_common(p, seed_required=True)
    p.set_defaults(func=_cmd_mps)

    for name, (_, q, help_text) in FIDELITY_EXPERIMENTS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--q", type=_at_least(2), default=q)
        p.add_argument("--samples", type=_at_least(2), default=2000)
        p.add_argument("--tolerance", type=_positive, default=0.01)
        p.add_argument("--raw", help="stream per-sample values to this CSV")
        _add_common(p, seed_required=True)
        p.set_defaults(func=_cmd_fidelity)

    p = sub.add_parser("catalan", help="Haar purity moments against Catalan targets")
    p.add_argument("--q", type=_at_least(2), default=16)
    p.add_argument("--samples", type=_at_least(2), default=2000)
    p.add_argument("--n", type=int, nargs="+", default=(2, 3), choices=(2, 3, 4))
    _add_common(p, seed_required=True)
    p.set_defaults(func=_cmd_catalan)

    p = sub.add_parser("audit-gate", help="defects and the four-party audit on Bell x Bell")
    p.add_argument("--gate", required=True)
    p.add_argument("--q", type=_at_least(2), default=2)
    p.add_argument("--reconstruct", action="store_true",
                   help="include the distillable-structure reconstruction distance")
    _add_gate_params(p)
    _add_common(p)
    p.set_defaults(func=_cmd_audit_gate)

    p = sub.add_parser("project-dual", help="iterative projection onto the dual-unitary set")
    p.add_argument("--gate", default="haar", help="haar | named gate | file path")
    p.add_argument("--q", type=_at_least(2), default=2)
    p.add_argument("--max-iters", type=_at_least(0), default=200)
    p.add_argument("--tol", type=_positive, default=1e-10)
    p.add_argument("--seed", type=_at_least(0), help="seed (required with --gate haar)")
    _add_gate_params(p)
    _add_common(p)
    p.set_defaults(func=_cmd_project_dual)

    p = sub.add_parser("scan-eps-delta", help="entanglement deficit vs dual defect along a perturbation")
    p.add_argument("--base", default="swap", help="dual base gate (swap | fourier | kicked-ising | file)")
    p.add_argument("--q", type=_at_least(2), default=2)
    p.add_argument("--theta-min", type=_positive, default=1e-3)
    p.add_argument("--theta-max", type=_positive, default=1e-1)
    p.add_argument("--points", type=_at_least(3), default=9)
    _add_gate_params(p)
    _add_common(p, seed_required=True, fmt="csv")
    p.set_defaults(func=_cmd_scan_eps_delta)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag in ("save", "raw"):
        path = getattr(args, flag, None)
        if path and args.out and os.path.realpath(path) == os.path.realpath(args.out):
            parser.error(f"--{flag} and --out name the same file: {path}")
    try:
        with _one_blas_thread():
            doc, payload, files = args.func(args)
        text = json.dumps({"schema_version": SCHEMA_VERSION, "experiment": args.command,
                           **doc}, indent=2, allow_nan=False) + "\n"
        if args.out:
            files[args.out] = text if payload is None else payload
        _write_atomic(files)
    except (ValueError, OSError, ckt.CapacityError, mps.DegenerateTransferError) as exc:
        parser.error(str(exc))
    sys.stdout.write(text if args.out or payload is None else payload)
    return 1 if args.do_assert and not doc["pass"] else 0


if __name__ == "__main__":
    sys.exit(main())
