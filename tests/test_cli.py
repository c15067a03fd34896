import json
import math
import os
import shutil
import stat
import subprocess
import sys
import threading

import pytest

from conftest import blas_threads, checkout_env, write_gate_file
from dulab.circuit import BrickworkCircuit, dimer_sites, evolve
from dulab.cli import main
from dulab.gates import haar_gate, swap_gate


def run(argv):
    return main(argv)


def strict_json(text):
    """Parse JSON, rejecting the NaN/Infinity extensions."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


class TestUsageErrors:
    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            run(["zigzag", "--frobnicate"])
        assert e.value.code == 2

    def test_unknown_gate_exits_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            run(["audit-gate", "--gate", "nonsense", "--q", "2"])
        assert e.value.code == 2
        assert ("unknown gate 'nonsense' (named gates: identity, swap, cz, fourier, "
                "kicked-ising)") in capsys.readouterr().err

    def test_kicked_ising_needs_qubits(self, capsys):
        with pytest.raises(SystemExit) as e:
            run(["audit-gate", "--gate", "Kicked-Ising", "--q", "3"])
        assert e.value.code == 2
        assert "kicked-ising is a qubit (q = 2) gate" in capsys.readouterr().err

    def test_missing_seed_exits_2(self):
        with pytest.raises(SystemExit) as e:
            run(["haar-fidelity", "--q", "2", "--samples", "5"])
        assert e.value.code == 2

    def test_no_partial_output_on_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        with pytest.raises(SystemExit):
            run(["audit-gate", "--gate", "nonsense", "--q", "2", "--out", str(out)])
        assert not out.exists()

    def test_no_raw_output_when_out_fails(self, tmp_path, monkeypatch, capsys):
        # every temp file is written before any is renamed into place
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as e:
            run(["haar-fidelity", "--q", "2", "--samples", "2", "--seed", "1",
                 "--raw", "r.csv", "--out", "missing-dir/x.json"])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert "missing-dir/x.json" in err and ".dulab-" not in err
        assert not (tmp_path / "r.csv").exists()
        assert not (tmp_path / "missing-dir" / "x.json").exists()
        assert list(tmp_path.iterdir()) == []

    def test_no_save_output_when_out_fails(self, tmp_path, monkeypatch, capsys):
        # --save is written together with --out
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as e:
            run(["mps", "--q", "2", "--chi", "2", "--seed", "5",
                 "--save", "p.json", "--out", "missing-dir/x.json"])
        assert e.value.code == 2
        assert "missing-dir/x.json" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, flag", [
        (["mps", "--q", "2", "--chi", "2", "--seed", "5", "--save"], "--save"),
        (["haar-fidelity", "--q", "2", "--samples", "4", "--seed", "1", "--raw"], "--raw"),
    ])
    def test_secondary_output_named_like_out_exits_2(self, argv, flag, tmp_path,
                                                     monkeypatch, capsys):
        # the same file reached through two spellings of its path
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as e:
            run(argv + ["x.json", "--out", str(tmp_path / "x.json")])
        assert e.value.code == 2
        assert f"{flag} and --out name the same file: x.json" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_malformed_gate_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("2\n1,0 0,0\n")
        with pytest.raises(SystemExit) as e:
            run(["audit-gate", "--gate", str(bad), "--q", "2"])
        assert e.value.code == 2

    @pytest.mark.parametrize("argv, message", [
        (["haar-fidelity", "--q", "4", "--samples", "0"], "argument --samples: must be >= 2, got '0'"),
        (["state-fidelity", "--q", "4", "--samples", "1"], "argument --samples: must be >= 2, got '1'"),
        (["catalan", "--q", "1", "--samples", "10"], "argument --q: must be >= 2, got '1'"),
    ])
    def test_ensemble_size_below_two_exits_2(self, argv, message, tmp_path, capsys):
        out = tmp_path / "out.json"
        with pytest.raises(SystemExit) as e:
            run(argv + ["--seed", "1", "--out", str(out)])
        assert e.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["haar-fidelity", "--q", "2", "--samples", "2", "--seed", "1", "--tolerance", "nan"],
         "argument --tolerance: must be finite, got 'nan'"),
        (["project-dual", "--seed", "1", "--tol", "nan"],
         "argument --tol: must be finite, got 'nan'"),
        (["scan-eps-delta", "--seed", "1", "--theta-min", "0"],
         "argument --theta-min: must be > 0, got '0'"),
        (["scan-eps-delta", "--seed", "1", "--theta-max", "inf"],
         "argument --theta-max: must be finite, got 'inf'"),
        (["scan-eps-delta", "--seed", "1", "--J", "nan"],
         "argument --J: must be finite, got 'nan'"),
        (["zigzag", "--gate", "kicked-ising", "--b=-inf"],
         "argument --b: must be finite, got '-inf'"),
        (["kicked-ising", "--class", "T", "--h", "x"],
         "argument --h: expected a number, got 'x'"),
        (["project-dual", "--gate", "swap", "--max-iters", "-5"],
         "argument --max-iters: must be >= 0, got '-5'"),
        (["project-dual", "--gate", "swap", "--tol", "-1"],
         "argument --tol: must be > 0, got '-1'"),
        (["scan-eps-delta", "--seed", "1", "--theta-min", "0.01", "--theta-max", "0.01"],
         "--theta-min 0.01 must be below --theta-max 0.01"),
        (["scan-eps-delta", "--seed", "1", "--points", "1"],
         "argument --points: must be >= 3, got '1'"),
        (["mps", "--seed", "5", "--cells", "3"], "unrecognized arguments: --cells"),
        (["zigzag", "--q", "1"], "argument --q: must be >= 2, got '1'"),
        (["audit-gate", "--gate", "swap", "--q", "1"], "argument --q: must be >= 2, got '1'"),
        (["project-dual", "--gate", "swap", "--q", "1"], "argument --q: must be >= 2, got '1'"),
        (["scan-eps-delta", "--seed", "1", "--q", "1"], "argument --q: must be >= 2, got '1'"),
        (["mps", "--seed", "1", "--q", "1"], "argument --q: must be >= 2, got '1'"),
        (["mps", "--seed", "1", "--chi", "0"], "argument --chi: must be >= 1, got '0'"),
        (["kicked-ising", "--class", "T", "--L", "7"], "argument --L: must be even, got '7'"),
        (["zigzag", "--L", "7", "--initial", "product"], "argument --L: must be even, got '7'"),
        (["zigzag", "--L", "7"], "argument --L: must be even, got '7'"),
        (["scan-eps-delta", "--seed", "1", "--theta-min", "1e-9", "--theta-max", "1e-8",
          "--points", "3"],
         "fewer than 3 points between --theta-min 1e-09 and --theta-max 1e-08 clear "
         "the 1e-12 noise floor"),
        (["catalan", "--seed", "1", "--q", "4", "--samples", "10", "--n", "2", "2"],
         "--n lists an order more than once: 2 2"),
        (["mps", "--seed", "-1"], "argument --seed: must be >= 0, got '-1'"),
        (["scan-eps-delta", "--seed", "-2"], "argument --seed: must be >= 0, got '-2'"),
        (["project-dual", "--gate", "haar", "--seed", "-3"],
         "argument --seed: must be >= 0, got '-3'"),
        (["haar-fidelity", "--q", "2", "--samples", "2", "--seed", "-1"],
         "argument --seed: must be >= 0, got '-1'"),
        (["state-fidelity", "--q", "2", "--samples", "2", "--seed", "-1"],
         "argument --seed: must be >= 0, got '-1'"),
        (["catalan", "--q", "2", "--samples", "2", "--seed", "-1"],
         "argument --seed: must be >= 0, got '-1'"),
        (["state-fidelity", "--q", "2", "--samples", "50", "--seed", "1", "--tolerance", "0"],
         "argument --tolerance: must be > 0, got '0'"),
        (["haar-fidelity", "--q", "2", "--samples", "2", "--seed", "1", "--tolerance", "-1"],
         "argument --tolerance: must be > 0, got '-1'"),
        (["scan-eps-delta", "--seed", "1", "--base", "identity"],
         "--base identity is not dual unitary: its choi_defect 1.5 exceeds 1e-10"),
        (["scan-eps-delta", "--seed", "1", "--base", "cz"],
         "--base cz is not dual unitary: its choi_defect 1.0 exceeds 1e-10"),
    ])
    def test_bad_float_flag_exits_2(self, argv, message, tmp_path, capsys):
        out = tmp_path / "out.json"
        with pytest.raises(SystemExit) as e:
            run(argv + ["--out", str(out)])
        assert e.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_result_exits_2(self, monkeypatch, tmp_path, capsys):
        # a NaN that gets past the flags still never leaves with exit 0
        from dulab import ensemble

        def sampler(q, n, seed):
            return ensemble.EnsembleStats(n, math.nan, math.nan, seed, (math.nan,) * n)

        monkeypatch.setattr(ensemble, "haar_choi_fidelity", sampler)
        out = tmp_path / "out.json"
        with pytest.raises(SystemExit) as e:
            run(["haar-fidelity", "--seed", "1", "--out", str(out)])
        assert e.value.code == 2
        assert "not JSON compliant" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("entry", ["nan,0.0", "0.0,-inf"])
    def test_non_finite_gate_entry_exits_2(self, entry, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_gate_file(haar_gate(2, 3), path)
        lines = path.read_text().splitlines()
        lines[2] = " ".join([entry] + lines[2].split()[1:])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SystemExit) as e:
            run(["audit-gate", "--gate", str(path), "--q", "2"])
        assert e.value.code == 2
        assert f":3: non-finite entry {entry!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["NaN", "1e999"])
    def test_non_finite_mps_entry_exits_2(self, value, tmp_path, capsys):
        pair = tmp_path / "p.json"
        run(["mps", "--q", "2", "--chi", "2", "--seed", "5", "--save", str(pair)])
        capsys.readouterr()
        doc = json.loads(pair.read_text())
        doc["A"][0][1][2] = ["VALUE", 0.0]
        pair.write_text(json.dumps(doc).replace('"VALUE"', value))
        out = tmp_path / "out.json"
        with pytest.raises(SystemExit) as e:
            run(["mps", "--seed", "0", "--load", str(pair), "--out", str(out)])
        assert e.value.code == 2
        assert "p.json: non-finite entry in A at [0, 1, 2]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("q", "null"), ("q", "[2]"), ("q", '{"a": 1}'), ("q", "2.5"), ("q", '"2"'),
        ("q", "true"), ("chi", "2.0"), ("chi", '"2"'), ("chi", "null"),
    ])
    def test_non_integer_mps_dimension_exits_2(self, field, value, tmp_path, capsys):
        pair = tmp_path / "p.json"
        run(["mps", "--q", "2", "--chi", "2", "--seed", "5", "--save", str(pair)])
        capsys.readouterr()
        doc = json.loads(pair.read_text())
        doc[field] = "VALUE"
        pair.write_text(json.dumps(doc).replace('"VALUE"', value))
        out = tmp_path / "out.json"
        with pytest.raises(SystemExit) as e:
            run(["mps", "--seed", "0", "--load", str(pair), "--out", str(out)])
        assert e.value.code == 2
        assert f"p.json: field {field!r} must be an integer, got " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-4", "many"])
    def test_amplitude_budget_below_one_exits_2(self, value, monkeypatch, capsys):
        monkeypatch.setenv("DULAB_MAX_AMPLITUDES", value)
        with pytest.raises(SystemExit) as e:
            run(["zigzag", "--q", "2", "--L", "8", "--steps", "2"])
        assert e.value.code == 2
        assert "DULAB_MAX_AMPLITUDES must be a positive integer" in capsys.readouterr().err

    #: the gate commands at q = 4, whose two-qudit gate holds 4^4 = 256 amplitudes
    GATE_COMMANDS = [
        ["audit-gate", "--gate", "swap", "--q", "4"],
        ["project-dual", "--gate", "haar", "--q", "4", "--seed", "1"],
        ["scan-eps-delta", "--base", "swap", "--q", "4", "--seed", "1"],
    ]

    @pytest.mark.parametrize("argv", [
        ["zigzag", "--q", "2", "--L", "12", "--steps", "4", "--gate", "swap"],
        ["mps", "--seed", "5"],
        *GATE_COMMANDS,
    ])
    def test_amplitude_budget_exceeded_exits_2(self, argv, monkeypatch, tmp_path, capsys):
        # the budget counts site-tensor entries: the zigzag site tensors
        # outgrow 100 within the first layers, and the mps chain of one
        # q = chi = 2 cell between its environment legs holds 40; a gate
        # command refuses its gate before building it
        budget = {"zigzag": "100", "mps": "39"}.get(argv[0], "255")
        monkeypatch.setenv("DULAB_MAX_AMPLITUDES", budget)
        out = tmp_path / "out.json"
        with pytest.raises(SystemExit) as e:
            run(argv + ["--out", str(out)])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert f"exceeds the budget {budget} (override via DULAB_MAX_AMPLITUDES)" in err
        if budget == "255":
            assert "--q 4: a two-qudit gate of 256 amplitudes exceeds the budget 255" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", GATE_COMMANDS)
    def test_gate_at_the_budget_runs(self, argv, monkeypatch, capsys):
        monkeypatch.setenv("DULAB_MAX_AMPLITUDES", "256")
        assert run(argv) == 0

    @pytest.mark.parametrize("command", ["audit-gate --gate swap", "project-dual --seed 1",
                                         "scan-eps-delta --seed 1"])
    def test_oversize_gate_refused_before_it_is_built(self, command, monkeypatch, capsys):
        # 300^4 amplitudes, 130 GB of complex entries, against the default
        # budget; a run that reached a gate builder would fail here, not allocate
        monkeypatch.delenv("DULAB_MAX_AMPLITUDES", raising=False)

        def build(*args):
            raise AssertionError("the gate was built")
        monkeypatch.setattr("dulab.cli.load_gate", build)
        monkeypatch.setattr("dulab.gates.haar_gate", build)
        with pytest.raises(SystemExit) as e:
            run(command.split() + ["--q", "300"])
        assert e.value.code == 2
        assert ("--q 300: a two-qudit gate of 8100000000 amplitudes exceeds the budget "
                "67108864" in capsys.readouterr().err)

    def test_two_site_block_is_checked_before_it_is_formed(self, monkeypatch, tmp_path,
                                                           capsys):
        # at the default budget this run is refused at the second layer's
        # (1600, 40, 40, 1600) block, 65 GB of complex entries, after about a
        # minute of legal 1600 x 1600 SVDs; one entry below 40^4 refuses the
        # t = 0 sweep's first block across a dimer boundary the same way,
        # while the site tensors hold 25,600 entries
        monkeypatch.setenv("DULAB_MAX_AMPLITUDES", str(40 ** 4 - 1))
        out = tmp_path / "out.json"
        with pytest.raises(SystemExit) as e:
            run(["zigzag", "--q", "40", "--L", "16", "--steps", "2", "--out", str(out)])
        assert e.value.code == 2
        assert ("bond 13's two-site block (40, 40, 40, 40) of 2560000 amplitudes exceeds "
                "the budget 2559999 (override via DULAB_MAX_AMPLITUDES)"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["kicked-ising", "--class", "L", "--L", "8", "--steps", "1"],
         "at --steps 1 --L 8: need --steps >= 4 and --L >= 10"),
        (["kicked-ising", "--class", "T", "--L", "8", "--steps", "0"],
         "at --steps 0 --L 8: need --steps >= 3 and --L >= 8"),
        (["zigzag", "--q", "2", "--L", "8", "--steps", "1", "--gate", "swap", "--assert"],
         "need --steps >= 2 and --L >= 6"),
        (["zigzag", "--q", "2", "--L", "4", "--steps", "4", "--gate", "swap", "--assert"],
         "need --steps >= 2 and --L >= 6"),
        # the zigzag forms, but the relay after it is never read: on a
        # non-dual kick these passed --assert with relay_deviation 0.0
        (["kicked-ising", "--class", "T", "--b", "0.5", "--h", "0.3", "--L", "14",
          "--steps", "2", "--assert"],
         "no relay time t >= 3 of the class T zigzag lies inside the light cone at "
         "--steps 2 --L 14: need --steps >= 3 and --L >= 8"),
        (["kicked-ising", "--class", "T", "--b", "0.5", "--h", "0.3", "--L", "6",
          "--steps", "6", "--assert"],
         "at --steps 6 --L 6: need --steps >= 3 and --L >= 8"),
        (["kicked-ising", "--class", "L", "--L", "14", "--steps", "3", "--assert"],
         "no relay time t >= 4 of the class L zigzag lies inside the light cone at "
         "--steps 3 --L 14: need --steps >= 4 and --L >= 10"),
        (["kicked-ising", "--class", "L", "--L", "8", "--steps", "6", "--assert"],
         "at --steps 6 --L 8: need --steps >= 4 and --L >= 10"),
    ])
    def test_run_without_a_checked_time_exits_2(self, argv, message, tmp_path, capsys):
        # a run whose pass criterion would read no time step is a usage error
        out = tmp_path / "out.json"
        with pytest.raises(SystemExit) as e:
            run(argv + ["--out", str(out)])
        assert e.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def outputs_at_blas_threads(argv, threads, tmp_path, setup=""):
    """stdout and the --out bytes of ``dulab argv`` run in a fresh interpreter
    whose OpenBLAS starts at ``threads`` threads; ``setup`` runs first."""
    code = ("import sys; from dulab import cli, ensemble; " + setup
            + "sys.exit(cli.main(sys.argv[1:]))")
    out = tmp_path / f"t{threads}.out"
    res = subprocess.run([sys.executable, "-c", code, *argv, "--out", str(out)],
                         env=checkout_env(OPENBLAS_NUM_THREADS=threads), check=True,
                         capture_output=True, timeout=120)
    return res.stdout, out.read_bytes()


class TestBlasThreads:
    """Every command computes at one BLAS thread, whatever the caller's count."""

    @pytest.mark.parametrize("argv", [
        ["zigzag", "--q", "3", "--L", "12", "--steps", "4", "--gate", "fourier"],
        ["kicked-ising", "--class", "L", "--L", "14", "--steps", "6", "--h", "0.3"],
        ["audit-gate", "--gate", "GATE", "--q", "3", "--reconstruct"],
        ["project-dual", "--gate", "haar", "--q", "3", "--seed", "4", "--max-iters", "300"],
        ["scan-eps-delta", "--base", "fourier", "--q", "3", "--seed", "8"],
        ["mps", "--q", "3", "--chi", "3", "--seed", "5"],
    ])
    def test_bytes_independent_of_blas_threads(self, argv, tmp_path):
        gate = tmp_path / "gate.txt"
        write_gate_file(haar_gate(3, 11), str(gate))
        argv = [str(gate) if a == "GATE" else a for a in argv]
        assert (outputs_at_blas_threads(argv, "1", tmp_path)
                == outputs_at_blas_threads(argv, "2", tmp_path))

    def test_main_restores_the_callers_thread_count(self, tmp_path, capsys):
        get, set_ = blas_threads()
        before = get()
        try:
            set_(2)
            assert run(["project-dual", "--gate", "swap", "--q", "2"]) == 0
            assert get() == 2
            with pytest.raises(SystemExit) as e:
                run(["audit-gate", "--gate", "nonsense", "--q", "2"])
            assert e.value.code == 2
            assert get() == 2
        finally:
            set_(before)


#: prints, after ``import dulab.cli`` and after each command, the scipy.linalg
#: submodules that have executed
STARTUP_PROBE = """
import json, os, sys
import dulab.cli

def loaded():
    return sorted(m for m in sys.modules if m.startswith("scipy.linalg."))

out = os.path.join(sys.argv[1], "out")
seen = {"import": loaded()}
for argv in json.loads(sys.argv[2]):
    code = dulab.cli.main([*argv, "--out", out])
    seen[argv[0]] = loaded() if code == 0 else f"exit {code}"
print(json.dumps(seen))
"""


class TestStartup:
    """No command runs scipy.linalg code: the scan's exponential is an ``eigh``."""

    def test_no_command_loads_scipy_linalg(self, tmp_path):
        commands = [
            ["audit-gate", "--gate", "swap", "--q", "2"],
            ["kicked-ising", "--class", "T", "--L", "8", "--steps", "3", "--h", "0.3"],
            ["zigzag", "--q", "2", "--L", "8", "--steps", "2", "--gate", "kicked-ising"],
            ["mps", "--q", "2", "--chi", "2", "--seed", "5"],
            ["haar-fidelity", "--q", "4", "--samples", "10", "--seed", "3"],
            ["scan-eps-delta", "--base", "swap", "--q", "2", "--seed", "8"],
        ]
        res = subprocess.run([sys.executable, "-c", STARTUP_PROBE, str(tmp_path),
                              json.dumps(commands)],
                             env=checkout_env(), check=True, capture_output=True, text=True,
                             timeout=120)
        seen = json.loads(res.stdout.splitlines()[-1])
        assert seen == {name: [] for name in ["import"] + [argv[0] for argv in commands]}

    def test_import_looks_up_no_blas_library(self):
        # set-up time: the one OpenBLAS lookup runs on first use only
        probe = ("import dulab.cli; from dulab import qinfo; "
                 "print(qinfo._openblas.cache_info().currsize)")
        res = subprocess.run([sys.executable, "-c", probe], env=checkout_env(), check=True,
                             capture_output=True, text=True, timeout=120)
        assert res.stdout == "0\n"


#: one small run per subcommand; haar-fidelity at q = 2 misses its target
RUNNER_CASES = {
    "zigzag": ["--q", "2", "--L", "8", "--steps", "2", "--gate", "swap"],
    "kicked-ising": ["--class", "T", "--L", "12", "--steps", "5", "--h", "0.3"],
    "mps": ["--q", "2", "--chi", "2", "--seed", "5"],
    "haar-fidelity": ["--q", "2", "--samples", "40", "--seed", "3"],
    "state-fidelity": ["--q", "16", "--samples", "200", "--seed", "5", "--tolerance", "0.02"],
    "catalan": ["--q", "8", "--samples", "200", "--seed", "11"],
    "audit-gate": ["--gate", "cz", "--q", "2"],
    "project-dual": ["--gate", "swap", "--q", "2"],
    "scan-eps-delta": ["--base", "swap", "--q", "2", "--seed", "8", "--points", "7"],
}


@pytest.mark.parametrize("command", list(RUNNER_CASES))
def test_runner_contract(command, tmp_path, capsys):
    argv = [command, *RUNNER_CASES[command], "--assert"]
    code = run(argv)
    primary = capsys.readouterr().out
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == code
    summary = capsys.readouterr().out
    # the file holds exactly what stdout gets without --out
    assert out.read_bytes() == primary.encode("utf-8")
    # with --out, stdout is the JSON document, whatever the file format
    doc = strict_json(summary)
    assert list(doc)[:2] == ["schema_version", "experiment"]
    assert doc["experiment"] == command
    assert code == (0 if doc["pass"] else 1)


#: runs each argv list with --out after ``setup`` and prints, as JSON, each
#: run's exit code, stdout and --out bytes, then the scipy modules loaded
RUNNER_PROBE = """
import contextlib, io, json, os, sys
{setup}
import dulab.cli

runs = []
for argv in json.loads(sys.argv[2]):
    out = os.path.join(sys.argv[1], argv[0])
    with contextlib.redirect_stdout(io.StringIO()) as text:
        code = dulab.cli.main([*argv, "--out", out])
    with open(out, "rb") as fh:
        runs.append([argv[0], code, text.getvalue(), fh.read().hex()])
scipy = sorted(m for m, mod in sys.modules.items() if m.startswith("scipy") and mod is not None)
print(json.dumps({{"runs": runs, "scipy": scipy}}))
"""


def test_every_command_runs_without_scipy(tmp_path):
    # scipy is no runtime dependency: with it unimportable, every command
    # gives the same stdout, --out bytes and exit code
    commands = [[command, *argv, "--assert"] for command, argv in RUNNER_CASES.items()]

    def probe(name, setup):
        (tmp_path / name).mkdir()
        res = subprocess.run([sys.executable, "-c", RUNNER_PROBE.format(setup=setup),
                              str(tmp_path / name), json.dumps(commands)],
                             env=checkout_env(), check=True, capture_output=True, text=True,
                             timeout=120)
        return json.loads(res.stdout)

    with_scipy = probe("with", "")
    without = probe("without", 'sys.modules["scipy"] = None')
    assert without["runs"] == with_scipy["runs"]
    assert [name for name, *_ in without["runs"]] == list(RUNNER_CASES)
    assert without["scipy"] == []
    # the benchmark tracer's registration still happens where scipy is installed
    assert "scipy.linalg" in with_scipy["scipy"]


@pytest.mark.parametrize("argv, shown", [
    (["zigzag", "--q", "2", "--L", "8", "--steps", "3", "--format", "json"],
     {"central_entropy_bits_display": "central_entropy_nats"}),
    (["kicked-ising", "--class", "T", "--L", "8", "--steps", "3", "--h", "0.3"],
     {"central_entropy_bits_display": "central_entropy_nats"}),
    (["mps", "--q", "2", "--chi", "2", "--seed", "5"],
     {"E_AB_bits_display": "E_AB", "E_BA_bits_display": "E_BA"}),
])
def test_bits_adds_only_display_fields(argv, shown, capsys):
    run(argv)
    plain = capsys.readouterr().out
    run(argv + ["--bits"])
    doc = strict_json(capsys.readouterr().out)
    for bits, nats in shown.items():
        value = doc.pop(bits)
        want = doc[nats]
        if isinstance(want, list):
            assert value == [x / math.log(2) for x in want]
        else:
            assert value == want / math.log(2)
    # every other field keeps its bytes
    assert json.dumps(doc, indent=2) + "\n" == plain


class TestAuditGate:
    def test_swap_json(self, tmp_path, capsys):
        out = tmp_path / "audit.json"
        code = run(["audit-gate", "--gate", "swap", "--q", "2", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["choi_defect"] <= 1e-12
        assert doc["report"]["epsilon"] == pytest.approx(0.0, abs=1e-10)
        assert doc["is_dual"] is True
        assert doc["schema_version"] == "1"

    def test_cz_not_dual_but_audit_holds(self, capsys):
        code = run(["audit-gate", "--gate", "cz", "--q", "2", "--assert"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["is_dual"] is False
        assert doc["pass"] is True

    def test_gate_file_roundtrip(self, tmp_path, capsys):
        g = haar_gate(2, 3)
        path = tmp_path / "g.txt"
        write_gate_file(g, path)
        code = run(["audit-gate", "--gate", str(path), "--q", "2"])
        assert code == 0

    def test_named_swap_q3_is_dual(self, capsys):
        code = run(["audit-gate", "--gate", "swap", "--q", "3", "--assert"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["is_dual"] is True and doc["choi_defect"] <= 1e-12


class TestZigzag:
    def test_swap_assert_passes(self, tmp_path, capsys):
        out = tmp_path / "rec.csv"
        code = run(["zigzag", "--q", "2", "--L", "12", "--steps", "4",
                    "--gate", "swap", "--out", str(out), "--assert"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,bond,entropy_nats,light_cone_valid"
        assert len(lines) == 1 + 5 * 11

    def test_kicked_ising_gate_assert(self, capsys):
        code = run(["zigzag", "--q", "2", "--L", "12", "--steps", "4",
                    "--gate", "kicked-ising",
                    "--J", repr(math.pi / 4), "--b", repr(math.pi / 4),
                    "--h", "0.3", "--assert"])
        assert code == 0

    def test_mix_assert(self, capsys):
        code = run(["zigzag", "--q", "2", "--L", "12", "--steps", "4",
                    "--gate", "mix", "--h", "0.3", "--assert"])
        assert code == 0

    def test_identity_fails_assert(self, capsys):
        code = run(["zigzag", "--q", "2", "--L", "8", "--steps", "2",
                    "--gate", "identity", "--assert"])
        assert code == 1

    def test_json_format(self, capsys):
        code = run(["zigzag", "--q", "2", "--L", "8", "--steps", "2",
                    "--gate", "swap", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert "record" in doc and doc["experiment"] == "zigzag"

    def test_first_parity_overrides_auto(self, capsys):
        # the dimer start picks odd by itself, so --first-parity odd is a no-op
        argv = ["zigzag", "--q", "2", "--L", "8", "--steps", "3", "--format", "json"]
        run(argv)
        auto = capsys.readouterr().out
        run(argv + ["--first-parity", "odd"])
        assert capsys.readouterr().out == auto
        run(argv + ["--first-parity", "even"])
        doc = strict_json(capsys.readouterr().out)
        assert doc["params"]["first_parity"] == "even"
        rec = evolve(BrickworkCircuit(L=8, q=2, gate=swap_gate(2), first_parity="even"),
                     dimer_sites(8, 2), 3)
        assert doc["central_entropy_nats"] == [float(x) for x in rec.central_series()]

    def test_qutrit_relay_including_peak_phase(self, capsys):
        # L = 10 puts the central cut on a dimer peak; the growth form of the
        # exactness check is phase-correct there too
        for L in ("10", "12"):
            code = run(["zigzag", "--q", "3", "--L", L, "--steps", "3",
                        "--gate", "fourier", "--assert"])
            assert code == 0
            capsys.readouterr()


class TestKickedIsingCommand:
    @pytest.mark.parametrize("klass", ["T", "L"])
    def test_separating_classes(self, klass, capsys):
        code = run(["kicked-ising", "--class", klass, "--L", "12", "--steps", "5",
                    "--J", repr(math.pi / 4), "--b", repr(math.pi / 4),
                    "--h", "0.3", "--assert"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["zigzag_ok"] is True

    @pytest.mark.parametrize("klass, L, steps", [("T", "8", "3"), ("L", "10", "4")])
    def test_shortest_checked_run_passes(self, klass, L, steps, capsys):
        # the smallest --steps and --L at which the relay is read once
        code = run(["kicked-ising", "--class", klass, "--L", L, "--steps", steps,
                    "--J", repr(math.pi / 4), "--b", repr(math.pi / 4), "--h", "0.3", "--assert"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["zigzag_ok"] is True and doc["growth_per_two_layers_ok"] is True

    def test_no_negative_zero_entropy(self, capsys):
        # a pure cut's entropy is -(1 ln 1), which prints as -0.0 unless fixed
        run(["kicked-ising", "--class", "T", "--L", "14", "--steps", "6", "--h", "0.3"])
        doc = json.loads(capsys.readouterr().out)
        zeros = [x for x in doc["central_entropy_nats"] if x == 0.0]
        assert zeros and all(math.copysign(1.0, x) == 1.0 for x in zeros)


class TestMpsCommand:
    def test_assert_and_save(self, tmp_path, capsys):
        save = tmp_path / "pair.json"
        code = run(["mps", "--q", "2", "--chi", "2", "--seed", "5",
                    "--save", str(save), "--assert"])
        assert code == 0
        assert save.exists()
        doc = json.loads(capsys.readouterr().out)
        assert doc["E_AB"] == pytest.approx(math.log(4), abs=1e-8)

    def test_load_round_trip(self, tmp_path, capsys):
        save = tmp_path / "pair.json"
        run(["mps", "--q", "2", "--chi", "1", "--seed", "9", "--save", str(save)])
        capsys.readouterr()
        code = run(["mps", "--seed", "0", "--load", str(save), "--assert"])
        assert code == 0


class TestEnsembleCommands:
    def test_haar_fidelity_small(self, tmp_path, capsys):
        out = tmp_path / "hf.json"
        raw = tmp_path / "raw.csv"
        code = run(["haar-fidelity", "--q", "4", "--samples", "60", "--seed", "7",
                    "--tolerance", "0.05", "--out", str(out), "--raw", str(raw),
                    "--assert"])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["pass"] is True
        assert raw.read_text().splitlines()[0] == "index,value"
        assert len(raw.read_text().splitlines()) == 61

    def test_output_files_follow_umask(self, tmp_path, capsys):
        out, raw = tmp_path / "hf.json", tmp_path / "raw.csv"
        old = os.umask(0o022)
        try:
            run(["haar-fidelity", "--q", "2", "--samples", "4", "--seed", "1",
                 "--out", str(out), "--raw", str(raw)])
        finally:
            os.umask(old)
        for path in (out, raw):
            assert stat.filemode(path.stat().st_mode) == "-rw-r--r--"

    def test_fifo_output_is_written_in_place(self, tmp_path, capsys):
        fifo = tmp_path / "out.json"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()),
                                  daemon=True)
        reader.start()
        assert run(["haar-fidelity", "--q", "2", "--samples", "4", "--seed", "1",
                    "--out", str(fifo)]) == 0
        reader.join(timeout=60)
        assert received == [capsys.readouterr().out]
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert list(tmp_path.iterdir()) == [fifo]

    def test_symlinked_outputs_stay_links(self, tmp_path, capsys):
        paths = {}
        for flag in ("--out", "--raw"):
            target = tmp_path / f"target{flag}"
            target.write_text("stale\n")
            link = tmp_path / f"link{flag}"
            link.symlink_to(target)
            paths[flag] = (link, target)
        argv = ["haar-fidelity", "--q", "2", "--samples", "4", "--seed", "1"]
        assert run(argv + ["--out", str(paths["--out"][0]),
                           "--raw", str(paths["--raw"][0])]) == 0
        doc = capsys.readouterr().out
        for link, target in paths.values():
            assert link.is_symlink() and link.resolve() == target
        assert paths["--out"][1].read_text() == doc
        assert paths["--raw"][1].read_text().splitlines()[0] == "index,value"
        assert len(list(tmp_path.iterdir())) == 4

    def test_determinism_bitwise(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for p in (a, b):
            run(["haar-fidelity", "--q", "2", "--samples", "40", "--seed", "3",
                 "--out", str(p)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("q, samples, fan_out", [
        (4, 40, None),  # in-process loop
        (16, 4, None),
        (16, 6, 2),     # 3 blocks on 2 threads
    ])
    def test_bytes_independent_of_blas_threads(self, q, samples, fan_out, tmp_path):
        setup = "" if fan_out is None else f"ensemble.FAN_OUT_SAMPLES = {fan_out}; "
        argv = ["haar-fidelity", "--q", str(q), "--samples", str(samples), "--seed", "7"]
        assert (outputs_at_blas_threads(argv, "1", tmp_path, setup)
                == outputs_at_blas_threads(argv, "2", tmp_path, setup))

    def test_state_fidelity_small(self, capsys):
        code = run(["state-fidelity", "--q", "16", "--samples", "200", "--seed", "5",
                    "--tolerance", "0.02", "--assert"])
        assert code == 0

    def test_state_fidelity_calls_the_rebound_sampler(self, monkeypatch, capsys):
        # looked up in ``ensemble`` at run time, so a wrapper bound there
        # (a stub, the benchmark's span tracer) is the one called
        from dulab import ensemble

        calls = []
        sampler = ensemble.haar_state_fidelity

        def wrapped(q, n, seed):
            calls.append((q, n, seed))
            return sampler(q, n, seed)

        monkeypatch.setattr(ensemble, "haar_state_fidelity", wrapped)
        assert run(["state-fidelity", "--q", "4", "--samples", "10", "--seed", "3"]) == 0
        assert calls == [(4, 10, 3)]

    def test_catalan_small(self, capsys):
        code = run(["catalan", "--q", "8", "--samples", "200", "--seed", "11"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert {m["n"] for m in doc["moments"]} == {2, 3}


class TestProjectDual:
    def test_haar_requires_seed(self, capsys):
        with pytest.raises(SystemExit) as e:
            run(["project-dual", "--gate", "haar", "--q", "2"])
        assert e.value.code == 2

    def test_haar_projection(self, capsys):
        code = run(["project-dual", "--gate", "haar", "--q", "2", "--seed", "4",
                    "--max-iters", "300", "--tol", "1e-9", "--assert"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert "defect_trace" in doc and "snap_distance" in doc

    def test_unconverged_run_passes(self, capsys):
        # pass checks the q = 2 snap only; an unconverged run reports it
        code = run(["project-dual", "--gate", "haar", "--q", "3", "--seed", "4",
                    "--max-iters", "1", "--assert"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["converged"] is False and doc["pass"] is True

    def test_dual_input_trivial(self, capsys):
        code = run(["project-dual", "--gate", "swap", "--q", "2", "--assert"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["iterations"] == 0 and doc["converged"] is True


class TestScanEpsDelta:
    def test_csv_and_assert(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        code = run(["scan-eps-delta", "--base", "swap", "--q", "2", "--seed", "8",
                    "--points", "7", "--out", str(out), "--assert"])
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0].startswith("theta,epsilon,delta")
        assert len(rows) == 1 + 8  # theta = 0 plus the grid
        summary = json.loads(capsys.readouterr().out)
        assert 0.4 <= summary["loglog_slope"] <= 1.1
        assert summary["pinsker_ok"] is True and summary["pass"] is True

    def test_pinsker_violation_fails_the_scan(self, monkeypatch, capsys):
        # Pinsker holds for every gate, so break it in the points themselves:
        # a last epsilon cut to a quarter puts delta at ~2 sqrt(2 epsilon)
        import dataclasses

        from dulab import ensemble

        scan = ensemble.eps_delta_scan

        def broken(base, thetas, seed):
            pts = scan(base, thetas, seed)
            return pts[:-1] + [dataclasses.replace(pts[-1], epsilon=pts[-1].epsilon / 4)]

        monkeypatch.setattr(ensemble, "eps_delta_scan", broken)
        code = run(["scan-eps-delta", "--base", "swap", "--q", "2", "--seed", "8",
                    "--format", "json", "--assert"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["pinsker_ok"] is False and doc["pass"] is False and code == 1
        assert doc["zero_point_exact"] and doc["certificate_ok"]

    def test_non_dual_base_exits_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            run(["scan-eps-delta", "--base", "identity", "--q", "2", "--seed", "1"])
        assert e.value.code == 2

    def test_base_defect_computed_once(self, monkeypatch, capsys):
        # the scan's own dual check is the only one, for a dual base and a
        # rejected one alike
        from dulab import ensemble, gates

        defect, calls = gates.choi_defect, []

        def counted(g):
            calls.append(g)
            return defect(g)

        monkeypatch.setattr(ensemble, "choi_defect", counted)
        monkeypatch.setattr(gates, "choi_defect", counted)
        assert run(["scan-eps-delta", "--base", "swap", "--q", "2", "--seed", "8"]) == 0
        assert len(calls) == 1
        with pytest.raises(SystemExit) as e:
            run(["scan-eps-delta", "--base", "identity", "--q", "2", "--seed", "1"])
        assert e.value.code == 2 and len(calls) == 2
        assert "--base identity is not dual unitary: its choi_defect 1.5" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["project-dual", "--gate", "kicked-ising", "--q", "2"],
    ["scan-eps-delta", "--base", "kicked-ising", "--q", "2", "--seed", "8", "--format", "json"],
])
def test_params_record_the_kick(argv, capsys):
    # the scan's sqrt_law_constant moves with --h, so params must name it
    params = []
    for h in ("0.3", "0.9"):
        assert run([*argv, "--h", h]) == 0
        params.append(json.loads(capsys.readouterr().out)["params"])
    assert [p["h"] for p in params] == [0.3, 0.9]
    assert {k for k, v in params[0].items() if params[1][k] != v} == {"h"}


class TestConsoleEntrypoint:
    def test_installed_script(self):
        exe = shutil.which("dulab")
        cmd = [exe] if exe else [sys.executable, "-m", "dulab.cli"]
        env = checkout_env()
        res = subprocess.run(cmd + ["audit-gate", "--gate", "swap", "--q", "2"],
                             capture_output=True, text=True, env=env)
        assert res.returncode == 0
        assert json.loads(res.stdout)["is_dual"] is True
        res = subprocess.run(cmd + ["audit-gate", "--gate", "nonsense", "--q", "2"],
                             capture_output=True, text=True, env=env)
        assert res.returncode == 2
        assert "nonsense" in res.stderr
