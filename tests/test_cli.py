import contextlib
import copy
import io
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisectrl import cli, lindblad, models
from noisectrl.cli import MODES, main, validate
from noisectrl.exceptions import NumericalHealthError
from noisectrl.optim import ControlSequence, TransferProblem


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def base_simulate_config(**overrides):
    cfg = {
        "mode": "simulate",
        "seed": 3,
        "system": {"model": "ising_chain", "n": 2, "coupling": 1.0,
                   "noise": "bitflip", "gamma_star": 5.0},
        "initial": {"state": "zero"},
        "target": {"state": "thermal"},
        "horizon": {"T": 1.0, "slices": 8},
        "sequence": {"style": "zero"},
    }
    cfg.update(overrides)
    return cfg


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, np.array(rows)


class TestValidate:
    def test_valid_config_has_no_diagnostics(self):
        assert validate(base_simulate_config(), "simulate") == []

    def test_gamma_above_bound_is_flagged(self):
        cfg = base_simulate_config()
        cfg["sequence"] = {"u": [[0.0] * 4] * 4, "gamma": [[6.0]] * 4}
        cfg["horizon"] = {"T": 1.0, "slices": 4}
        diags = validate(cfg, "simulate")
        assert len(diags) == 1
        assert "gamma" in diags[0]

    def test_dimension_mismatch_is_flagged(self):
        cfg = base_simulate_config()
        cfg["target"] = {"state": "thermal", "n": 3}
        diags = validate(cfg, "simulate")
        assert len(diags) == 1
        assert "dimension" in diags[0]

    def test_unknown_model_is_flagged(self):
        cfg = base_simulate_config()
        cfg["system"]["model"] = "heisenberg"
        assert any("unknown model" in d for d in validate(cfg, "simulate"))

    def test_validate_subcommand_exit_codes(self, tmp_path):
        ok = write_config(tmp_path, base_simulate_config(), "ok.json")
        assert main(["validate", "--config", str(ok)]) == 0
        bad_cfg = base_simulate_config()
        bad_cfg["system"]["model"] = "nope"
        bad = write_config(tmp_path, bad_cfg, "bad.json")
        assert main(["validate", "--config", str(bad)]) == 2

    def test_config_without_mode_is_flagged(self, tmp_path, capsys):
        path = write_config(tmp_path, {"system": {"model": "nope"}})
        assert main(["validate", "--config", str(path)]) == 2
        assert capsys.readouterr().out.startswith("mode: ")


class TestSimulate:
    def test_idle_sequence_keeps_spectrum(self, tmp_path):
        cfg = write_config(tmp_path, base_simulate_config())
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out / "trajectory.csv")
        assert header[0] == "time" and header[-1] == "delta_F"
        assert rows.shape[0] == 9  # slices + 1
        for row in rows:
            np.testing.assert_allclose(row[1:5], rows[0][1:5], atol=1e-12)
        seq_header, seq_rows = read_csv(out / "sequence.csv")
        assert seq_rows.shape[0] == 8
        result = json.loads((out / "result.json").read_text())
        assert result["mode"] == "simulate"
        assert np.isclose(result["final_error"], np.sqrt(3 / 4))

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, base_simulate_config(
            sequence={"style": "noise_blocks", "blocks": 2}))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in ("result.json", "trajectory.csv", "sequence.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_invalid_config_exit_code(self, tmp_path):
        cfg = base_simulate_config()
        del cfg["horizon"]
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", str(path), "--out",
                     str(tmp_path / "x")]) == 2

    def test_mode_mismatch_flagged(self, tmp_path):
        cfg = write_config(tmp_path, base_simulate_config(mode="optimize"))
        assert main(["simulate", "--config", str(cfg), "--out",
                     str(tmp_path / "x")]) == 2


class TestHlp:
    def test_cooling_case_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, {
            "mode": "hlp",
            "system": {"model": "ising_chain", "n": 3, "noise": "bitflip",
                       "gamma_star": 5.0},
            "initial": {"state": "spectrum",
                        "values": [v / 36.0 for v in range(8, 0, -1)]},
            "target": {"state": "thermal", "n": 3},
            "hlp": {"residual_target": 9.95e-5, "trotter_steps": 64},
        })
        out = tmp_path / "hlp"
        assert main(["hlp", "--config", str(cfg), "--out", str(out)]) == 0
        result = json.loads((out / "result.json").read_text())
        assert abs(result["total_dissipative_time"] - 12.0) < 0.6
        assert result["predicted_residual"] <= 1.5e-4
        assert result["executed_residual"] <= 2e-4
        assert len(result["steps"]) == 4
        assert (out / "trajectory.csv").exists()
        assert (out / "sequence.csv").exists()

    def test_non_majorised_target_exits_4(self, tmp_path):
        cfg = write_config(tmp_path, {
            "mode": "hlp",
            "system": {"model": "ising_chain", "n": 1, "noise": "bitflip",
                       "gamma_star": 5.0},
            "initial": {"state": "thermal", "n": 1},
            "target": {"state": "zero", "n": 1},
        })
        assert main(["hlp", "--config", str(cfg), "--out",
                     str(tmp_path / "x")]) == 4

    def test_unreachable_residual_target_exits_4(self, tmp_path, capsys):
        cfg = {
            "mode": "hlp",
            "system": {"model": "ising_chain", "n": 1, "noise": "bitflip",
                       "gamma_star": 5.0},
            "initial": {"state": "zero"},
            "target": {"state": "spectrum", "values": [0.5, 0.5]},
            "hlp": {"residual_target": 1e-20},
        }
        path = write_config(tmp_path, cfg)
        assert main(["hlp", "--config", str(path), "--out", str(tmp_path / "x")]) == 4
        assert "residual_target 1e-20" in capsys.readouterr().err

    def test_plan_only_needs_no_bitflip_noise(self, tmp_path):
        cfg = base_hlp_config()
        cfg["system"]["noise"] = "amp"
        cfg["hlp"]["execute"] = False
        assert validate(cfg, "hlp") == []
        path = write_config(tmp_path, cfg)
        assert main(["hlp", "--config", str(path), "--out", str(tmp_path / "x")]) == 0
        assert "executed_spectrum" not in json.loads((tmp_path / "x" / "result.json").read_text())


class TestProtocol:
    def test_erase_amp_duration(self, tmp_path):
        cfg = write_config(tmp_path, {
            "mode": "protocol",
            "system": {"model": "ising_chain", "n": 3, "noise": "amp",
                       "gamma_star": 5.0},
            "protocol": {"kind": "erase_amp"},
        })
        out = tmp_path / "p"
        assert main(["protocol", "--config", str(cfg), "--out", str(out)]) == 0
        result = json.loads((out / "result.json").read_text())
        assert abs(result["predicted_duration"] - 3.416) < 1e-3
        assert result["simulated_error"] <= 1e-9
        assert result["swap_count"] == 3

    def test_wrong_noise_kind_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, {
            "mode": "protocol",
            "system": {"model": "ising_chain", "n": 2, "noise": "bitflip",
                       "gamma_star": 5.0},
            "protocol": {"kind": "init", "noise_time": 1.0},
        })
        assert main(["protocol", "--config", str(cfg), "--out",
                     str(tmp_path / "x")]) == 2


class TestOtherModes:
    def test_controllability(self, tmp_path):
        cfg = write_config(tmp_path, {
            "mode": "controllability",
            "system": {"model": "ising_chain", "n": 2, "gamma_star": 5.0},
        })
        out = tmp_path / "c"
        assert main(["controllability", "--config", str(cfg), "--out", str(out)]) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["lie_closure_dimension"] == 15
        assert result["fully_controllable"] is True

    def test_majorize(self, tmp_path):
        cfg = write_config(tmp_path, {
            "mode": "majorize",
            "initial": {"state": "spectrum", "values": [0.6, 0.3, 0.1, 0.0]},
            "target": {"state": "spectrum", "values": [0.4, 0.3, 0.2, 0.1]},
        })
        out = tmp_path / "m"
        assert main(["majorize", "--config", str(cfg), "--out", str(out)]) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["target_majorised_by_initial"] is True
        assert min(result["partial_sum_slack"]) >= -1e-12

    def test_optimize_small_run(self, tmp_path):
        cfg = write_config(tmp_path, {
            "mode": "optimize",
            "seed": 2,
            "system": {"model": "ising_chain", "n": 1, "noise": "bitflip",
                       "gamma_star": 5.0},
            "initial": {"state": "zero"},
            "target": {"state": "thermal"},
            "horizon": {"T": 6.0, "slices": 10},
            "optimizer": {"restarts": 2, "max_iters": 300, "tol": 1e-5},
        })
        out = tmp_path / "o"
        assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["final_error"] <= 1e-5
        assert result["converged"] is True
        history = result["error_history"]
        assert min(history) <= 1e-5


def test_slice_table_holds_every_value_at_full_precision(tmp_path):
    problem = TransferProblem(models.ising_chain(1), models.zero_state(1),
                              models.thermal_state(1), 0.2, 2)
    seq = ControlSequence([[-0.0, 1 / 3], [1e-300, -2.5e17]], [[0.1], [5.0]])
    cli._write_slices(tmp_path / "s.csv", problem, seq)
    lines = (tmp_path / "s.csv").read_text().splitlines()
    assert lines[1:] == ["0,0,-0,0.33333333333333331,0.10000000000000001",
                         "1,0.10000000000000001,1e-300,-2.5e+17,5"]


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(0, 6), width=st.integers(0, 4), data=st.data())
def test_table_writer_is_savetxt_byte_for_byte(rows, width, data):
    # an integer column beside float columns with signed zeros, subnormals and non-finite
    # values, each row repeated up to three times, some repeats differing only in the
    # sign of their zeros
    values = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 5e-324, 1 / 3,
                                                     np.nan, np.inf, -np.inf]))
    ints = np.array(data.draw(st.lists(st.integers(-2 ** 60, 2 ** 60), min_size=rows,
                                       max_size=rows)), dtype=np.int64)
    floats = np.array(data.draw(st.lists(values, min_size=rows * width,
                                         max_size=rows * width))).reshape(rows, width)
    repeats = data.draw(st.lists(st.integers(1, 3), min_size=rows, max_size=rows))
    ints, floats = np.repeat(ints, repeats), np.repeat(floats, repeats, axis=0)
    flip = np.array(data.draw(st.lists(st.booleans(), min_size=len(ints), max_size=len(ints))),
                    dtype=bool)
    floats[flip] = np.where(floats[flip] == 0, -floats[flip], floats[flip])
    columns = [ints, floats] if width else [ints]
    labels = ["k"] + [f"c{i}" for i in range(width)]
    with tempfile.TemporaryDirectory() as tmp:
        ours, ref = Path(tmp) / "ours.csv", Path(tmp) / "ref.csv"
        cli._write_table(ours, labels, columns)
        np.savetxt(ref, np.column_stack(columns), fmt="%.17g", delimiter=",",
                   header=",".join(labels), comments="")
        assert ours.read_bytes() == ref.read_bytes()


def test_controllability_never_builds_the_generator_stack(tmp_path, monkeypatch):
    def refuse(system, rows):
        raise AssertionError("generator stack built")
    monkeypatch.setattr(models, "_generator_stack", refuse)
    cfg = write_config(tmp_path, {
        "mode": "controllability",
        "system": {"model": "ising_chain", "n": 2, "noise": "amp", "dephasing": 0.1}})
    assert main(["controllability", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 0


def test_broken_generator_stack_exits_3(tmp_path, monkeypatch):
    tables = lindblad._pauli_tables(2)
    monkeypatch.setattr(lindblad, "_pauli_tables", lambda n: (tables[0] * 1j,) + tables[1:])
    with pytest.raises(NumericalHealthError):
        models.ising_chain(2).generator_rows(range(6))
    path = write_config(tmp_path, base_simulate_config())
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")]) == 3


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("command", ["validate", "optimize", "hlp"])
def test_non_finite_drift_exits_3_before_running(tmp_path, capsys, command):
    cfg = base_hlp_config() if command == "hlp" else base_optimize_config()
    cfg["system"].update(n=2, coupling=1e308)
    path = write_config(tmp_path, cfg)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "x")]) == 3
    assert "numerical failure: non-finite entries in drift" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_numerical_failure_exit_code(tmp_path):
    cfg = base_simulate_config()
    cfg["sequence"] = {"u": [[1e300] * 4] * 4, "gamma": [[0.0]] * 4}
    cfg["horizon"] = {"T": 1.0, "slices": 4}
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", str(path), "--out",
                 str(tmp_path / "x")]) == 3


class TestDiagnostics:
    def test_bad_system_gives_one_diagnostic(self, tmp_path, capsys):
        cfg = base_simulate_config()
        cfg["system"]["noisy_site"] = 9
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", str(path), "--out",
                     str(tmp_path / "x")]) == 2
        lines = capsys.readouterr().err.strip().split("\n")
        assert lines == ["config error: system: noisy_site must be in [1, 2]"]

    def test_state_with_own_size_is_still_checked(self):
        cfg = base_simulate_config()
        cfg["system"]["noisy_site"] = 9
        cfg["target"] = {"state": "random", "n": 2}
        diags = validate(cfg, "simulate")
        assert diags[0].startswith("system:")
        assert len(diags) == 2 and diags[1].startswith("target:")

    def test_chain_beyond_six_qubits_is_refused_at_load(self, tmp_path, capsys):
        # refused before any operator is built: the generator stack of 7 qubits is ~34 GB
        path = write_config(tmp_path, {"mode": "controllability", "system": {
            "model": "ising_chain", "n": 7, "noise": "amp", "gamma_star": 5.0}})
        assert main(["controllability", "--config", str(path), "--out",
                     str(tmp_path / "x")]) == 2
        lines = capsys.readouterr().err.strip().split("\n")
        assert lines == ["config error: system: n must be in [1, 6]"]


# ---------------------------------------------------------------------------
# malformed configs: exit 2 with diagnostics under the faulty section

def base_optimize_config():
    return {
        "mode": "optimize", "seed": 2,
        "system": {"model": "ising_chain", "n": 1, "noise": "bitflip", "gamma_star": 5.0},
        "initial": {"state": "zero"},
        "target": {"state": "thermal"},
        "horizon": {"T": 2.0, "slices": 4},
        "optimizer": {"restarts": 1, "max_iters": 2},
    }


def base_hlp_config():
    return {
        "mode": "hlp",
        "system": {"model": "ising_chain", "n": 2, "noise": "bitflip", "gamma_star": 5.0},
        "initial": {"state": "spectrum", "values": [0.4, 0.3, 0.2, 0.1]},
        "target": {"state": "thermal"},
        "hlp": {"residual_target": 1e-3, "trotter_steps": 2},
    }


def base_protocol_config():
    return {
        "mode": "protocol",
        "system": {"model": "ising_chain", "n": 3, "noise": "amp", "gamma_star": 5.0},
        "protocol": {"kind": "init", "noise_time": 1.0},
    }


def base_majorize_config():
    return {
        "mode": "majorize",
        "initial": {"state": "thermal", "n": 2},
        "target": {"state": "spectrum", "values": [0.25, 0.25, 0.25, 0.25]},
    }


BASES = {"simulate": base_simulate_config, "optimize": base_optimize_config,
         "hlp": base_hlp_config, "protocol": base_protocol_config,
         "majorize": base_majorize_config}
DELETE = object()

# {test id: (mode, section, key or None for the whole section, value, message)};
# the section is the one every diagnostic must name, the message part of one; a
# key "other.key" edits another section whose fault this section reports.  A row's
# id is its own key, so adding a row renames no other test; the first 29 keep the
# ids they had when ids were numbered by position, which is where they end in it
MALFORMED = {
    "simulate-horizon-T-0":
        ("simulate", "horizon", "T", "abc", "T must be a finite number"),
    "simulate-horizon-slices-1":
        ("simulate", "horizon", "slices", "x", "slices must be an integer"),
    "simulate-horizon-slices-2":
        ("simulate", "horizon", "slices", 2.5, "slices must be an integer"),
    "simulate-horizon-T-3":
        ("simulate", "horizon", "T", "1e400", "T must be a finite number"),  # bare JSON number
    "optimize-optimizer-noise_blocks-4":
        ("optimize", "optimizer", "noise_blocks", 0, "noise_blocks must be at least 1"),
    "optimize-optimizer-restarts-5":
        ("optimize", "optimizer", "restarts", 0, "restarts must be at least 1"),
    "optimize-optimizer-max_iters-6":
        ("optimize", "optimizer", "max_iters", "a", "max_iters must be an integer"),
    "optimize-optimizer-section-7":
        ("optimize", "optimizer", None, [1], "must be an object"),
    "simulate-sequence-section-8":
        ("simulate", "sequence", None, [1], "must be an object"),
    "simulate-sequence-section-9":
        ("simulate", "sequence", None, {"u": [[0.0] * 4] * 3, "gamma": [[0.0]] * 4},
         "number of slices"),
    "simulate-sequence-section-10":
        ("simulate", "sequence", None, {"u": [[0.0] * 4] * 4}, "gamma is required"),
    "simulate-sequence-section-11":
        ("simulate", "sequence", None, {"u": [[[0.0]] * 4] * 4, "gamma": [[0.0]] * 4},
         "control shape (4, 1)"),
    "simulate-sequence-section-12":
        ("simulate", "sequence", None, {"u": [[0.0] * 4] * 4, "gamma": "x"},
         "gamma must be an array"),
    "hlp-hlp-residual_target-13":
        ("hlp", "hlp", "residual_target", "a", "residual_target must be a finite number"),
    "hlp-hlp-trotter_steps-14":
        ("hlp", "hlp", "trotter_steps", "a", "trotter_steps must be an integer"),
    "hlp-hlp-execute-15":
        ("hlp", "hlp", "execute", "no", "execute must be true or false"),
    "hlp-hlp-section-16":
        ("hlp", "hlp", None, [1], "must be an object"),
    "majorize-target-section-17":
        ("majorize", "target", None, {"state": "thermal", "n": 3},
         "dimension 8 does not match initial dimension 4"),
    "majorize-initial-section-18":
        ("majorize", "initial", None, {"state": "zero"}, "n is required"),
    "protocol-protocol-noise_time-19":
        ("protocol", "protocol", "noise_time", "x", "noise_time must be a finite number"),
    "protocol-protocol-noise_time-20":
        ("protocol", "protocol", "noise_time", DELETE, "noise_time is required"),
    "simulate-initial-section-21":
        ("simulate", "initial", None, [1], "must be an object"),
    "simulate-seed-section-22":
        ("simulate", "seed", None, "x", "must be a nonnegative integer"),
    "simulate-out-section-23":
        ("simulate", "out", None, 5, "must be a string"),
    "simulate-system-dephasing-24":
        ("simulate", "system", "dephasing", "x", "dephasing must be a finite number"),
    "hlp-hlp-system.noise-25":
        ("hlp", "hlp", "system.noise", "amp",
         "execute needs bitflip noise on the last qubit, system has 'amp2'"),
    "simulate-sequence-section-26":
        ("simulate", "sequence", None, {"u": [[0.0] * 4] * 4, "gamma": [[math.nan]] + [[1.0]] * 3},
         "gamma[0, 0] = nan for 'bitflip2' is not a finite number"),
    "hlp-hlp-system.noise-27":
        ("hlp", "hlp", "system.noise", {"theta": 0.500004},
         "execute needs bitflip noise on the last qubit, system has 'theta2'"),
    "simulate-sequence-section-28":
        ("simulate", "sequence", None, {"u": [[0.0] * 4] * 3, "gamma": [[0.0]] * 3},
         "sequence has 3 slices, problem has 4"),
    "simulate-sequence-u-nan":
        ("simulate", "sequence", None, {"u": [[math.nan] + [0.0] * 3] * 4, "gamma": [[0.0]] * 4},
         "coherent amplitudes u must be finite numbers"),
    "simulate-sequence-u-1e400":
        ("simulate", "sequence", None, {"u": [["1e400"] + [0.0] * 3] * 4, "gamma": [[0.0]] * 4},
         "coherent amplitudes u must be finite numbers"),   # bare JSON number
    **{f"simulate-system-ion_trap-{key}":
       ("simulate", "system", None, {"model": "ion_trap", "gamma_star": 5.0, key: value},
        f"{key} is not a setting of model 'ion_trap'")
       for key, value in (("n", 4), ("noise", "bitflip"), ("noisy_site", 4),
                          ("dephasing", 0.5))},
}


def malformed_config(mode, section, key, value):
    cfg = BASES[mode]()
    if section == "sequence":
        cfg["horizon"]["slices"] = 4
    if key is not None and "." in key:
        section, key = key.split(".")
    target = cfg if key is None else cfg[section]
    name = section if key is None else key
    if value is DELETE:
        del target[name]
    else:
        target[name] = value
    return cfg


@pytest.mark.parametrize("mode,section,key,value,message", MALFORMED.values(),
                         ids=MALFORMED.keys())
def test_malformed_config_exits_2_naming_its_section(tmp_path, capsys, mode, section, key,
                                                     value, message):
    text = json.dumps(malformed_config(mode, section, key, value))
    path = tmp_path / "config.json"
    path.write_text(text.replace('"1e400"', "1e400"))
    assert main([mode, "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    lines = capsys.readouterr().err.strip().split("\n")
    assert all(line.startswith(f"config error: {section}:") for line in lines)
    assert any(message in line for line in lines)
    assert not (tmp_path / "x").exists()


class TestProtocolNoise:
    def test_noise_off_the_last_qubit_is_config_error(self, tmp_path, capsys):
        cfg = base_protocol_config()
        cfg["system"]["noisy_site"] = 1
        cfg["protocol"] = {"kind": "erase_amp"}
        path = write_config(tmp_path, cfg)
        assert main(["protocol", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        lines = capsys.readouterr().err.strip().split("\n")
        assert len(lines) == 1 and lines[0].startswith("config error: protocol:")
        assert "last qubit" in lines[0]

    def test_matching_noise_on_the_last_qubit_is_accepted(self):
        cfg = base_protocol_config()
        cfg["system"]["noisy_site"] = 3
        assert validate(cfg, "protocol") == []
        cfg["protocol"] = {"kind": "erase_bitflip", "noise_time": 1.0}
        assert validate(cfg, "protocol") == [
            "protocol: 'erase_bitflip' needs bitflip noise on the last qubit, "
            "system has 'amp3'"]

    @pytest.mark.parametrize("kind, noise, code", [
        ("erase_bitflip", {"theta": 0.500004}, 2),
        ("erase_bitflip", "bitflip", 0),
        ("erase_amp", "amp", 0),
    ])
    def test_protocol_noise_must_be_its_own_exactly(self, tmp_path, kind, noise, code):
        # 4e-6 from bit flip is within numpy's default relative tolerance
        cfg = base_protocol_config()
        cfg["system"]["noise"] = noise
        cfg["protocol"] = {"kind": kind, "noise_time": 1.0}
        path = write_config(tmp_path, cfg)
        assert main(["protocol", "--config", str(path), "--out", str(tmp_path / "x")]) == code


# ---------------------------------------------------------------------------
# property: one mutated key of a tiny valid config never escapes main

TINY = {
    "simulate": {
        "mode": "simulate", "seed": 1, "out": "unused",
        "system": {"model": "ising_chain", "n": 2, "coupling": 1.0, "noise": "amp",
                   "noisy_site": 2, "gamma_star": 5.0, "dephasing": 0.1},
        "initial": {"state": "zero"},
        "target": {"state": "random", "seed": 3},
        "horizon": {"T": 1.0, "slices": 4},
        "sequence": {"style": "noise_blocks", "blocks": 2, "u_scale": 1.0},
    },
    "optimize": {
        "mode": "optimize", "seed": 2,
        "system": {"model": "ising_chain", "n": 1, "noise": "bitflip", "gamma_star": 5.0},
        "initial": {"state": "zero"},
        "target": {"state": "thermal"},
        "horizon": {"T": 2.0, "slices": 3},
        "optimizer": {"restarts": 1, "noise_blocks": 1, "u_scale": 0.5, "max_iters": 2,
                      "tol": 1e-6},
    },
    "hlp": {
        "mode": "hlp", "seed": 0,
        "system": {"model": "ising_chain", "n": 2, "noise": "bitflip", "gamma_star": 5.0},
        "initial": {"state": "spectrum", "values": [0.4, 0.3, 0.2, 0.1]},
        "target": {"state": "thermal"},
        "hlp": {"residual_target": 1e-3, "trotter_steps": 2, "execute": True},
    },
    "protocol": {
        "mode": "protocol",
        "system": {"model": "ising_chain", "n": 2, "coupling": 1.0, "noise": "amp",
                   "gamma_star": 5.0},
        "protocol": {"kind": "init", "noise_time": 1.0, "charge_swap_time": True},
    },
    "controllability": {
        "mode": "controllability",
        "system": {"model": "ising_chain", "n": 1, "noise": "amp", "gamma_star": 5.0},
    },
    "majorize": {
        "mode": "majorize",
        "initial": {"state": "thermal", "n": 2},
        "target": {"state": "spectrum", "values": [0.25, 0.25, 0.25, 0.25]},
    },
}
ALPHABET = [None, True, -1, 0, 0.5, 3, math.inf, "x", [], {}]
MUTATIONS = [(mode, key, sub) for mode, cfg in TINY.items() for key in cfg
             for sub in [None] + (list(cfg[key]) if isinstance(cfg[key], dict) else [])]


def run_in(tmp, mode, path, name):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main([mode, "--config", str(path), "--out", str(tmp / name)])
    return rc, err.getvalue()


def test_tiny_configs_are_valid():
    for mode, cfg in TINY.items():
        assert validate(cfg, mode) == []


@settings(max_examples=200, deadline=None)
@given(mutation=st.sampled_from(MUTATIONS), value=st.sampled_from(ALPHABET + [DELETE]))
def test_mutated_config_exits_cleanly(mutation, value):
    mode, key, sub = mutation
    cfg = copy.deepcopy(TINY[mode])
    target, name = (cfg, key) if sub is None else (cfg[key], sub)
    if value is DELETE:
        del target[name]
    else:
        target[name] = value
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / "config.json"
        path.write_text(json.dumps(cfg))
        rc, err = run_in(tmp, mode, path, "a")
        assert rc in (0, 2, 3, 4)
        if rc == 2:
            assert all(line.startswith("config error: ") for line in err.strip().split("\n"))
        if rc == 0:
            assert run_in(tmp, mode, path, "b")[0] == 0
            names = sorted(p.name for p in (tmp / "a").iterdir())
            assert names == sorted(p.name for p in (tmp / "b").iterdir())
            for f in names:
                assert (tmp / "a" / f).read_bytes() == (tmp / "b" / f).read_bytes()


# ---------------------------------------------------------------------------
# the README's config example stays valid for every mode

def test_readme_example_validates_for_every_mode():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    cli_docs = readme[readme.index("## Command line"):]
    block = cli_docs[cli_docs.index("```json") + len("```json"):]
    example = json.loads(block[:block.index("```")])
    # it carries every section, so it must serve every mode
    for mode in MODES:
        assert validate(dict(example, mode=mode), mode) == [], mode


# ---------------------------------------------------------------------------
# what a CLI process loads and faults in, each in a fresh interpreter

def run_python(code, *args):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


LOADED_SCIPY = """
import json, sys, tempfile
from pathlib import Path
from noisectrl import cli
loaded = []
with tempfile.TemporaryDirectory() as tmp:
    for command, cfg in json.loads(sys.argv[1]):
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        rc = cli.main([command, "--config", str(path), "--out", str(Path(tmp) / command)])
        loaded.append([command, rc, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")])
print(json.dumps(loaded))
"""


def test_only_optimize_loads_scipy():
    jobs = [["validate", TINY["hlp"]]] + [[mode, TINY[mode]] for mode in MODES
                                          if mode != "optimize"]
    loaded = run_python(LOADED_SCIPY, json.dumps(jobs + [["optimize", TINY["optimize"]]]))
    assert [rc for _, rc, _ in loaded] == [0] * len(loaded)
    assert {command: modules for command, _, modules in loaded[:-1]} == {
        command: [] for command, _ in jobs}
    assert "scipy.optimize" in loaded[-1][2]


EVALUATION_FAULTS = """
import json, resource, sys, tempfile
from pathlib import Path
from noisectrl import cli, models, optim
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "config.json"
    path.write_text(sys.argv[1])
    assert cli.main(["validate", "--config", str(path)]) == 0
system = models.ion_trap_model()
problem = optim.TransferProblem(system, models.thermal_state(4), models.ghz_state(4), 1.0, 8)
seq = optim.random_sequence(problem, 3)
faults = []
for _ in range(6):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    optim._error_and_gradient(problem, seq.u, seq.gamma)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_evaluations_after_main_reuse_their_memory():
    # an M = 8 ion-trap evaluation frees (8, 256, 256) stacks of 4 MB; with glibc's
    # dynamic thresholds each later evaluation faults about 5,400 to 6,500 pages back in
    faults = run_python(EVALUATION_FAULTS, json.dumps(TINY["majorize"]))
    assert max(faults[1:]) < 100, faults
