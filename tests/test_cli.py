import json

import numpy as np
import pytest

from noisectrl.cli import main, validate


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


def test_numerical_failure_exit_code(tmp_path):
    cfg = base_simulate_config()
    cfg["sequence"] = {"u": [[1e300] * 4] * 4, "gamma": [[0.0]] * 4}
    cfg["horizon"] = {"T": 1.0, "slices": 4}
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", str(path), "--out",
                 str(tmp_path / "x")]) == 3


class TestDiagnostics:
    def test_nonpositive_fd_step_is_flagged(self, tmp_path):
        cfg = {
            "mode": "optimize",
            "system": {"model": "ising_chain", "n": 1, "noise": "bitflip",
                       "gamma_star": 5.0},
            "initial": {"state": "zero"},
            "target": {"state": "thermal"},
            "horizon": {"T": 6.0, "slices": 10},
            "optimizer": {"restarts": 1, "max_iters": 3, "fd_step": -1},
        }
        assert validate(cfg, "optimize") == ["optimizer: fd_step must be positive"]
        path = write_config(tmp_path, cfg)
        assert main(["validate", "--config", str(path)]) == 2
        assert main(["optimize", "--config", str(path), "--out",
                     str(tmp_path / "x")]) == 2

    def test_bad_system_gives_one_diagnostic(self, tmp_path, capsys):
        cfg = base_simulate_config()
        cfg["system"]["noisy_site"] = 9
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", str(path), "--out",
                     str(tmp_path / "x")]) == 2
        lines = capsys.readouterr().err.strip().split("\n")
        assert lines == ["config error: system: noisy site 9 out of range"]

    def test_state_with_own_size_is_still_checked(self):
        cfg = base_simulate_config()
        cfg["system"]["noisy_site"] = 9
        cfg["target"] = {"state": "random", "n": 2}
        diags = validate(cfg, "simulate")
        assert diags[0].startswith("system:")
        assert len(diags) == 2 and diags[1].startswith("target:")
