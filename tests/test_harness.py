from __future__ import annotations

import json
from dataclasses import fields

import numpy as np
import pytest

from dsrnet.cli import main
from dsrnet.dsr_core import Trajectory
from dsrnet.harness import (
    ConfigError,
    ExperimentConfig,
    config_text,
    parse_config,
    preset_catalog,
    run_config,
    run_preset,
    write_trajectory_csv,
)

MINIMAL = """
experiment = lattice-info
ks = 100
beta = 0.96
dt = 0.01
"""

FLOAT_KEYS = [f.name for f in fields(ExperimentConfig) if "float" in str(f.type)]


class TestParseConfig:
    def test_minimal_config_is_valid(self):
        cfg = parse_config(MINIMAL)
        assert cfg.experiment == "lattice-info"
        assert cfg.ks == 100.0
        assert cfg.beta == 0.96
        assert cfg.dt == 0.01

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# comment\n\nexperiment = lattice-info  # inline\n")
        assert cfg.experiment == "lattice-info"

    def test_gain_of_one_rejected_naming_beta(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL.replace("beta = 0.96", "beta = 1.0"))
        assert any(v.startswith("beta") for v in err.value.violations)

    def test_zero_dt_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL.replace("dt = 0.01", "dt = 0"))
        assert any(v.startswith("dt") for v in err.value.violations)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "strength = 5\n")
        assert any("strength" in v and "unknown" in v for v in err.value.violations)

    def test_missing_experiment_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("ks = 100\n")
        assert any(v.startswith("experiment") for v in err.value.violations)

    def test_all_violations_collected(self):
        text = MINIMAL.replace("beta = 0.96", "beta = 2.0").replace(
            "dt = 0.01", "dt = -1"
        ) + "bogus = 1\nnoise = -0.5\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        keys = {v.split(":")[0] for v in err.value.violations}
        assert {"beta", "dt", "bogus", "noise"} <= keys

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "ks = 50\n")
        assert any("duplicate" in v for v in err.value.violations)

    def test_seed_required_with_noise_or_disc(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "noise = 0.025\n")
        assert any(v.startswith("seed") for v in err.value.violations)
        with pytest.raises(ConfigError):
            parse_config("experiment = flocking\ntopology = disc\n")

    def test_second_order_needs_integrator_dt_and_positive_gain(self):
        with pytest.raises(ConfigError) as err:
            parse_config("experiment = continuum-second-order\nbeta = 0\n")
        keys = {v.split(":")[0] for v in err.value.violations}
        assert {"integrator_dt", "beta"} <= keys

    def test_sweep_needs_ks_values(self):
        with pytest.raises(ConfigError) as err:
            parse_config("experiment = stability-sweep\n")
        assert any(v.startswith("ks_values") for v in err.value.violations)

    def test_leader_accepts_names_and_indices(self):
        assert parse_config(MINIMAL + "leader = center\n").leader == "center"
        assert parse_config(MINIMAL + "leader = 16\n").leader == "16"
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "leader = northwest\n")

    def test_round_trip_through_config_text(self):
        cfg = parse_config(MINIMAL + "seed = 9\nnoise = 0.01\nn_steps = 50\n")
        assert parse_config(config_text(cfg)) == cfg


class TestTrajectoryCsv:
    def make_trajectory(self, rows, agents, scale=1.0):
        values = np.arange(rows * agents, dtype=float).reshape(rows, agents)
        values *= scale / max(1, rows * agents - 1)
        return Trajectory(
            times=np.arange(rows) * 0.01,
            values=values,
            params=None,
            leader_ids=(0,),
        )

    def test_single_agent_single_step(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trajectory_csv(self.make_trajectory(2, 1), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,agent_0"
        assert len(lines) == 3

    def test_round_trip_precision(self, tmp_path):
        # nine significant digits: sub-unit values come back within 1e-9
        # absolute, anything larger within 1e-9 relative
        traj = self.make_trajectory(40, 5, scale=0.9)
        path = tmp_path / "t.csv"
        write_trajectory_csv(traj, path)
        loaded = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.abs(loaded[:, 1:] - traj.values).max() <= 1e-9
        assert np.abs(loaded[:, 0] - traj.times).max() <= 1e-9

        # above one, quantization is half an ulp of the ninth digit: 5e-9
        big = self.make_trajectory(40, 5, scale=2.4e5)
        write_trajectory_csv(big, path)
        loaded = np.loadtxt(path, delimiter=",", skiprows=1)
        relative = np.abs(loaded[:, 1:] - big.values) / np.maximum(
            1.0, np.abs(big.values)
        )
        assert relative.max() <= 5e-9

    def test_unix_newlines_and_determinism(self, tmp_path):
        traj = self.make_trajectory(10, 3)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trajectory_csv(traj, a)
        write_trajectory_csv(traj, b)
        raw = a.read_bytes()
        assert b"\r" not in raw
        assert raw == b.read_bytes()

    def test_decimate_keeps_first_and_last_rows(self):
        traj = self.make_trajectory(11, 2)
        thin = traj.decimate(4)
        assert thin.times.tolist() == pytest.approx([0.0, 0.04, 0.08, 0.10])
        assert np.array_equal(thin.values[0], traj.values[0])
        assert np.array_equal(thin.values[-1], traj.values[-1])


class TestRunPreset:
    def test_unknown_preset(self, tmp_path):
        with pytest.raises(ValueError):
            run_preset("fig9", out_dir=tmp_path)

    def test_catalog_is_complete(self):
        assert set(preset_catalog()) == {
            "fig1b",
            "fig1c",
            "fig1d",
            "fig1_unstable",
            "fig2_lattice",
            "fig2_disc_noise",
            "fig3a_diffusion",
            "fig3b_second_order",
            "fig3b_unstable",
        }

    def test_fast_preset_artifacts(self, tmp_path):
        paths, report = run_preset("fig1c", out_dir=tmp_path / "run")
        metrics = json.loads(paths["metrics"].read_text())
        assert set(metrics) >= {
            "settling_time_s",
            "transfer_speed_mps",
            "scaling_exponent",
            "diverged",
            "overshoot",
        }
        assert metrics["diverged"] is False
        assert metrics["settling_time_s"] == report.settling_time
        # initial condition: the first trajectory row is all zeros
        first_row = paths["trajectory"].read_text().splitlines()[1]
        assert set(first_row.split(",")) == {"0"}
        # manifest parses and pins the resolved leader index and horizon
        manifest = parse_config(paths["manifest"].read_text())
        assert manifest.leader == "16"
        assert manifest.n_steps is not None

    def test_manifest_replay_reproduces_bytes(self, tmp_path):
        first, _ = run_preset("fig1c", out_dir=tmp_path / "a")
        cfg = parse_config(first["manifest"].read_text())
        second, _ = run_config(cfg, tmp_path / "b")
        for name, path in first.items():
            assert path.read_bytes() == second[name].read_bytes()

    def test_seed_override_changes_noisy_outputs(self, tmp_path):
        a, _ = run_preset("fig2_disc_noise", seed=7, out_dir=tmp_path / "a")
        b, _ = run_preset("fig2_disc_noise", seed=8, out_dir=tmp_path / "b")
        assert a["trajectory"].read_bytes() != b["trajectory"].read_bytes()

    def test_auto_csv_stride_caps_rows(self, tmp_path):
        paths, _ = run_preset("fig1b", out_dir=tmp_path)
        n_rows = len(paths["trajectory"].read_text().splitlines()) - 1
        assert n_rows <= 1202

    def test_sweep_config(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="stability-sweep",
            rows=7,
            cols=7,
            leader="corner",
            ks=100.0,
            beta=0.0,
            dt=0.01,
            n_steps=4000,
            ks_values=(100.0, 101.0),
        )
        paths, results = run_config(cfg, tmp_path)
        text = paths["sweep"].read_text().splitlines()
        assert text[0] == "ks,verdict,settling_time_s"
        verdicts = {r.alignment_strength: r.diverged for r in results}
        assert verdicts == {100.0: False, 101.0: True}


class TestCli:
    def test_list_presets(self, capsys):
        assert main(["list-presets"]) == 0
        out = capsys.readouterr().out
        assert "fig1c" in out and "fig3b_unstable" in out

    def test_run_preset(self, tmp_path, capsys):
        code = main(["run", "--preset", "fig1c", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "metrics.json").exists()

    def test_expected_divergence_exits_zero(self, tmp_path):
        assert main(["run", "--preset", "fig1_unstable", "--out", str(tmp_path)]) == 0

    def test_unknown_preset_fails(self, tmp_path, capsys):
        assert main(["run", "--preset", "fig9", "--out", str(tmp_path)]) == 2
        assert "unknown preset" in capsys.readouterr().err

    def test_invalid_config_reports_violations(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("experiment = lattice-info\nbeta = 3\n")
        assert main(["run", "--config", str(config), "--out", str(tmp_path)]) == 2
        assert "beta" in capsys.readouterr().err

    def test_run_from_config_file(self, tmp_path):
        config = tmp_path / "ok.cfg"
        config.write_text(
            "experiment = lattice-info\nrows = 7\ncols = 7\n"
            "ks = 100\nbeta = 0.96\ndt = 0.01\nn_steps = 400\n"
        )
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 0

    def test_sweep_command(self, tmp_path, capsys):
        config = tmp_path / "base.cfg"
        config.write_text(
            "experiment = lattice-info\nrows = 7\ncols = 7\n"
            "ks = 100\nbeta = 0\ndt = 0.01\nn_steps = 4000\n"
        )
        code = main(
            [
                "sweep",
                "--config",
                str(config),
                "--ks",
                "100,101",
                "--out",
                str(tmp_path / "s"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ks=100: stable" in out
        assert "ks=101: diverged" in out

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_nonfinite_float_exits_2_naming_the_key(self, tmp_path, capsys, key, value):
        config = tmp_path / "bad.cfg"
        config.write_text(f"experiment = lattice-info\nn_steps = 10\n{key} = {value}\n")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {key}: " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_disc_without_agents_exits_2(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("experiment = lattice-info\ntopology = disc\nseed = 1\nn_agents = 0\n")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert "config error: n_agents: " in capsys.readouterr().err

    def test_sweep_override_is_validated(self, tmp_path, capsys):
        code = main(["sweep", "--preset", "fig1b", "--ks", "100,nan", "--out", str(tmp_path / "s")])
        assert code == 2
        assert "config error: ks_values: " in capsys.readouterr().err
