from __future__ import annotations

import json
import math
import re
import tempfile
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dsrnet import analysis, harness
from dsrnet.cli import main
from dsrnet.dsr_core import Trajectory
from dsrnet.harness import (
    EXPERIMENT_KINDS,
    NAMED_LEADERS,
    ConfigError,
    ExperimentConfig,
    _DEFAULTS,
    _auto_stride,
    _confirmed_run,
    _metrics_report,
    _resolve_topology,
    _source,
    _unused_keys,
    _validate,
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

# a 5x5 lattice led from one agent in from a corner, Ks = 100; a run of 600 steps
_STEP = "experiment = lattice-info\nrows = 5\ncols = 5\nleader = 6\nks = 100\ndt = 0.01\n"
_STEP_RUN = _STEP + "beta = 0.96\nn_steps = 600\n"


def _run_config(out, text, *sweep):
    """``dsrnet run`` (or ``sweep`` with the ``sweep`` arguments) of a config
    of ``text`` under ``out``; returns the output directory."""
    out.mkdir(parents=True, exist_ok=True)
    (out / "c.cfg").write_text(text)
    command = ["sweep", *sweep] if sweep else ["run"]
    assert main([*command, "--config", str(out / "c.cfg"), "--out", str(out / "o")]) == 0
    return out / "o"


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

    @pytest.mark.parametrize(
        "extra, bad",
        [
            ("leader = 624\n", False),  # the default lattice is 25 x 25
            ("leader = 625\n", True),
            ("leader = -1\n", True),
            ("rows = 3\ncols = 4\nleader = 12\n", True),
            ("topology = disc\nseed = 1\nn_agents = 5\nleader = 4\n", False),
            ("topology = disc\nseed = 1\nn_agents = 5\nleader = 5\n", True),
            ("topology = disc\nseed = 1\nleader = corner\n", True),
            ("topology = disc\nseed = 1\nleader = center\n", False),
        ],
    )
    def test_leader_is_checked_against_the_topology(self, extra, bad):
        text = MINIMAL + extra
        if bad:
            with pytest.raises(ConfigError) as err:
                parse_config(text)
            assert [v for v in err.value.violations if v.startswith("leader: ")]
        else:
            parse_config(text)

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

    def test_bytes_match_per_value_format(self, tmp_path):
        # the block formatter must give exactly the text of format(v, ".9g")
        # for every value, the "%.9g" text the delays and sweep writers use
        rng = np.random.default_rng(23)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                   2.2250738585072014e-308, 1e-310, 1.7976931348623157e308]
        magnitudes = 10.0 ** rng.uniform(-12, 12, 4000)
        signs = rng.choice([-1.0, 1.0], magnitudes.size)
        flat = np.concatenate([special, magnitudes * signs, np.round(magnitudes)])
        flat = np.resize(flat, 10 * (flat.size // 10 + 1))
        values = flat.reshape(-1, 10)
        traj = Trajectory(
            times=values[:, 0].copy(), values=values, params=None, leader_ids=(0,)
        )
        path = tmp_path / "t.csv"
        write_trajectory_csv(traj, path)
        header = ",".join(["t"] + [f"agent_{i}" for i in range(10)])
        rows = [
            format(t, ".9g") + "," + ",".join(format(v, ".9g") for v in row)
            for t, row in zip(traj.times, traj.values)
        ]
        assert path.read_text() == "\n".join([header] + rows) + "\n"
        assert all("%.9g" % v == format(v, ".9g") for v in flat.tolist())

    @pytest.mark.parametrize("rows, agents", [(2000, 9), (5, 9000)])
    def test_rows_span_blocks(self, tmp_path, rows, agents):
        # several rows per formatted block, and rows wider than a block
        rng = np.random.default_rng(rows)
        values = rng.standard_normal((rows, agents)) * 10.0 ** rng.integers(-6, 7, agents)
        traj = Trajectory(np.arange(rows) * 0.01, values, None, (0,))
        path = tmp_path / "t.csv"
        write_trajectory_csv(traj, path)
        lines = path.read_text().split("\n")
        assert len(lines) == rows + 2 and lines[-1] == ""
        for t, row, line in zip(traj.times.tolist(), values.tolist(), lines[1:]):
            assert line == ",".join("%.9g" % v for v in [t] + row)

    def test_rows_are_streamed_not_built_whole(self, tmp_path):
        # a writer that joins its rows holds the list and the join, at least
        # twice the file; streaming holds one row and the file buffer
        traj = self.make_trajectory(2000, 999)
        path = tmp_path / "t.csv"
        tracemalloc.start()
        try:
            write_trajectory_csv(traj, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 8

    @pytest.mark.parametrize(
        "rows, stride, kept",
        [(11, 4, [0, 4, 8, 10]), (9, 4, [0, 4, 8]), (1, 3, [0]), (2, 5, [0, 1]), (5, 1, None)],
    )
    def test_stride_keeps_first_and_last_rows(self, tmp_path, rows, stride, kept):
        traj = self.make_trajectory(rows, 2)
        write_trajectory_csv(traj, tmp_path / "t.csv", stride)
        lines = (tmp_path / "t.csv").read_text().splitlines()[1:]
        kept = list(range(rows)) if kept is None else kept
        assert [line.split(",")[0] for line in lines] == ["%.9g" % traj.times[k] for k in kept]
        assert lines[-1] == ",".join("%.9g" % v for v in [traj.times[-1], *traj.values[-1]])

    @pytest.mark.parametrize("rows, agents, stride", [(2000, 9, 7), (41, 300, 4), (3, 5000, 2)])
    def test_stride_rows_are_the_kept_rows_written_whole(self, tmp_path, rows, agents, stride):
        # the rows gathered a block at a time give the bytes of writing the
        # kept rows, values[keep], as a trajectory of their own
        rng = np.random.default_rng(agents)
        values = rng.standard_normal((rows, agents)) * 10.0 ** rng.integers(-6, 7, agents)
        traj = Trajectory(np.arange(rows) * 0.01, values, None, (0,))
        keep = np.unique(np.append(np.arange(0, rows, stride), rows - 1))
        write_trajectory_csv(traj, tmp_path / "strided.csv", stride)
        kept = Trajectory(traj.times[keep], values[keep], None, (0,))
        write_trajectory_csv(kept, tmp_path / "kept.csv")
        assert (tmp_path / "strided.csv").read_bytes() == (tmp_path / "kept.csv").read_bytes()

    def test_stride_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="stride"):
            write_trajectory_csv(self.make_trajectory(3, 2), tmp_path / "t.csv", 0)
        assert not (tmp_path / "t.csv").exists()


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

    def test_diffusion_ignores_beta(self, tmp_path):
        # the one accepted key a run never reads: the manifest echoes it
        first, _ = run_preset("fig3a_diffusion", out_dir=tmp_path / "a")
        cfg = replace(preset_catalog()["fig3a_diffusion"], beta=0.5)
        second, _ = run_config(cfg, tmp_path / "b")
        for name in ("trajectory", "metrics"):
            assert first[name].read_bytes() == second[name].read_bytes()
        assert "beta = 0.5" in second["manifest"].read_text()

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


    def test_sweep_csv_bytes(self, tmp_path):
        # Ks = 50 is stable but does not settle within the probed horizon;
        # an unsettled and a diverged column both leave the settling cell empty
        config = tmp_path / "sweep.cfg"
        config.write_text(
            "experiment = stability-sweep\nrows = 5\ncols = 5\nleader = 6\n"
            "ks_values = 50,100,1e9\n"
        )
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "sweep.csv").read_bytes() == (
            b"ks,verdict,settling_time_s\n50,stable,\n100,stable,4.53\n1e+09,diverged,\n"
        )

class TestConfirmedRun:
    @pytest.mark.parametrize(
        "model",
        [
            # grows to the configured max_steps without settling
            "experiment = lattice-info\nks = 100\nbeta = 0\n",
            # settles at step 77, then grows straight to 1.5 times that
            "experiment = lattice-info\nks = 100\nbeta = 0.9\n",
            # doubles until settling is confirmed at step 800
            "experiment = continuum-diffusion\nks = 100\nbeta = 0.5\nrecord_every = 3\n"
            "max_steps = 100000\n",
            # diverges after its horizon has doubled six times
            "experiment = continuum-second-order\nks = 100\nbeta = 0.96\n"
            "integrator_dt = 0.001\nrecord_every = 7\nmax_steps = 100000\n",
            # settles on the recorded rows, then grows to confirm it
            "experiment = lattice-info\nks = 100\nbeta = 0.9\nrecord_every = 4\n",
        ],
        ids=[
            "dsr-max-steps", "dsr-settles", "diffusion", "second-order-diverges",
            "dsr-record-every",
        ],
    )
    def test_extended_run_matches_a_fresh_run_of_its_final_length(self, tmp_path, model):
        text = "rows = 5\ncols = 5\nleader = 6\ndt = 0.01\nn_steps = 50\n" + model
        first, _ = run_config(parse_config(text), tmp_path / "extended")
        manifest = parse_config(first["manifest"].read_text())
        assert manifest.n_steps > 50  # the horizon grew past the configured one
        second, _ = run_config(manifest, tmp_path / "fresh")
        for name, path in first.items():
            assert path.read_bytes() == second[name].read_bytes(), name

    def test_horizon_does_not_depend_on_the_units_of_dt(self, tmp_path):
        # one run in steps (Ks * dt = 1) at two time scales: both settle at
        # step 172 and grow to one step past 1.5 times that
        lines = []
        for scale in ("dt = 0.01\nks = 100\n", "dt = 1e-20\nks = 1e20\n"):
            text = (
                "experiment = lattice-info\nrows = 15\ncols = 15\nleader = 16\n"
                "beta = 0.96\nn_steps = 200\n" + scale
            )
            paths, _ = run_config(parse_config(text), tmp_path / str(len(lines)))
            assert parse_config(paths["manifest"].read_text()).n_steps == 259
            lines.append(len(paths["trajectory"].read_text().splitlines()))
        assert lines == [1 + 260, 1 + 260]

    def test_zero_horizon_still_grows_to_max_steps(self, tmp_path):
        # a horizon of 0 steps used to double to 0 forever
        text = "experiment = lattice-info\nrows = 3\ncols = 3\nn_steps = 0\nmax_steps = 8\n"
        paths, report = run_config(parse_config(text), tmp_path)
        assert parse_config(paths["manifest"].read_text()).n_steps == 8
        assert report.settling_time is None

    @pytest.mark.parametrize(
        "experiment",
        [
            "lattice-info",
            "continuum-diffusion",
            "continuum-second-order\nbeta = 0.96\nintegrator_dt = 0.001",
            "flocking",
        ],
        ids=["lattice-info", "continuum-diffusion", "continuum-second-order", "flocking"],
    )
    def test_zero_step_run_replays_from_its_manifest(self, tmp_path, experiment):
        # the manifest of a 0-step run echoes max_steps = 0, which must parse
        config = tmp_path / "zero.cfg"
        config.write_text(f"experiment = {experiment}\nrows = 3\ncols = 3\nn_steps = 0\n")
        first, replay = tmp_path / "first", tmp_path / "replay"
        assert main(["run", "--config", str(config), "--out", str(first)]) == 0
        manifest = first / "manifest.cfg"
        assert parse_config(manifest.read_text()).max_steps == 0
        assert main(["run", "--config", str(manifest), "--out", str(replay)]) == 0
        names = sorted(path.name for path in first.iterdir())
        assert names == sorted(path.name for path in replay.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (replay / name).read_bytes(), name

    def test_metrics_and_csv_read_the_record_in_bounded_blocks(self, tmp_path):
        # a 2,001 x 1,600 record (25.6 MB): the metrics reduce it, and the
        # CSV gathers its stride rows, a small block at a time, with no
        # temporary that grows with the record
        cfg = parse_config(
            "experiment = lattice-info\nrows = 40\ncols = 40\nks = 100\nbeta = 0.96\n"
            "n_steps = 2000\nmax_steps = 2000\n"
        )
        topology, leader = _resolve_topology(cfg)
        traj, _ = _confirmed_run(cfg, topology, 2000, 2000)
        assert traj.values.shape == (2001, 1600)
        tracemalloc.start()
        try:
            delays = analysis.threshold_delay(traj, _source(cfg))
            report = _metrics_report(cfg, topology, leader, traj, delays)
            write_trajectory_csv(traj, tmp_path / "t.csv", _auto_stride(len(traj.values)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        assert len(report.per_agent_delay) == 1600
        assert len((tmp_path / "t.csv").read_text().splitlines()) == 1 + 1001


class TestMetricsReport:
    def test_fits_read_only_the_near_leader_pairs_of_positive_finite_delay(self):
        # 5x5 lattice led from its center (agent 12): the cutoff is a third of
        # the 4*sqrt(2) m diagonal, 1.89 m, so agents at 1 m and sqrt(2) m are
        # near and the four at 2 m are not
        cfg = parse_config("experiment = lattice-info\nrows = 5\ncols = 5\nleader = center\n")
        topology, leader = _resolve_topology(cfg)
        assert leader == 12
        distances = np.hypot(*(topology.positions - topology.positions[12]).T)
        delays = 0.02 * distances * (1.0 + 0.1 * np.sin(np.arange(25.0)))
        delays[12] = 0.5  # the leader, d = 0, with a delay that would count
        delays[[7, 11, 6, 8]] = [np.nan, np.inf, 0.0, -0.01]  # near, but no delay
        assert distances[2] == 2.0  # beyond the cutoff with a valid delay
        traj = Trajectory(np.array([0.0, 0.01]), np.zeros((2, 25)), None, (12,))

        report = _metrics_report(cfg, topology, leader, traj, delays)

        kept = [(float(distances[i]), float(delays[i])) for i in (13, 16, 17, 18)]
        assert report.transfer_speed == analysis.transfer_speed(kept)
        assert report.scaling_exponent == analysis.fit_scaling_exponent(kept)
        widened = kept + [(float(distances[2]), float(delays[2]))]
        assert report.transfer_speed != analysis.transfer_speed(widened)
        np.testing.assert_array_equal(report.per_agent_delay, np.column_stack((distances, delays)))
        assert all(type(value) is float for pair in report.per_agent_delay for value in pair)

    def test_a_run_without_delays_reports_no_pairs_and_no_fits(self):
        cfg = parse_config("experiment = lattice-info\nrows = 3\ncols = 3\n")
        topology, leader = _resolve_topology(cfg)
        traj = Trajectory(np.array([0.0]), np.zeros((1, 9)), None, (leader,))
        report = _metrics_report(cfg, topology, leader, traj, None)
        assert report.per_agent_delay == []
        assert report.transfer_speed is None and report.scaling_exponent is None


# Agents 1 m apart with a 0.9 m sensing radius: no agent has a neighbor.
_SPACED_OUT = "rows = 5\ncols = 5\nleader = 6\nsensing_radius = 0.9\n"
_DISC = "experiment = lattice-info\ntopology = disc\nleader = center\nseed = 1\n"


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

    def test_a_fit_over_equal_distances_calls_no_lapack(self, tmp_path, capfd):
        # every near pair of a 3x3 lattice led from its centre lies at 1 m,
        # where a log-log fit is undefined; LAPACK reports its errors on stdout
        out = _run_config(
            tmp_path,
            "experiment = lattice-info\nrows = 3\ncols = 3\nleader = center\nbeta = 0.5\n"
            "n_steps = 300\nnear_fraction = 0.4\n",
        )
        captured = capfd.readouterr()
        assert captured.err == "" and "DLASCL" not in captured.out
        assert json.loads((out / "metrics.json").read_text())["scaling_exponent"] is None

    def test_unknown_preset_fails(self, tmp_path, capsys):
        assert main(["run", "--preset", "fig9", "--out", str(tmp_path)]) == 2
        assert "unknown preset" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, line",
        [
            ("beta = 3\n", "beta: must lie in [0, 1); gains >= 1 leave the update undamped"),
            ("rows\n", "line 2: expected 'key = value'"),
            ("ks = abc\n", "ks: cannot parse value 'abc'"),
            ("topology = ring\n", "topology: must be one of lattice, disc"),
            ("rows = 0\n", "rows: must be at least 1"),
            ("cols = 0\n", "cols: must be at least 1"),
        ],
        ids=["beta", "bare-key", "ks-unparsable", "topology", "rows", "cols"],
    )
    def test_invalid_config_reports_violations(self, tmp_path, capsys, config, line):
        path = tmp_path / "bad.cfg"
        path.write_text("experiment = lattice-info\n" + config)
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"config error: {line}\n"

    def test_sweep_command(self, tmp_path, capsys):
        text = "experiment = lattice-info\nrows = 7\ncols = 7\nks = 100\nbeta = 0\ndt = 0.01\n"
        _run_config(tmp_path, text + "n_steps = 4000\n", "--ks", "100,101")
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

    @pytest.mark.parametrize(
        "key, value",
        [("ks", "1e31"), ("dt", "1e-31"), ("source_final", "-2e30"), ("ks_values", "1,1e40")],
    )
    def test_float_beyond_supported_magnitude_exits_2(self, tmp_path, capsys, key, value):
        config = tmp_path / "bad.cfg"
        config.write_text(f"experiment = lattice-info\nn_steps = 10\n{key} = {value}\n")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {key}: must be 0 or of magnitude" in capsys.readouterr().err

    def test_float_magnitude_bounds_are_inclusive(self):
        cfg = parse_config(MINIMAL + "source_final = 1e30\nsource_initial = -1e-30\nnoise = 0\n")
        assert (cfg.source_final, cfg.source_initial, cfg.noise) == (1e30, -1e-30, 0.0)

    def test_input_too_large_for_memory_exits_2(self, tmp_path, capsys):
        # the record of 10**15 steps of 9 agents (64 PiB) exceeds any address space
        config = tmp_path / "big.cfg"
        config.write_text(f"experiment = lattice-info\nrows = 3\ncols = 3\nn_steps = {10**15}\n")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: Unable to allocate")

    def test_disc_without_agents_exits_2(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("experiment = lattice-info\ntopology = disc\nseed = 1\nn_agents = 0\n")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert "config error: n_agents: " in capsys.readouterr().err

    def test_matrix_csvs_share_one_writer(self, tmp_path, monkeypatch):
        # the radial acceleration goes through write_trajectory_csv too, so
        # whatever wraps that function sees every matrix CSV
        written = []
        original = harness.write_trajectory_csv

        def recorded(traj, path, *stride):
            written.append((Path(path).name, traj.values.shape, *stride))
            original(traj, path, *stride)

        monkeypatch.setattr(harness, "write_trajectory_csv", recorded)
        cfg = parse_config("experiment = flocking\nrows = 5\ncols = 5\nleader = 6\nn_steps = 6\n")
        paths, _ = run_config(cfg, tmp_path)
        assert written == [("radial_acceleration.csv", (5, 25)), ("trajectory.csv", (7, 25), 1)]
        assert len(paths["radial_acceleration"].read_text().splitlines()) == 6

    def test_two_step_flocking_run_gives_undefined_lags(self, tmp_path, capsys):
        # the radial acceleration then has a single row to correlate
        out = _run_config(
            tmp_path,
            "experiment = flocking\nrows = 5\ncols = 5\nleader = 6\nn_steps = 2\n"
        )
        assert len((out / "radial_acceleration.csv").read_text().splitlines()) == 2
        delays = (out / "delays.csv").read_text().splitlines()
        assert len(delays) == 26
        assert all(line.endswith(",") for line in delays[1:])
        for path in out.iterdir():
            assert not _NON_FINITE_TEXT.search(path.read_text()), path.name

    def test_diffusion_runs_without_reinforcement(self, tmp_path):
        out = _run_config(
            tmp_path,
            "experiment = continuum-diffusion\nrows = 5\ncols = 5\nbeta = 0\nn_steps = 10\n"
        )
        assert parse_config((out / "manifest.cfg").read_text()).beta == 0.0
        json.loads((out / "metrics.json").read_text(), parse_constant=_reject_constant)

    @pytest.mark.parametrize(
        "experiment", [k for k in EXPERIMENT_KINDS if k != "continuum-second-order"]
    )
    def test_integrator_dt_only_for_second_order(self, tmp_path, capsys, experiment):
        # diffusion steps at dt: an integrator_dt would be echoed, never used
        config = tmp_path / "bad.cfg"
        config.write_text(
            f"experiment = {experiment}\nks_values = 100\nn_steps = 10\n"
            "integrator_dt = 0.0001\n"
        )
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert "config error: integrator_dt: " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "experiment, key, value",
        [
            ("lattice-info", "ks_values", "100"),
            ("flocking", "record_every", "2"),
            ("flocking", "ks_values", "100"),
            ("continuum-second-order", "noise", "0.5"),
            ("continuum-second-order", "ks_values", "100"),
            ("continuum-diffusion", "noise", "0.5"),
            ("continuum-diffusion", "ks_values", "100"),
            ("stability-sweep", "record_every", "2"),
            ("stability-sweep", "max_steps", "10"),
            ("stability-sweep", "csv_stride", "1"),
        ],
    )
    def test_key_an_experiment_cannot_use_exits_2(
        self, tmp_path, capsys, experiment, key, value
    ):
        # the manifest would echo the key while the run ignored it
        required = {
            "continuum-second-order": "beta = 0.5\nintegrator_dt = 0.001\n",
            "stability-sweep": "ks_values = 100\n",
        }
        base = f"experiment = {experiment}\nn_steps = 10\nseed = 1\n"
        base += required.get(experiment, "")
        parse_config(base)
        config = tmp_path / "bad.cfg"
        config.write_text(base + f"{key} = {value}\n")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {key}: " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "config, key, held",
        [
            ("experiment = lattice-info\nspeed = 3\n", "speed", "10.0"),
            ("experiment = lattice-info\ntarget_heading = 9\n", "target_heading",
             repr(math.pi / 2)),
            ("experiment = flocking\nsource_initial = 2\n", "source_initial", "0.0"),
            ("experiment = flocking\nsource_final = 7\n", "source_final", "1.0"),
            ("experiment = continuum-diffusion\ninitial_heading = 0\n", "initial_heading",
             repr(-math.pi / 4)),
            (_DISC + "rows = 3\n", "rows", "25"),
            (_DISC + "spacing = 7\n", "spacing", "1.0"),
            ("experiment = lattice-info\nn_agents = 999\n", "n_agents", "225"),
            ("experiment = lattice-info\ndisc_sampling = literal\n", "disc_sampling", "area"),
            ("experiment = lattice-info\ndisc_radius = 3\n", "disc_radius", repr(25.0 / 3.0)),
        ],
    )
    def test_key_the_run_cannot_read_exits_2_naming_its_default(
        self, tmp_path, capsys, config, key, held
    ):
        # the manifest would echo the value while the run ignored it
        path = tmp_path / "bad.cfg"
        path.write_text(config + "n_steps = 10\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {key}: must be {held} for " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_sweep_of_a_flocking_preset_exits_2_naming_speed(self, tmp_path, capsys):
        # a sweep steps the 0 -> 1 source, not the preset's heading turn
        code = main(["sweep", "--preset", "fig2_lattice", "--ks", "100", "--out", str(tmp_path)])
        assert code == 2
        assert "config error: speed: must be 10.0 for stability-sweep" in capsys.readouterr().err

    def test_lattice_info_records_every_record_every_th_step(self, tmp_path):
        out = _run_config(
            tmp_path,
            "experiment = lattice-info\nrows = 5\ncols = 5\nleader = 6\nn_steps = 20\n"
            "max_steps = 20\nrecord_every = 5\ncsv_stride = 1\n"
        )
        rows = (out / "trajectory.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["0", "0.05", "0.1", "0.15", "0.2"]

    def test_flocking_steps_at_most_max_steps(self, tmp_path):
        out = _run_config(
            tmp_path,
            "experiment = flocking\nrows = 5\ncols = 5\nleader = 6\nn_steps = 30\n"
            "max_steps = 3\n"
        )
        assert len((out / "trajectory.csv").read_text().splitlines()) == 1 + 4
        manifest = parse_config((out / "manifest.cfg").read_text())
        assert (manifest.n_steps, manifest.max_steps) == (3, 3)

    @pytest.mark.parametrize(
        "experiment, placement",
        [
            ("lattice-info", _SPACED_OUT),
            ("flocking", _SPACED_OUT),
            ("continuum-diffusion", _SPACED_OUT),
            ("stability-sweep", _SPACED_OUT + "ks_values = 100\n"),
            # the end agents of a row have one neighbor; a flock needs two
            ("flocking", "rows = 1\ncols = 5\n"),
        ],
        ids=["lattice-info", "flocking", "continuum-diffusion", "stability-sweep", "flock-row"],
    )
    def test_disconnected_placement_exits_2_naming_sensing_radius(
        self, tmp_path, capsys, experiment, placement
    ):
        config = tmp_path / "sparse.cfg"
        config.write_text(f"experiment = {experiment}\nn_steps = 10\n" + placement)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert "config error: sensing_radius: " in capsys.readouterr().err

    def test_zero_final_value_settles_in_a_band_of_the_step(self, tmp_path):
        # a band relative to the final value would be empty here; it is
        # 2 % of the step from 1 to 0 instead. The agents rest on 1 until
        # the switch at 0.5 s, then settle as after the unit step (2.23 s)
        out = _run_config(
            tmp_path,
            "experiment = lattice-info\nrows = 5\ncols = 5\nleader = 6\nbeta = 0.5\n"
            "source_initial = 1\nsource_final = 0\nswitch_step = 50\nn_steps = 1000\n"
        )
        settled = json.loads((out / "metrics.json").read_text())["settling_time_s"]
        assert settled == pytest.approx(2.73)
        assert parse_config((out / "manifest.cfg").read_text()).n_steps == 1000

    @pytest.mark.parametrize(
        "initial, final, switch",
        [("0.5", "1", "50"), ("1", "0", "50"), ("2", "1", "0"), ("0", "2", "50")],
        ids=["half-step-later", "falling-to-zero", "falling", "double-step-later"],
    )
    def test_delays_measure_the_step_whatever_its_levels_and_switch(
        self, tmp_path, initial, final, switch
    ):
        # a run starts at rest on source_initial, so the delays of any step
        # are those of the unit step at step 0: the switch only shifts every
        # crossing, and the levels scale and shift every value
        base = "experiment = lattice-info\nrows = 5\ncols = 5\nleader = 6\nbeta = 0.5\n"
        step = f"source_initial = {initial}\nsource_final = {final}\nswitch_step = {switch}\n"
        unit = _run_config(tmp_path / "unit", base)
        out = _run_config(tmp_path / "step", base + step)
        assert (out / "delays.csv").read_bytes() == (unit / "delays.csv").read_bytes()

    def test_falling_turn_overshoots_below_its_target(self, tmp_path):
        # a turn from pi down to pi/2: the headings start above the target,
        # and only their dip below it is overshoot
        out = _run_config(
            tmp_path,
            "experiment = flocking\nrows = 15\ncols = 15\nleader = 16\nks = 100\n"
            f"beta = 0.96\nspeed = 5\nn_steps = 400\ninitial_heading = {math.pi!r}\n"
            f"target_heading = {math.pi / 2!r}\n",
        )
        headings = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)[:, 1:]
        dip = (math.pi / 2 - headings.min()) / (math.pi / 2)
        overshoot = json.loads((out / "metrics.json").read_text())["overshoot"]
        assert overshoot == pytest.approx(dip, rel=1e-7)
        assert overshoot == pytest.approx(0.02358, abs=1e-5)

    @pytest.mark.parametrize("source_final", ["1e5", "1e7"])
    def test_divergence_limit_scales_with_the_source(self, tmp_path, source_final):
        # against a fixed limit of 1e6 the stable run of the 1e7 step would
        # read as diverged
        out = _run_config(tmp_path, _STEP_RUN + f"source_final = {source_final}\n")
        metrics = json.loads((out / "metrics.json").read_text())
        assert not metrics["diverged"] and metrics["settling_time_s"] == 2.05

    @pytest.mark.parametrize("source_final", ["-1", "2"])
    def test_delay_threshold_is_a_tenth_of_the_step(self, tmp_path, source_final):
        # negating or doubling the step negates or doubles every value
        # exactly, and the threshold with it
        unit = _run_config(tmp_path / "unit", _STEP_RUN)
        out = _run_config(tmp_path / "other", _STEP_RUN + f"source_final = {source_final}\n")
        for name in ("metrics.json", "delays.csv"):
            assert (out / name).read_bytes() == (unit / name).read_bytes()

    def test_sweep_verdicts_do_not_depend_on_the_step_size(self, tmp_path):
        # at beta = 0 a step of 2**24 scales every value exactly, so the
        # probed horizon and every verdict stay those of a unit step
        ks = ["--ks", "50,90,99,101,105,110"]
        outs = [
            _run_config(tmp_path / final, _STEP + f"beta = 0\nsource_final = {final}\n", *ks)
            for final in ("1", "16777216")
        ]
        assert [parse_config((o / "manifest.cfg").read_text()).n_steps for o in outs] == [906] * 2
        assert (outs[0] / "sweep.csv").read_bytes() == (outs[1] / "sweep.csv").read_bytes()

    def test_edge_midpoint_leader_of_a_lattice(self, tmp_path):
        text = "experiment = lattice-info\nrows = 4\ncols = 5\nleader = edge-midpoint\nn_steps = 9\n"
        assert "leader = 2\n" in (_run_config(tmp_path, text) / "manifest.cfg").read_text()

    def test_sweep_override_is_validated(self, tmp_path, capsys):
        code = main(["sweep", "--preset", "fig1b", "--ks", "100,nan", "--out", str(tmp_path / "s")])
        assert code == 2
        assert "config error: ks_values: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "ks, message",
        [("abc", "cannot parse value 'abc'"), (",", "--ks must list at least one value")],
        ids=["abc", "no-value"],
    )
    def test_unparsable_sweep_override_names_its_key(self, tmp_path, capsys, ks, message):
        code = main(["sweep", "--preset", "fig1b", "--ks", ks, "--out", str(tmp_path / "s")])
        assert code == 2
        assert capsys.readouterr().err == f"config error: ks_values: {message}\n"


def _mostly(typical, wild):
    """Draws from ``typical`` nineteen times in twenty, else from ``wild``."""
    return st.integers(0, 19).flatmap(lambda i: wild if i == 19 else typical)


def _config_strategy(wild, count):
    """ExperimentConfig values drawn field by field: every float from a few
    typical values or, now and then, from ``wild``; step counts from
    ``count``."""
    positive = _mostly(st.sampled_from([0.01, 0.5, 1.0, 1.2, 2.0, 100.0]), wild)
    real = _mostly(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 1.57]), wild)
    # wild step counts are at most 0, so invalid but for a max_steps of 0 (a
    # run of no steps); a huge max_steps is a valid request for a run as long
    # as it names, which no test can afford
    maybe = _mostly(st.none() | count, st.integers(-(10**12), 0))
    drawn = dict(
        experiment=st.sampled_from(EXPERIMENT_KINDS),
        topology=st.sampled_from(["lattice", "disc"]),
        rows=st.integers(1, 4),
        cols=st.integers(1, 4),
        spacing=positive,
        n_agents=st.integers(1, 12),
        disc_radius=positive,
        disc_sampling=st.sampled_from(["area", "literal"]),
        sensing_radius=positive,
        leader=st.sampled_from(NAMED_LEADERS) | st.integers(-1, 16).map(str),
        ks=positive,
        beta=_mostly(st.sampled_from([0.0, 0.5, 0.9, 0.96]), wild),
        dt=positive,
        noise=_mostly(st.sampled_from([0.0, 0.0, 0.02]), wild),
        source_initial=real,
        source_final=real,
        switch_step=st.integers(0, 50),
        speed=positive,
        initial_heading=real,
        target_heading=real,
        record_every=st.integers(1, 5),
        n_steps=count,
        max_steps=maybe,
        csv_stride=maybe,
        seed=_mostly(st.integers(0, 2**32), st.none()),
        ks_values=st.lists(positive, max_size=3).map(tuple),
        near_fraction=_mostly(st.sampled_from([1.0 / 3.0, 1.0]), wild),
        integrator_dt=_mostly(positive, st.none()),
    )
    configs = st.builds(ExperimentConfig, **drawn)

    def unused_keys(cfg):
        # a key the run cannot use mostly holds the one value it may: its default
        return {
            key: _mostly(st.just(_DEFAULTS[key]), drawn[key]) for key in _unused_keys(cfg)
        }

    return configs.flatmap(lambda cfg: st.builds(replace, st.just(cfg), **unused_keys(cfg)))


@settings(max_examples=200, suppress_health_check=[HealthCheck.filter_too_much])
@given(_config_strategy(st.floats(allow_nan=False, allow_infinity=False), st.integers(0, 10**9)))
def test_config_text_round_trips_every_valid_config(cfg):
    assume(not _validate(cfg))
    assert parse_config(config_text(cfg)) == cfg


_NON_FINITE_TEXT = re.compile(r"(?i)\b(nan|inf|infinity)\b")


def _reject_constant(token):
    raise ValueError(f"non-finite JSON number {token}")


@settings(max_examples=100, deadline=None)
@given(_config_strategy(st.floats(), st.integers(0, 60)))
def test_any_config_is_rejected_or_writes_finite_artifacts(cfg):
    # a run, not only the parser, is what must not write a non-finite value
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "run.cfg"
        config.write_text(config_text(cfg))
        out = Path(tmp) / "out"
        code = main(["run", "--config", str(config), "--out", str(out)])
        if code == 2:
            return
        assert code in (0, 3)
        written = sorted(out.iterdir())
        assert written
        # the manifest replays the run: parse_config raises if it is invalid
        parse_config((out / "manifest.cfg").read_text())
        for path in written:
            text = path.read_text()
            if path.suffix == ".json":
                json.loads(text, parse_constant=_reject_constant)
            else:
                assert not _NON_FINITE_TEXT.search(text), path.name
