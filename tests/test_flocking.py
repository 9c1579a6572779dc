from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsrnet import dsr_core
from dsrnet.analysis import settling_time
from dsrnet.dsr_core import DsrParams, StepSource, Trajectory
from dsrnet.flocking import FlockParams, _sensing_pairs, kinematic_step, run_maneuver
from dsrnet.harness import _dsr_params, _resolve_topology, preset_catalog, write_trajectory_csv
from dsrnet.topology import NetworkTopology, build_lattice

import per_agent

TURN = dict(initial_heading=-np.pi / 4, target_heading=np.pi / 2)


def flock_params(
    beta,
    speed=5.0,
    noise=0.0,
    n_steps=300,
    initial_heading=-np.pi / 4,
    target_heading=np.pi / 2,
    ks=100.0,
):
    source = StepSource(initial_heading, target_heading, 0)
    dsr = DsrParams(ks, beta, 0.01, source, noise_amplitude=noise)
    return FlockParams(speed=speed, dsr=dsr, n_steps=n_steps)


def graph(positions, leader=0):
    """The step-0 sensing graph of agents at ``positions``, radius 1.2."""
    return NetworkTopology.build(positions, 1.2, {leader})


def coasting_steps(flock, leader):
    """The steps whose sensing graph leaves some agent other than the leader
    without neighbors."""
    return [
        k for k, pos in enumerate(flock.positions)
        if np.delete(graph(pos, leader).degrees, leader).min() == 0
    ]


class TestKinematicStep:
    def test_cardinal_headings(self):
        positions = np.zeros((2, 2))
        east = kinematic_step(positions, np.zeros(2), 3.0, 0.1)
        np.testing.assert_allclose(east, [[0.3, 0.0], [0.3, 0.0]], atol=1e-15)
        north = kinematic_step(positions, np.full(2, np.pi / 2), 3.0, 0.1)
        np.testing.assert_allclose(north[:, 1], [0.3, 0.3], atol=1e-15)
        assert np.abs(north[:, 0]).max() < 1e-12

    def test_diagonal_heading(self):
        moved = kinematic_step(
            np.zeros((1, 2)), np.array([-np.pi / 4]), 2.0, 0.5
        )
        expected = 1.0 / np.sqrt(2.0)
        assert moved[0, 0] == pytest.approx(expected, abs=1e-12)
        assert moved[0, 1] == pytest.approx(-expected, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            kinematic_step(np.zeros((2, 2)), np.zeros(3), 1.0, 0.1)


class TestRunManeuver:
    def test_unswitched_source_gives_straight_parallel_tracks(self):
        positions = build_lattice(5, 5, 1.0)
        params = flock_params(
            0.96,
            n_steps=120,
            initial_heading=0.3,
            target_heading=0.3,
        )
        flock = run_maneuver(graph(positions), params)
        assert np.all(flock.headings == 0.3)
        # rigid translation: pairwise distances preserved
        first = positions[:, None, :] - positions[None, :, :]
        last = flock.positions[-1][:, None, :] - flock.positions[-1][None, :, :]
        assert np.abs(
            np.hypot(first[..., 0], first[..., 1])
            - np.hypot(last[..., 0], last[..., 1])
        ).max() <= 1e-9

    def test_every_step_moves_exactly_speed_times_dt(self):
        positions = build_lattice(6, 6, 1.0)
        params = flock_params(0.96, n_steps=150, **TURN)
        flock = run_maneuver(graph(positions), params)
        displacement = np.diff(flock.positions, axis=0)
        magnitude = np.hypot(displacement[..., 0], displacement[..., 1])
        step = params.speed * params.dsr.update_interval
        assert np.abs(magnitude - step).max() <= 1e-12 * max(1.0, step)

    def test_requires_two_neighbors_at_start(self):
        sparse = build_lattice(3, 3, 2.0)  # spacing beyond sensing radius
        with pytest.raises(ValueError):
            run_maneuver(graph(sparse), flock_params(0.96))

    def test_record_shapes_and_times(self):
        positions = build_lattice(4, 4, 1.0)
        params = flock_params(0.5, n_steps=37, **TURN)
        flock = run_maneuver(graph(positions), params)
        assert flock.positions.shape == (38, 16, 2)
        assert flock.headings.shape == (38, 16)
        assert flock.times[-1] == pytest.approx(0.37)
        assert flock.leader_ids == (0,)
        assert not flock.diverged

    def test_far_agent_reaches_target_only_with_reinforcement(self):
        positions = build_lattice(9, 9, 1.0)
        far = 80  # opposite corner from the leader
        with_dsr = run_maneuver(graph(positions), flock_params(0.96, **TURN))
        without = run_maneuver(graph(positions), flock_params(0.0, **TURN))
        assert abs(with_dsr.headings[-1][far] - np.pi / 2) <= 0.02
        assert abs(without.headings[-1][far] - np.pi / 2) > 0.02

    def test_reinforced_turn_is_more_cohesive(self):
        positions = build_lattice(9, 9, 1.0)

        def max_distortion(flock):
            first = np.linalg.norm(
                flock.positions[0][:, None] - flock.positions[0][None], axis=-1
            )
            last = np.linalg.norm(
                flock.positions[-1][:, None] - flock.positions[-1][None], axis=-1
            )
            upper = np.triu_indices(len(first), 1)
            return float(np.max(np.abs(last[upper] - first[upper]) / first[upper]))

        with_dsr = run_maneuver(graph(positions), flock_params(0.96, **TURN))
        without = run_maneuver(graph(positions), flock_params(0.0, **TURN))
        assert max_distortion(with_dsr) < max_distortion(without)

    def test_far_corner_correlation_delay_matches_anchor(self):
        # leader one step in from a corner of the 15x15 lattice; the far
        # corner sits 13*sqrt(2) = 18.38 m away and its radial-acceleration
        # series trails the leader's by ~0.389 s
        from dsrnet.analysis import correlation_delay, radial_acceleration

        positions = build_lattice(15, 15, 1.0)
        params = flock_params(0.96, n_steps=400, **TURN)
        flock = run_maneuver(graph(positions, 16), params)
        radial = radial_acceleration(flock)
        lag = correlation_delay(radial[:, 224], radial[:, 16], 0.01)
        assert lag == pytest.approx(0.389, abs=0.021)

    def test_noisy_maneuver_is_seed_deterministic(self):
        positions = build_lattice(5, 5, 1.0)
        params = flock_params(0.96, noise=0.025, n_steps=100, **TURN)
        a = run_maneuver(graph(positions), params, seed=9)
        b = run_maneuver(graph(positions), params, seed=9)
        assert np.array_equal(a.headings, b.headings)
        assert np.array_equal(a.positions, b.positions)

    def test_rejects_bad_params(self):
        dsr = DsrParams(100.0, 0.0, 0.01, StepSource(0.0, 0.0, 0))
        with pytest.raises(ValueError):
            FlockParams(speed=0.0, dsr=dsr)
        with pytest.raises(ValueError):
            FlockParams(speed=1.0, dsr=dsr, n_steps=-1)
        # the sensing radius belongs to the graph the maneuver starts from
        with pytest.raises(ValueError):
            NetworkTopology.build(build_lattice(3, 3, 1.0), 0.0, {0})

    def test_heading_schedule_is_the_dsr_source(self):
        positions = build_lattice(4, 4, 1.0)
        source = StepSource(0.2, 0.7, 5)
        params = FlockParams(5.0, DsrParams(100.0, 0.5, 0.01, source), n_steps=20)
        flock = run_maneuver(graph(positions), params)
        assert np.all(flock.headings[:6] == 0.2)  # step k reads step k's source
        assert np.all(flock.headings[6:, 0] > 0.2)

    def test_trajectory_is_a_trajectory_of_headings(self, tmp_path):
        params = flock_params(0.96, n_steps=12)
        flock = run_maneuver(graph(build_lattice(4, 4, 1.0)), params)
        assert isinstance(flock, Trajectory)
        assert flock.headings is flock.values
        assert flock.params is params
        assert flock.n_agents == 16
        write_trajectory_csv(flock, tmp_path / "t.csv", 5)
        rows = np.loadtxt(tmp_path / "t.csv", delimiter=",", skiprows=1)
        assert rows[:, 0].tolist() == pytest.approx([0.0, 0.05, 0.1, 0.12])
        assert np.abs(rows[:, 1:] - flock.headings[[0, 5, 10, 12]]).max() < 1e-8


def _preset_flock(name, **changes):
    cfg = replace(preset_catalog()[name], **changes)
    topology, _ = _resolve_topology(cfg)
    return topology, FlockParams(cfg.speed, _dsr_params(cfg), cfg.n_steps), cfg.seed


class TestManeuverMatchesPerStepLoop:
    """run_maneuver against the per-agent per-step loop, bit for bit."""

    def assert_matches(self, topology, params, seed=None):
        flock = run_maneuver(topology, params, seed)
        positions, headings, diverged_step = per_agent.maneuver(
            topology.positions, topology.sensing_radius, topology.leader_ids,
            params, seed,
        )
        assert flock.positions.tobytes() == positions.tobytes()
        assert flock.headings.tobytes() == headings.tobytes()
        assert flock.diverged_step == diverged_step
        assert flock.diverged == (diverged_step is not None)
        assert flock.times.shape == (len(headings),)
        return flock

    def test_fig2_lattice(self):
        self.assert_matches(*_preset_flock("fig2_lattice"))

    def test_fig2_disc_noise(self):
        topology, params, seed = _preset_flock("fig2_disc_noise")
        assert seed == 7 and params.dsr.noise_amplitude > 0
        self.assert_matches(topology, params, seed)

    def test_flock_with_a_coasting_agent(self):
        # at 20 m/s the turn pulls an agent out of everyone's range for a
        # few steps mid-run; it coasts, then the run goes on
        topology = graph(build_lattice(4, 4, 1.0), 5)
        flock = self.assert_matches(topology, flock_params(0.0, speed=20.0, n_steps=60))
        coasting = coasting_steps(flock, 5)
        assert coasting and coasting[0] > 0 and coasting[-1] < 60

    def test_noisy_coasting_flock_that_diverges_mid_block(self):
        # coasting and noise on the same steps, and a divergence in the middle
        # of the engine's first block, whose later steps are computed and dropped
        topology = graph(build_lattice(4, 4, 1.0), 5)
        params = flock_params(0.5, speed=20.0, noise=0.025, ks=200.0, n_steps=300)
        flock = self.assert_matches(topology, params, seed=3)
        coasting = coasting_steps(flock, 5)
        assert len(coasting) == 15
        assert flock.diverged_step == 23 and 23 % dsr_core._MAX_BLOCK_STEPS

    def test_diverging_flock(self):
        topology = graph(build_lattice(5, 5, 1.0))
        flock = self.assert_matches(topology, flock_params(0.0, ks=300.0, n_steps=200))
        assert flock.diverged and 0 < flock.diverged_step < 200

    def test_fig2_disc_noise_at_another_seed(self):
        self.assert_matches(*_preset_flock("fig2_disc_noise", seed=3))

    def test_fast_lattice_flock_that_deforms_every_few_steps(self):
        # at 20 m/s without reinforcement the candidate graph is rebuilt on
        # most steps
        self.assert_matches(*_preset_flock("fig2_lattice", speed=20.0, beta=0.0))

    def test_fast_lattice_flock_that_diverges(self):
        flock = self.assert_matches(*_preset_flock("fig2_lattice", speed=50.0))
        assert flock.diverged_step == 116

    def test_two_coincident_lattices(self):
        positions = np.concatenate([build_lattice(4, 4, 1.0)] * 2)
        self.assert_matches(graph(positions), flock_params(0.96))


@pytest.mark.parametrize(
    "flock, expected",
    [
        (_preset_flock("fig2_lattice"), 1.89),
        (_preset_flock("fig2_disc_noise"), None),
        (_preset_flock("fig2_lattice", speed=50.0), None),  # diverges at step 116
        # no reinforcement, slow enough that the flock stays together
        ((graph(build_lattice(3, 3, 1.0)), flock_params(0.0, speed=1.0, n_steps=400), None), 1.69),
    ],
    ids=["fig2_lattice", "fig2_disc_noise", "diverging", "no-reinforcement"],
)
def test_settling_time_is_that_of_its_record(flock, expected):
    topology, params, seed = flock
    traj = run_maneuver(topology, params, seed)
    source = params.dsr.source
    record = settling_time(traj, source.final, initial_value=source.initial)
    assert (traj.settling_time is None) == (expected is None) == (record is None)
    if expected is not None:
        assert traj.settling_time == pytest.approx(expected)
        assert np.float64(traj.settling_time).tobytes() == np.float64(record).tobytes()


@pytest.mark.parametrize("name, weighings", [("fig2_lattice", 47), ("fig2_disc_noise", 400)])
def test_weights_only_a_new_graph(monkeypatch, name, weighings):
    # the run weighs its topology's own graph when it is built, which is
    # step 0's sensing graph too, then each step's graph that differs by
    # value from the step before's: few lattice steps, every later disc step
    topology, params, seed = _preset_flock(name)
    weighed, weigh = [], dsr_core._weights

    def weights(indptr, leader_ids):
        weighed.append(indptr)
        return weigh(indptr, leader_ids)

    monkeypatch.setattr(dsr_core, "_weights", weights)
    flock = run_maneuver(topology, params, seed)
    assert weighed[0] is topology.indptr
    graphs = list(_sensing_pairs(flock.positions[:-1], topology.sensing_radius))
    assert all(map(np.array_equal, graphs[0], (topology.indptr, topology.indices)))
    new = [g for last, g in zip(graphs, graphs[1:]) if not all(map(np.array_equal, g, last))]
    assert [indptr.tolist() for indptr, _ in new] == [indptr.tolist() for indptr in weighed[1:]]
    assert len(weighed) == 1 + len(new) == weighings


@st.composite
def moving_flocks(draw):
    """A flock's positions over a few steps and its sensing radius.

    Placements are lattices whose spacing equals the radius (every
    neighbor pair sits on the disc's edge), stacked copies of one lattice
    (coincident agents) or uniform draws in a box, near the origin or far
    from it. Each step moves every agent at one speed along a shared heading
    plus a per-agent deviation of drawn size, so the flock translates, turns
    or scatters.
    """
    radius = draw(st.sampled_from([0.5, 1.0, 1.2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["lattice", "coincident", "box"]))
    if kind == "box":
        n = draw(st.integers(1, 40))
        pos = rng.uniform(0.0, 4.0 * radius, size=(n, 2))
    else:
        rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        pos = build_lattice(rows, cols, radius)
        if kind == "coincident":
            pos = np.concatenate([pos] * draw(st.integers(2, 3)))
    pos = pos + draw(st.sampled_from([0.0, -1e6, 1e9])) * radius
    scatter = draw(st.sampled_from([0.0, 0.05, 0.5, np.pi]))
    track = [pos]
    for _ in range(draw(st.integers(1, 25))):
        speed = draw(st.sampled_from([0.0, 0.01, 0.1, 0.4, 1e4])) * radius
        headings = rng.uniform(-np.pi, np.pi) + scatter * rng.uniform(-1.0, 1.0, len(pos))
        track.append(kinematic_step(track[-1], headings, speed, 1.0))
    return np.array(track), radius


@settings(max_examples=150, deadline=None)
@given(moving_flocks())
def test_filtered_candidates_give_the_pairs_of_every_step(flock):
    track, radius = flock
    pairs = list(_sensing_pairs(track, radius))
    assert len(pairs) == len(track)
    for pos, (indptr, indices) in zip(track, pairs):
        expected = NetworkTopology.build(pos, radius)
        assert indptr.dtype == expected.indptr.dtype and indices.dtype == expected.indices.dtype
        assert indptr.tolist() == expected.indptr.tolist()
        assert indices.tolist() == expected.indices.tolist()
