from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from dsrnet import dsr_core
from dsrnet.continuum import (
    ContinuumParams,
    predicted_wave_speed,
    second_order_run,
    simulate_diffusion,
    simulate_second_order,
)
from dsrnet.dsr_core import _MAX_BLOCK_STEPS, DsrParams, IsolatedAgentError, StepSource, dsr_run
from dsrnet.topology import NetworkTopology

from per_agent import assert_same_run, lattice_topology, recorded_run

STEP_TO_ONE = StepSource(0.0, 1.0, 0)


def wave_params(ks, gain, dt, step, source):
    return ContinuumParams(DsrParams(ks, gain, dt, source), step)


def zero_gain(params):
    """The diffusion model's DSR params: ``params`` at zero gain."""
    return replace(params, dsr_gain=0.0)


def zero_gain_run(topology, params, initial, record_every=1):
    """The diffusion model on the DSR engine: the zero-gain run of ``params``."""
    return dsr_run(topology, [zero_gain(params)], initial, record_every=record_every)


class TestPredictedWaveSpeed:
    def test_reference_point_is_exact(self):
        assert predicted_wave_speed(1.0, 100.0, 0.01) == 50.0

    def test_zero_alignment(self):
        assert predicted_wave_speed(1.0, 0.0, 0.01) == 0.0

    def test_doubled_spacing(self):
        assert predicted_wave_speed(2.0, 100.0, 0.01) == 100.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            predicted_wave_speed(1.0, 100.0, 0.0)
        with pytest.raises(ValueError):
            predicted_wave_speed(1.0, -1.0, 0.01)


class TestParams:
    def test_rejects_zero_gain(self):
        # a zero gain is a valid diffusion model; only the second-order
        # model, which divides by the gain, rejects it
        dsr = DsrParams(100.0, 0.0, 0.01, STEP_TO_ONE)
        with pytest.raises(ValueError, match="dsr_gain > 0"):
            ContinuumParams(dsr, 1e-4)
        simulate_diffusion(lattice_topology(3, 3, {0}), dsr, np.zeros(9), 1)

    def test_rejects_negative_gain(self):
        with pytest.raises(ValueError):
            wave_params(100.0, -0.5, 0.01, 1e-4, STEP_TO_ONE)

    def test_rejects_gain_of_one(self):
        with pytest.raises(ValueError):
            wave_params(100.0, 1.0, 0.01, 1e-4, STEP_TO_ONE)

    def test_rejects_nonpositive_steps(self):
        with pytest.raises(ValueError):
            wave_params(100.0, 0.5, 0.0, 1e-4, STEP_TO_ONE)
        with pytest.raises(ValueError):
            wave_params(100.0, 0.5, 0.01, 0.0, STEP_TO_ONE)

    def test_rejects_noise(self):
        with pytest.raises(ValueError, match="noise_amplitude"):
            ContinuumParams(DsrParams(100.0, 0.5, 0.01, STEP_TO_ONE, 0.1), 1e-4)


class TestSecondOrderRun:
    def test_uniform_at_source_with_zero_rate_is_fixed_point(self):
        topo = lattice_topology(4, 4, {0})
        params = wave_params(100.0, 0.96, 0.01, 1e-4, StepSource(0.6, 0.6, 0))
        initial = np.full(16, 0.6)
        run = second_order_run(topo, params, initial).advance(1)
        assert np.array_equal(run.current[:, 0], initial)
        # the discrepancy of the uniform state vanishes up to rounding in
        # the neighbor-mean weights, so the rate (row 1 of the state) stays
        # at rounding scale
        rate = run.state[1]
        assert np.abs(rate).max() <= 1e-12

    def test_isolated_agent_raises_like_the_engine(self):
        positions = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
        topo = NetworkTopology.build(positions, 1.2, {0})
        params = wave_params(100.0, 0.96, 0.01, 1e-3, STEP_TO_ONE)
        with pytest.raises(IsolatedAgentError, match="agent 2"):
            second_order_run(topo, params, np.zeros(3))


class TestDiffusionRun:
    def test_chain_hand_arithmetic(self):
        positions = np.column_stack([np.arange(3.0), np.zeros(3)])
        topo = NetworkTopology.build(positions, 1.2)
        params = DsrParams(2.0, 0.5, 0.1, StepSource(0.0, 0.0, 0))
        out = simulate_diffusion(topo, params, [0.0, 0.5, 1.0], 1).values[1]
        # discrepancies are (-0.5, 0, 0.5); update subtracts Ks*dt times them
        assert out == pytest.approx([0.1, 0.5, 0.9])

    def test_isolated_agent_raises_like_the_engine(self):
        positions = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
        topo = NetworkTopology.build(positions, 1.2, {0})
        params = DsrParams(100.0, 0.0, 0.01, STEP_TO_ONE)
        with pytest.raises(IsolatedAgentError, match="agent 2"):
            simulate_diffusion(topo, params, np.zeros(3), 1)


class TestSimulators:
    def test_overdamped_limit_approaches_diffusion(self):
        # with a stable integrator step, shrinking the gain drives the
        # second-order trajectories onto the overdamped diffusion ones
        topo = lattice_topology(5, 5, {0})
        ks, dt, fine = 10.0, 0.01, 5e-5
        stride = round(dt / fine)
        diffusion = simulate_diffusion(
            topo, DsrParams(ks, 0.5, dt, STEP_TO_ONE), np.zeros(25), 100
        )
        gaps = []
        for gain in (0.2, 0.1, 0.05, 0.01):
            wave = simulate_second_order(
                topo,
                wave_params(ks, gain, dt, fine, STEP_TO_ONE),
                np.zeros(25),
                100 * stride,
                record_every=stride,
            )
            rows = min(len(wave.values), len(diffusion.values))
            gaps.append(np.abs(wave.values[:rows] - diffusion.values[:rows]).max())
        assert gaps[0] > gaps[1] > gaps[2] > gaps[3]

    def test_stability_is_monotone_in_integrator_step(self):
        topo = lattice_topology(15, 15, {16})
        n = 225

        def diverges(step, horizon=2.0):
            params = wave_params(100.0, 0.96, 0.01, step, STEP_TO_ONE)
            traj = simulate_second_order(
                topo, params, np.zeros(n), int(horizon / step), record_every=100
            )
            return traj.diverged

        assert not diverges(1.246e-4)
        assert not diverges(1.246e-4 / 2.0)

    def test_rejects_bad_run_arguments(self):
        topo = lattice_topology(3, 3, {0})
        params = wave_params(100.0, 0.96, 0.01, 1e-4, STEP_TO_ONE)
        with pytest.raises(ValueError):
            simulate_second_order(topo, params, np.zeros(9), -1)
        with pytest.raises(ValueError):
            simulate_second_order(topo, params, np.zeros(9), 10, record_every=0)
        with pytest.raises(ValueError):
            simulate_diffusion(topo, params.dsr, np.zeros(4), 10)


B = _MAX_BLOCK_STEPS  # the engine's block length at the small n used here


STEP_COUNTS = [0, 1, B - 1, B, B + 1, 2 * B + 3]
STRIDES = [1, 3, B, 80]


def long_wave_run():
    """3,000 steps of the wave model at fig3b_unstable's integrator step on a
    5x5 lattice, led from one agent in from a corner."""
    params = wave_params(100.0, 0.5, 0.01, 2.493e-4, STEP_TO_ONE)
    return lattice_topology(5, 5, {6}), params, np.zeros(25), 3000


class TestEngineMatchesStepLoop:
    """Both continuum simulators against the per-agent oracle, bit for bit,
    including the recorded steps and the divergence step."""

    @pytest.mark.parametrize("n_steps", STEP_COUNTS)
    @pytest.mark.parametrize("record_every", STRIDES)
    def test_second_order_step_counts(self, n_steps, record_every):
        topo = lattice_topology(3, 3, {0})
        params = wave_params(
            100.0, 0.96, 0.01, 1e-3, StepSource(0.2, 1.0, B + 6)
        )
        initial = np.linspace(-0.5, 0.5, 9)
        expected = recorded_run(topo, params, initial, n_steps, record_every)
        traj = simulate_second_order(topo, params, initial, n_steps, record_every)
        assert_same_run(traj, expected)

    @pytest.mark.parametrize("n_steps", STEP_COUNTS)
    @pytest.mark.parametrize("record_every", STRIDES)
    def test_diffusion_step_counts(self, n_steps, record_every):
        topo = lattice_topology(3, 3, {0})
        params = DsrParams(100.0, 0.5, 0.01, StepSource(0.2, 1.0, B + 6))
        initial = np.linspace(-0.5, 0.5, 9)
        expected = recorded_run(topo, zero_gain(params), initial, n_steps, record_every)
        traj = simulate_diffusion(topo, params, initial, n_steps, record_every)
        assert_same_run(traj, expected)

    @pytest.mark.parametrize("record_every", [1, 3])
    @pytest.mark.parametrize(
        "ks, step_size, source_final, scale, step",
        [
            (1e9, 1e-3, 1.0, 0.0, 1),  # the rate alone crosses the limit
            (100.0, 0.00835, 1.0, 0.0, 30),
            (272.0, 0.003, 0.0, 1470.0, 64),  # last step of the first block
            (266.0, 0.003, 0.0, 1190.0, 65),  # first step of the second block
            (1e300, 1e-3, 1e20, 0.0, 1),  # overflows to inf within one step
        ],
    )
    def test_second_order_divergence_step(
        self, ks, step_size, source_final, scale, step, record_every
    ):
        topo = lattice_topology(3, 3, {0})
        params = wave_params(
            ks, 0.96, 0.01, step_size, StepSource(0.0, source_final, 0)
        )
        initial = scale * np.linspace(-1.0, 1.0, 9)
        expected = recorded_run(topo, params, initial, 300, record_every)
        assert expected[2] == step
        traj = simulate_second_order(topo, params, initial, 300, record_every)
        assert_same_run(traj, expected)

    @pytest.mark.parametrize("record_every", [1, 3])
    @pytest.mark.parametrize(
        "ks, source_final, step",
        [
            (1e9, 1.0, 1),
            (144.045, 1.0, 30),
            (117.955, 1.0, 64),  # last step of the first block
            (117.66, 1.0, 65),  # first step of the second block
            (1e300, 1e20, 1),  # overflows to inf within one step
        ],
    )
    def test_diffusion_divergence_step(self, ks, source_final, step, record_every):
        topo = lattice_topology(3, 3, {0})
        params = DsrParams(ks, 0.5, 0.01, StepSource(0.0, source_final, 0))
        expected = recorded_run(topo, zero_gain(params), np.zeros(9), 300, record_every)
        assert expected[2] == step
        traj = simulate_diffusion(topo, params, np.zeros(9), 300, record_every)
        assert_same_run(traj, expected)

    def test_diffusion_keeps_negative_zero(self):
        # v - 0 * delta keeps a -0.0 that a zero-gain DSR update, which adds
        # 0 * (cur - prev), would turn into +0.0
        topo = lattice_topology(3, 3, {0})
        params = DsrParams(0.0, 0.5, 0.01, STEP_TO_ONE)
        initial = np.array([-1.0] * 4 + [-0.0] + [-1.0] * 4)
        expected = recorded_run(topo, zero_gain(params), initial, 5)
        assert np.signbit(expected[1][-1, 4])
        assert_same_run(simulate_diffusion(topo, params, initial, 5), expected)

    def test_second_order_long_run(self):
        topo, params, initial, n_steps = long_wave_run()
        assert_same_run(
            simulate_second_order(topo, params, initial, n_steps),
            recorded_run(topo, params, initial, n_steps),
        )

    def test_one_agent_leader_graph(self):
        topo = NetworkTopology.build(np.zeros((1, 2)), 1.2, {0})
        params = wave_params(50.0, 0.9, 0.01, 1e-3, StepSource(0.0, 1.0, 3))
        n_steps = 2 * B + 3
        assert_same_run(
            simulate_second_order(topo, params, np.zeros(1), n_steps, 3),
            recorded_run(topo, params, np.zeros(1), n_steps, 3),
        )
        assert_same_run(
            simulate_diffusion(topo, params.dsr, np.zeros(1), n_steps, 3),
            recorded_run(topo, zero_gain(params.dsr), np.zeros(1), n_steps, 3),
        )


def test_oracle_catches_a_reordered_discrepancy(monkeypatch):
    # values - (A @ values + pull) rounds differently from the engine's
    # (values - A @ values) - pull on the leader's row; a reference that
    # shared the engine's discrepancy function would follow the change
    def reordered(indptr, indices, weights, pull, values, out):
        n, product = len(indptr) - 1, np.zeros(values.shape)
        dsr_core._sparsetools.csr_matvecs(
            n, n, values.size // n, indptr, indices, weights, values, product
        )
        return np.subtract(values, product + pull, out=out)

    monkeypatch.setattr(dsr_core, "_discrepancy", reordered)
    # the per-step path, the one that calls _discrepancy
    monkeypatch.setattr(dsr_core, "_KERNEL_VALUES", 0)
    topo, params, initial, n_steps = long_wave_run()
    _, rows, _ = recorded_run(topo, params, initial, n_steps)
    traj = simulate_second_order(topo, params, initial, n_steps)
    assert traj.values.shape == rows.shape and traj.values.tobytes() != rows.tobytes()


class TestExtendedRun:
    """A recorded run continued to later steps against a fresh run of the
    final length, with strides that do not divide the first horizon."""

    MODELS = {
        "second-order": (second_order_run, simulate_second_order),
        "diffusion": (zero_gain_run, simulate_diffusion),
    }

    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize("record_every", [1, 3, 7, B])
    @pytest.mark.parametrize("horizons", [(10, 11), (10, 25, 26, 27), (5, B + 2, 3 * B)])
    @pytest.mark.parametrize("diverges", [False, True])
    def test_extension_equals_fresh_run(self, model, record_every, horizons, diverges):
        make_run, simulate_fresh = self.MODELS[model]
        topo = lattice_topology(3, 3, {0})
        # the diverging runs blow up at step 91 (second-order) and 46 (diffusion)
        ks = {"second-order": 20000.0, "diffusion": 130.0}[model] if diverges else 100.0
        params = wave_params(ks, 0.96, 0.01, 2.6e-4, StepSource(0.0, 1.0, 4))
        if model == "diffusion":
            params = params.dsr
        initial = np.linspace(0.0, 0.3, 9)
        run = make_run(topo, params, initial, record_every)
        for n_steps in horizons:
            traj = run.advance(n_steps).trajectory()
            fresh = simulate_fresh(topo, params, initial, n_steps, record_every)
            assert traj.diverged_step == fresh.diverged_step
            assert traj.values.tobytes() == fresh.values.tobytes()
            assert traj.times.tobytes() == fresh.times.tobytes()

    def test_handed_out_trajectory_is_not_overwritten(self):
        # steps 0, 5, 10 and the forced 11, then 0, 5, 10, 12: the same
        # number of rows, so step 12 must not go into the array of step 11
        topo = lattice_topology(3, 3, {0})
        params = DsrParams(100.0, 0.96, 0.01, STEP_TO_ONE)
        run = zero_gain_run(topo, params, np.zeros(9), record_every=5)
        first = run.advance(11).trajectory()
        kept = first.values.copy()
        second = run.advance(12).trajectory()
        assert first.values.tobytes() == kept.tobytes()
        assert second.times.tolist() == pytest.approx([0.0, 0.05, 0.1, 0.12])
