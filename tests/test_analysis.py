from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataclasses import replace

from dsrnet import analysis
from dsrnet.analysis import (
    InfiniteSpeedError,
    SweepResult,
    UndefinedCorrelationError,
    correlation_delay,
    fit_scaling_exponent,
    overshoot,
    radial_acceleration,
    settling_horizon,
    settling_time,
    stability_sweep,
    threshold_delay,
    transfer_speed,
)
from dsrnet.continuum import ContinuumParams, second_order_run
from dsrnet.dsr_core import (
    _MAX_BLOCK_STEPS, DsrParams, StepSource, Trajectory, dsr_run, simulate,
)
from dsrnet.flocking import FlockParams, FlockTrajectory
from dsrnet.topology import NetworkTopology, build_lattice


def make_trajectory(times, values, leader_ids=(0,), diverged_step=None):
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    return Trajectory(
        times=np.asarray(times, dtype=float),
        values=values,
        params=None,
        leader_ids=tuple(leader_ids),
        diverged_step=diverged_step,
    )


def circular_flock(radius, speed, dt, n_steps):
    """Synthetic counterclockwise circular motion at constant speed."""
    t = np.arange(n_steps + 1) * dt
    angle = (speed / radius) * t
    positions = np.stack(
        [radius * np.cos(angle), radius * np.sin(angle)], axis=-1
    )[:, None, :]
    headings = (angle + np.pi / 2)[:, None]
    dsr = DsrParams(1.0, 0.0, dt, StepSource(0.0, 0.0, 0))
    params = FlockParams(speed=speed, dsr=dsr, n_steps=n_steps)
    return FlockTrajectory(
        times=t,
        values=headings,
        params=params,
        leader_ids=(0,),
        positions=positions,
    )


class TestSettlingTime:
    def test_constant_at_final_value_settles_immediately(self):
        traj = make_trajectory(np.arange(5) * 0.1, np.ones(5))
        assert settling_time(traj, 1.0) == 0.0

    def test_exponential_approach_matches_closed_form(self):
        # 1 - exp(-t) enters the 2% band at -ln(0.02) = 3.912...
        times = np.arange(0.0, 8.0, 0.001)
        traj = make_trajectory(times, 1.0 - np.exp(-times))
        assert settling_time(traj, 1.0) == pytest.approx(3.9120, abs=2e-3)

    def test_never_settles_returns_none(self):
        times = np.arange(10) * 0.1
        traj = make_trajectory(times, np.linspace(0.0, 0.5, 10))
        assert settling_time(traj, 1.0) is None

    def test_diverged_returns_none(self):
        traj = make_trajectory([0.0, 0.1], [1.0, 1.0], diverged_step=1)
        assert settling_time(traj, 1.0) is None

    def test_late_band_exit_counts(self):
        times = np.arange(6) * 1.0
        values = np.array([0.0, 1.0, 1.0, 1.05, 1.0, 1.0])
        traj = make_trajectory(times, values)
        assert settling_time(traj, 1.0) == 4.0

    def test_monotone_in_band(self):
        rng = np.random.default_rng(3)
        times = np.arange(200) * 0.05
        values = 1.0 + np.exp(-times) * rng.uniform(-1, 1, 200)
        traj = make_trajectory(times, values)
        loose = settling_time(traj, 1.0, band=0.05)
        tight = settling_time(traj, 1.0, band=0.02)
        assert loose is not None and tight is not None
        assert loose <= tight

    def test_rejects_nonpositive_band(self):
        traj = make_trajectory([0.0], [1.0])
        with pytest.raises(ValueError):
            settling_time(traj, 1.0, band=0.0)
        with pytest.raises(ValueError, match="band"):
            settling_time(traj, 1.0, band=float("nan"))

    def test_zero_final_value_uses_a_band_of_the_step(self):
        # exp(-t) decays from the initial value 2 into 2 % of the step from
        # 2 to 0 at -ln(0.02) = 3.912...
        times = np.arange(0.0, 8.0, 0.001)
        traj = make_trajectory(times, 2.0 * np.exp(-times))
        assert settling_time(traj, 0.0) is None
        settled = settling_time(traj, 0.0, initial_value=2.0)
        assert settled == pytest.approx(3.9120, abs=2e-3)


UNIT_STEP = StepSource(0.0, 1.0)


class TestOvershoot:
    def test_monotone_approach_has_zero_overshoot(self):
        times = np.arange(0.0, 5.0, 0.01)
        traj = make_trajectory(times, 1.0 - np.exp(-times))
        assert overshoot(traj, UNIT_STEP) == 0.0

    def test_peak_beyond_final_value(self):
        traj = make_trajectory(np.arange(4) * 0.1, [0.0, 0.8, 1.12, 1.0])
        assert overshoot(traj, UNIT_STEP) == pytest.approx(0.12)

    def test_diverged_returns_none(self):
        traj = make_trajectory([0.0], [0.0], diverged_step=0)
        assert overshoot(traj, UNIT_STEP) is None

    def test_falling_step_overshoots_below_its_final_value(self):
        # from 2 down to 1: the dip to 0.88 is the overshoot, and the start
        # at 2, above the final value, is not
        traj = make_trajectory(np.arange(4) * 0.1, [2.0, 1.3, 0.88, 1.0])
        assert overshoot(traj, StepSource(2.0, 1.0)) == pytest.approx(0.12)

    def test_step_to_zero_is_a_fraction_of_the_step(self):
        # |final| is 0, so the excess is scaled by the step, as the band is
        traj = make_trajectory(np.arange(4) * 0.1, [4.0, 1.0, -0.2, 0.0])
        assert overshoot(traj, StepSource(4.0, 0.0)) == pytest.approx(0.05)

    def test_source_without_a_step_has_none(self):
        traj = make_trajectory(np.arange(3) * 0.1, [1.0, 1.5, 1.0])
        assert overshoot(traj, StepSource(1.0, 1.0)) is None


class TestThresholdDelay:
    def test_hand_example(self):
        # leader crosses at step 5, the other agent at step 9, dt = 0.01
        steps = 12
        values = np.zeros((steps, 2))
        values[5:, 0] = 0.5
        values[9:, 1] = 0.5
        traj = make_trajectory(np.arange(steps) * 0.01, values)
        delays = threshold_delay(traj, UNIT_STEP)
        assert delays[0] == pytest.approx(0.0)
        assert delays[1] == pytest.approx(0.04)

    def test_falling_step_is_crossed_from_above(self):
        # the hand example negated: the same crossings at -0.1
        values = np.zeros((12, 2))
        values[5:, 0] = -0.5
        values[9:, 1] = -0.5
        traj = make_trajectory(np.arange(12) * 0.01, values)
        delays = threshold_delay(traj, StepSource(0.0, -1.0))
        assert delays[0] == 0.0
        assert delays[1] == pytest.approx(0.04)

    @pytest.mark.parametrize(
        "source, short, crossed",
        [(StepSource(1.0, 3.0), 1.19, 1.21), (StepSource(3.0, 1.0), 2.81, 2.79)],
        ids=["rising", "falling"],
    )
    def test_level_lies_a_tenth_of_the_way_from_initial_to_final(self, source, short, crossed):
        # agents at rest on the initial value cross 10 % of the way to the
        # final one (1.2 or 2.8); a value just short of it does not count
        values = np.full((12, 2), source.initial)
        values[3:] = short
        values[5:, 0] = crossed
        values[9:, 1] = crossed
        delays = threshold_delay(make_trajectory(np.arange(12) * 0.01, values), source)
        assert delays[0] == 0.0
        assert delays[1] == pytest.approx(0.04)

    def test_all_zero_trajectory_marks_everyone_absent(self):
        traj = make_trajectory(np.arange(5) * 0.01, np.zeros((5, 3)))
        assert np.isnan(threshold_delay(traj, UNIT_STEP)).all()

    def test_source_without_a_step_marks_everyone_absent(self):
        # at rest on the source's value, every agent is at the step's "final"
        traj = make_trajectory(np.arange(5) * 0.01, np.full((5, 3), 0.5))
        assert np.isnan(threshold_delay(traj, StepSource(0.5, 0.5))).all()

    def test_agent_that_never_crosses_is_nan(self):
        values = np.zeros((6, 2))
        values[2:, 0] = 1.0
        traj = make_trajectory(np.arange(6) * 0.1, values)
        delays = threshold_delay(traj, UNIT_STEP)
        assert delays[0] == 0.0
        assert np.isnan(delays[1])

    def test_requires_leader(self):
        traj = make_trajectory([0.0], [[1.0]], leader_ids=())
        with pytest.raises(ValueError):
            threshold_delay(traj, UNIT_STEP)


class TestRadialAcceleration:
    def test_straight_motion_is_zero(self):
        t = np.arange(50) * 0.01
        positions = np.stack([3.0 * t, 1.5 * t], axis=-1)[:, None, :]
        dsr = DsrParams(1.0, 0.0, 0.01, StepSource(0.0, 0.0, 0))
        params = FlockParams(speed=1.0, dsr=dsr, n_steps=49)
        flock = FlockTrajectory(
            times=t,
            values=np.zeros((50, 1)),
            params=params,
            leader_ids=(0,),
            positions=positions,
        )
        assert np.abs(radial_acceleration(flock)).max() <= 1e-9

    def test_circular_motion_magnitude(self):
        radius, speed = 20.0, 5.0
        flock = circular_flock(radius, speed, 0.01, 400)
        radial = radial_acceleration(flock)
        expected = speed * speed / radius
        assert np.abs(radial - expected).max() / expected <= 0.01

    def test_second_order_convergence_in_dt(self):
        radius, speed = 20.0, 5.0
        expected = speed * speed / radius

        def worst_error(dt):
            flock = circular_flock(radius, speed, dt, int(2.0 / dt))
            return np.abs(radial_acceleration(flock) - expected).max()

        coarse, fine = worst_error(0.02), worst_error(0.01)
        assert fine <= 0.3 * coarse

    def test_requires_three_steps(self):
        flock = circular_flock(10.0, 1.0, 0.01, 1)
        with pytest.raises(ValueError):
            radial_acceleration(flock)


class TestCorrelationDelay:
    def test_identical_series_has_zero_lag(self):
        rng = np.random.default_rng(0)
        series = rng.normal(size=300)
        assert correlation_delay(series, series, 0.01) == 0.0

    def test_recovers_injected_shift_exactly(self):
        rng = np.random.default_rng(1)
        reference = rng.normal(size=400)
        for shift in (1, 7, 60):
            series = np.concatenate([np.zeros(shift), reference])[:400]
            assert correlation_delay(series, reference, 0.01) == pytest.approx(
                shift * 0.01
            )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 40), st.integers(123, 987))
    def test_shift_recovery_property(self, shift, seed):
        rng = np.random.default_rng(seed)
        reference = rng.normal(size=200)
        series = np.concatenate([np.full(shift, reference[0]), reference])[:200]
        got = correlation_delay(series, reference, 0.5)
        assert got == pytest.approx(shift * 0.5)

    def test_zero_variance_raises(self):
        with pytest.raises(UndefinedCorrelationError):
            correlation_delay(np.ones(50), np.random.default_rng(0).normal(size=50), 0.01)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            correlation_delay(np.zeros(5), np.zeros(6), 0.01)


class TestTransferSpeed:
    def test_single_anchor_point_plus_origin(self):
        assert transfer_speed([(18.38, 0.389), (0.0, 0.0)]) == pytest.approx(
            18.38 / 0.389
        )

    def test_exact_line(self):
        delays = np.linspace(0.01, 0.5, 9)
        points = [(50.0 * t, t) for t in delays]
        assert transfer_speed(points) == pytest.approx(50.0)

    def test_recovers_noisy_slope(self):
        rng = np.random.default_rng(4)
        delays = rng.uniform(0.05, 1.0, 60)
        distances = 30.0 * delays + rng.normal(0.0, 0.1, 60)
        assert transfer_speed(list(zip(distances, delays))) == pytest.approx(
            30.0, abs=0.5
        )

    def test_order_invariance(self):
        points = [(1.0, 0.1), (4.0, 0.3), (9.0, 0.7)]
        assert transfer_speed(points) == transfer_speed(points[::-1])

    def test_equal_delays_raise(self):
        with pytest.raises(InfiniteSpeedError):
            transfer_speed([(1.0, 0.2), (2.0, 0.2)])

    def test_too_few_points_raise(self):
        with pytest.raises(ValueError):
            transfer_speed([(1.0, 0.1)])


class TestFitScalingExponent:
    def test_linear_data(self):
        points = [(c * 0.37, c * 0.37 / 50.0) for c in range(1, 9)]
        assert fit_scaling_exponent(points) == pytest.approx(1.0)

    def test_square_root_data(self):
        delays = np.linspace(0.1, 2.0, 12)
        points = [(3.0 * np.sqrt(t), t) for t in delays]
        assert fit_scaling_exponent(points) == pytest.approx(0.5)

    def test_order_invariance(self):
        points = [(1.0, 0.1), (2.0, 0.35), (3.0, 0.9), (4.0, 1.7)]
        assert fit_scaling_exponent(points) == pytest.approx(
            fit_scaling_exponent(points[::-1])
        )

    def test_nonpositive_values_raise(self):
        with pytest.raises(ValueError):
            fit_scaling_exponent([(1.0, 0.1), (2.0, -0.2), (3.0, 0.9)])
        with pytest.raises(ValueError):
            fit_scaling_exponent([(0.0, 0.1), (2.0, 0.2), (3.0, 0.9)])

    def test_too_few_points_raise(self):
        with pytest.raises(ValueError):
            fit_scaling_exponent([(1.0, 0.1), (2.0, 0.4)])

    @pytest.mark.parametrize(
        "points",
        [
            # log(0.01) and log(0.01 - 2e-18) differ only in the last bit
            [(0.01, 11.0), (0.01, 9.0), (0.01 - 2e-18, 6.0)],
            # equal: polyfit would divide by a zero column scale and call
            # LAPACK on nan
            [(1, 0.1), (1, 0.2), (1, 0.3)],
        ],
        ids=["last-bit", "equal"],
    )
    def test_distances_that_barely_vary_raise(self, points):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="distances barely vary"):
                fit_scaling_exponent(points)


def _random_pairs(seed, n=300):
    rng = np.random.default_rng(seed)
    delays = rng.uniform(0.05, 1.0, n)
    return 40.0 * delays * rng.uniform(0.8, 1.2, n), delays


@pytest.mark.parametrize(
    "layout",
    [
        lambda d, t: list(zip(d.tolist(), t.tolist())),
        lambda d, t: np.array([d, t]).T.copy(order="C"),
        lambda d, t: np.column_stack((d, t)),
        lambda d, t: np.asfortranarray(np.column_stack((d, t))),
    ],
    ids=["pairs", "c-array", "column-stack", "fortran-array"],
)
def test_fits_read_every_layout_as_contiguous_columns(layout):
    # a dot product over a strided column may sum in another order, so the
    # fits must give the bits of the contiguous 1-D arrays whatever the
    # layout; a few draws, since one draw may sum alike in either order
    for seed in range(4):
        distances, delays = _random_pairs(seed)
        points = layout(distances, delays)
        assert transfer_speed(points) == float(distances @ delays) / float(delays @ delays)
        slope = np.polyfit(np.log(distances), np.log(delays), 1)[0]
        assert fit_scaling_exponent(points) == 1.0 / slope


class TestStabilitySweep:
    def test_verdicts_across_the_cliff(self):
        topo = NetworkTopology.build(build_lattice(7, 7, 1.0), 1.2, {0})
        base = DsrParams(100.0, 0.0, 0.01, StepSource(0.0, 1.0, 0))
        results = stability_sweep(
            topo, base, [0.0, 100.0, 101.0], horizon_steps=4000
        )
        by_ks = {r.alignment_strength: r for r in results}
        assert not by_ks[0.0].diverged  # frozen at the initial state
        assert by_ks[0.0].settling_time is None
        assert not by_ks[100.0].diverged
        assert by_ks[100.0].settling_time is not None
        assert by_ks[101.0].diverged

    def test_default_horizon_comes_from_zero_gain_baseline(self):
        topo = NetworkTopology.build(build_lattice(5, 5, 1.0), 1.2, {0})
        base = DsrParams(50.0, 0.9, 0.01, StepSource(0.0, 1.0, 0))
        results = stability_sweep(topo, base, [50.0])
        assert len(results) == 1
        assert not results[0].diverged
        assert results[0].settling_time is not None

    def test_rejects_empty_list(self):
        topo = NetworkTopology.build(build_lattice(3, 3, 1.0), 1.2, {0})
        base = DsrParams(10.0, 0.0, 0.01, StepSource(0.0, 1.0, 0))
        with pytest.raises(ValueError):
            stability_sweep(topo, base, [])


def at_rest(topology, source):
    """Every agent on the source's initial value, where a run starts."""
    return np.full(topology.n_agents, source.initial)


def oracle_settling_horizon(topology, params, seed=None, max_steps=200_000):
    """Reference: a recorded run from step 0 for every horizon it tries."""
    steps = min(1000, max_steps)
    while True:
        traj = simulate(topology, params, at_rest(topology, params.source), steps, seed)
        if traj.diverged:
            return min(max(2 * int(traj.diverged_step or steps), 1000), max_steps)
        settled = settling_time(traj, params.source.final, 0.02, params.source.initial)
        if settled is not None and traj.times[-1] >= 1.5 * settled:
            return int(np.ceil(settled / params.update_interval))
        if steps >= max_steps:
            return steps
        steps = min(2 * steps, max_steps)


def oracle_stability_sweep(topology, base_params, ks_values, horizon_steps=None, seed=None):
    """Reference: one recorded run per alignment strength."""
    ks_list = [float(k) for k in ks_values]
    if horizon_steps is None:
        probe = replace(base_params, dsr_gain=0.0)
        horizon_steps = 2 * oracle_settling_horizon(topology, probe, seed)
    results = []
    source = base_params.source
    for ks in ks_list:
        params = replace(base_params, alignment_strength=ks)
        traj = simulate(topology, params, at_rest(topology, source), horizon_steps, seed)
        settled = settling_time(traj, source.final, 0.02, source.initial)
        results.append(SweepResult(ks, traj.diverged, settled))
    return results


B = _MAX_BLOCK_STEPS  # the engine's block length at the small n used here
CLIFF_KS = [0.0, 60.0, 100.0, 101.0, 150.0, 1e300]


def lattice_with_leader(side, leader=0):
    return NetworkTopology.build(build_lattice(side, side, 1.0), 1.2, {leader})


class TestSweepMatchesOracle:
    """The batched, streaming sweep against one recorded run per Ks."""

    @pytest.mark.parametrize(
        "base, seed",
        [
            (DsrParams(100.0, 0.0, 0.01, StepSource(0.0, 1.0, 0)), None),
            (DsrParams(100.0, 0.0, 0.01, StepSource(0.0, 1.0, 0), 0.05), 3),
            (DsrParams(100.0, 0.0, 0.01, StepSource(0.3, -1.0, 37)), None),
            (DsrParams(100.0, 0.9, 0.01, StepSource(0.0, 1.0, 0)), None),
            (DsrParams(100.0, 0.5, 0.01, StepSource(1.0, 0.0, 50)), None),
        ],
        ids=["stable", "noisy", "switch-and-initial", "reinforced", "zero-final"],
    )
    @pytest.mark.parametrize("horizon", [0, 1, B, B + 1, 900])
    def test_verdicts_and_settling_times(self, base, seed, horizon):
        topo = lattice_with_leader(5, 6)
        got = stability_sweep(topo, base, CLIFF_KS, horizon, seed)
        assert got == oracle_stability_sweep(topo, base, CLIFF_KS, horizon, seed)

    @pytest.mark.parametrize("noise", [0.0, 0.002])
    def test_lone_survivor_equals_its_single_column_run(self, noise):
        # 1e300 and 150 diverge in the first block (steps 1 and 28), 105 in
        # the middle of the fourth (step 221): the run steps on with one column
        topo = lattice_with_leader(5, 6)
        base = DsrParams(100.0, 0.0, 0.01, StepSource(0.0, 1.0, 0), noise)
        ks = [60.0, 150.0, 1e300, 105.0]

        def run(columns):
            params = [replace(base, alignment_strength=k) for k in columns]
            return dsr_run(topo, params, np.zeros(25), 5, None).advance(900)

        batched = run(ks)
        assert list(batched.columns) == [0]
        assert all(batched.diverged_steps[1:])
        assert max(batched.diverged_steps[1:]) > 3 * B
        for j, k in enumerate(ks):
            single = run([k])
            assert batched.diverged_steps[j] == single.diverged_steps[0]
            assert batched.settling_times()[j] == single.settling_times()[0]
        assert batched.settling_times()[0] is not None
        survivor = run([60.0]).current
        assert batched.current.tobytes() == survivor.tobytes()

    def test_default_horizon(self):
        topo = lattice_with_leader(5)
        base = DsrParams(100.0, 0.5, 0.01, StepSource(0.0, 2.0, 5))
        ks = [20.0, 90.0, 100.0, 101.0]
        assert stability_sweep(topo, base, ks) == oracle_stability_sweep(topo, base, ks)

    def test_keeps_per_ks_parameter_checks(self):
        topo = lattice_with_leader(3)
        base = DsrParams(10.0, 0.0, 0.01, StepSource(0.0, 1.0, 0))
        with pytest.raises(ValueError, match="alignment_strength"):
            stability_sweep(topo, base, [10.0, -1.0], horizon_steps=10)


class TestSettlingHorizonMatchesOracle:
    """The resumable probe against a fresh recorded run per checkpoint."""

    @pytest.mark.parametrize(
        "params, seed, max_steps",
        [
            (DsrParams(100.0, 0.0, 0.01, StepSource(0.0, 1.0, 0)), None, 200_000),
            (DsrParams(20.0, 0.0, 0.01, StepSource(0.0, 1.0, 0)), None, 200_000),
            (DsrParams(100.0, 0.9, 0.01, StepSource(0.0, 1.0, 0)), None, 200_000),
            (DsrParams(150.0, 0.0, 0.01, StepSource(0.0, 1.0, 0)), None, 200_000),
            (DsrParams(100.0, 0.0, 0.01, StepSource(0.0, 1.0, 0), 0.05), 9, 8000),
            (DsrParams(60.0, 0.0, 0.01, StepSource(0.5, -1.0, 300)), None, 200_000),
            (DsrParams(1.0, 0.0, 0.01, StepSource(0.0, 1.0, 0)), None, 3000),
            (DsrParams(1.0, 0.0, 0.01, StepSource(0.0, 1.0, 0)), None, 500),
            (DsrParams(100.0, 0.5, 0.01, StepSource(1.0, 0.0, 50)), None, 200_000),
            # settled at step 1077 but not confirmed by the cap: the cap is returned
            (DsrParams(100.0, 0.0, 0.01, StepSource(0.0, 1.0, 0)), None, 1200),
            (DsrParams(100.0, 0.0, 0.01, StepSource(0.0, 1.0, 0)), None, 1500),
            # diverge at steps 29 and 1: the fallback stops at the cap
            (DsrParams(150.0, 0.0, 0.01, StepSource(0.0, 1.0, 0)), None, 500),
            (DsrParams(1e9, 0.0, 0.01, StepSource(0.0, 1.0, 0)), None, 500),
        ],
        ids=["stable", "slow", "reinforced", "diverging", "noisy",
             "switch-and-initial", "never-settles", "max-below-first-checkpoint",
             "zero-final", "unconfirmed-at-cap-1200", "unconfirmed-at-cap-1500",
             "diverging-below-first-checkpoint", "diverging-at-once-below-cap"],
    )
    def test_same_horizon(self, params, seed, max_steps):
        topo = lattice_with_leader(7, 8)
        expected = oracle_settling_horizon(topo, params, seed, max_steps)
        assert settling_horizon(topo, params, seed, max_steps) == expected

    @pytest.mark.parametrize("ks", [150.0, 1e9])
    def test_diverging_fallback_never_exceeds_max_steps(self, ks):
        params = DsrParams(ks, 0.0, 0.01, StepSource(0.0, 1.0, 0))
        topo = lattice_with_leader(7, 8)
        assert settling_horizon(topo, params, max_steps=500) == 500
        assert settling_horizon(topo, params, max_steps=200_000) == 1000

    def test_jumps_past_the_confirming_horizon(self, monkeypatch):
        # settles at step 6899: doubling would run to 16000, the jump to 10350
        runs = []

        def kept_run(*args, **kwargs):
            runs.append(dsr_run(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(analysis, "dsr_run", kept_run)
        topo = lattice_with_leader(15, 16)
        params = DsrParams(100.0, 0.0, 0.01, StepSource(0.0, 1.0, 0))
        assert settling_horizon(topo, params) == 6899
        assert [run.step for run in runs] == [10_350]


class TestBandMatchesRecord:
    """A run's band against ``settling_time`` on its record, bit for bit,
    after every advance."""

    @settings(max_examples=120, deadline=None)
    @given(
        model=st.sampled_from(["dsr", "noisy-dsr", "second-order"]),
        diverges=st.booleans(),
        record_every=st.integers(1, 9),
        # bands of 0.014 to 0.4 against initial values 0.6 apart: the last
        # source starts every agent inside its band
        source=st.sampled_from([(0.0, 1.0), (1.0, 0.0), (0.2, -0.7), (10.0, 0.0), (20.0, 0.0)]),
        switch_step=st.integers(0, 30),
        horizons=st.lists(
            st.tuples(st.integers(0, 50), st.booleans(), st.integers(1, 8)),
            min_size=2, max_size=3,
        ),
    )
    def test_settling_times_equal_the_records(
        self, model, diverges, record_every, source, switch_step, horizons
    ):
        # the stable models settle within about 150 (DSR) and 372 (second
        # order) steps; the diverging ones blow up at about step 30 and 125
        step_source = StepSource(*source, switch_step)
        topo = lattice_with_leader(3)
        initial = np.linspace(-0.3, 0.3, 9)
        if model == "second-order":
            dsr = DsrParams(100.0, 0.5, 0.01, step_source)
            params = ContinuumParams(dsr, 0.004 if diverges else 0.002)
            run = second_order_run(topo, params, initial, record_every)
        else:
            noise = 0.01 if model == "noisy-dsr" else 0.0
            params = DsrParams(182.02 if diverges else 100.0, 0.5, 0.01, step_source, noise)
            run = dsr_run(topo, [params], initial, 4, record_every)
        steps = 0
        for multiple, on_stride, offset in horizons:
            # on the stride, or off it by 1 to record_every - 1 steps
            steps += multiple * record_every + (0 if on_stride else offset % record_every)
            traj = run.advance(steps).trajectory()
            expected = settling_time(traj, source[1], initial_value=source[0])
            for got in (run.settling_times()[0], traj.settling_time):
                assert (got is None) == (expected is None)
                if got is not None:
                    assert np.float64(got).tobytes() == np.float64(expected).tobytes()

    def test_second_order_rate_outside_the_band_does_not_count(self):
        # the rate settles near 0, far outside a band around 1
        step_source = StepSource(0.0, 1.0, 0)
        params = ContinuumParams(DsrParams(100.0, 0.5, 0.01, step_source), 0.002)
        run = second_order_run(lattice_with_leader(3), params, np.zeros(9), 7)
        traj = run.advance(600).trajectory()
        assert run.settling_times() == [settling_time(traj, 1.0)]
        assert 0.7 < run.settling_times()[0] < 0.8


def oracle_threshold_delay(traj, source):
    """The whole-array formula: one boolean array the size of the record. The
    level lies a tenth of the way through the step, and a falling step
    crosses it from above."""
    level = source.initial + 0.1 * (source.final - source.initial)
    crossed = traj.values >= level if source.final > source.initial else traj.values <= level
    crossing_times = traj.times[crossed.argmax(axis=0)].astype(float)
    crossing_times[~crossed.any(axis=0)] = np.nan
    leader_times = crossing_times[list(traj.leader_ids)]
    if np.isnan(leader_times).all():
        return np.full(traj.n_agents, np.nan)
    return crossing_times - np.nanmin(leader_times)


def oracle_overshoot(traj, source):
    """The whole-array formula."""
    sign = 1.0 if source.final > source.initial else -1.0
    excess = (sign * (traj.values - source.final)).max()
    return max(0.0, float(excess)) / abs(source.final or source.final - source.initial)


class TestEngineReductionsMatchReferences:
    """A recorded run's crossings and extremes, reduced as it steps, against
    ``threshold_delay`` and ``overshoot`` on its whole record, and the rows
    it stores on a multiple of its stride against that record's, bit for
    bit after every advance."""

    @settings(max_examples=100, deadline=None)
    @given(
        model=st.sampled_from(["dsr", "noisy-dsr", "second-order"]),
        diverges=st.booleans(),
        # 729 agents take the per-step path, the others the kernel block
        side=st.sampled_from([3, 4, 27]),
        record_every=st.integers(1, 7),
        stride=st.integers(1, 4),
        # rising, falling and no step
        source=st.sampled_from([(0.0, 1.0), (1.0, -0.5), (0.3, 0.3)]),
        switch_step=st.integers(0, 30),
        horizons=st.lists(
            st.tuples(st.integers(0, 40), st.booleans(), st.integers(1, 6)),
            min_size=2, max_size=4,
        ),
    )
    def test_reductions_and_stored_rows_equal_the_records(
        self, model, diverges, side, record_every, stride, source, switch_step, horizons
    ):
        # the diverging models blow up at about step 30 (DSR) and 125 (second order)
        step_source = StepSource(*source, switch_step)
        topo = lattice_with_leader(side, side + 1)
        kept = record_every * stride
        record = dict(store={record_every: None, kept: None}, crossings=True)
        if model == "second-order":
            dsr = DsrParams(100.0, 0.5, 0.01, step_source)
            params = ContinuumParams(dsr, 0.004 if diverges else 0.002)
            run = second_order_run(topo, params, None, record_every, **record)
        else:
            noise = 0.01 if model == "noisy-dsr" else 0.0
            params = DsrParams(182.02 if diverges else 100.0, 0.5, 0.01, step_source, noise)
            run = dsr_run(topo, [params], None, 4, record_every, **record)
        steps = 0
        for multiple, on_stride, offset in horizons:
            # on the stride, or off it by 1 to record_every - 1 steps, so that
            # the next advance leaves a forced last row behind
            steps += multiple * record_every + (0 if on_stride else offset % record_every)
            traj = run.advance(steps).trajectory()
            delays = analysis.delays_behind_leader(traj.crossing_times, traj.leader_ids)
            assert delays.tobytes() == threshold_delay(traj, step_source).tobytes()
            expected = overshoot(traj, step_source)
            if traj.diverged:
                assert expected is None and traj.extremes is None
            else:
                assert traj.extremes == (traj.values.min(), traj.values.max())
                assert analysis.step_overshoot(traj.extremes, step_source) == expected
            last = len(traj.times) - 1
            rows = np.unique(np.append(np.arange(0, last + 1, stride), last))
            thinned = run.trajectory(kept)
            assert thinned.times.tobytes() == traj.times[rows].tobytes()
            assert thinned.values.tobytes() == traj.values[rows].tobytes()
            assert thinned.crossing_times.tobytes() == traj.crossing_times.tobytes()


class TestBlockedMetricsMatchOracles:
    """``threshold_delay`` and ``overshoot`` reduce the record a block of at
    most 2**16 values at a time; the whole-array formulas are the oracles."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 700),
        agents=st.sampled_from([1, 7, 300, 70_000]),
        silent=st.floats(0.0, 1.0),
        leader_crosses=st.booleans(),
        final_value=st.sampled_from([1.0, -0.5, 2.0]),
        step=st.sampled_from([StepSource(0.0, 1.0), StepSource(0.0, -1.0)]),
    )
    def test_equal_to_whole_array_formulas(
        self, seed, rows, agents, silent, leader_crosses, final_value, step
    ):
        rows = min(rows, max(1, 400_000 // agents))  # at most 3.2 MB
        rng = np.random.default_rng(seed)
        # random walks that cross the threshold at scattered rows; a share of
        # the agents (and the leader, unless it crosses) stay on 0's side of it
        values = np.cumsum(rng.normal(0.0, 0.05, (rows, agents)), axis=0)
        never = rng.random(agents) < silent
        leaders = sorted({0, agents // 2})
        never[leaders] = not leader_crosses
        side = np.minimum if step.final > 0 else np.maximum
        values[:, never] = side(values[:, never], 0.0)
        traj = make_trajectory(np.arange(rows) * 0.01, values, leader_ids=leaders)
        got, expected = threshold_delay(traj, step), oracle_threshold_delay(traj, step)
        assert got.tobytes() == expected.tobytes()
        source = StepSource(0.0, final_value)
        assert overshoot(traj, source) == oracle_overshoot(traj, source)
