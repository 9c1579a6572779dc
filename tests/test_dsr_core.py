from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import dsrnet
from dsrnet import dsr_core
from dsrnet.analysis import settling_time, stability_sweep
from dsrnet.continuum import ContinuumParams, second_order_run
from dsrnet.dsr_core import (
    _MAX_BLOCK_STEPS,
    _StepNoise,
    BlockRun,
    DsrParams,
    IsolatedAgentError,
    StepSource,
    _discrepancy,
    _weights,
    dsr_run,
    simulate,
)
from dsrnet.flocking import FlockParams, run_maneuver
from dsrnet.topology import NetworkTopology, build_lattice, sample_disc

import per_agent
from per_agent import assert_same_run, lattice_topology

STEP_TO_ONE = StepSource(0.0, 1.0, 0)
NAN = float("nan")


def chain_topology(n, leaders=()):
    positions = np.column_stack([np.arange(n, dtype=float), np.zeros(n)])
    return NetworkTopology.build(positions, 1.2, leaders)


def discrepancy(topology, values, source_value):
    """The engine's discrepancy of ``values`` on ``topology``'s own graph."""
    weights, source_weight, _ = _weights(topology.indptr, topology.leader_ids)
    values = np.asarray(values, dtype=float)
    pull = source_weight * source_value
    return _discrepancy(topology.indptr, topology.indices, weights, pull, values,
                        np.empty(values.shape))


def one_step(topology, params, initial):
    """The values after step 1 of a run from ``initial``."""
    run = dsr_run(topology, [params], initial).advance(1)
    assert run.step == 1
    return run.current[:, 0]


class TestDiscrepancy:
    def test_uniform_state_vanishes(self):
        topo = lattice_topology(3, 3)
        assert discrepancy(topo, np.full(9, 0.7), 0.0)[4] == 0.0

    def test_leader_counts_source_as_extra_member(self):
        # leader at 0 with two zero neighbors and a unit source:
        # (0 + 0 + (0 - 1)) / 3 = -1/3
        topo = lattice_topology(3, 3, {0})
        assert discrepancy(topo, np.zeros(9), 1.0)[0] == pytest.approx(-1.0 / 3.0)

    def test_chain_middle_agent(self):
        delta = discrepancy(chain_topology(3), [0.0, 0.5, 1.0], 0.0)
        assert delta[1] == pytest.approx(0.0)
        assert delta[0] == pytest.approx(-0.5)

    def test_isolated_leader_uses_source_alone(self):
        positions = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 1.0]])
        topo = NetworkTopology.build(positions, 1.2, {0})
        assert discrepancy(topo, np.zeros(3), 1.0)[0] == pytest.approx(-1.0)


class TestDsrUpdate:
    def test_zero_gains_are_identity(self):
        topo = lattice_topology(3, 3, {0})
        params = DsrParams(0.0, 0.0, 0.01, STEP_TO_ONE)
        initial = np.linspace(0, 1, 9)
        assert np.array_equal(one_step(topo, params, initial), initial)

    def test_corner_leader_first_step(self):
        # leader with two zero neighbors, unit source, Ks=100, dt=0.01:
        # 0 - 100 * (-1/3) * 0.01 = 1/3
        topo = lattice_topology(3, 3, {0})
        params = DsrParams(100.0, 0.0, 0.01, STEP_TO_ONE)
        out = one_step(topo, params, np.zeros(9))
        assert out[0] == pytest.approx(1.0 / 3.0)
        assert np.all(out[1:] == 0.0)

    def test_noise_requires_seed(self):
        # every entry point raises up front, so even a zero-step maneuver does
        topo = lattice_topology(3, 3, {0})
        params = DsrParams(100.0, 0.0, 0.01, STEP_TO_ONE, noise_amplitude=0.01)
        for run in [
            lambda: dsr_run(topo, [params], np.zeros(9)),
            lambda: run_maneuver(topo, FlockParams(5.0, params, n_steps=0)),
        ]:
            with pytest.raises(ValueError, match="a seed is required"):
                run()


class TestParamsValidation:
    def test_rejects_gain_of_one_or_more(self):
        for gain in (1.0, 1.2):
            with pytest.raises(ValueError):
                DsrParams(100.0, gain, 0.01, STEP_TO_ONE)

    def test_rejects_bad_scalars(self):
        with pytest.raises(ValueError):
            DsrParams(100.0, 0.0, 0.0, STEP_TO_ONE)
        with pytest.raises(ValueError):
            DsrParams(-1.0, 0.0, 0.01, STEP_TO_ONE)
        with pytest.raises(ValueError):
            DsrParams(100.0, 0.0, 0.01, STEP_TO_ONE, noise_amplitude=-0.1)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: DsrParams(NAN, 0.0, 0.01, STEP_TO_ONE), "alignment_strength"),
            (lambda: DsrParams(100.0, NAN, 0.01, STEP_TO_ONE), "dsr_gain"),
            (lambda: DsrParams(100.0, 0.0, NAN, STEP_TO_ONE), "update_interval"),
            (lambda: DsrParams(100.0, 0.0, 0.01, STEP_TO_ONE, NAN), "noise_amplitude"),
            (lambda: StepSource(NAN, 1.0), "source"),
            (lambda: StepSource(0.0, NAN), "source"),
            (lambda: StepSource(0.0, np.inf), "source"),
            (lambda: ContinuumParams(DsrParams(100.0, 0.5, 0.01, STEP_TO_ONE), NAN),
             "integrator_step"),
            (lambda: FlockParams(NAN, DsrParams(100.0, 0.5, 0.01, STEP_TO_ONE)), "speed"),
            (lambda: simulate(lattice_topology(2, 2, {0}),
                              DsrParams(100.0, 0.0, 0.01, STEP_TO_ONE),
                              [0.0, NAN, 0.0, 0.0], 5), "initial"),
        ],
        ids=["ks", "gain", "dt", "noise", "source-initial", "source-final",
             "source-inf", "integrator-step", "speed", "simulate-initial"],
    )
    def test_nan_is_rejected_not_simulated(self, build, message):
        # a NaN parameter or start value must never reach a run, where it
        # would read as divergence at step 1 (or, for noise, as no noise)
        with pytest.raises(ValueError, match=message):
            build()

    def test_step_source_switches(self):
        source = StepSource(-1.0, 2.0, 5)
        assert source.value(0) == -1.0
        assert source.value(4) == -1.0
        assert source.value(5) == 2.0


class TestSimulate:
    def test_isolated_agent_raises_upfront(self):
        positions = np.array([[0.0, 0.0], [5.0, 0.0], [5.0, 1.0]])
        topo = NetworkTopology.build(positions, 1.2, {1})
        params = DsrParams(100.0, 0.0, 0.01, STEP_TO_ONE)
        with pytest.raises(IsolatedAgentError):
            simulate(topo, params, np.zeros(3), 10)

    def test_initial_length_mismatch_raises(self):
        topo = lattice_topology(3, 3, {0})
        params = DsrParams(100.0, 0.0, 0.01, STEP_TO_ONE)
        with pytest.raises(ValueError):
            simulate(topo, params, np.zeros(4), 10)

    @pytest.mark.parametrize("model", ["dsr", "second-order"])
    def test_without_initial_values_a_run_starts_at_rest_on_the_source(self, model):
        topo = lattice_topology(4, 4, {0})
        params = DsrParams(100.0, 0.5, 0.01, StepSource(0.7, -2.0, 30))

        def record(*initial):
            if model == "dsr":
                run = dsr_run(topo, [params], *initial)
            else:
                run = second_order_run(topo, ContinuumParams(params, 0.002), *initial)
            return run.advance(300).trajectory().values

        default = record()
        assert (default[0] == 0.7).all()
        assert default.tobytes() == record(np.full(16, 0.7)).tobytes()

    def test_noisy_runs_are_seed_deterministic(self):
        topo = lattice_topology(4, 4, {0})
        params = DsrParams(100.0, 0.5, 0.01, STEP_TO_ONE, noise_amplitude=0.02)
        a = simulate(topo, params, np.zeros(16), 200, seed=42)
        b = simulate(topo, params, np.zeros(16), 200, seed=42)
        c = simulate(topo, params, np.zeros(16), 200, seed=43)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_noiseless_runs_are_bitwise_reproducible(self):
        topo = lattice_topology(4, 4, {0})
        params = DsrParams(100.0, 0.96, 0.01, STEP_TO_ONE)
        a = simulate(topo, params, np.zeros(16), 300)
        b = simulate(topo, params, np.zeros(16), 300, seed=7)  # seed unused
        assert np.array_equal(a.values, b.values)

    def test_reinforcement_settles_faster_than_plain_alignment(self):
        topo = lattice_topology(9, 9, {0})
        baseline = DsrParams(100.0, 0.0, 0.01, STEP_TO_ONE)
        reinforced = DsrParams(100.0, 0.96, 0.01, STEP_TO_ONE)
        slow = settling_time(simulate(topo, baseline, np.zeros(81), 6000), 1.0)
        fast = settling_time(simulate(topo, reinforced, np.zeros(81), 600), 1.0)
        assert slow is not None and fast is not None
        assert fast < slow


B = _MAX_BLOCK_STEPS  # the engine's block length at the small n used here


class TestSimulateMatchesStepLoop:
    """The block-stepped engine against the per-agent oracle, bit for bit."""

    @pytest.mark.parametrize("n_steps", [0, 1, B - 1, B, B + 1, 2 * B + 3])
    @pytest.mark.parametrize("noise", [0.0, 0.02])
    def test_step_counts(self, n_steps, noise):
        topo = lattice_topology(3, 3, {0})
        # the source switches inside the second block
        params = DsrParams(
            100.0, 0.9, 0.01, StepSource(0.2, 1.0, B + 6), noise_amplitude=noise
        )
        initial = np.linspace(-0.5, 0.5, 9)
        expected = per_agent.recorded_run(topo, params, initial, n_steps, seed=5)
        assert_same_run(simulate(topo, params, initial, n_steps, seed=5), expected)

    @pytest.mark.parametrize(
        "ks, source_final, step",
        [
            (1e9, 1.0, 1),
            (1e9, -1.0, 1),  # below -DIVERGENCE_LIMIT while every value is <= 0
            (182.02, 1.0, 30),
            (161.84, 1.0, 64),  # last step of the first block
            (161.635, 1.0, 65),  # first step of the second block
            (1e300, 1e20, 1),  # overflows to inf within the first step
        ],
    )
    def test_divergence_step(self, ks, source_final, step):
        topo = lattice_topology(3, 3, {0})
        params = DsrParams(ks, 0.5, 0.01, StepSource(0.0, source_final, 0))
        expected = per_agent.recorded_run(topo, params, np.zeros(9), 300)
        assert expected[2] == step
        assert_same_run(simulate(topo, params, np.zeros(9), 300), expected)

    def test_hook_coasts_the_agents_it_returns(self):
        # agent 9 starts next to agent 2; from step 1 on the hook's graph puts
        # it out of everyone's range, so it coasts where the run's own
        # topology would raise
        lattice = build_lattice(3, 3, 1.0)
        near, far = (
            NetworkTopology.build(np.vstack([lattice, [spot]]), 1.2, {0})
            for spot in ([3.0, 0.0], [10.0, 10.0])
        )
        assert near.degrees.min() > 0
        assert (far.degrees == 0).tolist() == [False] * 9 + [True]
        params = DsrParams(
            100.0, 0.5, 0.01, StepSource(0.2, 1.0, B + 6), noise_amplitude=0.02
        )
        graphs = (near.indptr, near.indices), (far.indptr, far.indices)

        def graph(k, values):
            assert values.shape == (10, 1)
            return graphs[k > 0]

        initial = np.linspace(-0.5, 0.5, 10)
        for hook in (None, graph):
            with pytest.raises(IsolatedAgentError, match="agent 9 has no neighbors"):
                dsr_run(far, [params], initial, seed=5, graph=hook)
        run = dsr_run(near, [params], initial, seed=5, graph=graph)
        traj = run.advance(2 * B + 3).trajectory()
        assert len(traj.values) == 2 * B + 4 and not traj.diverged
        assert_same_run(traj, per_agent.recorded_run(
            near, params, initial, 2 * B + 3, seed=5, graphs=lambda k: graphs[k > 0]
        ))
        # agent 9 moves on step 0, then keeps only its reinforcement term
        alone = traj.values[:, 9]
        assert alone[1] != initial[9]
        assert (alone[2:] == alone[1:-1] + 0.5 * (alone[1:-1] - alone[:-2])).all()

    def test_one_agent_leader_graph(self):
        topo = NetworkTopology.build(np.zeros((1, 2)), 1.2, {0})
        params = DsrParams(50.0, 0.9, 0.01, StepSource(0.0, 1.0, 3))
        expected = per_agent.recorded_run(topo, params, np.zeros(1), 2 * B + 3)
        assert_same_run(simulate(topo, params, np.zeros(1), 2 * B + 3), expected)


@pytest.mark.parametrize("model", ["dsr", "second-order"])
def test_weighs_a_fixed_graph_once_per_run(monkeypatch, model):
    weighed, weigh = [], dsr_core._weights

    def weights(indptr, leader_ids):
        weighed.append(indptr)
        return weigh(indptr, leader_ids)

    monkeypatch.setattr(dsr_core, "_weights", weights)
    topo = lattice_topology(3, 3, {0})
    params = DsrParams(100.0, 0.5, 0.01, StepSource(0.2, 1.0, B + 6))
    if model == "dsr":
        run = dsr_run(topo, [params], np.zeros(9))
    else:
        run = second_order_run(topo, ContinuumParams(params, 0.001), np.zeros(9))
    for steps in (1, B, 3 * B + 5):
        run.advance(steps)
    assert run.step == 3 * B + 5 and len(weighed) == 1 and weighed[0] is topo.indptr


@pytest.mark.parametrize("seed", [0, 1, 7, 2**63 + 5])
def test_step_noise_matches_a_fresh_stream_per_step(seed):
    noise = _StepNoise(seed, 0.025)
    # out of order and repeated, with draw sizes that leave the buffer part-used
    for step in [3, 0, 1, 399, 2**40, 1, 0]:
        for n in (9, 225, 1):
            expected = per_agent.fresh_stream_noise(seed, step, n, 0.025)
            assert noise(step, n).tobytes() == expected.tobytes()


# without noise, columns 1, 3, 4 and 5 diverge at steps 31, 64 (end of the
# first block), 1 and 65
BATCH_KS = [50.0, 182.02, 100.0, 162.35, 1e300, 162.14, 0.0]


class TestBatchedColumns:
    """Each column of a batched run against the single run of its Ks."""

    @pytest.mark.parametrize("n_steps", [0, 1, B - 1, B, B + 1, 2 * B + 3, 300])
    @pytest.mark.parametrize("noise", [0.0, 0.02])
    def test_each_column_equals_its_single_run(self, n_steps, noise):
        topo = lattice_topology(3, 3, {0})
        base = DsrParams(
            100.0, 0.5, 0.01, StepSource(0.2, 1.0, B + 6), noise_amplitude=noise
        )
        initial = np.linspace(-0.5, 0.5, 9)
        columns = [replace(base, alignment_strength=ks) for ks in BATCH_KS]
        run = dsr_run(topo, columns, initial, seed=5, record_every=None)
        run.advance(n_steps)
        for j, params in enumerate(columns):
            single = simulate(topo, params, initial, n_steps, seed=5)
            assert run.diverged_steps[j] == single.diverged_step
            if single.diverged:
                assert j not in run.columns
            else:
                live = list(run.columns).index(j)
                assert run.current[:, live].tobytes() == single.values[-1].tobytes()

    def test_columns_may_differ_only_in_alignment_strength(self):
        topo = lattice_topology(3, 3, {0})
        base = DsrParams(100.0, 0.5, 0.01, STEP_TO_ONE)
        with pytest.raises(ValueError, match="only in alignment strength"):
            dsr_run(topo, [base, replace(base, dsr_gain=0.4)], np.zeros(9))
        with pytest.raises(ValueError, match="single-column"):
            dsr_run(topo, [base, replace(base, alignment_strength=9.0)], np.zeros(9))

    @pytest.mark.parametrize("path", ["kernel", "per-step"])
    @pytest.mark.parametrize("record_every", [None, 1, 3])
    def test_two_row_band_reads_only_the_value_row(self, monkeypatch, path, record_every):
        # the values sit on the target from step 0 while the second row, from
        # 0, doubles and adds 2**(19 - 2B) every step: it lies far outside
        # the band, and still ends the run when it first passes the limit
        # 1e6, at 2**20 - 2**(19 - 2B) on step 2B + 1
        topo = lattice_topology(3, 3, {0})
        double = ((1.0, "r"), (1.0, "r"), (2.0 ** (19 - 2 * B), "x"))
        chains = (("v'", ((1.0, "x"),)), ("r'", double))
        if path == "per-step":
            monkeypatch.setattr(dsr_core, "_KERNEL_VALUES", 0)
        run = BlockRun(
            topo, STEP_TO_ONE, np.ones(9), chains, [1.0], params=None,
            step_seconds=0.01, state_width=2, record_every=record_every,
        )
        assert run.advance(B + 5).settling_times() == [0.0]
        assert run.advance(3 * B).diverged_steps == [2 * B + 1]
        assert run.settling_times() == [None]


class TestExtendedRun:
    """A run continued to a later step against a fresh run of that length."""

    @pytest.mark.parametrize("horizons", [(10, 11), (5, B, B + 1, 3 * B + 2), (0, 40, 300)])
    @pytest.mark.parametrize("ks", [100.0, 182.02])
    def test_extension_equals_fresh_run(self, horizons, ks):
        topo = lattice_topology(3, 3, {0})
        params = DsrParams(ks, 0.5, 0.01, StepSource(0.2, 1.0, 7), noise_amplitude=0.01)
        initial = np.linspace(-0.5, 0.5, 9)
        run = dsr_run(topo, [params], initial, seed=3)
        for n_steps in horizons:
            traj = run.advance(n_steps).trajectory()
            fresh = simulate(topo, params, initial, n_steps, seed=3)
            assert traj.diverged_step == fresh.diverged_step
            assert traj.values.tobytes() == fresh.values.tobytes()
            assert traj.times.tobytes() == fresh.times.tobytes()

    @pytest.mark.parametrize("ks", [100.0, 182.02], ids=["stable", "diverges-at-30"])
    def test_handed_out_trajectory_is_not_overwritten(self, ks):
        # a trajectory is a view of the record, also when the run stops
        # short of its reserved rows, and the next advance writes new arrays
        topo = lattice_topology(3, 3, {0})
        params = DsrParams(ks, 0.5, 0.01, STEP_TO_ONE)
        run = dsr_run(topo, [params], np.zeros(9))
        first = run.advance(20).trajectory()
        kept = first.values.copy()
        second = run.advance(40).trajectory()
        assert first.values.tobytes() == kept.tobytes()
        assert len(second.values) == (31 if ks > 100.0 else 41)
        record = run._records[1].values
        assert np.shares_memory(second.values, record)
        assert not np.shares_memory(first.values, record)

    def test_a_record_is_dropped_past_its_horizon(self):
        # records on multiples of 2 (to step 10) and 6 (to any step) of a run
        # judged every 2nd step: each holds step 0, its multiples and the last
        topo = lattice_topology(3, 3, {0})
        params = DsrParams(100.0, 0.5, 0.01, STEP_TO_ONE)
        run = dsr_run(topo, [params], None, None, 2, store={2: 10, 6: None})
        whole = run.advance(9).trajectory()
        assert run.stored == (2, 6)
        assert [round(t / 0.01) for t in whole.times] == [0, 2, 4, 6, 8, 9]
        thinned = run.trajectory(6)
        assert thinned.values.tobytes() == whole.values[[0, 3, 5]].tobytes()
        assert run.advance(10).stored == (2, 6)
        assert run.advance(11).stored == (6,)
        assert [round(t / 0.01) for t in run.trajectory(6).times] == [0, 6, 11]
        with pytest.raises(KeyError):
            run.trajectory()

    def test_only_a_recorded_run_stores_and_reduces(self):
        topo = lattice_topology(3, 3, {0})
        params = DsrParams(100.0, 0.5, 0.01, STEP_TO_ONE)
        with pytest.raises(ValueError, match="multiples of its record_every"):
            dsr_run(topo, [params], None, None, 2, store={3: None})
        with pytest.raises(ValueError, match="multiples of its record_every"):
            dsr_run(topo, [params], None, None, None, store={1: None})
        with pytest.raises(ValueError, match="only a recorded run reduces crossings"):
            dsr_run(topo, [params], None, None, None, crossings=True)
        traj = dsr_run(topo, [params], None, None, 1).advance(5).trajectory()
        assert traj.crossing_times is None and traj.extremes is not None

    def test_cannot_go_back(self):
        topo = lattice_topology(3, 3, {0})
        run = dsr_run(topo, [DsrParams(100.0, 0.5, 0.01, STEP_TO_ONE)], np.zeros(9))
        with pytest.raises(ValueError):
            run.advance(5).advance(4)


def weighed(topo):
    """The CSR ``(indptr, indices, weights)`` of ``topo``'s own graph, its
    source weights, and its averaging matrix as a scipy array."""
    weights, source_weight, isolated = _weights(topo.indptr, topo.leader_ids)
    n = topo.n_agents
    matrix = sparse.csr_array((weights, topo.indices, topo.indptr), shape=(n, n))
    return (topo.indptr, topo.indices, weights), source_weight, matrix


def lattice_15x15():
    return lattice_topology(15, 15, {16})


def cut_disc_topology():
    """A disc graph cut down to a random subset of its pairs, with one
    agent's row emptied."""
    rng = np.random.default_rng(11)
    topo = NetworkTopology.build(sample_disc(80, 4.0, rng), 1.5, {0})
    keep = rng.random(topo.indices.size) < 0.6
    lonely = int(np.argmax(topo.degrees[1:])) + 1
    keep[topo.indptr[lonely] : topo.indptr[lonely + 1]] = False
    kept = np.flatnonzero(keep)
    topo.indptr, topo.indices = np.searchsorted(kept, topo.indptr), topo.indices[kept]
    assert _weights(topo.indptr, topo.leader_ids)[2][lonely]
    assert topo.indptr[lonely] == topo.indptr[lonely + 1]
    return topo


SPECIAL_VALUES = [-0.0, np.inf, -np.inf, np.nan, 1e308, -1e308]


def special_inputs(n, columns):
    """Random states with each special value planted in every column, plus
    one column of -0.0 when there are several."""
    rng = np.random.default_rng(columns or 0)
    shape = (n,) if columns is None else (n, columns)
    values = rng.normal(size=shape)
    flat = values.reshape(n, -1)
    for j in range(flat.shape[1]):
        rows = rng.choice(n, size=len(SPECIAL_VALUES), replace=False)
        flat[rows, j] = SPECIAL_VALUES
    if flat.shape[1] > 1:
        flat[:, -1] = -0.0
    return values


class TestKernelProduct:
    """``_discrepancy`` against ``values - A @ values - pull`` with scipy's
    ``@``, bit for bit."""

    @pytest.mark.parametrize("columns", [None, 1, 2, 8])
    @pytest.mark.parametrize(
        "topology", [lattice_15x15, cut_disc_topology], ids=["lattice-15x15", "cut-disc"]
    )
    def test_bitwise_equal_to_matmul(self, topology, columns):
        csr, source_weight, matrix = weighed(topology())
        n = matrix.shape[0]
        values = special_inputs(n, columns)
        pull = source_weight * 0.37
        pull = pull if columns is None else pull[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            expected = values - matrix @ values - pull
            out = np.full(values.shape, 7.0)  # stale contents must not leak in
            got = _discrepancy(*csr, pull, values, out)
        assert np.shares_memory(got, out)
        assert out.view(np.uint64).tobytes() == expected.view(np.uint64).tobytes()

    def test_rejects_buffers_of_the_wrong_size(self):
        csr = weighed(lattice_topology(3, 3, {0}))[0]
        for values, out in [
            (np.zeros(8), np.zeros(8)),
            (np.zeros(8), np.zeros(9)),
            (np.zeros(9), np.zeros(8)),
            (np.zeros(18), np.zeros(18)),
            (np.zeros((8, 2)), np.zeros((8, 2))),
            (np.zeros((9, 2)), np.zeros((9, 3))),
            (np.zeros((9, 2)), np.zeros(18)),
            (np.zeros(18), np.zeros((9, 2))),
            (np.zeros((9, 1)), np.zeros(9)),
            (np.zeros((9, 2, 2)), np.zeros((9, 2, 2))),
        ]:
            with pytest.raises(ValueError, match="rows of"):
                _discrepancy(*csr, 0.0, values, out)

    def test_fixed_graph_steps_never_dispatch_through_scipy(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a fixed-graph step went through scipy's @")

        for name in ("__matmul__", "_matmul_dispatch", "_mul_dispatch"):
            if hasattr(sparse.csr_array, name):
                monkeypatch.setattr(sparse.csr_array, name, refuse)
        with pytest.raises(AssertionError, match="scipy's @"):
            weighed(lattice_15x15())[2] @ np.zeros(225)
        topo = lattice_topology(5, 5, {6})
        params = DsrParams(100.0, 0.96, 0.01, STEP_TO_ONE)
        assert dsr_run(topo, [params], np.zeros(25)).advance(500).step == 500
        wave = ContinuumParams(params, 1e-4)
        assert second_order_run(topo, wave, np.zeros(25)).advance(500).step == 500
        ks = [20.0, 60.0, 100.0, 150.0, 190.0, 250.0, 400.0, 1e300]
        results = stability_sweep(topo, params, ks, horizon_steps=500)
        assert [r.diverged for r in results] == [False] * 5 + [True] * 3


# Checked in a fresh interpreter: this test module imports scipy.sparse first.
KERNEL_CHECK = """
import sys
import numpy as np
from dsrnet import dsr_core
from dsrnet.topology import NetworkTopology, build_lattice
print("scipy.sparse" in sys.modules)
from scipy import sparse
from scipy.sparse import _sparsetools
assert _sparsetools is dsr_core._sparsetools is sys.modules["scipy.sparse._sparsetools"]
topo = NetworkTopology.build(build_lattice(5, 5, 1.0), 1.2, {6})
weights, source_weight, _ = dsr_core._weights(topo.indptr, topo.leader_ids)
matrix = sparse.csr_array((weights, topo.indices, topo.indptr), shape=(25, 25))
pull = source_weight * 0.37
for shape, pull in [(25, pull), ((25, 3), pull[:, None])]:
    values = np.random.default_rng(1).normal(size=shape)
    expected = values - matrix @ values - pull
    got = dsr_core._discrepancy(topo.indptr, topo.indices, weights, pull, values, np.empty(shape))
    assert got.tobytes() == expected.tobytes()
"""


def fresh_python(code):
    """Run ``code`` in a new interpreter that imports this dsrnet, and return
    its output."""
    path = [str(Path(dsrnet.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


class TestKernelLoading:
    """dsr_core loads scipy's kernel module by file, not through scipy.sparse."""

    def test_cli_import_loads_no_other_scipy_module(self):
        code = (
            "import sys\n"
            "import dsrnet.cli\n"
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        assert fresh_python(code) == ["scipy.sparse._sparsetools"]

    def test_a_later_scipy_sparse_import_shares_the_module(self):
        assert fresh_python(KERNEL_CHECK) == ["False"]

    def test_without_the_file_the_package_import_gives_the_same_bits(self):
        # no extension suffix matches a file, so the loader falls back
        code = "import importlib.machinery\nimport numpy\n"
        code += "importlib.machinery.EXTENSION_SUFFIXES.clear()\n" + KERNEL_CHECK
        assert fresh_python(code) == ["True"]


# Checked in a fresh interpreter, on the kernel module dsr_core loads: the
# fixed-graph block path (dsr_core._KernelBlock) passes one array as the
# kernel's input and output, and restates numpy's arithmetic one rounding
# at a time
CHAINING_CHECK = """
import numpy as np
from dsrnet import dsr_core
kernel = dsr_core._sparsetools.csr_matvec
for index in (np.int32, np.int64):
    # row 1 reads row 0 and row 2 reads row 1, both written in this call
    rows = np.array([1.5, 0.0, 0.0])
    kernel(3, 3, np.array([0, 0, 1, 2], index), np.array([0, 1], index),
           np.array([2.0, 3.0]), rows, rows)
    assert rows.tolist() == [1.5, 3.0, 9.0], rows
    # -0.0 + 1 * c + b * a: the product 1 - 2**-60 rounds to 1 before the sum
    a, b = 1 + 2**-30, 1 - 2**-30
    rows = np.array([-1.0, a, -0.0])
    kernel(3, 3, np.array([0, 0, 0, 2], index), np.array([0, 1], index),
           np.array([1.0, b]), rows, rows)
    print(repr(float(rows[2])))
"""


# Checked in a fresh interpreter: dsr_core imports while scipy's kernel is
# the stub named ``stub``, which fails one half of the import probe, and a
# small run after it, on the real kernel again, equals the oracle's
PROBE_FAILURE = """
import sys
from fractions import Fraction
import numpy as np
from scipy.sparse import _sparsetools as kernel
matvec = kernel.csr_matvec

def copies(*args):
    matvec(*args[:5], args[5].copy(), args[6])

def fuses(n_row, n_col, indptr, indices, data, x, y):
    for i in range(n_row):
        for jj in range(indptr[i], indptr[i + 1]):
            y[i] = float(Fraction(y[i]) + Fraction(data[jj]) * Fraction(x[indices[jj]]))

kernel.csr_matvec = {stub}
from dsrnet import dsr_core
kernel.csr_matvec = matvec
print(dsr_core._KERNEL_VALUES)
sys.path.insert(0, {tests!r})
import per_agent
topo = per_agent.lattice_topology(3, 3, {{0}})
params = dsr_core.DsrParams(100.0, 0.5, 0.01, dsr_core.StepSource(0.0, 1.0, 3), 0.02)
run = dsr_core.dsr_run(topo, [params], seed=5).advance(70)
per_agent.assert_same_run(
    run.trajectory(), per_agent.recorded_run(topo, params, np.zeros(9), 70, seed=5)
)
print("same")
"""


class TestKernelContract:
    """What the block path needs of scipy's csr_matvec."""

    def test_rows_chain_in_place_and_each_product_rounds_before_its_sum(self):
        assert fresh_python(CHAINING_CHECK) == ["0.0", "0.0"]

    @pytest.mark.parametrize("stub", ["copies", "fuses"])
    def test_a_kernel_that_fails_the_import_probe_leaves_every_run_on_numpy(self, stub):
        # ``copies`` reads a copy of its input, so its rows do not chain;
        # ``fuses`` rounds each multiply-add once, as an FMA does
        code = PROBE_FAILURE.format(tests=str(Path(__file__).parent), stub=stub)
        assert fresh_python(code) == ["0", "same"]

