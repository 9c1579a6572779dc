"""The single-step references against the per-agent oracle, bit for bit.

``InfoState``, ``DiscrepancyOperator``, ``dsr_step`` and ``detect_divergence``
in ``dsr_core``, and ``SecondOrderState``, ``second_order_step`` and
``diffusion_step`` in ``continuum``, advance a state by one update outside
any run. No run calls them: every run steps in ``BlockRun``, where the
model's properties are checked. They stay for the benchmark, which times and
wraps them, and this module is the only one that uses them.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from dsrnet import dsr_core, flocking
from dsrnet.analysis import stability_sweep
from dsrnet.continuum import ContinuumParams, SecondOrderState, diffusion_step, second_order_step
from dsrnet.continuum import simulate_diffusion, simulate_second_order
from dsrnet.dsr_core import DIVERGENCE_LIMIT, DiscrepancyOperator, DsrParams, InfoState
from dsrnet.dsr_core import IsolatedAgentError, StepSource, detect_divergence, dsr_step, simulate
from dsrnet.flocking import run_maneuver
from dsrnet.topology import NetworkTopology, build_lattice

import per_agent
from per_agent import lattice_topology
from test_dsr_core import cut_disc_topology, lattice_15x15, special_inputs, weighed
from test_flocking import _preset_flock, graph

# the source switches at step 3: steps 0 and 2 see 0.2, steps 3 and 40 see 1.0
SOURCE = StepSource(0.2, 1.0, 3)
STEPS = [0, 2, 3, 40]
LATTICE = lattice_topology(4, 5, {7})
CSR = LATTICE.indptr, LATTICE.indices
USE_OPERATOR = pytest.mark.parametrize("use_operator", [False, True], ids=["own", "operator"])


def isolated_topology():
    """Agent 0 a leader alone, agents 1 and 2 a pair, agent 3 alone."""
    positions = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 1.0], [20.0, 0.0]])
    return NetworkTopology.build(positions, 1.2, {0})


@pytest.mark.parametrize(
    "topology, isolated",
    [(lambda: LATTICE, [False] * 20), (isolated_topology, [False, False, False, True])],
    ids=["lattice-4x5", "isolated-agents"],
)
def test_operator_equals_the_oracle_discrepancy(topology, isolated):
    topo = topology()
    op = DiscrepancyOperator(topo)
    assert op.isolated.tolist() == isolated
    rng, graph = np.random.default_rng(11), (topo.indptr, topo.indices)
    for source_value in (0.37, -2.5):
        values = rng.normal(size=topo.n_agents)
        expected = per_agent.discrepancy(graph, topo.leader_ids, values.tolist(), source_value)
        assert [d is None for d in expected] == isolated
        got = op(values, source_value)[~op.isolated]
        assert got.tobytes() == np.array([d for d in expected if d is not None]).tobytes()


@pytest.mark.parametrize(
    "topology", [lattice_15x15, cut_disc_topology], ids=["lattice-15x15", "cut-disc"]
)
def test_operator_call_is_the_matmul_formula(topology):
    # on states with inf, nan, -0.0 and near-overflow values
    _, source_weight, matrix = weighed(topology())
    values = special_inputs(matrix.shape[0], None)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = values - matrix @ values
        expected -= source_weight * 0.37
        got = DiscrepancyOperator(topology())(values, 0.37)
    assert got.view(np.uint64).tobytes() == expected.view(np.uint64).tobytes()


@USE_OPERATOR
@pytest.mark.parametrize("noise", [0.0, 0.02])
@pytest.mark.parametrize("beta", [0.0, 0.5, 0.96])
def test_dsr_and_diffusion_steps_equal_the_oracle_step(beta, noise, use_operator):
    # diffusion_step reads neither the gain nor the noise of its params
    params = DsrParams(87.0, beta, 0.01, SOURCE, noise_amplitude=noise)
    plain = replace(params, dsr_gain=0.0, noise_amplitude=0.0)
    operator = DiscrepancyOperator(LATTICE) if use_operator else None
    rng = np.random.default_rng(101)
    for step in STEPS:
        current, previous = rng.uniform(-1.0, 1.0, 20), rng.uniform(-1.0, 1.0, 20)
        state = InfoState(current=current, previous=previous, step=step)
        for out, oracle_params in [
            (dsr_step(state, LATTICE, params, seed=5, operator=operator), params),
            (diffusion_step(state, LATTICE, params, operator=operator), plain),
        ]:
            expected = per_agent.dsr_step(
                CSR, LATTICE.leader_ids, oracle_params, current.tolist(), previous.tolist(),
                step, 5,
            )
            assert out.current.tobytes() == np.array(expected).tobytes()
            assert out.previous.tobytes() == current.tobytes() and out.step == step + 1


def test_zero_gain_steps_keep_negative_zero():
    # v - 0 * delta keeps the centre's -0.0, which adding 0 * (cur - prev)
    # would turn into +0.0
    topo = lattice_topology(3, 3, {0})
    params = DsrParams(0.0, 0.0, 0.01, SOURCE)
    values = [-1.0] * 4 + [-0.0] + [-1.0] * 4
    expected = per_agent.dsr_step(
        (topo.indptr, topo.indices), topo.leader_ids, params, values, values, 0
    )
    for step in (dsr_step, diffusion_step):
        out = step(InfoState.from_initial(values), topo, params)
        assert np.signbit(out.current[4])
        assert out.current.tobytes() == np.array(expected).tobytes()


@USE_OPERATOR
def test_second_order_step_equals_the_oracle_wave_step(use_operator):
    params = ContinuumParams(DsrParams(100.0, 0.96, 0.01, SOURCE), 1e-3)
    operator = DiscrepancyOperator(LATTICE) if use_operator else None
    rng = np.random.default_rng(7)
    for step in STEPS:
        values, rates = rng.uniform(-1.0, 1.0, 20), rng.uniform(-5.0, 5.0, 20)
        state = SecondOrderState(value=values, rate=rates, step=step)
        out = second_order_step(state, LATTICE, params, operator=operator)
        value, rate = per_agent.wave_step(
            CSR, LATTICE.leader_ids, params, values.tolist(), rates.tolist(), step
        )
        assert out.value.tobytes() == np.array(value).tobytes()
        assert out.rate.tobytes() == np.array(rate).tobytes()
        assert out.step == step + 1


@USE_OPERATOR
def test_steps_raise_for_an_isolated_agent(use_operator):
    topo = isolated_topology()
    operator = DiscrepancyOperator(topo) if use_operator else None
    dsr = DsrParams(100.0, 0.5, 0.01, SOURCE)
    info, wave = InfoState.from_initial(np.zeros(4)), SecondOrderState.from_initial(np.zeros(4))
    for step, state, params in [
        (dsr_step, info, dsr), (diffusion_step, info, dsr),
        (second_order_step, wave, ContinuumParams(dsr, 1e-3)),
    ]:
        with pytest.raises(IsolatedAgentError, match="agent 3"):
            step(state, topo, params, operator=operator)
    with pytest.raises(ValueError, match="a seed is required"):
        dsr_step(InfoState.from_initial(np.zeros(20)), LATTICE, replace(dsr, noise_amplitude=0.01))


def test_detect_divergence_equals_the_oracle():
    beyond = np.nextafter(DIVERGENCE_LIMIT, np.inf)
    cases = {
        DIVERGENCE_LIMIT: False, -DIVERGENCE_LIMIT: False, beyond: True, -beyond: True,
        np.inf: True, -np.inf: True, np.nan: True, 0.5: False,
    }
    for value, expected in cases.items():
        values = [0.0, value, -0.25]
        assert detect_divergence(InfoState.from_initial(values)) is expected
        assert per_agent.diverged(values) is expected
    assert not detect_divergence(InfoState.from_initial([]))


def test_from_initial_constructors():
    values = [0.5, -0.0, 3]
    info = InfoState.from_initial(values)
    assert info.current.tobytes() == info.previous.tobytes() == np.array(values, float).tobytes()
    assert not np.shares_memory(info.previous, info.current) and info.step == 0
    wave = SecondOrderState.from_initial(values)
    assert wave.value.tobytes() == np.array(values, dtype=float).tobytes()
    assert wave.rate.tobytes() == np.zeros(3).tobytes() and wave.step == 0


@pytest.mark.parametrize(
    "name",
    ["fig2_lattice", "fig2_disc_noise", "fixed-graph", "diffusion", "second-order", "sweep"],
)
def test_never_builds_an_operator(monkeypatch, name):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a run stepped through the single-step machinery")

    monkeypatch.setattr(dsr_core.DiscrepancyOperator, "__init__", refuse)
    monkeypatch.setattr(flocking, "dsr_step", refuse)
    if name.startswith("fig2"):
        topology, params, seed = _preset_flock(name)
        flock = run_maneuver(topology, params, seed)
        assert len(flock.times) == params.n_steps + 1 and not flock.diverged
        return
    topology = graph(build_lattice(5, 5, 1.0), 6)
    dsr = DsrParams(100.0, 0.9, 0.01, StepSource(0.0, 1.0, 0))
    if name == "sweep":
        verdicts = stability_sweep(topology, dsr, [50.0, 100.0, 1e9], 300)
        assert [v.diverged for v in verdicts] == [False, False, True]
        return
    runs = {
        "fixed-graph": lambda: simulate(topology, dsr, np.zeros(25), 300),
        "diffusion": lambda: simulate_diffusion(topology, dsr, np.zeros(25), 300),
        "second-order": lambda: simulate_second_order(
            topology, ContinuumParams(dsr, 0.001), np.zeros(25), 300
        ),
    }
    traj = runs[name]()
    assert len(traj.times) == 301 and not traj.diverged
