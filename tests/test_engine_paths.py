"""Both stepping paths of the engine against the per-agent oracle, bit for bit.

A run on a fixed graph with few agents times columns takes each block in one
call of scipy's CSR kernel; every other run makes the numpy calls of its
model's chains at every step. Each drawn run goes through ``dsr_run`` or
``second_order_run`` on the path the engine picks for it (the kernel, at
these sizes) and again with the crossover at 0, which forces the per-step
path. Runs with a graph hook, which coast the agents a step's graph
isolates, take the per-step path. Every recorded row, every live column's
state and every divergence step must equal the oracle's.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsrnet import dsr_core
from dsrnet.continuum import ContinuumParams, second_order_run
from dsrnet.dsr_core import DIVERGENCE_LIMIT, DsrParams, StepSource, dsr_run
from dsrnet.topology import NetworkTopology

import per_agent


@st.composite
def topologies(draw):
    """1 to 30 agents on a random CSR graph, each row ascending: every
    non-leader senses at least one other agent, and a leader may sense none."""
    n = draw(st.integers(1, 30))
    leaders = draw(st.sets(st.integers(0, n - 1), min_size=1 if n == 1 else 0, max_size=n))
    rows = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        rows.append(sorted(draw(st.sets(
            st.sampled_from(others) if others else st.nothing(),
            min_size=0 if i in leaders else 1, max_size=min(len(others), 6),
        ))))
    topo = NetworkTopology.build(np.zeros((n, 2)), 1.0, leaders)
    topo.indptr = np.cumsum([0] + [len(row) for row in rows])
    topo.indices = np.array([j for row in rows for j in row], dtype=np.int64)
    return topo


VALUES = [0.0, -0.0, 0.25, -0.7, 1.0, 3.0, -DIVERGENCE_LIMIT, 0.999 * DIVERGENCE_LIMIT]
SOURCE_VALUES = [0.0, -0.0, 1.0, -1.0, -2.5, 40.0]
# stable, at the edge of the stability cliff, beyond it, and overflowing
KS = [0.0, 50.0, 100.0, 182.02, 400.0, 1e300]


@st.composite
def runs(draw):
    """A model, its parameters per column, a start, a stride, a seed and the
    horizons of successive ``advance`` calls."""
    topo = draw(topologies())
    n = topo.n_agents
    source = StepSource(
        draw(st.sampled_from(SOURCE_VALUES)), draw(st.sampled_from(SOURCE_VALUES)),
        draw(st.integers(0, 80)),
    )
    initial = np.array(draw(st.one_of(
        st.lists(st.sampled_from(VALUES), min_size=n, max_size=n),
        st.sampled_from(VALUES).map(lambda value: [value] * n),
    )))
    horizons = sorted(draw(st.lists(st.integers(0, 140), min_size=1, max_size=3)))
    if draw(st.booleans()):
        beta = draw(st.sampled_from([0.5, 0.96]))
        step = draw(st.sampled_from([1e-3, 2.6e-4]))
        dsr = DsrParams(draw(st.sampled_from(KS[:5] + [2e4])), beta, 0.01, source)
        every = draw(st.integers(1, 9))
        return "wave", topo, [ContinuumParams(dsr, step)], initial, every, None, horizons
    beta = draw(st.sampled_from([0.0, 0.5, 0.96]))
    noise = draw(st.sampled_from([0.0, 0.02, 0.5]))
    base = DsrParams(100.0, beta, 0.01, source, noise)
    ks = draw(st.lists(st.sampled_from(KS), min_size=1, max_size=4))
    columns = [replace(base, alignment_strength=k) for k in ks]
    every = draw(st.integers(1, 9)) if len(columns) == 1 else None
    return "dsr", topo, columns, initial, every, draw(st.integers(0, 2**32)), horizons


def check_run(path, model, topo, columns, initial, every, seed, horizons, graphs=None):
    """Run the case on ``path`` through each horizon in turn, and hold every
    recorded row (one column) or every live column's state and divergence
    step (several) to the oracle's; a DSR run steps on ``graphs(k)``, if
    given, through the graph hook."""
    steps = []

    def discrepancy(*args):
        steps.append(1)
        return real(*args)

    real = dsr_core._discrepancy
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dsr_core, "_discrepancy", discrepancy)
        if path == "per-step":
            patch.setattr(dsr_core, "_KERNEL_VALUES", 0)
        if model == "wave":
            run = second_order_run(topo, columns[0], initial, every)
        else:
            hook = graphs and (lambda k, values: graphs(k))
            run = dsr_run(topo, columns, initial, seed, every, hook)
        for horizon in horizons:
            run.advance(horizon)
            for j, params in enumerate(columns):
                expected = per_agent.recorded_run(
                    topo, params, initial, horizon, every or 1, seed, graphs
                )
                if every is not None:
                    per_agent.assert_same_run(run.trajectory(), expected)
                    continue
                assert run.diverged_steps[j] == expected[2]
                if expected[2] is None:
                    live = list(run.columns).index(j)
                    assert run.current[:, live].tobytes() == expected[1][-1].tobytes()
    # the kernel path never calls _discrepancy; the per-step path once a step
    assert (len(steps) > 0) == (path == "per-step" and run.step > 0)


@pytest.mark.parametrize("path", ["kernel", "per-step"])
@settings(max_examples=150, deadline=None)
@given(runs())
def test_each_path_equals_the_oracle(path, case):
    check_run(path, *case)


@pytest.mark.parametrize("path", ["kernel", "per-step"])
@pytest.mark.parametrize("model", ["dsr", "wave"])
def test_a_run_of_no_agents(path, model):
    topo = NetworkTopology.build(np.zeros((0, 2)), 1.0)
    params = DsrParams(100.0, 0.5, 0.01, StepSource(0.0, 1.0, 3))
    if model == "wave":
        params = ContinuumParams(params, 1e-3)
    check_run(path, model, topo, [params], np.zeros(0), 1, None, [0, 5, 70])


def signed_zero_topology():
    """Leader 0 senses no one; 1 - 2 - 3 is a chain; leader 4 senses 3."""
    topo = NetworkTopology.build(np.zeros((5, 2)), 1.0, {0, 4})
    topo.indptr = np.array([0, 0, 1, 3, 4, 5])
    topo.indices = np.array([2, 1, 3, 2, 3])
    return topo


@pytest.mark.parametrize("path", ["kernel", "per-step"])
@pytest.mark.parametrize("beta", [0.0, 0.5])
@pytest.mark.parametrize(
    "source", [StepSource(0.0, -0.0, 2), StepSource(-0.0, 0.0, 2), StepSource(-1.0, 0.0, 3)]
)
@pytest.mark.parametrize("ks", [0.0, 100.0])
def test_signed_zeros(path, beta, source, ks):
    # each row's sum starts from +0.0 (S) or -0.0 (the rest): x - 0.0 is x
    # for x = -0.0, and a non-leader's pull 0 * v is -0.0 for v < 0
    topo, initial = signed_zero_topology(), np.array([-0.0, -0.0, 0.0, -0.0, -0.0])
    params = DsrParams(ks, beta, 0.01, source)
    check_run(path, "dsr", topo, [params], initial, 1, None, [1, 3, 70])
    if beta:
        check_run(path, "wave", topo, [ContinuumParams(params, 1e-3)], initial, 1, None, [70])


@st.composite
def coasting_runs(draw):
    """A DSR case of ``runs`` with a per-step graph: the topology's own at
    step 0, then drawn in turn from it and variants in which some agents
    sense no one, so that non-leaders coast and reconnect."""
    case = draw(runs().filter(lambda case: case[0] == "dsr"))
    n, indptr, indices = case[1].n_agents, case[1].indptr, case[1].indices
    degrees, variants = np.diff(indptr), [(indptr, indices)]
    for alone in draw(st.lists(st.sets(st.integers(0, n - 1)), min_size=1, max_size=3)):
        keep = np.array([i not in alone for i in range(n)], dtype=bool)
        variants.append((np.cumsum([0, *degrees * keep]), indices[np.repeat(keep, degrees)]))
    turns = draw(st.lists(st.integers(0, len(variants) - 1), min_size=1, max_size=12))
    return case + (lambda k: variants[turns[(k - 1) % len(turns)] if k else 0],)


@settings(max_examples=150, deadline=None)
@given(coasting_runs())
def test_a_hook_that_isolates_and_reconnects_agents_equals_the_oracle(case):
    check_run("per-step", *case)


@pytest.mark.parametrize("path", ["kernel", "per-step"])
def test_a_value_exactly_at_the_limit_is_not_diverged(path):
    # x' = x - 11 x from 1 gives (-10)**k, exactly: step 6 is 1e6, the
    # run's limit, and step 7 the first beyond it
    topo = NetworkTopology.build(np.zeros((1, 2)), 1.0, {0})
    params = DsrParams(11.0, 0.0, 1.0, StepSource(0.0, 0.0))
    expected = per_agent.recorded_run(topo, params, [1.0], 20)
    assert expected[1][6].tolist() == [1e6] and expected[2] == 7
    check_run(path, "dsr", topo, [params], np.ones(1), 1, None, [6, 20])
    check_run(path, "dsr", topo, [params] * 2, np.ones(1), None, None, [6, 20])
