"""Per-agent oracles of the engine's updates, over Python floats.

Each function restates one update of the model agent by agent, with none of
the engine's arrays, weights or kernel: nothing here calls the single-step
references or ``dsr_core._weights`` and ``_discrepancy``. An agent's
discrepancy is its value minus the mean over its neighbours and, for a
leader, the source. An agent that senses no one keeps only its own previous
increment.

The arithmetic follows the engine's order, one rounding at a time, so runs
compare bit for bit. Each row's sum of w * x_j runs left to right from 0.0
over the CSR row, neighbours ascending, as scipy's ``csr_matvec`` and
``csr_matvecs`` accumulate it. Small fixed-graph runs do their whole update
inside that kernel too, one block of steps per call, reading rows the
kernel wrote earlier in the same call. Python floats are IEEE doubles and
round each operation on its own, so the equality holds where scipy's kernel
is built without FMA contraction, as in the x86-64 wheels; aarch64 is not
verified.
Two numpy calls are shared with the engine: the Philox draw of the update
noise, and ``np.cos`` and ``np.sin`` in the kinematic step.

It also holds the one copy of three helpers that several test modules
share: the unit lattice graph of radius 1.2, a recorded run of the oracle
(``recorded_run``), and ``assert_same_run``, which holds an engine's
trajectory to that record bit for bit.
"""

from __future__ import annotations

import numpy as np

from dsrnet.dsr_core import DIVERGENCE_LIMIT
from dsrnet.topology import NetworkTopology, build_lattice


def lattice_topology(rows, cols, leaders=()):
    return NetworkTopology.build(build_lattice(rows, cols, 1.0), 1.2, leaders)


def fresh_stream_noise(seed, step, n, amplitude):
    """Step ``step``'s update noise: a new Philox stream and Generator."""
    bits = np.random.Philox(seed=seed, counter=(step + 1) << 64)
    return np.random.Generator(bits).uniform(-amplitude, amplitude, size=n)


def discrepancy(graph, leader_ids, values, source_value):
    """Per agent of the CSR ``graph = (indptr, indices)``: the mean of its value
    minus each influence's, or None for an agent that senses no one."""
    indptr, indices = (a.tolist() for a in graph)
    out = []
    for i, x in enumerate(values):
        neighbours = indices[indptr[i] : indptr[i + 1]]
        leader = 1.0 if i in leader_ids else 0.0
        count = len(neighbours) + leader
        if not count:
            out.append(None)
            continue
        weight, total = 1.0 / count, 0.0
        for j in neighbours:
            total += weight * values[j]
        out.append((x - total) - (leader / count) * source_value)
    return out


def dsr_step(graph, leader_ids, params, current, previous, step, seed=None):
    """The values after ``step``: x - Ks dt (d + noise) + beta (x - x_prev) per
    agent, without the alignment term for one that senses no one. At beta = 0
    the last term is left out, not added as zero."""
    delta = discrepancy(graph, leader_ids, current, params.source.value(step))
    if params.noise_amplitude > 0:
        noise = fresh_stream_noise(seed, step, len(current), params.noise_amplitude)
        delta = [d if d is None else d + e for d, e in zip(delta, noise.tolist())]
    ksdt, beta = params.alignment_strength * params.update_interval, params.dsr_gain
    out = []
    for x, p, d in zip(current, previous, delta):
        y = x if d is None else x - ksdt * d
        out.append(y + beta * (x - p) if beta else y)
    return out


def wave_step(graph, leader_ids, params, values, rates, step):
    """The wave model's values and rates after one Euler step of size h:
    v + h r, and r - damping r - drive d. Every agent must sense someone."""
    dsr, h = params.dsr, params.integrator_step
    scale = dsr.dsr_gain * dsr.update_interval
    damping = ((1.0 - dsr.dsr_gain) / scale) * h
    drive = (dsr.alignment_strength / scale) * h
    delta = discrepancy(graph, leader_ids, values, dsr.source.value(step))
    return (
        [v + h * r for v, r in zip(values, rates)],
        [(r - damping * r) - drive * d for r, d in zip(rates, delta)],
    )


def run_limit(source, initial):
    """The divergence limit of a run from ``initial`` (a list) under
    ``source``: DIVERGENCE_LIMIT times the largest of 1, the source's two
    values and the initial magnitudes."""
    return DIVERGENCE_LIMIT * max(1.0, abs(source.initial), abs(source.final), *map(abs, initial))


def diverged(*states, limit=DIVERGENCE_LIMIT):
    """Whether any value of the per-agent lists is non-finite or beyond
    ``limit``."""
    return not all(abs(v) <= limit for state in states for v in state)


def recorded_run(topology, params, initial, n_steps, record_every=1, seed=None, graphs=None):
    """The oracle's run of ``params`` from ``initial`` on ``topology``'s graph,
    or on ``graphs(k)`` at step k: the DSR update from an at-rest history for
    DsrParams, the wave model with every rate at zero for ContinuumParams.

    Checked after every step, and recorded as the engine records a run: step
    0, every ``record_every``-th step, and the last or diverged step. Returns
    the recorded times and values, and the diverged step or None.
    """
    graphs = graphs or (lambda k: (topology.indptr, topology.indices))
    leaders, start = topology.leader_ids, np.asarray(initial, dtype=float).tolist()
    if hasattr(params, "integrator_step"):
        dsr, dt, state = params.dsr, params.integrator_step, (start, [0.0] * len(start))

        def advance(k, state):
            return wave_step(graphs(k), leaders, params, *state, k)
    else:
        dsr, dt, state = params, params.update_interval, (start, start)

        def advance(k, state):
            return dsr_step(graphs(k), leaders, params, *state, k, seed), state[0]

    states, limit = [state], run_limit(dsr.source, start)  # no start diverges
    while len(states) <= n_steps and not diverged(*states[-1], limit=limit):
        states.append(advance(len(states) - 1, states[-1]))
    last = len(states) - 1
    kept = [k for k in range(last + 1) if k % record_every == 0 or k == last]
    diverged_step = last if diverged(*states[-1], limit=limit) else None
    return np.array(kept) * dt, np.array([states[k][0] for k in kept]), diverged_step


def assert_same_run(traj, expected):
    """``traj`` is the ``expected`` record of ``recorded_run``, bit for bit."""
    times, rows, diverged_step = expected
    assert traj.diverged == (diverged_step is not None)
    assert traj.diverged_step == diverged_step
    assert traj.values.shape == rows.shape
    assert traj.values.tobytes() == rows.tobytes()
    assert traj.times.tobytes() == times.tobytes()


def kinematic_step(positions, headings, length):
    """Every agent's ``(x, y)`` moved ``length`` along its heading."""
    cos, sin = np.cos(headings).tolist(), np.sin(headings).tolist()
    return [(x + length * c, y + length * s) for (x, y), c, s in zip(positions, cos, sin)]


def maneuver(positions, radius, leader_ids, params, seed=None):
    """The turn maneuver of ``params`` (FlockParams) as a plain per-step loop:
    build the sensing graph of the current positions, update every heading,
    move every agent, then check the headings against the run's divergence
    limit. Returns the positions and headings of every step and the
    divergence step (or None)."""
    dsr = params.dsr
    track = [[tuple(p) for p in np.asarray(positions, dtype=float).tolist()]]
    headings = [[dsr.source.initial] * len(track[0])]
    previous, limit = headings[0], run_limit(dsr.source, headings[0])
    for k in range(params.n_steps):
        graph = NetworkTopology.build(np.array(track[-1]), radius, leader_ids)
        current = dsr_step(
            (graph.indptr, graph.indices), leader_ids, dsr, headings[-1], previous, k, seed
        )
        previous = headings[-1]
        headings.append(current)
        track.append(kinematic_step(track[-1], current, params.speed * dsr.update_interval))
        if diverged(current, limit=limit):
            return np.array(track), np.array(headings), k + 1
    return np.array(track), np.array(headings), None
