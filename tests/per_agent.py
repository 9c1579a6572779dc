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
``csr_matvecs`` accumulate it. Python floats are IEEE doubles and round each
operation on its own, so the equality holds where scipy's kernel is built
without FMA contraction, as in the x86-64 wheels; aarch64 is not verified.
Two numpy calls are shared with the engine: the Philox draw of the update
noise, and ``np.cos`` and ``np.sin`` in the kinematic step.

It also holds the one copy of two helpers that several test modules share:
the scalar discrepancy of one agent, over numpy arrays and so equal to the
engine's only to within rounding, and the unit lattice graph of radius 1.2.
"""

from __future__ import annotations

import numpy as np

from dsrnet.dsr_core import DIVERGENCE_LIMIT, IsolatedAgentError
from dsrnet.topology import NetworkTopology, build_lattice


def lattice_topology(rows, cols, leaders=()):
    return NetworkTopology.build(build_lattice(rows, cols, 1.0), 1.2, leaders)


def neighbor_discrepancy(agent, state, topology, source_value):
    """Scalar oracle: mean of the agent's value minus each influence's.

    Influences are the agent's neighbors, plus the source for a leader.
    Raises IsolatedAgentError for a non-leader with no neighbors.
    """
    neighbor_ids = topology.neighbors[agent]
    is_leader = agent in topology.leader_ids
    count = len(neighbor_ids) + (1 if is_leader else 0)
    if count == 0:
        raise IsolatedAgentError(f"agent {agent} has no neighbors and no source access")
    value = state.current[agent]
    total = float(np.sum(value - state.current[neighbor_ids]))
    if is_leader:
        total += value - source_value
    return total / count


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


def diverged(*states):
    """Whether any value of the per-agent lists is non-finite or beyond
    DIVERGENCE_LIMIT."""
    return not all(abs(v) <= DIVERGENCE_LIMIT for state in states for v in state)


def run(advance, state, n_steps):
    """The states from ``state``, a tuple of per-agent lists, under
    ``advance(k, state)`` for k = 0, 1, ... through step ``n_steps`` or the
    first diverged step, and that step (None if none diverged)."""
    states = [state]
    for k in range(n_steps):
        states.append(advance(k, states[-1]))
        if diverged(*states[-1]):
            return states, k + 1
    return states, None


def kinematic_step(positions, headings, length):
    """Every agent's ``(x, y)`` moved ``length`` along its heading."""
    cos, sin = np.cos(headings).tolist(), np.sin(headings).tolist()
    return [(x + length * c, y + length * s) for (x, y), c, s in zip(positions, cos, sin)]


def maneuver(positions, radius, leader_ids, params, seed=None):
    """The turn maneuver of ``params`` (FlockParams) as a plain per-step loop:
    build the sensing graph of the current positions, update every heading,
    move every agent, then check the headings for divergence. Returns the
    positions and headings of every step and the divergence step (or None)."""
    dsr = params.dsr
    track = [[tuple(p) for p in np.asarray(positions, dtype=float).tolist()]]
    headings = [[dsr.source.initial] * len(track[0])]
    previous = headings[0]
    for k in range(params.n_steps):
        graph = NetworkTopology.build(np.array(track[-1]), radius, leader_ids)
        current = dsr_step(
            (graph.indptr, graph.indices), leader_ids, dsr, headings[-1], previous, k, seed
        )
        previous = headings[-1]
        headings.append(current)
        track.append(kinematic_step(track[-1], current, params.speed * dsr.update_interval))
        if diverged(current):
            return np.array(track), np.array(headings), k + 1
    return np.array(track), np.array(headings), None
