"""Constant-speed planar flocking driven by heading consensus.

The transferred information is each agent's heading. Every step recomputes
the metric neighborhood from current positions, applies one DSR heading
update, then moves every agent one interval at fixed speed along its new
heading. Headings are kept as plain reals rather than wrapped angles: the
turn maneuvers studied here stay far from any branch cut, and wrapping
would corrupt the discrepancy averages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dsr_core import (
    DsrParams,
    InfoState,
    Trajectory,
    detect_divergence,
    dsr_step,
)
from .topology import NetworkTopology, min_neighbor_count


@dataclass(frozen=True)
class FlockParams:
    """Maneuver definition: fixed speed, heading dynamics and horizon.

    The heading schedule is ``dsr.source``: leaders see it as their source,
    and every agent starts with heading ``dsr.source.initial``.
    """

    speed: float
    dsr: DsrParams
    n_steps: int = 400

    def __post_init__(self):
        if self.speed <= 0:
            raise ValueError("speed must be positive")
        if self.n_steps < 0:
            raise ValueError("n_steps must be nonnegative")


@dataclass
class FlockTrajectory(Trajectory):
    """Recorded maneuver: ``values`` are the headings [rows, n], and
    ``positions`` [rows, n, 2] the agents' positions at the same times."""

    positions: np.ndarray = field(kw_only=True)

    @property
    def headings(self) -> np.ndarray:
        return self.values


def kinematic_step(
    positions: np.ndarray,
    headings: np.ndarray,
    speed: float,
    dt: float,
) -> np.ndarray:
    """Advance positions one interval at fixed speed along each heading."""
    if len(positions) != len(headings):
        raise ValueError("positions and headings must have equal length")
    step = speed * dt
    moved = np.empty_like(positions, dtype=float)
    moved[:, 0] = positions[:, 0] + step * np.cos(headings)
    moved[:, 1] = positions[:, 1] + step * np.sin(headings)
    return moved


def run_maneuver(
    topology: NetworkTopology,
    params: FlockParams,
    seed: int | None = None,
) -> FlockTrajectory:
    """Simulate the full turn maneuver from the flock's step-0 sensing graph,
    recording positions and headings.

    Neighborhoods are recomputed from current positions, with the same
    sensing radius and leaders, every later step, so the sensing graph may
    change mid-run. Agents that momentarily lose every neighbor coast on
    their reinforcement term alone until the graph heals. Requires every
    agent to have at least two neighbors at the start.
    """
    if min_neighbor_count(topology) < 2:
        raise ValueError(
            "initial placement must give every agent at least two neighbors"
        )
    dsr = params.dsr
    n = topology.n_agents
    dt = dsr.update_interval
    rows = params.n_steps + 1
    positions = np.empty((rows, n, 2))
    headings = np.empty((rows, n))
    positions[0] = topology.positions
    headings[0] = dsr.source.initial
    state = InfoState.from_initial(headings[0])

    diverged_step = None
    last_row = params.n_steps
    step_topology = topology
    for k in range(params.n_steps):
        if k:
            step_topology = NetworkTopology.build(
                positions[k], topology.sensing_radius, topology.leader_ids
            )
        state = dsr_step(state, step_topology, dsr, seed, isolated="coast")
        headings[k + 1] = state.current
        positions[k + 1] = kinematic_step(
            positions[k], state.current, params.speed, dt
        )
        if detect_divergence(state):
            diverged_step = state.step
            last_row = k + 1
            break
    rows = last_row + 1
    return FlockTrajectory(
        np.arange(rows) * dt, headings[:rows], params,
        tuple(sorted(topology.leader_ids)), diverged_step is not None,
        diverged_step, positions=positions[:rows],
    )
