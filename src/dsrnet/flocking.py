"""Constant-speed planar flocking driven by heading consensus.

The transferred information is each agent's heading. Every step takes the
metric neighborhood of the current positions, applies one DSR heading
update, then moves every agent one interval at fixed speed along its new
heading. Headings are kept as plain reals rather than wrapped angles: the
turn maneuvers studied here stay far from any branch cut, and wrapping
would corrupt the discrepancy averages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Operators are built from the class bound here: perfbench/tracer.py swaps
# dsr_core.DiscrepancyOperator for a subclass that takes one argument.
from .dsr_core import (
    DiscrepancyOperator,
    DsrParams,
    InfoState,
    IsolatedAgentError,
    Trajectory,
    detect_divergence,
    dsr_step,
)
from .topology import _CELL_MARGIN, NetworkTopology, min_neighbor_count, pairs_within

# The candidate graph reaches this fraction of the sensing radius beyond it.
_SKIN = 0.15


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
        if not self.speed > 0:
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


def _sensing_operators(positions, radius: float, leader_ids):
    """Yield the DiscrepancyOperator of the sensing graph at each row of
    ``positions``, reading a row only when its operator is requested.

    Pairs are filtered from candidates within ``radius + skin`` at an anchor
    row. With d_i an agent's displacement since then and d the mean, a pair's
    separation has moved by |(d_i - d) - (d_j - d)| <= 2 max_k |d_k - d|, so
    until that reaches the skin every pair within ``radius`` is a candidate.
    Separations and displacements are differences of stored positions, so
    their rounding is relative to themselves and to the distance travelled
    since the anchor, which the margin covers. An operator is built only
    when the kept pairs change.
    """
    skin, anchor, op = _SKIN * radius, None, None
    for pos in positions:
        if anchor is not None:
            moved = pos - anchor
            shift = moved.mean(axis=0)
            moved -= shift
            drift = 2.0 * np.sqrt((moved * moved).sum(axis=1).max())
            drift += _CELL_MARGIN * (skin + np.abs(shift).max())
        if anchor is None or drift >= skin:
            anchor, kept = pos.copy(), None
            candidates = NetworkTopology.build(pos, radius + skin, leader_ids)
            rows = np.repeat(np.arange(len(pos)), candidates.degrees)
        keep = pairs_within(pos, rows, candidates.indices, radius)
        if kept is None and op is not None:  # new candidates: is it the same graph?
            pairs = np.flatnonzero(keep)
            graph = np.searchsorted(pairs, candidates.indptr), candidates.indices[pairs]
            if all(map(np.array_equal, graph, (op.matrix.indptr, op.matrix.indices))):
                kept = keep
        if kept is None or not np.array_equal(keep, kept):
            kept, op = keep, DiscrepancyOperator(candidates, keep)
        yield op


def run_maneuver(
    topology: NetworkTopology,
    params: FlockParams,
    seed: int | None = None,
) -> FlockTrajectory:
    """Simulate the full turn maneuver from the flock's step-0 sensing graph,
    recording positions and headings.

    Every later step takes the neighborhoods of the current positions, with
    the same radius and leaders, bitwise as rebuilding the graph would.
    Agents that momentarily lose every neighbor coast on their reinforcement
    term alone until the graph heals. Requires every agent to have at least
    two neighbors at the start, else raises IsolatedAgentError.
    """
    if min_neighbor_count(topology) < 2:
        raise IsolatedAgentError(
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
    operators = _sensing_operators(positions, topology.sensing_radius, topology.leader_ids)
    for k, op in zip(range(params.n_steps), operators):
        state = dsr_step(state, topology, dsr, seed, operator=op, isolated="coast")
        headings[k + 1] = state.current
        positions[k + 1] = kinematic_step(
            positions[k], state.current, params.speed, dt
        )
        if detect_divergence(state):
            diverged_step = state.step
            break
    rows = (diverged_step or params.n_steps) + 1
    return FlockTrajectory(
        np.arange(rows) * dt, headings[:rows], params,
        tuple(sorted(topology.leader_ids)), diverged_step is not None,
        diverged_step, positions=positions[:rows],
    )
