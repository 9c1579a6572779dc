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

from .dsr_core import DsrParams, IsolatedAgentError, Trajectory, dsr_run
# Unused here: perfbench/tracer.py wraps these two names on this module.
from .dsr_core import detect_divergence, dsr_step  # noqa: F401
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


def _sensing_pairs(positions, radius: float):
    """Yield the CSR ``(indptr, indices)`` of the sensing graph at each row of
    ``positions``, reading a row only when its graph is requested.

    Pairs are filtered from candidates within ``radius + skin`` at an anchor
    row. With d_i an agent's displacement since then and d the mean, a pair's
    separation has moved by |(d_i - d) - (d_j - d)| <= 2 max_k |d_k - d|, so
    until that reaches the skin every pair within ``radius`` is a candidate.
    Separations and displacements are differences of stored positions, so
    their rounding is relative to themselves and to the distance travelled
    since the anchor, which the margin covers.
    """
    skin, anchor = _SKIN * radius, None
    for pos in positions:
        if anchor is not None:
            moved = pos - anchor
            shift = moved.mean(axis=0)
            moved -= shift
            drift = 2.0 * np.sqrt((moved * moved).sum(axis=1).max())
            drift += _CELL_MARGIN * (skin + np.abs(shift).max())
        if anchor is None or drift >= skin:
            anchor, candidates = pos.copy(), NetworkTopology.build(pos, radius + skin)
            rows = np.repeat(np.arange(len(pos)), candidates.degrees)
        # row i starts after the pairs kept before indptr[i]
        at = np.flatnonzero(pairs_within(pos, rows, candidates.indices, radius))
        yield np.searchsorted(at, candidates.indptr), candidates.indices[at]


def run_maneuver(
    topology: NetworkTopology,
    params: FlockParams,
    seed: int | None = None,
) -> FlockTrajectory:
    """Simulate the full turn maneuver from the flock's step-0 sensing graph,
    recording positions and headings.

    The headings step on the DSR engine (``dsr_run``), whose graph hook
    first moves the flock to step k's headings, then returns the
    neighborhoods of those positions, with the same radius and leaders,
    bitwise as rebuilding the graph would. Agents that momentarily lose
    every neighbor coast on their reinforcement term alone until the graph
    heals. Requires every agent to have at least two neighbors at the
    start, else raises IsolatedAgentError.
    """
    if min_neighbor_count(topology) < 2:
        raise IsolatedAgentError(
            "initial placement must give every agent at least two neighbors"
        )
    dsr, n = params.dsr, topology.n_agents
    speed, dt = params.speed, dsr.update_interval
    positions = np.empty((params.n_steps + 1, n, 2))
    positions[0] = topology.positions
    graphs = _sensing_pairs(positions, topology.sensing_radius)

    def graph(k, values):
        if k:
            positions[k] = kinematic_step(positions[k - 1], values[:, 0], speed, dt)
        return next(graphs)

    run = dsr_run(topology, [dsr], seed=seed, graph=graph)
    record = run.advance(params.n_steps).trajectory()
    last = len(record.times) - 1
    if last:
        positions[last] = kinematic_step(positions[last - 1], record.values[last], speed, dt)
    return FlockTrajectory(**dict(vars(record), params=params), positions=positions[: last + 1])
