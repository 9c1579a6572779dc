"""Discrete-time information updates with delayed self-reinforcement (DSR).

Each synchronous update moves an agent's value against the mean discrepancy
with its neighbors, scaled by the alignment strength and the update
interval. The DSR term then re-applies a fixed fraction of the agent's own
previous increment. Recycling the previous update propagates changes across
the network much faster than neighbor alignment alone, without shortening
the interval at which any agent senses its neighborhood.

Leaders average the external source in as one extra neighbor. Updates are
synchronous: every discrepancy is evaluated on the frozen step-k vector
before any agent commits step k+1, so per-agent evaluation order never
matters. Update noise is drawn from counter-based streams keyed by
(master seed, step), which makes noisy runs reproducible independent of
evaluation order as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .topology import NetworkTopology

# Values beyond this magnitude (or any non-finite value) flag a run as
# diverged. Arbitrary but documented; overflow-to-inf always triggers.
DIVERGENCE_LIMIT = 1.0e6


class IsolatedAgentError(ValueError):
    """A non-leader agent has no neighbors, so its discrepancy is undefined."""


@dataclass(frozen=True)
class StepSource:
    """Piecewise-constant source signal.

    Emits ``initial`` before ``switch_step`` and ``final`` from it onward.
    The source is held exactly; it has no dynamics of its own.
    """

    initial: float
    final: float
    switch_step: int = 0

    def value(self, step: int) -> float:
        return self.final if step >= self.switch_step else self.initial


@dataclass(frozen=True)
class DsrParams:
    """Parameters of the DSR information update.

    alignment_strength: gain on the neighbor discrepancy, 1/s.
    dsr_gain: fraction of the previous update re-applied, dimensionless.
    update_interval: seconds between synchronous updates.
    source: external signal seen by leaders.
    noise_amplitude: half-width of the uniform noise added to each
        discrepancy estimate (same units as the information).
    """

    alignment_strength: float
    dsr_gain: float
    update_interval: float
    source: StepSource
    noise_amplitude: float = 0.0

    def __post_init__(self):
        if self.update_interval <= 0:
            raise ValueError("update_interval must be positive")
        if self.alignment_strength < 0:
            raise ValueError("alignment_strength must be nonnegative")
        if not 0.0 <= self.dsr_gain < 1.0:
            raise ValueError(
                "dsr_gain must lie in [0, 1); gains >= 1 leave the update undamped"
            )
        if self.noise_amplitude < 0:
            raise ValueError("noise_amplitude must be nonnegative")


@dataclass
class InfoState:
    """Per-agent values at the current step and the one before it."""

    current: np.ndarray
    previous: np.ndarray
    step: int = 0

    @classmethod
    def from_initial(cls, values) -> "InfoState":
        """State at step 0 with an at-rest history (previous == current)."""
        current = np.array(values, dtype=float)
        return cls(current=current, previous=current.copy(), step=0)


@dataclass
class Trajectory:
    """Step-major record of a run: row k holds every agent's value at t_k."""

    times: np.ndarray
    values: np.ndarray
    params: object
    leader_ids: tuple[int, ...]
    diverged: bool = False
    diverged_step: int | None = None

    @property
    def n_agents(self) -> int:
        return self.values.shape[1]

    def decimate(self, stride: int) -> "Trajectory":
        """Keep every stride-th row plus the final row (row 0 always kept)."""
        if stride < 1:
            raise ValueError("stride must be at least 1")
        rows = self.values.shape[0]
        keep = np.unique(np.append(np.arange(0, rows, stride), rows - 1))
        return Trajectory(
            times=self.times[keep],
            values=self.values[keep],
            params=self.params,
            leader_ids=self.leader_ids,
            diverged=self.diverged,
            diverged_step=self.diverged_step,
        )


class DiscrepancyOperator:
    """Vectorized neighbor-discrepancy evaluation for a fixed topology.

    For agent i the discrepancy is the mean of I_i - I_j over its
    neighborhood; for leaders the external source joins the average as one
    additional member. Rows of non-leader agents with empty neighborhoods
    are reported in ``isolated`` and return a discrepancy of zero, leaving
    the caller to decide between raising and coasting.
    """

    def __init__(self, topology: NetworkTopology):
        n = topology.n_agents
        leader = np.zeros(n)
        if topology.leader_ids:
            leader[sorted(topology.leader_ids)] = 1.0
        counts = topology.degrees + leader
        self.isolated = counts == 0.0
        safe_counts = np.where(self.isolated, 1.0, counts)
        weights = np.repeat(1.0 / safe_counts, topology.degrees)
        self._neighbor_mean = sparse.csr_matrix(
            (weights, topology.indices, topology.indptr), shape=(n, n)
        )
        self._source_weight = leader / safe_counts

    def require_connected(self):
        """Raise IsolatedAgentError naming the first isolated agent, if any."""
        if self.isolated.any():
            first = int(np.flatnonzero(self.isolated)[0])
            raise IsolatedAgentError(
                f"agent {first} has no neighbors and no source access"
            )

    def __call__(self, values: np.ndarray, source_value: float) -> np.ndarray:
        delta = values - self._neighbor_mean @ values
        delta -= self._source_weight * source_value
        if self.isolated.any():
            delta[self.isolated] = 0.0
        return delta


def neighbor_discrepancy(
    agent: int,
    state: InfoState,
    topology: NetworkTopology,
    source_value: float,
) -> float:
    """Mean difference between an agent's value and each of its influences.

    Influences are the agent's neighbors, plus the external source when the
    agent is a leader. Raises IsolatedAgentError for a non-leader with an
    empty neighborhood, where the mean is undefined.
    """
    neighbor_ids = topology.indices[topology.indptr[agent] : topology.indptr[agent + 1]]
    is_leader = agent in topology.leader_ids
    count = len(neighbor_ids) + (1 if is_leader else 0)
    if count == 0:
        raise IsolatedAgentError(
            f"agent {agent} has no neighbors and no source access"
        )
    value = state.current[agent]
    total = float(np.sum(value - state.current[neighbor_ids]))
    if is_leader:
        total += value - source_value
    return total / count


def _step_noise(seed: int, step: int, n: int, amplitude: float) -> np.ndarray:
    """Uniform(-amplitude, +amplitude) noise for one step.

    Drawn from a Philox stream whose counter is derived from the step, so
    agent i's draw at step k is a pure function of (seed, k, i).
    """
    bits = np.random.Philox(seed=seed, counter=(step + 1) << 64)
    return np.random.Generator(bits).uniform(-amplitude, amplitude, size=n)


def dsr_step(
    state: InfoState,
    topology: NetworkTopology,
    params: DsrParams,
    seed: int | None = None,
    *,
    operator: DiscrepancyOperator | None = None,
    isolated: str = "error",
) -> InfoState:
    """Advance every agent one synchronous update.

    ``isolated`` selects what happens to a non-leader with an empty
    neighborhood: ``"error"`` raises, ``"coast"`` lets it keep only its
    reinforcement term for the step (used by flocking, where neighborhoods
    churn). ``operator`` may pass a precomputed DiscrepancyOperator when the
    topology is reused across many steps.
    """
    op = operator if operator is not None else DiscrepancyOperator(topology)
    if isolated == "error":
        op.require_connected()
    elif isolated != "coast":
        raise ValueError("isolated must be 'error' or 'coast'")

    delta = op(state.current, params.source.value(state.step))
    if params.noise_amplitude > 0.0:
        if seed is None:
            raise ValueError("a seed is required when noise_amplitude > 0")
        delta = delta + _step_noise(
            seed, state.step, state.current.size, params.noise_amplitude
        )
    drive = (params.alignment_strength * params.update_interval) * delta
    if op.isolated.any():
        drive[op.isolated] = 0.0
    new_values = (
        state.current
        - drive
        + params.dsr_gain * (state.current - state.previous)
    )
    return InfoState(current=new_values, previous=state.current, step=state.step + 1)


def _values_diverged(*arrays: np.ndarray) -> bool:
    for array in arrays:
        peak = np.abs(array).max() if array.size else 0.0
        if not np.isfinite(peak) or peak > DIVERGENCE_LIMIT:
            return True
    return False


def detect_divergence(state: InfoState) -> bool:
    """True when any value is non-finite or beyond DIVERGENCE_LIMIT."""
    return _values_diverged(state.current)


def simulate(
    topology: NetworkTopology,
    params: DsrParams,
    initial,
    n_steps: int,
    seed: int | None = None,
) -> Trajectory:
    """Run ``n_steps`` synchronous updates, recording every step.

    Stops early, truncating the record and setting the divergence flag, as
    soon as any value diverges. Identical seeds and parameters produce
    bitwise-identical trajectories.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    op = DiscrepancyOperator(topology)
    op.require_connected()
    state = InfoState.from_initial(initial)
    if state.current.shape != (topology.n_agents,):
        raise ValueError("initial values must provide one entry per agent")

    values = np.empty((n_steps + 1, topology.n_agents))
    values[0] = state.current
    diverged = False
    diverged_step = None
    last_row = n_steps
    for k in range(n_steps):
        state = dsr_step(state, topology, params, seed, operator=op)
        values[k + 1] = state.current
        if detect_divergence(state):
            diverged = True
            diverged_step = state.step
            last_row = k + 1
            break
    rows = last_row + 1
    return Trajectory(
        times=np.arange(rows) * params.update_interval,
        values=values[:rows] if rows == n_steps + 1 else values[:rows].copy(),
        params=params,
        leader_ids=tuple(sorted(topology.leader_ids)),
        diverged=diverged,
        diverged_step=diverged_step,
    )
