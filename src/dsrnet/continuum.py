"""Continuum-limit integrators for the consensus dynamics on the agent graph.

Two reductions of the DSR update are integrated with explicit Euler steps
on the same sensing graph. The overdamped reduction is plain diffusion:
values relax toward the neighborhood mean and disturbances spread with the
square root of time. The second-order reduction keeps the inertial term
that the reinforcement gain introduces, so information travels as a wave
with the finite front speed returned by :func:`predicted_wave_speed`.

The integrator interval may be much smaller than the consensus update
interval; the latter only sets the model coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dsr_core import (
    DiscrepancyOperator,
    StepSource,
    Trajectory,
    _values_diverged,
)
from .topology import NetworkTopology


@dataclass(frozen=True)
class ContinuumParams:
    """Coefficients and stepping intervals of the continuum models.

    ``update_interval`` is the consensus-model interval entering the
    damping and drive coefficients; ``integrator_step`` is the explicit
    Euler step actually taken. The second-order model divides by
    ``dsr_gain * update_interval``, so the gain must be strictly positive.
    """

    alignment_strength: float
    dsr_gain: float
    update_interval: float
    integrator_step: float
    source: StepSource

    def __post_init__(self):
        if self.integrator_step <= 0:
            raise ValueError("integrator_step must be positive")
        if self.update_interval <= 0:
            raise ValueError("update_interval must be positive")
        if self.alignment_strength < 0:
            raise ValueError("alignment_strength must be nonnegative")
        if not 0.0 < self.dsr_gain < 1.0:
            raise ValueError("dsr_gain must lie in (0, 1)")


@dataclass
class SecondOrderState:
    """Per-agent value and rate of the wave-like model."""

    value: np.ndarray
    rate: np.ndarray
    step: int = 0

    @classmethod
    def from_initial(cls, values, rates=None) -> "SecondOrderState":
        value = np.array(values, dtype=float)
        rate = (
            np.zeros_like(value)
            if rates is None
            else np.array(rates, dtype=float)
        )
        if rate.shape != value.shape:
            raise ValueError("values and rates must have matching shapes")
        return cls(value=value, rate=rate, step=0)


@dataclass
class DiffusionState:
    """Per-agent value of the overdamped model."""

    values: np.ndarray
    step: int = 0


def predicted_wave_speed(
    mean_spacing: float,
    alignment_strength: float,
    update_interval: float,
) -> float:
    """Front speed of the wave-like model: sqrt(a^2 * Ks / (4 * dt)).

    A shorter update interval (faster-reacting agents) raises the speed.
    """
    if update_interval <= 0:
        raise ValueError("update_interval must be positive")
    if alignment_strength < 0:
        raise ValueError("alignment_strength must be nonnegative")
    return math.sqrt(
        mean_spacing * mean_spacing * alignment_strength / (4.0 * update_interval)
    )


def second_order_step(
    state: SecondOrderState,
    topology: NetworkTopology,
    params: ContinuumParams,
    *,
    operator: DiscrepancyOperator | None = None,
) -> SecondOrderState:
    """One explicit Euler update of the wave-like model.

    The value advances with the pre-update rate; the rate then relaxes with
    damping (1 - gain) / (gain * interval) and is driven against the
    neighbor discrepancy with strength Ks / (gain * interval). Driving
    against the discrepancy keeps the uniform-at-source state a fixed point,
    consistent with the first-order update this model approximates.
    """
    op = operator if operator is not None else DiscrepancyOperator(topology)
    h = params.integrator_step
    scale = params.dsr_gain * params.update_interval
    delta = op(state.value, params.source.value(state.step))
    new_value = state.value + h * state.rate
    new_rate = (
        state.rate
        - ((1.0 - params.dsr_gain) / scale) * h * state.rate
        - (params.alignment_strength / scale) * h * delta
    )
    return SecondOrderState(value=new_value, rate=new_rate, step=state.step + 1)


def diffusion_step(
    state: DiffusionState,
    topology: NetworkTopology,
    params: ContinuumParams,
    *,
    operator: DiscrepancyOperator | None = None,
) -> DiffusionState:
    """One explicit step of the overdamped diffusion limit.

    Identical arithmetic to the zero-gain DSR update, which it must match
    to bit tolerance.
    """
    op = operator if operator is not None else DiscrepancyOperator(topology)
    delta = op(state.values, params.source.value(state.step))
    new_values = (
        state.values
        - (params.alignment_strength * params.update_interval) * delta
    )
    return DiffusionState(values=new_values, step=state.step + 1)


def _record_run(step_fn, state_values, n_steps, step_seconds, record_every,
                diverged_check, params, topology, leader_ids):
    """Shared stride-recording loop for both continuum integrators."""
    recorded = [np.array(state_values(), dtype=float)]
    recorded_steps = [0]
    diverged = False
    diverged_step = None
    for _ in range(n_steps):
        step = step_fn()
        if step % record_every == 0 or step == n_steps:
            recorded.append(state_values().copy())
            recorded_steps.append(step)
        if diverged_check():
            if recorded_steps[-1] != step:
                recorded.append(state_values().copy())
                recorded_steps.append(step)
            diverged = True
            diverged_step = step
            break
    return Trajectory(
        times=np.asarray(recorded_steps, dtype=float) * step_seconds,
        values=np.vstack(recorded),
        params=params,
        leader_ids=tuple(sorted(leader_ids)),
        diverged=diverged,
        diverged_step=diverged_step,
    )


def simulate_second_order(
    topology: NetworkTopology,
    params: ContinuumParams,
    initial,
    n_steps: int,
    record_every: int = 1,
) -> Trajectory:
    """Integrate the wave-like model, recording every ``record_every`` steps.

    The rate starts at zero. Stops early with the divergence flag as soon
    as either the value or the rate blows up.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    if record_every < 1:
        raise ValueError("record_every must be at least 1")
    op = DiscrepancyOperator(topology)
    op.require_connected()
    state = SecondOrderState.from_initial(initial)
    if state.value.shape != (topology.n_agents,):
        raise ValueError("initial values must provide one entry per agent")
    box = {"state": state}

    def advance():
        box["state"] = second_order_step(box["state"], topology, params, operator=op)
        return box["state"].step

    return _record_run(
        step_fn=advance,
        state_values=lambda: box["state"].value,
        n_steps=n_steps,
        step_seconds=params.integrator_step,
        record_every=record_every,
        diverged_check=lambda: _values_diverged(box["state"].value, box["state"].rate),
        params=params,
        topology=topology,
        leader_ids=topology.leader_ids,
    )


def simulate_diffusion(
    topology: NetworkTopology,
    params: ContinuumParams,
    initial,
    n_steps: int,
    record_every: int = 1,
) -> Trajectory:
    """Integrate the overdamped model, recording every ``record_every`` steps."""
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    if record_every < 1:
        raise ValueError("record_every must be at least 1")
    op = DiscrepancyOperator(topology)
    op.require_connected()
    values = np.array(initial, dtype=float)
    if values.shape != (topology.n_agents,):
        raise ValueError("initial values must provide one entry per agent")
    box = {"state": DiffusionState(values=values, step=0)}

    def advance():
        box["state"] = diffusion_step(box["state"], topology, params, operator=op)
        return box["state"].step

    return _record_run(
        step_fn=advance,
        state_values=lambda: box["state"].values,
        n_steps=n_steps,
        step_seconds=params.update_interval,
        record_every=record_every,
        diverged_check=lambda: _values_diverged(box["state"].values),
        params=params,
        topology=topology,
        leader_ids=topology.leader_ids,
    )
