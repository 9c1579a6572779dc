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

from .dsr_core import BlockRun, DiscrepancyOperator, StepSource, Trajectory
from .topology import NetworkTopology


@dataclass(frozen=True)
class ContinuumParams:
    """Coefficients and stepping intervals of the continuum models.

    ``update_interval`` is the consensus-model interval entering the
    damping and drive coefficients. ``integrator_step`` is the explicit
    Euler step of the second-order model; the diffusion model steps at
    ``update_interval``. Gains lie in [0, 1); the second-order model
    divides by ``dsr_gain * update_interval`` and so also needs a positive
    gain.
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
        if not 0.0 <= self.dsr_gain < 1.0:
            raise ValueError("dsr_gain must lie in [0, 1)")


@dataclass
class SecondOrderState:
    """Per-agent value and rate of the wave-like model."""

    value: np.ndarray
    rate: np.ndarray
    step: int = 0

    @classmethod
    def from_initial(cls, values) -> "SecondOrderState":
        """State at step 0 with every rate at zero."""
        value = np.array(values, dtype=float)
        return cls(value=value, rate=np.zeros_like(value), step=0)


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


def _inertia(params: ContinuumParams) -> float:
    """``dsr_gain * update_interval``, which the second-order model divides by."""
    if params.dsr_gain <= 0.0:
        raise ValueError("the second-order model needs dsr_gain > 0")
    return params.dsr_gain * params.update_interval


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
    scale = _inertia(params)
    op = operator if operator is not None else DiscrepancyOperator(topology)
    h = params.integrator_step
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


def second_order_run(
    topology: NetworkTopology,
    params: ContinuumParams,
    initial,
    record_every: int = 1,
) -> BlockRun:
    """A resumable run of the wave-like model on the block-stepped engine.

    The rate starts at zero. Same arithmetic, in the same order, as
    :func:`second_order_step`.
    """
    h = params.integrator_step
    scale = _inertia(params)
    damping = ((1.0 - params.dsr_gain) / scale) * h

    def update(k, delta, scratch, gain, prev, cur, nxt):
        (value, rate), (new_value, new_rate) = cur, nxt
        np.multiply(h, rate, out=scratch)
        np.add(value, scratch, out=new_value)
        np.multiply(damping, rate, out=scratch)
        np.subtract(rate, scratch, out=new_rate)
        np.multiply(gain, delta, out=delta)
        np.subtract(new_rate, delta, out=new_rate)

    drive = (params.alignment_strength / scale) * h
    return BlockRun(
        topology, params.source, initial, update, [drive], params=params,
        step_seconds=h, state_width=2, record_every=record_every,
    )


def diffusion_run(
    topology: NetworkTopology,
    params: ContinuumParams,
    initial,
    record_every: int = 1,
) -> BlockRun:
    """A resumable run of the overdamped model on the block-stepped engine.

    Same arithmetic as :func:`diffusion_step`, with no ``0 * (cur - prev)``
    term: a zero-gain DSR update would turn -0.0 into +0.0 and inf into nan.
    """

    def update(k, delta, scratch, gain, prev, cur, nxt):
        np.multiply(gain, delta, out=delta)
        np.subtract(cur[0], delta, out=nxt[0])

    ksdt = params.alignment_strength * params.update_interval
    return BlockRun(
        topology, params.source, initial, update, [ksdt], params=params,
        step_seconds=params.update_interval, record_every=record_every,
    )


def simulate_second_order(
    topology: NetworkTopology,
    params: ContinuumParams,
    initial,
    n_steps: int,
    record_every: int = 1,
) -> Trajectory:
    """Integrate the wave-like model, recording every ``record_every`` steps.

    Stops early with the divergence flag as soon as either the value or the
    rate blows up.
    """
    run = second_order_run(topology, params, initial, record_every)
    return run.advance(n_steps).trajectory()


def simulate_diffusion(
    topology: NetworkTopology,
    params: ContinuumParams,
    initial,
    n_steps: int,
    record_every: int = 1,
) -> Trajectory:
    """Integrate the overdamped model, recording every ``record_every`` steps."""
    run = diffusion_run(topology, params, initial, record_every)
    return run.advance(n_steps).trajectory()
