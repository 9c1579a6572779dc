"""Continuum-limit integrators for the consensus dynamics on the agent graph.

Two reductions of the DSR update are integrated with explicit Euler steps
on the same sensing graph. The overdamped reduction is plain diffusion:
values relax toward the neighborhood mean and disturbances spread with the
square root of time. It is the zero-gain DSR update, so it runs on the DSR
engine. The second-order reduction keeps the inertial term that the
reinforcement gain introduces, so information travels as a wave with the
finite front speed returned by :func:`predicted_wave_speed`.

The integrator interval may be much smaller than the consensus update
interval; the latter only sets the model coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dsr_core import BlockRun, DiscrepancyOperator, DsrParams, InfoState, Trajectory, dsr_run
from .dsr_core import _require_connected, dsr_step
from .topology import NetworkTopology


@dataclass(frozen=True)
class ContinuumParams:
    """The wave-like model: DSR coefficients and an explicit Euler step.

    ``dsr.update_interval`` is the consensus-model interval entering the
    damping and drive coefficients; ``integrator_step`` is the Euler step.
    The model divides by ``dsr_gain * update_interval``, so it needs a
    positive gain, and it has no update noise.
    """

    dsr: DsrParams
    integrator_step: float

    def __post_init__(self):
        if not self.integrator_step > 0:
            raise ValueError("integrator_step must be positive")
        if not self.dsr.dsr_gain > 0:
            raise ValueError("the second-order model needs dsr_gain > 0")
        if not self.dsr.noise_amplitude == 0:
            raise ValueError("the second-order model needs noise_amplitude == 0")


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
    consistent with the first-order update this model approximates. Raises
    IsolatedAgentError for an isolated non-leader, as the run does.
    """
    dsr = params.dsr
    scale = dsr.dsr_gain * dsr.update_interval
    op = operator if operator is not None else DiscrepancyOperator(topology)
    _require_connected(op.isolated)
    h = params.integrator_step
    delta = op(state.value, dsr.source.value(state.step))
    new_value = state.value + h * state.rate
    new_rate = (
        state.rate
        - ((1.0 - dsr.dsr_gain) / scale) * h * state.rate
        - (dsr.alignment_strength / scale) * h * delta
    )
    return SecondOrderState(value=new_value, rate=new_rate, step=state.step + 1)


def diffusion_step(
    state: InfoState,
    topology: NetworkTopology,
    params: DsrParams,
    *,
    operator: DiscrepancyOperator | None = None,
) -> InfoState:
    """One explicit step of the overdamped diffusion limit: the noiseless
    zero-gain ``dsr_step``, which reads neither the gain nor the noise of
    ``params`` and raises IsolatedAgentError for an isolated non-leader."""
    params = replace(params, dsr_gain=0.0, noise_amplitude=0.0)
    return dsr_step(state, topology, params, operator=operator)


def second_order_run(
    topology: NetworkTopology,
    params: ContinuumParams,
    initial=None,
    record_every: int = 1,
    **record,
) -> BlockRun:
    """A resumable run of the wave-like model on the block-stepped engine.

    The values start at ``initial`` and the rates at zero (see BlockRun).
    Same arithmetic, in the same order, as :func:`second_order_step`. The
    settling band, the extremes and the crossings are judged on the values
    only. ``record`` may give BlockRun's ``store`` and ``crossings``.
    """
    dsr, h = params.dsr, params.integrator_step
    scale = dsr.dsr_gain * dsr.update_interval
    damping = ((1.0 - dsr.dsr_gain) / scale) * h
    drive = (dsr.alignment_strength / scale) * h
    chains = (
        ("v'", ((1.0, "x"), (h, "r"))),
        ("r'", ((1.0, "r"), (-damping, "r"), ("-gain", "D"))),
    )
    return BlockRun(
        topology, dsr.source, initial, chains, [drive], params=params,
        step_seconds=h, state_width=2, record_every=record_every, **record,
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
    params: DsrParams,
    initial,
    n_steps: int,
    record_every: int = 1,
) -> Trajectory:
    """Integrate the overdamped model, recording every ``record_every`` steps.

    This is the DSR run of ``params`` at zero gain; ``params`` must be
    noiseless, since no seed is taken.
    """
    run = dsr_run(topology, [replace(params, dsr_gain=0.0)], initial, record_every=record_every)
    return run.advance(n_steps).trajectory()
