"""Quantitative observables for consensus and flocking runs.

Settling time, first-crossing delays, radial acceleration, correlation
lags, information-transfer speed, distance-vs-delay scaling exponents, and
empirical stability sweeps. All functions but ``confirm_settling``, which
advances the run it is given, are pure over their inputs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .dsr_core import SETTLING_BAND, BlockRun, DsrParams, StepSource, Trajectory, dsr_run
from .dsr_core import simulate  # noqa: F401  (perfbench/tracer.py wraps analysis.simulate)
from .flocking import FlockTrajectory
from .topology import NetworkTopology

# A settling time counts as confirmed once the run has gone on to this many
# times it, so that a late exit from the band cannot hide.
CONFIRM_FACTOR = 1.5


class UndefinedCorrelationError(ValueError):
    """Cross-correlation is undefined: a series is shorter than two samples
    or has zero variance."""


class InfiniteSpeedError(ValueError):
    """All delays coincide, so a distance-per-delay slope is undefined."""


@dataclass
class MetricsReport:
    """Headline observables of one run.

    ``settling_time`` is None when the run never settled (or diverged);
    ``per_agent_delay`` pairs each agent's distance from the leader's
    initial position with its delay (NaN when the agent never responded).
    """

    settling_time: float | None
    per_agent_delay: list[tuple[float, float]]
    transfer_speed: float | None
    scaling_exponent: float | None
    diverged: bool
    overshoot: float | None


# Values a metric reduces at a time, so that no temporary grows with the record.
_BLOCK_VALUES = 1 << 16


def _blocks(values: np.ndarray):
    """``(first row, rows)`` of ``values`` in blocks of whole rows, at most
    _BLOCK_VALUES values each unless a single row is longer."""
    step = max(1, _BLOCK_VALUES // max(1, values.shape[1]))
    for start in range(0, len(values), step):
        yield start, values[start : start + step]


def settling_time(
    traj: Trajectory,
    final_value: float,
    band: float = SETTLING_BAND,
    initial_value: float = 0.0,
) -> float | None:
    """First time after which every agent stays within the tolerance band.

    The band is that of a step source from ``initial_value`` to
    ``final_value`` (see ``StepSource.band``) and must be held through the
    end of the recorded trajectory. Returns None for runs that never
    satisfy it, including diverged runs.
    """
    half_width = StepSource(initial_value, final_value).band(band)
    if traj.diverged:
        return None
    deviation = np.concatenate(
        [np.abs(block - final_value).max(axis=1) for _, block in _blocks(traj.values)]
    )
    inside = deviation <= half_width
    if not inside[-1]:
        return None
    outside = np.flatnonzero(~inside)
    if outside.size == 0:
        return float(traj.times[0])
    return float(traj.times[outside[-1] + 1])


def overshoot(traj: Trajectory, source: StepSource) -> float | None:
    """Largest excess beyond the source's final value, on the far side of
    its step, as a fraction of |final| (of the step, when final is 0, as for
    the settling band).

    A monotone approach scores 0. None for diverged runs or a source with
    no step.
    """
    if traj.diverged or source.final == source.initial:
        return None
    values, final = traj.values, source.final
    excess = values.max() - final if final > source.initial else final - values.min()
    return max(0.0, float(excess)) / source.band(1.0)


def threshold_delay(traj: Trajectory, source: StepSource) -> np.ndarray:
    """Per-agent first-crossing time relative to the leader's.

    Crossing is the first recorded time at which an agent's value reaches
    10 % of the way from ``source.initial`` to ``source.final``: at or above
    that level for a rising step, at or below it for a falling one. Agents
    that never cross are marked NaN; if no leader crosses, or the source has
    no step, every entry is NaN.
    """
    if not traj.leader_ids:
        raise ValueError("trajectory has no leader to reference")
    if source.final == source.initial:
        return np.full(traj.n_agents, np.nan)
    level = source.initial + 0.1 * (source.final - source.initial)
    first_row = np.zeros(traj.n_agents, dtype=np.intp)
    pending = np.ones(traj.n_agents, dtype=bool)
    for start, block in _blocks(traj.values):
        crossed = block >= level if source.final > source.initial else block <= level
        now = pending & crossed.any(axis=0)
        first_row[now] = start + crossed.argmax(axis=0)[now]
        pending &= ~now
        if not pending.any():
            break
    crossing_times = traj.times[first_row].astype(float)
    crossing_times[pending] = np.nan
    leader_times = crossing_times[list(traj.leader_ids)]
    if np.isnan(leader_times).all():
        return np.full(traj.n_agents, np.nan)
    return crossing_times - np.nanmin(leader_times)


def radial_acceleration(flock: FlockTrajectory) -> np.ndarray:
    """Signed radial acceleration per agent, by central differences.

    Acceleration is projected onto the left-hand perpendicular of the
    velocity, so a counterclockwise turn is positive. The result has two
    rows fewer than the trajectory and aligns with ``flock.times[1:-1]``.
    For exact constant-speed motion this equals speed times the heading
    rate.
    """
    positions = flock.positions
    if positions.shape[0] < 3:
        raise ValueError("need at least 3 recorded steps")
    dt = flock.params.dsr.update_interval
    velocity = (positions[2:] - positions[:-2]) / (2.0 * dt)
    acceleration = (positions[2:] - 2.0 * positions[1:-1] + positions[:-2]) / dt**2
    speed = np.hypot(velocity[..., 0], velocity[..., 1])
    cross = (
        acceleration[..., 1] * velocity[..., 0]
        - acceleration[..., 0] * velocity[..., 1]
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        radial = np.where(speed > 0.0, cross / speed, 0.0)
    return radial


def correlation_delay(series, reference, dt: float) -> float:
    """Lag (in seconds) at which the series best correlates with the reference.

    Both series are mean-removed over their full length and compared by
    normalized cross-correlation on the integer-lag grid; positive lags
    mean the series trails the reference. Ties go to the smallest lag.
    """
    s = np.asarray(series, dtype=float)
    r = np.asarray(reference, dtype=float)
    if s.shape != r.shape or s.ndim != 1:
        raise ValueError("series and reference must be equal-length 1-D arrays")
    if s.size < 2:
        raise UndefinedCorrelationError("series too short to correlate")
    s_centered = s - s.mean()
    r_centered = r - r.mean()
    s_energy = float(s_centered @ s_centered)
    r_energy = float(r_centered @ r_centered)
    if s_energy == 0.0 or r_energy == 0.0:
        raise UndefinedCorrelationError("input series has zero variance")
    # full cross-correlation: index (L-1)+m holds sum_t r[t] * s[t+m]
    correlation = np.correlate(s_centered, r_centered, mode="full")
    best = int(np.argmax(correlation))
    return float(best - (s.size - 1)) * dt


def _columns(points) -> np.ndarray:
    """Distances and delays of (distance, delay) pairs or a (k, 2) array, as
    contiguous rows: a dot over strided columns may sum in another order."""
    return np.array(np.asarray(points, dtype=float).reshape(-1, 2).T, order="C")


def transfer_speed(points) -> float:
    """Distance-per-delay slope of a least-squares fit through the origin."""
    distances, delays = _columns(points)
    if len(delays) < 2:
        raise ValueError("need at least two (distance, delay) points")
    if np.all(delays == delays[0]):
        raise InfiniteSpeedError("all delays are equal; slope is undefined")
    denom = float(delays @ delays)
    if denom == 0.0:
        raise InfiniteSpeedError("all delays are zero; slope is undefined")
    return float(distances @ delays) / denom


def fit_scaling_exponent(points) -> float:
    """Exponent p of distance ~ delay**p from a log-log regression.

    The regression is of log(delay) on log(distance); its slope is inverted
    to express how far information reaches as a function of time.
    """
    distances, delays = _columns(points)
    if len(delays) < 3:
        raise ValueError("need at least three (distance, delay) points")
    if (distances <= 0).any() or (delays <= 0).any():
        raise ValueError("distances and delays must be positive")
    flat = ValueError("distances barely vary; exponent undefined")
    log_distances = np.log(distances)
    if np.ptp(log_distances) == 0:  # polyfit would divide by a zero column scale
        raise flat
    with warnings.catch_warnings():
        warnings.simplefilter("error", np.exceptions.RankWarning)
        try:
            slope = np.polyfit(log_distances, np.log(delays), 1)[0]
        except np.exceptions.RankWarning:
            raise flat from None
    if slope <= 0:
        raise ValueError("delays do not grow with distance; exponent undefined")
    return 1.0 / slope


@dataclass
class SweepResult:
    """Verdict for one alignment strength in a stability sweep."""

    alignment_strength: float
    diverged: bool
    settling_time: float | None


def confirm_settling(run: BlockRun, steps: int, max_steps: int):
    """Advance a one-column run to ``steps`` steps and on, until it diverges,
    reaches ``max_steps`` or runs CONFIRM_FACTOR times its settling time in
    steps (None while unsettled): one step past that multiple once there is
    one, else twice as far. Returns the last horizon, the settling time
    (None if diverged) and whether it was confirmed."""
    while True:
        if run.advance(steps).diverged_steps[0] is not None:
            return steps, None, False
        settled = run.settling_times()[0]
        if settled is not None and steps >= CONFIRM_FACTOR * settled / run.step_seconds - 1e-9:
            return steps, settled, True
        if steps >= max_steps:
            return steps, settled, False
        needed = 2 * steps if settled is None else (
            math.ceil(CONFIRM_FACTOR * settled / run.step_seconds) + 1
        )
        steps = min(max(needed, steps + 1), max_steps)


def settling_horizon(
    topology: NetworkTopology,
    params: DsrParams,
    seed: int | None = None,
    max_steps: int = 200_000,
) -> int:
    """Steps needed for the run to settle, found by growing the horizon.

    One unrecorded run, at rest on ``source.initial`` at step 0, grows from
    1000 steps (or ``max_steps``, if fewer) by ``confirm_settling``'s rule. Falls back to twice the
    divergence step (at least 1000, at most ``max_steps``) for unstable
    parameters and to the last horizon if not confirmed by ``max_steps``.
    """
    run = dsr_run(topology, [params], seed=seed, record_every=None)
    steps, settled, confirmed = confirm_settling(run, min(1000, max_steps), max_steps)
    if run.diverged_steps[0] is not None:
        return min(max(2 * run.diverged_steps[0], 1000), max_steps)
    return int(np.ceil(settled / params.update_interval)) if confirmed else steps


def sweep_horizon(topology, base_params: DsrParams, seed=None) -> int:
    """Default horizon of a stability sweep: twice the settling horizon of
    the zero-gain variant of ``base_params``, covering the whole transient."""
    return 2 * settling_horizon(topology, replace(base_params, dsr_gain=0.0), seed)


def stability_sweep(
    topology: NetworkTopology,
    base_params: DsrParams,
    ks_values,
    horizon_steps: int | None = None,
    seed: int | None = None,
) -> list[SweepResult]:
    """Stable-or-diverged verdict per alignment strength over a fixed horizon.

    The default horizon is that of ``sweep_horizon``. Every alignment
    strength is one column of a single run at rest on ``source.initial`` at
    step 0, and each column's verdict and settling time are reduced as it
    steps.
    """
    ks_list = [float(k) for k in ks_values]
    if not ks_list:
        raise ValueError("ks_values must be nonempty")
    if horizon_steps is None:
        horizon_steps = sweep_horizon(topology, base_params, seed)
    columns = [replace(base_params, alignment_strength=ks) for ks in ks_list]
    run = dsr_run(topology, columns, seed=seed, record_every=None)
    run.advance(horizon_steps)
    return [
        SweepResult(alignment_strength=ks, diverged=step is not None, settling_time=settled)
        for ks, step, settled in zip(ks_list, run.diverged_steps, run.settling_times())
    ]
