"""Quantitative observables for consensus and flocking runs.

Settling time, first-crossing delays, radial acceleration, correlation
lags, information-transfer speed, distance-vs-delay scaling exponents, and
empirical stability sweeps. All functions are pure over their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dsr_core import DsrParams, Trajectory, simulate
from .flocking import FlockTrajectory
from .topology import NetworkTopology


class UndefinedCorrelationError(ValueError):
    """Cross-correlation is undefined because an input has zero variance."""


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


def _row_max(values: np.ndarray, transform) -> np.ndarray:
    """Per-row max of ``transform(values)``, evaluated in blocks of about
    2**18 values so that no temporary grows as large as the trajectory."""
    step = max(1, (1 << 18) // max(1, values.shape[1]))
    blocks = (values[i : i + step] for i in range(0, len(values), step))
    return np.concatenate([transform(block).max(axis=1) for block in blocks])


def settling_time(
    traj: Trajectory,
    final_value: float,
    band: float = 0.02,
) -> float | None:
    """First time after which every agent stays within the tolerance band.

    The band is ``band * |final_value|`` around ``final_value`` and must be
    held through the end of the recorded trajectory. Returns None for runs
    that never satisfy it, including diverged runs.
    """
    if band <= 0:
        raise ValueError("band must be positive")
    if traj.diverged:
        return None
    deviation = _row_max(traj.values, lambda block: np.abs(block - final_value))
    inside = deviation <= band * abs(final_value)
    if not inside[-1]:
        return None
    outside = np.flatnonzero(~inside)
    if outside.size == 0:
        return float(traj.times[0])
    return float(traj.times[outside[-1] + 1])


def overshoot(traj: Trajectory, final_value: float) -> float | None:
    """Largest excess beyond the final value, as a fraction of it.

    Measures how far any agent overshoots the target on the far side of
    the approach; a monotone approach scores 0. None for diverged runs or
    a zero final value.
    """
    if traj.diverged or final_value == 0:
        return None
    sign = 1.0 if final_value > 0 else -1.0
    excess = _row_max(traj.values, lambda block: sign * block - abs(final_value)).max()
    return max(0.0, float(excess)) / abs(final_value)


def threshold_delay(traj: Trajectory, threshold: float = 0.1) -> np.ndarray:
    """Per-agent first-crossing time relative to the leader's.

    Crossing is the first recorded time at which an agent's value reaches
    the threshold. Agents that never cross are marked NaN; if no leader
    crosses, every entry is NaN.
    """
    if not traj.leader_ids:
        raise ValueError("trajectory has no leader to reference")
    crossed = traj.values >= threshold
    ever = crossed.any(axis=0)
    first_row = crossed.argmax(axis=0)
    crossing_times = traj.times[first_row].astype(float)
    crossing_times[~ever] = np.nan
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


def correlation_delay(
    series,
    reference,
    dt: float,
    max_lag: int | None = None,
) -> float:
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
        raise ValueError("series too short to correlate")
    s_centered = s - s.mean()
    r_centered = r - r.mean()
    s_energy = float(s_centered @ s_centered)
    r_energy = float(r_centered @ r_centered)
    if s_energy == 0.0 or r_energy == 0.0:
        raise UndefinedCorrelationError("input series has zero variance")
    # full cross-correlation: index (L-1)+m holds sum_t r[t] * s[t+m]
    correlation = np.correlate(s_centered, r_centered, mode="full")
    lags = np.arange(-(s.size - 1), s.size)
    if max_lag is not None:
        window = np.abs(lags) <= max_lag
        correlation = correlation[window]
        lags = lags[window]
    best = int(np.argmax(correlation))
    return float(lags[best]) * dt


def transfer_speed(points) -> float:
    """Distance-per-delay slope of a least-squares fit through the origin."""
    pts = list(points)
    if len(pts) < 2:
        raise ValueError("need at least two (distance, delay) points")
    distances = np.asarray([p[0] for p in pts], dtype=float)
    delays = np.asarray([p[1] for p in pts], dtype=float)
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
    pts = list(points)
    if len(pts) < 3:
        raise ValueError("need at least three (distance, delay) points")
    distances = np.asarray([p[0] for p in pts], dtype=float)
    delays = np.asarray([p[1] for p in pts], dtype=float)
    if (distances <= 0).any() or (delays <= 0).any():
        raise ValueError("distances and delays must be positive")
    slope = np.polyfit(np.log(distances), np.log(delays), 1)[0]
    if slope <= 0:
        raise ValueError("delays do not grow with distance; exponent undefined")
    return 1.0 / slope


@dataclass
class SweepResult:
    """Verdict for one alignment strength in a stability sweep."""

    alignment_strength: float
    diverged: bool
    settling_time: float | None


def settling_horizon(
    topology: NetworkTopology,
    params: DsrParams,
    initial=None,
    seed: int | None = None,
    band: float = 0.02,
    max_steps: int = 200_000,
) -> int:
    """Steps needed for the run to settle, found by growing the horizon.

    Falls back to twice the divergence step for unstable parameters and to
    ``max_steps`` if the run never settles within it.
    """
    if initial is None:
        initial = np.zeros(topology.n_agents)
    steps = 1000
    while True:
        traj = simulate(topology, params, initial, steps, seed)
        if traj.diverged:
            return max(2 * int(traj.diverged_step or steps), 1000)
        settled = settling_time(traj, params.source.final, band)
        if settled is not None and traj.times[-1] >= 1.5 * settled:
            return int(np.ceil(settled / params.update_interval))
        if steps >= max_steps:
            return steps
        steps = min(2 * steps, max_steps)


def stability_sweep(
    topology: NetworkTopology,
    base_params: DsrParams,
    ks_values,
    initial=None,
    horizon_steps: int | None = None,
    seed: int | None = None,
    band: float = 0.02,
) -> list[SweepResult]:
    """Stable-or-diverged verdict per alignment strength over a fixed horizon.

    The default horizon is twice the settling horizon of the zero-gain
    variant of ``base_params``, so the verdicts cover the whole transient.
    """
    ks_list = [float(k) for k in ks_values]
    if not ks_list:
        raise ValueError("ks_values must be nonempty")
    if initial is None:
        initial = np.zeros(topology.n_agents)
    if horizon_steps is None:
        probe = replace(base_params, dsr_gain=0.0)
        horizon_steps = 2 * settling_horizon(topology, probe, initial, seed, band)
    results = []
    for ks in ks_list:
        params = replace(base_params, alignment_strength=ks)
        traj = simulate(topology, params, initial, horizon_steps, seed)
        results.append(
            SweepResult(
                alignment_strength=ks,
                diverged=traj.diverged,
                settling_time=settling_time(traj, params.source.final, band),
            )
        )
    return results
