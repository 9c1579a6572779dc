"""Experiment harness: config parsing, named presets, and on-disk artifacts.

Configs are flat, line-oriented ``key = value`` text. Every run writes a
manifest echoing the fully resolved parameters in the same format, so any
run can be reproduced byte-for-byte from its manifest alone. Metrics go to
a JSON document with fixed keys; trajectories and plot tables go to CSV
with UNIX newlines and nine significant digits. Every artifact is written
line by line through one writer; none is assembled in memory first. The
matrix CSVs (trajectories and radial acceleration) gather their rows from
the record and format them a block of about 2**13 values at a time with
``csvfmt.format_rows``, which gives the per-value "%.9g" text byte for byte.
A lattice-info or continuum run stores only the rows trajectory.csv writes,
replaying the run where its stride was not foreseen, and reduces its delays
and overshoot as it steps (see ``_confirmed_run``): the artifacts are those
of the whole record, byte for byte.
"""

from __future__ import annotations

import json
import math
from contextlib import suppress
from dataclasses import dataclass, replace, fields
from pathlib import Path

import numpy as np

from . import analysis
from .analysis import MetricsReport, SweepResult
from .continuum import ContinuumParams, second_order_run
from .csvfmt import format_rows
from .dsr_core import DsrParams, IsolatedAgentError, StepSource, Trajectory, dsr_run

# perfbench/tracer.py wraps these names on this module.
from .continuum import simulate_diffusion, simulate_second_order  # noqa: F401
from .dsr_core import simulate  # noqa: F401
from .flocking import FlockParams, run_maneuver
from .topology import NetworkTopology, build_lattice, sample_disc

EXPERIMENT_KINDS = (
    "lattice-info",
    "flocking",
    "continuum-second-order",
    "continuum-diffusion",
    "stability-sweep",
)
NAMED_LEADERS = ("corner", "edge-midpoint", "center")

# Rows targeted by the automatic trajectory-CSV stride.
MAX_CSV_ROWS = 1200

# n_steps and max_steps may not exceed this many steps. The largest run of
# the ROADMAP's north star takes 4,800, and 10**9 steps of even 225 agents
# (about 4 us a step) take over an hour. A run stores only its CSV rows, so a
# horizon of 10**15 steps would not fail to allocate: it would step for years.
MAX_STEPS = 10**9

# Nonzero floats must lie within this factor of 1, so that the products and
# quotients the models form from them (Ks*dt, Ks/(beta*dt)*h, speed*dt,
# position differences over dt**2) stay finite.
FLOAT_MAGNITUDE = 1e30


class ConfigError(ValueError):
    """Invalid experiment config; ``violations`` lists every problem found."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully-typed experiment description, one flat key per field."""

    experiment: str
    topology: str = "lattice"
    rows: int = 25
    cols: int = 25
    spacing: float = 1.0
    n_agents: int = 225
    disc_radius: float = 25.0 / 3.0
    disc_sampling: str = "area"
    sensing_radius: float = 1.2
    leader: str = "corner"
    ks: float = 100.0
    beta: float = 0.0
    dt: float = 0.01
    noise: float = 0.0
    source_initial: float = 0.0
    source_final: float = 1.0
    switch_step: int = 0
    speed: float = 10.0
    initial_heading: float = -math.pi / 4
    target_heading: float = math.pi / 2
    integrator_dt: float | None = None
    record_every: int = 1
    n_steps: int | None = None
    max_steps: int | None = None
    csv_stride: int | None = None
    seed: int | None = None
    ks_values: tuple[float, ...] = ()
    near_fraction: float = 1.0 / 3.0


def _parse_ks_values(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


# A field's declared type fixes how its value is parsed.
_TYPE_CASTERS = {
    "str": str,
    "int": int,
    "float": float,
    "tuple[float, ...]": _parse_ks_values,
}
_CASTERS = {
    f.name: _TYPE_CASTERS[f.type.removesuffix(" | None")]
    for f in fields(ExperimentConfig)
}


# Numeric keys that must pass a test when set, with the message that names it.
_BOUNDS = (
    (("spacing", "disc_radius", "sensing_radius", "dt", "speed", "integrator_dt"),
     lambda v: v > 0, "must be positive"),
    (("ks", "noise", "switch_step", "n_steps", "max_steps", "seed"), lambda v: v >= 0,
     "must be nonnegative"),
    (("rows", "cols", "n_agents", "record_every", "csv_stride"), lambda v: v >= 1,
     "must be at least 1"),
    (("n_steps", "max_steps"), lambda v: v <= MAX_STEPS, f"must be at most {MAX_STEPS:_}"),
)
_CHOICES = {
    "experiment": EXPERIMENT_KINDS,
    "topology": ("lattice", "disc"),
    "disc_sampling": ("area", "literal"),
}

# The keys each experiment kind, and each topology, cannot use. Each must
# hold its ExperimentConfig default, which the manifest echoes. The one key
# accepted but never read is continuum-diffusion's beta (it runs the zero-gain
# update): rejecting it would change the bytes of fig3a_diffusion's manifest.
_HEADING_KEYS = ("speed", "initial_heading", "target_heading")
_UNUSED_KEYS = {
    "lattice-info": ("integrator_dt", "ks_values", *_HEADING_KEYS),
    # the radial acceleration differentiates positions at every step
    "flocking": ("integrator_dt", "record_every", "ks_values", "source_initial", "source_final"),
    "continuum-second-order": ("noise", "ks_values", *_HEADING_KEYS),
    "continuum-diffusion": ("integrator_dt", "noise", "ks_values", *_HEADING_KEYS),
    # a sweep records nothing and runs every column to one fixed horizon
    "stability-sweep": (
        "integrator_dt", "record_every", "max_steps", "csv_stride", *_HEADING_KEYS,
    ),
    "lattice": ("n_agents", "disc_radius", "disc_sampling"),
    "disc": ("rows", "cols", "spacing"),
}
_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}


def _unused_keys(cfg: ExperimentConfig) -> dict[str, str]:
    """Each key ``cfg`` cannot use, with what cannot use it."""
    return {
        **{key: cfg.experiment for key in _UNUSED_KEYS.get(cfg.experiment, ())},
        **{key: f"{cfg.topology} topologies" for key in _UNUSED_KEYS.get(cfg.topology, ())},
    }


def _validate(cfg: ExperimentConfig) -> list[str]:
    bad = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if "float" not in f.type or value is None:
            continue
        size = np.abs(np.array(value, dtype=float))
        if not np.isfinite(size).all():
            bad.append(f"{f.name}: must be finite")
        elif ((size > FLOAT_MAGNITUDE) | ((size > 0) & (size < 1 / FLOAT_MAGNITUDE))).any():
            bad.append(f"{f.name}: must be 0 or of magnitude 1e-30 to 1e30")
    for key, choices in _CHOICES.items():
        if getattr(cfg, key) not in choices:
            bad.append(f"{key}: must be one of " + ", ".join(choices))
    for keys, allowed, message in _BOUNDS:
        for key in keys:
            value = getattr(cfg, key)
            if value is not None and not allowed(value):
                bad.append(f"{key}: {message}")
    if cfg.topology == "disc" and cfg.leader in ("corner", "edge-midpoint"):
        bad.append("leader: disc topologies support 'center' or an agent index")
    if cfg.leader not in NAMED_LEADERS:
        agents = cfg.rows * cfg.cols if cfg.topology == "lattice" else cfg.n_agents
        try:
            if not 0 <= int(cfg.leader) < agents:
                bad.append(f"leader: agent index must lie in [0, {agents})")
        except ValueError:
            bad.append(
                "leader: must be corner, edge-midpoint, center, or an agent index"
            )
    if not 0.0 <= cfg.beta < 1.0:
        bad.append("beta: must lie in [0, 1); gains >= 1 leave the update undamped")
    if not 0.0 < cfg.near_fraction <= 1.0:
        bad.append("near_fraction: must lie in (0, 1]")
    if any(k < 0 for k in cfg.ks_values):
        bad.append("ks_values: entries must be nonnegative")

    for key, user in _unused_keys(cfg).items():
        if getattr(cfg, key) != _DEFAULTS[key]:
            held = _manifest_value(key, _DEFAULTS[key]) or "unset"
            bad.append(f"{key}: must be {held} for {user}, which cannot use it")
    if cfg.experiment == "continuum-second-order":
        if cfg.integrator_dt is None:
            bad.append("integrator_dt: required for continuum-second-order")
        if cfg.beta == 0.0:
            bad.append("beta: must be positive for continuum-second-order")
    if cfg.experiment == "stability-sweep" and not cfg.ks_values:
        bad.append("ks_values: required for stability-sweep")
    if cfg.seed is None and (cfg.noise > 0 or cfg.topology == "disc"):
        bad.append("seed: required when noise > 0 or topology is disc")
    return bad


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a flat key = value config document.

    Raises ConfigError carrying every violation found (unknown keys,
    missing required keys, and invariant breaches), each naming the key.
    """
    violations = []
    raw = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            violations.append(f"line {lineno}: expected 'key = value'")
            continue
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CASTERS:
            violations.append(f"{key}: unknown key")
            continue
        if key in raw:
            violations.append(f"{key}: duplicate key")
            continue
        try:
            raw[key] = _CASTERS[key](value)
        except ValueError:
            violations.append(f"{key}: cannot parse value {value!r}")
    if "experiment" not in raw and not any(
        v.startswith("experiment:") for v in violations
    ):
        violations.append("experiment: missing required key")
    if violations and "experiment" not in raw:
        raise ConfigError(violations)
    cfg = ExperimentConfig(**raw)
    violations.extend(_validate(cfg))
    if violations:
        raise ConfigError(violations)
    return cfg


def _manifest_value(key: str, value) -> str | None:
    """``value`` as the manifest writes it for ``key``; None when unset."""
    if key == "ks_values":
        return ",".join(repr(v) for v in value) or None
    return None if value is None else str(value)


def _config_lines(cfg: ExperimentConfig):
    for field_info in fields(ExperimentConfig):
        text = _manifest_value(field_info.name, getattr(cfg, field_info.name))
        if text is not None:
            yield f"{field_info.name} = {text}"


def config_text(cfg: ExperimentConfig) -> str:
    """Serialize a config in the format parse_config reads."""
    return "".join(line + "\n" for line in _config_lines(cfg))


def _leader_index(cfg: ExperimentConfig, positions: np.ndarray) -> int:
    if cfg.leader not in NAMED_LEADERS:
        return int(cfg.leader)
    if cfg.topology == "disc":
        return int(np.argmin(np.hypot(positions[:, 0], positions[:, 1])))
    if cfg.leader == "corner":
        return 0
    if cfg.leader == "edge-midpoint":
        return cfg.cols // 2
    return (cfg.rows // 2) * cfg.cols + cfg.cols // 2


def _resolve_topology(cfg: ExperimentConfig) -> tuple[NetworkTopology, int]:
    if cfg.topology == "lattice":
        positions = build_lattice(cfg.rows, cfg.cols, cfg.spacing)
    else:
        rng = np.random.default_rng(cfg.seed)
        positions = sample_disc(cfg.n_agents, cfg.disc_radius, rng, cfg.disc_sampling)
    leader = _leader_index(cfg, positions)
    topology = NetworkTopology.build(positions, cfg.sensing_radius, {leader})
    return topology, leader


def _source(cfg: ExperimentConfig) -> StepSource:
    """The source schedule: the heading turn for flocking, else the step."""
    if cfg.experiment == "flocking":
        return StepSource(cfg.initial_heading, cfg.target_heading, cfg.switch_step)
    return StepSource(cfg.source_initial, cfg.source_final, cfg.switch_step)


def _dsr_params(cfg: ExperimentConfig) -> DsrParams:
    """The DSR parameters; the diffusion model is the zero-gain update, so
    ``continuum-diffusion`` ignores ``beta``."""
    return DsrParams(
        alignment_strength=cfg.ks,
        dsr_gain=0.0 if cfg.experiment == "continuum-diffusion" else cfg.beta,
        update_interval=cfg.dt,
        source=_source(cfg),
        noise_amplitude=cfg.noise,
    )


def _confirmed_run(cfg: ExperimentConfig, topology: NetworkTopology, steps, max_steps):
    """The record, horizon and CSV stride of a lattice-info or continuum run
    from rest on the source's initial value, grown from ``steps`` by
    ``analysis.confirm_settling``. The run judges every ``record_every``-th
    step and reduces its delays and extremes as it steps, but its record
    holds only the rows trajectory.csv writes (see BlockRun's ``store``):
    those of an explicit ``csv_stride``; else those of the stride of the
    first horizon, where a settled run stops, until the run grows past it,
    and those of the stride of ``max_steps``, where an unsettled one stops.
    A run whose stride is neither runs again from step 0, storing only its
    own: every run is deterministic. The run is freed on return, before the
    artifacts are written."""
    every = cfg.record_every

    def start(strides):
        store = {every * stride: horizon for stride, horizon in strides.items()}
        if cfg.experiment == "continuum-second-order":
            params = ContinuumParams(_dsr_params(cfg), cfg.integrator_dt)
            return second_order_run(topology, params, None, every, store=store, crossings=True)
        return dsr_run(
            topology, [_dsr_params(cfg)], None, cfg.seed, every, store=store, crossings=True
        )

    def stride(last_step):
        return cfg.csv_stride or _auto_stride(1 + -(-last_step // every))

    # where the two strides are equal (as for a csv_stride), one record serves
    run = start({stride(steps): steps, stride(max_steps): max_steps})
    steps, _, _ = analysis.confirm_settling(run, steps, max_steps)
    diverged = run.diverged_steps[0]
    final = stride(steps if diverged is None else diverged)
    if every * final not in run.stored:
        del run  # freed before the replay
        run = start({final: steps}).advance(steps)
    return run.trajectory(every * final), steps, final


def _correlation_delays(radial: np.ndarray, leader: int, dt: float) -> np.ndarray:
    """Each agent's lag behind the leader's radial acceleration, NaN where
    the lag is undefined."""
    reference = radial[:, leader]
    delays = np.full(radial.shape[1], np.nan)
    for agent in range(radial.shape[1]):
        try:
            delays[agent] = analysis.correlation_delay(radial[:, agent], reference, dt)
        except analysis.UndefinedCorrelationError:
            pass
    return delays


def _metrics_report(cfg, topology, leader, traj, delays) -> MetricsReport:
    """The run's report. ``delays`` holds each agent's delay behind the
    leader, or is None when the run has none; transfer speed and scaling
    exponent are fitted over the pairs of positive, finite delay whose agent
    lies off the leader and within ``near_fraction`` of the positions'
    bounding-box diagonal from it."""
    positions = topology.positions
    pairs = np.empty((0, 2))
    if delays is not None:
        pairs = np.column_stack((np.hypot(*(positions - positions[leader]).T), delays))
    distances, lags = pairs.T
    spans = positions.max(axis=0) - positions.min(axis=0)
    cutoff = cfg.near_fraction * float(np.hypot(*spans))
    near = pairs[np.isfinite(lags) & (lags > 0) & (distances > 0) & (distances <= cutoff)]
    speed = exponent = None
    with suppress(ValueError):
        speed = analysis.transfer_speed(near)
    with suppress(ValueError):
        exponent = analysis.fit_scaling_exponent(near)
    return MetricsReport(
        settling_time=traj.settling_time,
        per_agent_delay=list(map(tuple, pairs.tolist())),
        transfer_speed=speed,
        scaling_exponent=exponent,
        diverged=traj.diverged,
        overshoot=analysis.step_overshoot(traj.extremes, _source(cfg)),
    )


def _write_lines(path: Path, lines):
    """Write ``lines`` one item at a time, so no artifact is ever held in
    memory whole. An item is a line of text, written with a UNIX newline, or
    ASCII bytes of whole lines: a matrix CSV comes one formatted block of
    rows at a time."""
    with open(path, "wb") as handle:
        for line in lines:
            handle.write((line + "\n").encode() if isinstance(line, str) else line)


# Every number in a CSV is written as "%.9g", which gives the same text as
# format(value, ".9g"); a table's missing or non-finite value is left empty.


def _cell(value) -> str:
    return "%.9g" % value if value is not None and math.isfinite(value) else ""


# Values a matrix CSV formats together: whole rows, or a block of a longer
# row. Formatting holds about 60 bytes of numpy temporaries per value, about
# 96 with the gathered rows and the text of the block before (tracemalloc, a
# 1,201 x 225 record), near 0.8 MB; each block also costs some 50 numpy
# calls, whatever its size. Blocks of 2**14 raised paper_presets' peak RSS
# by 1.6 MiB.
_BLOCK_VALUES = 2**13


def _matrix_lines(times: np.ndarray, matrix: np.ndarray, stride: int):
    """The header line, then each formatted block of rows as one item: rows
    0, stride, 2 * stride, ... and the last, gathered a block at a time into
    one buffer."""
    yield ",".join(["t"] + [f"agent_{i}" for i in range(matrix.shape[1])])
    times, matrix = np.asarray(times, dtype=float), np.asarray(matrix, dtype=float)
    last = len(times) - 1
    keep = np.unique(np.append(np.arange(0, last + 1, stride), last))
    cols = matrix.shape[1] + 1
    step = max(1, _BLOCK_VALUES // cols)
    buffer = np.empty((min(step, len(keep)), cols))
    for start in range(0, len(keep), step):
        rows = keep[start : start + step]
        block = buffer[: len(rows)]
        np.take(times, rows, out=block[:, 0], mode="clip")
        np.take(matrix, rows, axis=0, out=block[:, 1:], mode="clip")
        # a row longer than a block is formatted a block of it at a time
        for left in range(0, cols, _BLOCK_VALUES):
            yield format_rows(block[:, left : left + _BLOCK_VALUES], left + _BLOCK_VALUES >= cols)


def write_trajectory_csv(traj: Trajectory, path, stride: int = 1) -> None:
    """Write a trajectory as CSV: header ``t,agent_0,...``, then its rows 0,
    stride, 2 * stride, ... and its last row, read from the record in place.

    Values carry nine significant digits; output bytes are deterministic.
    """
    if stride < 1:
        raise ValueError("stride must be at least 1")
    _write_lines(Path(path), _matrix_lines(traj.times, traj.values, stride))


def _delay_lines(pairs):
    yield "agent,distance_m,delay_s"
    for agent, (distance, delay) in enumerate(pairs):
        yield "%d,%.9g,%s" % (agent, distance, _cell(delay))


def _sweep_lines(results: list[SweepResult]):
    yield "ks,verdict,settling_time_s"
    for entry in results:
        verdict = "diverged" if entry.diverged else "stable"
        yield "%.9g,%s,%s" % (entry.alignment_strength, verdict, _cell(entry.settling_time))


def _metrics_lines(report: MetricsReport, experiment: str) -> list[str]:
    doc = {
        "settling_time_s": report.settling_time,
        "transfer_speed_mps": report.transfer_speed,
        "scaling_exponent": report.scaling_exponent,
        "diverged": report.diverged,
        "overshoot": report.overshoot,
        "experiment": experiment,
    }
    return json.dumps(doc, indent=2, sort_keys=True).split("\n")


def _auto_stride(rows: int) -> int:
    return max(1, math.ceil(rows / MAX_CSV_ROWS))


def run_config(cfg: ExperimentConfig, out_dir):
    """Execute one experiment and write its artifacts.

    Returns ``(paths, result)`` where paths maps artifact names to files and
    result is a MetricsReport (or a list of SweepResult for sweeps). The
    manifest echoes every resolved parameter, including the horizon the run
    actually used, so re-running from the manifest reproduces every output
    byte. Raises ConfigError if the config breaks any invariant that
    parse_config checks (CLI overrides such as ``--ks`` bypass parsing) or
    its sensing radius leaves an agent short of neighbors.
    """
    violations = _validate(cfg)
    if violations:
        raise ConfigError(violations)
    try:
        return _run_validated(cfg, Path(out_dir))
    except IsolatedAgentError as err:
        raise ConfigError([f"sensing_radius: {err}"]) from err


def _run_validated(cfg: ExperimentConfig, out: Path):
    out.mkdir(parents=True, exist_ok=True)
    topology, leader = _resolve_topology(cfg)
    paths = {}

    if cfg.experiment == "stability-sweep":
        base, steps = _dsr_params(cfg), cfg.n_steps
        if steps is None:
            steps = analysis.sweep_horizon(topology, base, seed=cfg.seed)
        result = analysis.stability_sweep(topology, base, cfg.ks_values, steps, cfg.seed)
        resolved = replace(cfg, leader=str(leader), n_steps=steps)
        paths["sweep"] = out / "sweep.csv"
        _write_lines(paths["sweep"], _sweep_lines(result))
    else:
        n_steps = 1000 if cfg.n_steps is None else cfg.n_steps
        max_steps = 8 * n_steps if cfg.max_steps is None else cfg.max_steps
        steps = min(n_steps, max_steps)
        if cfg.experiment == "flocking":
            params = FlockParams(speed=cfg.speed, dsr=_dsr_params(cfg), n_steps=steps)
            traj = run_maneuver(topology, params, cfg.seed)
            delays = None
            if traj.positions.shape[0] >= 3 and not traj.diverged:
                radial = analysis.radial_acceleration(traj)
                delays = _correlation_delays(radial, leader, cfg.dt)
                paths["radial_acceleration"] = out / "radial_acceleration.csv"
                write_trajectory_csv(
                    Trajectory(traj.times[1:-1], radial, traj.params, traj.leader_ids),
                    paths["radial_acceleration"],
                )
            # a flock's record holds every step, for the radial acceleration
            stride = record_stride = cfg.csv_stride or _auto_stride(traj.values.shape[0])
        else:
            traj, steps, stride = _confirmed_run(cfg, topology, steps, max_steps)
            record_stride = 1  # the record holds only the CSV's rows
            delays = None if traj.diverged else analysis.delays_behind_leader(
                traj.crossing_times, traj.leader_ids
            )
        result = _metrics_report(cfg, topology, leader, traj, delays)

        resolved = replace(
            cfg, leader=str(leader), n_steps=steps, max_steps=max_steps, csv_stride=stride
        )
        paths["trajectory"] = out / "trajectory.csv"
        write_trajectory_csv(traj, paths["trajectory"], record_stride)
        paths["metrics"] = out / "metrics.json"
        _write_lines(paths["metrics"], _metrics_lines(result, cfg.experiment))
        if result.per_agent_delay:
            paths["delays"] = out / "delays.csv"
            _write_lines(paths["delays"], _delay_lines(result.per_agent_delay))
    paths["manifest"] = out / "manifest.cfg"
    _write_lines(paths["manifest"], _config_lines(resolved))
    return paths, result


# ---------------------------------------------------------------------------
# Preset catalog
# ---------------------------------------------------------------------------

# The lattice presets use 225 agents (15 x 15 at 1 m spacing). A placement
# sweep reproduces the anchor settling times 69 s / 1.72 s / 3.52 s exactly
# when the leader sits one step in from a corner, so that placement is
# frozen here. Its far-corner agent (index 224) lies 13*sqrt(2) = 18.38 m
# from the leader, the reference distance of the flocking maneuver.
LATTICE_ROWS = 15
LATTICE_COLS = 15
LATTICE_LEADER = "16"

# Presets that are supposed to blow up; their divergence is a success.
EXPECTED_DIVERGENCE = frozenset({"fig1_unstable", "fig3b_unstable"})

_LATTICE_BASE = dict(
    topology="lattice",
    rows=LATTICE_ROWS,
    cols=LATTICE_COLS,
    spacing=1.0,
    sensing_radius=1.2,
    leader=LATTICE_LEADER,
    dt=0.01,
)

# Each preset: its description, then its parameters.
PRESETS = {
    "fig1b": (
        "lattice step response, no reinforcement (slow settling baseline)",
        dict(_LATTICE_BASE, experiment="lattice-info", ks=100.0, beta=0.0, n_steps=12000),
    ),
    "fig1c": (
        "lattice step response with reinforcement gain 0.96 (fast settling)",
        dict(_LATTICE_BASE, experiment="lattice-info", ks=100.0, beta=0.96, n_steps=600),
    ),
    "fig1d": (
        "lattice step response with gain 0.98 (oscillatory, overshoots)",
        dict(_LATTICE_BASE, experiment="lattice-info", ks=100.0, beta=0.98, n_steps=800),
    ),
    "fig1_unstable": (
        "alignment strength past the stability cliff; diverges by design",
        dict(_LATTICE_BASE, experiment="lattice-info", ks=101.0, beta=0.0, n_steps=2500),
    ),
    # Flock speed is frozen at 5 m/s: above that, neighborhood churn during
    # the turn corrupts the near-field correlation delays and the measured
    # transfer speed drifts far from the 47 m/s wave-propagation anchor.
    "fig2_lattice": (
        "constant-speed turn maneuver of a lattice flock with reinforcement",
        dict(
            _LATTICE_BASE, experiment="flocking", ks=100.0, beta=0.96, speed=5.0,
            n_steps=400,
        ),
    ),
    # The disc preset samples radii as sqrt(U(0, disc_radius)) ("literal"
    # mode): with 225 agents, uniform-area sampling at this radius leaves
    # some agent with fewer than two starting neighbors for essentially
    # every draw, violating the maneuver precondition.
    "fig2_disc_noise": (
        "turn maneuver of a random-disc flock with update noise",
        dict(
            experiment="flocking",
            topology="disc",
            n_agents=225,
            disc_radius=25.0 / 3.0,
            disc_sampling="literal",
            sensing_radius=1.2,
            leader="center",
            dt=0.01,
            ks=100.0,
            beta=0.96,
            speed=5.0,
            noise=0.025,
            seed=7,
            n_steps=400,
        ),
    ),
    # The model interval of the diffusion preset differs from the base dt.
    "fig3a_diffusion": (
        "pure-diffusion model matched to the fast DSR settling time",
        dict(
            _LATTICE_BASE, experiment="continuum-diffusion", dt=2.49e-4, ks=4011.0,
            beta=0.96, n_steps=20080, record_every=40,
        ),
    ),
    "fig3b_second_order": (
        "second-order wave-like model at its stable integrator step",
        dict(
            _LATTICE_BASE, experiment="continuum-second-order", ks=100.0, beta=0.96,
            integrator_dt=1.246e-4, n_steps=40128, record_every=80,
        ),
    ),
    "fig3b_unstable": (
        "second-order model at twice the stable step; diverges by design",
        dict(
            _LATTICE_BASE, experiment="continuum-second-order", ks=100.0, beta=0.96,
            integrator_dt=2.493e-4, n_steps=160000, record_every=400,
        ),
    ),
}


def preset_catalog() -> dict[str, ExperimentConfig]:
    """Named experiment configurations with frozen parameters."""
    return {name: ExperimentConfig(**defn) for name, (_, defn) in PRESETS.items()}


def _preset_config(name: str, seed: int | None = None) -> ExperimentConfig:
    """A named preset's config, with its seed overridden when one is given."""
    catalog = preset_catalog()
    if name not in catalog:
        known = ", ".join(sorted(catalog))
        raise ConfigError([f"preset: unknown preset {name!r}; known presets: {known}"])
    cfg = catalog[name]
    return cfg if seed is None else replace(cfg, seed=seed)


def run_preset(name: str, seed: int | None = None, out_dir="."):
    """Run a named preset, optionally overriding its seed.

    Returns ``(paths, result)`` exactly like run_config.
    """
    return run_config(_preset_config(name, seed), out_dir)
