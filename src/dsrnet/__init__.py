"""Deterministic simulation and analysis of delayed self-reinforcement
(DSR) information transfer on agent networks.

The package covers agent placement and sensing graphs, the DSR consensus
update, constant-speed flocking maneuvers driven by heading consensus, the
diffusion and wave-like continuum reductions, observables (settling time,
delays, transfer speed, scaling exponents), and a reproducible experiment
harness with named presets.
"""

from .analysis import (
    InfiniteSpeedError,
    MetricsReport,
    SweepResult,
    UndefinedCorrelationError,
    correlation_delay,
    fit_scaling_exponent,
    overshoot,
    radial_acceleration,
    settling_horizon,
    settling_time,
    stability_sweep,
    threshold_delay,
    transfer_speed,
)
from .continuum import (
    ContinuumParams,
    DiffusionState,
    SecondOrderState,
    diffusion_step,
    predicted_wave_speed,
    second_order_step,
    simulate_diffusion,
    simulate_second_order,
)
from .dsr_core import (
    DIVERGENCE_LIMIT,
    DiscrepancyOperator,
    DsrParams,
    InfoState,
    IsolatedAgentError,
    StepSource,
    Trajectory,
    detect_divergence,
    dsr_step,
    neighbor_discrepancy,
    simulate,
)
from .flocking import FlockParams, FlockTrajectory, kinematic_step, run_maneuver
from .harness import (
    ConfigError,
    EXPECTED_DIVERGENCE,
    ExperimentConfig,
    parse_config,
    preset_catalog,
    run_config,
    run_preset,
    write_trajectory_csv,
)
from .topology import (
    NetworkTopology,
    build_lattice,
    min_neighbor_count,
    sample_disc,
)

__version__ = "0.1.0"
