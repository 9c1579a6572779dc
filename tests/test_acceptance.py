"""Acceptance gate: every headline criterion at its stated tolerance.

Each test prints one pass/fail line for its criterion. Presets are run
twice into separate directories by a shared fixture, which both feeds the
metric checks and backs the byte-level reproducibility criterion.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from dsrnet.analysis import (
    correlation_delay,
    settling_time,
    stability_sweep,
)
from dsrnet.continuum import predicted_wave_speed
from dsrnet.dsr_core import (
    DsrParams,
    StepSource,
    _discrepancy,
    _dsr_update,
    _weights,
    dsr_run,
    simulate,
)
from dsrnet.flocking import FlockParams, run_maneuver
from dsrnet.harness import preset_catalog, run_preset
from dsrnet.topology import NetworkTopology, build_lattice

import per_agent

LATTICE = build_lattice(15, 15, 1.0)
FROZEN_LEADER = 16
PLACEMENTS = {
    "corner": 0,
    "edge-midpoint": 7,
    "center": 7 * 15 + 7,
    "frozen": FROZEN_LEADER,
}
STEP_TO_ONE = StepSource(0.0, 1.0, 0)


def _report(number: int, checks: list[tuple[str, bool, str]]):
    ok = all(passed for _, passed, _ in checks)
    detail = "; ".join(
        f"{label} {'ok' if passed else 'FAIL'} ({info})"
        for label, passed, info in checks
    )
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    failing = [f"{label}: {info}" for label, passed, info in checks if not passed]
    assert not failing, f"criterion {number}: " + "; ".join(failing)


def _within(value, target, fraction):
    return value is not None and abs(value - target) <= fraction * target


@pytest.fixture(scope="module")
def preset_runs(tmp_path_factory):
    """Every preset, run twice with identical seeds."""
    base = tmp_path_factory.mktemp("acceptance_presets")
    runs = {}
    for name in sorted(preset_catalog()):
        started = time.perf_counter()
        paths_a, result_a = run_preset(name, out_dir=base / f"{name}_a")
        elapsed = time.perf_counter() - started
        paths_b, _ = run_preset(name, out_dir=base / f"{name}_b")
        runs[name] = {
            "paths_a": paths_a,
            "paths_b": paths_b,
            "report": result_a,
            "wall_s": elapsed,
        }
    return runs


@pytest.fixture(scope="module")
def flock_runs():
    """Turn maneuvers matching the fig2_lattice preset, with variants."""
    cfg = preset_catalog()["fig2_lattice"]
    assert (cfg.rows, cfg.cols) == (15, 15)

    def params(beta, noise=0.0):
        dsr = DsrParams(
            cfg.ks,
            beta,
            cfg.dt,
            StepSource(cfg.initial_heading, cfg.target_heading, cfg.switch_step),
            noise_amplitude=noise,
        )
        return FlockParams(speed=cfg.speed, dsr=dsr, n_steps=cfg.n_steps)

    topology = NetworkTopology.build(LATTICE, cfg.sensing_radius, {int(cfg.leader)})
    return {
        "dsr": run_maneuver(topology, params(0.96)),
        "plain": run_maneuver(topology, params(0.0)),
        "noisy": run_maneuver(topology, params(0.96, noise=0.025), seed=101),
    }


def test_criterion_1_settling_anchors(preset_runs):
    ts_b = preset_runs["fig1b"]["report"].settling_time
    ts_c = preset_runs["fig1c"]["report"].settling_time
    ts_d = preset_runs["fig1d"]["report"].settling_time
    over_d = preset_runs["fig1d"]["report"].overshoot
    walls = {k: preset_runs[k]["wall_s"] for k in ("fig1b", "fig1c", "fig1d")}
    _report(
        1,
        [
            ("Ts(beta=0)=69s +/-20%", _within(ts_b, 69.0, 0.20), f"{ts_b}"),
            ("Ts(beta=.96)=1.72s +/-10%", _within(ts_c, 1.72, 0.10), f"{ts_c}"),
            ("Ts(beta=.98)=3.52s +/-15%", _within(ts_d, 3.52, 0.15), f"{ts_d}"),
            ("overshoot(beta=.98) > 2%", over_d is not None and over_d > 0.02, f"{over_d}"),
            (
                "runtime < 10 s each",
                all(w < 10.0 for w in walls.values()),
                ", ".join(f"{k}={v:.2f}s" for k, v in walls.items()),
            ),
        ],
    )


def test_criterion_2_improvement_ratio_any_placement():
    checks = []
    for name, leader in PLACEMENTS.items():
        topology = NetworkTopology.build(LATTICE, 1.2, {leader})
        slow_params = DsrParams(100.0, 0.0, 0.01, STEP_TO_ONE)
        fast_params = DsrParams(100.0, 0.96, 0.01, STEP_TO_ONE)
        slow = settling_time(
            simulate(topology, slow_params, np.zeros(225), 14000), 1.0
        )
        fast = settling_time(
            simulate(topology, fast_params, np.zeros(225), 800), 1.0
        )
        ratio = None if slow is None or fast is None else slow / fast
        checks.append(
            (
                f"{name} ratio >= 30",
                ratio is not None and ratio >= 30.0,
                f"Ts0={slow}, Ts96={fast}, ratio={ratio and round(ratio, 1)}",
            )
        )
    _report(2, checks)


def test_criterion_3_stability_cliff():
    topology = NetworkTopology.build(LATTICE, 1.2, {FROZEN_LEADER})
    base = DsrParams(100.0, 0.0, 0.01, STEP_TO_ONE)
    results = stability_sweep(topology, base, [100.0, 101.0])
    by_ks = {r.alignment_strength: r for r in results}
    _report(
        3,
        [
            (
                "Ks=100 converges",
                not by_ks[100.0].diverged and by_ks[100.0].settling_time is not None,
                f"Ts={by_ks[100.0].settling_time}",
            ),
            (
                "Ks=101 diverges",
                by_ks[101.0].diverged,
                f"diverged={by_ks[101.0].diverged}",
            ),
        ],
    )


def test_criterion_4_matched_diffusion_model(preset_runs):
    ts = preset_runs["fig3a_diffusion"]["report"].settling_time
    _report(4, [("Ts=1.72s +/-10%", _within(ts, 1.72, 0.10), f"{ts}")])


def test_criterion_5_second_order_model(preset_runs):
    ts = preset_runs["fig3b_second_order"]["report"].settling_time
    unstable = preset_runs["fig3b_unstable"]["report"]
    _report(
        5,
        [
            ("Ts=1.78s +/-10%", _within(ts, 1.78, 0.10), f"{ts}"),
            (
                "diverges at doubled step",
                unstable.diverged,
                f"diverged={unstable.diverged}",
            ),
        ],
    )


def test_criterion_6_wave_speed(preset_runs):
    predicted = predicted_wave_speed(1.0, 100.0, 0.01)
    measured = preset_runs["fig2_lattice"]["report"].transfer_speed
    ts_dsr = preset_runs["fig1c"]["report"].settling_time
    ts_wave = preset_runs["fig3b_second_order"]["report"].settling_time
    agreement = (
        None
        if ts_dsr is None or ts_wave is None
        else abs(ts_dsr - ts_wave) / ts_dsr
    )
    _report(
        6,
        [
            ("predicted speed exactly 50", predicted == 50.0, f"{predicted}"),
            (
                "measured flock speed in [40, 55]",
                measured is not None and 40.0 <= measured <= 55.0,
                f"{measured and round(measured, 1)} m/s",
            ),
            (
                "DSR vs wave-model settling within 5%",
                agreement is not None and agreement <= 0.05,
                f"{ts_dsr} vs {ts_wave}",
            ),
        ],
    )


def test_criterion_7_scaling_laws(preset_runs):
    p_diffusive = preset_runs["fig1b"]["report"].scaling_exponent
    p_wave = preset_runs["fig1c"]["report"].scaling_exponent
    _report(
        7,
        [
            (
                "beta=0 exponent 0.5 +/-0.1",
                p_diffusive is not None and abs(p_diffusive - 0.5) <= 0.1,
                f"{p_diffusive and round(p_diffusive, 3)}",
            ),
            (
                "beta=.96 exponent 1.0 +/-0.1",
                p_wave is not None and abs(p_wave - 1.0) <= 0.1,
                f"{p_wave and round(p_wave, 3)}",
            ),
        ],
    )


def test_criterion_8_flocking_cohesion(flock_runs):
    def max_distortion(flock):
        first = np.linalg.norm(
            flock.positions[0][:, None] - flock.positions[0][None], axis=-1
        )
        last = np.linalg.norm(
            flock.positions[-1][:, None] - flock.positions[-1][None], axis=-1
        )
        upper = np.triu_indices(first.shape[0], 1)
        return float(np.max(np.abs(last[upper] - first[upper]) / first[upper]))

    distortion_dsr = max_distortion(flock_runs["dsr"])
    distortion_plain = max_distortion(flock_runs["plain"])
    heading_gap = float(
        np.abs(flock_runs["dsr"].headings[-1] - np.pi / 2).max()
    )
    noisy = flock_runs["noisy"]
    noisy_settle = settling_time(noisy, np.pi / 2, band=0.05 / (np.pi / 2))
    noisy_gap = float(np.abs(noisy.headings[-1] - np.pi / 2).max())
    _report(
        8,
        [
            (
                "reinforced turn distorts less",
                distortion_dsr < distortion_plain,
                f"{distortion_dsr:.3f} < {distortion_plain:.3f}",
            ),
            (
                "final headings within 0.02 rad",
                heading_gap <= 0.02,
                f"max dev {heading_gap:.4f}",
            ),
            (
                "noisy run settles within 0.05 rad",
                noisy_settle is not None and noisy_gap <= 0.05,
                f"settle={noisy_settle}, final max dev {noisy_gap:.3f}",
            ),
        ],
    )


def test_criterion_9_property_suites(preset_runs):
    checks = []

    # the engine's update of its own discrepancy equals the rearranged
    # two-increment recursion of the oracle's discrepancy
    topology = NetworkTopology.build(build_lattice(5, 5, 1.0), 1.2, {3})
    graph, leaders = (topology.indptr, topology.indices), topology.leader_ids
    weights, source_weight, _ = _weights(topology.indptr, leaders)
    rng = np.random.default_rng(2718)
    worst = 0.0
    for gain in (0.3, 0.96):
        for _ in range(50):
            current = rng.uniform(-1, 1, 25)
            previous = rng.uniform(-1, 1, 25)
            stepped = np.empty(25)
            engine = _discrepancy(*graph, weights, source_weight * 0.5, current, np.empty(25))
            _dsr_update(current, previous, engine, stepped, np.empty(25), 100.0 * 0.01, gain)
            delta = np.array(per_agent.discrepancy(graph, leaders, current.tolist(), 0.5))
            rearranged = (
                -100.0 * delta * 0.01
                + gain * (2 * current - previous)
                + (1 - gain) * current
            )
            worst = max(worst, float(np.abs(stepped - rearranged).max()))
    checks.append(("rearranged recursion to 1e-12", worst <= 1e-12, f"max {worst:.2e}"))

    # a zero-gain run's first step equals a plain diffusion step of the
    # oracle's discrepancy
    values = rng.uniform(0, 1, 25)
    params = DsrParams(100.0, 0.0, 0.01, STEP_TO_ONE)
    stepped = dsr_run(topology, [params], values).advance(1).current[:, 0]
    plain = values - 1.0 * np.array(per_agent.discrepancy(graph, leaders, values.tolist(), 1.0))
    gap = float(np.abs(stepped - plain).max())
    checks.append(("zero-gain equals diffusion to 1e-15", gap <= 1e-15, f"max {gap:.2e}"))

    # uniform-at-source fixed point
    fixed_params = DsrParams(100.0, 0.96, 0.01, StepSource(0.7, 0.7, 0))
    fixed = dsr_run(topology, [fixed_params], np.full(25, 0.7)).advance(1).current
    fixed_gap = float(np.abs(fixed - 0.7).max())
    checks.append(
        (
            "uniform-at-source fixed point",
            fixed_gap <= 1e-15,
            f"max {fixed_gap:.2e}",
        )
    )

    # discrepancy of a quadratic field equals the scaled Laplacian
    quad_topology = NetworkTopology.build(build_lattice(7, 7, 1.0), 1.2)
    field = quad_topology.positions[:, 0] ** 2 + quad_topology.positions[:, 1] ** 2
    quad_weights = _weights(quad_topology.indptr, quad_topology.leader_ids)[0]
    quad = _discrepancy(quad_topology.indptr, quad_topology.indices, quad_weights, 0.0,
                        field, np.empty(49))
    interior = np.flatnonzero(quad_topology.degrees == 4)
    lap_err = float(np.abs(quad[interior] + 1.0).max())
    checks.append(("quadratic-field discrepancy to 1e-12", lap_err <= 1e-12, f"max {lap_err:.2e}"))

    # correlation delay recovers injected shifts exactly
    reference = rng.normal(size=300)
    exact = all(
        correlation_delay(
            np.concatenate([np.zeros(m), reference])[:300], reference, 0.01
        )
        == pytest.approx(m * 0.01)
        for m in (1, 5, 23, 77)
    )
    checks.append(("correlation recovers shifts", exact, "lags 1, 5, 23, 77"))

    # byte-level reproducibility of every preset
    stable = []
    for name, run in preset_runs.items():
        for artifact, path in run["paths_a"].items():
            if path.read_bytes() != run["paths_b"][artifact].read_bytes():
                stable.append(f"{name}/{artifact}")
    checks.append(
        (
            "preset outputs byte-identical",
            not stable,
            "all presets" if not stable else ", ".join(stable),
        )
    )

    _report(9, checks)
