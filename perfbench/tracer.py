"""Span recorder for the traced run, and the wrappers that feed it.

The wrappers replace dsrnet's public names at the places where callers look
them up (``harness.simulate``, ``analysis.simulate``, ``NetworkTopology.build``
and so on), so the package source stays untouched. Spans are kept in memory
as flat arrays, each with its name, start, end and parent, and are written
out once the traced run ends.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

import numpy as np


class Recorder:
    """Nested spans in four parallel arrays plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)

    def name(self, text: str) -> int:
        if text not in self._ids:
            self._ids[text] = len(self.names)
            self.names.append(text)
        return self._ids[text]

    def begin(self, name_id: int) -> int:
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(index)
        self.start.append(time.perf_counter())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._open.pop()

    def inside(self, text: str) -> bool:
        """True while a span of this name is open."""
        name_id = self._ids.get(text)
        return any(self.name_id[i] == name_id for i in self._open)

    def wrap(self, owner, attr: str, span: str, after=None) -> None:
        """Replace ``owner.attr`` by a traced call; ``after(args, result)``
        runs once the span has closed, for counters."""
        original = getattr(owner, attr)
        name_id = self.name(span)
        begin, finish = self.begin, self.finish

        def traced(*args, **kwargs):
            index = begin(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                finish(index)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)

    def arrays(self):
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        return name_id, parent, duration

    def table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds (the total
        minus the time covered by direct child spans)."""
        name_id, parent, duration = self.arrays()
        covered = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(covered, parent[nested], duration[nested])
        size = len(self.names)
        calls = np.bincount(name_id, minlength=size)
        total = np.bincount(name_id, weights=duration, minlength=size)
        own = np.bincount(name_id, weights=duration - covered, minlength=size)
        return {
            text: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, text in enumerate(self.names)
        }

    def total_under(self, span: str, parent_span: str) -> float:
        """Seconds spent in ``span`` spans whose direct parent is ``parent_span``."""
        if span not in self._ids or parent_span not in self._ids:
            return 0.0
        name_id, parent, duration = self.arrays()
        nested = (name_id == self._ids[span]) & (parent >= 0)
        nested[nested] = name_id[parent[nested]] == self._ids[parent_span]
        return float(duration[nested].sum())

    def save(self, path) -> None:
        name_id, parent, _ = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name_id=name_id,
            parent=parent,
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def instrument(rec: Recorder) -> None:
    """Route dsrnet's public calls through spans of ``rec``.

    Steps are counted from the trajectories the calls return. A ``simulate``
    run inside ``settling_horizon`` is a probe; one inside ``stability_sweep``
    is a kept verdict run; of the runs ``run_config`` makes itself, only the
    last is kept and each earlier one is a horizon extension.
    """
    from dsrnet import analysis, cli, continuum, dsr_core, flocking, harness, topology

    counts = rec.counters
    runs_per_config: list[list[tuple[str, int, int]]] = []

    def dsr_run(_args, traj):
        steps, agents = traj.values.shape[0] - 1, traj.values.shape[1]
        counts["dsr_core.steps_simulated"] += steps
        if rec.inside("analysis.settling_horizon"):
            counts["analysis.probe_steps"] += steps
        elif rec.inside("analysis.stability_sweep"):
            counts["dsr_core.steps_kept"] += steps
            counts["useful_agent_steps"] += steps * agents
        else:
            runs_per_config[-1].append(("dsr", steps, agents))

    def continuum_run(args, traj):
        steps = traj.diverged_step if traj.diverged else args[3]
        counts["continuum.steps_simulated"] += steps
        runs_per_config[-1].append(("continuum", steps, traj.values.shape[1]))

    def maneuver(_args, flock):
        steps, agents = flock.headings.shape[0] - 1, flock.headings.shape[1]
        counts["flocking.steps"] += steps
        counts["useful_agent_steps"] += steps * agents

    def built(_args, graph):
        counts["topology.edges"] += int(graph.degrees.sum()) // 2

    def csv_written(args, _result):
        rows, agents = args[0].values.shape
        counts["harness.csv_values"] += rows * (agents + 1)

    run_config = cli.run_config
    run_config_id = rec.name("harness.run_config")

    def traced_run_config(cfg, out_dir):
        runs: list[tuple[str, int, int]] = []
        runs_per_config.append(runs)
        index = rec.begin(run_config_id)
        try:
            return run_config(cfg, out_dir)
        finally:
            rec.finish(index)
            runs_per_config.pop()
            if runs:
                kind, steps, agents = runs[-1]
                counts["harness.horizon_extensions"] += len(runs) - 1
                if kind == "dsr":
                    counts["dsr_core.steps_kept"] += steps
                counts["useful_agent_steps"] += steps * agents

    cli.run_config = traced_run_config

    base = dsr_core.DiscrepancyOperator
    build_id = rec.name("dsr_core.DiscrepancyOperator")
    call_id = rec.name("dsr_core.discrepancy")

    class TracedOperator(base):
        def __init__(self, graph):
            index = rec.begin(build_id)
            try:
                super().__init__(graph)
            finally:
                rec.finish(index)

        def __call__(self, values, source_value):
            index = rec.begin(call_id)
            try:
                return super().__call__(values, source_value)
            finally:
                rec.finish(index)

    dsr_core.DiscrepancyOperator = TracedOperator
    continuum.DiscrepancyOperator = TracedOperator

    rec.wrap(topology.NetworkTopology, "build", "topology.build", built)
    rec.wrap(harness, "simulate", "dsr_core.simulate", dsr_run)
    rec.wrap(analysis, "simulate", "dsr_core.simulate", dsr_run)
    rec.wrap(dsr_core, "detect_divergence", "dsr_core.detect_divergence")
    rec.wrap(flocking, "detect_divergence", "dsr_core.detect_divergence")
    rec.wrap(harness, "simulate_second_order", "continuum.simulate_second_order", continuum_run)
    rec.wrap(harness, "simulate_diffusion", "continuum.simulate_diffusion", continuum_run)
    rec.wrap(continuum, "second_order_step", "continuum.second_order_step")
    rec.wrap(continuum, "diffusion_step", "continuum.diffusion_step")
    rec.wrap(harness, "run_maneuver", "flocking.run_maneuver", maneuver)
    rec.wrap(flocking, "dsr_step", "flocking.dsr_step")
    rec.wrap(flocking, "kinematic_step", "flocking.kinematic_step")
    rec.wrap(analysis, "settling_horizon", "analysis.settling_horizon")
    rec.wrap(analysis, "stability_sweep", "analysis.stability_sweep")
    rec.wrap(analysis, "settling_time", "analysis.settling_time")
    rec.wrap(analysis, "radial_acceleration", "analysis.radial_acceleration")
    rec.wrap(analysis, "correlation_delay", "analysis.correlation_delay")
    rec.wrap(harness, "write_trajectory_csv", "harness.write_trajectory_csv", csv_written)


def layer_metrics(rec: Recorder, table: dict) -> dict[str, float]:
    """The per-layer metrics of one traced repetition, from ``rec.table()``
    and the counters."""
    counts = rec.counters

    def seconds(*spans):
        return sum(table[s]["total_s"] for s in spans if s in table)

    def calls(span):
        return table[span]["calls"] if span in table else 0

    def per_step_us(total_s, steps):
        return 1e6 * total_s / steps if steps else 0.0

    dsr_simulated = counts["dsr_core.steps_simulated"]
    dsr_simulate_s = seconds("dsr_core.simulate")
    continuum_simulate_s = seconds(
        "continuum.simulate_second_order", "continuum.simulate_diffusion"
    )
    return {
        "topology.build_calls": calls("topology.build"),
        "topology.build_s": seconds("topology.build"),
        "topology.edges": counts["topology.edges"],
        "dsr_core.operator_builds": calls("dsr_core.DiscrepancyOperator"),
        "dsr_core.operator_build_s": seconds("dsr_core.DiscrepancyOperator"),
        "dsr_core.simulate_s": dsr_simulate_s,
        "dsr_core.steps_simulated": dsr_simulated,
        "dsr_core.steps_kept": counts["dsr_core.steps_kept"],
        "dsr_core.useful_step_ratio": (
            counts["dsr_core.steps_kept"] / dsr_simulated if dsr_simulated else 0.0
        ),
        "dsr_core.step_us": per_step_us(dsr_simulate_s, dsr_simulated),
        "dsr_core.discrepancy_s": seconds("dsr_core.discrepancy"),
        "dsr_core.divergence_check_s": seconds("dsr_core.detect_divergence"),
        "continuum.steps_simulated": counts["continuum.steps_simulated"],
        "continuum.simulate_s": continuum_simulate_s,
        "continuum.step_us": per_step_us(
            continuum_simulate_s, counts["continuum.steps_simulated"]
        ),
        "continuum.euler_step_s": seconds(
            "continuum.second_order_step", "continuum.diffusion_step"
        ),
        "flocking.steps": counts["flocking.steps"],
        "flocking.run_maneuver_s": seconds("flocking.run_maneuver"),
        "flocking.graph_rebuild_s": rec.total_under("topology.build", "flocking.run_maneuver"),
        "flocking.dsr_step_s": seconds("flocking.dsr_step"),
        "flocking.kinematic_step_s": seconds("flocking.kinematic_step"),
        "analysis.probe_steps": counts["analysis.probe_steps"],
        "analysis.settling_horizon_s": seconds("analysis.settling_horizon"),
        "analysis.stability_sweep_s": seconds("analysis.stability_sweep"),
        "analysis.settling_time_calls": calls("analysis.settling_time"),
        "analysis.settling_time_s": seconds("analysis.settling_time"),
        "analysis.flock_metrics_s": seconds(
            "analysis.radial_acceleration", "analysis.correlation_delay"
        ),
        "harness.run_config_s": seconds("harness.run_config"),
        "harness.horizon_extensions": counts["harness.horizon_extensions"],
        "harness.csv_write_s": seconds("harness.write_trajectory_csv"),
        "harness.csv_values": counts["harness.csv_values"],
    }
