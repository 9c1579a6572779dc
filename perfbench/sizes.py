"""Kernel timings on one square lattice, for the traced run's size sweep.

Runs in its own process under an address-space limit (``RLIMIT_AS``), so a
size whose dense graph build cannot fit fails fast with ``MemoryError``
instead of exhausting the machine's memory. Every timing goes through
dsrnet's public calls.

Usage: python3 perfbench/sizes.py --side S --limit-bytes B --out DIR --report FILE
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Seconds each repeated kernel is timed for; the per-call figure is the
# median over batches, which damps interference from other processes.
KERNEL_BUDGET_S = 0.3
CSV_VALUES = 200_000


def _per_call_s(fn, budget_s: float = KERNEL_BUDGET_S) -> float:
    """Median seconds per call of ``fn`` over batches filling ``budget_s``."""
    fn()
    batch = 1
    while True:  # grow the batch until one takes a twentieth of the budget
        started = time.perf_counter()
        for _ in range(batch):
            fn()
        elapsed = time.perf_counter() - started
        if elapsed >= budget_s / 20:
            break
        batch *= 2
    samples, spent = [elapsed / batch], elapsed
    while spent < budget_s or len(samples) < 3:
        started = time.perf_counter()
        for _ in range(batch):
            fn()
        elapsed = time.perf_counter() - started
        samples.append(elapsed / batch)
        spent += elapsed
    return statistics.median(samples)


def measure(side: int, out: Path) -> dict[str, float]:
    import numpy as np
    from dsrnet.dsr_core import (
        DiscrepancyOperator,
        DsrParams,
        InfoState,
        StepSource,
        Trajectory,
        detect_divergence,
        dsr_step,
    )
    from dsrnet.harness import write_trajectory_csv
    from dsrnet.topology import NetworkTopology, build_lattice

    n = side * side
    positions = build_lattice(side, side, 1.0)
    started = time.perf_counter()
    graph = NetworkTopology.build(positions, 1.2, {0})
    build_s = time.perf_counter() - started
    if build_s < KERNEL_BUDGET_S / 10:
        build_s = _per_call_s(lambda: NetworkTopology.build(positions, 1.2, {0}))
    operator_build_s = _per_call_s(lambda: DiscrepancyOperator(graph))
    operator = DiscrepancyOperator(graph)
    params = DsrParams(100.0, 0.96, 0.01, StepSource(0.0, 1.0))
    state = InfoState.from_initial(np.zeros(n))

    def step():
        nonlocal state
        state = dsr_step(state, graph, params, operator=operator)

    step_s = _per_call_s(step)
    discrepancy_s = _per_call_s(lambda: operator(state.current, 1.0))
    divergence_s = _per_call_s(lambda: detect_divergence(state))

    rows = max(2, CSV_VALUES // (n + 1))
    values = np.random.default_rng(0).uniform(-1.0, 1.0, size=(rows, n))
    traj = Trajectory(np.arange(rows) * 0.01, values, params, (0,))
    path = out / f"trajectory_n{n}.csv"
    started = time.perf_counter()
    write_trajectory_csv(traj, path)
    csv_s = time.perf_counter() - started
    path.unlink()
    return {
        "nnz": int(graph.degrees.sum()),
        "topology.build_s": build_s,
        "dsr_core.operator_build_s": operator_build_s,
        "dsr_core.step_us": 1e6 * step_s,
        "dsr_core.discrepancy_us": 1e6 * discrepancy_s,
        "dsr_core.divergence_check_us": 1e6 * divergence_s,
        "harness.csv_us_per_value": 1e6 * csv_s / (rows * (n + 1)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--side", type=int, required=True)
    parser.add_argument("--limit-bytes", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--report", type=Path, required=True)
    args = parser.parse_args(argv)
    resource.setrlimit(resource.RLIMIT_AS, (args.limit_bytes, args.limit_bytes))
    sys.path.insert(0, str(ROOT / "src"))
    try:
        report = measure(args.side, args.out)
    except MemoryError as err:
        report = {"memory_error": str(err)}
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    args.report.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
