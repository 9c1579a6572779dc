"""Microseconds per engine step on both stepping paths, on square lattices.

Usage: PYTHONPATH=src python .github/step_cost.py SIDE [SIDE ...]

For each lattice side it times an unrecorded DSR run (Ks = 100, beta = 0.96,
dt = 0.01, leader 0) with 1 and 8 columns, and a wave-model run (integrator
step 1e-4, recording every 1000th step). Each runs on the kernel-block path
and on the per-step path, each forced through the engine's private crossover
``dsr_core._KERNEL_VALUES``; the path the engine picks by itself is starred.
A time is the best of 5 runs, each after one warm-up step. Reported, not a
gate: the numbers depend on the machine and its load.
"""

from __future__ import annotations

import sys
import time

from dsrnet import dsr_core
from dsrnet.continuum import ContinuumParams, second_order_run
from dsrnet.dsr_core import DsrParams, StepSource, dsr_run
from dsrnet.topology import NetworkTopology, build_lattice

PATHS = {"kernel": 2**62, "per-step": 0}


def per_step_us(make, steps: int) -> float:
    best = float("inf")
    for _ in range(5):
        run = make().advance(1)
        started = time.perf_counter()
        run.advance(1 + steps)
        best = min(best, (time.perf_counter() - started) / steps)
    return 1e6 * best


def main(sides) -> None:
    crossover = dsr_core._KERNEL_VALUES
    params = DsrParams(100.0, 0.96, 0.01, StepSource(0.0, 1.0))
    wave = ContinuumParams(params, 1e-4)
    print(f"{'n':>6} {'model':>5} {'cols':>4} " + " ".join(f"{p:>10}" for p in PATHS))
    for side in sides:
        topo = NetworkTopology.build(build_lattice(side, side, 1.0), 1.2, {0})
        n = topo.n_agents
        cases = [
            ("dsr", 1, lambda: dsr_run(topo, [params], record_every=None)),
            ("dsr", 8, lambda: dsr_run(topo, [params] * 8, record_every=None)),
            ("wave", 1, lambda: second_order_run(topo, wave, record_every=1000)),
        ]
        for model, columns, make in cases:
            steps = max(10, 2_000_000 // (n * columns * 4))
            cells = []
            for path, value in PATHS.items():
                dsr_core._KERNEL_VALUES = value
                star = "*" if (n * columns < crossover) == (path == "kernel") else " "
                cells.append(f"{per_step_us(make, steps):9.1f}{star}")
            dsr_core._KERNEL_VALUES = crossover
            print(f"{n:>6} {model:>5} {columns:>4} " + " ".join(cells), flush=True)


if __name__ == "__main__":
    main([int(side) for side in sys.argv[1:]] or [15, 50])
