"""Wall time and peak RSS of one ``dsrnet run`` on square lattices.

Usage: python .github/run_cost.py SIDE [SIDE ...]

For each lattice side it runs the installed package's CLI, in a child
process, on a lattice-info config led from a corner at Ks = 100 and
beta = 0.96 with n_steps = 600. That run grows to its max_steps of 4,800
without confirming a settling time, so the trajectory CSV takes every 5th
recorded row. Peak RSS is the largest child's so far (RUSAGE_CHILDREN),
in MiB, so give the sides in increasing order; the output directory is
deleted after each run. Reported, not a gate: the numbers depend on the
machine and its load.
"""

from __future__ import annotations

import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CONFIG = (
    "experiment = lattice-info\nrows = {side}\ncols = {side}\nleader = corner\n"
    "ks = 100\nbeta = 0.96\nn_steps = 600\n"
)


def main(sides) -> None:
    for side in sides:
        with tempfile.TemporaryDirectory() as scratch:
            config = Path(scratch) / "run.cfg"
            config.write_text(CONFIG.format(side=side))
            command = [sys.executable, "-m", "dsrnet.cli", "run", "--config", str(config),
                       "--out", str(Path(scratch) / "out")]
            started = time.perf_counter()
            subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
            wall = time.perf_counter() - started
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        print(f"{side}x{side} lattice-info: wall {wall:.2f} s, peak RSS {peak:.0f} MiB")


if __name__ == "__main__":
    main([int(side) for side in sys.argv[1:]])
