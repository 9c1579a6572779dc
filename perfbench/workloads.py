"""The benchmark's workloads: each one is a fixed list of ``dsrnet`` jobs.

A job is one call of ``dsrnet.cli.main`` with the arguments below (the same
argument list the ``dsrnet`` command takes). Config paths are relative to
the root of the checkout, which is the working directory of every child
process. Only jobs marked ``seeded`` receive the benchmark's ``--seed``;
every other job runs at the seed its preset or config fixes.
"""

from __future__ import annotations

from dataclasses import dataclass

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    seeded: bool = False

    def command(self, seed: int, out_dir: str) -> list[str]:
        argv = list(self.argv)
        if self.seeded:
            argv += ["--seed", str(seed)]
        return argv + ["--out", out_dir]


def _preset(name: str, seeded: bool = False) -> Job:
    return Job(name, ("run", "--preset", name), seeded)


WORKLOADS: dict[str, tuple[Job, ...]] = {
    "paper_presets": tuple(
        _preset(name)
        for name in (
            "fig1b",
            "fig1c",
            "fig1d",
            "fig1_unstable",
            "fig3a_diffusion",
            "fig3b_second_order",
            "fig3b_unstable",
        )
    ),
    "flock_turn": (_preset("fig2_lattice"), _preset("fig2_disc_noise", seeded=True)),
    "ks_sweep": (
        Job(
            "ks_sweep",
            (
                "sweep",
                "--config",
                "perfbench/configs/ks_sweep.cfg",
                "--ks",
                "60,80,90,95,100,101,105,110",
            ),
        ),
    ),
    "wide_lattice": (
        Job("wide_lattice", ("run", "--config", "perfbench/configs/wide_lattice.cfg")),
    ),
}

# Lattice sides of the traced size sweep: n = 225, 2,500, 10,000 and 40,000.
SWEEP_SIDES = (15, 50, 100, 200)
