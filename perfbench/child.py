"""One fresh benchmark process: a repetition of a workload, or one set-up.

``rep`` runs every job of the workload through ``dsrnet.cli.main`` in this
process, optionally traced. ``setup`` imports ``dsrnet.cli`` and builds the
first job's starting sensing graph and ``DiscrepancyOperator``. Either way
the process writes a JSON report whose ``t_end`` is read on the monotonic
clock, which the parent shares, so the parent can time from the moment it
started this process.

Usage: python3 perfbench/child.py {rep,setup} --workload NAME --seed N
           --out DIR --report FILE [--trace]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def _import_dsrnet():
    """Import ``dsrnet.cli`` from this checkout's ``src``; returns seconds taken."""
    sys.path.insert(0, str(ROOT / "src"))
    started = time.perf_counter()
    import dsrnet.cli

    elapsed = time.perf_counter() - started
    source = Path(dsrnet.cli.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"dsrnet was imported from {source}, not from this checkout")
    return elapsed


def _first_graph(job):
    """Starting sensing graph and operator of ``job``, from public calls."""
    import numpy as np
    from dsrnet.dsr_core import DiscrepancyOperator
    from dsrnet.harness import parse_config, preset_catalog
    from dsrnet.topology import NetworkTopology, build_lattice, sample_disc

    flag, value = job.argv[1], job.argv[2]
    if flag == "--preset":
        cfg = preset_catalog()[value]
    else:
        cfg = parse_config((ROOT / value).read_text())
    if cfg.topology == "lattice":
        positions = build_lattice(cfg.rows, cfg.cols, cfg.spacing)
    else:
        rng = np.random.default_rng(cfg.seed)
        positions = sample_disc(cfg.n_agents, cfg.disc_radius, rng, cfg.disc_sampling)
    leader = 0 if cfg.leader == "corner" else int(cfg.leader)
    graph = NetworkTopology.build(positions, cfg.sensing_radius, {leader})
    return DiscrepancyOperator(graph)


def _run_jobs(jobs, seed, out, rec):
    import dsrnet.cli

    exit_codes = {}
    errors = {}
    main_id = rec.name("cli.main") if rec is not None else None
    for job in jobs:
        argv = job.command(seed, str(out / job.name))
        index = rec.begin(main_id) if rec is not None else None
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                exit_codes[job.name] = dsrnet.cli.main(argv)
        except Exception:  # a crashing job is a failed job, not a dead benchmark
            exit_codes[job.name] = None
            errors[job.name] = traceback.format_exc()
        finally:
            if rec is not None:
                rec.finish(index)
    return exit_codes, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("rep", "setup"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--report", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    jobs = WORKLOADS[args.workload]

    report = {"import_s": _import_dsrnet()}
    if args.mode == "setup":
        _first_graph(jobs[0])
        report["t_end"] = time.monotonic()
    else:
        rec = None
        if args.trace:
            import tracer

            rec = tracer.Recorder()
            tracer.instrument(rec)
        report["exit_codes"], report["errors"] = _run_jobs(jobs, args.seed, args.out, rec)
        report["t_end"] = time.monotonic()
        if rec is not None:
            report["spans"] = rec.table()
            report["layers"] = tracer.layer_metrics(rec, report["spans"])
            report["useful_agent_steps"] = rec.counters["useful_agent_steps"]
            rec.save(args.report.with_name("spans.npz"))
    args.report.write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
