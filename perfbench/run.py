"""dsrnet benchmark: run one workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every repetition is a fresh process (``perfbench/child.py``) that runs the
workload's jobs back to back through ``dsrnet.cli.main``, with the BLAS
thread variables set to 1: a closed loop with a single client. The parent
only waits, so it takes no processor time from the repetition it measures.

``--trace 0`` repeats the workload for ``--seconds`` and prints the
end-to-end metrics. ``--trace 1`` runs it once untraced and once traced,
then runs the size sweep, and prints the per-layer metrics. Every artifact
of every job is checked: exit code, presence, finite values, and its sha256
against ``reference.json`` (or, where the benchmark seed differs from the
recorded one, against the first repetition of the same run). The last line
of standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` count jobs, and ``metrics`` holds the values with their units.
The exit code is 0 whenever that line is printed, 1 when no measurement
could be taken, and 2 when the checkout has no dsrnet sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from workloads import BLAS_THREAD_VARS, SWEEP_SIDES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

# Fresh processes timed for setup_s; their median is reported.
SETUP_RUNS = 5
CHILD_TIMEOUT_S = 150
# Ceiling on the address space of a size-sweep process. The dense graph
# build at n=40,000 wants about 38 GB; under this limit it fails at once.
ADDRESS_SPACE_CAP = 4 << 30
SIZE_KERNELS = (
    "topology.build_s",
    "dsr_core.operator_build_s",
    "dsr_core.step_us",
    "dsr_core.discrepancy_us",
    "dsr_core.divergence_check_us",
    "harness.csv_us_per_value",
)
_NON_FINITE_CSV = re.compile(rb"(?i)\b(nan|inf|infinity)\b")


class BenchmarkError(RuntimeError):
    """The benchmark could not take a measurement."""


@dataclass
class Rep:
    wall_s: float
    peak_rss_mb: float
    report: dict
    digests: dict[str, dict[str, str]]
    artifact_bytes: int
    failures: dict[str, str] = field(default_factory=dict)


def _raise_timeout(_signum, _frame):
    raise TimeoutError


def _spawn(script: str, *args: str, log: Path) -> tuple[float, int, object]:
    """Run a benchmark script in a fresh interpreter and wait for it.

    Returns the monotonic start time, the exit code and the child's
    resource usage (``ru_maxrss`` is its own peak resident memory).
    """
    env = dict(os.environ, **{name: "1" for name in BLAS_THREAD_VARS})
    with open(log, "ab") as stderr:
        started = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / script), *args],
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=stderr,
        )
        # Block in wait4 rather than poll, so the parent stays off the
        # processors. A child that hangs, or outlives an interrupted
        # parent, is killed and reaped.
        signal.signal(signal.SIGALRM, _raise_timeout)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException as err:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            if not isinstance(err, TimeoutError):
                raise
        finally:
            signal.alarm(0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return started, proc.returncode, usage


def _run_child(script: str, *args: str, out: Path):
    """Spawn ``script``; returns its start time, usage and JSON report."""
    report_path = out / "report.json"
    report_path.unlink(missing_ok=True)
    log = out / "child.log"
    started, code, usage = _spawn(script, *args, "--report", str(report_path), log=log)
    if code != 0 or not report_path.exists():
        tail = log.read_text(errors="replace")[-2000:]
        raise BenchmarkError(f"{script} {' '.join(args)} exited with {code}:\n{tail}")
    return started, usage, json.loads(report_path.read_text())


def _reject(token: str):
    raise ValueError(f"non-finite JSON number {token}")


def _non_finite(path: Path, data: bytes) -> bool:
    if path.suffix == ".csv":
        return _NON_FINITE_CSV.search(data) is not None
    if path.suffix == ".json":
        try:
            json.loads(data, parse_constant=_reject)
        except ValueError:
            return True
        return False
    for line in data.decode().splitlines():
        _, _, value = line.partition("=")
        try:
            if not math.isfinite(float(value)):
                return True
        except ValueError:
            pass
    return False


def setup_s(workload: str, out: Path) -> float:
    started, _, report = _run_child("child.py", "setup", "--workload", workload, out=out)
    return report["t_end"] - started


def run_rep(workload: str, seed: int, out: Path, trace: bool = False) -> Rep:
    """One repetition in a fresh process; artifacts are hashed, then removed."""
    jobs_dir = out / "jobs"
    shutil.rmtree(jobs_dir, ignore_errors=True)
    args = ["rep", "--workload", workload, "--seed", str(seed), "--out", str(jobs_dir)]
    started, usage, report = _run_child(
        "child.py", *args, *(["--trace"] if trace else []), out=out
    )
    digests, failures, total_bytes = {}, {}, 0
    for job in WORKLOADS[workload]:
        files = {}
        job_dir = jobs_dir / job.name
        for path in sorted(job_dir.iterdir()) if job_dir.is_dir() else ():
            data = path.read_bytes()
            total_bytes += len(data)
            files[path.name] = hashlib.sha256(data).hexdigest()
            if _non_finite(path, data):
                failures[job.name] = f"{path.name} holds a non-finite value"
        digests[job.name] = files
        if job.name in report["errors"]:
            failures[job.name] = report["errors"][job.name]
    shutil.rmtree(jobs_dir, ignore_errors=True)
    return Rep(
        wall_s=report["t_end"] - started,
        peak_rss_mb=usage.ru_maxrss / 1024,
        report=report,
        digests=digests,
        artifact_bytes=total_bytes,
        failures=failures,
    )


def check_rep(rep: Rep, workload: str, seed: int, reference: dict, first: Rep | None):
    """Record in ``rep.failures`` every job whose outputs are wrong.

    Digests are compared with the reference at the recorded seed, and with
    the run's first repetition for a seeded job at any other seed.
    """
    expected_jobs = reference["workloads"][workload]["jobs"]
    for job in WORKLOADS[workload]:
        expected = expected_jobs[job.name]
        code = rep.report["exit_codes"].get(job.name)
        if code != expected["exit_code"]:
            rep.failures.setdefault(job.name, f"exit code {code}, expected {expected['exit_code']}")
            continue
        got = rep.digests[job.name]
        if sorted(got) != sorted(expected["sha256"]):
            rep.failures.setdefault(job.name, f"artifacts {sorted(got)}, expected {sorted(expected['sha256'])}")
            continue
        if job.seeded and seed != expected["seed"]:
            want = first.digests[job.name] if first is not None else got
        else:
            want = expected["sha256"]
        for name, digest in got.items():
            if digest != want[name]:
                rep.failures.setdefault(job.name, f"{name}: sha256 {digest} differs")


def _meminfo_kib(key: str) -> int:
    for line in Path("/proc/meminfo").read_text().splitlines():
        if line.startswith(key + ":"):
            return int(line.split()[1])
    raise BenchmarkError(f"{key} missing from /proc/meminfo")


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def machine_record(seed: int) -> dict:
    cpu = "unknown"
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dsrnet").glob("*.py")):
        sources.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "mem_total_kib": _meminfo_kib("MemTotal"),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": _git_commit(),
        "src_sha256": sources.hexdigest(),
        "blas_threads": {name: "1" for name in BLAS_THREAD_VARS},
        "seed": seed,
    }


def _lattice_nnz(side: int) -> int:
    # At spacing 1 m and radius 1.2 m each agent senses exactly its four
    # axis neighbours, so the operator has two entries per lattice edge.
    return 4 * side * (side - 1)


def size_sweep(out: Path) -> dict[str, float]:
    """Kernel metrics on lattices of n = 225 to 40,000, each in its own process."""
    limit = min(ADDRESS_SPACE_CAP, _meminfo_kib("MemAvailable") * 1024 // 2)
    metrics = {}
    for side in SWEEP_SIDES:
        n = side * side
        _, _, report = _run_child(
            "sizes.py", "--side", str(side), "--limit-bytes", str(limit),
            "--out", str(out), out=out,
        )
        nnz = _lattice_nnz(side)
        failed = "memory_error" in report
        if not failed and report["nnz"] != nnz:
            raise BenchmarkError(f"n={n}: graph has {report['nnz']} entries, expected {nnz}")
        metrics[f"size.failed.n{n}"] = int(failed)
        for key in SIZE_KERNELS:
            metrics[f"{key}.n{n}"] = 0.0 if failed else report[key]
        metrics[f"peak_rss_mb.n{n}"] = report["peak_rss_mb"]
        # Computed, not measured: CSR float64 values and int32 column
        # indices, the row pointer, one read of x and one write of y.
        metrics[f"dsr_core.matvec_bytes.n{n}"] = 12 * nnz + 4 * (n + 1) + 16 * n
    return metrics


def _spread(values: list[float]) -> str:
    return f"median of {len(values)}; min {min(values):.6g}, max {max(values):.6g}"


def timed_run(workload: str, seed: int, seconds: float, out: Path, reference: dict):
    setup_s(workload, out)  # warm-up: compiles bytecode, fills the file cache
    setups: list[float] = []
    reps: list[Rep] = []
    begun = time.monotonic()
    # One set-up before each repetition spreads the set-up samples over
    # the whole run, so a burst of interference cannot take them all. A
    # further repetition starts only if it should end within ``seconds``.
    while True:
        started = time.monotonic()
        setups.append(setup_s(workload, out))
        rep = run_rep(workload, seed, out)
        check_rep(rep, workload, seed, reference, reps[0] if reps else None)
        reps.append(rep)
        now = time.monotonic()
        if now - begun + (now - started) > seconds:
            break
    while len(setups) < SETUP_RUNS:
        setups.append(setup_s(workload, out))
    walls = [r.wall_s for r in reps]
    rss = [r.peak_rss_mb for r in reps]
    wall = statistics.median(walls)
    useful = reference["workloads"][workload]["useful_agent_steps"]
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "agent_steps_per_s": useful / wall,
        "peak_rss_mb": statistics.median(rss),
    }
    samples = {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss}
    notes = {name: _spread(values) for name, values in samples.items()}
    notes["agent_steps_per_s"] = f"{useful} useful agent-steps / median wall_s"
    notes["samples"] = samples
    return reps, metrics, notes


def traced_run(workload: str, seed: int, out: Path, reference: dict):
    untraced = run_rep(workload, seed, out)
    check_rep(untraced, workload, seed, reference, None)
    traced = run_rep(workload, seed, out, trace=True)
    check_rep(traced, workload, seed, reference, untraced)
    metrics = dict(traced.report["layers"])
    metrics["harness.artifact_bytes"] = traced.artifact_bytes
    metrics["cli.import_s"] = traced.report["import_s"]
    metrics["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    metrics.update(size_sweep(out))
    print(f"{'span':34} {'calls':>9} {'total_s':>10} {'self_s':>10}")
    for name, row in sorted(traced.report["spans"].items()):
        print(f"{name:34} {row['calls']:9d} {row['total_s']:10.4f} {row['self_s']:10.4f}")
    print(f"spans written to {out.relative_to(ROOT) / 'spans.npz'}")
    return [untraced, traced], metrics, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    if not (ROOT / "src" / "dsrnet" / "cli.py").is_file():
        print(f"error: no dsrnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads(REFERENCE.read_text())
    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    machine = machine_record(args.seed)
    try:
        if args.trace:
            reps, metrics, notes = traced_run(args.workload, args.seed, out, reference)
            declared = spec["per_layer"]
        else:
            reps, metrics, notes = timed_run(
                args.workload, args.seed, args.seconds, out, reference
            )
            declared = spec["end_to_end"]
    except BenchmarkError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        print(f"error: measured {sorted(metrics)}, declared {sorted(units)}", file=sys.stderr)
        return 1

    attempted = len(reps) * len(WORKLOADS[args.workload])
    failed = sum(len(r.failures) for r in reps)
    for rep in reps:
        for job, reason in rep.failures.items():
            print(f"job {job} failed: {reason}", file=sys.stderr)
    print("machine: " + json.dumps(machine, sort_keys=True))
    print(f"workload: {args.workload}, {len(reps)} repetitions")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name}: {value:.6g} {units[name]}{note}")
    print(f"jobs_failed: {failed / attempted:.6g} share of jobs attempted ({failed} of {attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    (out / "result.json").write_text(
        json.dumps({"machine": machine, "workload": args.workload, "notes": notes, **result}, indent=1)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
