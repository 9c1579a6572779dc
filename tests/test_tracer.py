"""The benchmark reaches dsrnet through public names: its tracer wraps them by
attribute lookup, and its size sweep and set-up processes call them. Renaming
or deleting one of them, or changing its signature, breaks
``perfbench/run.py``."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# One BLAS thread, as in every benchmark process.
_ENV = dict(
    os.environ,
    **{name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
)


def test_tracer_instruments_every_name_it_wraps():
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(ROOT / 'perfbench')!r}, {str(ROOT / 'src')!r}]\n"
        "import tracer\n"
        "tracer.instrument(tracer.Recorder())\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


def _report(tmp_path, script, *args):
    """Run a benchmark script and return the JSON report it writes."""
    report = tmp_path / "report.json"
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / script), *args, "--report", str(report)],
        capture_output=True, text=True, timeout=120, cwd=ROOT, env=_ENV,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(report.read_text())


def test_size_sweep_times_every_kernel(tmp_path):
    report = _report(
        tmp_path, "sizes.py", "--side", "3", "--limit-bytes", str(2 << 30), "--out", str(tmp_path)
    )
    assert set(report) == {
        "nnz",
        "topology.build_s",
        "dsr_core.operator_build_s",
        "dsr_core.step_us",
        "dsr_core.discrepancy_us",
        "dsr_core.divergence_check_us",
        "harness.csv_us_per_value",
        "peak_rss_mb",
    }
    assert report["nnz"] == 24  # the 3x3 lattice's 12 edges, both ways
    assert all(value > 0 for value in report.values())


def test_setup_builds_the_first_jobs_operator(tmp_path):
    report = _report(tmp_path, "child.py", "setup", "--workload", "flock_turn")
    assert set(report) == {"import_s", "t_end"}


def test_tracer_sees_the_calls_of_a_flocks_report(tmp_path):
    # the report calls analysis.correlation_delay and analysis.settling_time
    # through the module, where the tracer wraps them: one lag per agent
    code = (
        "import json, sys\n"
        f"sys.path[:0] = [{str(ROOT / 'perfbench')!r}, {str(ROOT / 'src')!r}]\n"
        "import tracer\n"
        "rec = tracer.Recorder()\n"
        "tracer.instrument(rec)\n"
        "import dsrnet.cli\n"
        f"args = ['run', '--preset', 'fig2_lattice', '--out', {str(tmp_path)!r}]\n"
        "assert dsrnet.cli.main(args) == 0\n"
        "table = rec.table()\n"
        "names = ('analysis.correlation_delay', 'analysis.settling_time')\n"
        "print(json.dumps({name: table[name]['calls'] for name in names}))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=_ENV
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == {
        "analysis.correlation_delay": 225,
        "analysis.settling_time": 1,
    }
