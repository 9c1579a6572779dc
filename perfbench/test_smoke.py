"""Smoke test of the benchmark: one short pass of every workload.

Each workload runs with ``--seconds 1`` (one repetition) at the recorded
seed, so every artifact is checked against its reference digest.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric_and_fails_no_job(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for metric in SPEC["end_to_end"]:
        assert any(
            line.startswith(f"{metric['name']}: ") and f" {metric['unit']}" in line
            for line in lines
        ), metric["name"]
    assert any(line.startswith("jobs_failed: 0 share of jobs attempted") for line in lines)
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
