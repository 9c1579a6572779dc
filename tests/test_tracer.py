"""The benchmark's tracer wraps dsrnet names by attribute lookup, so renaming
or deleting one of them breaks ``perfbench/run.py --trace 1``."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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
