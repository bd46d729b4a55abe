"""The benchmark in perfbench/ must keep running against this checkout.

Its smoke mode runs every workload briefly, traced and untraced, and
checks the metric names and units, the span nesting and its output gates
(byte-identical reruns, finite per-draw results).  A change under src/
that renames a function the benchmark calls or wraps fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "smoke: ok" in proc.stdout
