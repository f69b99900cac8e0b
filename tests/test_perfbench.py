"""The benchmark harness runs on this tree.

perfbench's counting hooks read program attributes (Parallelogram.touched_rows,
col_lo and col_hi, RectangleFamily.members, a grid's nums), and its tracer wraps the layer
functions by name.  A traced run of each workload that touches them must end
correct with no failed operation, so removing what a hook reads fails here and
not only in the benchmark.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# layer functions the harness still lists that the program no longer defines
GONE = {
    "badness.BadnessEngine.inter",
    "geometry.overlap_measure",
    "geometry.union_measure",
    "grids.average",
    "grids.column_prefix",
    "grids.integrate_scaled",
}


@pytest.mark.parametrize("workload", ["shrink", "ascent", "decompose"])
def test_traced_bench_run_is_correct(workload):
    args = ["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "1"]
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    last = json.loads(lines[-1])
    assert (last["correct"], last["failed"]) == (True, 0) and last["attempted"] > 0
    missing = {line.split()[3] for line in lines if line.startswith("! layer function ")}
    assert missing <= GONE
