"""The benchmark's own tests.

    python3 perfbench/selftest.py [TEST ...]

Run from the root of a checkout.  Each test prints PASS or FAIL; the exit
code is 1 if any failed.  All of them together take a few minutes.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import gate, pinned_ops  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _last_json(cmd: list[str]) -> dict:
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def bench(workload: str, seed: int, trace: int, seconds: int) -> dict:
    return _last_json([
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ])


def worker(workload: str, seed: int, mode: str) -> dict:
    return _last_json([sys.executable, str(HERE / "worker.py"), workload, str(seed), mode])


def test_output_gate_rejects_a_perturbed_digest() -> None:
    ops = worker("shrink", 5, "job")["ops"]
    pinned = pinned_ops("shrink", 5)
    assert gate(pinned, ops) == 0
    for i in range(len(pinned)):
        perturbed = [list(p) for p in pinned]
        perturbed[i][1] = format(int(perturbed[i][1], 16) ^ 1, "016x")
        assert gate(perturbed, ops) == 1, f"a perturbed digest of op {i} passed the gate"
    assert gate(pinned, ops[:-1]) == 1, "a missing operation passed the gate"
    assert gate(pinned, [(n, False, d) for n, _, d in ops[:1]] + ops[1:]) == 1, "a failed check passed"


def test_work_counters_repeat_exactly() -> None:
    for workload in ("shrink", "ascent"):
        a, b = worker(workload, 3, "count"), worker(workload, 3, "count")
        assert a["counters"] == b["counters"], f"{workload}: {a['counters']} vs {b['counters']}"
        assert a["calls"] == b["calls"], f"{workload}: call counts differ"


def test_every_workload_reports_every_metric() -> None:
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        names = {m["name"]: m["unit"] for m in declared}
        for workload in WORKLOADS:
            out = bench(workload, 1, trace, seconds=1)
            assert set(out) == {"correct", "attempted", "failed", "metrics"}, out.keys()
            assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, (workload, trace, out)
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            assert got == names, (workload, trace, set(got) ^ set(names))
            for name, v in out["metrics"].items():
                assert isinstance(v["value"], (int, float)), (workload, name, v)
            if trace == 0:
                assert all(v["value"] > 0 for v in out["metrics"].values()), (workload, out["metrics"])


def test_two_sets_of_runs_agree_within_bounds(runs: int = 3) -> None:
    """Two sets of runs on different seeds: each end-to-end median of the
    second set is within the metric's bound of the first set's."""
    seconds = SPEC["run_seconds"]
    for workload in ("shrink",):
        sets = [[bench(workload, seed, 0, seconds) for seed in range(first, first + runs)] for first in (1, 1 + runs)]
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = (statistics.median(r["metrics"][name]["value"] for r in s) for s in sets)
            assert abs(b - a) <= bound * a, f"{workload} {name}: medians {a:.4g} and {b:.4g} differ by more than {bound:.0%}"


TESTS = {name: fn for name, fn in globals().items() if name.startswith("test_")}


def main(names: list[str]) -> int:
    failures = 0
    for name in names or TESTS:
        try:
            TESTS[name]()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}", flush=True)
        else:
            print(f"PASS {name}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
