"""The dirmax benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a dirmax checkout; the program is imported from
``src/``.  Every measurement happens in a fresh worker process
(``worker.py``), one at a time, in one thread: a closed loop with one
client.

``--trace 0`` measures the end-to-end metrics.  Five set-up processes give
``setup_s`` samples (import dirmax, build the inputs).  Then job processes
run one after another for about S seconds; each gives one more ``setup_s``
sample, one ``wall_s`` sample (the job alone) and one ``peak_rss_mb``
sample.  Medians are reported; times at a nominal machine speed (see
NOMINAL_REF_S).

``--trace 1`` gives the per-layer metrics: one untraced job, one traced job
(self time and calls of every layer function) and one counting job (exact
work counters), each in its own process.

Every job's outputs are checked against the digests pinned in
``digests.json``; an operation fails if it raises, if a verify check in it
fails, or if its digest differs.  The work counters must also repeat
exactly between runs of the same program on the same seed.

A report goes to standard output first; the last line is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_RUNS = 5
# Times are reported at a nominal machine speed: scaled so that the
# reference loop, timed in the same process next to the measured work,
# would take this long.  The raw seconds are in the report as well.
NOMINAL_REF_S = 0.2
RUN_LIMIT_S = 170  # every run ends well inside three minutes

sys.path.insert(0, str(HERE))
from counters import COUNTERS  # noqa: E402
from tracer import FUNCTIONS, LAYERS  # noqa: E402
from worker import reference_loop  # noqa: E402
from workloads import WORKLOADS, variant_of  # noqa: E402

KERNEL = [fn for fn in FUNCTIONS if fn.split(".")[0] in ("grids", "maximal") and fn != "maximal.m2_vertical"]


# -- header ---------------------------------------------------------------------


def _src_files() -> list[Path]:
    return sorted((ROOT / "src").rglob("*.py"))


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in _src_files():
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def header(workload: str, seed: int) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "loadavg": " ".join(f"{x:.2f}" for x in os.getloadavg()),
        "commit": _git_commit(),
        "src_sha": src_digest(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in _src_files()),
        "workload": workload,
        "seed": seed,
        "variant": variant_of(seed),
        "seed_drives": WORKLOADS[workload].seeded,
        "ref_loop_s": round(reference_loop(), 4),
    }


# -- workers and the output gate --------------------------------------------------


class Run:
    """Workers started by one benchmark run, and the operations they checked."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload, self.seed, self.deadline = workload, seed, deadline
        self.pinned = pinned_ops(workload, seed)
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def worker(self, mode: str) -> dict | None:
        """Run one worker process to completion; None if it failed."""
        cmd = [sys.executable, str(HERE / "worker.py"), self.workload, str(self.seed), mode]
        timeout = self.deadline - time.monotonic()
        try:
            if timeout <= 0:
                raise subprocess.TimeoutExpired(cmd, 0)
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            self.notes.append(f"{mode} worker: out of time")
            return None
        if proc.returncode != 0:
            self.notes.append(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-600:]}")
            return None
        return json.loads(proc.stdout.splitlines()[-1])

    def check(self, result: dict | None) -> None:
        """Count the result's operations against the pinned digests."""
        ops = result.get("ops", []) if result else []
        self.attempted += max(len(self.pinned), len(ops))
        self.failed += gate(self.pinned, ops)
        if result and result.get("error"):
            self.notes.append(f"job raised {result['error']}")

    def check_equal(self, what: str, a, b) -> None:
        """One more checked operation: two exact results must agree."""
        self.attempted += 1
        if a != b:
            self.failed += 1
            self.notes.append(f"{what} differ")


def pinned_ops(workload: str, seed: int) -> list[tuple[str, str]]:
    """(operation, digest) pairs pinned for the workload's input variant."""
    entry = json.loads((HERE / "digests.json").read_text())[workload]
    return list(zip(entry["ops"], entry["digests"][str(variant_of(seed))]))


def gate(pinned: list, ops: list) -> int:
    """Failed operations: each pinned (name, digest) needs an ok op with that
    name and digest in the same place; extra operations fail too."""
    failed = max(0, len(ops) - len(pinned))
    for i, (name, want) in enumerate(pinned):
        if i >= len(ops):
            failed += 1
            continue
        got_name, ok, got = ops[i]
        if got_name != name or not ok or got != want:
            failed += 1
    return failed


# -- the two kinds of run -----------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def end_to_end(run: Run, seconds: int) -> tuple[dict, list[str]]:
    raw: dict[str, list[float]] = {"setup_s": [], "wall_s": []}
    values: dict[str, list[float]] = {"setup_s": [], "wall_s": [], "peak_rss_mb": []}

    def add_setup(result: dict) -> None:
        raw["setup_s"].append(result["setup_s"])
        values["setup_s"].append(result["setup_s"] * NOMINAL_REF_S / result["ref_before"])

    for result in (run.worker("setup") for _ in range(SETUP_RUNS)):
        if result:
            add_setup(result)
    durations: list[float] = []
    start = time.monotonic()
    while not durations or time.monotonic() - start + statistics.median(durations) <= seconds:
        if time.monotonic() > run.deadline:
            break
        t = time.monotonic()
        result = run.worker("job")
        durations.append(time.monotonic() - t)
        run.check(result)
        if result:
            add_setup(result)
            raw["wall_s"].append(result["wall_s"])
            ref = (result["ref_before"] + result["ref_after"]) / 2
            values["wall_s"].append(result["wall_s"] * NOMINAL_REF_S / ref)
            values["peak_rss_mb"].append(result["peak_rss_mb"])
    if not values["wall_s"]:
        return {}, []
    lines = []
    for label, series in (("raw", raw), (f"at nominal speed (reference loop {NOMINAL_REF_S} s)", values)):
        lines.append(label + ":")
        for name, vals in series.items():
            q1, med, q3 = quartiles(vals)
            lines.append(f"  {name:12s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n {len(vals)}")
    return {name: statistics.median(vals) for name, vals in values.items()}, lines


def per_layer(run: Run) -> tuple[dict, list[str]]:
    untraced = run.worker("job")
    traced = run.worker("traced")
    counted = run.worker("count")
    for result in (untraced, traced, counted):
        run.check(result)
    if not (untraced and traced and counted):
        return {}, []
    run.check_equal("call counts of the traced and counting passes", traced["calls"], counted["calls"])
    run.check_equal("work counters of this and an earlier run", counted["counters"], _earlier_counters(run, counted))
    for name in sorted(set(traced["missing"]) | set(counted["missing"])):
        run.notes.append(f"layer function {name} not found; reported as 0")

    metrics: dict[str, float] = {}
    for fn in FUNCTIONS:
        metrics[f"{fn}.self_s"] = traced["self_s"].get(fn, 0.0)
        metrics[f"{fn}.calls"] = traced["calls"].get(fn, 0)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(metrics[f"{fn}.self_s"] for fn in FUNCTIONS if fn.startswith(layer + "."))
    metrics["trace.wall_s"] = traced["traced_s"]
    metrics["trace.residue_s"] = traced["traced_s"] - traced["covered_s"]
    metrics["trace.overhead_frac"] = traced["wall_s"] / untraced["wall_s"] - 1
    metrics.update(counted["counters"])

    whole = traced["traced_s"]
    lines = [f"traced set-up + job {whole:.4g} s (job {traced['wall_s']:.4g} s; untraced job {untraced['wall_s']:.4g} s)"]
    lines.append("layer           self_s   share")
    for layer in LAYERS:
        v = metrics[f"{layer}.self_s"]
        lines.append(f"  {layer:13s} {v:8.4f}  {v / whole:6.1%}")
    kernel = sum(metrics[f"{fn}.self_s"] for fn in KERNEL)
    lines.append(f"  {'(untraced)':13s} {metrics['trace.residue_s']:8.4f}  {metrics['trace.residue_s'] / whole:6.1%}")
    lines.append(f"kernel (grids + maximal without m2_vertical) {kernel:.4f} s = {kernel / whole:.1%}")
    busiest = sorted(FUNCTIONS, key=lambda fn: -metrics[f"{fn}.self_s"])[:8]
    lines.append("busiest: " + ", ".join(f"{fn} {metrics[fn + '.self_s']:.3f} s/{metrics[fn + '.calls']}" for fn in busiest))
    lines.append("counters: " + ", ".join(f"{k} {counted['counters'][k]:.6g}" for k in COUNTERS))
    return metrics, lines


def _earlier_counters(run: Run, counted: dict) -> dict:
    """Counters an earlier run of this program saved for this workload and
    seed; the first run saves its own."""
    path = OUT / f"counters-{run.workload}-{run.seed}-{src_digest()}.json"
    if path.exists():
        return json.loads(path.read_text())
    OUT.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counted["counters"]))
    return counted["counters"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dirmax" / "__init__.py").is_file():
        sys.stderr.write(f"no dirmax sources under {ROOT / 'src'}: run from a dirmax checkout\n")
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    for key, value in header(args.workload, args.seed).items():
        print(f"# {key}: {value}")
    run = Run(args.workload, args.seed, deadline)
    values, lines = per_layer(run) if args.trace else end_to_end(run, args.seconds or spec["run_seconds"])
    for line in lines:
        print(line)
    for note in run.notes:
        print(f"! {note}")
    if not values:
        sys.stderr.write("no successful job: no metrics to report\n")
        return 1
    print(f"fail_frac {run.failed / run.attempted:.6g} ({run.failed} of {run.attempted} operations)")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
