"""One fresh process: import dirmax, build one workload's inputs, run its job.

    python3 perfbench/worker.py WORKLOAD SEED MODE

MODE is one of
  setup   import dirmax and build the inputs, then time the reference loop;
  job     also run the job untraced, then time the reference loop again;
  traced  wrap the layer functions with SpanTracer, then build and run;
  count   wrap them with CountPass (call counts and work counters).

The last line of standard output is one JSON object.  Output digests are
taken after the job, outside every timed region.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from counters import CountPass
from tracer import SpanTracer
from workloads import WORKLOADS, variant_of

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

SETUP, JOB, AFTER = 0, 1, 2  # span run ids: the phases of one process
PHASES = {SETUP: "setup", JOB: "job", AFTER: "render"}


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop: this machine's current speed."""
    t = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i % 7
    return time.perf_counter() - t


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def main(argv: list[str]) -> dict:
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()  # set-up: import dirmax, build the inputs
    import dirmax  # noqa: F401

    wl = WORKLOADS[name]
    probe = SpanTracer() if mode == "traced" else CountPass() if mode == "count" else None
    if probe is not None:
        probe.install()
    inputs = wl.inputs(variant_of(seed))
    t1 = time.perf_counter()
    result: dict = {"setup_s": t1 - t0}
    if mode in ("setup", "job"):
        # the host's speed drifts by tens of percent over minutes; a loop
        # timed right next to the measured work gauges it at that moment
        result["ref_before"] = reference_loop()
    if mode == "setup":
        return result

    if mode == "traced":
        probe.run_id = JOB
    ops: list = []
    t2 = time.perf_counter()
    try:
        wl.job(inputs, ops)
    except Exception as exc:  # reported; the ops that did not run count as failed
        result["error"] = f"{type(exc).__name__}: {exc}"
    t3 = time.perf_counter()
    result["wall_s"] = t3 - t2
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if mode == "job":
        result["ref_after"] = reference_loop()

    if mode == "traced":
        probe.run_id = AFTER
        self_s, calls, covered = probe.summary((SETUP, JOB))
        result.update(
            self_s=self_s,
            calls=calls,
            traced_s=(t1 - t0) + (t3 - t2),
            covered_s=covered,
            missing=probe.missing,
        )
        OUT.mkdir(parents=True, exist_ok=True)
        probe.write(OUT / f"spans-{name}-{seed}.csv.gz", PHASES)
    elif mode == "count":
        counters, calls = probe.result()
        result.update(counters=counters, calls=calls, missing=probe.counter.missing)

    result["ops"] = [(op, ok, digest(text)) for op, ok, text in wl.outputs(ops)]
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
