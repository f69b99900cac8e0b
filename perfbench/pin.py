"""Pin the output digests of every workload and input variant.

    python3 perfbench/pin.py

Run once, from the root of a checkout of the program whose outputs are the
reference, and commit the resulting ``perfbench/digests.json``.  Every
operation must succeed; the benchmark then fails any later run whose
outputs differ.
"""

from __future__ import annotations

import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workloads import VARIANTS, WORKLOADS  # noqa: E402


def pin_one(workload: str, variant: int) -> list:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, str(variant), "job"],
        cwd=HERE.parent, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    bad = [name for name, ok, _ in result["ops"] if not ok]
    if result.get("error") or bad:
        raise SystemExit(f"{workload} variant {variant}: {result.get('error') or bad}")
    print(f"{workload} {variant}: {len(result['ops'])} ops, job {result['wall_s']:.2f} s", flush=True)
    return [[name, digest] for name, _, digest in result["ops"]]


def main() -> None:
    jobs = [(w, v) for w in WORKLOADS for v in range(VARIANTS)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        pins = list(pool.map(lambda job: pin_one(*job), jobs))
    table: dict = {}
    for (w, v), ops in zip(jobs, pins):
        entry = table.setdefault(w, {"ops": [name for name, _ in ops], "digests": {}})
        if [name for name, _ in ops] != entry["ops"]:
            raise SystemExit(f"{w} variant {v}: operations differ from variant 0")
        entry["digests"][str(v)] = [digest for _, digest in ops]
    (HERE / "digests.json").write_text(json.dumps(table, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
