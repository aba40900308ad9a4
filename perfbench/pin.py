"""Record the exit code and stdout digest of every pinned command into pins.json.

    python3 perfbench/pin.py

Pins every dense-analysis command for each q16-cyclic variant and the
greedy ``random`` commands of workload seeds 0..GREEDY_SEEDS-1. Run it only
when the report format is meant to change: the correctness gate compares
every later run against these digests.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import workloads

GREEDY_SEEDS = 16


def pin(workload_name: str, seeds, pins: dict, workdir: Path) -> None:
    for seed in seeds:
        workload = workloads.get(workload_name)
        workload.generate(seed, workdir)
        for op in workload.ops:
            if op.pin in pins:
                continue
            rec = workloads.run_op(op)
            if rec.error is not None:
                raise SystemExit(f"{op.label} raised:\n{rec.error}")
            pins[op.pin] = {"exit": rec.rc, "sha256": workloads.sha256(rec.stdout)}
            print(f"{op.pin}\texit {rec.rc}\t{rec.seconds:.3f} s", file=sys.stderr)


def main() -> int:
    workloads.load_bergec4()
    if not workloads.PINS.exists():
        workloads.PINS.write_text("{}\n", encoding="utf-8")  # generate() reads the pins file
    pins = {"dense-analysis": {}, "greedy": {}}
    with tempfile.TemporaryDirectory(dir=workloads.HERE) as tmp:
        pin("dense-analysis", range(workloads.DenseAnalysis.VARIANTS), pins["dense-analysis"], Path(tmp))
        pin("greedy", range(GREEDY_SEEDS), pins["greedy"], Path(tmp))
    workloads.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
