"""Run every workload of the bergec4 benchmark several times and summarise the spread.

    python3 perfbench/suite.py --runs 10 --out perfbench/out/now
    python3 perfbench/suite.py --runs 10 --base ../parent-checkout --out perfbench/out/compare

Each run is ``perfbench/run.py`` in its own process, with seed
first-seed + i for run i. Every run's record (all metrics with units) is
saved as JSON under the output directory. With one checkout the suite
prints, per (metric, workload), the median, the quartiles and the spread
(quartile distance over median) next to the metric's bound. With
``--base`` it runs the base checkout and this one in pairs, alternating
which side runs first, saves the two result sets under ``base/`` and
``change/``, and prints the comparison of ``compare.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import compare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT = 900


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict | None:
    """Run one workload in ``checkout``; returns its record, None if it printed none."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT)
    if proc.returncode != 0:
        print(f"  exit {proc.returncode}: {proc.stderr.strip()[-2000:]}", file=sys.stderr)
    for line in proc.stdout.splitlines():
        if line.startswith("detail "):
            return json.loads(line[len("detail "):])
    return None


def bench_digest(checkout: Path) -> str:
    """Digest of the benchmark's own files, to catch two sides running different benchmarks."""
    h = hashlib.sha256()
    for path in sorted((checkout / "perfbench").glob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    h.update((checkout / "BENCHMARK.json").read_bytes())
    return h.hexdigest()


def summarise(directory: Path) -> None:
    rules = compare.metric_rules()
    runs = compare.load(directory)
    print("metric\tworkload\ttrace\truns\tmedian\tq1\tq3\tspread\tbound")
    for workload, trace in sorted({k[:2] for k in runs}):
        recs = [r for k, r in runs.items() if k[:2] == (workload, trace)]
        for name in recs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in recs if r["metrics"][name]["value"] is not None]
            if not values:
                print(f"{name}\t{workload}\t{trace}\t0\tmissing")
                continue
            q1, med, q3 = compare.quartiles(values)
            bound = rules.get(name, ("lower", None))[1]
            print(
                f"{name}\t{workload}\t{trace}\t{len(values)}\t{med:.6g}\t{q1:.6g}\t{q3:.6g}"
                f"\t{compare.spread(values):.3f}\t{'-' if bound is None else bound}"
            )


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--workload", action="append", choices=names, help="default: every workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), action="append", help="default: 0")
    parser.add_argument("--base", type=Path, help="checkout of the parent commit to pair against")
    parser.add_argument("--out", type=Path, default=HERE / "out" / "suite")
    args = parser.parse_args(argv)

    sides = {"current": ROOT}
    if args.base:
        sides = {"base": args.base.resolve(), "change": ROOT}
        if bench_digest(sides["base"]) != bench_digest(ROOT):
            print("warning: the two checkouts hold different benchmark files", file=sys.stderr)
    for side in sides:
        (args.out / side).mkdir(parents=True, exist_ok=True)
    failed = 0
    for workload in args.workload or names:
        for trace in args.trace or [0]:
            for i in range(args.runs):
                seed = args.first_seed + i
                order = list(sides) if i % 2 == 0 else list(reversed(sides))
                for side in order:
                    rec = run_once(sides[side], workload, seed, args.seconds, trace)
                    if rec is None:
                        failed += 1
                        continue
                    rec["first"] = order[0]
                    path = args.out / side / f"{workload}-trace{trace}-seed{seed}.json"
                    path.write_text(json.dumps(rec, indent=1) + "\n", encoding="utf-8")
                    fail = rec["metrics"]["fail_frac"]["value"]
                    failed += fail > 0
                    shown = ", ".join(
                        f"{k}={v['value']:.4g}" for k, v in rec["metrics"].items()
                        if k in ("wall_s", "setup_s", "trace.overhead_frac") and v["value"] is not None
                    )
                    print(f"{side} {workload} trace={trace} seed={seed}: {shown}, fail_frac={fail}", file=sys.stderr)
    if args.base:
        compare.print_rows(compare.compare(args.out / "base", args.out / "change"))
    else:
        summarise(args.out / "current")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
