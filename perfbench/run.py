"""Run one workload of the bergec4 benchmark and print its metrics.

    python3 perfbench/run.py --workload dense-analysis --seed 0 --seconds 20 --trace 0

With ``--trace 0`` the run times set-up (median of several), one untimed
warm-up pass, then whole passes until ``--seconds`` have elapsed, and
reports the end-to-end metrics of BENCHMARK.json plus the workload's detail
metrics from perfbench/metrics.json, taken from the fastest pass (each
command at its fastest time in the run). With ``--trace 1`` it alternates
untraced and traced passes and reports the per-layer metrics, each the
median over traced passes. Every command's output is checked; a failed
check counts as a failed operation and makes the exit code 1. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = workloads.HERE
ROOT = workloads.ROOT
# Set-up is timed in fresh child processes until both minimums are met, then
# once more in this process; setup_s is the median of all samples.
SETUP_MIN_SAMPLES = 4
SETUP_MIN_SECONDS = 3.0
SETUP_MAX_SAMPLES = 30
THREAD_REPEATS = 3


def load_definitions() -> tuple[dict, dict]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    extra = json.loads((HERE / "metrics.json").read_text(encoding="utf-8"))
    return bench, extra


class Tally:
    """Operations attempted and failed, with a message per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, label: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{label}: {error}")

    def add_pass(self, workload, records) -> None:
        for r in records:
            self.add(r.op.label, workload.check(r))


def probe_setup(name: str, seed: int, workdir: Path) -> float:
    """Set-up seconds measured inside a fresh interpreter (bergec4 not yet imported)."""
    code = (
        "import sys, pathlib; sys.path.insert(0, sys.argv[1]); import workloads; "
        "print(workloads.timed_setup(sys.argv[2], int(sys.argv[3]), pathlib.Path(sys.argv[4]))[1])"
    )
    workdir.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(
        [sys.executable, "-c", code, str(HERE), name, str(seed), str(workdir)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise workloads.SetupError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def median_of(rows: list[dict]) -> dict:
    """Per key, the median over rows; None when any row has None."""
    out = {}
    for key in rows[0]:
        values = [row[key] for row in rows]
        out[key] = None if any(v is None for v in values) else statistics.median(values)
    return out


def _on_try_add(tracer, result, args, kwargs):
    if result:
        tracer.count("berge.try_add.kept")


def _on_census(tracer, result, args, kwargs):
    for key, attr in (("census.four_cycles", "four_cycle_count"), ("census.three_paths", "total_3paths")):
        value = getattr(result, attr, None)
        if value is None or tracer.counters.get(key, 0) is None:
            tracer.counters[key] = None
        else:
            tracer.count(key, value)


def _on_branch_and_bound(tracer, result, args, kwargs):
    n = args[0] if args else kwargs.get("n")
    nodes = getattr(result, "nodes_explored", None)
    tracer.counters[f"search.nodes_n{n}"] = nodes
    if nodes is not None:
        tracer.count("search.bb_nodes", nodes)


HOOKS = {
    "berge.try_add": _on_try_add,
    "census.census": _on_census,
    "search.branch_and_bound_ex": _on_branch_and_bound,
}


def layer_metrics(names: list[str], tracer: spans.Tracer, missing: list[str]) -> dict:
    """Per-layer metrics of one traced pass; None marks a name that no longer exists.

    A layer that the pass never entered reads 0, as do ratios over it.
    """
    totals = spans.layer_totals(tracer)
    counters = tracer.counters
    zero = {"calls": 0, "self_s": 0.0, "total_s": 0.0}

    def stat(layer: str, key: str):
        return None if layer in missing else totals.get(layer, zero)[key]

    out = {}
    for metric in names:
        layer, _, key = metric.rpartition(".")
        if key in ("calls", "self_s"):
            out[metric] = stat(layer, key)
        elif metric == "berge.try_add.kept":
            out[metric] = None if "berge.try_add" in missing else counters.get(metric, 0)
        elif metric == "berge.try_add.accept_ratio":
            calls = stat("berge.try_add", "calls")
            kept = counters.get("berge.try_add.kept", 0)
            out[metric] = None if calls is None else (kept / calls if calls else 0.0)
        elif metric in ("census.four_cycles", "census.three_paths"):
            out[metric] = None if "census.census" in missing else counters.get(metric, 0)
        elif metric.startswith("search.nodes_n"):
            out[metric] = None if "search.branch_and_bound_ex" in missing else counters.get(metric, 0)
        elif metric == "search.nodes_per_s":
            busy = stat("search.branch_and_bound_ex", "total_s")
            out[metric] = None if busy is None else (counters.get("search.bb_nodes", 0) / busy if busy else 0.0)
    return out


def threads_speedup(tally: Tally) -> float | None:
    """branch_and_bound_ex(7) time at threads=1 over threads=2, untraced, alternating order.

    Every result must equal the first threads=1 result. None when the
    function no longer takes ``threads``.
    """
    search = sys.modules["bergec4.search"]
    times: dict[int, list[float]] = {1: [], 2: []}
    reference = None
    for rep in range(THREAD_REPEATS):
        for threads in (1, 2) if rep % 2 == 0 else (2, 1):
            start = time.perf_counter()
            try:
                result = search.branch_and_bound_ex(7, threads=threads)
            except TypeError:
                return None
            times[threads].append(time.perf_counter() - start)
            if reference is None:
                reference = result
            tally.add(f"branch_and_bound_ex(7, threads={threads})", None if result == reference else "result differs from threads=1")
    return statistics.median(times[1]) / statistics.median(times[2])


def run_untraced(workload, seconds: float, tally: Tally) -> tuple[dict, int]:
    """Time whole passes for ``seconds``; the metrics describe the fastest pass.

    The fastest pass takes each command at its fastest time over the run's
    passes. On a shared machine a command's time drifts by 20% and more
    over minutes; the fastest time per command repeats across runs far
    better than the median does.
    """
    fastest: dict[str, float] = {}
    passes = 0
    begin = time.perf_counter()
    while not passes or time.perf_counter() - begin < seconds:
        _, records = workloads.run_pass(workload.ops)
        passes += 1
        tally.add_pass(workload, records)
        for r in records:
            fastest[r.op.label] = min(r.seconds, fastest.get(r.op.label, r.seconds))
    best = [dataclasses.replace(r, seconds=fastest[r.op.label]) for r in records]
    metrics = {"wall_s": sum(r.seconds for r in best)}
    metrics.update(workload.pass_detail(best))
    return metrics, passes


def run_traced(workload, seconds: float, tally: Tally, layer_names: list[str], spans_path: Path) -> tuple[dict, int]:
    tracer = spans.Tracer()
    plain, traced, rows = [], [], []
    begin = time.perf_counter()
    while not traced or time.perf_counter() - begin < seconds:
        wall, records = workloads.run_pass(workload.ops)
        plain.append(wall)
        tally.add_pass(workload, records)
        tracer.clear()
        installation = spans.install(tracer, HOOKS)
        try:
            wall, records = workloads.run_pass(workload.ops, tracer)
        finally:
            installation.uninstall()
        traced.append(wall)
        tally.add_pass(workload, records)
        rows.append(layer_metrics(layer_names, tracer, installation.missing))
    metrics = median_of(rows)
    metrics["trace.overhead_frac"] = min(traced) / min(plain) - 1
    if "search.threads2_speedup" in layer_names:
        metrics["search.threads2_speedup"] = threads_speedup(tally) if workload.name == "search" else 0.0
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_tsv(spans_path)
    return metrics, len(traced)


def fmt(value) -> str:
    if value is None:
        return "missing"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv: list[str] | None = None) -> int:
    bench, extra = load_definitions()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = HERE / "_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tally = Tally()
        setup = []
        if args.trace == 0:
            begin = time.perf_counter()
            while len(setup) < SETUP_MAX_SAMPLES and (
                len(setup) < SETUP_MIN_SAMPLES or time.perf_counter() - begin < SETUP_MIN_SECONDS
            ):
                setup.append(probe_setup(args.workload, args.seed, workdir / "probe"))
        workload, seconds = workloads.timed_setup(args.workload, args.seed, workdir)
        setup.append(seconds)
        for label, error in workload.warm_up():
            tally.add(label, error)
        if args.trace == 0:
            metrics, passes = run_untraced(workload, args.seconds, tally)
            metrics["setup_s"] = statistics.median(setup)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
            units.update({name: d["unit"] for name, d in extra["detail"].items() if args.workload in d["workloads"]})
            reported = [m["name"] for m in bench["end_to_end"]]
        else:
            names = [m["name"] for m in bench["per_layer"]]
            spans_path = HERE / "out" / f"spans-{args.workload}.tsv"
            metrics, passes = run_traced(workload, args.seconds, tally, names, spans_path)
            units = {m["name"]: m["unit"] for m in bench["per_layer"]}
            reported = names
    except workloads.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(tally.failures)
    for message in tally.failures:
        print(f"FAILED {message}", file=sys.stderr)
    if args.trace == 0:
        counts = f"fastest of {passes} passes, setup_s median of {len(setup)} set-ups"
    else:
        counts = f"median of {passes} traced passes"
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: {counts}")
    for name, unit in units.items():
        print(f"{name:<46} {fmt(metrics.get(name)):>14} {unit}")
    print(f"{'fail_frac':<46} {fmt(failed / tally.attempted):>14} ratio  ({failed} of {tally.attempted} operations)")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": passes,
        "metrics": {name: {"value": metrics.get(name), "unit": unit} for name, unit in units.items()},
    }
    detail["metrics"]["fail_frac"] = {"value": failed / tally.attempted, "unit": "ratio"}
    print("detail " + json.dumps(detail))
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name), "unit": units[name]} for name in reported},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
