"""Compare two result sets of the bergec4 benchmark, one row per (metric, workload).

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

A result set is a directory written by ``perfbench/suite.py``: one JSON
record per run. Runs of the two sets are paired by (workload, trace, seed).
Each row shows each side's median and quartiles, the change of the median
and the paired wins, and a verdict:

- unresolved: either side's spread (quartile distance over median) exceeds
  the metric's bound, and not every change run beats every base run;
- REGRESSION: the change median is worse than the base median by more
  than the bound;
- gain: the change wins at least 9 of 10 pairs (ties count for neither,
  ten pairs at least) and the medians differ by more than the base quartile
  distance;
- within bound: none of the above.

Per-layer metrics have no bound and get the verdict "info". No combined
score is computed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def metric_rules() -> dict[str, tuple[str, float | None]]:
    """Metric name -> (better, bound); bound None for per-layer metrics."""
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    extra = json.loads((HERE / "metrics.json").read_text(encoding="utf-8"))
    rules = {m["name"]: (m["better"], None) for m in bench["per_layer"]}
    rules.update({m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]})
    rules.update({name: (d["better"], d["bound"]) for name, d in extra["detail"].items()})
    rules["fail_frac"] = ("lower", 0.0)
    return rules


def load(directory: Path) -> dict[tuple[str, int, int], dict]:
    """(workload, trace, seed) -> record."""
    out = {}
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text(encoding="utf-8"))
        out[(rec["workload"], rec["trace"], rec["seed"])] = rec
    if not out:
        raise SystemExit(f"no run records in {directory}")
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else float("inf"))


def verdict(better: str, bound: float | None, base: list[float], change: list[float], pairs: list[tuple[float, float]]) -> tuple[str, int]:
    sign = 1 if better == "lower" else -1
    wins = sum(1 for b, c in pairs if sign * (b - c) > 0)
    if bound is None:
        return "info", wins
    b_q1, b_med, b_q3 = quartiles(base)
    c_med = statistics.median(change)
    every_run_better = all(sign * (b - c) > 0 for b in base for c in change)
    if max(spread(base), spread(change)) > bound and not every_run_better:
        return "unresolved", wins
    worse = sign * (c_med - b_med)
    if worse > bound * abs(b_med):
        return "REGRESSION", wins
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and -worse > b_q3 - b_q1:
        return "gain", wins
    return "within bound", wins


def compare(base_dir: Path, change_dir: Path) -> list[dict]:
    rules = metric_rules()
    base, change = load(base_dir), load(change_dir)
    rows = []
    workloads = sorted({(k[0], k[1]) for k in base} | {(k[0], k[1]) for k in change})
    for workload, trace in workloads:
        keys_b = [k for k in base if k[:2] == (workload, trace)]
        keys_c = [k for k in change if k[:2] == (workload, trace)]
        names = sorted({n for k in keys_b + keys_c for n in (base.get(k) or change[k])["metrics"]})
        for name in names:
            def values(runs, keys):
                return [runs[k]["metrics"][name]["value"] for k in keys if runs[k]["metrics"].get(name, {}).get("value") is not None]

            b, c = values(base, keys_b), values(change, keys_c)
            better, bound = rules.get(name, ("lower", None))
            row = {"metric": name, "workload": workload, "trace": trace, "bound": bound, "base": b, "change": c}
            if not b or not c:
                row.update(verdict="missing", wins=0, pairs=0)
                rows.append(row)
                continue
            paired = [
                (base[k]["metrics"][name]["value"], change[k]["metrics"][name]["value"])
                for k in keys_b
                if k in change
                and base[k]["metrics"].get(name, {}).get("value") is not None
                and change[k]["metrics"].get(name, {}).get("value") is not None
            ]
            row["verdict"], row["wins"] = verdict(better, bound, b, c, paired)
            row["pairs"] = len(paired)
            rows.append(row)
    return rows


def fmt(x: float) -> str:
    return f"{x:.4g}"


def print_rows(rows: list[dict], out=sys.stdout) -> None:
    print("metric\tworkload\ttrace\tbase median [q1, q3]\tchange median [q1, q3]\tdelta\twins\tbound\tverdict", file=out)
    for r in rows:
        if r["verdict"] == "missing":
            print(f"{r['metric']}\t{r['workload']}\t{r['trace']}\t-\t-\t-\t-\t-\tmissing", file=out)
            continue
        b1, bm, b3 = quartiles(r["base"])
        c1, cm, c3 = quartiles(r["change"])
        delta = f"{(cm - bm) / abs(bm):+.1%}" if bm else f"{cm - bm:+.4g}"
        bound = "-" if r["bound"] is None else f"{r['bound']:.0%}"
        print(
            f"{r['metric']}\t{r['workload']}\t{r['trace']}\t{fmt(bm)} [{fmt(b1)}, {fmt(b3)}]"
            f"\t{fmt(cm)} [{fmt(c1)}, {fmt(c3)}]\t{delta}\t{r['wins']}/{r['pairs']}\t{bound}\t{r['verdict']}",
            file=out,
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    rows = compare(args.base, args.change)
    print_rows(rows)
    return 1 if any(r["verdict"] == "REGRESSION" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
