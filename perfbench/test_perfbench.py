"""Tests of the benchmark itself; the tier-1 suite (tests/) does not collect them.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(root: Path, workload: str, trace: int = 0, seed: int = 0):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def copy_checkout(dest: Path, with_program: bool = True) -> Path:
    """The files a checkout of the benchmark holds; without the program if asked."""
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("_work", "out", "__pycache__"))
    if with_program:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests" / "golden", dest / "tests" / "golden")
    return dest


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_untraced(workload):
    proc, result = run_bench(ROOT, workload)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_search():
    proc, result = run_bench(ROOT, "search", trace=1)
    assert proc.returncode == 0, proc.stderr
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in BENCH["per_layer"]}
    assert metrics["berge.find_berge_cycle.calls"] == 0
    assert metrics["berge.try_add.calls"] > metrics["berge.try_add.kept"] > 0
    assert metrics["search.nodes_n7"] > 0 and metrics["search.threads2_speedup"] > 0


def test_corrupted_pin_fails_the_run(tmp_path):
    checkout = copy_checkout(tmp_path)
    greedy = workloads.get("greedy")
    greedy.generate(0, tmp_path)
    pins_path = checkout / "perfbench" / "pins.json"
    pins = json.loads(pins_path.read_text(encoding="utf-8"))
    pins["greedy"][greedy.ops[0].pin]["sha256"] = "0" * 64
    pins_path.write_text(json.dumps(pins), encoding="utf-8")

    proc, result = run_bench(checkout, "greedy", seed=0)
    assert proc.returncode != 0
    assert not result["correct"] and result["failed"] > 0
    detail = next(l for l in proc.stdout.splitlines() if l.startswith("detail "))
    assert json.loads(detail[len("detail "):])["metrics"]["fail_frac"]["value"] > 0
    assert "stdout differs from the pinned digest" in proc.stderr


def test_refuses_without_the_program(tmp_path):
    checkout = copy_checkout(tmp_path, with_program=False)
    proc, result = run_bench(checkout, "greedy")
    assert proc.returncode != 0 and result is None


def test_self_times_on_hand_built_tree():
    # root [0,10] has children a [1,4] and b [5,9]; c [2,3] is a's child;
    # d [6,8] and e [7,9.5] are b's children: they overlap, and e ends after b
    parent = [-1, 0, 0, 1, 2, 2]
    start = [0.0, 1.0, 5.0, 2.0, 6.0, 7.0]
    end = [10.0, 4.0, 9.0, 3.0, 8.0, 9.5]
    assert spans.self_times(parent, start, end) == [3.0, 2.0, 1.0, 1.0, 2.0, 2.5]


def test_tracer_records_nested_spans():
    tracer = spans.Tracer()

    def inner(x):
        return x + 1

    traced_inner = tracer.wrap("inner", inner)
    outer = tracer.wrap("outer", lambda x: traced_inner(x) + traced_inner(x))
    tracer.set_label("cmd")
    assert outer(1) == 4
    assert list(tracer.parent) == [-1, 0, 0]
    totals = spans.layer_totals(tracer)
    assert totals["outer"]["calls"] == 1 and totals["inner"]["calls"] == 2
    assert 0 <= totals["outer"]["self_s"] <= totals["outer"]["total_s"]


def test_install_rebinds_importers_and_uninstall_restores():
    workloads.load_bergec4()
    berge, census = sys.modules["bergec4.berge"], sys.modules["bergec4.census"]

    original = berge.is_bc4_free
    original_try_add = berge.Bc4FreeBuilder.__dict__["try_add"]
    gone = spans.Target("berge.gone", "bergec4.berge", "no_such_function")
    tracer = spans.Tracer()
    inst = spans.install(tracer, targets=spans.TARGETS + (gone,))
    try:
        assert census.is_bc4_free is berge.is_bc4_free is not original
        assert berge.Bc4FreeBuilder.__dict__["try_add"] is not original_try_add
        assert inst.missing == ["berge.gone"]
    finally:
        inst.uninstall()
    assert census.is_bc4_free is berge.is_bc4_free is original
    assert berge.Bc4FreeBuilder.__dict__["try_add"] is original_try_add


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    pairs = lambda change: list(zip(base, change))
    slower = [v * 1.3 for v in base]
    faster = [v * 0.8 for v in base]
    assert compare.verdict("lower", 0.1, base, slower, pairs(slower))[0] == "REGRESSION"
    assert compare.verdict("lower", 0.1, base, faster, pairs(faster)) == ("gain", 10)
    assert compare.verdict("lower", 0.1, base, base, pairs(base))[0] == "within bound"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict("lower", 0.1, base, noisy, pairs(noisy))[0] == "unresolved"
