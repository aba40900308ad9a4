"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import random
from itertools import combinations
from pathlib import Path

from conftest import CONSTRUCTION_ORDERS, random_hypergraph, run_cli

from bergec4.berge import is_bc4_free
from bergec4.blocks import BlockType, block_degrees, decompose
from bergec4.bounds import edge_ratio, upper_bound, verify_chain
from bergec4.census import census
from bergec4.construct import random_bc4free
from bergec4.hypergraph import Hypergraph, count_three_paths, degree_profile, shadow
from bergec4.search import branch_and_bound_ex, brute_force_ex, ex_table, format_ex_table

from oracles import (
    adjacency,
    excess_degree_within,
    naive_berge_cycle_exists,
    naive_count_three_paths,
    without_isolated_vertices,
)

GOLDEN = Path(__file__).parent / "golden" / "ex_table_n6.tsv"


def _report(k: int, description: str) -> None:
    print(f"\ncriterion {k} ({description}): PASS")


def test_criterion_1_exact_extremal_table():
    expected = {3: 1, 4: 3}
    results = {}
    for n in range(3, 7):
        bf = brute_force_ex(n)
        bb = branch_and_bound_ex(n)
        assert bf.max_edges == bb.max_edges, f"routes disagree at n={n}"
        assert bf.optimal and bb.optimal
        results[n] = bf.max_edges
    assert results[3] == expected[3] and results[4] == expected[4]
    # n=5,6 were frozen as golden values after the two routes agreed
    assert format_ex_table(ex_table(6)) == GOLDEN.read_text()
    _report(1, "exact extremal table, two agreeing routes for n=3..6")


def test_criterion_2_upper_bound_dominance():
    rows = ex_table(8, budget=200_000)
    for r in rows:
        assert upper_bound(r.n) >= r.max_edges, f"bound violated at n={r.n}"
    partial = [r for r in rows if r.n >= 7]
    assert partial, "table must include n=7,8 rows"
    ratio = float(upper_bound(10**6)) * (10**0.5) / (10**6) ** 1.5
    assert abs(ratio - 1) < 0.02
    _report(2, "max_edges <= exact quadratic root, 2% asymptote at n=10^6")


def test_criterion_3_construction_verification(construction_family):
    ratios = []
    for q in CONSTRUCTION_ORDERS:
        h = construction_family[q]
        count = q * q + q + 1
        assert h.n == 3 * count
        assert h.edge_count == (q + 1) * count
        # the construction takes its freeness from the C4 check by the clone
        # lemma; the detector checks that route here
        assert is_bc4_free(h)
        ratios.append(float(edge_ratio(h.n, h.edge_count)))
    for a, b in zip(ratios, ratios[1:]):
        assert b < a, "ratio must decrease in q"
    assert all(0.1924 <= r <= 0.22 for r in ratios)
    assert abs(ratios[0] - 0.2182) < 5e-4
    assert abs(ratios[-1] - 0.198) < 5e-4
    _report(3, "constructions q in {2..16}: counts, freeness, ratio window")


def _instance_schedule(count: int):
    for i in range(count):
        n = 8 + (i % 33)  # 8..40
        target = (max(1, n // 2), n, 2 * n, n * (n - 1) * (n - 2) // 6)[i % 4]
        yield random_bc4free(n, target, seed=20_000 + i)


def _claim_suite(h: Hypergraph) -> None:
    report = census(h)
    assert report.bc4_free
    for c in report.claims():
        assert c.passed, f"{c.label} violated: {c.lhs} vs {c.rhs}"
    assert all(1 <= k <= 3 for k in report.representative_histogram)
    profile = degree_profile(h)
    blocks = decompose(h)
    db = block_degrees(h, blocks)
    m = h.edge_count
    assert sum(profile.excess) >= m
    assert sum(db) >= m
    for b in blocks:
        assert len(b.vertex_set) > len(b.edge_indices)
        assert b.classification in (BlockType.TYPE1, BlockType.TYPE2)
        within = sum(excess_degree_within(h, b, v) for v in b.vertex_set)
        assert within >= len(b.edge_indices)
    compact = without_isolated_vertices(h)
    if compact.n >= 3 and compact.edge_count >= 1:
        assert verify_chain(compact).all_pass()


def test_criterion_4_claim_property_suite(construction_family):
    checked = 0
    for h in _instance_schedule(500):
        if h.edge_count == 0:
            continue
        _claim_suite(h)
        checked += 1
    assert checked >= 495
    for q in CONSTRUCTION_ORDERS:
        _claim_suite(construction_family[q])
    _report(4, "claims, block structure, and full chain on 500 instances + constructions")


def test_criterion_5_detector_oracle_equivalence():
    free = non_free = 0
    for i in range(200):
        n = 6 + (i % 7)  # 6..12
        m = i % 21  # 0..20
        h = random_hypergraph(n, m, seed=5_000 + i)
        fast = is_bc4_free(h)
        slow = not naive_berge_cycle_exists(h, 4)
        assert fast == slow, f"detector disagrees with naive oracle (seed {5_000 + i})"
        free += fast
        non_free += not fast
    assert free >= 20 and non_free >= 20, "sample must cover both outcomes"
    _report(5, "matching detector == naive enumeration on 200 instances")


def _all_graphs(n: int):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield adjacency(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


def test_criterion_6_counting_identity():
    # exhaustive over every graph on up to 6 vertices; 7 and 8 vertices are
    # covered by a seeded sample (all 2^21 and 2^28 graphs are out of reach)
    for n in range(1, 7):
        for g in _all_graphs(n):
            assert count_three_paths(g) == naive_count_three_paths(g)
    rng = random.Random(99)
    for n in (7, 8):
        pairs = list(combinations(range(n), 2))
        for _ in range(300):
            chosen = [p for p in pairs if rng.random() < rng.choice((0.2, 0.5, 0.8))]
            g = adjacency(n, chosen)
            assert count_three_paths(g) == naive_count_three_paths(g)
    for seed in range(200):
        g = shadow(random_hypergraph(9, 12, seed))
        assert count_three_paths(g) == naive_count_three_paths(g)
    # the census cross-checks the identity internally on every run
    census(random_bc4free(12, 12, seed=0))
    _report(6, "3-path count identity: exhaustive <=6 vertices, sampled 7-8, shadows")


def test_criterion_7_worked_micro_examples():
    k4m = Hypergraph(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
    assert shadow(k4m) == adjacency(4, combinations(range(4), 2))
    profile = degree_profile(k4m)
    assert sum(profile.excess) == 3
    blocks = decompose(k4m)
    assert len(blocks) == 1
    assert blocks[0].classification is BlockType.TYPE2
    rep = census(k4m)
    assert (rep.total_3paths, rep.good_3paths, rep.nongood_3paths, rep.rare_4cycles) == (12, 3, 9, 0)
    assert rep.per_pair_bound.lhs == 1
    chain = verify_chain(k4m)
    assert chain.three_path_bound.lhs == 12
    assert chain.three_path_bound.rhs == 75
    _report(7, "K4-minus micro-example: shadow, degrees, block, census, chain")


def test_criterion_8_determinism(tmp_path):
    path = tmp_path / "k4m.txt"
    path.write_text("4 3\n0 1 2\n0 1 3\n0 2 3\n")
    for args in (
        ("shadow", str(path)),
        ("check", str(path)),
        ("blocks", str(path)),
        ("census", str(path)),
        ("verify", str(path)),
        ("construct", "--q", "3"),
        ("random", "--n", "12", "--m", "9", "--seed", "4"),
        ("search", "--n-max", "5"),
    ):
        first = run_cli(*args, check=True)
        second = run_cli(*args, check=True)
        assert first.stdout == second.stdout, f"non-deterministic output for {args}"
    for n in (6, 7, 8):
        base = branch_and_bound_ex(n, threads=1)
        for threads in (2, 8):
            assert branch_and_bound_ex(n, threads=threads) == base
    _report(8, "byte-identical CLI reruns; search invariant across 1/2/8 threads")
