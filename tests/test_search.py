import sys
import threading
from itertools import combinations
from pathlib import Path

import pytest

from oracles import naive_berge_cycle_exists, naive_class_best

from bergec4.berge import is_bc4_free
from bergec4.bounds import upper_bound
from bergec4.hypergraph import Hypergraph
from bergec4 import search as search_module
from bergec4.search import SEARCH_MAX_N, branch_and_bound_ex, brute_force_ex, ex_table, format_ex_table

GOLDEN = Path(__file__).parent / "golden" / "ex_table_n6.tsv"
# the greedy seed at n = 7, and the n = 7 optimum found by the full search
SUNFLOWER_7 = tuple((0, 1, v) for v in range(2, 7))
TWO_K4_MINUS_7 = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (0, 4, 5), (0, 4, 6), (0, 5, 6))
# the second pinned edge of root class i meets (0, 1, 2) in exactly i vertices
SECOND_EDGES = {2: (0, 1, 3), 1: (0, 3, 4), 0: (3, 4, 5)}


class TestBruteForce:
    def test_smallest_cases(self):
        assert brute_force_ex(3).max_edges == 1
        assert brute_force_ex(4).max_edges == 3

    def test_witness_is_lexicographically_least(self):
        r = brute_force_ex(4)
        # any 3 of the 4 triples work, so the least choice drops (1,2,3)
        assert r.witness == Hypergraph(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
        r3 = brute_force_ex(3)
        assert r3.witness == Hypergraph(3, [(0, 1, 2)])

    def test_witness_is_free_and_unextendable_size(self):
        for n in (5, 6):
            r = brute_force_ex(n)
            assert is_bc4_free(r.witness)
            assert not naive_berge_cycle_exists(r.witness, 4)
            assert r.optimal
            assert r.witness.edge_count == r.max_edges

    def test_larger_witnesses_are_pinned(self):
        assert brute_force_ex(5).witness.edges == ((0, 1, 2), (0, 1, 3), (0, 1, 4))
        assert brute_force_ex(6).witness.edges == ((0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 1, 5))

    def test_nodes_explored_counts_free_sets(self):
        # the number of BC4-free edge subsets of K_n^(3), the empty set included
        assert [brute_force_ex(n).nodes_explored for n in range(3, 7)] == [2, 15, 176, 2176]

    @pytest.mark.parametrize("n, free_sets", [(4, 15), (5, 176)])
    def test_free_set_count_matches_naive_oracle(self, n, free_sets):
        # every subset of all C(n, 3) triples, judged by the ordered-tuple oracle
        triples = list(combinations(range(n), 3))
        count = sum(
            not naive_berge_cycle_exists(Hypergraph(n, subset), 4)
            for k in range(len(triples) + 1)
            for subset in combinations(triples, k)
        )
        assert count == free_sets == brute_force_ex(n).nodes_explored

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            brute_force_ex(2)
        with pytest.raises(ValueError):
            brute_force_ex(7)


class TestBranchAndBound:
    def test_matches_brute_force(self):
        for n in range(3, 7):
            bb = branch_and_bound_ex(n)
            bf = brute_force_ex(n)
            assert bb.max_edges == bf.max_edges
            assert bb.optimal
            assert is_bc4_free(bb.witness)
            assert bb.witness.edge_count == bb.max_edges

    def test_n7_result_is_pinned(self):
        # the same builder decisions visit the same nodes in the same order
        r = branch_and_bound_ex(7)
        assert (r.max_edges, r.nodes_explored, r.optimal) == (6, 177, True)
        assert r.witness.edges == (
            (0, 1, 2), (0, 1, 3), (0, 2, 3), (0, 4, 5), (0, 4, 6), (0, 5, 6),
        )

    @pytest.mark.parametrize(
        "n, budget, expected, witness",
        [
            (7, 0, (5, 0, False), SUNFLOWER_7),
            (7, 1, (5, 2, False), SUNFLOWER_7),
            (7, 7, (5, 8, False), SUNFLOWER_7),
            (7, 500, (6, 177, True), TWO_K4_MINUS_7),
            (7, 5000, (6, 177, True), TWO_K4_MINUS_7),
            (8, 200_000, (6, 1089, True), tuple((0, 1, v) for v in range(2, 8))),
        ],
    )
    def test_budgeted_results_are_pinned(self, n, budget, expected, witness):
        # a cut run also counts the node that hit the budget
        r = branch_and_bound_ex(n, node_budget=budget)
        assert (r.max_edges, r.nodes_explored, r.optimal) == expected
        assert r.witness.edges == witness

    def test_deep_search_leaves_recursion_limit_alone(self):
        # m = C(20, 3) = 1,140 triples: a DFS deeper than the default limit
        before = sys.getrecursionlimit()
        r = branch_and_bound_ex(20, node_budget=2000)
        assert (r.max_edges, r.nodes_explored, r.optimal) == (18, 2001, False)
        assert sys.getrecursionlimit() == before

    def test_zero_budget_returns_greedy_lower_bound(self):
        r = branch_and_bound_ex(7, node_budget=0)
        assert not r.optimal
        assert r.max_edges >= 1
        assert is_bc4_free(r.witness)

    def test_budget_cuts_are_deterministic(self):
        # below the 177 nodes of the full n = 7 search, so the run is cut
        a = branch_and_bound_ex(7, node_budget=100)
        b = branch_and_bound_ex(7, node_budget=100)
        assert a == b
        assert not a.optimal

    def test_thread_counts_do_not_change_results(self):
        for n in (6, 8):
            base = branch_and_bound_ex(n, threads=1)
            for threads in (2, 8):
                assert branch_and_bound_ex(n, threads=threads) == base

    def test_budgeted_run_ignores_thread_fanout(self):
        # finite budgets force canonical sequential accounting
        a = branch_and_bound_ex(7, node_budget=100, threads=4)
        b = branch_and_bound_ex(7, node_budget=100, threads=1)
        assert a == b and not a.optimal

    def test_threads_start_no_thread(self, monkeypatch):
        # the search runs on one sequential path whatever threads says
        def refuse(thread):
            raise AssertionError(f"branch_and_bound_ex started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert branch_and_bound_ex(9, threads=4) == branch_and_bound_ex(9, threads=1)

    def test_repeat_runs_identical(self):
        a = branch_and_bound_ex(6)
        b = branch_and_bound_ex(6)
        assert a == b and a.nodes_explored == b.nodes_explored

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_prev_row_prunes_match_brute_force(self, n):
        # the averaging cap and the degree prune, fed ex(n - 1) from brute force
        r = branch_and_bound_ex(n, prev_ex=brute_force_ex(n - 1).max_edges)
        assert (r.max_edges, r.optimal) == (brute_force_ex(n).max_edges, True)
        assert is_bc4_free(r.witness)
        assert r.witness.edge_count == r.max_edges

    def test_degree_prune_fires_below_brute_force_range(self):
        # so the oracle test above exercises the rule, not only the cap
        r = branch_and_bound_ex(6, prev_ex=brute_force_ex(5).max_edges)
        assert sum(c.degree_prunes for c in r.classes) > 0

    @pytest.mark.parametrize("n, prev_ex", [(7, -1), (7, upper_bound(6).floor() + 1), (3, 0)])
    def test_rejects_bad_prev_ex(self, n, prev_ex):
        with pytest.raises(ValueError, match="prev_ex"):
            branch_and_bound_ex(n, prev_ex=prev_ex)

    def test_class_counts_add_up(self):
        # one include and one exclude child per expanded node, and every leaf
        # of the binary tree is a pruned node
        r = branch_and_bound_ex(8)
        assert [c.limit for c in r.classes] == [2, 1, 0]
        assert sum(c.nodes for c in r.classes) == r.nodes_explored
        for c in r.classes:
            assert c.completed and not c.cap_stop
            assert c.includes == c.excludes
            assert c.nodes == 1 + c.includes + c.excludes
            assert c.bound_prunes + c.degree_prunes == c.includes + 1

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            branch_and_bound_ex(2)
        with pytest.raises(ValueError):
            branch_and_bound_ex(5, threads=0)
        with pytest.raises(ValueError):
            branch_and_bound_ex(7, node_budget=-1)


class TestRootClasses:
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_class_bests_match_oracle(self, n):
        # each class's own best (seed 0, no cap) against exhaustive extension
        # of its pinned pair under its intersection limit, without the builder
        triples = list(combinations(range(n), 3))
        got = {
            i: search_module._explore_class(n, triples, i, f, 0, len(triples), None)[1].best
            for i, f in search_module._root_classes(n)
        }
        want = {i: naive_class_best(n, f, i) for i, f in SECOND_EDGES.items() if max(f) < n}
        assert got == want

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_classes_cover_every_maximizer(self, n):
        # the root-class lemma: some class holds a maximizer
        best = max(naive_class_best(n, f, i) for i, f in SECOND_EDGES.items() if max(f) < n)
        assert best == brute_force_ex(n).max_edges


class TestExTable:
    def test_small_rows(self):
        rows = ex_table(4)
        assert [(r.n, r.max_edges) for r in rows] == [(3, 1), (4, 3)]

    def test_upper_bound_dominates(self):
        for r in ex_table(8, budget=20_000):
            assert upper_bound(r.n) >= r.max_edges

    def test_monotone_in_n(self):
        rows = ex_table(8, budget=200_000)
        for a, b in zip(rows, rows[1:]):
            assert b.max_edges >= a.max_edges

    def test_zero_budget_flags(self):
        rows = ex_table(8, budget=0)
        for r in rows:
            assert r.optimal == (r.n <= 6)

    def test_runs_no_brute_force(self, monkeypatch):
        # rows n <= 6 come from unbudgeted branch-and-bound; brute force is
        # only the tests' second route
        def refuse(n):
            raise AssertionError("brute force ran")

        monkeypatch.setattr(search_module, "brute_force_ex", refuse)
        rows = format_ex_table(ex_table(8)).splitlines()
        assert rows[:5] == GOLDEN.read_text().splitlines()

    def test_rows_through_10_are_proven(self):
        """ex(n) = 6, 6, 7, 10 for n = 7..10, every row proven optimal.

        Each row runs with the previous row's averaging cap and degree
        prune. Keying orbits by |t & T| alone, instead of t & T, merges
        orbits that no permutation of the untouched vertices joins; that
        mutation reads row 10 as 9 and still calls it optimal.
        """
        rows = ex_table(10)
        assert [(r.n, r.max_edges, r.optimal) for r in rows[4:]] == [
            (7, 6, True), (8, 6, True), (9, 7, True), (10, 10, True),
        ]
        for r in rows[4:]:
            assert r.witness.edge_count == r.max_edges
            assert not any(search_module._four_edges_support_c4(q) for q in combinations(r.witness.edges, 4))

    def test_hands_on_only_proven_rows(self, monkeypatch):
        # looked up by module-global name, so the spy sees every row
        calls = []
        real = search_module.branch_and_bound_ex

        def spy(n, **kwargs):
            calls.append((n, kwargs["prev_ex"]))
            return real(n, **kwargs)

        monkeypatch.setattr(search_module, "branch_and_bound_ex", spy)
        rows = ex_table(8, budget=10)
        # row 7 is cut by the budget, so row 8 runs without the prunes
        assert calls == [(3, None), (4, 1), (5, 3), (6, 3), (7, 4), (8, None)]
        assert [r.optimal for r in rows] == [True] * 4 + [False] * 2

    def test_node_counts_are_pinned(self):
        # rows 4..7 run with the prunes from the row before
        assert [r.nodes_explored for r in ex_table(8)] == [0, 3, 16, 49, 77, 1089]

    def test_format_layout(self):
        text = format_ex_table(ex_table(4))
        lines = text.strip().split("\n")
        assert lines[0] == "n\tmax_edges\toptimal\tupper_bound\tratio"
        assert lines[1].split("\t") == ["3", "1", "true", "7.732775", "0.19245008973"]
        assert lines[2].split("\t") == ["4", "3", "true", "10.458938", "0.375"]

    def test_matches_frozen_golden_table(self):
        # values for n=5,6 were generated by the exhaustive sweep, confirmed
        # by the independent branch-and-bound route, and frozen
        got = format_ex_table(ex_table(6))
        assert got == GOLDEN.read_text()

    def test_rejects_bad_n_max(self):
        with pytest.raises(ValueError):
            ex_table(2)

    def test_huge_n_max_refused_before_any_search(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("search ran")

        monkeypatch.setattr(search_module, "branch_and_bound_ex", refuse)
        monkeypatch.setattr(search_module, "brute_force_ex", refuse)
        for n_max in (SEARCH_MAX_N + 1, 1000):
            with pytest.raises(ValueError, match="n_max must be in"):
                ex_table(n_max)
        with pytest.raises(AssertionError, match="search ran"):
            ex_table(SEARCH_MAX_N)
