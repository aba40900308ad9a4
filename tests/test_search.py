import json
import random
import sys
import threading
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import four_edges_carry_c4, free_completion_above, naive_berge_cycle_exists, naive_class_best

from bergec4.berge import Bc4FreeBuilder, is_bc4_free
from bergec4.bounds import upper_bound
from bergec4.hypergraph import Hypergraph
from bergec4 import search as search_module
from bergec4.search import (
    SEARCH_MAX_N,
    branch_and_bound_ex,
    brute_force_ex,
    check_table_args,
    ex_table,
    format_ex_table,
)

GOLDEN = Path(__file__).parent / "golden" / "ex_table_n6.tsv"
# every root class's ClassStats and witness for n = 4..10, from the search
# before it ran on triple-index masks
CLASS_PINS = Path(__file__).parent / "golden" / "explore_class_n4_10.json"
# the greedy seed at n = 7, and the n = 7 optimum found by the full search
SUNFLOWER_7 = tuple((0, 1, v) for v in range(2, 7))
TWO_K4_MINUS_7 = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (0, 4, 5), (0, 4, 6), (0, 5, 6))
# the second pinned edge of root class i meets (0, 1, 2) in exactly i vertices
SECOND_EDGES = {2: (0, 1, 3), 1: (0, 3, 4), 0: (3, 4, 5)}
# ex(m) for m = 0..9: 0 below three vertices, brute force for 3..6, and the
# proven rows 7..9 of test_rows_through_10_are_proven
EX = (0, 0, 0, 1, 3, 3, 4, 6, 6, 7)


def brute_force_table(n):
    """ex(m) for every m < n <= 7, from brute force alone."""
    return (0, 0, 0) + tuple(brute_force_ex(m).max_edges for m in range(3, n))


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
        # the search walks an explicit stack at the largest n it accepts
        before = sys.getrecursionlimit()
        r = branch_and_bound_ex(SEARCH_MAX_N, node_budget=2000)
        assert (r.max_edges, r.nodes_explored, r.optimal) == (11, 2001, False)
        assert sys.getrecursionlimit() == before

    @pytest.mark.parametrize("n", [SEARCH_MAX_N + 1, 20])
    def test_large_n_refused_before_the_masks(self, n, monkeypatch):
        def refuse(n):
            raise AssertionError("masks built")

        monkeypatch.setattr(search_module, "_triple_masks", refuse)
        with pytest.raises(ValueError, match=f"3 <= n <= {SEARCH_MAX_N}"):
            branch_and_bound_ex(n, node_budget=0)
        with pytest.raises(AssertionError, match="masks built"):
            branch_and_bound_ex(SEARCH_MAX_N, node_budget=0)

    @pytest.mark.parametrize("proven", [None, EX[:7]])
    def test_witness_that_carries_a_c4_raises(self, proven, monkeypatch):
        # a filter that drops nothing lets the include add triples that
        # close a Berge C4; the output check refuses the witness
        monkeypatch.setattr(search_module, "_drop_closing", lambda candidates, pairs, closes: candidates)
        with pytest.raises(RuntimeError, match="carries a Berge C4"):
            branch_and_bound_ex(7, proven=proven)

    @pytest.mark.parametrize("n", range(3, SEARCH_MAX_N + 1))
    def test_greedy_memo_keeps_the_try_add_edges(self, n):
        # the dead-pair memo skips only triples that try_add would reject,
        # in combinations order and in a shuffled one
        triples = list(combinations(range(n), 3))
        shuffled = list(triples)
        random.Random(n).shuffle(shuffled)
        for order in (triples, shuffled):
            builder = Bc4FreeBuilder(n)
            for t in order:
                builder.try_add(t)
            assert search_module._greedy(n, order) == builder.edges

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
        # the averaging cap and the set-deletion prune, fed the rows below n
        # from brute force
        r = branch_and_bound_ex(n, proven=brute_force_table(n))
        assert (r.max_edges, r.optimal) == (brute_force_ex(n).max_edges, True)
        assert is_bc4_free(r.witness)
        assert r.witness.edge_count == r.max_edges

    def test_degree_prune_fires_below_brute_force_range(self):
        # so the oracle test above exercises the rule, not only the cap
        r = branch_and_bound_ex(6, proven=brute_force_table(6))
        assert sum(c.degree_prunes for c in r.classes) > 0

    @pytest.mark.parametrize(
        "n, proven",
        [
            (7, EX[:6]),
            (7, EX[:8]),
            (7, EX[:6] + (-1,)),
            (7, EX[:6] + (upper_bound(6).floor() + 1,)),
            (7, EX[:6] + (True,)),
            (7, EX[:6] + (4.0,)),
            (7, EX[:6] + ("4",)),
            (7, (0, 1, 0, 1, 3, 3, 4)),
            (3, (0, 0, 1)),
            (7, 4),
        ],
        ids=[
            "short", "long", "negative", "above-bound", "bool", "float", "str",
            "nonzero-below-3", "nonzero-at-n3", "not-a-sequence",
        ],
    )
    def test_rejects_bad_proven(self, n, proven):
        with pytest.raises(ValueError, match="proven"):
            branch_and_bound_ex(n, proven=proven)

    def test_accepts_upper_bounds_in_proven(self):
        # floor(upper_bound(m)) stands in for a row the budget cut
        bounds = (0, 0, 0) + tuple(upper_bound(m).floor() for m in range(3, 8))
        r = branch_and_bound_ex(8, proven=bounds)
        assert (r.max_edges, r.optimal) == (6, True)

    @pytest.mark.parametrize(
        "seed",
        [
            Hypergraph(9, [(0, 1, 2)]),
            Hypergraph(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]),
            ((0, 1, 2),),
        ],
        ids=["too-many-vertices", "not-free", "not-a-hypergraph"],
    )
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(ValueError, match="seed"):
            branch_and_bound_ex(8, seed=seed)

    def test_seed_counts_only_when_larger_than_greedy(self):
        # at n = 9 the greedy finds 7 edges and the row-8 witness has 6, so
        # the search is the unseeded one; at n = 11 the row-10 witness (10
        # edges) beats the greedy's 9 and, with nothing larger, is the witness
        rows = ex_table(10)
        assert branch_and_bound_ex(9, seed=rows[5].witness) == branch_and_bound_ex(9)
        r = branch_and_bound_ex(11, proven=EX + (10,), seed=rows[-1].witness)
        assert (r.max_edges, r.optimal, r.nodes_explored) == (10, True, 8057)
        assert r.witness.edges == rows[-1].witness.edges

    def test_class_counts_add_up(self):
        # one include and one exclude child per expanded node, and every leaf
        # of the binary tree is a pruned node
        rows = ex_table(9)[-2:]
        assert sum(c.set_deletion_prunes for r in rows for c in r.classes) > 0
        for r in [branch_and_bound_ex(8), *rows]:
            assert [c.limit for c in r.classes] == [2, 1, 0]
            assert sum(c.nodes for c in r.classes) == r.nodes_explored
            for c in r.classes:
                assert c.completed and not c.cap_stop
                assert c.includes == c.excludes
                assert c.nodes == 1 + c.includes + c.excludes
                assert c.bound_prunes + c.degree_prunes + c.set_deletion_prunes == c.includes + 1

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            branch_and_bound_ex(2)
        with pytest.raises(ValueError):
            branch_and_bound_ex(5, threads=0)
        with pytest.raises(ValueError):
            branch_and_bound_ex(7, node_budget=-1)

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: branch_and_bound_ex(5.0), id="float-n"),
            pytest.param(lambda: branch_and_bound_ex(5, node_budget=2.5), id="float-budget"),
            pytest.param(lambda: branch_and_bound_ex(5, node_budget=True), id="bool-budget"),
            pytest.param(lambda: ex_table(7.0), id="float-n_max"),
            pytest.param(lambda: ex_table(7, 2.5), id="table-float-budget"),
            pytest.param(lambda: check_table_args(5, budget=False), id="table-bool-budget"),
        ],
    )
    def test_rejects_non_int_size_or_budget(self, call):
        with pytest.raises(ValueError, match="int"):
            call()


class TestRootClasses:
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_class_bests_match_oracle(self, n):
        # each class's own best (seed 0, no cap) against exhaustive extension
        # of its pinned pair under its intersection limit, without the builder
        masks = search_module._triple_masks(n)
        got = {
            i: search_module._explore_class(n, masks, i, f, 0, len(masks.triples), None)[1].best
            for i, f in search_module._root_classes(n)
        }
        want = {i: naive_class_best(n, f, i) for i, f in SECOND_EDGES.items() if max(f) < n}
        assert got == want

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_classes_cover_every_maximizer(self, n):
        # the root-class lemma: some class holds a maximizer
        best = max(naive_class_best(n, f, i) for i, f in SECOND_EDGES.items() if max(f) < n)
        assert best == brute_force_ex(n).max_edges


class TestPinnedSearch:
    def test_class_stats_and_witnesses_are_pinned(self):
        # every root class for n = 4..10 at seed_best 0, ex(n) - 1 and
        # ex(n), with and without the proven table, at the cap that
        # branch_and_bound_ex would use; dropping vertex 0, 3 or 6 from the
        # orbit mask, the dead-pair clear or a vertex of the deletion union
        # moves some count or witness
        ex = EX + (10,)
        pins = json.loads(CLASS_PINS.read_text())
        for n in range(4, 11):
            # row by row, so that a broken search fails at the first row it moves
            got = []
            masks = search_module._triple_masks(n)
            for proven in (None, ex[:n]):
                cap = upper_bound(n).floor()
                if proven is not None:
                    cap = min(cap, n * proven[n - 1] // (n - 3))
                for seed in (0, ex[n] - 1, ex[n]):
                    for i, f in search_module._root_classes(n):
                        w, stats = search_module._explore_class(n, masks, i, f, seed, cap, None, proven)
                        got.append({
                            "n": n, "proven": proven is not None, "seed": seed, "limit": i,
                            "stats": [getattr(stats, k) for k in stats.__dataclass_fields__], "witness": w,
                        })
            assert json.loads(json.dumps(got)) == [pin for pin in pins if pin["n"] == n]

    def test_builder_pair_tests_are_pinned(self, monkeypatch):
        # a deterministic cost guard: ex_table(8) asks the builder 3,073
        # pair questions (3,925 when each include asked again about the
        # candidate's three pairs, 6,544 when each candidate triple asked
        # about its three pairs at every include)
        calls = []
        real = Bc4FreeBuilder.closes

        def count(self, x, y):
            calls.append((x, y))
            return real(self, x, y)

        monkeypatch.setattr(Bc4FreeBuilder, "closes", count)
        rows = ex_table(8)
        assert [r.nodes_explored for r in rows] == [0, 3, 16, 49, 77, 433]
        assert len(calls) == 3073


def _free_by_definition(triples):
    """The triples kept in order while no four kept edges carry a Berge C4."""
    kept = []
    for t in triples:
        if t not in kept and not any(four_edges_carry_c4((*three, t)) for three in combinations(kept, 3)):
            kept.append(t)
    return kept


class TestSetDeletion:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.integers(min_value=3, max_value=9).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.sampled_from(list(combinations(range(n), 3))), max_size=40)
        )
    ))
    def test_lemma_holds_for_every_vertex_set(self, case):
        # |F| <= ex(n - |K|) + #{e in F : e meets K} for every K
        n, triples = case
        edges = _free_by_definition(triples)
        for k in range(n + 1):
            for K in combinations(range(n), k):
                met = sum(1 for e in edges if set(e) & set(K))
                assert len(edges) <= EX[n - k] + met

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_killed_nodes_hold_no_better_completion(self, n, monkeypatch):
        # every node the prune kills, in every class and for every incumbent
        # up to ex(n) + 2, has no free S <= F <= S + C above the incumbent;
        # the table is brute force's for n <= 7. The prune fires only with
        # k = 1 there, so n = 8 (ex(7) from the search) covers k = 2 and 3
        kills = []
        real = search_module._deletion_dead

        masks = search_module._triple_masks(n)

        def decode(mask):
            return [t for j, t in enumerate(masks.triples) if mask >> j & 1]

        def spy(edges, candidates, contain, proven, best):
            k = real(edges, candidates, contain, proven, best)
            if k:
                kills.append((decode(edges), decode(candidates), best, k))
            return k

        monkeypatch.setattr(search_module, "_deletion_dead", spy)
        proven = brute_force_table(n) if n <= 7 else EX[:n]
        for best in range(EX[n] + 3) if n <= 7 else [EX[n]]:
            for i, f in search_module._root_classes(n):
                search_module._explore_class(n, masks, i, f, best, len(masks.triples), None, proven)
        assert {k for *_, k in kills} == ({1} if n <= 7 else {2, 3})
        for edges, candidates, best, _ in kills:
            assert not free_completion_above(edges, candidates, best)

    def test_lowered_entry_misreads_a_row(self):
        # a mutation check: ex(5) = 3 enters row 7 only through the k = 2
        # prune, and lowering it by one makes row 7 read 5 and still claim
        # optimal, which test_rows_through_10_are_proven would refuse
        proven = list(brute_force_table(7))
        assert branch_and_bound_ex(7, proven=proven).max_edges == 6
        proven[5] -= 1
        r = branch_and_bound_ex(7, proven=proven)
        assert (r.max_edges, r.optimal) == (5, True)
        assert sum(c.set_deletion_prunes for c in r.classes) > 0


class TestExTable:
    def test_small_rows(self):
        rows = ex_table(4)
        assert [(r.n, r.max_edges) for r in rows] == [(3, 1), (4, 3)]

    def test_upper_bound_dominates(self):
        for r in ex_table(8, budget=20_000):
            assert upper_bound(r.n).floor() >= r.max_edges

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

        Each row runs with the averaging cap and the set-deletion prune of
        the rows before it. Keying orbits by |t & T| alone, instead of
        t & T, merges orbits that no permutation of the untouched vertices
        joins; that mutation reads row 10 as 9 and still calls it optimal.
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
            calls.append((n, kwargs["proven"], kwargs["seed"]))
            return real(n, **kwargs)

        monkeypatch.setattr(search_module, "branch_and_bound_ex", spy)
        rows = ex_table(8, budget=10)
        # row 7 is cut by the budget, so row 8 gets floor(upper_bound(7)) for it
        assert [(n, proven) for n, proven, _ in calls] == [
            (n, EX[:n]) for n in range(3, 8)
        ] + [(8, EX[:7] + (upper_bound(7).floor(),))]
        # each row from n = 4 on is seeded with the witness of the row before
        assert [seed for *_, seed in calls] == [None] + [r.witness for r in rows[:-1]]
        assert [r.optimal for r in rows] == [True] * 4 + [False] * 2

    def test_node_counts_are_pinned(self):
        # rows 4..9 run with the prunes from the rows before
        assert [r.nodes_explored for r in ex_table(9)] == [0, 3, 16, 49, 77, 433, 1365]

    def test_default_budget_proves_rows_11_and_12(self):
        # row 11 is seeded with the row-10 witness, and both rows prove
        # inside the default budget
        rows = ex_table(12)
        assert [(r.n, r.max_edges, r.optimal, r.nodes_explored) for r in rows[-2:]] == [
            (11, 10, True, 8057), (12, 12, True, 57615),
        ]
        for r in rows[-2:]:
            assert r.witness.edge_count == r.max_edges
            assert not any(search_module._four_edges_support_c4(q) for q in combinations(r.witness.edges, 4))

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
