import hashlib
import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import loose_cycle, random_hypergraph, tight_cycle
from oracles import (
    WitnessError,
    canonical_cycles,
    naive_berge_cycle_exists,
    verify_cycle_witness,
    walker_berge_cycle,
)

import bergec4.berge as berge_module
from bergec4.berge import (
    Bc4FreeBuilder,
    BergeCycleWitness,
    _cycle_candidates,
    find_berge_cycle,
    is_bc4_free,
)
from bergec4.hypergraph import MAX_VERTICES, Hypergraph, pair_to_edges, shadow
from bergec4.search import _four_edges_support_c4


class TestVerifyWitness:
    def test_k4_cycle_accepted(self, k4_full):
        w = BergeCycleWitness((0, 1, 2, 3), (0, 3, 2, 1))
        # edges: 0={0,1,2}, 3={1,2,3}, 2={0,2,3}, 1={0,1,3}
        assert verify_cycle_witness(k4_full, w)

    def test_repeated_edge_index_is_false(self, k4_full):
        w = BergeCycleWitness((0, 1, 2, 3), (0, 0, 2, 1))
        assert not verify_cycle_witness(k4_full, w)

    def test_repeated_vertex_is_false(self, k4_full):
        w = BergeCycleWitness((0, 1, 2, 1), (0, 3, 2, 1))
        assert not verify_cycle_witness(k4_full, w)

    def test_pair_not_inside_edge_is_false(self, k4_full):
        w = BergeCycleWitness((0, 1, 2, 3), (0, 1, 2, 3))
        # position 1 needs {1,2} inside edge 1 = {0,1,3}
        assert not verify_cycle_witness(k4_full, w)

    def test_out_of_range_raises(self, k4_minus):
        with pytest.raises(WitnessError):
            verify_cycle_witness(k4_minus, BergeCycleWitness((0, 1, 2, 3), (0, 1, 2, 7)))
        with pytest.raises(WitnessError):
            verify_cycle_witness(k4_minus, BergeCycleWitness((0, 1, 2, 9), (0, 1, 2, 2)))

    def test_too_short_is_false(self, k4_minus):
        assert not verify_cycle_witness(k4_minus, BergeCycleWitness((0,), (0,)))


class TestFindBergeCycle:
    def test_k4_has_c4(self, k4_full):
        w = find_berge_cycle(k4_full, 4)
        assert w is not None
        assert verify_cycle_witness(k4_full, w)

    def test_k4_minus_has_none(self, k4_minus):
        assert find_berge_cycle(k4_minus, 4) is None

    def test_three_edges_cannot_make_c4(self, three_edge_chain):
        assert find_berge_cycle(three_edge_chain, 4) is None

    def test_fewer_edges_than_length(self):
        h = Hypergraph(10, [(0, 1, 2), (3, 4, 5)])
        assert find_berge_cycle(h, 3) is None

    def test_length_two_is_shared_pair(self):
        h = Hypergraph(4, [(0, 1, 2), (0, 1, 3)])
        w = find_berge_cycle(h, 2)
        assert w is not None and verify_cycle_witness(h, w)
        assert w.vertices == (0, 1)
        lone = Hypergraph(4, [(0, 1, 2), (1, 2, 3)])
        # the two edges share only one pair each... {1,2} is shared
        assert find_berge_cycle(lone, 2) is not None
        disjointish = Hypergraph(6, [(0, 1, 2), (3, 4, 5)])
        assert find_berge_cycle(disjointish, 2) is None

    def test_bad_length(self, k4_full):
        with pytest.raises(ValueError):
            find_berge_cycle(k4_full, 1)

    @pytest.mark.parametrize("length", [4.0, "4", True], ids=["float", "str", "bool"])
    def test_rejects_non_int_length(self, k4_full, k4_minus, length):
        # refused alike on a free input and on one that carries a Berge C4
        for h in (k4_minus, k4_full):
            with pytest.raises(ValueError, match="cycle length"):
                find_berge_cycle(h, length)

    def test_length_above_n_returns_without_walking(self, monkeypatch):
        # a cycle of length L needs L distinct vertices; 16 edges on 6 vertices
        def refuse(*args):
            raise AssertionError("walker entered")

        monkeypatch.setattr(berge_module, "_cycle_candidates", refuse)
        h = Hypergraph(6, list(combinations(range(6), 3))[:16])
        assert find_berge_cycle(h, 7) is None

    @pytest.mark.parametrize("make", [loose_cycle, tight_cycle])
    def test_long_cycle_beyond_recursion_limit(self, make):
        # one walker step and one augmenting step per cycle vertex
        h = make(1100)
        w = find_berge_cycle(h, 1100)
        assert w is not None and verify_cycle_witness(h, w)

    def test_canonical_first_witness_is_stable(self, k4_full):
        a = find_berge_cycle(k4_full, 4)
        b = find_berge_cycle(k4_full, 4)
        assert a == b
        assert a.vertices == (0, 1, 2, 3)


def test_canonical_witnesses_are_pinned():
    # first cycle witnesses under the canonical walk order
    lines = []
    for seed in range(40):
        h = random_hypergraph(8, 2 + seed % 8, seed)
        for length in range(2, 6):
            w = find_berge_cycle(h, length)
            found = "none" if w is None else f"{w.vertices} {w.edge_indices}"
            lines.append(f"{seed} cycle {length} {found}")
    digest = hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()
    assert sum(not line.endswith("none") for line in lines) == 113
    assert digest == "5ebdc62b5810f29cabce11103b2f707187dc03afb28283969e8efac01f753c60"


def _with_point_triples(h: Hypergraph, q: int, count: int, seed: int) -> Hypergraph:
    # the cloned PG(2, q) keeps point ids 0..q^2+q; two points share a line L,
    # so a point triple closes a Berge C4 with edges on L's vertex pair
    rng = random.Random(seed)
    triples = {tuple(sorted(rng.sample(range(q * q + q + 1), 3))) for _ in range(count)}
    return Hypergraph(h.n, h.edges + tuple(triples))


def _count_matchings(monkeypatch) -> list:
    calls = []
    match = berge_module._distinct_representatives

    def counting(candidates):
        calls.append(candidates)
        return match(candidates)

    monkeypatch.setattr(berge_module, "_distinct_representatives", counting)
    return calls


class TestLength4Walk:
    # find_berge_cycle(h, 4) walks _cycle_candidates, which skips cycles
    # by the sole-edge rules; the witness must be the one that matching every
    # canonical cycle finds. Free inputs never reach the walk through
    # find_berge_cycle, so the rule tests call the walk directly.

    @pytest.mark.parametrize("q", [7, 11])
    @pytest.mark.parametrize("count, seed", [(1, 0), (1, 1), (1, 2), (3, 3)])
    def test_constructions_with_point_triples_match_walker(self, construction_family, q, count, seed):
        h = _with_point_triples(construction_family[q], q, count, seed)
        w = find_berge_cycle(h, 4)
        assert w is not None and verify_cycle_witness(h, w)
        assert w == walker_berge_cycle(h, 4)

    @pytest.mark.parametrize("q", [7, 11])
    def test_free_constructions_match_nothing(self, construction_family, q):
        h = construction_family[q]
        assert find_berge_cycle(h, 4) is None
        assert list(_cycle_candidates(h, pair_to_edges(h), 4)) == []

    @pytest.mark.parametrize(
        "edges",
        [
            # (0, 1, 2, 3) only by rule 2 on wv0 and v0v1, (1, 2, 6, 3) only by
            # rule 2 on v1v2 and v2w, (1, 3, 2, 5) only by rule 3
            [(0, 1, 3), (1, 2, 5), (2, 3, 6), (7, 8, 9)],
            # (0, 1, 2, 3) only by rule 1
            [(0, 1, 2), (2, 3, 5), (0, 3, 6), (7, 8, 9)],
        ],
    )
    def test_each_rule_spares_a_matching(self, edges):
        # every shadow 4-cycle here fails Hall's condition on two consecutive
        # positions, so a lost rule shows as a yielded cycle
        h = Hypergraph(10, edges)
        assert find_berge_cycle(h, 4) is None
        assert list(_cycle_candidates(h, pair_to_edges(h), 4)) == []

    def test_walk_that_misses_the_builders_cycle_raises(self, k4_full, monkeypatch):
        # a verdict and a walk that disagree must not report a free input
        monkeypatch.setattr(berge_module, "_cycle_candidates", lambda h, p2e, k: iter(()))
        with pytest.raises(RuntimeError):
            find_berge_cycle(k4_full, 4)

    def test_one_closing_triple_matches_once(self, construction_family, monkeypatch):
        h = _with_point_triples(construction_family[11], 11, 1, 0)
        calls = _count_matchings(monkeypatch)
        w = find_berge_cycle(h, 4)
        assert len(calls) == 1
        assert w == walker_berge_cycle(h, 4)

    @pytest.mark.parametrize(
        "edges",
        [
            # rule 1: v0v1 has the sole edge 012, but v1v2 also has 124
            [(0, 1, 2), (1, 2, 4), (2, 3, 5), (0, 3, 6)],
            # rule 1: v1v2 has the sole edge 012, but v0v1 also has 014
            [(0, 1, 2), (0, 1, 4), (2, 3, 5), (0, 3, 6)],
            # rule 2, wv0 and v0v1: v0v1 has the sole edge 013, but {0, 3} also has 034
            [(0, 1, 3), (0, 3, 4), (1, 2, 5), (2, 3, 6)],
            # rule 2, wv0 and v0v1: {0, 3} has the sole edge 013, but v0v1 also has 014
            [(0, 1, 3), (0, 1, 4), (1, 2, 5), (2, 3, 6)],
            # rule 2, v1v2 and v2w: v1v2 has the sole edge 123, but {2, 3} also has 234
            [(1, 2, 3), (2, 3, 4), (0, 1, 5), (0, 3, 6)],
            # rule 2, v1v2 and v2w: {2, 3} has the sole edge 123, but v1v2 also has 124
            [(1, 2, 3), (1, 2, 4), (0, 1, 5), (0, 3, 6)],
            # rule 3: v2w has the sole edge 023, but wv0 also has 034
            [(0, 2, 3), (0, 3, 4), (0, 1, 5), (1, 2, 6)],
            # rule 3: wv0 has the sole edge 023, but v2w also has 234
            [(0, 2, 3), (2, 3, 4), (0, 1, 5), (1, 2, 6)],
        ],
    )
    def test_rule_needs_both_pairs_sole(self, edges):
        # one pair of the rule has a sole edge and its partner does not, so
        # the first canonical cycle (0, 1, 2, 3) is Berge and is the witness
        h = Hypergraph(7, edges)
        w = find_berge_cycle(h, 4)
        assert w is not None and w.vertices == (0, 1, 2, 3)
        assert verify_cycle_witness(h, w)
        assert w == walker_berge_cycle(h, 4)

    def test_high_vertex_ids(self):
        # disjoint triples below a K4^(3) on the top four ids: the bitsets
        # reach bit MAX_VERTICES - 1
        n = MAX_VERTICES
        top = range(n - 4, n)
        h = Hypergraph(n, [(i, i + 1, i + 2) for i in range(0, n - 6, 3)] + list(combinations(top, 3)))
        w = find_berge_cycle(h, 4)
        assert w is not None and w.vertices == tuple(top)
        assert w == walker_berge_cycle(h, 4)


class TestCycleWalk:
    # the same walk serves every length; past length 4 the witness must still
    # be the one that matching every canonical cycle finds

    @pytest.mark.parametrize("length", [3, 5])
    @pytest.mark.parametrize("q", [5, 7])
    @pytest.mark.parametrize("count, seed", [(1, 0), (3, 3)])
    def test_constructions_with_point_triples_match_walker(self, construction_family, q, count, seed, length):
        h = _with_point_triples(construction_family[q], q, count, seed)
        w = find_berge_cycle(h, length)
        assert w is not None and verify_cycle_witness(h, w)
        assert w == walker_berge_cycle(h, length)

    def test_rule_1_past_v2_spares_a_matching(self):
        # the shadow 5-cycle (0, 1, 2, 3, 4) has the sole edge 123 on both 12
        # and 23, so only rule 1 at the last middle vertex 3 drops it; every
        # other shadow 5-cycle passes a vertex that one edge alone holds, and
        # its two positions there have that same sole edge
        h = Hypergraph(8, [(0, 1, 5), (1, 2, 3), (3, 4, 6), (0, 4, 7)])
        assert (0, 1, 2, 3, 4) in canonical_cycles(shadow(h), 5)
        assert list(_cycle_candidates(h, pair_to_edges(h), 5)) == []
        assert find_berge_cycle(h, 5) is None and walker_berge_cycle(h, 5) is None

    def test_length5_traced_peak_is_bounded(self):
        # no builder runs before a length-5 walk, so its bitsets, up to n^2/8
        # bytes, set the peak on the largest vertex ids
        n = MAX_VERTICES
        h = Hypergraph(n, [(2 * i, 2 * i + 1, n - 1 - i) for i in range(n // 3)])
        tracemalloc.start()
        try:
            w = find_berge_cycle(h, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w is None
        assert peak < 36_000_000, peak


class TestIsBc4Free:
    def test_examples(self, k4_full, k4_minus):
        assert not is_bc4_free(k4_full)
        assert is_bc4_free(k4_minus)

    def test_oracle_equivalence_sample(self):
        # the full 200-instance run lives in the acceptance suite
        for seed in range(40):
            h = random_hypergraph(5 + seed % 5, 4 + seed % 9, seed)
            assert is_bc4_free(h) == (not naive_berge_cycle_exists(h, 4))
            assert is_bc4_free(h) == (find_berge_cycle(h, 4) is None)

    def test_monotone_under_edge_addition(self):
        for seed in range(15):
            h = random_hypergraph(7, 8, seed)
            if is_bc4_free(h):
                continue
            for extra in ((0, 1, 2), (4, 5, 6)):
                if tuple(sorted(extra)) in h.edge_set:
                    continue
                bigger = Hypergraph(h.n, list(h.edges) + [extra])
                assert not is_bc4_free(bigger)

    def test_soundness_of_witnesses(self):
        for seed in range(30):
            h = random_hypergraph(8, 12, seed + 100)
            w = find_berge_cycle(h, 4)
            if w is not None:
                assert verify_cycle_witness(h, w)


class TestBc4FreeBuilder:
    def test_matches_full_detector(self):
        for seed in range(25):
            h = random_hypergraph(8, 14, seed)
            builder = Bc4FreeBuilder(h.n)
            kept = []
            for e in h.edges:
                accepted = builder.try_add(e)
                candidate = Hypergraph(h.n, kept + [e])
                assert accepted == (find_berge_cycle(candidate, 4) is None)
                assert accepted == (not naive_berge_cycle_exists(candidate, 4))
                if accepted:
                    kept.append(e)
            assert builder.to_hypergraph() == Hypergraph(h.n, kept)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.integers(min_value=4, max_value=9).flatmap(
        lambda n: st.tuples(st.just(n), st.permutations(list(combinations(range(n), 3))))
    ))
    def test_verdict_matches_four_edge_oracle(self, case):
        # a new edge closes a Berge C4 iff it and three kept edges carry one
        n, order = case
        builder = Bc4FreeBuilder(n)
        for e in order:
            kept = list(builder.edges)
            closes = any(
                _four_edges_support_c4((e, *three)) for three in combinations(kept, 3)
            )
            assert builder.try_add(e) == (not closes)

    @pytest.mark.parametrize("n", [-1, True, 2.5, "3"], ids=["negative", "bool", "float", "str"])
    def test_rejects_bad_vertex_count(self, n):
        with pytest.raises(ValueError, match="vertex count"):
            Bc4FreeBuilder(n)

    def test_rejection_leaves_builder_untouched(self, monkeypatch):
        builder = Bc4FreeBuilder(6)
        for e in ((0, 1, 2), (0, 1, 3), (0, 2, 3)):
            assert builder.try_add(e)
        edges = list(builder.edges)
        adj = [set(s) for s in builder._adj]
        bits = list(builder._bits)
        pair_edges = {p: list(b) for p, b in builder._pair_edges.items()}

        def no_pop():
            raise AssertionError("a rejection must not pop")

        monkeypatch.setattr(builder, "pop", no_pop)
        assert not builder.try_add((1, 2, 3))
        assert builder.edges == edges
        # neighbourhoods are lists whose order is not part of the state
        assert [set(s) for s in builder._adj] == adj
        assert builder._bits == bits
        assert builder._pair_edges == pair_edges

    def test_two_edges_carry_no_c4(self):
        # why the search pins its two root edges with add: a Berge C4 needs
        # four distinct edges, so any two distinct triples are kept
        for e, f in combinations(combinations(range(6), 3), 2):
            builder = Bc4FreeBuilder(6)
            assert builder.try_add(e) and builder.try_add(f)

    def test_duplicate_edge_rejected(self):
        builder = Bc4FreeBuilder(5)
        assert builder.try_add((0, 1, 2))
        with pytest.raises(ValueError, match="duplicate"):
            builder.try_add((2, 1, 0))
        assert builder.edges == [(0, 1, 2)]
        assert builder.to_hypergraph().edge_count == 1

    @pytest.mark.parametrize(
        "triple",
        [(0, 0, 1), (-1, 0, 1), (1, 2), (0, 1, 2, 3), (0, 1, 5), (0, 1, 2.0), (0, 1, "2"), (0, 1, True)],
    )
    def test_invalid_triple_rejected(self, triple):
        builder = Bc4FreeBuilder(5)
        with pytest.raises(ValueError):
            builder.try_add(triple)
        assert builder.edges == []
        assert builder._adj == [[]] * 5
        assert builder._bits == [0] * 5
        assert builder._pair_edges == {}

    def test_pop_restores_state(self):
        builder = Bc4FreeBuilder(6)
        for e in ((0, 1, 2), (0, 1, 3), (2, 3, 4)):
            assert builder.try_add(e)
        before = builder.to_hypergraph()
        bits = list(builder._bits)
        # kept, and it adds the shadow pairs {2, 5} and {3, 5}
        assert builder.try_add((2, 3, 5))
        assert builder._bits != bits
        builder.pop()
        assert builder.to_hypergraph() == before
        assert builder._bits == bits

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.integers(min_value=4, max_value=9).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.sampled_from(("try_add", "pop")),
                    st.sampled_from(list(combinations(range(n), 3))),
                ),
                max_size=40,
            ),
        )
    ))
    def test_lifo_steps_keep_bits_and_verdicts(self, case):
        # try_add and pop interleaved and popped last-in-first-out, as in
        # branch-and-bound; every verdict matches the four-edge oracle
        n, steps = case
        builder = Bc4FreeBuilder(n)
        for op, e in steps:
            if op == "pop":
                if builder.edges:
                    builder.pop()
            elif e not in builder.edges:
                closes = any(
                    _four_edges_support_c4((e, *three)) for three in combinations(builder.edges, 3)
                )
                assert builder.try_add(e) == (not closes)
            assert builder._bits == [sum(1 << u for u in adj) for adj in builder._adj]

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.integers(min_value=4, max_value=9).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.one_of(st.just(None), st.sampled_from(list(combinations(range(n), 3)))),
                max_size=60,
            ),
        )
    ))
    def test_list_neighbourhoods_match_kept_edges(self, case):
        # after any try_add / pop sequence each _adj[v] holds every shadow
        # neighbour of v among the kept edges exactly once, and _bits agrees
        n, steps = case
        builder = Bc4FreeBuilder(n)
        for e in steps:
            if e is None:
                if builder.edges:
                    builder.pop()
            elif e not in builder.edges:
                builder.try_add(e)
            expected = shadow(Hypergraph(n, builder.edges))
            assert [sorted(a) for a in builder._adj] == [sorted(a) for a in expected]
            assert builder._bits == [sum(1 << u for u in a) for a in expected]

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.integers(min_value=4, max_value=9).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.booleans(), st.sampled_from(list(combinations(range(n), 3)))),
                max_size=40,
            ),
        )
    ))
    def test_closing_pair_mutates_nothing_and_agrees_with_try_add(self, case):
        # each step asks closing_pair about a sorted new triple, then either
        # pops or adds the triple
        n, steps = case
        builder = Bc4FreeBuilder(n)
        for pop, e in steps:
            if e in builder.edges:
                continue
            edges, bits = list(builder.edges), list(builder._bits)
            pair_edges = {p: list(b) for p, b in builder._pair_edges.items()}
            verdict = builder.closing_pair(e) is None
            assert (builder.edges, builder._bits, builder._pair_edges) == (edges, bits, pair_edges)
            if pop and builder.edges:
                builder.pop()
            else:
                assert builder.try_add(e) == verdict


class TestClosingPair:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.integers(min_value=4, max_value=9).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.sampled_from(list(combinations(range(n), 3))), max_size=50))
    ))
    def test_agrees_with_try_add(self, case):
        # on a sorted new triple, None exactly when try_add keeps it, and a
        # returned pair is a pair of the triple
        n, steps = case
        builder = Bc4FreeBuilder(n)
        for t in steps:
            if t in builder.edges:
                continue
            pair = builder.closing_pair(t)
            if pair is not None:
                assert pair in combinations(t, 2)
            assert builder.try_add(t) == (pair is None)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.integers(min_value=4, max_value=9).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.one_of(st.just(None), st.sampled_from(list(combinations(range(n), 3)))),
                max_size=60,
            ),
        )
    ))
    def test_closing_pair_then_add_is_try_add(self, case):
        # two builders in step: one inserts each sorted new triple with
        # try_add, the other adds it when closing_pair passes it; None pops
        # both; every step leaves them the same edges, bits and pair index,
        # and those of the trusted one are the shadow and pair index of its
        # edges, so a fault in add, which both builders share, shows too
        n, steps = case
        checked, trusted = Bc4FreeBuilder(n), Bc4FreeBuilder(n)
        for e in steps:
            if e is None:
                if checked.edges:
                    checked.pop()
                    trusted.pop()
            elif e not in checked.edges:
                passed = trusted.closing_pair(e) is None
                if passed:
                    trusted.add(e)
                assert checked.try_add(e) == passed
            assert trusted.edges == checked.edges
            assert trusted._bits == checked._bits
            assert trusted._pair_edges == checked._pair_edges
            h = Hypergraph(n, trusted.edges)
            expected = shadow(h)
            assert [set(a) for a in trusted._adj] == [set(a) for a in expected]
            assert trusted._bits == [sum(1 << u for u in a) for a in expected]
            # Hypergraph sorts its edges, so indices are compared as the edges they name
            assert {p: sorted(trusted.edges[i] for i in b) for p, b in trusted._pair_edges.items()} == {
                p: [h.edges[i] for i in b] for p, b in pair_to_edges(h).items()
            }

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.integers(min_value=4, max_value=10).flatmap(
        lambda n: st.tuples(st.just(n), st.permutations(list(combinations(range(n), 3))))
    ))
    def test_closing_pair_stays_closing_while_edges_are_added(self, case):
        # after more try_add calls and no pop, every triple through a pair
        # that once closed a C4 is still rejected
        n, order = case
        builder = Bc4FreeBuilder(n)
        dead = set()
        for t in order:
            pair = builder.closing_pair(t)
            if pair is None:
                assert builder.try_add(t)
            else:
                dead.add(pair)
            for x, y in dead:
                for z in range(n):
                    third = tuple(sorted((x, y, z)))
                    if z not in (x, y) and third not in builder.edges:
                        assert builder.closing_pair(third) is not None
