import random
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_hypergraph
from oracles import (
    naive_berge_cycle_exists,
    naive_codegrees,
    naive_four_cycles,
    naive_is_good,
    naive_rare_cycles,
    walker_census,
)

import bergec4.census as census_module
from bergec4.berge import is_bc4_free
from bergec4.bounds import InequalityCheck
from bergec4.census import census
from bergec4.construct import lower_bound_construction, random_bc4free
from bergec4.hypergraph import Hypergraph, count_three_paths, pair_to_edges, shadow

SCOPES = ("induced", "global")
# four edges, each meeting the cycle 0,1,2,3 in one of its sides: a 4-cycle
# with no representative edge, so a Berge C4
UNREPRESENTED_C4 = ((0, 1, 4), (1, 2, 5), (2, 3, 6), (0, 3, 7))


class TestCensus:
    def test_k4_minus_counts(self, k4_minus):
        rep = census(k4_minus)
        assert (rep.total_3paths, rep.good_3paths, rep.nongood_3paths, rep.rare_4cycles) == (12, 3, 9, 0)
        assert rep.four_cycle_count == 3
        assert rep.bc4_free
        assert rep.representative_histogram == {3: 3}

    def test_single_edge_counts(self, single_edge):
        rep = census(single_edge)
        assert (rep.total_3paths, rep.good_3paths, rep.nongood_3paths, rep.rare_4cycles) == (3, 0, 3, 0)

    def test_chain_has_rare_cycle(self, three_edge_chain):
        rep = census(three_edge_chain)
        assert rep.rare_4cycles >= 1
        assert any(rec.vertices == (1, 2, 3, 4) for rec in rep.rare_cycles)

    def test_totals_always_reconcile(self):
        for seed in range(25):
            h = random_hypergraph(9, 12, seed)
            rep = census(h)
            assert rep.total_3paths == rep.good_3paths + rep.nongood_3paths
            assert rep.total_3paths == count_three_paths(shadow(h))
            assert sum(k * pairs for k, pairs in rep.per_pair_good_histogram.items()) == rep.good_3paths

    def test_rare_count_matches_naive(self):
        for seed in range(20):
            h = random_hypergraph(8, 10, seed)
            g = shadow(h)
            for scope in ("induced", "global"):
                rep = census(h, diagonal_scope=scope)
                naive = naive_rare_cycles(h, g, scope)
                assert rep.rare_4cycles == len(naive)
                assert sorted(rec.vertices for rec in rep.rare_cycles) == sorted(naive)
                assert rep.four_cycle_count == len(naive_four_cycles(g))
                assert rep.bc4_free == (not naive_berge_cycle_exists(h, 4))

    def test_rare_cycle_order_is_pinned(self):
        # records are ordered by (v0, v1, v3, v2), not lexicographically
        h = Hypergraph(6, [(0, 2, 3), (0, 2, 4), (0, 2, 5), (0, 4, 5), (1, 3, 5)])
        assert [rec.vertices for rec in census(h).rare_cycles] == [
            (0, 2, 5, 3),
            (0, 2, 3, 5),
            (0, 3, 5, 4),
            (0, 3, 1, 5),
            (1, 3, 2, 5),
            (2, 3, 5, 4),
        ]

    def test_goodness_matches_naive(self):
        for seed in range(10):
            h = random_hypergraph(8, 9, seed)
            g = shadow(h)
            for scope in SCOPES:
                recomputed = 0
                for x2 in range(h.n):
                    nbrs = sorted(g[x2])
                    for i, x1 in enumerate(nbrs):
                        for x3 in nbrs[i + 1 :]:
                            recomputed += naive_is_good(h, g, x1, x2, x3, scope)
                assert recomputed == census(h, scope).good_3paths

    def test_scope_changes_outcome(self):
        # diagonal {0,2} covered twice, once by an edge leaving the cycle
        h = Hypergraph(7, [(0, 1, 2), (0, 2, 4), (2, 3, 5), (0, 3, 6)])
        assert (0, 1, 2, 3) in [rec.vertices for rec in census(h, "induced").rare_cycles]
        assert (0, 1, 2, 3) not in [rec.vertices for rec in census(h, "global").rare_cycles]

    def test_bad_scope(self, k4_minus):
        with pytest.raises(ValueError):
            census(k4_minus, diagonal_scope="sideways")

    def test_representative_range_on_free_inputs(self):
        from bergec4.construct import random_bc4free

        for seed in range(20):
            h = random_bc4free(11, 13, seed)
            rep = census(h)
            assert all(1 <= k <= 3 for k in rep.representative_histogram)

    def test_k4_full_shows_four_representatives(self, k4_full):
        rep = census(k4_full)
        assert not rep.bc4_free
        assert rep.representative_histogram == {4: 3}

    def test_q16_traced_peak_is_bounded(self):
        # a fresh construction, so the shadow and pair index are built inside
        # the traced call (about 7 MB); a per-pair table adds some 20 MB
        h = lower_bound_construction(16)
        tracemalloc.start()
        try:
            rep = census(h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.bc4_free
        assert peak < 12_000_000, peak


def _claim(c: InequalityCheck) -> tuple[int, int, bool]:
    return c.lhs, c.rhs, c.passed


class TestClaimChecks:
    def test_k4_minus(self, k4_minus):
        rep = census(k4_minus)
        assert _claim(rep.per_pair_bound) == (1, 2, True)
        assert _claim(rep.rare_bound) == (0, 18, True)
        assert _claim(rep.good_bound) == (3, 12, True)
        assert _claim(rep.nongood_bound) == (9, 63, True)

    def test_single_edge(self, single_edge):
        rep = census(single_edge)
        assert _claim(rep.per_pair_bound) == (0, 2, True)
        assert _claim(rep.rare_bound) == (0, 6, True)
        assert _claim(rep.good_bound) == (0, 6, True)
        assert _claim(rep.nongood_bound) == (3, 21, True)

    def test_empty(self):
        h = Hypergraph(4, [])
        assert _claim(census(h).nongood_bound) == (0, 0, True)

    def test_chain_instance_rare_bound(self, three_edge_chain):
        rare, bound, passed = _claim(census(three_edge_chain).rare_bound)
        assert rare >= 1 and bound == 18 and passed

    def test_all_claims_pass_on_free_instances(self):
        from bergec4.construct import random_bc4free

        for seed in range(20):
            h = random_bc4free(12, 14, seed)
            rep = census(h)
            assert rep.bc4_free
            assert all(c.passed for c in rep.claims()), rep


def _assert_matches_walker(h: Hypergraph) -> None:
    for scope in SCOPES:
        rep, oracle = census(h, scope), walker_census(h, scope)
        for field in rep.__dataclass_fields__:
            assert getattr(rep, field) == getattr(oracle, field), (field, scope, h.edges)


def _cyclic_q16(base: Hypergraph, variant: int = 0) -> Hypergraph:
    # the q = 16 construction plus one point triple {91, a, b}: a and b share
    # a line with 91, so the triple closes Berge C4s through that line's pair
    a, b = sorted(random.Random(variant).sample(range(92, 16 * 16 + 16 + 1), 2))
    assert (91, a, b) not in base.edge_set
    return Hypergraph(base.n, base.edges + ((91, a, b),))


def triples_of(n: int):
    return st.sampled_from(list(combinations(range(n), 3)))


small = settings(derandomize=True, max_examples=60, deadline=None)
any_graphs = st.integers(4, 9).flatmap(
    lambda n: st.builds(Hypergraph, st.just(n), st.lists(triples_of(n), unique=True, max_size=14))
)
free_graphs = st.builds(random_bc4free, st.integers(4, 14), st.integers(0, 40), st.integers(0, 10**6))
# extra edges never lie inside {0, 1, 2, 3}, so the cycle 0,1,2,3 keeps no representative
unrepresented_graphs = st.integers(8, 10).flatmap(
    lambda n: st.builds(
        lambda extra: Hypergraph(n, UNREPRESENTED_C4 + tuple(extra)),
        st.lists(
            triples_of(n).filter(lambda t: t not in UNREPRESENTED_C4 and t[2] > 3),
            unique=True,
            max_size=8,
        ),
    )
)


class TestWalkerOracle:
    """The counting census against the census that walks every cycle and path."""

    def test_small_constructions(self, construction_family):
        for q, h in construction_family.items():
            if q <= 11:
                _assert_matches_walker(h)

    def test_cyclic_q16(self, construction_family):
        h = _cyclic_q16(construction_family[16])
        assert not is_bc4_free(h)
        _assert_matches_walker(h)

    @small
    @given(any_graphs)
    def test_random_inputs(self, h):
        _assert_matches_walker(h)

    @small
    @given(free_graphs)
    def test_free_inputs(self, h):
        assert is_bc4_free(h)
        _assert_matches_walker(h)

    @small
    @given(unrepresented_graphs)
    def test_unrepresented_cycle_inputs(self, h):
        assert census(h).representative_histogram.get(0, 0) >= 1
        _assert_matches_walker(h)


def codegree_ladder(top: int) -> Hypergraph:
    """c(0, z_k) = k for k = 1..top: edges {0, y_i, a_i} and {y_i, z_k, b_ki} for i <= k.

    y_i = i, a_i = top + i, z_k = 2 top + k, and each b_ki is a vertex of its own.
    """
    edges = [(0, i, top + i) for i in range(1, top + 1)]
    b = 3 * top + 1
    for k in range(1, top + 1):
        for i in range(1, k + 1):
            edges.append((i, 2 * top + k, b))
            b += 1
    return Hypergraph(b, edges)


def _assert_codegree_pass_matches_naive(h: Hypergraph) -> None:
    adj, p2e = shadow(h), pair_to_edges(h)
    codeg = naive_codegrees(adj)
    opened = Counter(c - len(p2e.get(pair, ())) for pair, c in codeg.items())
    through = [sum(codeg[p] - 1 for p in ((a, b), (a, c), (b, c))) for a, b, c in h.edges]
    total = sum(codeg.values())
    four_cycles = sum(c * (c - 1) // 2 for c in codeg.values()) // 2
    values, got_through, got_total, got_four_cycles = census_module._codegree_pass(adj, p2e, h.edge_count)
    assert {k: v for k, v in values.items() if v} == {k: v for k, v in opened.items() if v}
    assert (got_through, got_total, got_four_cycles) == (through, total, four_cycles)


class TestCodegreePass:
    """The bit-sliced codegree pass against codegrees counted one middle at a time."""

    @pytest.mark.parametrize("top", [1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 33, 40])
    def test_ladder_crosses_every_plane(self, top):
        # codegrees 1..top at one low end: up to 40 they cross 1, 2, 4, 8, 16
        # and 32, so every carry plane up to the sixth is written, carried
        # into and split on, and each top just below or at a power of two
        # ends on the plane count about to grow or just grown
        h = codegree_ladder(top)
        assert [naive_codegrees(shadow(h))[(0, 2 * top + k)] for k in range(1, top + 1)] == list(range(1, top + 1))
        _assert_codegree_pass_matches_naive(h)

    def test_constructions(self, construction_family):
        for q, h in construction_family.items():
            if q <= 8:
                _assert_codegree_pass_matches_naive(h)

    @small
    @given(any_graphs)
    def test_random_inputs(self, h):
        _assert_codegree_pass_matches_naive(h)


# (id, n, edges, free, k): each input has a 4-cycle whose 4-set holds k
# edges, on the named side of that class's verdict rule (census module
# docstring), and on the "free" side no other cycle is a Berge C4
VERDICT_CASES = [
    # k = 1: edge {0, 1, 2} inside {0, 1, 2, 3}, opposite vertex 1
    ("k1-both-pairs-sole", 6, ((0, 1, 2), (0, 3, 4), (2, 3, 5)), True, 1),
    ("k1-one-pair-shared", 7, ((0, 1, 2), (0, 3, 4), (2, 3, 5), (1, 2, 6)), False, 1),
    # the same shared pair {1, 2}, but 3 is next to 0 and 1: opposite vertex 2
    ("k1-one-pair-shared-opposite-2", 7, ((0, 1, 2), (0, 3, 4), (1, 3, 5), (1, 2, 6)), False, 1),
    # 3 is next to 0, 1 and 2: three k = 1 cycles on {0, 1, 2, 3}
    ("k1-three-cycles-all-sole", 7, ((0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 3, 6)), True, 1),
    # {0, 1} gains an edge: the cycles opposite 0 and 1 are Berge, the one opposite 2 is not
    ("k1-three-cycles-one-open", 8, ((0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 3, 6), (0, 1, 7)), False, 1),
    # K4 minus {2, 3} on the bucket {0, 1}: 2 flagged by {0, 2}, 3 by {1, 3}
    ("k4-minus-both-flagged", 6, ((0, 1, 2), (0, 1, 3), (0, 2, 4), (1, 3, 5)), False, 2),
    ("k4-minus-one-flagged", 7, ((0, 1, 2), (0, 1, 3), (0, 2, 4), (3, 5, 6)), True, 2),
    # {0, 1, 2, 3} spans K4 in the shadow with k = 2 ({2, 3} from outside) and k = 3
    ("k4-shadow-k2-free", 6, ((0, 1, 2), (0, 1, 3), (2, 3, 4), (2, 3, 5)), True, 2),
    ("k4-shadow-k2-berge", 6, ((0, 1, 2), (0, 1, 3), (2, 3, 4), (0, 1, 5)), False, 2),
    ("k4-shadow-k3-free", 6, ((0, 1, 2), (0, 1, 3), (0, 2, 3), (3, 4, 5)), True, 3),
    ("k4-shadow-k3-berge", 5, ((0, 1, 2), (0, 1, 3), (0, 2, 3), (0, 1, 4)), False, 3),
    ("k0", 8, UNREPRESENTED_C4, False, 0),
    ("k4", 4, ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)), False, 4),
]


class TestCountedVerdict:
    """census reads bc4_free off its 4-cycle classes; is_bc4_free and brute force agree."""

    @pytest.mark.parametrize(
        "n, edges, free, k", [case[1:] for case in VERDICT_CASES], ids=[case[0] for case in VERDICT_CASES]
    )
    def test_rule_sides(self, n, edges, free, k):
        h = Hypergraph(n, edges)
        rep = census(h)
        assert k in rep.representative_histogram
        assert rep.bc4_free == is_bc4_free(h) == (not naive_berge_cycle_exists(h)) == free

    def test_constructions(self, construction_family):
        for q, h in construction_family.items():
            assert census(h).bc4_free == is_bc4_free(h) is True, q

    @pytest.mark.parametrize("variant", range(16))
    def test_cyclic_q16_variants(self, construction_family, variant):
        h = _cyclic_q16(construction_family[16], variant)
        assert census(h).bc4_free == is_bc4_free(h) is False


class TestRarePathRemoval:
    """Rare non-edge paths come off only the pairs they touch, in both scopes."""

    def test_pair_count_drops_to_zero(self):
        # free; each of the four rare cycles takes every open middle of the
        # pairs it touches, e.g. 2,4,3 and 2,1,3 leave {2, 3} with none
        h = Hypergraph(5, [(0, 1, 2), (0, 1, 3), (2, 3, 4)])
        for scope in SCOPES:
            rep = census(h, scope)
            assert rep.rare_4cycles == 4 and rep.good_3paths == 0
            assert rep.per_pair_good_histogram == {}
        _assert_matches_walker(h)

    @pytest.mark.parametrize(
        "edges, scope, histogram",
        [
            # the unrepresented rare cycle 1,2,4,3 takes two of the three
            # open middles of {2, 3} and of {1, 4}, leaving middle 0 to each
            (((0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 4)), "induced", {1: 2}),
            (((0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 4)), "global", {1: 2}),
            # represented rare cycles only: {1, 3} and {1, 4} drop from 2 to
            # 1, while {0, 1}, {2, 3} and {2, 4} drop from 2 to 0
            (((0, 1, 2), (0, 2, 3), (0, 2, 4), (0, 3, 4), (1, 3, 4)), "global", {1: 5, 2: 1}),
        ],
    )
    def test_pair_count_drops_but_stays_positive(self, edges, scope, histogram):
        h = Hypergraph(5, edges)
        rep = census(h, scope)
        assert rep.rare_4cycles >= 1
        assert rep.per_pair_good_histogram == histogram
        assert rep == walker_census(h, scope)


class WalkerEntered(Exception):
    pass


class TestCensusRoute:
    """The census reads the length-4 walk only when some cycle has no representative."""

    @pytest.fixture(autouse=True)
    def no_walker(self, monkeypatch):
        def refuse(*args):
            raise WalkerEntered

        # census imports the walk by name, so its binding is the one it calls
        monkeypatch.setattr(census_module, "_cycle_candidates", refuse)

    def test_construction_counts_without_walking(self):
        h = lower_bound_construction(7)
        for scope in SCOPES:
            assert census(h, scope).bc4_free

    def test_represented_non_free_counts_without_walking(self, k4_full):
        h = Hypergraph(6, k4_full.edges + ((0, 4, 5), (1, 4, 5)))
        for scope in SCOPES:
            rep = census(h, scope)
            assert not rep.bc4_free and 0 not in rep.representative_histogram

    def test_unrepresented_cycle_enters_walker(self):
        with pytest.raises(WalkerEntered):
            census(Hypergraph(8, UNREPRESENTED_C4))
