from array import array
import hashlib
from math import comb
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import memo_free_greedy, naive_berge_cycle_exists

from bergec4.berge import is_bc4_free
from bergec4.blocks import BlockType, decompose
from bergec4.construct import (
    CONSTRUCT_MAX_Q,
    RANDOM_MAX_N,
    BipartiteGraph,
    _field_tables,
    expand_to_hypergraph,
    is_c4_free,
    lower_bound_construction,
    projective_plane_incidence,
    random_bc4free,
)
from bergec4.hypergraph import Hypergraph


class TestProjectivePlane:
    def test_order_two_is_heawood_incidence(self):
        g = projective_plane_incidence(2)
        assert g.left_count == g.right_count == 7
        assert g.edge_count == 21
        assert is_c4_free(g)

    def test_order_three(self):
        g = projective_plane_incidence(3)
        assert g.left_count == 13 and g.edge_count == 52

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 27])
    def test_counts_and_c4_freeness(self, q):
        g = projective_plane_incidence(q)
        count = q * q + q + 1
        assert g.left_count == g.right_count == count
        assert g.edge_count == (q + 1) * count
        assert is_c4_free(g)

    def test_every_line_has_q_plus_one_points(self):
        g = projective_plane_incidence(4)
        per_line = [0] * g.right_count
        for _, line in g.edges:
            per_line[line] += 1
        assert set(per_line) == {5}

    def test_prime_square_beyond_table(self):
        g = projective_plane_incidence(25)
        assert g.left_count == 651
        assert g.edge_count == 26 * 651

    @pytest.mark.parametrize("q", [0, 1, 6, 10, 12, 15])
    def test_unsupported_orders_rejected(self, q):
        with pytest.raises(ValueError):
            projective_plane_incidence(q)


@pytest.mark.parametrize(
    "q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43, 47, 49]
)
def test_field_axioms(q):
    add, mul = _field_tables(q)
    elements = range(q)
    for a in elements:
        assert add[a][0] == a and mul[a][1] == a
        assert sum(add[a][b] == 0 for b in elements) == 1
        if a:
            assert sum(mul[a][b] == 1 for b in elements) == 1
        for b in elements:
            ab = mul[a][b]
            for c in elements:
                assert mul[a][add[b][c]] == add[ab][mul[a][c]]


class TestExpand:
    def test_single_edge(self):
        g = BipartiteGraph(1, 1, ((0, 0),))
        h = expand_to_hypergraph(g)
        assert h == Hypergraph(3, [(0, 1, 2)])

    def test_two_edge_path(self):
        g = BipartiteGraph(1, 2, ((0, 0), (0, 1)))
        h = expand_to_hypergraph(g)
        assert h.n == 5 and h.edge_count == 2
        assert h == Hypergraph(5, [(0, 1, 3), (0, 2, 4)])

    def test_counts(self):
        g = projective_plane_incidence(2)
        h = expand_to_hypergraph(g)
        assert h.n == 21 and h.edge_count == 21


class TestBipartiteGraph:
    def test_complete_two_by_two_is_a_c4(self):
        assert not is_c4_free(BipartiteGraph(2, 2, ((0, 0), (0, 1), (1, 0), (1, 1))))

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            BipartiteGraph(1, 1, ((0, 1),))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            BipartiteGraph(1, 1, ((0, 0), (0, 0)))


class TestLowerBoundConstruction:
    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_counts(self, q):
        h = lower_bound_construction(q)
        count = q * q + q + 1
        assert h.n == 3 * count
        assert h.edge_count == (q + 1) * count

    def test_rejects_q_above_max(self):
        # 81 = 3^4 is a prime power, so only the size bound refuses it
        assert CONSTRUCT_MAX_Q < 81
        with pytest.raises(ValueError, match="at most"):
            lower_bound_construction(81)

    def test_q2_is_bc4_free_by_naive_oracle(self):
        h = lower_bound_construction(2)
        assert is_bc4_free(h)
        assert not naive_berge_cycle_exists(h, 4)

    def test_blocks_are_clone_pair_sunflowers(self, construction_family):
        for q, h in construction_family.items():
            blocks = decompose(h)
            count = q * q + q + 1
            assert len(blocks) == count
            for b in blocks:
                assert b.classification is BlockType.TYPE1
                assert len(b.edge_indices) == q + 1
                common = set(h.edges[b.edge_indices[0]])
                for i in b.edge_indices[1:]:
                    common &= set(h.edges[i])
                assert len(common) == 2  # the clone pair pins the block


class TestRandomBc4Free:
    def test_reproducible(self):
        a = random_bc4free(15, 20, seed=99)
        b = random_bc4free(15, 20, seed=99)
        assert a == b

    def test_seed_changes_output(self):
        assert random_bc4free(15, 20, seed=1) != random_bc4free(15, 20, seed=2)

    def test_tiny_instance(self):
        assert random_bc4free(3, 5, seed=7).edge_count == 1

    def test_zero_target(self):
        h = random_bc4free(9, 0, seed=3)
        assert h.edge_count == 0 and h.n == 9

    def test_outputs_bc4_free(self):
        for seed in range(10):
            h = random_bc4free(10, 15, seed)
            assert is_bc4_free(h)
            assert not naive_berge_cycle_exists(h, 4)

    def test_target_respected(self):
        h = random_bc4free(20, 5, seed=0)
        assert h.edge_count == 5

    @pytest.mark.parametrize(
        "seed, m, digest",
        [
            (1, 108, "227e1a5b100022fbfd77ef8f39e9bb6e744ad3a584b4eb638123c1aee45308be"),
            (2, 107, "757120a68751fa11d97bcc68b3d94b4df1c34c405e5297a941410557de494501"),
            (3, 116, "c35682f749551db5ecab8eab141e45deee2a4f8fda3d1bcdca6c42efdb44d16c"),
        ],
    )
    def test_pinned_greedy_decisions(self, seed, m, digest):
        # every accept/reject decision over all C(80, 3) triples, not just freeness
        h = random_bc4free(80, comb(80, 3), seed)
        assert h.edge_count == m
        assert hashlib.sha256(h.to_text().encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "n, seed, m, digest",
        [
            (129, 4, 205, "a5456e306530b44853cd3ee3f55a6c51f00de16e74c57b6fe2c08b5f24807b4f"),
            (RANDOM_MAX_N, 1, 387, "fbbe5c6059d4b247beb31fc6d9fe94599573d2b099f4bf459a7c4aea0e9f33da"),
        ],
    )
    def test_pinned_greedy_past_seven_bit_ids(self, n, seed, m, digest):
        # vertex ids of 128 and above use the top bit of each byte of a code
        h = random_bc4free(n, comb(n, 3), seed)
        assert h.edge_count == m
        assert hashlib.sha256(h.to_text().encode()).hexdigest() == digest

    def test_codes_hold_every_vertex_id(self):
        # a triple is packed 8 bits per vertex id into one array("I") entry
        assert RANDOM_MAX_N <= 256
        assert array("I").itemsize * 8 >= 24

    def test_traced_peak_is_bounded(self):
        # about 0.54 MB with 4-byte codes; a list of C(80, 3) tuples takes 6.4 MB
        tracemalloc.start()
        try:
            random_bc4free(80, comb(80, 3), 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000, peak

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(
        st.integers(min_value=3, max_value=25).flatmap(
            lambda n: st.tuples(
                st.just(n),
                # small targets stop partway through the triple stream
                st.one_of(st.integers(0, 12), st.integers(0, comb(n, 3))),
                st.integers(min_value=0, max_value=2**32),
            )
        )
    )
    def test_dead_pair_memo_matches_memo_free_greedy(self, case):
        n, target_m, seed = case
        assert random_bc4free(n, target_m, seed) == memo_free_greedy(n, target_m, seed)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            random_bc4free(2, 1, 0)
        with pytest.raises(ValueError):
            random_bc4free(5, -1, 0)
        with pytest.raises(ValueError, match="n must be"):
            random_bc4free(RANDOM_MAX_N + 1, 0, 0)
