from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_hypergraph
from oracles import excess_degree_within, naive_is_type1

from bergec4.berge import Bc4FreeBuilder, is_bc4_free
from bergec4.blocks import BlockType, block_degrees, decompose
from bergec4.hypergraph import Hypergraph, degree_profile


def _edge_to_block(h, blocks):
    # edge index -> index of the block listing it
    owner = [-1] * h.edge_count
    for k, block in enumerate(blocks):
        for i in block.edge_indices:
            owner[i] = k
    return tuple(owner)


class TestDecompose:
    def test_edges_sharing_one_vertex_split(self):
        h = Hypergraph(6, [(1, 2, 3), (3, 4, 5)])
        blocks = decompose(h)
        assert len(blocks) == 2
        assert _edge_to_block(h, blocks) == (0, 1)

    def test_k4_minus_single_block(self, k4_minus):
        blocks = decompose(k4_minus)
        assert len(blocks) == 1
        assert blocks[0].edge_indices == (0, 1, 2)

    def test_sunflower_single_block(self, sunflower):
        assert len(decompose(sunflower)) == 1

    def test_empty(self):
        h = Hypergraph(5, [])
        blocks = decompose(h)
        assert blocks == () and _edge_to_block(h, blocks) == ()

    def test_partition(self):
        for seed in range(20):
            h = random_hypergraph(9, 12, seed)
            blocks = decompose(h)
            seen = sorted(i for b in blocks for i in b.edge_indices)
            assert seen == list(range(h.edge_count))
            owner = _edge_to_block(h, blocks)
            for i in range(h.edge_count):
                assert i in blocks[owner[i]].edge_indices

    def test_maximality(self):
        # no edge outside a block shares two vertices with an edge inside
        for seed in range(20):
            h = random_hypergraph(9, 12, seed)
            owner = _edge_to_block(h, decompose(h))
            for a, b in combinations(range(h.edge_count), 2):
                if owner[a] != owner[b]:
                    assert len(set(h.edges[a]) & set(h.edges[b])) < 2

    def test_chain_connectivity_within_block(self):
        # any two edges of a block are linked by a share-two-vertices chain
        for seed in range(10):
            h = random_hypergraph(8, 10, seed)
            for block in decompose(h):
                members = list(block.edge_indices)
                reached = {members[0]}
                frontier = [members[0]]
                while frontier:
                    cur = frontier.pop()
                    for other in members:
                        if other not in reached and len(set(h.edges[cur]) & set(h.edges[other])) == 2:
                            reached.add(other)
                            frontier.append(other)
                assert reached == set(members)

    def test_vertex_set_is_union(self, sunflower):
        b = decompose(sunflower)[0]
        assert b.vertex_set == frozenset(range(5))


class TestLeafEdges:
    def test_single_edge_block_is_leaf(self, single_edge):
        b = decompose(single_edge)[0]
        assert b.leaf_edges == (0,)

    def test_k4_minus_has_no_leaves(self, k4_minus):
        b = decompose(k4_minus)[0]
        assert b.leaf_edges == ()

    def test_sunflower_all_leaves(self, sunflower):
        b = decompose(sunflower)[0]
        assert b.leaf_edges == (0, 1, 2)


class TestClassify:
    def test_k4_minus_is_type2(self, k4_minus):
        b = decompose(k4_minus)[0]
        assert b.classification is BlockType.TYPE2

    def test_sunflower_is_type1(self, sunflower):
        assert decompose(sunflower)[0].classification is BlockType.TYPE1

    def test_single_edge_is_type1(self, single_edge):
        assert decompose(single_edge)[0].classification is BlockType.TYPE1

    def test_k4_full_is_other(self, k4_full):
        assert decompose(k4_full)[0].classification is BlockType.OTHER

    def test_type_definitions_are_exclusive_on_k4_minus(self, k4_minus):
        # direct check that no distinguished edge works for K4 minus an edge:
        # some pair of other edges always meets outside the candidate
        for anchor in k4_minus.edges:
            others = [set(e) for e in k4_minus.edges if e != anchor]
            assert all(len(set(anchor) & f) == 2 for f in others)
            f1, f2 = others
            assert not (f1 & f2 <= set(anchor))

    def test_bc4_free_blocks_never_other(self):
        from bergec4.construct import random_bc4free

        for seed in range(20):
            h = random_bc4free(11, 12, seed)
            for b in decompose(h):
                assert b.classification in (BlockType.TYPE1, BlockType.TYPE2)


def _naive_classification(h, block):
    edges = [h.edges[i] for i in block.edge_indices]
    if len(edges) == 3 and len(block.vertex_set) == 4:
        return BlockType.TYPE2
    return BlockType.TYPE1 if naive_is_type1(edges) else BlockType.OTHER


def _assert_leaves_and_vertices_by_definition(h, block):
    # a leaf owns a vertex that no other edge of its block contains; the
    # vertex set is the union of the block's edges
    edges = [h.edges[i] for i in block.edge_indices]
    leaves = tuple(
        i
        for i, e in zip(block.edge_indices, edges)
        if any(all(v not in f for f in edges if f != e) for v in e)
    )
    assert block.leaf_edges == leaves
    assert block.vertex_set == set().union(*edges)


def _free_prefix(n, order):
    builder = Bc4FreeBuilder(n)
    for e in order:
        builder.try_add(e)
    return builder.to_hypergraph()


any_hypergraphs = st.integers(min_value=3, max_value=7).flatmap(
    lambda n: st.builds(
        Hypergraph,
        st.just(n),
        st.lists(st.sampled_from(list(combinations(range(n), 3))), unique=True, max_size=10),
    )
)
free_hypergraphs = st.integers(min_value=4, max_value=9).flatmap(
    lambda n: st.permutations(list(combinations(range(n), 3))).map(
        lambda order, n=n: _free_prefix(n, order)
    )
)


class TestClassifyAgainstOracle:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(any_hypergraphs)
    def test_matches_pairwise_definition(self, h):
        for b in decompose(h):
            assert b.classification is _naive_classification(h, b)
            _assert_leaves_and_vertices_by_definition(h, b)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(free_hypergraphs)
    def test_matches_pairwise_definition_when_free(self, h):
        assert is_bc4_free(h)
        for b in decompose(h):
            assert b.classification is _naive_classification(h, b)
            assert b.classification is not BlockType.OTHER
            _assert_leaves_and_vertices_by_definition(h, b)

    def test_matches_pairwise_definition_on_constructions(self, construction_family):
        for q, h in construction_family.items():
            if q > 11:
                continue
            for b in decompose(h):
                assert b.classification is _naive_classification(h, b)
                _assert_leaves_and_vertices_by_definition(h, b)


class TestBlockDegrees:
    def test_shared_vertex(self):
        h = Hypergraph(6, [(1, 2, 3), (3, 4, 5)])
        db = block_degrees(h, decompose(h))
        assert db == (0, 1, 1, 2, 1, 1)

    def test_k4_minus_all_one(self, k4_minus):
        assert block_degrees(k4_minus, decompose(k4_minus)) == (1, 1, 1, 1)

    def test_double_counting_identity(self):
        for seed in range(20):
            h = random_hypergraph(9, 12, seed)
            blocks = decompose(h)
            assert sum(block_degrees(h, blocks)) == sum(len(b.vertex_set) for b in blocks)

    def test_full_profile_attaches_block_column(self, k4_minus):
        assert block_degrees(k4_minus, decompose(k4_minus)) == (1, 1, 1, 1)
        assert degree_profile(k4_minus).excess == (0, 1, 1, 1)


class TestExcessWithin:
    def test_k4_minus_values(self, k4_minus):
        b = decompose(k4_minus)[0]
        values = [excess_degree_within(k4_minus, b, v) for v in range(4)]
        assert values == [0, 1, 1, 1]
        assert sum(values) == 3 == len(b.edge_indices)

    def test_sunflower_values(self, sunflower):
        b = decompose(sunflower)[0]
        values = [excess_degree_within(sunflower, b, v) for v in range(5)]
        assert values == [1, 1, 1, 1, 1]
        assert sum(values) == len(b.vertex_set)

    def test_single_edge(self, single_edge):
        b = decompose(single_edge)[0]
        assert [excess_degree_within(single_edge, b, v) for v in range(3)] == [1, 1, 1]

    def test_vertex_outside_block_rejected(self, k4_minus):
        b = decompose(k4_minus)[0]
        with pytest.raises(ValueError):
            excess_degree_within(Hypergraph(5, k4_minus.edges), b, 4)

    def test_block_restriction_matters(self):
        # vertex 3 sits in two blocks; each sees only its own edges
        h = Hypergraph(6, [(1, 2, 3), (3, 4, 5)])
        for b in decompose(h):
            assert excess_degree_within(h, b, 3) == 1

    def test_global_excess_decomposes_over_blocks(self):
        # edges covering a pair {v,u} share a block, so each shadow neighbor
        # of v is charged to exactly one block and the excesses add up
        from bergec4.hypergraph import degree_profile

        for seed in range(15):
            h = random_hypergraph(9, 12, seed)
            total = sum(
                excess_degree_within(h, b, v) for b in decompose(h) for v in b.vertex_set
            )
            assert total == sum(degree_profile(h).excess)


class TestBc4FreeStructure:
    def test_block_inequalities_on_free_instances(self):
        from bergec4.construct import random_bc4free

        for seed in range(20):
            h = random_bc4free(12, 12, seed)
            assert is_bc4_free(h)
            for b in decompose(h):
                assert len(b.vertex_set) > len(b.edge_indices)
                total = sum(excess_degree_within(h, b, v) for v in b.vertex_set)
                assert total >= len(b.edge_indices)

    def test_general_inputs_may_violate_size_inequality(self, k4_full):
        b = decompose(k4_full)[0]
        assert len(b.vertex_set) == len(b.edge_indices) == 4
