from itertools import combinations, product

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import verify_cycle_witness, walker_berge_cycle

from bergec4.berge import find_berge_cycle, is_bc4_free
from bergec4.hypergraph import Hypergraph, shadow

hypergraphs = st.integers(min_value=4, max_value=10).flatmap(
    lambda n: st.builds(
        Hypergraph,
        st.just(n),
        st.lists(st.sampled_from(list(combinations(range(n), 3))), unique=True, max_size=12),
    )
)
derandomized = settings(derandomize=True, max_examples=60, deadline=None)


def _sparse_edges(n):
    triples = list(combinations(range(n), 3))
    return st.lists(st.sampled_from(triples), unique=True, max_size=6) if triples else st.just([])


# n from 0, and few edges, so edgeless inputs and isolated vertices are common
sparse_hypergraphs = st.integers(min_value=0, max_value=9).flatmap(
    lambda n: st.builds(Hypergraph, st.just(n), _sparse_edges(n))
)


@derandomized
@given(hypergraphs)
def test_text_round_trip_keeps_graph_and_digest(h):
    again = Hypergraph.from_text(h.to_text())
    assert again == h
    assert again.digest() == h.digest()


@derandomized
@given(hypergraphs)
def test_cycle_witnesses_verify(h):
    for length in range(2, 6):
        w = find_berge_cycle(h, length)
        assert w is None or (len(w.vertices) == length and verify_cycle_witness(h, w))


@derandomized
@given(hypergraphs)
def test_builder_verdict_matches_sweep(h):
    # find_berge_cycle(h, 4) takes is_bc4_free's verdict, so the sweep here is
    # the oracle that matches every canonical cycle
    assert is_bc4_free(h) == (walker_berge_cycle(h, 4) is None)


# up to 24 edges on at most 10 vertices, so that most inputs carry shadow
# 4-cycles that sole edges rule out next to ones that are Berge
dense_hypergraphs = st.integers(min_value=4, max_value=10).flatmap(
    lambda n: st.builds(
        Hypergraph,
        st.just(n),
        st.lists(st.sampled_from(list(combinations(range(n), 3))), unique=True, max_size=24),
    )
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.one_of(hypergraphs, dense_hypergraphs))
def test_walk_matches_walker(h):
    # the sole-edge walk against matching every cycle of the plain walk
    for length in range(2, 8):
        assert find_berge_cycle(h, length) == walker_berge_cycle(h, length)


@derandomized
@given(sparse_hypergraphs)
@example(Hypergraph(0, []))
@example(Hypergraph(4, []))
@example(Hypergraph(7, [(0, 1, 2), (1, 3, 4)]))
def test_shadow_is_the_covered_pairs(h):
    adj = shadow(h)
    assert len(adj) == h.n
    assert shadow(h) is adj
    for x, y in product(range(h.n), repeat=2):
        assert (y in adj[x]) == (x in adj[y])
        assert (y in adj[x]) == (x != y and any(x in e and y in e for e in h.edges))
    assert h.isolated_vertices() == tuple(v for v in range(h.n) if all(v not in e for e in h.edges))
