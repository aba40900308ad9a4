from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import verify_cycle_witness

from bergec4.berge import find_berge_cycle, is_bc4_free
from bergec4.hypergraph import Hypergraph

hypergraphs = st.integers(min_value=4, max_value=10).flatmap(
    lambda n: st.builds(
        Hypergraph,
        st.just(n),
        st.lists(st.sampled_from(list(combinations(range(n), 3))), unique=True, max_size=12),
    )
)
derandomized = settings(derandomize=True, max_examples=60, deadline=None)


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
        assert w is None or (w.length == length and verify_cycle_witness(h, w))


@derandomized
@given(hypergraphs)
def test_builder_verdict_matches_sweep(h):
    assert is_bc4_free(h) == (find_berge_cycle(h, 4) is None)
