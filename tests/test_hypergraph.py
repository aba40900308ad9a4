from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_hypergraph
from oracles import adjacency, naive_count_three_paths, without_isolated_vertices

from bergec4.hypergraph import (
    MAX_VERTICES,
    Hypergraph,
    HypergraphError,
    ParseError,
    count_three_paths,
    degree_profile,
    pair_to_edges,
    shadow,
)


class TestConstruction:
    def test_canonical_order(self):
        h = Hypergraph(5, [(4, 3, 2), (2, 1, 0)])
        assert h.edges == ((0, 1, 2), (2, 3, 4))

    def test_duplicate_edges_rejected(self):
        with pytest.raises(HypergraphError, match="duplicate"):
            Hypergraph(4, [(0, 1, 2), (2, 1, 0)])

    def test_non_triple_rejected(self):
        with pytest.raises(HypergraphError):
            Hypergraph(4, [(0, 1)])
        with pytest.raises(HypergraphError):
            Hypergraph(4, [(0, 1, 1)])

    @pytest.mark.parametrize("bad", [(0, 1.5, 3), (0, 1, "2"), (True, 2, 3)])
    def test_non_int_vertex_ids_rejected(self, bad):
        with pytest.raises(HypergraphError):
            Hypergraph(4, [bad, (0, 1, 2)])

    def test_out_of_range_rejected(self):
        with pytest.raises(HypergraphError):
            Hypergraph(3, [(0, 1, 3)])
        with pytest.raises(HypergraphError):
            Hypergraph(-1, [])

    @pytest.mark.parametrize("n", [3.5, 4.0, True, "4"])
    def test_non_int_vertex_count_rejected(self, n):
        with pytest.raises(HypergraphError, match="non-negative int"):
            Hypergraph(n, [])

    def test_equality_ignores_input_order(self):
        a = Hypergraph(5, [(0, 1, 2), (1, 2, 3)])
        b = Hypergraph(5, [(3, 2, 1), (2, 1, 0)])
        assert a == b and hash(a) == hash(b)

    def test_empty_allowed(self):
        h = Hypergraph(5, [])
        assert h.edge_count == 0
        assert shadow(h) == adjacency(5, [])


class TestShadow:
    def test_single_edge_gives_triangle(self, single_edge):
        assert shadow(single_edge) == adjacency(3, [(0, 1), (0, 2), (1, 2)])

    def test_built_once_per_hypergraph(self, k4_minus):
        assert shadow(k4_minus) is shadow(k4_minus)

    def test_k4_minus_gives_complete_graph(self, k4_minus):
        assert shadow(k4_minus) == adjacency(4, combinations(range(4), 2))

    def test_vertex_count_preserved(self):
        g = shadow(Hypergraph(9, [(0, 1, 2)]))
        assert len(g) == 9
        assert not g[8]

    def test_pair_membership_matches_edges(self):
        for seed in range(10):
            h = random_hypergraph(9, 12, seed)
            g = shadow(h)
            for x in range(h.n):
                for y in range(x + 1, h.n):
                    covered = any(x in e and y in e for e in h.edges)
                    assert (y in g[x]) == covered

    def test_determinism_through_serialization(self):
        for seed in range(5):
            h = random_hypergraph(8, 10, seed)
            assert shadow(Hypergraph.from_text(h.to_text())) == shadow(h)


class TestDegrees:
    def test_single_edge(self, single_edge):
        p = degree_profile(single_edge)
        assert p.hyper == (1, 1, 1)
        assert p.shadow == (2, 2, 2)
        assert p.excess == (1, 1, 1)

    def test_k4_minus(self, k4_minus):
        p = degree_profile(k4_minus)
        assert p.hyper == (3, 2, 2, 2)
        assert p.shadow == (3, 3, 3, 3)
        assert p.excess == (0, 1, 1, 1)

    def test_sunflower_unit_excess(self, sunflower):
        assert degree_profile(sunflower).excess == (1, 1, 1, 1, 1)

    def test_degree_sums(self):
        for seed in range(20):
            h = random_hypergraph(10, 15, seed)
            p = degree_profile(h)
            assert sum(p.hyper) == 3 * h.edge_count
            assert sum(p.shadow) == 2 * len(pair_to_edges(h))

    def test_profile_inequalities(self):
        # distinct edges through v cover distinct neighbor pairs
        for seed in range(20):
            h = random_hypergraph(9, 14, seed)
            p = degree_profile(h)
            for v in range(h.n):
                if p.hyper[v] >= 1:
                    assert p.hyper[v] <= p.shadow[v] * (p.shadow[v] - 1) // 2
                    assert p.shadow[v] <= 2 * p.hyper[v]

    def test_excess_nonnegative_when_bc4_free(self):
        # false in general (six edges through one vertex over four neighbors
        # give hyper=6 > shadow=4), but guaranteed for BC4-free inputs
        from bergec4.berge import is_bc4_free
        from bergec4.construct import random_bc4free

        dense_star = Hypergraph(5, [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 4), (0, 3, 4)])
        assert degree_profile(dense_star).excess[0] < 0
        assert not is_bc4_free(dense_star)
        for seed in range(20):
            h = random_bc4free(11, 14, seed)
            assert all(x >= 0 for x in degree_profile(h).excess)


class TestCountThreePaths:
    def test_triangle(self):
        g = adjacency(3, [(0, 1), (0, 2), (1, 2)])
        assert count_three_paths(g) == 3

    def test_complete_four(self, k4_minus):
        assert count_three_paths(shadow(k4_minus)) == 12

    def test_empty(self):
        assert count_three_paths(adjacency(5, [])) == 0

    def test_matches_enumeration_on_random_shadows(self):
        for seed in range(30):
            g = shadow(random_hypergraph(9, 13, seed))
            assert count_three_paths(g) == naive_count_three_paths(g)


class TestTextFormat:
    def test_round_trip(self):
        for seed in range(10):
            h = random_hypergraph(8, 9, seed)
            assert Hypergraph.from_text(h.to_text()) == h

    def test_comments_and_blank_lines(self):
        text = "# generated\n\n3 1\n# mid comment\n  # indented comment\n0 1 2\n"
        assert Hypergraph.from_text(text) == Hypergraph(3, [(0, 1, 2)])

    def test_unsorted_line_rejected_with_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            Hypergraph.from_text("3 1\n0 1 1\n")
        with pytest.raises(ParseError, match="line 3"):
            Hypergraph.from_text("4 2\n0 1 2\n2 1 3\n")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            Hypergraph.from_text("4 2\n0 1 2\n0 1 2\n")

    def test_wrong_edge_count(self):
        with pytest.raises(ParseError):
            Hypergraph.from_text("4 2\n0 1 2\n")
        with pytest.raises(ParseError):
            Hypergraph.from_text("4 1\n0 1 2\n0 1 3\n")

    def test_out_of_range_id(self):
        with pytest.raises(ParseError, match="range"):
            Hypergraph.from_text("3 1\n0 1 3\n")

    @pytest.mark.parametrize(
        "text, line",
        [
            ("3 1\n0 1 \uff12\n", 2),  # full-width digit two
            ("3 1\n0 1 \u0662\n", 2),  # Arabic-Indic digit two
            ("3 1\n0 1\u00a02\n", 2),  # no-break space between ids
            ("3 1\n0 1 +2\n", 2),
            ("3 1\n0 1 2_0\n", 2),
            ("1_1 1\n0 1 2\n", 1),
            ("+3 1\n0 1 2\n", 1),
            ("\uff13 1\n0 1 2\n", 1),
        ],
    )
    def test_ids_must_be_plain_ascii_decimal(self, text, line):
        # int() alone would read each of these as a number
        with pytest.raises(ParseError, match=f"line {line}: ids must be plain ASCII decimal"):
            Hypergraph.from_text(text)

    def test_non_ascii_comments_are_accepted(self):
        text = "# gr\u00e4ph \uff12\n3 1\n  # \u00e9dge_list +\n0 1 2\n"
        assert Hypergraph.from_text(text) == Hypergraph(3, [(0, 1, 2)])

    def test_negative_id_is_out_of_range(self):
        with pytest.raises(ParseError, match="line 2: vertex id out of range"):
            Hypergraph.from_text("3 1\n-1 0 2\n")

    def test_header_errors(self):
        with pytest.raises(ParseError):
            Hypergraph.from_text("")
        with pytest.raises(ParseError):
            Hypergraph.from_text("3\n")
        with pytest.raises(ParseError, match="line 2"):
            Hypergraph.from_text(f"# comment\n{MAX_VERTICES + 1} 0\n")
        # the bound guards parsed input only; API callers build what they ask for
        assert Hypergraph(MAX_VERTICES + 1, []).n == MAX_VERTICES + 1

    def test_digest_is_stable(self, k4_minus):
        again = Hypergraph(4, [(0, 2, 3), (0, 1, 3), (0, 1, 2)])
        assert k4_minus.digest() == again.digest()
        assert k4_minus.digest().startswith("sha256:")


# tokens that int() reads differently from the format, or not at all
ODD_TOKENS = ("-0", "007", "-1", "9", "_", "0_1", "+1", "0x1", "1.0", "x", "\u0662", "\uff12")
SEPARATORS = (" ", "  ", "\t", " \t ")
NOISE_LINES = ("", "   ", "\t", "# note", "  # indented", "# gr\u00e4ph", "# a_b +c")


@st.composite
def hypergraph_texts(draw):
    """Texts near the format: mostly valid, some with one or two defects of any kind."""
    n = draw(st.integers(min_value=0, max_value=7))
    triples = list(combinations(range(n), 3))
    edges = draw(st.lists(st.sampled_from(triples), max_size=8, unique=True)) if triples else []
    rows = [[str(n), str(len(edges))]] + [[str(v) for v in e] for e in edges]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        i = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        row = rows[i]
        kind = draw(st.sampled_from(("token", "drop", "extra", "swap", "dup", "count", "range")))
        if kind == "token":
            row[draw(st.integers(min_value=0, max_value=len(row) - 1))] = draw(st.sampled_from(ODD_TOKENS))
        elif kind == "drop":
            row.pop()
        elif kind == "extra":
            row.append(draw(st.sampled_from(("0", "1", "5"))))
        elif kind == "swap" and len(row) == 3:
            row[0], row[-1] = row[-1], row[0]
        elif kind == "dup" and i > 0:
            rows.append(list(row))
            rows[0][-1] = str(len(rows) - 1)
        elif kind == "range" and i > 0 and len(row) == 3:
            row[0] = "-1" if draw(st.booleans()) else row[0]
            row[-1] = str(n + draw(st.integers(min_value=0, max_value=1)))
        elif kind == "count" and len(rows) > 1:
            rows.pop() if draw(st.booleans()) else rows.append(["0", "1", "2"])
    lines = []
    for row in rows:
        lines.extend(draw(st.lists(st.sampled_from(NOISE_LINES), max_size=2)))
        indent = draw(st.sampled_from(("", " ", "\t")))
        lines.append(indent + draw(st.sampled_from(SEPARATORS)).join(row) + draw(st.sampled_from(("", " ", "\r"))))
    return "\n".join(lines) + draw(st.sampled_from(("", "\n", "\n\n")))


def _assert_parses_as_line_loop(text: str) -> Hypergraph | None:
    """from_text gives the line loop's Hypergraph, or raises its ParseError."""
    try:
        ref = Hypergraph._from_text_lines(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            Hypergraph.from_text(text)
        assert (str(got.value), got.value.line) == (str(exc), exc.line)
        return None
    h = Hypergraph.from_text(text)
    assert (h.n, h.edges, h.edge_set, hash(h)) == (ref.n, ref.edges, ref.edge_set, hash(ref))
    assert h == ref and type(h.edges) is tuple
    return h


class TestBulkParse:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(hypergraph_texts())
    def test_matches_line_loop(self, text):
        _assert_parses_as_line_loop(text)

    @pytest.mark.parametrize(
        "text",
        [
            "3 1\r\n0 1 2\r\n",
            "4 2\n0\t1\t2\n\t1  2   3\n",
            "\n  \n3 1\n\t\n0 1 2\n \n",
            "# head\n3 1\n  # mid\n0 1 2\n",
            "# gr\u00e4ph\n3 1\n0 1 2\n",
            "3 1\n  # \u00e9dge_list +\n0 1 2\n",
            "3 1\n-0 1 2\n",
            "008 1\n0 001 007\n",
            "5 0\n",
            "0 0\n",
            "4 2\n0 1 2\n",
            "4 1\n0 1 2\n0 1 3\n",
            "4 2\n0 1 2\n0 1 2\n",
            "4 1\n0 2 1\n",
            "4 1\n0 1\n",
            "4 1\n0 1 2 3\n",
            "3 1\n0 1 3\n",
            "3 1\n-1 0 2\n",
            "3 1\n0 1 2_0\n",
            "3 1\n0 1 0_2\n",
            "4 2\n0 1\n2 0 1 3\n",
            "3 1\n0 1 +2\n",
            "3 1\n0 1 0x1\n",
            "3 1\n0 1 \u0662\n",
            "3\n0 1 2\n",
            "-3 0\n",
            "3 -1\n",
            "",
            "# only a comment\n",
            f"{MAX_VERTICES + 1} 0\n",
        ],
    )
    def test_hand_cases_match_line_loop(self, text):
        _assert_parses_as_line_loop(text)

    def test_accepted_text_equals_validated_construction(self):
        # the bulk pass skips canonical_edge and the duplicate scan, so what
        # it builds must equal what Hypergraph() builds after validating
        for seed in range(10):
            h = random_hypergraph(9, 12, seed)
            body = h.to_text().split("\n")
            # edge lines in reverse order, tabs, CRLF and a comment
            text = "# c\r\n" + body[0] + "\r\n" + "\r\n".join(
                line.replace(" ", "\t") for line in reversed(body[1:-1])
            )
            for t in (h.to_text(), text):
                got = Hypergraph._from_clean_text(t)
                assert got is not None
                want = Hypergraph(h.n, h.edges)
                assert (got.n, got.edges, got.edge_set, hash(got)) == (
                    want.n, want.edges, want.edge_set, hash(want)
                )


class TestIsolatedVertices:
    def test_detection(self):
        h = Hypergraph(6, [(1, 2, 4)])
        assert h.isolated_vertices() == (0, 3, 5)

    def test_compaction(self):
        h = Hypergraph(6, [(1, 2, 4)])
        assert without_isolated_vertices(h) == Hypergraph(3, [(0, 1, 2)])

    def test_no_change_when_covered(self, k4_minus):
        assert without_isolated_vertices(k4_minus) is k4_minus


def test_pair_to_edges_indexing(k4_minus):
    p2e = pair_to_edges(k4_minus)
    assert p2e[(0, 1)] == [0, 1]
    assert p2e[(2, 3)] == [2]
    assert p2e[(0, 2)] == [0, 2]
