"""Core 3-uniform hypergraph representation, 2-shadow, and degree accounting.

Vertices are dense integer ids 0..n-1; isolated vertices are representable.
Edges are canonicalized (each triple sorted, the edge list sorted
lexicographically) so that equal hypergraphs have identical serializations.
The 2-shadow is its adjacency alone: a tuple of n frozensets (Shadow), built
once per hypergraph by shadow(h) and read directly by every caller.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import chain, islice
from operator import lt
from typing import Iterable

Edge = tuple[int, int, int]
Pair = tuple[int, int]
# shadow(h)[x] holds y iff some edge of h holds both x and y
Shadow = tuple[frozenset[int], ...]

# Largest header n that from_text accepts: the first power of two above the
# largest construction (construct --q 64, n = 12,483). The analysis commands
# build per-vertex tables, so n alone sets their cost: the 10-byte input
# "1000000 0" took census 6.8 s and 470 MB. Bc4FreeBuilder's bitsets take up
# to n^2/8 bytes, 32 MB here; at n = 100,000 a free 600 KB input of disjoint
# triples made check peak at 967 MB. census builds the same bitsets for its
# codegree pass: on n // 3 disjoint triples (2i, 2i+1, n-1-i) here it
# peaked at 31.6 MB traced (11.8 MB before the pass used bitsets), against
# 28.6 MB for is_bc4_free. find_berge_cycle's walk keeps the same bitsets,
# and at lengths other than 4, where no builder runs first, they set its
# peak: 31.4 MB traced for length 5 on n // 3 such triples here.
MAX_VERTICES = 16_384


class HypergraphError(ValueError):
    """The data does not describe a valid 3-uniform hypergraph."""


class ParseError(HypergraphError):
    """Malformed hypergraph text; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def canonical_edge(triple: Iterable[int], n: int) -> Edge:
    """The sorted triple; HypergraphError unless it is 3 distinct int vertex ids in [0, n).

    Vertex ids must be of type int exactly, so bool, float and str ids are
    rejected rather than compared or hashed as numbers.
    """
    try:
        a, b, c = triple
    except (TypeError, ValueError):
        raise HypergraphError(f"edge {triple!r} is not 3 vertex ids") from None
    if type(a) is int and type(b) is int and type(c) is int:
        # three compare-and-swaps instead of sorted(): this runs on every
        # edge of Hypergraph.__init__ (builder output, search witnesses, the
        # benchmark's q16-cyclic set-up) and on every try_add of
        # search._greedy, where a list sort costs more
        if a > b:
            a, b = b, a
        if b > c:
            b, c = c, b
            if a > b:
                a, b = b, a
        if 0 <= a < b < c < n:
            return (a, b, c)
    raise HypergraphError(f"edge {triple!r} is not 3 distinct int vertex ids in [0, {n})")


class Hypergraph:
    """Immutable 3-uniform hypergraph on vertex ids 0..n-1.

    Duplicate edges are a hard error rather than silently merged: degree
    counts assume the edge list is a set. The 2-shadow is built on first use
    and kept (see shadow()); isolated_vertices() reads it.
    """

    __slots__ = ("n", "edges", "edge_set", "_shadow")

    def __init__(self, n: int, edges: Iterable[Iterable[int]]):
        if type(n) is not int or n < 0:
            raise HypergraphError(f"vertex count must be a non-negative int, got {n!r}")
        canon = sorted(canonical_edge(e, n) for e in edges)
        for a, b in zip(canon, canon[1:]):
            if a == b:
                raise HypergraphError(f"duplicate edge {a}")
        self.n: int = n
        self.edges: tuple[Edge, ...] = tuple(canon)
        self.edge_set: frozenset[Edge] = frozenset(canon)
        self._shadow: Shadow | None = None

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, m={self.edge_count})"

    @classmethod
    def _trusted(cls, n: int, edges: tuple[Edge, ...], edge_set: frozenset[Edge]) -> "Hypergraph":
        """A Hypergraph on edges already canonical: sorted, distinct, each a < b < c in [0, n).

        edge_set is their frozenset. Nothing is checked again.
        """
        h = cls.__new__(cls)
        h.n, h.edges, h.edge_set, h._shadow = n, edges, edge_set, None
        return h

    def to_text(self) -> str:
        """Canonical text serialization (LF line endings, no comments)."""
        body = "%d %d %d\n" * len(self.edges) % tuple(chain.from_iterable(self.edges))
        return f"{self.n} {len(self.edges)}\n{body}"

    @classmethod
    def from_text(cls, text: str) -> "Hypergraph":
        """Parse the standard text format.

        First data line is "n m", followed by m lines "a b c" with a < b < c.
        Every value is a plain ASCII decimal integer: a data line with a
        non-ASCII character, "_" or "+" is refused. Lines whose first
        non-blank character is '#' are comments and may hold any text; blank
        lines are ignored.
        Duplicate edges and malformed lines raise ParseError with the
        1-based line number.

        A well-formed text is taken in one bulk pass (_from_clean_text),
        which checks whole columns at once and builds the Hypergraph with no
        second validation. Any text it refuses, valid or not, goes to the
        line loop (_from_text_lines), which is the reference: it names the
        first bad line, and the bulk pass accepts only texts that it
        accepts, as the same Hypergraph.
        """
        h = cls._from_clean_text(text)
        return cls._from_text_lines(text) if h is None else h

    @classmethod
    def _from_clean_text(cls, text: str) -> "Hypergraph | None":
        """from_text's bulk pass: the Hypergraph, or None for the line loop to decide.

        One test on the whole text rules out a non-ASCII character, "_" and
        "+" anywhere, comments included. The data lines must then be the
        header and exactly m lines of 3 tokens; the ids are read by one
        map(int) over all tokens, a < b < c is tested on the three column
        slices, the range by the least a and the greatest c, and duplicates
        by the size of the edge frozenset. The edges are sorted once and
        handed to _trusted. Each line's tokens go straight into one flat
        list, and each intermediate list is deleted once read. On q = 64
        (270k lines; best of 5 in one process, 2-vCPU VM) this pass took
        0.36-0.39 s at 115 MB peak RSS; a token list kept per line, which
        the cyclic garbage collector rescans, 0.52 s at 200 MB; the
        intermediates kept, 0.38-0.45 s at 168 MB; the line loop 0.52-0.56 s
        at 124 MB.
        """
        if not text.isascii() or "_" in text or "+" in text:
            return None
        data = [s for s in map(str.strip, text.split("\n")) if s and s[0] != "#"]
        if not data:
            return None
        head = data[0].split()
        m = len(data) - 1
        tokens = [x for s in islice(data, 1, None) for row in (s.split(),) if len(row) == 3 for x in row]
        del data
        if len(tokens) != 3 * m:
            return None
        try:
            n, declared = map(int, head)  # a header of other than 2 tokens fails here too
            ids = list(map(int, tokens))
        except ValueError:
            return None
        del tokens
        a, b, c = ids[0::3], ids[1::3], ids[2::3]
        del ids
        if not (0 <= n <= MAX_VERTICES and declared == m):
            return None
        if m and not (all(map(lt, a, b)) and all(map(lt, b, c)) and min(a) >= 0 and max(c) < n):
            return None
        edges = sorted(zip(a, b, c))
        edge_set = frozenset(edges)
        if len(edge_set) != m:
            return None
        return cls._trusted(n, tuple(edges), edge_set)

    @classmethod
    def _from_text_lines(cls, text: str) -> "Hypergraph":
        """from_text one line at a time: the reference parse, which names the first bad line."""
        header: tuple[int, int] | None = None
        edges: list[Edge] = []
        seen: dict[Edge, int] = {}
        for lineno, raw in enumerate(text.split("\n"), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            # int() also takes non-ASCII digits, "+" and "_"; one test per
            # line keeps every id plain ASCII decimal, with "-" left for the
            # range check
            if not raw.isascii() or "_" in line or "+" in line:
                raise ParseError("ids must be plain ASCII decimal integers", lineno)
            tokens = line.split()
            if header is None:
                if len(tokens) != 2:
                    raise ParseError("expected header 'n m'", lineno)
                try:
                    n, m = map(int, tokens)
                except ValueError:
                    raise ParseError("header values must be integers", lineno) from None
                if n < 0 or m < 0:
                    raise ParseError("header values must be non-negative", lineno)
                if n > MAX_VERTICES:
                    raise ParseError(f"vertex count {n} exceeds {MAX_VERTICES}", lineno)
                header = (n, m)
                continue
            if len(edges) == header[1]:
                raise ParseError("more edge lines than declared in header", lineno)
            if len(tokens) != 3:
                raise ParseError("expected exactly 3 vertex ids", lineno)
            try:
                a, b, c = map(int, tokens)
            except ValueError:
                raise ParseError("vertex ids must be integers", lineno) from None
            if not (a < b < c):
                raise ParseError(f"vertex ids must satisfy a < b < c, got {a} {b} {c}", lineno)
            if c >= header[0] or a < 0:
                raise ParseError(f"vertex id out of range [0, {header[0]})", lineno)
            edge: Edge = (a, b, c)
            if edge in seen:
                raise ParseError(f"duplicate edge {a} {b} {c} (first at line {seen[edge]})", lineno)
            seen[edge] = lineno
            edges.append(edge)
        if header is None:
            raise ParseError("missing header 'n m'", 1)
        if len(edges) != header[1]:
            raise ParseError(
                f"expected {header[1]} edge lines, found {len(edges)}", 1
            )
        return cls(header[0], edges)

    def digest(self) -> str:
        """SHA-256 of the canonical serialization, prefixed 'sha256:'."""
        h = hashlib.sha256(self.to_text().encode("utf-8")).hexdigest()
        return f"sha256:{h}"

    def isolated_vertices(self) -> tuple[int, ...]:
        """Vertices in no edge: those with no neighbour in the cached shadow."""
        return tuple(v for v, nbrs in enumerate(shadow(self)) if not nbrs)


@dataclass(frozen=True)
class DegreeProfile:
    """Per-vertex degrees: hyperedge, shadow and excess.

    shadow[v] = len(shadow(h)[v]) and excess[v] = shadow[v] - hyper[v].
    Block degrees have one route of their own,
    blocks.block_degrees(h, blocks.decompose(h)).
    """

    hyper: tuple[int, ...]
    shadow: tuple[int, ...]
    excess: tuple[int, ...]


def shadow(h: Hypergraph) -> Shadow:
    """The 2-shadow as adjacency: y in shadow(h)[x] iff some hyperedge holds x and y.

    The tuple has length h.n, is symmetric and has no loops. It is built once
    from each edge's three pairs; h's edges are already valid, so no pair is
    checked again. Later calls return the same object. Neighbours gather in
    lists, repeats included, for frozenset to drop: faster, and smaller at
    peak, than adding them to sets.
    """
    if h._shadow is None:
        adj: list[list[int]] = [[] for _ in range(h.n)]
        for a, b, c in h.edges:
            adj[a] += (b, c)
            adj[b] += (a, c)
            adj[c] += (a, b)
        h._shadow = tuple(map(frozenset, adj))
    return h._shadow


def pair_to_edges(h: Hypergraph) -> dict[Pair, list[int]]:
    """Map each covered vertex pair to the sorted indices of edges covering it."""
    out: dict[Pair, list[int]] = {}
    # the three pairs written out, in combinations order, so the dict's order is unchanged
    for i, (a, b, c) in enumerate(h.edges):
        out.setdefault((a, b), []).append(i)
        out.setdefault((a, c), []).append(i)
        out.setdefault((b, c), []).append(i)
    return out


def degree_profile(h: Hypergraph) -> DegreeProfile:
    """Hyperedge, shadow, and excess degrees of every vertex."""
    hyper = [0] * h.n
    for e in h.edges:
        for v in e:
            hyper[v] += 1
    shadow_deg = [len(a) for a in shadow(h)]
    excess = [s - d for s, d in zip(shadow_deg, hyper)]
    return DegreeProfile(tuple(hyper), tuple(shadow_deg), tuple(excess))


def count_three_paths(adj: Shadow) -> int:
    """Number of unordered 3-vertex paths in the graph adj, by their middle vertex.

    adj is an adjacency tuple such as shadow(h). The count is the sum over v
    of C(len(adj[v]), 2), which matches explicit enumeration of triples
    (x, u, y) with x != y and both {x,u}, {u,y} edges.
    """
    return sum(len(a) * (len(a) - 1) // 2 for a in adj)
