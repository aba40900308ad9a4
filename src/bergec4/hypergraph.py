"""Core 3-uniform hypergraph representation, 2-shadow, and degree accounting.

Vertices are dense integer ids 0..n-1; isolated vertices are representable.
Edges are canonicalized (each triple sorted, the edge list sorted
lexicographically) so that equal hypergraphs have identical serializations.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

Edge = tuple[int, int, int]
Pair = tuple[int, int]

# Largest header n that from_text accepts: the first power of two above the
# largest construction (construct --q 64, n = 12,483). The analysis commands
# build per-vertex tables, so n alone sets their cost: the 10-byte input
# "1000000 0" took census 6.8 s and 470 MB. Bc4FreeBuilder's bitsets take up
# to n^2/8 bytes, 32 MB here; at n = 100,000 a free 600 KB input of disjoint
# triples made check peak at 967 MB.
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
        # Bc4FreeBuilder insertion, where a list sort costs more
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
    and kept (see shadow()).
    """

    __slots__ = ("n", "edges", "edge_set", "_shadow")

    def __init__(self, n: int, edges: Iterable[Iterable[int]]):
        if n < 0:
            raise HypergraphError(f"vertex count must be non-negative, got {n}")
        canon = sorted(canonical_edge(e, n) for e in edges)
        for a, b in zip(canon, canon[1:]):
            if a == b:
                raise HypergraphError(f"duplicate edge {a}")
        self.n: int = n
        self.edges: tuple[Edge, ...] = tuple(canon)
        self.edge_set: frozenset[Edge] = frozenset(canon)
        self._shadow: ShadowGraph | None = None

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

    def to_text(self) -> str:
        """Canonical text serialization (LF line endings, no comments)."""
        lines = [f"{self.n} {self.edge_count}"]
        lines.extend(f"{a} {b} {c}" for a, b, c in self.edges)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Hypergraph":
        """Parse the standard text format.

        First data line is "n m", followed by m lines "a b c" with a < b < c.
        Lines whose first non-blank character is '#' are comments; blank
        lines are ignored.
        Duplicate edges and malformed lines raise ParseError with the
        1-based line number.
        """
        header: tuple[int, int] | None = None
        edges: list[Edge] = []
        seen: dict[Edge, int] = {}
        for lineno, raw in enumerate(text.split("\n"), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if header is None:
                if len(tokens) != 2:
                    raise ParseError("expected header 'n m'", lineno)
                try:
                    n, m = int(tokens[0]), int(tokens[1])
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
                a, b, c = (int(t) for t in tokens)
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
        covered = set()
        for e in self.edges:
            covered.update(e)
        return tuple(v for v in range(self.n) if v not in covered)


class ShadowGraph:
    """Simple graph, no loops or multi-edges: adj is its one structure; pairs is read from it."""

    __slots__ = ("n", "pairs", "adj")

    def __init__(self, n: int, pairs: Iterable[Iterable[int]]):
        if n < 0:
            raise HypergraphError(f"vertex count must be non-negative, got {n}")
        adj: list[set[int]] = [set() for _ in range(n)]
        for p in pairs:
            t = tuple(sorted(p))
            if len(t) != 2 or t[0] == t[1]:
                raise HypergraphError(f"pair {tuple(p)!r} is not 2 distinct vertices")
            if t[0] < 0 or t[1] >= n:
                raise HypergraphError(f"pair {t} out of vertex range [0, {n})")
            adj[t[0]].add(t[1])
            adj[t[1]].add(t[0])
        self.n: int = n
        self.pairs: tuple[Pair, ...] = tuple(
            (x, y) for x, ys in enumerate(adj) for y in sorted(ys) if x < y
        )
        self.adj: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in adj)

    @property
    def edge_count(self) -> int:
        return len(self.pairs)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(sorted(self.adj[v]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShadowGraph):
            return NotImplemented
        return self.n == other.n and self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash((self.n, self.pairs))

    def __repr__(self) -> str:
        return f"ShadowGraph(n={self.n}, edges={self.edge_count})"


@dataclass(frozen=True)
class DegreeProfile:
    """Per-vertex degrees: hyperedge, shadow and excess.

    excess[v] = shadow[v] - hyper[v]. Block degrees have one route of their
    own, blocks.block_degrees(h, blocks.decompose(h)).
    """

    hyper: tuple[int, ...]
    shadow: tuple[int, ...]
    excess: tuple[int, ...]


def shadow(h: Hypergraph) -> ShadowGraph:
    """The 2-shadow: pair {x, y} is present iff some hyperedge contains both.

    Built once, passing the edges' pairs straight to ShadowGraph; later calls return it.
    """
    if h._shadow is None:
        h._shadow = ShadowGraph(h.n, (p for e in h.edges for p in combinations(e, 2)))
    return h._shadow


def pair_to_edges(h: Hypergraph) -> dict[Pair, list[int]]:
    """Map each covered vertex pair to the sorted indices of edges covering it."""
    out: dict[Pair, list[int]] = {}
    for i, e in enumerate(h.edges):
        for p in combinations(e, 2):
            out.setdefault(p, []).append(i)
    return out


def degree_profile(h: Hypergraph) -> DegreeProfile:
    """Hyperedge, shadow, and excess degrees of every vertex."""
    hyper = [0] * h.n
    for e in h.edges:
        for v in e:
            hyper[v] += 1
    g = shadow(h)
    shadow_deg = [g.degree(v) for v in range(h.n)]
    excess = [s - d for s, d in zip(shadow_deg, hyper)]
    return DegreeProfile(tuple(hyper), tuple(shadow_deg), tuple(excess))


def count_three_paths(g: ShadowGraph) -> int:
    """Number of unordered 3-vertex paths, by conditioning on the middle vertex.

    Equals sum over v of C(deg(v), 2), which matches explicit enumeration of
    triples (x, u, y) with x != y and both {x,u}, {u,y} edges.
    """
    total = 0
    for v in range(g.n):
        d = g.degree(v)
        total += d * (d - 1) // 2
    return total
