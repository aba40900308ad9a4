"""Berge path and cycle detection via shadow cycles and distinct representatives.

A Berge cycle of length L is L distinct vertices and L distinct hyperedges
with each consecutive vertex pair (cyclically) inside the corresponding
hyperedge; a Berge path of length L uses L+1 vertices and L hyperedges.
Candidate vertex sequences are enumerated from the 2-shadow in a fixed
canonical order, and for each sequence the existence of distinct
representative hyperedges is decided by bipartite maximum matching, so the
returned witness is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

from bergec4.hypergraph import (
    Edge,
    Hypergraph,
    Pair,
    pair_to_edges,
    shadow,
)


class WitnessError(ValueError):
    """A witness refers to vertex or edge ids outside the hypergraph."""


@dataclass(frozen=True)
class BergeCycleWitness:
    """Cyclic vertex sequence plus, per position, the covering edge index."""

    vertices: tuple[int, ...]
    edge_indices: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class BergePathWitness:
    """Vertex sequence v_0..v_L plus, per step, the covering edge index."""

    vertices: tuple[int, ...]
    edge_indices: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.edge_indices)


def _check_ids(h: Hypergraph, vertices: Sequence[int], edge_indices: Sequence[int]) -> None:
    for v in vertices:
        if not 0 <= v < h.n:
            raise WitnessError(f"vertex id {v} out of range [0, {h.n})")
    for i in edge_indices:
        if not 0 <= i < h.edge_count:
            raise WitnessError(f"edge index {i} out of range [0, {h.edge_count})")


def verify_cycle_witness(h: Hypergraph, witness: BergeCycleWitness) -> bool:
    """True iff the witness is a valid Berge cycle of h.

    Out-of-range vertex or edge ids raise WitnessError; any other violation
    (repeats, a pair not inside its edge, length < 2) returns False.
    """
    vs, es = witness.vertices, witness.edge_indices
    _check_ids(h, vs, es)
    k = len(vs)
    if k < 2 or len(es) != k:
        return False
    if len(set(vs)) != k or len(set(es)) != k:
        return False
    for i in range(k):
        edge = h.edges[es[i]]
        if vs[i] not in edge or vs[(i + 1) % k] not in edge:
            return False
    return True


def verify_path_witness(h: Hypergraph, witness: BergePathWitness) -> bool:
    """True iff the witness is a valid Berge path of h (see verify_cycle_witness)."""
    vs, es = witness.vertices, witness.edge_indices
    _check_ids(h, vs, es)
    k = len(es)
    if k < 1 or len(vs) != k + 1:
        return False
    if len(set(vs)) != k + 1 or len(set(es)) != k:
        return False
    for i in range(k):
        edge = h.edges[es[i]]
        if vs[i] not in edge or vs[i + 1] not in edge:
            return False
    return True


def _distinct_representatives(candidates: Sequence[Sequence[int]]) -> list[int] | None:
    """Assign a distinct edge index to each position, or None if impossible.

    Kuhn's augmenting-path matching; candidate lists are scanned in order,
    so the assignment is deterministic for sorted inputs.
    """
    union: set[int] = set()
    for c in candidates:
        union.update(c)
    if len(union) < len(candidates):
        return None
    owner: dict[int, int] = {}

    def assign(pos: int, blocked: set[int]) -> bool:
        for e in candidates[pos]:
            if e in blocked:
                continue
            blocked.add(e)
            if e not in owner or assign(owner[e], blocked):
                owner[e] = pos
                return True
        return False

    for pos in range(len(candidates)):
        if not assign(pos, set()):
            return None
    out: list[int] = [-1] * len(candidates)
    for e, pos in owner.items():
        out[pos] = e
    return out


def _cycle_representatives(p2e: dict[Pair, list[int]], cycle: Sequence[int]) -> list[int] | None:
    """Distinct covering edges for the consecutive pairs of a shadow cycle, or None.

    Position i covers the pair (cycle[i], cycle[i+1]), cyclically; a result
    is exactly the edge part of a Berge cycle on these vertices.
    """
    k = len(cycle)
    cands = [
        p2e[(min(cycle[i], cycle[(i + 1) % k]), max(cycle[i], cycle[(i + 1) % k]))]
        for i in range(k)
    ]
    return _distinct_representatives(cands)


def _canonical_cycles(adj: Sequence[frozenset[int]], length: int) -> Iterator[tuple[int, ...]]:
    """Yield shadow cycles as canonical vertex tuples, in lexicographic order.

    Canonical form: smallest vertex first, reflection normalized by
    second vertex < last vertex. Length 2 means a doubled edge (a, b), a < b.
    """
    n = len(adj)
    if length == 2:
        for a in range(n):
            for b in sorted(adj[a]):
                if b > a:
                    yield (a, b)
        return
    seq = [0] * length
    in_use = [False] * n

    def extend(depth: int) -> Iterator[tuple[int, ...]]:
        first = seq[0]
        prev = seq[depth - 1]
        if depth == length - 1:
            closing = adj[prev] & adj[first]
            for v in sorted(closing):
                # v0 smallest, and v1 < v_last kills the reflected copy
                if v > seq[1] and not in_use[v]:
                    seq[depth] = v
                    yield tuple(seq)
            return
        for v in sorted(adj[prev]):
            if v > first and not in_use[v]:
                seq[depth] = v
                in_use[v] = True
                yield from extend(depth + 1)
                in_use[v] = False

    for v0 in range(n):
        seq[0] = v0
        in_use[v0] = True
        yield from extend(1)
        in_use[v0] = False


def _canonical_paths(adj: Sequence[frozenset[int]], length: int) -> Iterator[tuple[int, ...]]:
    """Yield shadow paths on length+1 vertices, direction normalized v0 < v_last."""
    n = len(adj)
    seq = [0] * (length + 1)
    in_use = [False] * n

    def extend(depth: int) -> Iterator[tuple[int, ...]]:
        prev = seq[depth - 1]
        if depth == length:
            for v in sorted(adj[prev]):
                if v > seq[0] and not in_use[v]:
                    seq[depth] = v
                    yield tuple(seq)
            return
        for v in sorted(adj[prev]):
            if not in_use[v]:
                seq[depth] = v
                in_use[v] = True
                yield from extend(depth + 1)
                in_use[v] = False

    for v0 in range(n):
        seq[0] = v0
        in_use[v0] = True
        yield from extend(1)
        in_use[v0] = False


def find_berge_cycle(h: Hypergraph, length: int) -> BergeCycleWitness | None:
    """First Berge cycle of the given length under canonical enumeration.

    Returns None when none exists. Any hypergraph with fewer than `length`
    edges has no Berge cycle of that length.
    """
    if length < 2:
        raise ValueError(f"cycle length must be >= 2, got {length}")
    if h.edge_count < length:
        return None
    g = shadow(h)
    p2e = pair_to_edges(h)
    for cyc in _canonical_cycles(g.adj, length):
        assignment = _cycle_representatives(p2e, cyc)
        if assignment is not None:
            return BergeCycleWitness(cyc, tuple(assignment))
    return None


def find_berge_path(h: Hypergraph, length: int) -> BergePathWitness | None:
    """First Berge path of the given length under canonical enumeration."""
    if length < 1:
        raise ValueError(f"path length must be >= 1, got {length}")
    if h.edge_count < length:
        return None
    g = shadow(h)
    p2e = pair_to_edges(h)
    for path in _canonical_paths(g.adj, length):
        cands = [
            p2e[(min(path[i], path[i + 1]), max(path[i], path[i + 1]))]
            for i in range(length)
        ]
        assignment = _distinct_representatives(cands)
        if assignment is not None:
            return BergePathWitness(path, tuple(assignment))
    return None


def is_bc4_free(h: Hypergraph) -> bool:
    """True iff the hypergraph has no Berge cycle of length 4."""
    return find_berge_cycle(h, 4) is None


class Bc4FreeBuilder:
    """Edge set grown one triple at a time while staying BC4-free.

    Removal is last-in-first-out, which is exactly what a depth-first search
    needs. The insertion check is local: a new Berge C4 must assign the new
    edge to some consecutive pair of its cycle, so that pair is one of the
    new edge's three pairs and only shadow 4-cycles through those pairs need
    a distinct-representatives test.
    """

    def __init__(self, n: int):
        self.n = n
        self.edges: list[Edge] = []
        self._adj: list[set[int]] = [set() for _ in range(n)]
        self._pair_edges: dict[Pair, list[int]] = {}

    def __len__(self) -> int:
        return len(self.edges)

    def add(self, triple: Sequence[int]) -> None:
        """Append the edge without any freeness check."""
        e: Edge = tuple(sorted(triple))  # type: ignore[assignment]
        idx = len(self.edges)
        self.edges.append(e)
        for p in combinations(e, 2):
            bucket = self._pair_edges.setdefault(p, [])
            if not bucket:
                self._adj[p[0]].add(p[1])
                self._adj[p[1]].add(p[0])
            bucket.append(idx)

    def pop(self) -> None:
        """Remove the most recently added edge."""
        e = self.edges.pop()
        idx = len(self.edges)
        for p in combinations(e, 2):
            bucket = self._pair_edges[p]
            if bucket[-1] != idx:
                raise RuntimeError(f"pair {p} does not end with edge {idx}: pop out of order")
            bucket.pop()
            if not bucket:
                del self._pair_edges[p]
                self._adj[p[0]].discard(p[1])
                self._adj[p[1]].discard(p[0])

    def _cycle_through_pair(self, x: int, y: int) -> bool:
        adj = self._adj
        p2e = self._pair_edges
        for w in adj[y]:
            if w == x:
                continue
            for z in adj[x] & adj[w]:
                if z == y or z == x or z == w:
                    continue
                cands = [
                    p2e[(min(x, y), max(x, y))],
                    p2e[(min(y, w), max(y, w))],
                    p2e[(min(w, z), max(w, z))],
                    p2e[(min(z, x), max(z, x))],
                ]
                if _distinct_representatives(cands) is not None:
                    return True
        return False

    def _last_edge_creates_cycle(self) -> bool:
        e = self.edges[-1]
        return any(self._cycle_through_pair(x, y) for x, y in combinations(e, 2))

    def try_add(self, triple: Sequence[int]) -> bool:
        """Add the edge iff the result stays BC4-free; report whether it was kept."""
        self.add(triple)
        if self._last_edge_creates_cycle():
            self.pop()
            return False
        return True

    def to_hypergraph(self) -> Hypergraph:
        return Hypergraph(self.n, self.edges)
