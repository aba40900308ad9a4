"""Block decomposition: maximal edge groups chained by shared vertex pairs.

Two edges are chained when they share exactly two vertices; blocks are the
connected components of that relation and partition the edge set. Blocks of
a BC4-free hypergraph are either "type 1" (one distinguished edge meets every
other edge in a pair and absorbs all pairwise intersections) or "type 2"
(the 4-vertex complete 3-graph minus one edge); arbitrary inputs may also
produce OTHER. decompose returns the blocks as a plain tuple, and
block_degrees(h, decompose(h)) is the one route to the block degrees.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from bergec4.hypergraph import Edge, Hypergraph


class BlockType(enum.Enum):
    TYPE1 = "TYPE1"
    TYPE2 = "TYPE2"
    OTHER = "OTHER"


@dataclass(frozen=True)
class Block:
    """One block: member edge indices, covered vertices, shape, leaf edges.

    classification tests the type definitions directly (TYPE2 wins if both
    hold); leaf_edges are the member edges owning a vertex that no other
    member edge meets.
    """

    edge_indices: tuple[int, ...]
    vertex_set: frozenset[int]
    classification: BlockType
    leaf_edges: tuple[int, ...]


class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def _is_type1(edges: Sequence[Edge]) -> bool:
    # an edge meeting the anchor in a pair has one vertex outside it, and two
    # such edges meet outside the anchor iff those vertices coincide
    sets = [frozenset(e) for e in edges]
    for anchor in sets:
        outside = [f - anchor for f in sets if f != anchor]
        if all(len(o) == 1 for o in outside) and len(set(outside)) == len(outside):
            return True
    return False


def decompose(h: Hypergraph) -> tuple[Block, ...]:
    """Partition the edges into blocks, classified and with leaf edges marked.

    The blocks come in order of their least edge index.

    Union-find over edges keyed by their vertex pairs: edges sharing a pair
    share exactly two vertices, which is the chain relation. Per block, one
    vertex count gives the vertex set (its keys), the leaf edges (holding a
    vertex counted once) and the TYPE2 test (3 edges on 4 vertices).
    """
    uf = _UnionFind(h.edge_count)
    first_owner: dict[tuple[int, int], int] = {}
    for i, e in enumerate(h.edges):
        for p in combinations(e, 2):
            if p in first_owner:
                uf.union(first_owner[p], i)
            else:
                first_owner[p] = i
    groups: dict[int, list[int]] = {}
    for i in range(h.edge_count):
        groups.setdefault(uf.find(i), []).append(i)
    blocks: list[Block] = []
    # groups was filled in increasing i: its keys come in order of each
    # block's least edge, and each list is already sorted
    for members in groups.values():
        indices = tuple(members)
        member_edges = [h.edges[i] for i in indices]
        count = Counter(v for e in member_edges for v in e)
        leaves = tuple(i for i, e in zip(indices, member_edges) if any(count[v] == 1 for v in e))
        if len(indices) == 3 and len(count) == 4:
            kind = BlockType.TYPE2
        else:
            kind = BlockType.TYPE1 if _is_type1(member_edges) else BlockType.OTHER
        blocks.append(Block(indices, frozenset(count), kind, leaves))
    return tuple(blocks)


def block_degrees(h: Hypergraph, blocks: Sequence[Block]) -> tuple[int, ...]:
    """Per-vertex count of blocks having some edge through the vertex."""
    out = [0] * h.n
    for block in blocks:
        for v in block.vertex_set:
            out[v] += 1
    return tuple(out)
